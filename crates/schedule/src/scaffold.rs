//! Persistent decision-graph scaffolding and scratch arenas for the incremental
//! re-timing pass (see DESIGN.md §7.5).
//!
//! Without it, every re-timing pass would pay O(V + E) set-up before relaxing
//! anything: reallocating and refilling the flat hop numbering and the relaxation
//! vectors.  The scaffold keeps all of that across passes:
//!
//! * **Persistent mirrors** — the per-edge route lengths ([`RetimeScaffold::hop_len`])
//!   and their sum ([`RetimeScaffold::total_hops`]) are maintained by the builder's
//!   mutation primitives (`push_hop`, `set_route`, `clear_route`) and by the undo
//!   interpreter on rollback.  The flat sweep numbers its hops from `hop_len` without
//!   touching the routes.  A property test pins the mirrors byte-equal to a rebuild
//!   after mutation/commit/rollback storms.
//! * **Scratch arenas** — timeline positions, the dependency list, the CSR, durations,
//!   and the Kahn frontiers are `clear()`-reused vectors whose capacity survives across
//!   all passes of a run.  Once they reach their high-water mark,
//!   [`crate::builder::ScheduleBuilder::recompute_times_incremental`] performs **zero
//!   heap allocations** (asserted by a counting-allocator test in `tests/zero_alloc.rs`
//!   and tracked by [`RetimeScaffold::realloc_events`]).
//!
//! The scaffold is owned by the builder but holds no schedule semantics of its own:
//! every pass starts from empty arenas, and the persistent parts are pure mirrors of
//! `routes[e].len()`.  Rollback therefore only has to keep the mirrors honest (via the
//! same `set_route_len` hook the forward mutations use); the arenas need no undo at all.

use crate::schedule::MessageHop;

/// Persistent scaffolding + scratch arenas for the flat re-timing sweep.
///
/// One instance lives inside every [`crate::builder::ScheduleBuilder`]; see the module
/// documentation for the design.  Fields are `pub(crate)` so the sweep in
/// [`crate::incremental`] can split-borrow the arenas around the shared tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetimeScaffold {
    // ---- persistent, incrementally maintained ------------------------------------
    /// Mirror of `routes[e].len()`, kept in lockstep by every route mutation (and by
    /// rollback).  The flat sweep numbers hops and finds each chain's last hop from it.
    pub(crate) hop_len: Vec<u32>,
    /// Sum of `hop_len` — the total number of booked hops, maintained in O(1).
    pub(crate) total_hops: usize,

    // ---- scratch arenas (clear()-reused, capacity persists) ----------------------
    /// Timeline position of each task on its processor.
    pub(crate) tpos: Vec<u32>,
    /// Dependency edges `(u, v)` of the reduced graph, flat node id → flat node id.
    pub(crate) dep_edges: Vec<(u32, u32)>,
    /// Earliest-start accumulator per node.
    pub(crate) start: Vec<f64>,
    /// Finish time per node.
    pub(crate) finish: Vec<f64>,
    /// Duration per node.
    pub(crate) dur: Vec<f64>,
    /// Kahn in-degrees per node.
    pub(crate) indeg: Vec<u32>,
    /// CSR row offsets (`m + 1` entries).
    pub(crate) offsets: Vec<u32>,
    /// CSR adjacency (one entry per dependency edge).
    pub(crate) csr: Vec<u32>,
    /// Current level of the batched Kahn frontier: nodes whose predecessors are all
    /// settled.
    pub(crate) frontier: Vec<u32>,
    /// Next level of the batched frontier (swapped with `frontier` per sweep).
    pub(crate) frontier_next: Vec<u32>,
    /// Node id of each edge's hop 0 (`num_tasks` plus the prefix sum of `hop_len`),
    /// refilled per pass.
    pub(crate) hop_base: Vec<u32>,

    /// Number of passes after which some arena had to grow (capacity high-water moved).
    /// Steady state is *zero new events*: the counting-allocator test asserts the hard
    /// version of this, the counter makes regressions observable in release builds too.
    realloc_events: u64,
    /// Sum of arena capacities at the end of the previous pass.
    capacity_watermark: usize,
}

impl RetimeScaffold {
    /// Scaffold for a builder over `num_edges` edges.  The only allocation of the
    /// scaffold's lifetime that scales with the problem happens here (and on first
    /// growth of each arena) — never per pass in steady state.
    pub(crate) fn for_problem(num_edges: usize) -> Self {
        RetimeScaffold {
            hop_len: vec![0; num_edges],
            ..Self::default()
        }
    }

    /// Keeps the persistent mirrors in lockstep with a route-length change of edge `e`.
    /// Called by every mutation that changes a route's shape (`set_route`,
    /// `clear_route`/`detach`, `push_hop`) **and** by the undo interpreter, so rollback
    /// restores the scaffold through the same single hook.
    pub(crate) fn set_route_len(&mut self, e: usize, len: usize) {
        let old = self.hop_len[e] as usize;
        self.total_hops = self.total_hops - old + len;
        self.hop_len[e] = len as u32;
    }

    /// Starts a pass: clears the arenas, keeping their capacity.
    pub(crate) fn begin_pass(&mut self) {
        self.tpos.clear();
        self.dep_edges.clear();
        self.start.clear();
        self.finish.clear();
        self.dur.clear();
        self.indeg.clear();
        self.offsets.clear();
        self.csr.clear();
        self.frontier.clear();
        self.frontier_next.clear();
        self.hop_base.clear();
    }

    /// Ends a pass: records whether any arena grew past the previous high-water mark.
    pub(crate) fn end_pass(&mut self) {
        let cap = self.tpos.capacity()
            + self.dep_edges.capacity()
            + self.start.capacity()
            + self.finish.capacity()
            + self.dur.capacity()
            + self.indeg.capacity()
            + self.offsets.capacity()
            + self.csr.capacity()
            + self.frontier.capacity()
            + self.frontier_next.capacity()
            + self.hop_base.capacity();
        if cap > self.capacity_watermark {
            if self.capacity_watermark != 0 {
                self.realloc_events += 1;
            }
            self.capacity_watermark = cap;
        }
    }

    /// Number of passes (excluding the first) in which an arena had to grow.
    pub(crate) fn realloc_events(&self) -> u64 {
        self.realloc_events
    }

    /// Checks the persistent mirrors against a rebuild from `routes`: `hop_len`
    /// byte-equal and `total_hops` equal.
    pub(crate) fn matches_rebuild(&self, routes: &[Vec<MessageHop>]) -> bool {
        self.hop_len.len() == routes.len()
            && self
                .hop_len
                .iter()
                .zip(routes)
                .all(|(&len, r)| len as usize == r.len())
            && self.total_hops == routes.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_len_mirror_tracks_total_hops_and_capacity() {
        let mut sc = RetimeScaffold::for_problem(3);
        sc.set_route_len(0, 3);
        sc.set_route_len(2, 1);
        assert_eq!(sc.total_hops, 4);
        assert_eq!(sc.hop_len, vec![3, 0, 1]);
        sc.set_route_len(0, 1);
        assert_eq!(sc.total_hops, 2);
        assert_eq!(sc.hop_len, vec![1, 0, 1]);
    }

    #[test]
    fn arena_growth_is_counted_once_per_pass() {
        let mut sc = RetimeScaffold::for_problem(0);
        sc.begin_pass();
        sc.tpos.extend([0; 4]);
        sc.end_pass();
        // First pass establishes the watermark without counting an event.
        assert_eq!(sc.realloc_events(), 0);
        sc.begin_pass();
        sc.tpos.extend([0; 4]);
        sc.end_pass();
        assert_eq!(sc.realloc_events(), 0);
        // A pass that outgrows the watermark counts once, however many pushes grew it.
        sc.begin_pass();
        sc.tpos.extend([0; 64]);
        sc.tpos.extend([0; 64]);
        sc.end_pass();
        assert_eq!(sc.realloc_events(), 1);
    }
}
