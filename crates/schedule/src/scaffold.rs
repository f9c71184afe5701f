//! Persistent decision-graph scaffolding and scratch arenas for the incremental
//! re-timing pass (see DESIGN.md §7.5).
//!
//! Without it, every re-timing pass would pay O(V + E) set-up before relaxing
//! anything: reallocating and refilling the flat hop numbering, the task/hop slot
//! maps, and the relaxation vectors.  The scaffold keeps all of that across passes:
//!
//! * **Persistent mirrors** — the per-edge route lengths ([`RetimeScaffold::hop_len`])
//!   and their sum ([`RetimeScaffold::total_hops`]) are maintained by the builder's
//!   mutation primitives (`push_hop`, `set_route`, `clear_route`) and by the undo
//!   interpreter on rollback.  The flat sweep numbers its hops from `hop_len` without
//!   touching the routes, and the cone kernel never needs the numbering.  A property
//!   test pins the mirrors byte-equal to a rebuild after mutation/commit/rollback
//!   storms.
//! * **Epoch-stamped slot maps** — the cone kernel's membership of a task or hop is a
//!   `(stamp, slot)` pair packed in a `u64`; a pass begins by bumping a `u32` epoch
//!   instead of clearing (or reallocating) the maps.  Lookup stays a dense array
//!   index: no hashing, no zero-fill.
//! * **Scratch arenas** — cone nodes, timeline positions, the dependency list, the CSR,
//!   durations, and the Kahn frontiers are `clear()`-reused vectors shared by both
//!   kernels, whose capacity survives across all passes of a run.  Once they reach
//!   their high-water mark,
//!   [`crate::builder::ScheduleBuilder::recompute_times_from`] performs **zero heap
//!   allocations** (asserted by a counting-allocator test in `tests/zero_alloc.rs` and
//!   tracked by [`RetimeScaffold::realloc_events`]).
//!
//! The scaffold is owned by the builder but holds no schedule semantics of its own:
//! the epoch discipline makes every pass start from empty arenas, and the persistent
//! parts are pure mirrors of `routes[e].len()`.  Rollback therefore only has to keep
//! the mirrors honest (via the same `set_route_len` hook the forward mutations use);
//! the arenas need no undo at all.

use crate::schedule::MessageHop;
use crate::txn::DirtyNode;

/// Sentinel for "not in the cone" in slot lookups.
pub(crate) const NONE: u32 = u32::MAX;

/// Persistent scaffolding + scratch arenas for the re-timing kernels.
///
/// One instance lives inside every [`crate::builder::ScheduleBuilder`]; see the module
/// documentation for the design.  Fields are `pub(crate)` so the kernels in
/// [`crate::incremental`] can split-borrow the arenas around the shared tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetimeScaffold {
    // ---- persistent, incrementally maintained ------------------------------------
    /// Mirror of `routes[e].len()`, kept in lockstep by every route mutation (and by
    /// rollback).  The flat sweep numbers hops and finds each chain's last hop from it.
    pub(crate) hop_len: Vec<u32>,
    /// Sum of `hop_len` — the total number of booked hops, maintained in O(1).
    pub(crate) total_hops: usize,

    // ---- epoch-stamped slot maps (never cleared, invalidated by epoch bump) ------
    /// Current pass epoch; a slot entry is valid iff its stamp equals this.
    pub(crate) epoch: u32,
    /// Per-task `(stamp << 32) | slot`.
    pub(crate) task_mark: Vec<u64>,
    /// Per-edge, per-hop `(stamp << 32) | slot`.  Inner vectors only ever grow (to the
    /// longest route the edge has ever had), so stale high indices are dead storage,
    /// never consulted: lookups are bounded by the *current* route length.
    pub(crate) hop_mark: Vec<Vec<u64>>,

    // ---- scratch arenas (clear()-reused, capacity persists) ----------------------
    /// Cone nodes in discovery order (cone kernel).
    pub(crate) nodes: Vec<DirtyNode>,
    /// Timeline position of each cone node's interval (cone kernel), or of each task
    /// on its processor (flat sweep).
    pub(crate) tpos: Vec<u32>,
    /// Dependency edges `(u, v)`: the cone's (slot → slot) or the reduced graph's (flat
    /// node id → flat node id).
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
    /// Flat sweep: node id of each edge's hop 0 (`num_tasks` plus the prefix sum of
    /// `hop_len`), refilled per flat pass.
    pub(crate) hop_base: Vec<u32>,

    /// Number of passes after which some arena had to grow (capacity high-water moved).
    /// Steady state is *zero new events*: the counting-allocator test asserts the hard
    /// version of this, the counter makes regressions observable in release builds too.
    realloc_events: u64,
    /// Sum of arena capacities at the end of the previous pass.
    capacity_watermark: usize,
}

impl RetimeScaffold {
    /// Scaffold for a builder over `num_tasks` tasks and `num_edges` edges.  The only
    /// allocations of the scaffold's lifetime that scale with the problem happen here
    /// (and on first growth of each arena) — never per pass in steady state.
    pub(crate) fn for_problem(num_tasks: usize, num_edges: usize) -> Self {
        RetimeScaffold {
            hop_len: vec![0; num_edges],
            total_hops: 0,
            epoch: 0,
            task_mark: vec![0; num_tasks],
            hop_mark: vec![Vec::new(); num_edges],
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
        // Grow-only: capacity for the longest route this edge has ever carried.
        if self.hop_mark[e].len() < len {
            self.hop_mark[e].resize(len, 0);
        }
    }

    /// Starts a pass: invalidates every slot entry by bumping the epoch and clears the
    /// arenas (keeping their capacity).
    pub(crate) fn begin_pass(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(n) => n,
            None => {
                // Wraparound (once per 2^32 passes): stale stamps could collide with a
                // restarted epoch, so clear the maps for real and restart at 1.
                self.task_mark.iter_mut().for_each(|m| *m = 0);
                self.hop_mark
                    .iter_mut()
                    .for_each(|v| v.iter_mut().for_each(|m| *m = 0));
                1
            }
        };
        self.nodes.clear();
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
        let cap = self.nodes.capacity()
            + self.tpos.capacity()
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

    /// Cone slot of `n`, or [`NONE`] if `n` is outside the cone this pass.  The pass
    /// itself uses [`slot_lookup`] against split borrows; this convenience wrapper
    /// serves the unit tests.
    #[cfg(test)]
    pub(crate) fn slot(&self, n: DirtyNode) -> u32 {
        slot_lookup(self.epoch, &self.task_mark, &self.hop_mark, n)
    }

    /// Claims the next cone slot for `n` if it has none yet.  Returns `(slot, fresh)`;
    /// when `fresh` the caller must push the node's timeline position onto `tpos`.
    pub(crate) fn claim_slot(&mut self, n: DirtyNode) -> (u32, bool) {
        let epoch = self.epoch;
        let mark = match n {
            DirtyNode::Task(t) => &mut self.task_mark[t.index()],
            DirtyNode::Hop(e, k) => &mut self.hop_mark[e.index()][k as usize],
        };
        if (*mark >> 32) as u32 == epoch {
            return (*mark as u32, false);
        }
        let slot = self.nodes.len() as u32;
        *mark = ((epoch as u64) << 32) | slot as u64;
        self.nodes.push(n);
        (slot, true)
    }

    /// The persistent mirrors rebuilt from scratch, for equality checks against the
    /// incrementally maintained state
    /// ([`crate::builder::ScheduleBuilder::scaffold_matches_rebuild`]).
    pub(crate) fn rebuild_persistent(routes: &[Vec<MessageHop>]) -> (Vec<u32>, usize) {
        let hop_len: Vec<u32> = routes.iter().map(|r| r.len() as u32).collect();
        let total = hop_len.iter().map(|&n| n as usize).sum();
        (hop_len, total)
    }

    /// Checks the persistent state against a rebuild: `hop_len` byte-equal, `total_hops`
    /// equal, and every slot map sized to its decision-graph object.
    pub(crate) fn matches_rebuild(&self, num_tasks: usize, routes: &[Vec<MessageHop>]) -> bool {
        let (hop_len, total) = Self::rebuild_persistent(routes);
        self.hop_len == hop_len
            && self.total_hops == total
            && self.task_mark.len() == num_tasks
            && self.hop_mark.len() == routes.len()
            && self
                .hop_mark
                .iter()
                .zip(self.hop_len.iter())
                .all(|(marks, &len)| marks.len() >= len as usize)
    }
}

/// Slot lookup against split-borrowed mark tables (used by the pass while the arenas
/// are mutably borrowed; [`RetimeScaffold::slot`] is the whole-struct convenience).
pub(crate) fn slot_lookup(
    epoch: u32,
    task_mark: &[u64],
    hop_mark: &[Vec<u64>],
    n: DirtyNode,
) -> u32 {
    let mark = match n {
        DirtyNode::Task(t) => task_mark[t.index()],
        DirtyNode::Hop(e, k) => hop_mark[e.index()][k as usize],
    };
    if (mark >> 32) as u32 == epoch {
        mark as u32
    } else {
        NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_taskgraph::{EdgeId, TaskId};

    #[test]
    fn epoch_bump_invalidates_all_slots() {
        let mut sc = RetimeScaffold::for_problem(3, 2);
        sc.set_route_len(0, 2);
        sc.begin_pass();
        let (s0, fresh) = sc.claim_slot(DirtyNode::Task(TaskId(1)));
        assert!(fresh);
        sc.tpos.push(0);
        assert_eq!(s0, 0);
        assert_eq!(sc.slot(DirtyNode::Task(TaskId(1))), 0);
        assert_eq!(sc.slot(DirtyNode::Task(TaskId(0))), NONE);
        let (h, fresh) = sc.claim_slot(DirtyNode::Hop(EdgeId(0), 1));
        assert!(fresh);
        sc.tpos.push(0);
        assert_eq!(h, 1);
        // Re-claiming is a no-op.
        assert_eq!(sc.claim_slot(DirtyNode::Task(TaskId(1))), (0, false));
        // A new pass forgets everything without clearing the maps.
        sc.begin_pass();
        assert_eq!(sc.slot(DirtyNode::Task(TaskId(1))), NONE);
        assert_eq!(sc.slot(DirtyNode::Hop(EdgeId(0), 1)), NONE);
    }

    #[test]
    fn route_len_mirror_tracks_total_hops_and_capacity() {
        let mut sc = RetimeScaffold::for_problem(2, 3);
        sc.set_route_len(0, 3);
        sc.set_route_len(2, 1);
        assert_eq!(sc.total_hops, 4);
        assert_eq!(sc.hop_len, vec![3, 0, 1]);
        // Shrinking keeps the mark capacity (grow-only).
        sc.set_route_len(0, 1);
        assert_eq!(sc.total_hops, 2);
        assert!(sc.hop_mark[0].len() >= 3);
    }

    #[test]
    fn arena_growth_is_counted_once_per_pass() {
        let mut sc = RetimeScaffold::for_problem(4, 0);
        sc.begin_pass();
        for i in 0..4 {
            sc.claim_slot(DirtyNode::Task(TaskId(i)));
            sc.tpos.push(0);
        }
        sc.end_pass();
        // First pass establishes the watermark without counting an event.
        assert_eq!(sc.realloc_events(), 0);
        sc.begin_pass();
        sc.end_pass();
        assert_eq!(sc.realloc_events(), 0);
    }
}
