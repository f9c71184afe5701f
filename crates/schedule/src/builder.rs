//! Mutable working representation used by the scheduling algorithms.
//!
//! A [`ScheduleBuilder`] tracks, for one task graph and one heterogeneous system:
//!
//! * the processor assignment and execution window of every placed task;
//! * the per-processor busy timelines (for gap search / insertion scheduling);
//! * the link route (sequence of [`MessageHop`]s) of every inter-processor message;
//! * the per-link busy timelines.
//!
//! Algorithms query the timelines with [`ScheduleBuilder::earliest_proc_slot`] /
//! [`ScheduleBuilder::earliest_link_slot`], commit decisions with
//! [`ScheduleBuilder::place_task`] / [`ScheduleBuilder::set_route`], undo them with
//! [`ScheduleBuilder::unplace_task`] / [`ScheduleBuilder::clear_route`], and can ask for a
//! global re-timing that preserves every ordering decision with
//! [`ScheduleBuilder::recompute_times`] (the "bubble up" compaction BSA relies on) — or
//! for the incremental variant [`ScheduleBuilder::recompute_times_incremental`], which
//! reuses persistent arenas and checks only the messages of the tasks changed since
//! the last re-timing.
//!
//! Speculative work (evaluating a candidate migration or message route without
//! committing it) goes through the transactional API in [`crate::txn`]:
//! [`ScheduleBuilder::begin_txn`] / [`ScheduleBuilder::commit`] /
//! [`ScheduleBuilder::rollback`], or the [`ScheduleBuilder::speculate`] wrapper.

use crate::incremental::{recompute_incremental, RetimeStats};
use crate::recompute::{recompute, RecomputeError};
use crate::scaffold::RetimeScaffold;
use crate::schedule::{MessageHop, MessageRoute, Schedule, TaskPlacement};
use crate::solver::SolveError;
use crate::timeline::Timeline;
use crate::txn::UndoOp;
use bsa_network::{HeterogeneousSystem, LinkId, LinkMode, ProcId};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId};

/// Number of independent link-contention timelines ("slots") a system needs: one per
/// link when links are half-duplex, one per *direction* when they are full-duplex.
pub(crate) fn num_link_slots(system: &HeterogeneousSystem) -> usize {
    match system.topology.link_mode() {
        LinkMode::HalfDuplex => system.num_links(),
        LinkMode::FullDuplex => 2 * system.num_links(),
    }
}

/// Mutable schedule under construction.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'a> {
    pub(crate) graph: &'a TaskGraph,
    pub(crate) system: &'a HeterogeneousSystem,
    pub(crate) assignment: Vec<Option<ProcId>>,
    pub(crate) task_start: Vec<f64>,
    pub(crate) task_finish: Vec<f64>,
    pub(crate) proc_timelines: Vec<Timeline<TaskId>>,
    /// Route of every edge; empty = local (or not yet routed).
    pub(crate) routes: Vec<Vec<MessageHop>>,
    /// Busy intervals of every link-contention slot; payload = (edge, hop index within
    /// the edge's route).  Half-duplex topologies have one slot per link; full-duplex
    /// topologies have one per *direction* (see [`ScheduleBuilder::link_slot`]), so
    /// opposite-direction transfers never contend.
    pub(crate) link_timelines: Vec<Timeline<(EdgeId, u32)>>,
    /// Undo log of the open transaction(s); empty when no transaction is open.
    pub(crate) undo: Vec<UndoOp>,
    /// Nesting depth of open transactions (see [`crate::txn`]).
    pub(crate) txn_depth: usize,
    /// Tasks placed, moved or given a changed incoming route since the last re-timing
    /// (see [`crate::txn`]).  A sparse set: deduplicated at insertion via the position
    /// stamps below, so bulk mutation batches don't bloat it.
    pub(crate) dirty: Vec<TaskId>,
    /// Per-task position stamp: a task is in `dirty` iff `dirty[stamp] == task`.
    /// Emptying or truncating the list needs no stamp writes (a stale stamp points past
    /// the end or at another task).
    pub(crate) dirty_stamp: Vec<usize>,
    /// Dirty lists consumed by re-timing passes inside open transactions, so rollback
    /// can put them back (see [`UndoOp::ClearDirty`]).  Watermarked like
    /// `retime_undo_tasks`; cleared when the outermost transaction commits.
    pub(crate) dirty_saved: Vec<TaskId>,
    /// Number of currently placed tasks (maintained by place/unplace and their undos),
    /// so the re-timing pass can reject a partial placement in O(1).
    pub(crate) placed_count: usize,
    /// Persistent decision-graph scaffolding + scratch arenas for the re-timing pass
    /// (see [`crate::scaffold`]).  Kept in lockstep by the route mutations below and by
    /// the undo interpreter; never rebuilt from scratch.
    pub(crate) scaffold: RetimeScaffold,
    /// Old `(task, start, finish)` windows saved by re-timing passes inside open
    /// transactions.  [`UndoOp::Retime`] records watermarks into this stack instead of
    /// owning a fresh vector, so steady-state re-timing allocates nothing; the stack is
    /// truncated by rollback and cleared when the outermost transaction commits.
    pub(crate) retime_undo_tasks: Vec<(TaskId, f64, f64)>,
    /// Hop counterpart of [`ScheduleBuilder::retime_undo_tasks`]:
    /// `(edge, hop index, start, finish)`.
    pub(crate) retime_undo_hops: Vec<(EdgeId, u32, f64, f64)>,
}

impl<'a> ScheduleBuilder<'a> {
    /// Creates an empty builder for `graph` on `system`.
    pub fn new(graph: &'a TaskGraph, system: &'a HeterogeneousSystem) -> Result<Self, SolveError> {
        system
            .validate_for(graph)
            .map_err(|detail| SolveError::Mismatch { detail })?;
        Ok(Self::new_prevalidated(graph, system))
    }

    /// Creates an empty builder for a pair already validated by
    /// [`Problem::new`](crate::solver::Problem::new), skipping the re-validation.
    pub(crate) fn new_prevalidated(graph: &'a TaskGraph, system: &'a HeterogeneousSystem) -> Self {
        ScheduleBuilder {
            graph,
            system,
            assignment: vec![None; graph.num_tasks()],
            task_start: vec![0.0; graph.num_tasks()],
            task_finish: vec![0.0; graph.num_tasks()],
            proc_timelines: vec![Timeline::new(); system.num_processors()],
            routes: vec![Vec::new(); graph.num_edges()],
            link_timelines: vec![Timeline::new(); num_link_slots(system)],
            undo: Vec::new(),
            txn_depth: 0,
            dirty: Vec::new(),
            dirty_stamp: vec![0; graph.num_tasks()],
            dirty_saved: Vec::new(),
            placed_count: 0,
            scaffold: RetimeScaffold::for_problem(graph.num_edges()),
            retime_undo_tasks: Vec::new(),
            retime_undo_hops: Vec::new(),
        }
    }

    /// The task graph being scheduled.
    pub fn graph(&self) -> &'a TaskGraph {
        self.graph
    }

    /// The target system.
    pub fn system(&self) -> &'a HeterogeneousSystem {
        self.system
    }

    // ------------------------------------------------------------------ queries

    /// Whether task `t` has been placed.
    pub fn is_placed(&self, t: TaskId) -> bool {
        self.assignment[t.index()].is_some()
    }

    /// Whether every task has been placed.
    pub fn all_placed(&self) -> bool {
        self.placed_count == self.graph.num_tasks()
    }

    /// The processor of task `t` (`None` if unplaced).
    pub fn proc_of(&self, t: TaskId) -> Option<ProcId> {
        self.assignment[t.index()]
    }

    /// Start time of task `t` (meaningful only when placed).
    pub fn start_of(&self, t: TaskId) -> f64 {
        self.task_start[t.index()]
    }

    /// Finish time of task `t` (meaningful only when placed).
    pub fn finish_of(&self, t: TaskId) -> f64 {
        self.task_finish[t.index()]
    }

    /// Actual execution cost of `t` on `p`.
    pub fn exec_cost(&self, t: TaskId, p: ProcId) -> f64 {
        self.system.exec_cost(t, p)
    }

    /// Actual transfer time of edge `e` over link `l`.
    pub fn transfer_time(&self, l: LinkId, e: EdgeId) -> f64 {
        self.system
            .transfer_time(l, self.graph.edge(e).nominal_cost)
    }

    /// The busy timeline of processor `p`.
    pub fn proc_timeline(&self, p: ProcId) -> &Timeline<TaskId> {
        &self.proc_timelines[p.index()]
    }

    /// The contention-timeline slot of a transmission leaving `from` over `l`: the
    /// link itself under half-duplex, the link's `from`-direction under full-duplex.
    /// Every piece of link bookkeeping (booking, gap search, re-timing, undo) indexes
    /// the link-timeline set through this, so the whole kernel agrees on what
    /// "contends" means.
    #[inline]
    pub fn link_slot(&self, l: LinkId, from: ProcId) -> usize {
        match self.system.topology.link_mode() {
            LinkMode::HalfDuplex => l.index(),
            LinkMode::FullDuplex => {
                2 * l.index() + usize::from(from != self.system.topology.link(l).a)
            }
        }
    }

    /// The busy timeline of link `l`.
    ///
    /// Only meaningful on half-duplex topologies, where a link has exactly one
    /// timeline; full-duplex callers must name a direction via
    /// [`ScheduleBuilder::link_timeline_dir`].
    pub fn link_timeline(&self, l: LinkId) -> &Timeline<(EdgeId, u32)> {
        debug_assert_eq!(
            self.system.topology.link_mode(),
            LinkMode::HalfDuplex,
            "link_timeline is ambiguous on full-duplex links; use link_timeline_dir"
        );
        &self.link_timelines[l.index()]
    }

    /// The busy timeline of the `from`-direction of link `l` (on half-duplex
    /// topologies both directions share one timeline).
    pub fn link_timeline_dir(&self, l: LinkId, from: ProcId) -> &Timeline<(EdgeId, u32)> {
        &self.link_timelines[self.link_slot(l, from)]
    }

    /// Tasks currently placed on `p`, in start-time (timeline) order.
    ///
    /// Borrows the processor's timeline directly — no allocation.  Callers that mutate
    /// the builder while iterating must collect first.
    pub fn tasks_on(&self, p: ProcId) -> impl Iterator<Item = TaskId> + '_ {
        self.proc_timelines[p.index()].payloads()
    }

    /// The current route of edge `e` (empty = local / unrouted).
    pub fn route(&self, e: EdgeId) -> &[MessageHop] {
        &self.routes[e.index()]
    }

    /// Earliest start ≥ `ready` at which a task of length `duration` fits on `p`
    /// (insertion scheduling).
    pub fn earliest_proc_slot(&self, p: ProcId, ready: f64, duration: f64) -> f64 {
        self.proc_timelines[p.index()].earliest_gap(ready, duration)
    }

    /// Earliest start ≥ `ready` at which the last task of `p` would allow appending
    /// (non-insertion scheduling).
    pub fn earliest_proc_append(&self, p: ProcId, ready: f64) -> f64 {
        self.proc_timelines[p.index()].earliest_append(ready)
    }

    /// Earliest start ≥ `ready` at which a transmission of length `duration` leaving
    /// `from` fits on `l`.  Direction-aware: on a full-duplex link only
    /// same-direction traffic contends.
    pub fn earliest_link_slot(&self, l: LinkId, from: ProcId, ready: f64, duration: f64) -> f64 {
        self.link_timelines[self.link_slot(l, from)].earliest_gap(ready, duration)
    }

    /// Current makespan (max finish over placed tasks).
    pub fn schedule_length(&self) -> f64 {
        self.graph
            .task_ids()
            .filter(|&t| self.is_placed(t))
            .map(|t| self.finish_of(t))
            .fold(0.0f64, f64::max)
    }

    /// Data-ready time of a *placed* task under the current routes: the latest arrival of
    /// its incoming messages, together with the predecessor responsible for it (the
    /// paper's VIP — very important predecessor).
    ///
    /// Local messages arrive when their producer finishes; remote messages arrive when the
    /// last hop of their route completes.  Returns `(0.0, None)` for entry tasks.
    pub fn current_drt(&self, t: TaskId) -> (f64, Option<TaskId>) {
        let mut best = f64::NEG_INFINITY;
        let mut vip = None;
        let mut drt = 0.0f64;
        for &eid in self.graph.in_edges(t) {
            let e = self.graph.edge(eid);
            let arrival = match self.routes[eid.index()].last() {
                Some(hop) => hop.finish,
                None => self.task_finish[e.src.index()],
            };
            drt = drt.max(arrival);
            if arrival > best {
                best = arrival;
                vip = Some(e.src);
            }
        }
        (drt, vip)
    }

    // ---------------------------------------------------------------- mutations

    /// Places task `t` on processor `p` starting at `start`; the finish time is derived
    /// from the actual execution cost.
    ///
    /// # Panics
    /// Panics if the task is already placed, or (in debug builds) if the execution window
    /// overlaps an existing task on `p`.
    pub fn place_task(&mut self, t: TaskId, p: ProcId, start: f64) {
        assert!(
            self.assignment[t.index()].is_none(),
            "task {t} is already placed; unplace it first"
        );
        let duration = self.exec_cost(t, p);
        let old_start = self.task_start[t.index()];
        let old_finish = self.task_finish[t.index()];
        self.assignment[t.index()] = Some(p);
        self.placed_count += 1;
        self.task_start[t.index()] = start;
        self.task_finish[t.index()] = start + duration;
        let pos = self.proc_timelines[p.index()].insert(start, duration, t);
        // The task following the inserted window gains a new processor-order
        // predecessor; the task itself is new to the decision graph.
        let follower = self.proc_timelines[p.index()]
            .intervals()
            .get(pos + 1)
            .map(|iv| iv.payload);
        if let Some(next) = follower {
            self.mark_dirty(next);
        }
        self.mark_dirty(t);
        self.log_undo(UndoOp::Place {
            task: t,
            old_start,
            old_finish,
        });
    }

    /// Removes task `t` from its processor timeline and marks it unplaced.
    ///
    /// The task's message routes are *not* touched; callers usually clear or reroute the
    /// affected edges right after.
    pub fn unplace_task(&mut self, t: TaskId) {
        if let Some(p) = self.assignment[t.index()].take() {
            self.placed_count -= 1;
            let start = self.task_start[t.index()];
            let finish = self.task_finish[t.index()];
            let tl = &mut self.proc_timelines[p.index()];
            let pos = tl
                .position_at(start, |x| x == t)
                .expect("placed task is on its processor's timeline");
            let follower = tl.intervals().get(pos + 1).map(|iv| iv.payload);
            tl.remove_index(pos);
            // The task that followed `t` inherits `t`'s processor-order predecessor.
            if let Some(next) = follower {
                self.mark_dirty(next);
            }
            self.mark_dirty(t);
            self.log_undo(UndoOp::Unplace {
                task: t,
                proc: p,
                start,
                finish,
            });
        }
    }

    /// Evicts task `t`: clears the routes of every incident edge, then unplaces the
    /// task.  One undoable group on the transaction log — the partial-eviction
    /// primitive of warm-started re-solving (`Solution::resolve`) and of any repair
    /// loop that re-places a task together with its messages.
    pub fn evict_task(&mut self, t: TaskId) {
        let graph = self.graph;
        for &e in graph.in_edges(t) {
            self.clear_route(e);
        }
        for &e in graph.out_edges(t) {
            self.clear_route(e);
        }
        self.unplace_task(t);
    }

    /// Replaces the route of edge `e` with `hops`, updating the link timelines.
    ///
    /// Passing an empty vector makes the message local.
    pub fn set_route(&mut self, e: EdgeId, hops: Vec<MessageHop>) {
        if self.routes[e.index()].is_empty() && hops.is_empty() {
            return;
        }
        let old = self.detach_route(e);
        for (k, hop) in hops.iter().enumerate() {
            self.book_hop(e, k as u32, hop);
        }
        self.scaffold.set_route_len(e.index(), hops.len());
        self.routes[e.index()] = hops;
        self.mark_dirty(self.graph.edge(e).dst);
        self.log_undo(UndoOp::Route { edge: e, hops: old });
    }

    /// Removes the route of edge `e` from the link timelines and makes the message local.
    pub fn clear_route(&mut self, e: EdgeId) {
        if self.routes[e.index()].is_empty() {
            return;
        }
        let old = self.detach_route(e);
        self.mark_dirty(self.graph.edge(e).dst);
        self.log_undo(UndoOp::Route { edge: e, hops: old });
    }

    /// Appends one hop to the route of edge `e`, booking its window on the hop's link
    /// timeline.  This is the incremental-routing primitive: BSA extends a migrating
    /// task's message routes one hop at a time, and the baselines' tentative routing
    /// builds candidate routes with it under [`ScheduleBuilder::speculate`].
    ///
    /// # Panics
    /// Panics (in debug builds) if the hop's window overlaps existing traffic on the
    /// link; obtain `hop.start` from [`ScheduleBuilder::earliest_link_slot`].
    pub fn push_hop(&mut self, e: EdgeId, hop: MessageHop) {
        let k = self.routes[e.index()].len() as u32;
        self.book_hop(e, k, &hop);
        self.routes[e.index()].push(hop);
        self.scaffold
            .set_route_len(e.index(), self.routes[e.index()].len());
        self.mark_dirty(self.graph.edge(e).dst);
        self.log_undo(UndoOp::PopHop(e));
    }

    /// Books hop `k` of edge `e` on its link timeline.  The caller marks the message's
    /// consumer dirty.
    fn book_hop(&mut self, e: EdgeId, k: u32, hop: &MessageHop) {
        let slot = self.link_slot(hop.link, hop.from);
        self.link_timelines[slot].insert(hop.start, hop.finish - hop.start, (e, k));
    }

    /// Unbooks every hop of edge `e` from the link timelines and returns the old hops.
    /// Does not log or mark.
    fn detach_route(&mut self, e: EdgeId) -> Vec<MessageHop> {
        let old = std::mem::take(&mut self.routes[e.index()]);
        self.scaffold.set_route_len(e.index(), 0);
        for (k, hop) in old.iter().enumerate() {
            let slot = self.link_slot(hop.link, hop.from);
            self.link_timelines[slot]
                .remove_at(hop.start, |pl| pl == (e, k as u32))
                .expect("routed hop is on its link's timeline");
        }
        old
    }

    /// Recomputes every task and hop time from the current *decisions* (assignments,
    /// per-processor order, routes, per-link order), compacting any idle gaps while
    /// preserving all orderings.  See [`crate::recompute`].
    ///
    /// This is the full-relaxation oracle; the migration hot path uses
    /// [`ScheduleBuilder::recompute_times_incremental`] instead.
    pub fn recompute_times(&mut self) -> Result<(), RecomputeError> {
        recompute(self)
    }

    /// Re-times the schedule after the mutations made since the last re-timing
    /// (tracked automatically by every mutation) with one flat sweep over the reduced
    /// decision graph on the builder's persistent arenas.  Produces exactly the times
    /// and errors of [`ScheduleBuilder::recompute_times`]: a partial placement is
    /// [`RecomputeError::UnplacedTask`], checked first, and a pass with nothing dirty
    /// changes nothing.  See [`crate::incremental`].
    ///
    /// On error nothing is modified (and the dirty set is kept), so a transaction
    /// rollback restores the exact pre-transaction state.
    pub fn recompute_times_incremental(&mut self) -> Result<RetimeStats, RecomputeError> {
        recompute_incremental(self)
    }

    /// Whether the incrementally maintained re-timing scaffold (per-edge route-length
    /// mirror and total-hop count) is byte-equal to one rebuilt from scratch off the
    /// current routes.  Always true by construction; exposed so the property suite can
    /// pin the incremental maintenance (including its interaction with rollback)
    /// against the rebuild.
    pub fn scaffold_matches_rebuild(&self) -> bool {
        self.scaffold.matches_rebuild(&self.routes)
    }

    /// Number of re-timing passes (beyond the first) in which a scratch arena had to
    /// grow.  Zero once the run reaches steady state — the release-build observable
    /// counterpart of the counting-allocator test in `tests/zero_alloc.rs`.
    pub fn scaffold_realloc_events(&self) -> u64 {
        self.scaffold.realloc_events()
    }

    /// Exact structural equality of the *schedule state* — assignments, task times,
    /// routes, hop times, and both timeline sets, compared bit-for-bit (`f64` included).
    /// Transaction bookkeeping (undo log, dirty list) is ignored.
    ///
    /// This is the equality the rollback guarantee is stated in: after
    /// [`ScheduleBuilder::rollback`], the builder is `same_schedule_state` with its
    /// pre-transaction self.
    pub fn same_schedule_state(&self, other: &Self) -> bool {
        self.assignment == other.assignment
            && self.task_start == other.task_start
            && self.task_finish == other.task_finish
            && self.routes == other.routes
            && self.proc_timelines == other.proc_timelines
            && self.link_timelines == other.link_timelines
    }

    /// Finalizes the builder into an immutable [`Schedule`], reporting an unplaced
    /// task or a routeless inter-processor edge as [`SolveError::UnplacedTask`] or
    /// [`SolveError::MissingRoute`].
    pub fn finish(self, algorithm: impl Into<String>) -> Result<Schedule, SolveError> {
        let mut placements = Vec::with_capacity(self.graph.num_tasks());
        for t in self.graph.task_ids() {
            let proc = self.assignment[t.index()].ok_or(SolveError::UnplacedTask { task: t })?;
            placements.push(TaskPlacement {
                task: t,
                proc,
                start: self.task_start[t.index()],
                finish: self.task_finish[t.index()],
            });
        }
        let mut routes = Vec::with_capacity(self.graph.num_edges());
        for e in self.graph.edge_ids() {
            let edge = self.graph.edge(e);
            let src_p = placements[edge.src.index()].proc;
            let dst_p = placements[edge.dst.index()].proc;
            let hops = &self.routes[e.index()];
            if src_p != dst_p && hops.is_empty() {
                return Err(SolveError::MissingRoute { edge: e });
            }
            routes.push(MessageRoute {
                edge: e,
                hops: hops.clone(),
            });
        }
        Ok(Schedule::new(
            algorithm,
            placements,
            routes,
            self.system.num_processors(),
            self.system.num_links(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::HeterogeneousSystem;
    use bsa_taskgraph::TaskGraphBuilder;

    fn chain_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task("T0", 10.0);
        let t1 = b.add_task("T1", 20.0);
        let t2 = b.add_task("T2", 30.0);
        b.add_edge(t0, t1, 5.0).unwrap();
        b.add_edge(t1, t2, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn place_and_query_tasks() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        assert!(!b.is_placed(TaskId(0)));
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(0), 10.0);
        assert!(b.is_placed(TaskId(0)));
        assert_eq!(b.proc_of(TaskId(1)), Some(ProcId(0)));
        assert_eq!(b.finish_of(TaskId(1)), 30.0);
        assert_eq!(
            b.tasks_on(ProcId(0)).collect::<Vec<_>>(),
            vec![TaskId(0), TaskId(1)]
        );
        assert_eq!(b.schedule_length(), 30.0);
        assert!(!b.all_placed());
        b.place_task(TaskId(2), ProcId(1), 35.0);
        assert!(b.all_placed());
    }

    #[test]
    fn unplace_frees_the_slot() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        assert_eq!(b.earliest_proc_slot(ProcId(0), 0.0, 10.0), 10.0);
        b.unplace_task(TaskId(0));
        assert!(!b.is_placed(TaskId(0)));
        assert_eq!(b.earliest_proc_slot(ProcId(0), 0.0, 10.0), 0.0);
    }

    #[test]
    fn routes_update_link_timelines() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let hop = MessageHop {
            link: LinkId(0),
            from: ProcId(0),
            to: ProcId(1),
            start: 10.0,
            finish: 15.0,
        };
        b.set_route(EdgeId(0), vec![hop]);
        assert_eq!(b.route(EdgeId(0)).len(), 1);
        assert_eq!(b.link_timeline(LinkId(0)).len(), 1);
        assert_eq!(b.earliest_link_slot(LinkId(0), ProcId(0), 10.0, 5.0), 15.0);
        b.clear_route(EdgeId(0));
        assert!(b.route(EdgeId(0)).is_empty());
        assert!(b.link_timeline(LinkId(0)).is_empty());
    }

    #[test]
    fn replacing_a_route_removes_the_old_hops() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let hop_a = MessageHop {
            link: LinkId(0),
            from: ProcId(0),
            to: ProcId(1),
            start: 0.0,
            finish: 5.0,
        };
        let hop_b = MessageHop {
            link: LinkId(1),
            from: ProcId(1),
            to: ProcId(2),
            start: 7.0,
            finish: 12.0,
        };
        b.set_route(EdgeId(0), vec![hop_a]);
        b.set_route(EdgeId(0), vec![hop_b]);
        assert!(b.link_timeline(LinkId(0)).is_empty());
        assert_eq!(b.link_timeline(LinkId(1)).len(), 1);
    }

    #[test]
    fn current_drt_identifies_the_vip() {
        let g = {
            // Two predecessors feeding T2.
            let mut b = TaskGraphBuilder::new();
            let a = b.add_task("A", 10.0);
            let c = b.add_task("B", 10.0);
            let d = b.add_task("C", 10.0);
            b.add_edge(a, d, 1.0).unwrap();
            b.add_edge(c, d, 1.0).unwrap();
            b.build().unwrap()
        };
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0); // finishes at 10
        b.place_task(TaskId(1), ProcId(0), 10.0); // finishes at 20
        b.place_task(TaskId(2), ProcId(0), 20.0);
        let (drt, vip) = b.current_drt(TaskId(2));
        assert_eq!(drt, 20.0);
        assert_eq!(vip, Some(TaskId(1)));
        // Entry task has no VIP.
        assert_eq!(b.current_drt(TaskId(0)), (0.0, None));
        // A routed message overrides the local arrival.
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: 10.0,
                finish: 45.0,
            }],
        );
        let (drt, vip) = b.current_drt(TaskId(2));
        assert_eq!(drt, 45.0);
        assert_eq!(vip, Some(TaskId(0)));
    }

    #[test]
    fn build_requires_all_tasks_placed_and_routes_for_remote_edges() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let b = ScheduleBuilder::new(&g, &sys).unwrap();
        assert_eq!(
            b.finish("x").err(),
            Some(SolveError::UnplacedTask { task: TaskId(0) })
        );
        let mut b2 = ScheduleBuilder::new(&g, &sys).unwrap();
        b2.place_task(TaskId(0), ProcId(0), 0.0);
        b2.place_task(TaskId(1), ProcId(1), 20.0);
        b2.place_task(TaskId(2), ProcId(1), 40.0);
        // Edge 0 crosses P0 -> P1 without a route: must fail.
        assert_eq!(
            b2.clone().finish("x").err(),
            Some(SolveError::MissingRoute { edge: EdgeId(0) })
        );
        b2.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: 10.0,
                finish: 15.0,
            }],
        );
        let s = b2.finish("x").unwrap();
        assert_eq!(s.schedule_length(), 70.0);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(0), ProcId(1), 0.0);
    }
}
