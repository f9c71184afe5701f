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
//! A migration whose re-timing fails is undone from a one-task checkpoint:
//! [`ScheduleBuilder::checkpoint_task`] saves a task's placement, the routes of its
//! messages and the dirty-list length, and [`ScheduleBuilder::restore_task`] puts them
//! back.  Evaluating a candidate migration or repair without committing it mutates
//! nothing: it books on a read-only [`Tentative`](crate::overlay::Tentative) view over
//! `&ScheduleBuilder`, through the same [`Booking`](crate::overlay::Booking) steps the
//! builder commits with.

use crate::incremental::{recompute_incremental, RetimeStats};
use crate::recompute::{recompute, RecomputeError};
use crate::scaffold::RetimeScaffold;
use crate::schedule::{MessageHop, MessageRoute, Schedule, TaskPlacement};
use crate::solver::SolveError;
use crate::timeline::Timeline;
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
    /// Tasks placed, moved or given a changed incoming route since the last re-timing:
    /// the flat sweep checks only their route-less messages ([`crate::incremental`]).
    /// A sparse set (Briggs & Torczon, "An Efficient Representation for Sparse Sets",
    /// 1993): deduplicated at insertion via the position stamps below, so bulk
    /// mutation batches don't bloat it.
    pub(crate) dirty: Vec<TaskId>,
    /// Per-task position stamp: a task is in `dirty` iff `dirty[stamp] == task`.
    /// Emptying or truncating the list needs no stamp writes (a stale stamp points past
    /// the end or at another task).
    pub(crate) dirty_stamp: Vec<usize>,
    /// Successful re-timing passes so far.  A [`TaskCheckpoint`] records it, and
    /// [`ScheduleBuilder::restore_task`] refuses a checkpoint a pass has outdated.
    pub(crate) retime_passes: u64,
    /// Number of currently placed tasks (maintained by place/unplace), so the
    /// re-timing pass can reject a partial placement in O(1).
    pub(crate) placed_count: usize,
    /// Persistent decision-graph scaffolding + scratch arenas for the re-timing pass
    /// (see [`crate::scaffold`]).  Kept in lockstep by the route mutations below; never
    /// rebuilt from scratch.
    pub(crate) scaffold: RetimeScaffold,
}

/// What [`ScheduleBuilder::restore_task`] needs to undo a move of one task: its
/// processor and start, the hops of its in- and out-edges, and the builder's
/// dirty-list length and pass count.  Filled by [`ScheduleBuilder::checkpoint_task`];
/// reusing one instance keeps checkpoints allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct TaskCheckpoint {
    /// The task, its processor and its start; `None` before the first checkpoint.
    placement: Option<(TaskId, ProcId, f64)>,
    /// The hops of the task's in-edges, then its out-edges, in graph order.
    hops: Vec<MessageHop>,
    /// Where each of those edges' hops end in `hops`, in the same order.
    route_ends: Vec<usize>,
    /// Length of the dirty list.
    dirty_len: usize,
    /// The builder's successful re-timing passes.
    retime_passes: u64,
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
            dirty: Vec::new(),
            dirty_stamp: vec![0; graph.num_tasks()],
            retime_passes: 0,
            placed_count: 0,
            scaffold: RetimeScaffold::for_problem(graph.num_edges()),
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
    /// Every piece of link bookkeeping (booking, gap search, re-timing) indexes
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
    }

    /// Removes task `t` from its processor timeline and marks it unplaced.
    ///
    /// The task's message routes are *not* touched; callers usually clear or reroute the
    /// affected edges right after.
    pub fn unplace_task(&mut self, t: TaskId) {
        if let Some(p) = self.assignment[t.index()].take() {
            self.placed_count -= 1;
            let start = self.task_start[t.index()];
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
        }
    }

    /// Evicts task `t`: clears the routes of every incident edge, then unplaces the
    /// task.  The first step of [`ScheduleBuilder::restore_task`].
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
        self.detach_route(e);
        for (k, hop) in hops.iter().enumerate() {
            self.book_hop(e, k as u32, hop);
        }
        self.scaffold.set_route_len(e.index(), hops.len());
        self.routes[e.index()] = hops;
        self.mark_dirty(self.graph.edge(e).dst);
    }

    /// Removes the route of edge `e` from the link timelines and makes the message local.
    pub fn clear_route(&mut self, e: EdgeId) {
        if self.routes[e.index()].is_empty() {
            return;
        }
        self.detach_route(e);
        self.mark_dirty(self.graph.edge(e).dst);
    }

    /// Appends one hop to the route of edge `e`, booking its window on the hop's link
    /// timeline.  This is the incremental-routing primitive: BSA extends a migrating
    /// task's message routes one hop at a time.
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
    }

    /// Books hop `k` of edge `e` on its link timeline.  The caller marks the message's
    /// consumer dirty.
    fn book_hop(&mut self, e: EdgeId, k: u32, hop: &MessageHop) {
        let slot = self.link_slot(hop.link, hop.from);
        self.link_timelines[slot].insert(hop.start, hop.finish - hop.start, (e, k));
    }

    /// Unbooks every hop of edge `e` from the link timelines and empties its route.
    /// Does not mark.
    fn detach_route(&mut self, e: EdgeId) {
        let old = std::mem::take(&mut self.routes[e.index()]);
        self.scaffold.set_route_len(e.index(), 0);
        for (k, hop) in old.iter().enumerate() {
            let slot = self.link_slot(hop.link, hop.from);
            self.link_timelines[slot]
                .remove_at(hop.start, |pl| pl == (e, k as u32))
                .expect("routed hop is on its link's timeline");
        }
    }

    // ------------------------------------------------------------- dirty set

    /// Marks task `t` as needing re-timing.  Deduplicated in O(1) via the position
    /// stamps: a task already in the dirty list is not pushed again, so bulk mutation
    /// batches stay proportional to the number of *distinct* dirty tasks, not to the
    /// number of mutations.
    pub(crate) fn mark_dirty(&mut self, t: TaskId) {
        if !self.is_dirty(t) {
            self.push_dirty(t);
        }
    }

    /// Whether task `t` is in the dirty list: its position stamp points at itself.
    pub(crate) fn is_dirty(&self, t: TaskId) -> bool {
        self.dirty.get(self.dirty_stamp[t.index()]) == Some(&t)
    }

    /// Appends task `t` to the dirty list and stamps it with its position.
    fn push_dirty(&mut self, t: TaskId) {
        self.dirty_stamp[t.index()] = self.dirty.len();
        self.dirty.push(t);
    }

    /// Ends a successful re-timing pass: empties the dirty list it consumed, with no
    /// stamp writes, and counts the pass, which outdates every [`TaskCheckpoint`]
    /// taken before it.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
        self.retime_passes += 1;
    }

    // ---------------------------------------------------------- checkpoints

    /// Saves into `cp` what [`ScheduleBuilder::restore_task`] needs to undo a move of
    /// task `t`: its processor and start, the hops of its in- and out-edges, and the
    /// dirty-list length.  Allocates nothing once `cp`'s buffers have grown to fit.
    ///
    /// # Panics
    /// Panics if `t` is not placed.
    pub fn checkpoint_task(&self, t: TaskId, cp: &mut TaskCheckpoint) {
        let p = self.assignment[t.index()].expect("checkpoint_task: the task is not placed");
        cp.placement = Some((t, p, self.task_start[t.index()]));
        cp.hops.clear();
        cp.route_ends.clear();
        for &e in self.graph.in_edges(t).iter().chain(self.graph.out_edges(t)) {
            cp.hops.extend_from_slice(&self.routes[e.index()]);
            cp.route_ends.push(cp.hops.len());
        }
        cp.dirty_len = self.dirty.len();
        cp.retime_passes = self.retime_passes;
    }

    /// Puts the task of `cp` back as [`ScheduleBuilder::checkpoint_task`] saved it:
    /// evicts it, re-books the saved routes of its in- and out-edges, re-places it at
    /// its saved start, and truncates the dirty list back to its saved length.
    ///
    /// The result is the builder at the checkpoint, schedule state and dirty list
    /// alike, provided that only the task and the routes of its edges changed since:
    /// the moves of a migration, and any number of failed re-timing passes, which
    /// write nothing.
    ///
    /// # Panics
    /// Panics if `cp` was never filled, or if a re-timing pass has succeeded since the
    /// checkpoint: such a pass moves other tasks and empties the dirty list.
    pub fn restore_task(&mut self, cp: &TaskCheckpoint) {
        let (t, p, start) = cp.placement.expect("restore_task: no checkpoint was taken");
        assert_eq!(
            cp.retime_passes, self.retime_passes,
            "restore_task: a re-timing pass has succeeded since the checkpoint"
        );
        self.evict_task(t);
        let graph = self.graph;
        let mut from = 0;
        for (&e, &end) in graph
            .in_edges(t)
            .iter()
            .chain(graph.out_edges(t))
            .zip(&cp.route_ends)
        {
            self.set_route(e, cp.hops[from..end].to_vec());
            from = end;
        }
        self.place_task(t, p, start);
        self.dirty.truncate(cp.dirty_len);
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
    /// On error nothing is modified (and the dirty set is kept), so
    /// [`ScheduleBuilder::restore_task`] can still undo the move that caused it.
    pub fn recompute_times_incremental(&mut self) -> Result<RetimeStats, RecomputeError> {
        recompute_incremental(self)
    }

    /// Whether the incrementally maintained re-timing scaffold (per-edge route-length
    /// mirror and total-hop count) is byte-equal to one rebuilt from scratch off the
    /// current routes.  Always true by construction; exposed so the property suite can
    /// pin the incremental maintenance (restores included) against the rebuild.
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
    /// The dirty list is ignored.
    ///
    /// This is the equality the restore guarantee is stated in: after
    /// [`ScheduleBuilder::restore_task`], the builder is `same_schedule_state` with its
    /// self at the checkpoint.
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

    // ---- checkpoints and the dirty list --------------------------------------------

    fn hop(link: u32, from: u32, to: u32, start: f64, finish: f64) -> MessageHop {
        MessageHop {
            link: LinkId(link),
            from: ProcId(from),
            to: ProcId(to),
            start,
            finish,
        }
    }

    /// The chain on P0, re-timed once and then with every task moved, so three dirty
    /// tasks are pending, listed out of id order: `[T2, T1, T0]`.
    fn pending_dirt(b: &mut ScheduleBuilder<'_>) -> Vec<TaskId> {
        b.place_task(TaskId(0), ProcId(0), 5.0);
        b.place_task(TaskId(1), ProcId(0), 20.0);
        b.place_task(TaskId(2), ProcId(0), 50.0);
        b.recompute_times_incremental().unwrap();
        for (t, start) in [(2, 60.0), (1, 25.0), (0, 1.0)] {
            b.unplace_task(TaskId(t));
            b.place_task(TaskId(t), ProcId(0), start);
        }
        let pending = vec![TaskId(2), TaskId(1), TaskId(0)];
        assert_eq!(b.dirty, pending);
        pending
    }

    /// Moves T2 to a later slot on P0 (its own dirty mark is the only one).
    fn bounce_last(b: &mut ScheduleBuilder<'_>, start: f64) {
        b.unplace_task(TaskId(2));
        b.place_task(TaskId(2), ProcId(0), start);
    }

    #[test]
    fn restore_puts_back_placements_routes_and_times() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(0), 10.0);
        b.place_task(TaskId(2), ProcId(1), 40.0);
        b.set_route(EdgeId(1), vec![hop(0, 0, 1, 30.0, 35.0)]);
        let reference = b.clone();

        // Move T1 to P2 the way a migration does: both of its messages re-routed, one
        // of them a hop at a time.
        let mut cp = TaskCheckpoint::default();
        b.checkpoint_task(TaskId(1), &mut cp);
        b.unplace_task(TaskId(1));
        b.place_task(TaskId(1), ProcId(2), 12.5);
        b.set_route(EdgeId(0), vec![hop(2, 0, 2, 10.0, 15.0)]);
        b.clear_route(EdgeId(1));
        b.push_hop(EdgeId(1), hop(1, 2, 1, 50.0, 55.0));
        assert!(!b.same_schedule_state(&reference));
        b.restore_task(&cp);

        assert!(b.same_schedule_state(&reference));
        assert_eq!(b.dirty, reference.dirty);
        assert!(b.scaffold_matches_rebuild());
    }

    #[test]
    fn restore_over_a_pending_dirty_list_feeds_the_next_pass() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        pending_dirt(&mut b);
        b.recompute_times_incremental().unwrap();
        bounce_last(&mut b, 70.0);
        let pending = vec![TaskId(2)];
        assert_eq!(b.dirty, pending);
        let reference = b.clone();

        // T1 moved behind its consumer on P0 cannot be timed: the failed pass keeps the
        // list, and the restore drops the mark the move added.
        let mut cp = TaskCheckpoint::default();
        b.checkpoint_task(TaskId(1), &mut cp);
        b.unplace_task(TaskId(1));
        b.place_task(TaskId(1), ProcId(0), 200.0);
        assert_eq!(b.dirty, vec![TaskId(2), TaskId(1)]);
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::CyclicDecisions)
        );
        b.restore_task(&cp);
        assert_eq!(b.dirty, pending);
        assert!(b.same_schedule_state(&reference));

        // The pending move of T2 is still re-timed, exactly as the oracle times it.
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.seed_nodes, 1);
        assert!(b.same_schedule_state(&oracle));
        assert_eq!(b.start_of(TaskId(2)), 30.0);
    }

    #[test]
    fn after_restore_mark_dirty_re_adds_dropped_tasks_once() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        pending_dirt(&mut b);
        b.recompute_times_incremental().unwrap();
        // Stale stamps everywhere: T2 at 0, T1 at 1, T0 at 2.  Only T2 is pending now.
        bounce_last(&mut b, 70.0);
        let mut expected = vec![TaskId(2)];
        assert_eq!(b.dirty, expected);

        // Moving T0 to P1 marks its follower T1 (at position 1) and T0 itself (at 2).
        let mut cp = TaskCheckpoint::default();
        b.checkpoint_task(TaskId(0), &mut cp);
        b.unplace_task(TaskId(0));
        b.place_task(TaskId(0), ProcId(1), 0.0);
        b.push_hop(EdgeId(0), hop(0, 1, 0, 10.0, 15.0));
        assert_eq!(b.dirty, vec![TaskId(2), TaskId(1), TaskId(0)]);
        b.restore_task(&cp);
        assert_eq!(b.dirty, expected);

        // Survivors are not duplicated …
        b.mark_dirty(TaskId(2));
        assert_eq!(b.dirty, expected);
        // … and the tasks the truncation dropped come back exactly once: T0's stamp
        // points past the end, and once T0 is pushed at position 1, T1's points at T0.
        for t in [TaskId(0), TaskId(0), TaskId(1), TaskId(1)] {
            b.mark_dirty(t);
        }
        expected.extend([TaskId(0), TaskId(1)]);
        assert_eq!(b.dirty, expected);
    }

    #[test]
    #[should_panic(expected = "a re-timing pass has succeeded since the checkpoint")]
    fn restore_after_a_successful_pass_panics() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        pending_dirt(&mut b);
        let mut cp = TaskCheckpoint::default();
        b.checkpoint_task(TaskId(2), &mut cp);
        bounce_last(&mut b, 70.0);
        b.recompute_times_incremental().unwrap();
        b.restore_task(&cp);
    }

    #[test]
    #[should_panic(expected = "checkpoint_task: the task is not placed")]
    fn checkpoint_of_an_unplaced_task_panics() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.checkpoint_task(TaskId(0), &mut TaskCheckpoint::default());
    }
}
