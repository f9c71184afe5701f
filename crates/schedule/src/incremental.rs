//! Incremental re-timing: the hot path of the scheduling kernel.
//!
//! [`crate::recompute`] relaxes every task and message hop from scratch and rebuilds
//! every timeline.  BSA re-times after each accepted migration so the tasks left behind
//! bubble up (paper §2.3), so this module computes the same earliest-start fixpoint
//! with one flat sweep over the *reduced* decision graph, on the builder's persistent
//! arenas (`crate::scaffold`; DESIGN.md §7.2).  It has exactly the oracle's results and
//! errors: a pass over a partial placement returns [`RecomputeError::UnplacedTask`]
//! (the lowest unplaced id) before touching anything, and a pass with nothing dirty
//! returns at once, because nothing changed since the last successful pass.
//!
//! **The reduced graph.**  The decision graph has an edge per processor-order pair, per
//! link-order pair, per hop of a routed message's chain (producer → hop 0 → … → last
//! hop → consumer), and one per route-less message.  The flat sweep lists its edges in
//! one walk over the timelines: processor order from the processor timelines, link
//! order and every chain from the link timelines, durations on the way.  It leaves out
//! a route-less message whose producer runs earlier on the consumer's processor: the
//! processor chain already orders the two, and `f64` max and adding a non-negative
//! duration are monotone, so the fixpoint is bit-identical.  Most of BSA's messages are
//! local; on a 3000-task, 16-processor instance this keeps 86 k of 316 k edges.
//!
//! **Errors without an edge scan.**  Every placement marks its task dirty and every
//! route change marks its consumer (`crate::txn`), and each successful pass has checked
//! the route-less messages of every task that was dirty.  So only a dirty task's
//! route-less message can cross processors ([`RecomputeError::MissingRoute`]) or run
//! against processor order.  The flat sweep checks the messages of dirty tasks only,
//! and keeps a turned-around one as an edge, which closes a cycle that the Kahn pass
//! reports ([`RecomputeError::CyclicDecisions`]).  Debug builds also sweep every
//! route-less message and assert the invariant.
//!
//! The sweep writes back only the nodes whose window changed, in place (re-timing keeps
//! every timeline's interval order), saves the old windows for rollback inside a
//! transaction, and allocates nothing once the arenas reach their high-water capacity
//! (`tests/zero_alloc.rs`).  Errors are detected before anything is written, so a
//! failed call leaves the builder (and its dirty list) untouched.

use crate::builder::ScheduleBuilder;
use crate::recompute::RecomputeError;
use crate::scaffold::RetimeScaffold;
use crate::txn::UndoOp;
use bsa_network::{LinkId, LinkMode, ProcId};
use bsa_taskgraph::{EdgeId, TaskId};

/// What an incremental re-timing pass did, for diagnostics, the BSA trace's phase
/// counters, and bsabench's per-layer re-timing metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetimeStats {
    /// Tasks dirty when the pass started.
    pub seed_nodes: usize,
    /// Nodes (tasks + hops) the pass relaxed: the whole decision graph.
    pub cone_nodes: usize,
    /// Dependency edges the Kahn pass relaxed: the reduced graph's.
    pub cone_edges: usize,
    /// Nodes whose start or finish time actually changed.
    pub changed_nodes: usize,
}

/// Level-batched Kahn relaxation of the scaffold's `dep_edges` over nodes `0..m`, from
/// the initial starts in `start` and the durations in `dur`; fills `finish`.  Returns
/// `false` when some node was never reached: the edges contain a cycle.
///
/// The adjacency is a CSR built in place: `offsets[u]` first counts `u`'s out-edges,
/// the prefix sum turns the counts into row ends, and filling each row backwards leaves
/// `offsets[u]` at the row start.  Each batch settles one level of ready nodes from a
/// pair of swapped frontier arenas.  Max-merges commute, so the order within a level
/// cannot change the result, and the settled count detects cycles like a FIFO would.
fn relax(sc: &mut RetimeScaffold, m: usize) -> bool {
    let RetimeScaffold {
        ref dep_edges,
        ref mut indeg,
        ref mut offsets,
        ref mut csr,
        ref mut start,
        ref mut finish,
        ref dur,
        ref mut frontier,
        ref mut frontier_next,
        ..
    } = *sc;
    indeg.resize(m, 0);
    offsets.resize(m + 1, 0);
    for &(u, v) in dep_edges {
        offsets[u as usize] += 1;
        indeg[v as usize] += 1;
    }
    let mut end = 0;
    for o in offsets.iter_mut() {
        end += *o;
        *o = end;
    }
    csr.resize(dep_edges.len(), 0);
    for &(u, v) in dep_edges {
        let o = &mut offsets[u as usize];
        *o -= 1;
        csr[*o as usize] = v;
    }

    finish.resize(m, 0.0);
    frontier.extend((0..m as u32).filter(|&i| indeg[i as usize] == 0));
    let mut settled = 0usize;
    while !frontier.is_empty() {
        for &u in frontier.iter() {
            let u = u as usize;
            let f = start[u] + dur[u];
            finish[u] = f;
            settled += 1;
            for &v in &csr[offsets[u] as usize..offsets[u + 1] as usize] {
                let v = v as usize;
                if f > start[v] {
                    start[v] = f;
                }
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    frontier_next.push(v as u32);
                }
            }
        }
        std::mem::swap(frontier, frontier_next);
        frontier_next.clear();
    }
    settled == m
}

/// Moves task `t`, at position `pos` of processor `p`'s timeline, to `[start, finish)`
/// if that changes its window, saving the old window for rollback when `log`.  Returns
/// whether the task moved.
fn retime_task(
    b: &mut ScheduleBuilder<'_>,
    t: TaskId,
    p: usize,
    pos: usize,
    (start, finish): (f64, f64),
    log: bool,
) -> bool {
    let (old_start, old_finish) = (b.task_start[t.index()], b.task_finish[t.index()]);
    if old_start == start && old_finish == finish {
        return false;
    }
    if log {
        b.retime_undo_tasks.push((t, old_start, old_finish));
    }
    b.task_start[t.index()] = start;
    b.task_finish[t.index()] = finish;
    b.proc_timelines[p].set_window(pos, start, finish);
    true
}

/// Hop counterpart of [`retime_task`]: hop `k` of edge `e`, at position `pos` of link
/// slot `slot`'s timeline.
fn retime_hop(
    b: &mut ScheduleBuilder<'_>,
    (e, k): (EdgeId, u32),
    slot: usize,
    pos: usize,
    (start, finish): (f64, f64),
    log: bool,
) -> bool {
    let hop = &mut b.routes[e.index()][k as usize];
    if hop.start == start && hop.finish == finish {
        return false;
    }
    if log {
        b.retime_undo_hops.push((e, k, hop.start, hop.finish));
    }
    hop.start = start;
    hop.finish = finish;
    b.link_timelines[slot].set_window(pos, start, finish);
    true
}

/// The flat sweep over the reduced decision graph (see the module documentation).
///
/// Node numbering: tasks first, then the hops edge by edge in route order, offset by
/// prefix sums of the scaffold's `hop_len` mirror.  Requires every task placed.
fn flat_relax(
    b: &mut ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
) -> Result<RetimeStats, RecomputeError> {
    let graph = b.graph;
    let system = b.system;
    let n_tasks = graph.num_tasks();
    let num_nodes = n_tasks + sc.total_hops;
    let mut next_id = n_tasks as u32;
    sc.hop_base.extend(sc.hop_len.iter().map(|&len| {
        let base = next_id;
        next_id += len;
        base
    }));
    debug_assert_eq!(next_id as usize, num_nodes);

    // One walk over the timelines: durations, task positions, and the edge list.
    sc.dur.resize(num_nodes, 0.0);
    sc.tpos.resize(n_tasks, 0);
    for (p, tl) in b.proc_timelines.iter().enumerate() {
        let proc = ProcId(p as u32);
        let mut prev = None;
        for (pos, iv) in tl.intervals().iter().enumerate() {
            let t = iv.payload;
            sc.dur[t.index()] = system.exec_cost(t, proc);
            sc.tpos[t.index()] = pos as u32;
            if let Some(u) = prev {
                sc.dep_edges.push((u, t.0));
            }
            prev = Some(t.0);
        }
    }
    let full_duplex = matches!(system.topology.link_mode(), LinkMode::FullDuplex);
    for (slot, tl) in b.link_timelines.iter().enumerate() {
        let link = LinkId(if full_duplex { slot / 2 } else { slot } as u32);
        let mut prev = None;
        for iv in tl.intervals() {
            let (e, k) = iv.payload;
            let edge = graph.edge(e);
            let id = sc.hop_base[e.index()] + k;
            sc.dur[id as usize] = system.transfer_time(link, edge.nominal_cost);
            if let Some(u) = prev {
                sc.dep_edges.push((u, id));
            }
            prev = Some(id);
            sc.dep_edges
                .push((if k == 0 { edge.src.0 } else { id - 1 }, id));
            if k + 1 == sc.hop_len[e.index()] {
                sc.dep_edges.push((id, edge.dst.0));
            }
        }
    }

    #[cfg(debug_assertions)]
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        if sc.hop_len[e.index()] == 0 && !b.is_dirty(edge.src) && !b.is_dirty(edge.dst) {
            assert!(
                b.assignment[edge.src.index()] == b.assignment[edge.dst.index()]
                    && sc.tpos[edge.src.index()] < sc.tpos[edge.dst.index()],
                "route-less message {e} outside the dirty set must follow its producer on \
                 one processor"
            );
        }
    }

    // Only dirty tasks' route-less messages can be remote or turned around.
    let seed_nodes = b.dirty.len();
    let mut missing: Option<EdgeId> = None;
    for &t in &b.dirty {
        for &e in graph.in_edges(t).iter().chain(graph.out_edges(t)) {
            if sc.hop_len[e.index()] != 0 {
                continue;
            }
            let edge = graph.edge(e);
            if b.assignment[edge.src.index()] != b.assignment[edge.dst.index()] {
                missing = Some(missing.map_or(e, |m| m.min(e)));
            } else if sc.tpos[edge.src.index()] > sc.tpos[edge.dst.index()] {
                sc.dep_edges.push((edge.src.0, edge.dst.0));
            }
        }
    }
    if let Some(e) = missing {
        return Err(RecomputeError::MissingRoute(e));
    }

    sc.start.resize(num_nodes, 0.0);
    if !relax(sc, num_nodes) {
        return Err(RecomputeError::CyclicDecisions);
    }

    // In-place write-back, walking each timeline so positions are implicit.
    let log = b.in_txn();
    let (tasks_from, hops_from) = (b.retime_undo_tasks.len(), b.retime_undo_hops.len());
    let mut changed = 0usize;
    for p in 0..b.proc_timelines.len() {
        for pos in 0..b.proc_timelines[p].len() {
            let t = b.proc_timelines[p].intervals()[pos].payload;
            let window = (sc.start[t.index()], sc.finish[t.index()]);
            changed += usize::from(retime_task(b, t, p, pos, window, log));
        }
    }
    for slot in 0..b.link_timelines.len() {
        for pos in 0..b.link_timelines[slot].len() {
            let (e, k) = b.link_timelines[slot].intervals()[pos].payload;
            let id = (sc.hop_base[e.index()] + k) as usize;
            let window = (sc.start[id], sc.finish[id]);
            changed += usize::from(retime_hop(b, (e, k), slot, pos, window, log));
        }
    }
    #[cfg(debug_assertions)]
    {
        for tl in &b.proc_timelines {
            debug_assert!(tl.is_consistent(), "processor timeline after write-back");
        }
        for tl in &b.link_timelines {
            debug_assert!(tl.is_consistent(), "link timeline after write-back");
        }
    }
    if log {
        b.log_undo(UndoOp::Retime {
            tasks_from,
            hops_from,
        });
    }
    b.clear_dirty();
    Ok(RetimeStats {
        seed_nodes,
        cone_nodes: num_nodes,
        cone_edges: sc.dep_edges.len(),
        changed_nodes: changed,
    })
}

/// See the module documentation.  Called through
/// [`ScheduleBuilder::recompute_times_incremental`].
pub(crate) fn recompute_incremental(
    b: &mut ScheduleBuilder<'_>,
) -> Result<RetimeStats, RecomputeError> {
    if !b.all_placed() {
        let unplaced = b.graph.task_ids().find(|&t| !b.is_placed(t));
        return Err(RecomputeError::UnplacedTask(
            unplaced.expect("a task is unplaced"),
        ));
    }
    if b.dirty.is_empty() {
        return Ok(RetimeStats::default());
    }
    // The scaffold is moved out for the duration of the pass so the pass can hold it
    // mutably alongside shared borrows of the builder.  No mutation primitive runs
    // while it is out (re-timing only overwrites windows in place), so the persistent
    // mirrors cannot go stale.  Restored on every path, including errors.
    let mut sc = std::mem::take(&mut b.scaffold);
    debug_assert_eq!(
        sc.total_hops,
        b.routes.iter().map(Vec::len).sum::<usize>(),
        "scaffold total_hops mirror out of sync with the routes"
    );
    sc.begin_pass();
    let result = flat_relax(b, &mut sc);
    sc.end_pass();
    b.scaffold = sc;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MessageHop;
    use bsa_network::builders::ring;
    use bsa_network::{HeterogeneousSystem, LinkId, ProcId};
    use bsa_taskgraph::{EdgeId, TaskGraph, TaskGraphBuilder};

    fn chain_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task("T0", 10.0);
        let t1 = b.add_task("T1", 20.0);
        let t2 = b.add_task("T2", 30.0);
        b.add_edge(t0, t1, 5.0).unwrap();
        b.add_edge(t1, t2, 5.0).unwrap();
        b.build().unwrap()
    }

    /// A chain of `n` tasks with no edges between non-consecutive tasks, all placed
    /// compactly on processor 0.
    fn placed_chain(n: usize) -> (TaskGraph, HeterogeneousSystem) {
        let mut gb = TaskGraphBuilder::new();
        let mut prev = gb.add_task("t0", 10.0);
        for i in 1..n {
            let t = gb.add_task(format!("t{i}"), 10.0);
            gb.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(2).unwrap());
        (g, sys)
    }

    #[test]
    fn incremental_compacts_like_the_full_pass() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 100.0);
        b.place_task(TaskId(1), ProcId(0), 200.0);
        b.place_task(TaskId(2), ProcId(0), 300.0);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(b.same_schedule_state(&oracle));
        assert_eq!(stats.cone_nodes, 3);
        assert_eq!(stats.changed_nodes, 3);
        assert_eq!(stats.seed_nodes, 3);
    }

    #[test]
    fn incremental_is_a_noop_on_a_compacted_schedule() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(0), 10.0);
        b.place_task(TaskId(2), ProcId(0), 30.0);
        b.recompute_times_incremental().unwrap();
        let stats = b.recompute_times_incremental().unwrap();
        assert_eq!(stats.cone_nodes, 0);
        assert_eq!(stats.changed_nodes, 0);
        // Re-placing T0 in its own slot dirties it and its follower T1: the sweep relaxes
        // the whole graph but changes nothing.
        b.unplace_task(TaskId(0));
        b.place_task(TaskId(0), ProcId(0), 0.0);
        let stats = b.recompute_times_incremental().unwrap();
        assert_eq!(stats.seed_nodes, 2);
        assert_eq!(stats.cone_nodes, 3);
        // Processor order already implies both local messages.
        assert_eq!(stats.cone_edges, 2);
        assert_eq!(stats.changed_nodes, 0);
    }

    #[test]
    fn incremental_handles_routes_and_link_order() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 50.0);
        b.place_task(TaskId(1), ProcId(1), 80.0);
        b.place_task(TaskId(2), ProcId(1), 150.0);
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: 60.0,
                finish: 65.0,
            }],
        );
        let mut oracle = b.clone();
        b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(b.same_schedule_state(&oracle));
        assert_eq!(b.start_of(TaskId(1)), 15.0);
        assert_eq!(b.route(EdgeId(0))[0].start, 10.0);
    }

    #[test]
    fn incremental_detects_cycles_without_mutating() {
        use bsa_taskgraph::TaskGraphBuilder;
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task("A", 10.0);
        let c = gb.add_task("C", 10.0);
        gb.add_edge(a, c, 1.0).unwrap();
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(c, ProcId(0), 0.0);
        b.place_task(a, ProcId(0), 10.0);
        let snapshot = b.clone();
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::CyclicDecisions)
        );
        assert!(b.same_schedule_state(&snapshot));
    }

    #[test]
    fn incremental_reports_missing_routes_in_the_cone() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(1), 20.0);
        b.place_task(TaskId(2), ProcId(1), 40.0);
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::MissingRoute(EdgeId(0)))
        );
    }

    // ---- graph size, bulk dirt and partial placements -----------------------------

    /// Places every task of `g` on processor 0 in id order, `gap` apart, from `start`.
    fn place_in_order(b: &mut ScheduleBuilder<'_>, g: &TaskGraph, start: f64, gap: f64) {
        let mut cursor = start;
        for t in g.task_ids() {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t) + gap;
        }
    }

    #[test]
    fn below_the_node_floor_the_fallback_never_fires() {
        // 40 nodes, below the 64-node floor that once routed small graphs to a separate
        // kernel: the pass is the same flat sweep over every node and matches the
        // oracle exactly.
        let (g, sys) = placed_chain(40);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 100.0, 7.0);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.cone_nodes, 40);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn a_partial_placement_fails_like_the_oracle_and_keeps_the_builder() {
        // An 80-task chain plus one isolated task that stays unplaced: the pass returns
        // the oracle's error before touching anything.  Once the spare is placed (on the
        // other processor, where it touches nothing) the pass matches the oracle.
        let mut gb = TaskGraphBuilder::new();
        let mut prev = gb.add_task("t0", 10.0);
        for i in 1..80 {
            let t = gb.add_task(format!("t{i}"), 10.0);
            gb.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
        let spare = gb.add_task("spare", 10.0);
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(2).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        // Nothing dirty yet: the placement check still comes first.
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::UnplacedTask(TaskId(0)))
        );
        let mut cursor = 30.0;
        for t in g.task_ids().take(80) {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t) + 5.0;
        }
        let snapshot = b.clone();
        let mut oracle = b.clone();
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::UnplacedTask(spare))
        );
        assert_eq!(
            oracle.recompute_times(),
            Err(RecomputeError::UnplacedTask(spare))
        );
        assert!(b.same_schedule_state(&snapshot));
        assert_eq!(b.dirty, snapshot.dirty);

        b.place_task(spare, ProcId(1), 0.0);
        oracle.place_task(spare, ProcId(1), 0.0);
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.seed_nodes, 81);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn bulk_placement_above_the_floor_falls_back_and_matches_the_oracle() {
        // Freshly placing every task marks them all dirty: the bulk-mutation batch a
        // resolve step or a freshly built schedule re-times.
        let (g, sys) = placed_chain(80);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 50.0, 3.0);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.seed_nodes, 80);
        assert!(b.same_schedule_state(&oracle));
        // The sweep cleared the dirty list, so the next pass has nothing to do.
        let stats = b.recompute_times_incremental().unwrap();
        assert_eq!(stats.cone_nodes, 0);
    }

    // ---- the reduced graph and its error checks ------------------------------------

    #[test]
    fn flat_sweep_leaves_out_local_messages_implied_by_processor_order() {
        // A one-processor chain of n tasks joined by local messages: processor order
        // already orders every message, so the reduced graph keeps n - 1 edges, not
        // 2(n - 1).
        let n = 80;
        let (g, sys) = placed_chain(n);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 20.0, 4.0);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.cone_nodes, n);
        assert_eq!(stats.cone_edges, n - 1);
        assert_eq!(stats.changed_nodes, n);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn flat_sweep_reports_a_consumer_placed_before_its_producer_as_a_cycle() {
        // Swapping t40 and t41 on their processor puts the consumer of the route-less
        // message t40 -> t41 first.  The flat sweep keeps that message as an edge, the
        // Kahn pass finds the cycle, and the builder is left as it was, as the oracle
        // leaves it.
        let (g, sys) = placed_chain(80);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 0.0, 0.0);
        b.recompute_times_incremental().unwrap();
        let (t40, t41) = (TaskId(40), TaskId(41));
        let slot = b.start_of(t40);
        b.unplace_task(t40);
        b.unplace_task(t41);
        b.place_task(t41, ProcId(0), slot);
        b.place_task(t40, ProcId(0), b.finish_of(t41));
        let snapshot = b.clone();
        let mut oracle = b.clone();
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::CyclicDecisions)
        );
        assert_eq!(
            oracle.recompute_times(),
            Err(RecomputeError::CyclicDecisions)
        );
        assert!(b.same_schedule_state(&snapshot));
        assert!(oracle.same_schedule_state(&snapshot));
        assert_eq!(b.dirty, snapshot.dirty, "a failed pass keeps its seeds");
    }

    #[test]
    fn flat_sweep_reports_a_missing_route_of_a_moved_consumer() {
        // t41 moves to P1 and its incoming message keeps no route: the first remote
        // route-less message (edge 40) is the error, as in the oracle.
        let (g, sys) = placed_chain(80);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 0.0, 0.0);
        b.recompute_times_incremental().unwrap();
        let t41 = TaskId(41);
        b.evict_task(t41);
        b.place_task(t41, ProcId(1), 0.0);
        let snapshot = b.clone();
        let mut oracle = b.clone();
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::MissingRoute(EdgeId(40)))
        );
        assert_eq!(
            oracle.recompute_times(),
            Err(RecomputeError::MissingRoute(EdgeId(40)))
        );
        assert!(b.same_schedule_state(&snapshot));
    }
}
