//! Incremental re-timing: the hot path of the scheduling kernel.
//!
//! [`crate::recompute`] relaxes every task and message hop from scratch and rebuilds
//! every timeline.  BSA re-times after each accepted migration so the tasks left behind
//! bubble up (paper §2.3), so this module computes the same earliest-start fixpoint
//! with two kernels that run on the builder's persistent arenas (`crate::scaffold`;
//! DESIGN.md §7.2):
//!
//! * **The flat sweep** (`flat_relax`) relaxes the whole *reduced* decision graph.  It
//!   runs on every pass over a fully placed schedule with at least [`FALLBACK_FLOOR`]
//!   decision nodes: every pass of BSA's migration loop and of
//!   `Solution::resolve_onto`.
//! * **The cone kernel** relaxes only the successor closure of the dirty seeds.  It runs
//!   on every other pass: partial placements made through the public API, and tiny
//!   graphs.
//!
//! The rule reads only the placement count and the graph size, and both kernels compute
//! the [`crate::recompute`] fixpoint bit for bit, so it never changes a result.
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
//! **The cone kernel.**
//!
//! 1. *Seeds.*  The decision-graph nodes whose predecessor set a mutation changed (see
//!    [`crate::txn`]), plus the caller's extra task seeds.  Stale entries (hops of a
//!    route that has since shrunk) are filtered out; duplicates are merged.
//! 2. *Cone.*  The successor closure of the seeds under the current decision edges.  It
//!    is successor-closed, so every node outside it has only outside predecessors: its
//!    committed time is still the fixpoint and is read as-is.
//! 3. *Relaxation.*  A Kahn pass over the cone only.  A new cycle passes through a
//!    changed edge, hence through the cone, so looking at the cone alone does not
//!    weaken cycle detection.
//!
//! The result equals a full [`crate::recompute`] pass **provided the schedule outside
//! the cone is already compacted**, which holds whenever every earlier mutation batch
//! was followed by a successful re-timing.  `tests/property_based.rs` pins both kernels
//! against the oracle.
//!
//! Both kernels write back only the nodes whose window changed, in place (re-timing
//! keeps every timeline's interval order), save the old windows for rollback inside a
//! transaction, and allocate nothing once the arenas reach their high-water capacity
//! (`tests/zero_alloc.rs`).  Errors are detected before anything is written, so a
//! failed call leaves the builder (and its dirty list) untouched.

use crate::builder::ScheduleBuilder;
use crate::recompute::RecomputeError;
use crate::scaffold::{slot_lookup, RetimeScaffold, NONE};
use crate::txn::{DirtyNode, UndoOp};
use bsa_network::{LinkId, LinkMode, ProcId};
use bsa_taskgraph::{EdgeId, TaskId};

/// Which kernel ran an incremental re-timing pass.  Both compute the identical
/// earliest-start fixpoint; the kind is diagnostics only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetimeKind {
    /// Kahn relaxation over the successor closure of the seeds (also what an empty
    /// pass reports).
    #[default]
    Cone,
    /// Kahn relaxation over the whole reduced decision graph.
    Flat,
}

/// What an incremental re-timing pass did, for diagnostics, the BSA trace's phase
/// counters, and the scaling benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetimeStats {
    /// Live, deduplicated seeds the pass started from.
    pub seed_nodes: usize,
    /// Nodes (tasks + hops) the pass relaxed: the dirty cone, or the whole decision
    /// graph for a flat sweep.
    pub cone_nodes: usize,
    /// Dependency edges the Kahn pass relaxed: the cone's, or the reduced graph's.
    pub cone_edges: usize,
    /// Nodes whose start or finish time actually changed.
    pub changed_nodes: usize,
    /// Which kernel ran the pass.
    pub kind: RetimeKind,
}

/// Passes over a fully placed schedule with at least this many decision-graph nodes
/// (tasks + booked hops) run the flat sweep; every other pass runs the cone kernel.
/// Below it the cone kernel is cheap regardless, and the small graphs of the unit and
/// property tests keep exercising it.
pub const FALLBACK_FLOOR: usize = 64;

/// Whether a dirty entry still refers to an existing decision-graph node.
fn node_exists(sc: &RetimeScaffold, n: DirtyNode) -> bool {
    match n {
        DirtyNode::Task(_) => true,
        DirtyNode::Hop(e, k) => k < sc.hop_len[e.index()],
    }
}

/// Duration of a node under the current decisions.
fn duration_of(b: &ScheduleBuilder<'_>, n: DirtyNode) -> f64 {
    match n {
        DirtyNode::Task(t) => {
            let p = b.assignment[t.index()].expect("cone tasks are placed");
            b.system.exec_cost(t, p)
        }
        DirtyNode::Hop(e, k) => {
            let hop = b.routes[e.index()][k as usize];
            b.system
                .transfer_time(hop.link, b.graph.edge(e).nominal_cost)
        }
    }
}

/// Adds `n` to the cone (no-op if present), computing its timeline position unless the
/// caller already knows it.  Returns the cone slot.
fn add_to_cone(
    b: &ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    n: DirtyNode,
    pos_hint: Option<u32>,
) -> Result<u32, RecomputeError> {
    let (slot, fresh) = sc.claim_slot(n);
    if !fresh {
        return Ok(slot);
    }
    let pos = match pos_hint {
        Some(p) => p,
        None => match n {
            DirtyNode::Task(t) => {
                let p = b.assignment[t.index()].ok_or(RecomputeError::UnplacedTask(t))?;
                b.proc_timelines[p.index()]
                    .position_at(b.task_start[t.index()], |x| x == t)
                    .expect("placed task is on its processor's timeline") as u32
            }
            DirtyNode::Hop(e, k) => {
                let hop = b.routes[e.index()][k as usize];
                b.link_timelines[b.link_slot(hop.link, hop.from)]
                    .position_at(hop.start, |pl| pl == (e, k))
                    .expect("hop is on its link's timeline") as u32
            }
        },
    };
    sc.tpos.push(pos);
    Ok(slot)
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

/// Ends a write-back: logs the undo watermarks the pass started from (inside a
/// transaction) and clears the dirty list the pass consumed.  See [`UndoOp::Retime`].
fn close_write_back(b: &mut ScheduleBuilder<'_>, log: bool, tasks_from: usize, hops_from: usize) {
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
}

/// The flat sweep over the reduced decision graph (see the module documentation).
///
/// Node numbering: tasks first, then the hops edge by edge in route order, offset by
/// prefix sums of the scaffold's `hop_len` mirror.  Requires every task placed.
fn flat_relax(
    b: &mut ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    extra_seeds: &[TaskId],
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

    let is_dirty = |t: TaskId| b.is_dirty(DirtyNode::Task(t));
    #[cfg(debug_assertions)]
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        if sc.hop_len[e.index()] == 0 && !is_dirty(edge.src) && !is_dirty(edge.dst) {
            assert!(
                b.assignment[edge.src.index()] == b.assignment[edge.dst.index()]
                    && sc.tpos[edge.src.index()] < sc.tpos[edge.dst.index()],
                "route-less message {e} outside the dirty set must follow its producer on \
                 one processor"
            );
        }
    }

    // Only dirty tasks' route-less messages can be remote or turned around.
    let mut seed_nodes = 0usize;
    let mut missing: Option<EdgeId> = None;
    for &n in &b.dirty {
        let DirtyNode::Task(t) = n else {
            seed_nodes += usize::from(node_exists(sc, n));
            continue;
        };
        seed_nodes += 1;
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
    seed_nodes += extra_seeds.iter().filter(|&&t| !is_dirty(t)).count();
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
    close_write_back(b, log, tasks_from, hops_from);
    Ok(RetimeStats {
        seed_nodes,
        cone_nodes: num_nodes,
        cone_edges: sc.dep_edges.len(),
        changed_nodes: changed,
        kind: RetimeKind::Flat,
    })
}

/// The cone kernel (see the module documentation).
fn cone_relax(
    b: &mut ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    extra_seeds: &[TaskId],
) -> Result<RetimeStats, RecomputeError> {
    // ---- seeds ----------------------------------------------------------------------
    for i in 0..b.dirty.len() {
        let s = b.dirty[i];
        if node_exists(sc, s) {
            add_to_cone(b, sc, s, None)?;
        }
    }
    for &t in extra_seeds {
        add_to_cone(b, sc, DirtyNode::Task(t), None)?;
    }
    let seed_nodes = sc.nodes.len();

    // ---- cone: successor closure of the seeds -------------------------------------
    let mut cursor = 0usize;
    while cursor < sc.nodes.len() {
        let u = cursor as u32;
        let node = sc.nodes[cursor];
        let pos = sc.tpos[cursor] as usize;
        match node {
            DirtyNode::Task(t) => {
                let p = b.assignment[t.index()].expect("cone tasks are placed");
                let next = b.proc_timelines[p.index()]
                    .intervals()
                    .get(pos + 1)
                    .map(|iv| iv.payload);
                if let Some(next) = next {
                    let v = add_to_cone(b, sc, DirtyNode::Task(next), Some(pos as u32 + 1))?;
                    sc.dep_edges.push((u, v));
                }
                for &eid in b.graph.out_edges(t) {
                    if b.routes[eid.index()].is_empty() {
                        let dst = b.graph.edge(eid).dst;
                        let dp =
                            b.assignment[dst.index()].ok_or(RecomputeError::UnplacedTask(dst))?;
                        if dp != p {
                            return Err(RecomputeError::MissingRoute(eid));
                        }
                        let v = add_to_cone(b, sc, DirtyNode::Task(dst), None)?;
                        sc.dep_edges.push((u, v));
                    } else {
                        let v = add_to_cone(b, sc, DirtyNode::Hop(eid, 0), None)?;
                        sc.dep_edges.push((u, v));
                    }
                }
            }
            DirtyNode::Hop(e, k) => {
                let hop = b.routes[e.index()][k as usize];
                let next = b.link_timelines[b.link_slot(hop.link, hop.from)]
                    .intervals()
                    .get(pos + 1)
                    .map(|iv| iv.payload);
                if let Some((ne, nk)) = next {
                    let v = add_to_cone(b, sc, DirtyNode::Hop(ne, nk), Some(pos as u32 + 1))?;
                    sc.dep_edges.push((u, v));
                }
                let v = if (k as usize) + 1 < b.routes[e.index()].len() {
                    add_to_cone(b, sc, DirtyNode::Hop(e, k + 1), None)?
                } else {
                    add_to_cone(b, sc, DirtyNode::Task(b.graph.edge(e).dst), None)?
                };
                sc.dep_edges.push((u, v));
            }
        }
        cursor += 1;
    }

    // ---- durations and initial starts: fold in out-of-cone predecessors' finishes --
    let m = sc.nodes.len();
    {
        let RetimeScaffold {
            ref nodes,
            ref tpos,
            epoch,
            ref task_mark,
            ref hop_mark,
            ref mut start,
            ref mut dur,
            ..
        } = *sc;
        let slot = |n: DirtyNode| slot_lookup(epoch, task_mark, hop_mark, n);
        for i in 0..m {
            let pos = tpos[i] as usize;
            let mut s = 0.0f64;
            match nodes[i] {
                DirtyNode::Task(t) => {
                    let p = b.assignment[t.index()].expect("cone tasks are placed");
                    if pos > 0 {
                        let prev = b.proc_timelines[p.index()].intervals()[pos - 1].payload;
                        if slot(DirtyNode::Task(prev)) == NONE {
                            s = s.max(b.task_finish[prev.index()]);
                        }
                    }
                    for &eid in b.graph.in_edges(t) {
                        let route_len = b.routes[eid.index()].len();
                        if route_len == 0 {
                            let src = b.graph.edge(eid).src;
                            let sp = b.assignment[src.index()]
                                .ok_or(RecomputeError::UnplacedTask(src))?;
                            if sp != p {
                                return Err(RecomputeError::MissingRoute(eid));
                            }
                            if slot(DirtyNode::Task(src)) == NONE {
                                s = s.max(b.task_finish[src.index()]);
                            }
                        } else {
                            let k = (route_len - 1) as u32;
                            if slot(DirtyNode::Hop(eid, k)) == NONE {
                                s = s.max(b.routes[eid.index()][k as usize].finish);
                            }
                        }
                    }
                }
                DirtyNode::Hop(e, k) => {
                    let hop = b.routes[e.index()][k as usize];
                    if pos > 0 {
                        let (pe, pk) = b.link_timelines[b.link_slot(hop.link, hop.from)]
                            .intervals()[pos - 1]
                            .payload;
                        if slot(DirtyNode::Hop(pe, pk)) == NONE {
                            s = s.max(b.routes[pe.index()][pk as usize].finish);
                        }
                    }
                    if k == 0 {
                        let src = b.graph.edge(e).src;
                        if slot(DirtyNode::Task(src)) == NONE {
                            s = s.max(b.task_finish[src.index()]);
                        }
                    } else if slot(DirtyNode::Hop(e, k - 1)) == NONE {
                        s = s.max(b.routes[e.index()][(k - 1) as usize].finish);
                    }
                }
            }
            start.push(s);
            dur.push(duration_of(b, nodes[i]));
        }
    }

    if !relax(sc, m) {
        return Err(RecomputeError::CyclicDecisions);
    }

    // ---- in-place write-back of changed nodes only -----------------------------------
    let log = b.in_txn();
    let (tasks_from, hops_from) = (b.retime_undo_tasks.len(), b.retime_undo_hops.len());
    let mut changed = 0usize;
    for i in 0..m {
        let pos = sc.tpos[i] as usize;
        let window = (sc.start[i], sc.finish[i]);
        changed += usize::from(match sc.nodes[i] {
            DirtyNode::Task(t) => {
                let p = b.assignment[t.index()].expect("cone tasks are placed");
                retime_task(b, t, p.index(), pos, window, log)
            }
            DirtyNode::Hop(e, k) => {
                let hop = b.routes[e.index()][k as usize];
                let slot = b.link_slot(hop.link, hop.from);
                retime_hop(b, (e, k), slot, pos, window, log)
            }
        });
    }
    close_write_back(b, log, tasks_from, hops_from);
    Ok(RetimeStats {
        seed_nodes,
        cone_nodes: m,
        cone_edges: sc.dep_edges.len(),
        changed_nodes: changed,
        kind: RetimeKind::Cone,
    })
}

/// See the module documentation.  Called through
/// [`ScheduleBuilder::recompute_times_from`].
pub(crate) fn recompute_from(
    b: &mut ScheduleBuilder<'_>,
    extra_seeds: &[TaskId],
) -> Result<RetimeStats, RecomputeError> {
    if b.dirty.is_empty() && extra_seeds.is_empty() {
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
    let result = if b.all_placed() && b.graph.num_tasks() + sc.total_hops >= FALLBACK_FLOOR {
        flat_relax(b, &mut sc, extra_seeds)
    } else {
        cone_relax(b, &mut sc, extra_seeds)
    };
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
        assert!(stats.seed_nodes >= 1 && stats.seed_nodes <= 3);
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
        // Seeding a task relaxes its cone but changes nothing.
        let stats = b.recompute_times_from(&[TaskId(0)]).unwrap();
        assert_eq!(stats.seed_nodes, 1);
        assert_eq!(stats.cone_nodes, 3);
        // Consecutive chain tasks are linked twice: processor order + local message.
        assert_eq!(stats.cone_edges, 4);
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

    // ---- routing: fully placed and >= FALLBACK_FLOOR nodes -> flat, else cone -----

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
        // 40 nodes < FALLBACK_FLOOR: even 100%-dirty seeds stay on the cone path and
        // still match the oracle exactly.
        let (g, sys) = placed_chain(40);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 100.0, 7.0);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.kind, RetimeKind::Cone);
        assert_eq!(stats.cone_nodes, 40);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn seed_counts_on_both_sides_of_the_fallback_threshold_match_the_oracle() {
        // 80 placed tasks, no routes: 80 decision-graph nodes >= FALLBACK_FLOOR.  The
        // seed count no longer routes a pass: 60 and 61 seeds, either side of the old
        // three-quarter seed threshold, both run the flat sweep because every task is
        // placed, and each pass is bit-identical to the full relaxation.
        let (g, sys) = placed_chain(80);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        place_in_order(&mut b, &g, 0.0, 0.0);
        b.recompute_times_incremental().unwrap();
        for count in [60, 61] {
            let seeds: Vec<TaskId> = g.task_ids().take(count).collect();
            let mut oracle = b.clone();
            let stats = b.recompute_times_from(&seeds).unwrap();
            oracle.recompute_times().unwrap();
            assert_eq!(stats.kind, RetimeKind::Flat);
            assert_eq!(stats.seed_nodes, count);
            assert_eq!(stats.cone_nodes, 80);
            assert!(b.same_schedule_state(&oracle));
        }
    }

    #[test]
    fn late_seeds_above_the_floor_stay_on_the_cone_path() {
        // The same 80-task chain plus one isolated task that stays unplaced: the pass
        // is partial, so seeds in the last five slots stay on the cone path and relax
        // only that five-node suffix.  The result matches the oracle run once the spare
        // is placed on the other processor (where it touches nothing).
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
        let mut cursor = 30.0;
        for t in g.task_ids().take(80) {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t) + 5.0;
        }
        let stats = b.recompute_times_incremental().unwrap();
        assert_eq!(stats.kind, RetimeKind::Cone);
        assert_eq!(stats.cone_nodes, 80);

        let late: Vec<TaskId> = g.task_ids().skip(75).take(5).collect();
        let mut oracle = b.clone();
        let stats = b.recompute_times_from(&late).unwrap();
        assert_eq!(stats.kind, RetimeKind::Cone);
        assert_eq!(stats.seed_nodes, 5);
        assert_eq!(stats.cone_nodes, 5);
        oracle.place_task(spare, ProcId(1), 0.0);
        oracle.recompute_times().unwrap();
        for t in g.task_ids().take(80) {
            assert_eq!(b.start_of(t), oracle.start_of(t));
            assert_eq!(b.finish_of(t), oracle.finish_of(t));
        }

        // Once the spare is placed the pass is fully placed, and the same late seeds
        // run the flat sweep, bit-identical to the oracle.
        b.place_task(spare, ProcId(1), 0.0);
        let stats = b.recompute_times_from(&late).unwrap();
        assert_eq!(stats.kind, RetimeKind::Flat);
        assert_eq!(stats.seed_nodes, 6);
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
        assert_eq!(stats.kind, RetimeKind::Flat);
        assert!(b.same_schedule_state(&oracle));
        // The flat sweep cleared the dirty list like a cone pass would.
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
        assert_eq!(stats.kind, RetimeKind::Flat);
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
