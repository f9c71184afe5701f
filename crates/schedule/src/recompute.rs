//! Order-preserving re-timing of a schedule ("bubble up" compaction).
//!
//! Given the *decisions* stored in a [`ScheduleBuilder`] — task-to-processor assignment,
//! the execution order on every processor, the link route of every message and the
//! transmission order on every link — there is a unique earliest-start timing that respects
//! all of them (provided the decisions are mutually consistent, i.e. acyclic).  This module
//! computes that timing with a Kahn-style topological relaxation over a dependency graph
//! whose nodes are the tasks and the individual message hops.
//!
//! Dependencies:
//!
//! 1. a task starts no earlier than the previous task on its processor finishes;
//! 2. a task starts no earlier than every incoming message arrives (local messages arrive
//!    when the producer finishes, remote ones when their last hop completes);
//! 3. the first hop of a route starts no earlier than the producing task finishes;
//! 4. hop *k* starts no earlier than hop *k−1* finishes (store-and-forward);
//! 5. a hop starts no earlier than the previous transmission on its link finishes.
//!
//! BSA calls this after every accepted migration so that the tasks left behind on the old
//! processor (and everything downstream) shift to their new earliest start times while every
//! ordering decision made so far is preserved.

use crate::builder::ScheduleBuilder;
use crate::timeline::Timeline;
use crate::txn::UndoOp;
use bsa_taskgraph::TaskId;
use std::collections::VecDeque;

/// Errors reported by [`ScheduleBuilder::recompute_times`].
#[derive(Debug, Clone, PartialEq)]
pub enum RecomputeError {
    /// Some task has not been placed on a processor yet.
    UnplacedTask(TaskId),
    /// An edge crosses processors but has no route.
    MissingRoute(bsa_taskgraph::EdgeId),
    /// The ordering decisions are cyclic (e.g. task A waits for a message whose transmission
    /// is ordered after a message produced by a task that waits for A).
    CyclicDecisions,
}

impl std::fmt::Display for RecomputeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecomputeError::UnplacedTask(t) => write!(f, "task {t} is not placed"),
            RecomputeError::MissingRoute(e) => {
                write!(f, "edge {e} crosses processors but has no route")
            }
            RecomputeError::CyclicDecisions => write!(f, "ordering decisions form a cycle"),
        }
    }
}

impl std::error::Error for RecomputeError {}

/// See the module documentation.  Called through [`ScheduleBuilder::recompute_times`].
pub(crate) fn recompute(b: &mut ScheduleBuilder<'_>) -> Result<(), RecomputeError> {
    let graph = b.graph;
    let n = graph.num_tasks();

    // Every task must be placed.
    for t in graph.task_ids() {
        if b.assignment[t.index()].is_none() {
            return Err(RecomputeError::UnplacedTask(t));
        }
    }

    // Flat node numbering: tasks first, then hops per edge in route order.
    let mut hop_base = vec![0usize; graph.num_edges() + 1];
    for e in graph.edge_ids() {
        hop_base[e.index() + 1] = hop_base[e.index()] + b.routes[e.index()].len();
    }
    let total_hops = hop_base[graph.num_edges()];
    let num_nodes = n + total_hops;
    let hop_node = |e: usize, k: usize| n + hop_base[e] + k;

    // Durations.
    let mut duration = vec![0.0f64; num_nodes];
    for t in graph.task_ids() {
        let p = b.assignment[t.index()].expect("checked above");
        duration[t.index()] = b.system.exec_cost(t, p);
    }
    for e in graph.edge_ids() {
        let nominal = graph.edge(e).nominal_cost;
        for (k, hop) in b.routes[e.index()].iter().enumerate() {
            duration[hop_node(e.index(), k)] = b.system.transfer_time(hop.link, nominal);
        }
    }

    // Dependency edges (dep -> dependent).
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    let mut indeg = vec![0u32; num_nodes];
    let add_dep = |from: usize, to: usize, succs: &mut Vec<Vec<u32>>, indeg: &mut Vec<u32>| {
        succs[from].push(to as u32);
        indeg[to] += 1;
    };

    // (1) processor order.
    for p in 0..b.proc_timelines.len() {
        let order: Vec<TaskId> = b.proc_timelines[p].payloads().collect();
        for w in order.windows(2) {
            add_dep(w[0].index(), w[1].index(), &mut succs, &mut indeg);
        }
    }
    // (5) link order.
    for l in 0..b.link_timelines.len() {
        let order: Vec<(bsa_taskgraph::EdgeId, u32)> = b.link_timelines[l].payloads().collect();
        for w in order.windows(2) {
            add_dep(
                hop_node(w[0].0.index(), w[0].1 as usize),
                hop_node(w[1].0.index(), w[1].1 as usize),
                &mut succs,
                &mut indeg,
            );
        }
    }
    // (2), (3), (4) message chains.
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        let route = &b.routes[e.index()];
        let src_p = b.assignment[edge.src.index()].unwrap();
        let dst_p = b.assignment[edge.dst.index()].unwrap();
        if route.is_empty() {
            if src_p != dst_p {
                return Err(RecomputeError::MissingRoute(e));
            }
            add_dep(edge.src.index(), edge.dst.index(), &mut succs, &mut indeg);
        } else {
            add_dep(
                edge.src.index(),
                hop_node(e.index(), 0),
                &mut succs,
                &mut indeg,
            );
            for k in 1..route.len() {
                add_dep(
                    hop_node(e.index(), k - 1),
                    hop_node(e.index(), k),
                    &mut succs,
                    &mut indeg,
                );
            }
            add_dep(
                hop_node(e.index(), route.len() - 1),
                edge.dst.index(),
                &mut succs,
                &mut indeg,
            );
        }
    }

    // Kahn relaxation.
    let mut start = vec![0.0f64; num_nodes];
    let mut finish = vec![0.0f64; num_nodes];
    let mut queue: VecDeque<usize> = (0..num_nodes).filter(|&i| indeg[i] == 0).collect();
    let mut processed = 0usize;
    while let Some(u) = queue.pop_front() {
        processed += 1;
        finish[u] = start[u] + duration[u];
        for &v in &succs[u] {
            let v = v as usize;
            if finish[u] > start[v] {
                start[v] = finish[u];
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push_back(v);
            }
        }
    }
    if processed != num_nodes {
        return Err(RecomputeError::CyclicDecisions);
    }

    // Inside a transaction, remember the old instants of every node that moves so a
    // rollback can restore them (the full pass is the oracle; it participates in the
    // same undo machinery as the incremental pass).
    if b.in_txn() {
        let tasks_from = b.retime_undo_tasks.len();
        let hops_from = b.retime_undo_hops.len();
        for t in graph.task_ids() {
            if b.task_start[t.index()] != start[t.index()]
                || b.task_finish[t.index()] != finish[t.index()]
            {
                b.retime_undo_tasks
                    .push((t, b.task_start[t.index()], b.task_finish[t.index()]));
            }
        }
        for e in graph.edge_ids() {
            for (k, hop) in b.routes[e.index()].iter().enumerate() {
                let node = hop_node(e.index(), k);
                if hop.start != start[node] || hop.finish != finish[node] {
                    b.retime_undo_hops
                        .push((e, k as u32, hop.start, hop.finish));
                }
            }
        }
        b.log_undo(UndoOp::Retime {
            tasks_from,
            hops_from,
        });
    }

    // Write the new times back and rebuild the timelines (same orders, new instants).
    for t in graph.task_ids() {
        b.task_start[t.index()] = start[t.index()];
        b.task_finish[t.index()] = finish[t.index()];
    }
    let mut new_proc: Vec<Timeline<TaskId>> = vec![Timeline::new(); b.proc_timelines.len()];
    for (old, new) in b.proc_timelines.iter().zip(new_proc.iter_mut()) {
        for t in old.payloads() {
            new.insert(start[t.index()], duration[t.index()], t);
        }
    }
    b.proc_timelines = new_proc;

    for e in graph.edge_ids() {
        for (k, hop) in b.routes[e.index()].iter_mut().enumerate() {
            let node = n + hop_base[e.index()] + k;
            hop.start = start[node];
            hop.finish = finish[node];
        }
    }
    let mut new_link: Vec<Timeline<(bsa_taskgraph::EdgeId, u32)>> =
        vec![Timeline::new(); b.link_timelines.len()];
    for (old, new) in b.link_timelines.iter().zip(new_link.iter_mut()) {
        for (e, k) in old.payloads() {
            let node = hop_node(e.index(), k as usize);
            new.insert(start[node], duration[node], (e, k));
        }
    }
    b.link_timelines = new_link;
    // A full pass consumes the dirty list, like an incremental one.
    b.clear_dirty();
    Ok(())
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

    #[test]
    fn recompute_compacts_gaps_on_a_single_processor() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        // Place with artificial idle gaps.
        b.place_task(TaskId(0), ProcId(0), 100.0);
        b.place_task(TaskId(1), ProcId(0), 200.0);
        b.place_task(TaskId(2), ProcId(0), 300.0);
        b.recompute_times().unwrap();
        assert_eq!(b.start_of(TaskId(0)), 0.0);
        assert_eq!(b.start_of(TaskId(1)), 10.0);
        assert_eq!(b.start_of(TaskId(2)), 30.0);
        assert_eq!(b.schedule_length(), 60.0);
        assert!(b.proc_timeline(ProcId(0)).is_consistent());
    }

    #[test]
    fn recompute_respects_message_routes_and_link_order() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        // T0 on P0, T1 and T2 on P1; edge0 crosses L0; edge1 local.
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
        b.recompute_times().unwrap();
        // T0: [0,10); hop: [10,15); T1: [15,35); T2: [35,65).
        assert_eq!(b.start_of(TaskId(0)), 0.0);
        assert_eq!(b.route(EdgeId(0))[0].start, 10.0);
        assert_eq!(b.route(EdgeId(0))[0].finish, 15.0);
        assert_eq!(b.start_of(TaskId(1)), 15.0);
        assert_eq!(b.start_of(TaskId(2)), 35.0);
        assert_eq!(b.schedule_length(), 65.0);
        assert!(b.link_timeline(LinkId(0)).is_consistent());
    }

    #[test]
    fn recompute_reports_unplaced_tasks() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        assert_eq!(
            b.recompute_times(),
            Err(RecomputeError::UnplacedTask(TaskId(1)))
        );
    }

    #[test]
    fn recompute_reports_missing_routes() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(1), 20.0);
        b.place_task(TaskId(2), ProcId(1), 40.0);
        assert_eq!(
            b.recompute_times(),
            Err(RecomputeError::MissingRoute(EdgeId(0)))
        );
    }

    #[test]
    fn recompute_detects_cyclic_orderings() {
        // Two independent tasks A, B; a third C depends on both.  Place A after C on the
        // same processor while C needs A's message: cyclic.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task("A", 10.0);
        let c = gb.add_task("C", 10.0);
        gb.add_edge(a, c, 1.0).unwrap();
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        // Deliberately place C before A on the same processor: C waits for A's data but A
        // waits for C's slot -> cycle.
        b.place_task(c, ProcId(0), 0.0);
        b.place_task(a, ProcId(0), 10.0);
        assert_eq!(b.recompute_times(), Err(RecomputeError::CyclicDecisions));
    }

    #[test]
    fn recompute_is_idempotent() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 3.0);
        b.place_task(TaskId(1), ProcId(0), 30.0);
        b.place_task(TaskId(2), ProcId(0), 70.0);
        b.recompute_times().unwrap();
        let first: Vec<f64> = g.task_ids().map(|t| b.start_of(t)).collect();
        b.recompute_times().unwrap();
        let second: Vec<f64> = g.task_ids().map(|t| b.start_of(t)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn recompute_never_violates_precedence_on_random_chains() {
        // Lightweight randomized consistency check across a few seeds.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Random fork-join-ish graph of 12 tasks in 4 layers.
            let mut gb = TaskGraphBuilder::new();
            let mut layers: Vec<Vec<TaskId>> = Vec::new();
            for l in 0..4 {
                let mut layer = Vec::new();
                for i in 0..3 {
                    layer.push(gb.add_task(format!("t{l}_{i}"), rng.gen_range(5.0..20.0)));
                }
                layers.push(layer);
            }
            for l in 1..4 {
                for &dst in &layers[l] {
                    for &src in &layers[l - 1] {
                        if rng.gen_bool(0.7) {
                            let _ = gb.add_edge(src, dst, rng.gen_range(1.0..10.0));
                        }
                    }
                }
            }
            let g = gb.build().unwrap();
            let sys = HeterogeneousSystem::homogeneous(&g, ring(1).unwrap());
            let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
            // Serialize everything on P0 in topological order with random gaps.
            let topo = bsa_taskgraph::TopologicalOrder::compute(&g);
            let mut t_cursor = 0.0;
            for t in topo.iter() {
                t_cursor += rng.gen_range(0.0..30.0);
                b.place_task(t, ProcId(0), t_cursor);
                t_cursor = b.finish_of(t);
            }
            b.recompute_times().unwrap();
            for e in g.edges() {
                assert!(
                    b.start_of(e.dst) >= b.finish_of(e.src) - 1e-9,
                    "seed {seed}: precedence violated"
                );
            }
        }
    }
}
