//! The serialization step of BSA (paper §2.2).
//!
//! Given the execution costs of one processor (the pivot candidate), the tasks are
//! partitioned into three classes:
//!
//! * **CP** — tasks on the chosen critical path;
//! * **IB** (in-branch) — tasks that are ancestors of some CP task but not CP themselves;
//! * **OB** (out-branch) — everything else.
//!
//! The serial order places each CP task as early as possible, recursively inserting any of
//! its not-yet-ordered ancestors first (larger b-level first, ties by smaller t-level, then
//! smaller id), and finally appends the OB tasks in descending b-level order.  The result
//! is always a valid linearization of the precedence constraints.

use bsa_taskgraph::{GraphLevels, TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

/// Classification of a task produced by the serialization analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskClass {
    /// On the selected critical path.
    CriticalPath,
    /// Ancestor of a CP task (but not CP itself).
    InBranch,
    /// Neither CP nor IB.
    OutBranch,
}

/// Result of the serialization step.
#[derive(Debug, Clone, PartialEq)]
pub struct Serialization {
    /// The serial order (a valid topological order of all tasks).
    pub order: Vec<TaskId>,
    /// Per-task classification, indexed by task id.
    pub classes: Vec<TaskClass>,
    /// The critical-path tasks in path order.
    pub critical_path: Vec<TaskId>,
    /// Length of the critical path under the supplied execution costs.
    pub cp_length: f64,
}

/// Computes the BSA serial order of `graph` under the given per-task execution costs
/// (usually one processor's column of the cost matrix) and nominal communication costs.
pub fn serialize(graph: &TaskGraph, exec_costs: &[f64]) -> Serialization {
    let levels = GraphLevels::with_costs(graph, exec_costs, 1.0);
    let cp = levels.critical_path(graph);
    let n = graph.num_tasks();

    // Classify tasks.
    let mut classes = vec![TaskClass::OutBranch; n];
    for &t in &cp.tasks {
        classes[t.index()] = TaskClass::CriticalPath;
    }
    for &t in &cp.tasks {
        for (i, is_anc) in bsa_taskgraph::traversal::ancestors(graph, t)
            .iter()
            .enumerate()
        {
            if *is_anc && classes[i] == TaskClass::OutBranch {
                classes[i] = TaskClass::InBranch;
            }
        }
    }

    let mut order: Vec<TaskId> = Vec::with_capacity(n);
    let mut in_order = vec![false; n];

    // Recursive inclusion of a task after all of its ancestors.  Implemented with an
    // explicit stack to stay safe on deep graphs.
    let include = |start: TaskId, order: &mut Vec<TaskId>, in_order: &mut Vec<bool>| {
        let mut stack = vec![start];
        while let Some(&top) = stack.last() {
            if in_order[top.index()] {
                stack.pop();
                continue;
            }
            // Find the best missing predecessor.
            let mut best: Option<TaskId> = None;
            for p in graph.predecessors(top) {
                if in_order[p.index()] {
                    continue;
                }
                best = Some(match best {
                    None => p,
                    Some(cur) => pick_predecessor(&levels, cur, p),
                });
            }
            match best {
                Some(p) => stack.push(p),
                None => {
                    in_order[top.index()] = true;
                    order.push(top);
                    stack.pop();
                }
            }
        }
    };

    for &cp_task in &cp.tasks {
        include(cp_task, &mut order, &mut in_order);
    }

    // OB tasks (and any IB task of an unreached component, which cannot happen for
    // connected graphs) in descending b-level; ties by ascending t-level then id.
    let mut rest: Vec<TaskId> = graph.task_ids().filter(|t| !in_order[t.index()]).collect();
    rest.sort_by(|&a, &b| {
        levels
            .b_level(b)
            .total_cmp(&levels.b_level(a))
            .then(levels.t_level(a).total_cmp(&levels.t_level(b)))
            .then(a.cmp(&b))
    });
    // Appending by descending b-level alone can violate precedence only when an OB task's
    // predecessor has an equal b-level (possible with zero-cost edges); enforce correctness
    // by inserting ancestors first, reusing the same inclusion routine.
    for t in rest {
        include(t, &mut order, &mut in_order);
    }

    debug_assert_eq!(order.len(), n);
    Serialization {
        order,
        classes,
        critical_path: cp.tasks.clone(),
        cp_length: cp.length,
    }
}

/// The paper's predecessor choice: larger b-level wins; ties go to the smaller t-level;
/// remaining ties to the smaller id (for determinism).
fn pick_predecessor(levels: &GraphLevels, a: TaskId, b: TaskId) -> TaskId {
    let eps = 1e-9;
    let (ba, bb) = (levels.b_level(a), levels.b_level(b));
    if (ba - bb).abs() > eps {
        return if ba > bb { a } else { b };
    }
    let (ta, tb) = (levels.t_level(a), levels.t_level(b));
    if (ta - tb).abs() > eps {
        return if ta < tb { a } else { b };
    }
    if a < b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_taskgraph::{TaskGraphBuilder, TopologicalOrder};
    use bsa_workloads::paper_example;

    #[test]
    fn nominal_serial_order_matches_the_paper() {
        let g = paper_example::figure1_graph();
        let costs: Vec<f64> = g.tasks().map(|t| t.nominal_cost).collect();
        let s = serialize(&g, &costs);
        assert_eq!(s.order, paper_example::nominal_serial_order());
        assert_eq!(s.cp_length, 230.0);
        // Classes: CP = {T1, T7, T9}, OB = {T5}, everything else IB.
        assert_eq!(s.classes[0], TaskClass::CriticalPath);
        assert_eq!(s.classes[6], TaskClass::CriticalPath);
        assert_eq!(s.classes[8], TaskClass::CriticalPath);
        assert_eq!(s.classes[4], TaskClass::OutBranch);
        for i in [1usize, 2, 3, 5, 7] {
            assert_eq!(s.classes[i], TaskClass::InBranch, "T{}", i + 1);
        }
    }

    #[test]
    fn serial_order_under_p2_costs_matches_the_papers_intent() {
        // Under P2's actual costs the paper reports {T1,T2,T6,T7,T3,T4,T8,T9,T5}; our
        // reconstruction yields the same multiset with T6/T7 swapped (see DESIGN.md).
        let g = paper_example::figure1_graph();
        let costs: Vec<f64> = paper_example::TABLE1.iter().map(|r| r[1]).collect();
        let s = serialize(&g, &costs);
        let names: Vec<String> = s.order.iter().map(|&t| g.task(t).name.clone()).collect();
        assert_eq!(s.cp_length, 226.0);
        assert_eq!(names[0], "T1");
        assert_eq!(names[1], "T2");
        assert!(names[2] == "T6" || names[2] == "T7");
        assert_eq!(names[8], "T5");
        assert!(TopologicalOrder::is_valid_linearization(&g, &s.order));
    }

    #[test]
    fn serialization_is_always_a_valid_linearization() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = bsa_workloads::random_dag::paper_random_graph(60, 1.0, &mut rng).unwrap();
            let costs: Vec<f64> = g.tasks().map(|t| t.nominal_cost).collect();
            let s = serialize(&g, &costs);
            assert!(
                TopologicalOrder::is_valid_linearization(&g, &s.order),
                "seed {seed}"
            );
            assert_eq!(s.order.len(), g.num_tasks());
        }
    }

    #[test]
    fn cp_tasks_appear_in_path_order_within_the_serialization() {
        let g = paper_example::figure1_graph();
        let costs: Vec<f64> = g.tasks().map(|t| t.nominal_cost).collect();
        let s = serialize(&g, &costs);
        let pos: Vec<usize> = s
            .critical_path
            .iter()
            .map(|t| s.order.iter().position(|o| o == t).unwrap())
            .collect();
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn single_task_graph_serializes_trivially() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("only", 5.0);
        let g = b.build().unwrap();
        let s = serialize(&g, &[5.0]);
        assert_eq!(s.order, vec![TaskId(0)]);
        assert_eq!(s.classes[0], TaskClass::CriticalPath);
    }

    #[test]
    fn ob_tasks_come_after_cp_and_ib_tasks_of_figure1() {
        let g = paper_example::figure1_graph();
        let costs: Vec<f64> = g.tasks().map(|t| t.nominal_cost).collect();
        let s = serialize(&g, &costs);
        // T5 (OB) must be last.
        assert_eq!(*s.order.last().unwrap(), TaskId(4));
    }

    #[test]
    fn independent_chains_are_ordered_by_b_level() {
        // Chain A (long) and chain B (short), disconnected-free: join them at a sink so the
        // graph stays connected.  The long chain forms the CP; the short chain is OB... but
        // it feeds the sink, making it IB.  Use a truly dangling OB chain instead.
        let mut b = TaskGraphBuilder::new();
        let a1 = b.add_task("a1", 50.0);
        let a2 = b.add_task("a2", 50.0);
        let ob1 = b.add_task("ob1", 30.0);
        let ob2 = b.add_task("ob2", 10.0);
        b.add_edge(a1, a2, 5.0).unwrap();
        b.add_edge(a1, ob1, 5.0).unwrap();
        b.add_edge(ob1, ob2, 5.0).unwrap();
        let g = b.build().unwrap();
        let costs: Vec<f64> = g.tasks().map(|t| t.nominal_cost).collect();
        let s = serialize(&g, &costs);
        // CP is a1 -> a2 (105) vs a1 -> ob1 -> ob2 (105)?  50+5+50 = 105 vs 50+5+30+5+10 = 100.
        assert_eq!(s.critical_path, vec![a1, a2]);
        // OB tasks ob1 (b=45) then ob2 (b=10) follow in descending b-level.
        assert_eq!(s.order, vec![a1, a2, ob1, ob2]);
    }
}
