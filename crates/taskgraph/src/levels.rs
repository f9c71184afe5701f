//! t-levels, b-levels, static levels, ALAP times and critical-path extraction.
//!
//! Definitions follow Section 2.2 of the paper:
//!
//! * the **b-level** (bottom level) of a task is the length of the longest path *beginning*
//!   with the task (the task's own execution cost is included);
//! * the **t-level** (top level) of a task is the length of the longest path *reaching* the
//!   task (the task's own execution cost is excluded);
//! * a **critical path (CP)** is a path with the largest sum of execution and communication
//!   costs; every CP task satisfies `t-level + b-level = CP length`;
//! * when several CPs exist, the paper selects the one with the larger total *execution*
//!   cost (ties broken arbitrarily — we break them deterministically by preferring the
//!   lexicographically smallest task-id sequence).
//!
//! All quantities can be computed either from the nominal costs stored in the graph or from
//! a caller-supplied vector of per-task execution costs (used by BSA's pivot selection,
//! which evaluates the CP length under each processor's actual costs) and an optional
//! communication scaling.

use crate::graph::TaskGraph;
use crate::ids::TaskId;
use crate::traversal::TopologicalOrder;

/// Per-task level information for one cost assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphLevels {
    t_level: Vec<f64>,
    b_level: Vec<f64>,
    /// Static level: like b-level but ignoring communication costs.
    static_level: Vec<f64>,
    /// Execution cost used for each task when the levels were computed.
    exec_cost: Vec<f64>,
    /// Multiplier applied to nominal communication costs when the levels were computed.
    comm_scale: f64,
    cp_length: f64,
}

/// Writes the b-level of every task under per-task execution costs `exec_costs` and
/// communication costs scaled by `comm_scale` into `b_level`, in one pass over `topo`
/// in reverse, and returns the critical-path length.
///
/// These are the float operations of [`GraphLevels::with_costs`], which calls it, so a
/// caller that needs only the critical-path length under many cost assignments (BSA's
/// pivot selection) can compute the order once and still get bit-identical lengths.
///
/// # Panics
/// Panics if `exec_costs` or `b_level` is shorter than the number of tasks.
pub fn b_levels_into(
    graph: &TaskGraph,
    topo: &TopologicalOrder,
    exec_costs: &[f64],
    comm_scale: f64,
    b_level: &mut [f64],
) -> f64 {
    for t in topo.iter_rev() {
        let mut best: f64 = 0.0;
        for &eid in graph.out_edges(t) {
            let e = graph.edge(eid);
            let via = b_level[e.dst.index()] + comm_scale * e.nominal_cost;
            if via > best {
                best = via;
            }
        }
        b_level[t.index()] = exec_costs[t.index()] + best;
    }
    b_level[..graph.num_tasks()]
        .iter()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(0.0)
}

impl GraphLevels {
    /// Computes levels using the graph's nominal execution and communication costs.
    pub fn nominal(graph: &TaskGraph) -> Self {
        let costs: Vec<f64> = graph.tasks().map(|t| t.nominal_cost).collect();
        Self::with_costs(graph, &costs, 1.0)
    }

    /// Computes levels using caller-supplied per-task execution costs and a multiplicative
    /// scaling applied to every nominal communication cost.
    ///
    /// `comm_scale = 0.0` yields the classic *static* interpretation where communication is
    /// ignored everywhere; `comm_scale = 1.0` uses the nominal message costs.
    ///
    /// # Panics
    /// Panics if `exec_costs.len() != graph.num_tasks()`.
    pub fn with_costs(graph: &TaskGraph, exec_costs: &[f64], comm_scale: f64) -> Self {
        assert_eq!(
            exec_costs.len(),
            graph.num_tasks(),
            "one execution cost per task required"
        );
        let n = graph.num_tasks();
        let topo = TopologicalOrder::compute(graph);

        let mut t_level = vec![0.0f64; n];
        for t in topo.iter() {
            let mut best: f64 = 0.0;
            for &eid in graph.in_edges(t) {
                let e = graph.edge(eid);
                let via = t_level[e.src.index()]
                    + exec_costs[e.src.index()]
                    + comm_scale * e.nominal_cost;
                if via > best {
                    best = via;
                }
            }
            t_level[t.index()] = best;
        }

        let mut b_level = vec![0.0f64; n];
        let cp_length = b_levels_into(graph, &topo, exec_costs, comm_scale, &mut b_level);
        let mut static_level = vec![0.0f64; n];
        for t in topo.iter_rev() {
            let mut best_static: f64 = 0.0;
            for &eid in graph.out_edges(t) {
                let via_static = static_level[graph.edge(eid).dst.index()];
                if via_static > best_static {
                    best_static = via_static;
                }
            }
            static_level[t.index()] = exec_costs[t.index()] + best_static;
        }

        GraphLevels {
            t_level,
            b_level,
            static_level,
            exec_cost: exec_costs.to_vec(),
            comm_scale,
            cp_length,
        }
    }

    /// t-level (longest path reaching the task, excluding its own cost).
    #[inline]
    pub fn t_level(&self, t: TaskId) -> f64 {
        self.t_level[t.index()]
    }

    /// b-level (longest path starting at the task, including its own cost).
    #[inline]
    pub fn b_level(&self, t: TaskId) -> f64 {
        self.b_level[t.index()]
    }

    /// Static level (b-level with communication ignored).
    #[inline]
    pub fn static_level(&self, t: TaskId) -> f64 {
        self.static_level[t.index()]
    }

    /// The execution cost that was used for task `t`.
    #[inline]
    pub fn exec_cost(&self, t: TaskId) -> f64 {
        self.exec_cost[t.index()]
    }

    /// Length of the critical path (the schedule-length lower bound on one processor per
    /// path, i.e. the longest exec+comm path).
    #[inline]
    pub fn critical_path_length(&self) -> f64 {
        self.cp_length
    }

    /// As-late-as-possible start time of each task for a given deadline (usually the CP
    /// length): `alap(t) = deadline - b_level(t)`.
    pub fn alap(&self, t: TaskId, deadline: f64) -> f64 {
        deadline - self.b_level(t)
    }

    /// Returns `true` if `t` lies on *a* critical path (within floating-point tolerance).
    pub fn on_critical_path(&self, t: TaskId) -> bool {
        (self.t_level(t) + self.b_level(t) - self.cp_length).abs() <= cp_eps(self.cp_length)
    }

    /// Extracts the critical path this reproduction treats as *the* CP.
    ///
    /// Among all maximal-length paths the one with the largest total execution cost is
    /// chosen (the paper's rule); remaining ties are broken by preferring smaller task ids
    /// at each step, which makes the result deterministic.
    pub fn critical_path(&self, graph: &TaskGraph) -> CriticalPath {
        // Start from the CP source with the best (exec-sum, small-id) path; walk greedily
        // along CP edges, at each step preferring the successor that (a) stays on a CP,
        // (b) maximises the downstream execution-cost sum, (c) has the smallest id.
        // To apply rule (b) exactly we precompute, for every task on a CP, the maximum
        // execution-cost sum achievable along CP-tight edges from that task to a sink.
        let n = graph.num_tasks();
        let eps = cp_eps(self.cp_length);
        let topo = TopologicalOrder::compute(graph);
        let mut best_exec_sum = vec![f64::NEG_INFINITY; n];
        for t in topo.iter_rev() {
            if !self.on_critical_path(t) {
                continue;
            }
            let mut best = 0.0f64;
            let mut found_tight_succ = false;
            for &eid in graph.out_edges(t) {
                let e = graph.edge(eid);
                if !self.on_critical_path(e.dst) {
                    continue;
                }
                // Edge is "tight" if it realizes the CP length.
                let slack = self.t_level(t) + self.exec_cost(t) + e.nominal_cost * self.comm_scale
                    - self.t_level(e.dst);
                if slack.abs() <= eps && best_exec_sum[e.dst.index()] > f64::NEG_INFINITY {
                    found_tight_succ = true;
                    if best_exec_sum[e.dst.index()] > best {
                        best = best_exec_sum[e.dst.index()];
                    }
                }
            }
            // A CP task with no tight successor must be a sink of the CP (b-level == exec).
            if !found_tight_succ && (self.b_level(t) - self.exec_cost(t)).abs() > eps {
                continue;
            }
            best_exec_sum[t.index()] = self.exec_cost(t) + best;
        }

        // Pick the best CP source.
        let mut start: Option<TaskId> = None;
        for t in graph.task_ids() {
            if self.t_level(t).abs() <= eps
                && self.on_critical_path(t)
                && best_exec_sum[t.index()] > f64::NEG_INFINITY
            {
                match start {
                    None => start = Some(t),
                    Some(s) => {
                        let better = best_exec_sum[t.index()] > best_exec_sum[s.index()] + eps
                            || ((best_exec_sum[t.index()] - best_exec_sum[s.index()]).abs() <= eps
                                && t < s);
                        if better {
                            start = Some(t);
                        }
                    }
                }
            }
        }
        let mut tasks = Vec::new();
        let mut total_exec = 0.0;
        if let Some(mut cur) = start {
            loop {
                tasks.push(cur);
                total_exec += self.exec_cost(cur);
                let mut next: Option<TaskId> = None;
                for &eid in graph.out_edges(cur) {
                    let e = graph.edge(eid);
                    if !self.on_critical_path(e.dst)
                        || best_exec_sum[e.dst.index()] == f64::NEG_INFINITY
                    {
                        continue;
                    }
                    let slack =
                        self.t_level(cur) + self.exec_cost(cur) + e.nominal_cost * self.comm_scale
                            - self.t_level(e.dst);
                    if slack.abs() > eps {
                        continue;
                    }
                    match next {
                        None => next = Some(e.dst),
                        Some(nx) => {
                            let better = best_exec_sum[e.dst.index()]
                                > best_exec_sum[nx.index()] + eps
                                || ((best_exec_sum[e.dst.index()] - best_exec_sum[nx.index()])
                                    .abs()
                                    <= eps
                                    && e.dst < nx);
                            if better {
                                next = Some(e.dst);
                            }
                        }
                    }
                }
                match next {
                    Some(nx) => cur = nx,
                    None => break,
                }
            }
        }
        CriticalPath {
            tasks,
            length: self.cp_length,
            total_execution_cost: total_exec,
        }
    }

    /// The communication-cost multiplier the levels were computed with.
    #[inline]
    pub fn comm_scale(&self) -> f64 {
        self.comm_scale
    }
}

fn cp_eps(cp_length: f64) -> f64 {
    1e-9 * cp_length.max(1.0)
}

/// A concrete critical path: the task sequence, its length, and its execution-cost sum.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The CP tasks in path order (source to sink).
    pub tasks: Vec<TaskId>,
    /// Total path length (execution + communication).
    pub length: f64,
    /// Total execution cost of the CP tasks (the paper's tie-break key).
    pub total_execution_cost: f64,
}

impl CriticalPath {
    /// Returns `true` if `t` is one of the CP tasks.
    pub fn contains(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;

    /// The reconstructed Figure-1 graph (see DESIGN.md §3): 9 tasks, 12 edges.
    fn figure1() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let costs = [20.0, 30.0, 30.0, 40.0, 50.0, 40.0, 40.0, 40.0, 10.0];
        for (i, c) in costs.iter().enumerate() {
            b.add_task(format!("T{}", i + 1), *c);
        }
        let t = |i: u32| TaskId(i - 1);
        let edges = [
            (1, 2, 40.0),
            (1, 3, 10.0),
            (1, 5, 10.0),
            (1, 7, 100.0),
            (2, 6, 10.0),
            (2, 7, 10.0),
            (3, 8, 10.0),
            (4, 8, 10.0),
            (4, 5, 10.0),
            (6, 9, 50.0),
            (7, 9, 60.0),
            (8, 9, 50.0),
        ];
        for (s, d, c) in edges {
            b.add_edge(t(s), t(d), c).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn nominal_levels_of_figure1_match_hand_computation() {
        let g = figure1();
        let lv = GraphLevels::nominal(&g);
        let t = |i: u32| TaskId(i - 1);
        // Hand-computed values (see DESIGN.md).
        assert_eq!(lv.t_level(t(1)), 0.0);
        assert_eq!(lv.t_level(t(2)), 60.0);
        assert_eq!(lv.t_level(t(3)), 30.0);
        assert_eq!(lv.t_level(t(4)), 0.0);
        assert_eq!(lv.t_level(t(5)), 50.0);
        assert_eq!(lv.t_level(t(6)), 100.0);
        assert_eq!(lv.t_level(t(7)), 120.0);
        assert_eq!(lv.t_level(t(8)), 70.0);
        assert_eq!(lv.t_level(t(9)), 220.0);

        assert_eq!(lv.b_level(t(9)), 10.0);
        assert_eq!(lv.b_level(t(8)), 100.0);
        assert_eq!(lv.b_level(t(7)), 110.0);
        assert_eq!(lv.b_level(t(6)), 100.0);
        assert_eq!(lv.b_level(t(5)), 50.0);
        assert_eq!(lv.b_level(t(4)), 150.0);
        assert_eq!(lv.b_level(t(3)), 140.0);
        assert_eq!(lv.b_level(t(2)), 150.0);
        assert_eq!(lv.b_level(t(1)), 230.0);

        assert_eq!(lv.critical_path_length(), 230.0);
    }

    #[test]
    fn critical_path_of_figure1_is_t1_t7_t9() {
        let g = figure1();
        let lv = GraphLevels::nominal(&g);
        let cp = lv.critical_path(&g);
        assert_eq!(cp.tasks, vec![TaskId(0), TaskId(6), TaskId(8)]);
        assert_eq!(cp.length, 230.0);
        assert_eq!(cp.total_execution_cost, 70.0);
        for t in &cp.tasks {
            assert!(lv.on_critical_path(*t));
        }
        assert!(!lv.on_critical_path(TaskId(4))); // T5 is an out-branch task
    }

    #[test]
    fn cp_lengths_under_table1_costs_match_the_paper() {
        let g = figure1();
        // Table 1 columns (P1..P4) for tasks T1..T9.
        let p1 = [39.0, 21.0, 15.0, 54.0, 45.0, 15.0, 33.0, 51.0, 8.0];
        let p2 = [7.0, 50.0, 28.0, 14.0, 42.0, 20.0, 43.0, 18.0, 16.0];
        let p3 = [2.0, 57.0, 39.0, 16.0, 97.0, 57.0, 51.0, 60.0, 15.0];
        let p4 = [6.0, 56.0, 6.0, 55.0, 12.0, 78.0, 60.0, 74.0, 20.0];
        // NOTE: Table 1 row for T7 is [33, 43, 51, 60] and row T8 is [51, 18, 47, 74];
        // p3/p4 above must use those exact values.
        let p3 = {
            let mut v = p3;
            v[7] = 47.0; // T8 on P3
            v[6] = 51.0; // T7 on P3
            v
        };
        let p4 = {
            let mut v = p4;
            v[7] = 74.0;
            v[6] = 60.0;
            v
        };
        let cp1 = GraphLevels::with_costs(&g, &p1, 1.0).critical_path_length();
        let cp2 = GraphLevels::with_costs(&g, &p2, 1.0).critical_path_length();
        let cp3 = GraphLevels::with_costs(&g, &p3, 1.0).critical_path_length();
        let cp4 = GraphLevels::with_costs(&g, &p4, 1.0).critical_path_length();
        assert_eq!(cp1, 240.0); // paper: 240
        assert_eq!(cp2, 226.0); // paper: 226
        assert_eq!(cp3, 235.0); // paper: 235
        assert_eq!(cp4, 260.0); // paper: 260

        // P2 gives the shortest CP and is therefore the first pivot.
        assert!(cp2 < cp1 && cp2 < cp3 && cp2 < cp4);
    }

    #[test]
    fn comm_scale_zero_reduces_to_static_levels() {
        let g = figure1();
        let costs: Vec<f64> = g.tasks().map(|t| t.nominal_cost).collect();
        let lv = GraphLevels::with_costs(&g, &costs, 0.0);
        for t in g.task_ids() {
            assert!(
                (lv.b_level(t) - lv.static_level(t)).abs() < 1e-9,
                "with comm ignored, b-level equals static level"
            );
        }
        // Longest execution-only chain: T1(20)+T2(30)+T6(40)+T9(10) = 100 vs
        // T1+T2+T7+T9 = 100 vs T1+T3+T8+T9 = 100 vs T4+T8+T9 = 90 ... = 100.
        assert_eq!(lv.critical_path_length(), 100.0);
    }

    #[test]
    fn single_task_graph_levels() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("only", 7.0);
        let g = b.build().unwrap();
        let lv = GraphLevels::nominal(&g);
        assert_eq!(lv.t_level(TaskId(0)), 0.0);
        assert_eq!(lv.b_level(TaskId(0)), 7.0);
        assert_eq!(lv.critical_path_length(), 7.0);
        let cp = lv.critical_path(&g);
        assert_eq!(cp.tasks, vec![TaskId(0)]);
    }

    #[test]
    fn alap_is_deadline_minus_blevel() {
        let g = figure1();
        let lv = GraphLevels::nominal(&g);
        let d = lv.critical_path_length();
        for t in g.task_ids() {
            assert!(lv.alap(t, d) >= lv.t_level(t) - 1e-9 || !lv.on_critical_path(t));
            if lv.on_critical_path(t) {
                assert!((lv.alap(t, d) - lv.t_level(t)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cp_tie_break_prefers_larger_execution_sum() {
        // Two parallel chains of equal length 100:
        //   A(10) -e(40)-> B(50)          exec sum 60
        //   C(30) -e(20)-> D(50)          exec sum 80   <- must be chosen
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let bb = b.add_task("B", 50.0);
        let c = b.add_task("C", 30.0);
        let d = b.add_task("D", 50.0);
        b.add_edge(a, bb, 40.0).unwrap();
        b.add_edge(c, d, 20.0).unwrap();
        let g = b.build().unwrap();
        let lv = GraphLevels::nominal(&g);
        assert_eq!(lv.critical_path_length(), 100.0);
        let cp = lv.critical_path(&g);
        assert_eq!(cp.tasks, vec![c, d]);
        assert_eq!(cp.total_execution_cost, 80.0);
    }

    #[test]
    fn with_costs_panics_on_wrong_length() {
        let g = figure1();
        let r = std::panic::catch_unwind(|| GraphLevels::with_costs(&g, &[1.0, 2.0], 1.0));
        assert!(r.is_err());
    }
}
