//! First-pivot selection and the breadth-first processor list (paper §2.2–2.3).

use crate::config::PivotStrategy;
use bsa_network::{HeterogeneousSystem, ProcId};
use bsa_taskgraph::{b_levels_into, TaskGraph, TopologicalOrder};

/// Critical-path length of `graph` when every task uses its actual execution cost on
/// processor `p` (communication costs stay nominal).
pub fn cp_length_on(graph: &TaskGraph, system: &HeterogeneousSystem, p: ProcId) -> f64 {
    let topo = TopologicalOrder::compute(graph);
    cp_length_with(graph, &topo, system, p, &mut vec![0.0; graph.num_tasks()])
}

/// [`cp_length_on`] over a precomputed topological order, with `b_level` as scratch:
/// one b-level pass (the float operations of `GraphLevels::with_costs`).
fn cp_length_with(
    graph: &TaskGraph,
    topo: &TopologicalOrder,
    system: &HeterogeneousSystem,
    p: ProcId,
    b_level: &mut [f64],
) -> f64 {
    b_levels_into(graph, topo, &system.exec_costs.column(p), 1.0, b_level)
}

/// Selects the first pivot processor according to `strategy`.
///
/// With [`PivotStrategy::ShortestCriticalPath`] (the paper's rule) the processor yielding
/// the smallest CP length wins; ties are broken by the smaller processor id.  The CP
/// length on every processor is returned too; they share one topological order and one
/// b-level buffer.
pub fn select_pivot(
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
    strategy: PivotStrategy,
) -> (ProcId, Vec<f64>) {
    let topo = TopologicalOrder::compute(graph);
    let mut b_level = vec![0.0; graph.num_tasks()];
    let lengths: Vec<f64> = system
        .topology
        .proc_ids()
        .map(|p| cp_length_with(graph, &topo, system, p, &mut b_level))
        .collect();
    let pivot = match strategy {
        PivotStrategy::Fixed(p) => {
            assert!(
                p.index() < system.num_processors(),
                "fixed pivot {p} does not exist"
            );
            p
        }
        PivotStrategy::ShortestCriticalPath => {
            let mut best = ProcId(0);
            for p in system.topology.proc_ids() {
                if lengths[p.index()] < lengths[best.index()] {
                    best = p;
                }
            }
            best
        }
        PivotStrategy::LongestCriticalPath => {
            let mut worst = ProcId(0);
            for p in system.topology.proc_ids() {
                if lengths[p.index()] > lengths[worst.index()] {
                    worst = p;
                }
            }
            worst
        }
    };
    (pivot, lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::{CommCostModel, ExecutionCostMatrix};
    use bsa_workloads::paper_example;

    fn paper_system() -> (TaskGraph, HeterogeneousSystem) {
        let g = paper_example::figure1_graph();
        let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
        let topo = ring(4).unwrap();
        let comm = CommCostModel::homogeneous(&topo);
        let sys = HeterogeneousSystem::new(topo, exec, comm);
        (g, sys)
    }

    #[test]
    fn cp_lengths_match_table1_derivation() {
        let (g, sys) = paper_system();
        assert_eq!(cp_length_on(&g, &sys, ProcId(0)), 240.0);
        assert_eq!(cp_length_on(&g, &sys, ProcId(1)), 226.0);
        assert_eq!(cp_length_on(&g, &sys, ProcId(2)), 235.0);
        assert_eq!(cp_length_on(&g, &sys, ProcId(3)), 260.0);
    }

    #[test]
    fn shortest_cp_pivot_is_p2() {
        let (g, sys) = paper_system();
        let (pivot, lengths) = select_pivot(&g, &sys, PivotStrategy::ShortestCriticalPath);
        assert_eq!(pivot, ProcId(1)); // P2 in the paper's 1-based numbering
        assert_eq!(lengths, vec![240.0, 226.0, 235.0, 260.0]);
    }

    #[test]
    fn longest_cp_pivot_is_p4_and_fixed_pivot_is_honoured() {
        let (g, sys) = paper_system();
        let (pivot, _) = select_pivot(&g, &sys, PivotStrategy::LongestCriticalPath);
        assert_eq!(pivot, ProcId(3));
        let (pivot, _) = select_pivot(&g, &sys, PivotStrategy::Fixed(ProcId(2)));
        assert_eq!(pivot, ProcId(2));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn fixed_pivot_out_of_range_panics() {
        let (g, sys) = paper_system();
        let _ = select_pivot(&g, &sys, PivotStrategy::Fixed(ProcId(9)));
    }
}
