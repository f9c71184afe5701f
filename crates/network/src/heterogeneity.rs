//! Heterogeneity cost models: the per-(task, processor) execution-cost matrix and the
//! per-link communication factors.
//!
//! The paper models heterogeneity through multiplicative factors applied to the nominal
//! costs: running `Ti` on `Px` costs `h_{ix} · τ_i`, and sending `M_{ij}` across `L_{xy}`
//! costs `h'_{ijxy} · c_{ij}`.  In the experiments both kinds of factors are drawn uniformly
//! from `[1, R]` with `R ∈ {10, 50, 100, 200}`; the nominal costs therefore describe the
//! fastest processor / link.  We store the *resulting* actual execution costs in a dense
//! `n × m` matrix (like Table 1 in the paper) and per-link communication multipliers.

use crate::ids::{LinkId, ProcId};
use crate::topology::Topology;
use bsa_taskgraph::{TaskGraph, TaskId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The inclusive range `[low, high]` from which heterogeneity factors are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeterogeneityRange {
    /// Smallest possible factor (the paper always uses 1.0).
    pub low: f64,
    /// Largest possible factor (10, 50, 100 or 200 in the paper's Figure 7).
    pub high: f64,
}

impl HeterogeneityRange {
    /// The paper's default range `[1, 50]` used in Figures 3–6.
    pub const DEFAULT: HeterogeneityRange = HeterogeneityRange {
        low: 1.0,
        high: 50.0,
    };

    /// Creates a range, validating `0 <= low <= high`.  The paper always draws factors
    /// from `[1, x]`; values in `[0, 1)` are allowed to model faster-than-nominal
    /// processors.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low >= 0.0 && low <= high,
            "invalid heterogeneity range [{low}, {high}]"
        );
        HeterogeneityRange { low, high }
    }

    /// A degenerate range producing homogeneous factors of exactly `1.0`.
    pub fn homogeneous() -> Self {
        HeterogeneityRange {
            low: 1.0,
            high: 1.0,
        }
    }

    /// Draws one factor uniformly from the range.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.low == self.high {
            self.low
        } else {
            rng.gen_range(self.low..=self.high)
        }
    }
}

/// Dense `num_tasks × num_processors` matrix of *actual* execution costs
/// (`cost[i][x] = h_{ix} · τ_i`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionCostMatrix {
    num_tasks: usize,
    num_procs: usize,
    /// Row-major storage: `costs[task * num_procs + proc]`.
    costs: Vec<f64>,
}

impl ExecutionCostMatrix {
    /// Builds a matrix from explicit rows (`rows[task][proc]`), e.g. Table 1 of the paper.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cost matrix needs at least one task row");
        let num_procs = rows[0].len();
        assert!(
            num_procs > 0,
            "cost matrix needs at least one processor column"
        );
        let mut costs = Vec::with_capacity(rows.len() * num_procs);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                num_procs,
                "row {i} has {} columns, expected {num_procs}",
                row.len()
            );
            for &c in row {
                assert!(c.is_finite() && c >= 0.0, "invalid execution cost {c}");
                costs.push(c);
            }
        }
        ExecutionCostMatrix {
            num_tasks: rows.len(),
            num_procs,
            costs,
        }
    }

    /// Generates actual costs from the graph's nominal costs by sampling one heterogeneity
    /// factor per (task, processor) pair uniformly from `range` (the paper's experimental
    /// setup).
    pub fn generate<R: Rng + ?Sized>(
        graph: &TaskGraph,
        num_procs: usize,
        range: HeterogeneityRange,
        rng: &mut R,
    ) -> Self {
        let num_tasks = graph.num_tasks();
        let mut costs = Vec::with_capacity(num_tasks * num_procs);
        for t in graph.tasks() {
            for _ in 0..num_procs {
                costs.push(range.sample(rng) * t.nominal_cost);
            }
        }
        ExecutionCostMatrix {
            num_tasks,
            num_procs,
            costs,
        }
    }

    /// A homogeneous matrix: every processor runs every task at its nominal cost.
    pub fn homogeneous(graph: &TaskGraph, num_procs: usize) -> Self {
        let num_tasks = graph.num_tasks();
        let mut costs = Vec::with_capacity(num_tasks * num_procs);
        for t in graph.tasks() {
            for _ in 0..num_procs {
                costs.push(t.nominal_cost);
            }
        }
        ExecutionCostMatrix {
            num_tasks,
            num_procs,
            costs,
        }
    }

    /// Number of task rows.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of processor columns.
    #[inline]
    pub fn num_processors(&self) -> usize {
        self.num_procs
    }

    /// Actual execution cost of `task` on `proc`.
    #[inline]
    pub fn cost(&self, task: TaskId, proc: ProcId) -> f64 {
        self.costs[task.index() * self.num_procs + proc.index()]
    }

    /// The whole column of actual costs for one processor, in task-id order.
    pub fn column(&self, proc: ProcId) -> Vec<f64> {
        (0..self.num_tasks)
            .map(|i| self.costs[i * self.num_procs + proc.index()])
            .collect()
    }

    /// The whole row of actual costs for one task, in processor-id order.
    pub fn row(&self, task: TaskId) -> &[f64] {
        let base = task.index() * self.num_procs;
        &self.costs[base..base + self.num_procs]
    }

    /// The processor with the smallest cost for `task` (smallest id wins ties).
    pub fn fastest_processor(&self, task: TaskId) -> ProcId {
        let row = self.row(task);
        let mut best = 0usize;
        for (i, &c) in row.iter().enumerate() {
            if c < row[best] {
                best = i;
            }
        }
        ProcId::from_index(best)
    }

    /// Median execution cost of `task` across all processors (used by DLS's static levels
    /// and its Δ adjustment).
    pub fn median_cost(&self, task: TaskId) -> f64 {
        let mut row = self.row(task).to_vec();
        row.sort_by(f64::total_cmp);
        let mid = row.len() / 2;
        if row.len() % 2 == 1 {
            row[mid]
        } else {
            0.5 * (row[mid - 1] + row[mid])
        }
    }

    /// Mean execution cost of `task` across all processors (used by HEFT's upward ranks).
    pub fn mean_cost(&self, task: TaskId) -> f64 {
        let row = self.row(task);
        row.iter().sum::<f64>() / row.len() as f64
    }
}

/// Per-link communication-cost multipliers: sending a message of nominal cost `c` over link
/// `l` occupies the link for `factor(l) · c` time units.
///
/// The paper draws `h'_{ijxy}` per message *and* link; in its worked example the factors are
/// all 1 (homogeneous links).  We model the dominant per-link component; a per-message
/// extension would only add noise to the experiments while complicating every scheduler,
/// so the per-message component is fixed at 1.  This preserves the paper's experimental
/// shape (the factor distribution across hops is identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommCostModel {
    factors: Vec<f64>,
}

impl CommCostModel {
    /// Homogeneous links: every factor is `1.0`.
    pub fn homogeneous(topology: &Topology) -> Self {
        CommCostModel {
            factors: vec![1.0; topology.num_links()],
        }
    }

    /// Uniform factor applied to every link.
    pub fn uniform(topology: &Topology, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid link factor {factor}"
        );
        CommCostModel {
            factors: vec![factor; topology.num_links()],
        }
    }

    /// Random factors drawn per link from `range` (the paper's `h'` model).
    pub fn generate<R: Rng + ?Sized>(
        topology: &Topology,
        range: HeterogeneityRange,
        rng: &mut R,
    ) -> Self {
        CommCostModel {
            factors: (0..topology.num_links())
                .map(|_| range.sample(rng))
                .collect(),
        }
    }

    /// Builds from explicit per-link factors.
    pub fn from_factors(factors: Vec<f64>) -> Self {
        for &f in &factors {
            assert!(f.is_finite() && f >= 0.0, "invalid link factor {f}");
        }
        CommCostModel { factors }
    }

    /// The multiplier of link `l`.
    #[inline]
    pub fn factor(&self, l: LinkId) -> f64 {
        self.factors[l.index()]
    }

    /// Actual transfer time of a message with nominal cost `nominal` over link `l`.
    #[inline]
    pub fn transfer_time(&self, l: LinkId, nominal: f64) -> f64 {
        self.factors[l.index()] * nominal
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.factors.len()
    }

    /// Average link factor.
    pub fn average_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            self.factors.iter().sum::<f64>() / self.factors.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ring;
    use bsa_taskgraph::TaskGraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("a", 10.0);
        let c = b.add_task("c", 20.0);
        b.add_edge(a, c, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn table1_matrix_lookups() {
        // The paper's Table 1 (tasks T1..T9 on processors P1..P4).
        let rows = vec![
            vec![39.0, 7.0, 2.0, 6.0],
            vec![21.0, 50.0, 57.0, 56.0],
            vec![15.0, 28.0, 39.0, 6.0],
            vec![54.0, 14.0, 16.0, 55.0],
            vec![45.0, 42.0, 97.0, 12.0],
            vec![15.0, 20.0, 57.0, 78.0],
            vec![33.0, 43.0, 51.0, 60.0],
            vec![51.0, 18.0, 47.0, 74.0],
            vec![8.0, 16.0, 15.0, 20.0],
        ];
        let m = ExecutionCostMatrix::from_rows(&rows);
        assert_eq!(m.num_tasks(), 9);
        assert_eq!(m.num_processors(), 4);
        assert_eq!(m.cost(TaskId(0), ProcId(1)), 7.0);
        assert_eq!(m.cost(TaskId(7), ProcId(3)), 74.0);
        assert_eq!(m.column(ProcId(0))[1], 21.0);
        assert_eq!(m.row(TaskId(4)), &[45.0, 42.0, 97.0, 12.0]);
        assert_eq!(m.fastest_processor(TaskId(0)), ProcId(2));
        assert_eq!(m.fastest_processor(TaskId(8)), ProcId(0));
        assert_eq!(m.median_cost(TaskId(0)), 6.5); // (6+7)/2
        assert!((m.mean_cost(TaskId(0)) - 13.5).abs() < 1e-12);
    }

    #[test]
    fn generated_matrix_respects_range_and_nominal_costs() {
        let g = tiny_graph();
        let mut rng = StdRng::seed_from_u64(42);
        let m = ExecutionCostMatrix::generate(&g, 8, HeterogeneityRange::new(1.0, 50.0), &mut rng);
        assert_eq!(m.num_tasks(), 2);
        assert_eq!(m.num_processors(), 8);
        for p in 0..8 {
            let c0 = m.cost(TaskId(0), ProcId(p));
            let c1 = m.cost(TaskId(1), ProcId(p));
            assert!(
                (10.0..=500.0).contains(&c0),
                "cost {c0} outside factor range"
            );
            assert!(
                (20.0..=1000.0).contains(&c1),
                "cost {c1} outside factor range"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = tiny_graph();
        let a = ExecutionCostMatrix::generate(
            &g,
            4,
            HeterogeneityRange::DEFAULT,
            &mut StdRng::seed_from_u64(9),
        );
        let b = ExecutionCostMatrix::generate(
            &g,
            4,
            HeterogeneityRange::DEFAULT,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn homogeneous_matrix_equals_nominal_costs() {
        let g = tiny_graph();
        let m = ExecutionCostMatrix::homogeneous(&g, 3);
        for p in 0..3 {
            assert_eq!(m.cost(TaskId(0), ProcId(p)), 10.0);
            assert_eq!(m.cost(TaskId(1), ProcId(p)), 20.0);
        }
    }

    #[test]
    fn homogeneous_range_always_samples_low() {
        let mut rng = StdRng::seed_from_u64(0);
        let r = HeterogeneityRange::homogeneous();
        for _ in 0..10 {
            assert_eq!(r.sample(&mut rng), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid heterogeneity range")]
    fn heterogeneity_range_validates_bounds() {
        let _ = HeterogeneityRange::new(5.0, 2.0);
    }

    #[test]
    fn comm_cost_model_variants() {
        let t = ring(6).unwrap();
        let hom = CommCostModel::homogeneous(&t);
        assert_eq!(hom.num_links(), 6);
        assert_eq!(hom.transfer_time(LinkId(0), 12.0), 12.0);
        assert_eq!(hom.average_factor(), 1.0);

        let uni = CommCostModel::uniform(&t, 2.5);
        assert_eq!(uni.transfer_time(LinkId(3), 4.0), 10.0);

        let mut rng = StdRng::seed_from_u64(3);
        let gen = CommCostModel::generate(&t, HeterogeneityRange::new(1.0, 10.0), &mut rng);
        for l in t.link_ids() {
            assert!((1.0..=10.0).contains(&gen.factor(l)));
        }

        let explicit = CommCostModel::from_factors(vec![1.0, 2.0, 3.0]);
        assert_eq!(explicit.factor(LinkId(2)), 3.0);
        assert_eq!(explicit.average_factor(), 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid link factor")]
    fn comm_cost_model_rejects_negative_factors() {
        let _ = CommCostModel::from_factors(vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_ragged_rows() {
        let _ = ExecutionCostMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }
}
