//! Machine-readable [`SolveTrace`] bundles from the experiments runner.
//!
//! The scaling bench archives `BENCH_scaling.json`; this module gives the solver traces
//! the same treatment: a deterministic set of BSA solves (the paper's worked example,
//! budgeted and unbudgeted, plus one random DAG) rendered as a JSON bundle via
//! [`SolveTrace::to_json`] and written next to `BENCH_scaling.json` at the workspace
//! root.  `run_all` emits it as part of the full sweep and the dedicated
//! `solve_traces` binary regenerates it alone:
//!
//! ```console
//! cargo run --release -p bsa_experiments --bin solve_traces
//! ```

use bsa_core::{Bsa, BsaConfig};
use bsa_network::builders::{hypercube_for, ring};
use bsa_network::{CommCostModel, ExecutionCostMatrix, HeterogeneityRange, HeterogeneousSystem};
use bsa_schedule::{NoProgress, Problem, SolveOptions, SolveTrace, Solver};
use bsa_workloads::paper_example;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One labelled entry of the bundle.
pub struct TraceEntry {
    /// Which instance/budget combination produced the trace.
    pub label: &'static str,
    /// The solve trace.
    pub trace: SolveTrace,
}

/// Runs the deterministic trace suite: the worked example unbudgeted, the worked
/// example under a 2-migration budget (exercising the anytime stop path), a 60-task
/// random DAG on an 8-processor hypercube, and the standard portfolio racing the same
/// DAG (deterministic winner under `BestOfAll`).
pub fn trace_suite() -> Vec<TraceEntry> {
    let bsa = Bsa::new(BsaConfig::traced());

    let graph = paper_example::figure1_graph();
    let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
    let topology = ring(4).expect("ring(4) is valid");
    let comm = CommCostModel::homogeneous(&topology);
    let system = HeterogeneousSystem::new(topology, exec, comm);
    let problem = Problem::new(&graph, &system).expect("the worked example is valid");
    let unbounded = bsa
        .solve_unbounded(&problem)
        .expect("the worked example solves");
    let budgeted = bsa
        .solve(
            &problem,
            &SolveOptions::default().with_migration_budget(2),
            &mut NoProgress,
        )
        .expect("the budgeted worked example solves");

    let mut rng = StdRng::seed_from_u64(0xB5A);
    let random_graph =
        bsa_workloads::random_dag::paper_random_graph(60, 1.0, &mut rng).expect("generator works");
    let random_system = HeterogeneousSystem::generate(
        &random_graph,
        hypercube_for(8).expect("hypercube_for(8) is valid"),
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::homogeneous(),
        &mut rng,
    );
    let random_problem =
        Problem::new(&random_graph, &random_system).expect("the random instance is valid");
    let random = bsa
        .solve_unbounded(&random_problem)
        .expect("the random instance solves");
    let portfolio = bsa::algorithms::standard_portfolio()
        .solve_unbounded(&random_problem)
        .expect("the portfolio race solves");

    vec![
        TraceEntry {
            label: "paper_example_unbounded",
            trace: unbounded.trace,
        },
        TraceEntry {
            label: "paper_example_budget_2_migrations",
            trace: budgeted.trace,
        },
        TraceEntry {
            label: "random_60_hypercube8_unbounded",
            trace: random.trace,
        },
        TraceEntry {
            label: "portfolio_best_of_all_random_60",
            trace: portfolio.trace,
        },
    ]
}

/// Renders the suite as one JSON document.
pub fn bundle_json(entries: &[TraceEntry]) -> String {
    let mut out = String::from("{\n  \"bench\": \"solver_traces\",\n  \"traces\": {\n");
    for (i, entry) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            entry.label,
            entry.trace.to_json(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// The workspace-root artifact path, anchored like the scaling bench's so the file
/// lands in a predictable place regardless of the invocation CWD.
pub fn default_out_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_traces.json").to_string()
}

/// Runs the suite and writes the bundle to `path`.
pub fn write_trace_bundle(path: &str) -> std::io::Result<()> {
    std::fs::write(path, bundle_json(&trace_suite()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_schedule::StopReason;

    #[test]
    fn suite_covers_budgeted_and_unbudgeted_solves_and_serializes() {
        let entries = trace_suite();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].trace.stop, StopReason::Converged);
        assert_eq!(entries[1].trace.stop, StopReason::MigrationBudgetExhausted);
        assert_eq!(entries[1].trace.num_migrations(), 2);
        assert_eq!(entries[0].trace.serialized_length, Some(238.0));
        // Every BSA solve records its candidate evaluations in one row.
        assert_eq!(entries[2].trace.thread_stats.len(), 1);
        assert!(entries[2].trace.thread_stats[0].evals > 0);

        let json = bundle_json(&entries);
        assert!(json.contains("\"bench\": \"solver_traces\""));
        assert!(json.contains("\"paper_example_budget_2_migrations\""));
        assert!(json.contains("\"portfolio_best_of_all_random_60\""));
        assert!(json.contains("\"stop\": \"migration_budget_exhausted\""));
        assert!(json.contains("\"solver\": \"BSA\""));
        assert!(json.contains("\"thread_stats\": [{\"evals\": "));
        // Both the budgeted and converged traces record incumbent improvements.
        assert!(json.contains("\"incumbents\": [{"));
    }
}
