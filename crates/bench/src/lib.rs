//! Shared instance builders for the Criterion benches.
//!
//! Every bench needs (task graph, heterogeneous system) pairs that mirror the paper's
//! experimental setup but at a size that keeps `cargo bench` runs short.  The helpers here
//! are deterministic (fixed seeds) so successive bench runs measure the same work.

use bsa_network::builders::TopologyKind;
use bsa_network::{HeterogeneityRange, HeterogeneousSystem};
use bsa_taskgraph::TaskGraph;
use bsa_workloads::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of processors used by the benchmark systems (the paper uses 16).
pub const BENCH_PROCESSORS: usize = 16;

/// A deterministic random task graph in the paper's style.
pub fn random_graph(num_tasks: usize, granularity: f64, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    bsa_workloads::random_dag::paper_random_graph(num_tasks, granularity, &mut rng)
        .expect("generator accepts bench sizes")
}

/// A deterministic regular-application graph near the requested size.
pub fn regular_graph(app: RegularApp, num_tasks: usize, granularity: f64) -> TaskGraph {
    app.build_for_size(num_tasks, &CostParams::paper(granularity))
        .expect("generator accepts bench sizes")
}

/// A heterogeneous system in the paper's style on [`BENCH_PROCESSORS`] processors: both
/// execution and link factors uniform in `[1, range]`.
pub fn system(graph: &TaskGraph, kind: TopologyKind, range: f64, seed: u64) -> HeterogeneousSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = kind
        .build(BENCH_PROCESSORS, &mut rng)
        .expect("bench topologies are valid");
    HeterogeneousSystem::generate(
        graph,
        topo,
        HeterogeneityRange::new(1.0, range),
        HeterogeneityRange::new(1.0, range),
        &mut rng,
    )
}

/// Environment metadata for machine-readable bench artifacts: JSON key/value lines
/// identifying the host's hardware parallelism and the commit that produced the
/// numbers.  Committed artifacts are only comparable across runs when the header says
/// what they were measured on — a 1-CPU CI runner and a 16-core workstation produce
/// legitimately different wall-clock grids.
///
/// Returns lines of the form `  "host_threads": 4,\n  "commit": "abc123",\n` ready to
/// splice into a hand-rolled JSON object header.
pub fn env_header_json() -> String {
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("  \"host_threads\": {host_threads},\n  \"commit\": \"{commit}\",\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_header_names_host_threads_and_commit() {
        let header = env_header_json();
        assert!(header.contains("\"host_threads\": "));
        assert!(header.contains("\"commit\": \""));
    }

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(random_graph(60, 1.0, 3), random_graph(60, 1.0, 3));
        let g = regular_graph(RegularApp::GaussianElimination, 100, 1.0);
        assert!(g.num_tasks() > 50);
        let s = system(&g, TopologyKind::Ring, 50.0, 1);
        assert_eq!(s.num_processors(), BENCH_PROCESSORS);
    }
}
