//! Domain example: sensitivity to processor heterogeneity (the paper's Figure 7 for a
//! single instance).  A 300-task random graph is scheduled on a 16-processor hypercube as
//! the execution-cost factor range grows from [1, 10] to [1, 200]; the example also reports
//! where BSA places the critical-path tasks (the paper's claim: critical tasks go to the
//! fastest processors).
//!
//! Run with `cargo run --release --example heterogeneity_study`.

use bsa::prelude::*;
use bsa::schedule::validate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = bsa::workloads::random_dag::paper_random_graph(300, 1.0, &mut rng).unwrap();
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>22}",
        "heterogeneity", "DLS", "BSA", "BSA/DLS", "CP tasks on fast procs"
    );
    for range in [10.0, 50.0, 100.0, 200.0] {
        let system = HeterogeneousSystem::generate(
            &graph,
            bsa::network::builders::hypercube_for(16).unwrap(),
            HeterogeneityRange::new(1.0, range),
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let problem = Problem::new(&graph, &system).unwrap();
        let dls = Dls::new().solve_unbounded(&problem).unwrap().schedule;
        let bsa = Bsa::default().solve_unbounded(&problem).unwrap().schedule;
        assert!(validate::validate(&bsa, &graph, &system).is_empty());
        assert!(validate::validate(&dls, &graph, &system).is_empty());

        // How often does BSA run a critical-path task on one of that task's 4 fastest
        // processors?
        let levels = GraphLevels::nominal(&graph);
        let cp = levels.critical_path(&graph);
        let mut fast_placements = 0usize;
        for &t in &cp.tasks {
            let chosen = bsa.proc_of(t);
            let mut costs: Vec<(f64, ProcId)> = system
                .topology
                .proc_ids()
                .map(|p| (system.exec_cost(t, p), p))
                .collect();
            costs.sort_by(|a, b| a.0.total_cmp(&b.0));
            if costs.iter().take(4).any(|&(_, p)| p == chosen) {
                fast_placements += 1;
            }
        }
        println!(
            "{:<14} {:>12.0} {:>12.0} {:>12.2} {:>14}/{:<7}",
            format!("[1, {range}]"),
            dls.schedule_length(),
            bsa.schedule_length(),
            bsa.schedule_length() / dls.schedule_length(),
            fast_placements,
            cp.tasks.len()
        );
    }
    println!(
        "\nExpect schedule lengths to grow with the heterogeneity range for both \
         algorithms, with BSA growing more slowly (the paper's Figure 7)."
    );
}
