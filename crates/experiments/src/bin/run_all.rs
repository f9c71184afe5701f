//! Runs every experiment binary's sweep in one process and writes all CSVs under
//! `results/`.  Convenient for regenerating the complete EXPERIMENTS.md data set.
//!
//! Run with `cargo run --release -p bsa_experiments --bin run_all -- [--quick|--full]`.

use bsa_experiments::algorithms::Algo;
use bsa_experiments::figures::{heterogeneity_sweep, run_grid, timing_comparison};
use bsa_experiments::instances::Suite;
use bsa_experiments::{scale_from_args, write_results_file};
use bsa_network::builders::TopologyKind;

fn main() {
    let scale = scale_from_args();
    let started = std::time::Instant::now();
    println!(
        "# BSA reproduction — full experiment sweep ({} scale)\n",
        scale.name
    );

    // Figures 3–6.
    for (fig_size, fig_gran, suite) in [
        ("fig3", "fig5", Suite::Regular),
        ("fig4", "fig6", Suite::Random),
    ] {
        for kind in TopologyKind::ALL {
            let grid = run_grid(suite, kind, &scale, &Algo::PAPER_PAIR);
            let by_size = grid.by_size();
            let by_gran = grid.by_granularity();
            println!("{}", by_size.to_markdown());
            println!("{}", by_gran.to_markdown());
            write_results_file(
                &format!("{}_{}_{}.csv", fig_size, suite.label(), kind.label()),
                &by_size.to_csv(),
            );
            write_results_file(
                &format!("{}_{}_{}.csv", fig_gran, suite.label(), kind.label()),
                &by_gran.to_csv(),
            );
        }
    }

    // Figure 7.
    let fig7 = heterogeneity_sweep(&scale, &Algo::PAPER_PAIR);
    println!("{}", fig7.to_markdown());
    write_results_file("fig7_heterogeneity.csv", &fig7.to_csv());

    // Running times.
    let timing = timing_comparison(&scale, &[Algo::Dls, Algo::Bsa]);
    println!("{}", timing.to_markdown());
    write_results_file("timing_comparison.csv", &timing.to_csv());

    // Solver traces: the deterministic SolveTrace bundle, BENCH_traces.json at the
    // workspace root.
    let traces_path = bsa_experiments::traces::default_out_path();
    match bsa_experiments::traces::write_trace_bundle(&traces_path) {
        Ok(()) => println!("wrote {traces_path}"),
        Err(e) => eprintln!("warning: cannot write {traces_path}: {e}"),
    }

    println!(
        "completed the full sweep in {:.1} s",
        started.elapsed().as_secs_f64()
    );
}
