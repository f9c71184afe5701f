//! Reproduces the paper's **worked example** (Table 1, Figure 2, Sections 2.2–2.4): the
//! reconstructed 9-task graph scheduled by BSA onto a 4-processor heterogeneous ring with
//! the Table 1 execution costs and homogeneous links.
//!
//! The binary prints the per-processor CP lengths, the chosen pivot, the serial order, a
//! trace of every migration, the final Gantt chart and a comparison with DLS.
//!
//! Run with `cargo run --release -p bsa_experiments --bin table1_example`.

use bsa_baselines::Dls;
use bsa_core::{Bsa, BsaConfig};
use bsa_experiments::write_results_file;
use bsa_network::builders::ring;
use bsa_network::{CommCostModel, ExecutionCostMatrix, HeterogeneousSystem};
use bsa_schedule::gantt::{render, GanttOptions};
use bsa_schedule::{validate, Problem, ScheduleMetrics, Solution, Solver};
use bsa_workloads::paper_example;

fn main() {
    let graph = paper_example::figure1_graph();
    let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
    let topology = ring(4).unwrap();
    let comm = CommCostModel::homogeneous(&topology);
    let system = HeterogeneousSystem::new(topology, exec, comm);

    println!("# Worked example (Figure 1 / Table 1 / Figure 2)\n");
    println!("Paper reference points: first pivot = P2, serial order T1 T2 T7 T4 T3 T8 T6 T9 T5 (nominal),");
    println!("serialized length on P2 = 238, intermediate SL = 147, final SL = 138.\n");

    let problem = Problem::new(&graph, &system).unwrap();
    let Solution {
        schedule, trace, ..
    } = Bsa::new(BsaConfig::traced())
        .solve_unbounded(&problem)
        .unwrap();
    let errors = validate::validate(&schedule, &graph, &system);
    assert!(errors.is_empty(), "BSA schedule must be valid: {errors:?}");

    println!("## BSA decision trace\n");
    println!("{}", trace.summary());

    println!("## BSA schedule\n");
    let gantt = render(
        &schedule,
        &graph,
        &system.topology,
        &GanttOptions::default(),
    );
    println!("{gantt}");
    let metrics = ScheduleMetrics::compute(&schedule, &graph, &system);
    println!(
        "BSA schedule length = {:.1} (paper: 138), total communication = {:.1} (paper: 200)\n",
        metrics.schedule_length, metrics.total_communication_cost
    );

    let dls_schedule = Dls::new().solve_unbounded(&problem).unwrap().schedule;
    let dls_errors = validate::validate(&dls_schedule, &graph, &system);
    assert!(
        dls_errors.is_empty(),
        "DLS schedule must be valid: {dls_errors:?}"
    );
    println!("## DLS on the same instance\n");
    println!(
        "{}",
        render(
            &dls_schedule,
            &graph,
            &system.topology,
            &GanttOptions::default()
        )
    );
    println!(
        "DLS schedule length = {:.1}\n",
        dls_schedule.schedule_length()
    );

    let mut report = String::new();
    report.push_str(&trace.summary());
    report.push_str(&format!(
        "\nBSA schedule length: {:.1}\nDLS schedule length: {:.1}\nserialized length: {:.1}\n",
        schedule.schedule_length(),
        dls_schedule.schedule_length(),
        trace.serialized_length.unwrap_or(0.0)
    ));
    if let Some(path) = write_results_file("table1_example.txt", &report) {
        println!("wrote {}", path.display());
    }
}
