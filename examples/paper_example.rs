//! The paper's worked example (Sections 2.2–2.4): the reconstructed Figure 1 graph on the
//! four-processor heterogeneous ring with the Table 1 execution costs, scheduled by BSA
//! with a full decision trace.
//!
//! Run with `cargo run --release --example paper_example`.

use bsa::core::BsaConfig;
use bsa::prelude::*;
use bsa::schedule::gantt::{render, GanttOptions};
use bsa::schedule::validate;
use bsa::workloads::paper_example;

fn main() {
    let graph = paper_example::figure1_graph();
    let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
    let topology = bsa::network::builders::ring(4).unwrap();
    let comm = CommCostModel::homogeneous(&topology);
    let system = HeterogeneousSystem::new(topology, exec, comm);

    // Levels and the critical path under nominal costs (paper: CP = {T1, T7, T9}).
    let levels = GraphLevels::nominal(&graph);
    let cp = levels.critical_path(&graph);
    println!(
        "nominal critical path: {:?} (length {:.0})",
        cp.tasks
            .iter()
            .map(|&t| graph.task(t).name.clone())
            .collect::<Vec<_>>(),
        cp.length
    );

    // Per-processor CP lengths drive the pivot choice (paper: 240 / 226 / 235 / 260 → P2).
    for p in system.topology.proc_ids() {
        println!(
            "CP length with {}'s actual costs: {:.0}",
            system.topology.processor(p).name,
            bsa::core::cp_length_on(&graph, &system, p)
        );
    }

    let Solution {
        schedule, trace, ..
    } = Bsa::new(BsaConfig::traced())
        .solve_unbounded(&Problem::new(&graph, &system).unwrap())
        .unwrap();
    assert!(validate::validate(&schedule, &graph, &system).is_empty());
    println!("\n{}", trace.summary());
    println!(
        "{}",
        render(
            &schedule,
            &graph,
            &system.topology,
            &GanttOptions::default()
        )
    );
    println!(
        "final schedule length {:.1} (paper reports 138 for its own edge labelling); \
         serialized length was {:.1}",
        schedule.schedule_length(),
        trace.serialized_length.unwrap_or(0.0)
    );
}
