//! Cross-crate integration test: the paper's worked example (Figure 1 / Table 1 /
//! Figure 2) end to end, exercising workload reconstruction, pivot selection,
//! serialization, BSA, DLS and schedule validation together.

use bsa::core::BsaConfig;
use bsa::prelude::*;
use bsa::schedule::validate;
use bsa::workloads::paper_example;

fn paper_instance() -> (TaskGraph, HeterogeneousSystem) {
    let graph = paper_example::figure1_graph();
    let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
    let topology = bsa::network::builders::ring(4).unwrap();
    let comm = CommCostModel::homogeneous(&topology);
    (graph, HeterogeneousSystem::new(topology, exec, comm))
}

#[test]
fn pivot_selection_reproduces_the_papers_table1_reasoning() {
    let (graph, system) = paper_instance();
    let lengths: Vec<f64> = system
        .topology
        .proc_ids()
        .map(|p| bsa::core::cp_length_on(&graph, &system, p))
        .collect();
    assert_eq!(lengths, vec![240.0, 226.0, 235.0, 260.0]);
    let (pivot, _) = bsa::core::select_pivot(
        &graph,
        &system,
        bsa::core::PivotStrategy::ShortestCriticalPath,
    );
    assert_eq!(pivot, ProcId(1), "the paper selects P2 as the first pivot");
}

#[test]
fn nominal_serialization_matches_section_2_2() {
    let (graph, _) = paper_instance();
    let costs: Vec<f64> = graph.tasks().map(|t| t.nominal_cost).collect();
    let s = bsa::core::serialize(&graph, &costs);
    let names: Vec<&str> = s
        .order
        .iter()
        .map(|&t| graph.task(t).name.as_str())
        .collect();
    assert_eq!(
        names,
        vec!["T1", "T2", "T7", "T4", "T3", "T8", "T6", "T9", "T5"]
    );
}

#[test]
fn bsa_beats_both_the_serialized_schedule_and_dls_on_the_worked_example() {
    let (graph, system) = paper_instance();
    let problem = Problem::new(&graph, &system).unwrap();
    let Solution {
        schedule: bsa_schedule,
        trace,
        ..
    } = Bsa::new(BsaConfig::traced())
        .solve_unbounded(&problem)
        .unwrap();
    let dls_schedule = Dls::new().solve_unbounded(&problem).unwrap().schedule;

    assert!(validate::validate(&bsa_schedule, &graph, &system).is_empty());
    assert!(validate::validate(&dls_schedule, &graph, &system).is_empty());

    // Serialization of the whole program on P2 takes 238 time units.
    assert_eq!(trace.serialized_length, Some(238.0));
    assert!(bsa_schedule.schedule_length() < 238.0);
    // The paper reaches 138 with its own (not fully recoverable) edge labelling; our
    // reconstruction lands in the same neighbourhood (see EXPERIMENTS.md, experiment E0)
    // and clearly below DLS.
    assert!(
        bsa_schedule.schedule_length() <= 220.0,
        "BSA schedule length {} drifted from the paper's ballpark",
        bsa_schedule.schedule_length()
    );
    assert!(
        bsa_schedule.schedule_length() < dls_schedule.schedule_length(),
        "BSA ({}) must beat DLS ({}) on the worked example",
        bsa_schedule.schedule_length(),
        dls_schedule.schedule_length()
    );
    // Heterogeneity is exploited: a strict majority of tasks run on a processor that is
    // at least as fast as the nominal reference for that task would suggest.
    assert!(
        trace.num_migrations() >= 4,
        "most tasks should leave the pivot"
    );
}

#[test]
fn every_scheduler_produces_a_valid_schedule_on_the_worked_example() {
    let (graph, system) = paper_instance();
    let problem = Problem::new(&graph, &system).unwrap();
    let solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(Bsa::default()),
        Box::new(Dls::new()),
        Box::new(Heft::new()),
        Box::new(ContentionObliviousHeft::new()),
        Box::new(SerialScheduler::new()),
    ];
    for s in solvers {
        let schedule = s.solve_unbounded(&problem).unwrap().schedule;
        let errors = validate::validate(&schedule, &graph, &system);
        assert!(errors.is_empty(), "{}: {errors:?}", s.name());
        assert!(schedule.schedule_length() <= 238.0 + 1e-9);
    }
}

#[test]
fn gantt_rendering_of_the_worked_example_is_plausible() {
    let (graph, system) = paper_instance();
    let schedule = Bsa::default()
        .solve_unbounded(&Problem::new(&graph, &system).unwrap())
        .unwrap()
        .schedule;
    let text = bsa::schedule::gantt::render(
        &schedule,
        &graph,
        &system.topology,
        &bsa::schedule::gantt::GanttOptions {
            width: 200, // wide enough that short tasks are not overdrawn by their neighbours
            show_links: true,
        },
    );
    assert!(text.contains("schedule `BSA`"));
    // Every processor row is present and the vast majority of task labels are visible.
    for p in system.topology.processors() {
        assert!(text.contains(&p.name));
    }
    let visible = graph.tasks().filter(|t| text.contains(&t.name)).count();
    assert!(
        visible >= graph.num_tasks() - 1,
        "only {visible} of {} task labels are visible in the Gantt chart",
        graph.num_tasks()
    );
}
