//! Cross-crate tests of portfolio racing, the one parallel solve path (DESIGN.md §12):
//! the merged event stream is monotone in incumbent length, losing configurations go
//! quiet after the winner's `ConfigFinished`, an outer cancellation reaches every
//! racing worker and is recorded in provenance, `BestOfAll` results are worker-count
//! independent, a panicking entry cannot stall the race, and `Provenance::threads`
//! reports the OS threads a solve ran on.

use bsa::prelude::*;
use bsa::schedule::validate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::ControlFlow;

fn random_instance(
    tasks: usize,
    topology: Topology,
    seed: u64,
) -> (TaskGraph, HeterogeneousSystem) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = bsa::workloads::random_dag::paper_random_graph(tasks, 1.0, &mut rng).unwrap();
    let system = HeterogeneousSystem::generate(
        &graph,
        topology,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, 4.0),
        &mut rng,
    );
    (graph, system)
}

fn schedules_identical(graph: &TaskGraph, a: &Schedule, b: &Schedule) -> bool {
    graph.task_ids().all(|t| {
        a.proc_of(t) == b.proc_of(t)
            && a.start_of(t) == b.start_of(t)
            && a.finish_of(t) == b.finish_of(t)
    }) && a.schedule_length() == b.schedule_length()
}

#[test]
fn portfolio_merges_a_monotone_incumbent_stream_and_picks_the_best_entry() {
    let (graph, system) =
        random_instance(60, bsa::network::builders::hypercube_for(8).unwrap(), 0xE55);
    let problem = Problem::new(&graph, &system).unwrap();
    let mut log = bsa::schedule::EventLog::default();
    let solution = bsa::algorithms::standard_portfolio()
        .solve(&problem, &SolveOptions::default(), &mut log)
        .unwrap();
    assert_eq!(solution.provenance.solver, "Portfolio");
    assert!(solution
        .provenance
        .config
        .starts_with("best_of_all; 2 entries; winner = bsa/"));
    assert!(validate::validate(&solution.schedule, &graph, &system).is_empty());

    // The merged incumbent stream is strictly decreasing even though both entries
    // emit improvements concurrently.
    let improvements: Vec<f64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            SolveEvent::IncumbentImproved { length } => Some(*length),
            _ => None,
        })
        .collect();
    assert!(!improvements.is_empty());
    assert!(improvements.windows(2).all(|w| w[1] < w[0]));

    // Every entry announces its end, and the best final length wins.
    let finished = log
        .events
        .iter()
        .filter(|e| matches!(e, SolveEvent::ConfigFinished { .. }))
        .count();
    assert_eq!(finished, 2);
    let best_announced = log
        .events
        .iter()
        .filter_map(|e| match e {
            SolveEvent::ConfigFinished {
                length: Some(l), ..
            } => Some(*l),
            _ => None,
        })
        .fold(f64::INFINITY, f64::min);
    assert_eq!(best_announced, solution.metrics.schedule_length);
}

#[test]
fn best_of_all_results_are_worker_count_independent() {
    let (graph, system) =
        random_instance(60, bsa::network::builders::hypercube_for(8).unwrap(), 0xF66);
    let problem = Problem::new(&graph, &system).unwrap();
    let sequential = bsa::algorithms::standard_portfolio()
        .with_threads(1)
        .solve_unbounded(&problem)
        .unwrap();
    for workers in [2usize, 4] {
        let raced = bsa::algorithms::standard_portfolio()
            .with_threads(workers)
            .solve_unbounded(&problem)
            .unwrap();
        assert!(
            schedules_identical(&graph, &sequential.schedule, &raced.schedule),
            "BestOfAll diverged at {workers} workers"
        );
        assert_eq!(raced.provenance.config, sequential.provenance.config);
    }
}

#[test]
fn an_outer_cancellation_reaches_every_racing_worker() {
    let (graph, system) = random_instance(
        120,
        bsa::network::builders::hypercube_for(8).unwrap(),
        0x177,
    );
    let problem = Problem::new(&graph, &system).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let options = SolveOptions::default().with_cancel(token);
    // Anytime BSA entries return their serialized incumbents when cancelled, so the
    // race still produces a (valid) winner — with the cancellation recorded.
    let solution = bsa::algorithms::standard_portfolio()
        .solve(&problem, &options, &mut NoProgress)
        .unwrap();
    assert_eq!(solution.stop(), StopReason::Cancelled);
    assert_eq!(solution.provenance.stop, StopReason::Cancelled);
    assert!(validate::validate(&solution.schedule, &graph, &system).is_empty());
}

#[test]
fn losing_configurations_go_quiet_after_a_first_converged_winner() {
    let (graph, system) =
        random_instance(80, bsa::network::builders::hypercube_for(8).unwrap(), 0x288);
    let problem = Problem::new(&graph, &system).unwrap();
    let mut events: Vec<SolveEvent> = Vec::new();
    let solution = bsa::algorithms::standard_portfolio()
        .with_strategy(RaceStrategy::FirstConverged)
        .solve(
            &problem,
            &SolveOptions::default(),
            &mut |event: &SolveEvent| {
                events.push(*event);
                ControlFlow::Continue(())
            },
        )
        .unwrap();
    assert!(validate::validate(&solution.schedule, &graph, &system).is_empty());
    // After the first ConfigFinished (the winner's), the pump suppresses the losers'
    // per-step events: only further ConfigFinished announcements may follow.
    let first_finish = events
        .iter()
        .position(|e| matches!(e, SolveEvent::ConfigFinished { .. }))
        .expect("the winner announces its finish");
    assert!(
        events[first_finish..]
            .iter()
            .all(|e| matches!(e, SolveEvent::ConfigFinished { .. })),
        "a losing configuration's event leaked past the winner's finish"
    );
    let finished = events
        .iter()
        .filter(|e| matches!(e, SolveEvent::ConfigFinished { .. }))
        .count();
    assert_eq!(finished, 2, "every entry announces its end, win or lose");
}

#[test]
fn a_portfolio_observer_break_cancels_the_race() {
    let (graph, system) =
        random_instance(80, bsa::network::builders::hypercube_for(8).unwrap(), 0x399);
    let problem = Problem::new(&graph, &system).unwrap();
    let mut seen = 0usize;
    let result = bsa::algorithms::standard_portfolio().solve(
        &problem,
        &SolveOptions::default(),
        &mut |_: &SolveEvent| {
            seen += 1;
            ControlFlow::Break(())
        },
    );
    assert!(seen >= 1);
    // Anytime BSA entries still return their incumbents after the break-triggered
    // cancellation, so the portfolio reports the observer stop on a valid schedule.
    let solution = result.unwrap();
    assert_eq!(solution.stop(), StopReason::ObserverStopped);
    assert!(validate::validate(&solution.schedule, &graph, &system).is_empty());
}

/// A test-only solver whose every solve panics.
struct Panicking;

impl Solver for Panicking {
    fn name(&self) -> &str {
        "Panicking"
    }

    fn solve(
        &self,
        _problem: &Problem<'_>,
        _options: &SolveOptions,
        _progress: &mut dyn Progress,
    ) -> Result<Solution, SolveError> {
        panic!("injected solver panic")
    }
}

#[test]
fn a_panicking_entry_loses_the_race_instead_of_stalling_it() {
    let (graph, system) =
        random_instance(40, bsa::network::builders::hypercube_for(8).unwrap(), 0x4AA);
    let problem = Problem::new(&graph, &system).unwrap();
    let alone = Bsa::default().solve_unbounded(&problem).unwrap();
    for workers in [1usize, 2] {
        let raced = Portfolio::new()
            .add("panics", Box::new(Panicking), SolveOptions::default())
            .add("bsa", Box::new(Bsa::default()), SolveOptions::default())
            .with_threads(workers)
            .solve_unbounded(&problem)
            .unwrap();
        assert!(
            schedules_identical(&graph, &alone.schedule, &raced.schedule),
            "{workers} workers: the surviving entry must win"
        );
        assert!(raced.provenance.config.contains("winner = bsa"));
    }

    let failed = Portfolio::new()
        .add("panics", Box::new(Panicking), SolveOptions::default())
        .add("panics too", Box::new(Panicking), SolveOptions::default())
        .solve_unbounded(&problem);
    match failed {
        Err(SolveError::Internal { detail }) => {
            assert!(detail.contains("injected solver panic"), "{detail}");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
}

#[test]
fn provenance_threads_counts_the_os_threads_a_solve_ran_on() {
    let (graph, system) =
        random_instance(40, bsa::network::builders::hypercube_for(8).unwrap(), 0x5BB);
    let problem = Problem::new(&graph, &system).unwrap();
    let single: [&dyn Solver; 3] = [&Bsa::default(), &Dls::new(), &Heft::new()];
    for solver in single {
        let solution = solver.solve_unbounded(&problem).unwrap();
        assert_eq!(solution.provenance.threads, 1, "{}", solver.name());
    }

    let mut delta = ProblemDelta::new();
    delta.set_task_cost(TaskId(0), 7.0);
    let (_, warm) = Bsa::default()
        .solve_unbounded(&problem)
        .unwrap()
        .resolve(&problem, &delta, &SolveOptions::default())
        .unwrap();
    assert!(warm.provenance.warm_start);
    assert_eq!(warm.provenance.threads, 1);

    let one = bsa::algorithms::standard_portfolio()
        .with_threads(1)
        .solve_unbounded(&problem)
        .unwrap();
    assert_eq!(one.provenance.threads, 1);
    let default = bsa::algorithms::standard_portfolio()
        .solve_unbounded(&problem)
        .unwrap();
    assert_eq!(default.provenance.threads, 2);
}
