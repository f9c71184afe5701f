//! Dynamic re-scheduling: the `ProblemDelta` + warm-start `resolve` contract.
//!
//! The pinned contracts, in roughly increasing strength:
//!
//! 1. **budget honesty** — a resolve with an exhausted migration budget still returns
//!    the repaired warm incumbent (a *valid* schedule) with
//!    `StopReason::MigrationBudgetExhausted`, never
//!    `SolveError::BudgetExhaustedBeforeFeasible`;
//! 2. **empty-delta identity** — resolving against an empty delta returns a schedule
//!    bit-identical to the incumbent, on every workload generator;
//! 3. **delta-fuzz validity + competitiveness** — randomized delta sequences over
//!    every workload generator keep the resolved schedule validator-clean after every
//!    step, and the warm-start makespan stays within `(1 + EPSILON)` of a cold
//!    solve-from-scratch on the mutated instance;
//! 4. **semantic transparency** — `Problem::apply` followed by a cold solve is
//!    indistinguishable from building the mutated instance directly (via the graph
//!    scaling constructors the generators themselves use);
//! 5. **warm beats cold** — on every delta kind that re-places under 10% of the tasks,
//!    `resolve` is faster than a cold solve of the changed instance.
//!
//! The vendored proptest shim is fully deterministic (FNV-seeded by test name), so a
//! local pass is exactly a CI pass: the CI test job runs this file as its fixed-seed
//! delta-fuzz gate.

use bsa::prelude::*;
use bsa::schedule::validate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Warm-start competitiveness bound: the greedy frontier repair may lose to a cold
/// BSA re-solve (which re-serializes and sweeps globally), but never by more than
/// this factor.  Capability-*adding* deltas (processor hot-plug, link-up) evict
/// nothing, so the warm schedule is the adopted incumbent while a cold solve is free
/// to exploit the new hardware — for those the bound is taken against the better of
/// the cold makespan and the incumbent's own makespan (warm start never regresses
/// what it adopted by more than the repair slack).  The observed worst case across
/// the fuzz corpus is well below this factor.
const EPSILON: f64 = 1.0;

fn system_for(graph: &TaskGraph, seed: u64) -> HeterogeneousSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    HeterogeneousSystem::generate(
        graph,
        bsa::network::builders::hypercube_for(8).unwrap(),
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::homogeneous(),
        &mut rng,
    )
}

/// Every graph generator in the workspace, at small sizes (the roster of
/// `solver_sessions.rs`).
fn all_workloads() -> Vec<(&'static str, TaskGraph)> {
    let mut rng = StdRng::seed_from_u64(0xA27);
    let p = CostParams::paper(1.0);
    let mut graphs: Vec<(&'static str, TaskGraph)> = vec![
        (
            "random",
            bsa::workloads::random_dag::paper_random_graph(50, 1.0, &mut rng).unwrap(),
        ),
        ("fft", bsa::workloads::fft::fft(3, &p).unwrap()),
        (
            "stencil",
            bsa::workloads::stencil::stencil_1d(6, 5, &p).unwrap(),
        ),
        (
            "fork_join",
            bsa::workloads::fork_join::fork_join(3, 5, &p).unwrap(),
        ),
        ("in_tree", bsa::workloads::tree::in_tree(2, 5, &p).unwrap()),
        (
            "out_tree",
            bsa::workloads::tree::out_tree(3, 4, &p).unwrap(),
        ),
        (
            "mva",
            bsa::workloads::mva::mean_value_analysis(7, &p).unwrap(),
        ),
        (
            "paper_example",
            bsa::workloads::paper_example::figure1_graph(),
        ),
    ];
    for app in RegularApp::ALL {
        graphs.push((app.label(), app.build_for_size(50, &p).unwrap()));
    }
    graphs
}

/// One random, *applicable* delta: candidate operations are drawn until one passes
/// `Problem::apply` (removals can hit connectivity guards, link-ups can collide with
/// existing links), falling back to an always-valid task-cost retune.
fn random_delta(graph: &TaskGraph, system: &HeterogeneousSystem, rng: &mut StdRng) -> ProblemDelta {
    let problem = Problem::new(graph, system).unwrap();
    let topo_order = bsa::taskgraph::TopologicalOrder::compute(graph);
    for _ in 0..24 {
        let mut d = ProblemDelta::new();
        match rng.gen_range(0..8u32) {
            0 => {
                let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                let c = graph.task(t).nominal_cost * rng.gen_range(0.25..=4.0);
                d.set_task_cost(t, c);
            }
            1 if graph.num_edges() > 0 => {
                let e = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                let c = graph.edge(e).nominal_cost * rng.gen_range(0.25..=4.0);
                d.set_edge_weight(e, c);
            }
            2 if graph.num_tasks() > 1 => {
                d.remove_task(TaskId(rng.gen_range(0..graph.num_tasks()) as u32));
            }
            3 => {
                // Wire the new task between two topo-order positions i <= j: the
                // output cannot reach the input, so the add is always acyclic.
                let order = topo_order.order();
                let i = rng.gen_range(0..order.len());
                let j = rng.gen_range(i..order.len());
                let inputs = vec![(order[i], rng.gen_range(10.0..=100.0))];
                let outputs = if j > i {
                    vec![(order[j], rng.gen_range(10.0..=100.0))]
                } else {
                    Vec::new()
                };
                d.add_task("hotplug", rng.gen_range(50.0..=200.0), inputs, outputs);
            }
            4 => {
                let l = rng.gen_range(0..system.num_links());
                d.link_down(LinkId(l as u32));
            }
            5 => {
                let m = system.num_processors() as u32;
                let a = ProcId(rng.gen_range(0..m));
                let b = ProcId(rng.gen_range(0..m));
                d.link_up(a, b, rng.gen_range(0.5..=2.0));
            }
            6 => {
                let m = system.num_processors() as u32;
                let peer = ProcId(rng.gen_range(0..m));
                d.add_processor(vec![(peer, 1.0)], rng.gen_range(0.5..=2.0));
            }
            _ => {
                let m = system.num_processors() as u32;
                d.remove_processor(ProcId(rng.gen_range(0..m)));
            }
        }
        if !d.is_empty() && problem.apply(&d).is_ok() {
            return d;
        }
    }
    let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
    let mut d = ProblemDelta::new();
    d.set_task_cost(t, graph.task(t).nominal_cost * 1.5);
    d
}

// ---------------------------------------------------------------------------------
// 1. Budget honesty (the satellite fix, pinned unit-test-first)
// ---------------------------------------------------------------------------------

#[test]
fn exhausted_migration_budget_returns_the_repaired_warm_incumbent() {
    let graphs = all_workloads();
    let (_, graph) = &graphs[0];
    let system = system_for(graph, 0xD1);
    let problem = Problem::new(graph, &system).unwrap();
    let cold = Bsa::default().solve_unbounded(&problem).unwrap();

    // The delta evicts a real frontier (a task-cost retune), and the budget of zero
    // migrations is exhausted before the first repair.
    let mut delta = ProblemDelta::new();
    delta.set_task_cost(TaskId(3), graph.task(TaskId(3)).nominal_cost * 2.0);
    let options = SolveOptions::default().with_migration_budget(0);
    let (update, warm) = cold
        .resolve(&problem, &delta, &options)
        .expect("an exhausted budget must not abort the repair");

    // The answer is a complete, validator-clean schedule ...
    let errors = validate::validate(&warm.schedule, update.graph(), update.system());
    assert!(errors.is_empty(), "warm incumbent invalid: {errors:?}");
    // ... that honestly reports the exhausted budget as its stop reason.
    assert_eq!(warm.stop(), StopReason::MigrationBudgetExhausted);
    assert!(warm.provenance.warm_start);
    assert_eq!(warm.provenance.delta.as_deref(), Some("set_task_cost"));
    assert!(
        warm.trace.num_migrations() >= 1,
        "the frontier was repaired"
    );
}

// ---------------------------------------------------------------------------------
// 2. Empty-delta identity
// ---------------------------------------------------------------------------------

#[test]
fn empty_delta_resolve_is_bit_identical_on_every_workload() {
    for (name, graph) in all_workloads() {
        let system = system_for(&graph, 0xE0);
        let problem = Problem::new(&graph, &system).unwrap();
        let cold = Bsa::default().solve_unbounded(&problem).unwrap();
        let (_, warm) = cold
            .resolve(&problem, &ProblemDelta::new(), &SolveOptions::default())
            .unwrap();
        // `Schedule` derives `PartialEq`: placements, routes, length, algorithm.
        assert_eq!(cold.schedule, warm.schedule, "{name}");
        assert!(warm.provenance.warm_start, "{name}");
        assert_eq!(warm.provenance.delta.as_deref(), Some("empty"), "{name}");
        assert_eq!(warm.stop(), StopReason::Converged, "{name}");
    }
}

// ---------------------------------------------------------------------------------
// 3. Delta-fuzz: validity + competitiveness over randomized sequences
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn randomized_delta_sequences_stay_valid_and_competitive(
        workload in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let graphs = all_workloads();
        let (name, graph0) = &graphs[workload % graphs.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = graph0.clone();
        let mut system = system_for(&graph, seed ^ 0xF00D);
        let problem = Problem::new(&graph, &system).unwrap();
        let mut incumbent = Bsa::default().solve_unbounded(&problem).unwrap();

        for step in 0..3 {
            let delta = random_delta(&graph, &system, &mut rng);
            let problem = Problem::new(&graph, &system).unwrap();
            let incumbent_length = incumbent.schedule.schedule_length();
            let (update, warm) = incumbent
                .resolve(&problem, &delta, &SolveOptions::default())
                .expect("applicable deltas must resolve");

            // Validator-clean after every resolve.
            let errors = validate::validate(&warm.schedule, update.graph(), update.system());
            prop_assert!(
                errors.is_empty(),
                "{name} step {step} ({}): invalid warm schedule: {:?}",
                delta.summary(),
                &errors[..errors.len().min(3)]
            );
            prop_assert!(warm.provenance.warm_start);

            // Differential: within (1 + EPSILON) of the better of a cold
            // solve-from-scratch and the adopted incumbent (see EPSILON docs).
            let cold = Bsa::default().solve_unbounded(&update.problem()).unwrap();
            let (w, c) = (warm.schedule.schedule_length(), cold.schedule.schedule_length());
            let reference = c.max(incumbent_length);
            prop_assert!(
                w <= reference * (1.0 + EPSILON) + 1e-9,
                "{name} step {step} ({}): warm {w} vs cold {c} (incumbent {incumbent_length})",
                delta.summary()
            );

            let (g, s) = update.into_parts();
            graph = g;
            system = s;
            incumbent = warm;
        }
    }
}

// ---------------------------------------------------------------------------------
// 4. Semantic transparency of `Problem::apply` (satellite property test)
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Re-weighting every edge through a delta is the same problem as scaling the
    /// generator's graph directly — graph-equal, and cold solves are bit-identical.
    #[test]
    fn apply_edge_scaling_matches_direct_construction(
        workload in 0usize..12,
        factor in 0.25f64..4.0,
    ) {
        let graphs = all_workloads();
        let (name, graph) = &graphs[workload % graphs.len()];
        let system = system_for(graph, 0xCA11);
        let problem = Problem::new(graph, &system).unwrap();

        let mut delta = ProblemDelta::new();
        for e in graph.edge_ids() {
            delta.set_edge_weight(e, graph.edge(e).nominal_cost * factor);
        }
        let update = problem.apply(&delta).unwrap();
        let direct = graph.scale_communication(factor);
        prop_assert_eq!(update.graph(), &direct, "{}", name);

        // Same instance, same solver: bit-identical schedules.
        let via_delta = Bsa::default().solve_unbounded(&update.problem()).unwrap();
        let direct_problem = Problem::new(&direct, &system).unwrap();
        let via_direct = Bsa::default().solve_unbounded(&direct_problem).unwrap();
        prop_assert_eq!(&via_delta.schedule, &via_direct.schedule, "{}", name);
    }

    /// Re-costing every task through a delta is the same problem as scaling the
    /// generator's graph directly.  Power-of-two factors keep the row rescaling
    /// bit-exact, so the equivalence is exact, not approximate.
    #[test]
    fn apply_task_scaling_matches_direct_construction(
        workload in 0usize..12,
        factor in prop_oneof![Just(0.25f64), Just(0.5), Just(2.0), Just(4.0)],
    ) {
        let graphs = all_workloads();
        let (name, graph) = &graphs[workload % graphs.len()];
        let system = system_for(graph, 0xCA12);
        let problem = Problem::new(graph, &system).unwrap();

        let mut delta = ProblemDelta::new();
        for t in graph.task_ids() {
            delta.set_task_cost(t, graph.task(t).nominal_cost * factor);
        }
        let update = problem.apply(&delta).unwrap();
        let direct = graph.scale_execution(factor);
        prop_assert_eq!(update.graph(), &direct, "{}", name);

        // The delta path rescales the heterogeneous cost rows; the direct path keeps
        // the original matrix (it belongs to the system, not the graph), so compare
        // rows explicitly: scaling by a power of two is exact.
        for t in graph.task_ids() {
            let scaled: Vec<f64> = system.exec_costs.row(t).iter().map(|c| c * factor).collect();
            prop_assert_eq!(update.system().exec_costs.row(t), &scaled[..], "{}", name);
        }

        let via_delta = Bsa::default().solve_unbounded(&update.problem()).unwrap();
        let errors = validate::validate(&via_delta.schedule, update.graph(), update.system());
        prop_assert!(errors.is_empty(), "{}: {:?}", name, &errors[..errors.len().min(3)]);
    }
}

// ---------------------------------------------------------------------------------
// Structure deltas: every operation kind round-trips through resolve
// ---------------------------------------------------------------------------------

#[test]
fn every_delta_kind_resolves_to_a_valid_schedule() {
    let graphs = all_workloads();
    let (_, graph) = &graphs[0];
    let system = system_for(graph, 0xBEEF);
    let problem = Problem::new(graph, &system).unwrap();
    let cold = Bsa::default().solve_unbounded(&problem).unwrap();
    let topo_order = bsa::taskgraph::TopologicalOrder::compute(graph);
    let order = topo_order.order();

    let deltas: Vec<(&str, ProblemDelta)> = vec![
        ("set_task_cost", {
            let mut d = ProblemDelta::new();
            d.set_task_cost(TaskId(5), graph.task(TaskId(5)).nominal_cost * 3.0);
            d
        }),
        ("set_edge_weight", {
            let mut d = ProblemDelta::new();
            d.set_edge_weight(EdgeId(0), graph.edge(EdgeId(0)).nominal_cost * 3.0);
            d
        }),
        ("remove_task", {
            let mut d = ProblemDelta::new();
            d.remove_task(order[order.len() / 2]);
            d
        }),
        ("add_task", {
            let mut d = ProblemDelta::new();
            d.add_task(
                "arrival",
                120.0,
                vec![(order[1], 40.0)],
                vec![(order[order.len() - 1], 40.0)],
            );
            d
        }),
        ("link_down", {
            let mut d = ProblemDelta::new();
            d.link_down(LinkId(0));
            d
        }),
        ("link_up_and_processor_hotplug", {
            let mut d = ProblemDelta::new();
            d.add_processor(vec![(ProcId(0), 1.0), (ProcId(3), 1.5)], 0.75);
            // The hot-plugged processor gets id 8 (dense ids); wire one more link to
            // it through the same delta to prove in-delta ids are visible.
            d.link_up(ProcId(8), ProcId(5), 1.0);
            d
        }),
        ("remove_processor", {
            let mut d = ProblemDelta::new();
            d.remove_processor(ProcId(7));
            d
        }),
        ("mixed_batch", {
            let mut d = ProblemDelta::new();
            d.set_task_cost(TaskId(2), 250.0)
                .set_edge_weight(EdgeId(1), 12.0)
                .remove_task(order[order.len() - 2])
                .link_down(LinkId(2));
            d
        }),
    ];

    for (kind, delta) in deltas {
        let (update, warm) = cold
            .resolve(&problem, &delta, &SolveOptions::default())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let errors = validate::validate(&warm.schedule, update.graph(), update.system());
        assert!(
            errors.is_empty(),
            "{kind}: invalid after resolve: {:?}",
            &errors[..errors.len().min(3)]
        );
        assert!(warm.provenance.warm_start, "{kind}");
        assert_eq!(
            warm.provenance.delta.as_deref(),
            Some(delta.summary().as_str()),
            "{kind}"
        );
    }
}

// ---------------------------------------------------------------------------------
// Link-down reroutes only the affected pairs
// ---------------------------------------------------------------------------------

#[test]
fn link_down_keeps_unaffected_routes_verbatim() {
    let graphs = all_workloads();
    let (_, graph) = &graphs[0];
    let system = system_for(graph, 0x11D0);
    let problem = Problem::new(graph, &system).unwrap();
    let cold = Bsa::default().solve_unbounded(&problem).unwrap();

    let dead = LinkId(0);
    let mut delta = ProblemDelta::new();
    delta.link_down(dead);
    let (update, warm) = cold
        .resolve(&problem, &delta, &SolveOptions::default())
        .unwrap();

    // Consumers of messages that crossed the dead link (and their successor cones)
    // were re-placed; everything outside those cones kept placement AND route.
    let mut invalidated = vec![false; graph.num_tasks()];
    for e in graph.edge_ids() {
        if cold.schedule.route(e).hops.iter().any(|h| h.link == dead) {
            invalidated[graph.edge(e).dst.index()] = true;
        }
    }
    let mut stack: Vec<TaskId> = graph
        .task_ids()
        .filter(|t| invalidated[t.index()])
        .collect();
    assert!(!stack.is_empty(), "the dead link must have carried traffic");
    while let Some(t) = stack.pop() {
        for s in graph.successors(t) {
            if !invalidated[s.index()] {
                invalidated[s.index()] = true;
                stack.push(s);
            }
        }
    }
    // Untouched tasks keep their processor (start times may legally compact into
    // slots vacated by the evicted cone — the retime pass relaxes the whole graph).
    for t in graph.task_ids() {
        if invalidated[t.index()] {
            continue;
        }
        let t_new = update.task_map(t).unwrap();
        assert_eq!(
            cold.schedule.proc_of(t),
            warm.schedule.proc_of(t_new),
            "untouched task {t} migrated"
        );
    }
    // Untouched messages keep their exact hop-by-hop route (link ids remapped).
    for e in graph.edge_ids() {
        let dst = graph.edge(e).dst;
        if invalidated[dst.index()] {
            continue;
        }
        let e_new = update.edge_map(e).unwrap();
        let old_links: Vec<_> = cold
            .schedule
            .route(e)
            .hops
            .iter()
            .map(|h| update.link_map(h.link).expect("surviving route hop"))
            .collect();
        let new_links: Vec<_> = warm
            .schedule
            .route(e_new)
            .hops
            .iter()
            .map(|h| h.link)
            .collect();
        assert_eq!(old_links, new_links, "untouched route {e} was re-routed");
    }
}

// ---------------------------------------------------------------------------------
// 5. Warm beats cold on small deltas
// ---------------------------------------------------------------------------------

/// The single-operation delta kinds the warm-vs-cold grid covers, smallest expected
/// frontier first.
const WARM_KINDS: [&str; 7] = [
    "empty",
    "set_task_cost",
    "set_edge_weight",
    "add_task",
    "remove_task",
    "link_down",
    "remove_processor",
];

/// One applicable delta of `kind`.  Structure-touching kinds retry candidates until
/// `Problem::apply` accepts one (connectivity guards can reject a specific pick).
fn delta_of_kind(
    kind: &str,
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
    rng: &mut StdRng,
) -> ProblemDelta {
    let problem = Problem::new(graph, system).unwrap();
    for _ in 0..32 {
        let mut d = ProblemDelta::new();
        match kind {
            "empty" => {}
            "set_task_cost" => {
                let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                d.set_task_cost(t, graph.task(t).nominal_cost * 2.0);
            }
            "set_edge_weight" => {
                let e = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                d.set_edge_weight(e, graph.edge(e).nominal_cost * 3.0);
            }
            "add_task" => {
                let topo_order = bsa::taskgraph::TopologicalOrder::compute(graph);
                let order = topo_order.order();
                let i = rng.gen_range(0..order.len() - 1);
                let j = rng.gen_range(i + 1..order.len());
                d.add_task(
                    "arrival",
                    150.0,
                    vec![(order[i], 40.0)],
                    vec![(order[j], 40.0)],
                );
            }
            "remove_task" => {
                d.remove_task(TaskId(rng.gen_range(0..graph.num_tasks()) as u32));
            }
            "link_down" => {
                d.link_down(LinkId(rng.gen_range(0..system.num_links()) as u32));
            }
            "remove_processor" => {
                d.remove_processor(ProcId(rng.gen_range(0..system.num_processors()) as u32));
            }
            other => panic!("unknown delta kind {other}"),
        }
        if kind == "empty" || problem.apply(&d).is_ok() {
            return d;
        }
    }
    panic!("no applicable {kind} delta found in 32 tries");
}

/// For every delta kind, two 60-task random DAGs on an 8-processor hypercube are
/// solved cold, changed by one delta, and re-solved both warm (`resolve`) and cold
/// (BSA from scratch on the changed instance).  Every warm schedule must be
/// validator-clean.  A kind is *small* when resolve re-placed under 10% of the tasks
/// on average; on every small kind the mean warm time must beat the mean cold time.
#[test]
fn warm_resolve_stays_valid_and_beats_a_cold_solve_on_small_deltas() {
    const TASKS: usize = 60;
    const REPS: usize = 2;
    let mut small_kinds = Vec::new();
    for kind in WARM_KINDS {
        let (mut warm_s, mut cold_s, mut touched) = (0.0, 0.0, 0.0);
        for rep in 0..REPS {
            let mut rng = StdRng::seed_from_u64(0xD11A + 613 * rep as u64 + TASKS as u64);
            let graph =
                bsa::workloads::random_dag::paper_random_graph(TASKS, 1.0, &mut rng).unwrap();
            let system = HeterogeneousSystem::generate(
                &graph,
                bsa::network::builders::hypercube_for(8).unwrap(),
                HeterogeneityRange::DEFAULT,
                HeterogeneityRange::homogeneous(),
                &mut rng,
            );
            let problem = Problem::new(&graph, &system).unwrap();
            let incumbent = Bsa::default().solve_unbounded(&problem).unwrap();
            let mut delta_rng = StdRng::seed_from_u64(0x5EED + rep as u64);
            let delta = delta_of_kind(kind, &graph, &system, &mut delta_rng);

            let started = Instant::now();
            let (update, warm) = incumbent
                .resolve(&problem, &delta, &SolveOptions::default())
                .unwrap_or_else(|e| panic!("{kind} rep {rep}: {e}"));
            warm_s += started.elapsed().as_secs_f64();

            let started = Instant::now();
            Bsa::default().solve_unbounded(&update.problem()).unwrap();
            cold_s += started.elapsed().as_secs_f64();

            let errors = validate::validate(&warm.schedule, update.graph(), update.system());
            assert!(
                errors.is_empty(),
                "{kind} rep {rep}: invalid warm schedule: {:?}",
                &errors[..errors.len().min(3)]
            );
            touched += warm.trace.num_migrations() as f64 / update.graph().num_tasks() as f64;
        }
        if touched / (REPS as f64) < 0.10 {
            assert!(
                warm_s < cold_s,
                "{kind}: a small delta ({:.1}% re-placed) resolved warm in {:.2} ms on \
                 average, no faster than the cold solve's {:.2} ms",
                100.0 * touched / REPS as f64,
                1e3 * warm_s / REPS as f64,
                1e3 * cold_s / REPS as f64
            );
            small_kinds.push(kind);
        }
    }
    assert!(
        !small_kinds.is_empty(),
        "no delta kind re-placed under 10% of the tasks"
    );
}
