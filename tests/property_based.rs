//! Property-based tests (proptest) over the core data structures and invariants:
//!
//! * graph levels: `t_level + b_level ≤ CP length` with equality exactly on CP tasks,
//!   b-levels decrease along edges;
//! * serialization always yields a valid linearization with CP tasks in path order;
//! * every scheduler yields a schedule that passes full validation on arbitrary layered
//!   DAGs and ring/clique topologies;
//! * the schedule-length metric equals the maximum finish time and is never smaller than
//!   the cheapest critical path under the actual costs.

use bsa::prelude::*;
use bsa::schedule::validate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: parameters of a random layered DAG plus an instance seed.
fn dag_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (
        10usize..60,
        prop_oneof![Just(0.1), Just(1.0), Just(10.0)],
        any::<u64>(),
    )
}

fn build_graph(n: usize, granularity: f64, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    bsa::workloads::random_dag::paper_random_graph(n, granularity, &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn levels_invariants_hold((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let levels = GraphLevels::nominal(&graph);
        let cp = levels.critical_path_length();
        for t in graph.task_ids() {
            let sum = levels.t_level(t) + levels.b_level(t);
            prop_assert!(sum <= cp + 1e-6 * cp.max(1.0));
            prop_assert!(levels.b_level(t) >= graph.task(t).nominal_cost - 1e-9);
            prop_assert!(levels.static_level(t) <= levels.b_level(t) + 1e-9);
        }
        for e in graph.edges() {
            prop_assert!(
                levels.b_level(e.src) >= levels.b_level(e.dst) + graph.task(e.src).nominal_cost - 1e-6,
                "b-level must decrease along edges"
            );
            prop_assert!(levels.t_level(e.dst) >= levels.t_level(e.src) + graph.task(e.src).nominal_cost - 1e-6);
        }
        let path = levels.critical_path(&graph);
        prop_assert!(!path.tasks.is_empty());
        for t in &path.tasks {
            prop_assert!(levels.on_critical_path(*t));
        }
    }

    #[test]
    fn serialization_is_a_valid_linearization_for_arbitrary_costs(
        (n, gran, seed) in dag_params(),
        cost_scale in 1.0f64..50.0,
    ) {
        let graph = build_graph(n, gran, seed);
        let costs: Vec<f64> = graph.tasks().map(|t| t.nominal_cost * cost_scale).collect();
        let s = bsa::core::serialize(&graph, &costs);
        prop_assert!(bsa::taskgraph::TopologicalOrder::is_valid_linearization(&graph, &s.order));
        // CP tasks appear in path order.
        let mut last = 0usize;
        for t in &s.critical_path {
            let pos = s.order.iter().position(|x| x == t).unwrap();
            prop_assert!(pos >= last);
            last = pos;
        }
    }

    #[test]
    fn bsa_and_dls_schedules_are_always_valid((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let kind = if seed % 2 == 0 { TopologyKind::Ring } else { TopologyKind::Clique };
        let topology = kind.build(6, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let problem = Problem::new(&graph, &system).unwrap();
        for solver in [&Bsa::default() as &dyn Solver, &Dls::new()] {
            let schedule = solver.solve_unbounded(&problem).unwrap().schedule;
            let errors = validate::validate(&schedule, &graph, &system);
            prop_assert!(errors.is_empty(), "{}: {:?}", solver.name(), &errors[..errors.len().min(3)]);
            // The schedule length is the max finish time.
            let max_finish = graph
                .task_ids()
                .map(|t| schedule.finish_of(t))
                .fold(0.0f64, f64::max);
            prop_assert!((schedule.schedule_length() - max_finish).abs() < 1e-9);
            // It can never beat the cheapest possible critical path (every CP task at its
            // fastest processor, zero communication).
            let cheapest_costs: Vec<f64> = graph
                .task_ids()
                .map(|t| {
                    system
                        .topology
                        .proc_ids()
                        .map(|p| system.exec_cost(t, p))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let lower_bound = GraphLevels::with_costs(&graph, &cheapest_costs, 0.0).critical_path_length();
            prop_assert!(schedule.schedule_length() >= lower_bound - 1e-6);
        }
    }

    #[test]
    fn timeline_gap_search_never_overlaps(
        ops in prop::collection::vec((0.0f64..500.0, 0.1f64..40.0), 1..80)
    ) {
        let mut timeline: bsa::schedule::Timeline<u32> = bsa::schedule::Timeline::new();
        for (i, (ready, duration)) in ops.iter().enumerate() {
            let start = timeline.earliest_gap(*ready, *duration);
            prop_assert!(start >= *ready - 1e-9);
            timeline.insert(start, *duration, i as u32);
            prop_assert!(timeline.is_consistent());
        }
        prop_assert_eq!(timeline.len(), ops.len());
    }

    #[test]
    fn granularity_rescaling_is_exact((n, _gran, seed) in dag_params(), target in 0.05f64..20.0) {
        let graph = build_graph(n, 1.0, seed);
        if graph.num_edges() == 0 {
            return Ok(());
        }
        let scaled = apply_granularity(&graph, target);
        let stats = GraphStats::compute(&scaled);
        prop_assert!((stats.granularity - target).abs() / target < 1e-9);
        prop_assert_eq!(scaled.num_edges(), graph.num_edges());
    }
}

// ---------------------------------------------------------------------------------
// Incremental scheduling kernel: flat-sweep re-timing vs the full Kahn oracle, and
// exact restores of failed moves.  See docs/DESIGN.md §5.2 and §7.
// ---------------------------------------------------------------------------------

use bsa::baselines::dls::dynamic_level;
use bsa::core::bsa::{
    estimate_finish_on_neighbor, finish_bound_on_neighbor, migrate, MigrationScratch,
};
use bsa::schedule::overlay::{Booking, Overlay};
use bsa::schedule::resolve::{price_repair, repair_bound};
use bsa::schedule::router::{
    book_incoming, data_available_bound, data_available_time, route_message,
};
use bsa::schedule::schedule::MessageHop;
use bsa::schedule::{RecomputeError, ScheduleBuilder, TaskCheckpoint};
use rand::Rng;

/// Builds a valid partial schedule by placing every task in topological order on a
/// seed-derived processor, routing incoming messages over the shortest-path table.
fn build_routed_schedule<'a>(
    graph: &'a TaskGraph,
    system: &'a HeterogeneousSystem,
    table: &CommModel,
    seed: u64,
) -> ScheduleBuilder<'a> {
    let mut builder = ScheduleBuilder::new(graph, system).unwrap();
    let m = system.num_processors();
    let topo = bsa::taskgraph::TopologicalOrder::compute(graph);
    for (i, t) in topo.iter().enumerate() {
        let p = ProcId(((seed as usize + i * 7) % m) as u32);
        let da = book_incoming(&mut builder, table, t, p);
        let exec = builder.exec_cost(t, p);
        let start = builder.earliest_proc_slot(p, da, exec);
        builder.place_task(t, p, start);
    }
    builder
}

/// The mutate-and-discard table routing the read-only router replaced: on a clone of
/// the builder, clear the edge's route and book each hop of the table route with
/// `push_hop`, so every hop sees the ones before it, and copy the route out.
fn speculative_route(
    builder: &ScheduleBuilder<'_>,
    comm: &CommModel,
    e: EdgeId,
    src: ProcId,
    dst: ProcId,
    ready: f64,
) -> (Vec<MessageHop>, f64) {
    if src == dst {
        return (Vec::new(), ready);
    }
    let links = comm.route(src, dst).unwrap();
    let mut builder = builder.clone();
    builder.clear_route(e);
    let mut cursor = ready;
    let mut at = src;
    for &link in links {
        let next = builder.system().topology.link(link).other_end(at).unwrap();
        let dur = builder.transfer_time(link, e);
        let start = builder.earliest_link_slot(link, at, cursor, dur);
        builder.push_hop(
            e,
            MessageHop {
                link,
                from: at,
                to: next,
                start,
                finish: start + dur,
            },
        );
        cursor = start + dur;
        at = next;
    }
    (builder.route(e).to_vec(), cursor)
}

/// Books every incoming message of `t` toward `p` with [`speculative_route`] and
/// `set_route`, in in-edge order, and returns the data-ready time.
fn speculative_book_incoming(
    builder: &mut ScheduleBuilder<'_>,
    comm: &CommModel,
    t: TaskId,
    p: ProcId,
) -> f64 {
    let graph = builder.graph();
    let mut da = 0.0f64;
    for &e in graph.in_edges(t) {
        let src = graph.edge(e).src;
        let (sp, ready) = (builder.proc_of(src).unwrap(), builder.finish_of(src));
        let (hops, arrival) = speculative_route(builder, comm, e, sp, p, ready);
        builder.set_route(e, hops);
        da = da.max(arrival);
    }
    da
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random partial schedules, under every routing policy and both link modes,
    /// read-only table routing returns exactly the hops and arrival of speculative
    /// hop-by-hop booking, and `book_incoming` leaves the builder in exactly the state
    /// of booking the speculative routes with `set_route`.
    #[test]
    fn read_only_table_routes_match_speculative_booking(
        (n, gran, seed) in dag_params(),
        policy in prop_oneof![
            Just(RoutePolicy::ShortestHop),
            Just(RoutePolicy::MinTransferTime),
            Just(RoutePolicy::ECube),
        ],
        full_duplex in any::<bool>(),
    ) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7AB1E);
        let kind = TopologyKind::ALL[(seed % 4) as usize];
        let mode = if full_duplex { LinkMode::FullDuplex } else { LinkMode::HalfDuplex };
        let topology = kind.build(8, &mut rng).unwrap().with_link_mode(mode);
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::new(1.0, 50.0),
            &mut rng,
        );
        let comm = system.comm_model(policy);
        let m = system.num_processors();

        // A random topological prefix, placed on random processors with its messages
        // booked by the reference, leaves the next task with every producer placed.
        let order: Vec<TaskId> = bsa::taskgraph::TopologicalOrder::compute(&graph).iter().collect();
        let prefix = rng.gen_range(1..order.len());
        let mut builder = ScheduleBuilder::new(&graph, &system).unwrap();
        for &t in &order[..prefix] {
            let p = ProcId(rng.gen_range(0..m) as u32);
            let da = speculative_book_incoming(&mut builder, &comm, t, p);
            let exec = builder.exec_cost(t, p);
            let start = builder.earliest_proc_slot(p, da, exec);
            builder.place_task(t, p, start);
        }

        let t = order[prefix];
        for p in system.topology.proc_ids() {
            for &e in graph.in_edges(t) {
                let src = graph.edge(e).src;
                let (sp, ready) = (builder.proc_of(src).unwrap(), builder.finish_of(src));
                let expected = speculative_route(&builder, &comm, e, sp, p, ready);
                prop_assert_eq!(route_message(&builder, &comm, e, sp, p, ready), expected);
            }
            let mut reference = builder.clone();
            let da = speculative_book_incoming(&mut reference, &comm, t, p);
            let mut booked = builder.clone();
            prop_assert_eq!(book_incoming(&mut booked, &comm, t, p), da);
            prop_assert!(booked.same_schedule_state(&reference));
            prop_assert!(data_available_time(&builder, &comm, t, p) <= da);
        }
    }
}

/// Evicts `t` and every task downstream of it, the way a warm re-solve's successor
/// closure does, so `t` can be priced as a repair.
fn evict_with_descendants(builder: &mut ScheduleBuilder<'_>, t: TaskId) {
    let graph = builder.graph();
    let mut stack = vec![t];
    while let Some(x) = stack.pop() {
        if builder.is_placed(x) {
            builder.evict_task(x);
            stack.extend(graph.successors(x));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BSA's neighbour pricing and the warm re-solve's repair pricing, both read-only on
    /// a tentative view, equal the finish the same candidate gets when it is committed
    /// (BSA's on the builder, then restored from a checkpoint unless kept; the repair's
    /// on a clone): on random schedules whose routes grew through kept migrations,
    /// under every route policy (with and without cost-aware reroutes) and both link
    /// modes.  The bounds the pruned candidate scans skip by are admissible there:
    /// BSA's neighbour bound and the repair bound never exceed the priced finish, and
    /// DLS's level with every message on free links is never below the exact dynamic
    /// level.
    #[test]
    fn tentative_pricing_matches_the_rolled_back_commit(
        (n, gran, seed) in dag_params(),
        policy in prop_oneof![
            Just(RoutePolicy::ShortestHop),
            Just(RoutePolicy::MinTransferTime),
            Just(RoutePolicy::ECube),
        ],
        full_duplex in any::<bool>(),
        cost_aware in any::<bool>(),
    ) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E7A_71A7);
        let kind = TopologyKind::ALL[(seed % 4) as usize];
        let mode = if full_duplex { LinkMode::FullDuplex } else { LinkMode::HalfDuplex };
        let topology = kind.build(8, &mut rng).unwrap().with_link_mode(mode);
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::new(1.0, 50.0),
            &mut rng,
        );
        let comm = system.comm_model(policy);
        let reroutes = cost_aware.then_some(&comm);
        let cfg = BsaConfig::default();
        let mut builder = build_routed_schedule(&graph, &system, &comm, seed);
        let mut scratch = MigrationScratch::default();
        let mut checkpoint = TaskCheckpoint::default();

        for _ in 0..n {
            let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
            let pivot = builder.proc_of(t).unwrap();
            let neighbors = system.topology.neighbors(pivot);
            for &(y, _) in neighbors {
                let bound = finish_bound_on_neighbor(&builder, t, pivot, y, reroutes);
                let priced =
                    estimate_finish_on_neighbor(&builder, t, pivot, y, &cfg, reroutes, &mut scratch);
                prop_assert!(bound <= priced, "{} -> {}: bound {} > priced {}", pivot, y, bound, priced);
            }
            let py = neighbors[rng.gen_range(0..neighbors.len())].0;
            let priced =
                estimate_finish_on_neighbor(&builder, t, pivot, py, &cfg, reroutes, &mut scratch);
            let before = builder.clone();
            builder.checkpoint_task(t, &mut checkpoint);
            migrate(&mut builder, t, pivot, py, &cfg, reroutes, &mut scratch);
            prop_assert_eq!(priced.to_bits(), builder.finish_of(t).to_bits(), "{} -> {}", pivot, py);
            // Keep about half the migrations, so later candidates meet routes that grew
            // hop by hop and were re-timed.
            if !(rng.gen_bool(0.5) && builder.recompute_times_incremental().is_ok()) {
                builder.restore_task(&checkpoint);
                prop_assert!(builder.same_schedule_state(&before));
            }
        }

        // A full reroute of a routed edge, priced with its own hops masked, equals
        // clearing and re-routing it on a clone.
        let mut overlay = Overlay::default();
        let routed: Vec<EdgeId> =
            graph.edge_ids().filter(|&e| !builder.route(e).is_empty()).take(8).collect();
        for e in routed {
            let edge = graph.edge(e);
            let src = builder.proc_of(edge.src).unwrap();
            let dst = system.topology.proc_ids().nth(rng.gen_range(0..8)).unwrap();
            let ready = builder.finish_of(edge.src);
            let priced = overlay.over(&builder).price_route(&comm, e, src, dst, ready);
            let (_, arrival) = speculative_route(&builder, &comm, e, src, dst, ready);
            prop_assert_eq!(priced.to_bits(), arrival.to_bits(), "reroute of {}", e);
        }

        let median: Vec<f64> = graph.task_ids().map(|t| system.exec_costs.median_cost(t)).collect();
        let levels = GraphLevels::with_costs(&graph, &median, 0.0);
        let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
        evict_with_descendants(&mut builder, t);
        for p in system.topology.proc_ids() {
            let priced = price_repair(&builder, &mut overlay, &comm, t, p);
            let bound = repair_bound(&builder, &comm, t, p);
            prop_assert!(bound <= priced, "repair on {}: bound {} > priced {}", p, bound, priced);
            let sl = levels.b_level(t);
            let tf = builder.proc_timeline(p).last_finish();
            let delta = median[t.index()] - system.exec_cost(t, p);
            let upper = dynamic_level(sl, data_available_bound(&builder, &comm, t, p), tf, delta);
            let exact = dynamic_level(sl, data_available_time(&builder, &comm, t, p), tf, delta);
            prop_assert!(upper >= exact, "DLS on {}: bound {} < level {}", p, upper, exact);
            let mut committed = builder.clone();
            let ready = speculative_book_incoming(&mut committed, &comm, t, p);
            let start = committed.earliest_proc_slot(p, ready, committed.exec_cost(t, p));
            committed.place_task(t, p, start);
            prop_assert_eq!(priced.to_bits(), committed.finish_of(t).to_bits(), "repair on {}", p);
        }
    }
}

/// Both re-timing modes give the same schedule on 60- and 100-task random DAGs on a
/// 16-processor hypercube whose execution *and* link factors are drawn from [1, 10]
/// (the property test below draws homogeneous links only).
#[test]
fn retiming_modes_agree_on_heterogeneous_links() {
    const SEED: u64 = 0xB5A;
    for tasks in [60usize, 100] {
        let graph = build_graph(tasks, 1.0, SEED);
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x5ca1e);
        let system = HeterogeneousSystem::generate(
            &graph,
            TopologyKind::Hypercube.build(16, &mut rng).unwrap(),
            HeterogeneityRange::new(1.0, 10.0),
            HeterogeneityRange::new(1.0, 10.0),
            &mut rng,
        );
        let problem = Problem::new(&graph, &system).unwrap();
        let [incremental, full] = [RetimingMode::Incremental, RetimingMode::Full].map(|mode| {
            let config = BsaConfig {
                retiming: mode,
                ..BsaConfig::default()
            };
            Bsa::new(config).solve_unbounded(&problem).unwrap().schedule
        });
        for t in graph.task_ids() {
            let placement = |s: &Schedule| (s.proc_of(t), s.start_of(t));
            assert_eq!(
                placement(&incremental),
                placement(&full),
                "{tasks} tasks, {t}"
            );
        }
        assert_eq!(incremental.schedule_length(), full.schedule_length());
    }
}

/// A BSA migration whose re-timing fails is restored exactly: random `migrate` moves to
/// random neighbours on 60 routed schedules of 10–59 tasks, over all four topology
/// kinds, both link modes, and with and without cost-aware reroutes.  Moves that
/// re-time are kept, so later moves meet re-timed schedules whose routes grew hop by
/// hop; the first moves of each instance run over the full pending dirty list the
/// build left.  After every failed re-timing, the restored builder has the schedule
/// state of the pre-move clone, its scaffold matches a rebuild, and the next pass
/// returns the same result and state on both, which needs the same dirty list.
#[test]
fn restored_failed_moves_match_the_pre_move_builder() {
    // 1357 of 6270 moves fail to re-time on these instances; the floor keeps the test
    // from passing vacuously if a generator change made failures rare.
    const FAILED_FLOOR: usize = 1000;
    let cfg = BsaConfig::default();
    let mut scratch = MigrationScratch::default();
    let mut checkpoint = TaskCheckpoint::default();
    let (mut moves, mut failed) = (0usize, 0usize);
    for instance in 0..60u64 {
        let n = 10 + (instance as usize * 37) % 50;
        let graph = build_graph(n, [0.1, 1.0, 10.0][instance as usize % 3], instance);
        let mut rng = StdRng::seed_from_u64(instance ^ 0x02E5_702E);
        let kind = TopologyKind::ALL[instance as usize % 4];
        let mode = if instance / 4 % 2 == 1 {
            LinkMode::FullDuplex
        } else {
            LinkMode::HalfDuplex
        };
        let topology = kind.build(8, &mut rng).unwrap().with_link_mode(mode);
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::new(1.0, 50.0),
            &mut rng,
        );
        let table = system.comm_model(RoutePolicy::ShortestHop);
        let cost_aware = system.comm_model(RoutePolicy::MinTransferTime);
        let reroutes = (instance / 8 % 2 == 1).then_some(&cost_aware);
        let mut builder = build_routed_schedule(&graph, &system, &table, instance);
        for _ in 0..3 * n {
            let t = TaskId(rng.gen_range(0..n) as u32);
            let pivot = builder.proc_of(t).unwrap();
            let neighbors = system.topology.neighbors(pivot);
            let py = neighbors[rng.gen_range(0..neighbors.len())].0;
            let before = builder.clone();
            builder.checkpoint_task(t, &mut checkpoint);
            migrate(&mut builder, t, pivot, py, &cfg, reroutes, &mut scratch);
            moves += 1;
            let Err(err) = builder.recompute_times_incremental() else {
                continue;
            };
            assert_eq!(err, RecomputeError::CyclicDecisions, "instance {instance}");
            failed += 1;
            builder.restore_task(&checkpoint);
            let at = format!("instance {instance}, {t}: {pivot} -> {py}");
            assert!(builder.same_schedule_state(&before), "{at}");
            assert!(builder.scaffold_matches_rebuild(), "{at}");
            let mut reference = before;
            assert_eq!(
                builder.recompute_times_incremental(),
                reference.recompute_times_incremental(),
                "{at}"
            );
            assert!(builder.same_schedule_state(&reference), "{at}");
        }
    }
    assert!(
        failed >= FAILED_FLOOR,
        "only {failed} of {moves} moves failed to re-time"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any random sequence of migrations (a full BSA run *is* one), the
    /// incremental flat sweep produces timings identical — bit for bit — to the full
    /// Kahn relaxation oracle.
    #[test]
    fn incremental_retiming_matches_the_full_kahn_oracle((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x17C4);
        let kind = if seed % 2 == 0 { TopologyKind::Hypercube } else { TopologyKind::Ring };
        let topology = kind.build(8, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let problem = Problem::new(&graph, &system).unwrap();
        let incremental = Bsa::default().solve_unbounded(&problem).unwrap().schedule;
        let oracle = Bsa::new(BsaConfig::full_retiming()).solve_unbounded(&problem).unwrap().schedule;
        prop_assert_eq!(incremental.schedule_length(), oracle.schedule_length());
        for t in graph.task_ids() {
            prop_assert_eq!(incremental.proc_of(t), oracle.proc_of(t));
            prop_assert_eq!(incremental.start_of(t), oracle.start_of(t));
            prop_assert_eq!(incremental.finish_of(t), oracle.finish_of(t));
        }
    }

    /// After random mutation storms — placements, cleared and re-booked routes,
    /// successful and failed re-timings — each followed by a migration restored from its
    /// checkpoint, the incrementally maintained `RetimeScaffold` (per-edge route-length
    /// mirror, total-hop count) is byte-equal to one rebuilt from scratch off the
    /// surviving routes.
    #[test]
    fn retime_scaffold_matches_a_rebuild_after_mutation_storms(
        (n, gran, seed) in dag_params(),
    ) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CAF_F01D);
        let topology = TopologyKind::Ring.build(5, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let table = system.comm_model(RoutePolicy::ShortestHop);
        let mut builder = build_routed_schedule(&graph, &system, &table, seed);
        prop_assert!(builder.scaffold_matches_rebuild());
        let (cfg, mut scratch) = (BsaConfig::default(), MigrationScratch::default());
        let mut checkpoint = TaskCheckpoint::default();

        for round in 0..4 {
            for _ in 0..6 {
                match rng.gen_range(0..4) {
                    0 => {
                        let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                        let p = builder.proc_of(t).unwrap();
                        builder.unplace_task(t);
                        let exec = builder.exec_cost(t, p);
                        let start = builder.earliest_proc_slot(p, 0.0, exec);
                        builder.place_task(t, p, start);
                    }
                    1 => {
                        let eid = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                        builder.clear_route(eid);
                    }
                    2 => {
                        let eid = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                        let e = graph.edge(eid);
                        let (sp, dp) =
                            (builder.proc_of(e.src).unwrap(), builder.proc_of(e.dst).unwrap());
                        if sp != dp {
                            let ready = builder.finish_of(e.src);
                            builder.clear_route(eid);
                            let (hops, _) = route_message(&builder, &table, eid, sp, dp, ready);
                            builder.set_route(eid, hops);
                        }
                    }
                    _ => {
                        let _ = builder.recompute_times_incremental();
                    }
                }
            }
            prop_assert!(
                builder.scaffold_matches_rebuild(),
                "scaffold diverged from rebuild after round {round}"
            );
            // A migration to a random neighbour, restored: the mirror follows the
            // restore's route mutations too.
            let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
            let pivot = builder.proc_of(t).unwrap();
            let neighbors = system.topology.neighbors(pivot);
            let py = neighbors[rng.gen_range(0..neighbors.len())].0;
            let before = builder.clone();
            builder.checkpoint_task(t, &mut checkpoint);
            migrate(&mut builder, t, pivot, py, &cfg, None, &mut scratch);
            builder.restore_task(&checkpoint);
            prop_assert!(builder.same_schedule_state(&before));
            prop_assert!(
                builder.scaffold_matches_rebuild(),
                "scaffold diverged from rebuild after round {round}'s restore"
            );
        }
    }

    /// Every routing policy returns contiguous walks with the right endpoints on
    /// random topologies, and `MinTransferTime` never pays more than `ShortestHop`
    /// under the same link multipliers.
    #[test]
    fn routing_policies_yield_contiguous_walks_and_cost_dominance(
        shape in 0usize..3,
        m in 6usize..20,
        factor_seed in 0u64..1 << 48,
    ) {
        let mut rng = StdRng::seed_from_u64(factor_seed ^ 0xC0FFEE);
        let topology = match shape {
            0 => bsa::network::builders::random_connected(m, 2, 6, &mut rng).unwrap(),
            1 => bsa::network::builders::bounded_degree_random(m, 4, m, &mut rng).unwrap(),
            _ => bsa::network::builders::torus2d(3, (m / 3).max(3)).unwrap(),
        };
        let factors: Vec<f64> = (0..topology.num_links())
            .map(|_| rng.gen_range(1.0..=200.0))
            .collect();
        let costs = CommCostModel::from_factors(factors);
        let tables: Vec<_> = RoutePolicy::ALL
            .iter()
            .map(|&p| bsa::network::routing::RoutingTable::build(&topology, &costs, p))
            .collect();
        for table in &tables {
            for src in topology.proc_ids() {
                for dst in topology.proc_ids() {
                    let links = table.route(src, dst).unwrap();
                    // Contiguous walk: consecutive links share exactly the processor
                    // the previous hop arrived at; endpoints are (src, dst).
                    let mut at = src;
                    let mut cost = 0.0;
                    for &l in links {
                        let next = topology.link(l).other_end(at);
                        prop_assert!(next.is_some(), "link {l} not adjacent to {at}");
                        at = next.unwrap();
                        cost += costs.factor(l);
                    }
                    prop_assert_eq!(at, dst, "walk must end at the destination");
                    prop_assert_eq!(links.len(), table.distance(src, dst));
                    prop_assert!((cost - table.route_cost(src, dst)).abs() <= 1e-9 * cost.max(1.0));
                    if src == dst {
                        prop_assert!(links.is_empty());
                    }
                }
            }
        }
        // Cost dominance: the Dijkstra table is optimal in route cost.
        let (sh, mt) = (&tables[0], &tables[1]);
        for src in topology.proc_ids() {
            for dst in topology.proc_ids() {
                prop_assert!(
                    mt.route_cost(src, dst) <= sh.route_cost(src, dst) + 1e-9,
                    "min-transfer must not cost more than shortest-hop"
                );
                // And never uses fewer hops than the hop-optimal table.
                prop_assert!(mt.distance(src, dst) >= sh.distance(src, dst));
            }
        }
    }

    /// The flat sweep's committed timings are byte-identical to the full-relaxation
    /// oracle's, and so are its errors.  `n` reaches below the 64-node floor that once
    /// routed small graphs to a separate kernel, and `frac` sweeps the dirty-task count
    /// from a few tasks to the whole schedule.  Bounced tasks go back to the earliest
    /// slot at or after their data-ready time, which cannot close a cycle, so both
    /// passes must succeed; about one draw in four bounces them to the front instead,
    /// which may order a task before its own producers and exercises the error path.
    /// About one draw in four then unplaces a task, which both paths must reject alike
    /// without touching the builder.
    #[test]
    fn every_retime_kernel_is_byte_identical_to_the_oracle(
        n in 24usize..110,
        gran in prop_oneof![Just(0.1), Just(1.0), Just(10.0)],
        seed in any::<u64>(),
        frac in 0.02f64..1.0,
        unplace in 0u8..4,
        front in 0u8..4,
    ) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let topology = TopologyKind::Ring.build(4, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let table = system.comm_model(RoutePolicy::ShortestHop);
        let mut builder = build_routed_schedule(&graph, &system, &table, seed);
        builder.recompute_times().unwrap();

        // Dirty ~frac·n tasks by re-placing each on its own processor — real time
        // changes, not no-op bounces.
        let front = front == 0;
        let bounces = ((n as f64 * frac).ceil() as usize).max(1);
        for _ in 0..bounces {
            let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
            let p = builder.proc_of(t).unwrap();
            let ready = if front { 0.0 } else { builder.current_drt(t).0 };
            builder.unplace_task(t);
            let exec = builder.exec_cost(t, p);
            let start = builder.earliest_proc_slot(p, ready, exec);
            builder.place_task(t, p, start);
        }
        let mut oracle = builder.clone();
        let inc = builder.recompute_times_incremental();
        let orc = oracle.recompute_times();
        prop_assert!(front || inc.is_ok(), "a data-ready bounce failed to re-time: {:?}", inc);
        match (&inc, &orc) {
            (Ok(stats), Ok(())) => prop_assert!(
                builder.same_schedule_state(&oracle),
                "the sweep diverged from the oracle ({} dirty tasks)",
                stats.seed_nodes
            ),
            (Err(inc_err), Err(orc_err)) => {
                // A front-moved task can order a processor predecessor after itself;
                // both paths must report the cycle and leave the builder untouched.
                prop_assert_eq!(inc_err, orc_err);
                prop_assert!(
                    builder.same_schedule_state(&oracle),
                    "error paths must leave both builders in the same (pre-pass) state"
                );
            }
            _ => prop_assert!(false, "kernel disagreement: {inc:?} vs {orc:?}"),
        }

        if unplace == 0 {
            let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
            builder.unplace_task(t);
            let snapshot = builder.clone();
            let mut oracle = builder.clone();
            prop_assert_eq!(
                builder.recompute_times_incremental().err(),
                Some(RecomputeError::UnplacedTask(t))
            );
            prop_assert_eq!(
                oracle.recompute_times().err(),
                Some(RecomputeError::UnplacedTask(t))
            );
            prop_assert!(builder.same_schedule_state(&snapshot));
            prop_assert!(oracle.same_schedule_state(&snapshot));
        }
    }

    /// The chunked gap index answers `earliest_gap` bit-identically to the scalar
    /// linear scan it accelerates, across randomized insert/remove/query sequences
    /// (the index is healed lazily, so removals and stale summaries are the
    /// interesting part).
    #[test]
    fn chunked_gap_index_matches_the_scalar_reference(
        ops in prop::collection::vec(
            (0.0f64..2000.0, 0.1f64..60.0, any::<u16>()),
            1..220,
        )
    ) {
        use bsa::schedule::timeline::TIME_EPS;
        let mut timeline: bsa::schedule::Timeline<u32> = bsa::schedule::Timeline::new();
        for (i, (ready, duration, action)) in ops.iter().enumerate() {
            // Mostly inserts, some removals: index invalidation + heal get exercised.
            if *action % 4 == 0 && !timeline.is_empty() {
                timeline.remove_index(*action as usize % timeline.len());
            }
            let got = timeline.earliest_gap(*ready, *duration);
            // Scalar reference: first-fit scan over the raw interval list.
            let mut want = *ready;
            for iv in timeline.intervals() {
                if iv.finish < *ready - TIME_EPS {
                    continue;
                }
                if want + *duration <= iv.start + TIME_EPS {
                    break;
                }
                if iv.finish > want {
                    want = iv.finish;
                }
            }
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "chunked earliest_gap({}, {}) = {} != scalar {}",
                ready,
                duration,
                got,
                want
            );
            timeline.insert(got, *duration, i as u32);
            prop_assert!(timeline.is_consistent());
        }
    }

    /// The same bit-identity where the index actually skips: long packed runs whose
    /// holes straddle the query duration — some within `TIME_EPS` of it — a tail
    /// chunk of one interval in some cases, and inserts, removals and window rewrites
    /// interleaved with the queries so stale summaries meet every walk.
    #[test]
    fn chunked_gap_index_matches_the_scalar_reference_on_long_packed_runs(
        chunks in 15usize..94,
        tail in prop_oneof![Just(1usize), 0usize..32],
        d in 0.5f64..8.0,
        seed in any::<u64>(),
    ) {
        use bsa::schedule::timeline::TIME_EPS;
        let mut rng = StdRng::seed_from_u64(seed);
        // Mostly holes well short of `d`; a few at, within `TIME_EPS` of, or past it,
        // so most chunks a walk crosses hold no fit and are skipped.
        let near = [-2.0 * TIME_EPS, -0.5 * TIME_EPS, 0.0, 0.5 * TIME_EPS, 2.0 * TIME_EPS];
        let hole = |rng: &mut StdRng| match rng.gen_range(0..256) {
            0 | 1 => d + near[rng.gen_range(0..near.len())],
            2 => rng.gen_range(d..3.0 * d),
            _ => rng.gen_range(0.0..0.9 * d),
        };
        let mut timeline: bsa::schedule::Timeline<u32> = bsa::schedule::Timeline::new();
        let mut cursor = 0.0f64;
        for i in 0..32 * chunks + tail {
            cursor += hole(&mut rng);
            let len = rng.gen_range(0.25..4.0);
            timeline.insert(cursor, len, i as u32);
            cursor += len;
        }
        let span = timeline.last_finish();
        for round in 0..300u32 {
            let n = timeline.len();
            match rng.gen_range(0..8) {
                0 => {
                    timeline.remove_index(rng.gen_range(0..n));
                }
                1 => {
                    // Book an item where the scheduler would: at its earliest gap.
                    let len = rng.gen_range(0.1..2.0 * d);
                    let at = timeline.earliest_gap(rng.gen_range(0.0..span), len);
                    timeline.insert(at, len, 100_000 + round);
                }
                2 => {
                    // Move an interval inside its free neighbourhood, keeping the order.
                    let pos = rng.gen_range(0..n);
                    let iv = timeline.intervals()[pos];
                    let lo = if pos == 0 { 0.0 } else { timeline.intervals()[pos - 1].finish };
                    let hi = timeline
                        .intervals()
                        .get(pos + 1)
                        .map_or(iv.finish + d, |next| next.start);
                    let start = rng.gen_range(lo.min(iv.start)..=iv.start);
                    let finish = rng.gen_range(start..=hi.max(start));
                    timeline.set_window(pos, start, finish);
                }
                _ => {}
            }
            prop_assert!(timeline.is_consistent());
            let ready = rng.gen_range(0.0..span);
            let duration = match rng.gen_range(0..3) {
                0 => d,
                1 => d + near[rng.gen_range(0..near.len())],
                _ => rng.gen_range(0.05..3.0 * d),
            };
            let got = timeline.earliest_gap(ready, duration);
            let first_alive = timeline
                .intervals()
                .partition_point(|iv| iv.finish < ready - TIME_EPS);
            let mut want = ready;
            for iv in &timeline.intervals()[first_alive..] {
                if want + duration <= iv.start + TIME_EPS {
                    break;
                }
                if iv.finish > want {
                    want = iv.finish;
                }
            }
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {}: chunked earliest_gap({}, {}) = {} != scalar {}",
                round,
                ready,
                duration,
                got,
                want
            );
        }
    }

    /// `Timeline::earliest_gap_masked` answers bit-identically to removing the masked
    /// intervals, inserting the windows and calling `earliest_gap`, on the scalar and
    /// the chunked path.  The draws include holes within `TIME_EPS` of the query
    /// duration, windows booked into a masked slot with their start within `TIME_EPS`
    /// of the masked start, zero-length and longer windows within `TIME_EPS` of a base
    /// start, and zero-length base intervals, some sharing their instant with the next
    /// interval.
    #[test]
    fn masked_gap_query_matches_removing_inserting_then_querying(
        len in prop_oneof![1usize..64, 64usize..1500],
        d in 0.5f64..8.0,
        seed in any::<u64>(),
    ) {
        use bsa::schedule::timeline::TIME_EPS;
        const WINDOW: u32 = 1 << 30;
        let mut rng = StdRng::seed_from_u64(seed);
        let near = [-2.0 * TIME_EPS, -0.5 * TIME_EPS, 0.0, 0.5 * TIME_EPS, 2.0 * TIME_EPS];
        // Offsets of windows from a base start, and the query durations
        // probed right at each window: where `insert` puts a window and the next base
        // interval in the order that decides the answer.
        let offsets = [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0].map(|x| x * TIME_EPS);
        let tiny = [0.0, 0.25, 0.5, 1.0, 1.5].map(|x| x * TIME_EPS);
        // One base interval in eight has zero length, and one hole in sixteen is empty,
        // so zero-length intervals share their instant with a neighbour.
        let mut base: bsa::schedule::Timeline<u32> = bsa::schedule::Timeline::new();
        let mut cursor = 0.0f64;
        for i in 0..len {
            cursor += match rng.gen_range(0..16) {
                0 => d + near[rng.gen_range(0..near.len())],
                1 => rng.gen_range(d..3.0 * d),
                2 => 0.0,
                _ => rng.gen_range(0.0..0.9 * d),
            };
            let l = if rng.gen_range(0..8) == 0 { 0.0 } else { rng.gen_range(0.25..4.0) };
            base.insert(cursor, l, i as u32);
            cursor += l;
        }
        prop_assert!(base.is_consistent());
        let span = base.last_finish();
        for round in 0..40 {
            let mut masked: Vec<usize> =
                (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..len)).collect();
            masked.sort_unstable();
            masked.dedup();
            let mut reference = base.clone();
            for &pos in masked.iter().rev() {
                reference.remove_index(pos);
            }
            // Windows where a scheduler would book them, then into masked slots, then
            // ones within `TIME_EPS` of base starts, half of them zero-length (a longer
            // one fits there only after a zero-length base interval); each is kept only
            // if the reference timeline can take it.
            let mut tag = WINDOW;
            for kind in 0..3 {
                for _ in 0..rng.gen_range(0..3) {
                    let (start, l) = match kind {
                        0 => {
                            let l = rng.gen_range(0.1..2.0 * d);
                            (reference.earliest_gap(rng.gen_range(0.0..span), l), l)
                        }
                        1 if !masked.is_empty() => {
                            let iv = base.intervals()[masked[rng.gen_range(0..masked.len())]];
                            let start = iv.start + near[rng.gen_range(0..near.len())];
                            (start, (iv.finish - iv.start) * rng.gen_range(0.1..1.0))
                        }
                        1 => continue,
                        _ => {
                            let iv = base.intervals()[rng.gen_range(0..len)];
                            let l = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.1..d) };
                            (iv.start + offsets[rng.gen_range(0..offsets.len())], l)
                        }
                    };
                    if reference.earliest_gap(start, l).to_bits() == start.to_bits() {
                        reference.insert(start, l, tag);
                        tag += 1;
                    }
                }
            }
            let extra: Vec<(f64, f64)> = reference
                .intervals()
                .iter()
                .filter(|iv| iv.payload >= WINDOW)
                .map(|iv| (iv.start, iv.finish))
                .collect();
            let probes = extra.iter().flat_map(|&(start, _)| {
                tiny.iter().flat_map(move |&dur| (0..4).map(move |k| {
                    (start - k as f64 * 0.25 * TIME_EPS, dur)
                }))
            });
            let draws: Vec<(f64, f64)> = (0..12)
                .map(|_| {
                    let duration = match rng.gen_range(0..3) {
                        0 => d,
                        1 => d + near[rng.gen_range(0..near.len())],
                        _ => rng.gen_range(0.0..3.0 * d),
                    };
                    (rng.gen_range(0.0..span), duration)
                })
                .chain(probes)
                .collect();
            for (ready, duration) in draws {
                let got = base.earliest_gap_masked(ready, duration, &extra, &masked);
                let want = reference.earliest_gap(ready, duration);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "round {}: masked {:?}, windows {:?}: earliest_gap_masked({}, {}) = {} != {}",
                    round,
                    &masked,
                    &extra,
                    ready,
                    duration,
                    got,
                    want
                );
            }
        }
    }

    /// Seeded incremental re-timing equals the oracle on a freshly gapped placement.
    #[test]
    fn seeded_incremental_recompute_equals_the_oracle(
        (n, _gran, seed) in dag_params(),
    ) {
        let graph = build_graph(n, 1.0, seed);
        let system = HeterogeneousSystem::homogeneous(&graph, bsa::network::builders::ring(1).unwrap());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A95);
        let mut builder = ScheduleBuilder::new(&graph, &system).unwrap();
        let topo = bsa::taskgraph::TopologicalOrder::compute(&graph);
        let mut cursor = 0.0;
        for t in topo.iter() {
            cursor += rng.gen_range(0.0..25.0);
            builder.place_task(t, ProcId(0), cursor);
            cursor = builder.finish_of(t);
        }
        let mut oracle = builder.clone();
        builder.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        prop_assert!(builder.same_schedule_state(&oracle));
    }
}
