//! The bucketed sort-and-sweep validator against the validator it replaced.
//!
//! [`reference_validate`] is the previous implementation, kept verbatim as a test-only
//! reference: it rescans every placement once per processor (`Schedule::tasks_on`) and
//! every route once per link (`Schedule::hops_on`), then compares every pair of hops on
//! a link.  `validate` must return exactly its error list (same variants, order and
//! multiplicity) on valid schedules and on every kind of corruption.

use bsa::prelude::*;
use bsa::schedule::schedule::{MessageHop, TaskPlacement};
use bsa::schedule::timeline::TIME_EPS;
use bsa::schedule::validate::{validate, ValidationError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The validator before bucketing: checks (1)–(5) of `bsa::schedule::validate`, with
/// processor exclusivity on `Schedule::tasks_on` and link contention as a pair check
/// over `Schedule::hops_on`.
fn reference_validate(
    schedule: &Schedule,
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let m = system.num_processors();

    if schedule.placements().len() != graph.num_tasks() {
        errors.push(ValidationError::WrongTaskCount {
            expected: graph.num_tasks(),
            actual: schedule.placements().len(),
        });
        return errors;
    }

    // (1) placements well-formed.
    for t in graph.task_ids() {
        let pl = schedule.placement(t);
        if !pl.start.is_finite() || !pl.finish.is_finite() || pl.start < -TIME_EPS {
            errors.push(ValidationError::InvalidTime(t));
            continue;
        }
        if pl.proc.index() >= m {
            errors.push(ValidationError::UnknownProcessor(t, pl.proc));
            continue;
        }
        let expected = system.exec_cost(t, pl.proc);
        let actual = pl.finish - pl.start;
        if (actual - expected).abs() > 1e-6 * expected.max(1.0) {
            errors.push(ValidationError::WrongDuration {
                task: t,
                expected,
                actual,
            });
        }
    }

    // (2) processor exclusivity.
    for p in system.topology.proc_ids() {
        let tasks = schedule.tasks_on(p);
        for w in tasks.windows(2) {
            if w[1].start < w[0].finish - TIME_EPS {
                errors.push(ValidationError::ProcessorOverlap(w[0].task, w[1].task, p));
            }
        }
    }

    // (3) + (4) precedence and routes.
    for e in graph.edges() {
        let src_pl = schedule.placement(e.src);
        let dst_pl = schedule.placement(e.dst);
        let route = schedule.route(e.id);
        if src_pl.proc == dst_pl.proc {
            if !route.is_local() {
                errors.push(ValidationError::SpuriousRoute(e.id));
            }
            if dst_pl.start < src_pl.finish - TIME_EPS {
                errors.push(ValidationError::LocalPrecedence {
                    edge: e.id,
                    src: e.src,
                    dst: e.dst,
                });
            }
            continue;
        }
        if route.is_local() {
            errors.push(ValidationError::MissingRoute(e.id));
            continue;
        }
        let first = route.hops.first().unwrap();
        let last = route.hops.last().unwrap();
        if first.from != src_pl.proc || last.to != dst_pl.proc {
            errors.push(ValidationError::RouteEndpoints(e.id));
        }
        let mut broken = false;
        for (k, hop) in route.hops.iter().enumerate() {
            match system.topology.link_between(hop.from, hop.to) {
                Some(l) if l == hop.link => {}
                _ => {
                    broken = true;
                }
            }
            if k > 0 && route.hops[k - 1].to != hop.from {
                broken = true;
            }
            let expected = system.transfer_time(hop.link, e.nominal_cost);
            if (hop.finish - hop.start - expected).abs() > 1e-6 * expected.max(1.0) {
                errors.push(ValidationError::WrongHopDuration { edge: e.id, hop: k });
            }
            let earliest = if k == 0 {
                src_pl.finish
            } else {
                route.hops[k - 1].finish
            };
            if hop.start < earliest - TIME_EPS {
                errors.push(ValidationError::MessageTooEarly { edge: e.id, hop: k });
            }
        }
        if broken {
            errors.push(ValidationError::BrokenRoute(e.id));
        }
        if dst_pl.start < last.finish - TIME_EPS {
            errors.push(ValidationError::RemotePrecedence { edge: e.id });
        }
    }

    // (5) link contention.
    for l in system.topology.link_ids() {
        let hops = schedule.hops_on(l);
        for i in 0..hops.len() {
            for j in (i + 1)..hops.len() {
                let (_, a) = hops[i];
                let (_, b) = hops[j];
                let overlap = a.start < b.finish - TIME_EPS && b.start < a.finish - TIME_EPS;
                if !overlap {
                    continue;
                }
                let conflicting = match system.topology.link_mode() {
                    LinkMode::HalfDuplex => true,
                    LinkMode::FullDuplex => a.from == b.from,
                };
                if conflicting {
                    errors.push(ValidationError::LinkContention { link: l });
                }
            }
        }
    }

    errors
}

/// The kinds of single corruption applied to a valid schedule.
const CORRUPTIONS: usize = 18;

/// Applies corruption `kind` to copies of `placements` and `routes`, drawing its
/// target from `rng`, and returns the corrupted schedule.  Every kind keeps hops on
/// existing links between existing processors, which both validators require.
fn corrupt(
    schedule: &Schedule,
    system: &HeterogeneousSystem,
    kind: usize,
    rng: &mut StdRng,
) -> Schedule {
    let mut placements = schedule.placements().to_vec();
    let mut routes = schedule.routes().to_vec();
    let n = placements.len();
    let m = system.num_processors();
    let t = rng.gen_range(0..n);
    let hops: Vec<usize> = routes.iter().map(|r| r.hops.len()).collect();
    let remote: Vec<usize> = (0..routes.len()).filter(|&e| hops[e] > 0).collect();
    let pick_hop = |rng: &mut StdRng| -> Option<(usize, usize)> {
        (!remote.is_empty()).then(|| {
            let e = remote[rng.gen_range(0..remote.len())];
            (e, rng.gen_range(0..hops[e]))
        })
    };
    match kind {
        // A task shifted onto the window of another task on its processor, or right
        // after it, within `TIME_EPS` of its finish either way.
        0 => {
            let p = placements[t].proc;
            let others: Vec<usize> = (0..n)
                .filter(|&x| x != t && placements[x].proc == p)
                .collect();
            if let Some(&x) = others.get(rng.gen_range(0..others.len().max(1))) {
                let d = placements[t].finish - placements[t].start;
                let start = near(&placements[x], d, rng);
                placements[t].start = start;
                placements[t].finish = start + d;
            }
        }
        // A task moved to another processor, keeping its window.
        1 => placements[t].proc = ProcId(rng.gen_range(0..m) as u32),
        // An unknown processor.
        2 => placements[t].proc = ProcId((m + rng.gen_range(0..3)) as u32),
        // A wrong duration.
        3 => placements[t].finish += rng.gen_range(0.5..5.0),
        // A zero-length execution window.
        4 => placements[t].finish = placements[t].start,
        // An invalid time: NaN, negative or infinite.
        5 => match rng.gen_range(0..4) {
            0 => placements[t].start = f64::NAN,
            1 => placements[t].finish = f64::NAN,
            2 => placements[t].start = -1.0,
            _ => placements[t].finish = f64::INFINITY,
        },
        // A task started early, before its producers' data.
        6 => {
            let d = placements[t].finish - placements[t].start;
            placements[t].start = (placements[t].start - rng.gen_range(1.0..20.0)).max(0.0);
            placements[t].finish = placements[t].start + d;
        }
        // A remote message made local.
        7 => {
            if let Some((e, _)) = pick_hop(rng) {
                routes[e].hops.clear();
            }
        }
        // A local message given a hop.
        8 => {
            let local: Vec<usize> = (0..routes.len())
                .filter(|&e| routes[e].is_local())
                .collect();
            if let (Some(&e), Some((f, k))) = (
                local.get(rng.gen_range(0..local.len().max(1))),
                pick_hop(rng),
            ) {
                let hop = routes[f].hops[k];
                routes[e].hops.push(hop);
            }
        }
        // A hop shifted in time, keeping its length.
        9 => {
            if let Some((e, k)) = pick_hop(rng) {
                let shift = rng.gen_range(-10.0..10.0);
                routes[e].hops[k].start += shift;
                routes[e].hops[k].finish += shift;
            }
        }
        // A hop laid over another hop's link, overlapping it or starting within
        // `TIME_EPS` of its finish, in either direction.
        10 => {
            if let (Some((e, k)), Some((f, j))) = (pick_hop(rng), pick_hop(rng)) {
                let target = routes[f].hops[j];
                let hop = &mut routes[e].hops[k];
                let d = hop.finish - hop.start;
                let window = TaskPlacement {
                    task: TaskId(0),
                    proc: target.from,
                    start: target.start,
                    finish: target.finish,
                };
                *hop = MessageHop {
                    start: near(&window, d, rng),
                    ..target
                };
                hop.finish = hop.start + d;
                if rng.gen_bool(0.5) {
                    std::mem::swap(&mut hop.from, &mut hop.to);
                }
            }
        }
        // A hop of wrong length, or of zero length.
        11 => {
            if let Some((e, k)) = pick_hop(rng) {
                let hop = &mut routes[e].hops[k];
                hop.finish = if rng.gen_bool(0.5) {
                    hop.start
                } else {
                    hop.finish + rng.gen_range(0.5..5.0)
                };
            }
        }
        // A hop with a NaN time.
        12 => {
            if let Some((e, k)) = pick_hop(rng) {
                if rng.gen_bool(0.5) {
                    routes[e].hops[k].start = f64::NAN;
                } else {
                    routes[e].hops[k].finish = f64::NAN;
                }
            }
        }
        // A broken route: a hop over a link that does not join its endpoints, or
        // reversed so consecutive hops no longer meet.
        13 => {
            if let Some((e, k)) = pick_hop(rng) {
                let hop = &mut routes[e].hops[k];
                if rng.gen_bool(0.5) {
                    let l = rng.gen_range(0..system.topology.num_links());
                    hop.link = LinkId(l as u32);
                } else {
                    std::mem::swap(&mut hop.from, &mut hop.to);
                }
            }
        }
        // A route that ends on the wrong processor.
        14 => {
            if let Some((e, _)) = pick_hop(rng) {
                let last = *routes[e].hops.last().unwrap();
                let (q, l) = system.topology.neighbors(last.to)[0];
                routes[e].hops.push(MessageHop {
                    link: l,
                    from: last.to,
                    to: q,
                    start: last.finish,
                    finish: last.finish + (last.finish - last.start),
                });
            }
        }
        // Tasks stacked at one start on `t`'s processor: about half of all tasks moved
        // there, among the ones left where they were, so a bucket can hold an unsorted
        // run of more than 20 equal starts, which tests the order of ties.
        15 => {
            let (p, start) = (placements[t].proc, placements[t].start);
            for pl in placements.iter_mut() {
                if rng.gen_bool(0.5) {
                    pl.finish += start - pl.start;
                    pl.start = start;
                    pl.proc = p;
                }
            }
        }
        // Every hop on one link moved to one start, keeping its length.
        16 => {
            if let Some((e, k)) = pick_hop(rng) {
                let (link, start) = (routes[e].hops[k].link, routes[e].hops[k].start);
                for hop in routes.iter_mut().flat_map(|r| &mut r.hops) {
                    if hop.link == link {
                        hop.finish += start - hop.start;
                        hop.start = start;
                    }
                }
            }
        }
        // A placement dropped, or one too many.
        _ => {
            if rng.gen_bool(0.5) {
                placements.pop();
            } else {
                placements.push(TaskPlacement {
                    task: TaskId(n as u32),
                    ..placements[t]
                });
            }
        }
    }
    Schedule::new(
        schedule.algorithm.clone(),
        placements,
        routes,
        schedule.num_processors(),
        schedule.num_links(),
    )
}

/// A start for an item of length `d` next to `window`: overlapping it, or starting
/// within `TIME_EPS` of its finish, just before or just after.
fn near(window: &TaskPlacement, d: f64, rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3) {
        0 => window.start + rng.gen_range(-0.5..1.0) * d,
        1 => window.finish - rng.gen_range(0.0..2.0) * TIME_EPS,
        _ => window.finish + rng.gen_range(0.0..2.0) * TIME_EPS,
    }
}

/// A random instance: a layered DAG on an 8-processor topology of a seed-chosen kind,
/// with heterogeneous processors and links.
fn instance(n: usize, seed: u64, mode: LinkMode) -> (TaskGraph, HeterogeneousSystem) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = bsa::workloads::random_dag::paper_random_graph(n, 1.0, &mut rng).unwrap();
    let kind = TopologyKind::ALL[(seed % 4) as usize];
    let topology = kind.build(8, &mut rng).unwrap().with_link_mode(mode);
    let system = HeterogeneousSystem::generate(
        &graph,
        topology,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, 10.0),
        &mut rng,
    );
    (graph, system)
}

/// The two validators' error lists, verbatim (`Debug` keeps NaN payloads comparable).
fn both(schedule: &Schedule, graph: &TaskGraph, system: &HeterogeneousSystem) -> (String, String) {
    (
        format!("{:?}", validate(schedule, graph, system)),
        format!("{:?}", reference_validate(schedule, graph, system)),
    )
}

/// The solvers whose schedules are validated: BSA, DLS and HEFT-CA.
fn solvers() -> [Box<dyn Solver>; 3] {
    [Box::new(Bsa::default()), Box::new(Dls), Box::new(Heft)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On schedules from BSA, DLS and HEFT-CA over random instances in both link modes,
    /// and on every kind of single corruption of them, the bucketed validator returns
    /// exactly the reference's error list.
    #[test]
    fn bucketed_validation_matches_the_reference_verbatim(
        n in prop_oneof![8usize..40, 60usize..90],
        seed in any::<u64>(),
        full_duplex in any::<bool>(),
    ) {
        let mode = if full_duplex { LinkMode::FullDuplex } else { LinkMode::HalfDuplex };
        let (graph, system) = instance(n, seed, mode);
        let problem = Problem::new(&graph, &system).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A11_DA7E);
        for solver in solvers() {
            let schedule = solver.solve_unbounded(&problem).unwrap().schedule;
            let (got, want) = both(&schedule, &graph, &system);
            prop_assert_eq!(&got, "[]");
            prop_assert_eq!(got, want);
            for kind in 0..CORRUPTIONS {
                let bad = corrupt(&schedule, &system, kind, &mut rng);
                let (got, want) = both(&bad, &graph, &system);
                prop_assert_eq!(got, want, "{} corruption {}", solver.name(), kind);
            }
        }
    }
}

/// The corruptions reach every `ValidationError` variant, in both link modes, so the
/// property test above compares every kind of error list.
#[test]
fn corruptions_cover_every_validation_error_variant() {
    let mut seen = BTreeSet::new();
    for seed in 0..6u64 {
        for mode in [LinkMode::HalfDuplex, LinkMode::FullDuplex] {
            let (graph, system) = instance(30, seed, mode);
            let problem = Problem::new(&graph, &system).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for solver in solvers() {
                let schedule = solver.solve_unbounded(&problem).unwrap().schedule;
                for kind in 0..CORRUPTIONS {
                    for _ in 0..4 {
                        let bad = corrupt(&schedule, &system, kind, &mut rng);
                        let errors = validate(&bad, &graph, &system);
                        assert_eq!(
                            format!("{errors:?}"),
                            format!("{:?}", reference_validate(&bad, &graph, &system))
                        );
                        for e in errors {
                            let name = format!("{e:?}");
                            let variant = name.split(['(', ' ']).next().unwrap().to_string();
                            seen.insert((variant, mode == LinkMode::FullDuplex));
                        }
                    }
                }
            }
        }
    }
    let variants = [
        "WrongTaskCount",
        "UnknownProcessor",
        "WrongDuration",
        "ProcessorOverlap",
        "LocalPrecedence",
        "MissingRoute",
        "SpuriousRoute",
        "RouteEndpoints",
        "BrokenRoute",
        "WrongHopDuration",
        "MessageTooEarly",
        "RemotePrecedence",
        "LinkContention",
        "InvalidTime",
    ];
    for v in variants {
        for full_duplex in [false, true] {
            assert!(
                seen.contains(&(v.to_string(), full_duplex)),
                "no corruption produced {v} (full duplex: {full_duplex}); seen {seen:?}"
            );
        }
    }
}
