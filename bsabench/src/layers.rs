//! Traced calls into each layer's public functions, on a workload's own instances
//! and solutions, and the per-layer metrics read off their spans.

use crate::instances::Instance;
use crate::report::{Metrics, Outcome};
use crate::trace::{SpanId, Tracer, ROOT};
use bsa::core::{select_pivot, serialize, PivotStrategy};
use bsa::prelude::*;
use bsa::schedule::validate::validate;
use bsa::schedule::RetimeTotals;
use bsa::schedule::{ScheduleBuilder, Timeline};
use bsa_daemon::engine::ProblemInstance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

/// Per-layer metrics that are the mean self time of one span name:
/// (metric, span, nanoseconds per reported unit).
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("core.select_pivot_ms", "core.select_pivot", 1e6),
    ("core.serialize_ms", "core.serialize", 1e6),
    ("core.solve_setup_ms", "core.solve_setup", 1e6),
    ("core.finish_ms", "core.finish", 1e6),
    ("schedule.problem_new_ms", "schedule.problem_new", 1e6),
    ("schedule.retime_full_ms", "schedule.retime_full", 1e6),
    ("schedule.delta_apply_ms", "schedule.delta_apply", 1e6),
    ("schedule.resolve_onto_ms", "schedule.resolve_onto", 1e6),
    ("schedule.validate_ms", "schedule.validate", 1e6),
    ("network.routing_build_ms", "network.routing_build", 1e6),
    ("taskgraph.fingerprint_us", "taskgraph.fingerprint", 1e3),
    ("baselines.dls_solve_ms", "baselines.dls_solve", 1e6),
    ("baselines.heft_solve_ms", "baselines.heft_solve", 1e6),
    ("daemon.parse_us", "daemon.parse", 1e3),
    ("daemon.submit_hit_us", "daemon.submit_hit", 1e3),
    ("daemon.submit_miss_us", "daemon.submit_miss", 1e3),
    ("daemon.first_event_ms", "daemon.first_event", 1e6),
    ("daemon.event_encode_us", "daemon.event_encode", 1e3),
    ("daemon.end_encode_us", "daemon.end_encode", 1e3),
    ("daemon.ack_us", "daemon.ack", 1e3),
];

/// Sets every per-layer metric that is read off span times.
pub fn span_metrics(metrics: &mut Metrics, tr: &Tracer) {
    for &(metric, span, unit) in SPAN_METRICS {
        metrics.set(metric, tr.mean_self_ns(span) / unit);
    }
    // The migration phase contains the pivot spans, so its whole duration is the
    // layer's figure; the longest pivot span is reported on its own.
    metrics.set("core.migrate_ms", tr.mean_ns("core.migrate") / 1e6);
    metrics.set("core.pivot_ms_max", tr.max_ns("core.pivot") / 1e6);
}

/// Timestamps the phases of one BSA solve from its progress events.
#[derive(Default)]
struct SolveClock {
    serialized: Option<Instant>,
    pivots: Vec<Instant>,
    last: Option<Instant>,
    migrations: u64,
}

impl Progress for SolveClock {
    fn on_event(&mut self, event: &SolveEvent) -> ControlFlow<()> {
        let now = Instant::now();
        match event {
            SolveEvent::Serialized { .. } => self.serialized = Some(now),
            SolveEvent::PivotStarted { .. } => self.pivots.push(now),
            SolveEvent::MigrationAccepted { .. } => self.migrations += 1,
            _ => {}
        }
        self.last = Some(now);
        ControlFlow::Continue(())
    }
}

/// A default BSA solve observed by a [`Progress`] clock, recorded as `core.solve`
/// with the children `core.solve_setup` (entry to `Serialized`), `core.migrate`
/// (`Serialized` to the last event, holding one `core.pivot` span per
/// `PivotStarted`) and `core.finish` (last event to return).  Returns the solution
/// and its accepted migrations.
pub fn clocked_solve(
    tr: &mut Tracer,
    problem: &Problem<'_>,
    options: &SolveOptions,
    parent: Option<SpanId>,
) -> Result<(Solution, u64), SolveError> {
    let mut clock = SolveClock::default();
    let entry = Instant::now();
    let solution = Bsa::default().solve(problem, options, &mut clock)?;
    let ret = Instant::now();
    let serialized = clock.serialized.unwrap_or(entry);
    let last = clock.last.unwrap_or(serialized);
    let solve = tr.record("core.solve", entry, ret, parent);
    tr.record("core.solve_setup", entry, serialized, Some(solve));
    let migrate = tr.record("core.migrate", serialized, last, Some(solve));
    for (i, &start) in clock.pivots.iter().enumerate() {
        let end = clock.pivots.get(i + 1).copied().unwrap_or(last);
        tr.record("core.pivot", start, end, Some(migrate));
    }
    tr.record("core.finish", last, ret, Some(solve));
    Ok((solution, clock.migrations))
}

/// The migration-loop counters of a traced round's cold solves.
pub fn core_counters(metrics: &mut Metrics, solutions: &[&Solution], migrations: u64) {
    let evals: u64 = solutions
        .iter()
        .map(|s| s.trace.thread_stats.first().map_or(0, |t| t.evals))
        .sum();
    metrics.set("core.migrations", migrations as f64);
    metrics.set("core.candidate_evals", evals as f64);
    metrics.set("core.accept_ratio", migrations as f64 / evals.max(1) as f64);
}

/// The re-timing counters summed over a traced round.
pub fn retime_counters<'a>(
    metrics: &mut Metrics,
    totals: impl IntoIterator<Item = &'a RetimeTotals>,
) {
    let mut r = RetimeTotals::default();
    for t in totals {
        r.merge(t);
    }
    metrics.set("schedule.retime_passes", r.passes as f64);
    metrics.set("schedule.retime_cone_nodes", r.cone_nodes as f64);
    metrics.set("schedule.retime_changed_nodes", r.changed_nodes as f64);
    metrics.set("schedule.retime_delta_evals", r.delta_evals as f64);
    metrics.set(
        "schedule.retime_flat_passes",
        (r.flat_by_seeds + r.flat_by_model + r.flat_by_cap) as f64,
    );
    metrics.set(
        "schedule.retime_useful_ratio",
        r.changed_nodes as f64 / r.cone_nodes.max(1) as f64,
    );
}

/// A builder holding exactly the decisions and times of `schedule`.
fn rebuilt<'a>(
    graph: &'a TaskGraph,
    system: &'a HeterogeneousSystem,
    schedule: &Schedule,
) -> ScheduleBuilder<'a> {
    let mut b = ScheduleBuilder::new(graph, system).expect("the schedule's own instance");
    for t in graph.task_ids() {
        let p = schedule.placement(t);
        b.place_task(t, p.proc, p.start);
    }
    for e in graph.edge_ids() {
        let hops = &schedule.route(e).hops;
        if !hops.is_empty() {
            b.set_route(e, hops.clone());
        }
    }
    b
}

/// Whether `b` holds exactly the task and message times of `schedule`.
fn same_times(b: &ScheduleBuilder<'_>, graph: &TaskGraph, schedule: &Schedule) -> bool {
    graph
        .task_ids()
        .all(|t| b.start_of(t) == schedule.start_of(t) && b.finish_of(t) == schedule.finish_of(t))
        && graph
            .edge_ids()
            .all(|e| b.route(e) == schedule.route(e).hops.as_slice())
}

/// The oracle check for a warm re-solve.  A resolve keeps adopted placements where
/// they were (after a `remove_task`, say, nothing is re-timed), so its schedule need
/// not be the full relaxation's fixpoint; but the independent full relaxation
/// (`ScheduleBuilder::recompute_times`) of its decisions must succeed and move no
/// task later.
pub fn relaxes_no_later(
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
    schedule: &Schedule,
) -> bool {
    let mut b = rebuilt(graph, system, schedule);
    b.recompute_times().is_ok()
        && graph.task_ids().all(|t| {
            let warm = schedule.start_of(t);
            b.start_of(t) <= warm + 1e-9 * (1.0 + warm.abs())
        })
}

/// Link timelines rebuilt from a schedule's message hops.
fn link_timelines(schedule: &Schedule) -> Vec<Timeline<EdgeId>> {
    (0..schedule.num_links())
        .map(|l| {
            let mut tl = Timeline::new();
            for (e, hop) in schedule.hops_on(LinkId(l as u32)) {
                tl.insert(hop.start, hop.finish - hop.start, e);
            }
            tl
        })
        .collect()
}

/// Direct, traced calls on each (instance, BSA solution) pair: problem validation,
/// pivot selection, serialization, link-timeline gap queries and speculative
/// booking cycles, the full re-timing oracle, validation, routing-table builds and
/// fingerprinting.
pub fn direct_probes(
    tr: &mut Tracer,
    metrics: &mut Metrics,
    outcome: &mut Outcome,
    pairs: &[(&Instance, &Solution)],
    gap_queries: usize,
    spec_cycles: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A9);
    let (mut gap_ns, mut gaps, mut spec_ns, mut specs) = (0u128, 0usize, 0u128, 0usize);
    for &(inst, solution) in pairs {
        let (graph, system) = (&inst.graph, &inst.system);
        tr.time("schedule.problem_new", ROOT, || {
            black_box(Problem::new(graph, system))
        })
        .expect("benchmark instances validate");
        let pivot = tr.time("core.select_pivot", ROOT, || {
            select_pivot(graph, system, PivotStrategy::ShortestCriticalPath).0
        });
        tr.time("core.serialize", ROOT, || {
            black_box(serialize(graph, &system.exec_costs.column(pivot)))
        });
        for policy in [RoutePolicy::ShortestHop, RoutePolicy::MinTransferTime] {
            tr.time("network.routing_build", ROOT, || {
                black_box(system.comm_model(policy))
            });
        }
        tr.time("taskgraph.fingerprint", ROOT, || {
            black_box(ProblemInstance::fingerprint_of(graph, system))
        });
        let schedule = &solution.schedule;
        let errors = tr.time("schedule.validate", ROOT, || {
            validate(schedule, graph, system)
        });
        outcome.check(errors.is_empty(), || {
            format!("{}: {} validation errors", inst.name, errors.len())
        });

        let mut b = rebuilt(graph, system, schedule);
        let retimed = tr.time("schedule.retime_full", ROOT, || b.recompute_times());
        outcome.check(retimed.is_ok() && same_times(&b, graph, schedule), || {
            format!(
                "{}: full re-timing does not reproduce the schedule",
                inst.name
            )
        });

        // Queries drawn over the makespan with durations of real messages, on links
        // that carry traffic.
        let mut tls = link_timelines(schedule);
        let busy: Vec<usize> = (0..tls.len()).filter(|&l| !tls[l].is_empty()).collect();
        let durations: Vec<f64> = tls
            .iter()
            .flat_map(|tl| tl.intervals().iter().map(|iv| iv.finish - iv.start))
            .collect();
        if busy.is_empty() {
            continue;
        }
        let makespan = schedule.schedule_length();
        let queries: Vec<(usize, f64, f64)> = (0..gap_queries.max(spec_cycles + 1))
            .map(|_| {
                (
                    busy[rng.gen_range(0..busy.len())],
                    rng.gen_range(0.0..makespan),
                    durations[rng.gen_range(0..durations.len())],
                )
            })
            .collect();
        for tl in &tls {
            black_box(tl.earliest_gap(0.0, 1.0));
        }
        let t0 = Instant::now();
        let mut acc = 0.0;
        for &(l, ready, d) in &queries[..gap_queries] {
            acc += tls[l].earliest_gap(ready, d);
        }
        black_box(acc);
        let t1 = Instant::now();
        tr.record("schedule.gap_query", t0, t1, ROOT);
        gap_ns += (t1 - t0).as_nanos();
        gaps += gap_queries;

        // The speculative-booking pattern of candidate pricing: find a gap, book it,
        // query again on the mutated timeline, roll the booking back.
        let t0 = Instant::now();
        for w in queries.windows(2).take(spec_cycles) {
            let ((l, ready, d), (_, next_ready, next_d)) = (w[0], w[1]);
            let tl = &mut tls[l];
            let start = tl.earliest_gap(ready, d);
            let at = tl.insert(start, d, EdgeId(u32::MAX));
            acc += tl.earliest_gap(next_ready, next_d);
            tl.remove_index(at);
        }
        black_box(acc);
        let t1 = Instant::now();
        tr.record("schedule.spec_cycle", t0, t1, ROOT);
        spec_ns += (t1 - t0).as_nanos();
        specs += spec_cycles;
    }
    metrics.set("schedule.gap_query_ns", gap_ns as f64 / gaps as f64);
    metrics.set("schedule.spec_cycle_ns", spec_ns as f64 / specs as f64);
}
