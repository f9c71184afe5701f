//! The BSA scheduling algorithm (paper §2.3, "BSA ALGORITHM").
//!
//! After serialization onto the first pivot, processors are visited in breadth-first order.
//! For each task currently on the pivot whose start is delayed beyond its data-ready time
//! (or whose VIP lives elsewhere), every neighbouring processor is evaluated: the task's
//! data-ready time there is obtained by tentatively booking its incoming messages on the
//! link joining the pivot and the neighbour (messages from predecessors that already
//! migrated simply extend their existing routes by one hop), and its finish time is the
//! earliest slot on the neighbour that can hold it.  The task migrates to the neighbour
//! with the best strictly-smaller finish time, or — if the finish time merely stays equal —
//! to the neighbour hosting its VIP.  After each accepted migration all times are
//! recomputed from the ordering decisions so the tasks left behind "bubble up" into the
//! freed slots.
//!
//! With the default [`RoutePolicy::ShortestHop`] the implementation never consults a
//! routing table: message routes grow hop-by-hop as tasks migrate, exactly as described
//! in the paper.  Under a cost-aware policy
//! ([`RoutePolicy::MinTransferTime`] in [`SolveOptions::route_policy`]) the loop
//! additionally consults the same [`CommModel`] handle the baselines route over: every
//! re-routed message also prices a full reroute along the policy's route
//! ([`Booking::price_route`], with the message's current route hidden) and takes it
//! when it arrives earlier — on heavily heterogeneous links the hop-by-hop extension
//! can pile onto a slow link that a slightly longer route avoids entirely.
//!
//! A neighbour is priced read-only ([`estimate_finish_on_neighbor`]): the tentative
//! bookings and the placement go to a tentative view over `&ScheduleBuilder`, which
//! answers the link gap queries as if they had been made (see
//! [`bsa_schedule::overlay`]), so the estimate sees real link contention among the
//! task's own messages and nothing has to be undone.  An accepted migration
//! ([`migrate`]) runs the same booking steps on the builder itself, after a one-task
//! checkpoint ([`ScheduleBuilder::checkpoint_task`]): a migration whose re-routing
//! produces un-timeable (cyclic) ordering decisions is undone by restoring the task and
//! the routes of its messages ([`ScheduleBuilder::restore_task`]; DESIGN.md §5.2).  No
//! whole-builder snapshot is ever cloned.  After each accepted migration the schedule
//! is re-timed by one flat sweep over the reduced decision graph
//! ([`ScheduleBuilder::recompute_times_incremental`]);
//! [`crate::config::RetimingMode::Full`] switches back to the full-relaxation oracle,
//! which produces bit-identical times at a much higher cost per migration.

use crate::config::{BsaConfig, RetimingMode};
use crate::pivot::select_pivot;
use crate::serialization::serialize;
use bsa_network::{CommModel, HeterogeneousSystem, LinkId, ProcId, RoutePolicy};
use bsa_schedule::overlay::{Booking, Overlay};
use bsa_schedule::schedule::MessageHop;
use bsa_schedule::solver::{
    BudgetMeter, IncumbentRecord, MigrationRecord, Problem, Progress, Provenance, RetimeTotals,
    Solution, SolveError, SolveEvent, SolveOptions, SolveTrace, Solver, StopReason, ThreadStats,
};
use bsa_schedule::{Schedule, ScheduleBuilder, ScheduleMetrics, TaskCheckpoint};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId};

const EPS: f64 = 1e-9;

/// Reusable buffers of neighbour pricing and migration: one instance serves every
/// candidate of a run, mirroring the scheduling kernel's scratch arenas (DESIGN.md
/// §7.5), so pricing allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct MigrationScratch {
    /// Remote incoming messages of the migrating task, sorted by readiness.
    remote: Vec<(EdgeId, f64)>,
    /// The tentative bookings of the neighbour being priced.
    overlay: Overlay,
}

/// Reusable buffers of the migration loop, alive for a whole run.
#[derive(Default)]
struct MigrateScratch {
    /// Buffers of pricing and booking each candidate.
    migration: MigrationScratch,
    /// Snapshot of the pivot's tasks at phase start.
    tasks: Vec<TaskId>,
    /// Finish time of every task at phase start (see `compare_against_phase_start`).
    phase_ft: Vec<f64>,
    /// The migrating task as it stood before [`migrate`], for undoing a failed move.
    checkpoint: TaskCheckpoint,
}

/// The BSA scheduler.  Construct with [`Bsa::new`] or use [`Bsa::default`] for the paper's
/// configuration.
#[derive(Debug, Clone, Default)]
pub struct Bsa {
    config: BsaConfig,
}

impl Bsa {
    /// Creates a BSA scheduler with the given configuration.
    pub fn new(config: BsaConfig) -> Self {
        Bsa { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &BsaConfig {
        &self.config
    }

    /// The migration engine behind [`Solver::solve`].
    ///
    /// Serializes onto the first pivot, then bubbles tasks up under the budgets of
    /// `options`: between steps the [`BudgetMeter`] is polled and `progress` observes
    /// every phase.  When a budget fires (or the observer breaks) the loop stops and the
    /// **current committed schedule** — always valid, since every accepted migration
    /// commits only after a successful re-timing — is returned as the incumbent, with
    /// the trace recording why the solve stopped.  With unlimited options the path is
    /// bit-identical to the pre-session blocking behaviour.
    fn run(
        &self,
        problem: &Problem<'_>,
        options: &SolveOptions,
        progress: &mut dyn Progress,
    ) -> Result<(Schedule, SolveTrace), SolveError> {
        let graph = problem.graph();
        let system = problem.system();
        let cfg = &self.config;
        let mut meter = BudgetMeter::start(options);
        // The cost-aware communication model is consulted for full reroutes.  Under
        // the default shortest-hop policy BSA's emergent hop-by-hop routing is the
        // paper's algorithm and must stay bit-identical, so no table is built at all
        // (and the fast path pays nothing).
        let comm =
            (options.route_policy != RoutePolicy::ShortestHop).then(|| options.comm_model(system));
        let comm = comm.as_ref();
        let (pivot0, cp_lengths) = select_pivot(graph, system, cfg.pivot_strategy);
        let serialization = serialize(graph, &system.exec_costs.column(pivot0));

        let mut builder = problem.builder();
        let mut cursor = 0.0;
        for &t in &serialization.order {
            builder.place_task(t, pivot0, cursor);
            cursor = builder.finish_of(t);
        }
        // The serialized schedule is compacted by construction; this full pass is a
        // no-op on the times but establishes the clean baseline the incremental
        // re-timing passes extend from.
        builder
            .recompute_times()
            .map_err(|e| SolveError::retiming("serialized schedule", e))?;
        let serialized_length = builder.schedule_length();

        let processor_order = system.topology.bfs_order(pivot0);
        let mut trace = SolveTrace {
            solver: Solver::name(self).to_string(),
            stop: StopReason::Converged,
            cp_lengths,
            first_pivot: Some(pivot0),
            serial_order: serialization.order.clone(),
            processor_order: processor_order.clone(),
            migrations: Vec::new(),
            serialized_length: Some(serialized_length),
            final_length: serialized_length,
            retime: RetimeTotals::default(),
            incumbents: Vec::new(),
            thread_stats: Vec::new(),
        };

        // From here on a valid incumbent exists: every early stop below returns the
        // current committed schedule instead of failing.
        let mut stop = StopReason::Converged;
        if progress
            .on_event(&SolveEvent::Serialized {
                length: serialized_length,
            })
            .is_break()
        {
            stop = StopReason::ObserverStopped;
        } else if let Some(s) = meter.check() {
            stop = s;
        }
        let mut incumbent = serialized_length;

        let mut scratch = MigrateScratch::default();
        let mut pricing = ThreadStats::default();
        if stop == StopReason::Converged {
            stop = self.migration_phase(
                &mut builder,
                graph,
                system,
                comm,
                &processor_order,
                &mut meter,
                progress,
                &mut trace,
                &mut incumbent,
                &mut scratch,
                &mut pricing,
            );
        }
        trace.thread_stats.push(pricing);

        trace.stop = stop;
        trace.final_length = builder.schedule_length();
        let schedule = builder.finish(Solver::name(self))?;
        Ok((schedule, trace))
    }

    /// The bubble-up migration loop (paper lines 5–21): returns why it stopped and
    /// counts every priced candidate in `pricing`.
    #[allow(clippy::too_many_arguments)]
    fn migration_phase(
        &self,
        builder: &mut ScheduleBuilder<'_>,
        graph: &TaskGraph,
        system: &HeterogeneousSystem,
        comm: Option<&CommModel>,
        processor_order: &[ProcId],
        meter: &mut BudgetMeter,
        progress: &mut dyn Progress,
        trace: &mut SolveTrace,
        incumbent: &mut f64,
        scratch: &mut MigrateScratch,
        pricing: &mut ThreadStats,
    ) -> StopReason {
        let cfg = &self.config;
        let mut stop = StopReason::Converged;
        'run: for sweep in 0..cfg.sweeps.max(1) {
            let mut sweep_migrations = 0usize;
            for &pivot in processor_order {
                if progress
                    .on_event(&SolveEvent::PivotStarted { pivot, sweep })
                    .is_break()
                {
                    stop = StopReason::ObserverStopped;
                    break 'run;
                }
                scratch.tasks.clear();
                scratch.tasks.extend(builder.tasks_on(pivot));
                // Finish times as they stand when the pivot phase begins.  Migration decisions
                // compare candidate finish times against these phase-start values (the finish
                // time the task would keep if the pivot's schedule were left as is), which is
                // what lets a heavily loaded pivot shed most of its load in one phase.
                scratch.phase_ft.clear();
                scratch
                    .phase_ft
                    .extend(graph.task_ids().map(|x| builder.finish_of(x)));
                for ti in 0..scratch.tasks.len() {
                    if let Some(s) = meter.check() {
                        stop = s;
                        break 'run;
                    }
                    let t = scratch.tasks[ti];
                    if builder.proc_of(t) != Some(pivot) {
                        continue;
                    }
                    let (drt_pivot, vip) = builder.current_drt(t);
                    let ft_pivot = if cfg.compare_against_phase_start {
                        scratch.phase_ft[t.index()]
                    } else {
                        builder.finish_of(t)
                    };
                    let vip_on_pivot = vip.map_or(true, |v| builder.proc_of(v) == Some(pivot));
                    // Paper line 7: "if FT(Ti, Pivot) > DRT(Ti, Pivot) or VIP of Ti is not
                    // scheduled to Pivot".  Since FT = ST + w ≥ DRT + w, the condition holds for
                    // every task with positive execution cost — i.e. every task is considered
                    // for migration in every pivot phase; only zero-cost tasks that start right
                    // at their data-ready time next to their VIP are skipped.
                    if ft_pivot <= drt_pivot + EPS && vip_on_pivot {
                        continue;
                    }

                    // Price every neighbour of the pivot, in neighbour order, except
                    // those whose finish bound already rules out both rules below.
                    let mut best: Option<(ProcId, f64)> = None;
                    let mut vip_equal: Option<(ProcId, f64)> = None;
                    for &(py, _link) in system.topology.neighbors(pivot) {
                        pricing.evals += 1;
                        let bound = finish_bound_on_neighbor(builder, t, pivot, py, comm);
                        let may_be_better = bound < ft_pivot - EPS
                            && best.map_or(true, |(bp, bf)| {
                                bound < bf - EPS || (bound - bf <= EPS && py < bp)
                            });
                        let may_tie_at_vip = cfg.use_vip_rule
                            && bound - ft_pivot <= EPS
                            && vip_equal.is_none()
                            && vip.is_some_and(|v| builder.proc_of(v) == Some(py));
                        if !may_be_better && !may_tie_at_vip {
                            continue;
                        }
                        let ft_y = estimate_finish_on_neighbor(
                            builder,
                            t,
                            pivot,
                            py,
                            cfg,
                            comm,
                            &mut scratch.migration,
                        );
                        if ft_y < ft_pivot - EPS {
                            let better = best.map_or(true, |(bp, bf)| {
                                ft_y < bf - EPS || ((ft_y - bf).abs() <= EPS && py < bp)
                            });
                            if better {
                                best = Some((py, ft_y));
                            }
                        } else if cfg.use_vip_rule
                            && (ft_y - ft_pivot).abs() <= EPS
                            && vip.is_some_and(|v| builder.proc_of(v) == Some(py))
                            && vip_equal.is_none()
                        {
                            vip_equal = Some((py, ft_y));
                        }
                    }

                    let decision = match (best, vip_equal) {
                        (Some(b), _) => Some((b, false)),
                        (None, Some(v)) => Some((v, true)),
                        (None, None) => None,
                    };
                    let Some(((py, ft_estimate), via_vip)) = decision else {
                        continue;
                    };

                    // Migrate from a checkpoint; if the re-routing produces ordering
                    // decisions that cannot be timed consistently (rare — see DESIGN.md
                    // §5.2), restore the task where it was.  `migrate` changes only `t`
                    // and the routes of its messages, and a failed pass writes nothing,
                    // so the restore is exact.
                    builder.checkpoint_task(t, &mut scratch.checkpoint);
                    migrate(builder, t, pivot, py, cfg, comm, &mut scratch.migration);
                    let retimed = match cfg.retiming {
                        RetimingMode::Incremental => {
                            builder.recompute_times_incremental().map(Some)
                        }
                        RetimingMode::Full => builder.recompute_times().map(|()| None),
                    };
                    let stats = match retimed {
                        Err(_) => {
                            builder.restore_task(&scratch.checkpoint);
                            continue;
                        }
                        Ok(stats) => stats,
                    };
                    if let Some(stats) = stats {
                        trace.retime.absorb(&stats);
                    }
                    sweep_migrations += 1;
                    meter.record_migration();
                    if cfg.record_trace {
                        trace.migrations.push(MigrationRecord {
                            pivot,
                            task: t,
                            from: pivot,
                            to: py,
                            old_finish: ft_pivot,
                            new_finish_estimate: ft_estimate,
                            vip_rule: via_vip,
                        });
                    }
                    let length_now = builder.schedule_length();
                    if progress
                        .on_event(&SolveEvent::MigrationAccepted {
                            task: t,
                            from: pivot,
                            to: py,
                            incumbent: length_now,
                        })
                        .is_break()
                    {
                        stop = StopReason::ObserverStopped;
                        break 'run;
                    }
                    if length_now < *incumbent {
                        *incumbent = length_now;
                        if cfg.record_trace {
                            trace.incumbents.push(IncumbentRecord {
                                migrations: meter.migrations(),
                                length: length_now,
                            });
                        }
                        if progress
                            .on_event(&SolveEvent::IncumbentImproved { length: length_now })
                            .is_break()
                        {
                            stop = StopReason::ObserverStopped;
                            break 'run;
                        }
                    }
                }
            }
            // Later sweeps stop as soon as the schedule is quiescent.
            if sweep_migrations == 0 {
                break;
            }
        }
        stop
    }
}

impl Solver for Bsa {
    fn name(&self) -> &str {
        "BSA"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        options: &SolveOptions,
        progress: &mut dyn Progress,
    ) -> Result<Solution, SolveError> {
        let started = std::time::Instant::now();
        let (schedule, trace) = self.run(problem, options, progress)?;
        let metrics = ScheduleMetrics::compute(&schedule, problem.graph(), problem.system());
        Ok(Solution {
            provenance: Provenance {
                solver: Solver::name(self).to_string(),
                config: format!("{:?}", self.config),
                elapsed: started.elapsed(),
                stop: trace.stop,
                seed: options.seed,
                route_policy: options.route_policy,
                threads: 1,
                warm_start: false,
                delta: None,
            },
            metrics,
            schedule,
            trace,
        })
    }
}

/// Finish time of `t` if it migrated from `pivot` to the neighbour `py` (the paper's
/// `ComputeMFT`/`ComputeFT`), priced read-only: the migration's incoming-message
/// bookings and placement go to a [`Tentative`](bsa_schedule::overlay::Tentative)
/// view over `builder`, which answers every gap query as if they had been made.
///
/// The view runs the same booking steps a committed [`migrate`] runs on the builder,
/// so the returned finish time accounts exactly for link contention among the task's
/// own incoming messages, and equals the finish [`migrate`] gives `t`.  Outgoing
/// messages are skipped: they do not influence `t`'s own finish time.  `scratch` is
/// reused across calls, so pricing allocates nothing in steady state.
pub fn estimate_finish_on_neighbor(
    builder: &ScheduleBuilder<'_>,
    t: TaskId,
    pivot: ProcId,
    py: ProcId,
    cfg: &BsaConfig,
    comm: Option<&CommModel>,
    scratch: &mut MigrationScratch,
) -> f64 {
    let mut view = scratch.overlay.over(builder);
    route_incoming_and_place(&mut view, t, pivot, py, cfg, comm, &mut scratch.remote)
}

/// A lower bound on [`estimate_finish_on_neighbor`]'s finish for `t` moving from
/// `pivot` to `py`: each remote incoming message arrives no earlier than the least of
/// its booking options on free links — via the pivot (`ready at the pivot + hop`), the
/// direct link from its producer, or, where a cost-aware reroute may apply, its
/// producer's finish — and `t` starts no earlier than the latest arrival.  Prices and
/// books nothing.
pub fn finish_bound_on_neighbor(
    builder: &ScheduleBuilder<'_>,
    t: TaskId,
    pivot: ProcId,
    py: ProcId,
    comm: Option<&CommModel>,
) -> f64 {
    let graph = builder.graph();
    let link = joining_link(builder, pivot, py);
    let mut drt = 0.0f64;
    for &eid in graph.in_edges(t) {
        let src = graph.edge(eid).src;
        let src_proc = builder.proc_of(src).expect("all tasks are placed");
        let src_finish = builder.finish_of(src);
        if src_proc == py {
            drt = drt.max(src_finish);
            continue;
        }
        let mut arrival = if src_proc == pivot {
            src_finish + builder.transfer_time(link, eid)
        } else {
            let ready_at_pivot = builder.route(eid).last().map_or(src_finish, |h| h.finish);
            let via_pivot = ready_at_pivot + builder.transfer_time(link, eid);
            match builder.system().topology.link_between(src_proc, py) {
                Some(dl) => via_pivot.min(src_finish + builder.transfer_time(dl, eid)),
                None => via_pivot,
            }
        };
        if comm.is_some_and(|cm| cm.hops(src_proc, py) > 1) {
            arrival = arrival.min(src_finish);
        }
        drt = drt.max(arrival);
    }
    drt + builder.exec_cost(t, py)
}

/// Moves `t` from `pivot` to the neighbouring processor `py`, re-routing its incoming
/// and outgoing messages across the joining link and booking contention-free slots for
/// them.
///
/// Changes nothing but `t` and the routes of its in- and out-edges, so a
/// [`ScheduleBuilder::checkpoint_task`] of `t` taken just before can undo the whole
/// move.  The incoming half and the placement are the steps
/// [`estimate_finish_on_neighbor`] prices, committed.
///
/// With a cost-aware `comm` model, every re-routed message additionally prices a full
/// reroute along the model's route ([`Booking::price_route`], the same
/// [`bsa_schedule::router`] walk the baselines use) and takes it when it arrives
/// strictly earlier.
pub fn migrate(
    builder: &mut ScheduleBuilder<'_>,
    t: TaskId,
    pivot: ProcId,
    py: ProcId,
    cfg: &BsaConfig,
    comm: Option<&CommModel>,
    scratch: &mut MigrationScratch,
) {
    let graph = builder.graph();
    let link = joining_link(builder, pivot, py);
    builder.unplace_task(t);
    let ft = route_incoming_and_place(builder, t, pivot, py, cfg, comm, &mut scratch.remote);

    // --- outgoing messages -------------------------------------------------------------
    for &eid in graph.out_edges(t) {
        let e = graph.edge(eid);
        let dst_proc = builder.proc_of(e.dst).expect("all tasks are placed");
        if dst_proc == py {
            builder.clear_route(eid);
            continue;
        }
        let dur = builder.transfer_time(link, eid);
        let via_pivot_start = builder.earliest_link_slot(link, py, ft, dur);
        if dst_proc == pivot {
            builder.set_route(
                eid,
                vec![MessageHop {
                    link,
                    from: py,
                    to: pivot,
                    start: via_pivot_start,
                    finish: via_pivot_start + dur,
                }],
            );
            continue;
        }
        // Consumer already migrated elsewhere.  Option A: prepend the hop py -> pivot to
        // the existing route (which starts at the pivot).  Option B: a direct link from py
        // to the consumer's processor, rescheduling the message from scratch.  Option C
        // (cost-aware policies): a full reroute along the communication model's route.
        // Compare by estimated arrival (the downstream hop times of option A are re-timed
        // by the caller's recompute, so the estimate sums their durations after the new
        // hop).
        let old_hops = builder.route(eid).to_vec();
        let extend_arrival =
            via_pivot_start + dur + old_hops.iter().map(|h| h.finish - h.start).sum::<f64>();
        let direct = builder
            .system()
            .topology
            .link_between(py, dst_proc)
            .map(|dl| {
                let ddur = builder.transfer_time(dl, eid);
                let s = builder.earliest_link_slot(dl, py, ft, ddur);
                (dl, s, s + ddur)
            });
        let policy_route = comm
            .filter(|cm| cm.hops(py, dst_proc) > 1)
            .map(|cm| (cm, builder.price_route(cm, eid, py, dst_proc, ft)));
        match (direct, policy_route) {
            (_, Some((cm, a)))
                if a < extend_arrival && direct.map_or(true, |(_, _, da)| a < da) =>
            {
                builder.book_route(cm, eid, py, dst_proc, ft);
            }
            (Some((dl, s, a)), _) if a < extend_arrival => {
                builder.set_route(
                    eid,
                    vec![MessageHop {
                        link: dl,
                        from: py,
                        to: dst_proc,
                        start: s,
                        finish: a,
                    }],
                );
            }
            _ => {
                let mut v = vec![MessageHop {
                    link,
                    from: py,
                    to: pivot,
                    start: via_pivot_start,
                    finish: via_pivot_start + dur,
                }];
                v.extend_from_slice(&old_hops);
                builder.set_route(eid, v);
            }
        }
    }
}

/// The link joining `pivot` and its neighbour `py`.
fn joining_link(builder: &ScheduleBuilder<'_>, pivot: ProcId, py: ProcId) -> LinkId {
    builder
        .system()
        .topology
        .link_between(pivot, py)
        .expect("migration target must be a neighbour of the pivot")
}

/// The half of a migration of `t` from `pivot` to `py` that decides `t`'s finish:
/// re-route its incoming messages, then place it on `py`.  Returns its finish.
/// Generic over [`Booking`], so pricing (a tentative view) and committing
/// ([`ScheduleBuilder`]) run the same steps.
fn route_incoming_and_place<'a>(
    book: &mut impl Booking<'a>,
    t: TaskId,
    pivot: ProcId,
    py: ProcId,
    cfg: &BsaConfig,
    comm: Option<&CommModel>,
    remote: &mut Vec<(EdgeId, f64)>,
) -> f64 {
    let graph = book.committed().graph();
    let system = book.committed().system();
    let link = joining_link(book.committed(), pivot, py);

    // Remote incoming messages either start a fresh single-hop route pivot -> py (their
    // producer still sits on the pivot), extend their existing route (which currently
    // terminates at the pivot) by one hop, or — when the producer's processor happens to be
    // directly connected to `py` and that is faster — get rescheduled on the direct link
    // (the paper's "optimized routes" property of incremental message scheduling).
    remote.clear();
    let mut drt = 0.0f64;
    for &eid in graph.in_edges(t) {
        let src = graph.edge(eid).src;
        let b = book.committed();
        let src_proc = b.proc_of(src).expect("all tasks are placed");
        if src_proc == py {
            // Becomes a local message.
            drt = drt.max(b.finish_of(src));
            book.clear_route(eid);
        } else {
            remote.push((eid, b.finish_of(src)));
        }
    }
    // Book the earliest-ready messages first for tighter packing on the shared link.
    remote.sort_by(|a, b| a.1.total_cmp(&b.1));
    for &(eid, src_finish) in remote.iter() {
        let b = book.committed();
        let src_proc = b
            .proc_of(graph.edge(eid).src)
            .expect("all tasks are placed");
        let dur = b.transfer_time(link, eid);
        // Option A: route (or keep routing) through the pivot and add the final hop.
        let ready_at_pivot = if src_proc == pivot {
            src_finish
        } else {
            b.route(eid).last().map_or(src_finish, |h| h.finish)
        };
        let via_pivot_start = book.earliest_link_slot(link, pivot, ready_at_pivot, dur);
        let via_pivot_arrival = via_pivot_start + dur;
        // Option B (only for producers that already migrated off the pivot): a direct link
        // from the producer's processor to py, rescheduling the message from scratch.
        let direct = if src_proc != pivot {
            system.topology.link_between(src_proc, py).map(|dl| {
                let ddur = b.transfer_time(dl, eid);
                let s = book.earliest_link_slot(dl, src_proc, src_finish, ddur);
                (dl, s, s + ddur)
            })
        } else {
            None
        };
        // Option C (cost-aware policies only): a full reroute along the communication
        // model's route from the producer to py, priced with the message's own route
        // hidden.  Skipped when the policy route is the direct link option B already
        // prices.
        let policy_route = comm
            .filter(|cm| cm.hops(src_proc, py) > 1)
            .map(|cm| (cm, book.price_route(cm, eid, src_proc, py, src_finish)));
        let arrival = match (direct, policy_route) {
            (_, Some((cm, a)))
                if a < via_pivot_arrival && direct.map_or(true, |(_, _, da)| a < da) =>
            {
                book.book_route(cm, eid, src_proc, py, src_finish)
            }
            (Some((dl, s, a)), _) if a < via_pivot_arrival => {
                book.clear_route(eid);
                book.push_hop(
                    eid,
                    MessageHop {
                        link: dl,
                        from: src_proc,
                        to: py,
                        start: s,
                        finish: a,
                    },
                );
                a
            }
            _ => {
                if src_proc == pivot {
                    // Producer still on the pivot: a fresh single-hop route.
                    book.clear_route(eid);
                }
                // Otherwise the route already terminates at the pivot: extend it by one
                // hop in place instead of re-booking every existing hop.
                book.push_hop(
                    eid,
                    MessageHop {
                        link,
                        from: pivot,
                        to: py,
                        start: via_pivot_start,
                        finish: via_pivot_arrival,
                    },
                );
                via_pivot_arrival
            }
        };
        drt = drt.max(arrival);
    }

    // --- the task itself ---------------------------------------------------------------
    let b = book.committed();
    let exec = b.exec_cost(t, py);
    let st = if cfg.insertion {
        b.earliest_proc_slot(py, drt, exec)
    } else {
        b.earliest_proc_append(py, drt)
    };
    book.place(t, py, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::{clique, hypercube_for, ring};
    use bsa_network::{CommCostModel, ExecutionCostMatrix, HeterogeneityRange};
    use bsa_schedule::validate::assert_valid;
    use bsa_schedule::ScheduleMetrics;
    use bsa_taskgraph::TaskGraphBuilder;
    use bsa_workloads::paper_example;
    use bsa_workloads::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_setup() -> (TaskGraph, HeterogeneousSystem) {
        let g = paper_example::figure1_graph();
        let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
        let topo = ring(4).unwrap();
        let comm = CommCostModel::homogeneous(&topo);
        (g, HeterogeneousSystem::new(topo, exec, comm))
    }

    /// Unbudgeted solve through the session API, unwrapped to the bare schedule.
    fn solve(bsa: &Bsa, g: &TaskGraph, sys: &HeterogeneousSystem) -> Schedule {
        bsa.solve_unbounded(&Problem::new(g, sys).unwrap())
            .unwrap()
            .schedule
    }

    #[test]
    fn paper_example_selects_p2_and_beats_serialization() {
        let (g, sys) = paper_setup();
        let Solution {
            schedule, trace, ..
        } = Bsa::new(BsaConfig::traced())
            .solve_unbounded(&Problem::new(&g, &sys).unwrap())
            .unwrap();
        assert_valid(&schedule, &g, &sys);
        // First pivot is P2 (zero-based ProcId(1)).
        assert_eq!(trace.first_pivot, Some(ProcId(1)));
        // Serialization length = sum of all execution costs on P2 = 238.
        assert_eq!(trace.serialized_length, Some(238.0));
        // Serial order matches the serialization module (and, up to the documented T6/T7
        // swap, the paper).
        assert_eq!(trace.serial_order.len(), 9);
        // The bubble-up phase must improve substantially; the paper reaches 138.
        assert!(
            schedule.schedule_length() < 238.0,
            "BSA must improve on the serialized schedule"
        );
        assert!(
            schedule.schedule_length() <= 200.0,
            "schedule length {} too far from the paper's 138",
            schedule.schedule_length()
        );
        assert!(trace.num_migrations() > 0);
        assert_eq!(trace.final_length, schedule.schedule_length());
    }

    #[test]
    fn single_task_graph_runs_on_fastest_processor_semantics() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("only", 10.0);
        let g = b.build().unwrap();
        let exec = ExecutionCostMatrix::from_rows(&[vec![10.0, 2.0, 30.0]]);
        let topo = ring(3).unwrap();
        let comm = CommCostModel::homogeneous(&topo);
        let sys = HeterogeneousSystem::new(topo, exec, comm);
        let s = solve(&Bsa::default(), &g, &sys);
        assert_valid(&s, &g, &sys);
        // Pivot selection already places the task on the fastest processor (P1, cost 2).
        assert_eq!(s.schedule_length(), 2.0);
        assert_eq!(s.proc_of(TaskId(0)), ProcId(1));
    }

    #[test]
    fn chain_on_homogeneous_system_stays_serial() {
        // A pure chain cannot benefit from more processors; BSA must not make it worse
        // than the serial length.
        let mut b = TaskGraphBuilder::new();
        let mut prev = b.add_task("t0", 10.0);
        for i in 1..6 {
            let t = b.add_task(format!("t{i}"), 10.0);
            b.add_edge(prev, t, 100.0).unwrap();
            prev = t;
        }
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let s = solve(&Bsa::default(), &g, &sys);
        assert_valid(&s, &g, &sys);
        assert_eq!(s.schedule_length(), 60.0);
    }

    #[test]
    fn independent_tasks_spread_across_processors() {
        // 8 independent tasks + a sink; on a homogeneous clique the schedule must use
        // several processors and finish well before the serial time.
        let mut b = TaskGraphBuilder::new();
        let tasks: Vec<_> = (0..8).map(|i| b.add_task(format!("w{i}"), 100.0)).collect();
        let sink = b.add_task("sink", 1.0);
        for &t in &tasks {
            b.add_edge(t, sink, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, clique(8).unwrap());
        let s = solve(&Bsa::default(), &g, &sys);
        assert_valid(&s, &g, &sys);
        assert!(
            s.schedule_length() < 801.0,
            "schedule length {} should beat the serial 801",
            s.schedule_length()
        );
        assert!(s.processors_used() >= 4);
    }

    #[test]
    fn schedules_are_valid_on_all_paper_topologies_for_random_graphs() {
        let mut rng = StdRng::seed_from_u64(2024);
        let g = bsa_workloads::random_dag::paper_random_graph(60, 1.0, &mut rng).unwrap();
        for topo in [
            ring(8).unwrap(),
            hypercube_for(8).unwrap(),
            clique(8).unwrap(),
            bsa_network::builders::random_connected(8, 2, 5, &mut rng).unwrap(),
        ] {
            let sys = HeterogeneousSystem::generate(
                &g,
                topo,
                HeterogeneityRange::DEFAULT,
                HeterogeneityRange::homogeneous(),
                &mut rng,
            );
            let s = solve(&Bsa::default(), &g, &sys);
            assert_valid(&s, &g, &sys);
            let m = ScheduleMetrics::compute(&s, &g, &sys);
            assert!(m.schedule_length > 0.0);
        }
    }

    #[test]
    fn bsa_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = bsa_workloads::random_dag::paper_random_graph(50, 1.0, &mut rng).unwrap();
        let sys = HeterogeneousSystem::generate(
            &g,
            hypercube_for(8).unwrap(),
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let a = solve(&Bsa::default(), &g, &sys);
        let b = solve(&Bsa::default(), &g, &sys);
        assert_eq!(a.schedule_length(), b.schedule_length());
        for t in g.task_ids() {
            assert_eq!(a.proc_of(t), b.proc_of(t));
            assert_eq!(a.start_of(t), b.start_of(t));
        }
    }

    #[test]
    fn vip_rule_ablation_changes_nothing_or_degrades_rarely_but_stays_valid() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = bsa_workloads::random_dag::paper_random_graph(40, 0.5, &mut rng).unwrap();
        let sys = HeterogeneousSystem::generate(
            &g,
            ring(8).unwrap(),
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let with_vip = solve(&Bsa::default(), &g, &sys);
        let without_vip = solve(&Bsa::new(BsaConfig::without_vip_rule()), &g, &sys);
        assert_valid(&with_vip, &g, &sys);
        assert_valid(&without_vip, &g, &sys);
    }

    #[test]
    fn works_with_a_regular_application_graph_end_to_end() {
        let g = RegularApp::GaussianElimination
            .build_for_size(60, &CostParams::paper(1.0))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sys = HeterogeneousSystem::generate(
            &g,
            hypercube_for(16).unwrap(),
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let Solution {
            schedule: s, trace, ..
        } = Bsa::new(BsaConfig::traced())
            .solve_unbounded(&Problem::new(&g, &sys).unwrap())
            .unwrap();
        assert_valid(&s, &g, &sys);
        assert!(s.schedule_length() <= trace.serialized_length.unwrap());
        assert!(trace.processor_order.len() == 16);
    }
}
