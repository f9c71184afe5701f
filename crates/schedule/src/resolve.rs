//! Warm-started re-solving: adopt a committed schedule across a [`ProblemDelta`].
//!
//! A cold solve after a small change re-derives everything: serialization, pivot
//! sweeps, migration evaluation.  [`Solution::resolve`] instead treats the committed
//! schedule as the incumbent and touches only the **invalidation frontier** of the
//! delta:
//!
//! 1. **Evict** exactly the placements the delta invalidates — tasks on removed
//!    processors, destinations of messages routed over downed links, tasks whose
//!    execution cost changed, destinations of edges whose message cost changed, and
//!    tasks added by the delta — then close the set under successors.  The closure is
//!    what keeps the repair loop safe: every evicted task's successors are also
//!    evicted, so repairs never have to re-route an already-committed downstream
//!    message, and the adopted prefix stays time-consistent (hence the decision graph
//!    stays acyclic).
//! 2. **Adopt** every surviving placement and route verbatim (ids remapped through the
//!    [`ProblemUpdate`] maps).  Adoption re-plays them through the transactional
//!    [`ScheduleBuilder`] mutation path, so the repair loop prices and books against
//!    the adopted state exactly as the cold solvers do.
//! 3. **Repair** the evicted tasks in topological order: each candidate processor is
//!    priced read-only on a [`Tentative`](crate::overlay::Tentative) view that books
//!    the task's incoming messages with [`crate::router::book_incoming`] (the
//!    table-driven solvers' booking loop, so each message sees the ones booked before
//!    it; routes over downed links are recomputed only for the affected pairs) and
//!    places the task in the earliest gap; the best finish wins, ties to the lower
//!    processor id, and the winner is committed through the same code on the builder.
//! 4. **Re-time** once with `recompute_times_incremental`.  Every task is placed by
//!    then, so this is one flat sweep that checks the messages of the tasks steps 2–3
//!    placed or re-routed; it compacts the schedule exactly like a cold solver's final
//!    pass.
//!
//! Budgets behave differently from cold solves, deliberately: a resolve must return a
//! **feasible** schedule, so an exhausted budget (deadline, migration budget,
//! cancellation) never aborts the repair loop — it is recorded as the
//! [`StopReason`] while the repair runs to completion.  In particular a resolve with
//! `max_migrations: Some(0)` returns the warm incumbent repaired into validity, never
//! [`SolveError::BudgetExhaustedBeforeFeasible`].
//!
//! An **empty delta** short-circuits: every placement and route is adopted, no
//! re-timing pass runs, and the returned schedule is bit-identical to the incumbent.

use crate::builder::ScheduleBuilder;
use crate::delta::{DeltaError, ProblemDelta, ProblemUpdate};
use crate::metrics::ScheduleMetrics;
use crate::overlay::{Booking, Overlay};
use crate::router::book_incoming;
use crate::schedule::MessageHop;
use crate::solver::{
    BudgetMeter, MigrationRecord, Problem, Provenance, RetimeTotals, Solution, SolveError,
    SolveOptions, SolveTrace, StopReason,
};
use bsa_network::{CommModel, ProcId};
use bsa_taskgraph::TaskId;
use std::fmt;

/// Why a [`Solution::resolve`] call failed: either the delta itself was invalid, or
/// the repaired schedule could not be assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// The delta was rejected; the problem and incumbent are untouched.
    Delta(DeltaError),
    /// Applying the delta succeeded but repairing the schedule failed.
    Solve(SolveError),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Delta(e) => write!(f, "invalid delta: {e}"),
            ResolveError::Solve(e) => write!(f, "warm-start repair failed: {e}"),
        }
    }
}

impl std::error::Error for ResolveError {}

impl Solution {
    /// Applies `delta` to `problem` and warm-starts a re-solve from this solution's
    /// committed schedule.  Returns the applied [`ProblemUpdate`] (which owns the
    /// mutated graph/system — keep it around to chain further deltas) together with
    /// the repaired [`Solution`].
    ///
    /// `problem` must be the instance this solution was solved on; placements are
    /// carried across by id through the update's maps.
    ///
    /// The returned solution's [`Provenance::warm_start`] is `true` and
    /// [`Provenance::delta`] records the delta-kind summary.
    pub fn resolve(
        &self,
        problem: &Problem<'_>,
        delta: &ProblemDelta,
        options: &SolveOptions,
    ) -> Result<(ProblemUpdate, Solution), ResolveError> {
        let update = problem.apply(delta).map_err(ResolveError::Delta)?;
        let solution = self
            .resolve_onto(&update, options)
            .map_err(ResolveError::Solve)?;
        Ok((update, solution))
    }

    /// Warm-starts a re-solve onto an already-applied [`ProblemUpdate`] (the
    /// two-phase form of [`Solution::resolve`], useful when one update is shared by
    /// several resolve attempts).
    pub fn resolve_onto(
        &self,
        update: &ProblemUpdate,
        options: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let mut meter = BudgetMeter::start(options);
        let graph = update.graph();
        let system = update.system();
        let problem = update.problem();
        let mut b = problem.builder();
        let n = graph.num_tasks();

        // ----- 1. The invalidation frontier -------------------------------------
        let mut evicted = vec![false; n];
        for &t in update.dirty_tasks() {
            evicted[t.index()] = true;
        }
        for &e in update.dirty_edges() {
            evicted[graph.edge(e).dst.index()] = true;
        }
        for t in graph.task_ids() {
            if let Some(t_old) = update.old_task_of(t) {
                let p_old = self.schedule.proc_of(t_old);
                if update.proc_map(p_old).is_none() {
                    evicted[t.index()] = true;
                }
            }
        }
        // Messages previously routed over a link that is now down invalidate their
        // consumer — only those pairs are re-routed, everything else keeps its route.
        for e in graph.edge_ids() {
            if let Some(e_old) = update.old_edge_of(e) {
                let stale = self
                    .schedule
                    .route(e_old)
                    .hops
                    .iter()
                    .any(|h| update.link_map(h.link).is_none());
                if stale {
                    evicted[graph.edge(e).dst.index()] = true;
                }
            }
        }
        // Successor closure: repairs may move a task, which moves every message it
        // produces, so the downstream cone must be re-placed too.
        let mut stack: Vec<TaskId> = graph.task_ids().filter(|t| evicted[t.index()]).collect();
        while let Some(t) = stack.pop() {
            for s in graph.successors(t) {
                if !evicted[s.index()] {
                    evicted[s.index()] = true;
                    stack.push(s);
                }
            }
        }

        // ----- 2. Adoption -------------------------------------------------------
        for t in graph.task_ids() {
            if evicted[t.index()] {
                continue;
            }
            let t_old = update
                .old_task_of(t)
                .expect("tasks added by the delta are always evicted");
            let p = update
                .proc_map(self.schedule.proc_of(t_old))
                .expect("tasks on removed processors are always evicted");
            // Execution costs of surviving tasks on surviving processors are
            // unchanged (cost changes evict), so the old start reproduces the old
            // finish exactly.
            b.place_task(t, p, self.schedule.start_of(t_old));
        }
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            if evicted[edge.dst.index()] {
                // The consumer will be repaired; its incoming messages are re-routed
                // then.  (An evicted producer implies an evicted consumer, by
                // closure.)
                continue;
            }
            debug_assert!(
                !evicted[edge.src.index()],
                "successor closure: evicted producer implies evicted consumer"
            );
            let e_old = update
                .old_edge_of(e)
                .expect("edges added by the delta target evicted tasks");
            let hops: Vec<MessageHop> = self
                .schedule
                .route(e_old)
                .hops
                .iter()
                .map(|h| MessageHop {
                    link: update
                        .link_map(h.link)
                        .expect("routes over downed links evict their consumer"),
                    from: update
                        .proc_map(h.from)
                        .expect("links incident to removed processors are down"),
                    to: update
                        .proc_map(h.to)
                        .expect("links incident to removed processors are down"),
                    start: h.start,
                    finish: h.finish,
                })
                .collect();
            if !hops.is_empty() {
                b.set_route(e, hops);
            }
        }

        // ----- 3. Repair in topological order -----------------------------------
        let repair_order = repair_topo_order(graph, &evicted);
        let comm = options.comm_model(system);
        let mut stop = StopReason::Converged;
        let mut budget_hit = false;
        let mut migrations = Vec::with_capacity(repair_order.len());
        let mut overlay = Overlay::default();
        for &t in &repair_order {
            // Budgets never abort a repair (a partial repair is not a feasible
            // answer); the first exhaustion is recorded as the stop reason.
            if !budget_hit {
                if let Some(reason) = meter.check() {
                    stop = reason;
                    budget_hit = true;
                }
            }
            let mut best_finish = f64::INFINITY;
            let mut best_proc = None;
            for p in system.topology.proc_ids() {
                let finish = price_repair(&b, &mut overlay, &comm, t, p);
                if finish < best_finish {
                    best_finish = finish;
                    best_proc = Some(p);
                }
            }
            let p = best_proc.expect("systems have at least one processor");
            let finish = book_and_place(&mut b, &comm, t, p);
            meter.record_migration();
            let (from, old_finish) = match update.old_task_of(t) {
                Some(t_old) => (
                    update.proc_map(self.schedule.proc_of(t_old)).unwrap_or(p),
                    self.schedule.finish_of(t_old),
                ),
                None => (p, 0.0),
            };
            migrations.push(MigrationRecord {
                pivot: p,
                task: t,
                from,
                to: p,
                old_finish,
                new_finish_estimate: finish,
                vip_rule: false,
            });
        }
        if !budget_hit {
            if let Some(reason) = meter.check() {
                stop = reason;
            }
        }

        // ----- 4. Re-time the repaired schedule ---------------------------------
        let mut retime = RetimeTotals::default();
        if !repair_order.is_empty() {
            let stats = b
                .recompute_times_incremental()
                .map_err(|e| SolveError::retiming("warm-start resolve", e))?;
            retime.absorb(&stats);
        }

        // ----- Assemble ----------------------------------------------------------
        let schedule = b.finish(self.schedule.algorithm.clone())?;
        let metrics = ScheduleMetrics::compute(&schedule, graph, system);
        let final_length = schedule.schedule_length();
        let trace = SolveTrace {
            solver: self.provenance.solver.clone(),
            stop,
            final_length,
            migrations,
            retime,
            ..SolveTrace::default()
        };
        let provenance = Provenance {
            solver: self.provenance.solver.clone(),
            config: format!("resolve({})", update.summary()),
            elapsed: meter.elapsed(),
            stop,
            seed: options.seed,
            route_policy: options.route_policy,
            threads: 1,
            warm_start: true,
            delta: Some(update.summary().to_string()),
        };
        Ok(Solution {
            schedule,
            metrics,
            trace,
            provenance,
        })
    }
}

/// The graph's deterministic topological order, restricted to the evicted tasks.
fn repair_topo_order(graph: &bsa_taskgraph::TaskGraph, evicted: &[bool]) -> Vec<TaskId> {
    bsa_taskgraph::TopologicalOrder::compute(graph)
        .iter()
        .filter(|t| evicted[t.index()])
        .collect()
}

/// The finish time the unplaced task `t` would get if repaired onto `p`: every
/// incoming message booked (producers are placed — adopted or repaired earlier in
/// topological order), then `t` placed in the earliest gap.  Priced read-only on a
/// tentative view over `builder`, reusing `overlay`'s buffers, so it allocates nothing
/// in steady state; committing the same repair gives the same finish.
pub fn price_repair(
    builder: &ScheduleBuilder<'_>,
    overlay: &mut Overlay,
    comm: &CommModel,
    t: TaskId,
    p: ProcId,
) -> f64 {
    book_and_place(&mut overlay.over(builder), comm, t, p)
}

/// Books every incoming message of `t`, places `t` in the earliest gap on `p`, and
/// returns its finish time: pricing on a tentative view, committing on the builder.
fn book_and_place<'a>(book: &mut impl Booking<'a>, comm: &CommModel, t: TaskId, p: ProcId) -> f64 {
    let ready = book_incoming(book, comm, t, p);
    let b = book.committed();
    let start = b.earliest_proc_slot(p, ready, b.exec_cost(t, p));
    book.place(t, p, start)
}
