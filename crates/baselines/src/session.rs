//! Shared plumbing for exposing the constructive baselines through the solver-session
//! API (`bsa_schedule::solver`).
//!
//! The baselines are *constructive* list schedulers: until the last task is placed
//! there is no feasible schedule to hand back, so — unlike anytime BSA — a budget or
//! cancellation that fires mid-build aborts the solve with
//! [`SolveError::BudgetExhaustedBeforeFeasible`].  The helpers here implement that
//! contract in one place.

use bsa_schedule::solver::{
    BudgetMeter, Problem, Progress, Provenance, Solution, SolveError, SolveEvent, SolveOptions,
    SolveTrace, StopReason,
};
use bsa_schedule::{Schedule, ScheduleMetrics};

/// Polls the meter; a fired budget aborts the constructive solve.
///
/// The migration budget does not apply here — these solvers have no migration loop,
/// so `SolveOptions::max_migrations` is documented as ignored; treating the meter's
/// zero-migration count as exhausted would reject every solve with a budget of 0.
pub(crate) fn check_budget(meter: &BudgetMeter) -> Result<(), SolveError> {
    match meter.check() {
        None | Some(StopReason::MigrationBudgetExhausted) => Ok(()),
        Some(stop) => Err(SolveError::BudgetExhaustedBeforeFeasible { stop }),
    }
}

/// Streams a placement event.  Returns `true` to keep going; `false` means the
/// observer asked to stop — the caller breaks out of its placement loop and decides
/// between aborting (schedule incomplete) and finishing (the break arrived on the
/// last placement, so a complete schedule exists; see [`observer_outcome`]).
pub(crate) fn emit(progress: &mut dyn Progress, event: SolveEvent) -> bool {
    progress.on_event(&event).is_continue()
}

/// Resolves an observer stop: an incomplete build has nothing feasible to return; a
/// complete one finishes normally, with the stop reason recording who ended it.
pub(crate) fn observer_outcome(complete: bool) -> Result<StopReason, SolveError> {
    if complete {
        Ok(StopReason::ObserverStopped)
    } else {
        Err(SolveError::BudgetExhaustedBeforeFeasible {
            stop: StopReason::ObserverStopped,
        })
    }
}

/// Wraps a finished schedule as a [`Solution`] with metrics, a generic trace and
/// provenance.
pub(crate) fn assemble(
    schedule: Schedule,
    problem: &Problem<'_>,
    options: &SolveOptions,
    meter: &BudgetMeter,
    solver: &str,
    config: String,
    stop: StopReason,
) -> Solution {
    let metrics = ScheduleMetrics::compute(&schedule, problem.graph(), problem.system());
    let trace = SolveTrace {
        solver: solver.to_string(),
        stop,
        final_length: schedule.schedule_length(),
        ..SolveTrace::default()
    };
    Solution {
        provenance: Provenance {
            solver: solver.to_string(),
            config,
            elapsed: meter.elapsed(),
            stop,
            seed: options.seed,
            route_policy: options.route_policy,
            threads: 1,
            warm_start: false,
            delta: None,
        },
        metrics,
        schedule,
        trace,
    }
}
