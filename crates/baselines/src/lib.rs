//! # bsa-baselines
//!
//! The comparison schedulers used by the reproduction's experiments:
//!
//! * [`dls::Dls`] — **Dynamic Level Scheduling** (Sih & Lee, IEEE TPDS 1993), the algorithm
//!   the paper compares BSA against.  A greedy list scheduler that repeatedly picks the
//!   (ready task, processor) pair with the largest *dynamic level*
//!   `DL(t,p) = SL(t) − max(DA(t,p), TF(p)) + Δ(t,p)`, routes the task's messages along
//!   the pre-computed table of the solve's routing policy
//!   (`SolveOptions::route_policy` — hop-count by default, cost-aware on request), and
//!   books contention-free link slots.
//! * [`heft::Heft`] — **HEFT** (Topcuoglu et al.) adapted to the contention model: tasks in
//!   descending upward rank, each placed on the processor minimising its earliest finish
//!   time with insertion, messages routed and booked like DLS.  Not part of the paper but a
//!   widely used reference point.
//! * [`heft::ContentionObliviousHeft`] — classic HEFT that ignores links entirely while
//!   making its decisions; the resulting mapping is then *re-simulated* under the full
//!   contention model (ablation A3: the cost of ignoring contention).
//! * [`reference::SerialScheduler`] — everything on the single fastest processor (sanity
//!   lower bound on resource usage, upper bound most schedulers should beat).
//!
//! All baselines implement the session-based [`bsa_schedule::Solver`] trait and
//! produce schedules that pass
//! `bsa_schedule::validate`.  Because they are *constructive* — no feasible schedule
//! exists until the last task is placed — a deadline, migration budget, cancellation or
//! observer break that fires mid-build aborts the solve with
//! [`bsa_schedule::SolveError::BudgetExhaustedBeforeFeasible`] instead of returning an
//! incumbent the way anytime BSA does.

pub mod dls;
pub mod heft;
pub mod reference;
pub(crate) mod session;

pub use dls::Dls;
pub use heft::{ContentionObliviousHeft, Heft};
pub use reference::SerialScheduler;

/// Convenient glob-import.
pub mod prelude {
    pub use crate::dls::Dls;
    pub use crate::heft::{ContentionObliviousHeft, Heft};
    pub use crate::reference::SerialScheduler;
}
