//! # bsa-schedule
//!
//! Schedule representation and bookkeeping shared by every scheduling algorithm in the
//! BSA reproduction (BSA itself, DLS, HEFT variants, …).
//!
//! The central idea (see DESIGN.md §6) is the separation of **decisions** from **times**:
//!
//! * decisions — which processor runs each task, in which order the tasks of a processor
//!   execute, which link route every inter-processor message takes, and in which order the
//!   messages of a link are transmitted;
//! * times — the start/finish instants of every task and of every message hop.
//!
//! Algorithms manipulate a [`ScheduleBuilder`], which stores both, offers gap-search
//! ("insertion scheduling") helpers on processor and link timelines, and can **recompute**
//! all times from the decisions alone — the operation BSA uses to let tasks "bubble up"
//! after a migration frees a slot.  Two implementations share the contract:
//!
//! * [`ScheduleBuilder::recompute_times`] — full Kahn relaxation over every task and
//!   hop (the oracle, see [`recompute`]);
//! * [`ScheduleBuilder::recompute_times_incremental`] — the hot path (see
//!   [`incremental`]): one flat sweep over the reduced decision graph on persistent
//!   arenas, with the oracle's results and errors.
//!
//! Mutations are transactional ([`txn`]): [`ScheduleBuilder::begin_txn`] /
//! [`ScheduleBuilder::commit`] / [`ScheduleBuilder::rollback`] give an accepted move
//! whose re-timing fails an undo log instead of a whole-builder clone.  Candidates are
//! priced without mutating anything, on a read-only [`overlay::Tentative`] view that
//! answers gap queries as if the candidate's bookings were made ([`overlay`]).  The
//! finished, immutable [`Schedule`] can then be *validated* against the full
//! contention model ([`validate::validate`]) and summarised
//! ([`metrics::ScheduleMetrics`]).
//!
//! Message routing over a pre-computed table goes through [`router`], the one booking
//! code path every [`bsa_network::CommModel`] consumer shares (DLS/HEFT message
//! scheduling, BSA's cost-aware reroutes, warm re-solve repairs); it prices a route
//! through a shared `&ScheduleBuilder`, without a transaction.  Link timelines are direction-aware: on a
//! [`bsa_network::LinkMode::FullDuplex`] topology each link carries one contention
//! timeline per direction, so opposite-direction transfers overlap freely — in the
//! builder, the re-timing kernels, the validator and the Gantt renderer alike.
//!
//! Algorithms are exposed through the **solver-session API** of [`solver`]: a
//! [`Problem`] (graph + system, validated once) is handed to a [`Solver`] together with
//! [`SolveOptions`] (deadline, migration budget, cancellation, route policy) and a
//! streaming [`solver::Progress`] observer, and comes back as a [`Solution`] (schedule +
//! metrics + [`SolveTrace`] + provenance), or as a typed [`SolveError`].  Sessions are
//! the only solving surface.
//!
//! Because [`Problem`] is `Send + Sync` (statically asserted in [`solver`]), one
//! validated instance can be raced by several solver configurations at once:
//! [`portfolio`] runs N entries on OS threads over the shared problem, publishes the
//! best incumbent as it lands, and cancels the losers ([`pool`] supplies the scoped
//! worker pool).  It is the only parallel code path: every other solver runs on the
//! calling thread.
//!
//! Instances that **evolve** — task arrival/completion, link failure/recovery,
//! processor hot-plug — are mutated through [`delta`] (a [`ProblemDelta`] applied with
//! `Problem::apply`, validating only the touched region) and re-solved warm-started
//! from the committed schedule through [`resolve`] (`Solution::resolve`), which evicts
//! only the invalidated placements and repairs them on the transactional builder path
//! (DESIGN.md §11).

pub mod builder;
pub mod delta;
pub mod gantt;
pub mod incremental;
pub mod metrics;
pub mod overlay;
pub mod pool;
pub mod portfolio;
pub mod recompute;
pub mod resolve;
pub mod router;
pub(crate) mod scaffold;
pub mod schedule;
pub mod solver;
pub mod timeline;
pub mod txn;
pub mod validate;

pub use builder::ScheduleBuilder;
pub use delta::{DeltaError, DeltaOp, ProblemDelta, ProblemUpdate};
pub use incremental::RetimeStats;
pub use metrics::ScheduleMetrics;
pub use overlay::{Booking, Overlay, Tentative};
pub use portfolio::{Portfolio, PortfolioEntry};
pub use recompute::RecomputeError;
pub use resolve::ResolveError;
pub use schedule::{MessageHop, MessageRoute, Schedule, TaskPlacement};
pub use solver::{
    BudgetMeter, CancelToken, EventLog, IncumbentRecord, MigrationRecord, NoProgress, Problem,
    Progress, Provenance, RetimeTotals, Solution, SolveError, SolveEvent, SolveOptions, SolveTrace,
    Solver, StopReason, ThreadStats,
};
pub use timeline::Timeline;
pub use txn::Txn;
pub use validate::{validate, ValidationError};

/// Convenient glob-import for downstream crates.
pub mod prelude {
    pub use crate::builder::ScheduleBuilder;
    pub use crate::delta::{DeltaError, DeltaOp, ProblemDelta, ProblemUpdate};
    pub use crate::metrics::ScheduleMetrics;
    pub use crate::portfolio::{Portfolio, PortfolioEntry};
    pub use crate::resolve::ResolveError;
    pub use crate::schedule::{MessageHop, MessageRoute, Schedule, TaskPlacement};
    pub use crate::solver::{
        CancelToken, NoProgress, Problem, Progress, Solution, SolveError, SolveEvent, SolveOptions,
        SolveTrace, Solver, StopReason,
    };
    pub use crate::validate::{validate, ValidationError};
}
