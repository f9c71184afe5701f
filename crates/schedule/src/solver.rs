//! The solver-session API: *anytime* scheduling with budgets, cancellation and
//! streaming progress.
//!
//! The original entry point of this workspace was a blocking, all-or-nothing
//! `Scheduler::schedule` call (retired in favour of this API).  Long-running
//! irregular computations are served in
//! practice as **anytime** computations: the caller sets a budget (wall-clock deadline,
//! iteration count, a cancellation token), observes progress as it streams in, and
//! receives the current *incumbent* when the budget runs out.  BSA is naturally anytime
//! — after serial injection it always holds a **valid** schedule, and each accepted
//! migration improves the migrating task's finish time (the global makespan usually
//! shrinks too, though a single migration can transiently grow it; validity, not
//! monotonicity, is the contract — see DESIGN.md §9) — so the session API exposes
//! exactly that:
//!
//! * [`Problem`] — a task graph + target system pair, validated **once** and shareable
//!   across any number of solvers and solve calls;
//! * [`SolveOptions`] — per-solve budgets: wall-clock [`deadline`](SolveOptions::deadline),
//!   [`migration budget`](SolveOptions::max_migrations), a cooperative [`CancelToken`],
//!   and an optional RNG seed recorded in the provenance;
//! * [`Progress`] — a streaming observer invoked on serialization, each pivot phase,
//!   each accepted migration and each incumbent improvement; every callback returns a
//!   [`ControlFlow`] so the observer itself can stop the solve;
//! * [`Solution`] — the schedule plus [`ScheduleMetrics`], the [`SolveTrace`] every
//!   solver fills (rendered for humans by [`SolveTrace::summary`]) and [`Provenance`]
//!   (who solved, with which configuration, for how long, and *why the solve
//!   stopped*);
//! * [`SolveError`] — a typed, `#[non_exhaustive]` error enum.
//!
//! Every algorithm implements [`Solver`].  The pre-session `Scheduler` trait and its
//! blanket shim were retired once the last in-tree caller migrated; the session API is
//! the only public solving surface.
//!
//! `Problem`, [`CancelToken`] and the underlying network tables are `Send + Sync`
//! (statically asserted below), so one validated problem can be shared by racing
//! solver threads — the contract [`crate::portfolio`] is built on.

use crate::builder::ScheduleBuilder;
use crate::metrics::ScheduleMetrics;
use crate::recompute::RecomputeError;
use crate::schedule::Schedule;
use bsa_network::{HeterogeneousSystem, ProcId, RoutePolicy};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------------
// Problem
// ---------------------------------------------------------------------------------

/// A scheduling problem: one task graph to be mapped onto one heterogeneous system.
///
/// Construction validates the pair once — cost-matrix shape, non-empty graph, connected
/// topology — so the validation cost is paid a single time even when the same instance
/// is solved by many solvers (an experiment sweep) or many times (an anytime service
/// re-solving under different budgets).  The type is `Copy`: it only borrows the graph
/// and system.
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    graph: &'a TaskGraph,
    system: &'a HeterogeneousSystem,
}

impl<'a> Problem<'a> {
    /// Validates `graph` against `system` and wraps them as a shareable problem.
    pub fn new(graph: &'a TaskGraph, system: &'a HeterogeneousSystem) -> Result<Self, SolveError> {
        if graph.num_tasks() == 0 {
            // Unreachable through `TaskGraphBuilder` (which rejects empty graphs), but
            // the type system does not prove it for other graph sources.
            return Err(SolveError::EmptyGraph);
        }
        system
            .validate_for(graph)
            .map_err(|detail| SolveError::Mismatch { detail })?;
        if !system.topology.is_connected() {
            return Err(SolveError::DisconnectedSystem {
                processors: system.num_processors(),
                reachable: system.topology.reachable_from(ProcId(0)),
            });
        }
        Ok(Problem { graph, system })
    }

    /// Wraps an already-validated pair without re-checking.  Used by
    /// [`crate::delta::ProblemUpdate::problem`]: delta application re-establishes every
    /// invariant incrementally, so the whole-instance checks would be redundant.
    pub(crate) fn prevalidated(graph: &'a TaskGraph, system: &'a HeterogeneousSystem) -> Self {
        debug_assert!(graph.num_tasks() > 0);
        debug_assert!(system.validate_for(graph).is_ok());
        debug_assert!(system.topology.is_connected());
        Problem { graph, system }
    }

    /// Wraps a pair that is *known* to have passed [`Problem::new`] before, skipping
    /// re-validation.  This is the content-addressed cache hook: a service that keys
    /// validated instances by [`Problem::fingerprint`] pays validation once per
    /// distinct problem, then re-materialises the `Problem` view for free on every
    /// cache hit.  Checked in debug builds; passing a never-validated pair is a
    /// contract violation that invalidates solver behaviour downstream.
    pub fn assume_validated(graph: &'a TaskGraph, system: &'a HeterogeneousSystem) -> Self {
        Self::prevalidated(graph, system)
    }

    /// Stable structural fingerprint of the whole instance: the task graph's
    /// scheduling-relevant content ([`TaskGraph::fingerprint`]) combined with the
    /// target system's ([`HeterogeneousSystem::fingerprint`]).  Equal fingerprints ⇒
    /// structurally identical problems (up to 64-bit collision odds and the
    /// documented name-exclusions), so the value serves as a content-hash cache key
    /// for validated instances across processes and machines.
    pub fn fingerprint(&self) -> u64 {
        bsa_taskgraph::fingerprint::combine(self.graph.fingerprint(), self.system.fingerprint())
    }

    /// Content-hash cache key of the routing table this problem's system builds for
    /// `policy` — see [`HeterogeneousSystem::routing_fingerprint`].  Distinct
    /// policies key distinct tables (E-cube resolving to its effective fallback), so
    /// a cache keyed by this value can share one table across every problem that
    /// embeds the same network.
    pub fn routing_key(&self, policy: RoutePolicy) -> u64 {
        self.system.routing_fingerprint(policy)
    }

    /// The task graph.
    pub fn graph(&self) -> &'a TaskGraph {
        self.graph
    }

    /// The target system.
    pub fn system(&self) -> &'a HeterogeneousSystem {
        self.system
    }

    /// An empty [`ScheduleBuilder`] for this problem.  Skips the graph/system
    /// re-validation that [`ScheduleBuilder::new`] performs — the problem was validated
    /// at construction.
    pub fn builder(&self) -> ScheduleBuilder<'a> {
        ScheduleBuilder::new_prevalidated(self.graph, self.system)
    }
}

// The dynamic re-scheduling API lives in the sibling `delta` / `resolve` modules but
// belongs to the solver-session surface, so it is re-exported here.
pub use crate::delta::{DeltaError, DeltaOp, ProblemDelta, ProblemUpdate};
pub use crate::resolve::ResolveError;

// ---------------------------------------------------------------------------------
// Options, cancellation, budget metering
// ---------------------------------------------------------------------------------

/// A cooperative cancellation token shared between a solve and its controller.
///
/// Cloning is cheap (an `Arc`); any clone may [`cancel`](CancelToken::cancel) and all
/// clones observe it.  Solvers poll the token between steps, so cancellation stops the
/// solve at the next step boundary, never mid-mutation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.  Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Budgets and knobs of one solve call.  The default is *unlimited*: no deadline, no
/// iteration budget, no cancellation — byte-for-byte the legacy blocking behaviour.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Wall-clock budget, measured from the moment `solve` is entered.  Anytime solvers
    /// (BSA) return their current incumbent when it expires; constructive solvers (DLS,
    /// HEFT) fail with [`SolveError::BudgetExhaustedBeforeFeasible`] because a partial
    /// list schedule is not a feasible answer.
    pub deadline: Option<Duration>,
    /// Maximum number of accepted migrations (BSA's unit of iteration).  `Some(0)`
    /// returns the serialized schedule untouched.  Solvers without a migration loop
    /// ignore this budget.
    pub max_migrations: Option<u64>,
    /// Cooperative cancellation, polled between steps.
    pub cancel: Option<CancelToken>,
    /// RNG seed recorded in [`Provenance::seed`].  None of the bundled solvers draw
    /// random numbers today; the seed exists so randomized solvers added later share
    /// the provenance contract from day one.
    pub seed: Option<u64>,
    /// How inter-processor messages are routed (see [`bsa_network::comm`]).  The
    /// table-driven solvers (DLS, both HEFTs) build their
    /// [`CommModel`](bsa_network::CommModel) from this; BSA's migration loop consults
    /// a cost-aware model for full reroutes whenever the policy is not the default.
    /// The default, [`RoutePolicy::ShortestHop`], reproduces the pre-pluggable
    /// behaviour bit for bit.
    pub route_policy: RoutePolicy,
    /// Pre-built routing table to reuse instead of running the all-pairs BFS/Dijkstra
    /// at solve entry.  `None` (the default) builds a fresh table; `Some` is the
    /// artifact-cache fast path — the table **must** have been built over this
    /// problem's topology and link costs for the effective form of
    /// [`route_policy`](SolveOptions::route_policy) (key it by
    /// [`Problem::routing_key`]).  Tables for a different network shape are rejected
    /// by [`SolveOptions::comm_model`]'s shape check and rebuilt; the routing result
    /// is identical either way — only the setup cost changes.
    pub routing: Option<Arc<bsa_network::RoutingTable>>,
}

impl SolveOptions {
    /// Alias for [`SolveOptions::default`]: no budget of any kind.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the migration budget.
    pub fn with_migration_budget(mut self, migrations: u64) -> Self {
        self.max_migrations = Some(migrations);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Records an RNG seed in the provenance.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the message-routing policy.
    pub fn with_route_policy(mut self, policy: RoutePolicy) -> Self {
        self.route_policy = policy;
        self
    }

    /// Attaches a pre-built routing table (see [`SolveOptions::routing`]).
    pub fn with_routing(mut self, table: Arc<bsa_network::RoutingTable>) -> Self {
        self.routing = Some(table);
        self
    }

    /// The communication model every table-driven solver should use: the cached
    /// table of [`SolveOptions::routing`] when one is attached and plausibly matches
    /// this system (same processor count and same effective policy), otherwise a
    /// freshly built table.  The shape check is a cheap guard against wiring the
    /// wrong artifact — content-hash keyed caches never trip it.
    pub fn comm_model(&self, system: &HeterogeneousSystem) -> bsa_network::CommModel {
        let policy = self.route_policy;
        if let Some(table) = &self.routing {
            let effective = match policy {
                RoutePolicy::ECube if !system.topology.is_hypercube() => RoutePolicy::ShortestHop,
                p => p,
            };
            if table.num_processors() == system.num_processors() && table.policy() == effective {
                return bsa_network::CommModel::from_shared(policy, Arc::clone(table));
            }
        }
        system.comm_model(policy)
    }

    /// Whether no budget, deadline or cancellation is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_migrations.is_none() && self.cancel.is_none()
    }
}

/// Why a solve returned when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StopReason {
    /// The algorithm ran to natural quiescence — the result is the same schedule the
    /// unbudgeted legacy path produces.
    #[default]
    Converged,
    /// [`SolveOptions::deadline`] expired.
    DeadlineExpired,
    /// [`SolveOptions::max_migrations`] was consumed.
    MigrationBudgetExhausted,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// A [`Progress`] observer returned [`ControlFlow::Break`].
    ObserverStopped,
}

impl StopReason {
    /// `snake_case` label used in JSON artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::DeadlineExpired => "deadline_expired",
            StopReason::MigrationBudgetExhausted => "migration_budget_exhausted",
            StopReason::Cancelled => "cancelled",
            StopReason::ObserverStopped => "observer_stopped",
        }
    }

    /// Whether the solve stopped before natural convergence.
    pub fn stopped_early(self) -> bool {
        self != StopReason::Converged
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Run-time budget accounting for one solve: started clock, deadline, migration count,
/// cancellation.  Solvers create one from the [`SolveOptions`] at entry and poll
/// [`BudgetMeter::check`] between steps.
///
/// The unbudgeted fast path is free: when the options carry no budget at all,
/// [`check`](BudgetMeter::check) returns `None` without reading the clock, so an
/// unlimited solve performs exactly the work of the legacy blocking path.
#[derive(Debug)]
pub struct BudgetMeter {
    started: Instant,
    deadline: Option<Instant>,
    max_migrations: Option<u64>,
    migrations: u64,
    cancel: Option<CancelToken>,
    bounded: bool,
}

impl BudgetMeter {
    /// Starts the clock for one solve.
    pub fn start(options: &SolveOptions) -> Self {
        let started = Instant::now();
        BudgetMeter {
            started,
            // A deadline too large to represent as an instant (e.g. `Duration::MAX`
            // as "effectively unlimited") saturates to no deadline instead of
            // panicking on the addition.
            deadline: options.deadline.and_then(|d| started.checked_add(d)),
            max_migrations: options.max_migrations,
            migrations: 0,
            cancel: options.cancel.clone(),
            bounded: !options.is_unlimited(),
        }
    }

    /// Wall-clock time since the solve started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Accepted migrations recorded so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Records one accepted migration.
    pub fn record_migration(&mut self) {
        self.migrations += 1;
    }

    /// Returns the reason the solve must stop now, or `None` to continue.  Polled
    /// between steps; precedence is cancellation, then deadline, then the migration
    /// budget.
    pub fn check(&self) -> Option<StopReason> {
        if !self.bounded {
            return None;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::DeadlineExpired);
        }
        if self.max_migrations.is_some_and(|m| self.migrations >= m) {
            return Some(StopReason::MigrationBudgetExhausted);
        }
        None
    }
}

// ---------------------------------------------------------------------------------
// Progress observation
// ---------------------------------------------------------------------------------

/// One step of a running solve, streamed to the [`Progress`] observer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SolveEvent {
    /// BSA finished injecting the serial schedule onto the first pivot; a valid
    /// incumbent of this length now exists.
    Serialized {
        /// Length of the serialized schedule.
        length: f64,
    },
    /// BSA began the phase of the given pivot processor.
    PivotStarted {
        /// The pivot whose tasks are now considered for migration.
        pivot: ProcId,
        /// Zero-based sweep index over the processor list.
        sweep: usize,
    },
    /// BSA committed a migration.
    MigrationAccepted {
        /// The migrated task.
        task: TaskId,
        /// Processor the task left.
        from: ProcId,
        /// Processor the task moved to.
        to: ProcId,
        /// Schedule length of the current committed schedule after the migration
        /// (what a budget stop at this point would return; not necessarily the
        /// minimum seen so far).
        incumbent: f64,
    },
    /// The incumbent schedule length strictly improved.
    IncumbentImproved {
        /// The new best schedule length.
        length: f64,
    },
    /// A constructive solver (DLS, HEFT, serial) placed a task.
    TaskPlaced {
        /// The placed task.
        task: TaskId,
        /// The processor it was placed on.
        proc: ProcId,
        /// The task's finish time at placement.
        finish: f64,
    },
    /// A racing portfolio entry finished its solve (see [`crate::portfolio`]).
    /// Emitted once per entry, winners and losers alike, so an observer can tell when
    /// a configuration's event stream has ended; after the winner's `ConfigFinished`
    /// no further per-step events from losing configurations are forwarded.
    ConfigFinished {
        /// Zero-based index of the entry in the portfolio's roster.
        config: usize,
        /// Final incumbent length of the entry (`None` when the entry produced no
        /// feasible schedule, e.g. a cancelled constructive solver).
        length: Option<f64>,
        /// Why the entry's solve stopped.
        stop: StopReason,
    },
}

/// Streaming observer of a running solve.
///
/// Return [`ControlFlow::Break`] from [`on_event`](Progress::on_event) to stop the
/// solve: an anytime solver (BSA) then returns its current incumbent with
/// [`StopReason::ObserverStopped`]; a constructive solver stopped mid-build fails
/// with [`SolveError::BudgetExhaustedBeforeFeasible`] (a break on its *last*
/// placement event still returns the completed schedule).
///
/// Closures observe too: any `FnMut(&SolveEvent) -> ControlFlow<()>` implements
/// `Progress`.
pub trait Progress {
    /// Called at every step of the solve.
    fn on_event(&mut self, event: &SolveEvent) -> ControlFlow<()>;
}

impl<F: FnMut(&SolveEvent) -> ControlFlow<()>> Progress for F {
    fn on_event(&mut self, event: &SolveEvent) -> ControlFlow<()> {
        self(event)
    }
}

/// The null observer: ignores every event and never stops the solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl Progress for NoProgress {
    fn on_event(&mut self, _event: &SolveEvent) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// An observer that records every event and never stops the solve.  Useful in tests
/// and for offline inspection of a solve's step stream.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Every event in arrival order.
    pub events: Vec<SolveEvent>,
}

impl Progress for EventLog {
    fn on_event(&mut self, event: &SolveEvent) -> ControlFlow<()> {
        self.events.push(*event);
        ControlFlow::Continue(())
    }
}

// ---------------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------------

/// Typed solve failure, marked `#[non_exhaustive]` so variants can be added without a
/// breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The task graph has no tasks.
    EmptyGraph,
    /// The system's cost matrix does not match the task graph.
    Mismatch {
        /// What does not line up.
        detail: String,
    },
    /// The topology is not connected: messages cannot be routed between components.
    DisconnectedSystem {
        /// Processors in the topology.
        processors: usize,
        /// Processors in the first processor's component (the BFS starts at
        /// `ProcId(0)`).
        reachable: usize,
    },
    /// The budget (or cancellation, or the observer) fired before the solver held any
    /// feasible schedule.  Anytime solvers never report this after serialization;
    /// constructive list schedulers report it whenever they are stopped mid-build.
    BudgetExhaustedBeforeFeasible {
        /// Which budget fired.
        stop: StopReason,
    },
    /// A task was never placed on a processor (internal inconsistency).
    UnplacedTask {
        /// The unplaced task.
        task: TaskId,
    },
    /// An edge crosses processors but carries no route (internal inconsistency).
    MissingRoute {
        /// The routeless edge.
        edge: EdgeId,
    },
    /// The ordering decisions form a cycle and cannot be timed.
    CyclicDecisions {
        /// Which phase produced the cyclic decisions.
        context: &'static str,
    },
    /// The solver cannot run as configured (e.g. a portfolio with no entries).
    InvalidOptions {
        /// Which knob is invalid and why.
        detail: String,
    },
    /// Any other internal inconsistency.
    Internal {
        /// Human-readable description.
        detail: String,
    },
}

impl SolveError {
    /// Wraps a re-timing failure, preserving its typed cause.
    pub fn retiming(context: &'static str, source: RecomputeError) -> Self {
        match source {
            RecomputeError::UnplacedTask(task) => SolveError::UnplacedTask { task },
            RecomputeError::MissingRoute(edge) => SolveError::MissingRoute { edge },
            RecomputeError::CyclicDecisions => SolveError::CyclicDecisions { context },
        }
    }

    /// An [`SolveError::Internal`] for a panic caught while `who` ran, carrying the
    /// panic's message when its payload is a string.
    pub fn panicked(who: &str, payload: &(dyn std::any::Any + Send)) -> Self {
        let cause = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        SolveError::Internal {
            detail: format!("{who} panicked: {cause}"),
        }
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::EmptyGraph => write!(f, "the task graph has no tasks"),
            SolveError::Mismatch { detail } => write!(f, "graph/system mismatch: {detail}"),
            SolveError::DisconnectedSystem {
                processors,
                reachable,
            } => write!(
                f,
                "the topology is disconnected: {reachable} of {processors} processors \
                 reachable from the first processor"
            ),
            SolveError::BudgetExhaustedBeforeFeasible { stop } => write!(
                f,
                "solve stopped ({stop}) before any feasible schedule existed"
            ),
            SolveError::UnplacedTask { task } => {
                write!(f, "task {task} was never placed on a processor")
            }
            SolveError::MissingRoute { edge } => {
                write!(f, "edge {edge} crosses processors but has no route")
            }
            SolveError::CyclicDecisions { context } => {
                write!(f, "ordering decisions form a cycle ({context})")
            }
            SolveError::InvalidOptions { detail } => write!(f, "invalid solve options: {detail}"),
            SolveError::Internal { detail } => write!(f, "internal scheduling error: {detail}"),
        }
    }
}

impl std::error::Error for SolveError {}

// ---------------------------------------------------------------------------------
// Traces and provenance
// ---------------------------------------------------------------------------------

/// One accepted task migration (BSA's unit of progress).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The pivot processor whose phase performed the migration.
    pub pivot: ProcId,
    /// The migrated task.
    pub task: TaskId,
    /// Processor the task left.
    pub from: ProcId,
    /// Processor the task moved to.
    pub to: ProcId,
    /// Finish time of the task before the migration.
    pub old_finish: f64,
    /// Estimated finish time on the destination at decision time.
    pub new_finish_estimate: f64,
    /// `true` when the migration was taken because of the VIP co-location rule (equal
    /// finish time) rather than a strict improvement.
    pub vip_rule: bool,
}

/// Aggregated phase counters of every re-timing pass in a run (dirty tasks → relaxed
/// nodes and edges → changed nodes; see [`crate::RetimeStats`]).  Surfaced so benches
/// and the worked-example binaries can report how much decision-graph work the
/// incremental sweep actually did, instead of inferring it from wall time alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RetimeTotals {
    /// Re-timing passes performed after accepted migrations.
    pub passes: usize,
    /// Passes that ran the flat sweep over the whole reduced decision graph: every
    /// pass, since it is the only incremental kernel.  Kept, like the always-0 fields
    /// below, so the trace JSON, the daemon's `status.retime` object and bsabench keep
    /// their keys.
    pub fallbacks: usize,
    /// Tasks dirty when each pass started, summed over all passes.
    pub seed_nodes: usize,
    /// Decision-graph nodes relaxed: the whole graph per pass.
    pub cone_nodes: usize,
    /// Dependency edges relaxed by the Kahn passes.
    pub cone_edges: usize,
    /// Nodes whose start/finish actually moved.
    pub changed_nodes: usize,
    /// Always 0: the flat sweep propagates no deltas.
    pub delta_passes: usize,
    /// Always 0, like [`RetimeTotals::delta_passes`].
    pub delta_evals: usize,
    /// Every pass, the same count as [`RetimeTotals::fallbacks`]; the other two
    /// `flat_by_*` fields stay 0.
    pub flat_by_seeds: usize,
    /// Always 0; see [`RetimeTotals::flat_by_seeds`].
    pub flat_by_model: usize,
    /// Always 0; see [`RetimeTotals::flat_by_seeds`].
    pub flat_by_cap: usize,
}

impl RetimeTotals {
    /// Folds one pass's stats into the totals.
    pub fn absorb(&mut self, s: &crate::RetimeStats) {
        self.passes += 1;
        self.fallbacks += 1;
        self.flat_by_seeds += 1;
        self.seed_nodes += s.seed_nodes;
        self.cone_nodes += s.cone_nodes;
        self.cone_edges += s.cone_edges;
        self.changed_nodes += s.changed_nodes;
    }

    /// Folds another total into this one (e.g. per-run traces into a daemon-lifetime
    /// aggregate).
    pub fn merge(&mut self, o: &RetimeTotals) {
        self.passes += o.passes;
        self.fallbacks += o.fallbacks;
        self.seed_nodes += o.seed_nodes;
        self.cone_nodes += o.cone_nodes;
        self.cone_edges += o.cone_edges;
        self.changed_nodes += o.changed_nodes;
        self.delta_passes += o.delta_passes;
        self.delta_evals += o.delta_evals;
        self.flat_by_seeds += o.flat_by_seeds;
        self.flat_by_model += o.flat_by_model;
        self.flat_by_cap += o.flat_by_cap;
    }

    /// Mean nodes relaxed per pass (0 when no pass ran).
    pub fn mean_cone(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.cone_nodes as f64 / self.passes as f64
        }
    }
}

/// BSA's candidate-pricing work, the one entry of [`SolveTrace::thread_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Candidate evaluations performed: one per neighbour priced on a read-only
    /// tentative view (see [`crate::overlay`]).
    pub evals: u64,
}

/// One incumbent improvement: after `migrations` accepted migrations the schedule
/// length dropped to `length`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncumbentRecord {
    /// Accepted migrations performed when the improvement landed.
    pub migrations: u64,
    /// The improved schedule length.
    pub length: f64,
}

/// Decision trace of one solve.
///
/// Constructive solvers fill only the generic fields (`solver`, `final_length`,
/// `stop`); BSA fills everything.  Detailed per-migration records and incumbent
/// history are captured only when the solver's configuration asks for tracing
/// (`BsaConfig::record_trace`), keeping the untraced hot path allocation-free.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SolveTrace {
    /// Name of the solver that produced the trace.
    pub solver: String,
    /// Why the solve returned.
    pub stop: StopReason,
    /// Critical-path length of the graph under each processor's actual execution costs
    /// (BSA's pivot-selection input).
    pub cp_lengths: Vec<f64>,
    /// The selected first pivot.
    pub first_pivot: Option<ProcId>,
    /// The serial order injected onto the first pivot.
    pub serial_order: Vec<TaskId>,
    /// The breadth-first pivot visiting order.
    pub processor_order: Vec<ProcId>,
    /// Every accepted migration in chronological order (when tracing is on).
    pub migrations: Vec<MigrationRecord>,
    /// Schedule length right after serialization (`None` for solvers that do not
    /// serialize).
    pub serialized_length: Option<f64>,
    /// Final schedule length.
    pub final_length: f64,
    /// Aggregated re-timing phase counters of the committed migrations (incremental
    /// kernel diagnostics).
    pub retime: RetimeTotals,
    /// Incumbent improvements in chronological order (when tracing is on).
    pub incumbents: Vec<IncumbentRecord>,
    /// BSA records one entry with its candidate evaluations; solvers without a
    /// migration loop leave it empty.  A list, not a scalar, because trace readers
    /// (`BENCH_traces.json`, bsabench) index it.
    pub thread_stats: Vec<ThreadStats>,
}

impl SolveTrace {
    /// Number of accepted migrations recorded in the trace.
    pub fn num_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Human-readable multi-line summary: pivot selection, serial order, lengths,
    /// re-timing counters and every recorded migration.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "CP lengths per processor: {:?}\n",
            self.cp_lengths
        ));
        if let Some(p) = self.first_pivot {
            // 1-based processor names, matching the paper's P1..Pm convention and the
            // Gantt renderer.
            s.push_str(&format!("first pivot: P{}\n", p.0 + 1));
        }
        s.push_str(&format!(
            "serial order: {}\n",
            self.serial_order
                .iter()
                .map(|t| format!("T{}", t.0 + 1))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if let Some(serialized) = self.serialized_length {
            s.push_str(&format!("serialized length: {serialized:.2} -> "));
        }
        s.push_str(&format!(
            "final length: {:.2} ({} migrations)\n",
            self.final_length,
            self.migrations.len()
        ));
        if self.retime.passes > 0 {
            s.push_str(&format!(
                "re-timing: {} passes, {} seeds -> {} cone nodes / {} cone edges, \
                 {} changed (mean cone {:.1})\n",
                self.retime.passes,
                self.retime.seed_nodes,
                self.retime.cone_nodes,
                self.retime.cone_edges,
                self.retime.changed_nodes,
                self.retime.mean_cone()
            ));
        }
        for m in &self.migrations {
            s.push_str(&format!(
                "  [pivot P{}] T{} : P{} -> P{}  (FT {:.1} -> {:.1}{})\n",
                m.pivot.0 + 1,
                m.task.0 + 1,
                m.from.0 + 1,
                m.to.0 + 1,
                m.old_finish,
                m.new_finish_estimate,
                if m.vip_rule { ", VIP rule" } else { "" }
            ));
        }
        s
    }

    /// Renders the trace as a JSON object.
    ///
    /// Hand-rolled because the offline dependency set ships a no-op `serde` shim (see
    /// `vendor/README.md`); the derived `Serialize` impls remain as intent markers for
    /// the day a real serializer is wired in.  All numbers are finite in practice;
    /// non-finite values render as `null` to keep the output parseable.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"solver\": \"{}\", \"stop\": \"{}\", ",
            self.solver,
            self.stop.label()
        ));
        out.push_str(&format!(
            "\"serialized_length\": {}, \"final_length\": {}, ",
            self.serialized_length.map_or("null".into(), num),
            num(self.final_length)
        ));
        out.push_str(&format!(
            "\"cp_lengths\": [{}], ",
            self.cp_lengths
                .iter()
                .map(|&v| num(v))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "\"first_pivot\": {}, ",
            self.first_pivot
                .map_or("null".to_string(), |p| p.0.to_string())
        ));
        out.push_str(&format!(
            "\"serial_order\": [{}], ",
            self.serial_order
                .iter()
                .map(|t| t.0.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "\"processor_order\": [{}], ",
            self.processor_order
                .iter()
                .map(|p| p.0.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "\"retime\": {{\"passes\": {}, \"fallbacks\": {}, \"seed_nodes\": {}, \
             \"cone_nodes\": {}, \"cone_edges\": {}, \"changed_nodes\": {}, \
             \"delta_passes\": {}, \"delta_evals\": {}, \"flat_by_seeds\": {}, \
             \"flat_by_model\": {}, \"flat_by_cap\": {}}}, ",
            self.retime.passes,
            self.retime.fallbacks,
            self.retime.seed_nodes,
            self.retime.cone_nodes,
            self.retime.cone_edges,
            self.retime.changed_nodes,
            self.retime.delta_passes,
            self.retime.delta_evals,
            self.retime.flat_by_seeds,
            self.retime.flat_by_model,
            self.retime.flat_by_cap
        ));
        out.push_str(&format!(
            "\"thread_stats\": [{}], ",
            self.thread_stats
                .iter()
                .map(|t| format!("{{\"evals\": {}}}", t.evals))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "\"incumbents\": [{}], ",
            self.incumbents
                .iter()
                .map(|i| format!(
                    "{{\"migrations\": {}, \"length\": {}}}",
                    i.migrations,
                    num(i.length)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "\"migrations\": [{}]}}",
            self.migrations
                .iter()
                .map(|m| format!(
                    "{{\"pivot\": {}, \"task\": {}, \"from\": {}, \"to\": {}, \
                     \"old_finish\": {}, \"new_finish_estimate\": {}, \"vip_rule\": {}}}",
                    m.pivot.0,
                    m.task.0,
                    m.from.0,
                    m.to.0,
                    num(m.old_finish),
                    num(m.new_finish_estimate),
                    m.vip_rule
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out
    }
}

/// Who produced a [`Solution`], with what configuration, how long it took and why it
/// stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Solver name ("BSA", "DLS", …).
    pub solver: String,
    /// The solver's configuration, rendered for humans and logs.
    pub config: String,
    /// Wall-clock duration of the solve.
    pub elapsed: Duration,
    /// Why the solve returned.
    pub stop: StopReason,
    /// The RNG seed from [`SolveOptions::seed`], if any.
    pub seed: Option<u64>,
    /// The message-routing policy from [`SolveOptions::route_policy`].
    pub route_policy: RoutePolicy,
    /// OS threads the solve ran on: 1 for every single solver, the racing worker count
    /// for a [`crate::portfolio::Portfolio`].
    pub threads: usize,
    /// Whether the solution was warm-started from a committed schedule
    /// (`Solution::resolve`) rather than solved from scratch.
    pub warm_start: bool,
    /// The delta-kind summary for warm-started solutions (see
    /// [`crate::delta::ProblemDelta::summary`]); `None` for cold solves.
    pub delta: Option<String>,
}

/// The result of one solve: the schedule, its metrics, the unified trace and the
/// provenance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The (always valid) schedule: the solver's **current committed** state at the
    /// moment the solve stopped.  For anytime BSA this is the incumbent in the
    /// "always feasible" sense — its makespan is *usually* the best seen, but a
    /// migration can transiently grow the global maximum, so it is not guaranteed to
    /// equal the smallest length streamed via
    /// [`SolveEvent::IncumbentImproved`] (DESIGN.md §9).
    pub schedule: Schedule,
    /// Aggregate quality metrics of the schedule.
    pub metrics: ScheduleMetrics,
    /// The unified decision trace.
    pub trace: SolveTrace,
    /// Who solved, with which configuration, for how long, and why it stopped.
    pub provenance: Provenance,
}

impl Solution {
    /// Why the solve returned.
    pub fn stop(&self) -> StopReason {
        self.provenance.stop
    }
}

// ---------------------------------------------------------------------------------
// The Solver trait
// ---------------------------------------------------------------------------------

/// A static scheduling algorithm exposed as a solver session: it maps a validated
/// [`Problem`] to a [`Solution`] under the budgets of [`SolveOptions`], streaming
/// [`SolveEvent`]s to the [`Progress`] observer.
pub trait Solver {
    /// Short human-readable name ("BSA", "DLS", …) used in reports and provenance.
    fn name(&self) -> &str;

    /// Solves `problem` under `options`, streaming progress to `progress`.
    fn solve(
        &self,
        problem: &Problem<'_>,
        options: &SolveOptions,
        progress: &mut dyn Progress,
    ) -> Result<Solution, SolveError>;

    /// Convenience: solves with no budget and no observer (the common blocking path).
    fn solve_unbounded(&self, problem: &Problem<'_>) -> Result<Solution, SolveError> {
        self.solve(problem, &SolveOptions::default(), &mut NoProgress)
    }
}

// ---------------------------------------------------------------------------------
// The memory-sharing contract, statically asserted
// ---------------------------------------------------------------------------------

// The portfolio shares one validated `Problem` across racing OS threads and hands
// `CancelToken` clones to every worker.  These compile-time assertions pin the
// contract: if anyone threads interior mutability (`Rc`, `RefCell`, raw pointers, …)
// into the problem data, the crate stops compiling here instead of racing at run time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Problem<'static>>();
    assert_send_sync::<CancelToken>();
    assert_send_sync::<bsa_network::RoutingTable>();
    assert_send_sync::<SolveOptions>();
    assert_send_sync::<StopReason>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::{CommCostModel, ExecutionCostMatrix, Topology};
    use bsa_taskgraph::TaskGraphBuilder;

    fn tiny_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("a", 5.0);
        let c = b.add_task("c", 5.0);
        b.add_edge(a, c, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn problem_validates_once_and_exposes_its_parts() {
        let g = tiny_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let p = Problem::new(&g, &sys).unwrap();
        assert_eq!(p.graph().num_tasks(), 2);
        assert_eq!(p.system().num_processors(), 3);
        let b = p.builder();
        assert!(!b.all_placed());
    }

    #[test]
    fn problem_rejects_mismatched_and_disconnected_instances() {
        let g = tiny_graph();
        let mut other = TaskGraphBuilder::new();
        other.add_task("solo", 1.0);
        let solo = other.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        assert!(matches!(
            Problem::new(&solo, &sys),
            Err(SolveError::Mismatch { .. })
        ));

        let disconnected = Topology::new("pair", 3, &[(0, 1)]).unwrap();
        let exec = ExecutionCostMatrix::homogeneous(&g, 3);
        let comm = CommCostModel::homogeneous(&disconnected);
        let sys2 = HeterogeneousSystem::new(disconnected, exec, comm);
        assert_eq!(
            Problem::new(&g, &sys2).err(),
            Some(SolveError::DisconnectedSystem {
                processors: 3,
                reachable: 2
            })
        );
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn budget_meter_orders_cancel_before_deadline_before_budget() {
        let token = CancelToken::new();
        let options = SolveOptions::default()
            .with_deadline(Duration::ZERO)
            .with_migration_budget(0)
            .with_cancel(token.clone());
        let meter = BudgetMeter::start(&options);
        assert_eq!(meter.check(), Some(StopReason::DeadlineExpired));
        token.cancel();
        assert_eq!(meter.check(), Some(StopReason::Cancelled));
    }

    #[test]
    fn unbounded_meter_never_stops() {
        let meter = BudgetMeter::start(&SolveOptions::default());
        assert_eq!(meter.check(), None);
        assert!(SolveOptions::default().is_unlimited());
        assert!(!SolveOptions::unlimited()
            .with_migration_budget(3)
            .is_unlimited());
    }

    #[test]
    fn migration_budget_fires_after_the_recorded_count() {
        let options = SolveOptions::default().with_migration_budget(2);
        let mut meter = BudgetMeter::start(&options);
        assert_eq!(meter.check(), None);
        meter.record_migration();
        assert_eq!(meter.check(), None);
        meter.record_migration();
        assert_eq!(meter.check(), Some(StopReason::MigrationBudgetExhausted));
        assert_eq!(meter.migrations(), 2);
    }

    #[test]
    fn solve_errors_render_and_convert() {
        let e = SolveError::retiming("test", RecomputeError::CyclicDecisions);
        assert_eq!(e, SolveError::CyclicDecisions { context: "test" });
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn trace_json_is_wellformed_and_carries_the_stop_reason() {
        let trace = SolveTrace {
            solver: "BSA".into(),
            stop: StopReason::MigrationBudgetExhausted,
            cp_lengths: vec![240.0, 226.0],
            first_pivot: Some(ProcId(1)),
            serial_order: vec![TaskId(0), TaskId(1)],
            processor_order: vec![ProcId(1), ProcId(0)],
            migrations: vec![MigrationRecord {
                pivot: ProcId(1),
                task: TaskId(1),
                from: ProcId(1),
                to: ProcId(0),
                old_finish: 50.0,
                new_finish_estimate: 40.0,
                vip_rule: false,
            }],
            serialized_length: Some(100.0),
            final_length: 80.0,
            retime: RetimeTotals::default(),
            incumbents: vec![IncumbentRecord {
                migrations: 1,
                length: 80.0,
            }],
            thread_stats: vec![ThreadStats { evals: 7 }],
        };
        let json = trace.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"thread_stats\": [{\"evals\": 7}], "));
        assert!(json.contains("\"stop\": \"migration_budget_exhausted\""));
        assert!(json.contains("\"first_pivot\": 1"));
        assert!(json.contains("\"incumbents\": [{\"migrations\": 1, \"length\": 80}]"));
        assert!(json.contains("\"vip_rule\": false"));
        assert_eq!(trace.num_migrations(), 1);
    }

    #[test]
    fn summary_mentions_all_key_facts() {
        let trace = SolveTrace {
            solver: "BSA".into(),
            cp_lengths: vec![240.0, 226.0],
            first_pivot: Some(ProcId(1)),
            serial_order: vec![TaskId(0), TaskId(1)],
            processor_order: vec![ProcId(1), ProcId(0)],
            migrations: vec![MigrationRecord {
                pivot: ProcId(1),
                task: TaskId(1),
                from: ProcId(1),
                to: ProcId(0),
                old_finish: 50.0,
                new_finish_estimate: 40.0,
                vip_rule: false,
            }],
            serialized_length: Some(100.0),
            final_length: 80.0,
            retime: RetimeTotals {
                passes: 2,
                fallbacks: 2,
                seed_nodes: 2,
                cone_nodes: 10,
                cone_edges: 6,
                changed_nodes: 3,
                flat_by_seeds: 2,
                ..RetimeTotals::default()
            },
            ..SolveTrace::default()
        };
        let s = trace.summary();
        assert!(s.contains("first pivot: P2"));
        assert!(s.contains("T1 T2"));
        assert!(s.contains("T2 : P2 -> P1"));
        assert!(s.contains("100.00 -> final length: 80.00 (1 migrations)"));
        assert!(s.contains(
            "re-timing: 2 passes, 2 seeds -> 10 cone nodes / 6 cone edges, 3 changed \
             (mean cone 5.0)\n"
        ));
        assert!(!s.contains("kernel mix"));
        // Solvers that do not serialize have no serialized length to report.
        let constructive = SolveTrace {
            serialized_length: None,
            ..trace
        };
        assert!(constructive
            .summary()
            .contains("\nfinal length: 80.00 (1 migrations)"));
    }

    #[test]
    fn event_log_records_and_closures_observe() {
        let mut log = EventLog::default();
        assert!(log
            .on_event(&SolveEvent::Serialized { length: 1.0 })
            .is_continue());
        assert_eq!(log.events.len(), 1);
        let mut count = 0usize;
        let mut closure = |_e: &SolveEvent| {
            count += 1;
            ControlFlow::<()>::Break(())
        };
        assert!(
            Progress::on_event(&mut closure, &SolveEvent::Serialized { length: 1.0 }).is_break()
        );
        assert_eq!(count, 1);
    }
}
