//! The daemon engine: a session registry multiplexed over a bounded worker pool,
//! with admission control and the content-addressed artifact cache.
//!
//! Lifecycle of a session: `submit` (or `delta`) decodes and validates the work
//! **synchronously** — so cache hits and rejections are visible at submit time — then
//! enqueues it.  Workers pop sessions FIFO, run the solve streaming events into the
//! session's buffer, and park the outcome; a solve that panics parks an `internal`
//! error instead, and the worker serves on.  A completed session stays registered (its
//! solution is the warm-start base for `delta`) until the client `release`s it or the
//! daemon shuts down; the registry therefore returns to its baseline size exactly when
//! clients release what they submitted.
//!
//! Admission control is two-tier:
//! * **global**: at most `max_queue` sessions waiting for a worker — beyond that,
//!   submits are rejected with a `retry_after_ms` hint instead of queueing unboundedly;
//! * **per-client**: at most `client_inflight` unfinished sessions per connection, so
//!   one chatty client cannot monopolise the pool.
//!
//! Graceful shutdown cancels every live session's token (anytime solvers return their
//! incumbents), drains the pool, joins the workers and reports the final state of every
//! registered session.

use crate::cache::ArtifactCache;
use crate::json::{self, obj, u, Value};
use crate::wire;
use bsa::algorithms::{standard_portfolio, Algo};
use bsa::network::HeterogeneousSystem;
use bsa::schedule::{
    CancelToken, Problem, ProblemDelta, ResolveError, RetimeTotals, Solution, SolveError,
    SolveEvent, SolveOptions, Solver,
};
use bsa::taskgraph::TaskGraph;
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------------

/// Locks `mutex`, taking the guard even if a thread panicked while holding it.
///
/// The engine's and the cache's critical sections only push, pop, insert and bump
/// counters, so a panic inside one leaves the data usable.  Recovering the guard keeps
/// that one panic from failing every later lock of the same mutex, and so every later
/// request.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------------
// Problem instances
// ---------------------------------------------------------------------------------

/// An owned, validated problem instance — the unit the artifact cache stores and
/// sessions share.  One instance may back any number of concurrent sessions (the
/// solver API only borrows it).
pub struct ProblemInstance {
    graph: TaskGraph,
    system: HeterogeneousSystem,
    fingerprint: u64,
}

impl ProblemInstance {
    /// The content-hash cache key of a graph/system pair, computable **before**
    /// validation (so a cache hit skips validation entirely).
    pub fn fingerprint_of(graph: &TaskGraph, system: &HeterogeneousSystem) -> u64 {
        bsa::taskgraph::fingerprint::combine(graph.fingerprint(), system.fingerprint())
    }

    /// Validates the pair once and takes ownership.
    pub fn validated(graph: TaskGraph, system: HeterogeneousSystem) -> Result<Self, SolveError> {
        Problem::new(&graph, &system)?;
        let fingerprint = Self::fingerprint_of(&graph, &system);
        Ok(ProblemInstance {
            graph,
            system,
            fingerprint,
        })
    }

    /// Wraps a pair whose invariants were re-established incrementally (the output of
    /// a delta application) without re-validating.
    fn prevalidated(graph: TaskGraph, system: HeterogeneousSystem) -> Self {
        let fingerprint = Self::fingerprint_of(&graph, &system);
        ProblemInstance {
            graph,
            system,
            fingerprint,
        }
    }

    /// A solver-ready view (validation was paid at construction).
    pub fn problem(&self) -> Problem<'_> {
        Problem::assume_validated(&self.graph, &self.system)
    }

    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The target system.
    pub fn system(&self) -> &HeterogeneousSystem {
        &self.system
    }

    /// The instance's content hash.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

// ---------------------------------------------------------------------------------
// Algorithm choice
// ---------------------------------------------------------------------------------

/// Which solver a submit runs: one roster algorithm, or the standard racing portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// A single algorithm from the [`Algo`] roster.
    Single(Algo),
    /// The standard portfolio ([`standard_portfolio`]), racing BSA configurations.
    Portfolio,
}

impl AlgoChoice {
    /// Parses the wire label (`"bsa"`, `"dls"`, …, `"portfolio"`).
    pub fn parse(label: &str) -> Option<AlgoChoice> {
        Some(match label {
            "bsa" => AlgoChoice::Single(Algo::Bsa),
            "dls" => AlgoChoice::Single(Algo::Dls),
            "heft_ca" => AlgoChoice::Single(Algo::HeftCa),
            "heft_co" => AlgoChoice::Single(Algo::HeftCo),
            "bsa_no_vip" => AlgoChoice::Single(Algo::BsaNoVip),
            "bsa_worst_pivot" => AlgoChoice::Single(Algo::BsaWorstPivot),
            "bsa_fixed_pivot" => AlgoChoice::Single(Algo::BsaFixedPivot),
            "serial" => AlgoChoice::Single(Algo::Serial),
            "portfolio" => AlgoChoice::Portfolio,
            _ => return None,
        })
    }

    /// The stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            AlgoChoice::Single(Algo::Bsa) => "bsa",
            AlgoChoice::Single(Algo::Dls) => "dls",
            AlgoChoice::Single(Algo::HeftCa) => "heft_ca",
            AlgoChoice::Single(Algo::HeftCo) => "heft_co",
            AlgoChoice::Single(Algo::BsaNoVip) => "bsa_no_vip",
            AlgoChoice::Single(Algo::BsaWorstPivot) => "bsa_worst_pivot",
            AlgoChoice::Single(Algo::BsaFixedPivot) => "bsa_fixed_pivot",
            AlgoChoice::Single(Algo::Serial) => "serial",
            AlgoChoice::Portfolio => "portfolio",
        }
    }

    fn solver(&self) -> Box<dyn Solver + Send + Sync> {
        match self {
            AlgoChoice::Single(algo) => algo.solver(),
            AlgoChoice::Portfolio => Box::new(standard_portfolio()),
        }
    }
}

// ---------------------------------------------------------------------------------
// Configuration and rejections
// ---------------------------------------------------------------------------------

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads executing solves.
    pub workers: usize,
    /// Admission bound: sessions allowed to wait for a worker before submits are
    /// rejected as saturated.
    pub max_queue: usize,
    /// Per-client fairness bound: unfinished (queued or running) sessions one client
    /// may hold.
    pub client_inflight: usize,
    /// Artifact-cache capacity per shard (problems / routing tables).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_queue: 64,
            client_inflight: 32,
            cache_capacity: 128,
        }
    }
}

/// Why a command was refused.  Maps 1:1 to wire error kinds via
/// [`Rejection::error_body`].
#[derive(Debug)]
pub enum Rejection {
    /// The wait queue is full; retry after the hinted backoff.
    Saturated {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The client already holds its maximum number of unfinished sessions.
    ClientLimit {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
    /// The submitted problem or options failed validation.
    Invalid(SolveError),
    /// No session with that id is registered.
    UnknownSession(u64),
    /// The referenced session has not finished yet (deltas warm-start from a
    /// completed solution).
    NotReady(u64),
    /// The referenced session finished with an error, so there is no solution to
    /// warm-start from.
    FailedSession(u64),
}

impl Rejection {
    /// The wire error object (`{"kind": ..., ...}`).
    pub fn error_body(&self) -> Value {
        match self {
            Rejection::Saturated { retry_after_ms } => obj(vec![
                ("kind", json::s("saturated")),
                ("retry_after_ms", u(*retry_after_ms)),
            ]),
            Rejection::ClientLimit { retry_after_ms } => obj(vec![
                ("kind", json::s("client_limit")),
                ("retry_after_ms", u(*retry_after_ms)),
            ]),
            Rejection::ShuttingDown => obj(vec![("kind", json::s("shutting_down"))]),
            Rejection::Invalid(e) => obj(vec![
                ("kind", json::s("invalid_problem")),
                ("error", wire::encode_solve_error(e)),
            ]),
            Rejection::UnknownSession(id) => obj(vec![
                ("kind", json::s("unknown_session")),
                ("session", u(*id)),
            ]),
            Rejection::NotReady(id) => {
                obj(vec![("kind", json::s("not_ready")), ("session", u(*id))])
            }
            Rejection::FailedSession(id) => obj(vec![
                ("kind", json::s("failed_session")),
                ("session", u(*id)),
            ]),
        }
    }
}

// ---------------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------------

/// The durable result of a finished session: the solved instance and its solution,
/// both shared so a delta can warm-start from them while the session stays readable.
#[derive(Clone)]
pub struct SessionOutcome {
    /// The instance the solution was solved on (for a delta session, the
    /// post-delta instance, so further deltas chain).
    pub instance: Arc<ProblemInstance>,
    /// The solution.
    pub solution: Arc<Solution>,
}

enum SessionFailure {
    Solve(SolveError),
    Resolve(ResolveError),
}

impl SessionFailure {
    fn error_body(&self) -> Value {
        match self {
            SessionFailure::Solve(e) => wire::encode_solve_error(e),
            SessionFailure::Resolve(e) => wire::encode_resolve_error(e),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    Queued,
    Running,
    Done,
}

impl SessionState {
    fn label(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Done => "done",
        }
    }
}

struct SessionShared {
    state: SessionState,
    events: Vec<Value>,
    outcome: Option<Result<SessionOutcome, SessionFailure>>,
}

enum Work {
    Solve {
        instance: Arc<ProblemInstance>,
        solver: Box<dyn Solver + Send + Sync>,
        options: SolveOptions,
    },
    Resolve {
        base: SessionOutcome,
        delta: ProblemDelta,
        options: SolveOptions,
    },
}

/// One solve session: identity, cancellation, the event stream and (once done) the
/// outcome.
pub struct Session {
    id: u64,
    client: u64,
    algo: &'static str,
    cancel: CancelToken,
    work: Mutex<Option<Work>>,
    shared: Mutex<SessionShared>,
    cond: Condvar,
}

impl Session {
    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn new(id: u64, client: u64, algo: &'static str, cancel: CancelToken, work: Work) -> Self {
        Session {
            id,
            client,
            algo,
            cancel,
            work: Mutex::new(Some(work)),
            shared: Mutex::new(SessionShared {
                state: SessionState::Queued,
                events: Vec::new(),
                outcome: None,
            }),
            cond: Condvar::new(),
        }
    }
}

/// What a submit reported back: the session id and whether each artifact came from
/// the cache.
#[derive(Debug, Clone, Copy)]
pub struct SubmitInfo {
    /// The new session's id.
    pub session: u64,
    /// Whether the validated problem instance was a cache hit.
    pub problem_cached: bool,
    /// Whether the routing table was a cache hit.
    pub routing_cached: bool,
}

/// One item of a session's event stream.
pub enum StreamItem {
    /// The `seq`-th event of the session.
    Event {
        /// Zero-based sequence number.
        seq: usize,
        /// The encoded event object.
        payload: Value,
    },
    /// The stream is complete; `payload` is the `end` record carrying the result or
    /// error.
    End {
        /// The encoded `end` record.
        payload: Value,
    },
}

// ---------------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------------

struct Registry {
    sessions: HashMap<u64, Arc<Session>>,
    client_inflight: HashMap<u64, usize>,
}

struct Pool {
    queue: VecDeque<Arc<Session>>,
    running: usize,
    shutting_down: bool,
    stop: bool,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    rejected_saturated: u64,
    rejected_client_limit: u64,
    /// Daemon-lifetime aggregate of the incremental re-timing phase counters of every
    /// successful session (surfaced under `status.retime`): how much decision-graph
    /// work the flat sweep did.
    retime: RetimeTotals,
}

/// The long-lived scheduling engine (see module docs).
pub struct Engine {
    config: EngineConfig,
    cache: ArtifactCache,
    next_id: AtomicU64,
    registry: Mutex<Registry>,
    pool: Mutex<Pool>,
    pool_cond: Condvar,
    drain_cond: Condvar,
    counters: Mutex<Counters>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the engine with its worker pool.
    pub fn start(config: EngineConfig) -> Arc<Engine> {
        let engine = Arc::new(Engine {
            config,
            cache: ArtifactCache::new(config.cache_capacity),
            next_id: AtomicU64::new(1),
            registry: Mutex::new(Registry {
                sessions: HashMap::new(),
                client_inflight: HashMap::new(),
            }),
            pool: Mutex::new(Pool {
                queue: VecDeque::new(),
                running: 0,
                shutting_down: false,
                stop: false,
            }),
            pool_cond: Condvar::new(),
            drain_cond: Condvar::new(),
            counters: Mutex::new(Counters::default()),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = lock(&engine.workers);
        for i in 0..config.workers.max(1) {
            let e = Arc::clone(&engine);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bsa-worker-{i}"))
                    .spawn(move || e.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(workers);
        engine
    }

    /// The artifact cache (for `status` and tests).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        lock(&self.pool).shutting_down
    }

    /// Registered sessions (any state).
    pub fn session_count(&self) -> usize {
        lock(&self.registry).sessions.len()
    }

    /// Clients with a non-zero in-flight count (leak canary for the soak test).
    pub fn tracked_clients(&self) -> usize {
        lock(&self.registry).client_inflight.len()
    }

    // ----- submit / delta ---------------------------------------------------------

    /// Validates (or cache-hits) the instance, attaches the routing artifact, and
    /// enqueues a new solve session for `client`.
    pub fn submit(
        &self,
        client: u64,
        graph: TaskGraph,
        system: HeterogeneousSystem,
        mut options: SolveOptions,
        algo: AlgoChoice,
    ) -> Result<SubmitInfo, Rejection> {
        self.precheck(client)?;

        let key = ProblemInstance::fingerprint_of(&graph, &system);
        let (instance, problem_cached) = match self.cache.get_problem(key) {
            Some(hit) => (hit, true),
            None => {
                let built = Arc::new(
                    ProblemInstance::validated(graph, system).map_err(Rejection::Invalid)?,
                );
                self.cache.insert_problem(key, Arc::clone(&built));
                (built, false)
            }
        };

        let routing_key = instance.system.routing_fingerprint(options.route_policy);
        let (table, routing_cached) = match self.cache.get_table(routing_key) {
            Some(hit) => (hit, true),
            None => {
                let comm = instance.system.comm_model(options.route_policy);
                let built = Arc::clone(comm.shared_table());
                self.cache.insert_table(routing_key, Arc::clone(&built));
                (built, false)
            }
        };
        options.routing = Some(table);

        let cancel = CancelToken::new();
        options.cancel = Some(cancel.clone());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(
            id,
            client,
            algo.label(),
            cancel,
            Work::Solve {
                instance,
                solver: algo.solver(),
                options,
            },
        ));
        self.enqueue(session)?;
        Ok(SubmitInfo {
            session: id,
            problem_cached,
            routing_cached,
        })
    }

    /// Applies `delta` to a **finished** session's problem and enqueues a
    /// warm-started resolve session.  The base session stays registered and readable.
    ///
    /// No routing artifact is attached: the delta may change the network, and the
    /// post-delta topology is only known once the delta is applied on a worker.  A
    /// table keyed on the pre-delta network could silently mis-route (the cheap
    /// shape guard cannot see link changes), so resolve sessions always rebuild.
    pub fn delta(
        &self,
        client: u64,
        base_session: u64,
        delta: ProblemDelta,
        mut options: SolveOptions,
    ) -> Result<SubmitInfo, Rejection> {
        self.precheck(client)?;
        let base = self.find_session(base_session)?;
        let outcome = {
            let shared = lock(&base.shared);
            match (&shared.state, &shared.outcome) {
                (SessionState::Done, Some(Ok(outcome))) => outcome.clone(),
                (SessionState::Done, _) => return Err(Rejection::FailedSession(base_session)),
                _ => return Err(Rejection::NotReady(base_session)),
            }
        };
        let cancel = CancelToken::new();
        options.cancel = Some(cancel.clone());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(
            id,
            client,
            "resolve",
            cancel,
            Work::Resolve {
                base: outcome,
                delta,
                options,
            },
        ));
        self.enqueue(session)?;
        Ok(SubmitInfo {
            session: id,
            problem_cached: false,
            routing_cached: false,
        })
    }

    /// Cheap admission pre-check run before the (potentially expensive) validation,
    /// so a saturated daemon rejects without doing the work.  Re-checked atomically
    /// at enqueue time.
    fn precheck(&self, client: u64) -> Result<(), Rejection> {
        let pool = lock(&self.pool);
        if pool.shutting_down {
            return Err(Rejection::ShuttingDown);
        }
        if pool.queue.len() >= self.config.max_queue {
            drop(pool);
            return Err(self.reject_saturated());
        }
        drop(pool);
        let registry = lock(&self.registry);
        if registry.client_inflight.get(&client).copied().unwrap_or(0)
            >= self.config.client_inflight
        {
            drop(registry);
            return Err(self.reject_client_limit());
        }
        Ok(())
    }

    fn retry_hint(&self, queue_len: usize) -> u64 {
        // Coarse heuristic: ~50 ms of expected service per queued batch of workers.
        (50 * (queue_len as u64 / self.config.workers.max(1) as u64 + 1)).min(1_000)
    }

    fn reject_saturated(&self) -> Rejection {
        let queue_len = lock(&self.pool).queue.len();
        lock(&self.counters).rejected_saturated += 1;
        Rejection::Saturated {
            retry_after_ms: self.retry_hint(queue_len),
        }
    }

    fn reject_client_limit(&self) -> Rejection {
        lock(&self.counters).rejected_client_limit += 1;
        Rejection::ClientLimit {
            retry_after_ms: self.retry_hint(self.config.client_inflight),
        }
    }

    /// Final, atomic admission + registration (lock order: pool, then registry).
    fn enqueue(&self, session: Arc<Session>) -> Result<(), Rejection> {
        let mut pool = lock(&self.pool);
        if pool.shutting_down {
            return Err(Rejection::ShuttingDown);
        }
        if pool.queue.len() >= self.config.max_queue {
            drop(pool);
            return Err(self.reject_saturated());
        }
        let mut registry = lock(&self.registry);
        let inflight = registry.client_inflight.entry(session.client).or_insert(0);
        if *inflight >= self.config.client_inflight {
            drop(registry);
            drop(pool);
            return Err(self.reject_client_limit());
        }
        *inflight += 1;
        registry.sessions.insert(session.id, Arc::clone(&session));
        drop(registry);
        pool.queue.push_back(session);
        drop(pool);
        self.pool_cond.notify_one();
        lock(&self.counters).submitted += 1;
        Ok(())
    }

    // ----- worker side ------------------------------------------------------------

    fn worker_loop(&self) {
        loop {
            let session = {
                let mut pool = lock(&self.pool);
                loop {
                    if let Some(s) = pool.queue.pop_front() {
                        pool.running += 1;
                        break s;
                    }
                    if pool.stop {
                        return;
                    }
                    pool = wait(&self.pool_cond, pool);
                }
            };
            self.run_session(&session);
            let mut pool = lock(&self.pool);
            pool.running -= 1;
            if pool.queue.is_empty() && pool.running == 0 {
                self.drain_cond.notify_all();
            }
        }
    }

    fn run_session(&self, session: &Arc<Session>) {
        {
            let mut shared = lock(&session.shared);
            shared.state = SessionState::Running;
            session.cond.notify_all();
        }
        let work = lock(&session.work)
            .take()
            .expect("a queued session has exactly one unit of work");
        // A panicking solve ends only its own session, as an internal error: the
        // session still reaches `Done` and the worker stays in the pool.
        let outcome =
            catch_unwind(AssertUnwindSafe(|| execute(session, work))).unwrap_or_else(|payload| {
                let who = format!("session {} ({})", session.id, session.algo);
                Err(SessionFailure::Solve(SolveError::panicked(&who, &*payload)))
            });
        // Every success the daemon reports is validator-clean by construction: a
        // solution that fails full schedule validation is downgraded to an internal
        // error instead of being streamed to a client as a result.
        let outcome = outcome.and_then(|ok| {
            let errors = bsa::schedule::validate::validate(
                &ok.solution.schedule,
                ok.instance.graph(),
                ok.instance.system(),
            );
            if errors.is_empty() {
                Ok(ok)
            } else {
                Err(SessionFailure::Solve(SolveError::Internal {
                    detail: format!(
                        "solution failed validation ({} errors; first: {:?})",
                        errors.len(),
                        errors[0]
                    ),
                }))
            }
        });
        // Bookkeeping happens-before the `Done` flip: a waiter woken by the state
        // change must already observe the released fairness slot and the counter.
        let mut registry = lock(&self.registry);
        if let Some(n) = registry.client_inflight.get_mut(&session.client) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                registry.client_inflight.remove(&session.client);
            }
        }
        drop(registry);
        {
            let mut counters = lock(&self.counters);
            counters.completed += 1;
            if let Ok(ok) = &outcome {
                counters.retime.merge(&ok.solution.trace.retime);
            }
        }
        let mut shared = lock(&session.shared);
        shared.outcome = Some(outcome);
        shared.state = SessionState::Done;
        session.cond.notify_all();
    }

    // ----- reads and streams ------------------------------------------------------

    /// Looks up a registered session.
    pub fn find_session(&self, id: u64) -> Result<Arc<Session>, Rejection> {
        lock(&self.registry)
            .sessions
            .get(&id)
            .cloned()
            .ok_or(Rejection::UnknownSession(id))
    }

    /// Events recorded so far (the `subscribe` starting point).
    pub fn event_count(&self, session: &Session) -> usize {
        lock(&session.shared).events.len()
    }

    /// Blocks until event `from` exists or the session is done, and returns the next
    /// stream item.  Callers loop, bumping `from` on every `Event`.
    pub fn next_stream_item(&self, session: &Session, from: usize) -> StreamItem {
        let mut shared = lock(&session.shared);
        loop {
            if from < shared.events.len() {
                return StreamItem::Event {
                    seq: from,
                    payload: shared.events[from].clone(),
                };
            }
            if shared.state == SessionState::Done {
                return StreamItem::End {
                    payload: end_record(session, &shared),
                };
            }
            shared = wait(&session.cond, shared);
        }
    }

    /// Blocks until the session is done; returns its outcome (for tests and the
    /// shutdown summary — streaming clients use [`Engine::next_stream_item`]).
    pub fn wait_done(&self, session: &Session) -> Result<SessionOutcome, Value> {
        let mut shared = lock(&session.shared);
        while shared.state != SessionState::Done {
            shared = wait(&session.cond, shared);
        }
        match shared
            .outcome
            .as_ref()
            .expect("done sessions have outcomes")
        {
            Ok(outcome) => Ok(outcome.clone()),
            Err(failure) => Err(failure.error_body()),
        }
    }

    /// Requests cancellation of a session.  Idempotent; completed sessions ignore it.
    pub fn cancel(&self, id: u64) -> Result<(), Rejection> {
        self.find_session(id)?.cancel.cancel();
        Ok(())
    }

    /// Unregisters a session.  A still-running session is cancelled and finishes
    /// detached (its worker slot is reclaimed normally); its results become
    /// unreachable.
    pub fn release(&self, id: u64) -> Result<(), Rejection> {
        let session = {
            let mut registry = lock(&self.registry);
            registry
                .sessions
                .remove(&id)
                .ok_or(Rejection::UnknownSession(id))?
        };
        session.cancel.cancel();
        Ok(())
    }

    /// One `{"session": ..., "state": ..., ...}` row per registered session, sorted
    /// by id.
    pub fn list(&self) -> Value {
        let sessions: Vec<Arc<Session>> = {
            let registry = lock(&self.registry);
            let mut v: Vec<_> = registry.sessions.values().cloned().collect();
            v.sort_by_key(|s| s.id);
            v
        };
        Value::Arr(
            sessions
                .iter()
                .map(|s| {
                    let shared = lock(&s.shared);
                    let ok = match &shared.outcome {
                        None => Value::Null,
                        Some(Ok(_)) => Value::Bool(true),
                        Some(Err(_)) => Value::Bool(false),
                    };
                    obj(vec![
                        ("session", u(s.id)),
                        ("client", u(s.client)),
                        ("algo", json::s(s.algo)),
                        ("state", json::s(shared.state.label())),
                        ("ok", ok),
                        ("events", u(shared.events.len() as u64)),
                    ])
                })
                .collect(),
        )
    }

    /// Daemon-wide statistics: pool occupancy, session counts, admission counters and
    /// cache hit/miss rates.
    pub fn status(&self) -> Value {
        let (queue, running) = {
            let pool = lock(&self.pool);
            (pool.queue.len(), pool.running)
        };
        let sessions = self.session_count();
        let (c, retime) = {
            let c = lock(&self.counters);
            let counters = obj(vec![
                ("submitted", u(c.submitted)),
                ("completed", u(c.completed)),
                ("rejected_saturated", u(c.rejected_saturated)),
                ("rejected_client_limit", u(c.rejected_client_limit)),
            ]);
            let r = &c.retime;
            let retime = obj(vec![
                ("passes", u(r.passes as u64)),
                ("fallbacks", u(r.fallbacks as u64)),
                ("cone_nodes", u(r.cone_nodes as u64)),
                ("changed_nodes", u(r.changed_nodes as u64)),
                ("delta_passes", u(r.delta_passes as u64)),
                ("delta_evals", u(r.delta_evals as u64)),
                ("flat_by_seeds", u(r.flat_by_seeds as u64)),
                ("flat_by_model", u(r.flat_by_model as u64)),
                ("flat_by_cap", u(r.flat_by_cap as u64)),
            ]);
            (counters, retime)
        };
        let shard = |s: crate::cache::ShardStats| {
            obj(vec![
                ("entries", u(s.entries as u64)),
                ("hits", u(s.hits)),
                ("misses", u(s.misses)),
            ])
        };
        obj(vec![
            ("proto", u(wire::PROTOCOL_VERSION)),
            ("workers", u(self.config.workers as u64)),
            ("queue", u(queue as u64)),
            ("running", u(running as u64)),
            ("sessions", u(sessions as u64)),
            ("counters", c),
            ("retime", retime),
            (
                "cache",
                obj(vec![
                    ("problems", shard(self.cache.problem_stats())),
                    ("routing", shard(self.cache.table_stats())),
                ]),
            ),
        ])
    }

    // ----- shutdown ---------------------------------------------------------------

    /// Graceful shutdown: stop admitting, cancel every live session (anytime solvers
    /// return their incumbents), drain the pool, join the workers, and return the
    /// final state of every still-registered session.  Idempotent.
    pub fn shutdown(&self) -> Value {
        {
            let mut pool = lock(&self.pool);
            pool.shutting_down = true;
        }
        let sessions: Vec<Arc<Session>> = {
            let registry = lock(&self.registry);
            registry.sessions.values().cloned().collect()
        };
        for s in &sessions {
            s.cancel.cancel();
        }
        {
            let mut pool = lock(&self.pool);
            while !(pool.queue.is_empty() && pool.running == 0) {
                pool = wait(&self.drain_cond, pool);
            }
            pool.stop = true;
        }
        self.pool_cond.notify_all();
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
        let mut rows: Vec<(u64, Value)> = sessions
            .iter()
            .map(|s| {
                let shared = lock(&s.shared);
                let (ok, length) = match &shared.outcome {
                    Some(Ok(outcome)) => (
                        Value::Bool(true),
                        json::n(outcome.solution.schedule.schedule_length()),
                    ),
                    Some(Err(_)) => (Value::Bool(false), Value::Null),
                    None => (Value::Null, Value::Null),
                };
                (
                    s.id,
                    obj(vec![
                        ("session", u(s.id)),
                        ("ok", ok),
                        ("schedule_length", length),
                    ]),
                )
            })
            .collect();
        rows.sort_by_key(|(id, _)| *id);
        obj(vec![(
            "sessions",
            Value::Arr(rows.into_iter().map(|(_, v)| v).collect()),
        )])
    }
}

/// Runs a session's unit of work, streaming solver events into the session.
fn execute(session: &Session, work: Work) -> Result<SessionOutcome, SessionFailure> {
    match work {
        Work::Solve {
            instance,
            solver,
            options,
        } => {
            let result = {
                let problem = instance.problem();
                let mut progress = |event: &SolveEvent| {
                    let mut shared = lock(&session.shared);
                    shared.events.push(wire::encode_event(event));
                    session.cond.notify_all();
                    ControlFlow::Continue(())
                };
                solver.solve(&problem, &options, &mut progress)
            };
            result
                .map(|solution| SessionOutcome {
                    instance,
                    solution: Arc::new(solution),
                })
                .map_err(SessionFailure::Solve)
        }
        Work::Resolve {
            base,
            delta,
            options,
        } => {
            let result = {
                let problem = base.instance.problem();
                base.solution.resolve(&problem, &delta, &options)
            };
            match result {
                Ok((update, solution)) => {
                    let (graph, system) = update.into_parts();
                    Ok(SessionOutcome {
                        instance: Arc::new(ProblemInstance::prevalidated(graph, system)),
                        solution: Arc::new(solution),
                    })
                }
                Err(e) => Err(SessionFailure::Resolve(e)),
            }
        }
    }
}

/// The stream-terminating `end` record: result summary on success, error body on
/// failure.
fn end_record(session: &Session, shared: &SessionShared) -> Value {
    let mut fields = vec![("event", json::s("end")), ("session", u(session.id))];
    match shared
        .outcome
        .as_ref()
        .expect("done sessions have outcomes")
    {
        Ok(outcome) => {
            fields.push(("ok", Value::Bool(true)));
            fields.push((
                "result",
                wire::encode_solution(&outcome.solution, outcome.instance.graph()),
            ));
        }
        Err(failure) => {
            fields.push(("ok", Value::Bool(false)));
            fields.push(("error", failure.error_body()));
        }
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa::network::builders::ring;
    use bsa::network::RoutePolicy;

    fn tiny_instance() -> (TaskGraph, HeterogeneousSystem) {
        let mut b = bsa::taskgraph::TaskGraphBuilder::new();
        let a = b.add_task("a", 5.0);
        let c = b.add_task("c", 5.0);
        b.add_edge(a, c, 1.0).unwrap();
        let graph = b.build().unwrap();
        let system = HeterogeneousSystem::homogeneous(&graph, ring(3).unwrap());
        (graph, system)
    }

    fn drain(engine: &Engine, id: u64) -> SessionOutcome {
        let session = engine.find_session(id).unwrap();
        engine.wait_done(&session).expect("session should succeed")
    }

    #[test]
    fn submit_solves_and_second_submit_hits_both_caches() {
        for policy in [RoutePolicy::default(), RoutePolicy::MinTransferTime] {
            let engine = Engine::start(EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            });
            let options = SolveOptions::default().with_route_policy(policy);
            let (g, s) = tiny_instance();
            let first = engine
                .submit(
                    1,
                    g.clone(),
                    s.clone(),
                    options.clone(),
                    AlgoChoice::Single(Algo::Bsa),
                )
                .unwrap();
            assert!(!first.problem_cached && !first.routing_cached, "{policy:?}");
            let outcome = drain(&engine, first.session);
            assert!(outcome.solution.schedule.schedule_length() >= 10.0);

            let second = engine
                .submit(1, g, s, options, AlgoChoice::Single(Algo::Dls))
                .unwrap();
            assert!(second.problem_cached && second.routing_cached, "{policy:?}");
            drain(&engine, second.session);
            let one_each = crate::cache::ShardStats {
                entries: 1,
                hits: 1,
                misses: 1,
            };
            assert_eq!(engine.cache().problem_stats(), one_each, "{policy:?}");
            assert_eq!(engine.cache().table_stats(), one_each, "{policy:?}");
            engine.shutdown();
        }
    }

    #[test]
    fn delta_warm_starts_from_a_finished_session() {
        let engine = Engine::start(EngineConfig::default());
        let (g, s) = tiny_instance();
        let info = engine
            .submit(
                1,
                g,
                s,
                SolveOptions::default(),
                AlgoChoice::Single(Algo::Bsa),
            )
            .unwrap();
        drain(&engine, info.session);

        let mut delta = ProblemDelta::new();
        delta.set_task_cost(bsa::taskgraph::TaskId(0), 9.0);
        let re = engine
            .delta(1, info.session, delta, SolveOptions::default())
            .unwrap();
        let outcome = drain(&engine, re.session);
        assert!(outcome.solution.provenance.warm_start);
        assert_eq!(
            outcome
                .instance
                .graph()
                .task(bsa::taskgraph::TaskId(0))
                .nominal_cost,
            9.0
        );

        // Delta on an unknown session is rejected.
        assert!(matches!(
            engine.delta(1, 999, ProblemDelta::new(), SolveOptions::default()),
            Err(Rejection::UnknownSession(999))
        ));
        engine.shutdown();
    }

    #[test]
    fn admission_rejects_when_saturated_and_per_client() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            max_queue: 4,
            client_inflight: 2,
            cache_capacity: 8,
        });
        // Occupy the single worker with a solve that far outlasts this test body, so
        // the queued tiny sessions pile up deterministically behind it.
        let big_graph = bsa::workloads::gaussian::gaussian_elimination(
            24,
            &bsa::workloads::CostParams::paper(1.0),
        )
        .unwrap();
        let big_system =
            HeterogeneousSystem::homogeneous(&big_graph, bsa::network::builders::ring(8).unwrap());
        let mut accepted = vec![
            engine
                .submit(
                    1,
                    big_graph,
                    big_system,
                    SolveOptions::default(),
                    AlgoChoice::Single(Algo::Bsa),
                )
                .unwrap()
                .session,
        ];

        // Per-client bound: client 2's third unfinished session is refused.
        let (g, s) = tiny_instance();
        for _ in 0..2 {
            accepted.push(
                engine
                    .submit(
                        2,
                        g.clone(),
                        s.clone(),
                        SolveOptions::default(),
                        AlgoChoice::Single(Algo::Serial),
                    )
                    .unwrap()
                    .session,
            );
        }
        match engine.submit(
            2,
            g.clone(),
            s.clone(),
            SolveOptions::default(),
            AlgoChoice::Single(Algo::Serial),
        ) {
            Err(Rejection::ClientLimit { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("third in-flight submit for client 2 must be refused, got {other:?}"),
        }

        // Global bound: fresh clients fill the remaining queue slots, then trip
        // saturation.
        let mut saturated = None;
        for client in 3..3 + 8 {
            match engine.submit(
                client,
                g.clone(),
                s.clone(),
                SolveOptions::default(),
                AlgoChoice::Single(Algo::Serial),
            ) {
                Ok(info) => accepted.push(info.session),
                Err(Rejection::Saturated { retry_after_ms }) => {
                    saturated = Some(retry_after_ms);
                    break;
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(saturated.unwrap() > 0, "queue bound must trip saturation");

        // Unblock the worker and drain; registry and fairness tracking return to
        // baseline once everything is released.
        engine.cancel(accepted[0]).unwrap();
        for id in accepted {
            let session = engine.find_session(id).unwrap();
            let _ = engine.wait_done(&session);
            engine.release(id).unwrap();
        }
        assert_eq!(engine.session_count(), 0);
        assert_eq!(engine.tracked_clients(), 0);
        engine.shutdown();
    }

    /// A test-only solver whose every solve panics.
    struct Panicking;

    impl Solver for Panicking {
        fn name(&self) -> &str {
            "Panicking"
        }

        fn solve(
            &self,
            _problem: &Problem<'_>,
            _options: &SolveOptions,
            _progress: &mut dyn bsa::schedule::Progress,
        ) -> Result<Solution, SolveError> {
            panic!("injected solver panic")
        }
    }

    #[test]
    fn a_panicking_solve_ends_its_session_as_internal_and_the_worker_serves_on() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let (g, s) = tiny_instance();
        let session = Arc::new(Session::new(
            engine.next_id.fetch_add(1, Ordering::Relaxed),
            1,
            "panicking",
            CancelToken::new(),
            Work::Solve {
                instance: Arc::new(ProblemInstance::validated(g.clone(), s.clone()).unwrap()),
                solver: Box::new(Panicking),
                options: SolveOptions::default(),
            },
        ));
        engine.enqueue(Arc::clone(&session)).unwrap();
        let mut seq = 0;
        let end = loop {
            match engine.next_stream_item(&session, seq) {
                StreamItem::Event { .. } => seq += 1,
                StreamItem::End { payload } => break payload,
            }
        };
        assert_eq!(end.get("ok").and_then(Value::as_bool), Some(false));
        let error = end.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("internal"));
        let detail = error.get("detail").and_then(Value::as_str).unwrap();
        assert!(detail.contains("injected solver panic"), "{detail}");

        // The only worker survived the panic: the next submit completes …
        let info = engine
            .submit(
                1,
                g,
                s,
                SolveOptions::default(),
                AlgoChoice::Single(Algo::Dls),
            )
            .unwrap();
        drain(&engine, info.session);
        // … and shutdown drains the pool instead of waiting on a lost worker.
        let summary = engine.shutdown();
        assert_eq!(summary.get("sessions").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn a_panic_under_a_session_or_registry_lock_does_not_take_the_engine_down() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let (g, s) = tiny_instance();
        let info = engine
            .submit(
                1,
                g,
                s,
                SolveOptions::default(),
                AlgoChoice::Single(Algo::Bsa),
            )
            .unwrap();
        let session = engine.find_session(info.session).unwrap();
        drain(&engine, info.session);

        // Poison the finished session's lock and then the registry lock.
        let held = Arc::clone(&session);
        std::thread::spawn(move || {
            let _guard = held.shared.lock().unwrap();
            panic!("injected panic under the session lock");
        })
        .join()
        .unwrap_err();
        let held = Arc::clone(&engine);
        std::thread::spawn(move || {
            let _guard = held.registry.lock().unwrap();
            panic!("injected panic under the registry lock");
        })
        .join()
        .unwrap_err();
        assert!(session.shared.is_poisoned() && engine.registry.is_poisoned());

        let rows = engine.list();
        let rows = rows.as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("state").and_then(Value::as_str), Some("done"));
        let status = engine.status();
        assert_eq!(status.get("sessions").and_then(Value::as_u64), Some(1));
        match engine.next_stream_item(&session, usize::MAX) {
            StreamItem::End { payload } => {
                assert_eq!(payload.get("ok").and_then(Value::as_bool), Some(true));
            }
            StreamItem::Event { .. } => panic!("a finished session's stream must end"),
        }
        let summary = engine.shutdown();
        let rows = summary.get("sessions").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn shutdown_cancels_live_sessions_and_reports_incumbents() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let (g, s) = tiny_instance();
        let info = engine
            .submit(
                1,
                g,
                s,
                SolveOptions::default(),
                AlgoChoice::Single(Algo::Bsa),
            )
            .unwrap();
        let summary = engine.shutdown();
        let rows = summary.get("sessions").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("session").unwrap().as_u64(), Some(info.session));
        // After shutdown, new submits are refused.
        let (g2, s2) = tiny_instance();
        assert!(matches!(
            engine.submit(1, g2, s2, SolveOptions::default(), AlgoChoice::Portfolio),
            Err(Rejection::ShuttingDown)
        ));
    }
}
