//! Portfolio racing: run several solver configurations over one shared [`Problem`]
//! on OS threads and keep the best answer.
//!
//! BSA's quality is configuration-sensitive — pivot strategy, route policy and (for
//! randomized solvers) the seed all shift the final schedule length, while re-timing
//! mode changes only the cost — and no single configuration dominates across
//! instances.  A [`Portfolio`] races N [`PortfolioEntry`] configurations concurrently
//! over the *same* validated problem (sharable because `Problem` is `Send + Sync`,
//! statically asserted in [`crate::solver`]):
//!
//! * every entry solves under its own [`SolveOptions`], merged with the caller's
//!   outer budgets (deadline, migration budget, cancellation);
//! * incumbent improvements are published through a shared
//!   [`IncumbentCell`] — only **globally** improving
//!   lengths are forwarded to the caller's observer, so the merged event stream shows
//!   a monotone incumbent;
//! * each entry gets a private [`CancelToken`]; the race cancels losers as soon as a
//!   winner is decided ([`RaceStrategy::FirstConverged`]) or the caller's token or
//!   observer stops the whole race;
//! * every entry's end is announced with [`SolveEvent::ConfigFinished`] — after the
//!   winner's, no further per-step events from losing configurations are forwarded;
//! * an entry whose solver panics finishes as [`SolveError::Internal`], like an entry
//!   that fails, so the race still returns the best of the others.
//!
//! With [`RaceStrategy::BestOfAll`] (the default) the portfolio's *result* is
//! deterministic at any worker count: every entry runs to its own stop, and the
//! winner is the smallest final length with ties broken by the lowest entry index.
//! The interleaving of forwarded events is scheduling-dependent in either strategy;
//! [`RaceStrategy::FirstConverged`] additionally lets the wall clock pick the winner,
//! trading determinism for latency.

use crate::pool::{fan_out, IncumbentCell};
use crate::solver::{
    BudgetMeter, CancelToken, Problem, Progress, Provenance, Solution, SolveError, SolveEvent,
    SolveOptions, Solver, StopReason,
};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How often the event pump polls the caller's [`CancelToken`] while no worker
/// message is pending.  Bounds the propagation latency from an outer `cancel()` to
/// the workers' private tokens.
const CANCEL_POLL: Duration = Duration::from_millis(5);

/// One racing configuration: a solver plus the options it runs under.
pub struct PortfolioEntry {
    /// Human-readable label used in provenance ("bsa/min-transfer", …).
    pub label: String,
    /// The solver.  `Send + Sync` because the entry is solved on a worker thread
    /// while the portfolio (holding the roster) is borrowed by all of them.
    pub solver: Box<dyn Solver + Send + Sync>,
    /// Per-entry options: route policy, budgets and seed live here, while re-timing
    /// mode and pivot strategy live in the solver's own configuration.  The caller's
    /// outer budgets are merged in at race time (the tighter of the two wins); the
    /// `cancel` slot is replaced by the race's private per-entry token.
    pub options: SolveOptions,
}

impl std::fmt::Debug for PortfolioEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEntry")
            .field("label", &self.label)
            .field("solver", &self.solver.name())
            .field("options", &self.options)
            .finish()
    }
}

/// How the race declares its winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceStrategy {
    /// Run every entry to its own stop and keep the smallest final schedule length,
    /// ties broken by the lowest entry index.  The result is **deterministic** at any
    /// worker count (given deterministic entries).
    #[default]
    BestOfAll,
    /// The first entry to converge naturally wins and the losers are cancelled
    /// immediately.  Lowest latency, but the wall clock picks the winner, so the
    /// result may vary across runs on a loaded machine.
    FirstConverged,
}

impl RaceStrategy {
    /// `snake_case` label used in provenance and reports.
    pub fn label(self) -> &'static str {
        match self {
            RaceStrategy::BestOfAll => "best_of_all",
            RaceStrategy::FirstConverged => "first_converged",
        }
    }
}

/// A solver that races a roster of configurations and returns the winner's solution.
///
/// Build with [`Portfolio::new`] + [`Portfolio::add`], then use it like any other
/// [`Solver`].  The returned [`Solution`] is the winning entry's schedule, metrics
/// and trace; its [`Provenance`] is rewritten to name the portfolio, the strategy and
/// the winning entry.
#[derive(Debug, Default)]
pub struct Portfolio {
    entries: Vec<PortfolioEntry>,
    strategy: RaceStrategy,
    /// Racing worker threads; 0 (default) means one per entry.
    threads: usize,
}

impl Portfolio {
    /// An empty portfolio with the default [`RaceStrategy::BestOfAll`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one racing configuration.
    pub fn add(
        mut self,
        label: impl Into<String>,
        solver: Box<dyn Solver + Send + Sync>,
        options: SolveOptions,
    ) -> Self {
        self.entries.push(PortfolioEntry {
            label: label.into(),
            solver,
            options,
        });
        self
    }

    /// Sets the winner-selection strategy.
    pub fn with_strategy(mut self, strategy: RaceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the racing worker threads.  `0` (the default) races one thread per
    /// entry; `1` degrades to a sequential sweep over the entries (still correct —
    /// [`RaceStrategy::BestOfAll`] picks the same winner at any worker count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The racing configurations, in entry-index order.
    pub fn entries(&self) -> &[PortfolioEntry] {
        &self.entries
    }

    /// Number of racing configurations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the roster is empty (an empty portfolio cannot solve).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry options merged with the caller's outer budgets: the tighter
    /// deadline and migration budget win, the outer seed fills an unset entry seed,
    /// and the cancel slot is replaced with the race's private `token`.
    fn merged_options(&self, i: usize, outer: &SolveOptions, token: CancelToken) -> SolveOptions {
        let entry = &self.entries[i].options;
        let mut merged = entry.clone();
        merged.cancel = Some(token);
        merged.deadline = match (entry.deadline, outer.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        merged.max_migrations = match (entry.max_migrations, outer.max_migrations) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        merged.seed = entry.seed.or(outer.seed);
        // A cached routing table supplied by the caller serves any entry whose
        // effective policy matches it (the shape/policy guard in
        // `SolveOptions::comm_model` rebuilds for the rest).
        merged.routing = entry.routing.clone().or_else(|| outer.routing.clone());
        merged
    }
}

/// What a worker reports to the event pump on the calling thread.
enum Msg {
    /// A per-step event of entry `config`'s solve.
    Event { config: usize, event: SolveEvent },
    /// Entry `config` finished with `result`.
    Done {
        config: usize,
        result: Box<Result<Solution, SolveError>>,
    },
}

impl Solver for Portfolio {
    fn name(&self) -> &str {
        "Portfolio"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        options: &SolveOptions,
        progress: &mut dyn Progress,
    ) -> Result<Solution, SolveError> {
        if self.entries.is_empty() {
            return Err(SolveError::InvalidOptions {
                detail: "the portfolio has no entries to race".into(),
            });
        }
        let n = self.entries.len();
        let workers = if self.threads == 0 {
            n
        } else {
            self.threads.min(n)
        };
        let meter = BudgetMeter::start(options);

        // Private per-entry tokens let the race cancel each loser individually; the
        // caller's token is polled by the pump and fanned out to all of them.
        let tokens: Vec<CancelToken> = (0..n).map(|_| CancelToken::new()).collect();
        let merged: Vec<SolveOptions> = (0..n)
            .map(|i| self.merged_options(i, options, tokens[i].clone()))
            .collect();

        let cell = IncumbentCell::new();
        let (tx, rx) = mpsc::channel::<Msg>();

        let mut results: Vec<Option<Result<Solution, SolveError>>> = (0..n).map(|_| None).collect();
        let mut winner: Option<usize> = None;
        let mut broke = false;
        let mut outer_cancelled = false;

        {
            let tx = &tx;
            let cell = &cell;
            let merged = &merged;
            fan_out(
                n,
                workers,
                move |i| {
                    let mut forward = |event: &SolveEvent| -> ControlFlow<()> {
                        let publish = match event {
                            // Only globally improving incumbents reach the caller,
                            // so the merged stream stays monotone.
                            SolveEvent::IncumbentImproved { length } => cell.offer(i, *length),
                            _ => true,
                        };
                        if publish {
                            let _ = tx.send(Msg::Event {
                                config: i,
                                event: *event,
                            });
                        }
                        ControlFlow::Continue(())
                    };
                    let entry = &self.entries[i];
                    // A panicking entry must still report `Done`, or the pump below
                    // would wait for it forever.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        entry.solver.solve(problem, &merged[i], &mut forward)
                    }))
                    .unwrap_or_else(|payload| {
                        let who = format!("portfolio entry {}", entry.label);
                        Err(SolveError::panicked(&who, &*payload))
                    });
                    let _ = tx.send(Msg::Done {
                        config: i,
                        result: Box::new(result),
                    });
                },
                || {
                    // The event pump: forward merged events, declare the winner,
                    // propagate outer cancellation, honour observer breaks.
                    let mut done = 0usize;
                    while done < n {
                        if !outer_cancelled
                            && options
                                .cancel
                                .as_ref()
                                .is_some_and(CancelToken::is_cancelled)
                        {
                            outer_cancelled = true;
                            for t in &tokens {
                                t.cancel();
                            }
                        }
                        let msg = match rx.recv_timeout(CANCEL_POLL) {
                            Ok(m) => m,
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        match msg {
                            Msg::Event { config, event } => {
                                let suppressed = broke || winner.is_some_and(|w| w != config);
                                if !suppressed && progress.on_event(&event).is_break() {
                                    broke = true;
                                    for t in &tokens {
                                        t.cancel();
                                    }
                                }
                            }
                            Msg::Done { config, result } => {
                                done += 1;
                                let (length, stop) = match result.as_ref() {
                                    Ok(s) => (Some(s.metrics.schedule_length), s.provenance.stop),
                                    Err(SolveError::BudgetExhaustedBeforeFeasible { stop }) => {
                                        (None, *stop)
                                    }
                                    // Entries that failed outright carry no stop
                                    // reason; report natural termination, no length.
                                    Err(_) => (None, StopReason::Converged),
                                };
                                if self.strategy == RaceStrategy::FirstConverged
                                    && winner.is_none()
                                    && length.is_some()
                                    && stop == StopReason::Converged
                                {
                                    winner = Some(config);
                                    for (j, t) in tokens.iter().enumerate() {
                                        if j != config {
                                            t.cancel();
                                        }
                                    }
                                }
                                if !broke {
                                    let ev = SolveEvent::ConfigFinished {
                                        config,
                                        length,
                                        stop,
                                    };
                                    if progress.on_event(&ev).is_break() {
                                        broke = true;
                                        for t in &tokens {
                                            t.cancel();
                                        }
                                    }
                                }
                                results[config] = Some(*result);
                            }
                        }
                    }
                },
            );
        }
        drop(tx);

        let results: Vec<Result<Solution, SolveError>> = results
            .into_iter()
            .map(|r| r.expect("every racing entry reports a result"))
            .collect();

        // Winner selection.  FirstConverged keeps the wall-clock winner when one
        // converged; otherwise (and always for BestOfAll) the smallest final length
        // wins, ties broken by the lowest entry index — deterministic given
        // deterministic entries.
        let best_by_length = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().ok().map(|s| (i, s.metrics.schedule_length)))
            .min_by(|(i, a), (j, b)| a.total_cmp(b).then(i.cmp(j)))
            .map(|(i, _)| i);
        let chosen = match self.strategy {
            RaceStrategy::FirstConverged => winner.or(best_by_length),
            RaceStrategy::BestOfAll => best_by_length,
        };

        let Some(chosen) = chosen else {
            // No entry produced a feasible schedule.
            if outer_cancelled {
                return Err(SolveError::BudgetExhaustedBeforeFeasible {
                    stop: StopReason::Cancelled,
                });
            }
            if broke {
                return Err(SolveError::BudgetExhaustedBeforeFeasible {
                    stop: StopReason::ObserverStopped,
                });
            }
            let first_error = results
                .into_iter()
                .find_map(Result::err)
                .expect("no Ok result implies at least one error");
            return Err(first_error);
        };

        let mut results = results;
        let mut solution = std::mem::replace(
            &mut results[chosen],
            Err(SolveError::Internal {
                detail: "winner extracted".into(),
            }),
        )
        .expect("chosen index is an Ok result");

        let stop = if outer_cancelled {
            StopReason::Cancelled
        } else if broke {
            StopReason::ObserverStopped
        } else {
            solution.provenance.stop
        };
        solution.provenance = Provenance {
            solver: self.name().to_string(),
            config: format!(
                "{}; {} entries; winner = {} ({})",
                self.strategy.label(),
                n,
                self.entries[chosen].label,
                solution.provenance.config
            ),
            elapsed: meter.elapsed(),
            stop,
            seed: options.seed,
            route_policy: solution.provenance.route_policy,
            threads: workers,
            warm_start: false,
            delta: None,
        };
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::HeterogeneousSystem;
    use bsa_taskgraph::TaskGraphBuilder;

    #[test]
    fn strategy_labels_and_default() {
        assert_eq!(RaceStrategy::default(), RaceStrategy::BestOfAll);
        assert_eq!(RaceStrategy::BestOfAll.label(), "best_of_all");
        assert_eq!(RaceStrategy::FirstConverged.label(), "first_converged");
    }

    #[test]
    fn empty_portfolio_refuses_to_solve() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("a", 1.0);
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(2).unwrap());
        let p = Problem::new(&g, &sys).unwrap();
        let portfolio = Portfolio::new();
        assert!(portfolio.is_empty());
        assert_eq!(portfolio.len(), 0);
        assert!(matches!(
            portfolio.solve_unbounded(&p),
            Err(SolveError::InvalidOptions { .. })
        ));
    }
}
