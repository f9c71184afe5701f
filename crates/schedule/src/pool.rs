//! A tiny scoped worker pool for racing solver configurations.
//!
//! [`fan_out`] dispatches job indices to a bounded set of OS threads from a shared
//! atomic counter while the *calling* thread runs a pump closure — the shape
//! [`crate::portfolio`] needs, where workers solve and the caller forwards their
//! streamed events to the observer.  [`IncumbentCell`] is the `parking_lot`-guarded
//! cell through which racing workers publish the best schedule length seen so far.
//! Every solver runs on its caller's thread; this pool is the only place a solve
//! spawns threads.
//!
//! `rayon` would provide the fan-out, but the offline dependency set of this
//! reproduction does not include it and the few lines below are all the portfolio
//! needs.  Scoped threads keep lifetimes honest: workers may borrow the problem and
//! the job list, and [`fan_out`] does not return until every worker has exited, so no
//! thread ever outlives the solve call.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs jobs `0..jobs` on up to `threads` scoped worker threads while `pump` runs on
/// the calling thread.
///
/// Workers claim indices from a shared atomic counter, so a slow job never blocks the
/// others.  The call returns when `pump` has returned **and** every worker has
/// finished.  A panicking `worker` ends its thread: its job never finishes, the
/// other threads go on claiming jobs (with one thread, the rest never run), and the
/// panic resumes in the caller only when the scope closes, after `pump` has returned
/// — so a `pump` that waits for every job to report hangs.  [`crate::portfolio`]
/// therefore catches panics inside `worker`.
///
/// With `threads == 1` (or a single job) no thread is spawned for parallelism's sake —
/// one worker still runs concurrently with `pump`, because `pump` typically blocks on
/// a channel the workers feed.
pub fn fan_out<W, P>(jobs: usize, threads: usize, worker: W, pump: P)
where
    W: Fn(usize) + Sync,
    P: FnOnce(),
{
    if jobs == 0 {
        pump();
        return;
    }
    let workers = threads.clamp(1, jobs);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                worker(i);
            });
        }
        pump();
    });
}

/// The best-incumbent cell shared by racing portfolio entries.
///
/// Workers [`offer`](IncumbentCell::offer) every incumbent improvement of their own
/// solve; the cell keeps the global minimum and reports whether the offer improved
/// it, which is what gates forwarding the improvement to the caller's observer.
#[derive(Debug, Default)]
pub struct IncumbentCell {
    best: Mutex<Option<(usize, f64)>>,
}

impl IncumbentCell {
    /// An empty cell: no incumbent yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers `length` from portfolio entry `config`.  Returns `true` when it
    /// strictly improved the global best (the first offer always does).
    pub fn offer(&self, config: usize, length: f64) -> bool {
        let mut best = self.best.lock();
        match *best {
            Some((_, incumbent)) if length >= incumbent => false,
            _ => {
                *best = Some((config, length));
                true
            }
        }
    }

    /// The current global best as `(entry index, length)`, if any incumbent exists.
    pub fn best(&self) -> Option<(usize, f64)> {
        *self.best.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_runs_every_job_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        fan_out(
            100,
            7,
            |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            || {},
        );
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fan_out_pump_runs_concurrently_with_workers() {
        // The pump blocks until a worker signals — deadlock here would mean the pump
        // and the workers do not actually overlap.
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        fan_out(
            3,
            2,
            move |i| {
                tx.send(i).unwrap();
            },
            || {
                let mut seen = Vec::new();
                for _ in 0..3 {
                    seen.push(rx.recv().unwrap());
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2]);
            },
        );
    }

    #[test]
    fn fan_out_with_no_jobs_still_pumps() {
        let mut pumped = false;
        fan_out(0, 4, |_| unreachable!("no jobs to run"), || pumped = true);
        assert!(pumped);
    }

    #[test]
    fn incumbent_cell_keeps_the_strict_minimum() {
        let cell = IncumbentCell::new();
        assert_eq!(cell.best(), None);
        assert!(cell.offer(2, 100.0));
        assert!(!cell.offer(0, 100.0)); // ties do not improve
        assert!(cell.offer(1, 90.0));
        assert!(!cell.offer(2, 95.0));
        assert_eq!(cell.best(), Some((1, 90.0)));
    }
}
