//! Full validation of a finished schedule against the paper's contention model.
//!
//! A schedule is valid iff:
//!
//! 1. every task is placed on an existing processor and its execution window matches the
//!    actual execution cost of the cost matrix;
//! 2. no two tasks overlap on the same processor;
//! 3. for every edge whose endpoints share a processor, the consumer starts no earlier than
//!    the producer finishes (local messages are free, as in the paper);
//! 4. for every edge whose endpoints are on different processors, a route exists that
//!    (a) starts at the producer's processor, (b) ends at the consumer's processor,
//!    (c) uses only adjacent links forming a path, (d) each hop lasts exactly the link's
//!    actual transfer time, (e) the first hop starts after the producer finishes, hops are
//!    store-and-forward ordered, and the consumer starts after the last hop finishes;
//! 5. no two transmissions overlap on the same link (half-duplex); in full-duplex mode only
//!    same-direction overlaps are forbidden.
//!
//! Every scheduler in this workspace is tested by running it on randomized inputs and
//! validating the result with [`validate`], which is the strongest end-to-end correctness
//! check we have.  The daemon and the benchmark validate every result too, so the check
//! is linear up to its sorts: placements are bucketed by processor and hops by link with
//! one counting sort each into flat buffers, each bucket is sorted by start exactly as
//! [`Schedule::tasks_on`] and [`Schedule::hops_on`] order it (input order kept for
//! ties), (2) compares adjacent placements, and (5) sweeps each link's hops, comparing
//! a hop only with the later ones that start before it finishes (less [`TIME_EPS`]).
//! With `N` tasks, `E` edges and `H` hops that is O(E + N log N + H log H) plus one
//! step per overlapping pair, not a rescan of every route per link and a comparison of
//! every pair of hops on it.  The error list is the same, entry for entry.

use crate::schedule::Schedule;
use crate::timeline::TIME_EPS;
use bsa_network::{HeterogeneousSystem, LinkMode, ProcId};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId};

/// A violation of the contention-constrained scheduling model.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The schedule does not cover every task of the graph.
    WrongTaskCount { expected: usize, actual: usize },
    /// A task references a processor outside the topology.
    UnknownProcessor(TaskId, ProcId),
    /// A task's execution window does not equal its actual execution cost.
    WrongDuration {
        task: TaskId,
        expected: f64,
        actual: f64,
    },
    /// Two tasks overlap on the same processor.
    ProcessorOverlap(TaskId, TaskId, ProcId),
    /// A precedence constraint between co-located tasks is violated.
    LocalPrecedence {
        edge: EdgeId,
        src: TaskId,
        dst: TaskId,
    },
    /// A remote edge has no route.
    MissingRoute(EdgeId),
    /// A local edge carries a (useless) route — flagged because it indicates scheduler
    /// bookkeeping bugs.
    SpuriousRoute(EdgeId),
    /// A route does not start at the producer's processor or end at the consumer's.
    RouteEndpoints(EdgeId),
    /// Consecutive hops of a route are not joined at a common processor or use non-adjacent
    /// links.
    BrokenRoute(EdgeId),
    /// A hop's duration does not equal the link's actual transfer time.
    WrongHopDuration { edge: EdgeId, hop: usize },
    /// A message hop starts before the producing task finishes, or before the previous hop.
    MessageTooEarly { edge: EdgeId, hop: usize },
    /// The consuming task starts before the message arrives.
    RemotePrecedence { edge: EdgeId },
    /// Two transmissions overlap on a link (respecting the link mode).
    LinkContention { link: bsa_network::LinkId },
    /// A start or finish time is negative or not finite.
    InvalidTime(TaskId),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ValidationError {}

/// Validates `schedule` for `graph` on `system`; returns every violation found.
pub fn validate(
    schedule: &Schedule,
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let m = system.num_processors();

    if schedule.placements().len() != graph.num_tasks() {
        errors.push(ValidationError::WrongTaskCount {
            expected: graph.num_tasks(),
            actual: schedule.placements().len(),
        });
        return errors;
    }

    // (1) placements well-formed.
    for t in graph.task_ids() {
        let pl = schedule.placement(t);
        if !pl.start.is_finite() || !pl.finish.is_finite() || pl.start < -TIME_EPS {
            errors.push(ValidationError::InvalidTime(t));
            continue;
        }
        if pl.proc.index() >= m {
            errors.push(ValidationError::UnknownProcessor(t, pl.proc));
            continue;
        }
        let expected = system.exec_cost(t, pl.proc);
        let actual = pl.finish - pl.start;
        if (actual - expected).abs() > 1e-6 * expected.max(1.0) {
            errors.push(ValidationError::WrongDuration {
                task: t,
                expected,
                actual,
            });
        }
    }

    // (2) processor exclusivity, on placements bucketed by processor.
    let placements = schedule.placements();
    let mut bounds = Vec::new();
    let mut on_proc = bucket(
        placements.iter(),
        m,
        |pl| pl.proc.index(),
        |i, _| i as u32,
        &mut bounds,
    );
    for p in system.topology.proc_ids() {
        let tasks = &mut on_proc[bounds[p.index()]..bounds[p.index() + 1]];
        // `Schedule::tasks_on`'s order: by start, input order kept for ties.
        tasks.sort_unstable_by(|&a, &b| {
            let (x, y) = (&placements[a as usize], &placements[b as usize]);
            x.start.total_cmp(&y.start).then(a.cmp(&b))
        });
        for w in tasks.windows(2) {
            let (a, b) = (&placements[w[0] as usize], &placements[w[1] as usize]);
            if b.start < a.finish - TIME_EPS {
                errors.push(ValidationError::ProcessorOverlap(a.task, b.task, p));
            }
        }
    }

    // (3) + (4) precedence and routes.
    for e in graph.edges() {
        let src_pl = schedule.placement(e.src);
        let dst_pl = schedule.placement(e.dst);
        let route = schedule.route(e.id);
        if src_pl.proc == dst_pl.proc {
            if !route.is_local() {
                errors.push(ValidationError::SpuriousRoute(e.id));
            }
            if dst_pl.start < src_pl.finish - TIME_EPS {
                errors.push(ValidationError::LocalPrecedence {
                    edge: e.id,
                    src: e.src,
                    dst: e.dst,
                });
            }
            continue;
        }
        if route.is_local() {
            errors.push(ValidationError::MissingRoute(e.id));
            continue;
        }
        // Route endpoints and path structure.
        let first = route.hops.first().unwrap();
        let last = route.hops.last().unwrap();
        if first.from != src_pl.proc || last.to != dst_pl.proc {
            errors.push(ValidationError::RouteEndpoints(e.id));
        }
        let mut broken = false;
        for (k, hop) in route.hops.iter().enumerate() {
            // The hop's link must actually join hop.from and hop.to.
            match system.topology.link_between(hop.from, hop.to) {
                Some(l) if l == hop.link => {}
                _ => {
                    broken = true;
                }
            }
            if k > 0 && route.hops[k - 1].to != hop.from {
                broken = true;
            }
            let expected = system.transfer_time(hop.link, e.nominal_cost);
            if (hop.finish - hop.start - expected).abs() > 1e-6 * expected.max(1.0) {
                errors.push(ValidationError::WrongHopDuration { edge: e.id, hop: k });
            }
            let earliest = if k == 0 {
                src_pl.finish
            } else {
                route.hops[k - 1].finish
            };
            if hop.start < earliest - TIME_EPS {
                errors.push(ValidationError::MessageTooEarly { edge: e.id, hop: k });
            }
        }
        if broken {
            errors.push(ValidationError::BrokenRoute(e.id));
        }
        if dst_pl.start < last.finish - TIME_EPS {
            errors.push(ValidationError::RemotePrecedence { edge: e.id });
        }
    }

    // (5) link contention, on hops bucketed by link and swept in start order.
    let mut on_link = bucket(
        schedule.routes().iter().flat_map(|r| &r.hops),
        system.topology.num_links(),
        |h| h.link.index(),
        |seq, h| SweptHop {
            start: h.start,
            finish: h.finish,
            from: h.from.index() as u32,
            seq: seq as u32,
        },
        &mut bounds,
    );
    let half_duplex = system.topology.link_mode() == LinkMode::HalfDuplex;
    for l in system.topology.link_ids() {
        let hops = &mut on_link[bounds[l.index()]..bounds[l.index() + 1]];
        // `Schedule::hops_on`'s order: by start, input order kept for ties.
        hops.sort_unstable_by(|a, b| a.start.total_cmp(&b.start).then(a.seq.cmp(&b.seq)));
        for (i, a) in hops.iter().enumerate() {
            // Every later hop starts at or after this one, so the first that starts at
            // or after `a.finish − TIME_EPS` ends the hops that can overlap it.
            for b in hops[i + 1..]
                .iter()
                .take_while(|b| b.start < a.finish - TIME_EPS)
            {
                if a.start < b.finish - TIME_EPS && (half_duplex || a.from == b.from) {
                    errors.push(ValidationError::LinkContention { link: l });
                }
            }
        }
    }

    errors
}

/// A hop as the link-contention sweep reads it; `seq` is its position among all hops
/// in route order, which breaks ties between equal starts.
#[derive(Debug, Clone, Copy, Default)]
struct SweptHop {
    start: f64,
    finish: f64,
    from: u32,
    seq: u32,
}

/// Counting sort of `items` into `buckets` buckets by `key`, in one flat buffer: bucket
/// `k` is `out[bounds[k]..bounds[k + 1]]` and holds `entry(i, item)` for each `i`-th
/// item whose key is `k`, in input order.  Items whose key is `buckets` or more (an
/// unknown processor or link) are left out.
fn bucket<T: Copy, U: Copy + Default>(
    items: impl Iterator<Item = T> + Clone,
    buckets: usize,
    key: impl Fn(T) -> usize,
    entry: impl Fn(usize, T) -> U,
    bounds: &mut Vec<usize>,
) -> Vec<U> {
    bounds.clear();
    bounds.resize(buckets + 1, 0);
    for item in items.clone() {
        let k = key(item);
        if k < buckets {
            bounds[k + 1] += 1;
        }
    }
    for k in 0..buckets {
        bounds[k + 1] += bounds[k];
    }
    let mut next = bounds[..buckets].to_vec();
    let mut out = vec![U::default(); bounds[buckets]];
    for (i, item) in items.enumerate() {
        let k = key(item);
        if k < buckets {
            out[next[k]] = entry(i, item);
            next[k] += 1;
        }
    }
    out
}

/// Convenience helper: panics with a readable message if the schedule is invalid.
/// Used pervasively in tests.
pub fn assert_valid(schedule: &Schedule, graph: &TaskGraph, system: &HeterogeneousSystem) {
    let errors = validate(schedule, graph, system);
    assert!(
        errors.is_empty(),
        "schedule produced by {} is invalid: {:?}",
        schedule.algorithm,
        &errors[..errors.len().min(10)]
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{MessageHop, MessageRoute, TaskPlacement};
    use bsa_network::builders::ring;
    use bsa_network::{HeterogeneousSystem, LinkId};
    use bsa_taskgraph::TaskGraphBuilder;

    fn pair_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 10.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.build().unwrap()
    }

    fn sys(graph: &TaskGraph) -> HeterogeneousSystem {
        HeterogeneousSystem::homogeneous(graph, ring(3).unwrap())
    }

    fn placement(t: u32, p: u32, start: f64, finish: f64) -> TaskPlacement {
        TaskPlacement {
            task: TaskId(t),
            proc: ProcId(p),
            start,
            finish,
        }
    }

    #[test]
    fn a_correct_local_schedule_validates() {
        let g = pair_graph();
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 0, 10.0, 20.0)],
            vec![MessageRoute::local(EdgeId(0))],
            3,
            3,
        );
        assert!(validate(&s, &g, &sys(&g)).is_empty());
    }

    #[test]
    fn a_correct_remote_schedule_validates() {
        let g = pair_graph();
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 1, 14.0, 24.0)],
            vec![MessageRoute {
                edge: EdgeId(0),
                hops: vec![MessageHop {
                    link: LinkId(0),
                    from: ProcId(0),
                    to: ProcId(1),
                    start: 10.0,
                    finish: 14.0,
                }],
            }],
            3,
            3,
        );
        assert!(validate(&s, &g, &sys(&g)).is_empty());
    }

    #[test]
    fn detects_local_precedence_violation() {
        let g = pair_graph();
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 0, 5.0, 15.0)],
            vec![MessageRoute::local(EdgeId(0))],
            3,
            3,
        );
        let errs = validate(&s, &g, &sys(&g));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::LocalPrecedence { .. })));
        // The same overlap is also a processor-exclusivity violation.
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::ProcessorOverlap(..))));
    }

    #[test]
    fn detects_missing_route_and_wrong_duration() {
        let g = pair_graph();
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 1, 10.0, 25.0)],
            vec![MessageRoute::local(EdgeId(0))],
            3,
            3,
        );
        let errs = validate(&s, &g, &sys(&g));
        assert!(errs.contains(&ValidationError::MissingRoute(EdgeId(0))));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::WrongDuration { .. })));
    }

    #[test]
    fn detects_message_too_early_and_remote_precedence() {
        let g = pair_graph();
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 1, 11.0, 21.0)],
            vec![MessageRoute {
                edge: EdgeId(0),
                hops: vec![MessageHop {
                    link: LinkId(0),
                    from: ProcId(0),
                    to: ProcId(1),
                    start: 8.0, // before the producer finishes
                    finish: 12.0,
                }],
            }],
            3,
            3,
        );
        let errs = validate(&s, &g, &sys(&g));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::MessageTooEarly { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::RemotePrecedence { .. })));
    }

    #[test]
    fn detects_broken_routes_and_wrong_endpoints() {
        let g = pair_graph();
        // Route uses link L1 (P1-P2) which does not join P0 and P1.
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 1, 14.0, 24.0)],
            vec![MessageRoute {
                edge: EdgeId(0),
                hops: vec![MessageHop {
                    link: LinkId(1),
                    from: ProcId(0),
                    to: ProcId(1),
                    start: 10.0,
                    finish: 14.0,
                }],
            }],
            3,
            3,
        );
        let errs = validate(&s, &g, &sys(&g));
        assert!(errs.contains(&ValidationError::BrokenRoute(EdgeId(0))));

        // Route that ends on the wrong processor.
        let s2 = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 1, 14.0, 24.0)],
            vec![MessageRoute {
                edge: EdgeId(0),
                hops: vec![MessageHop {
                    link: LinkId(2), // joins P0 and P2 in a 3-ring
                    from: ProcId(0),
                    to: ProcId(2),
                    start: 10.0,
                    finish: 14.0,
                }],
            }],
            3,
            3,
        );
        let errs2 = validate(&s2, &g, &sys(&g));
        assert!(errs2.contains(&ValidationError::RouteEndpoints(EdgeId(0))));
    }

    #[test]
    fn detects_link_contention() {
        // Two independent producer/consumer pairs using the same link at the same time.
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("a", 10.0);
        let c = b.add_task("c", 10.0);
        let x = b.add_task("x", 10.0);
        let y = b.add_task("y", 10.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.add_edge(x, y, 4.0).unwrap();
        let g = b.build().unwrap();
        let system = sys(&g);
        let hop = |start: f64| MessageHop {
            link: LinkId(0),
            from: ProcId(0),
            to: ProcId(1),
            start,
            finish: start + 4.0,
        };
        let s = Schedule::new(
            "t",
            vec![
                placement(0, 0, 0.0, 10.0),
                placement(1, 1, 14.0, 24.0),
                placement(2, 0, 10.0, 20.0),
                placement(3, 1, 30.0, 40.0),
            ],
            vec![
                MessageRoute {
                    edge: EdgeId(0),
                    hops: vec![hop(10.0)],
                },
                MessageRoute {
                    edge: EdgeId(1),
                    hops: vec![hop(12.0)], // overlaps [10,14)
                },
            ],
            3,
            3,
        );
        let errs = validate(&s, &g, &system);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::LinkContention { .. })));
    }

    #[test]
    fn detects_spurious_route_on_local_edge() {
        let g = pair_graph();
        let s = Schedule::new(
            "t",
            vec![placement(0, 0, 0.0, 10.0), placement(1, 0, 10.0, 20.0)],
            vec![MessageRoute {
                edge: EdgeId(0),
                hops: vec![MessageHop {
                    link: LinkId(0),
                    from: ProcId(0),
                    to: ProcId(1),
                    start: 10.0,
                    finish: 14.0,
                }],
            }],
            3,
            3,
        );
        let errs = validate(&s, &g, &sys(&g));
        assert!(errs.contains(&ValidationError::SpuriousRoute(EdgeId(0))));
    }

    #[test]
    fn detects_wrong_task_count_and_unknown_processor() {
        let g = pair_graph();
        let s = Schedule::new("t", vec![placement(0, 0, 0.0, 10.0)], vec![], 3, 3);
        assert!(matches!(
            validate(&s, &g, &sys(&g))[0],
            ValidationError::WrongTaskCount { .. }
        ));

        let s2 = Schedule::new(
            "t",
            vec![placement(0, 9, 0.0, 10.0), placement(1, 0, 10.0, 20.0)],
            vec![MessageRoute::local(EdgeId(0))],
            3,
            3,
        );
        let errs = validate(&s2, &g, &sys(&g));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::UnknownProcessor(..))));
    }
}
