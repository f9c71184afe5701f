//! `cold-large`: BSA cold-solves two fixed 3000-task instances, on a 16- and a
//! 64-processor hypercube, with the default configuration, shortest-hop routing and
//! one thread.  A round is one solve of each.
//!
//! The instances are fixed rather than drawn from `--seed`: at this size solve time
//! varies by a factor of two between instances, far more than any change worth
//! measuring, and the expected schedules below pin exactly these two.  The seed
//! only decides which instance a round solves first.

use crate::chain;
use crate::instances::{generate, Instance, Placements};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{mean, per_op_medians, percentile};
use crate::trace::{Tracer, ROOT};
use crate::Ctx;
use bsa::prelude::*;
use bsa::schedule::validate::validate;
use std::time::Instant;

/// Seed of both instances (one graph, two machines).
const INSTANCE_SEED: u64 = 3;

/// Placements, starts and makespans of the two instances as the full-relaxation
/// oracle (`BsaConfig::full_retiming()`) schedules them; regenerate with
/// `bsabench write-expected`.
const EXPECTED: &str = include_str!("../expected/cold-large.txt");

/// One instance's expected schedule.
pub struct Expected {
    name: String,
    schedule: Placements,
}

fn parse_expected(text: &str) -> Result<Vec<Expected>, String> {
    let mut out: Vec<Expected> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let bad = || format!("expected/cold-large.txt:{}: malformed line", no + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [] => {}
            [first, ..] if first.starts_with('#') => {}
            ["instance", name, "makespan", makespan] => out.push(Expected {
                name: name.to_string(),
                schedule: Placements {
                    makespan: makespan.parse().map_err(|_| bad())?,
                    tasks: Vec::new(),
                },
            }),
            [proc, start] => out.last_mut().ok_or_else(bad)?.schedule.tasks.push((
                proc.parse().map_err(|_| bad())?,
                start.parse().map_err(|_| bad())?,
            )),
            _ => return Err(bad()),
        }
    }
    Ok(out)
}

fn expected_of(inst: &Instance, schedule: &Schedule) -> Expected {
    Expected {
        name: inst.name.clone(),
        schedule: Placements::of(schedule, &inst.graph),
    }
}

/// The first difference between a schedule and its expected form, if any.
fn difference(expected: &Expected, inst: &Instance, schedule: &Schedule) -> Option<String> {
    let got = expected_of(inst, schedule);
    if got.name != expected.name {
        return Some(format!(
            "instance {} expected, {} solved",
            expected.name, got.name
        ));
    }
    let (g, e) = (&got.schedule, &expected.schedule);
    if g.makespan != e.makespan {
        return Some(format!(
            "{}: makespan {} differs from the oracle's {}",
            got.name, g.makespan, e.makespan
        ));
    }
    if g.tasks.len() != e.tasks.len() {
        return Some(format!(
            "{}: task count differs from the oracle's",
            got.name
        ));
    }
    let (t, (g, e)) = g
        .tasks
        .iter()
        .zip(&e.tasks)
        .enumerate()
        .find(|(_, (g, e))| g != e)?;
    Some(format!(
        "{}: task {t} at {g:?} (processor, start), the oracle has {e:?}",
        got.name
    ))
}

fn oracle_solve(inst: &Instance) -> Result<Solution, String> {
    Bsa::new(BsaConfig::full_retiming())
        .solve_unbounded(&inst.problem())
        .map_err(|e| format!("{}: oracle solve failed: {e}", inst.name))
}

/// Solves both instances with the oracle kernel and rewrites the expected file.
pub fn write_expected(sizes: &crate::Sizes) -> Result<String, String> {
    let mut text = String::from(
        "# cold-large: expected schedules from BsaConfig::full_retiming(), the full-relaxation\n\
         # oracle.  Per instance: a header, then `processor start` for every task in id order.\n",
    );
    for &(tasks, procs) in &sizes.cold {
        let inst = generate(tasks, procs, INSTANCE_SEED);
        let solution = oracle_solve(&inst)?;
        if !validate(&solution.schedule, &inst.graph, &inst.system).is_empty() {
            return Err(format!(
                "{}: the oracle schedule fails validation",
                inst.name
            ));
        }
        let e = expected_of(&inst, &solution.schedule);
        text.push_str(&format!(
            "instance {} makespan {}\n",
            e.name, e.schedule.makespan
        ));
        for (proc, start) in e.schedule.tasks {
            text.push_str(&format!("{proc} {start}\n"));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/cold-large.txt");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path.to_string())
}

/// One cold solve of a round.
struct Op {
    /// `Problem::new` + `Solver::solve` seconds.
    solve_s: f64,
    /// Solve plus full validation, seconds.
    latency_s: f64,
    nsl: f64,
    /// Kept by traced rounds only, for the layer probes; an untraced round drops
    /// it so the peak RSS does not grow with the number of rounds.
    solution: Option<Solution>,
    migrations: u64,
}

/// Solves every instance once, in `order`; a traced round observes each solve with
/// the progress clock.
fn round(
    tr: &mut Tracer,
    outcome: &mut Outcome,
    instances: &[Instance],
    expected: &[Expected],
    order: &[usize],
) -> Vec<Op> {
    let options = SolveOptions::default();
    let mut ops = Vec::new();
    for &i in order {
        let inst = &instances[i];
        tr.set_request(i as u64);
        let op = tr.open("cold.solve", ROOT);
        let t0 = Instant::now();
        let problem = inst.problem();
        let t_new = Instant::now();
        let solved = if tr.is_on() {
            layers::clocked_solve(tr, &problem, &options, Some(op))
        } else {
            Bsa::default()
                .solve(&problem, &options, &mut NoProgress)
                .map(|s| (s, 0))
        };
        let t1 = Instant::now();
        let (solution, migrations) = match solved {
            Ok(s) => s,
            Err(e) => {
                outcome.check(false, || format!("{}: solve failed: {e}", inst.name));
                continue;
            }
        };
        let errors = validate(&solution.schedule, &inst.graph, &inst.system);
        let t2 = Instant::now();
        tr.record("schedule.problem_new", t0, t_new, Some(op));
        tr.record("schedule.validate", t1, t2, Some(op));
        tr.close(op);
        let diff = difference(&expected[i], inst, &solution.schedule);
        outcome.check(errors.is_empty() && diff.is_none(), || {
            format!(
                "{}: {} validation errors; {}",
                inst.name,
                errors.len(),
                diff.unwrap_or_else(|| "matches the oracle".into())
            )
        });
        ops.push(Op {
            solve_s: (t1 - t0).as_secs_f64(),
            latency_s: (t2 - t0).as_secs_f64(),
            nsl: solution.metrics.normalized_length,
            solution: tr.is_on().then_some(solution),
            migrations,
        });
    }
    ops
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let sizes = ctx.sizes;
    let (setup_s, instances) = crate::median_setup(|| {
        Ok(sizes
            .cold
            .iter()
            .map(|&(tasks, procs)| generate(tasks, procs, INSTANCE_SEED))
            .collect::<Vec<_>>())
    })?;
    ctx.metrics.set("setup_s", setup_s);
    let expected = if ctx.args.smoke {
        // The committed file pins the full-size instances; smoke-size ones are
        // checked against a live oracle solve instead.
        instances
            .iter()
            .map(|inst| Ok(expected_of(inst, &oracle_solve(inst)?.schedule)))
            .collect::<Result<Vec<_>, String>>()?
    } else {
        parse_expected(EXPECTED)?
    };
    if expected.len() != instances.len() {
        return Err("expected/cold-large.txt does not list both instances".into());
    }
    let order: Vec<usize> = if ctx.args.seed.is_multiple_of(2) {
        vec![0, 1]
    } else {
        vec![1, 0]
    };
    let mut off = Tracer::new(false);

    if ctx.args.trace {
        let t0 = Instant::now();
        round(&mut off, &mut ctx.outcome, &instances, &expected, &order);
        let untraced = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ops = round(
            &mut ctx.tracer,
            &mut ctx.outcome,
            &instances,
            &expected,
            &order,
        );
        let traced = t1.elapsed().as_secs_f64();
        ctx.metrics
            .set("trace.overhead_ms", (traced - untraced) * 1e3);
        let solutions: Vec<&Solution> = ops.iter().filter_map(|o| o.solution.as_ref()).collect();
        let migrations = ops.iter().map(|o| o.migrations).sum();
        layers::core_counters(&mut ctx.metrics, &solutions, migrations);
        layers::retime_counters(&mut ctx.metrics, solutions.iter().map(|s| &s.trace.retime));
        let pairs: Vec<(&Instance, &Solution)> = order
            .iter()
            .map(|&i| &instances[i])
            .zip(solutions.iter().copied())
            .collect();
        layers::direct_probes(
            &mut ctx.tracer,
            &mut ctx.metrics,
            &mut ctx.outcome,
            &pairs,
            sizes.gap_queries,
            sizes.spec_cycles,
            ctx.args.seed,
        );
        chain::delta_probe(ctx)?;
        crate::daemon::mix_probes(ctx)?;
        return Ok(());
    }

    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < ctx.args.seconds {
        rounds.push(round(
            &mut off,
            &mut ctx.outcome,
            &instances,
            &expected,
            &order,
        ));
    }
    let solve_ms = per_op_medians(&rounds, |o| o.solve_s * 1e3);
    let latency_ms = per_op_medians(&rounds, |o| o.latency_s * 1e3);
    let round_s: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|o| o.solve_s).sum())
        .collect();
    let m = &mut ctx.metrics;
    m.set("solve_s", percentile(&round_s, 50.0));
    m.set(
        "nsl_mean",
        mean(&rounds[0].iter().map(|o| o.nsl).collect::<Vec<_>>()),
    );
    m.set("resolve_ms_p50", percentile(&solve_ms, 50.0));
    m.set("resolve_ms_p90", percentile(&solve_ms, 90.0));
    m.set("latency_ms_p50", percentile(&latency_ms, 50.0));
    m.set("latency_ms_p99", percentile(&latency_ms, 99.0));
    m.set(
        "sessions_per_s",
        latency_ms.len() as f64 / (latency_ms.iter().sum::<f64>() / 1e3),
    );
    m.set("peak_rss_mb", crate::peak_rss_mb(None));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_lists_both_instances_in_full() {
        let expected = parse_expected(EXPECTED).unwrap();
        let names: Vec<&str> = expected.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["3000x16@3", "3000x64@3"]);
        for e in &expected {
            assert_eq!(e.schedule.tasks.len(), 3000);
            assert!(e.schedule.makespan > 0.0);
        }
    }

    #[test]
    fn a_changed_start_is_reported() {
        let inst = generate(30, 4, 1);
        let solution = Bsa::default().solve_unbounded(&inst.problem()).unwrap();
        let mut e = expected_of(&inst, &solution.schedule);
        assert!(difference(&e, &inst, &solution.schedule).is_none());
        e.schedule.tasks[7].1 += 1.0;
        let diff = difference(&e, &inst, &solution.schedule).unwrap();
        assert!(diff.contains("task 7"), "{diff}");
        assert!(parse_expected("instance a makespan x\n").is_err());
        assert!(parse_expected("0 1.5\n").is_err());
    }
}
