//! `resolve-chain`: one fixed 300-task instance, solved once during set-up, then
//! chains of single-operation deltas.  Each step is `Problem::apply` followed by
//! `Solution::resolve_onto`, and each warm solution is the base of the next step, as
//! in a daemon `delta` chain.  A chain is one cycle of the ten delta kinds and starts
//! from the incumbent; a round replays every chain.
//!
//! The deltas follow a fixed draw and `--seed` only orders the chains.  Step costs
//! span 1–700 ms, so the median step is one or two particular steps, and those
//! moved by 20% or more between seeds whenever the seed drew anything of the deltas
//! — their targets (an early task's cost change evicts its whole descendant cone) or
//! even their magnitudes within 10%.

use crate::instances::{generate, Instance};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{mean, per_op_medians, percentile};
use crate::trace::{Tracer, ROOT};
use crate::Ctx;
use bsa::prelude::*;
use bsa::schedule::validate::validate;
use bsa::schedule::RetimeTotals;
use bsa::taskgraph::TopologicalOrder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seed of the fixed instance the chain starts from.
const INSTANCE_SEED: u64 = 0xC4A1;

/// Seed of the fixed draw of the chains' targets.
const TARGET_SEED: u64 = 0x7A6E7;

/// Seed of the fixed draw of the chains' magnitudes (new costs, weights, speeds).
const VALUE_SEED: u64 = 0x7A1E;

#[derive(Debug, Clone, Copy)]
enum Kind {
    SetTaskCost,
    SetEdgeWeight,
    AddTask,
    RemoveTask,
    LinkDown,
    LinkUp,
    RemoveProcessor,
    AddProcessor,
}

/// The kind schedule of one chain.  Every structural kind meets its inverse, so the
/// instance ends near its starting size.
const CYCLE: [Kind; 10] = [
    Kind::SetTaskCost,
    Kind::AddTask,
    Kind::SetEdgeWeight,
    Kind::LinkDown,
    Kind::SetTaskCost,
    Kind::LinkUp,
    Kind::RemoveTask,
    Kind::SetEdgeWeight,
    Kind::RemoveProcessor,
    Kind::AddProcessor,
];

/// What a structural step must remember for its inverse later in the cycle.
#[derive(Default)]
struct Pending {
    /// Endpoints and factor of the link taken down.
    downed: Option<(ProcId, ProcId, f64)>,
    /// Links (in post-removal processor ids) and mean speed factor of the processor
    /// removed.
    removed: Option<(Vec<(ProcId, f64)>, f64)>,
}

/// One candidate delta of `kind` on `problem`, and the pending state it leaves.
fn candidate(
    kind: Kind,
    problem: &Problem<'_>,
    pending: &Pending,
    pick: &mut StdRng,
    value: &mut StdRng,
) -> Option<(ProblemDelta, Pending)> {
    let graph = problem.graph();
    let system = problem.system();
    let n = graph.num_tasks();
    let mut d = ProblemDelta::new();
    let mut next = Pending {
        downed: pending.downed,
        removed: pending.removed.clone(),
    };
    match kind {
        Kind::SetTaskCost => {
            let t = TaskId(pick.gen_range(0..n) as u32);
            d.set_task_cost(t, graph.task(t).nominal_cost * value.gen_range(0.9..1.11));
        }
        Kind::SetEdgeWeight => {
            if graph.num_edges() == 0 {
                return None;
            }
            let e = EdgeId(pick.gen_range(0..graph.num_edges()) as u32);
            d.set_edge_weight(e, graph.edge(e).nominal_cost * value.gen_range(0.9..1.11));
        }
        Kind::AddTask => {
            let order = TopologicalOrder::compute(graph);
            let order = order.order();
            if order.len() < 2 {
                return None;
            }
            let i = pick.gen_range(0..order.len() - 1);
            let j = pick.gen_range(i + 1..order.len());
            let task_cost = graph
                .task_ids()
                .map(|t| graph.task(t).nominal_cost)
                .sum::<f64>()
                / n as f64;
            let edge_cost = graph
                .edge_ids()
                .map(|e| graph.edge(e).nominal_cost)
                .sum::<f64>()
                / graph.num_edges().max(1) as f64;
            d.add_task(
                "arrival",
                task_cost * value.gen_range(0.9..1.11),
                vec![(order[i], edge_cost * value.gen_range(0.9..1.11))],
                vec![(order[j], edge_cost * value.gen_range(0.9..1.11))],
            );
        }
        Kind::RemoveTask => {
            d.remove_task(TaskId(pick.gen_range(0..n) as u32));
        }
        Kind::LinkDown => {
            let l = LinkId(pick.gen_range(0..system.num_links()) as u32);
            let link = system.topology.link(l);
            next.downed = Some((link.a, link.b, system.comm_costs.factor(l)));
            d.link_down(l);
        }
        Kind::LinkUp => {
            let (a, b, factor) = pending.downed?;
            next.downed = None;
            d.link_up(a, b, factor);
        }
        Kind::RemoveProcessor => {
            let p = ProcId(pick.gen_range(0..system.num_processors()) as u32);
            let shift = |q: ProcId| if q.0 > p.0 { ProcId(q.0 - 1) } else { q };
            let links = system
                .topology
                .link_ids()
                .filter_map(|l| {
                    let link = system.topology.link(l);
                    let other = if link.a == p {
                        link.b
                    } else if link.b == p {
                        link.a
                    } else {
                        return None;
                    };
                    Some((shift(other), system.comm_costs.factor(l)))
                })
                .collect();
            let speed = graph
                .task_ids()
                .filter(|&t| graph.task(t).nominal_cost > 0.0)
                .map(|t| system.exec_cost(t, p) / graph.task(t).nominal_cost)
                .sum::<f64>()
                / n as f64;
            next.removed = Some((links, speed));
            d.remove_processor(p);
        }
        Kind::AddProcessor => {
            let (links, speed) = pending.removed.clone()?;
            next.removed = None;
            d.add_processor(links, speed * value.gen_range(0.9..1.11));
        }
    }
    Some((d, next))
}

/// `steps` single-operation deltas in chains of one cycle, each delta valid on the
/// instance its chain's earlier ones produce, with the chains in an order drawn from
/// `seed`.  A kind whose candidates keep being rejected (say, every link-down would
/// disconnect the network) falls back to a task-cost change, so there are always
/// `steps` deltas.
pub fn generate_chain(base: &Instance, steps: usize, seed: u64) -> Vec<ProblemDelta> {
    let mut pick = StdRng::seed_from_u64(TARGET_SEED);
    let mut value = StdRng::seed_from_u64(VALUE_SEED);
    let mut pending = Pending::default();
    let mut current: Option<ProblemUpdate> = None;
    let mut chain = Vec::with_capacity(steps);
    for k in 0..steps {
        if k % CYCLE.len() == 0 {
            current = None;
            pending = Pending::default();
        }
        let problem = match &current {
            Some(update) => update.problem(),
            None => base.problem(),
        };
        let kinds = [CYCLE[k % CYCLE.len()], Kind::SetTaskCost];
        let (delta, update) = kinds
            .iter()
            .flat_map(|&kind| std::iter::repeat_n(kind, 32))
            .find_map(|kind| {
                let (delta, next) = candidate(kind, &problem, &pending, &mut pick, &mut value)?;
                let update = problem.apply(&delta).ok()?;
                pending = next;
                Some((delta, update))
            })
            .expect("a task-cost change always applies");
        chain.push(delta);
        current = Some(update);
    }
    let mut chains: Vec<&[ProblemDelta]> = chain.chunks(CYCLE.len()).collect();
    let mut order = StdRng::seed_from_u64(seed);
    for i in (1..chains.len()).rev() {
        chains.swap(i, order.gen_range(0..=i));
    }
    chains.concat()
}

/// Measured outcome of one chain step.
pub struct Step {
    /// `Problem::apply` seconds.
    pub apply_s: f64,
    /// `Solution::resolve_onto` seconds.
    pub resolve_s: f64,
    /// Full validation seconds.
    pub validate_s: f64,
    /// Seconds spent checking the step against its reference.
    pub check_s: f64,
    /// Schedule length after the step.
    pub makespan: f64,
    /// Normalized schedule length after the step.
    pub nsl: f64,
    /// Repaired tasks over tasks.
    pub touched: f64,
    /// Re-timing counters of the step.
    pub retime: RetimeTotals,
}

/// Replays the chains once, each from `incumbent`.  With `reference` (the first round's
/// makespans) every step must reproduce its reference; without it every step is
/// checked against the full relaxation of its decisions instead
/// ([`layers::relaxes_no_later`]).  Every step is validated either way.
pub fn replay(
    tr: &mut Tracer,
    outcome: &mut Outcome,
    base: &Instance,
    incumbent: &Solution,
    deltas: &[ProblemDelta],
    reference: Option<&[f64]>,
) -> Vec<Step> {
    let base_problem = base.problem();
    let options = SolveOptions::default();
    let mut steps = Vec::with_capacity(deltas.len());
    let mut prev: Option<ProblemUpdate> = None;
    let mut solution = incumbent.clone();
    for (k, delta) in deltas.iter().enumerate() {
        if k % CYCLE.len() == 0 {
            prev = None;
            solution = incumbent.clone();
        }
        tr.set_request(k as u64);
        let problem = prev.as_ref().map_or(base_problem, ProblemUpdate::problem);
        let op = tr.open("chain.step", ROOT);
        let t0 = Instant::now();
        let update = match problem.apply(delta) {
            Ok(u) => u,
            Err(e) => {
                outcome.check(false, || format!("chain step {k}: apply failed: {e}"));
                return steps;
            }
        };
        let t1 = Instant::now();
        let next = match solution.resolve_onto(&update, &options) {
            Ok(s) => s,
            Err(e) => {
                outcome.check(false, || format!("chain step {k}: resolve failed: {e}"));
                return steps;
            }
        };
        let t2 = Instant::now();
        let errors = validate(&next.schedule, update.graph(), update.system());
        let t3 = Instant::now();
        tr.record("schedule.delta_apply", t0, t1, Some(op));
        tr.record("schedule.resolve_onto", t1, t2, Some(op));
        tr.record("schedule.validate", t2, t3, Some(op));
        tr.close(op);

        let makespan = next.schedule.schedule_length();
        let agrees = match reference {
            Some(r) => r.get(k) == Some(&makespan),
            None => layers::relaxes_no_later(update.graph(), update.system(), &next.schedule),
        };
        let t4 = Instant::now();
        outcome.check(errors.is_empty() && agrees, || {
            format!(
                "chain step {k} ({}): {} validation errors, agrees with reference: {agrees}",
                delta.summary(),
                errors.len()
            )
        });
        steps.push(Step {
            apply_s: (t1 - t0).as_secs_f64(),
            resolve_s: (t2 - t1).as_secs_f64(),
            validate_s: (t3 - t2).as_secs_f64(),
            check_s: (t4 - t3).as_secs_f64(),
            makespan,
            nsl: next.metrics.normalized_length,
            touched: next.trace.num_migrations() as f64 / update.graph().num_tasks() as f64,
            retime: next.trace.retime,
        });
        prev = Some(update);
        solution = next;
    }
    steps
}

/// Traced warm re-solves for the other workloads' traced runs: the first steps of
/// this workload's chain, each checked against the full relaxation.  They run on
/// the chain's own instance because at 3000 tasks a single repair can take minutes.
pub fn delta_probe(ctx: &mut Ctx) -> Result<(), String> {
    let (tasks, procs) = ctx.sizes.chain;
    let base = generate(tasks, procs, INSTANCE_SEED);
    let incumbent = Bsa::default()
        .solve_unbounded(&base.problem())
        .map_err(|e| format!("incumbent solve failed: {e}"))?;
    let deltas = generate_chain(&base, ctx.sizes.probe_steps, ctx.args.seed);
    let done = replay(
        &mut ctx.tracer,
        &mut ctx.outcome,
        &base,
        &incumbent,
        &deltas,
        None,
    );
    let touched: Vec<f64> = done.iter().map(|s| s.touched).collect();
    ctx.metrics
        .set("schedule.resolve_touched_frac", mean(&touched));
    Ok(())
}

struct Setup {
    base: Instance,
    incumbent: Solution,
    deltas: Vec<ProblemDelta>,
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (tasks, procs) = ctx.sizes.chain;
    let steps = ctx.sizes.chain_steps;
    let seed = ctx.args.seed;
    // Set-up: the instance, its incumbent solve and the seeded chain.
    let (setup_s, setup) = crate::median_setup(|| {
        let base = generate(tasks, procs, INSTANCE_SEED);
        let incumbent = Bsa::default()
            .solve_unbounded(&base.problem())
            .map_err(|e| format!("incumbent solve failed: {e}"))?;
        let deltas = generate_chain(&base, steps, seed);
        Ok(Setup {
            base,
            incumbent,
            deltas,
        })
    })?;
    ctx.metrics.set("setup_s", setup_s);
    let Setup {
        base,
        incumbent,
        deltas,
    } = setup;
    let incumbent_ok = validate(&incumbent.schedule, &base.graph, &base.system).is_empty();
    ctx.outcome.check(incumbent_ok, || {
        "the incumbent schedule fails validation".into()
    });

    // The first round checks every step against the full relaxation; later rounds
    // must reproduce the first round's makespans exactly.  Checks run outside the
    // step timers, and their time is taken off each round's wall time.
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let first = replay(&mut off, &mut ctx.outcome, &base, &incumbent, &deltas, None);
    let untraced_s = start.elapsed().as_secs_f64() - first.iter().map(|s| s.check_s).sum::<f64>();
    let reference: Vec<f64> = first.iter().map(|s| s.makespan).collect();
    let nsl_mean = mean(&first.iter().map(|s| s.nsl).collect::<Vec<_>>());

    if ctx.args.trace {
        let t0 = Instant::now();
        let traced = replay(
            &mut ctx.tracer,
            &mut ctx.outcome,
            &base,
            &incumbent,
            &deltas,
            Some(&reference),
        );
        let traced_s = t0.elapsed().as_secs_f64() - traced.iter().map(|s| s.check_s).sum::<f64>();
        ctx.metrics
            .set("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
        layers::retime_counters(&mut ctx.metrics, traced.iter().map(|s| &s.retime));
        let touched: Vec<f64> = traced.iter().map(|s| s.touched).collect();
        ctx.metrics
            .set("schedule.resolve_touched_frac", mean(&touched));

        // Layers the chain itself does not call: the cold solve that made the
        // incumbent, and direct calls on the instance and its solution.
        ctx.tracer.set_request(deltas.len() as u64);
        let (solution, migrations) = layers::clocked_solve(
            &mut ctx.tracer,
            &base.problem(),
            &SolveOptions::default(),
            ROOT,
        )
        .map_err(|e| format!("traced incumbent solve failed: {e}"))?;
        layers::core_counters(&mut ctx.metrics, &[&solution], migrations);
        layers::direct_probes(
            &mut ctx.tracer,
            &mut ctx.metrics,
            &mut ctx.outcome,
            &[(&base, &solution)],
            ctx.sizes.gap_queries,
            ctx.sizes.spec_cycles,
            seed,
        );
        crate::daemon::mix_probes(ctx)?;
        return Ok(());
    }

    let mut rounds = vec![first];
    while start.elapsed().as_secs_f64() < ctx.args.seconds {
        rounds.push(replay(
            &mut off,
            &mut ctx.outcome,
            &base,
            &incumbent,
            &deltas,
            Some(&reference),
        ));
    }
    let step_ms = per_op_medians(&rounds, |s| (s.apply_s + s.resolve_s) * 1e3);
    let latency_ms = per_op_medians(&rounds, |s| (s.apply_s + s.resolve_s + s.validate_s) * 1e3);
    let round_s: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|s| s.apply_s + s.resolve_s).sum())
        .collect();
    let m = &mut ctx.metrics;
    m.set("solve_s", percentile(&round_s, 50.0));
    m.set("nsl_mean", nsl_mean);
    m.set("resolve_ms_p50", percentile(&step_ms, 50.0));
    m.set("resolve_ms_p90", percentile(&step_ms, 90.0));
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
    fn the_seed_orders_the_chains_and_each_keeps_the_instance_near_its_size() {
        let base = generate(40, 8, 3);
        let a = generate_chain(&base, 40, 5);
        assert_eq!(a, generate_chain(&base, 40, 5));
        let sorted = |deltas: Vec<ProblemDelta>| {
            let mut chains: Vec<String> = deltas
                .chunks(CYCLE.len())
                .map(|c| format!("{c:?}"))
                .collect();
            chains.sort();
            chains
        };
        assert_eq!(sorted(a.clone()), sorted(generate_chain(&base, 40, 6)));
        for chain in a.chunks(CYCLE.len()) {
            let mut problem_update: Option<ProblemUpdate> = None;
            for d in chain {
                assert_eq!(d.len(), 1);
                let p = problem_update
                    .as_ref()
                    .map_or(base.problem(), ProblemUpdate::problem);
                problem_update = Some(p.apply(d).unwrap());
            }
            let end = problem_update.unwrap();
            assert!(end.graph().num_tasks().abs_diff(40) <= 1);
            assert_eq!(end.system().num_processors(), 8);
        }
    }
}
