//! Daemon artifact-cache benchmark: submit-to-accepted latency, cold versus hot.
//!
//! The daemon's content-addressed cache exists so that re-submitting a known problem
//! skips the two expensive admission-path artifacts: full `Problem::new` validation
//! and the all-pairs routing-table build.  To make the cold path visibly expensive,
//! the instance is deliberately lopsided — a tiny 20-task graph on a **128-processor**
//! hypercube under [`RoutePolicy::MinTransferTime`], so the all-pairs Dijkstra over
//! the topology dominates the cold submit.
//!
//! Two phases:
//!
//! * **cold** — each rep starts a fresh [`Engine`] and times its very first `submit`
//!   (validation + routing build, both cache misses);
//! * **hot** — one engine takes repeated identical submits and each rep times a
//!   submit that must hit both cache shards.
//!
//! Wall-clock numbers are archived for the record, but the *gate* is hardware-
//! independent: every cold submit must report miss/miss, every hot submit hit/hit,
//! and the hot engine's counters must add up exactly.  A broken cache fails this
//! bench on any machine, including a 1-CPU CI runner where the latency ratio itself
//! would be noisy.
//!
//! ```console
//! cargo bench -p bsa_bench --bench daemon            # full reps
//! cargo bench -p bsa_bench --bench daemon -- --quick # CI smoke
//! cargo bench -p bsa_bench --bench daemon -- --out results/BENCH_daemon.json
//! ```
//!
//! Exits non-zero if any submit's cache outcome is wrong.

use bsa::network::RoutePolicy;
use bsa::prelude::*;
use bsa_daemon::engine::{AlgoChoice, Engine, EngineConfig};
use bsa_network::builders::TopologyKind;
use std::time::Instant;

const TASKS: usize = 20;
const PROCESSORS: usize = 128;
const SEED: u64 = 0xDAE40;

fn instance() -> (TaskGraph, bsa::network::HeterogeneousSystem) {
    let graph = bsa_bench::random_graph(TASKS, 1.0, SEED);
    let system = bsa_bench::system_on(
        &graph,
        TopologyKind::Hypercube,
        PROCESSORS,
        10.0,
        SEED ^ 0x5ca1e,
    );
    (graph, system)
}

fn options() -> SolveOptions {
    SolveOptions::default().with_route_policy(RoutePolicy::MinTransferTime)
}

/// Submits once and returns (latency µs, problem_cached, routing_cached), leaving the
/// session fully retired so the registry stays at baseline.
fn timed_submit(
    engine: &Engine,
    graph: &TaskGraph,
    system: &bsa::network::HeterogeneousSystem,
) -> (f64, bool, bool) {
    let (graph, system) = (graph.clone(), system.clone());
    let t0 = Instant::now();
    let info = engine
        .submit(
            0,
            graph,
            system,
            options(),
            AlgoChoice::parse("serial").unwrap(),
        )
        .expect("bench submits below the admission window");
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let session = engine.find_session(info.session).expect("just submitted");
    engine
        .wait_done(&session)
        .expect("the bench instance solves cleanly");
    engine.release(info.session).expect("release succeeds once");
    (us, info.problem_cached, info.routing_cached)
}

fn stats(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_daemon.json").to_string()
        });
    let (cold_reps, hot_reps) = if quick { (3, 20) } else { (10, 200) };

    println!(
        "daemon bench ({} grid): {TASKS} tasks on a {PROCESSORS}-proc hypercube, \
         route policy = min_transfer_time",
        if quick { "quick" } else { "full" }
    );

    let (graph, system) = instance();
    let mut failures = 0usize;

    // Cold phase: a fresh engine per rep, so every submit builds both artifacts.
    let mut cold = Vec::with_capacity(cold_reps);
    for rep in 0..cold_reps {
        let engine = Engine::start(EngineConfig::default());
        let (us, problem_cached, routing_cached) = timed_submit(&engine, &graph, &system);
        if problem_cached || routing_cached {
            eprintln!("ERROR: cold rep {rep} reported a cache hit on a fresh engine");
            failures += 1;
        }
        cold.push(us);
        engine.shutdown();
    }

    // Hot phase: one engine, identical submits — every rep must hit both shards.
    let engine = Engine::start(EngineConfig::default());
    let (_, warm_problem, warm_routing) = timed_submit(&engine, &graph, &system);
    if warm_problem || warm_routing {
        eprintln!("ERROR: the hot engine's priming submit reported a cache hit");
        failures += 1;
    }
    let mut hot = Vec::with_capacity(hot_reps);
    for rep in 0..hot_reps {
        let (us, problem_cached, routing_cached) = timed_submit(&engine, &graph, &system);
        if !problem_cached || !routing_cached {
            eprintln!("ERROR: hot rep {rep} missed the cache on an identical submit");
            failures += 1;
        }
        hot.push(us);
    }
    let problems = engine.cache().problem_stats();
    let tables = engine.cache().table_stats();
    for (shard, stats, hits, misses) in [
        ("problems", &problems, hot_reps as u64, 1u64),
        ("routing", &tables, hot_reps as u64, 1u64),
    ] {
        if stats.hits != hits || stats.misses != misses || stats.entries != 1 {
            eprintln!(
                "ERROR: {shard} counters off: {} hits / {} misses / {} entries, \
                 expected {hits} / {misses} / 1",
                stats.hits, stats.misses, stats.entries
            );
            failures += 1;
        }
    }
    engine.shutdown();

    let (cold_min, cold_median) = stats(&mut cold);
    let (hot_min, hot_median) = stats(&mut hot);
    let ratio = hot_median / cold_median;
    println!("| phase | reps | min µs | median µs |");
    println!("|---|---|---|---|");
    println!("| cold | {cold_reps} | {cold_min:.1} | {cold_median:.1} |");
    println!("| hot | {hot_reps} | {hot_min:.1} | {hot_median:.1} |");
    println!("hot/cold median latency ratio: {ratio:.4}");

    if failures > 0 {
        eprintln!("ERROR: {failures} cache-behaviour violation(s) — see above");
        std::process::exit(1);
    }
    println!("cache gate passed: cold = miss/miss, hot = hit/hit, counters exact");

    let out = format!(
        "{{\n  \"bench\": \"daemon\",\n{}  \"tasks\": {TASKS},\n  \"procs\": {PROCESSORS},\n  \
         \"route_policy\": \"min_transfer_time\",\n  \"grid\": \"{}\",\n  \
         \"cold\": {{\"reps\": {cold_reps}, \"min_us\": {cold_min:.1}, \"median_us\": {cold_median:.1}}},\n  \
         \"hot\": {{\"reps\": {hot_reps}, \"min_us\": {hot_min:.1}, \"median_us\": {hot_median:.1}}},\n  \
         \"hot_over_cold_median\": {ratio:.4},\n  \
         \"cache\": {{\"problem_hits\": {}, \"problem_misses\": {}, \"routing_hits\": {}, \"routing_misses\": {}}}\n}}\n",
        bsa_bench::env_header_json(),
        if quick { "quick" } else { "full" },
        problems.hits,
        problems.misses,
        tables.hits,
        tables.misses,
    );
    std::fs::write(&out_path, out).expect("write BENCH_daemon.json");
    println!("\nwrote {out_path}");
}
