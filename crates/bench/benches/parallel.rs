//! Parallel-solve benchmark: wall-clock of portfolio racing against its sequential
//! sweep, with a determinism cross-check on every cell.
//!
//! The one parallel layer, **portfolio** — the standard two-entry BSA racing roster
//! (`bsa::algorithms::standard_portfolio`, one entry per route policy) under
//! [`RaceStrategy::BestOfAll`], whose winner is deterministic at any worker count — is
//! measured over random layered DAGs on a 16-processor hypercube.  `schedules_equal` compares every placement against
//! the 1-worker sweep of the same cell.
//!
//! Speedups are relative to the 1-thread cell of the same task count and are
//! **hardware-dependent**: the JSON header records `host_threads` (what
//! `std::thread::available_parallelism` reported) and the commit, because a 1-CPU CI
//! runner legitimately measures speedup ≈ 1.0 where a multicore workstation shows the
//! scaling.  The determinism gate is asserted everywhere; the speedup sanity gate
//! (no multi-thread cell below 0.5x its own baseline) is asserted only on hosts with
//! real parallelism — a 1-thread host gets a loud warning and skips it, because its
//! "speedups" measure the scheduler's time-slicing, not this code.
//!
//! ```console
//! cargo bench -p bsa_bench --bench parallel            # full grid (~minutes)
//! cargo bench -p bsa_bench --bench parallel -- --quick # CI smoke (~seconds)
//! cargo bench -p bsa_bench --bench parallel -- --out results/BENCH_parallel.json
//! ```
//!
//! Exits non-zero if any cell's schedule diverges from its single-threaded baseline.

use bsa::prelude::*;
use bsa_network::builders::TopologyKind;
use std::time::Instant;

/// Worker counts swept for every task count.
const THREADS: [usize; 3] = [1, 2, 4];

struct CellResult {
    tasks: usize,
    threads: usize,
    reps: usize,
    wall_ms: f64,
    speedup: f64,
    schedule_length: f64,
    schedules_equal: bool,
}

/// Exact equality of two schedules: every task's processor, start, and finish.
fn same_schedule(graph: &TaskGraph, a: &Schedule, b: &Schedule) -> bool {
    graph.task_ids().all(|t| {
        a.proc_of(t) == b.proc_of(t)
            && a.start_of(t) == b.start_of(t)
            && a.finish_of(t) == b.finish_of(t)
    }) && a.schedule_length() == b.schedule_length()
}

/// Races the portfolio on `threads` workers, returning (min wall ms over reps,
/// schedule).
fn run_cell(problem: &Problem<'_>, threads: usize, reps: usize) -> (f64, Schedule) {
    let mut best_ms = f64::INFINITY;
    let mut schedule = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let solution = bsa::algorithms::standard_portfolio()
            .with_threads(threads)
            .solve_unbounded(problem)
            .expect("bench instances solve cleanly");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            schedule = Some(solution.schedule);
        }
    }
    (best_ms, schedule.expect("reps >= 1"))
}

fn write_json(path: &str, quick: bool, results: &[CellResult]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"parallel\",\n");
    out.push_str(&bsa_bench::env_header_json());
    out.push_str("  \"topology\": \"hypercube\",\n  \"procs\": 16,\n");
    out.push_str(&format!(
        "  \"grid\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"layer\": \"portfolio\", \"tasks\": {}, \"threads\": {}, \"reps\": {}, \
             \"wall_ms\": {:.3}, \"speedup\": {:.3}, \"schedule_length\": {:.3}, \
             \"schedules_equal\": {}}}{}\n",
            r.tasks,
            r.threads,
            r.reps,
            r.wall_ms,
            r.speedup,
            r.schedule_length,
            r.schedules_equal,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
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
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json").to_string()
        });

    let task_sizes: &[usize] = if quick { &[60, 100] } else { &[300, 1000] };
    let reps = if quick { 1 } else { 3 };

    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!(
        "parallel bench ({} grid), topology = hypercube, procs = 16, threads = {THREADS:?}",
        if quick { "quick" } else { "full" }
    );
    if host_threads == 1 {
        println!(
            "\nWARNING: this host reports 1 hardware thread — every multi-thread cell\n\
             below time-slices a single CPU, so wall-clock speedups are expected to be\n\
             ~1.0x (or worse) and say nothing about the implementation.  The speedup\n\
             sanity gate is SKIPPED on this host; only the determinism gate applies.\n\
             Do not commit a BENCH_parallel.json produced by a 1-thread run over one\n\
             measured on real hardware.\n"
        );
    }
    println!("| tasks | threads | wall ms | speedup | equal |");
    println!("|---|---|---|---|---|");
    let mut results = Vec::new();
    for &tasks in task_sizes {
        let seed = 0xB5A ^ tasks as u64;
        let graph = bsa_bench::random_graph(tasks, 1.0, seed);
        let system = bsa_bench::system(&graph, TopologyKind::Hypercube, 10.0, seed ^ 0x5ca1e);
        let problem = Problem::new(&graph, &system).expect("bench instances are valid");
        let mut baseline: Option<(f64, Schedule)> = None;
        for &threads in &THREADS {
            let (wall_ms, schedule) = run_cell(&problem, threads, reps);
            let (base_ms, equal) = match &baseline {
                None => (wall_ms, true),
                Some((ms, base)) => (*ms, same_schedule(&graph, base, &schedule)),
            };
            let r = CellResult {
                tasks,
                threads,
                reps,
                wall_ms,
                speedup: base_ms / wall_ms,
                schedule_length: schedule.schedule_length(),
                schedules_equal: equal,
            };
            println!(
                "| {} | {} | {:.1} | {:.2}x | {} |",
                r.tasks, r.threads, r.wall_ms, r.speedup, r.schedules_equal
            );
            results.push(r);
            if baseline.is_none() {
                baseline = Some((wall_ms, schedule));
            }
        }
    }
    if let Some(bad) = results.iter().find(|r| !r.schedules_equal) {
        eprintln!(
            "ERROR: the portfolio diverged from its 1-thread baseline at {} tasks / {} \
             threads — parallel solves must be bit-identical",
            bad.tasks, bad.threads
        );
        std::process::exit(1);
    }
    // Speedup sanity gate: on a host with real parallelism, a multi-thread cell must
    // never be catastrophically slower than its own 1-thread baseline.  On a 1-thread
    // host the measurement is meaningless (see the warning above), so the gate is
    // skipped rather than asserted against noise.
    if host_threads > 1 {
        if let Some(bad) = results.iter().find(|r| r.threads > 1 && r.speedup < 0.5) {
            eprintln!(
                "ERROR: the portfolio at {} tasks / {} threads ran at {:.2}x its 1-thread \
                 baseline on a {host_threads}-thread host — parallel path regressed",
                bad.tasks, bad.threads, bad.speedup
            );
            std::process::exit(1);
        }
    } else {
        println!("speedup sanity gate skipped (host_threads = 1); determinism gate passed");
    }
    write_json(&out_path, quick, &results).expect("write BENCH_parallel.json");
    println!("\nwrote {out_path}");
}
