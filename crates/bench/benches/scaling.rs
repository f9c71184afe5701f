//! Scaling benchmark: incremental (dirty-cone) vs full (oracle) re-timing kernel.
//!
//! Runs BSA twice per instance — once with [`RetimingMode::Incremental`] (the default
//! kernel) and once with [`RetimingMode::Full`] (the whole-schedule Kahn relaxation it
//! replaced) — over random layered DAGs of 100/300/1000/3000 tasks on 16/32/64-processor
//! hypercubes plus 10000-task cells on 16/64 processors, and records the wall time of
//! each run.  The two runs must produce identical schedules (the modes differ in cost,
//! never in results; the property suite pins this down, and this bench re-checks every
//! placement and start time per case).  Each case also reports the incremental kernel's
//! aggregated phase counters (passes, flat sweeps, mean relaxed nodes per pass) so the
//! JSON records how much decision-graph work the kernel actually did, not just how
//! long it took.  The run exits non-zero when any cell's two schedules differ.
//!
//! Unlike the Criterion benches this is a plain `harness = false` binary so it can emit
//! a machine-readable `BENCH_scaling.json` next to the human-readable table — CI runs
//! it with `--quick` and archives the JSON so the kernel's performance trajectory is
//! recorded over time, not asserted once:
//!
//! ```console
//! cargo bench -p bsa_bench --bench scaling            # full grid (~minutes)
//! cargo bench -p bsa_bench --bench scaling -- --quick # CI smoke (~seconds)
//! cargo bench -p bsa_bench --bench scaling -- --out results/BENCH_scaling.json
//! ```

use bsa_core::{Bsa, BsaConfig};
use bsa_network::builders::TopologyKind;
use bsa_network::HeterogeneousSystem;
use bsa_schedule::{Problem, Schedule, SolveTrace, Solver};
use bsa_taskgraph::TaskGraph;
use std::time::Instant;

/// One (graph size, processor count) cell of the grid.
struct Case {
    tasks: usize,
    procs: usize,
    reps: usize,
}

/// Measured results of one cell.
struct CaseResult {
    tasks: usize,
    procs: usize,
    reps: usize,
    full_ms: f64,
    incremental_ms: f64,
    schedule_length: f64,
    migrations: usize,
    retime_passes: usize,
    retime_fallbacks: usize,
    mean_cone: f64,
    schedules_equal: bool,
}

impl CaseResult {
    /// Share of passes that ran the flat sweep instead of the cone kernel.  BSA's
    /// passes are fully placed, so every pass above the 64-node floor is flat.
    fn fallback_rate(&self) -> f64 {
        if self.retime_passes == 0 {
            0.0
        } else {
            self.retime_fallbacks as f64 / self.retime_passes as f64
        }
    }
}

fn grid(quick: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    if quick {
        // The 1000-task cell is the CI canary: big enough to exercise the re-timing
        // kernel at scale, small enough to stay in smoke-test budget at one repetition.
        for &(tasks, procs) in &[(60, 16), (100, 16), (1000, 16)] {
            cases.push(Case {
                tasks,
                procs,
                reps: 1,
            });
        }
    } else {
        // 3000-task cells capture the large-N regime the persistent-scaffold kernel
        // targets; three repetitions everywhere keeps the min-over-reps estimate
        // comparable across cell sizes.
        for &tasks in &[100usize, 300, 1000, 3000] {
            for &procs in &[16usize, 32, 64] {
                cases.push(Case {
                    tasks,
                    procs,
                    reps: 3,
                });
            }
        }
        // The 10k wall: one repetition each — the oracle runs are minutes-long here,
        // and the point of the cell is the asymptotic shape, not a tight minimum.
        for &procs in &[16usize, 64] {
            cases.push(Case {
                tasks: 10_000,
                procs,
                reps: 1,
            });
        }
    }
    cases
}

/// Runs BSA once, returning (wall ms, schedule, trace).
fn run_once(
    cfg: BsaConfig,
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
) -> (f64, Schedule, SolveTrace) {
    let scheduler = Bsa::new(BsaConfig {
        record_trace: true,
        ..cfg
    });
    let t0 = Instant::now();
    let solution = Problem::new(graph, system)
        .and_then(|problem| scheduler.solve_unbounded(&problem))
        .expect("bench instances schedule cleanly");
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    (elapsed_ms, solution.schedule, solution.trace)
}

/// Exact equality of two schedules: every task's processor, start, and finish.
fn same_schedule(graph: &TaskGraph, a: &Schedule, b: &Schedule) -> bool {
    graph
        .task_ids()
        .all(|t| a.proc_of(t) == b.proc_of(t) && a.start_of(t) == b.start_of(t))
        && a.schedule_length() == b.schedule_length()
}

fn bench_case(case: &Case) -> CaseResult {
    let mut full_ms = f64::INFINITY;
    let mut incremental_ms = f64::INFINITY;
    let mut schedule_length = 0.0;
    let mut migrations = 0;
    let mut retime_passes = 0;
    let mut retime_fallbacks = 0;
    let mut mean_cone = 0.0;
    let mut schedules_equal = true;
    for rep in 0..case.reps {
        let seed = 0xB5A + rep as u64;
        let graph = bsa_bench::random_graph(case.tasks, 1.0, seed);
        let system = bsa_bench::system_on(
            &graph,
            TopologyKind::Hypercube,
            case.procs,
            10.0,
            seed ^ 0x5ca1e,
        );
        let (inc_ms, inc_schedule, inc_trace) = run_once(BsaConfig::default(), &graph, &system);
        let (oracle_ms, oracle_schedule, _) = run_once(BsaConfig::full_retiming(), &graph, &system);
        // Minimum over repetitions: the least-noisy estimate of the true cost.  The
        // per-case diagnostics (schedule length, migrations, phase counters) are taken
        // from the repetition whose incremental run set that minimum, so every number
        // in a cell describes the same instance.
        if inc_ms < incremental_ms {
            incremental_ms = inc_ms;
            schedule_length = inc_schedule.schedule_length();
            migrations = inc_trace.num_migrations();
            retime_passes = inc_trace.retime.passes;
            retime_fallbacks = inc_trace.retime.fallbacks;
            mean_cone = inc_trace.retime.mean_cone();
        }
        full_ms = full_ms.min(oracle_ms);
        schedules_equal &= same_schedule(&graph, &inc_schedule, &oracle_schedule);
    }
    CaseResult {
        tasks: case.tasks,
        procs: case.procs,
        reps: case.reps,
        full_ms,
        incremental_ms,
        schedule_length,
        migrations,
        retime_passes,
        retime_fallbacks,
        mean_cone,
        schedules_equal,
    }
}

fn write_json(path: &str, quick: bool, results: &[CaseResult]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scaling\",\n");
    out.push_str(&bsa_bench::env_header_json());
    out.push_str("  \"topology\": \"hypercube\",\n");
    // Every case compares the retiming-mode pair below; `grid` only says which case
    // grid ran.  (An earlier revision emitted a top-level `"mode"` that was easy to
    // misread as a single retiming mode.)
    out.push_str("  \"modes\": [\"incremental\", \"full\"],\n");
    out.push_str(&format!(
        "  \"grid\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tasks\": {}, \"procs\": {}, \"reps\": {}, \"full_ms\": {:.3}, \
             \"incremental_ms\": {:.3}, \"speedup\": {:.3}, \"schedule_length\": {:.3}, \
             \"migrations\": {}, \"retime_passes\": {}, \"retime_fallbacks\": {}, \
             \"fallback_rate\": {:.4}, \"mean_cone\": {:.1}, \"schedules_equal\": {}}}{}\n",
            r.tasks,
            r.procs,
            r.reps,
            r.full_ms,
            r.incremental_ms,
            r.full_ms / r.incremental_ms,
            r.schedule_length,
            r.migrations,
            r.retime_passes,
            r.retime_fallbacks,
            r.fallback_rate(),
            r.mean_cone,
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
    // Criterion-style harness flags (--bench, --test) may be passed by cargo; ignore them.
    let quick = args.iter().any(|a| a == "--quick");
    // `cargo bench` runs with the package directory as CWD; anchor the default output
    // at the workspace root so the artifact lands in a predictable place.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json").to_string()
        });

    let cases = grid(quick);
    println!(
        "scaling bench ({} grid), topology = hypercube",
        if quick { "quick" } else { "full" }
    );
    println!(
        "| tasks | procs | full ms | incremental ms | speedup | migrations | mean cone | \
         fb rate | equal |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut results = Vec::new();
    for case in &cases {
        let r = bench_case(case);
        println!(
            "| {} | {} | {:.1} | {:.1} | {:.2}x | {} | {:.1} | {:.3} | {} |",
            r.tasks,
            r.procs,
            r.full_ms,
            r.incremental_ms,
            r.full_ms / r.incremental_ms,
            r.migrations,
            r.mean_cone,
            r.fallback_rate(),
            r.schedules_equal
        );
        results.push(r);
    }
    if let Some(bad) = results.iter().find(|r| !r.schedules_equal) {
        eprintln!(
            "ERROR: kernel mismatch at {} tasks / {} procs — incremental and full re-timing \
             must produce identical schedules",
            bad.tasks, bad.procs
        );
        std::process::exit(1);
    }
    write_json(&out_path, quick, &results).expect("write BENCH_scaling.json");
    println!("\nwrote {out_path}");
}
