//! Dynamic re-scheduling bench: warm-start `Solution::resolve` vs a cold BSA
//! re-solve, across delta kinds and instance sizes.
//!
//! For every cell (delta kind × task count) the bench cold-solves seeded random
//! layered DAGs, applies one delta of that kind, and times both reactions to the
//! change: the warm-start repair (`resolve`: partial eviction + greedy re-placement +
//! frontier re-timing) and a full from-scratch BSA solve on the mutated instance.
//! Alongside the wall-clock comparison every cell carries two gates:
//!
//! * `warm_valid` — every warm schedule passes the full contention-model validator;
//! * `warm_wins` — on *small* deltas (repair touched < 10 % of the tasks) the warm
//!   path must be strictly faster than the cold re-solve.  CI greps the top-level
//!   `small_delta_warm_wins` field like the scaling and routing gates.
//!
//! Plain `harness = false` binary emitting machine-readable `BENCH_dynamic.json`:
//!
//! ```console
//! cargo bench -p bsa_bench --bench dynamic            # full grid (~a minute)
//! cargo bench -p bsa_bench --bench dynamic -- --quick # CI smoke (~seconds)
//! cargo bench -p bsa_bench --bench dynamic -- --out results/BENCH_dynamic.json
//! ```

use bsa_core::Bsa;
use bsa_network::builders::hypercube_for;
use bsa_network::{HeterogeneityRange, HeterogeneousSystem, LinkId, ProcId};
use bsa_schedule::solver::{Problem, ProblemDelta, SolveOptions};
use bsa_schedule::{validate, Solution, Solver};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId, TopologicalOrder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The delta kinds benched, smallest expected frontier first.
const KINDS: [&str; 7] = [
    "empty",
    "set_task_cost",
    "set_edge_weight",
    "add_task",
    "remove_task",
    "link_down",
    "remove_processor",
];

struct Cell {
    kind: &'static str,
    tasks: usize,
    reps: usize,
}

struct CellResult {
    kind: &'static str,
    tasks: usize,
    reps: usize,
    mean_warm_ms: f64,
    mean_cold_ms: f64,
    mean_touched_frac: f64,
    mean_warm_makespan: f64,
    mean_cold_makespan: f64,
    warm_valid: bool,
    small_delta: bool,
    warm_wins: bool,
}

fn grid(quick: bool) -> Vec<Cell> {
    let (sizes, reps): (&[usize], usize) = if quick { (&[60], 2) } else { (&[100, 300], 5) };
    let mut cells = Vec::new();
    for &tasks in sizes {
        for kind in KINDS {
            cells.push(Cell { kind, tasks, reps });
        }
    }
    cells
}

fn instance(tasks: usize, rep: usize) -> (TaskGraph, HeterogeneousSystem) {
    let mut rng = StdRng::seed_from_u64(0xD11A + rep as u64 * 613 + tasks as u64);
    let graph = bsa_workloads::random_dag::paper_random_graph(tasks, 1.0, &mut rng)
        .expect("generator accepts bench sizes");
    let system = HeterogeneousSystem::generate(
        &graph,
        hypercube_for(8).expect("hypercube builds"),
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::homogeneous(),
        &mut rng,
    );
    (graph, system)
}

/// One applicable delta of `kind`.  Structure-touching kinds retry candidates until
/// `Problem::apply` accepts one (connectivity guards can reject a specific pick).
fn delta_of(
    kind: &str,
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
    rng: &mut StdRng,
) -> ProblemDelta {
    let problem = Problem::new(graph, system).expect("bench instances validate");
    for _ in 0..32 {
        let mut d = ProblemDelta::new();
        match kind {
            "empty" => {}
            "set_task_cost" => {
                let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                d.set_task_cost(t, graph.task(t).nominal_cost * 2.0);
            }
            "set_edge_weight" => {
                let e = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                d.set_edge_weight(e, graph.edge(e).nominal_cost * 3.0);
            }
            "add_task" => {
                let topo_order = TopologicalOrder::compute(graph);
                let order = topo_order.order();
                let i = rng.gen_range(0..order.len() - 1);
                let j = rng.gen_range(i + 1..order.len());
                d.add_task(
                    "arrival",
                    150.0,
                    vec![(order[i], 40.0)],
                    vec![(order[j], 40.0)],
                );
            }
            "remove_task" => {
                d.remove_task(TaskId(rng.gen_range(0..graph.num_tasks()) as u32));
            }
            "link_down" => {
                d.link_down(LinkId(rng.gen_range(0..system.num_links()) as u32));
            }
            "remove_processor" => {
                d.remove_processor(ProcId(rng.gen_range(0..system.num_processors()) as u32));
            }
            other => panic!("unknown delta kind {other}"),
        }
        if kind == "empty" || problem.apply(&d).is_ok() {
            return d;
        }
    }
    panic!("no applicable {kind} delta found in 32 tries");
}

fn bench_cell(cell: &Cell) -> CellResult {
    let mut sum_warm_ms = 0.0;
    let mut sum_cold_ms = 0.0;
    let mut sum_touched = 0.0;
    let mut sum_warm_len = 0.0;
    let mut sum_cold_len = 0.0;
    let mut warm_valid = true;
    for rep in 0..cell.reps {
        let (graph, system) = instance(cell.tasks, rep);
        let problem = Problem::new(&graph, &system).expect("bench instances validate");
        let incumbent: Solution = Bsa::default()
            .solve_unbounded(&problem)
            .expect("bench instances solve cleanly");
        let mut rng = StdRng::seed_from_u64(0x5EED + rep as u64);
        let delta = delta_of(cell.kind, &graph, &system, &mut rng);

        let t0 = Instant::now();
        let (update, warm) = incumbent
            .resolve(&problem, &delta, &SolveOptions::default())
            .expect("applicable deltas resolve");
        let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mutated = update.problem();
        let t1 = Instant::now();
        let cold = Bsa::default()
            .solve_unbounded(&mutated)
            .expect("mutated instances solve cleanly");
        let cold_ms = t1.elapsed().as_secs_f64() * 1e3;

        warm_valid &= validate(&warm.schedule, update.graph(), update.system()).is_empty();
        sum_warm_ms += warm_ms;
        sum_cold_ms += cold_ms;
        sum_touched += warm.trace.num_migrations() as f64 / update.graph().num_tasks() as f64;
        sum_warm_len += warm.schedule.schedule_length();
        sum_cold_len += cold.schedule.schedule_length();
    }
    let reps = cell.reps as f64;
    let mean_warm_ms = sum_warm_ms / reps;
    let mean_cold_ms = sum_cold_ms / reps;
    let mean_touched_frac = sum_touched / reps;
    let small_delta = mean_touched_frac < 0.10;
    CellResult {
        kind: cell.kind,
        tasks: cell.tasks,
        reps: cell.reps,
        mean_warm_ms,
        mean_cold_ms,
        mean_touched_frac,
        mean_warm_makespan: sum_warm_len / reps,
        mean_cold_makespan: sum_cold_len / reps,
        warm_valid,
        small_delta,
        warm_wins: mean_warm_ms < mean_cold_ms,
    }
}

fn write_json(path: &str, quick: bool, results: &[CellResult]) -> std::io::Result<()> {
    use std::io::Write;
    let warm_valid = results.iter().all(|r| r.warm_valid);
    let small_delta_warm_wins = results
        .iter()
        .filter(|r| r.small_delta)
        .all(|r| r.warm_wins);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"dynamic\",\n");
    out.push_str(&bsa_bench::env_header_json());
    out.push_str("  \"topology\": \"hypercube-8\",\n");
    out.push_str(&format!(
        "  \"grid\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"warm_valid\": {warm_valid},\n"));
    out.push_str(&format!(
        "  \"small_delta_warm_wins\": {small_delta_warm_wins},\n"
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"delta\": \"{}\", \"tasks\": {}, \"reps\": {}, \
             \"mean_warm_ms\": {:.3}, \"mean_cold_ms\": {:.3}, \"speedup\": {:.2}, \
             \"mean_touched_frac\": {:.4}, \"mean_warm_makespan\": {:.3}, \
             \"mean_cold_makespan\": {:.3}, \"warm_valid\": {}, \"small_delta\": {}, \
             \"warm_wins\": {}}}{}\n",
            r.kind,
            r.tasks,
            r.reps,
            r.mean_warm_ms,
            r.mean_cold_ms,
            r.mean_cold_ms / r.mean_warm_ms.max(1e-9),
            r.mean_touched_frac,
            r.mean_warm_makespan,
            r.mean_cold_makespan,
            r.warm_valid,
            r.small_delta,
            r.warm_wins,
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
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamic.json").to_string()
        });

    println!(
        "dynamic re-scheduling ({} grid), topology = hypercube-8",
        if quick { "quick" } else { "full" }
    );
    println!("| delta | tasks | warm ms | cold ms | speedup | touched | warm len | cold len | valid | wins |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut results = Vec::new();
    for cell in &grid(quick) {
        let r = bench_cell(cell);
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.1}x | {:.1}% | {:.0} | {:.0} | {} | {} |",
            r.kind,
            r.tasks,
            r.mean_warm_ms,
            r.mean_cold_ms,
            r.mean_cold_ms / r.mean_warm_ms.max(1e-9),
            100.0 * r.mean_touched_frac,
            r.mean_warm_makespan,
            r.mean_cold_makespan,
            r.warm_valid,
            r.warm_wins
        );
        results.push(r);
    }
    if let Some(bad) = results.iter().find(|r| !r.warm_valid) {
        eprintln!(
            "ERROR: dynamic cell {} x {} produced an invalid warm schedule",
            bad.kind, bad.tasks
        );
        std::process::exit(1);
    }
    if let Some(bad) = results.iter().find(|r| r.small_delta && !r.warm_wins) {
        eprintln!(
            "ERROR: dynamic cell {} x {} is a small delta ({:.1}% touched) but the warm \
             path lost to the cold re-solve ({:.2}ms vs {:.2}ms)",
            bad.kind,
            bad.tasks,
            100.0 * bad.mean_touched_frac,
            bad.mean_warm_ms,
            bad.mean_cold_ms
        );
        std::process::exit(1);
    }
    write_json(&out_path, quick, &results).expect("write BENCH_dynamic.json");
    println!("\nwrote {out_path}");
}
