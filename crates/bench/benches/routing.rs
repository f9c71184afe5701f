//! Routing-policy ablation: hop-count vs cost-aware routing across the paper's
//! heterogeneity grid (`R ∈ {10, 50, 100, 200}`).
//!
//! For every cell (heterogeneity range × algorithm) the bench solves the same seeded
//! instances — random layered DAGs on a 4×4 torus, the topology family where route
//! *choice* actually exists — once with the default [`RoutePolicy::ShortestHop`] and
//! once with [`RoutePolicy::MinTransferTime`], and reports the mean makespans plus the
//! relative improvement.  Two correctness gates ride along in every cell:
//!
//! * `schedules_equal` — the default-policy solve is deterministic (two independent
//!   solves are bit-identical) **and** the cost-aware table built by the generalized
//!   `RoutingTable` under `ShortestHop` chooses exactly the legacy BFS routes, so the
//!   default policy cannot silently drift from the pre-pluggable behaviour.  CI greps
//!   for this field in the fresh and the committed JSON.
//! * the cost-aware schedules still validate under the full contention model.
//!
//! This is a plain `harness = false` binary so it can emit a machine-readable
//! `BENCH_routing.json`:
//!
//! ```console
//! cargo bench -p bsa_bench --bench routing            # full grid (~a minute)
//! cargo bench -p bsa_bench --bench routing -- --quick # CI smoke (~seconds)
//! cargo bench -p bsa_bench --bench routing -- --out results/BENCH_routing.json
//! ```

use bsa::algorithms::Algo;
use bsa_network::builders::torus2d;
use bsa_network::{HeterogeneityRange, HeterogeneousSystem, RoutePolicy, RoutingTable};
use bsa_schedule::solver::{NoProgress, Problem, SolveOptions};
use bsa_schedule::{validate, Schedule};
use bsa_taskgraph::TaskGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three table-driven solvers whose routes the policy controls.
const ALGOS: [Algo; 3] = [Algo::Dls, Algo::HeftCa, Algo::HeftCo];

struct Cell {
    range: f64,
    algo: Algo,
    reps: usize,
}

struct CellResult {
    range: f64,
    algo: Algo,
    reps: usize,
    mean_hop: f64,
    mean_cost_aware: f64,
    schedules_equal: bool,
    valid: bool,
}

fn grid(quick: bool) -> (usize, Vec<Cell>) {
    let (tasks, reps, ranges): (usize, usize, &[f64]) = if quick {
        (60, 2, &[50.0, 200.0])
    } else {
        (100, 10, &[10.0, 50.0, 100.0, 200.0])
    };
    let mut cells = Vec::new();
    for &range in ranges {
        for algo in ALGOS {
            cells.push(Cell { range, algo, reps });
        }
    }
    (tasks, cells)
}

fn instance(tasks: usize, range: f64, rep: usize) -> (TaskGraph, HeterogeneousSystem) {
    // One seed stream per (range, rep): every algorithm and policy sees the same
    // instances, so cell means are directly comparable.
    let mut rng = StdRng::seed_from_u64(0xB5A0 + rep as u64 * 977 + range as u64);
    let topo = torus2d(4, 4).expect("torus builds");
    let graph = bsa_workloads::random_dag::paper_random_graph(tasks, 0.5, &mut rng)
        .expect("generator accepts bench sizes");
    let system = HeterogeneousSystem::generate(
        &graph,
        topo,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, range),
        &mut rng,
    );
    (graph, system)
}

fn solve(algo: Algo, problem: &Problem<'_>, policy: RoutePolicy) -> Schedule {
    algo.solver()
        .solve(
            problem,
            &SolveOptions::default().with_route_policy(policy),
            &mut NoProgress,
        )
        .expect("bench instances solve cleanly")
        .schedule
}

/// Bit-identical placements AND routes: the gate exists to catch route-selection
/// nondeterminism too, which can change without moving any task.
fn same_schedule(graph: &TaskGraph, a: &Schedule, b: &Schedule) -> bool {
    graph
        .task_ids()
        .all(|t| a.proc_of(t) == b.proc_of(t) && a.start_of(t) == b.start_of(t))
        && a.schedule_length() == b.schedule_length()
        && a.routes() == b.routes()
}

fn bench_cell(tasks: usize, cell: &Cell) -> CellResult {
    let mut sum_hop = 0.0;
    let mut sum_ca = 0.0;
    let mut schedules_equal = true;
    let mut valid = true;
    for rep in 0..cell.reps {
        let (graph, system) = instance(tasks, cell.range, rep);
        let problem = Problem::new(&graph, &system).expect("bench instances validate");

        // Default-policy gate 1: the generalized cost-aware table must pick exactly
        // the legacy BFS routes under ShortestHop.
        let modern = system.comm_model(RoutePolicy::ShortestHop);
        let legacy = RoutingTable::shortest_paths(&system.topology);
        for src in system.topology.proc_ids() {
            for dst in system.topology.proc_ids() {
                schedules_equal &= modern.route(src, dst) == legacy.route(src, dst);
            }
        }

        // Default-policy gate 2: two independent default solves are bit-identical.
        let hop = solve(cell.algo, &problem, RoutePolicy::ShortestHop);
        let hop2 = solve(cell.algo, &problem, RoutePolicy::ShortestHop);
        schedules_equal &= same_schedule(&graph, &hop, &hop2);

        let ca = solve(cell.algo, &problem, RoutePolicy::MinTransferTime);
        valid &= validate(&hop, &graph, &system).is_empty();
        valid &= validate(&ca, &graph, &system).is_empty();
        sum_hop += hop.schedule_length();
        sum_ca += ca.schedule_length();
    }
    CellResult {
        range: cell.range,
        algo: cell.algo,
        reps: cell.reps,
        mean_hop: sum_hop / cell.reps as f64,
        mean_cost_aware: sum_ca / cell.reps as f64,
        schedules_equal,
        valid,
    }
}

fn write_json(
    path: &str,
    quick: bool,
    tasks: usize,
    results: &[CellResult],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"routing\",\n");
    out.push_str(&bsa_bench::env_header_json());
    out.push_str("  \"topology\": \"torus-4x4\",\n");
    out.push_str(&format!("  \"tasks\": {tasks},\n"));
    out.push_str("  \"policies\": [\"shortest_hop\", \"min_transfer_time\"],\n");
    out.push_str(&format!(
        "  \"grid\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"range\": {}, \"algo\": \"{}\", \"reps\": {}, \
             \"mean_makespan_shortest_hop\": {:.3}, \"mean_makespan_min_transfer_time\": {:.3}, \
             \"improvement_pct\": {:.2}, \"schedules_equal\": {}, \"valid\": {}}}{}\n",
            r.range,
            r.algo.label(),
            r.reps,
            r.mean_hop,
            r.mean_cost_aware,
            100.0 * (r.mean_hop - r.mean_cost_aware) / r.mean_hop,
            r.schedules_equal,
            r.valid,
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
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routing.json").to_string()
        });

    let (tasks, cells) = grid(quick);
    println!(
        "routing ablation ({} grid), topology = torus-4x4, {} tasks",
        if quick { "quick" } else { "full" },
        tasks
    );
    println!("| R | algo | mean hop | mean cost-aware | improvement | equal | valid |");
    println!("|---|---|---|---|---|---|---|");
    let mut results = Vec::new();
    for cell in &cells {
        let r = bench_cell(tasks, cell);
        println!(
            "| {} | {} | {:.0} | {:.0} | {:+.1}% | {} | {} |",
            r.range,
            r.algo,
            r.mean_hop,
            r.mean_cost_aware,
            100.0 * (r.mean_hop - r.mean_cost_aware) / r.mean_hop,
            r.schedules_equal,
            r.valid
        );
        results.push(r);
    }
    if let Some(bad) = results.iter().find(|r| !r.schedules_equal || !r.valid) {
        eprintln!(
            "ERROR: routing-policy cell R={} {} failed its correctness gate \
             (schedules_equal={}, valid={})",
            bad.range, bad.algo, bad.schedules_equal, bad.valid
        );
        std::process::exit(1);
    }
    write_json(&out_path, quick, tasks, &results).expect("write BENCH_routing.json");
    println!("\nwrote {out_path}");
}
