//! Regenerates `BENCH_traces.json`: the deterministic [`SolveTrace`] bundle (worked
//! example unbudgeted + under a migration budget, one random DAG, and the standard
//! portfolio racing it), written at the workspace root.
//!
//! Run with `cargo run --release -p bsa_experiments --bin solve_traces -- [--out PATH]`.
//!
//! [`SolveTrace`]: bsa_schedule::SolveTrace

use bsa_experiments::traces::{bundle_json, default_out_path, trace_suite};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(default_out_path);

    let entries = trace_suite();
    for entry in &entries {
        println!(
            "{}: stop = {}, serialized = {:?}, final = {:.1}, migrations = {}",
            entry.label,
            entry.trace.stop,
            entry.trace.serialized_length,
            entry.trace.final_length,
            entry.trace.num_migrations()
        );
    }
    std::fs::write(&out_path, bundle_json(&entries)).expect("write BENCH_traces.json");
    println!("\nwrote {out_path}");
}
