//! The metric catalogue, correctness accounting and the result printout.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run): name and unit.  Every workload reports every
/// one; `bsabench/README.md` says what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("nsl_mean", "ratio"),
    ("resolve_ms_p50", "ms"),
    ("resolve_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), named after the crate whose public functions the
/// spans wrap: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.select_pivot_ms", "ms"),
    ("core.serialize_ms", "ms"),
    ("core.solve_setup_ms", "ms"),
    ("core.migrate_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.pivot_ms_max", "ms"),
    ("core.migrations", "count"),
    ("core.candidate_evals", "count"),
    ("core.accept_ratio", "ratio"),
    ("schedule.problem_new_ms", "ms"),
    ("schedule.gap_query_ns", "ns"),
    ("schedule.spec_cycle_ns", "ns"),
    ("schedule.retime_full_ms", "ms"),
    ("schedule.retime_passes", "count"),
    ("schedule.retime_cone_nodes", "count"),
    ("schedule.retime_changed_nodes", "count"),
    ("schedule.retime_delta_evals", "count"),
    ("schedule.retime_flat_passes", "count"),
    ("schedule.retime_useful_ratio", "ratio"),
    ("schedule.delta_apply_ms", "ms"),
    ("schedule.resolve_onto_ms", "ms"),
    ("schedule.resolve_touched_frac", "fraction"),
    ("schedule.validate_ms", "ms"),
    ("network.routing_build_ms", "ms"),
    ("taskgraph.fingerprint_us", "us"),
    ("baselines.dls_solve_ms", "ms"),
    ("baselines.heft_solve_ms", "ms"),
    ("daemon.parse_us", "us"),
    ("daemon.submit_hit_us", "us"),
    ("daemon.submit_miss_us", "us"),
    ("daemon.first_event_ms", "ms"),
    ("daemon.event_encode_us", "us"),
    ("daemon.events_per_session", "count"),
    ("daemon.end_encode_us", "us"),
    ("daemon.stream_bytes", "bytes"),
    ("daemon.ack_us", "us"),
    ("daemon.problem_hit_ratio", "ratio"),
    ("daemon.routing_hit_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Measured metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records (or overwrites) one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Operations attempted and failed, with the first few failures described.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were rejected, failed validation or differed from
    /// their oracle reference.
    pub failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }
}

/// Prints the human-readable report and, as the last line, the JSON result with
/// every metric of `catalogue`.  Returns whether the run is correct: nothing failed
/// and every catalogue metric was measured.
pub fn emit(
    stamp: &str,
    catalogue: &[(&'static str, &'static str)],
    metrics: &Metrics,
    outcome: &Outcome,
) -> bool {
    println!("# {stamp}");
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    for note in &outcome.notes {
        println!("# FAILED: {note}");
        eprintln!("bsabench: FAILED: {note}");
    }
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        debug_assert!(crate::stats::valid_metric_name(name), "{name}");
        let value = metrics.0.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            println!("# FAILED: metric {name} was not measured");
            eprintln!("bsabench: metric {name} was not measured");
            correct = false;
            continue;
        }
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "failed_share = {} fraction ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use bsa_daemon::json::{self, Value};

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_names_are_valid_unique_and_match_benchmark_json() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["cold-large", "resolve-chain", "daemon-mixed"]);
    }

    #[test]
    fn outcome_counts_attempts_and_failures() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "bad".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.notes, ["bad"]);
    }
}
