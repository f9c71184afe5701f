//! Runs every workload at smoke size, untraced and traced, and checks that each run
//! is correct and emits exactly the metrics `BENCHMARK.json` names.

use bsa_daemon::json::{self, Value};
use std::process::Command;

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists the metrics")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_metric_at_smoke_size() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = json::parse(&text).unwrap();
    for workload in ["cold-large", "resolve-chain", "daemon-mixed"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bsabench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object")
            };
            let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(&spec, key), "{workload} trace {trace}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                // Every metric is printed by name and unit before the result line.
                let unit = m.get("unit").and_then(Value::as_str).unwrap();
                assert!(stdout.contains(&format!("{name} = ")) && stdout.contains(unit));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bsabench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
