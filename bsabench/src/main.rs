//! One benchmark for BSA: cold solves, chained warm re-solves and a closed-loop
//! daemon, end to end and per layer.  See `bsabench/README.md`.
//!
//! ```console
//! bash bsabench/run.sh --workload cold-large --seed 1 --seconds 20 --trace 0
//! bash bsabench/run.sh --workload resolve-chain --seed 1 --seconds 20 --trace 1
//! ```
//!
//! The last line of standard output is the JSON result; the lines before it print
//! every metric by name and unit.  The process exits non-zero when any output is
//! wrong.

mod chain;
mod cold;
mod daemon;
mod instances;
mod layers;
mod report;
mod stats;
mod trace;

use report::{Metrics, Outcome};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "\
usage: bsabench --workload <cold-large|resolve-chain|daemon-mixed> --seed <n> \
--seconds <s> --trace <0|1> [--smoke]
       bsabench summarize < results     (median and quartiles of result lines)
       bsabench write-expected          (regenerate expected/cold-large.txt)";

/// Where the benchmark writes its spans and daemon sockets, relative to the
/// directory it runs in.
pub const OUT_DIR: &str = "bsabench-out";

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdLarge,
    ResolveChain,
    DaemonMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cold-large" => Workload::ColdLarge,
            "resolve-chain" => Workload::ResolveChain,
            "daemon-mixed" => Workload::DaemonMixed,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdLarge => "cold-large",
            Workload::ResolveChain => "resolve-chain",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }
}

/// Command-line arguments of a run.
pub struct Args {
    workload: Workload,
    /// Draws the workload's inputs; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny instances, for the self-tests.
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Instance sizes and probe lengths.
pub struct Sizes {
    /// `cold-large`: (tasks, processors) of its two instances.
    pub cold: [(usize, usize); 2],
    /// `resolve-chain`: (tasks, processors) of its instance.
    pub chain: (usize, usize),
    /// `resolve-chain`: deltas in the chain.
    pub chain_steps: usize,
    /// `daemon-mixed`: (tasks, processors) of each pool problem.
    pub pool: (usize, usize),
    /// `daemon-mixed`: pool problems.
    pub pool_len: usize,
    /// Chain steps the other workloads' traced runs re-solve warm.
    pub probe_steps: usize,
    /// `daemon-mixed` traced run: sessions in each of the untraced and traced batches.
    pub daemon_batch: usize,
    /// Sessions of the in-process engine and single-client socket probes.
    pub probe_sessions: usize,
    /// Link-timeline gap queries per instance.
    pub gap_queries: usize,
    /// Speculative booking cycles per instance.
    pub spec_cycles: usize,
}

const FULL: Sizes = Sizes {
    cold: [(3000, 16), (3000, 64)],
    chain: (300, 8),
    chain_steps: 40,
    pool: (100, 16),
    pool_len: 8,
    probe_steps: 10,
    daemon_batch: 160,
    probe_sessions: 48,
    gap_queries: 20_000,
    spec_cycles: 5_000,
};

const SMOKE: Sizes = Sizes {
    cold: [(60, 4), (60, 8)],
    chain: (40, 4),
    chain_steps: 20,
    pool: (20, 4),
    pool_len: 3,
    probe_steps: 10,
    daemon_batch: 40,
    probe_sessions: 12,
    gap_queries: 500,
    spec_cycles: 200,
};

/// Everything a workload run reads and fills.
pub struct Ctx {
    pub args: Args,
    pub sizes: &'static Sizes,
    pub tracer: Tracer,
    pub metrics: Metrics,
    pub outcome: Outcome,
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the median seconds and the last
/// result (earlier results are dropped as the next one replaces them).
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let value = setup()?;
        seconds.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    let last = last.expect("set-up runs at least once");
    Ok((stats::percentile(&seconds, 50.0), last))
}

/// Peak resident set size (`VmHWM`) of this process or of `pid`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/status".to_string(), |p| {
        format!("/proc/{p}/status")
    });
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host, build and input stamp printed with every result.
fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "workload={} seed={} seconds={} trace={} smoke={} nproc={nproc} cpu=\"{cpu}\" \
         commit={commit} rustc=\"{}\" profile={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        env!("BSABENCH_RUSTC"),
        env!("BSABENCH_PROFILE"),
    )
}

/// Reads result lines (the JSON last lines of several runs) from stdin and prints
/// each metric's median, quartiles and spread (q3 − q1 over the median).
fn summarize() -> Result<(), String> {
    use bsa_daemon::json::{self, Value};
    use std::collections::BTreeMap;
    use std::io::BufRead;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut runs = 0;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let Ok(v) = json::parse(line.trim()) else {
            continue;
        };
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        runs += 1;
        for (name, m) in metrics {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            values
                .entry(name.clone())
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    println!("{runs} runs");
    for (name, (unit, v)) in values {
        if v.len() < 2 {
            println!("{name}: {} {unit} (one run)", v[0]);
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&v);
        println!(
            "{name}: median {q2:.6} {unit}, quartiles [{q1:.6}, {q3:.6}], spread {:.4}",
            (q3 - q1) / q2
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tool = match argv.first().map(String::as_str) {
        Some("summarize") => Some(summarize()),
        Some("write-expected") => Some(cold::write_expected(&FULL).map(|p| println!("wrote {p}"))),
        _ => None,
    };
    if let Some(result) = tool {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bsabench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bsabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&args);
    let mut ctx = Ctx {
        sizes: if args.smoke { &SMOKE } else { &FULL },
        tracer: Tracer::new(args.trace),
        metrics: Metrics::default(),
        outcome: Outcome::default(),
        args,
    };
    let ran = match ctx.args.workload {
        Workload::ColdLarge => cold::run(&mut ctx),
        Workload::ResolveChain => chain::run(&mut ctx),
        Workload::DaemonMixed => daemon::run(&mut ctx),
    };
    if let Err(e) = ran {
        eprintln!("bsabench: {} failed: {e}", ctx.args.workload.name());
        return ExitCode::FAILURE;
    }
    let catalogue = if ctx.args.trace {
        layers::span_metrics(&mut ctx.metrics, &ctx.tracer);
        let path = std::path::PathBuf::from(format!(
            "{OUT_DIR}/spans-{}-{}.jsonl",
            ctx.args.workload.name(),
            ctx.args.seed
        ));
        if let Err(e) = ctx
            .tracer
            .write(&path, &format!("{{\"stamp\": {stamp:?}}}"))
        {
            eprintln!("bsabench: writing {}: {e}", path.display());
        }
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if report::emit(&stamp, catalogue, &ctx.metrics, &ctx.outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
