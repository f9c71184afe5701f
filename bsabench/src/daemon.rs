//! `daemon-mixed`: the release `bsa-daemon` (`--socket`, one worker) driven over its
//! Unix socket by a closed loop of two clients, each on its own connection.  A
//! client submits, attaches until the `end` record, releases, and only then submits
//! again.
//!
//! Problems are 100-task DAGs on 16-processor hypercubes.  Submits come in blocks of
//! 40 with a fixed make-up:
//! * 30 repeat one of eight fixed pool problems and should hit the daemon's cache;
//!   10 are fresh — a pool problem with one link factor nudged by a per-session
//!   amount — and miss both the validated-problem and the routing-table cache;
//! * 8 run a baseline under `MinTransferTime` — 1 `dls`, 7 `heft_ca`, because a DLS
//!   solve costs about 35 BSA solves here and would otherwise set the throughput on
//!   its own — and 32 run `bsa` with the defaults.
//!
//! `--seed` shuffles each block and picks the nudged links.  Fixing the make-up keeps
//! runs with different seeds comparable; the pool is fixed for the same reason.

use crate::instances::{encode_problem, generate, Instance, Placements};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{mean, percentile};
use crate::trace::ROOT;
use crate::{chain, Ctx, Sizes, OUT_DIR};
use bsa::prelude::*;
use bsa::schedule::validate::validate;
use bsa_daemon::engine::{AlgoChoice, Engine, EngineConfig, StreamItem};
use bsa_daemon::json::{self, Value};
use bsa_daemon::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Seed of the first pool problem; problem `i` uses `POOL_SEED + i`.
const POOL_SEED: u64 = 0xD0;
/// Length of the seeded submit sequence (it repeats beyond that).
const SPECS: usize = 4096;
/// Submits per block of fixed make-up (see the module documentation).
const BLOCK: usize = 40;
/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MixAlgo {
    Bsa,
    Dls,
    HeftCa,
}

impl MixAlgo {
    const ALL: [MixAlgo; 3] = [MixAlgo::Bsa, MixAlgo::Dls, MixAlgo::HeftCa];

    fn label(self) -> &'static str {
        match self {
            MixAlgo::Bsa => "bsa",
            MixAlgo::Dls => "dls",
            MixAlgo::HeftCa => "heft_ca",
        }
    }

    /// The `options` member of the submit, after the algorithm.
    fn options_json(self) -> &'static str {
        match self {
            MixAlgo::Bsa => "",
            _ => r#","options":{"route_policy":"min_transfer_time"}"#,
        }
    }

    fn options(self) -> SolveOptions {
        match self {
            MixAlgo::Bsa => SolveOptions::default(),
            _ => SolveOptions::default().with_route_policy(RoutePolicy::MinTransferTime),
        }
    }

    fn solver(self) -> Box<dyn Solver> {
        match self {
            MixAlgo::Bsa => Box::new(Bsa::default()),
            MixAlgo::Dls => Box::new(Dls::new()),
            MixAlgo::HeftCa => Box::new(Heft::new()),
        }
    }
}

/// One submit of the sequence.
#[derive(Debug, Clone, Copy)]
struct Spec {
    pool: usize,
    algo: MixAlgo,
    /// The link nudged to make the problem fresh.
    fresh: Option<LinkId>,
}

/// The pool and the seeded submit sequence.
struct Mix {
    pool: Vec<Instance>,
    pool_json: Vec<String>,
    /// Nominal critical-path length of each pool problem (nudging a link factor
    /// leaves it unchanged), the denominator of the normalized schedule length.
    cp: Vec<f64>,
    specs: Vec<Spec>,
    /// The encoded problem of every fresh submit, by position in `specs`, made
    /// before the clients start so they only write and read.
    fresh_json: Vec<Option<String>>,
}

impl Mix {
    fn new(sizes: &Sizes, seed: u64) -> Mix {
        let (tasks, procs) = sizes.pool;
        let pool: Vec<Instance> = (0..sizes.pool_len)
            .map(|i| generate(tasks, procs, POOL_SEED + i as u64))
            .collect();
        let pool_json = pool
            .iter()
            .map(|p| encode_problem(&p.graph, &p.system, None).to_json())
            .collect();
        let cp = pool
            .iter()
            .map(|p| GraphLevels::nominal(&p.graph).critical_path_length())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut specs = Vec::with_capacity(SPECS);
        for b in 0..SPECS / BLOCK {
            let mut block: Vec<Spec> = (0..BLOCK)
                .map(|i| {
                    let pool_index = (b + i) % pool.len();
                    let links = pool[pool_index].system.num_links();
                    Spec {
                        pool: pool_index,
                        algo: match i {
                            0 => MixAlgo::Dls,
                            1..=7 => MixAlgo::HeftCa,
                            _ => MixAlgo::Bsa,
                        },
                        fresh: (i % 4 == 1).then(|| LinkId(rng.gen_range(0..links) as u32)),
                    }
                })
                .collect();
            for i in (1..BLOCK).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            specs.extend(block);
        }
        // A fresh problem scales its link by a factor unique to its position, so no
        // two submits of the sequence share one.
        let fresh_json = specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                spec.fresh.map(|link| {
                    let p = &pool[spec.pool];
                    let scale = 1.0 + 1e-6 * (k + 1) as f64;
                    encode_problem(&p.graph, &p.system, Some((link, scale))).to_json()
                })
            })
            .collect();
        Mix {
            pool,
            pool_json,
            cp,
            specs,
            fresh_json,
        }
    }

    fn spec(&self, k: usize) -> Spec {
        self.specs[k % self.specs.len()]
    }

    /// The problem of submit `k` (whose spec is `spec`).
    fn problem_json(&self, k: usize, spec: Spec) -> &str {
        match spec.fresh {
            None => &self.pool_json[spec.pool],
            Some(_) => self.fresh_json[k % self.specs.len()]
                .as_deref()
                .expect("fresh specs are encoded up front"),
        }
    }

    fn submit_line(&self, k: usize, spec: Spec) -> String {
        format!(
            r#"{{"v":1,"cmd":"submit","problem":{},"algo":"{}"{}}}"#,
            self.problem_json(k, spec),
            spec.algo.label(),
            spec.algo.options_json()
        )
    }

    /// Every pool problem under each algorithm in `algos`.
    fn pool_specs(&self, algos: &[MixAlgo]) -> Vec<(usize, Spec)> {
        (0..self.pool.len())
            .flat_map(|pool| {
                algos.iter().map(move |&algo| {
                    let spec = Spec {
                        pool,
                        algo,
                        fresh: None,
                    };
                    (0, spec)
                })
            })
            .collect()
    }

    /// The warm-up that fills the cache: every pool problem under each routing
    /// policy of the mix (`bsa` routes shortest-hop, `heft_ca` and `dls` share the
    /// `MinTransferTime` table).
    fn warm_specs(&self) -> Vec<(usize, Spec)> {
        self.pool_specs(&[MixAlgo::Bsa, MixAlgo::HeftCa])
    }
}

/// Solves a problem in process, decoded from the exact JSON the daemon gets.
fn reference(problem_json: &str, algo: MixAlgo) -> Result<Placements, String> {
    let v = json::parse(problem_json).map_err(|e| e.to_string())?;
    let (graph, system) = wire::decode_problem(&v).map_err(|e| e.0)?;
    let problem = Problem::new(&graph, &system).map_err(|e| e.to_string())?;
    let solution = algo
        .solver()
        .solve(&problem, &algo.options(), &mut NoProgress)
        .map_err(|e| e.to_string())?;
    Ok(Placements::of(&solution.schedule, &graph))
}

type PoolRefs = HashMap<(usize, MixAlgo), Placements>;

fn pool_refs(mix: &Mix) -> Result<PoolRefs, String> {
    mix.pool_specs(&MixAlgo::ALL)
        .into_iter()
        .map(|(_, s)| Ok(((s.pool, s.algo), reference(&mix.pool_json[s.pool], s.algo)?)))
        .collect()
}

/// Checks each session's result against the in-process reference for its problem,
/// and returns what each `end` record says (`None` for failed sessions).
fn check_sessions(
    outcome: &mut Outcome,
    mix: &Mix,
    refs: &PoolRefs,
    done: &[Done],
) -> Vec<Option<Ended>> {
    done.iter()
        .map(|d| {
            let fresh;
            let reference = match d.spec.fresh {
                None => refs.get(&(d.spec.pool, d.spec.algo)),
                Some(_) => {
                    fresh = reference(mix.problem_json(d.k, d.spec), d.spec.algo).ok();
                    fresh.as_ref()
                }
            };
            let ended = d.ended();
            let matches = ended.as_ref().is_ok_and(|e| reference == Some(&e.result));
            outcome.check(matches, || {
                format!(
                    "session {} ({} on pool problem {}, fresh: {}): {}",
                    d.k,
                    d.spec.algo.label(),
                    d.spec.pool,
                    d.spec.fresh.is_some(),
                    ended
                        .as_ref()
                        .err()
                        .map_or("differs from the in-process reference", String::as_str)
                )
            });
            ended.ok()
        })
        .collect()
}

/// One finished session, as the socket client saw it.
struct Done {
    k: usize,
    spec: Spec,
    /// Submit written.
    t0: Instant,
    /// Submit acknowledged.
    t_ack: Instant,
    /// `end` record read.
    t_end: Instant,
    /// Bytes read from the attach acknowledgement through the `end` record.
    bytes: usize,
    problem_hit: bool,
    routing_hit: bool,
    /// The `end` record, parsed only after the measurement.
    end: String,
}

/// What a successful session's `end` record says.
struct Ended {
    /// Solve time the daemon reports in the result's provenance.
    elapsed_us: f64,
    result: Placements,
}

impl Done {
    fn ended(&self) -> Result<Ended, String> {
        let end = json::parse(self.end.trim_end()).map_err(|e| e.to_string())?;
        if end.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("session failed: {}", self.end.trim_end()));
        }
        let result = end.get("result").ok_or("end record without a result")?;
        let num = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
        let tasks = result
            .get("placements")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|row| {
                let row = row.as_arr().unwrap_or(&[]);
                let at = |i: usize| row.get(i).map_or(f64::NAN, num);
                (at(1) as u32, at(2))
            })
            .collect();
        Ok(Ended {
            elapsed_us: result
                .get("provenance")
                .and_then(|p| p.get("elapsed_us"))
                .map_or(f64::NAN, num),
            result: Placements {
                makespan: result.get("schedule_length").map_or(f64::NAN, num),
                tasks,
            },
        })
    }
}

/// One connection to the daemon.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    /// Connects and reads the `hello` greeting.
    fn connect(path: &std::path::Path) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        let mut c = Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        };
        c.read()?;
        Ok(c)
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn read(&mut self) -> io::Result<usize> {
        self.line.clear();
        match self.reader.read_line(&mut self.line)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            )),
            n => Ok(n),
        }
    }

    fn reply(&self) -> Result<Value, String> {
        let v = json::parse(self.line.trim_end()).map_err(|e| e.to_string())?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v),
            _ => Err(format!("request refused: {}", self.line.trim_end())),
        }
    }

    fn request(&mut self, line: &str) -> Result<Value, String> {
        self.send(line).map_err(|e| e.to_string())?;
        self.read().map_err(|e| e.to_string())?;
        self.reply()
    }

    /// submit → attach until `end` → release.
    fn session(&mut self, k: usize, spec: Spec, line: &str) -> Result<Done, String> {
        let io = |e: io::Error| e.to_string();
        let t0 = Instant::now();
        self.send(line).map_err(io)?;
        self.read().map_err(io)?;
        let t_ack = Instant::now();
        let ack = self.reply()?;
        let id = ack
            .get("session")
            .and_then(Value::as_u64)
            .ok_or("submit reply without a session id")?;
        let hit = |shard: &str| {
            ack.get("cache")
                .and_then(|c| c.get(shard))
                .and_then(Value::as_str)
                == Some("hit")
        };
        let (problem_hit, routing_hit) = (hit("problem"), hit("routing"));
        self.send(&format!(r#"{{"cmd":"attach","session":{id}}}"#))
            .map_err(io)?;
        let mut bytes = self.read().map_err(io)?;
        self.reply()?;
        loop {
            bytes += self.read().map_err(io)?;
            if self.line.starts_with(r#"{"event":"end""#) {
                break;
            }
        }
        let t_end = Instant::now();
        let end = std::mem::take(&mut self.line);
        self.request(&format!(r#"{{"cmd":"release","session":{id}}}"#))?;
        Ok(Done {
            k,
            spec,
            t0,
            t_ack,
            t_end,
            bytes,
            problem_hit,
            routing_hit,
            end,
        })
    }
}

/// A running `bsa-daemon`, shut down (or, failing that, killed) and waited for
/// when dropped.
struct Daemon {
    child: Child,
    socket: PathBuf,
    control: Option<Client>,
}

impl Daemon {
    /// Spawns the daemon built next to this executable and waits for its `hello`.
    fn spawn(tag: &str) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("bsa-daemon");
        if !bin.exists() {
            return Err(format!(
                "{} not found; build it with `bash bsabench/run.sh`",
                bin.display()
            ));
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        // A relative path keeps the socket name short whatever the checkout's path.
        let socket = PathBuf::from(format!("{OUT_DIR}/d{}-{tag}.sock", std::process::id()));
        let child = Command::new(&bin)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            socket,
            control: None,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&daemon.socket) {
                Ok(c) => {
                    daemon.control = Some(c);
                    return Ok(daemon);
                }
                Err(e) => {
                    let exited = daemon.child.try_wait().ok().flatten();
                    if exited.is_some() || Instant::now() >= deadline {
                        return Err(format!("the daemon did not come up ({exited:?}): {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| e.to_string())
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the daemon to shut down and waits up to `grace` for it to exit.
    fn stop(&mut self, grace: Duration) -> Result<(), String> {
        let asked = match self.control.as_mut() {
            Some(c) => c.request(r#"{"cmd":"shutdown"}"#).map(drop),
            None => Err("no control connection".into()),
        };
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("the daemon did not exit after shutdown; killed".into());
                }
            }
        }
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.stop(Duration::from_secs(30))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.stop(Duration::from_secs(5));
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Runs every spec through one client, in order.
fn sequential(c: &mut Client, mix: &Mix, specs: &[(usize, Spec)]) -> Result<Vec<Done>, String> {
    specs
        .iter()
        .map(|&(k, spec)| c.session(k, spec, &mix.submit_line(k, spec)))
        .collect()
}

/// The closed loop: `CLIENTS` connections draw submit indices from `first` on until
/// `deadline` passes or `end` is reached.  Returns the sessions and the seconds from
/// the start to the last `end` record.
fn closed_loop(
    daemon: &Daemon,
    mix: &Mix,
    first: usize,
    end: usize,
    deadline: Option<Instant>,
) -> Result<(Vec<Done>, f64), String> {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = daemon.client()?;
                    let mut done = Vec::new();
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= end {
                            break;
                        }
                        let spec = mix.spec(k);
                        done.push(c.session(k, spec, &mix.submit_line(k, spec))?);
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut done = Vec::new();
    for r in per_client {
        done.extend(r?);
    }
    done.sort_by_key(|d| d.k);
    let last = done.iter().map(|d| d.t_end).max().unwrap_or(start);
    Ok((done, (last - start).as_secs_f64()))
}

/// Client-side spans and the socket-level per-layer metrics of a set of sessions.
fn socket_metrics(ctx: &mut Ctx, done: &[Done]) {
    for d in done {
        let tr = &mut ctx.tracer;
        tr.set_request(d.k as u64);
        let s = tr.record("daemon.session", d.t0, d.t_end, ROOT);
        tr.record("daemon.ack", d.t0, d.t_ack, Some(s));
        tr.record("daemon.stream", d.t_ack, d.t_end, Some(s));
    }
    let share =
        |f: fn(&Done) -> bool| done.iter().filter(|d| f(d)).count() as f64 / done.len() as f64;
    let bytes: Vec<f64> = done.iter().map(|d| d.bytes as f64).collect();
    ctx.metrics.set("daemon.stream_bytes", mean(&bytes));
    ctx.metrics
        .set("daemon.problem_hit_ratio", share(|d| d.problem_hit));
    ctx.metrics
        .set("daemon.routing_hit_ratio", share(|d| d.routing_hit));
}

/// Layers of the service path measured on an in-process `Engine` with the same mix:
/// request parsing, submit (split by its cache flags), the wait for the first
/// event, event and end-record encoding.
fn engine_probe(ctx: &mut Ctx, mix: &Mix, refs: &PoolRefs) -> Result<(), String> {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let specs: Vec<(usize, Spec)> = mix
        .warm_specs()
        .into_iter()
        .chain((0..ctx.sizes.probe_sessions).map(|k| (k, mix.spec(k))))
        .collect();
    let mut events_per_session = Vec::new();
    let mut done = Vec::new();
    for (k, spec) in specs {
        let line = mix.submit_line(k, spec);
        let tr = &mut ctx.tracer;
        tr.set_request(k as u64);
        let t0 = Instant::now();
        let req = json::parse(&line).map_err(|e| e.to_string())?;
        let problem = req.get("problem").ok_or("submit without a problem")?;
        let (graph, system) = wire::decode_problem(problem).map_err(|e| e.0)?;
        tr.record("daemon.parse", t0, Instant::now(), ROOT);
        let options = match req.get("options") {
            Some(o) => wire::decode_options(o).map_err(|e| e.0)?,
            None => SolveOptions::default(),
        };
        let algo = AlgoChoice::parse(spec.algo.label()).ok_or("unknown algorithm")?;
        let t1 = Instant::now();
        let info = engine
            .submit(1, graph, system, options, algo)
            .map_err(|r| r.error_body().to_json())?;
        let t2 = Instant::now();
        let submit = if info.problem_cached {
            "daemon.submit_hit"
        } else {
            "daemon.submit_miss"
        };
        tr.record(submit, t1, t2, ROOT);
        let session = engine
            .find_session(info.session)
            .map_err(|r| r.error_body().to_json())?;
        let mut events = Vec::new();
        while let StreamItem::Event { seq, payload } =
            engine.next_stream_item(&session, events.len())
        {
            if seq == 0 {
                tr.record("daemon.first_event", t2, Instant::now(), ROOT);
            }
            events.push(payload);
        }
        let decoded = events
            .iter()
            .map(wire::decode_event)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.0)?;
        let t3 = Instant::now();
        for e in &decoded {
            black_box(wire::encode_event(e));
        }
        tr.record("daemon.event_encode", t3, Instant::now(), ROOT);
        events_per_session.push(decoded.len() as f64);
        let finished = engine.wait_done(&session).map_err(|v| v.to_json())?;
        let t4 = Instant::now();
        black_box(wire::encode_solution(&finished.solution, finished.instance.graph()).to_json());
        tr.record("daemon.end_encode", t4, Instant::now(), ROOT);
        engine
            .release(info.session)
            .map_err(|r| r.error_body().to_json())?;
        done.push((
            k,
            spec,
            Placements::of(&finished.solution.schedule, finished.instance.graph()),
        ));
    }
    engine.shutdown();
    for (k, spec, got) in done {
        let reference = match spec.fresh {
            None => refs.get(&(spec.pool, spec.algo)).cloned(),
            Some(_) => reference(mix.problem_json(k, spec), spec.algo).ok(),
        };
        ctx.outcome.check(reference.as_ref() == Some(&got), || {
            format!("in-process engine session {k}: differs from the reference")
        });
    }
    ctx.metrics
        .set("daemon.events_per_session", mean(&events_per_session));
    Ok(())
}

/// The per-layer probes the traced runs of the other workloads take on the daemon
/// mix: those of [`service_probes`] and a short single-client run against the real
/// daemon.
pub fn mix_probes(ctx: &mut Ctx) -> Result<(), String> {
    let mix = Mix::new(ctx.sizes, ctx.args.seed);
    let refs = pool_refs(&mix)?;
    service_probes(ctx, &mix, &refs)?;
    let daemon = Daemon::spawn("probe")?;
    let mut c = daemon.client()?;
    let warmed = sequential(&mut c, &mix, &mix.warm_specs())?;
    let specs: Vec<(usize, Spec)> = (0..ctx.sizes.probe_sessions)
        .map(|k| (k, mix.spec(k)))
        .collect();
    let done = sequential(&mut c, &mix, &specs)?;
    drop(c);
    daemon.shutdown()?;
    check_sessions(&mut ctx.outcome, &mix, &refs, &warmed);
    check_sessions(&mut ctx.outcome, &mix, &refs, &done);
    socket_metrics(ctx, &done);
    Ok(())
}

/// The baselines' solves and the in-process engine, on the daemon mix.
fn service_probes(ctx: &mut Ctx, mix: &Mix, refs: &PoolRefs) -> Result<(), String> {
    for inst in &mix.pool {
        let problem = inst.problem();
        for (span, algo) in [
            ("baselines.dls_solve", MixAlgo::Dls),
            ("baselines.heft_solve", MixAlgo::HeftCa),
        ] {
            let solved = ctx.tracer.time(span, ROOT, || {
                algo.solver()
                    .solve(&problem, &algo.options(), &mut NoProgress)
            });
            let valid = solved
                .as_ref()
                .is_ok_and(|s| validate(&s.schedule, &inst.graph, &inst.system).is_empty());
            ctx.outcome
                .check(valid, || format!("{}: {} failed", inst.name, algo.label()));
        }
    }
    engine_probe(ctx, mix, refs)
}

/// Set-up: pool generation and encoding, daemon spawn → `hello`, and the warm-up
/// that puts every pool problem and routing table in the cache.
fn setup(sizes: &Sizes, seed: u64, tag: &str) -> Result<(Mix, Daemon, Vec<Done>), String> {
    let mix = Mix::new(sizes, seed);
    let daemon = Daemon::spawn(tag)?;
    let mut c = daemon.client()?;
    let warm = mix.warm_specs();
    let warmed = sequential(&mut c, &mix, &warm)?;
    Ok((mix, daemon, warmed))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (sizes, seed) = (ctx.sizes, ctx.args.seed);
    let mut n = 0;
    let (setup_s, (mix, daemon, warmed)) = crate::median_setup(|| {
        n += 1;
        setup(sizes, seed, &n.to_string())
    })?;
    ctx.metrics.set("setup_s", setup_s);
    let refs = pool_refs(&mix)?;
    check_sessions(&mut ctx.outcome, &mix, &refs, &warmed);

    if ctx.args.trace {
        let batch = sizes.daemon_batch;
        let (plain, untraced) = closed_loop(&daemon, &mix, 0, batch, None)?;
        let (traced_done, traced) = closed_loop(&daemon, &mix, batch, 2 * batch, None)?;
        daemon.shutdown()?;
        ctx.metrics
            .set("trace.overhead_ms", (traced - untraced) * 1e3);
        check_sessions(&mut ctx.outcome, &mix, &refs, &plain);
        check_sessions(&mut ctx.outcome, &mix, &refs, &traced_done);
        socket_metrics(ctx, &traced_done);

        // The solver layers on the pool problems themselves.
        let mut solutions = Vec::new();
        let mut migrations = 0;
        for (i, inst) in mix.pool.iter().enumerate() {
            ctx.tracer.set_request((2 * batch + i) as u64);
            let (s, m) = layers::clocked_solve(
                &mut ctx.tracer,
                &inst.problem(),
                &SolveOptions::default(),
                ROOT,
            )
            .map_err(|e| format!("{}: traced solve failed: {e}", inst.name))?;
            solutions.push(s);
            migrations += m;
        }
        let refs_of: Vec<&Solution> = solutions.iter().collect();
        layers::core_counters(&mut ctx.metrics, &refs_of, migrations);
        layers::retime_counters(&mut ctx.metrics, solutions.iter().map(|s| &s.trace.retime));
        let pairs: Vec<(&Instance, &Solution)> = mix.pool.iter().zip(&solutions).collect();
        layers::direct_probes(
            &mut ctx.tracer,
            &mut ctx.metrics,
            &mut ctx.outcome,
            &pairs,
            sizes.gap_queries,
            sizes.spec_cycles,
            seed,
        );
        chain::delta_probe(ctx)?;
        return service_probes(ctx, &mix, &refs);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.args.seconds);
    let (done, window_s) = closed_loop(&daemon, &mix, 0, usize::MAX, Some(deadline))?;
    let rss = daemon.peak_rss_mb();
    daemon.shutdown()?;
    let ended = check_sessions(&mut ctx.outcome, &mix, &refs, &done);

    let latency_ms: Vec<f64> = done
        .iter()
        .map(|d| (d.t_end - d.t0).as_secs_f64() * 1e3)
        .collect();
    let elapsed_us = |e: &Option<Ended>| e.as_ref().map_or(f64::NAN, |e| e.elapsed_us);
    let solver_ms: Vec<f64> = ended.iter().map(|e| elapsed_us(e) / 1e3).collect();
    let nsl: Vec<f64> = done
        .iter()
        .zip(&ended)
        .map(|(d, e)| e.as_ref().map_or(f64::NAN, |e| e.result.makespan) / mix.cp[d.spec.pool])
        .collect();
    // A round is one block of submits, whose make-up is fixed.  Every drawn submit
    // completes, so `done` holds submits 0, 1, 2, ... and only the last block can
    // be partial.
    let round_s: Vec<f64> = ended
        .chunks_exact(BLOCK)
        .map(|block| block.iter().map(elapsed_us).sum::<f64>() / 1e6)
        .collect();
    // Throughput block by block, so a short stall elsewhere on the host moves the
    // median less than it moves a whole-window rate.
    let block_rate: Vec<f64> = done
        .chunks_exact(BLOCK)
        .map(|block| {
            let first = block
                .iter()
                .map(|d| d.t0)
                .min()
                .expect("blocks are non-empty");
            let last = block
                .iter()
                .map(|d| d.t_end)
                .max()
                .expect("blocks are non-empty");
            BLOCK as f64 / (last - first).as_secs_f64()
        })
        .collect();
    let m = &mut ctx.metrics;
    m.set("solve_s", percentile(&round_s, 50.0));
    m.set("nsl_mean", mean(&nsl));
    m.set("resolve_ms_p50", percentile(&solver_ms, 50.0));
    m.set("resolve_ms_p90", percentile(&solver_ms, 90.0));
    m.set("latency_ms_p50", percentile(&latency_ms, 50.0));
    m.set("latency_ms_p99", percentile(&latency_ms, 99.0));
    m.set("sessions_per_s", percentile(&block_rate, 50.0));
    m.set("peak_rss_mb", rss);
    println!("# daemon-mixed: {} sessions in {window_s:.3} s", done.len());
    Ok(())
}
