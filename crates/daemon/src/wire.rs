//! Protocol v1: JSON encodings of the solver-session types.
//!
//! One JSON object per line in both directions.  This module owns the mapping between
//! the in-memory types ([`SolveEvent`], [`Provenance`], [`SolveError`], [`ProblemDelta`],
//! problem instances, solutions) and their wire shapes; field names and enum labels are
//! pinned by the golden-string tests in `tests/wire_stability.rs` — changing any of
//! them is a protocol break and requires bumping [`PROTOCOL_VERSION`].
//!
//! Decoders never panic on hostile input: every shape and range that the underlying
//! constructors `assert!` on (ragged cost matrices, negative factors, out-of-range
//! ids) is checked here first and surfaced as a [`WireError`].

use crate::json::{self, obj, u, Value};
use crate::server::MAX_REQUEST_BYTES;
use bsa::network::{
    CommCostModel, ExecutionCostMatrix, HeterogeneousSystem, LinkId, LinkMode, ProcId, RoutePolicy,
    Topology,
};
use bsa::schedule::{
    DeltaOp, ProblemDelta, Provenance, ResolveError, Solution, SolveError, SolveEvent,
    SolveOptions, StopReason,
};
use bsa::taskgraph::{EdgeId, TaskGraph, TaskGraphBuilder, TaskId};
use std::fmt;
use std::time::Duration;

/// The protocol generation every message of this build speaks.  Requests may carry a
/// `"v"` field; a mismatch is rejected with the `unsupported_version` error kind so
/// old clients fail loudly instead of misparsing.
pub const PROTOCOL_VERSION: u64 = 1;

/// A message that could not be decoded: malformed JSON shape, unknown label, or a
/// value outside the domain the constructors accept.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(detail: impl Into<String>) -> WireError {
    WireError(detail.into())
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, WireError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn num_field(v: &Value, key: &str) -> Result<f64, WireError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("field {key:?} must be a number")))
}

fn uint_field(v: &Value, key: &str) -> Result<u64, WireError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer")))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, WireError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn index_field(v: &Value, key: &str) -> Result<usize, WireError> {
    Ok(uint_field(v, key)? as usize)
}

/// A bounds-checked `u32` index — the width of the workspace's id types
/// (`TaskId`, `ProcId`, `EdgeId`, `LinkId`).
fn id_field(v: &Value, key: &str) -> Result<u32, WireError> {
    u32::try_from(uint_field(v, key)?)
        .map_err(|_| bad(format!("field {key:?} exceeds the 32-bit id range")))
}

fn finite_cost(what: &str, v: f64) -> Result<f64, WireError> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(bad(format!(
            "{what} must be finite and non-negative, got {v}"
        )))
    }
}

fn finite_positive(what: &str, v: f64) -> Result<f64, WireError> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(bad(format!("{what} must be finite and positive, got {v}")))
    }
}

// ---------------------------------------------------------------------------------
// StopReason
// ---------------------------------------------------------------------------------

/// Encodes a stop reason as its stable `snake_case` label.
pub fn encode_stop(stop: StopReason) -> Value {
    json::s(stop.label())
}

/// Decodes a stop-reason label.
pub fn decode_stop(v: &Value) -> Result<StopReason, WireError> {
    let label = v
        .as_str()
        .ok_or_else(|| bad("stop reason must be a string"))?;
    match label {
        "converged" => Ok(StopReason::Converged),
        "deadline_expired" => Ok(StopReason::DeadlineExpired),
        "migration_budget_exhausted" => Ok(StopReason::MigrationBudgetExhausted),
        "cancelled" => Ok(StopReason::Cancelled),
        "observer_stopped" => Ok(StopReason::ObserverStopped),
        other => Err(bad(format!("unknown stop reason {other:?}"))),
    }
}

fn decode_route_policy(label: &str) -> Result<RoutePolicy, WireError> {
    match label {
        "shortest_hop" => Ok(RoutePolicy::ShortestHop),
        "min_transfer_time" => Ok(RoutePolicy::MinTransferTime),
        "ecube" => Ok(RoutePolicy::ECube),
        other => Err(bad(format!("unknown route policy {other:?}"))),
    }
}

// ---------------------------------------------------------------------------------
// SolveEvent
// ---------------------------------------------------------------------------------

/// Encodes one solve event.  The `"event"` discriminant comes first so event lines are
/// recognisable by prefix.
pub fn encode_event(event: &SolveEvent) -> Value {
    match event {
        SolveEvent::Serialized { length } => obj(vec![
            ("event", json::s("serialized")),
            ("length", json::n(*length)),
        ]),
        SolveEvent::PivotStarted { pivot, sweep } => obj(vec![
            ("event", json::s("pivot_started")),
            ("pivot", u(pivot.0 as u64)),
            ("sweep", u(*sweep as u64)),
        ]),
        SolveEvent::MigrationAccepted {
            task,
            from,
            to,
            incumbent,
        } => obj(vec![
            ("event", json::s("migration_accepted")),
            ("task", u(task.0 as u64)),
            ("from", u(from.0 as u64)),
            ("to", u(to.0 as u64)),
            ("incumbent", json::n(*incumbent)),
        ]),
        SolveEvent::IncumbentImproved { length } => obj(vec![
            ("event", json::s("incumbent_improved")),
            ("length", json::n(*length)),
        ]),
        SolveEvent::TaskPlaced { task, proc, finish } => obj(vec![
            ("event", json::s("task_placed")),
            ("task", u(task.0 as u64)),
            ("proc", u(proc.0 as u64)),
            ("finish", json::n(*finish)),
        ]),
        SolveEvent::ConfigFinished {
            config,
            length,
            stop,
        } => obj(vec![
            ("event", json::s("config_finished")),
            ("config", u(*config as u64)),
            ("length", length.map_or(Value::Null, json::n)),
            ("stop", encode_stop(*stop)),
        ]),
        // `SolveEvent` is non_exhaustive: a variant added upstream without a wire
        // mapping is surfaced as an explicitly-unknown event rather than silently
        // dropped or a daemon panic.
        other => obj(vec![
            ("event", json::s("unknown")),
            ("debug", json::s(format!("{other:?}"))),
        ]),
    }
}

/// Decodes one solve event.
pub fn decode_event(v: &Value) -> Result<SolveEvent, WireError> {
    match str_field(v, "event")? {
        "serialized" => Ok(SolveEvent::Serialized {
            length: num_field(v, "length")?,
        }),
        "pivot_started" => Ok(SolveEvent::PivotStarted {
            pivot: ProcId(id_field(v, "pivot")?),
            sweep: index_field(v, "sweep")?,
        }),
        "migration_accepted" => Ok(SolveEvent::MigrationAccepted {
            task: TaskId(id_field(v, "task")?),
            from: ProcId(id_field(v, "from")?),
            to: ProcId(id_field(v, "to")?),
            incumbent: num_field(v, "incumbent")?,
        }),
        "incumbent_improved" => Ok(SolveEvent::IncumbentImproved {
            length: num_field(v, "length")?,
        }),
        "task_placed" => Ok(SolveEvent::TaskPlaced {
            task: TaskId(id_field(v, "task")?),
            proc: ProcId(id_field(v, "proc")?),
            finish: num_field(v, "finish")?,
        }),
        "config_finished" => Ok(SolveEvent::ConfigFinished {
            config: index_field(v, "config")?,
            length: match field(v, "length")? {
                Value::Null => None,
                other => Some(
                    other
                        .as_f64()
                        .ok_or_else(|| bad("field \"length\" must be a number or null"))?,
                ),
            },
            stop: decode_stop(field(v, "stop")?)?,
        }),
        other => Err(bad(format!("unknown event {other:?}"))),
    }
}

// ---------------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------------

/// Encodes provenance.  `elapsed` is carried as integer microseconds (`elapsed_us`)
/// so the value round-trips exactly.
pub fn encode_provenance(p: &Provenance) -> Value {
    obj(vec![
        ("solver", json::s(p.solver.clone())),
        ("config", json::s(p.config.clone())),
        (
            "elapsed_us",
            u(p.elapsed.as_micros().min(u64::MAX as u128) as u64),
        ),
        ("stop", encode_stop(p.stop)),
        ("seed", p.seed.map_or(Value::Null, u)),
        ("route_policy", json::s(p.route_policy.label())),
        ("threads", u(p.threads as u64)),
        ("warm_start", Value::Bool(p.warm_start)),
        ("delta", p.delta.clone().map_or(Value::Null, json::s)),
    ])
}

/// Decodes provenance.
pub fn decode_provenance(v: &Value) -> Result<Provenance, WireError> {
    Ok(Provenance {
        solver: str_field(v, "solver")?.to_string(),
        config: str_field(v, "config")?.to_string(),
        elapsed: Duration::from_micros(uint_field(v, "elapsed_us")?),
        stop: decode_stop(field(v, "stop")?)?,
        seed: match field(v, "seed")? {
            Value::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or_else(|| bad("field \"seed\" must be an integer or null"))?,
            ),
        },
        route_policy: decode_route_policy(str_field(v, "route_policy")?)?,
        threads: index_field(v, "threads")?,
        warm_start: field(v, "warm_start")?
            .as_bool()
            .ok_or_else(|| bad("field \"warm_start\" must be a boolean"))?,
        delta: match field(v, "delta")? {
            Value::Null => None,
            other => Some(
                other
                    .as_str()
                    .ok_or_else(|| bad("field \"delta\" must be a string or null"))?
                    .to_string(),
            ),
        },
    })
}

// ---------------------------------------------------------------------------------
// SolveError
// ---------------------------------------------------------------------------------

/// Encodes a solve error as a `{"kind": ..., ...}` object.
pub fn encode_solve_error(e: &SolveError) -> Value {
    match e {
        SolveError::EmptyGraph => obj(vec![("kind", json::s("empty_graph"))]),
        SolveError::Mismatch { detail } => obj(vec![
            ("kind", json::s("mismatch")),
            ("detail", json::s(detail.clone())),
        ]),
        SolveError::DisconnectedSystem {
            processors,
            reachable,
        } => obj(vec![
            ("kind", json::s("disconnected_system")),
            ("processors", u(*processors as u64)),
            ("reachable", u(*reachable as u64)),
        ]),
        SolveError::BudgetExhaustedBeforeFeasible { stop } => obj(vec![
            ("kind", json::s("budget_exhausted_before_feasible")),
            ("stop", encode_stop(*stop)),
        ]),
        SolveError::UnplacedTask { task } => obj(vec![
            ("kind", json::s("unplaced_task")),
            ("task", u(task.0 as u64)),
        ]),
        SolveError::MissingRoute { edge } => obj(vec![
            ("kind", json::s("missing_route")),
            ("edge", u(edge.0 as u64)),
        ]),
        SolveError::CyclicDecisions { context } => obj(vec![
            ("kind", json::s("cyclic_decisions")),
            ("context", json::s(*context)),
        ]),
        SolveError::InvalidOptions { detail } => obj(vec![
            ("kind", json::s("invalid_options")),
            ("detail", json::s(detail.clone())),
        ]),
        SolveError::Internal { detail } => obj(vec![
            ("kind", json::s("internal")),
            ("detail", json::s(detail.clone())),
        ]),
        other => obj(vec![
            ("kind", json::s("internal")),
            ("detail", json::s(format!("{other}"))),
        ]),
    }
}

/// Decodes a solve error.
///
/// `cyclic_decisions` carries a `&'static str` context in memory; the decoded string
/// is interned with `Box::leak`.  This is a rare error path (a handful of distinct
/// contexts per process lifetime), so the leak is bounded and deliberate.
pub fn decode_solve_error(v: &Value) -> Result<SolveError, WireError> {
    match str_field(v, "kind")? {
        "empty_graph" => Ok(SolveError::EmptyGraph),
        "mismatch" => Ok(SolveError::Mismatch {
            detail: str_field(v, "detail")?.to_string(),
        }),
        "disconnected_system" => Ok(SolveError::DisconnectedSystem {
            processors: index_field(v, "processors")?,
            reachable: index_field(v, "reachable")?,
        }),
        "budget_exhausted_before_feasible" => Ok(SolveError::BudgetExhaustedBeforeFeasible {
            stop: decode_stop(field(v, "stop")?)?,
        }),
        "unplaced_task" => Ok(SolveError::UnplacedTask {
            task: TaskId(id_field(v, "task")?),
        }),
        "missing_route" => Ok(SolveError::MissingRoute {
            edge: EdgeId(id_field(v, "edge")?),
        }),
        "cyclic_decisions" => Ok(SolveError::CyclicDecisions {
            context: Box::leak(str_field(v, "context")?.to_string().into_boxed_str()),
        }),
        "invalid_options" => Ok(SolveError::InvalidOptions {
            detail: str_field(v, "detail")?.to_string(),
        }),
        "internal" => Ok(SolveError::Internal {
            detail: str_field(v, "detail")?.to_string(),
        }),
        other => Err(bad(format!("unknown solve error kind {other:?}"))),
    }
}

/// Encodes a resolve failure: delta rejections get their own kind so clients can
/// distinguish "your delta is invalid" from "the repair failed".
pub fn encode_resolve_error(e: &ResolveError) -> Value {
    match e {
        ResolveError::Delta(d) => obj(vec![
            ("kind", json::s("invalid_delta")),
            ("detail", json::s(d.to_string())),
        ]),
        ResolveError::Solve(s) => encode_solve_error(s),
    }
}

// ---------------------------------------------------------------------------------
// ProblemDelta
// ---------------------------------------------------------------------------------

fn pairs_value(pairs: &[(TaskId, f64)]) -> Value {
    Value::Arr(
        pairs
            .iter()
            .map(|&(t, c)| Value::Arr(vec![u(t.0 as u64), json::n(c)]))
            .collect(),
    )
}

fn decode_task_pairs(v: &Value, key: &str) -> Result<Vec<(TaskId, f64)>, WireError> {
    let arr = field(v, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("field {key:?} must be an array")))?;
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad(format!("entries of {key:?} must be [task, cost] pairs")))?;
            let t = pair[0]
                .as_u64()
                .ok_or_else(|| bad("task id must be a non-negative integer"))?;
            let c = pair[1]
                .as_f64()
                .ok_or_else(|| bad("cost must be a number"))?;
            let t = u32::try_from(t).map_err(|_| bad("task id exceeds the 32-bit id range"))?;
            Ok((TaskId(t), finite_cost("edge cost", c)?))
        })
        .collect()
}

/// Encodes a delta as `{"ops": [...]}`.
pub fn encode_delta(delta: &ProblemDelta) -> Value {
    let ops = delta
        .ops()
        .iter()
        .map(|op| match op {
            DeltaOp::AddTask {
                name,
                nominal_cost,
                inputs,
                outputs,
            } => obj(vec![
                ("op", json::s("add_task")),
                ("name", json::s(name.clone())),
                ("cost", json::n(*nominal_cost)),
                ("inputs", pairs_value(inputs)),
                ("outputs", pairs_value(outputs)),
            ]),
            DeltaOp::RemoveTask { task } => obj(vec![
                ("op", json::s("remove_task")),
                ("task", u(task.0 as u64)),
            ]),
            DeltaOp::SetEdgeWeight { edge, nominal_cost } => obj(vec![
                ("op", json::s("set_edge_weight")),
                ("edge", u(edge.0 as u64)),
                ("cost", json::n(*nominal_cost)),
            ]),
            DeltaOp::SetTaskCost { task, nominal_cost } => obj(vec![
                ("op", json::s("set_task_cost")),
                ("task", u(task.0 as u64)),
                ("cost", json::n(*nominal_cost)),
            ]),
            DeltaOp::LinkDown { link } => obj(vec![
                ("op", json::s("link_down")),
                ("link", u(link.0 as u64)),
            ]),
            DeltaOp::LinkUp { a, b, factor } => obj(vec![
                ("op", json::s("link_up")),
                ("a", u(a.0 as u64)),
                ("b", u(b.0 as u64)),
                ("factor", json::n(*factor)),
            ]),
            DeltaOp::AddProcessor { links, speed } => obj(vec![
                ("op", json::s("add_processor")),
                (
                    "links",
                    Value::Arr(
                        links
                            .iter()
                            .map(|&(p, f)| Value::Arr(vec![u(p.0 as u64), json::n(f)]))
                            .collect(),
                    ),
                ),
                ("speed", json::n(*speed)),
            ]),
            DeltaOp::RemoveProcessor { proc } => obj(vec![
                ("op", json::s("remove_processor")),
                ("proc", u(proc.0 as u64)),
            ]),
        })
        .collect();
    obj(vec![("ops", Value::Arr(ops))])
}

/// Decodes a delta.  Costs/factors are range-checked here so a malformed delta is a
/// wire error, not a panic inside the delta machinery.
pub fn decode_delta(v: &Value) -> Result<ProblemDelta, WireError> {
    let ops = field(v, "ops")?
        .as_arr()
        .ok_or_else(|| bad("field \"ops\" must be an array"))?;
    let mut delta = ProblemDelta::new();
    for op in ops {
        match str_field(op, "op")? {
            "add_task" => {
                delta.add_task(
                    str_field(op, "name")?,
                    finite_cost("task cost", num_field(op, "cost")?)?,
                    decode_task_pairs(op, "inputs")?,
                    decode_task_pairs(op, "outputs")?,
                );
            }
            "remove_task" => {
                delta.remove_task(TaskId(id_field(op, "task")?));
            }
            "set_edge_weight" => {
                delta.set_edge_weight(
                    EdgeId(id_field(op, "edge")?),
                    finite_cost("edge cost", num_field(op, "cost")?)?,
                );
            }
            "set_task_cost" => {
                delta.set_task_cost(
                    TaskId(id_field(op, "task")?),
                    finite_cost("task cost", num_field(op, "cost")?)?,
                );
            }
            "link_down" => {
                delta.link_down(LinkId(id_field(op, "link")?));
            }
            "link_up" => {
                delta.link_up(
                    ProcId(id_field(op, "a")?),
                    ProcId(id_field(op, "b")?),
                    finite_positive("link factor", num_field(op, "factor")?)?,
                );
            }
            "add_processor" => {
                let links = field(op, "links")?
                    .as_arr()
                    .ok_or_else(|| bad("field \"links\" must be an array"))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            bad("entries of \"links\" must be [proc, factor] pairs")
                        })?;
                        let p = pair[0]
                            .as_u64()
                            .ok_or_else(|| bad("proc id must be a non-negative integer"))?;
                        let f = pair[1]
                            .as_f64()
                            .ok_or_else(|| bad("factor must be a number"))?;
                        let p = u32::try_from(p)
                            .map_err(|_| bad("processor id exceeds the 32-bit id range"))?;
                        Ok((ProcId(p), finite_positive("link factor", f)?))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                delta.add_processor(
                    links,
                    finite_positive("processor speed", num_field(op, "speed")?)?,
                );
            }
            "remove_processor" => {
                delta.remove_processor(ProcId(id_field(op, "proc")?));
            }
            other => return Err(bad(format!("unknown delta op {other:?}"))),
        }
    }
    Ok(delta)
}

// ---------------------------------------------------------------------------------
// Problem instances
// ---------------------------------------------------------------------------------

/// Decodes a problem description into an owned graph + system pair.
///
/// Shape:
/// ```json
/// {"tasks": [{"name": "a", "cost": 5}, ...],
///  "edges": [[src, dst, cost], ...],
///  "system": {"processors": 4,
///             "links": [[a, b, factor], ...],
///             "link_mode": "half_duplex",          // optional, default half_duplex
///             "exec": [[row per task], ...]}}      // optional, default homogeneous
/// ```
///
/// The pair is *well-formed* on return (every index in range, shapes consistent,
/// graph acyclic) but not yet problem-validated — run it through `Problem::new` (or
/// hit the daemon's artifact cache) before solving.
///
/// Counts are capped before anything is sized by them: more processors than
/// `links + 1` (no such system is connected), or a homogeneous default `exec` with
/// more than [`MAX_REQUEST_BYTES`] cells, is rejected without allocating.
pub fn decode_problem(v: &Value) -> Result<(TaskGraph, HeterogeneousSystem), WireError> {
    let tasks = field(v, "tasks")?
        .as_arr()
        .ok_or_else(|| bad("field \"tasks\" must be an array"))?;
    if tasks.is_empty() {
        return Err(bad("a problem needs at least one task"));
    }
    let mut gb = TaskGraphBuilder::with_capacity(tasks.len(), 0);
    for t in tasks {
        gb.add_task(
            str_field(t, "name")?,
            finite_cost("task cost", num_field(t, "cost")?)?,
        );
    }
    let edges = field(v, "edges")?
        .as_arr()
        .ok_or_else(|| bad("field \"edges\" must be an array"))?;
    for e in edges {
        let e = e
            .as_arr()
            .filter(|p| p.len() == 3)
            .ok_or_else(|| bad("entries of \"edges\" must be [src, dst, cost] triples"))?;
        let src = e[0]
            .as_u64()
            .ok_or_else(|| bad("edge src must be a non-negative integer"))?
            as usize;
        let dst = e[1]
            .as_u64()
            .ok_or_else(|| bad("edge dst must be a non-negative integer"))?
            as usize;
        let cost = finite_cost(
            "edge cost",
            e[2].as_f64()
                .ok_or_else(|| bad("edge cost must be a number"))?,
        )?;
        if src >= tasks.len() || dst >= tasks.len() {
            return Err(bad(format!(
                "edge [{src}, {dst}] references a missing task"
            )));
        }
        gb.add_edge(TaskId(src as u32), TaskId(dst as u32), cost)
            .map_err(|e| bad(format!("invalid edge: {e}")))?;
    }
    let graph = gb
        .build()
        .map_err(|e| bad(format!("invalid task graph: {e}")))?;

    let sys = field(v, "system")?;
    let processors = index_field(sys, "processors")?;
    if processors == 0 {
        return Err(bad("a system needs at least one processor"));
    }
    let links = field(sys, "links")?
        .as_arr()
        .ok_or_else(|| bad("field \"links\" must be an array"))?;
    // Admission caps, checked before anything is sized by the declared counts: a tiny
    // request must not make the daemon build millions of processors.  Fewer than
    // `processors − 1` links cannot connect the system (`Problem::new` rejects it
    // anyway), and a homogeneous default larger than any `exec` one request could
    // spell out is refused outright.
    if processors > links.len() + 1 {
        return Err(bad(format!(
            "{processors} processors cannot be connected by {} links",
            links.len()
        )));
    }
    let default_exec = matches!(sys.get("exec"), None | Some(Value::Null));
    if default_exec && graph.num_tasks().saturating_mul(processors) > MAX_REQUEST_BYTES {
        return Err(bad(format!(
            "a homogeneous exec matrix of {} tasks x {processors} processors exceeds \
             {MAX_REQUEST_BYTES} cells",
            graph.num_tasks()
        )));
    }
    let mut pairs = Vec::with_capacity(links.len());
    let mut factors = Vec::with_capacity(links.len());
    for l in links {
        let l = l
            .as_arr()
            .filter(|p| p.len() == 3)
            .ok_or_else(|| bad("entries of \"links\" must be [a, b, factor] triples"))?;
        let a = l[0]
            .as_u64()
            .ok_or_else(|| bad("link endpoint must be a non-negative integer"))?
            as usize;
        let b = l[1]
            .as_u64()
            .ok_or_else(|| bad("link endpoint must be a non-negative integer"))?
            as usize;
        let f = finite_positive(
            "link factor",
            l[2].as_f64()
                .ok_or_else(|| bad("link factor must be a number"))?,
        )?;
        if a >= processors || b >= processors {
            return Err(bad(format!(
                "link [{a}, {b}] references a missing processor"
            )));
        }
        pairs.push((a, b));
        factors.push(f);
    }
    let link_mode = match sys.get("link_mode") {
        None | Some(Value::Null) => LinkMode::HalfDuplex,
        Some(m) => match m.as_str() {
            Some("half_duplex") => LinkMode::HalfDuplex,
            Some("full_duplex") => LinkMode::FullDuplex,
            _ => return Err(bad("link_mode must be \"half_duplex\" or \"full_duplex\"")),
        },
    };
    let topology = Topology::new("wire", processors, &pairs)
        .map_err(|e| bad(format!("invalid topology: {e}")))?
        .with_link_mode(link_mode);

    let exec = match sys.get("exec") {
        None | Some(Value::Null) => ExecutionCostMatrix::homogeneous(&graph, processors),
        Some(rows) => {
            let rows = rows
                .as_arr()
                .ok_or_else(|| bad("field \"exec\" must be an array of rows"))?;
            if rows.len() != graph.num_tasks() {
                return Err(bad(format!(
                    "exec matrix has {} rows for {} tasks",
                    rows.len(),
                    graph.num_tasks()
                )));
            }
            let mut decoded = Vec::with_capacity(rows.len());
            for row in rows {
                let row = row
                    .as_arr()
                    .filter(|r| r.len() == processors)
                    .ok_or_else(|| {
                        bad(format!(
                            "every exec row must list {processors} processor costs"
                        ))
                    })?;
                decoded.push(
                    row.iter()
                        .map(|c| {
                            finite_cost(
                                "exec cost",
                                c.as_f64()
                                    .ok_or_else(|| bad("exec cost must be a number"))?,
                            )
                        })
                        .collect::<Result<Vec<f64>, WireError>>()?,
                );
            }
            ExecutionCostMatrix::from_rows(&decoded)
        }
    };
    let system = HeterogeneousSystem::new(topology, exec, CommCostModel::from_factors(factors));
    Ok((graph, system))
}

// ---------------------------------------------------------------------------------
// SolveOptions
// ---------------------------------------------------------------------------------

/// Decodes per-solve options.  All fields optional; cancellation and the routing
/// artifact are attached by the engine, never by the client.  Unknown keys are
/// ignored, among them the `threads` key older clients still send.
pub fn decode_options(v: &Value) -> Result<SolveOptions, WireError> {
    let mut options = SolveOptions::default();
    if let Some(ms) = v.get("deadline_ms") {
        if !ms.is_null() {
            options.deadline =
                Some(Duration::from_millis(ms.as_u64().ok_or_else(|| {
                    bad("deadline_ms must be a non-negative integer")
                })?));
        }
    }
    if let Some(m) = v.get("max_migrations") {
        if !m.is_null() {
            options.max_migrations = Some(
                m.as_u64()
                    .ok_or_else(|| bad("max_migrations must be a non-negative integer"))?,
            );
        }
    }
    if let Some(s) = v.get("seed") {
        if !s.is_null() {
            options.seed = Some(s.as_u64().ok_or_else(|| bad("seed must be an integer"))?);
        }
    }
    if let Some(p) = v.get("route_policy") {
        if !p.is_null() {
            options.route_policy = decode_route_policy(
                p.as_str()
                    .ok_or_else(|| bad("route_policy must be a string"))?,
            )?;
        }
    }
    Ok(options)
}

// ---------------------------------------------------------------------------------
// Solutions
// ---------------------------------------------------------------------------------

/// Encodes the result summary of a finished solve: length, stop, metrics subset,
/// provenance, and the full placement list (`[task, proc, start, finish]` rows in
/// task-id order).
pub fn encode_solution(solution: &Solution, graph: &TaskGraph) -> Value {
    let placements = graph
        .task_ids()
        .map(|t| {
            Value::Arr(vec![
                u(t.0 as u64),
                u(solution.schedule.proc_of(t).0 as u64),
                json::n(solution.schedule.start_of(t)),
                json::n(solution.schedule.finish_of(t)),
            ])
        })
        .collect();
    obj(vec![
        (
            "schedule_length",
            json::n(solution.schedule.schedule_length()),
        ),
        ("stop", encode_stop(solution.stop())),
        (
            "metrics",
            obj(vec![
                ("speedup", json::n(solution.metrics.speedup)),
                (
                    "processors_used",
                    u(solution.metrics.processors_used as u64),
                ),
                (
                    "total_communication_cost",
                    json::n(solution.metrics.total_communication_cost),
                ),
                (
                    "remote_messages",
                    u(solution.metrics.remote_messages as u64),
                ),
            ]),
        ),
        ("provenance", encode_provenance(&solution.provenance)),
        ("placements", Value::Arr(placements)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn events_round_trip() {
        let events = [
            SolveEvent::Serialized { length: 100.0 },
            SolveEvent::PivotStarted {
                pivot: ProcId(2),
                sweep: 1,
            },
            SolveEvent::MigrationAccepted {
                task: TaskId(3),
                from: ProcId(1),
                to: ProcId(0),
                incumbent: 90.5,
            },
            SolveEvent::IncumbentImproved { length: 80.0 },
            SolveEvent::TaskPlaced {
                task: TaskId(2),
                proc: ProcId(1),
                finish: 30.0,
            },
            SolveEvent::ConfigFinished {
                config: 0,
                length: None,
                stop: StopReason::Cancelled,
            },
        ];
        for e in &events {
            let wire = encode_event(e).to_json();
            let back = decode_event(&parse(&wire).unwrap()).unwrap();
            assert_eq!(&back, e, "{wire}");
        }
    }

    #[test]
    fn problems_decode_and_reject_bad_shapes() {
        let ok = parse(
            r#"{"tasks":[{"name":"a","cost":5},{"name":"b","cost":6}],
                "edges":[[0,1,2.5]],
                "system":{"processors":3,"links":[[0,1,1],[1,2,1],[0,2,2]]}}"#,
        )
        .unwrap();
        let (graph, system) = decode_problem(&ok).unwrap();
        assert_eq!(graph.num_tasks(), 2);
        assert_eq!(system.num_processors(), 3);
        assert!(bsa::schedule::Problem::new(&graph, &system).is_ok());

        for bad in [
            r#"{"tasks":[],"edges":[],"system":{"processors":1,"links":[]}}"#,
            r#"{"tasks":[{"name":"a","cost":5}],"edges":[[0,9,1]],
                "system":{"processors":1,"links":[]}}"#,
            r#"{"tasks":[{"name":"a","cost":-1}],"edges":[],
                "system":{"processors":1,"links":[]}}"#,
            r#"{"tasks":[{"name":"a","cost":1}],"edges":[],
                "system":{"processors":2,"links":[[0,1,1]],"exec":[[1]]}}"#,
        ] {
            let v = parse(bad).unwrap();
            assert!(decode_problem(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn problem_counts_are_capped_before_allocating() {
        // Two million declared processors and no links: rejected before a single
        // processor is built (it could never be connected anyway).
        let v = parse(
            r#"{"tasks":[{"name":"a","cost":1}],"edges":[],
                "system":{"processors":2000000,"links":[]}}"#,
        )
        .unwrap();
        let err = decode_problem(&v).unwrap_err();
        assert!(err.0.contains("cannot be connected"), "{}", err.0);

        // A connected path whose homogeneous default would hold more cells than any
        // request could spell out; the same tasks on a small system decode.
        let problem = |tasks: usize, processors: usize| {
            let tasks: Vec<String> = (0..tasks)
                .map(|i| format!(r#"{{"name":"t{i}","cost":1}}"#))
                .collect();
            let links: Vec<String> = (1..processors)
                .map(|p| format!("[{},{p},1]", p - 1))
                .collect();
            parse(&format!(
                r#"{{"tasks":[{}],"edges":[],"system":{{"processors":{processors},"links":[{}]}}}}"#,
                tasks.join(","),
                links.join(",")
            ))
            .unwrap()
        };
        let side = (MAX_REQUEST_BYTES as f64).sqrt() as usize + 1;
        let err = decode_problem(&problem(side, side)).unwrap_err();
        assert!(err.0.contains("exceeds"), "{}", err.0);
        let (graph, system) = decode_problem(&problem(side, 4)).unwrap();
        assert_eq!((graph.num_tasks(), system.num_processors()), (side, 4));
    }

    #[test]
    fn options_decode_defaults_and_overrides() {
        let d = decode_options(&parse("{}").unwrap()).unwrap();
        assert!(d.deadline.is_none() && d.max_migrations.is_none());

        let v = parse(
            r#"{"deadline_ms":250,"max_migrations":7,"seed":42,
                "route_policy":"min_transfer_time","threads":2}"#,
        )
        .unwrap();
        let o = decode_options(&v).unwrap();
        assert_eq!(o.deadline, Some(Duration::from_millis(250)));
        assert_eq!(o.max_migrations, Some(7));
        assert_eq!(o.seed, Some(42));
        assert_eq!(o.route_policy, RoutePolicy::MinTransferTime);
        // `threads` (a legacy key) is ignored, not rejected, so old clients still
        // decode — whatever its value.
        for legacy in [r#"{"threads":2}"#, r#"{"threads":"many"}"#] {
            let o = decode_options(&parse(legacy).unwrap()).unwrap();
            assert!(o.is_unlimited() && o.route_policy == RoutePolicy::default());
        }

        assert!(decode_options(&parse(r#"{"route_policy":"warp"}"#).unwrap()).is_err());
    }
}
