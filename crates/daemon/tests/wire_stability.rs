//! Wire-stability tests: the protocol's JSON encodings are a compatibility surface.
//!
//! Every test round-trips a solver type through its codec **and** pins the encoded
//! bytes against a golden string.  A failing golden here means a wire-visible field
//! was renamed, reordered, or retyped — that is a protocol version bump, not a
//! refactor.  (The encoder writes object fields in insertion order and renders
//! integral numbers without a fraction, so the goldens are byte-exact.)

use bsa::network::{LinkId, ProcId, RoutePolicy};
use bsa::schedule::{ProblemDelta, Provenance, SolveError, SolveEvent, StopReason};
use bsa::taskgraph::{EdgeId, TaskId};
use bsa_daemon::json;
use bsa_daemon::wire;
use std::time::Duration;

fn golden_event(event: SolveEvent, golden: &str) {
    let encoded = wire::encode_event(&event);
    assert_eq!(encoded.to_json(), golden, "golden mismatch for {event:?}");
    let decoded = wire::decode_event(&json::parse(golden).unwrap()).unwrap();
    assert_eq!(
        wire::encode_event(&decoded).to_json(),
        golden,
        "decode/encode must be a fixed point"
    );
}

#[test]
fn solve_events_are_wire_stable() {
    golden_event(
        SolveEvent::Serialized { length: 120.0 },
        r#"{"event":"serialized","length":120}"#,
    );
    golden_event(
        SolveEvent::PivotStarted {
            pivot: ProcId(2),
            sweep: 3,
        },
        r#"{"event":"pivot_started","pivot":2,"sweep":3}"#,
    );
    golden_event(
        SolveEvent::MigrationAccepted {
            task: TaskId(7),
            from: ProcId(1),
            to: ProcId(0),
            incumbent: 98.5,
        },
        r#"{"event":"migration_accepted","task":7,"from":1,"to":0,"incumbent":98.5}"#,
    );
    golden_event(
        SolveEvent::IncumbentImproved { length: 96.25 },
        r#"{"event":"incumbent_improved","length":96.25}"#,
    );
    golden_event(
        SolveEvent::TaskPlaced {
            task: TaskId(4),
            proc: ProcId(2),
            finish: 57.5,
        },
        r#"{"event":"task_placed","task":4,"proc":2,"finish":57.5}"#,
    );
    golden_event(
        SolveEvent::ConfigFinished {
            config: 1,
            length: Some(101.0),
            stop: StopReason::Converged,
        },
        r#"{"event":"config_finished","config":1,"length":101,"stop":"converged"}"#,
    );
    golden_event(
        SolveEvent::ConfigFinished {
            config: 0,
            length: None,
            stop: StopReason::Cancelled,
        },
        r#"{"event":"config_finished","config":0,"length":null,"stop":"cancelled"}"#,
    );
}

#[test]
fn provenance_is_wire_stable() {
    let p = Provenance {
        solver: "bsa".to_string(),
        config: "pivot=critical".to_string(),
        elapsed: Duration::from_micros(1_250),
        stop: StopReason::DeadlineExpired,
        seed: Some(42),
        route_policy: RoutePolicy::MinTransferTime,
        threads: 4,
        warm_start: true,
        delta: Some("2 ops".to_string()),
    };
    let golden = concat!(
        r#"{"solver":"bsa","config":"pivot=critical","elapsed_us":1250,"#,
        r#""stop":"deadline_expired","seed":42,"route_policy":"min_transfer_time","#,
        r#""threads":4,"warm_start":true,"delta":"2 ops"}"#
    );
    assert_eq!(wire::encode_provenance(&p).to_json(), golden);
    let decoded = wire::decode_provenance(&json::parse(golden).unwrap()).unwrap();
    assert_eq!(decoded, p, "provenance must round-trip exactly");

    // The optional fields' null spellings are pinned too.
    let bare = Provenance {
        seed: None,
        delta: None,
        warm_start: false,
        ..p
    };
    let bare_golden = concat!(
        r#"{"solver":"bsa","config":"pivot=critical","elapsed_us":1250,"#,
        r#""stop":"deadline_expired","seed":null,"route_policy":"min_transfer_time","#,
        r#""threads":4,"warm_start":false,"delta":null}"#
    );
    assert_eq!(wire::encode_provenance(&bare).to_json(), bare_golden);
    assert_eq!(
        wire::decode_provenance(&json::parse(bare_golden).unwrap()).unwrap(),
        bare
    );
}

#[test]
fn solve_errors_are_wire_stable() {
    let cases: Vec<(SolveError, &str)> = vec![
        (SolveError::EmptyGraph, r#"{"kind":"empty_graph"}"#),
        (
            SolveError::Mismatch {
                detail: "3 tasks, 2 exec rows".to_string(),
            },
            r#"{"kind":"mismatch","detail":"3 tasks, 2 exec rows"}"#,
        ),
        (
            SolveError::DisconnectedSystem {
                processors: 8,
                reachable: 5,
            },
            r#"{"kind":"disconnected_system","processors":8,"reachable":5}"#,
        ),
        (
            SolveError::BudgetExhaustedBeforeFeasible {
                stop: StopReason::Cancelled,
            },
            r#"{"kind":"budget_exhausted_before_feasible","stop":"cancelled"}"#,
        ),
        (
            SolveError::UnplacedTask { task: TaskId(9) },
            r#"{"kind":"unplaced_task","task":9}"#,
        ),
        (
            SolveError::MissingRoute { edge: EdgeId(3) },
            r#"{"kind":"missing_route","edge":3}"#,
        ),
        (
            SolveError::CyclicDecisions { context: "retime" },
            r#"{"kind":"cyclic_decisions","context":"retime"}"#,
        ),
        (
            SolveError::InvalidOptions {
                detail: "threads=0".to_string(),
            },
            r#"{"kind":"invalid_options","detail":"threads=0"}"#,
        ),
        (
            SolveError::Internal {
                detail: "oops".to_string(),
            },
            r#"{"kind":"internal","detail":"oops"}"#,
        ),
    ];
    for (error, golden) in cases {
        assert_eq!(
            wire::encode_solve_error(&error).to_json(),
            golden,
            "golden mismatch for {error:?}"
        );
        let decoded = wire::decode_solve_error(&json::parse(golden).unwrap()).unwrap();
        assert_eq!(
            wire::encode_solve_error(&decoded).to_json(),
            golden,
            "decode/encode must be a fixed point"
        );
    }
}

#[test]
fn deltas_are_wire_stable() {
    let mut delta = ProblemDelta::new();
    delta
        .add_task(
            "patch",
            12.5,
            vec![(TaskId(0), 3.0)],
            vec![(TaskId(2), 4.5)],
        )
        .remove_task(TaskId(5))
        .set_edge_weight(EdgeId(1), 9.0)
        .set_task_cost(TaskId(3), 40.0)
        .link_down(LinkId(2))
        .link_up(ProcId(0), ProcId(3), 1.5)
        .add_processor(vec![(ProcId(1), 2.0)], 1.25)
        .remove_processor(ProcId(4));
    let golden = concat!(
        r#"{"ops":["#,
        r#"{"op":"add_task","name":"patch","cost":12.5,"inputs":[[0,3]],"outputs":[[2,4.5]]},"#,
        r#"{"op":"remove_task","task":5},"#,
        r#"{"op":"set_edge_weight","edge":1,"cost":9},"#,
        r#"{"op":"set_task_cost","task":3,"cost":40},"#,
        r#"{"op":"link_down","link":2},"#,
        r#"{"op":"link_up","a":0,"b":3,"factor":1.5},"#,
        r#"{"op":"add_processor","links":[[1,2]],"speed":1.25},"#,
        r#"{"op":"remove_processor","proc":4}"#,
        r#"]}"#
    );
    assert_eq!(wire::encode_delta(&delta).to_json(), golden);
    let decoded = wire::decode_delta(&json::parse(golden).unwrap()).unwrap();
    assert_eq!(
        wire::encode_delta(&decoded).to_json(),
        golden,
        "decode/encode must be a fixed point"
    );
    assert_eq!(decoded.ops().len(), delta.ops().len());
}

#[test]
fn hostile_wire_input_is_an_error_not_a_panic() {
    // Shapes that would trip asserts in the underlying constructors if they were
    // forwarded unvalidated.
    let bad_problems = [
        // Ragged exec matrix.
        r#"{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"edges":[],"system":{"processors":2,"links":[[0,1,1]],"exec":[[1,1],[1]]}}"#,
        // Link factor zero.
        r#"{"tasks":[{"name":"a","cost":1}],"edges":[],"system":{"processors":2,"links":[[0,1,0]]}}"#,
        // Edge referencing a missing task.
        r#"{"tasks":[{"name":"a","cost":1}],"edges":[[0,7,1]],"system":{"processors":1,"links":[]}}"#,
        // Negative task cost.
        r#"{"tasks":[{"name":"a","cost":-3}],"edges":[],"system":{"processors":1,"links":[]}}"#,
        // Two million processors and no links: without the admission cap this decodes
        // (150 MB, for a system `Problem::new` rejects as disconnected).
        r#"{"tasks":[{"name":"a","cost":1}],"edges":[],"system":{"processors":2000000,"links":[]}}"#,
        // A processor count no memory could hold, declared in a few dozen bytes.
        r#"{"tasks":[{"name":"a","cost":1}],"edges":[],"system":{"processors":1000000000000,"links":[]}}"#,
    ];
    for text in bad_problems {
        let v = json::parse(text).unwrap();
        assert!(
            wire::decode_problem(&v).is_err(),
            "must reject, not panic: {text}"
        );
    }

    let bad_deltas = [
        r#"{"ops":[{"op":"warp_time"}]}"#,
        r#"{"ops":[{"op":"set_task_cost","task":1,"cost":-1}]}"#,
        r#"{"ops":[{"op":"link_up","a":0,"b":1,"factor":0}]}"#,
    ];
    for text in bad_deltas {
        let v = json::parse(text).unwrap();
        assert!(
            wire::decode_delta(&v).is_err(),
            "must reject, not panic: {text}"
        );
    }
}
