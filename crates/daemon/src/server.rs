//! The daemon front end: line-delimited JSON over a Unix socket or stdio.
//!
//! Each connection is one client.  The daemon greets with
//! `{"event":"hello","proto":1}`, then reads one request object per line and writes
//! one response line per request — except `attach`/`subscribe`, which first
//! acknowledge and then stream event lines (each stamped with `session` and `seq`)
//! until the terminating `end` record.  Commands are serviced strictly in order per
//! connection; concurrency comes from opening multiple connections, which the
//! engine's per-client fairness bound keeps honest.
//!
//! `--stdio` serves exactly one client on stdin/stdout — the same protocol, used by
//! the integration tests and the example client so they need no socket plumbing.
//!
//! A request line may hold at most [`MAX_REQUEST_BYTES`] bytes.  A longer one is
//! answered with a `request_too_large` error and skipped in cap-sized pieces, and the
//! connection keeps serving, so a client that streams bytes without a newline cannot
//! grow the daemon's memory past the cap.

use crate::engine::{AlgoChoice, Engine, StreamItem};
use crate::json::{self, obj, u, Value};
use crate::wire::{self, WireError};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Largest request line the daemon reads, newline excluded: 16 MiB.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Serves a single client over stdin/stdout, then shuts the engine down.
pub fn serve_stdio(engine: Arc<Engine>) -> io::Result<()> {
    let server = Server {
        engine,
        shutdown: AtomicBool::new(false),
    };
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut writer = stdout.lock();
    let explicit = server.serve_client(0, stdin.lock(), &mut writer)?;
    if !explicit {
        // EOF without a shutdown command: drain and join the workers anyway so the
        // process exits cleanly.
        server.engine.shutdown();
    }
    Ok(())
}

/// Binds `path` and serves clients until one of them issues `shutdown`.
pub fn serve_unix(engine: Arc<Engine>, path: &Path) -> io::Result<()> {
    // A stale socket file from a crashed predecessor would make bind fail; the bind
    // below still errors if another live daemon holds the path on a fresh file.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let server = Arc::new(Server {
        engine,
        shutdown: AtomicBool::new(false),
    });
    let next_client = AtomicU64::new(1);
    eprintln!("bsa-daemon: listening on {}", path.display());
    for stream in listener.incoming() {
        if server.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bsa-daemon: accept failed: {e}");
                continue;
            }
        };
        let client = next_client.fetch_add(1, Ordering::Relaxed);
        let srv = Arc::clone(&server);
        let poke_path = path.to_path_buf();
        std::thread::Builder::new()
            .name(format!("bsa-client-{client}"))
            .spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(r) => BufReader::new(r),
                    Err(e) => {
                        eprintln!("bsa-daemon: client {client}: {e}");
                        return;
                    }
                };
                let mut writer = stream;
                match srv.serve_client(client, reader, &mut writer) {
                    Ok(true) => {
                        srv.shutdown.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so the main thread can exit.
                        let _ = UnixStream::connect(&poke_path);
                    }
                    Ok(false) => {}
                    Err(e) => eprintln!("bsa-daemon: client {client}: {e}"),
                }
            })
            .expect("spawn client thread");
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

struct Server {
    engine: Arc<Engine>,
    shutdown: AtomicBool,
}

impl Server {
    /// Serves one client; returns whether the client issued `shutdown`.
    fn serve_client<R: BufRead, W: Write>(
        &self,
        client: u64,
        mut reader: R,
        writer: &mut W,
    ) -> io::Result<bool> {
        write_line(
            writer,
            &obj(vec![
                ("event", json::s("hello")),
                ("proto", u(wire::PROTOCOL_VERSION)),
            ]),
        )?;
        while let Some(request) = read_request(&mut reader)? {
            let Request::Line(line) = request else {
                let body = obj(vec![
                    ("kind", json::s("request_too_large")),
                    ("limit", u(MAX_REQUEST_BYTES as u64)),
                ]);
                write_line(writer, &fail_with(body))?;
                continue;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if self.handle_line(client, trimmed, writer)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Handles one request line; returns whether it was a `shutdown`.
    fn handle_line<W: Write>(&self, client: u64, line: &str, out: &mut W) -> io::Result<bool> {
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                let detail = format!("{} at byte {}", e.message, e.at);
                return write_line(out, &fail("bad_json", Some(detail))).map(|()| false);
            }
        };
        if let Some(v) = req.get("v") {
            if v.as_u64() != Some(wire::PROTOCOL_VERSION) {
                let body = obj(vec![
                    ("kind", json::s("unsupported_version")),
                    ("supported", u(wire::PROTOCOL_VERSION)),
                ]);
                return write_line(out, &fail_with(body)).map(|()| false);
            }
        }
        let cmd = match req.get("cmd").and_then(Value::as_str) {
            Some(c) => c,
            None => {
                return write_line(out, &fail("bad_request", Some("missing \"cmd\"".into())))
                    .map(|()| false)
            }
        };
        match cmd {
            "submit" => self.cmd_submit(client, &req, out).map(|()| false),
            "attach" => self.cmd_stream(&req, out, false).map(|()| false),
            "subscribe" => self.cmd_stream(&req, out, true).map(|()| false),
            "cancel" => self.cmd_cancel(&req, out).map(|()| false),
            "delta" => self.cmd_delta(client, &req, out).map(|()| false),
            "release" => self.cmd_release(&req, out).map(|()| false),
            "list" => write_line(out, &ok(vec![("sessions", self.engine.list())])).map(|()| false),
            "status" => {
                write_line(out, &ok(vec![("status", self.engine.status())])).map(|()| false)
            }
            "shutdown" => {
                let summary = self.engine.shutdown();
                write_line(out, &ok(vec![("summary", summary)]))?;
                Ok(true)
            }
            other => write_line(out, &fail("unknown_command", Some(format!("\"{other}\""))))
                .map(|()| false),
        }
    }

    fn cmd_submit<W: Write>(&self, client: u64, req: &Value, out: &mut W) -> io::Result<()> {
        let decoded = (|| -> Result<_, WireError> {
            let problem = req
                .get("problem")
                .ok_or_else(|| WireError("submit: missing \"problem\"".into()))?;
            let (graph, system) = wire::decode_problem(problem)?;
            let options = match req.get("options") {
                Some(o) => wire::decode_options(o)?,
                None => Default::default(),
            };
            let algo = match req.get("algo") {
                Some(a) => {
                    let label = a
                        .as_str()
                        .ok_or_else(|| WireError("submit: \"algo\" must be a string".into()))?;
                    AlgoChoice::parse(label)
                        .ok_or_else(|| WireError(format!("submit: unknown algo \"{label}\"")))?
                }
                None => AlgoChoice::Single(bsa::algorithms::Algo::Bsa),
            };
            Ok((graph, system, options, algo))
        })();
        let (graph, system, options, algo) = match decoded {
            Ok(d) => d,
            Err(WireError(detail)) => return write_line(out, &fail("bad_request", Some(detail))),
        };
        match self.engine.submit(client, graph, system, options, algo) {
            Ok(info) => write_line(
                out,
                &ok(vec![
                    ("session", u(info.session)),
                    (
                        "cache",
                        cache_fields(info.problem_cached, info.routing_cached),
                    ),
                ]),
            ),
            Err(rejection) => write_line(out, &fail_with(rejection.error_body())),
        }
    }

    fn cmd_delta<W: Write>(&self, client: u64, req: &Value, out: &mut W) -> io::Result<()> {
        let decoded = (|| -> Result<_, WireError> {
            let base = req
                .get("session")
                .and_then(Value::as_u64)
                .ok_or_else(|| WireError("delta: missing integer \"session\"".into()))?;
            let delta = wire::decode_delta(
                req.get("delta")
                    .ok_or_else(|| WireError("delta: missing \"delta\"".into()))?,
            )?;
            let options = match req.get("options") {
                Some(o) => wire::decode_options(o)?,
                None => Default::default(),
            };
            Ok((base, delta, options))
        })();
        let (base, delta, options) = match decoded {
            Ok(d) => d,
            Err(WireError(detail)) => return write_line(out, &fail("bad_request", Some(detail))),
        };
        match self.engine.delta(client, base, delta, options) {
            Ok(info) => write_line(
                out,
                &ok(vec![("session", u(info.session)), ("base", u(base))]),
            ),
            Err(rejection) => write_line(out, &fail_with(rejection.error_body())),
        }
    }

    /// `attach` replays from event 0; `subscribe` starts at the current tail.
    fn cmd_stream<W: Write>(&self, req: &Value, out: &mut W, tail: bool) -> io::Result<()> {
        let id = match req.get("session").and_then(Value::as_u64) {
            Some(id) => id,
            None => {
                return write_line(
                    out,
                    &fail("bad_request", Some("missing integer \"session\"".into())),
                )
            }
        };
        let session = match self.engine.find_session(id) {
            Ok(s) => s,
            Err(rejection) => return write_line(out, &fail_with(rejection.error_body())),
        };
        let mut from = if tail {
            self.engine.event_count(&session)
        } else {
            0
        };
        write_line(
            out,
            &ok(vec![
                ("session", u(id)),
                ("streaming", Value::Bool(true)),
                ("from", u(from as u64)),
            ]),
        )?;
        loop {
            match self.engine.next_stream_item(&session, from) {
                StreamItem::Event { seq, payload } => {
                    write_line(out, &with_stream_header(id, seq as u64, &payload))?;
                    from = seq + 1;
                }
                StreamItem::End { payload } => {
                    return write_line(out, &payload);
                }
            }
        }
    }

    fn cmd_cancel<W: Write>(&self, req: &Value, out: &mut W) -> io::Result<()> {
        self.session_command(req, out, |engine, id| engine.cancel(id))
    }

    fn cmd_release<W: Write>(&self, req: &Value, out: &mut W) -> io::Result<()> {
        self.session_command(req, out, |engine, id| engine.release(id))
    }

    fn session_command<W: Write>(
        &self,
        req: &Value,
        out: &mut W,
        action: impl FnOnce(&Engine, u64) -> Result<(), crate::engine::Rejection>,
    ) -> io::Result<()> {
        let id = match req.get("session").and_then(Value::as_u64) {
            Some(id) => id,
            None => {
                return write_line(
                    out,
                    &fail("bad_request", Some("missing integer \"session\"".into())),
                )
            }
        };
        match action(&self.engine, id) {
            Ok(()) => write_line(out, &ok(vec![("session", u(id))])),
            Err(rejection) => write_line(out, &fail_with(rejection.error_body())),
        }
    }
}

/// One request line, read under [`MAX_REQUEST_BYTES`].
enum Request {
    /// The line, without its newline.
    Line(String),
    /// The line was longer than the cap; its bytes were discarded.
    TooLarge,
}

/// Reads the next request line, or `None` at end of input.  A line over
/// [`MAX_REQUEST_BYTES`] is consumed to its newline (or to end of input), never holding
/// more than the cap in memory.  Like [`BufRead::lines`], a line that is not UTF-8 is
/// an `InvalidData` error.
fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    let mut line = Vec::new();
    if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_REQUEST_BYTES {
        // Discard the rest of the line, one cap-sized piece at a time.
        while line.last() != Some(&b'\n') {
            line.clear();
            if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
                break;
            }
        }
        return Ok(Some(Request::TooLarge));
    }
    String::from_utf8(line)
        .map(|line| Some(Request::Line(line)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------------------
// Response shaping
// ---------------------------------------------------------------------------------

fn write_line<W: Write>(out: &mut W, v: &Value) -> io::Result<()> {
    out.write_all(v.to_json().as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

fn ok(fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("ok", Value::Bool(true))];
    all.extend(fields);
    obj(all)
}

fn fail_with(error: Value) -> Value {
    obj(vec![("ok", Value::Bool(false)), ("error", error)])
}

fn fail(kind: &str, detail: Option<String>) -> Value {
    let mut fields = vec![("kind", json::s(kind))];
    if let Some(d) = detail {
        fields.push(("detail", json::s(d)));
    }
    fail_with(obj(fields))
}

fn cache_fields(problem_hit: bool, routing_hit: bool) -> Value {
    let label = |hit: bool| json::s(if hit { "hit" } else { "miss" });
    obj(vec![
        ("problem", label(problem_hit)),
        ("routing", label(routing_hit)),
    ])
}

/// Stamps a streamed event with its session and sequence number.
fn with_stream_header(session: u64, seq: u64, payload: &Value) -> Value {
    let mut fields = vec![
        ("session".to_string(), u(session)),
        ("seq".to_string(), u(seq)),
    ];
    if let Value::Obj(event_fields) = payload {
        fields.extend(event_fields.clone());
    }
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn run_lines(lines: &[&str]) -> Vec<Value> {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let input = lines.join("\n");
        let mut out = Vec::new();
        let server = Server {
            engine,
            shutdown: AtomicBool::new(false),
        };
        server
            .serve_client(0, BufReader::new(input.as_bytes()), &mut out)
            .unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| json::parse(l).unwrap())
            .collect()
    }

    const TINY: &str = r#"{"tasks":[{"name":"a","cost":4},{"name":"b","cost":4}],"edges":[[0,1,1]],"system":{"processors":2,"links":[[0,1,1]]}}"#;

    #[test]
    fn submit_attach_and_shutdown_over_stdio_pipe() {
        let submit = format!(r#"{{"cmd":"submit","problem":{TINY},"algo":"bsa"}}"#);
        let replies = run_lines(&[
            &submit,
            r#"{"cmd":"attach","session":1}"#,
            r#"{"cmd":"status"}"#,
            r#"{"cmd":"shutdown"}"#,
        ]);
        assert_eq!(replies[0].get("event").unwrap().as_str(), Some("hello"));
        assert_eq!(replies[1].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(replies[1].get("session").unwrap().as_u64(), Some(1));
        // The attach ack, then streamed events, then the end record.
        assert_eq!(replies[2].get("streaming").unwrap().as_bool(), Some(true));
        let end = replies
            .iter()
            .find(|r| r.get("event").and_then(Value::as_str) == Some("end"))
            .expect("stream must terminate with an end record");
        assert_eq!(end.get("ok").unwrap().as_bool(), Some(true));
        assert!(end.get("result").unwrap().get("schedule_length").is_some());
        let last = replies.last().unwrap();
        assert!(last.get("summary").is_some());
    }

    #[test]
    fn malformed_and_unknown_requests_get_structured_errors() {
        let replies = run_lines(&[
            "{not json",
            r#"{"cmd":"explode"}"#,
            r#"{"v":99,"cmd":"status"}"#,
            r#"{"cmd":"attach","session":42}"#,
            r#"{"cmd":"shutdown"}"#,
        ]);
        let kind = |r: &Value| {
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str)
                .map(str::to_owned)
        };
        assert_eq!(kind(&replies[1]).as_deref(), Some("bad_json"));
        assert_eq!(kind(&replies[2]).as_deref(), Some("unknown_command"));
        assert_eq!(kind(&replies[3]).as_deref(), Some("unsupported_version"));
        assert_eq!(kind(&replies[4]).as_deref(), Some("unknown_session"));
    }

    #[test]
    fn an_oversize_request_is_rejected_and_the_connection_keeps_serving() {
        let oversize = "x".repeat(MAX_REQUEST_BYTES + 1);
        let at_cap = "x".repeat(MAX_REQUEST_BYTES);
        let replies = run_lines(&[
            &oversize,
            r#"{"cmd":"status"}"#,
            &at_cap,
            r#"{"cmd":"shutdown"}"#,
        ]);
        let error = replies[1].get("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(Value::as_str),
            Some("request_too_large")
        );
        assert_eq!(
            error.get("limit").and_then(Value::as_u64),
            Some(MAX_REQUEST_BYTES as u64)
        );
        assert_eq!(replies[2].get("ok").unwrap().as_bool(), Some(true));
        assert!(replies[2].get("status").is_some());
        // A line at the cap is read and parsed as before.
        let error = replies[3].get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("bad_json"));
        assert!(replies[4].get("summary").is_some());
        assert_eq!(replies.len(), 5);
    }

    #[test]
    fn an_oversize_line_without_a_newline_is_discarded_up_to_end_of_input() {
        let mut input = "x".repeat(MAX_REQUEST_BYTES + 1).into_bytes();
        input.extend_from_slice(b"\n{\"cmd\":\"status\"}\n");
        // The last line spans three cap-sized pieces and ends at end of input.
        input.resize(input.len() + 2 * MAX_REQUEST_BYTES + 3, b'y');
        let mut reader = BufReader::new(input.as_slice());
        let mut next = || read_request(&mut reader).unwrap();
        assert!(matches!(next(), Some(Request::TooLarge)));
        assert!(matches!(next(), Some(Request::Line(l)) if l == r#"{"cmd":"status"}"#));
        assert!(matches!(next(), Some(Request::TooLarge)));
        assert!(next().is_none());
    }
}
