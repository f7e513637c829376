//! `fdi client` — a retrying JSON-lines client for `fdi serve`.
//!
//! ```text
//! fdi client (--port N | --port-file FILE) [--retries N] [--retry-seed S]
//!            ping | stats | health | flight | shutdown
//! fdi client (--port N | --port-file FILE) [--retries N] [--retry-seed S]
//!            metrics [--metrics-text]
//! fdi client (--port N | --port-file FILE) [--retries N] [--retry-seed S]
//!            job <spec> [job-flags…] [--request-deadline-ms N]
//! ```
//!
//! `metrics` fetches the daemon's live metrics registry as one JSON line;
//! with `--metrics-text` the client asks for (and prints, unwrapped) the
//! Prometheus text exposition format instead, ready to pipe to a scrape
//! file. `flight` dumps the daemon's flight recorder — the last requests
//! with their `trace_id`s and outcomes, plus notable incidents.
//!
//! `job` sends one request using the `fdi batch` per-job flag grammar
//! (`-t`, `--policy`, `--validate`, …) and prints the server's one-line
//! JSON response verbatim on stdout. `--request-deadline-ms` sets the
//! *serve-layer* deadline (typed `timeout` rejection) — distinct from the
//! `--deadline-ms` job flag, which budgets the pipeline itself. The exit
//! code mirrors the response's `"ok"`.
//!
//! ## Retries
//!
//! With `--retries N`, transient failures — a refused connection (daemon
//! restarting) or a typed `overloaded` rejection — are retried up to `N`
//! times with seeded, jittered exponential backoff
//! ([`fdi_core::jittered_backoff`]; `--retry-seed` pins the jitter for
//! reproduction). An `overloaded` response's `retry_after_ms` is the
//! first-attempt backoff hint. Every resubmission is the *same request
//! bytes*, so a retry can never ask a different question than the original.
//! Non-transient failures (`bad-request`, `failed`, `timeout`, `draining`)
//! are never retried.
//!
//! When `--request-deadline-ms` is set it also caps the retry loop's wall
//! clock: a backoff sleep that would cross the deadline is not taken — the
//! client fails fast with a typed `timeout` error instead of oversleeping.
//!
//! ## Protocol version
//!
//! Responses must carry `"proto"` equal to the client's
//! [`crate::serve::PROTO_VERSION`]; anything else (including a pre-`proto`
//! daemon) is rejected with a typed `proto-mismatch` error rather than
//! misparsed.

use crate::opts::usage;
use crate::serve::PROTO_VERSION;
use fdi_core::jittered_backoff;
use fdi_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Ceiling for one backoff sleep; the exponential curve flattens here.
const BACKOFF_CAP_MS: u64 = 5_000;
/// Backoff hint when the failure carried none (connection refused).
const DEFAULT_HINT_MS: u64 = 100;

/// One attempt's outcome, as seen by the retry loop.
enum Attempt {
    /// A response arrived; print it verbatim. The flag is `"ok"`.
    Done(String, bool),
    /// Transient failure worth a retry, with a backoff hint in ms and a
    /// human reason (printed if retries run out).
    Transient(u64, String),
    /// Hard failure: report and stop, no retry.
    Fatal(String),
}

pub fn main(mut args: Vec<String>) -> ExitCode {
    let mut port: Option<u16> = None;
    let mut retries: u32 = 0;
    let mut retry_seed: u64 = std::process::id() as u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                let Some(p) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                port = Some(p);
                args.drain(i..=i + 1);
            }
            "--port-file" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(text) = std::fs::read_to_string(path) else {
                    eprintln!("fdi client: cannot read port file {path}");
                    return ExitCode::FAILURE;
                };
                let Ok(p) = text.trim().parse() else {
                    eprintln!("fdi client: malformed port file {path}");
                    return ExitCode::FAILURE;
                };
                port = Some(p);
                args.drain(i..=i + 1);
            }
            "--retries" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                retries = n;
                args.drain(i..=i + 1);
            }
            "--retry-seed" => {
                let Some(s) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                retry_seed = s;
                args.drain(i..=i + 1);
            }
            _ => i += 1,
        }
    }
    let Some(port) = port else {
        eprintln!("fdi client: need --port or --port-file");
        return ExitCode::FAILURE;
    };
    let mut deadline: Option<Duration> = None;
    let mut metrics_text = false;
    let request = match args.first().map(String::as_str) {
        Some(op @ ("ping" | "stats" | "health" | "flight" | "shutdown" | "metrics"))
            if args.len() == 1 =>
        {
            Json::obj([("op", Json::from(op))])
        }
        Some("metrics") if args.len() == 2 && args[1] == "--metrics-text" => {
            metrics_text = true;
            Json::obj([("op", "metrics".into()), ("format", "text".into())])
        }
        Some("job") => {
            let mut deadline_ms: Option<u64> = None;
            let mut rest: Vec<String> = args.split_off(1);
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == "--request-deadline-ms" {
                    let Some(ms) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                        return usage();
                    };
                    deadline_ms = Some(ms);
                    rest.drain(i..=i + 1);
                } else {
                    i += 1;
                }
            }
            let Some((spec, flags)) = rest.split_first() else {
                return usage();
            };
            deadline = deadline_ms.map(Duration::from_millis);
            let flags = flags.iter().map(|f| f.as_str().into()).collect();
            let mut fields = vec![
                ("op", Json::from("job")),
                ("spec", spec.as_str().into()),
                ("flags", Json::Arr(flags)),
            ];
            fields.extend(deadline_ms.map(|ms| ("deadline_ms", ms.into())));
            Json::obj(fields)
        }
        _ => return usage(),
    }
    .to_string();

    // The retry loop. `request` is built exactly once above — every attempt
    // writes the same bytes, so retries are provably identical resubmissions.
    let started = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        let (hint_ms, reason) = match try_once(port, &request) {
            Attempt::Done(response, ok) => {
                // --metrics-text: unwrap the exposition payload so stdout is
                // the scrapeable text itself, not a JSON envelope.
                let unwrapped = ok
                    .then(|| {
                        if !metrics_text {
                            return None;
                        }
                        json::parse(response.trim())
                            .ok()?
                            .get("text")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                    })
                    .flatten();
                match unwrapped {
                    Some(text) => print!("{text}"),
                    None => print!("{response}"),
                }
                return if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            Attempt::Fatal(message) => {
                eprintln!("fdi client: {message}");
                return ExitCode::FAILURE;
            }
            Attempt::Transient(hint_ms, reason) => (hint_ms, reason),
        };
        if attempt >= retries {
            eprintln!("fdi client: {reason} (after {attempt} retries)");
            return ExitCode::FAILURE;
        }
        let sleep = Duration::from_millis(jittered_backoff(
            retry_seed,
            attempt,
            hint_ms,
            BACKOFF_CAP_MS,
        ));
        // Deadline cap: never sleep past --request-deadline-ms. Failing fast
        // here beats waking up with no budget left to ask the question.
        if let Some(deadline) = deadline {
            if started.elapsed() + sleep >= deadline {
                eprintln!(
                    "fdi client: timeout: next backoff ({} ms) would cross the \
                     {} ms request deadline; giving up after {attempt} retries",
                    sleep.as_millis(),
                    deadline.as_millis()
                );
                return ExitCode::FAILURE;
            }
        }
        std::thread::sleep(sleep);
        attempt += 1;
    }
}

/// One connect–send–receive round trip.
fn try_once(port: u16, request: &str) -> Attempt {
    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(e) => {
            return Attempt::Transient(
                DEFAULT_HINT_MS,
                format!("cannot connect to 127.0.0.1:{port}: {e}"),
            )
        }
    };
    // One write of the whole line with Nagle off, as the daemon replies: a
    // separate newline segment would wait on the daemon's delayed ACK.
    let _ = stream.set_nodelay(true);
    if stream.write_all(format!("{request}\n").as_bytes()).is_err() {
        return Attempt::Transient(DEFAULT_HINT_MS, "connection lost while sending".to_string());
    }
    let mut response = String::new();
    match BufReader::new(&stream).read_line(&mut response) {
        Ok(n) if n > 0 => {}
        _ => {
            return Attempt::Transient(
                DEFAULT_HINT_MS,
                "server closed the connection without replying".to_string(),
            )
        }
    }
    let Ok(doc) = json::parse(response.trim()) else {
        return Attempt::Fatal(format!(
            "proto-mismatch: unparseable response: {}",
            response.trim()
        ));
    };
    // Version gate before any field is trusted: a daemon speaking another
    // protocol gets a typed rejection, not a misreading.
    match doc.get("proto").map(|p| p.as_num()) {
        Some(Some(v)) if v == PROTO_VERSION as f64 => {}
        got => {
            return Attempt::Fatal(format!(
                "proto-mismatch: client speaks proto {PROTO_VERSION}, server sent {}",
                match got {
                    Some(Some(v)) => format!("proto {v}"),
                    _ => "no proto field".to_string(),
                }
            ))
        }
    }
    if doc.get("ok") == Some(&Json::Bool(true)) {
        return Attempt::Done(response, true);
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some("overloaded") => {
            let hint = match doc.get("retry_after_ms").map(|h| h.as_num()) {
                Some(Some(ms)) if ms >= 0.0 => ms as u64,
                _ => DEFAULT_HINT_MS,
            };
            Attempt::Transient(hint, "server overloaded".to_string())
        }
        _ => Attempt::Done(response, false),
    }
}
