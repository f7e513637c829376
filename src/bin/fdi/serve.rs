//! `fdi serve` — a persistent, crash-tolerant optimization daemon.
//!
//! The daemon keeps one [`fdi_engine::Engine`] — worker pool, parse and
//! analysis caches, telemetry — hot across requests, and (with `--store DIR`)
//! fronts it with the engine's disk-backed artifact store, so finished
//! optimizations survive process death and are re-served byte-identically
//! after a crash or restart.
//!
//! ## Protocol
//!
//! JSON lines over TCP on `127.0.0.1` (one request object per line, one
//! response object per line, same order). The job request/response schema
//! mirrors the `fdi batch` manifest and report: a job is a source spec plus
//! the batch per-job flag grammar.
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"health"}
//! {"op":"metrics"}
//! {"op":"metrics","format":"text"}
//! {"op":"flight"}
//! {"op":"shutdown"}
//! {"op":"job","spec":"bench:fib@6","flags":["-t","200"],"deadline_ms":5000}
//! {"op":"job","source":"(let ((f (lambda (x) x))) (f 1))"}
//! ```
//!
//! Every response carries `"ok"`, `"proto"` (the wire-protocol version,
//! [`PROTO_VERSION`]) and `"trace_id"` — for job requests a deterministic
//! fingerprint of `(source, config)` shared with `fdi batch` and
//! `fdi explain --json`, for everything else a fingerprint of the request
//! line — so a client log line can be joined against the daemon's flight
//! recorder and Chrome traces. `health` is the operator probe: in-flight and
//! admission numbers, cache/store byte footprints against their configured
//! limits, memory-only degradation (with a typed `degraded_reason`),
//! telemetry overhead, flight-recorder occupancy, and uptime.
//!
//! ## Observability
//!
//! The daemon's engine always emits into its own
//! [`fdi_telemetry::MetricsRegistry`] (windowed counters, gauges, per-span
//! duration histograms) and into the daemon's
//! [`fdi_telemetry::FlightRecorder`] (bounded ring of the last requests plus
//! notable incidents). The daemon records its own request series into the
//! engine's registry, so `stats`, `health` and `metrics` are views of one
//! set of counts. `{"op":"metrics"}` returns the registry as JSON;
//! with `"format":"text"` the payload is the Prometheus text exposition
//! format instead (also `fdi client metrics --metrics-text`).
//! `{"op":"flight"}` dumps the recorder. With `--store DIR` the recorder
//! writes each finished request through to `DIR/flight/requests.jsonl` and
//! re-seeds from it on startup, so the last pre-kill requests are still
//! listed after a SIGKILL; on panic and on graceful drain the full recorder
//! state is additionally dumped to `DIR/flight/last_flight.json`.
//!
//! Failures are *typed* via `"kind"`:
//!
//! * `bad-request` — malformed JSON, unknown op, bad flags, unreadable spec;
//! * `overloaded` — the bounded admission gate is full; the response carries
//!   `retry_after_ms` and the request was **not** queued (backpressure is
//!   explicit, never an unbounded queue);
//! * `timeout` — the per-request deadline (request `deadline_ms`, else the
//!   server's `--deadline-ms`) passed before the job finished. The job keeps
//!   running and still fills the caches and the store — only the connection
//!   stops waiting, so a slow job can never hang a client;
//! * `draining` — a shutdown is in progress; no new work is admitted;
//! * `failed` — the job itself failed (frontend rejection, poisoned, …).
//!
//! Connections that stop sending mid-line are cut by a per-connection read
//! deadline (`--read-deadline-ms`), so a slowloris client holds a thread for
//! a bounded time, never forever. Store write failures never fail requests:
//! after [`fdi_engine`]'s degradation threshold the daemon answers
//! memory-only and re-probes the disk periodically (visible in `health`).
//!
//! Every line leaves in one write, and both ends set `TCP_NODELAY`: a
//! reply split into text and newline segments would wait on the peer's
//! delayed ACK (~40 ms) before its newline went out.
//!
//! Successful job responses include the optimized program text, so a warm
//! re-serve can be checked byte-for-byte against a cold run. `"cached":true`
//! marks answers served from the disk store without recomputation.
//!
//! ## Shutdown
//!
//! `{"op":"shutdown"}` is the graceful drain: admission closes, the daemon
//! waits for every in-flight job, dumps the flight recorder, replies with a
//! drain report, and exits. (Signal-based shutdown would need a libc
//! binding; the protocol-level op keeps the daemon dependency-free. A
//! SIGKILL instead of a drain is the crash path the store — and the flight
//! write-through — exist for; see `tests/serve.rs` and `tests/chaos.rs`.)

use crate::batch::{apply_job_flags, resolve_source};
use crate::opts::usage;
use crate::report::job_result;
use fdi_core::{FaultPlan, PipelineConfig, Telemetry};
use fdi_engine::{Engine, EngineConfig, Job};
use fdi_telemetry::json::{self, Json};
use fdi_telemetry::{FlightEntry, FlightRecorder};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire-protocol version. Bump on any response-schema change a deployed
/// client could misparse; clients refuse to talk across a mismatch.
/// (Additive fields — `trace_id`, the `metrics`/`flight` ops, the health
/// extensions — do not bump it: old clients ignore keys they don't read.)
pub const PROTO_VERSION: u64 = 1;

/// Requests the flight recorder remembers.
const FLIGHT_CAPACITY: usize = 64;

/// In-memory cache budget when `--cache-bytes` is not given. A daemon
/// meets new sources for as long as it runs, so unlike a batch run it is
/// never unbounded by default.
const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Shared daemon state, one per process.
struct Server {
    /// The engine; its metrics registry is the daemon's too.
    engine: Engine,
    /// The flight recorder's telemetry handle, shared with the engine (also
    /// the flight time base).
    telemetry: Telemetry,
    /// The last-requests ring, write-through-backed when a store is set.
    flight: Arc<FlightRecorder>,
    /// The store directory, for flight dumps (panic, drain).
    store_dir: Option<PathBuf>,
    /// Jobs admitted and not yet finished (including ones whose requester
    /// timed out — the work is still running and still holds its slot).
    inflight: AtomicUsize,
    /// Admission bound: requests beyond this many in-flight jobs are
    /// rejected with `overloaded`, never queued.
    max_inflight: usize,
    /// Set by `shutdown`; admission closes immediately.
    draining: AtomicBool,
    /// Default per-request deadline when the request names none.
    deadline: Duration,
    /// When the daemon came up (the `health` uptime gauge).
    started: Instant,
}

/// What the connection loop should do with a handled request.
enum Reply {
    /// Write the line and keep reading.
    Line(String),
    /// Write the line and exit the process (graceful drain done).
    Shutdown(String),
}

/// The envelope every reply shares — `ok`, `proto`, `trace_id` — then
/// `fields`, as one line of JSON.
fn envelope<'a>(
    ok: bool,
    trace: &str,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> String {
    let head = [
        ("ok", ok.into()),
        ("proto", PROTO_VERSION.into()),
        ("trace_id", trace.into()),
    ];
    Json::obj(head.into_iter().chain(fields)).to_string()
}

/// A successful reply: the envelope, `op`, then `fields`.
fn reply<'a>(op: &str, trace: &str, fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    envelope(true, trace, [("op", op.into())].into_iter().chain(fields))
}

/// A typed failure: the envelope, `kind`, any `fields` (a retry hint, the
/// deadline), then the `error` message.
fn err<const N: usize>(
    kind: &str,
    message: &str,
    trace: &str,
    fields: [(&str, Json); N],
) -> String {
    let kind = [("kind", kind.into())];
    let error = [("error", message.into())];
    envelope(false, trace, kind.into_iter().chain(fields).chain(error))
}

/// `fdi serve [--port N] [--port-file FILE] [--store DIR] [--jobs N]
/// [--max-inflight N] [--deadline-ms N] [--read-deadline-ms N]
/// [--cache-bytes N] [--store-bytes N] [--profile FILE]
/// [--engine-faults SEED]`.
///
/// `--cache-bytes` defaults to [`DEFAULT_CACHE_BYTES`] (64 MiB); the disk
/// store is unbounded unless `--store-bytes` is given.
pub fn main(args: Vec<String>) -> ExitCode {
    let mut port: u16 = 0;
    let mut port_file: Option<String> = None;
    let mut store: Option<std::path::PathBuf> = None;
    let mut profile_path: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut max_inflight: usize = 64;
    let mut deadline = Duration::from_millis(30_000);
    let mut read_deadline = Duration::from_millis(10_000);
    let mut cache_bytes = DEFAULT_CACHE_BYTES;
    let mut store_bytes: Option<u64> = None;
    let mut engine_faults = FaultPlan::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1);
        match args[i].as_str() {
            "--port" => match value(i).and_then(|s| s.parse().ok()) {
                Some(p) => port = p,
                None => return usage(),
            },
            "--port-file" => match value(i) {
                Some(f) => port_file = Some(f.clone()),
                None => return usage(),
            },
            "--store" => match value(i) {
                Some(d) => store = Some(std::path::PathBuf::from(d)),
                None => return usage(),
            },
            "--profile" => match value(i) {
                Some(f) => profile_path = Some(f.clone()),
                None => return usage(),
            },
            "--jobs" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => return usage(),
            },
            "--max-inflight" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) => max_inflight = n,
                None => return usage(),
            },
            "--deadline-ms" => match value(i).and_then(|s| s.parse().ok()) {
                Some(ms) => deadline = Duration::from_millis(ms),
                None => return usage(),
            },
            "--read-deadline-ms" => match value(i).and_then(|s| s.parse().ok()) {
                Some(ms) => read_deadline = Duration::from_millis(ms),
                None => return usage(),
            },
            "--cache-bytes" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) => cache_bytes = n,
                None => return usage(),
            },
            "--store-bytes" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) => store_bytes = Some(n),
                None => return usage(),
            },
            "--engine-faults" => match value(i).and_then(|s| s.parse().ok()) {
                Some(seed) => engine_faults = FaultPlan::new(seed),
                None => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }

    // The daemon's profile applies engine-wide: every job whose source
    // matches runs guided (under a guided cache key), everything else runs
    // static with a `profile.stale` accounting — see `Engine::submit`.
    let profile = match &profile_path {
        None => None,
        Some(path) => match crate::batch::load_engine_profile(path) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("fdi serve: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // The observability plane is always on: the flight recorder rides the
    // engine's telemetry stream next to the engine's own registry (the
    // `telemetry_overhead` gates hold their cost under 5%). With a store,
    // the recorder writes through to disk and re-seeds from it, so a
    // SIGKILL'd daemon's last requests are still listed after restart.
    let flight = Arc::new(match &store {
        Some(dir) => {
            FlightRecorder::with_writethrough(FLIGHT_CAPACITY, &dir.join("flight/requests.jsonl"))
        }
        None => FlightRecorder::with_capacity(FLIGHT_CAPACITY),
    });
    let telemetry = Telemetry::with_collector(flight.clone());
    if let Some(dir) = &store {
        // Post-mortem on panic: dump the recorder before unwinding proceeds.
        // (Contained chaos panics also land here; the dump is an overwrite,
        // so the freshest state always wins.)
        let hook_flight = flight.clone();
        let hook_path = dir.join("flight/last_flight.json");
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = hook_flight.dump_to(&hook_path);
            previous(info);
        }));
    }

    let engine = Engine::with_telemetry(
        EngineConfig {
            faults: engine_faults,
            store: store.clone(),
            profile,
            cache_bytes: Some(cache_bytes),
            store_bytes,
            ..match jobs {
                Some(n) => EngineConfig::with_workers(n),
                None => EngineConfig::default(),
            }
        },
        &telemetry,
    );
    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fdi serve: cannot bind 127.0.0.1:{port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound listener has an addr");
    if let Some(path) = &port_file {
        // Write-then-rename so a poller never reads a half-written port.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, format!("{}\n", addr.port()))
            .and_then(|()| std::fs::rename(&tmp, path))
            .is_err()
        {
            eprintln!("fdi serve: cannot write port file {path}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "fdi serve: listening on {addr} (pid {})",
        std::process::id()
    );

    let server = Arc::new(Server {
        engine,
        telemetry,
        flight,
        store_dir: store,
        inflight: AtomicUsize::new(0),
        max_inflight,
        draining: AtomicBool::new(false),
        deadline,
        started: Instant::now(),
    });
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let server = server.clone();
        std::thread::spawn(move || handle_connection(&server, stream, read_deadline));
    }
    ExitCode::SUCCESS
}

fn handle_connection(server: &Arc<Server>, stream: TcpStream, read_deadline: Duration) {
    // Slowloris guard: a peer that trickles bytes (or none) without ever
    // finishing a line is cut after `read_deadline`, bounding how long a
    // connection can pin this thread. Zero disables the guard.
    if !read_deadline.is_zero() {
        let _ = stream.set_read_timeout(Some(read_deadline));
    }
    // Each reply leaves as one write of text plus newline; Nagle would
    // only hold it back waiting for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (mut text, shutdown) = match handle_request(server, &line) {
            Reply::Line(t) => (t, false),
            Reply::Shutdown(t) => (t, true),
        };
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() {
            break;
        }
        if shutdown {
            // Drained: every admitted job has finished and the reply is on
            // the wire. Abandoning the accept loop from here is the
            // protocol's whole graceful-exit path.
            std::process::exit(0);
        }
    }
}

fn handle_request(server: &Arc<Server>, line: &str) -> Reply {
    // Control requests and malformed lines get a line-derived trace id:
    // deterministic for identical request bytes, joinable against client
    // logs. Job requests recompute theirs from (source, config) below so
    // the id matches `fdi batch` / `fdi explain --json` for the same job.
    let line_trace = format!("{:016x}", fdi_core::source_fingerprint(line.trim()));
    let req = match json::parse(line) {
        Ok(req) => req,
        Err(e) => {
            return Reply::Line(err(
                "bad-request",
                &format!("malformed request: {e}"),
                &line_trace,
                [],
            ))
        }
    };
    let op = req.get("op").and_then(Json::as_str);
    if let Some(op) = op {
        server.engine.metrics().add(&format!("serve.op.{op}"), 1);
    }
    match op {
        Some("ping") => Reply::Line(reply(
            "ping",
            &line_trace,
            [("pid", u64::from(std::process::id()).into())],
        )),
        Some("stats") => Reply::Line(reply(
            "stats",
            &line_trace,
            [
                ("inflight", (server.inflight.load(SeqCst) as u64).into()),
                ("draining", server.draining.load(SeqCst).into()),
                ("stats", server.engine.stats().json()),
            ],
        )),
        Some("health") => Reply::Line(health_reply(server, &line_trace)),
        Some("metrics") => Reply::Line(metrics_reply(server, &req, &line_trace)),
        Some("flight") => Reply::Line(reply(
            "flight",
            &line_trace,
            [("flight", server.flight.json())],
        )),
        Some("shutdown") => {
            server.draining.store(true, SeqCst);
            // Drain: admission is closed, so inflight only falls.
            while server.inflight.load(SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            // The drain post-mortem: same file the panic hook writes.
            if let Some(dir) = &server.store_dir {
                let _ = server.flight.dump_to(&dir.join("flight/last_flight.json"));
            }
            Reply::Shutdown(reply(
                "shutdown",
                &line_trace,
                [(
                    "jobs_completed",
                    server.engine.stats().jobs_completed.into(),
                )],
            ))
        }
        Some("job") => Reply::Line(handle_job(server, &req, &line_trace)),
        Some(other) => Reply::Line(err(
            "bad-request",
            &format!("unknown op {other:?}"),
            &line_trace,
            [],
        )),
        None => Reply::Line(err("bad-request", "request has no \"op\"", &line_trace, [])),
    }
}

/// The operator probe: admission load, byte footprints against their
/// configured limits, degradation (typed), telemetry overhead, flight
/// occupancy, and uptime, in one line.
fn health_reply(server: &Arc<Server>, trace: &str) -> String {
    let r = server.engine.resources();
    // One typed reason so operators can tell the failure modes apart
    // without diffing counters: a degraded store beats cache pressure
    // (it loses durability, not just speed).
    let degraded_reason = if r.store_degraded {
        Some("store-unwritable")
    } else if server.engine.stats().cache_evictions_pressure > 0 {
        Some("cache-pressure")
    } else {
        None
    };
    let (telemetry_events, telemetry_record_ns) = server.engine.metrics().overhead();
    let (flight_len, flight_capacity) = server.flight.occupancy();
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    reply(
        "health",
        trace,
        [
            ("pid", u64::from(std::process::id()).into()),
            (
                "uptime_ms",
                (server.started.elapsed().as_millis() as u64).into(),
            ),
            ("inflight", (server.inflight.load(SeqCst) as u64).into()),
            ("max_inflight", (server.max_inflight as u64).into()),
            ("draining", server.draining.load(SeqCst).into()),
            ("cache_bytes_used", r.cache_bytes_used.into()),
            ("cache_bytes_limit", opt(r.cache_bytes_limit)),
            ("store_bytes_used", opt(r.store_bytes_used)),
            ("store_bytes_limit", opt(r.store_bytes_limit)),
            ("store_degraded", r.store_degraded.into()),
            (
                "degraded_reason",
                degraded_reason.map_or(Json::Null, Json::from),
            ),
            (
                "telemetry",
                Json::obj([
                    ("events", telemetry_events.into()),
                    ("record_us", (telemetry_record_ns / 1_000).into()),
                ]),
            ),
            (
                "flight",
                Json::obj([
                    ("len", (flight_len as u64).into()),
                    ("capacity", (flight_capacity as u64).into()),
                ]),
            ),
        ],
    )
}

/// `{"op":"metrics"}`: set the daemon's gauges (footprints, admission,
/// uptime, hit rates, and the specialization cache's counters, which the
/// inliner keeps) in the engine's registry, then render it — as JSON, or
/// (with `"format":"text"`) as Prometheus text under a `"text"` key. Every
/// engine count is already a registry series.
fn metrics_reply(server: &Arc<Server>, req: &Json, trace: &str) -> String {
    let stats = server.engine.stats();
    let m = server.engine.metrics();
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    m.set_gauge("cache_bytes_used", stats.cache_bytes_used as f64);
    m.set_gauge("store_bytes_used", stats.store_bytes_used as f64);
    m.set_gauge("inflight", server.inflight.load(SeqCst) as f64);
    m.set_gauge("max_inflight", server.max_inflight as f64);
    m.set_gauge("uptime_s", server.started.elapsed().as_secs() as f64);
    m.set_gauge("spec_hit_rate", rate(stats.spec_hits, stats.spec_misses));
    m.set_gauge("exec_hit_rate", rate(stats.exec_hits, stats.exec_misses));
    m.set_gauge("analysis_hit_rate", stats.analysis_hit_rate());
    m.set_gauge("engine.spec_hits", stats.spec_hits as f64);
    m.set_gauge("engine.spec_misses", stats.spec_misses as f64);
    match req.get("format").and_then(Json::as_str) {
        Some("text") => reply(
            "metrics",
            trace,
            [
                ("format", "text".into()),
                ("text", Json::Str(m.to_prometheus_text())),
            ],
        ),
        None | Some("json") => reply("metrics", trace, [("metrics", m.json())]),
        Some(other) => err(
            "bad-request",
            &format!("unknown metrics format {other:?}"),
            trace,
            [],
        ),
    }
}

/// Decrements the in-flight count when dropped, unless responsibility was
/// handed to a timeout watcher thread via [`InflightSlot::transfer`].
struct InflightSlot<'a> {
    server: &'a Server,
    armed: bool,
}

impl InflightSlot<'_> {
    fn transfer(mut self) {
        self.armed = false;
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.server.inflight.fetch_sub(1, SeqCst);
        }
    }
}

/// Runs one job request and records it: outcome counter, request-duration
/// histogram, and a flight-recorder entry carrying the same trace id the
/// response does.
fn handle_job(server: &Arc<Server>, req: &Json, line_trace: &str) -> String {
    let started = Instant::now();
    let (reply, outcome, trace, what) = handle_job_inner(server, req, line_trace);
    let metrics = server.engine.metrics();
    metrics.add(&format!("serve.job.{outcome}"), 1);
    metrics.observe_us("request", started.elapsed().as_micros() as u64);
    server.flight.record_request(FlightEntry {
        trace_id: trace,
        what,
        outcome: outcome.to_string(),
        duration_us: started.elapsed().as_micros() as u64,
        ts_us: server.telemetry.now_us(),
    });
    reply
}

/// The job path proper. Returns `(response line, outcome key, trace id,
/// what-was-asked)` so the wrapper can account for every exit uniformly.
fn handle_job_inner(
    server: &Arc<Server>,
    req: &Json,
    line_trace: &str,
) -> (String, &'static str, String, String) {
    let fallback = |reply: String, outcome: &'static str, what: &str| {
        (reply, outcome, line_trace.to_string(), what.to_string())
    };
    if server.draining.load(SeqCst) {
        return fallback(
            err(
                "draining",
                "server is shutting down; resubmit elsewhere",
                line_trace,
                [],
            ),
            "draining",
            "job",
        );
    }
    // Bounded admission: claim a slot or reject *now*. Nothing ever queues
    // beyond the engine's own worker queues, so a flood degrades to typed
    // rejections instead of unbounded memory growth and silent latency.
    if server.inflight.fetch_add(1, SeqCst) >= server.max_inflight {
        server.inflight.fetch_sub(1, SeqCst);
        return fallback(
            err(
                "overloaded",
                &format!("{} jobs in flight; retry later", server.max_inflight),
                line_trace,
                [("retry_after_ms", 100u64.into())],
            ),
            "overloaded",
            "job",
        );
    }
    let slot = InflightSlot {
        server,
        armed: true,
    };

    let (spec, source) = match (
        req.get("spec").and_then(Json::as_str),
        req.get("source").and_then(Json::as_str),
    ) {
        (Some(spec), None) => match resolve_source(spec) {
            Ok(src) => (spec.to_string(), src),
            Err(e) => return fallback(err("bad-request", &e, line_trace, []), "bad-request", spec),
        },
        (None, Some(src)) => ("<inline>".to_string(), src.to_string()),
        _ => {
            return fallback(
                err(
                    "bad-request",
                    "need exactly one of \"spec\" or \"source\"",
                    line_trace,
                    [],
                ),
                "bad-request",
                "job",
            )
        }
    };
    let mut config = PipelineConfig::default();
    let flags: Vec<&str> = match req.get("flags") {
        None => Vec::new(),
        Some(flags) => match flags.as_arr() {
            Some(items) if items.iter().all(|f| f.as_str().is_some()) => {
                items.iter().filter_map(Json::as_str).collect()
            }
            _ => {
                return fallback(
                    err(
                        "bad-request",
                        "\"flags\" must be an array of strings",
                        line_trace,
                        [],
                    ),
                    "bad-request",
                    &spec,
                )
            }
        },
    };
    if let Err(e) = apply_job_flags(&mut config, &flags) {
        return fallback(err("bad-request", &e, line_trace, []), "bad-request", &spec);
    }
    let deadline = match req.get("deadline_ms").map(|d| d.as_num()) {
        None => server.deadline,
        Some(Some(ms)) if ms >= 0.0 => Duration::from_millis(ms as u64),
        Some(_) => {
            return fallback(
                err(
                    "bad-request",
                    "\"deadline_ms\" must be a number",
                    line_trace,
                    [],
                ),
                "bad-request",
                &spec,
            )
        }
    };

    // From here the job is fully determined, and so is its trace id — the
    // same fingerprint `fdi batch` and `fdi explain --json` compute for
    // this (source, config), threaded into the engine's job span.
    let trace = fdi_core::trace_id(&source, &config);
    let trace_hex = format!("{trace:016x}");
    let done = |reply: String, outcome: &'static str| {
        let t = trace_hex.clone();
        (reply, outcome, t, spec.clone())
    };
    let job = Job::new(source.as_str(), config).with_trace(trace);
    let head = |cached: bool| {
        [
            ("spec", Json::from(spec.as_str())),
            ("threshold", config.threshold.into()),
            ("cached", cached.into()),
        ]
    };

    // Warm path: answer straight from the disk store, no recomputation.
    if let Some(stored) = server.engine.lookup_stored(&job) {
        let result = [
            ("degraded", false.into()),
            ("oracle_rejected", false.into()),
            ("size_ratio", stored.size_ratio().into()),
            ("baseline_size", stored.baseline_size.into()),
            ("optimized_size", stored.optimized_size.into()),
            ("sites_inlined", stored.sites_inlined.into()),
            ("decisions", stored.decisions.json()),
            ("fuel_used", stored.fuel_used.into()),
            ("optimized", stored.optimized.into()),
        ];
        return done(
            reply("job", &trace_hex, head(true).into_iter().chain(result)),
            "cached",
        );
    }

    let handle = server.engine.submit(job);
    let Some(result) = handle.wait_timeout(deadline) else {
        // The job outlived the request deadline. It keeps running (and will
        // pave the caches and store for the next asker), so its admission
        // slot stays claimed until it actually finishes — a watcher thread
        // inherits the release.
        slot.transfer();
        let watcher_server = server.clone();
        std::thread::spawn(move || {
            let _ = handle.wait();
            watcher_server.inflight.fetch_sub(1, SeqCst);
        });
        return done(
            err(
                "timeout",
                "job exceeded its deadline; it keeps running and will warm the cache",
                &trace_hex,
                [("deadline_ms", (deadline.as_millis() as u64).into())],
            ),
            "timeout",
        );
    };
    drop(slot);
    match result {
        Err(e) => done(err("failed", &e.to_string(), &trace_hex, []), "failed"),
        Ok(out) => {
            let optimized = fdi_lang::unparse(&out.optimized).to_string();
            let fields = head(false)
                .into_iter()
                .chain(job_result(&out))
                .chain([("optimized", optimized.into())]);
            done(reply("job", &trace_hex, fields), "ok")
        }
    }
}
