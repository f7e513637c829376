//! End-to-end coverage of `fdi serve`: the crash-tolerant optimization
//! daemon and its disk-backed artifact store.
//!
//! These tests drive the real binary (`CARGO_BIN_EXE_fdi`) over its TCP
//! JSON-lines protocol and check the robustness contract end to end:
//!
//! * cold answers match an in-process pipeline run byte for byte, and warm
//!   answers (same daemon, graceful restart, or post-SIGKILL restart) match
//!   the cold answers byte for byte;
//! * a SIGKILL mid-batch loses no correctness: a fresh daemon on the same
//!   store re-serves every job correctly, answering from disk for the work
//!   that survived (`store_hits > 0`) and recomputing the rest;
//! * per-request deadlines are *typed* timeouts — the connection stays
//!   usable, the job keeps running, and its finished result warms the store;
//! * admission is bounded: past `--max-inflight`, requests are rejected
//!   with `overloaded` + `retry_after_ms`, never queued;
//! * `shutdown` is a graceful drain and exits 0;
//! * every response carries the protocol version, and `fdi client` rejects
//!   a mismatched daemon with a typed error instead of misparsing it;
//! * `fdi client --retries` resubmits byte-identical requests with seeded
//!   backoff, and fails fast — never oversleeps — when the next backoff
//!   would cross `--request-deadline-ms`;
//! * a slowloris connection (bytes trickling in, no newline) is cut by the
//!   per-connection read deadline without hurting other clients;
//! * `health` reports admission load, byte footprints, degradation (with a
//!   typed reason), telemetry overhead, and flight-recorder occupancy;
//! * round trips on one connection never stall on delayed ACK, and the
//!   daemon's in-memory caches are bounded (64 MiB) by default;
//! * `fdi fsck` detects a flipped byte on disk, `--repair` evicts it, and
//!   the restarted daemon re-serves the job byte-identically;
//! * `{"op":"metrics"}` exposes live windowed counters, engine gauges, and
//!   span-duration histograms (and, as `format:"text"`, valid Prometheus
//!   text exposition), all fed by the daemon's always-on telemetry;
//! * `stats`, the metrics JSON and the Prometheus text agree on every
//!   engine count, because all three read the engine's one registry;
//! * `{"op":"flight"}` lists the last requests with trace ids
//!   byte-identical to the ones the job responses carried;
//! * every response — including typed rejections — carries a `trace_id`,
//!   and for a given (source, config) the daemon, `fdi batch`, and
//!   `fdi explain --json` all derive the *same* id.

use fdi_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fdi-serve-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    /// Spawns `fdi serve`, waiting for the port file to learn its address.
    fn spawn(store: Option<&Path>, extra: &[&str]) -> Daemon {
        let dir = temp_dir("portfile");
        let port_file = dir.join("port");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fdi"));
        cmd.arg("serve")
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(root) = store {
            cmd.arg("--store").arg(root);
        }
        let child = cmd.spawn().expect("spawn fdi serve");
        let deadline = Instant::now() + Duration::from_secs(60);
        let port = loop {
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse().ok())
            {
                break p;
            }
            assert!(Instant::now() < deadline, "daemon never published its port");
            std::thread::sleep(Duration::from_millis(10));
        };
        let _ = std::fs::remove_dir_all(&dir);
        Daemon { child, port }
    }

    /// A connection set up like a real client's: `TCP_NODELAY`, so each
    /// one-write request line leaves at once.
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect to daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
    }

    /// One request, one response, on a fresh connection.
    fn request(&self, line: &str) -> Json {
        let mut stream = self.connect();
        send(&mut stream, line)
    }

    /// Waits (briefly) for the daemon to exit and returns its status.
    fn wait_exit(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "daemon never exited");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes one request line on `stream` (in one write) and reads one
/// response line.
fn send(stream: &mut TcpStream, line: &str) -> Json {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut response)
        .expect("read response");
    json::parse(response.trim()).expect("well-formed response line")
}

fn is_ok(doc: &Json) -> bool {
    doc.get("ok") == Some(&Json::Bool(true))
}

fn str_field<'j>(doc: &'j Json, key: &str) -> &'j str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response lacks string {key:?}: {doc:?}"))
}

fn num_field(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("response lacks number {key:?}: {doc:?}"))
}

fn job_request(spec: &str, deadline_ms: Option<u64>) -> String {
    let deadline = deadline_ms
        .map(|ms| format!(",\"deadline_ms\":{ms}"))
        .unwrap_or_default();
    format!("{{\"op\":\"job\",\"spec\":\"{spec}\",\"flags\":[\"-t\",\"200\"]{deadline}}}")
}

/// The optimized text an in-process pipeline run produces for `src` at
/// threshold 200 — the byte-identity reference for every serve answer.
fn reference_optimized(src: &str) -> String {
    let out = fdi_core::optimize(src, &fdi_core::PipelineConfig::with_threshold(200))
        .expect("reference run succeeds");
    assert!(out.health.degradations.is_empty(), "reference run is clean");
    fdi_lang::unparse(&out.optimized).to_string()
}

fn bench_spec(b: &fdi_benchsuite::Benchmark) -> String {
    format!("bench:{}@{}", b.name, b.test_scale)
}

/// Runs `fdi client --port <port> <args…>` to completion.
fn client(port: u16, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fdi"))
        .arg("client")
        .arg("--port")
        .arg(port.to_string())
        .args(args)
        .output()
        .expect("run fdi client")
}

/// A scripted stand-in for `fdi serve`: answers one connection per canned
/// reply, in order, and returns every request line it saw. Lets the tests
/// provoke client behaviour (wrong proto, overload-then-accept) that a
/// healthy daemon won't produce on demand.
fn fake_server(replies: Vec<String>) -> (u16, std::thread::JoinHandle<Vec<String>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let port = listener.local_addr().unwrap().port();
    let handle = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for reply in replies {
            let (stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read request");
            seen.push(line.trim().to_string());
            let mut writer = stream;
            writeln!(writer, "{reply}").expect("send reply");
        }
        seen
    });
    (port, handle)
}

#[test]
fn ping_stats_and_graceful_shutdown() {
    let mut daemon = Daemon::spawn(None, &["--jobs", "2"]);
    let pong = daemon.request("{\"op\":\"ping\"}");
    assert!(is_ok(&pong), "{pong:?}");
    assert_eq!(num_field(&pong, "pid") as u32, daemon.child.id());
    assert_eq!(num_field(&pong, "proto"), 1.0, "responses are versioned");

    let stats = daemon.request("{\"op\":\"stats\"}");
    assert!(is_ok(&stats), "{stats:?}");
    assert_eq!(num_field(&stats, "inflight"), 0.0);
    assert_eq!(stats.get("draining"), Some(&Json::Bool(false)));
    let engine = stats.get("stats").expect("embedded engine stats");
    assert_eq!(num_field(engine, "jobs_completed"), 0.0);

    // Unknown ops and malformed lines are typed rejections, not hangups.
    let bad = daemon.request("{\"op\":\"frobnicate\"}");
    assert!(!is_ok(&bad));
    assert_eq!(str_field(&bad, "kind"), "bad-request");
    assert_eq!(num_field(&bad, "proto"), 1.0, "even rejections carry proto");
    let bad = daemon.request("not json at all");
    assert_eq!(str_field(&bad, "kind"), "bad-request");

    let bye = daemon.request("{\"op\":\"shutdown\"}");
    assert!(is_ok(&bye), "{bye:?}");
    assert!(daemon.wait_exit().success(), "graceful shutdown exits 0");
}

#[test]
fn warm_answers_are_byte_identical_across_graceful_restart() {
    let store = temp_dir("warm");
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    let spec = bench_spec(bench);
    let expected = reference_optimized(&bench.scaled(bench.test_scale));

    let mut first = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    let cold = first.request(&job_request(&spec, None));
    assert!(is_ok(&cold), "{cold:?}");
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(
        str_field(&cold, "optimized"),
        expected,
        "cold == in-process"
    );

    // Same daemon, same job: answered from the disk store without rerunning.
    let warm = first.request(&job_request(&spec, None));
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(str_field(&warm, "optimized"), expected, "warm == cold");
    assert!(is_ok(&first.request("{\"op\":\"shutdown\"}")));
    assert!(first.wait_exit().success());

    // A fresh daemon on the same store starts warm.
    let second = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    let restarted = second.request(&job_request(&spec, None));
    assert!(is_ok(&restarted), "{restarted:?}");
    assert_eq!(restarted.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(str_field(&restarted, "optimized"), expected);
    let stats = second.request("{\"op\":\"stats\"}");
    let engine = stats.get("stats").expect("engine stats");
    assert!(num_field(engine, "store_hits") >= 1.0, "{stats:?}");
    assert_eq!(
        num_field(engine, "jobs_completed"),
        0.0,
        "nothing recomputed"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn request_deadline_is_a_typed_timeout_not_a_hung_connection() {
    let store = temp_dir("timeout");
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    // Default scale: heavy enough that a 0 ms deadline always loses the race.
    let spec = format!("bench:{}@{}", bench.name, bench.default_scale);

    let daemon = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    let mut stream = daemon.connect();
    let timed_out = send(&mut stream, &job_request(&spec, Some(0)));
    assert!(!is_ok(&timed_out), "{timed_out:?}");
    assert_eq!(str_field(&timed_out, "kind"), "timeout");
    assert_eq!(num_field(&timed_out, "deadline_ms"), 0.0);

    // The same connection answers the next request: timeout ≠ hangup.
    let pong = send(&mut stream, "{\"op\":\"ping\"}");
    assert!(is_ok(&pong), "{pong:?}");

    // The abandoned job keeps running, holds its admission slot until done,
    // and then warms the store: the resubmit is a cache hit.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = daemon.request("{\"op\":\"stats\"}");
        if num_field(&stats, "inflight") == 0.0 {
            break;
        }
        assert!(Instant::now() < deadline, "timed-out job never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let warm = daemon.request(&job_request(&spec, None));
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(
        warm.get("cached"),
        Some(&Json::Bool(true)),
        "a timed-out job's work is not wasted"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn admission_is_bounded_and_rejects_with_retry_hint() {
    let daemon = Daemon::spawn(None, &["--jobs", "2", "--max-inflight", "0"]);
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    let rejected = daemon.request(&job_request(&bench_spec(bench), None));
    assert!(!is_ok(&rejected), "{rejected:?}");
    assert_eq!(str_field(&rejected, "kind"), "overloaded");
    assert!(num_field(&rejected, "retry_after_ms") > 0.0);
    // The reject is backpressure, not a failure of the daemon: it still
    // serves control traffic.
    assert!(is_ok(&daemon.request("{\"op\":\"ping\"}")));
}

#[test]
fn sigkill_mid_batch_then_restart_serves_byte_identical_answers() {
    let store = temp_dir("sigkill");
    let benches: Vec<(String, String)> = fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (bench_spec(b), reference_optimized(&b.scaled(b.test_scale))))
        .collect();

    let mut daemon = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    // Complete (and persist) the first three jobs…
    for (spec, expected) in &benches[..3] {
        let cold = daemon.request(&job_request(spec, None));
        assert!(is_ok(&cold), "{cold:?}");
        assert_eq!(str_field(&cold, "optimized"), expected);
    }
    // …then flood the rest in from concurrent clients and SIGKILL the
    // daemon mid-batch. Whatever was mid-computation — or mid-store-write —
    // is simply lost; the store must never serve it wrong.
    let floods: Vec<_> = benches[3..]
        .iter()
        .map(|(spec, _)| {
            let port = daemon.port;
            let line = job_request(spec, None);
            std::thread::spawn(move || {
                if let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) {
                    let _ = writeln!(stream, "{line}");
                    let _ = stream.flush();
                    let mut response = String::new();
                    let _ = BufReader::new(stream).read_line(&mut response);
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    daemon.child.kill().expect("SIGKILL the daemon");
    let _ = daemon.child.wait();
    for t in floods {
        let _ = t.join();
    }
    drop(daemon);

    // A fresh daemon against the same store: every job answers, every
    // answer is byte-identical to the in-process reference, and the work
    // that survived the crash is re-served from disk, not recomputed.
    let restarted = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    for (spec, expected) in &benches {
        let resp = restarted.request(&job_request(spec, None));
        assert!(is_ok(&resp), "{spec}: {resp:?}");
        assert_eq!(
            str_field(&resp, "optimized"),
            expected,
            "{spec}: wrong answer after crash recovery"
        );
    }
    let stats = restarted.request("{\"op\":\"stats\"}");
    let engine = stats.get("stats").expect("engine stats");
    let hits = num_field(engine, "store_hits");
    let completed = num_field(engine, "jobs_completed");
    assert!(
        hits >= 3.0,
        "pre-kill work must be re-served from disk: {stats:?}"
    );
    assert!(
        completed <= (benches.len() - 3) as f64,
        "warm re-serve must be cheaper than a cold rerun: {stats:?}"
    );
    assert_eq!(num_field(engine, "jobs_quarantined"), 0.0, "zero poisoned");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn health_reports_footprints_limits_and_degradation() {
    let store = temp_dir("health");
    let daemon = Daemon::spawn(
        Some(&store),
        &[
            "--jobs",
            "2",
            "--cache-bytes",
            "67108864",
            "--store-bytes",
            "67108864",
        ],
    );
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    assert!(is_ok(
        &daemon.request(&job_request(&bench_spec(bench), None))
    ));

    let health = daemon.request("{\"op\":\"health\"}");
    assert!(is_ok(&health), "{health:?}");
    assert_eq!(num_field(&health, "proto"), 1.0);
    assert_eq!(num_field(&health, "pid") as u32, daemon.child.id());
    assert!(num_field(&health, "uptime_ms") >= 0.0);
    assert_eq!(num_field(&health, "inflight"), 0.0);
    assert_eq!(num_field(&health, "max_inflight"), 64.0);
    assert_eq!(health.get("draining"), Some(&Json::Bool(false)));
    assert_eq!(num_field(&health, "cache_bytes_limit"), 67108864.0);
    assert_eq!(num_field(&health, "store_bytes_limit"), 67108864.0);
    assert!(num_field(&health, "cache_bytes_used") > 0.0, "{health:?}");
    assert!(num_field(&health, "store_bytes_used") > 0.0, "{health:?}");
    assert_eq!(health.get("store_degraded"), Some(&Json::Bool(false)));
    assert_eq!(
        health.get("degraded_reason"),
        Some(&Json::Null),
        "healthy daemon names no degradation: {health:?}"
    );
    // The observability plane accounts for itself: the engine's events were
    // recorded, and the job landed in the flight recorder.
    let telemetry = health.get("telemetry").expect("telemetry overhead");
    assert!(num_field(telemetry, "events") > 0.0, "{health:?}");
    assert!(num_field(telemetry, "record_us") >= 0.0);
    let flight = health.get("flight").expect("flight occupancy");
    assert_eq!(num_field(flight, "len"), 1.0, "{health:?}");
    assert_eq!(num_field(flight, "capacity"), 64.0);
    let _ = std::fs::remove_dir_all(&store);
}

/// Every reply leaves in one write with `TCP_NODELAY` set, so a persistent
/// connection's round trips never wait on the peer's delayed ACK. A reply
/// sent as text plus a separate newline segment stalls ~40 ms each, so 100
/// round trips would take seconds instead of milliseconds.
#[test]
fn round_trips_on_one_connection_do_not_stall() {
    let daemon = Daemon::spawn(None, &["--jobs", "1"]);
    let mut stream = daemon.connect();
    assert!(is_ok(&send(&mut stream, "{\"op\":\"ping\"}")), "warm-up");
    let start = Instant::now();
    for op in ["ping", "stats"] {
        for _ in 0..50 {
            let reply = send(&mut stream, &format!("{{\"op\":\"{op}\"}}"));
            assert!(is_ok(&reply), "{reply:?}");
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 round trips took {elapsed:?}: replies are stalling"
    );
}

/// A daemon started without `--cache-bytes` still bounds its in-memory
/// caches: it meets new sources for as long as it runs.
#[test]
fn daemon_cache_is_bounded_by_default() {
    let daemon = Daemon::spawn(None, &["--jobs", "2"]);
    for b in fdi_benchsuite::BENCHMARKS.iter().take(6) {
        let reply = daemon.request(&job_request(&bench_spec(b), None));
        assert!(is_ok(&reply), "{}: {reply:?}", b.name);
    }
    let health = daemon.request("{\"op\":\"health\"}");
    assert!(is_ok(&health), "{health:?}");
    let limit = num_field(&health, "cache_bytes_limit");
    assert_eq!(limit, 67108864.0, "64 MiB default: {health:?}");
    assert!(
        num_field(&health, "cache_bytes_used") <= limit,
        "{health:?}"
    );
}

#[test]
fn slowloris_connection_is_cut_without_hurting_others() {
    let daemon = Daemon::spawn(None, &["--jobs", "2", "--read-deadline-ms", "150"]);
    let mut slow = daemon.connect();
    // Half a request, then silence: never a newline, never more bytes.
    slow.write_all(b"{\"op\":\"pi").expect("send partial line");
    slow.flush().expect("flush");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set client read timeout");
    let start = Instant::now();
    let mut buf = [0u8; 64];
    let n = std::io::Read::read(&mut slow, &mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the daemon must hang up on a stalled connection");
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "hangup must come from the read deadline, not the test timeout"
    );
    // Other clients are unaffected, before and after the cut.
    assert!(is_ok(&daemon.request("{\"op\":\"ping\"}")));
}

#[test]
fn client_rejects_a_proto_mismatched_server_with_a_typed_error() {
    // A daemon from the future…
    let (port, server) = fake_server(vec![
        "{\"ok\":true,\"proto\":99,\"op\":\"ping\",\"pid\":1}".to_string()
    ]);
    let out = client(port, &["ping"]);
    assert!(!out.status.success(), "mismatch must fail the client");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("proto-mismatch"), "stderr: {stderr}");
    assert!(stderr.contains("proto 99"), "stderr: {stderr}");
    server.join().expect("fake server");

    // …and a daemon from before versioning existed.
    let (port, server) = fake_server(vec!["{\"ok\":true,\"op\":\"ping\",\"pid\":1}".to_string()]);
    let out = client(port, &["ping"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("proto-mismatch"), "stderr: {stderr}");
    assert!(stderr.contains("no proto field"), "stderr: {stderr}");
    server.join().expect("fake server");
}

#[test]
fn client_retries_resubmit_byte_identical_requests() {
    let (port, server) = fake_server(vec![
        "{\"ok\":false,\"proto\":1,\"kind\":\"overloaded\",\"retry_after_ms\":5,\
         \"error\":\"busy\"}"
            .to_string(),
        "{\"ok\":true,\"proto\":1,\"op\":\"job\",\"spec\":\"bench:fib@6\",\
         \"optimized\":\"x\"}"
            .to_string(),
    ]);
    let out = client(
        port,
        &[
            "--retries",
            "3",
            "--retry-seed",
            "7",
            "job",
            "bench:fib@6",
            "-t",
            "200",
        ],
    );
    assert!(
        out.status.success(),
        "retry must reach the accepting server: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"op\":\"job\""), "stdout: {stdout}");
    let seen = server.join().expect("fake server");
    assert_eq!(seen.len(), 2, "one retry after the overload");
    assert_eq!(
        seen[0], seen[1],
        "a resubmission must be the same bytes as the original request"
    );
    assert!(seen[0].contains("bench:fib@6"));
}

#[test]
fn client_backoff_fails_fast_at_the_request_deadline() {
    // The server's hint (3000 ms) guarantees the very first backoff sleep
    // would cross the 1000 ms request deadline: the client must fail fast
    // with a typed timeout instead of taking the sleep.
    let (port, server) = fake_server(vec![
        "{\"ok\":false,\"proto\":1,\"kind\":\"overloaded\",\"retry_after_ms\":3000,\
         \"error\":\"busy\"}"
            .to_string(),
    ]);
    let start = Instant::now();
    let out = client(
        port,
        &[
            "--retries",
            "10",
            "--retry-seed",
            "7",
            "job",
            "bench:fib@6",
            "--request-deadline-ms",
            "1000",
        ],
    );
    let elapsed = start.elapsed();
    assert!(!out.status.success(), "deadline must fail the request");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timeout"), "stderr: {stderr}");
    assert!(
        elapsed < Duration::from_millis(1500),
        "client overslept: {elapsed:?} (minimum backoff here is 1500 ms)"
    );
    server.join().expect("fake server");
}

#[test]
fn client_retries_against_a_real_overloaded_daemon() {
    let daemon = Daemon::spawn(None, &["--jobs", "2", "--max-inflight", "0"]);
    // health works through the real client…
    let out = client(daemon.port, &["health"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"op\":\"health\""));
    // …and a permanently overloaded daemon exhausts the retry budget.
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    let start = Instant::now();
    let out = client(
        daemon.port,
        &[
            "--retries",
            "2",
            "--retry-seed",
            "11",
            "job",
            &bench_spec(bench),
        ],
    );
    assert!(!out.status.success(), "overload must exhaust retries");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("after 2 retries"), "stderr: {stderr}");
    // Three attempts with hint 100 ms: two jittered sleeps in [50,100] and
    // [100,200] — proof the backoff actually waited, without oversleeping.
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(150),
        "no backoff? {elapsed:?}"
    );
    assert!(elapsed < Duration::from_secs(10), "overslept: {elapsed:?}");
}

/// Returns every artifact (`.art`) file under the store root.
fn artifacts(store: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let out = store.join("out");
    let Ok(shards) = std::fs::read_dir(&out) else {
        return found;
    };
    for shard in shards.flatten() {
        if let Ok(files) = std::fs::read_dir(shard.path()) {
            for f in files.flatten() {
                if f.path().extension().is_some_and(|e| e == "art") {
                    found.push(f.path());
                }
            }
        }
    }
    found
}

/// Runs `fdi fsck <store> [args…]` and returns (success, stdout).
fn run_fsck(store: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fdi"))
        .arg("fsck")
        .arg(store)
        .args(args)
        .output()
        .expect("run fdi fsck");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
    )
}

#[test]
fn fsck_detects_repairs_and_restores_byte_identical_serving() {
    let store = temp_dir("fsck");
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    let spec = bench_spec(bench);
    let expected = reference_optimized(&bench.scaled(bench.test_scale));

    let mut daemon = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    assert!(is_ok(&daemon.request(&job_request(&spec, None))));
    assert!(is_ok(&daemon.request("{\"op\":\"shutdown\"}")));
    assert!(daemon.wait_exit().success());

    // A healthy store passes.
    let (ok, report) = run_fsck(&store, &[]);
    assert!(ok, "healthy store must pass fsck: {report}");
    assert!(report.contains("\"corrupt\":0"), "{report}");

    // Flip one payload byte (offset 25 > the 20-byte frame header).
    let arts = artifacts(&store);
    assert_eq!(arts.len(), 1, "one job, one artifact");
    let mut bytes = std::fs::read(&arts[0]).expect("read artifact");
    assert!(bytes.len() > 25);
    bytes[25] ^= 0xff;
    std::fs::write(&arts[0], &bytes).expect("corrupt artifact");

    // Detected and nonzero without --repair; the file is untouched.
    let (ok, report) = run_fsck(&store, &[]);
    assert!(!ok, "unrepaired damage must exit nonzero");
    assert!(report.contains("\"corrupt\":1"), "{report}");
    assert!(report.contains("\"unrepaired\":1"), "{report}");
    assert_eq!(artifacts(&store).len(), 1, "report-only mode never deletes");

    // Repaired: the corrupt artifact is evicted and the store passes again.
    let (ok, report) = run_fsck(&store, &["--repair"]);
    assert!(ok, "repair must exit 0: {report}");
    assert!(report.contains("\"repaired\":1"), "{report}");
    assert_eq!(artifacts(&store).len(), 0, "the lying artifact is gone");
    let (ok, _) = run_fsck(&store, &[]);
    assert!(ok, "a repaired store is healthy");

    // The restarted daemon recomputes the evicted answer byte-identically
    // and repaves the store.
    let daemon = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    let cold = daemon.request(&job_request(&spec, None));
    assert!(is_ok(&cold), "{cold:?}");
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "recomputed");
    assert_eq!(str_field(&cold, "optimized"), expected, "byte-identical");
    let warm = daemon.request(&job_request(&spec, None));
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)), "repaved");
    let _ = std::fs::remove_dir_all(&store);
}

/// `trace_id` must be exactly 16 lowercase hex digits, on every response.
fn assert_trace_shape(doc: &Json) -> String {
    let trace = str_field(doc, "trace_id");
    assert_eq!(trace.len(), 16, "trace_id {trace:?}");
    assert!(
        trace
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()),
        "trace_id {trace:?}"
    );
    trace.to_string()
}

#[test]
fn metrics_op_exposes_live_counters_gauges_and_histograms() {
    let daemon = Daemon::spawn(None, &["--jobs", "2"]);
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    let spec = bench_spec(bench);
    // Two thresholds over one source: the second job hits the shared
    // analysis cache, so the hit/miss-split counters light up.
    for t in ["200", "100"] {
        let req = format!("{{\"op\":\"job\",\"spec\":\"{spec}\",\"flags\":[\"-t\",\"{t}\"]}}");
        assert!(is_ok(&daemon.request(&req)));
    }

    let reply = daemon.request("{\"op\":\"metrics\"}");
    assert!(is_ok(&reply), "{reply:?}");
    assert_trace_shape(&reply);
    let m = reply.get("metrics").expect("metrics payload");

    // Counters: live, and inside the one-minute window we just ran in.
    let counter = |name: &str, window: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .map(|c| num_field(c, window))
            .unwrap_or_else(|| panic!("no counter {name:?} in {m:?}"))
    };
    assert!(counter("serve.op.job", "total") >= 2.0);
    assert!(counter("serve.job.ok", "w1m") >= 2.0, "1m window is live");
    assert!(
        counter("cache.analysis.hit", "total") >= 1.0,
        "cache hits split"
    );
    assert!(counter("cache.analysis.miss", "total") >= 1.0);

    // The engine's counts are registry series of their own, and the
    // specialization cache's counters (kept by the inliner) are gauges.
    let gauge = |name: &str| {
        m.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("no gauge {name:?} in {m:?}"))
    };
    assert_eq!(counter("engine.jobs_completed", "total"), 2.0);
    assert!(gauge("engine.spec_hits") > 0.0, "spec cache was exercised");
    assert!(counter("cache.analysis.hit", "total") >= 1.0);
    assert_eq!(gauge("max_inflight"), 64.0);

    // Histograms: the engine's job span landed, with a live 1m window.
    let job_histo = m
        .get("histograms")
        .and_then(|h| h.get("job"))
        .expect("job-span histogram");
    assert!(num_field(job_histo, "count") >= 2.0);
    assert!(
        num_field(job_histo.get("w1m").expect("w1m"), "count") >= 1.0,
        "{job_histo:?}"
    );

    // The text rendering is the same registry in Prometheus clothes.
    let text_reply = daemon.request("{\"op\":\"metrics\",\"format\":\"text\"}");
    assert!(is_ok(&text_reply), "{text_reply:?}");
    let text = str_field(&text_reply, "text");
    assert!(
        text.contains("# TYPE fdi_span_duration_us histogram"),
        "{text}"
    );
    assert!(text.contains("fdi_serve_op_job_total"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    assert!(text.contains("fdi_inline_decisions_total{reason=\"inlined\"}"));

    let bad = daemon.request("{\"op\":\"metrics\",\"format\":\"yaml\"}");
    assert!(!is_ok(&bad));
    assert_eq!(str_field(&bad, "kind"), "bad-request");
}

/// The registry series behind each count in the `stats` reply. The engine
/// counts every fact once, into its registry; `store_write_failures` is the
/// sum of the three write-failure instants.
const COUNT_SERIES: [(&str, &[&str]); 25] = [
    ("jobs_submitted", &["engine.jobs_submitted"]),
    ("jobs_deduped", &["engine.jobs_deduped"]),
    ("jobs_completed", &["engine.jobs_completed"]),
    ("jobs_retried", &["job.retry"]),
    ("jobs_quarantined", &["job.poisoned"]),
    ("parse_hits", &["cache.parse.hit"]),
    ("parse_misses", &["cache.parse.miss"]),
    ("analysis_hits", &["cache.analysis.hit"]),
    ("analysis_misses", &["cache.analysis.miss"]),
    ("analysis_uncached", &["engine.analysis_uncached"]),
    ("fingerprints_computed", &["engine.fingerprints_computed"]),
    ("cache_evictions_fault", &["cache.evict"]),
    (
        "cache_evictions_corruption",
        &["engine.cache_evictions_corruption"],
    ),
    (
        "cache_evictions_pressure",
        &["engine.cache_evictions_pressure"],
    ),
    ("cache_corruptions_detected", &["cache.corruption_detected"]),
    ("exec_hits", &["cache.exec.hit"]),
    ("exec_misses", &["cache.exec.miss"]),
    ("store_hits", &["cache.store.hit"]),
    ("store_misses", &["cache.store.miss"]),
    (
        "store_corruptions_detected",
        &["engine.store_corruptions_detected"],
    ),
    ("store_writes", &["engine.store_writes"]),
    (
        "store_write_failures",
        &["store.write_torn", "store.full", "store.write_failed"],
    ),
    ("profile_applied", &["engine.profile_applied"]),
    ("profile_stale", &["profile.stale"]),
    ("workers_respawned", &["engine.workers_respawned"]),
];

/// `stats` keys that are gauges read from their owners, with the registry
/// gauge the daemon mirrors each into (if any) before a scrape.
const GAUGES: [(&str, Option<&str>); 7] = [
    ("cache_bytes_used", Some("cache_bytes_used")),
    ("spec_hits", Some("engine.spec_hits")),
    ("spec_misses", Some("engine.spec_misses")),
    ("spec_evictions", None),
    ("store_gc_evictions", None),
    ("store_bytes_used", Some("store_bytes_used")),
    ("queue_highwater", None),
];

/// The `*_ms` phase times in `stats`, with their nanosecond series.
const TIMES: [(&str, &str); 4] = [
    ("parse_ms", "engine.parse_ns"),
    ("analysis_ms", "engine.analysis_ns"),
    ("transform_ms", "engine.transform_ns"),
    ("execute_ms", "engine.execute_ns"),
];

/// The value of the unlabelled Prometheus sample `name` (0 when absent:
/// a series nobody recorded is not rendered).
fn prom_sample(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .map(|v| v.parse().expect("numeric sample"))
        .next()
        .unwrap_or(0.0)
}

/// `stats`, the metrics JSON and the Prometheus text are views of one
/// registry: after a cold job, a second threshold on the same source (an
/// analysis-cache hit) and a repeat served from the store, every count in
/// `stats` equals the same fact on the other two surfaces.
#[test]
fn stats_metrics_and_prometheus_text_agree_on_every_count() {
    let store = temp_dir("agree");
    let daemon = Daemon::spawn(Some(&store), &["--jobs", "2"]);
    let spec = bench_spec(&fdi_benchsuite::BENCHMARKS[0]);
    let job = |t: &str| {
        let req = format!("{{\"op\":\"job\",\"spec\":\"{spec}\",\"flags\":[\"-t\",\"{t}\"]}}");
        daemon.request(&req).get("cached").cloned()
    };
    assert_eq!(job("200"), Some(Json::Bool(false)), "cold");
    assert_eq!(job("100"), Some(Json::Bool(false)), "second threshold");
    assert_eq!(job("200"), Some(Json::Bool(true)), "store hit");

    let stats_reply = daemon.request("{\"op\":\"stats\"}");
    let stats = stats_reply.get("stats").expect("stats payload");
    let metrics_reply = daemon.request("{\"op\":\"metrics\"}");
    let m = metrics_reply.get("metrics").expect("metrics payload");
    let text_reply = daemon.request("{\"op\":\"metrics\",\"format\":\"text\"}");
    let text = str_field(&text_reply, "text");

    let series_total = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .map_or(0.0, |c| num_field(c, "total"))
    };
    let prom_total = |name: &str| {
        let metric: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        prom_sample(text, &format!("fdi_{metric}_total"))
    };
    for (key, value) in stats.as_obj().expect("stats object") {
        if let Some((_, series)) = COUNT_SERIES.iter().find(|(k, _)| k == key) {
            let want = value.as_num().expect("numeric count");
            let json: f64 = series.iter().map(|s| series_total(s)).sum();
            let prom: f64 = series.iter().map(|s| prom_total(s)).sum();
            assert_eq!(json, want, "{key}: metrics JSON disagrees with stats");
            assert_eq!(prom, want, "{key}: Prometheus text disagrees with stats");
        } else if let Some((_, gauge)) = GAUGES.iter().find(|(k, _)| k == key) {
            if let Some(gauge) = gauge {
                let json = m.get("gauges").and_then(|g| g.get(gauge));
                assert_eq!(json, Some(value), "{key}: gauge {gauge} disagrees");
            }
        } else if let Some((_, ns)) = TIMES.iter().find(|(k, _)| k == key) {
            assert_eq!(series_total(ns) / 1e6, value.as_num().unwrap(), "{key}");
        } else if key == "passes" {
            for (pass, fields) in value.as_obj().expect("passes object") {
                for field in ["runs", "fuel"] {
                    let series = format!("engine.pass.{pass}.{field}");
                    let want = num_field(fields, field);
                    assert_eq!(series_total(&series), want, "{series}");
                    assert_eq!(prom_total(&series), want, "{series}");
                }
                let ns = series_total(&format!("engine.pass.{pass}.ns"));
                assert_eq!(ns / 1e6, num_field(fields, "ms"), "{pass} ms");
            }
        } else if key == "telemetry" {
            let decisions = value.get("decisions").expect("decision totals");
            assert_eq!(m.get("decisions"), Some(decisions), "decision totals");
            for (reason, n) in decisions.as_obj().unwrap() {
                let line = format!("fdi_inline_decisions_total{{reason=\"{reason}\"}}");
                assert_eq!(prom_sample(text, &line), n.as_num().unwrap(), "{reason}");
            }
        } else {
            panic!("stats key {key:?} is on no other surface");
        }
    }
    // The scenario really exercised the counts it claims to compare.
    assert_eq!(num_field(stats, "jobs_completed"), 2.0);
    assert_eq!(num_field(stats, "store_hits"), 1.0);
    assert!(num_field(stats, "analysis_hits") >= 1.0);
    assert!(num_field(stats, "store_writes") >= 1.0);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn flight_lists_requests_with_byte_identical_trace_ids() {
    let daemon = Daemon::spawn(None, &["--jobs", "2"]);
    let bench = &fdi_benchsuite::BENCHMARKS[1];
    let spec = bench_spec(bench);
    let first = daemon.request(&job_request(&spec, None));
    assert!(is_ok(&first), "{first:?}");
    let trace = assert_trace_shape(&first);
    // The identical request answers with the identical id.
    assert_eq!(
        assert_trace_shape(&daemon.request(&job_request(&spec, None))),
        trace
    );
    // A typed rejection still carries a (line-derived) trace id.
    let rejected = daemon.request("{\"op\":\"job\",\"spec\":\"bench:nonesuch@1\"}");
    assert!(!is_ok(&rejected));
    let rejected_trace = assert_trace_shape(&rejected);

    let reply = daemon.request("{\"op\":\"flight\"}");
    assert!(is_ok(&reply), "{reply:?}");
    let flight = reply.get("flight").expect("flight payload");
    assert_eq!(num_field(flight, "len"), 3.0);
    assert_eq!(num_field(flight, "dropped"), 0.0);
    let requests = flight
        .get("requests")
        .and_then(Json::as_arr)
        .expect("requests ring");
    let outcome_of = |wanted: &str| -> Vec<&str> {
        requests
            .iter()
            .filter(|r| str_field(r, "trace_id") == wanted)
            .map(|r| str_field(r, "outcome"))
            .collect()
    };
    // Byte-identical join: the response ids ARE the recorder ids.
    assert_eq!(outcome_of(&trace), ["ok", "ok"], "{requests:?}");
    assert_eq!(outcome_of(&rejected_trace), ["bad-request"], "{requests:?}");
    assert!(requests.iter().all(|r| num_field(r, "ts_us") > 0.0));
}

#[test]
fn trace_ids_agree_across_serve_batch_and_explain() {
    let dir = temp_dir("traceid");
    let program = "(let ((compose (lambda (f g) (lambda (x) (f (g x))))) \
                          (inc (lambda (n) (+ n 1)))) \
                     ((compose inc inc) 40))";
    let source = dir.join("compose.scm");
    std::fs::write(&source, program).expect("write source");
    let spec = source.display().to_string();

    let daemon = Daemon::spawn(None, &[]);
    let served = daemon.request(&job_request(&spec, None));
    assert!(is_ok(&served), "{served:?}");
    let trace = assert_trace_shape(&served);

    let fdi = env!("CARGO_BIN_EXE_fdi");
    let run = |args: &[&str]| -> String {
        let out = Command::new(fdi).args(args).output().expect("run fdi");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    // `fdi explain --json`: every decision object leads with the same id.
    let explained = run(&["explain", &spec, "--json", "-t", "200"]);
    let mut decisions = 0;
    for line in explained.lines().filter(|l| l.starts_with('{')) {
        let doc = json::parse(line).expect("decision object");
        assert_eq!(str_field(&doc, "trace_id"), trace, "{line}");
        decisions += 1;
    }
    assert!(decisions > 0, "explain printed decisions: {explained}");

    // `fdi batch`: the per-job entry carries the same id.
    let manifest = dir.join("manifest.txt");
    std::fs::write(&manifest, format!("{spec} -t 200\n")).expect("write manifest");
    let report =
        json::parse(run(&["batch", manifest.to_str().unwrap()]).trim()).expect("batch report");
    let jobs = report.get("jobs").and_then(Json::as_arr).expect("jobs");
    assert_eq!(jobs.len(), 1);
    assert_eq!(str_field(&jobs[0], "trace_id"), trace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_response_carries_a_trace_id_even_malformed_ones() {
    let daemon = Daemon::spawn(None, &[]);
    for (request, ok) in [
        ("{\"op\":\"ping\"}", true),
        ("{\"op\":\"stats\"}", true),
        ("{\"op\":\"health\"}", true),
        ("{\"op\":\"metrics\"}", true),
        ("{\"op\":\"flight\"}", true),
        ("{\"op\":\"warp\"}", false),
        ("{\"flags\":[]}", false),
        ("{not json", false),
    ] {
        let doc = daemon.request(request);
        assert_eq!(is_ok(&doc), ok, "{request}: {doc:?}");
        assert_trace_shape(&doc);
        // Identical request bytes, identical id — deterministic joins.
        assert_eq!(
            assert_trace_shape(&daemon.request(request)),
            assert_trace_shape(&doc),
            "{request}"
        );
    }
}
