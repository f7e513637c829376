//! End-to-end coverage of profile-guided inlining through the real binary:
//! `fdi profile` artifacts, `--profile`-guided optimization, and the serve
//! daemon's cross-mode cache discipline.
//!
//! The contract under test, end to end:
//!
//! * `fdi profile` is deterministic — repeated collections over the same
//!   source produce byte-identical artifacts;
//! * guided `fdi optimize` is deterministic and actually *guided*: at a
//!   binding size budget its output differs from static order, and both
//!   modes honor the budget;
//! * a stale profile degrades to the static result with a warning, never
//!   silently reorders and never fails the run;
//! * a guided daemon's answers are byte-identical across `--jobs 1/4/8`
//!   and match the in-process guided reference;
//! * guided and static runs never share a disk-store entry: a store warmed
//!   by a static daemon yields zero hits to a guided daemon on the same
//!   job, and each mode warms its own key;
//! * in process, every benchmark's profile at test scale keeps its
//!   recorded site count, totals and fingerprint (the fingerprint keys
//!   caches, so a changed byte in the artifact would split them).

use fdi_telemetry::json::{self, Json};
use fdi_telemetry::DecisionReason;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fdi-profile-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn fdi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fdi"))
        .args(args)
        .output()
        .expect("run fdi")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "fdi failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// The lattice benchmark at test scale: small enough to profile in
/// milliseconds, rich enough that guided and static order pick different
/// sites at a half-size budget.
fn bench_source() -> String {
    fdi_benchsuite::by_name("lattice")
        .expect("lattice benchmark exists")
        .scaled(1)
}

/// A size budget that binds: half the specialized size an unbudgeted run
/// commits, exactly how `bench_snapshot` picks its budgets.
fn binding_budget(src: &str) -> usize {
    let out = fdi_core::optimize(src, &fdi_core::PipelineConfig::default())
        .expect("unbudgeted run succeeds");
    let total: usize = out
        .decisions
        .iter()
        .filter_map(|d| match d.reason {
            DecisionReason::Inlined { specialized_size } => Some(specialized_size),
            _ => None,
        })
        .sum();
    (total / 2).max(1)
}

#[test]
fn profile_artifacts_are_byte_identical_across_runs() {
    let dir = temp_dir("artifact");
    let src_path = dir.join("bench.scm");
    std::fs::write(&src_path, bench_source()).unwrap();
    let src = src_path.to_str().unwrap();
    let (a, b) = (dir.join("a.fdiprof"), dir.join("b.fdiprof"));
    stdout_of(&fdi(&["profile", src, "-o", a.to_str().unwrap()]));
    stdout_of(&fdi(&["profile", src, "-o", b.to_str().unwrap()]));
    let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "repeated collections are byte-identical");
    let profile = fdi_profile::Profile::load(&a).expect("artifact round-trips");
    assert!(!profile.stale(&bench_source()), "fresh for its own source");
    assert!(profile.sites.iter().any(|s| s.calls > 0), "saw real calls");
}

#[test]
fn guided_optimize_is_deterministic_and_differs_from_static() {
    let dir = temp_dir("optimize");
    let src_path = dir.join("bench.scm");
    let source = bench_source();
    std::fs::write(&src_path, &source).unwrap();
    let src = src_path.to_str().unwrap();
    let prof = dir.join("bench.fdiprof");
    stdout_of(&fdi(&["profile", src, "-o", prof.to_str().unwrap()]));
    let budget = binding_budget(&source).to_string();

    let static_out = stdout_of(&fdi(&["optimize", src, "--size-budget", &budget]));
    let guided = || {
        stdout_of(&fdi(&[
            "optimize",
            src,
            "--size-budget",
            &budget,
            "--profile",
            prof.to_str().unwrap(),
        ]))
    };
    let first = guided();
    assert_eq!(first, guided(), "guided runs are byte-identical");
    assert_ne!(
        first, static_out,
        "a binding budget makes the guide pick different sites"
    );
}

#[test]
fn stale_profile_falls_back_to_the_static_result() {
    let dir = temp_dir("stale");
    let src_path = dir.join("bench.scm");
    std::fs::write(&src_path, bench_source()).unwrap();
    let other_path = dir.join("other.scm");
    std::fs::write(&other_path, "(define (id x) x) (id 42)").unwrap();
    let prof = dir.join("other.fdiprof");
    stdout_of(&fdi(&[
        "profile",
        other_path.to_str().unwrap(),
        "-o",
        prof.to_str().unwrap(),
    ]));

    let src = src_path.to_str().unwrap();
    let budget = binding_budget(&bench_source()).to_string();
    let static_out = fdi(&["optimize", src, "--size-budget", &budget]);
    let stale = fdi(&[
        "optimize",
        src,
        "--size-budget",
        &budget,
        "--profile",
        prof.to_str().unwrap(),
    ]);
    assert_eq!(
        stdout_of(&stale),
        stdout_of(&static_out),
        "stale profile degrades to the static order"
    );
    let warning = String::from_utf8_lossy(&stale.stderr);
    assert!(
        warning.contains("stale"),
        "stderr names the degradation: {warning}"
    );
}

#[test]
fn explain_json_carries_each_profiled_sites_measurements() {
    let dir = temp_dir("explain");
    let src_path = dir.join("bench.scm");
    std::fs::write(&src_path, bench_source()).unwrap();
    let src = src_path.to_str().unwrap();
    let prof = dir.join("bench.fdiprof");
    stdout_of(&fdi(&["profile", src, "-o", prof.to_str().unwrap()]));
    let profile = fdi_profile::Profile::load(&prof).expect("artifact loads");

    let explained = stdout_of(&fdi(&[
        "explain",
        src,
        "--json",
        "-t",
        "200",
        "--profile",
        prof.to_str().unwrap(),
    ]));
    let (mut lines, mut measured) = (0, 0);
    let mut trace_ids = std::collections::BTreeSet::new();
    for line in explained.lines() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let members = doc.as_obj().expect("one object per line");
        assert_eq!(members[0].0, "trace_id", "{line}");
        trace_ids.insert(members[0].1.as_str().expect("string id").to_string());
        let site = doc.get("site").and_then(Json::as_str).expect("site label");
        let num = |key: &str| doc.get(key).and_then(Json::as_num);
        match profile.sites.iter().find(|s| s.site == site) {
            Some(row) => {
                assert_eq!(num("calls"), Some(row.calls as f64), "{line}");
                assert_eq!(num("benefit"), Some(row.cost as f64), "{line}");
                measured += 1;
            }
            None => assert!(num("calls").is_none() && num("benefit").is_none(), "{line}"),
        }
        lines += 1;
    }
    assert!(lines > 0, "explain printed decisions");
    assert!(measured > 0, "some decided site was profiled");
    assert_eq!(trace_ids.len(), 1, "one job, one trace id: {trace_ids:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let dir = temp_dir("portfile");
        let port_file = dir.join("port");
        let child = Command::new(env!("CARGO_BIN_EXE_fdi"))
            .arg("serve")
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fdi serve");
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

    fn request(&self, line: &str) -> Json {
        let mut stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
        writeln!(stream, "{line}").expect("send request");
        stream.flush().expect("flush request");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read response");
        json::parse(response.trim()).expect("well-formed response line")
    }

    fn shutdown(mut self) {
        let resp = self.request("{\"op\":\"shutdown\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            assert!(Instant::now() < deadline, "daemon never exited");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn engine_stat(&self, key: &str) -> f64 {
        let stats = self.request("{\"op\":\"stats\"}");
        stats
            .get("stats")
            .and_then(|engine| engine.get(key))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("stats lacks {key:?}: {stats:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn job_request(spec: &Path, budget: usize) -> String {
    format!(
        "{{\"op\":\"job\",\"spec\":\"{}\",\"flags\":[\"--size-budget\",\"{budget}\"]}}",
        spec.display()
    )
}

fn optimized_of(resp: &Json) -> String {
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    resp.get("optimized")
        .and_then(Json::as_str)
        .expect("job response carries optimized text")
        .to_string()
}

#[test]
fn guided_serve_is_byte_identical_across_jobs_1_4_8() {
    let dir = temp_dir("jobs");
    let src_path = dir.join("bench.scm");
    std::fs::write(&src_path, bench_source()).unwrap();
    let prof = dir.join("bench.fdiprof");
    stdout_of(&fdi(&[
        "profile",
        src_path.to_str().unwrap(),
        "-o",
        prof.to_str().unwrap(),
    ]));
    let budget = binding_budget(&bench_source());

    let mut answers = Vec::new();
    for jobs in ["1", "4", "8"] {
        let daemon = Daemon::spawn(&["--jobs", jobs, "--profile", prof.to_str().unwrap()]);
        // Several submissions so multi-worker runs actually race.
        let texts: Vec<String> = (0..4)
            .map(|_| optimized_of(&daemon.request(&job_request(&src_path, budget))))
            .collect();
        assert!(
            texts.windows(2).all(|w| w[0] == w[1]),
            "one daemon, one answer (--jobs {jobs})"
        );
        assert!(
            daemon.engine_stat("profile_applied") >= 1.0,
            "the guide was live (--jobs {jobs})"
        );
        answers.push(texts.into_iter().next().unwrap());
        daemon.shutdown();
    }
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "guided answers are byte-identical across --jobs 1/4/8"
    );
}

#[test]
fn guided_and_static_daemons_never_share_a_store_entry() {
    let dir = temp_dir("store");
    let store = dir.join("store");
    let src_path = dir.join("bench.scm");
    std::fs::write(&src_path, bench_source()).unwrap();
    let prof = dir.join("bench.fdiprof");
    stdout_of(&fdi(&[
        "profile",
        src_path.to_str().unwrap(),
        "-o",
        prof.to_str().unwrap(),
    ]));
    let budget = binding_budget(&bench_source());
    let store_flag: &[&str] = &["--store", store.to_str().unwrap()];

    // A static daemon warms the store with the static answer.
    let daemon = Daemon::spawn(store_flag);
    let static_text = optimized_of(&daemon.request(&job_request(&src_path, budget)));
    assert_eq!(daemon.engine_stat("store_hits"), 0.0);
    daemon.shutdown();

    // A guided daemon on the same store must not be served the static
    // artifact: its cache key carries the profile fingerprint.
    let mut guided_args = vec!["--profile", prof.to_str().unwrap()];
    guided_args.extend_from_slice(store_flag);
    let daemon = Daemon::spawn(&guided_args);
    let guided_text = optimized_of(&daemon.request(&job_request(&src_path, budget)));
    assert_eq!(
        daemon.engine_stat("store_hits"),
        0.0,
        "guided run never hits the static entry"
    );
    assert!(daemon.engine_stat("store_misses") >= 1.0);
    assert_ne!(guided_text, static_text, "the guide changed the answer");
    daemon.shutdown();

    // Its own key, once written, is warm for a fresh guided daemon (a
    // same-daemon resubmit would answer from the in-memory cache instead).
    let daemon = Daemon::spawn(&guided_args);
    assert_eq!(
        optimized_of(&daemon.request(&job_request(&src_path, budget))),
        guided_text
    );
    assert!(daemon.engine_stat("store_hits") >= 1.0);
    daemon.shutdown();

    // And the static key is still intact for a fresh static daemon.
    let daemon = Daemon::spawn(store_flag);
    assert_eq!(
        optimized_of(&daemon.request(&job_request(&src_path, budget))),
        static_text
    );
    assert!(daemon.engine_stat("store_hits") >= 1.0);
    daemon.shutdown();
}

/// `(benchmark, sites.len(), total_calls, total_cost, fingerprint())` of
/// the profile `Profile::collect` takes of each benchmark at test scale.
type ProfileRow = (&'static str, usize, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN_PROFILES: &[ProfileRow] = &[
    ("lattice", 60, 165241, 1935705, 0xa683c201a5ed9790),
    ("boyer", 90, 95655, 1106087, 0x818bac6e015da41a),
    ("graphs", 59, 25007, 300316, 0x4790892f9e01e8df),
    ("matrix", 67, 24675, 302351, 0xee6602f13046990b),
    ("maze", 42, 15559, 183536, 0xec2e38754c8a7496),
    ("splay", 97, 192466, 2293120, 0x7c26d6df0887c80a),
    ("nbody", 20, 4178, 52259, 0x580249dfbb8891a9),
    ("dynamic", 140, 12244, 148193, 0xe736a5d2bee50f0d),
];

#[test]
fn every_benchmark_profile_matches_the_recorded_table() {
    let got: Vec<ProfileRow> = fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| {
            let p = fdi_profile::Profile::collect(
                &b.scaled(b.test_scale),
                None,
                &fdi_vm::RunConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            (
                b.name,
                p.sites.len(),
                p.total_calls,
                p.total_cost,
                p.fingerprint(),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, s, c, k, fp)| format!("    ({n:?}, {s}, {c}, {k}, {fp:#018x}),\n"))
        .collect();
    assert_eq!(
        got, GOLDEN_PROFILES,
        "profiles moved; actual table:\n{table}"
    );
}
