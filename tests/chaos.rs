//! Chaos acceptance harness: the whole benchmark suite under deterministic
//! fault injection.
//!
//! Three guarantees, straight from the fault model's contract:
//!
//! 1. **Coverage without casualties** — a seeded sweep fires every
//!    catalogued fault point at least once while the engine completes a
//!    full 8-benchmark batch with zero hangs, zero lost jobs, and
//!    byte-identical outputs for every job chaos did not touch.
//! 2. **Oracle soundness** — with translation validation enabled, the
//!    suite passes the oracle at every inlining threshold: flow-directed
//!    inlining never changes observable behaviour.
//! 3. **Oracle completeness (for injected miscompiles)** — a deliberately
//!    miscompiled program is caught, rolled back to the last validated
//!    program, and surfaced as an oracle rejection in `health`.
//!
//! Everything here is reproducible from fixed seeds; there is no wall-clock
//! or RNG dependence anywhere in the fault plans.

use fdi_core::faults::{fired_counts, FaultPlan, FaultPoint, ALL_FAULT_POINTS, CHAOS_SEED};
use fdi_core::{OracleConfig, PipelineConfig, RunConfig};
use fdi_engine::{Engine, EngineConfig, Job, JobHandle};

/// The pipeline-side points plus the oracle's miscompile seam and the
/// specialization-cache evict seam — the ones driven by a *job's* fault
/// plan rather than the engine's.
const PIPELINE_POINTS: &[FaultPoint] = &[
    FaultPoint::Parse,
    FaultPoint::Expand,
    FaultPoint::Lower,
    FaultPoint::Analyze,
    FaultPoint::Inline,
    FaultPoint::SpecCacheEvict,
    FaultPoint::Simplify,
    FaultPoint::Validate,
    FaultPoint::Miscompile,
];

/// The engine-side seams: cache gates and pool scheduling.
const ENGINE_POINTS: &[FaultPoint] = &[
    FaultPoint::CacheAbandon,
    FaultPoint::CacheEvict,
    FaultPoint::CacheCorrupt,
    FaultPoint::WorkerPanic,
    FaultPoint::QueueDelay,
];

/// The disk-store seams: torn writes, read faults, bit rot, and a full
/// disk. Only reachable on engines configured with a store directory.
const STORE_POINTS: &[FaultPoint] = &[
    FaultPoint::StoreWrite,
    FaultPoint::StoreRead,
    FaultPoint::StoreCorrupt,
    FaultPoint::StoreFull,
];

fn bench_sources() -> Vec<(&'static str, String)> {
    fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (b.name, b.scaled(b.test_scale)))
        .collect()
}

fn optimized_text(handle: &JobHandle) -> Option<(String, bool)> {
    match handle.wait() {
        Ok(out) => Some((
            fdi_lang::unparse(&out.optimized).to_string(),
            out.health.degradations.is_empty(),
        )),
        Err(_) => None,
    }
}

#[test]
fn chaos_sweep_fires_every_point_and_loses_nothing() {
    let before = fired_counts();
    let benches = bench_sources();
    let thresholds = [0usize, 200, 1000];

    // Reference run: a clean engine over the full benchmark sweep.
    let clean = Engine::new(EngineConfig::with_workers(4));
    let mut clean_out = Vec::new();
    for (name, src) in &benches {
        for &t in &thresholds {
            let h = clean.submit(Job::new(src.clone(), PipelineConfig::with_threshold(t)));
            clean_out.push(((name, t), h));
        }
    }
    let clean_out: Vec<_> = clean_out
        .into_iter()
        .map(|(key, h)| {
            let (text, healthy) = optimized_text(&h).expect("clean run must succeed");
            assert!(healthy, "clean run must not degrade");
            (key, text)
        })
        .collect();

    // Chaos run: the engine's own seams armed with the chaos seed, plus one
    // targeted job per pipeline point so every catalogued point is
    // provoked, not merely possible.
    let chaos = Engine::new(EngineConfig {
        workers: 4,
        faults: FaultPlan::new(CHAOS_SEED).with_limit(6),
        ..EngineConfig::default()
    });
    let mut sweep = Vec::new();
    for (name, src) in &benches {
        for &t in &thresholds {
            let h = chaos.submit(Job::new(src.clone(), PipelineConfig::with_threshold(t)));
            sweep.push(((name, t), h));
        }
    }
    let mut targeted = Vec::new();
    for (i, &point) in PIPELINE_POINTS.iter().enumerate() {
        let (_, src) = &benches[i % benches.len()];
        let mut config = PipelineConfig::with_threshold(200);
        config.faults = FaultPlan::only(0xC0FFEE + i as u64, &[point]).with_limit(1);
        config.oracle = OracleConfig::on();
        targeted.push(chaos.submit(Job::new(src.clone(), config)));
    }

    // Zero hangs / zero lost jobs: every handle resolves, the engine's
    // completion count matches what we submitted, and any job that still
    // failed after retries is an *injected* failure sitting in the poison
    // list — reported, never silently dropped.
    let submitted = (sweep.len() + targeted.len()) as u64;
    for ((name, t), h) in &sweep {
        if let Err(e) = h.wait() {
            assert!(
                e.to_string().contains("injected fault"),
                "{name}@{t}: non-injected failure under chaos: {e}"
            );
        }
    }
    for h in &targeted {
        let _ = h.wait(); // targeted faults may fail; they must not hang
    }
    let stats = chaos.stats();
    assert_eq!(stats.jobs_submitted, submitted);
    assert_eq!(
        stats.jobs_completed, submitted,
        "every submitted job must complete (none deduped, none lost)"
    );
    assert_eq!(stats.jobs_deduped, 0);
    let poisoned = chaos.poisoned();
    let failed = sweep.iter().filter(|(_, h)| h.wait().is_err()).count();
    assert!(
        poisoned.len() >= failed,
        "every exhausted sweep job must be quarantined ({failed} failed, {} poisoned)",
        poisoned.len()
    );

    // Byte-identical outputs for unaffected jobs: any chaos-run job that
    // reports a fully healthy result must match the clean run exactly.
    let mut compared = 0;
    for (((name, t), h), ((cname, ct), clean_text)) in sweep.iter().zip(clean_out.iter()) {
        assert_eq!((name, t), (cname, ct), "sweep order is deterministic");
        if let Some((text, healthy)) = optimized_text(h) {
            if healthy {
                assert_eq!(
                    &text, clean_text,
                    "{name}@{t}: unaffected job diverged from clean run"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 0, "some sweep jobs must come through unscathed");
    drop(chaos);

    // Deterministic engine-seam coverage: the sweep above fires them
    // probabilistically (1-in-3); these mini-runs guarantee each seam
    // fires at least once regardless of scheduling.
    for (i, &point) in ENGINE_POINTS.iter().enumerate() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            faults: FaultPlan::only(0xBEEF + i as u64, &[point]).with_limit(2),
            retry_backoff: std::time::Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let (_, src) = &benches[0];
        // Two thresholds over one source: the second parse-cache access is
        // a hit, which is what the corruption seam needs to be reachable.
        let a = engine.submit(Job::new(src.clone(), PipelineConfig::with_threshold(0)));
        let b = engine.submit(Job::new(src.clone(), PipelineConfig::with_threshold(200)));
        assert!(a.wait().is_ok() && b.wait().is_ok(), "{point:?} mini-run");
        drop(engine);
    }

    // Store-seam coverage: the sweep engines run storeless, so each disk
    // seam gets its own mini-run against a throwaway store directory. A
    // save arms the write-side seams (torn write, post-write corruption); a
    // lookup arms the read-side seam — and in every case the job's answer
    // is computed fresh and correct, the store fault only costing a miss.
    for (i, &point) in STORE_POINTS.iter().enumerate() {
        let root = std::env::temp_dir().join(format!("fdi-chaos-store-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            faults: FaultPlan::only(0xD00D + i as u64, &[point]).with_limit(2),
            store: Some(root.clone()),
            ..EngineConfig::default()
        });
        let (_, src) = &benches[0];
        let job = Job::new(src.clone(), PipelineConfig::with_threshold(200));
        assert!(
            engine.submit(job.clone()).wait().is_ok(),
            "{point:?} store mini-run must still answer"
        );
        let _ = engine.lookup_stored(&job);
        drop(engine);
        let _ = std::fs::remove_dir_all(&root);
    }

    let after = fired_counts();
    for &point in ALL_FAULT_POINTS {
        assert!(
            after[point.index()] > before[point.index()],
            "fault point {point:?} never fired during the chaos sweep"
        );
    }
}

/// The ISSUE's resource-governance acceptance bar: the full benchmark
/// sweep under **combined** pressure — a starvation-level cache budget, a
/// tight store quota driving LRU GC, injected ENOSPC, and injected bit rot
/// — must lose zero jobs and answer byte-identically to a clean engine.
/// Then a fresh engine over the survivor store must do the same: whatever
/// the GC and the corruption left behind is either served faithfully or
/// recomputed, never served wrong.
#[test]
fn combined_resource_pressure_loses_nothing_and_stays_byte_identical() {
    let benches = bench_sources();
    let thresholds = [0usize, 200];

    let clean = Engine::new(EngineConfig::with_workers(4));
    let mut clean_out = Vec::new();
    for (name, src) in &benches {
        for &t in &thresholds {
            let h = clean.submit(Job::new(src.clone(), PipelineConfig::with_threshold(t)));
            clean_out.push(((*name, t), h));
        }
    }
    let clean_out: Vec<_> = clean_out
        .into_iter()
        .map(|(key, h)| {
            let (text, healthy) = optimized_text(&h).expect("clean run succeeds");
            assert!(healthy);
            (key, text)
        })
        .collect();

    let root = std::env::temp_dir().join(format!("fdi-chaos-pressure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Far below the suite's total artifact footprint (so the GC must run)
    // but above its largest single artifact (~18 KiB) — the GC never
    // self-evicts the artifact whose save triggered it, so a quota smaller
    // than one artifact is legitimately exceeded by that artifact.
    let quota: u64 = 32 * 1024;
    // Two injected ENOSPC rejections — enough to prove writes fail without
    // failing jobs, but below the engine's memory-only degradation
    // threshold, so later writes land and the quota GC has work to do.
    let pressured = Engine::new(EngineConfig {
        workers: 4,
        cache_bytes: Some(4096),
        store: Some(root.clone()),
        store_bytes: Some(quota),
        faults: FaultPlan::only(0x9E55, &[FaultPoint::StoreFull]).with_limit(2),
        retry_backoff: std::time::Duration::from_millis(1),
        ..EngineConfig::default()
    });
    let mut handles = Vec::new();
    for (name, src) in &benches {
        for &t in &thresholds {
            let h = pressured.submit(Job::new(src.clone(), PipelineConfig::with_threshold(t)));
            handles.push(((*name, t), h));
        }
    }
    // Zero lost jobs, zero wrong answers: resource pressure and disk
    // faults are absorbed, never surfaced as failures or divergence.
    for (((name, t), h), ((cname, ct), clean_text)) in handles.iter().zip(clean_out.iter()) {
        assert_eq!((name, t), (cname, ct));
        let (text, healthy) =
            optimized_text(h).unwrap_or_else(|| panic!("{name}@{t}: lost under resource pressure"));
        assert!(healthy, "{name}@{t}: degraded under resource pressure");
        assert_eq!(&text, clean_text, "{name}@{t}: diverged under pressure");
    }
    let stats = pressured.stats();
    assert_eq!(stats.jobs_completed, handles.len() as u64);
    assert_eq!(
        stats.store_write_failures, 2,
        "both injected ENOSPC faults must be absorbed: {stats:?}"
    );
    assert!(
        stats.cache_evictions_pressure > 0,
        "a 4 KiB cache budget over the suite must shed entries: {stats:?}"
    );
    assert!(
        stats.store_gc_evictions >= 1,
        "the store quota must trigger GC: {stats:?}"
    );
    assert!(
        stats.store_bytes_used <= quota,
        "store footprint {} over quota {quota}: {stats:?}",
        stats.store_bytes_used
    );
    drop(pressured);

    // Restart over whatever survived: every answer still byte-identical.
    let survivor = Engine::new(EngineConfig {
        workers: 4,
        store: Some(root.clone()),
        ..EngineConfig::default()
    });
    for ((name, t), clean_text) in &clean_out {
        let h = survivor.submit(Job::new(
            benches.iter().find(|(n, _)| n == name).unwrap().1.clone(),
            PipelineConfig::with_threshold(*t),
        ));
        let (text, healthy) =
            optimized_text(&h).unwrap_or_else(|| panic!("{name}@{t}: lost after restart"));
        assert!(
            healthy && &text == clean_text,
            "{name}@{t}: wrong after restart"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oracle_passes_the_suite_at_every_threshold() {
    let engine = Engine::new(EngineConfig::with_workers(4));
    let thresholds = [0usize, 50, 100, 200, 500, 1000];
    let mut handles = Vec::new();
    for (name, src) in &bench_sources() {
        for &t in &thresholds {
            let mut config = PipelineConfig::with_threshold(t);
            config.oracle = OracleConfig::on();
            handles.push((*name, t, engine.submit(Job::new(src.clone(), config))));
        }
    }
    for (name, t, h) in handles {
        let out = h.wait().unwrap_or_else(|e| panic!("{name}@{t}: {e}"));
        assert!(
            !out.health.oracle_rejected(),
            "{name}@{t}: oracle rejected a genuine optimization: {}",
            out.health.summary()
        );
        assert!(
            out.health.degradations.is_empty(),
            "{name}@{t}: unexpected degradation: {}",
            out.health.summary()
        );
    }
}

#[test]
fn miscompiled_program_is_caught_and_degraded() {
    let bench = &fdi_benchsuite::BENCHMARKS[0];
    let src = bench.scaled(bench.test_scale);
    let mut config = PipelineConfig::with_threshold(200);
    config.faults = FaultPlan::only(0xBAD, &[FaultPoint::Miscompile]).with_limit(1);
    config.oracle = OracleConfig::on();

    let out = fdi_core::optimize(&src, &config).expect("degrades, not fails");
    assert!(
        out.health.oracle_rejected(),
        "the injected miscompile must be caught by the oracle: {}",
        out.health.summary()
    );

    // The degraded output still behaves exactly like the baseline.
    let run_cfg = RunConfig::default();
    let base = fdi_vm::run(&out.baseline, &run_cfg).expect("baseline runs");
    let opt = fdi_vm::run(&out.optimized, &run_cfg).expect("degraded output runs");
    assert_eq!(base.value, opt.value, "rollback preserved behaviour");
}

/// The specialization cache is pure memoization, so chaos-evicting it
/// mid-flight must be invisible in the output: a batch whose jobs carry a
/// seeded spec-cache-evict fault answers byte-identically to a clean
/// engine, with zero degradations — the evict only costs re-specialization.
#[test]
fn spec_cache_evict_is_output_invisible() {
    let before = fired_counts();
    let benches = bench_sources();
    let thresholds = [0usize, 200, 1000];

    let clean = Engine::new(EngineConfig::with_workers(2));
    let chaos = Engine::new(EngineConfig::with_workers(2));
    for (name, src) in benches.iter().take(3) {
        for (i, &t) in thresholds.iter().enumerate() {
            let clean_h = clean.submit(Job::new(src.clone(), PipelineConfig::with_threshold(t)));
            let mut config = PipelineConfig::with_threshold(t);
            config.faults =
                FaultPlan::only(0x5EC5 + i as u64, &[FaultPoint::SpecCacheEvict]).with_limit(2);
            let chaos_h = chaos.submit(Job::new(src.clone(), config));
            let (want, _) = optimized_text(&clean_h).expect("clean job succeeds");
            let (got, healthy) = optimized_text(&chaos_h).expect("evicted job succeeds");
            assert!(healthy, "{name}@{t}: spec-cache evict must not degrade");
            assert_eq!(got, want, "{name}@{t}: spec-cache evict changed the output");
        }
    }

    let after = fired_counts();
    let idx = FaultPoint::SpecCacheEvict.index();
    assert!(
        after[idx] > before[idx],
        "the spec-cache-evict seam must actually fire"
    );
}

// ---------------------------------------------------------------------------
// Observability under chaos: the flight recorder and metrics registry must
// tell the truth through the same failures the engine survives. These two
// tests drive the real daemon binary, because the properties under test —
// surviving SIGKILL via the store-backed write-through, and counters staying
// monotone while the engine's worker pool panics and respawns — only exist
// at the process boundary.

/// Minimal `fdi serve` driver (see tests/serve.rs for the full-featured
/// twin; this one only needs spawn/request/kill).
struct ChaosDaemon {
    child: std::process::Child,
    port: u16,
}

impl ChaosDaemon {
    fn spawn(store: &std::path::Path, extra: &[&str]) -> ChaosDaemon {
        let port_file = store.join("chaos-port");
        let _ = std::fs::remove_file(&port_file);
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_fdi"))
            .arg("serve")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--store")
            .arg(store)
            .args(extra)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn fdi serve");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse().ok())
            {
                break p;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never published its port"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        ChaosDaemon { child, port }
    }

    fn request(&self, line: &str) -> fdi_telemetry::json::Json {
        use std::io::{BufRead, BufReader, Write};
        let mut stream =
            std::net::TcpStream::connect(("127.0.0.1", self.port)).expect("connect to daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read response");
        fdi_telemetry::json::parse(response.trim()).expect("well-formed response")
    }
}

impl Drop for ChaosDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn chaos_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fdi-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A SIGKILL mid-batch must not erase the flight recorder: the store-backed
/// write-through re-seeds a fresh daemon's ring, so the pre-kill requests —
/// identified by the trace ids the clients were told — are still listed
/// after the crash, and the on-disk journal holds them too.
#[test]
fn flight_recorder_survives_a_mid_batch_sigkill() {
    use fdi_telemetry::json::Json;
    let store = chaos_temp_dir("flight");
    let mut pre_kill_traces = Vec::new();
    {
        let mut daemon = ChaosDaemon::spawn(&store, &["--jobs", "2"]);
        for b in fdi_benchsuite::BENCHMARKS.iter().take(3) {
            let reply = daemon.request(&format!(
                "{{\"op\":\"job\",\"spec\":\"bench:{}@{}\"}}",
                b.name, b.test_scale
            ));
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            let trace = reply
                .get("trace_id")
                .and_then(Json::as_str)
                .expect("trace id");
            pre_kill_traces.push(trace.to_string());
        }
        // The crash: no drain, no dump hook — only the write-through holds.
        daemon.child.kill().expect("SIGKILL daemon");
        let _ = daemon.child.wait();
    }

    let journal = std::fs::read_to_string(store.join("flight/requests.jsonl"))
        .expect("write-through journal survives the kill");
    for trace in &pre_kill_traces {
        assert!(journal.contains(trace), "journal lost request {trace}");
    }

    let daemon = ChaosDaemon::spawn(&store, &["--jobs", "2"]);
    let reply = daemon.request("{\"op\":\"flight\"}");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    let requests = reply
        .get("flight")
        .and_then(|f| f.get("requests"))
        .and_then(Json::as_arr)
        .expect("requests ring");
    let listed: Vec<&str> = requests
        .iter()
        .filter_map(|r| r.get("trace_id").and_then(Json::as_str))
        .collect();
    for trace in &pre_kill_traces {
        assert!(
            listed.contains(&trace.as_str()),
            "restarted recorder lost pre-kill request {trace}: {listed:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// Under a chaos fault plan that panics workers, the metrics registry's
/// counters and histograms must stay monotone across scrapes: a respawned
/// worker continues the totals, it never resets or double-books them.
#[test]
fn metrics_counters_stay_monotone_across_worker_respawns() {
    use fdi_telemetry::json::Json;
    let store = chaos_temp_dir("metrics");
    let daemon = ChaosDaemon::spawn(
        &store,
        &["--jobs", "2", "--engine-faults", &CHAOS_SEED.to_string()],
    );
    let scrape = |daemon: &ChaosDaemon| -> (f64, f64, f64) {
        let reply = daemon.request("{\"op\":\"metrics\"}");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        let m = reply.get("metrics").expect("metrics payload");
        let num = |j: Option<&Json>| j.and_then(Json::as_num).unwrap_or(0.0);
        (
            num(m
                .get("counters")
                .and_then(|c| c.get("serve.op.job"))
                .and_then(|c| c.get("total"))),
            num(m
                .get("histograms")
                .and_then(|h| h.get("job"))
                .and_then(|h| h.get("count"))),
            num(m
                .get("counters")
                .and_then(|c| c.get("engine.jobs_completed"))
                .and_then(|c| c.get("total"))),
        )
    };

    let mut last = scrape(&daemon);
    let mut answered = 0;
    for b in fdi_benchsuite::BENCHMARKS.iter() {
        let reply = daemon.request(&format!(
            "{{\"op\":\"job\",\"spec\":\"bench:{}@{}\"}}",
            b.name, b.test_scale
        ));
        // Chaos may fail individual jobs (typed), never the daemon; every
        // reply is a well-formed line either way.
        if reply.get("ok") == Some(&Json::Bool(true)) {
            answered += 1;
        }
        let now = scrape(&daemon);
        assert!(
            now.0 >= last.0,
            "serve.op.job went backwards: {last:?} → {now:?}"
        );
        assert!(
            now.1 >= last.1,
            "job histogram went backwards: {last:?} → {now:?}"
        );
        assert!(
            now.2 >= last.2,
            "jobs_completed went backwards: {last:?} → {now:?}"
        );
        last = now;
    }
    assert!(answered > 0, "chaos must not take out the whole suite");

    // The pool really did lose (and replace) workers along the way.
    let stats = daemon.request("{\"op\":\"stats\"}");
    let respawned = stats
        .get("stats")
        .and_then(|s| s.get("workers_respawned"))
        .and_then(Json::as_num)
        .expect("workers_respawned");
    assert!(
        respawned > 0.0,
        "chaos seed must respawn workers: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&store);
}
