//! The timed runs: end-to-end metrics with tracing off.

use crate::daemon::{parse_answer, stat, Answer, Conn, Daemon};
use crate::report::{geomean, median, metric, peak_rss_mb, quantile, Host, Outcome, J};
use crate::workload::{self, Request, Workload, ROUND};
use crate::Args;
use fdi_core::{PipelineConfig, RunConfig, SweepRow};
use fdi_engine::Engine;
use fdi_vm::Outcome as VmOutcome;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median. A bare daemon
/// start takes milliseconds, so `serve-cold` repeats it more often.
const SETUP_REPS: usize = 3;
const COLD_SETUP_REPS: usize = 15;

/// Latency recorded for a failed or rejected request: it misses any limit.
const MISSED: f64 = f64::MAX;

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    match args.workload {
        Workload::Sweep => sweep(args, host),
        Workload::ServeCold => serve_cold(args, host),
        Workload::ServeHot => serve_hot(args, host),
    }
}

/// The reference outcome of `source`: a VM run of the unoptimized lowered
/// program. Never produced by the optimizer.
pub fn reference(source: &str) -> Result<VmOutcome, String> {
    let program = fdi_lang::parse_and_lower(source).map_err(|e| format!("reference: {e}"))?;
    fdi_vm::run(&program, &RunConfig::default()).map_err(|e| format!("reference: {}", e.message))
}

/// Runs program text (an optimizer answer) on the VM.
fn execute_text(text: &str) -> Result<VmOutcome, String> {
    let program = fdi_lang::parse_and_lower(text).map_err(|e| format!("answer: {e}"))?;
    fdi_vm::run(&program, &RunConfig::default()).map_err(|e| format!("answer: {}", e.message))
}

fn same_behaviour(a: &VmOutcome, b: &VmOutcome) -> bool {
    a.value == b.value && a.output == b.output
}

fn cost(o: &VmOutcome) -> f64 {
    o.counters.total(&RunConfig::default().model) as f64
}

/// The metrics every workload reports, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    throughput: f64,
    latencies_ms: &[f64],
    rss_mb: f64,
    cost_ratio: f64,
    size_ratio: f64,
) {
    let success = if out.attempted == 0 {
        0.0
    } else {
        1.0 - out.failed as f64 / out.attempted as f64
    };
    out.metrics = vec![
        metric("setup_s", median(setups), "s"),
        metric("throughput_per_s", throughput, "1/s"),
        metric("latency_p50_ms", quantile(latencies_ms, 0.5), "ms"),
        metric("latency_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        metric("success_rate", success, "ratio"),
        metric("peak_rss_mb", rss_mb, "MiB"),
        metric("cost_ratio", cost_ratio, "ratio"),
        metric("size_ratio", size_ratio, "ratio"),
    ];
    let above_p90 = latencies_ms
        .iter()
        .filter(|&&l| l > quantile(latencies_ms, 0.9))
        .count();
    out.details.push((
        "latency_samples",
        J::obj(vec![
            ("count", J::Num(latencies_ms.len() as f64)),
            ("above_p90", J::Num(above_p90 as f64)),
            ("min_ms", J::Num(quantile(latencies_ms, 0.0))),
            ("max_ms", J::Num(quantile(latencies_ms, 1.0))),
        ]),
    ));
    out.details.push((
        "setup_samples_s",
        J::Arr(setups.iter().map(|&s| J::Num(s)).collect()),
    ));
}

// ---------------------------------------------------------------- sweep --

/// The Fig. 6 sweep: the eight benchmarks at default scale × the six
/// thresholds, each repetition on a cold `Engine` with `nproc` workers.
fn sweep(args: &Args, host: &Host) -> Result<Outcome, String> {
    let config = PipelineConfig::default();
    let run_config = RunConfig::default();
    // Set-up: build the sources, compute their reference outcomes on the
    // unoptimized programs, and construct the engine.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let sources = workload::sweep_sources();
        let refs = sources
            .iter()
            .map(|(_, s)| reference(s))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = Engine::with_jobs(host.nproc);
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some((sources, refs, engine));
    }
    let (sources, refs, engine) = prepared.expect("at least one set-up");
    let srcs: Vec<&str> = sources.iter().map(|(_, s)| s.as_str()).collect();

    let mut out = Outcome::default();
    let mut walls_ms = Vec::new();
    let mut first: Option<Vec<Vec<SweepRow>>> = None;
    let mut spec_hits = Vec::new();
    let mut engine = Some(engine);
    let started = Instant::now();
    while walls_ms.is_empty() || started.elapsed() < args.budget() {
        let e = engine
            .take()
            .unwrap_or_else(|| Engine::with_jobs(host.nproc));
        let rep = Instant::now();
        let results = e.sweep_many(&srcs, &workload::THRESHOLDS, &config, &run_config);
        walls_ms.push(rep.elapsed().as_secs_f64() * 1e3);
        spec_hits.push(J::Num(e.stats().spec_hits as f64));
        let mut rows = Vec::new();
        for ((bench, _), (result, reference)) in sources.iter().zip(results.into_iter().zip(&refs))
        {
            out.attempted += workload::THRESHOLDS.len() as u64;
            match result {
                Err(e) => {
                    out.failed += workload::THRESHOLDS.len() as u64;
                    out.problem(format!("{}: sweep failed: {e}", bench.name));
                    rows.push(Vec::new());
                }
                Ok(r) => {
                    for row in &r {
                        if row.health.degraded() || row.value != reference.value {
                            out.failed += 1;
                            out.problem(format!(
                                "{} T={}: degraded or wrong value {:?} (expected {:?})",
                                bench.name, row.threshold, row.value, reference.value
                            ));
                        }
                    }
                    rows.push(r);
                }
            }
        }
        match &first {
            None => first = Some(rows),
            Some(f) => {
                // The optimizer is deterministic: every repetition must
                // reproduce the first one's sizes and VM counters exactly.
                let same = f.iter().zip(&rows).all(|(a, b)| {
                    a.len() == b.len()
                        && a.iter()
                            .zip(b)
                            .all(|(x, y)| x.size_ratio == y.size_ratio && x.counters == y.counters)
                });
                if !same {
                    out.problem("sweep repetitions disagree on sizes or VM counters".into());
                }
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cells = out.attempted as f64;
    let rss = peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let rows = first.expect("at least one repetition");

    // Rows agree with their threshold-0 row on value and output, or they
    // are flagged degraded; so check the threshold-0 program's behaviour
    // against the reference, and tie it to the row by its VM counters.
    for (((bench, src), reference), r) in sources.iter().zip(&refs).zip(&rows) {
        let Some(row0) = r.first() else { continue };
        let checked = fdi_lang::parse_and_lower(src)
            .map_err(|e| e.to_string())
            .and_then(|p| {
                fdi_core::optimize_program(&p, &PipelineConfig::with_threshold(0))
                    .map_err(|e| e.to_string())
            })
            .and_then(|o| fdi_vm::run(&o.optimized, &run_config).map_err(|e| e.message));
        match checked {
            Ok(o) if same_behaviour(&o, reference) && o.counters == row0.counters => {}
            Ok(_) => out.problem(format!(
                "{}: threshold-0 behaviour differs from reference",
                bench.name
            )),
            Err(e) => out.problem(format!("{}: threshold-0 check failed: {e}", bench.name)),
        }
    }

    let optimized: Vec<&SweepRow> = rows.iter().flatten().filter(|r| r.threshold != 0).collect();
    let cost_ratio = geomean(&optimized.iter().map(|r| r.norm_total).collect::<Vec<_>>());
    let size_ratio = geomean(&optimized.iter().map(|r| r.size_ratio).collect::<Vec<_>>());
    end_to_end(
        &mut out,
        &setups,
        cells / elapsed,
        &walls_ms,
        rss,
        cost_ratio,
        size_ratio,
    );
    out.details
        .push(("repetitions", J::Num(walls_ms.len() as f64)));
    out.details
        .push(("engine_spec_hits_per_rep", J::Arr(spec_hits)));
    out.details.push((
        "rows",
        J::Arr(
            sources
                .iter()
                .zip(&rows)
                .flat_map(|((b, _), r)| {
                    r.iter().map(|row| {
                        J::obj(vec![
                            ("bench", J::str(b.name)),
                            ("threshold", J::Num(row.threshold as f64)),
                            ("size_ratio", J::Num(row.size_ratio)),
                            ("norm_total", J::Num(row.norm_total)),
                            ("sites_inlined", J::Num(row.report.sites_inlined as f64)),
                        ])
                    })
                })
                .collect(),
        ),
    ));
    Ok(out)
}

// ---------------------------------------------------------------- serve --

/// Starts a daemon `reps` times (each on a fresh store), running
/// `fill` on the first connection as part of set-up; keeps the last one.
/// Returns it with `nproc` open connections and the set-up times.
fn start_daemon<T>(
    bin: &Path,
    nproc: usize,
    reps: usize,
    mut fill: impl FnMut(&mut Conn) -> Result<T, String>,
) -> Result<(Daemon, Vec<Conn>, Vec<f64>, T), String> {
    let mut setups = Vec::new();
    for rep in 0..reps {
        let started = Instant::now();
        let (daemon, mut conn) = Daemon::start(bin, nproc)?;
        let filled = fill(&mut conn)?;
        setups.push(started.elapsed().as_secs_f64());
        if rep + 1 < reps {
            daemon.shutdown(conn)?;
            continue;
        }
        let mut conns = vec![conn];
        for _ in 1..nproc {
            conns.push(daemon.connect()?);
        }
        return Ok((daemon, conns, setups, filled));
    }
    Err("no set-up repetitions".into())
}

/// One closed-loop sample: request index, client latency, raw reply.
struct Sample {
    index: usize,
    latency_ms: f64,
    reply: Result<String, String>,
}

/// Closed loop: each connection sends its next request only after the
/// previous reply arrived, taking request indices from one shared counter
/// until the budget is spent or `line` runs out. Returns the samples in
/// index order and the phase's wall time.
fn closed_loop<'a>(
    conns: &mut [Conn],
    line: impl Fn(usize) -> Option<&'a str> + Sync,
    budget: Duration,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, samples, line) = (&next, &samples, &line);
            s.spawn(move || {
                let mut mine = Vec::new();
                while started.elapsed() < budget {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(text) = line(index) else { break };
                    let sent = Instant::now();
                    let reply = conn.call(text);
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    let broken = reply.is_err();
                    mine.push(Sample {
                        index,
                        latency_ms,
                        reply,
                    });
                    if broken {
                        break;
                    }
                }
                samples.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    (samples, elapsed)
}

/// Drains the daemon and records its stats and peak memory.
fn finish_daemon(out: &mut Outcome, daemon: Daemon, mut conns: Vec<Conn>) -> f64 {
    let mut conn = conns.swap_remove(0);
    drop(conns);
    match conn.stats() {
        Ok(stats) => out.details.push((
            "daemon_stats",
            J::obj(
                [
                    "jobs_completed",
                    "analysis_misses",
                    "analysis_hits",
                    "store_hits",
                    "store_writes",
                    "spec_hits",
                    "spec_misses",
                ]
                .iter()
                .map(|k| (*k, J::Num(stat(&stats, k))))
                .collect(),
            ),
        )),
        Err(e) => out.problem(format!("stats: {e}")),
    }
    let rss = daemon.peak_rss_mb();
    if let Err(e) = daemon.shutdown(conn) {
        out.problem(format!("shutdown: {e}"));
    }
    rss
}

/// Checks each answer against the reference run of its own source, on up
/// to `nproc` threads. Returns, per answer, its VM cost and the reference's
/// when it behaved like the reference.
fn check_answers(nproc: usize, jobs: &[(&Request, &Answer)]) -> Vec<Result<(f64, f64), String>> {
    let results = Mutex::new(vec![Err(String::new()); jobs.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..nproc.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((req, ans)) = jobs.get(i) else { break };
                let verdict = reference(&req.source).and_then(|r| {
                    let o = execute_text(&ans.optimized)?;
                    if same_behaviour(&o, &r) {
                        Ok((cost(&o), cost(&r)))
                    } else {
                        Err(format!(
                            "{} T={}: answer computes {:?}, reference {:?}",
                            req.bench.name, req.threshold, o.value, r.value
                        ))
                    }
                });
                results.lock().expect("result lock")[i] = verdict;
            });
        }
    });
    results.into_inner().expect("result lock")
}

/// `serve-cold`: closed-loop traffic of never-seen sources.
fn serve_cold(args: &Args, host: &Host) -> Result<Outcome, String> {
    let bin = &host.fdi;
    // Far more requests than any run can send; the list is a prefix-stable
    // function of the seed, so every run sends a prefix of the same list.
    let requests = workload::cold_requests(args.seed, 100 * args.seconds as usize + 2 * ROUND);
    let (daemon, mut conns, setups, ()) =
        start_daemon(bin, host.nproc, COLD_SETUP_REPS, |_| Ok(()))?;
    let (samples, elapsed) = closed_loop(
        &mut conns,
        |i| requests.get(i).map(|r| r.line.as_str()),
        args.budget(),
    );
    let mut out = Outcome::default();
    let rss = finish_daemon(&mut out, daemon, conns);

    out.attempted = samples.len() as u64;
    let mut latencies = Vec::with_capacity(samples.len());
    let mut answered = Vec::new();
    for s in &samples {
        let req = &requests[s.index];
        match s
            .reply
            .as_deref()
            .map_err(Clone::clone)
            .and_then(parse_answer)
        {
            Ok(ans) => {
                latencies.push(s.latency_ms);
                answered.push((s.index, req, ans));
            }
            Err(e) => {
                latencies.push(MISSED);
                out.failed += 1;
                out.problem(format!("request {}: {e}", s.index));
            }
        }
    }
    // Ratios over complete rounds only: each round is the whole grid, so
    // the ratios do not depend on how many requests the run fitted in.
    let complete = (samples.len() / ROUND) * ROUND;
    let jobs: Vec<(&Request, &Answer)> = answered.iter().map(|(_, r, a)| (*r, a)).collect();
    let verdicts = check_answers(host.nproc, &jobs);
    let (mut costs, mut sizes) = (Vec::new(), Vec::new());
    for ((index, req, ans), verdict) in answered.iter().zip(verdicts) {
        match verdict {
            Ok((opt, reference)) => {
                if *index < complete && req.threshold != 0 {
                    costs.push(opt / reference);
                    sizes.push(ans.optimized_size / ans.baseline_size);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.problem(e);
            }
        }
    }
    if complete == 0 {
        out.problem(format!(
            "only {} requests answered; less than one round",
            samples.len()
        ));
    }
    end_to_end(
        &mut out,
        &setups,
        samples.len() as f64 / elapsed,
        &latencies,
        rss,
        geomean(&costs),
        geomean(&sizes),
    );
    let mut per_bench: Vec<(String, J)> = Vec::new();
    for b in fdi_benchsuite::BENCHMARKS {
        let mine: Vec<f64> = samples
            .iter()
            .zip(&latencies)
            .filter(|(s, _)| requests[s.index].bench.name == b.name)
            .map(|(_, &l)| l)
            .collect();
        per_bench.push((
            b.name.to_string(),
            J::obj(vec![
                ("requests", J::Num(mine.len() as f64)),
                ("latency_p50_ms", J::Num(median(&mine))),
            ]),
        ));
    }
    out.details.push(("per_bench", J::Obj(per_bench)));
    out.details.push((
        "requests_digest",
        J::str(format!(
            "{:016x}",
            workload::digest(&requests[..samples.len()])
        )),
    ));
    out.details
        .push(("complete_rounds", J::Num((complete / ROUND) as f64)));
    Ok(out)
}

/// `serve-hot`: a small hot set stored during set-up, then repeated.
fn serve_hot(args: &Args, host: &Host) -> Result<Outcome, String> {
    let bin = &host.fdi;
    let hot = workload::hot_set(args.seed);
    let order = workload::hot_order(args.seed, hot.len(), 1000 * args.seconds as usize);
    // Set-up includes the pass that fills the store with the hot set.
    let (daemon, mut conns, setups, cold) = start_daemon(bin, host.nproc, SETUP_REPS, |conn| {
        hot.iter()
            .map(|r| conn.call(&r.line).and_then(|reply| parse_answer(&reply)))
            .collect::<Result<Vec<Answer>, String>>()
    })?;
    let (samples, elapsed) = closed_loop(
        &mut conns,
        |i| order.get(i).map(|&h| hot[h].line.as_str()),
        args.budget(),
    );
    let mut out = Outcome::default();
    let rss = finish_daemon(&mut out, daemon, conns);

    // The cold answers are checked against the reference; every hot answer
    // must then be a store hit, byte-identical to its cold answer.
    let jobs: Vec<(&Request, &Answer)> = hot.iter().zip(&cold).collect();
    let (mut costs, mut sizes) = (Vec::new(), Vec::new());
    for ((req, ans), verdict) in jobs.iter().zip(check_answers(host.nproc, &jobs)) {
        match verdict {
            Ok((opt, reference)) => {
                costs.push(opt / reference);
                sizes.push(ans.optimized_size / ans.baseline_size);
            }
            Err(e) => out.problem(format!("hot set, cold answer: {e} ({})", req.bench.name)),
        }
    }
    out.attempted = samples.len() as u64;
    let mut latencies = Vec::with_capacity(samples.len());
    for s in &samples {
        let h = order[s.index];
        let verdict = s
            .reply
            .as_deref()
            .map_err(Clone::clone)
            .and_then(parse_answer)
            .and_then(|a| {
                let expected = Answer {
                    cached: true,
                    ..cold[h].clone()
                };
                if a == expected {
                    Ok(())
                } else if !a.cached {
                    Err("hot request was not served from the store".to_string())
                } else {
                    Err("hot answer differs from its cold answer".to_string())
                }
            });
        match verdict {
            Ok(()) => latencies.push(s.latency_ms),
            Err(e) => {
                latencies.push(MISSED);
                out.failed += 1;
                out.problem(format!("request {} ({}): {e}", s.index, hot[h].bench.name));
            }
        }
    }
    end_to_end(
        &mut out,
        &setups,
        samples.len() as f64 / elapsed,
        &latencies,
        rss,
        geomean(&costs),
        geomean(&sizes),
    );
    out.details.push((
        "hot_set_digest",
        J::str(format!("{:016x}", workload::digest(&hot))),
    ));
    Ok(out)
}
