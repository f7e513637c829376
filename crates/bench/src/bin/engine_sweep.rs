//! Engine versus sequential: wall-clock of the full Fig. 6 sweep over the
//! benchmark suite, plus the engine's cache counters.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fdi-bench --bin engine_sweep -- \
//!     [--jobs N] [--reps R] [--scale test] [--out FILE] [--json FILE]
//! ```
//!
//! Runs the suite three ways — through `fdi_core::sweep` per benchmark
//! (sequential), through `fdi_engine::Engine::sweep_many` with `N` workers
//! (default 4) on a cold engine, and again on the now-warm engine (every
//! parse and analysis cached) — verifies the rows agree, and reports the
//! wall clocks (median over `--reps R` interleaved repetitions), speedups,
//! and the engine's cache statistics. `--out FILE` additionally writes the
//! report (this is how `results/engine_sweep.txt` is produced), and
//! `--json FILE` writes the same snapshot as one machine-readable JSON
//! object (this is how `results/BENCH_sweep.json` is produced), so perf
//! trends can be diffed across commits without parsing prose.
//!
//! Interpreting the numbers: the cold-engine speedup comes from
//! parallelism and needs more than one hardware thread (the report states
//! the host's available parallelism — on a single-core host the cold run
//! only adds scheduling overhead); the warm-engine speedup comes from the
//! artifact cache (zero front-end runs, zero CFAs) and shows on any host.

use fdi_bench::THRESHOLDS;
use fdi_core::{PipelineConfig, RunConfig, SweepRow};
use fdi_engine::Engine;
use fdi_telemetry::json::Json;
use fdi_testutil::timed;
use std::fmt::Write as _;

fn render(rows: &[SweepRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "t={} size={:016x} tot={:016x} val={:?} calls={}",
                r.threshold,
                r.size_ratio.to_bits(),
                r.norm_total.to_bits(),
                r.value,
                r.counters.calls
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = fdi_bench::jobs_flag(&mut args).unwrap_or(4);
    let test_scale = args.iter().any(|a| a == "--scale")
        && args
            .iter()
            .position(|a| a == "--scale")
            .is_some_and(|i| args.get(i + 1).map(String::as_str) == Some("test"));
    let out_file = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let json_file = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);

    let benches: Vec<(&str, String)> = fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| {
            let scale = if test_scale {
                b.test_scale
            } else {
                b.default_scale
            };
            (b.name, b.scaled(scale))
        })
        .collect();
    let sources: Vec<&str> = benches.iter().map(|(_, s)| s.as_str()).collect();
    let config = PipelineConfig::default();
    let run_config = RunConfig::default();

    // Interleave the three measurements `reps` times and take medians: the
    // workloads run for seconds, so scheduler and frequency noise on a
    // shared host otherwise dominates the comparison.
    let mut seq_walls = Vec::with_capacity(reps);
    let mut cold_walls = Vec::with_capacity(reps);
    let mut warm_walls = Vec::with_capacity(reps);
    let mut sequential = Vec::new();
    let mut parallel = Vec::new();
    let mut rewarm = Vec::new();
    let mut cold_stats = fdi_engine::EngineStats::default();
    let mut stats = cold_stats;
    for rep in 0..reps {
        let (seq, seq_wall) = timed(|| {
            sources
                .iter()
                .map(|src| fdi_core::sweep(src, THRESHOLDS, &config, &run_config))
                .collect::<Vec<_>>()
        });
        seq_walls.push(seq_wall);

        let engine = Engine::with_jobs(jobs);
        let (cold, cold_wall) =
            timed(|| engine.sweep_many(&sources, THRESHOLDS, &config, &run_config));
        cold_walls.push(cold_wall);
        let rep_cold_stats = engine.stats();
        // The same sweep on the warm engine: every parse and CFA is cached.
        let (warm, warm_wall) =
            timed(|| engine.sweep_many(&sources, THRESHOLDS, &config, &run_config));
        warm_walls.push(warm_wall);
        if rep == 0 {
            sequential = seq;
            parallel = cold;
            rewarm = warm;
            cold_stats = rep_cold_stats;
            stats = engine.stats();
        }
    }
    let median = |walls: &mut Vec<std::time::Duration>| {
        walls.sort();
        walls[walls.len() / 2]
    };
    let seq_wall = median(&mut seq_walls);
    let cold_wall = median(&mut cold_walls);
    let warm_wall = median(&mut warm_walls);

    let scale = if test_scale { "test" } else { "default" };
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = String::new();
    let _ = writeln!(
        report,
        "engine_sweep: {} benchmarks x {} thresholds ({scale} scale), host parallelism {host}, median of {} rep(s)",
        benches.len(),
        THRESHOLDS.len() + 1,
        reps,
    );
    let mut agree = true;
    for (((name, _), seq), engine_rows) in benches
        .iter()
        .zip(&sequential)
        .zip(parallel.iter().zip(&rewarm))
    {
        for par in [engine_rows.0, engine_rows.1] {
            let same = match (seq, par) {
                (Ok(a), Ok(b)) => render(a) == render(b),
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            };
            if !same {
                agree = false;
                let _ = writeln!(report, "  DIVERGED: {name}");
            }
        }
    }
    let _ = writeln!(
        report,
        "rows: {}",
        if agree {
            "engine output byte-identical to sequential"
        } else {
            "ENGINE OUTPUT DIVERGED FROM SEQUENTIAL"
        }
    );
    let _ = writeln!(report, "sequential wall-clock        : {seq_wall:>10.3?}");
    let _ = writeln!(
        report,
        "engine --jobs {jobs} wall (cold) : {cold_wall:>10.3?}  ({:.2}x vs sequential)",
        seq_wall.as_secs_f64() / cold_wall.as_secs_f64()
    );
    let _ = writeln!(
        report,
        "engine --jobs {jobs} wall (warm) : {warm_wall:>10.3?}  ({:.2}x vs sequential)",
        seq_wall.as_secs_f64() / warm_wall.as_secs_f64()
    );
    let _ = writeln!(
        report,
        "cold sweep analysis cache    : {} CFAs run, {} reused ({:.0}% hit rate)",
        cold_stats.analysis_misses,
        cold_stats.analysis_hits,
        cold_stats.analysis_hit_rate() * 100.0
    );
    let _ = writeln!(
        report,
        "warm sweep analysis cache    : {} new CFAs, {} new parses ({} jobs)",
        stats.analysis_misses - cold_stats.analysis_misses,
        stats.parse_misses - cold_stats.parse_misses,
        stats.jobs_completed - cold_stats.jobs_completed,
    );
    let _ = writeln!(
        report,
        "specialization cache         : {} hits, {} misses, {} evictions",
        stats.spec_hits, stats.spec_misses, stats.spec_evictions,
    );
    let _ = writeln!(
        report,
        "execution cell cache         : {} hits, {} misses",
        stats.exec_hits, stats.exec_misses,
    );
    let _ = writeln!(report, "per-pass totals (both sweeps):");
    for name in fdi_engine::TRACKED_PASSES {
        let p = stats.pass(name).unwrap_or_default();
        let _ = writeln!(
            report,
            "  {name:<9}: {:>5} runs  {:>10.3} ms  {:>10} fuel",
            p.runs,
            p.ns as f64 / 1e6,
            p.fuel
        );
    }
    let _ = writeln!(report, "inline decisions (both sweeps, per reason):");
    for (key, n) in stats.decisions.iter() {
        let _ = writeln!(report, "  {key:<18}: {n:>6}");
    }
    let _ = writeln!(
        report,
        "  {:<18}: {:>6} inlined / {} rejected",
        "total",
        stats.decisions.inlined(),
        stats.decisions.rejected()
    );
    let _ = writeln!(report, "engine stats (both sweeps)   : {}", stats.json());
    print!("{report}");

    if let Some(path) = out_file {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, &report).unwrap_or_else(|e| {
            eprintln!("engine_sweep: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(";; wrote {path}");
    }

    if let Some(path) = json_file {
        // One flat object plus the embedded engine-stats object: every
        // headline number from the prose report, machine-readable. Schema
        // version first so downstream diffing can detect shape changes.
        use std::time::Duration;
        let wall_ms = |wall: Duration| Json::from(wall.as_secs_f64() * 1e3);
        let speedup = |wall: Duration| Json::from(seq_wall.as_secs_f64() / wall.as_secs_f64());
        let inline_ms = stats.pass("inline").unwrap_or_default().ns as f64 / 1e6;
        let snapshot = Json::obj([
            ("v", Json::from(2u64)),
            ("benchmarks", benches.len().into()),
            ("thresholds", (THRESHOLDS.len() + 1).into()),
            ("scale", scale.into()),
            ("jobs", jobs.into()),
            ("reps", reps.into()),
            ("host_parallelism", host.into()),
            ("rows_agree", agree.into()),
            ("sequential_ms", wall_ms(seq_wall)),
            ("cold_ms", wall_ms(cold_wall)),
            ("warm_ms", wall_ms(warm_wall)),
            ("cold_speedup", speedup(cold_wall)),
            ("warm_speedup", speedup(warm_wall)),
            ("inline_pass_ms", inline_ms.into()),
            ("cold_analysis_misses", cold_stats.analysis_misses.into()),
            ("cold_analysis_hits", cold_stats.analysis_hits.into()),
            (
                "warm_new_analyses",
                (stats.analysis_misses - cold_stats.analysis_misses).into(),
            ),
            (
                "warm_new_parses",
                (stats.parse_misses - cold_stats.parse_misses).into(),
            ),
            ("decisions", stats.decisions.json()),
            ("stats", stats.json()),
        ]);
        let snapshot = format!("{snapshot}\n");
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, &snapshot).unwrap_or_else(|e| {
            eprintln!("engine_sweep: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(";; wrote {path}");
    }

    if !agree {
        std::process::exit(1);
    }
}
