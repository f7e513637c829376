//! The `fdi report` subcommand, plus rendering helpers shared by the other
//! subcommands: the job-result fields of the batch report and the serve
//! reply, the human-readable `--trace` table, and the Chrome-trace file
//! writer behind `--trace-out`.

use crate::opts::{parse_policy, usage};
use fdi_core::{DecisionTotals, PipelineOutput};
use fdi_telemetry::json::Json;
use fdi_telemetry::Event;
use std::process::ExitCode;

/// The result fields of one finished job, in order: health flags, Table 1's
/// size ratio and sizes, decision totals, fuel, the per-pass traces (run
/// order) and the health ledger's degradations. The `fdi batch` report
/// entry and the `fdi serve` job reply both carry exactly these.
pub fn job_result(out: &PipelineOutput) -> [(&'static str, Json); 10] {
    let passes = out.passes.iter().map(|t| {
        Json::obj([
            ("pass", Json::from(t.pass)),
            ("runs", u64::from(t.runs).into()),
            ("ms", (t.wall.as_secs_f64() * 1e3).into()),
            ("fuel", t.fuel.into()),
            ("size_before", t.size_before.into()),
            ("size_after", t.size_after.into()),
            ("disposition", t.disposition.to_string().into()),
        ])
    });
    let health = out.health.degradations.iter().map(|d| {
        Json::obj([
            ("phase", Json::from(d.phase.to_string())),
            ("error", d.error.to_string().into()),
            ("fallback", d.fallback.to_string().into()),
        ])
    });
    [
        ("degraded", out.health.degraded().into()),
        ("oracle_rejected", out.health.oracle_rejected().into()),
        ("size_ratio", out.size_ratio().into()),
        ("baseline_size", out.baseline_size.into()),
        ("optimized_size", out.optimized_size.into()),
        ("sites_inlined", out.report.sites_inlined.into()),
        ("decisions", DecisionTotals::tally(&out.decisions).json()),
        ("fuel_used", out.fuel_used.into()),
        ("passes", Json::Arr(passes.collect())),
        ("health", Json::Arr(health.collect())),
    ]
}

/// Prints the `--trace` table on stderr: one line per executed pass.
pub fn print_trace(out: &PipelineOutput) {
    eprintln!(
        ";; {:<9} {:>4} {:>10} {:>8} {:>6} {:>6}  disposition",
        "pass", "runs", "wall", "fuel", "before", "after"
    );
    for t in &out.passes {
        eprintln!(
            ";; {:<9} {:>4} {:>8.3}ms {:>8} {:>6} {:>6}  {}",
            t.pass,
            t.runs,
            t.wall.as_secs_f64() * 1e3,
            t.fuel,
            t.size_before,
            t.size_after,
            t.disposition
        );
    }
    eprintln!(";; fuel used: {}", out.fuel_used);
}

/// Writes `events` to `path` in Chrome Trace Event Format. IO failure is
/// reported but never fails the run — telemetry must not sink a pipeline
/// that already produced its output.
pub fn write_chrome_trace(path: &str, events: &[Event]) {
    let json = fdi_telemetry::chrome_trace(events);
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("fdi: cannot write trace {path}: {e}");
    } else {
        eprintln!(";; wrote {} trace event(s) to {path}", events.len());
    }
}

/// The most common rejection reason in `totals`, as its stable key.
fn top_rejection(totals: &DecisionTotals) -> &'static str {
    totals
        .iter()
        .filter(|&(key, n)| key != "inlined" && n > 0)
        .max_by_key(|&(_, n)| n)
        .map(|(key, _)| key)
        .unwrap_or("-")
}

/// `fdi report --metrics FILE|-` — render a scraped daemon metrics document
/// (the `{"op":"metrics"}` response, or the bare registry JSON) as tables:
/// windowed counters, gauges, span-duration histograms, decision totals.
fn metrics_main(path: &str) -> ExitCode {
    let text = if path == "-" {
        let mut buf = String::new();
        use std::io::Read;
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("fdi: report: cannot read metrics from stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fdi: report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let doc = match fdi_telemetry::json::parse(text.trim()) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("fdi: report: {path}: malformed metrics JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Accept the client's response envelope or the bare registry document.
    let m = doc.get("metrics").unwrap_or(&doc);
    let num = |j: Option<&fdi_telemetry::json::Json>| j.and_then(|v| v.as_num()).unwrap_or(0.0);
    if m.get("counters").is_none() {
        eprintln!("fdi: report: {path}: not a metrics document (no \"counters\")");
        return ExitCode::FAILURE;
    }
    println!(
        "daemon metrics (uptime {:.0}s, {} events, {:.0} µs recording)",
        num(m.get("uptime_s")),
        num(m.get("overhead").and_then(|o| o.get("events"))),
        num(m.get("overhead").and_then(|o| o.get("record_us"))),
    );
    if let Some(counters) = m.get("counters").and_then(|c| c.as_obj()) {
        println!(
            "\n{:<36} {:>10} {:>8} {:>8}",
            "counter", "total", "1m", "5m"
        );
        for (name, c) in counters {
            println!(
                "{:<36} {:>10} {:>8} {:>8}",
                name,
                num(c.get("total")),
                num(c.get("w1m")),
                num(c.get("w5m")),
            );
        }
    }
    if let Some(gauges) = m.get("gauges").and_then(|g| g.as_obj()) {
        println!("\n{:<36} {:>14}", "gauge", "value");
        for (name, v) in gauges {
            println!("{:<36} {:>14.3}", name, v.as_num().unwrap_or(0.0));
        }
    }
    if let Some(histos) = m.get("histograms").and_then(|h| h.as_obj()) {
        println!(
            "\n{:<20} {:>8} {:>12} {:>8} {:>8}",
            "span", "count", "mean µs", "1m", "5m"
        );
        for (name, h) in histos {
            let count = num(h.get("count"));
            let mean = if count > 0.0 {
                num(h.get("sum_us")) / count
            } else {
                0.0
            };
            println!(
                "{:<20} {:>8} {:>12.1} {:>8} {:>8}",
                name,
                count,
                mean,
                num(h.get("w1m").and_then(|w| w.get("count"))),
                num(h.get("w5m").and_then(|w| w.get("count"))),
            );
        }
    }
    if let Some(decisions) = m.get("decisions").and_then(|d| d.as_obj()) {
        println!("\n{:<24} {:>10}", "decision", "count");
        for (reason, n) in decisions {
            println!("{:<24} {:>10}", reason, n.as_num().unwrap_or(0.0));
        }
    }
    ExitCode::SUCCESS
}

/// `fdi report [-t THRESHOLD] [--policy P] [--scale test|default] [--jobs N]`
/// — optimize the Table 1 benchmark suite on the engine and print one table
/// row per benchmark, with a decisions column from the inliner's telemetry
/// provenance (sites inlined / sites rejected, plus the dominant rejection
/// reason). `--metrics FILE|-` switches to rendering a scraped daemon
/// metrics document instead (see [`metrics_main`]).
pub fn main(args: Vec<String>) -> ExitCode {
    let mut threshold = 200usize;
    let mut policy = fdi_core::Polyvariance::PolymorphicSplitting;
    let mut test_scale = true;
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned();
        match args[i].as_str() {
            "-t" | "--threshold" => {
                let Some(n) = value(i).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                threshold = n;
                i += 2;
            }
            "--policy" => {
                let Some(p) = value(i).as_deref().and_then(parse_policy) else {
                    return usage();
                };
                policy = p;
                i += 2;
            }
            "--scale" => match value(i).as_deref() {
                Some("test") => {
                    test_scale = true;
                    i += 2;
                }
                Some("default") => {
                    test_scale = false;
                    i += 2;
                }
                _ => return usage(),
            },
            "--jobs" => {
                let Some(n) = value(i).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                jobs = Some(n);
                i += 2;
            }
            "--metrics" => {
                let Some(path) = value(i) else {
                    return usage();
                };
                return metrics_main(&path);
            }
            other => {
                eprintln!("fdi: report: unknown argument {other:?}");
                return usage();
            }
        }
    }

    let engine = fdi_engine::Engine::new(match jobs {
        Some(n) => fdi_engine::EngineConfig::with_workers(n),
        None => fdi_engine::EngineConfig::default(),
    });
    let mut config = fdi_core::PipelineConfig::with_threshold(threshold);
    config.policy = policy;
    let handles: Vec<(&str, fdi_engine::JobHandle)> = fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| {
            let scale = if test_scale {
                b.test_scale
            } else {
                b.default_scale
            };
            let src = b.scaled(scale);
            (
                b.name,
                engine.submit(fdi_engine::Job::new(src.as_str(), config)),
            )
        })
        .collect();

    println!(
        "{:<10} {:>8} {:>8} {:>6}  {:<9}  top rejection",
        "benchmark", "baseline", "opt", "ratio", "decisions"
    );
    let mut suite = DecisionTotals::default();
    let mut failures = 0u32;
    for (name, handle) in handles {
        match handle.wait() {
            Ok(out) => {
                let totals = DecisionTotals::tally(&out.decisions);
                suite.merge(&totals);
                println!(
                    "{:<10} {:>8} {:>8} {:>6.2}  {:<9}  {}",
                    name,
                    out.baseline_size,
                    out.optimized_size,
                    out.size_ratio(),
                    format!("{}/{}", totals.inlined(), totals.rejected()),
                    top_rejection(&totals),
                );
            }
            Err(e) => {
                failures += 1;
                println!("{name:<10} failed: {e}");
            }
        }
    }
    println!(
        "{:<10} {:>8} {:>8} {:>6}  {:<9}  {}",
        "total",
        "",
        "",
        "",
        format!("{}/{}", suite.inlined(), suite.rejected()),
        top_rejection(&suite),
    );
    if failures > 0 {
        eprintln!("fdi: {failures} benchmark(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
