//! `fdi batch` — run a manifest of jobs on the concurrent engine and emit
//! one JSON report.

use crate::opts::{parse_policy, parse_schedule, usage};
use crate::report::{health_json, passes_json, write_chrome_trace};
use fdi_core::{FaultPlan, OracleConfig, PipelineConfig, Telemetry};
use fdi_telemetry::json::json_string;
use fdi_telemetry::{DecisionTotals, RingSink};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Applies one manifest line's per-job flags to `config` (also the flag
/// grammar of serve-mode job requests).
pub fn apply_job_flags(config: &mut PipelineConfig, tokens: &[&str]) -> Result<(), String> {
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        tokens
            .get(*i)
            .map(|s| s.to_string())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < tokens.len() {
        match tokens[i] {
            "-t" | "--threshold" => {
                config.threshold = next(&mut i, "-t")?
                    .parse()
                    .map_err(|e| format!("-t: {e}"))?;
            }
            "--unroll" => {
                config.unroll = next(&mut i, "--unroll")?
                    .parse()
                    .map_err(|e| format!("--unroll: {e}"))?;
            }
            "--clref" => config.mode = fdi_core::InlineMode::ClRef,
            "--policy" => {
                let spec = next(&mut i, "--policy")?;
                config.policy =
                    parse_policy(&spec).ok_or_else(|| format!("unknown policy {spec:?}"))?;
            }
            "--passes" => {
                let spec = next(&mut i, "--passes")?;
                config.schedule =
                    fdi_core::Schedule::parse(&spec).map_err(|e| format!("--passes: {e}"))?;
            }
            "--fuel" => {
                let fuel = next(&mut i, "--fuel")?
                    .parse()
                    .map_err(|e| format!("--fuel: {e}"))?;
                config.budget = config.budget.with_fuel(fuel);
            }
            "--deadline-ms" => {
                let ms: u64 = next(&mut i, "--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                config.budget = config.budget.with_deadline(Duration::from_millis(ms));
            }
            "--max-growth" => {
                let x = next(&mut i, "--max-growth")?
                    .parse()
                    .map_err(|e| format!("--max-growth: {e}"))?;
                config.budget = config.budget.with_max_growth(x);
            }
            "--size-budget" => {
                let b = next(&mut i, "--size-budget")?
                    .parse()
                    .map_err(|e| format!("--size-budget: {e}"))?;
                config.size_budget = Some(b);
            }
            "--validate" => config.oracle = OracleConfig::on(),
            "--oracle-fuel" => {
                config.oracle.fuel = next(&mut i, "--oracle-fuel")?
                    .parse()
                    .map_err(|e| format!("--oracle-fuel: {e}"))?;
            }
            "--faults" => {
                let seed = next(&mut i, "--faults")?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?;
                config.faults = FaultPlan::new(seed);
            }
            flag => return Err(format!("unknown job flag {flag:?}")),
        }
        i += 1;
    }
    Ok(())
}

/// Resolves a manifest source spec: `bench:<name>[@<scale>]` or a file path.
pub fn resolve_source(spec: &str) -> Result<String, String> {
    if let Some(bench) = spec.strip_prefix("bench:") {
        let (name, scale) = match bench.split_once('@') {
            Some((n, s)) => {
                let scale: u32 = s.parse().map_err(|e| format!("{spec}: bad scale: {e}"))?;
                (n, Some(scale))
            }
            None => (bench, None),
        };
        let b = fdi_benchsuite::by_name(name)
            .ok_or_else(|| format!("{spec}: no benchmark named {name:?}"))?;
        Ok(b.scaled(scale.unwrap_or(b.default_scale)))
    } else {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))
    }
}

/// Loads a `--profile` artifact into the engine-wide form: the staleness
/// key, the content fingerprint for cache keys, and the benefit guide.
/// Per-job staleness is the *engine's* judgment — a batch mixes sources,
/// and only jobs whose source matches the profile run guided.
pub fn load_engine_profile(path: &str) -> Result<fdi_engine::EngineProfile, String> {
    let profile = fdi_profile::Profile::load(std::path::Path::new(path))
        .map_err(|e| format!("--profile {path}: {e}"))?;
    Ok(fdi_engine::EngineProfile {
        source_fp: profile.source_fp,
        fingerprint: profile.fingerprint(),
        guide: Arc::new(profile.guide()),
    })
}

/// `fdi batch <manifest> [--jobs N] [--out FILE] [--trace-out FILE]
/// [--passes SCHEDULE] [--profile FILE] [--size-budget N] [--cache-bytes N]
/// [--validate] [--oracle-fuel N] [--faults SEED] [--engine-faults SEED]`.
pub fn main(mut args: Vec<String>) -> ExitCode {
    let mut jobs = None;
    let mut out_file = None;
    let mut trace_out = None;
    let mut profile_path: Option<String> = None;
    let mut cache_bytes: Option<usize> = None;
    let mut default_config = PipelineConfig::default();
    let mut engine_faults = FaultPlan::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                jobs = Some(n);
                args.drain(i..=i + 1);
            }
            "--cache-bytes" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                cache_bytes = Some(n);
                args.drain(i..=i + 1);
            }
            "--out" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                out_file = Some(f.clone());
                args.drain(i..=i + 1);
            }
            "--trace-out" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                trace_out = Some(f.clone());
                args.drain(i..=i + 1);
            }
            "--passes" => {
                let Some(schedule) = args.get(i + 1).and_then(|s| parse_schedule(s)) else {
                    return usage();
                };
                default_config.schedule = schedule;
                args.drain(i..=i + 1);
            }
            "--validate" => {
                default_config.oracle = OracleConfig::on();
                args.remove(i);
            }
            "--oracle-fuel" => {
                let Some(fuel) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                default_config.oracle.fuel = fuel;
                args.drain(i..=i + 1);
            }
            "--faults" => {
                let Some(seed) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                default_config.faults = FaultPlan::new(seed);
                args.drain(i..=i + 1);
            }
            "--engine-faults" => {
                let Some(seed) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                engine_faults = FaultPlan::new(seed);
                args.drain(i..=i + 1);
            }
            "--profile" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                profile_path = Some(f.clone());
                args.drain(i..=i + 1);
            }
            "--size-budget" => {
                let Some(b) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                default_config.size_budget = Some(b);
                args.drain(i..=i + 1);
            }
            _ => i += 1,
        }
    }
    let Some(manifest_path) = args.first() else {
        return usage();
    };
    let manifest = match std::fs::read_to_string(manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fdi: cannot read {manifest_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Parse the manifest into (spec, config, source?) jobs. Source
    // resolution failures become per-job errors in the report, not a
    // manifest rejection — one bad path must not kill the batch.
    struct Line {
        spec: String,
        config: PipelineConfig,
        source: Result<String, String>,
    }
    let mut lines = Vec::new();
    for (lineno, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let spec = tokens[0].to_string();
        let mut config = default_config;
        if let Err(e) = apply_job_flags(&mut config, &tokens[1..]) {
            eprintln!("fdi: {manifest_path}:{}: {e}", lineno + 1);
            return ExitCode::FAILURE;
        }
        let source = resolve_source(&spec);
        lines.push(Line {
            spec,
            config,
            source,
        });
    }

    // Under `--trace-out`, every engine worker emits into one shared ring;
    // workers land on separate trace tracks via their thread ids.
    let (telemetry, sink) = match &trace_out {
        Some(_) => {
            let sink = Arc::new(RingSink::default());
            (Telemetry::with_collector(sink.clone()), Some(sink))
        }
        None => (Telemetry::off(), None),
    };
    let engine_profile = match &profile_path {
        None => None,
        Some(path) => match load_engine_profile(path) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("fdi: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let engine = fdi_engine::Engine::with_telemetry(
        fdi_engine::EngineConfig {
            faults: engine_faults,
            profile: engine_profile,
            cache_bytes,
            ..match jobs {
                Some(n) => fdi_engine::EngineConfig::with_workers(n),
                None => fdi_engine::EngineConfig::default(),
            }
        },
        &telemetry,
    );
    let handles: Vec<Option<fdi_engine::JobHandle>> = lines
        .iter()
        .map(|line| {
            line.source.as_ref().ok().map(|src| {
                let trace = fdi_core::trace_id(src, &line.config);
                engine.submit(fdi_engine::Job::new(src.as_str(), line.config).with_trace(trace))
            })
        })
        .collect();

    let mut entries = Vec::new();
    let mut failures = 0u32;
    for (line, handle) in lines.iter().zip(handles) {
        // The same deterministic trace id `fdi serve` answers with for this
        // (source, config) — the join key across batch reports, daemon
        // responses, and flight-recorder entries. Unresolvable sources have
        // no job, hence no id.
        let trace = line
            .source
            .as_deref()
            .ok()
            .map(|src| format!("\"{}\"", fdi_core::trace_id_hex(src, &line.config)))
            .unwrap_or_else(|| "null".to_string());
        let head = format!(
            "{{\"spec\":{},\"trace_id\":{},\"threshold\":{}",
            json_string(&line.spec),
            trace,
            line.config.threshold
        );
        let entry = match handle.map(|h| h.wait()) {
            None => {
                failures += 1;
                format!(
                    "{head},\"ok\":false,\"error\":{}}}",
                    json_string(line.source.as_ref().unwrap_err())
                )
            }
            Some(Err(e)) => {
                failures += 1;
                format!(
                    "{head},\"ok\":false,\"error\":{}}}",
                    json_string(&e.to_string())
                )
            }
            Some(Ok(out)) => format!(
                concat!(
                    "{},\"ok\":true,\"degraded\":{},\"oracle_rejected\":{},",
                    "\"size_ratio\":{:.6},",
                    "\"baseline_size\":{},\"optimized_size\":{},\"sites_inlined\":{},",
                    "\"decisions\":{},",
                    "\"analysis_ms\":{:.3},\"fuel_used\":{},\"passes\":{},\"health\":{}}}"
                ),
                head,
                out.health.degraded(),
                out.health.oracle_rejected(),
                out.size_ratio(),
                out.baseline_size,
                out.optimized_size,
                out.report.sites_inlined,
                DecisionTotals::tally(&out.decisions).to_json(),
                out.flow_stats.duration.as_secs_f64() * 1e3,
                out.fuel_used,
                passes_json(&out.passes),
                health_json(&out.health),
            ),
        };
        entries.push(entry);
    }
    // The poison list: jobs the supervisor quarantined after exhausting
    // their retries. Map each back to its manifest spec by source text.
    let poisoned: Vec<String> = engine
        .poisoned()
        .iter()
        .map(|p| {
            let spec = lines
                .iter()
                .find(|l| l.source.as_deref().ok() == Some(&*p.source))
                .map(|l| l.spec.as_str())
                .unwrap_or("<unknown>");
            format!(
                "{{\"spec\":{},\"threshold\":{},\"attempts\":{},\"error\":{}}}",
                json_string(spec),
                p.threshold,
                p.attempts,
                json_string(&p.error.to_string())
            )
        })
        .collect();
    let report = format!(
        "{{\"jobs\":[{}],\"poisoned\":[{}],\"stats\":{}}}\n",
        entries.join(","),
        poisoned.join(","),
        engine.stats().to_json()
    );
    print!("{report}");
    if let (Some(path), Some(sink)) = (&trace_out, &sink) {
        write_chrome_trace(path, &sink.drain());
    }
    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("fdi: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failures > 0 {
        eprintln!("fdi: {failures} job(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
