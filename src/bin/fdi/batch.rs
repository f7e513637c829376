//! `fdi batch` — run a manifest of jobs on the concurrent engine and emit
//! one JSON report.

use crate::opts::{parse_policy, usage};
use crate::report::{job_result, write_chrome_trace};
use fdi_core::{FaultPlan, OracleConfig, PipelineConfig, Telemetry};
use fdi_telemetry::json::Json;
use fdi_telemetry::RingSink;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Applies one manifest line's per-job flags to `config` (also the flag
/// grammar of `fdi batch`'s command-line defaults and of serve-mode job
/// requests).
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

/// `fdi batch <manifest> [job-flags…] [--jobs N] [--out FILE]
/// [--trace-out FILE] [--profile FILE] [--cache-bytes N]
/// [--engine-faults SEED]`.
///
/// The engine flags may appear anywhere; every other token after the
/// manifest path is a job flag ([`apply_job_flags`]) and sets the default
/// config that each manifest line's own flags then override.
pub fn main(mut args: Vec<String>) -> ExitCode {
    let mut jobs = None;
    let mut out_file = None;
    let mut trace_out = None;
    let mut profile_path: Option<String> = None;
    let mut cache_bytes: Option<usize> = None;
    let mut engine_faults = FaultPlan::default();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--jobs" => match value.and_then(|s| s.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => return usage(),
            },
            "--cache-bytes" => match value.and_then(|s| s.parse().ok()) {
                Some(n) => cache_bytes = Some(n),
                None => return usage(),
            },
            "--out" => match value {
                Some(f) => out_file = Some(f.clone()),
                None => return usage(),
            },
            "--trace-out" => match value {
                Some(f) => trace_out = Some(f.clone()),
                None => return usage(),
            },
            "--engine-faults" => match value.and_then(|s| s.parse().ok()) {
                Some(seed) => engine_faults = FaultPlan::new(seed),
                None => return usage(),
            },
            "--profile" => match value {
                Some(f) => profile_path = Some(f.clone()),
                None => return usage(),
            },
            _ => {
                i += 1;
                continue;
            }
        }
        args.drain(i..=i + 1);
    }
    let Some((manifest_path, job_flags)) = args.split_first() else {
        return usage();
    };
    let mut default_config = PipelineConfig::default();
    let job_flags: Vec<&str> = job_flags.iter().map(String::as_str).collect();
    if let Err(e) = apply_job_flags(&mut default_config, &job_flags) {
        eprintln!("fdi batch: {e}");
        return usage();
    }
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
        let trace = line.source.as_deref().ok().map_or(Json::Null, |src| {
            fdi_core::trace_id_hex(src, &line.config).into()
        });
        let head = [
            ("spec", Json::from(line.spec.as_str())),
            ("trace_id", trace),
            ("threshold", line.config.threshold.into()),
        ];
        let result = match handle {
            None => Err(line.source.clone().unwrap_err()),
            Some(h) => h.wait().map_err(|e| e.to_string()),
        };
        let entry = match result {
            Ok(out) => {
                let analysis_ms = out.flow_stats.duration.as_secs_f64() * 1e3;
                let ok = [("ok", true.into())].into_iter().chain(job_result(&out));
                Json::obj(
                    head.into_iter()
                        .chain(ok)
                        .chain([("analysis_ms", analysis_ms.into())]),
                )
            }
            Err(error) => {
                failures += 1;
                let failed = [("ok", false.into()), ("error", error.into())];
                Json::obj(head.into_iter().chain(failed))
            }
        };
        entries.push(entry);
    }
    // The poison list: jobs the supervisor quarantined after exhausting
    // their retries. Map each back to its manifest spec by source text.
    let poisoned = engine.poisoned().into_iter().map(|p| {
        let spec = lines
            .iter()
            .find(|l| l.source.as_deref().ok() == Some(&*p.source))
            .map(|l| l.spec.as_str())
            .unwrap_or("<unknown>");
        Json::obj([
            ("spec", Json::from(spec)),
            ("threshold", p.threshold.into()),
            ("attempts", u64::from(p.attempts).into()),
            ("error", p.error.to_string().into()),
        ])
    });
    let report = Json::obj([
        ("jobs", Json::Arr(entries)),
        ("poisoned", Json::Arr(poisoned.collect())),
        ("stats", engine.stats().json()),
    ]);
    let report = format!("{report}\n");
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
