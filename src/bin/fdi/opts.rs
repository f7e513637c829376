//! Shared option parsing for the single-file subcommands
//! (`optimize`, `run`, `analyze`, `explain`, `profile`).

use fdi_core::{
    run, Budget, FaultPlan, OracleConfig, PipelineConfig, PipelineOutput, Polyvariance, Request,
    Schedule, Telemetry,
};
use fdi_profile::Profile;
use fdi_telemetry::RingSink;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

pub struct Options {
    pub file: String,
    pub threshold: usize,
    pub unroll: usize,
    pub clref: bool,
    pub policy: Polyvariance,
    pub stats: bool,
    pub dump: bool,
    pub strict: bool,
    pub trace: bool,
    pub budget: Budget,
    pub schedule: Option<Schedule>,
    pub validate: bool,
    pub oracle_fuel: Option<u64>,
    pub faults: Option<u64>,
    pub trace_out: Option<String>,
    pub site: Option<String>,
    pub profile: Option<String>,
    pub size_budget: Option<usize>,
    pub json: bool,
    pub entry: Option<String>,
    pub output: Option<String>,
}

pub fn usage() -> ExitCode {
    eprintln!(
        "usage: fdi <optimize|run|analyze|explain> <file.scm> \
         [-t THRESHOLD] [--unroll N] [--clref] [--policy 0cfa|poly|1cfa] [--stats] [--dump] \
         [--passes SCHEDULE] [--trace] [--trace-out FILE] [--site LABEL] [--json] \
         [--profile FILE] [--size-budget N] \
         [--strict] [--deadline-ms N] [--fuel N] [--max-growth X] \
         [--validate] [--oracle-fuel N] [--faults SEED]\n       \
         fdi profile <file.scm> [--entry EXPR] [-o FILE]\n       \
         fdi batch <manifest> [job-flags…] [--jobs N] [--out FILE] [--trace-out FILE] \
         [--profile FILE] [--cache-bytes N] [--engine-faults SEED]\n       \
         fdi report [-t THRESHOLD] [--policy 0cfa|poly|1cfa] [--scale test|default] [--jobs N] \
         [--metrics FILE|-]\n       \
         fdi serve [--port N] [--port-file FILE] [--store DIR] [--jobs N] [--max-inflight N] \
         [--deadline-ms N] [--read-deadline-ms N] [--cache-bytes N] [--store-bytes N] \
         [--profile FILE] [--engine-faults SEED]\n       \
         fdi client (--port N | --port-file FILE) [--retries N] [--retry-seed S] \
         <ping|stats|health|flight|shutdown> | metrics [--metrics-text] | \
         job <spec> [job-flags…] [--request-deadline-ms N]\n       \
         fdi fsck <STORE> [--repair]\n       \
         fdi bench-diff <baseline.json> <current.json> [--tolerance PCT] \
         [--hit-rate-tolerance ABS] [--wins-drop N]"
    );
    ExitCode::FAILURE
}

/// Parses a schedule spec such as `analyze,inline,simplify*3`, reporting
/// malformed input on stderr.
pub fn parse_schedule(spec: &str) -> Option<Schedule> {
    match Schedule::parse(spec) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("fdi: --passes: {e}");
            None
        }
    }
}

pub fn parse(rest: Vec<String>) -> Option<Options> {
    let mut opts = Options {
        file: String::new(),
        threshold: 200,
        unroll: 0,
        clref: false,
        policy: Polyvariance::PolymorphicSplitting,
        stats: false,
        dump: false,
        strict: false,
        trace: false,
        budget: Budget::default(),
        schedule: None,
        validate: false,
        oracle_fuel: None,
        faults: None,
        trace_out: None,
        site: None,
        profile: None,
        size_budget: None,
        json: false,
        entry: None,
        output: None,
    };
    let mut rest = rest;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "-t" | "--threshold" => {
                opts.threshold = rest.get(i + 1)?.parse().ok()?;
                rest.drain(i..=i + 1);
            }
            "--unroll" => {
                opts.unroll = rest.get(i + 1)?.parse().ok()?;
                rest.drain(i..=i + 1);
            }
            "--clref" => {
                opts.clref = true;
                rest.remove(i);
            }
            "--stats" => {
                opts.stats = true;
                rest.remove(i);
            }
            "--dump" => {
                opts.dump = true;
                rest.remove(i);
            }
            "--strict" => {
                opts.strict = true;
                rest.remove(i);
            }
            "--trace" => {
                opts.trace = true;
                rest.remove(i);
            }
            "--passes" => {
                opts.schedule = Some(parse_schedule(rest.get(i + 1)?)?);
                rest.drain(i..=i + 1);
            }
            "--deadline-ms" => {
                let ms: u64 = rest.get(i + 1)?.parse().ok()?;
                opts.budget = opts.budget.with_deadline(Duration::from_millis(ms));
                rest.drain(i..=i + 1);
            }
            "--fuel" => {
                opts.budget = opts.budget.with_fuel(rest.get(i + 1)?.parse().ok()?);
                rest.drain(i..=i + 1);
            }
            "--max-growth" => {
                opts.budget = opts.budget.with_max_growth(rest.get(i + 1)?.parse().ok()?);
                rest.drain(i..=i + 1);
            }
            "--validate" => {
                opts.validate = true;
                rest.remove(i);
            }
            "--oracle-fuel" => {
                opts.oracle_fuel = Some(rest.get(i + 1)?.parse().ok()?);
                rest.drain(i..=i + 1);
            }
            "--faults" => {
                opts.faults = Some(rest.get(i + 1)?.parse().ok()?);
                rest.drain(i..=i + 1);
            }
            "--policy" => {
                opts.policy = parse_policy(rest.get(i + 1)?)?;
                rest.drain(i..=i + 1);
            }
            "--trace-out" => {
                opts.trace_out = Some(rest.get(i + 1)?.clone());
                rest.drain(i..=i + 1);
            }
            "--site" => {
                opts.site = Some(rest.get(i + 1)?.clone());
                rest.drain(i..=i + 1);
            }
            "--profile" => {
                opts.profile = Some(rest.get(i + 1)?.clone());
                rest.drain(i..=i + 1);
            }
            "--size-budget" => {
                opts.size_budget = Some(rest.get(i + 1)?.parse().ok()?);
                rest.drain(i..=i + 1);
            }
            "--json" => {
                opts.json = true;
                rest.remove(i);
            }
            "--entry" => {
                opts.entry = Some(rest.get(i + 1)?.clone());
                rest.drain(i..=i + 1);
            }
            "-o" | "--output" => {
                opts.output = Some(rest.get(i + 1)?.clone());
                rest.drain(i..=i + 1);
            }
            _ => i += 1,
        }
    }
    opts.file = rest.into_iter().next()?;
    Some(opts)
}

/// Parses a `--policy` spec (shared with the batch manifest flags).
pub fn parse_policy(spec: &str) -> Option<Polyvariance> {
    match spec {
        "0cfa" => Some(Polyvariance::Monovariant),
        "poly" | "poly-split" => Some(Polyvariance::PolymorphicSplitting),
        "1cfa" => Some(Polyvariance::CallStrings(1)),
        "2cfa" => Some(Polyvariance::CallStrings(2)),
        _ => None,
    }
}

impl Options {
    /// Reads the source file, reporting failures on stderr.
    pub fn read_source(&self) -> Option<String> {
        match std::fs::read_to_string(&self.file) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("fdi: cannot read {}: {e}", self.file);
                None
            }
        }
    }

    /// The pipeline configuration these options describe.
    pub fn config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::with_threshold(self.threshold);
        config.policy = self.policy;
        config.unroll = self.unroll;
        config.budget = self.budget;
        if self.clref {
            config.mode = fdi_core::InlineMode::ClRef;
        }
        if let Some(schedule) = self.schedule {
            config.schedule = schedule;
        }
        if self.validate {
            config.oracle = OracleConfig::on();
        }
        if let Some(fuel) = self.oracle_fuel {
            config.oracle.fuel = fuel;
        }
        if let Some(seed) = self.faults {
            config.faults = FaultPlan::new(seed);
        }
        config.size_budget = self.size_budget;
        config
    }

    /// Loads `--profile` and verifies it against `src`. A fresh profile is
    /// returned for guiding; a stale one (collected from a different
    /// source) degrades to static order — a warning on stderr and a
    /// `profile.stale` telemetry instant, never a silent reorder. An
    /// unreadable or corrupt artifact is a hard error: a profile that
    /// exists but cannot be verified should stop the run, not quietly
    /// change its meaning.
    pub fn load_profile(
        &self,
        src: &str,
        telemetry: &Telemetry,
    ) -> Result<Option<Profile>, String> {
        let Some(path) = &self.profile else {
            return Ok(None);
        };
        let profile = Profile::load(std::path::Path::new(path))
            .map_err(|e| format!("--profile {path}: {e}"))?;
        if profile.stale(src) {
            telemetry.instant("profile.stale", "profile", &[("path", path.clone())]);
            eprintln!(
                ";; profile {path} is stale for {}: falling back to static order",
                self.file
            );
            return Ok(None);
        }
        Ok(Some(profile))
    }

    /// Runs the pipeline over `src` — degrading by default, `--strict`
    /// propagating the first phase failure — and reports health (and, under
    /// `--trace`, the per-pass trace) on stderr. With `--trace-out FILE` the
    /// run is collected into a ring sink and exported as a Chrome trace.
    pub fn run_pipeline(&self, src: &str) -> Option<PipelineOutput> {
        self.run_pipeline_with_profile(src).map(|(out, _)| out)
    }

    /// [`Options::run_pipeline`], also returning the loaded (fresh)
    /// profile so callers like `explain --json` can annotate their output
    /// with per-site dynamic counts and benefits.
    pub fn run_pipeline_with_profile(
        &self,
        src: &str,
    ) -> Option<(PipelineOutput, Option<Profile>)> {
        let mut config = self.config();
        let (telemetry, sink) = match &self.trace_out {
            Some(_) => {
                let sink = Arc::new(RingSink::default());
                (Telemetry::with_collector(sink.clone()), Some(sink))
            }
            None => (Telemetry::off(), None),
        };
        let profile = match self.load_profile(src, &telemetry) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fdi: {e}");
                return None;
            }
        };
        // A fresh profile keys the run (distinct cache identity from static
        // mode) and supplies the benefit order for the size budget.
        let guide = profile.as_ref().map(|p| {
            config.profile_fp = Some(p.fingerprint());
            p.guide()
        });
        // `--strict`: degrade-run the pipeline, then surface the first
        // recorded phase failure as an error.
        let result = run(&Request {
            guide: guide.as_ref(),
            telemetry: telemetry.clone(),
            ..Request::source(src, config)
        })
        .and_then(|out| {
            if self.strict {
                out.into_strict()
            } else {
                Ok(out)
            }
        });
        if let (Some(path), Some(sink)) = (&self.trace_out, &sink) {
            // Export even on failure: a trace of the run up to the error is
            // exactly what the file is for.
            crate::report::write_chrome_trace(path, &sink.drain());
        }
        match result {
            Ok(out) => {
                if out.health.oracle_rejected() {
                    eprintln!(";; oracle rejected: rolled back to the last validated program");
                }
                if out.health.degraded() {
                    eprintln!(";; degraded: {}", out.health.summary());
                }
                if self.trace {
                    crate::report::print_trace(&out);
                }
                Some((out, profile))
            }
            Err(e) => {
                eprintln!("fdi: {e}");
                None
            }
        }
    }
}
