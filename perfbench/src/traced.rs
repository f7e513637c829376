//! The traced run: the workload's job list replayed single-threaded through
//! each layer's public functions, with one span per call, recorded in
//! memory and written out at the end. Nothing inside the program is
//! instrumented; the spans sit around the calls the benchmark makes.
//!
//! Integrity checks tie the replay to the real system: the replay's bytes
//! must equal the engine's (sweep) or daemon's (serve) answers, its CFA and
//! VM run counts must equal the engine's analysis and exec misses, the
//! layer self times must cover the traced wall to within a few percent, and
//! every work counter must repeat exactly between the untraced and the
//! traced replay.

use crate::daemon::{fresh_dir, parse_answer, stat, Answer, Daemon};
use crate::report::{median, metric, Host, Outcome, J};
use crate::workload::{self, Request, Workload, ROUND};
use crate::Args;
use fdi_cfa::FlowAnalysis;
use fdi_core::{source_fingerprint, Fingerprint, PipelineConfig, RunConfig};
use fdi_engine::{Engine, EngineConfig, EngineStats, Job};
use fdi_inline::{InlineConfig, InlineMode, InlinePass, InlineRuntime, SpecializationCache};
use fdi_lang::Program;
use fdi_telemetry::json::Json;
use fdi_telemetry::Telemetry;
use fdi_vm::Outcome as VmOutcome;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Layers in pipeline order; a span's layer is its name up to the first dot.
const LAYERS: [&str; 9] = [
    "sexpr", "lang", "cfa", "inline", "simplify", "vm", "core", "engine", "serve",
];

/// Share of the traced wall the layer self times must cover.
const MIN_COVERAGE: f64 = 0.95;

/// `serve-hot` traced requests: this many passes over the hot set.
const HOT_TRACED_ROUNDS: usize = 8;

/// Pings timed for `serve.ping_rtt_ms`.
const PINGS: usize = 32;

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    match args.workload {
        Workload::Sweep => sweep(host),
        Workload::ServeCold | Workload::ServeHot => serve(args, host),
    }
}

// ------------------------------------------------------------- tracing --

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    job: usize,
    start: Duration,
    end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder; when off, `span` only calls through.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn span<T>(&mut self, name: &'static str, job: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return black_box(f());
        }
        let start = self.now();
        let value = black_box(f());
        let end = self.now();
        self.spans.push(Span {
            name,
            job,
            start,
            end,
        });
        value
    }

    fn record(&mut self, name: &'static str, job: usize, start: Duration, end: Duration) {
        if self.on {
            self.spans.push(Span {
                name,
                job,
                start,
                end,
            });
        }
    }
}

// -------------------------------------------------------------- replay --

/// Deterministic work counters, summed from the structs the layers return.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Work {
    parses: u64,
    lang_nodes: u64,
    cfa_runs: u64,
    cfa_steps: u64,
    cfa_contours: u64,
    inline_calls_seen: u64,
    inline_sites_inlined: u64,
    spec_hits: u64,
    spec_misses: u64,
    simplify_iterations: u64,
    vm_runs: u64,
    vm_cost_units: u64,
    vm_calls: u64,
    vm_words_allocated: u64,
    store_lookups: u64,
    store_hits: u64,
}

impl Work {
    fn to_json(&self) -> J {
        J::obj(vec![
            ("parses", J::Num(self.parses as f64)),
            ("lang.nodes", J::Num(self.lang_nodes as f64)),
            ("cfa.runs", J::Num(self.cfa_runs as f64)),
            ("cfa.steps", J::Num(self.cfa_steps as f64)),
            ("cfa.contours", J::Num(self.cfa_contours as f64)),
            ("inline.calls_seen", J::Num(self.inline_calls_seen as f64)),
            (
                "inline.sites_inlined",
                J::Num(self.inline_sites_inlined as f64),
            ),
            ("inline.spec_hits", J::Num(self.spec_hits as f64)),
            ("inline.spec_misses", J::Num(self.spec_misses as f64)),
            (
                "simplify.iterations",
                J::Num(self.simplify_iterations as f64),
            ),
            ("vm.runs", J::Num(self.vm_runs as f64)),
            ("vm.cost_units", J::Num(self.vm_cost_units as f64)),
            ("vm.calls", J::Num(self.vm_calls as f64)),
            ("vm.words_allocated", J::Num(self.vm_words_allocated as f64)),
            ("engine.store_lookups", J::Num(self.store_lookups as f64)),
            ("engine.store_hits", J::Num(self.store_hits as f64)),
        ])
    }
}

/// What one replayed job produced.
#[derive(Debug, Clone, PartialEq)]
struct Replayed {
    optimized: String,
    baseline_size: usize,
    optimized_size: usize,
    sites_inlined: usize,
    exec: Option<fdi_vm::Counters>,
}

/// The engine's job path, rebuilt from the layers' public functions with
/// the same caches the engine keeps: parse artifacts and analyses by
/// source, a shared specialization cache, memoized VM executions, and
/// (serve) the disk store in front of everything.
struct Replay<'e> {
    tracer: Tracer,
    spec: SpecializationCache,
    programs: HashMap<u64, Arc<Program>>,
    analyses: HashMap<u64, Arc<FlowAnalysis>>,
    execs: HashMap<u64, fdi_vm::Counters>,
    work: Work,
    store: Option<&'e Engine>,
    run_config: RunConfig,
}

impl<'e> Replay<'e> {
    fn new(traced: bool, store: Option<&'e Engine>) -> Replay<'e> {
        Replay {
            tracer: Tracer::new(traced),
            spec: SpecializationCache::unbounded(),
            programs: HashMap::new(),
            analyses: HashMap::new(),
            execs: HashMap::new(),
            work: Work::default(),
            store,
            run_config: RunConfig::default(),
        }
    }

    /// Replays one job under a `job` root span. With `execute`, the
    /// optimized program runs on the VM (memoized like the engine's sweep).
    fn job(
        &mut self,
        job: usize,
        source: &Arc<str>,
        config: &PipelineConfig,
        execute: bool,
    ) -> Result<Replayed, String> {
        let start = self.tracer.now();
        let result = self.job_body(job, source, config, execute);
        let end = self.tracer.now();
        self.tracer.record("job", job, start, end);
        result
    }

    fn job_body(
        &mut self,
        job: usize,
        source: &Arc<str>,
        config: &PipelineConfig,
        execute: bool,
    ) -> Result<Replayed, String> {
        let Replay {
            tracer: t,
            spec,
            programs,
            analyses,
            execs,
            work,
            store,
            run_config,
        } = self;
        let engine_job = Job::new(source.clone(), *config);
        // The request's trace id and the job key: what serve and submit
        // fingerprint before any work starts.
        let (src_key, _) = t.span("core.fingerprint", job, || {
            black_box(fdi_core::trace_id(source, config));
            engine_job.key()
        });
        if let Some(engine) = store {
            work.store_lookups += 1;
            if let Some(hit) = t.span("engine.store_read", job, || {
                engine.lookup_stored(&engine_job)
            }) {
                work.store_hits += 1;
                return Ok(Replayed {
                    optimized: hit.optimized,
                    baseline_size: hit.baseline_size,
                    optimized_size: hit.optimized_size,
                    sites_inlined: hit.sites_inlined,
                    exec: None,
                });
            }
        }

        let program = match programs.get(&src_key) {
            Some(p) => p.clone(),
            None => {
                let data = t
                    .span("sexpr.read", job, || fdi_sexpr::parse(source))
                    .map_err(|e| e.to_string())?;
                let program = t.span("lang.lower", job, || {
                    let core = fdi_lang::expand_program(&fdi_lang::with_prelude(&data))
                        .map_err(|e| e.to_string())?;
                    fdi_lang::lower_program(&core).map_err(|e| e.to_string())
                })?;
                work.parses += 1;
                work.lang_nodes += program.size() as u64;
                let program = Arc::new(program);
                programs.insert(src_key, program.clone());
                program
            }
        };
        let validate = |t: &mut Tracer, p: &Program| {
            t.span("lang.validate", job, || fdi_lang::validate(p))
                .map_err(|e| format!("invalid program: {e:?}"))
        };

        // The baseline stage: threshold-0 simplification, validated.
        let (baseline, stats) = t.span("simplify", job, || {
            fdi_simplify::simplify_n(&program, config.simplify_iters)
        });
        work.simplify_iterations += stats.iterations as u64;
        validate(t, &baseline)?;

        let flow = match analyses.get(&src_key) {
            Some(f) => f.clone(),
            None => {
                let f = t.span("cfa.solve", job, || {
                    fdi_cfa::analyze_with_limits(&program, config.policy, config.limits)
                });
                if f.stats().aborted {
                    return Err("analysis aborted".into());
                }
                work.cfa_runs += 1;
                work.cfa_steps += f.stats().steps;
                work.cfa_contours += f.stats().contours as u64;
                let f = Arc::new(f);
                analyses.insert(src_key, f.clone());
                f
            }
        };

        // The specialization-cache salt, exactly as the pipeline derives it.
        let text = t.span("lang.unparse", job, || {
            fdi_lang::unparse(&program).to_string()
        });
        let salt = t.span("core.fingerprint", job, || {
            Fingerprint::new()
                .u64(InlinePass::SALT)
                .u64(source_fingerprint(&text))
                .u64(config.analysis_fingerprint())
                .byte(match config.mode {
                    InlineMode::Closed => 0,
                    InlineMode::ClRef => 1,
                })
                .usize(config.unroll)
                .finish()
        });
        let inline_config = InlineConfig {
            threshold: config.threshold,
            mode: config.mode,
            unroll: config.unroll,
        };
        let before = spec.stats();
        let inlined = t.span("inline", job, || {
            fdi_inline::inline_program_with(
                &program,
                &flow,
                &inline_config,
                InlineRuntime {
                    cache: Some((&*spec, salt)),
                    units: 1,
                },
                &Telemetry::off(),
            )
        });
        let after = spec.stats();
        work.spec_hits += after.hits - before.hits;
        work.spec_misses += after.misses - before.misses;
        work.inline_calls_seen += inlined.report.calls_seen as u64;
        work.inline_sites_inlined += inlined.report.sites_inlined as u64;
        validate(t, &inlined.program)?;

        let (optimized, stats) = t.span("simplify", job, || {
            fdi_simplify::simplify_n(&inlined.program, config.simplify_iters)
        });
        work.simplify_iterations += stats.iterations as u64;
        validate(t, &optimized)?;
        let text = t.span("lang.unparse", job, || {
            fdi_lang::unparse(&optimized).to_string()
        });

        let exec = if execute {
            let key = t.span("core.fingerprint", job, || {
                source_fingerprint(&format!("{text}\n{run_config:?}"))
            });
            match execs.get(&key) {
                Some(c) => Some(*c),
                None => {
                    let o: VmOutcome = t
                        .span("vm.exec", job, || fdi_vm::run(&optimized, run_config))
                        .map_err(|e| e.message)?;
                    work.vm_runs += 1;
                    work.vm_cost_units += o.counters.total(&run_config.model);
                    work.vm_calls += o.counters.calls;
                    work.vm_words_allocated += o.counters.words_allocated;
                    execs.insert(key, o.counters);
                    Some(o.counters)
                }
            }
        } else {
            None
        };
        Ok(Replayed {
            optimized: text,
            baseline_size: baseline.size(),
            optimized_size: optimized.size(),
            sites_inlined: inlined.report.sites_inlined,
            exec,
        })
    }

    fn spec_hit_rate(&self) -> f64 {
        rate(self.work.spec_hits, self.work.spec_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

// ------------------------------------------------------------- summary --

/// Engine-side numbers for the per-layer report.
#[derive(Debug, Default)]
struct EngineView {
    analysis_hit_rate: f64,
    exec_hit_rate: f64,
    store_hit_rate: f64,
    store_writes: f64,
}

/// Daemon-side numbers for the per-layer report.
#[derive(Debug, Default)]
struct ServeView {
    ping_rtt_ms: f64,
    residual_ms: f64,
    rejections: f64,
}

/// Per-layer self times (ms) from the traced spans, plus `glue`: job-span
/// time no layer span covers. `serve_ms` is the serve layer's self time,
/// computed by the caller (it is not a span the replay records).
fn self_times(spans: &[Span], serve_ms: f64) -> Vec<(&'static str, f64)> {
    let mut by_layer: HashMap<&str, f64> = HashMap::new();
    let mut glue = 0.0;
    for s in spans {
        match s.name {
            "job" => glue += s.ms(),
            "serve.request" => {}
            _ => {
                *by_layer.entry(s.layer()).or_default() += s.ms();
                glue -= s.ms();
            }
        }
    }
    by_layer.insert("serve", serve_ms);
    let mut out: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|l| (*l, by_layer.get(l).copied().unwrap_or(0.0)))
        .collect();
    out.push(("glue", glue));
    out
}

fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.ms())
}

/// Fills the outcome with every per-layer metric, the self-time table,
/// the integrity checks, and the spans.
#[allow(clippy::too_many_arguments)]
fn finish(
    out: &mut Outcome,
    workload: Workload,
    traced: &Replay<'_>,
    untraced: &Replay<'_>,
    traced_replay_ms: f64,
    untraced_replay_ms: f64,
    wall_ms: f64,
    serve_ms: f64,
    engine: EngineView,
    serve: ServeView,
) {
    let spans = &traced.tracer.spans;
    let w = &traced.work;
    if traced.work != untraced.work {
        out.problem(format!(
            "work counters differ between untraced and traced replay: {:?} vs {:?}",
            untraced.work, traced.work
        ));
    }
    let layers = self_times(spans, serve_ms);
    let layer_sum: f64 = layers
        .iter()
        .filter(|(l, _)| *l != "glue")
        .map(|(_, ms)| ms)
        .sum();
    let coverage = layer_sum / wall_ms;
    if coverage < MIN_COVERAGE {
        out.problem(format!(
            "layer self times cover {:.1}% of the traced wall (< {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let share = |names: &[&str]| {
        layers
            .iter()
            .filter(|(l, _)| names.contains(l))
            .map(|(_, ms)| ms)
            .sum::<f64>()
            / wall_ms
    };
    let dominant = layers
        .iter()
        .filter(|(l, _)| *l != "glue")
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(l, _)| *l);
    // The reason each workload exists, as a claim the trace can confirm.
    let (claim, confirmed) = match workload {
        Workload::Sweep => ("vm dominates", dominant == "vm"),
        // The daemon's fixed per-answer stall (serve) rivals the compile
        // work here, so the claim is about the work the daemon does.
        Workload::ServeCold => (
            "cfa + inline are most of the compile work",
            share(&["cfa", "inline"])
                >= share(&[
                    "sexpr", "lang", "cfa", "inline", "simplify", "core", "engine",
                ]) / 2.0,
        ),
        Workload::ServeHot => ("serve dominates", dominant == "serve"),
    };

    out.metrics = vec![
        metric("sexpr.read_ms", span_ms(spans, "sexpr.read"), "ms"),
        metric("lang.lower_ms", span_ms(spans, "lang.lower"), "ms"),
        metric("lang.validate_ms", span_ms(spans, "lang.validate"), "ms"),
        metric("lang.unparse_ms", span_ms(spans, "lang.unparse"), "ms"),
        metric("lang.nodes", w.lang_nodes as f64, "count"),
        metric("cfa.solve_ms", span_ms(spans, "cfa.solve"), "ms"),
        metric("cfa.runs", w.cfa_runs as f64, "count"),
        metric("cfa.steps", w.cfa_steps as f64, "count"),
        metric("cfa.contours", w.cfa_contours as f64, "count"),
        metric("inline.ms", span_ms(spans, "inline"), "ms"),
        metric("inline.calls_seen", w.inline_calls_seen as f64, "count"),
        metric(
            "inline.sites_inlined",
            w.inline_sites_inlined as f64,
            "count",
        ),
        metric("inline.spec_hit_rate", traced.spec_hit_rate(), "ratio"),
        metric("simplify.ms", span_ms(spans, "simplify"), "ms"),
        metric("simplify.iterations", w.simplify_iterations as f64, "count"),
        metric("vm.exec_ms", span_ms(spans, "vm.exec"), "ms"),
        metric("vm.runs", w.vm_runs as f64, "count"),
        metric("vm.cost_units", w.vm_cost_units as f64, "count"),
        metric("vm.calls", w.vm_calls as f64, "count"),
        metric("vm.words_allocated", w.vm_words_allocated as f64, "count"),
        metric(
            "core.fingerprint_ms",
            span_ms(spans, "core.fingerprint"),
            "ms",
        ),
        metric(
            "engine.analysis_hit_rate",
            engine.analysis_hit_rate,
            "ratio",
        ),
        metric("engine.exec_hit_rate", engine.exec_hit_rate, "ratio"),
        metric("engine.store_hit_rate", engine.store_hit_rate, "ratio"),
        metric("engine.store_writes", engine.store_writes, "count"),
        metric(
            "engine.store_read_ms",
            span_ms(spans, "engine.store_read"),
            "ms",
        ),
        metric("serve.ping_rtt_ms", serve.ping_rtt_ms, "ms"),
        metric("serve.residual_ms", serve.residual_ms, "ms"),
        metric("serve.rejections", serve.rejections, "count"),
        metric("trace.wall_ms", wall_ms, "ms"),
        metric("trace.coverage", coverage, "ratio"),
        metric(
            "trace.overhead_ms",
            traced_replay_ms - untraced_replay_ms,
            "ms",
        ),
    ];
    out.details.push((
        "self_times_ms",
        J::Obj(
            layers
                .iter()
                .map(|(l, ms)| {
                    (
                        l.to_string(),
                        J::obj(vec![("ms", J::Num(*ms)), ("share", J::Num(ms / wall_ms))]),
                    )
                })
                .collect(),
        ),
    ));
    out.details.push((
        "integrity",
        J::obj(vec![
            ("traced_wall_ms", J::Num(wall_ms)),
            ("layer_sum_ms", J::Num(layer_sum)),
            ("coverage", J::Num(coverage)),
            ("traced_replay_ms", J::Num(traced_replay_ms)),
            ("untraced_replay_ms", J::Num(untraced_replay_ms)),
            (
                "tracing_overhead_ms",
                J::Num(traced_replay_ms - untraced_replay_ms),
            ),
            (
                "counters_repeat_exactly",
                J::Bool(traced.work == untraced.work),
            ),
            ("dominant_layer", J::str(dominant)),
            ("claim", J::str(claim)),
            ("claim_confirmed", J::Bool(confirmed)),
        ]),
    ));
    out.details.push(("work", w.to_json()));
    out.details.push((
        "spans",
        J::Arr(
            spans
                .iter()
                .map(|s| {
                    J::Arr(vec![
                        J::str(s.name),
                        J::Num(s.job as f64),
                        J::Num(s.start.as_secs_f64() * 1e6),
                        J::Num(s.end.as_secs_f64() * 1e6),
                    ])
                })
                .collect(),
        ),
    ));
    eprintln!("fdi-perfbench: traced {}: wall {wall_ms:.1} ms, layers cover {:.1}%, dominant {dominant} ({claim}: {confirmed})", workload.name(), coverage * 100.0);
    for (l, ms) in &layers {
        eprintln!("  {l:<9} {ms:>10.2} ms  {:>5.1}%", ms / wall_ms * 100.0);
    }
}

/// Marks engine counters exact when two runs of the same job list agree.
fn exactness(a: &EngineStats, b: &EngineStats) -> J {
    let pairs = [
        ("parse_misses", a.parse_misses, b.parse_misses),
        ("analysis_misses", a.analysis_misses, b.analysis_misses),
        ("analysis_hits", a.analysis_hits, b.analysis_hits),
        ("exec_misses", a.exec_misses, b.exec_misses),
        ("exec_hits", a.exec_hits, b.exec_hits),
        ("spec_hits", a.spec_hits, b.spec_hits),
        ("spec_misses", a.spec_misses, b.spec_misses),
    ];
    J::Obj(
        pairs
            .iter()
            .map(|(k, x, y)| {
                (
                    k.to_string(),
                    J::obj(vec![
                        ("single_worker", J::Num(*x as f64)),
                        ("parallel", J::Num(*y as f64)),
                        (
                            "gate",
                            J::str(if x == y { "exact" } else { "informational" }),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

// --------------------------------------------------------------- sweep --

fn sweep(host: &Host) -> Result<Outcome, String> {
    let config = PipelineConfig::default();
    let run_config = RunConfig::default();
    let sources = workload::sweep_sources();
    let srcs: Vec<&str> = sources.iter().map(|(_, s)| s.as_str()).collect();
    let arcs: Vec<Arc<str>> = srcs.iter().map(|s| Arc::from(*s)).collect();
    let cells: Vec<(usize, usize)> = (0..sources.len())
        .flat_map(|i| workload::THRESHOLDS.iter().map(move |&t| (i, t)))
        .collect();
    let mut out = Outcome::default();

    // The untraced single-thread engine: the reference for bytes, rows and
    // work counts; then the same list on nproc workers, to tell exact
    // engine counters from informational ones.
    let single = Engine::with_jobs(1);
    let started = Instant::now();
    let rows = single.sweep_many(&srcs, &workload::THRESHOLDS, &config, &run_config);
    let engine_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = single.stats();
    let answers = single.run_batch(
        cells
            .iter()
            .map(|&(i, t)| Job::new(arcs[i].clone(), PipelineConfig::with_threshold(t))),
    );
    let parallel = Engine::with_jobs(host.nproc);
    parallel.sweep_many(&srcs, &workload::THRESHOLDS, &config, &run_config);
    out.details
        .push(("engine_counters", exactness(&stats, &parallel.stats())));
    drop((single, parallel));

    let replay = |traced: bool| -> Result<(Replay<'static>, Vec<Replayed>, f64), String> {
        let mut r = Replay::new(traced, None);
        let started = Instant::now();
        let done = cells
            .iter()
            .enumerate()
            .map(|(job, &(i, t))| r.job(job, &arcs[i], &PipelineConfig::with_threshold(t), true))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((r, done, started.elapsed().as_secs_f64() * 1e3))
    };
    let (untraced, untraced_done, untraced_ms) = replay(false)?;
    let (traced, done, traced_ms) = replay(true)?;

    out.attempted = cells.len() as u64;
    for (((&(i, t), got), answer), plain) in
        cells.iter().zip(&done).zip(&answers).zip(&untraced_done)
    {
        let name = sources[i].0.name;
        let row = rows[i]
            .as_ref()
            .ok()
            .and_then(|r| r.iter().find(|row| row.threshold == t));
        let same_bytes = answer
            .as_ref()
            .is_ok_and(|a| fdi_lang::unparse(&a.optimized).to_string() == got.optimized);
        let same_row = row.is_some_and(|row| {
            Some(row.counters) == got.exec
                && row.size_ratio == got.optimized_size as f64 / got.baseline_size as f64
        });
        if !(same_bytes && same_row && got == plain) {
            out.failed += 1;
            out.problem(format!(
                "{name} T={t}: replay disagrees with the engine (bytes {same_bytes}, row {same_row})"
            ));
        }
    }
    for (what, replayed, engine) in [
        (
            "cfa.runs vs analysis_misses",
            traced.work.cfa_runs,
            stats.analysis_misses,
        ),
        (
            "vm.runs vs exec_misses",
            traced.work.vm_runs,
            stats.exec_misses,
        ),
    ] {
        if replayed != engine {
            out.problem(format!("{what}: replay {replayed}, engine {engine}"));
        }
    }
    let wall_ms = traced_ms;
    out.details
        .push(("engine_single_thread_ms", J::Num(engine_ms)));
    let engine = EngineView {
        analysis_hit_rate: rate(stats.analysis_hits, stats.analysis_misses),
        exec_hit_rate: rate(stats.exec_hits, stats.exec_misses),
        store_hit_rate: rate(stats.store_hits, stats.store_misses),
        store_writes: stats.store_writes as f64,
    };
    finish(
        &mut out,
        Workload::Sweep,
        &traced,
        &untraced,
        traced_ms,
        untraced_ms,
        wall_ms,
        0.0,
        engine,
        ServeView::default(),
    );
    Ok(out)
}

// --------------------------------------------------------------- serve --

/// Engine counters as `stats` deltas over the traced requests.
fn stats_delta(before: &Json, after: &Json, key: &str) -> u64 {
    (stat(after, key) - stat(before, key)) as u64
}

fn serve(args: &Args, host: &Host) -> Result<Outcome, String> {
    let bin = &host.fdi;
    let hot = args.workload == Workload::ServeHot;
    let hot_set = workload::hot_set(args.seed);
    let requests: Vec<Request> = if hot {
        workload::hot_order(args.seed, hot_set.len(), HOT_TRACED_ROUNDS * hot_set.len())
            .into_iter()
            .map(|h| hot_set[h].clone())
            .collect()
    } else {
        workload::cold_requests(args.seed, ROUND)
    };
    let mut out = Outcome::default();

    // The in-process engine whose store the replay reads; for serve-hot it
    // is filled with the hot set, as the daemon's is during set-up.
    let dir = fresh_dir("trace-store")?;
    let store = Engine::new(EngineConfig {
        store: Some(dir.join("store")),
        ..EngineConfig::with_workers(1)
    });
    let (daemon, mut conn) = Daemon::start(bin, host.nproc)?;
    if hot {
        for r in &hot_set {
            parse_answer(&conn.call(&r.line)?)?;
            store
                .submit(Job::new(r.source.clone(), r.config()))
                .wait()
                .map_err(|e| e.to_string())?;
        }
    }
    let mut pings = Vec::new();
    for _ in 0..PINGS {
        let sent = Instant::now();
        conn.call("{\"op\":\"ping\"}\n")?;
        pings.push(sent.elapsed().as_secs_f64() * 1e3);
    }

    let replay_all = |r: &mut Replay<'_>| -> Result<(Vec<Replayed>, f64), String> {
        let started = Instant::now();
        let done = requests
            .iter()
            .enumerate()
            .map(|(job, req)| r.job(job, &req.source, &req.config(), false))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((done, started.elapsed().as_secs_f64() * 1e3))
    };
    let mut untraced = Replay::new(false, Some(&store));
    let (untraced_done, untraced_ms) = replay_all(&mut untraced)?;

    // Traced: each request is replayed, then sent to the daemon; the
    // serve layer's self time is the client wall the replay leaves
    // unexplained (queue wait, protocol, encoding, store write).
    let before = conn.stats()?;
    let mut traced = Replay::new(true, Some(&store));
    let (mut traced_ms, mut wall_ms) = (0.0, 0.0);
    let mut rejections = 0;
    for (job, (req, plain)) in requests.iter().zip(&untraced_done).enumerate() {
        let start = traced.tracer.now();
        let got = traced.job(job, &req.source, &req.config(), false)?;
        let service = traced.tracer.now() - start;
        let sent = traced.tracer.now();
        let reply = conn.call(&req.line)?;
        let done = traced.tracer.now();
        traced.tracer.record("serve.request", job, sent, done);
        let rt_ms = (done - sent).as_secs_f64() * 1e3;
        traced_ms += service.as_secs_f64() * 1e3;
        wall_ms += rt_ms;
        out.attempted += 1;
        let same = parse_answer(&reply).map(|a| {
            a == Answer {
                cached: a.cached,
                optimized: got.optimized.clone(),
                baseline_size: got.baseline_size as f64,
                optimized_size: got.optimized_size as f64,
                sites_inlined: got.sites_inlined as f64,
            }
        });
        match same {
            Ok(true) if got == *plain => {}
            Ok(_) => {
                out.failed += 1;
                out.problem(format!(
                    "request {job} ({}): replay bytes differ from the daemon's answer",
                    req.bench.name
                ));
            }
            Err(e) => {
                rejections += 1;
                out.failed += 1;
                out.problem(format!("request {job}: {e}"));
            }
        }
    }
    let after = conn.stats()?;
    let misses = stats_delta(&before, &after, "analysis_misses");
    if traced.work.cfa_runs != misses {
        out.problem(format!(
            "cfa.runs vs analysis_misses: replay {}, daemon {misses}",
            traced.work.cfa_runs
        ));
    }
    if traced.work.vm_runs != stats_delta(&before, &after, "exec_misses") {
        out.problem("vm.runs differs from the daemon's exec_misses".into());
    }
    let delta = |k: &str| stats_delta(&before, &after, k);
    let engine = EngineView {
        analysis_hit_rate: rate(delta("analysis_hits"), delta("analysis_misses")),
        exec_hit_rate: rate(delta("exec_hits"), delta("exec_misses")),
        store_hit_rate: rate(delta("store_hits"), delta("store_misses")),
        store_writes: delta("store_writes") as f64,
    };
    out.details.push((
        "daemon_stats_delta",
        J::Obj(
            [
                "analysis_misses",
                "analysis_hits",
                "store_hits",
                "store_misses",
                "store_writes",
                "spec_hits",
                "spec_misses",
            ]
            .iter()
            .map(|k| (k.to_string(), J::Num(delta(k) as f64)))
            .collect(),
        ),
    ));
    if let Err(e) = daemon.shutdown(conn) {
        out.problem(format!("shutdown: {e}"));
    }

    // Serve self time: everything the daemon's client wall holds beyond the
    // replayed service (so layers + glue add up to the wall).
    let serve_ms = wall_ms - traced_ms;
    let serve = ServeView {
        ping_rtt_ms: median(&pings),
        residual_ms: serve_ms / requests.len() as f64,
        rejections: rejections as f64,
    };
    finish(
        &mut out,
        args.workload,
        &traced,
        &untraced,
        traced_ms,
        untraced_ms,
        wall_ms,
        serve_ms,
        engine,
        serve,
    );
    drop(traced);
    drop(untraced);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
