//! The flow-directed inlining pipeline (the paper's §2 architecture).
//!
//! Three orthogonal components compose a source-to-source optimizer:
//!
//! 1. **control-flow analysis** ([`fdi_cfa`]) over the lowered program;
//! 2. **inlining** ([`fdi_inline`]) driven by the analysis;
//! 3. **local simplification** ([`fdi_simplify`]), purely syntactic.
//!
//! [`run`] executes one [`Request`]: the input (source text, or a lowered
//! program with an optional precomputed analysis), the configuration, and
//! the out-of-band guide, telemetry, and acceleration state. [`optimize`]
//! and [`optimize_program`] are its shorthands for the defaults. [`sweep`]
//! reruns the pipeline across inline thresholds and measures code size and
//! execution cost on the [`fdi_vm`] substrate — the data behind Table 1 and
//! Fig. 6.
//!
//! # Fault isolation
//!
//! Because every phase is a source-to-source rewrite, the pipeline always
//! holds *some* semantically equivalent program — so no phase failure needs
//! to lose the run. The default entry points **degrade**: each phase runs
//! under panic containment with a shared [`Budget`] (wall-clock deadline,
//! cross-phase fuel, size-growth cap) and a post-phase validation
//! checkpoint, and on any failure the pipeline keeps the last validated
//! program and records what happened in [`PipelineOutput::health`].
//! [`PipelineOutput::into_strict`] restores the error-propagating contract,
//! returning the first failure as a typed [`PipelineError`].
//!
//! # Examples
//!
//! ```
//! use fdi_core::{optimize, PipelineConfig};
//!
//! let out = optimize("(define (sq x) (* x x)) (sq 7)",
//!                    &PipelineConfig::with_threshold(200)).unwrap();
//! assert!(out.optimized_size <= out.baseline_size);
//! assert_eq!(out.report.sites_inlined, 1);
//! assert!(!out.health.degraded());
//! ```

mod error;
pub mod faults;
mod fingerprint;
pub mod framing;
mod oracle;
pub mod passes;
mod runner;

use faults::FaultInjector;
use runner::run_phase;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use error::{BudgetKind, Phase, PipelineError};
pub use faults::{
    fired_counts, jittered_backoff, FaultAction, FaultPlan, FaultPoint, ALL_FAULT_POINTS,
    CHAOS_SEED,
};
pub use fdi_cfa::{AbortReason, AnalysisLimits, AnalysisStats, FlowAnalysis, Polyvariance};
pub use fdi_inline::{
    CacheLedger, InlineConfig, InlineGuide, InlineMode, InlineReport, SpecCacheStats,
    SpecializationCache, UnboundedLedger,
};
pub use fdi_lang::{FrontendError, Program};
pub use fdi_simplify::SimplifyStats;
pub use fdi_telemetry::{
    DecisionReason, DecisionRecord, DecisionTotals, Telemetry, Verdict, REASON_KEYS,
};
pub use fdi_vm::{CostModel, Counters, Outcome, RunConfig, SiteCost, VmError};
pub use fingerprint::{source_fingerprint, trace_id, trace_id_hex, Fingerprint};
pub use oracle::{
    compare_observations, observe, validate_equivalence, Observation, OracleConfig, OracleVerdict,
};
pub use passes::{
    PassDisposition, PassId, PassTrace, Schedule, ScheduleError, ScheduleStep, MAX_SCHEDULE_STEPS,
};
pub use runner::{Budget, Degradation, Fallback, PipelineHealth};

/// Configuration of one pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Inline size threshold `T` (0 disables inlining).
    pub threshold: usize,
    /// Free-variable discipline of the inliner.
    pub mode: InlineMode,
    /// Contour policy of the flow analysis.
    pub policy: Polyvariance,
    /// Analysis safety limits.
    pub limits: AnalysisLimits,
    /// Bound on simplifier iterations.
    pub simplify_iters: usize,
    /// Loop unrolling depth (0 = the paper's configuration).
    pub unroll: usize,
    /// Cross-phase resource budget (unbounded by default).
    pub budget: Budget,
    /// Seeded fault-injection plan (disabled by default; chaos testing).
    pub faults: FaultPlan,
    /// Translation-validation oracle (disabled by default).
    pub oracle: OracleConfig,
    /// The pass schedule (default: the paper's analyze → inline → simplify).
    pub schedule: Schedule,
    /// Whole-run cap on the total specialized size the inliner may commit
    /// (`None` = uncapped, the paper's configuration). With a cap, the
    /// inliner probes first and allocates the budget over candidate sites —
    /// hot-first when a profile guide is supplied, syntactic order otherwise.
    pub size_budget: Option<usize>,
    /// Fingerprint of the loaded profile artifact guiding this run (`None` =
    /// static order). The guide itself travels out-of-band (it is not
    /// `Copy`); this field folds its identity into the job cache key so a
    /// profile-guided run never collides with a static one.
    pub profile_fp: Option<u64>,
}

impl PipelineConfig {
    /// The paper's evaluated configuration (closed-procedure inlining under
    /// polymorphic splitting) at threshold `t`.
    pub fn with_threshold(t: usize) -> PipelineConfig {
        PipelineConfig {
            threshold: t,
            mode: InlineMode::Closed,
            policy: Polyvariance::PolymorphicSplitting,
            limits: AnalysisLimits::default(),
            simplify_iters: fdi_simplify::DEFAULT_ITERS,
            unroll: 0,
            budget: Budget::default(),
            faults: FaultPlan::default(),
            oracle: OracleConfig::default(),
            schedule: Schedule::default(),
            size_budget: None,
            profile_fp: None,
        }
    }

    /// True when a run under this configuration is a function of its input
    /// alone, so its artifacts (a parse, an analysis, a stored output) may
    /// be shared with other runs. A wall-clock deadline, on the budget or
    /// on the analysis limits, anchors the run to its own clock. An enabled
    /// fault plan fires injections private to the run. Either rules sharing
    /// out.
    pub fn shares_artifacts(&self) -> bool {
        self.budget.deadline.is_none() && self.limits.deadline.is_none() && !self.faults.enabled()
    }

    /// May a run under this configuration take an analysis precomputed by
    /// [`analyze_contained`] through [`Input::Program`]? Its artifacts must
    /// be sharable, and its schedule must open with the analysis: a
    /// rewrite before it would invalidate the shared result.
    pub fn reuses_analysis(&self) -> bool {
        self.shares_artifacts() && self.schedule.starts_with_analyze()
    }
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig::with_threshold(200)
    }
}

/// Everything one pipeline run produces.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The lowered input program (prelude included).
    pub original: Program,
    /// The threshold-0 normalization: the original after local
    /// simplification only. Fig. 6 normalizes execution times to this.
    pub baseline: Program,
    /// The inlined and simplified program.
    pub optimized: Program,
    /// Flow-analysis statistics (Table 1's "Analysis Time" column).
    pub flow_stats: AnalysisStats,
    /// What the inliner did.
    pub report: InlineReport,
    /// Per-call-site decision provenance, in the order the inliner visited
    /// the sites. Always populated (telemetry collector or not) when the
    /// inline step committed; empty when it never ran or was rolled back.
    pub decisions: Vec<DecisionRecord>,
    /// What the simplifier did to the inlined program.
    pub simplify_stats: SimplifyStats,
    /// Size of the original program (paper size metric).
    pub original_size: usize,
    /// Size of the baseline program.
    pub baseline_size: usize,
    /// Size of the optimized program — Table 1 reports
    /// `optimized_size / baseline_size`.
    pub optimized_size: usize,
    /// Source lines of the lowered program (Table 1's "Lines").
    pub lines: usize,
    /// Which phases degraded and why (empty on a fully healthy run).
    pub health: PipelineHealth,
    /// Per-pass execution traces, in run order: the manager-owned baseline
    /// stage first, then one entry per schedule step. A run over
    /// [`Input::Source`] prepends a `"frontend"` trace.
    pub passes: Vec<PassTrace>,
    /// Total fuel charged to the [`Budget`] across all passes; always equals
    /// the sum of [`PassTrace::fuel`] over [`PipelineOutput::passes`].
    pub fuel_used: u64,
}

impl PipelineOutput {
    /// Table 1's code-size ratio.
    pub fn size_ratio(&self) -> f64 {
        self.optimized_size as f64 / self.baseline_size as f64
    }

    /// Wall-clock analysis time.
    pub fn analysis_time(&self) -> Duration {
        self.flow_stats.duration
    }

    /// The strict, error-propagating contract: the first recorded phase
    /// failure as a typed error instead of a degraded output.
    ///
    /// # Errors
    ///
    /// Returns the typed [`PipelineError`] of the first failing phase.
    pub fn into_strict(self) -> Result<PipelineOutput, PipelineError> {
        match self.health.first_error() {
            Some(e) => Err(e.clone()),
            None => Ok(self),
        }
    }
}

/// What a pipeline run starts from.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Source text. The run parses, expands, and lowers it first, inside a
    /// `pipeline` telemetry span, and traces the front end as a
    /// `"frontend"` pass ahead of the transform passes.
    Source(&'a str),
    /// An already-lowered program (prelude included).
    Program {
        /// The program to optimize.
        program: &'a Program,
        /// The cache seam for the analysis phase. `None` computes the
        /// analysis in-process. `Some(Ok(flow))` substitutes an analysis
        /// computed elsewhere by [`analyze_contained`] — possibly on another
        /// thread, shared through the engine's content-addressed cache.
        /// `Some(Err(e))` replays a contained analysis failure, degrading
        /// the run to its baseline just as an in-process failure would.
        ///
        /// The budget still gates the analysis phase and is still charged
        /// the analysis's worklist steps, so a precomputed analysis draws
        /// the same fuel as a computed one. Supply one only when
        /// [`PipelineConfig::reuses_analysis`] holds.
        analysis: Option<Result<&'a FlowAnalysis, &'a PipelineError>>,
    },
}

/// One pipeline run: its input, its configuration, and the out-of-band
/// state that travels beside the configuration.
///
/// [`Request::source`] and [`Request::program`] fill in the defaults (no
/// guide, telemetry off, no specialization cache, sequential inlining);
/// override fields with struct-update syntax. The input, the config, and
/// the guide determine the output; the guide's identity enters the cache
/// key through [`PipelineConfig::profile_fp`]. The telemetry handle, the
/// specialization cache, and the inlining units never change the output
/// and never enter any fingerprint.
///
/// # Examples
///
/// ```
/// use fdi_core::{run, PipelineConfig, Request, SpecializationCache};
///
/// let cache = SpecializationCache::unbounded();
/// let request = Request {
///     spec_cache: Some(&cache),
///     inline_units: 4,
///     ..Request::source("(define (sq x) (* x x)) (sq 7)", PipelineConfig::with_threshold(200))
/// };
/// let out = run(&request).unwrap();
/// assert_eq!(out.report.sites_inlined, 1);
/// assert_eq!(out.passes[0].pass, "frontend");
/// ```
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// What the run starts from.
    pub input: Input<'a>,
    /// The run's configuration.
    pub config: PipelineConfig,
    /// Benefit guide for the size budget: when supplied and
    /// [`PipelineConfig::size_budget`] is set, the inliner allocates the
    /// budget over candidate sites hot-first instead of in syntactic order.
    /// A run with a guide must set [`PipelineConfig::profile_fp`].
    pub guide: Option<&'a InlineGuide>,
    /// The stream the frontend, every scheduled pass, the analysis solver,
    /// and the inliner's decision provenance emit into. The disabled
    /// handle costs one branch per emission site and changes no output.
    pub telemetry: Telemetry,
    /// Memo table for the inliner's outermost specializations, shared
    /// across runs and threads. The content salt is derived per run from
    /// the input program and the analysis and inliner configuration.
    /// Output-transparent.
    pub spec_cache: Option<&'a SpecializationCache>,
    /// Parallel inlining units for the root letrec (0 or 1 = sequential).
    /// Output-transparent.
    pub inline_units: usize,
}

impl<'a> Request<'a> {
    /// A run over source text, with the defaults.
    pub fn source(src: &'a str, config: PipelineConfig) -> Request<'a> {
        Request::new(Input::Source(src), config)
    }

    /// A run over a lowered program that computes its own analysis, with
    /// the defaults.
    pub fn program(program: &'a Program, config: PipelineConfig) -> Request<'a> {
        Request::new(
            Input::Program {
                program,
                analysis: None,
            },
            config,
        )
    }

    fn new(input: Input<'a>, config: PipelineConfig) -> Request<'a> {
        Request {
            input,
            config,
            guide: None,
            telemetry: Telemetry::off(),
            spec_cache: None,
            inline_units: 1,
        }
    }
}

/// Runs the pipeline: front end (for source input), then the baseline
/// stage and [`PipelineConfig::schedule`] under the pass manager.
///
/// Every phase is admitted by the budget, executed under panic
/// containment, and its output validated. A phase that panics, trips its
/// safety limits, exhausts the [`Budget`], or produces an invalid program
/// does not fail the run: the pipeline falls back to the last validated
/// program and records the event in [`PipelineOutput::health`]. Use
/// [`PipelineOutput::into_strict`] for the error-propagating contract.
///
/// # Errors
///
/// Only source input can fail: [`PipelineError::Frontend`] when the reader,
/// expander, or lowerer rejects it — with no program, there is nothing to
/// degrade to. Under an enabled fault plan, an injected frontend failure
/// surfaces the same way, as [`PipelineError::FaultInjected`] or
/// [`PipelineError::PhasePanicked`].
pub fn run(request: &Request<'_>) -> Result<PipelineOutput, PipelineError> {
    let src = match request.input {
        Input::Program { program, analysis } => {
            return Ok(passes::run_schedule(program, analysis, request));
        }
        Input::Source(src) => src,
    };
    let telemetry = &request.telemetry;
    let _pipeline = telemetry.span("pipeline", "pipeline");
    let start = Instant::now();
    let program = {
        let _span = telemetry.span("frontend", "pass");
        frontend(src, &request.config)?
    };
    let wall = start.elapsed();
    let mut out = passes::run_schedule(&program, None, request);
    // The frontend runs before the pass manager exists; splice its trace in
    // front so `--trace` shows the whole run. It charges no fuel (the budget
    // only meters the transform pipeline).
    out.passes.insert(
        0,
        PassTrace {
            pass: "frontend",
            wall,
            fuel: 0,
            size_before: 0,
            size_after: program.size(),
            runs: 1,
            disposition: PassDisposition::Completed,
        },
    );
    Ok(out)
}

/// The front end (reader → expander → lowerer), staged so the Parse,
/// Expand, and Lower fault points can fire between stages.
///
/// Without an enabled fault plan this is exactly [`fdi_lang::parse_and_lower`]
/// — including its thread-local parse counter, which the reuse-regression
/// tests observe.
fn frontend(src: &str, config: &PipelineConfig) -> Result<Program, PipelineError> {
    if !config.faults.enabled() {
        return fdi_lang::parse_and_lower(src).map_err(PipelineError::from);
    }
    let injector = FaultInjector::new(config.faults);
    run_phase(Phase::Frontend, || {
        passes::run_staged_frontend(src, &injector)
    })
    .and_then(|r| r)
}

/// Optimizes source text under `config`: [`run`] over
/// [`Request::source`].
///
/// # Errors
///
/// Exactly [`run`]'s contract.
pub fn optimize(src: &str, config: &PipelineConfig) -> Result<PipelineOutput, PipelineError> {
    run(&Request::source(src, *config))
}

/// Optimizes a lowered program under `config`: [`run`] over
/// [`Request::program`].
///
/// # Errors
///
/// Never fails: every phase failure degrades into
/// [`PipelineOutput::health`]. The `Result` keeps the signature uniform
/// with [`optimize`].
pub fn optimize_program(
    program: &Program,
    config: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    run(&Request::program(program, *config))
}

/// Runs the front end alone (reader → expander → lowerer), under panic
/// containment.
///
/// This is the compute half of the engine's parse cache: the lowered
/// [`Program`] depends only on the source text, so one call serves every
/// configuration over the same source (key it by [`source_fingerprint`]).
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when the source is rejected and
/// [`PipelineError::PhasePanicked`] when the front end panics.
pub fn parse_contained(src: &str) -> Result<Program, PipelineError> {
    run_phase(Phase::Frontend, || fdi_lang::parse_and_lower(src))
        .and_then(|r| r.map_err(PipelineError::from))
}

/// Runs the analysis phase alone, exactly as the pipeline would: under
/// panic containment, with the configuration's policy and limits.
///
/// This is the compute half of the engine's analysis cache: the result is
/// threshold-independent, so one call serves every transform-side
/// configuration over the same program (key it by
/// [`PipelineConfig::analysis_fingerprint`]). An aborted analysis is an
/// `Ok` carrying aborted stats — handed to [`run`] through
/// [`Input::Program`], it becomes the same degradation an in-process abort
/// produces.
///
/// Share the result only with runs whose configuration
/// [`reuses_analysis`](PipelineConfig::reuses_analysis).
///
/// # Errors
///
/// Returns [`PipelineError::PhasePanicked`] when the analysis panics.
pub fn analyze_contained(
    program: &Program,
    config: &PipelineConfig,
) -> Result<FlowAnalysis, PipelineError> {
    run_phase(Phase::Analysis, || {
        fdi_cfa::analyze_with_limits(program, config.policy, config.limits)
    })
}

/// Runs the pipeline repeatedly — analyze, inline, simplify, re-analyze —
/// until the program stops changing or `max_rounds` is reached.
///
/// The paper's design makes all inline decisions *before* simplification in
/// a single pass (§2.2, contrasting SML/NJ's intertwined approach); §2.3
/// notes that later optimizations may reuse flow information. Iterating the
/// whole pipeline answers the natural follow-up — how much is left on the
/// table after one round? (Empirically: very little; see the test below and
/// the `rounds` field of the result.)
///
/// Rounds degrade independently; the returned output's health ledger
/// accumulates every round's degradations. A round that degrades ends the
/// iteration (its fallback output would re-derive the same program).
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when `src` does not lower.
pub fn optimize_to_fixpoint(
    src: &str,
    config: &PipelineConfig,
    max_rounds: usize,
) -> Result<(PipelineOutput, usize), PipelineError> {
    let program = frontend(src, config)?;
    let mut out = optimize_program(&program, config)?;
    let mut health = std::mem::take(&mut out.health);
    let mut rounds = 1;
    while rounds < max_rounds && !health.degraded() {
        let mut next = optimize_program(&out.optimized, config)?;
        rounds += 1;
        // Stop once a round neither inlines anything nor shrinks the code.
        let stable = next.report.sites_inlined == 0 && next.optimized_size >= out.optimized_size;
        health.absorb(std::mem::take(&mut next.health));
        out = next;
        if stable {
            break;
        }
    }
    out.health = health;
    Ok((out, rounds))
}

/// One row of a threshold sweep: the measurements behind Table 1 and Fig. 6.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The inline threshold.
    pub threshold: usize,
    /// `optimized_size / baseline_size` (Table 1).
    pub size_ratio: f64,
    /// Execution counters of the optimized program.
    pub counters: Counters,
    /// Mutator time normalized to the threshold-0 total.
    pub norm_mutator: f64,
    /// Collector time normalized to the threshold-0 total.
    pub norm_collector: f64,
    /// Total time normalized to the threshold-0 total (Fig. 6 bar height).
    pub norm_total: f64,
    /// Inliner activity.
    pub report: InlineReport,
    /// The final value (must agree across thresholds).
    pub value: String,
    /// Pipeline and execution health of this row. A degraded row reports the
    /// threshold-0 baseline's measurements.
    pub health: PipelineHealth,
}

/// Runs the pipeline at each threshold and executes the results, normalizing
/// to the threshold-0 run like Fig. 6.
///
/// Each row degrades independently: a threshold whose pipeline degrades,
/// whose output fails to execute, or whose output diverges from the
/// threshold-0 answer falls back to the baseline measurements with the
/// failure recorded in that row's health — one pathological configuration
/// no longer kills the whole sweep.
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when `src` does not lower, and
/// [`PipelineError::Vm`] when the threshold-0 baseline itself fails to
/// execute (there is no healthy measurement to normalize to).
///
/// # Examples
///
/// ```
/// use fdi_core::{sweep, PipelineConfig, RunConfig};
///
/// let rows = sweep(
///     "(define (sq x) (* x x)) (cons (sq 2) (sq 3))",
///     &[200],
///     &PipelineConfig::default(),
///     &RunConfig::default(),
/// ).unwrap();
/// assert_eq!(rows.len(), 2); // threshold 0 baseline + threshold 200
/// assert_eq!(rows[0].value, rows[1].value);
/// assert!(rows.iter().all(|r| !r.health.degraded()));
/// ```
pub fn sweep(
    src: &str,
    thresholds: &[usize],
    config: &PipelineConfig,
    run_config: &RunConfig,
) -> Result<Vec<SweepRow>, PipelineError> {
    let program = frontend(src, config)?;
    sweep_program(&program, thresholds, config, run_config)
}

/// [`sweep`] for an already-lowered program.
///
/// The flow analysis is threshold-independent, so it runs **once** per sweep
/// (when [`PipelineConfig::reuses_analysis`] allows) and is shared across
/// every threshold's pipeline; only the inline + simplify tail runs per
/// threshold.
fn sweep_program(
    program: &Program,
    thresholds: &[usize],
    config: &PipelineConfig,
    run_config: &RunConfig,
) -> Result<Vec<SweepRow>, PipelineError> {
    // Always measure threshold 0 first for normalization.
    let mut all: Vec<usize> = vec![0];
    all.extend(thresholds.iter().copied().filter(|&t| t != 0));
    let shared = config
        .reuses_analysis()
        .then(|| analyze_contained(program, config));
    let input = Input::Program {
        program,
        analysis: shared.as_ref().map(Result::as_ref),
    };
    let mut cells = Vec::with_capacity(all.len());
    for t in all {
        let cfg = PipelineConfig {
            threshold: t,
            ..*config
        };
        let output = run(&Request::new(input, cfg))?;
        let exec = execute_cell(&output, t, run_config);
        cells.push(SweepCell {
            threshold: t,
            output: Arc::new(output),
            exec,
        });
    }
    assemble_sweep_rows(cells, run_config)
}

/// One threshold's pipeline output and (unnormalized) execution outcome —
/// the unit of work [`assemble_sweep_rows`] folds into [`SweepRow`]s.
///
/// The output rides in an [`Arc`] so the engine's deduplicated jobs can
/// share one pipeline result between cells.
#[derive(Debug)]
pub struct SweepCell {
    /// The inline threshold.
    pub threshold: usize,
    /// The pipeline's output at this threshold.
    pub output: Arc<PipelineOutput>,
    /// The contained VM execution of the optimized program.
    pub exec: Result<Outcome, PipelineError>,
}

/// Executes one sweep cell's optimized program on the cost-model VM, under
/// panic containment.
///
/// Divergence against the threshold-0 answer is *not* checked here — that
/// needs the sweep-wide expected value and happens in
/// [`assemble_sweep_rows`] — so cells can execute in any order, or in
/// parallel.
///
/// # Errors
///
/// Returns [`PipelineError::Vm`] when the program fails to execute and
/// [`PipelineError::PhasePanicked`] when the VM panics.
pub fn execute_cell(
    output: &PipelineOutput,
    threshold: usize,
    run_config: &RunConfig,
) -> Result<Outcome, PipelineError> {
    run_phase(Phase::Execution, || {
        fdi_vm::run(&output.optimized, run_config)
    })
    .and_then(|r| {
        r.map_err(|e| PipelineError::Vm {
            threshold,
            message: e.message,
        })
    })
}

/// Folds executed sweep cells into normalized [`SweepRow`]s — the
/// order-dependent half of a sweep.
///
/// Cells must arrive in sweep order (threshold 0 first): the first cell
/// anchors normalization and the expected answer. Each later cell is checked
/// for behaviour divergence against that answer; a cell whose pipeline
/// degraded or whose execution failed falls back to the baseline
/// measurements with the failure recorded in its row's health.
///
/// # Errors
///
/// Returns the threshold-0 cell's execution error when it has none to
/// normalize to.
pub fn assemble_sweep_rows(
    cells: Vec<SweepCell>,
    run_config: &RunConfig,
) -> Result<Vec<SweepRow>, PipelineError> {
    let mut rows: Vec<SweepRow> = Vec::with_capacity(cells.len());
    let mut base_total: Option<f64> = None;
    let mut base_counters: Option<Counters> = None;
    let mut expected: Option<(String, String)> = None;
    let model = &run_config.model;
    for cell in cells {
        let t = cell.threshold;
        let out = &*cell.output;
        let mut health = out.health.clone();
        let run_result = cell.exec.and_then(|result| match &expected {
            Some((v, o)) if *v != result.value || *o != result.output => {
                Err(PipelineError::BehaviorDivergence {
                    threshold: t,
                    expected: v.clone(),
                    got: result.value.clone(),
                })
            }
            _ => Ok(result),
        });
        match run_result {
            Ok(result) => {
                if expected.is_none() {
                    expected = Some((result.value.clone(), result.output.clone()));
                }
                let total = result.counters.total(model) as f64;
                let base = *base_total.get_or_insert(total);
                base_counters.get_or_insert(result.counters);
                rows.push(SweepRow {
                    threshold: t,
                    size_ratio: out.size_ratio(),
                    counters: result.counters,
                    norm_mutator: result.counters.mutator as f64 / base,
                    norm_collector: result.counters.collector(model) as f64 / base,
                    norm_total: total / base,
                    report: out.report,
                    value: result.value,
                    health,
                });
            }
            Err(e) => {
                // The threshold-0 row anchors normalization; without it the
                // sweep has no healthy measurement to degrade to.
                let (Some((value, _)), Some(counters), Some(base)) =
                    (&expected, &base_counters, base_total)
                else {
                    return Err(e);
                };
                health.record(Phase::Execution, e, Fallback::Baseline);
                rows.push(SweepRow {
                    threshold: t,
                    size_ratio: 1.0,
                    counters: *counters,
                    norm_mutator: counters.mutator as f64 / base,
                    norm_collector: counters.collector(model) as f64 / base,
                    norm_total: 1.0,
                    report: InlineReport::default(),
                    value: value.clone(),
                    health,
                });
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_produces_equivalent_smaller_program() {
        let src = "(define (compose f g) (lambda (x) (f (g x))))
                   (define (inc n) (+ n 1))
                   (define (dbl n) (* n 2))
                   ((compose inc dbl) 20)";
        let out = optimize(src, &PipelineConfig::with_threshold(300)).unwrap();
        assert!(!out.health.degraded());
        let base = fdi_vm::run(&out.baseline, &RunConfig::default()).unwrap();
        let opt = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
        assert_eq!(base.value, "41");
        assert_eq!(opt.value, "41");
        assert!(opt.counters.calls <= base.counters.calls);
    }

    #[test]
    fn threshold_zero_is_identity_modulo_simplification() {
        let src = "(define (f x) (* x x)) (f (f 2))";
        let out = optimize(src, &PipelineConfig::with_threshold(0)).unwrap();
        assert_eq!(out.report.sites_inlined, 0);
        assert_eq!(out.baseline_size, out.optimized_size);
        assert!((out.size_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_normalizes_to_threshold_zero() {
        let src = "(define (add a b) (+ a b))
                   (letrec ((loop (lambda (n acc)
                                    (if (zero? n) acc (loop (- n 1) (add acc n))))))
                     (loop 500 0))";
        let rows = sweep(
            src,
            &[0, 100, 500],
            &PipelineConfig::default(),
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        assert!((rows[0].norm_total - 1.0).abs() < 1e-9);
        // Larger thresholds should never be slower on this call-heavy loop.
        assert!(rows[2].norm_total <= rows[0].norm_total);
        // All rows computed the same value.
        assert!(rows.iter().all(|r| r.value == rows[0].value));
        assert!(rows.iter().all(|r| !r.health.degraded()));
    }

    #[test]
    fn sweep_detects_behavior_preservation() {
        // Self-check: a program with output must keep it identical.
        let src = "(define (shout x) (begin (display x) (newline) x))
                   (shout (+ 1 2))";
        let rows = sweep(
            src,
            &[0, 200],
            &PipelineConfig::default(),
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn map_example_end_to_end() {
        // Figs. 1–3 as an executable pipeline test.
        let src = "(define m '((1 2) (3 4) (5 6)))
                   (map car m)";
        let out = optimize(src, &PipelineConfig::with_threshold(500)).unwrap();
        assert!(out.report.sites_inlined >= 1);
        let r = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "(1 3 5)");
    }

    #[test]
    fn lines_and_sizes_are_populated() {
        let out = optimize("(+ 1 2)", &PipelineConfig::default()).unwrap();
        assert!(out.lines >= 1);
        assert!(out.original_size >= 3);
        assert_eq!(out.optimized_size, 1, "folds to a constant");
    }

    #[test]
    fn fixpoint_iteration_converges_quickly() {
        let src = "(define (sq x) (* x x))
                   (define (tw f x) (f (f x)))
                   (cons (tw sq 2) (tw sq 3))";
        let (out, rounds) =
            optimize_to_fixpoint(src, &PipelineConfig::with_threshold(300), 5).unwrap();
        assert!(rounds <= 3, "pipeline should converge fast, took {rounds}");
        let r = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "(16 . 81)");
    }

    #[test]
    fn size_budget_and_guide_steer_the_pipeline() {
        let src = "(define (sq x) (* x x)) (define (inc n) (+ n 1)) (cons (sq 7) (inc 1))";
        let mut cfg = PipelineConfig::with_threshold(300);
        let full = optimize(src, &cfg).unwrap();
        assert!(full.report.sites_inlined >= 2);
        let expected = fdi_vm::run(&full.optimized, &RunConfig::default()).unwrap();

        // Budget 0: every candidate is cut, behaviour is preserved.
        cfg.size_budget = Some(0);
        let none = optimize(src, &cfg).unwrap();
        assert!(!none.health.degraded());
        assert_eq!(none.report.sites_inlined, 0);
        assert!(none.report.rejected_budget >= 2);
        assert!(none
            .decisions
            .iter()
            .any(|d| matches!(d.reason, DecisionReason::SizeBudgetExhausted { .. })));
        let r = fdi_vm::run(&none.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, expected.value);

        // A guide under a tight budget spends it on the hot site first.
        let hot = full
            .decisions
            .iter()
            .rev()
            .find_map(|d| match d.reason {
                DecisionReason::Inlined { specialized_size } => {
                    Some((d.site_label.clone(), specialized_size))
                }
                _ => None,
            })
            .expect("the full run inlined something");
        cfg.size_budget = Some(hot.1);
        cfg.profile_fp = Some(0x1234);
        let mut guide = InlineGuide::new();
        guide.set(hot.0.clone(), 1_000_000);
        let guided = run(&Request {
            guide: Some(&guide),
            ..Request::source(src, cfg)
        })
        .unwrap();
        assert!(!guided.health.degraded());
        assert!(guided
            .decisions
            .iter()
            .any(|d| d.site_label == hot.0 && matches!(d.reason, DecisionReason::Inlined { .. })));
        let r = fdi_vm::run(&guided.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, expected.value);
    }

    #[test]
    fn policies_are_selectable() {
        let mut cfg = PipelineConfig::with_threshold(200);
        cfg.policy = Polyvariance::Monovariant;
        let out = optimize("(define (sq x) (* x x)) (sq 7)", &cfg).unwrap();
        assert_eq!(
            out.report.sites_inlined, 1,
            "0CFA still finds unique callees"
        );
    }

    #[test]
    fn tiny_limits_degrade_instead_of_failing() {
        let mut cfg = PipelineConfig::with_threshold(200);
        cfg.limits = AnalysisLimits {
            max_contour_len: 1,
            max_nodes: 10,
            max_steps: 5,
            deadline: None,
        };
        let src = "(define (sq x) (* x x)) (sq (sq 7))";
        let out = optimize(src, &cfg).unwrap();
        assert!(out.health.degraded());
        assert!(matches!(
            out.health.first_error(),
            Some(PipelineError::AnalysisAborted { .. })
        ));
        assert!(fdi_lang::validate(&out.optimized).is_ok());
        // The degraded output still computes the right answer.
        let r = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "2401");
        // Strict mode propagates the same failure as a typed error.
        let err = optimize(src, &cfg).unwrap().into_strict().unwrap_err();
        assert!(matches!(err, PipelineError::AnalysisAborted { .. }));
    }

    #[test]
    fn exhausted_fuel_skips_optimization_phases() {
        let mut cfg = PipelineConfig::with_threshold(200);
        cfg.budget = Budget::default().with_fuel(1);
        let out = optimize("(define (sq x) (* x x)) (sq 7)", &cfg).unwrap();
        assert!(out.health.degraded());
        assert!(matches!(
            out.health.first_error(),
            Some(PipelineError::BudgetExhausted { .. })
        ));
        let r = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "49");
    }

    #[test]
    fn sweep_parses_and_analyzes_once() {
        // Regression test for the batch-engine refactor: a threshold sweep
        // must parse its source once and run the (threshold-independent)
        // flow analysis once, not once per threshold. The counters are
        // thread-local, so parallel test threads don't interfere.
        let src = "(define (add a b) (+ a b)) (add (add 1 2) 3)";
        let parses = fdi_lang::parse_count();
        let analyses = fdi_cfa::analyze_count();
        let rows = sweep(
            src,
            &[50, 100, 200, 500, 1000],
            &PipelineConfig::default(),
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(fdi_lang::parse_count() - parses, 1, "re-parsed per row");
        assert_eq!(
            fdi_cfa::analyze_count() - analyses,
            1,
            "re-analyzed per threshold"
        );
    }

    #[test]
    fn fixpoint_parses_once_per_call() {
        let src = "(define (sq x) (* x x)) (sq (sq 2))";
        let parses = fdi_lang::parse_count();
        let (_, rounds) =
            optimize_to_fixpoint(src, &PipelineConfig::with_threshold(300), 5).unwrap();
        assert!(rounds >= 1);
        assert_eq!(fdi_lang::parse_count() - parses, 1, "re-parsed per round");
    }

    #[test]
    fn shared_analysis_matches_in_process_analysis() {
        let src = "(define (compose f g) (lambda (x) (f (g x))))
                   (define (inc n) (+ n 1))
                   ((compose inc inc) 40)";
        let program = fdi_lang::parse_and_lower(src).unwrap();
        let config = PipelineConfig::with_threshold(300);
        let flow = analyze_contained(&program, &config).unwrap();
        let shared = run(&Request {
            input: Input::Program {
                program: &program,
                analysis: Some(Ok(&flow)),
            },
            ..Request::program(&program, config)
        })
        .unwrap();
        let solo = optimize_program(&program, &config).unwrap();
        assert_eq!(
            fdi_lang::unparse(&shared.optimized).to_string(),
            fdi_lang::unparse(&solo.optimized).to_string()
        );
        assert_eq!(shared.optimized_size, solo.optimized_size);
        assert_eq!(shared.report.sites_inlined, solo.report.sites_inlined);
        assert!(!shared.health.degraded());
    }

    #[test]
    fn replayed_analysis_failure_degrades_to_baseline() {
        let src = "(define (sq x) (* x x)) (sq 7)";
        let program = fdi_lang::parse_and_lower(src).unwrap();
        let config = PipelineConfig::with_threshold(300);
        let err = PipelineError::PhasePanicked {
            phase: Phase::Analysis,
            message: "replayed".to_string(),
        };
        let out = run(&Request {
            input: Input::Program {
                program: &program,
                analysis: Some(Err(&err)),
            },
            ..Request::program(&program, config)
        })
        .unwrap();
        assert!(out.health.degraded());
        assert!(matches!(
            out.health.first_error(),
            Some(PipelineError::PhasePanicked { .. })
        ));
        assert_eq!(out.report.sites_inlined, 0);
        let r = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "49");
    }

    #[test]
    fn oracle_accepts_clean_runs() {
        let mut cfg = PipelineConfig::with_threshold(300);
        cfg.oracle = OracleConfig::on();
        let src = "(define (compose f g) (lambda (x) (f (g x))))
                   (define (inc n) (+ n 1))
                   ((compose inc inc) 40)";
        let out = optimize(src, &cfg).unwrap();
        assert!(!out.health.degraded(), "{}", out.health.summary());
        assert!(out.report.sites_inlined >= 1);
    }

    #[test]
    fn miscompile_is_caught_by_the_oracle() {
        // The test-only broken pass: the Miscompile fault silently replaces
        // the inliner's output with a valid but wrong program. Without the
        // oracle the pipeline reports a healthy run with wrong behaviour;
        // with it, the run degrades to the baseline and records the
        // rejection.
        let src = "(define (sq x) (* x x)) (sq 7)";
        let mut broken = PipelineConfig::with_threshold(300);
        broken.faults = FaultPlan::only(1, &[FaultPoint::Miscompile]);

        let silent = optimize(src, &broken).unwrap();
        assert!(!silent.health.degraded(), "nothing but the oracle sees it");
        let r = fdi_vm::run(&silent.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "miscompiled", "the miscompile really happened");

        broken.oracle = OracleConfig::on();
        let caught = optimize(src, &broken).unwrap();
        assert!(
            caught.health.oracle_rejected(),
            "{}",
            caught.health.summary()
        );
        assert!(matches!(
            caught.health.first_error(),
            Some(PipelineError::OracleRejected {
                phase: Phase::Inline,
                ..
            })
        ));
        // The degraded output still computes the right answer.
        let r = fdi_vm::run(&caught.optimized, &RunConfig::default()).unwrap();
        assert_eq!(r.value, "49");
    }

    #[test]
    fn injected_faults_replay_deterministically() {
        let src = "(define (add a b) (+ a b)) (add (add 1 2) 3)";
        let mut cfg = PipelineConfig::with_threshold(200);
        cfg.faults = FaultPlan::only(
            CHAOS_SEED,
            &[
                FaultPoint::Analyze,
                FaultPoint::Inline,
                FaultPoint::Simplify,
                FaultPoint::Validate,
            ],
        )
        .with_rate(1, 3);
        let a = optimize(src, &cfg).unwrap();
        let b = optimize(src, &cfg).unwrap();
        assert_eq!(a.health.summary(), b.health.summary());
        assert_eq!(
            fdi_lang::unparse(&a.optimized).to_string(),
            fdi_lang::unparse(&b.optimized).to_string()
        );
    }

    #[test]
    fn transform_faults_degrade_not_fail() {
        // Whatever mix of panics, typed errors, and latency the plan deals
        // out mid-pipeline, the degrading entry point stays total and its
        // output stays semantically correct.
        let src = "(define (sq x) (* x x)) (sq (sq 2))";
        for seed in 0..24u64 {
            let mut cfg = PipelineConfig::with_threshold(300);
            cfg.faults = FaultPlan::only(
                seed,
                &[
                    FaultPoint::Analyze,
                    FaultPoint::Inline,
                    FaultPoint::Simplify,
                ],
            )
            .with_rate(1, 2);
            let out = optimize(src, &cfg).unwrap();
            let r = fdi_vm::run(&out.optimized, &RunConfig::default()).unwrap();
            assert_eq!(r.value, "16", "seed {seed} broke behaviour");
        }
    }

    #[test]
    fn frontend_faults_surface_as_typed_errors() {
        // Find a seed whose first Parse arrival is a hard failure (panic or
        // typed error, not latency) and check it surfaces as a typed error
        // from the degrading entry point instead of unwinding.
        let seed = (0..64u64)
            .find(|&s| {
                matches!(
                    FaultPlan::only(s, &[FaultPoint::Parse]).fires(FaultPoint::Parse, 0),
                    Some(FaultAction::Panic | FaultAction::Error)
                )
            })
            .expect("some seed fails hard on the first parse");
        let mut cfg = PipelineConfig::with_threshold(200);
        cfg.faults = FaultPlan::only(seed, &[FaultPoint::Parse]);
        let err = optimize("(+ 1 2)", &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::FaultInjected { .. } | PipelineError::PhasePanicked { .. }
            ),
            "unexpected error: {err}"
        );
        assert!(err.is_transient());
    }

    #[test]
    fn frontend_errors_still_propagate() {
        let err = optimize("(let ((x 1)", &PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Frontend(_)));
        let err = optimize("(((", &PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Frontend(_)));
    }
}
