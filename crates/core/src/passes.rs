//! The unified pass manager: one instrumented pipeline over schedulable
//! passes.
//!
//! Historically the pipeline was a hand-stitched chain in `lib.rs` — every
//! phase repeated the same bookkeeping (budget admission, panic containment,
//! fault-injection seams, validation checkpoints, oracle gates, rollback)
//! with small copy-paste variations. This module factors that bookkeeping
//! into one place:
//!
//! * [`Schedule`] — which transform passes run, in what order, with
//!   optional repetition (`simplify*3`) or bounded fixpoint iteration
//!   (`simplify*`). The default schedule is the paper's
//!   analyze → inline → simplify chain, byte-identical to the historical
//!   pipeline. Each pass's name and fingerprint salt come from its phase
//!   crate ([`fdi_cfa::AnalyzePass`], [`fdi_inline::InlinePass`],
//!   [`fdi_simplify::SimplifyPass`]).
//! * The pass manager *(internal)* — owns the canonical program artifact,
//!   calls each phase function directly, and threads every cross-cutting
//!   concern through one loop: [`crate::Budget`] charging, fault points
//!   derived from pass names ([`FaultPoint::for_pass`]), post-pass
//!   validation, the translation-validation oracle, and
//!   last-validated-program rollback.
//! * [`PassTrace`] — per-pass instrumentation (wall time, fuel, node-count
//!   delta, disposition) surfaced through [`crate::PipelineOutput::passes`].
//!
//! The baseline stage (threshold-0 simplification of the original program)
//! is not schedulable: every run performs it first, because it is what every
//! later failure degrades to.

use crate::faults::{FaultInjector, FaultPoint};
use crate::fingerprint::Fingerprint;
use crate::oracle::{self, compare_observations, Observation, OracleConfig};
use crate::runner::{run_phase, BudgetTracker, Fallback, PipelineHealth};
use crate::{
    AnalysisStats, FlowAnalysis, FrontendError, InlineConfig, InlineReport, Phase, PipelineConfig,
    PipelineError, PipelineOutput, Request, SimplifyStats,
};
use fdi_cfa::AnalyzePass;
use fdi_inline::{InlinePass, InlineRuntime};
use fdi_lang::Program;
use fdi_simplify::SimplifyPass;
use fdi_telemetry::DecisionRecord;
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Maximum number of steps in a [`Schedule`] (it is a fixed-size, `Copy`
/// value so [`PipelineConfig`] stays `Copy`).
pub const MAX_SCHEDULE_STEPS: usize = 8;

/// Iteration bound for a fixpoint step (`simplify*`): the pass repeats until
/// its output unparses identically to its input, or this many applications.
const FIXPOINT_REPS: u32 = 16;

/// A schedulable transform pass.
///
/// Frontend stages are passes too, but only the transform passes appear in
/// schedules: the frontend runs before a [`Program`] exists, and the
/// baseline stage is the rollback target itself, so neither is reorderable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Polyvariant control-flow analysis ([`fdi_cfa::AnalyzePass`]).
    Analyze,
    /// Flow-directed inlining ([`fdi_inline::InlinePass`]).
    Inline,
    /// Local simplification ([`fdi_simplify::SimplifyPass`]).
    Simplify,
}

impl PassId {
    /// The stable pass name: the schedule-grammar keyword, the trace label,
    /// and the key [`FaultPoint::for_pass`] resolves.
    pub fn name(self) -> &'static str {
        match self {
            PassId::Analyze => AnalyzePass::NAME,
            PassId::Inline => InlinePass::NAME,
            PassId::Simplify => SimplifyPass::NAME,
        }
    }

    /// The pass's behaviour-version salt, from its defining crate.
    fn salt(self) -> u64 {
        match self {
            PassId::Analyze => AnalyzePass::SALT,
            PassId::Inline => InlinePass::SALT,
            PassId::Simplify => SimplifyPass::SALT,
        }
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One step of a [`Schedule`]: a pass and a repetition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Which pass runs.
    pub pass: PassId,
    /// How many times: `1` is a single application, `n` applies the pass
    /// `n` times back to back, and `0` is the fixpoint sentinel — repeat
    /// (up to an internal bound) until the program stops changing. Only
    /// simplify may repeat; analysis and inlining are idempotent per
    /// schedule position.
    pub repeat: u8,
}

impl ScheduleStep {
    /// A single application of `pass`.
    pub fn once(pass: PassId) -> ScheduleStep {
        ScheduleStep { pass, repeat: 1 }
    }
}

/// A validated pass schedule: which transform passes run, in order.
///
/// The grammar is a comma-separated list of pass names, each optionally
/// suffixed `*N` (repeat `N` times) or `*` (iterate to a bounded fixpoint);
/// the suffixes are only legal on `simplify`. An `inline` step must be
/// preceded by an `analyze` step, because inlining consumes the flow
/// analysis.
///
/// The default schedule is `analyze,inline,simplify` — exactly the paper's
/// pipeline, and byte-identical to the historical hard-coded chain.
///
/// # Examples
///
/// ```
/// use fdi_core::Schedule;
///
/// let s: Schedule = "analyze, inline, simplify*3".parse().unwrap();
/// assert_eq!(s.to_string(), "analyze,inline,simplify*3");
/// assert_eq!(Schedule::default().to_string(), "analyze,inline,simplify");
/// assert!("inline,simplify".parse::<Schedule>().is_err()); // no analysis
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    steps: [ScheduleStep; MAX_SCHEDULE_STEPS],
    len: u8,
}

impl Schedule {
    /// The validated steps, in run order.
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps[..self.len as usize]
    }

    /// Builds a schedule from explicit steps.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when the steps are empty, exceed
    /// [`MAX_SCHEDULE_STEPS`], repeat a non-simplify pass, or inline
    /// without a preceding analysis.
    pub fn from_steps(steps: &[ScheduleStep]) -> Result<Schedule, ScheduleError> {
        if steps.is_empty() {
            return Err(ScheduleError(
                "a schedule needs at least one step".to_string(),
            ));
        }
        if steps.len() > MAX_SCHEDULE_STEPS {
            return Err(ScheduleError(format!(
                "too many steps: {} (the limit is {MAX_SCHEDULE_STEPS})",
                steps.len()
            )));
        }
        let mut analyzed = false;
        for step in steps {
            match step.pass {
                PassId::Analyze => analyzed = true,
                PassId::Inline if !analyzed => {
                    return Err(ScheduleError(
                        "inline needs a flow analysis: schedule an analyze step before it"
                            .to_string(),
                    ));
                }
                _ => {}
            }
            if step.repeat != 1 && step.pass != PassId::Simplify {
                return Err(ScheduleError(format!(
                    "only simplify can repeat; {} runs once per step",
                    step.pass
                )));
            }
        }
        let mut arr = [ScheduleStep::once(PassId::Simplify); MAX_SCHEDULE_STEPS];
        arr[..steps.len()].copy_from_slice(steps);
        Ok(Schedule {
            steps: arr,
            len: steps.len() as u8,
        })
    }

    /// Parses the schedule grammar (see the type docs).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] on unknown pass names, malformed repeat
    /// suffixes, or any [`Schedule::from_steps`] validation failure.
    pub fn parse(text: &str) -> Result<Schedule, ScheduleError> {
        let mut steps = Vec::new();
        for raw in text.split(',') {
            let token = raw.trim();
            if token.is_empty() {
                return Err(ScheduleError(format!("empty step in {text:?}")));
            }
            let (name, repeat) = match token.split_once('*') {
                None => (token, 1u8),
                Some((name, "")) => (name.trim_end(), 0),
                Some((name, count)) => {
                    let n: u8 = count.trim().parse().map_err(|_| {
                        ScheduleError(format!("bad repeat count {count:?} in step {token:?}"))
                    })?;
                    if n == 0 {
                        return Err(ScheduleError(format!(
                            "repeat count must be at least 1 in step {token:?} \
                             (a bare `*` means fixpoint)"
                        )));
                    }
                    (name.trim_end(), n)
                }
            };
            let pass = match name {
                "analyze" => PassId::Analyze,
                "inline" => PassId::Inline,
                "simplify" => PassId::Simplify,
                other => {
                    return Err(ScheduleError(format!(
                        "unknown pass {other:?} (expected analyze, inline, or simplify)"
                    )));
                }
            };
            steps.push(ScheduleStep { pass, repeat });
        }
        Schedule::from_steps(&steps)
    }

    /// Stable fingerprint of the schedule, folded into
    /// [`PipelineConfig::fingerprint`] so cached artifacts are keyed by
    /// `(source, schedule)`. Each step hashes its pass's behaviour-version
    /// salt, so bumping a salt in a phase crate invalidates exactly the
    /// cached runs that executed that pass.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new().byte(1).usize(self.steps().len());
        for step in self.steps() {
            f = f.u64(step.pass.salt()).byte(step.repeat);
        }
        f.finish()
    }

    /// True when the first step is the analysis — the precondition for a
    /// sweep to share one pre-computed analysis across rows (any earlier
    /// rewrite would invalidate it).
    pub fn starts_with_analyze(&self) -> bool {
        matches!(
            self.steps().first(),
            Some(ScheduleStep {
                pass: PassId::Analyze,
                ..
            })
        )
    }
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule::from_steps(&[
            ScheduleStep::once(PassId::Analyze),
            ScheduleStep::once(PassId::Inline),
            ScheduleStep::once(PassId::Simplify),
        ])
        .expect("the default schedule is valid")
    }
}

impl PartialEq for Schedule {
    fn eq(&self, other: &Schedule) -> bool {
        self.steps() == other.steps()
    }
}

impl Eq for Schedule {}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", step.pass)?;
            match step.repeat {
                1 => {}
                0 => write!(f, "*")?,
                n => write!(f, "*{n}")?,
            }
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = ScheduleError;

    fn from_str(s: &str) -> Result<Schedule, ScheduleError> {
        Schedule::parse(s)
    }
}

/// A schedule that failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError(String);

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleError {}

/// Runs the staged frontend (parse → expand → lower), firing each stage's
/// fault point first. Panics are contained by the caller's `run_phase`
/// envelope.
pub(crate) fn run_staged_frontend(
    src: &str,
    injector: &FaultInjector,
) -> Result<Program, PipelineError> {
    fn frontend(e: impl Into<FrontendError>) -> PipelineError {
        PipelineError::Frontend(e.into())
    }
    injector.fire(FaultPoint::Parse)?;
    let data = fdi_lang::with_prelude(&fdi_sexpr::parse(src).map_err(frontend)?);
    injector.fire(FaultPoint::Expand)?;
    let core = fdi_lang::expand_program(&data).map_err(frontend)?;
    injector.fire(FaultPoint::Lower)?;
    fdi_lang::lower_program(&core).map_err(frontend)
}

/// How a scheduled pass resolved in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassDisposition {
    /// The pass ran and its output was committed.
    Completed,
    /// The analysis was served from a shared (cached) result; the fuel
    /// charge is identical to a computed one.
    CachedAnalysis,
    /// The pass failed (or its output was rejected by a gate); the run
    /// rolled back to the last validated program.
    Degraded,
    /// An earlier pass degraded, so this one never started.
    Skipped,
}

impl fmt::Display for PassDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PassDisposition::Completed => "completed",
            PassDisposition::CachedAnalysis => "cached-analysis",
            PassDisposition::Degraded => "degraded",
            PassDisposition::Skipped => "skipped",
        };
        write!(f, "{name}")
    }
}

/// One pass's execution record.
///
/// The manager guarantees an accounting invariant: summing `fuel` over a
/// run's traces equals [`crate::PipelineOutput::fuel_used`] — every unit
/// the budget was charged is attributed to exactly one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTrace {
    /// The pass's stable name (`"baseline"` and `"frontend"` label the
    /// manager-owned stages).
    pub pass: &'static str,
    /// Wall-clock time spent in the pass, gates included.
    pub wall: Duration,
    /// Fuel charged to the budget for this pass.
    pub fuel: u64,
    /// Program size (AST nodes) entering the pass.
    pub size_before: usize,
    /// Program size after the pass (unchanged for non-rewriting passes and
    /// rejected rewrites).
    pub size_after: usize,
    /// Applications performed: >1 for repeated simplify steps, 0 when the
    /// pass never ran.
    pub runs: u32,
    /// How the pass resolved.
    pub disposition: PassDisposition,
}

/// Fires a fault point under its own panic containment, so an injected
/// panic at a seam outside any `run_phase` body still becomes a typed
/// error. Free when the plan is disabled.
fn fire_contained(
    injector: &FaultInjector,
    phase: Phase,
    point: FaultPoint,
) -> Result<(), PipelineError> {
    if !injector.plan().enabled() {
        return Ok(());
    }
    run_phase(phase, || injector.fire(point)).and_then(|r| r)
}

/// The post-pass validation checkpoint, attributed to `phase`.
fn validated(phase: Phase, program: &Program) -> Result<(), PipelineError> {
    fdi_lang::validate(program).map_err(|error| PipelineError::Validation { phase, error })
}

/// One oracle checkpoint: compares `candidate` against the reference
/// observation and returns the typed rejection, if any. `None` when the
/// oracle is off, the comparison is inconclusive, or the programs agree.
fn oracle_gate(
    reference: Option<&Observation>,
    config: &OracleConfig,
    phase: Phase,
    candidate: &Program,
) -> Option<PipelineError> {
    let reference = reference?;
    let verdict = compare_observations(reference, &oracle::observe(candidate, config));
    oracle::rejection_error(phase, &verdict)
}

/// Where the current flow analysis lives.
enum FlowSlot<'a> {
    /// No analysis has run (or a rewrite invalidated the shared one).
    Empty,
    /// Borrowed from the caller's cache seam.
    Shared(&'a FlowAnalysis),
    /// Computed by a scheduled analyze step (boxed: an analysis is two
    /// orders of magnitude larger than the other variants).
    Owned(Box<FlowAnalysis>),
}

impl FlowSlot<'_> {
    fn get(&self) -> Option<&FlowAnalysis> {
        match self {
            FlowSlot::Empty => None,
            FlowSlot::Shared(f) => Some(f),
            FlowSlot::Owned(f) => Some(f),
        }
    }
}

/// Signal that a step degraded: the schedule halts and remaining steps are
/// traced as skipped.
struct StepHalt;

/// The pass manager: owns the canonical program and runs a schedule over it.
struct PassManager<'a> {
    program: &'a Program,
    request: &'a Request<'a>,
    injector: FaultInjector,
    tracker: BudgetTracker,
    health: PipelineHealth,
    reference: Option<Observation>,
    traces: Vec<PassTrace>,
    baseline: Program,
    optimized: Program,
    flow: FlowSlot<'a>,
    flow_stats: AnalysisStats,
    report: InlineReport,
    decisions: Vec<DecisionRecord>,
    simplify_stats: SimplifyStats,
    /// True once a transform pass has committed a rewrite. Gates two
    /// things: the rollback target (`Baseline` before, `Inlined` after) and
    /// the pass input (the original program before, the rewritten one
    /// after) — reproducing the historical chain, where analysis and
    /// inlining both consumed the *original* program.
    rewritten: bool,
    /// The caller's precomputed analysis (the [`crate::Input::Program`]
    /// cache seam), if any.
    shared: Option<Result<&'a FlowAnalysis, &'a PipelineError>>,
}

/// Runs the request's schedule over `program` — the engine behind
/// [`crate::run`]. Total: any pass failure rolls back to the last validated
/// program and is recorded in the output's health ledger.
pub(crate) fn run_schedule<'a>(
    program: &'a Program,
    shared: Option<Result<&'a FlowAnalysis, &'a PipelineError>>,
    request: &'a Request<'a>,
) -> PipelineOutput {
    let config = &request.config;
    let telemetry = &request.telemetry;
    // A fresh injector per run: the same seed replays exactly the same
    // faults. Disabled plans cost one branch per fire site.
    let injector = FaultInjector::new(config.faults);
    let mut tracker = BudgetTracker::new(&config.budget);
    let mut health = PipelineHealth::default();
    // The oracle's reference observation — the original program's behaviour
    // under the capped VM — is computed once and reused at every gate.
    let reference = config
        .oracle
        .enabled
        .then(|| oracle::observe(program, &config.oracle));
    let mut traces = Vec::with_capacity(config.schedule.steps().len() + 1);

    // The baseline stage: everything later degrades to this (or, if this
    // stage itself fails, to the untouched original).
    let start = Instant::now();
    let baseline_span = telemetry.span("baseline", "pass");
    let attempt = baseline_attempt(program, config, &injector, &tracker, reference.as_ref());
    let (baseline, disposition) = match attempt {
        Ok(b) => (b, PassDisposition::Completed),
        Err(e) => {
            health.record(Phase::Baseline, e, Fallback::Original);
            (program.clone(), PassDisposition::Degraded)
        }
    };
    drop(baseline_span);
    tracker.charge(baseline.size() as u64);
    traces.push(PassTrace {
        pass: "baseline",
        wall: start.elapsed(),
        fuel: baseline.size() as u64,
        size_before: program.size(),
        size_after: baseline.size(),
        runs: 1,
        disposition,
    });

    let mut m = PassManager {
        program,
        request,
        injector,
        tracker,
        health,
        reference,
        traces,
        optimized: baseline.clone(),
        baseline,
        flow: FlowSlot::Empty,
        flow_stats: AnalysisStats::default(),
        report: InlineReport::default(),
        decisions: Vec::new(),
        simplify_stats: SimplifyStats::default(),
        rewritten: false,
        shared,
    };

    let schedule = config.schedule;
    let mut halted = false;
    for step in schedule.steps() {
        if halted {
            m.trace_skipped(*step);
            continue;
        }
        let outcome = match step.pass {
            PassId::Analyze => m.step_analyze(),
            PassId::Inline => m.step_inline(),
            PassId::Simplify => m.step_simplify(step.repeat),
        };
        halted = outcome.is_err();
    }
    m.finish()
}

/// The baseline stage body: threshold-0 simplification of the original
/// program, gated exactly like a scheduled pass. Fails with the first
/// gate's error; the caller handles rollback and charging.
fn baseline_attempt(
    program: &Program,
    config: &PipelineConfig,
    injector: &FaultInjector,
    tracker: &BudgetTracker,
    reference: Option<&Observation>,
) -> Result<Program, PipelineError> {
    tracker.admit(Phase::Baseline)?;
    let b = run_phase(Phase::Baseline, || -> Result<Program, PipelineError> {
        injector.fire(FaultPoint::Simplify)?;
        Ok(fdi_simplify::simplify_n(program, config.simplify_iters).0)
    })
    .and_then(|r| r)?;
    fire_contained(injector, Phase::Baseline, FaultPoint::Validate)?;
    validated(Phase::Baseline, &b)?;
    match oracle_gate(reference, &config.oracle, Phase::Baseline, &b) {
        Some(e) => Err(e),
        None => Ok(b),
    }
}

impl<'a> PassManager<'a> {
    /// The next pass's input: the original program until a rewrite commits,
    /// the rewritten program after.
    fn input(&self) -> &Program {
        if self.rewritten {
            &self.optimized
        } else {
            self.program
        }
    }

    /// The rollback target a failure at this point records.
    fn fallback(&self) -> Fallback {
        if self.rewritten {
            Fallback::Inlined
        } else {
            Fallback::Baseline
        }
    }

    /// Records a degradation, traces the failed pass, and halts the
    /// schedule.
    fn degrade(
        &mut self,
        phase: Phase,
        error: PipelineError,
        start: Instant,
        pass: &'static str,
        size_before: usize,
    ) -> Result<(), StepHalt> {
        self.request.telemetry.instant(
            "pass.degraded",
            "pipeline",
            &[("pass", pass.to_string()), ("error", error.to_string())],
        );
        self.health.record(phase, error, self.fallback());
        self.traces.push(PassTrace {
            pass,
            wall: start.elapsed(),
            fuel: 0,
            size_before,
            size_after: self.optimized.size(),
            runs: 0,
            disposition: PassDisposition::Degraded,
        });
        Err(StepHalt)
    }

    /// Traces a step that never ran because an earlier one degraded.
    fn trace_skipped(&mut self, step: ScheduleStep) {
        self.traces.push(PassTrace {
            pass: step.pass.name(),
            wall: Duration::ZERO,
            fuel: 0,
            size_before: self.optimized.size(),
            size_after: self.optimized.size(),
            runs: 0,
            disposition: PassDisposition::Skipped,
        });
    }

    /// The analyze step. Consumes the caller's shared analysis (cache seam)
    /// when no rewrite has invalidated it; otherwise computes in-process
    /// with the budget deadline threaded into the solver's limits.
    fn step_analyze(&mut self) -> Result<(), StepHalt> {
        let start = Instant::now();
        let _span = self.request.telemetry.span("analyze", "pass");
        let size = self.input().size();
        if let Err(e) = self.tracker.admit(Phase::Analysis) {
            return self.degrade(Phase::Analysis, e, start, "analyze", size);
        }
        let mut disposition = PassDisposition::Completed;
        match if self.rewritten { None } else { self.shared } {
            Some(Ok(flow)) => {
                if let Err(e) = fire_contained(&self.injector, Phase::Analysis, FaultPoint::Analyze)
                {
                    return self.degrade(Phase::Analysis, e, start, "analyze", size);
                }
                self.flow = FlowSlot::Shared(flow);
                self.request
                    .telemetry
                    .instant("analysis.shared", "cache", &[]);
                disposition = PassDisposition::CachedAnalysis;
            }
            Some(Err(e)) => {
                let e = e.clone();
                return self.degrade(Phase::Analysis, e, start, "analyze", size);
            }
            None => {
                let mut limits = self.request.config.limits;
                limits.deadline = match (limits.deadline, self.tracker.deadline()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let result = {
                    let injector = &self.injector;
                    let input = self.input();
                    let (policy, telemetry) = (self.request.config.policy, &self.request.telemetry);
                    run_phase(
                        Phase::Analysis,
                        || -> Result<FlowAnalysis, PipelineError> {
                            injector.fire(FaultPoint::Analyze)?;
                            Ok(fdi_cfa::analyze_instrumented(
                                input, policy, limits, telemetry,
                            ))
                        },
                    )
                };
                match result.and_then(|r| r) {
                    Ok(f) => self.flow = FlowSlot::Owned(Box::new(f)),
                    Err(e) => return self.degrade(Phase::Analysis, e, start, "analyze", size),
                }
            }
        }
        let stats = self
            .flow
            .get()
            .expect("analyze step sets the flow slot")
            .stats()
            .clone();
        self.tracker.charge(stats.steps);
        let (steps, aborted, nodes, reason) =
            (stats.steps, stats.aborted, stats.nodes, stats.abort_reason);
        self.flow_stats = stats;
        if aborted {
            self.health.record(
                Phase::Analysis,
                PipelineError::AnalysisAborted {
                    nodes,
                    steps,
                    reason,
                },
                self.fallback(),
            );
            self.traces.push(PassTrace {
                pass: "analyze",
                wall: start.elapsed(),
                fuel: steps,
                size_before: size,
                size_after: size,
                runs: 1,
                disposition: PassDisposition::Degraded,
            });
            return Err(StepHalt);
        }
        self.traces.push(PassTrace {
            pass: "analyze",
            wall: start.elapsed(),
            fuel: steps,
            size_before: size,
            size_after: size,
            runs: 1,
            disposition,
        });
        Ok(())
    }

    /// Resolve the request's acceleration state into the inliner's runtime
    /// for this step.
    ///
    /// The specialization cache is keyed by a salt covering everything that
    /// determines a specialized body besides the threshold: the source text,
    /// the analysis configuration, and the inliner's mode and unroll depth.
    /// The cache is only offered when the inliner runs on the pristine input
    /// program (the common case for every schedule in this crate); once an
    /// earlier rewrite has run, the source fingerprint would no longer name
    /// the bytes the inliner sees, so the step falls back to live
    /// specialization.
    fn inline_runtime(&self) -> InlineRuntime<'a> {
        let cache = if self.rewritten {
            None
        } else {
            self.request.spec_cache.map(|cache| {
                let src = fdi_lang::unparse(self.program).to_string();
                let salt = Fingerprint::new()
                    .u64(InlinePass::SALT)
                    .u64(crate::fingerprint::source_fingerprint(&src))
                    .u64(self.request.config.analysis_fingerprint())
                    .byte(match self.request.config.mode {
                        crate::InlineMode::Closed => 0,
                        crate::InlineMode::ClRef => 1,
                    })
                    .usize(self.request.config.unroll)
                    .finish();
                (cache, salt)
            })
        };
        InlineRuntime {
            cache,
            units: self.request.inline_units.max(1),
        }
    }

    /// The inline step, checkpointed by validation, the growth cap, and the
    /// oracle.
    fn step_inline(&mut self) -> Result<(), StepHalt> {
        let start = Instant::now();
        let _span = self.request.telemetry.span("inline", "pass");
        let size = self.input().size();
        if let Err(e) = self.tracker.admit(Phase::Inline) {
            return self.degrade(Phase::Inline, e, start, "inline", size);
        }
        if self.flow.get().is_none() {
            // `Schedule::from_steps` forbids this; only a hand-built
            // schedule value can reach it.
            let e = PipelineError::Inline(
                "no flow analysis: schedule an analyze step first".to_string(),
            );
            return self.degrade(Phase::Inline, e, start, "inline", size);
        }
        let config = InlineConfig {
            threshold: self.request.config.threshold,
            mode: self.request.config.mode,
            unroll: self.request.config.unroll,
        };
        // Chaos seam: clearing the shared specialization cache right before
        // the pass must be invisible in the output (the inliner falls back
        // to live specialization).
        if self.injector.poll(FaultPoint::SpecCacheEvict).is_some() {
            if let Some(cache) = self.request.spec_cache {
                cache.clear();
            }
        }
        let inline_rt = self.inline_runtime();
        let result = {
            let injector = &self.injector;
            let input = if self.rewritten {
                &self.optimized
            } else {
                self.program
            };
            let flow = self.flow.get().expect("checked above");
            let request = self.request;
            let size_budget = self.request.config.size_budget;
            run_phase(
                Phase::Inline,
                || -> Result<(Program, InlineReport, Vec<DecisionRecord>), PipelineError> {
                    injector.fire(FaultPoint::Inline)?;
                    let out = fdi_inline::inline_program_budgeted(
                        input,
                        flow,
                        &config,
                        request.guide,
                        size_budget,
                        inline_rt,
                        &request.telemetry,
                    );
                    Ok((out.program, out.report, out.decisions))
                },
            )
        };
        let (mut inlined, inline_report, decisions) = match result.and_then(|r| r) {
            Ok(x) => x,
            Err(e) => return self.degrade(Phase::Inline, e, start, "inline", size),
        };
        // The broken-pass fault: silently substitute a valid but wrong
        // program. It passes validation and the growth cap by design — only
        // the translation-validation oracle (or a downstream behaviour
        // comparison) can catch it.
        if self.injector.poll(FaultPoint::Miscompile).is_some() {
            if let Ok(wrong) = fdi_lang::parse_and_lower("(quote miscompiled)") {
                inlined = wrong;
            }
        }
        if let Err(e) = fire_contained(&self.injector, Phase::Inline, FaultPoint::Validate) {
            return self.degrade(Phase::Inline, e, start, "inline", size);
        }
        if let Err(e) = validated(Phase::Inline, &inlined) {
            return self.degrade(Phase::Inline, e, start, "inline", size);
        }
        if let Err(e) =
            self.tracker
                .check_growth(Phase::Inline, inlined.size(), self.baseline.size())
        {
            return self.degrade(Phase::Inline, e, start, "inline", size);
        }
        if let Some(e) = self.oracle_check(Phase::Inline, &inlined) {
            return self.degrade(Phase::Inline, e, start, "inline", size);
        }
        self.tracker.charge(inlined.size() as u64);
        self.report = inline_report;
        self.decisions = decisions;
        self.traces.push(PassTrace {
            pass: "inline",
            wall: start.elapsed(),
            fuel: inlined.size() as u64,
            size_before: size,
            size_after: inlined.size(),
            runs: 1,
            disposition: PassDisposition::Completed,
        });
        self.optimized = inlined;
        self.rewritten = true;
        Ok(())
    }

    /// The simplify step: `repeat` back-to-back applications (`0` iterates
    /// to a bounded fixpoint), validated and oracle-gated once on the final
    /// program. A single application (`repeat == 1`) performs no fixpoint
    /// comparison — byte-identical to the historical chain.
    fn step_simplify(&mut self, repeat: u8) -> Result<(), StepHalt> {
        let start = Instant::now();
        let _span = self.request.telemetry.span("simplify", "pass");
        let size_before = self.optimized.size();
        if let Err(e) = self.tracker.admit(Phase::Simplify) {
            return self.degrade(Phase::Simplify, e, start, "simplify", size_before);
        }
        let reps: u32 = if repeat == 0 {
            FIXPOINT_REPS
        } else {
            repeat as u32
        };
        let result = {
            let injector = &self.injector;
            let input = &self.optimized;
            let iters = self.request.config.simplify_iters;
            run_phase(
                Phase::Simplify,
                || -> Result<(Program, SimplifyStats, u32), PipelineError> {
                    let mut acc = SimplifyStats::default();
                    let mut runs = 0u32;
                    let mut cur: Option<Program> = None;
                    for _ in 0..reps {
                        injector.fire(FaultPoint::Simplify)?;
                        let step_input: &Program = cur.as_ref().unwrap_or(input);
                        let (next, stats) = fdi_simplify::simplify_n(step_input, iters);
                        acc.merge(stats);
                        runs += 1;
                        let converged = runs < reps
                            && fdi_lang::unparse(&next).to_string()
                                == fdi_lang::unparse(step_input).to_string();
                        cur = Some(next);
                        if converged {
                            break;
                        }
                    }
                    Ok((cur.expect("at least one simplify application"), acc, runs))
                },
            )
        };
        let (simplified, acc, runs) = match result.and_then(|r| r) {
            Ok(x) => x,
            Err(e) => return self.degrade(Phase::Simplify, e, start, "simplify", size_before),
        };
        if let Err(e) = fire_contained(&self.injector, Phase::Simplify, FaultPoint::Validate) {
            return self.degrade(Phase::Simplify, e, start, "simplify", size_before);
        }
        if let Err(e) = validated(Phase::Simplify, &simplified) {
            return self.degrade(Phase::Simplify, e, start, "simplify", size_before);
        }
        if let Some(e) = self.oracle_check(Phase::Simplify, &simplified) {
            return self.degrade(Phase::Simplify, e, start, "simplify", size_before);
        }
        self.tracker.charge(simplified.size() as u64);
        self.simplify_stats.merge(acc);
        self.traces.push(PassTrace {
            pass: "simplify",
            wall: start.elapsed(),
            fuel: simplified.size() as u64,
            size_before,
            size_after: simplified.size(),
            runs,
            disposition: PassDisposition::Completed,
        });
        self.optimized = simplified;
        self.rewritten = true;
        Ok(())
    }

    /// One oracle checkpoint, leaving an instant in the trace whenever the
    /// oracle is live. `None` when the oracle is off, the comparison is
    /// inconclusive, or the programs agree.
    fn oracle_check(&self, phase: Phase, candidate: &Program) -> Option<PipelineError> {
        let verdict = oracle_gate(
            self.reference.as_ref(),
            &self.request.config.oracle,
            phase,
            candidate,
        );
        if self.reference.is_some() {
            self.request.telemetry.instant(
                "oracle.check",
                "oracle",
                &[
                    ("phase", format!("{phase:?}")),
                    ("rejected", verdict.is_some().to_string()),
                ],
            );
        }
        verdict
    }

    fn finish(self) -> PipelineOutput {
        PipelineOutput {
            original_size: self.program.size(),
            baseline_size: self.baseline.size(),
            optimized_size: self.optimized.size(),
            lines: self.program.line_count(),
            original: self.program.clone(),
            baseline: self.baseline,
            optimized: self.optimized,
            flow_stats: self.flow_stats,
            report: self.report,
            decisions: self.decisions,
            simplify_stats: self.simplify_stats,
            health: self.health,
            fuel_used: self.tracker.charged(),
            passes: self.traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    #[test]
    fn default_schedule_is_the_paper_pipeline() {
        let s = Schedule::default();
        assert_eq!(s.to_string(), "analyze,inline,simplify");
        assert!(s.starts_with_analyze());
        assert_eq!(s, "analyze,inline,simplify".parse().unwrap());
        assert_eq!(s.steps().len(), 3);
        assert!(s.steps().iter().all(|st| st.repeat == 1));
    }

    #[test]
    fn parse_handles_repeats_and_whitespace() {
        let s = Schedule::parse(" analyze , inline , simplify*3 ").unwrap();
        assert_eq!(s.to_string(), "analyze,inline,simplify*3");
        assert_eq!(s.steps()[2].repeat, 3);
        let fix = Schedule::parse("analyze,inline,simplify*").unwrap();
        assert_eq!(fix.steps()[2].repeat, 0, "bare * is the fixpoint sentinel");
        assert_eq!(fix.to_string(), "analyze,inline,simplify*");
        // Display round-trips through FromStr.
        assert_eq!(fix, fix.to_string().parse().unwrap());
    }

    #[test]
    fn parse_rejects_malformed_schedules() {
        for bad in [
            "",
            "analyze,,inline",
            "optimize",
            "analyze*2",
            "inline*",
            "simplify*0",
            "simplify*999",
            "inline,simplify",
            "simplify,inline,analyze",
            "analyze,inline,simplify,simplify,simplify,simplify,simplify,simplify,simplify",
        ] {
            assert!(Schedule::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn simplify_only_schedules_are_legal() {
        let s = Schedule::parse("simplify*").unwrap();
        assert!(!s.starts_with_analyze());
        assert_eq!(s.steps().len(), 1);
    }

    #[test]
    fn fingerprint_separates_schedules() {
        let keys = [
            Schedule::default(),
            Schedule::parse("analyze,inline,simplify*2").unwrap(),
            Schedule::parse("analyze,inline,simplify*").unwrap(),
            Schedule::parse("analyze,inline").unwrap(),
            Schedule::parse("analyze,simplify,inline,simplify").unwrap(),
        ]
        .map(|s| s.fingerprint());
        let mut uniq = keys.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "{keys:?}");
        assert_eq!(
            Schedule::default().fingerprint(),
            "analyze,inline,simplify"
                .parse::<Schedule>()
                .unwrap()
                .fingerprint(),
            "equal schedules share a fingerprint"
        );
    }

    #[test]
    fn staged_frontend_matches_the_fused_one() {
        let src = "(define (sq x) (* x x)) (sq 7)";
        let injector = FaultInjector::new(FaultPlan::default());
        let staged = run_staged_frontend(src, &injector).unwrap();
        let fused = fdi_lang::parse_and_lower(src).unwrap();
        assert_eq!(
            fdi_lang::unparse(&staged).to_string(),
            fdi_lang::unparse(&fused).to_string()
        );
    }

    #[test]
    fn pass_names_resolve_their_fault_points() {
        for pass in [PassId::Analyze, PassId::Inline, PassId::Simplify] {
            assert!(
                FaultPoint::for_pass(pass.name()).is_some(),
                "{pass} has no fault point"
            );
        }
    }
}
