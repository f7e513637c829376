//! The typed error taxonomy of the pipeline.
//!
//! Every way a pipeline run can fail is a [`PipelineError`] variant tagged
//! with the [`Phase`] that failed. The degrading entry points
//! ([`crate::optimize`], [`crate::sweep`]) convert these into
//! [`crate::PipelineHealth`] records instead of propagating them;
//! [`crate::PipelineOutput::into_strict`] returns the first one directly.

use fdi_cfa::AbortReason;
use std::fmt;

/// A pipeline phase, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reader, macro expander, lowering.
    Frontend,
    /// Simplification of the original program (the threshold-0 fallback).
    Baseline,
    /// Polyvariant control-flow analysis.
    Analysis,
    /// Flow-directed inlining.
    Inline,
    /// Local simplification of the inlined program.
    Simplify,
    /// Execution of a pipeline output on the cost-model VM (sweeps only).
    Execution,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Phase::Frontend => "frontend",
            Phase::Baseline => "baseline",
            Phase::Analysis => "analysis",
            Phase::Inline => "inline",
            Phase::Simplify => "simplify",
            Phase::Execution => "execution",
        };
        write!(f, "{name}")
    }
}

/// Which budget resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The shared wall-clock deadline passed.
    Deadline,
    /// The cross-phase fuel counter reached zero.
    Fuel,
    /// A phase output exceeded the size-growth cap.
    Growth {
        /// Observed size of the phase output.
        size: usize,
        /// Maximum size the cap allowed.
        cap: usize,
    },
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Deadline => write!(f, "wall-clock deadline exceeded"),
            BudgetKind::Fuel => write!(f, "fuel exhausted"),
            BudgetKind::Growth { size, cap } => {
                write!(f, "size growth cap exceeded ({size} > {cap})")
            }
        }
    }
}

/// A typed pipeline failure.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// The front end rejected the source (reader, expander, or lowerer).
    Frontend(fdi_lang::FrontendError),
    /// The flow analysis stopped on one of its safety limits.
    AnalysisAborted {
        /// Flow-graph nodes at abort.
        nodes: usize,
        /// Worklist steps at abort.
        steps: u64,
        /// Which limit fired, when known.
        reason: Option<AbortReason>,
    },
    /// The inliner reported an internal failure.
    Inline(String),
    /// The simplifier reported an internal failure.
    Simplify(String),
    /// A phase produced an ill-formed program (post-phase checkpoint).
    Validation {
        /// The phase whose output failed validation.
        phase: Phase,
        /// The well-formedness violation.
        error: fdi_lang::ValidateError,
    },
    /// The cross-phase [`crate::Budget`] ran out before or during a phase.
    BudgetExhausted {
        /// The phase that hit the budget.
        phase: Phase,
        /// Which resource was exhausted.
        kind: BudgetKind,
    },
    /// A phase panicked; the panic was contained by the phase runner.
    PhasePanicked {
        /// The phase that panicked.
        phase: Phase,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A pipeline output failed to execute on the VM (sweeps only).
    Vm {
        /// The inline threshold of the failing run.
        threshold: usize,
        /// The VM's error message.
        message: String,
    },
    /// Two thresholds computed different answers — a miscompile.
    BehaviorDivergence {
        /// The inline threshold of the diverging run.
        threshold: usize,
        /// Value computed by the threshold-0 baseline.
        expected: String,
        /// Value computed by the diverging run.
        got: String,
    },
    /// The disk-backed artifact store failed an IO operation. Store
    /// failures degrade to recomputation and are never fatal to a job;
    /// this variant exists so the degradation is typed and countable.
    Store {
        /// What the store was doing when it failed.
        message: String,
    },
    /// A seeded [`crate::FaultPlan`] fired at this point (chaos testing).
    FaultInjected {
        /// The fault point that fired.
        point: crate::faults::FaultPoint,
    },
    /// The translation-validation oracle observed the phase output
    /// diverging from the original program — a caught miscompile.
    OracleRejected {
        /// The phase whose output was rejected.
        phase: Phase,
        /// Observation of the original program.
        expected: String,
        /// Observation of the rejected phase output.
        got: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "{e}"),
            PipelineError::AnalysisAborted {
                nodes,
                steps,
                reason,
            } => {
                write!(f, "flow analysis aborted at {nodes} nodes / {steps} steps")?;
                if let Some(r) = reason {
                    write!(f, " ({r})")?;
                }
                Ok(())
            }
            PipelineError::Inline(m) => write!(f, "inliner failed: {m}"),
            PipelineError::Simplify(m) => write!(f, "simplifier failed: {m}"),
            PipelineError::Validation { phase, error } => {
                write!(f, "{phase} produced an ill-formed program: {error}")
            }
            PipelineError::BudgetExhausted { phase, kind } => {
                write!(f, "budget exhausted during {phase}: {kind}")
            }
            PipelineError::PhasePanicked { phase, message } => {
                write!(f, "{phase} phase panicked: {message}")
            }
            PipelineError::Vm { threshold, message } => {
                write!(f, "threshold {threshold}: {message}")
            }
            PipelineError::BehaviorDivergence {
                threshold,
                expected,
                got,
            } => write!(
                f,
                "threshold {threshold} changed the program's behaviour: {expected} vs {got}"
            ),
            PipelineError::Store { message } => {
                write!(f, "artifact store failed: {message}")
            }
            PipelineError::FaultInjected { point } => {
                write!(f, "injected fault at {point}")
            }
            PipelineError::OracleRejected {
                phase,
                expected,
                got,
            } => write!(
                f,
                "oracle rejected {phase} output: expected {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Frontend(e) => Some(e),
            PipelineError::Validation { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<fdi_lang::FrontendError> for PipelineError {
    fn from(e: fdi_lang::FrontendError) -> PipelineError {
        PipelineError::Frontend(e)
    }
}

impl PipelineError {
    /// The phase this error is attributed to.
    pub fn phase(&self) -> Phase {
        match self {
            PipelineError::Frontend(_) => Phase::Frontend,
            PipelineError::AnalysisAborted { .. } => Phase::Analysis,
            PipelineError::Inline(_) => Phase::Inline,
            PipelineError::Simplify(_) => Phase::Simplify,
            PipelineError::Validation { phase, .. }
            | PipelineError::BudgetExhausted { phase, .. }
            | PipelineError::PhasePanicked { phase, .. } => *phase,
            PipelineError::Vm { .. }
            | PipelineError::BehaviorDivergence { .. }
            | PipelineError::Store { .. } => Phase::Execution,
            PipelineError::FaultInjected { point } => point.phase(),
            PipelineError::OracleRejected { phase, .. } => *phase,
        }
    }

    /// Whether this failure is *transient*: plausibly scheduling- or
    /// chaos-dependent, so a supervised retry may succeed. Deterministic
    /// failures (the program itself is rejected by a phase) are not worth
    /// retrying — the same input will fail the same way.
    ///
    /// [`PipelineError::OracleRejected`] is classified transient on
    /// purpose: a rejection caused by an injected miscompile disappears on
    /// a clean retry, and a *persistent* rejection exhausting its retries
    /// lands in quarantine — exactly where a reproducible miscompile
    /// belongs.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            PipelineError::FaultInjected { .. }
                | PipelineError::PhasePanicked { .. }
                | PipelineError::OracleRejected { .. }
                | PipelineError::BudgetExhausted {
                    kind: BudgetKind::Deadline,
                    ..
                }
        )
    }
}
