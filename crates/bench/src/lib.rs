//! Shared harness code for the experiment binaries.
//!
//! * `table1` — regenerates Table 1 (lines, analysis time, code-size ratios
//!   across inline thresholds);
//! * `figure6` — regenerates Fig. 6 (normalized execution time split into
//!   mutator and collector, across thresholds);
//! * `ablation_cfa` — the §5.1 comparison of polymorphic splitting against
//!   0CFA and 1CFA call strings.
//!
//! Numbers and shapes are recorded against the paper in `EXPERIMENTS.md`.
//!
//! All harness entry points ride the degradation-aware pipeline: a
//! benchmark whose run trips limits or budgets produces a row with a
//! non-empty `warnings` (or per-row [`SweepRow::health`]) instead of
//! killing the whole table, and hard failures are typed
//! [`PipelineError`]s, not strings.

use fdi_benchsuite::{Benchmark, BENCHMARKS};
use fdi_core::{
    analyze_contained, run, Input, PipelineConfig, PipelineError, Polyvariance, Request, RunConfig,
    SweepRow, Telemetry,
};
use fdi_engine::{Engine, Job};
use std::sync::Arc;

/// The paper's threshold axis (Fig. 6 adds the 0 baseline).
pub const THRESHOLDS: &[usize] = &[50, 100, 200, 500, 1000];

/// Table 1, one row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Source lines after prepending library procedures.
    pub lines: usize,
    /// Flow-analysis wall time in seconds.
    pub analysis_secs: f64,
    /// Code-size ratio (vs the threshold-0 baseline) per threshold.
    pub ratios: Vec<f64>,
    /// Degradation summaries (`"T=500: analysis: … → baseline"`), one per
    /// threshold whose pipeline fell back. Empty on a healthy row.
    pub warnings: Vec<String>,
}

/// Computes one Table 1 row.
///
/// A threshold whose pipeline degrades still contributes its (baseline)
/// ratio, with the event recorded in [`Table1Row::warnings`].
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when the benchmark source does not
/// lower.
pub fn table1_row(b: &Benchmark, scale: u32) -> Result<Table1Row, PipelineError> {
    let program = fdi_lang::parse_and_lower(&b.scaled(scale))?;
    // The analysis is threshold-independent: run it once and share it across
    // the row, exactly as `fdi_core::sweep` and the batch engine do.
    let config = PipelineConfig::default();
    let analysis = analyze_contained(&program, &config, &Telemetry::off());
    let mut ratios = Vec::new();
    let mut warnings = Vec::new();
    let mut analysis_secs = 0.0;
    for &t in THRESHOLDS {
        let cfg = PipelineConfig {
            threshold: t,
            ..config
        };
        let input = Input::Program {
            program: &program,
            analysis: Some(analysis.as_ref()),
        };
        let out = run(&Request {
            input,
            ..Request::program(&program, cfg)
        })?;
        analysis_secs = out.flow_stats.duration.as_secs_f64();
        ratios.push(out.size_ratio());
        if out.health.degraded() {
            warnings.push(format!("T={t}: {}", out.health.summary()));
        }
    }
    Ok(Table1Row {
        name: b.name.to_string(),
        lines: program.line_count(),
        analysis_secs,
        ratios,
        warnings,
    })
}

/// [`table1_row`] on the batch engine: the row's thresholds become jobs, the
/// engine's artifact cache supplies the shared parse and analysis.
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when the benchmark source does not
/// lower.
pub fn table1_row_on(
    engine: &Engine,
    b: &Benchmark,
    scale: u32,
) -> Result<Table1Row, PipelineError> {
    let source: Arc<str> = Arc::from(b.scaled(scale));
    let results = engine.run_batch(THRESHOLDS.iter().map(|&t| Job {
        source: source.clone(),
        config: PipelineConfig::with_threshold(t),
        trace: None,
    }));
    let mut ratios = Vec::new();
    let mut warnings = Vec::new();
    let mut analysis_secs = 0.0;
    let mut lines = 0;
    for (&t, result) in THRESHOLDS.iter().zip(results) {
        let out = result?;
        lines = out.lines;
        analysis_secs = out.flow_stats.duration.as_secs_f64();
        ratios.push(out.size_ratio());
        if out.health.degraded() {
            warnings.push(format!("T={t}: {}", out.health.summary()));
        }
    }
    Ok(Table1Row {
        name: b.name.to_string(),
        lines,
        analysis_secs,
        ratios,
        warnings,
    })
}

/// Fig. 6, one benchmark: rows at thresholds 0 and [`THRESHOLDS`].
///
/// Rows degrade independently (see [`fdi_core::sweep`]); inspect each
/// [`SweepRow::health`].
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when the source does not lower, or
/// [`PipelineError::Vm`] when the threshold-0 baseline fails to execute.
pub fn figure6_rows(b: &Benchmark, scale: u32) -> Result<Vec<SweepRow>, PipelineError> {
    fdi_core::sweep(
        &b.scaled(scale),
        THRESHOLDS,
        &PipelineConfig::default(),
        &RunConfig::default(),
    )
}

/// [`figure6_rows`] on the batch engine — byte-identical rows, computed on
/// the pool with one flow analysis per benchmark.
///
/// # Errors
///
/// Exactly [`figure6_rows`]'s.
pub fn figure6_rows_on(
    engine: &Engine,
    b: &Benchmark,
    scale: u32,
) -> Result<Vec<SweepRow>, PipelineError> {
    engine.sweep(
        &b.scaled(scale),
        THRESHOLDS,
        &PipelineConfig::default(),
        &RunConfig::default(),
    )
}

/// Extracts a `--jobs N` flag from CLI args (removing it), for the harness
/// binaries' engine mode. `None` means run sequentially.
pub fn jobs_flag(args: &mut Vec<String>) -> Option<usize> {
    let i = args.iter().position(|a| a == "--jobs")?;
    if i + 1 >= args.len() {
        eprintln!("--jobs needs a worker count");
        std::process::exit(2);
    }
    let n: usize = args[i + 1].parse().unwrap_or_else(|_| {
        eprintln!("--jobs needs an integer, got {:?}", args[i + 1]);
        std::process::exit(2);
    });
    args.drain(i..=i + 1);
    Some(n)
}

/// §5.1 ablation, one (benchmark, policy) cell.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// Benchmark name.
    pub name: String,
    /// Policy name (`0cfa`, `poly-split`, `1cfa`).
    pub policy: String,
    /// Call sites satisfying Inlining Condition 1.
    pub candidates: usize,
    /// Total (reachable) call sites for reference.
    pub call_sites: usize,
    /// Analysis wall time in seconds.
    pub analysis_secs: f64,
    /// Flow-graph size (nodes).
    pub nodes: usize,
    /// Worklist steps.
    pub steps: u64,
}

/// Runs the analysis under `policy` and counts inline candidates.
///
/// # Errors
///
/// Returns [`PipelineError::Frontend`] when the source does not lower and
/// [`PipelineError::AnalysisAborted`] when the analysis trips its safety
/// limits.
pub fn ablation_cell(
    b: &Benchmark,
    scale: u32,
    policy: Polyvariance,
) -> Result<AblationCell, PipelineError> {
    let program = fdi_lang::parse_and_lower(&b.scaled(scale))?;
    let flow = fdi_cfa::analyze(&program, policy);
    let stats = flow.stats();
    if stats.aborted {
        return Err(PipelineError::AnalysisAborted {
            nodes: stats.nodes,
            steps: stats.steps,
            reason: stats.abort_reason,
        });
    }
    let candidates = flow.candidate_call_sites(&program).len();
    let mut distinct = std::collections::HashSet::new();
    for &(l, _) in flow.call_sites() {
        distinct.insert(l);
    }
    Ok(AblationCell {
        name: b.name.to_string(),
        policy: policy.name(),
        candidates,
        call_sites: distinct.len(),
        analysis_secs: stats.duration.as_secs_f64(),
        nodes: stats.nodes,
        steps: stats.steps,
    })
}

/// A simple text bar for the Fig. 6 renderings: `len` cells out of `full`.
pub fn bar(fraction: f64, full: usize) -> String {
    let cells = (fraction * full as f64).round().max(0.0) as usize;
    "█".repeat(cells.min(2 * full))
}

/// Benchmarks selected by CLI args (all when empty).
pub fn selected(args: &[String]) -> Vec<&'static Benchmark> {
    if args.is_empty() {
        BENCHMARKS.iter().collect()
    } else {
        BENCHMARKS
            .iter()
            .filter(|b| args.iter().any(|a| a == b.name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_smoke() {
        let b = fdi_benchsuite::by_name("boyer").unwrap();
        let row = table1_row(b, 1).unwrap();
        assert_eq!(row.ratios.len(), THRESHOLDS.len());
        assert!(row.lines > 50);
        assert!(row.ratios.iter().all(|&r| r > 0.1 && r < 10.0));
        assert!(row.warnings.is_empty(), "{:?}", row.warnings);
    }

    #[test]
    fn figure6_rows_normalize() {
        let b = fdi_benchsuite::by_name("dynamic").unwrap();
        let rows = figure6_rows(b, 1).unwrap();
        assert_eq!(rows.len(), THRESHOLDS.len() + 1);
        assert!((rows[0].norm_total - 1.0).abs() < 1e-9);
        assert!(rows.iter().all(|r| !r.health.degraded()));
    }

    #[test]
    fn ablation_counts_candidates() {
        let b = fdi_benchsuite::by_name("maze").unwrap();
        let poly = ablation_cell(b, 1, Polyvariance::PolymorphicSplitting).unwrap();
        let mono = ablation_cell(b, 1, Polyvariance::Monovariant).unwrap();
        assert!(
            poly.candidates >= mono.candidates,
            "splitting cannot lose candidates"
        );
        assert!(poly.call_sites > 0);
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 10), "█████");
        assert_eq!(bar(0.0, 10), "");
    }

    #[test]
    fn selection_filters() {
        assert_eq!(selected(&[]).len(), 8);
        assert_eq!(selected(&["boyer".to_string()]).len(), 1);
        assert_eq!(selected(&["nope".to_string()]).len(), 0);
    }
}
