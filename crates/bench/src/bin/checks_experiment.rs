//! The §6 combination, measured: "We plan to combine our inlining and
//! run-time check optimization … This combination should yield significant
//! performance improvements without compromising safety."
//!
//! Four configurations per benchmark, all under a *safe* cost model (every
//! primitive argument pays a tag check unless proven redundant):
//!
//! 1. `safe`            — no optimization at all;
//! 2. `+checks`         — check elimination only (the companion paper);
//! 3. `+inline`         — flow-directed inlining only;
//! 4. `+inline+checks`  — the §6 combination: inline, re-analyze, eliminate.
//!
//! Usage: `cargo run --release -p fdi-bench --bin checks_experiment [benchmark …]`

use fdi_bench::selected;
use fdi_core::{optimize_program, PipelineConfig, PipelineError, Polyvariance, RunConfig};
use fdi_lang::Program;
use fdi_vm::CostModel;

fn safe_config() -> RunConfig {
    RunConfig {
        model: CostModel {
            type_check_cost: 2,
            ..CostModel::default()
        },
        ..RunConfig::default()
    }
}

struct Cell {
    total: u64,
    checks: u64,
    value: String,
}

const THRESHOLD: usize = 400;

fn measure(program: &Program, eliminate: bool, cfg: &RunConfig) -> Result<Cell, PipelineError> {
    let mut elim = if eliminate {
        let flow = fdi_cfa::analyze(program, Polyvariance::PolymorphicSplitting);
        fdi_checks::eliminate_checks(program, &flow)
    } else {
        fdi_checks::CheckElim::default()
    };
    let r = fdi_vm::run_observed(program, cfg, &mut elim).map_err(|e| PipelineError::Vm {
        threshold: THRESHOLD,
        message: e.message,
    })?;
    Ok(Cell {
        total: r.counters.total(&cfg.model),
        checks: r.counters.checks,
        value: r.value,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = safe_config();
    println!("Run-time check elimination × inlining (safe cost model, check cost 2)");
    println!("totals normalized to the unoptimized safe run; 'checks' are dynamic tag checks");
    println!();
    println!(
        "{:<10} {:>12} {:>9} {:>9} {:>9} {:>14} {:>14}",
        "Program", "safe-total", "+checks", "+inline", "+both", "checks(safe)", "checks(both)"
    );
    println!("{}", "-".repeat(84));
    for b in selected(&args) {
        let program = match fdi_lang::parse_and_lower(&b.scaled(b.default_scale)) {
            Ok(p) => p,
            Err(e) => {
                println!("{:<10} front-end failed: {e}", b.name);
                continue;
            }
        };
        let pipeline = PipelineConfig::with_threshold(THRESHOLD);
        let run = || -> Result<(Cell, Cell, Cell, Cell), PipelineError> {
            let out = optimize_program(&program, &pipeline)?;
            if out.health.degraded() {
                println!("{:<10} degraded: {}", b.name, out.health.summary());
            }
            let plain = measure(&out.baseline, false, &cfg)?;
            let checked = measure(&out.baseline, true, &cfg)?;
            let inlined = measure(&out.optimized, false, &cfg)?;
            let both = measure(&out.optimized, true, &cfg)?;
            Ok((plain, checked, inlined, both))
        };
        match run() {
            Ok((plain, checked, inlined, both)) => {
                if [&checked, &inlined, &both]
                    .iter()
                    .any(|c| c.value != plain.value)
                {
                    println!("{:<10} VALUE MISMATCH", b.name);
                    continue;
                }
                let base = plain.total as f64;
                println!(
                    "{:<10} {:>12} {:>9.3} {:>9.3} {:>9.3} {:>14} {:>14}",
                    b.name,
                    plain.total,
                    checked.total as f64 / base,
                    inlined.total as f64 / base,
                    both.total as f64 / base,
                    plain.checks,
                    both.checks,
                );
            }
            Err(e) => println!("{:<10} failed: {e}", b.name),
        }
    }
}
