//! Static vs profile-guided budgeted inlining over the benchmark suite:
//! the per-PR perf snapshot, machine-readable.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fdi-bench --bin bench_snapshot -- \
//!     [--scale test] [--budget-frac X] [--out FILE]
//! ```
//!
//! For each benchmark the harness (1) collects a call-site [`Profile`] by
//! running the original lowered program on the cost-model VM, (2) runs an
//! *unbudgeted* static optimization to measure the total specialized size
//! the inliner would commit, (3) re-optimizes twice under an equal size
//! budget — `budget = frac × unbudgeted total` (default frac 0.5) — once
//! in static (syntactic) order and once profile-guided (benefit-ordered,
//! hot-first), and (4) executes both optimized programs on the VM and
//! compares mutator cost. The snapshot records wall clocks, mutator
//! costs, sites inlined, per-reason decision totals, and two global
//! invariants: `modes_agree_on_size_budget` (both modes committed no more
//! specialized size than the shared budget, every benchmark) and
//! `values_agree` (both optimized programs computed the benchmark's
//! answer). `--out FILE` writes the JSON object (this is how
//! `results/BENCH_profile.json` is produced).
//!
//! The headline number is `guided_wins`: on how many benchmarks the
//! profile-guided order *strictly* reduced VM mutator cost at the same
//! budget. Spending the budget on measured-hot sites instead of
//! syntactically-early ones is the whole point of the profile.

use fdi_core::{optimize, run, PipelineConfig, PipelineOutput, Request, RunConfig};
use fdi_profile::Profile;
use fdi_telemetry::json::Json;
use fdi_telemetry::{DecisionReason, DecisionTotals};
use fdi_testutil::timed;

/// Total specialized size the inliner committed (sum over `Inlined`
/// decisions) — the quantity the size budget caps.
fn committed_size(out: &PipelineOutput) -> usize {
    out.decisions
        .iter()
        .filter_map(|d| match d.reason {
            DecisionReason::Inlined { specialized_size } => Some(specialized_size),
            _ => None,
        })
        .sum()
}

struct ModeRow {
    wall_ms: f64,
    mutator: u64,
    calls: u64,
    sites_inlined: usize,
    committed_size: usize,
    totals: DecisionTotals,
    value: String,
}

fn measure(out: &PipelineOutput, wall_ms: f64, run_config: &RunConfig, name: &str) -> ModeRow {
    let outcome = fdi_vm::run(&out.optimized, run_config).unwrap_or_else(|e| {
        eprintln!("bench_snapshot: {name}: optimized program failed on the VM: {e}");
        std::process::exit(1);
    });
    ModeRow {
        wall_ms,
        mutator: outcome.counters.mutator,
        calls: outcome.counters.calls,
        sites_inlined: out.report.sites_inlined,
        committed_size: committed_size(out),
        totals: DecisionTotals::tally(&out.decisions),
        value: outcome.value,
    }
}

fn mode_json(m: &ModeRow) -> Json {
    Json::obj([
        ("wall_ms", Json::from(m.wall_ms)),
        ("mutator", m.mutator.into()),
        ("calls", m.calls.into()),
        ("sites_inlined", m.sites_inlined.into()),
        ("committed_size", m.committed_size.into()),
        ("decisions", m.totals.json()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_scale = args
        .iter()
        .position(|a| a == "--scale")
        .is_some_and(|i| args.get(i + 1).map(String::as_str) == Some("test"));
    let out_file = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let frac: f64 = args
        .iter()
        .position(|a| a == "--budget-frac")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    let run_config = RunConfig::default();
    let mut rows = Vec::new();
    let mut wins = 0usize;
    let mut within_budget = true;
    let mut values_agree = true;
    let scale_name = if test_scale { "test" } else { "default" };
    println!(
        "bench_snapshot: static vs profile-guided at budget = {frac:.2} x unbudgeted ({scale_name} scale)"
    );
    for b in fdi_benchsuite::BENCHMARKS {
        let scale = if test_scale {
            b.test_scale
        } else {
            b.default_scale
        };
        let src = b.scaled(scale);
        let profile = Profile::collect(&src, None, &run_config).unwrap_or_else(|e| {
            eprintln!("bench_snapshot: {}: profile collection failed: {e}", b.name);
            std::process::exit(1);
        });
        let base = PipelineConfig::default();
        let unbudgeted = optimize(&src, &base).unwrap_or_else(|e| {
            eprintln!("bench_snapshot: {}: {e}", b.name);
            std::process::exit(1);
        });
        let total_spec = committed_size(&unbudgeted);
        let budget = ((total_spec as f64 * frac) as usize).max(1);

        let mut capped = base;
        capped.size_budget = Some(budget);
        let (static_out, static_wall) = timed(|| optimize(&src, &capped).unwrap());

        let mut guided_cfg = capped;
        guided_cfg.profile_fp = Some(profile.fingerprint());
        let guide = profile.guide();
        let guided = Request {
            guide: Some(&guide),
            ..Request::source(&src, guided_cfg)
        };
        let (guided_out, guided_wall) = timed(|| run(&guided).unwrap());

        let st = measure(
            &static_out,
            static_wall.as_secs_f64() * 1e3,
            &run_config,
            b.name,
        );
        let gd = measure(
            &guided_out,
            guided_wall.as_secs_f64() * 1e3,
            &run_config,
            b.name,
        );
        let win = gd.mutator < st.mutator;
        wins += win as usize;
        within_budget &= st.committed_size <= budget && gd.committed_size <= budget;
        values_agree &= st.value == gd.value;
        println!(
            "  {:<8} budget={:>5} static: mutator={:>9} inlined={:>3}  guided: mutator={:>9} inlined={:>3}  {}",
            b.name,
            budget,
            st.mutator,
            st.sites_inlined,
            gd.mutator,
            gd.sites_inlined,
            if win { "WIN" } else { "tie/loss" }
        );
        let row = Json::obj([
            ("name", Json::from(b.name)),
            ("scale", u64::from(scale).into()),
            ("budget", budget.into()),
            ("unbudgeted_specialized_size", total_spec.into()),
            ("profile_sites", profile.sites.len().into()),
            ("profile_total_cost", profile.total_cost.into()),
            ("static", mode_json(&st)),
            ("guided", mode_json(&gd)),
            ("guided_win", win.into()),
        ]);
        rows.push(row);
    }
    let total = fdi_benchsuite::BENCHMARKS.len();
    println!(
        "guided wins: {wins}/{total}; within budget: {within_budget}; values agree: {values_agree}"
    );
    let snapshot = Json::obj([
        ("v", Json::from(1u64)),
        ("scale", scale_name.into()),
        ("budget_frac", frac.into()),
        ("benchmarks", Json::Arr(rows)),
        ("guided_wins", wins.into()),
        ("total", total.into()),
        ("modes_agree_on_size_budget", within_budget.into()),
        ("values_agree", values_agree.into()),
    ]);
    let snapshot = format!("{snapshot}\n");
    if let Some(path) = out_file {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, &snapshot).unwrap_or_else(|e| {
            eprintln!("bench_snapshot: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(";; wrote {path}");
    } else {
        print!("{snapshot}");
    }
    if !within_budget || !values_agree {
        std::process::exit(1);
    }
}
