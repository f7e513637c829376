//! The §6 combination: flow-directed inlining makes run-time check
//! elimination stronger, because specialization replaces merged argument
//! types with per-call-site precise ones.
//!
//! Run with: `cargo run --example check_elimination`

use fdi_core::{optimize, PipelineConfig, RunConfig};
use fdi_vm::CostModel;

fn main() {
    // `norm` is used on numbers in one place and on pairs in another; the
    // union type defeats check elimination on the original program, but
    // after inlining each copy is monomorphic.
    let src = "
        (define (norm x)
          (if (pair? x)
              (+ (* (car x) (car x)) (* (cdr x) (cdr x)))
              (* x x)))
        (define (sum-norms n acc)
          (if (zero? n)
              acc
              (sum-norms (- n 1)
                         (+ acc (norm n) (norm (cons n n))))))
        (sum-norms 1000 0)";

    let out = optimize(src, &PipelineConfig::with_threshold(400)).expect("pipeline");

    // Safe execution model: every primitive argument pays a tag check
    // unless the analysis proves it redundant.
    let cfg = RunConfig {
        model: CostModel {
            type_check_cost: 2,
            ..CostModel::default()
        },
        ..RunConfig::default()
    };

    let measure = |program: &fdi_core::Program, eliminate: bool| {
        let mut elim = if eliminate {
            let flow = fdi_cfa::analyze(program, fdi_core::Polyvariance::PolymorphicSplitting);
            fdi_checks::eliminate_checks(program, &flow)
        } else {
            fdi_checks::CheckElim::default()
        };
        let r = fdi_vm::run_observed(program, &cfg, &mut elim).expect("runs");
        (r.counters.total(&cfg.model), r.counters.checks, r.value)
    };

    let (t0, c0, v0) = measure(&out.baseline, false);
    let (t1, c1, v1) = measure(&out.baseline, true);
    let (t2, c2, v2) = measure(&out.optimized, true);
    assert_eq!(v0, v1);
    assert_eq!(v0, v2);

    println!("value: {v0}");
    println!("safe, no optimization  : total {t0:>8}, {c0} dynamic tag checks");
    println!(
        "check elimination only : total {t1:>8}, {c1} dynamic tag checks ({:.0}% removed)",
        100.0 * (c0 - c1) as f64 / c0 as f64
    );
    println!(
        "inlining + elimination : total {t2:>8}, {c2} dynamic tag checks ({:.0}% removed)",
        100.0 * (c0 - c2) as f64 / c0 as f64
    );
    assert!(c2 <= c1, "inlining must not lose check precision");
}
