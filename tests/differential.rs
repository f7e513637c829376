//! Differential testing: for randomly generated programs, the optimized
//! pipeline output must behave exactly like the baseline — same value, same
//! output, and it must never turn a successful program into a failing one.

use fdi_core::{optimize_program, PipelineConfig, RunConfig};
use fdi_testutil::{check, Rng};

/// A tiny generator of closed Scheme programs. Expressions are built from a
/// small environment of numeric variables so that most programs run without
/// type errors; procedures are generated both directly applied and passed
/// around to exercise the flow analysis.
fn arb_expr(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| -> String {
        match rng.index(7) {
            0 => rng.range(-20, 20).to_string(),
            1 => "x".to_string(),
            2 => "y".to_string(),
            3 => "#t".to_string(),
            4 => "#f".to_string(),
            5 => "'()".to_string(),
            _ => "'sym".to_string(),
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    let d = depth - 1;
    match rng.weighted(&[4, 2, 2, 1, 2, 2, 2, 1, 1, 1, 1]) {
        0 => leaf(rng),
        1 => format!("(+ {} {})", arb_expr(rng, d), arb_expr(rng, d)),
        2 => format!("(cons {} {})", arb_expr(rng, d), arb_expr(rng, d)),
        3 => format!("(< {} {})", arb_expr(rng, d), arb_expr(rng, d)),
        4 => format!(
            "(if (zero? (modulo {} 3)) {} {})",
            arb_expr(rng, d),
            arb_expr(rng, d),
            arb_expr(rng, d)
        ),
        5 => format!("(let ((x {})) {})", arb_expr(rng, d), arb_expr(rng, d)),
        6 => format!("((lambda (y) {}) {})", arb_expr(rng, d), arb_expr(rng, d)),
        7 => format!(
            "(let ((f (lambda (x) {}))) (+ (f {}) (f {})))",
            arb_expr(rng, d),
            arb_expr(rng, d),
            arb_expr(rng, d)
        ),
        8 => format!("(car (cons {} 1))", arb_expr(rng, d)),
        9 => format!(
            "(begin (display {}) {})",
            arb_expr(rng, d),
            arb_expr(rng, d)
        ),
        _ => format!(
            "(letrec ((go (lambda (i acc) (if (zero? i) acc (go (- i 1) (+ acc {}))))))
               (go (modulo (abs {}) 5) 0))",
            arb_expr(rng, d),
            arb_expr(rng, d)
        ),
    }
}

fn arb_program(rng: &mut Rng) -> String {
    format!("(let ((x 2) (y 5)) {})", arb_expr(rng, 4))
}

fn run(p: &fdi_core::Program) -> Result<(String, String), String> {
    let cfg = RunConfig {
        fuel: 20_000_000,
        ..RunConfig::default()
    };
    fdi_vm::run(p, &cfg)
        .map(|o| (o.value, o.output))
        .map_err(|e| e.message)
}

#[test]
fn optimizer_preserves_behavior() {
    check("optimizer_preserves_behavior", 96, |rng| {
        let src = arb_program(rng);
        let t = rng.index(600);
        let program = match fdi_lang::parse_and_lower(&src) {
            Ok(p) => p,
            Err(e) => panic!("generated program failed to lower: {e}\n{src}"),
        };
        let out = optimize_program(&program, &PipelineConfig::with_threshold(t))
            .and_then(|out| out.into_strict())
            .unwrap_or_else(|e| panic!("pipeline failed: {e}\n{src}"));
        let base = run(&out.baseline);
        let opt = run(&out.optimized);
        match (base, opt) {
            (Ok(b), Ok(o)) => assert_eq!(b, o, "divergence at T={} for\n{}", t, src),
            (Err(_), _) => {
                // The baseline fails at run time (type error in generated
                // code). The optimizer may legitimately prune the failure
                // (e.g. fold a branch away), so nothing to compare.
            }
            (Ok(b), Err(e)) => {
                panic!(
                    "optimizer introduced failure '{}' at T={} for\n{}\nbaseline={:?}",
                    e, t, src, b
                );
            }
        }
    });
}

#[test]
fn optimizer_output_is_well_formed() {
    check("optimizer_output_is_well_formed", 96, |rng| {
        let src = arb_program(rng);
        let t = rng.index(600);
        let program = fdi_lang::parse_and_lower(&src).unwrap();
        let out = optimize_program(&program, &PipelineConfig::with_threshold(t))
            .and_then(|out| out.into_strict())
            .unwrap();
        assert!(fdi_lang::validate(&out.optimized).is_ok());
        // And the output unparses to something that re-lowers.
        let printed = fdi_lang::unparse(&out.optimized).to_string();
        assert!(
            fdi_lang::parse_and_lower(&printed).is_ok(),
            "unparse broke: {}",
            printed
        );
    });
}
