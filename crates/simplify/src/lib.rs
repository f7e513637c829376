//! Local simplification (§3.8 / §2.3 of *Flow-directed Inlining*).
//!
//! After inlining, the paper performs purely syntactic clean-ups — no flow
//! information is consulted, so "other optimizations could use flow
//! information generated for the original program when operating over the
//! inlined version". The passes here are:
//!
//! * β-reductions that do not grow code: `((λ (x…) body) e…)` → `(let …)`;
//! * constant propagation and folding (including `if` with a constant test);
//! * elimination of unused bindings (dead `let` bindings, dead `letrec`
//!   procedure groups);
//! * discarding effect-free expressions whose results are unused;
//! * restructuring procedure definitions and calls to eliminate unused
//!   formal parameters (§2.3) — this is what erases the inliner's extra
//!   `w` argument once the callee is known.
//!
//! # Examples
//!
//! ```
//! use fdi_simplify::simplify;
//!
//! let p = fdi_lang::parse_and_lower("((lambda (x y) (+ x y)) 1 2)").unwrap();
//! let (out, stats) = simplify(&p);
//! assert!(stats.betas >= 1);
//! assert_eq!(fdi_lang::unparse(&out).to_string(), "3");
//! ```

mod effects;
mod fold;
mod pass;

pub use effects::effect_free;
pub use fold::fold_prim;
pub use pass::{simplify_n, SimplifyStats};

use fdi_lang::Program;

/// Default bound on rebuild iterations; each iteration is a full O(n) pass
/// and the pipeline converges in a handful.
pub const DEFAULT_ITERS: usize = 8;

/// Simplifies `program` to a (bounded) fixpoint.
pub fn simplify(program: &Program) -> (Program, SimplifyStats) {
    let out = simplify_n(program, DEFAULT_ITERS);
    debug_assert!(
        fdi_lang::validate(&out.0).is_ok(),
        "simplifier produced ill-formed AST: {:?}",
        fdi_lang::validate(&out.0)
    );
    out
}

/// The simplifier's identity in `fdi-core`'s pass schedules: its stable
/// name and the behaviour-version salt folded into schedule fingerprints
/// (and so into every cache and store key of a run that simplifies). The
/// pass manager calls [`simplify_n`] directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyPass;

impl SimplifyPass {
    /// Stable pass name; also resolves the fault-injection point and the
    /// schedule-grammar keyword.
    pub const NAME: &'static str = "simplify";
    /// Schedule-fingerprint salt for this pass's behaviour version.
    pub const SALT: u64 = 0x51a9_11f1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_lang::parse_and_lower;

    fn simp(src: &str) -> (String, SimplifyStats) {
        let p = parse_and_lower(src).unwrap();
        let (out, stats) = simplify(&p);
        fdi_lang::validate(&out).expect("simplified program is well-formed");
        (fdi_lang::unparse(&out).to_string(), stats)
    }

    #[test]
    fn beta_to_constant() {
        let (out, stats) = simp("((lambda (x y) (+ x y)) 1 2)");
        assert_eq!(out, "3");
        assert!(stats.betas >= 1);
        assert!(stats.folds >= 1);
    }

    #[test]
    fn constant_if_prunes() {
        let (out, stats) = simp("(if (null? '()) 'yes 'no)");
        assert_eq!(out, "(quote yes)");
        assert!(stats.if_prunes >= 1);
    }

    #[test]
    fn dead_let_bindings_dropped() {
        let (out, _) = simp("(let ((unused (cons 1 2))) 42)");
        assert_eq!(out, "42");
    }

    #[test]
    fn effectful_bindings_are_kept() {
        let (out, _) = simp("(let ((unused (display 9))) 42)");
        assert!(out.contains("display"), "{out}");
    }

    #[test]
    fn copy_propagation_through_let() {
        let (out, _) = simp("(let ((x 5)) (let ((y x)) (* y y)))");
        assert_eq!(out, "25");
    }

    #[test]
    fn dead_letrec_group_removed() {
        let (out, _) = simp(
            "(letrec ((dead1 (lambda (n) (dead2 n)))
                      (dead2 (lambda (n) (dead1 n))))
               7)",
        );
        assert_eq!(out, "7");
    }

    #[test]
    fn live_letrec_kept() {
        let (out, _) = simp("(letrec ((f (lambda (n) (if (zero? n) 0 (f (- n 1)))))) (f 3))");
        assert!(out.contains("letrec"), "{out}");
    }

    #[test]
    fn begin_drops_pure_elements() {
        let (out, stats) = simp("(begin (null? '()) (cons 1 2) 42)");
        assert_eq!(out, "42");
        assert!(stats.begin_drops >= 1);
    }

    #[test]
    fn begin_keeps_effects() {
        let (out, _) = simp("(begin (display 1) 42)");
        assert!(out.starts_with("(begin (display 1)"), "{out}");
    }

    #[test]
    fn single_use_lambda_inlines_through_binding() {
        // f is used once; substituting it enables β at the call site.
        let (out, stats) = simp("(let ((f (lambda (x) (* x x)))) (f 6))");
        assert_eq!(out, "36");
        assert!(stats.betas >= 1);
    }

    #[test]
    fn multi_use_lambda_stays_bound() {
        let (out, _) = simp("(let ((f (lambda (x) (* x x)))) (cons (f 2) (f 3)))");
        assert!(out.contains("lambda"), "{out}");
        // But both calls remain (no duplication of the λ body).
        assert_eq!(out.matches("lambda").count(), 1, "{out}");
    }

    #[test]
    fn variadic_beta_builds_rest_list() {
        let (out, _) = simp("((lambda (a . rest) (cons a rest)) 1 2 3)");
        assert!(out.contains("(cons 2 (cons 3 (quote ())))"), "{out}");
    }

    #[test]
    fn unused_formals_removed() {
        let (out, stats) = simp(
            "(define (go k) (letrec ((loop (lambda (w n) (if (zero? n) 0 (loop w (- n 1))))))
               (loop 99 k)))
             (go 5)",
        );
        assert!(stats.formals_removed >= 1, "{out}");
        assert!(
            !out.contains("99"),
            "the unused argument should vanish: {out}"
        );
    }

    #[test]
    fn formals_kept_when_argument_has_effects() {
        let (out, _) = simp(
            "(define (go k) (letrec ((loop (lambda (w n) (if (zero? n) 0 (loop w (- n 1))))))
               (loop (display 9) k)))
             (go 5)",
        );
        assert!(out.contains("display"), "{out}");
    }

    #[test]
    fn nested_arithmetic_folds_completely() {
        let (out, _) = simp("(+ (* 2 3) (- 10 (quotient 9 3)))");
        assert_eq!(out, "13");
    }

    #[test]
    fn iterations_converge() {
        let (_, stats) = simp("(let ((a 1)) (let ((b a)) (let ((c b)) c)))");
        assert!(stats.iterations <= DEFAULT_ITERS);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn preserves_semantics_shape_of_recursive_program() {
        let (out, _) = simp(
            "(letrec ((fact (lambda (n) (if (zero? n) 1 (* n (fact (- n 1)))))))
               (fact 10))",
        );
        assert!(out.contains("fact"), "{out}");
        assert!(out.contains("(fact 10)"), "{out}");
    }

    #[test]
    fn algebraic_identities() {
        // (+ x 0) / (* 1 x) reduce to unary forms that keep the numeric
        // type obligation.
        let (out, _) = simp("(define (f x) (+ x 0)) (cons (f 2) (f 3))");
        assert!(out.contains("(+ x)"), "{out}");
        let (out, _) = simp("(define (g x) (* 1 x)) (cons (g 2) (g 3))");
        assert!(out.contains("(* x)"), "{out}");
    }

    #[test]
    fn car_of_cons_projects() {
        let (out, _) = simp("(define (f x) (car (cons x 1))) (cons (f 2) (f 3))");
        assert!(!out.contains("car"), "{out}");
        // Effectful other component blocks the projection.
        let (out, _) = simp("(define (f x) (car (cons x (display 1)))) (cons (f 2) (f 3))");
        assert!(out.contains("display"), "{out}");
    }

    #[test]
    fn double_negation_of_predicates_drops() {
        let (out, _) = simp("(define (f x) (not (not (null? x)))) (cons (f '()) (f 1))");
        assert_eq!(out.matches("not").count(), 0, "{out}");
        // General double negation is NOT boolean-safe: (not (not 5)) is #t,
        // not 5 — must stay.
        let (out, _) = simp("(define (f x) (not (not x))) (cons (f 5) (f #f))");
        assert_eq!(out.matches("(not").count(), 2, "{out}");
    }

    #[test]
    fn idempotent_after_fixpoint() {
        let p = parse_and_lower("(let ((f (lambda (x) (* x x)))) (cons (f 2) (f 3)))").unwrap();
        let (once, _) = simplify(&p);
        let (twice, stats) = simplify(&once);
        assert_eq!(
            fdi_lang::unparse(&once).to_string(),
            fdi_lang::unparse(&twice).to_string()
        );
        assert_eq!(stats.iterations, 1, "second run should converge instantly");
    }
}
