//! Additional machine-level tests: closure representation, environment
//! behaviour, primitive edge cases, and check accounting.

use crate::machine::run_probed;
use crate::{run, run_observed, CostModel, Observer, RunConfig};
use fdi_lang::{parse_and_lower, Label};
use std::collections::HashSet;

/// Elides the tag checks at its `(primitive label, argument index)` pairs,
/// as check elimination does.
struct Elided(HashSet<(Label, usize)>);

impl Observer for Elided {
    fn check_elided(&self, prim: Label, arg: usize) -> bool {
        self.0.contains(&(prim, arg))
    }
}

fn eval(src: &str) -> String {
    let p = parse_and_lower(src).unwrap();
    run(&p, &RunConfig::default()).unwrap().value
}

fn eval_err(src: &str) -> String {
    let p = parse_and_lower(src).unwrap();
    run(&p, &RunConfig::default()).unwrap_err().message
}

// --- closures and environments -------------------------------------------

#[test]
fn letrec_closures_see_their_siblings_through_captures() {
    // The closures escape the letrec, so mutual references go through the
    // backpatched capture records, not the letrec frame.
    let src = "
        (define (make)
          (letrec ((even2? (lambda (n) (if (zero? n) #t (odd2? (- n 1)))))
                   (odd2? (lambda (n) (if (zero? n) #f (even2? (- n 1))))))
            (cons even2? odd2?)))
        (let ((pair (make)))
          (cons ((car pair) 10) ((cdr pair) 10)))";
    assert_eq!(eval(src), "(#t . #f)");
}

#[test]
fn self_recursive_escaping_closure() {
    let src = "
        (define (mk) (letrec ((f (lambda (n) (if (zero? n) 'done (f (- n 1)))))) f))
        ((mk) 100)";
    assert_eq!(eval(src), "done");
}

#[test]
fn closures_capture_values_not_locations() {
    // Flat closures copy values at creation; later rebinding of the source
    // frame (impossible in the language — no set! — but shadowing is) does
    // not affect the capture.
    let src = "
        (let ((x 1))
          (let ((f (lambda () x)))
            (let ((x 2))
              (cons (f) x))))";
    assert_eq!(eval(src), "(1 . 2)");
}

#[test]
fn deep_non_tail_recursion_uses_heap_continuations() {
    // 100k non-tail frames: fine on the machine's Vec stacks, which grow
    // with the recursion (each pending `+` keeps its frame and operand).
    let src = "
        (define (sum n) (if (zero? n) 0 (+ n (sum (- n 1)))))
        (sum 100000)";
    let (out, probe) = run_probed(&parse_and_lower(src).unwrap()).unwrap();
    assert_eq!(out.value, "5000050000");
    let stack = probe.stack_capacity;
    assert!(stack >= 100_000, "stack capacity {stack}");
}

/// Value-stack capacity a million-iteration tail loop may reach.
const LOOP_STACK_BOUND: usize = 64;

fn assert_bounded_stack(src: &str, expected: &str) {
    let (out, probe) = run_probed(&parse_and_lower(src).unwrap()).unwrap();
    assert_eq!(out.value, expected);
    let stack = probe.stack_capacity;
    assert!(
        stack <= LOOP_STACK_BOUND,
        "stack capacity {stack} after 1M tail calls"
    );
}

#[test]
fn tail_loop_binding_lets_runs_in_bounded_stack() {
    assert_bounded_stack(
        "(letrec ((loop (lambda (n acc)
                          (if (zero? n)
                              acc
                              (let ((m (- n 1)) (a (+ acc 2)))
                                (let ((b (- a 1)))
                                  (loop m b)))))))
           (loop 1000000 0))",
        "1000000",
    );
}

#[test]
fn tail_loop_through_apply_with_rest_list_runs_in_bounded_stack() {
    assert_bounded_stack(
        "(letrec ((loop (lambda (n . acc)
                          (if (zero? n)
                              (car acc)
                              (apply loop (list (- n 1) (+ (car acc) 1)))))))
           (loop 1000000 0))",
        "1000000",
    );
}

#[test]
fn letrec_mutual_recursion_runs_in_bounded_stack() {
    assert_bounded_stack(
        "(letrec ((ev? (lambda (n) (if (zero? n) #t (od? (- n 1)))))
                  (od? (lambda (n) (if (zero? n) #f (ev? (- n 1))))))
           (ev? 1000001))",
        "#f",
    );
}

/// The value of `src` and the continuations its run pushed.
fn value_and_kont_pushes(src: &str) -> (String, u64) {
    let (out, probe) = run_probed(&parse_and_lower(src).unwrap()).unwrap();
    (out.value, probe.kont_pushes)
}

#[test]
fn call_free_operand_trees_push_no_continuation() {
    // Step by step, each compound operand of the call and of `+` would push
    // one; evaluated in place, the tree costs no more than a variable.
    let with = |arg: &str| {
        value_and_kont_pushes(&format!(
            "(define (f x) x) (let ((a 2) (b 3) (c 7) (d 4)) (f {arg}))"
        ))
    };
    let (value, tree) = with("(+ (* a b) (- c d))");
    assert_eq!(value, "9");
    assert_eq!(tree, with("a").1);
}

#[test]
fn call_free_if_tests_push_no_continuation() {
    // A hundred iterations push no more continuations than none: neither
    // the test `(< i n)` nor the call's operand `(+ i 1)` needs one.
    let looped = |n: u32| {
        value_and_kont_pushes(&format!(
            "(define (loop i n) (if (< i n) (loop (+ i 1) n) i)) (loop 0 {n})"
        ))
    };
    let (value, pushes) = looped(100);
    assert_eq!(value, "100");
    assert_eq!(pushes, looped(0).1);
}

#[test]
fn shadowing_across_let_depths() {
    let src = "(let ((x 1)) (cons (let ((x 2)) (let ((x 3)) x)) x))";
    assert_eq!(eval(src), "(3 . 1)");
}

#[test]
fn variadic_rest_is_fresh_per_call() {
    let src = "
        (define (grab . xs) xs)
        (let ((a (grab 1 2)) (b (grab 3)))
          (begin (set-car! a 9) (cons a b)))";
    assert_eq!(eval(src), "((9 2) 3)");
}

// --- primitive edge cases --------------------------------------------------

#[test]
fn numeric_edges() {
    assert_eq!(eval("(min 1.5 2)"), "1.5");
    assert_eq!(eval("(max 1 2.5)"), "2.5");
    assert_eq!(eval("(quotient -7 2)"), "-3");
    assert_eq!(eval("(remainder -7 2)"), "-1");
    assert_eq!(eval("(modulo -7 -2)"), "-1");
    assert_eq!(
        eval("(atan 1.0 1.0)"),
        format!("{}", std::f64::consts::FRAC_PI_4)
    );
    assert_eq!(eval("(expt 2.0 0.5)"), format!("{}", 2f64.powf(0.5)));
    assert_eq!(eval("(round 2.5)"), "2.0");
    assert_eq!(eval("(round 3.5)"), "4.0");
    assert_eq!(eval("(gcd 0 5)"), "5");
    assert!(eval_err("(expt 10 30)").contains("overflow"));
    // Above the checked-exponent range, expt falls back to floats (R4RS
    // permits inexact results for large exponents).
    assert_eq!(eval("(expt 2 63)"), format!("{}", 2f64.powi(63)));
    assert!(eval_err("(+ 9223372036854775807 1)").contains("overflow"));
}

#[test]
fn division_semantics() {
    assert_eq!(eval("(/ 8 2 2)"), "2");
    assert_eq!(eval("(/ 7 2)"), "3.5");
    assert_eq!(eval("(/ 2.0)"), "0.5");
    assert!(eval_err("(/ 1 0)").contains("zero"));
}

#[test]
fn string_edges() {
    assert!(eval_err("(substring \"abc\" 2 1)").contains("range"));
    assert!(eval_err("(string-ref \"abc\" 9)").contains("range"));
    assert_eq!(eval("(string<? \"abc\" \"abd\")"), "#t");
    assert_eq!(eval("(string-append)"), "\"\"");
    assert_eq!(eval("(substring \"hello\" 0 0)"), "\"\"");
}

#[test]
fn char_edges() {
    assert!(eval_err("(integer->char -1)").contains("code point"));
    assert_eq!(eval("(integer->char 955)"), "#\\λ");
    assert_eq!(eval("(char=? #\\a #\\a)"), "#t");
}

#[test]
fn apply_edge_cases() {
    assert_eq!(eval("(apply (lambda () 7) '())"), "7");
    assert!(eval_err("(apply (lambda (x) x) 5)").contains("proper list"));
    assert!(eval_err("(apply (lambda (x) x) '(1 . 2))").contains("proper list"));
    assert_eq!(
        eval("(apply (lambda (a . r) (cons a r)) '(1 2 3))"),
        "(1 2 3)"
    );
}

#[test]
fn inexact_exact_conversions() {
    assert!(eval_err("(inexact->exact 2.5)").contains("representable"));
    assert_eq!(eval("(exact->inexact 3)"), "3.0");
    assert_eq!(eval("(integer? 2.0)"), "#t");
    assert_eq!(eval("(integer? 2.5)"), "#f");
    assert_eq!(eval("(number? 2.5)"), "#t");
}

#[test]
fn equality_on_floats_and_vectors() {
    assert_eq!(eval("(eqv? 1.5 1.5)"), "#t");
    assert_eq!(eval("(eqv? 1 1.0)"), "#f");
    assert_eq!(
        eval("(equal? (vector (cons 1 2)) (vector (cons 1 2)))"),
        "#t"
    );
    assert_eq!(eval("(let ((v (vector 1))) (eq? v v))"), "#t");
    assert_eq!(eval("(eq? (vector 1) (vector 1))"), "#f");
}

#[test]
fn render_improper_and_nested() {
    assert_eq!(eval("(cons 1 (cons 2 3))"), "(1 2 . 3)");
    assert_eq!(eval("(cons '() '())"), "(())");
    assert_eq!(eval("(vector (vector))"), "#(#())");
}

// --- check accounting --------------------------------------------------------

#[test]
fn checks_counted_and_charged() {
    let p = parse_and_lower("(+ 1 (car (cons 2 '())))").unwrap();
    let cfg = RunConfig {
        model: CostModel {
            type_check_cost: 5,
            ..CostModel::default()
        },
        ..RunConfig::default()
    };
    let unchecked_model = RunConfig::default();
    let plain = run(&p, &unchecked_model).unwrap();
    assert!(plain.counters.checks > 0, "checks counted even at cost 0");
    let safe = run(&p, &cfg).unwrap();
    assert_eq!(safe.counters.checks, plain.counters.checks);
    assert_eq!(
        safe.counters.mutator,
        plain.counters.mutator + 5 * plain.counters.checks
    );
}

#[test]
fn safe_set_exempts_positions() {
    let p = parse_and_lower("(car (cons 1 2))").unwrap();
    let cfg = RunConfig {
        model: CostModel {
            type_check_cost: 7,
            ..CostModel::default()
        },
        ..RunConfig::default()
    };
    // Find the car label.
    let car_label = p
        .labels()
        .find(|&l| {
            matches!(
                p.expr(l),
                fdi_lang::ExprKind::Prim(fdi_lang::PrimOp::Car, _)
            )
        })
        .unwrap();
    let mut elim = Elided(HashSet::from([(car_label, 0usize)]));
    let with = run_observed(&p, &cfg, &mut elim).unwrap();
    let without = run(&p, &cfg).unwrap();
    assert_eq!(without.counters.checks, with.counters.checks + 1);
    assert_eq!(without.counters.mutator, with.counters.mutator + 7);
}

#[test]
fn variadic_prims_check_each_argument() {
    let p = parse_and_lower("(+ 1 2 3 4)").unwrap();
    let out = run(&p, &RunConfig::default()).unwrap();
    assert_eq!(out.counters.checks, 4);
}

// --- determinism and cost stability ----------------------------------------

#[test]
fn identical_runs_have_identical_counters() {
    let p = parse_and_lower(
        "(define (go n acc) (if (zero? n) acc (go (- n 1) (cons (random 10) acc))))
         (go 100 '())",
    )
    .unwrap();
    let a = run(&p, &RunConfig::default()).unwrap();
    let b = run(&p, &RunConfig::default()).unwrap();
    assert_eq!(a.value, b.value);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn seed_changes_random_stream() {
    let p = parse_and_lower("(cons (random 1000000) (random 1000000))").unwrap();
    let a = run(&p, &RunConfig::default()).unwrap();
    let b = run(
        &p,
        &RunConfig {
            seed: 12345,
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert_ne!(a.value, b.value);
}

#[test]
fn output_cap_truncates() {
    let p = parse_and_lower(
        "(define (spam n) (if (zero? n) 'done (begin (display \"xxxxxxxxxx\") (spam (- n 1)))))
         (spam 100)",
    )
    .unwrap();
    let cfg = RunConfig {
        max_output: 55,
        ..RunConfig::default()
    };
    let out = run(&p, &cfg).unwrap();
    assert!(out.output.len() <= 55);
}
