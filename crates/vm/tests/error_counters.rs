//! Pins what a failed run reports: for run-time errors raised at each kind
//! of point the machine can fail — inside a nested primitive operand, in an
//! `if` test, an `(error …)` in operand position, a `cl-ref` past the end of
//! a closure record, an arity mismatch — the message and all eight
//! [`Counters`] fields must match the recorded table, both under the default
//! cost model and with tag checks charged and some of them proven safe.
//! Out-of-fuel is pinned the same way near the end of a small program made
//! of nested call-free trees, and at every cap below it through one
//! fingerprint. A shortcut that charges steps in bulk must fail at exactly
//! the step, and with exactly the counters, the step-by-step machine does.

mod common;

use common::fingerprint;
use fdi_checks::CheckElim;
use fdi_lang::{parse_and_lower, ExprKind, Label, Program};
use fdi_vm::{run, run_observed, CostModel, Counters, RunConfig, VmError};

/// `(case, message, [mutator, words_allocated, calls, prims, closures_made,
/// pairs_made, steps, checks])`.
type Row = (&'static str, &'static str, [u64; 8]);

/// Failing programs, one per kind of failure point.
const FAILING: &[(&str, &str)] = &[
    ("nested-prim", "(+ 1 (car 5))"),
    (
        "nested-prim-in-proc",
        "(define (h a b c d) (* (+ a b) (- c (vector-ref d 0)))) (h 1 2 3 4)",
    ),
    ("call-operand", "(define (f x) x) (f (+ (* 2 3) (- 'a 1)))"),
    ("let-operand", "(let ((x 1) (y (+ 1 (cdr 2)))) (+ x y))"),
    ("if-test", "(if (car 5) 1 2)"),
    ("if-test-in-proc", "(define (f x) (if (< (+ x 1) 'a) 1 2)) (f 3)"),
    (
        "if-test-after-loop",
        "(define (loop v i) (if (< (vector-ref v i) (* 10 (+ i 1))) (loop v (+ i 1)) i)) (loop (vector 1 2 3) 0)",
    ),
    (
        "loop-then-nested-prim",
        "(define (loop i acc) (if (= i 10) (+ 1 (car acc)) (loop (+ i 1) (+ acc (* i i))))) (loop 0 0)",
    ),
    ("error-operand", "(+ 1 (error \"boom\" (* 2 3)))"),
    (
        "error-call-operand",
        "(define (f x y) x) (f 1 (error \"bad\" (list 1 2)))",
    ),
    (
        "cl-ref-range",
        "(let ((k 9)) (let ((f (lambda (x) k))) (cl-ref f 1)))",
    ),
    (
        "cl-ref-range-letrec",
        "(letrec ((f (lambda (n) (if (= n 0) 0 (g (- n 1))))) (g (lambda (n) (f n)))) (cl-ref g 2))",
    ),
    ("cl-ref-non-closure", "(cl-ref (+ 2 3) 0)"),
    ("arity-too-many", "((lambda (x) x) 1 (+ 2 3))"),
    (
        "arity-too-few",
        "(define (f x y) x) (define (g n) (f (* n n))) (g 4)",
    ),
    ("arity-rest", "(define (f a b . r) r) (f (- 1 2))"),
];

/// A small program dense in nested call-free trees: primitive operands,
/// `if` tests, `let` right-hand sides and call operands.
const DENSE: &str = "
    (define (poly x) (+ (* x x x) (* 3 (- x 1)) (quotient (+ x 7) 2)))
    (define (go i acc)
      (if (< (* i 2) (+ 30 (- 5 5)))
          (let ((p (poly i)) (q (* (- i 1) (+ i 1))))
            (go (+ i 1) (+ acc p (- q (* 2 i)))))
          acc))
    (go 0 0)";

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("nested-prim", "car: expected pair, got number", [1, 0, 0, 1, 0, 0, 6, 1]),
    ("nested-prim/checked", "car: expected pair, got number", [1, 0, 0, 1, 0, 0, 6, 0]),
    ("nested-prim-in-proc", "vector-ref: expected vector, got number", [17, 2, 1, 2, 1, 0, 27, 4]),
    ("nested-prim-in-proc/checked", "vector-ref: expected vector, got number", [19, 2, 1, 2, 1, 0, 27, 2]),
    ("call-operand", "expected number, got symbol", [3, 2, 0, 2, 1, 0, 16, 4]),
    ("call-operand/checked", "expected number, got symbol", [5, 2, 0, 2, 1, 0, 16, 2]),
    ("let-operand", "cdr: expected pair, got number", [1, 0, 0, 1, 0, 0, 9, 1]),
    ("let-operand/checked", "cdr: expected pair, got number", [1, 0, 0, 1, 0, 0, 9, 0]),
    ("if-test", "car: expected pair, got number", [1, 0, 0, 1, 0, 0, 4, 1]),
    ("if-test/checked", "car: expected pair, got number", [1, 0, 0, 1, 0, 0, 4, 0]),
    ("if-test-in-proc", "expected number, got symbol", [14, 2, 1, 2, 1, 0, 16, 4]),
    ("if-test-in-proc/checked", "expected number, got symbol", [16, 2, 1, 2, 1, 0, 16, 2]),
    ("if-test-after-loop", "vector-ref: index 3 out of range", [69, 8, 4, 17, 1, 0, 111, 32]),
    ("if-test-after-loop/checked", "vector-ref: index 3 out of range", [85, 8, 4, 17, 1, 0, 111, 16]),
    ("loop-then-nested-prim", "car: expected pair, got number", [186, 3, 11, 42, 1, 0, 281, 83]),
    ("loop-then-nested-prim/checked", "car: expected pair, got number", [227, 3, 11, 42, 1, 0, 281, 41]),
    ("error-operand", "error: boom 6", [2, 0, 0, 2, 0, 0, 12, 2]),
    ("error-operand/checked", "error: boom 6", [3, 0, 0, 2, 0, 0, 12, 1]),
    ("error-call-operand", "error: bad (1 2)", [15, 10, 1, 1, 2, 2, 18, 0]),
    ("error-call-operand/checked", "error: bad (1 2)", [15, 10, 1, 1, 2, 2, 18, 0]),
    ("cl-ref-range", "cl-ref: index out of range", [3, 3, 0, 0, 1, 0, 9, 0]),
    ("cl-ref-range/checked", "cl-ref: index out of range", [3, 3, 0, 0, 1, 0, 9, 0]),
    ("cl-ref-range-letrec", "cl-ref: index out of range", [3, 6, 0, 0, 2, 0, 4, 0]),
    ("cl-ref-range-letrec/checked", "cl-ref: index out of range", [3, 6, 0, 0, 2, 0, 4, 0]),
    ("cl-ref-non-closure", "cl-ref: expected procedure, got number", [2, 0, 0, 1, 0, 0, 7, 2]),
    ("cl-ref-non-closure/checked", "cl-ref: expected procedure, got number", [3, 0, 0, 1, 0, 0, 7, 1]),
    ("arity-too-many", "call: procedure expects 1 arguments, got 2", [1, 2, 0, 1, 1, 0, 11, 2]),
    ("arity-too-many/checked", "call: procedure expects 1 arguments, got 2", [2, 2, 0, 1, 1, 0, 11, 1]),
    ("arity-too-few", "call: procedure expects 2 arguments, got 1", [14, 5, 1, 1, 2, 0, 15, 2]),
    ("arity-too-few/checked", "call: procedure expects 2 arguments, got 1", [15, 5, 1, 1, 2, 0, 15, 1]),
    ("arity-rest", "call: procedure expects 2+ arguments, got 1", [2, 2, 0, 1, 1, 0, 10, 2]),
    ("arity-rest/checked", "call: procedure expects 2+ arguments, got 1", [3, 2, 0, 1, 1, 0, 10, 1]),
    ("dense/S-3", "out of fuel", [663, 6, 31, 259, 2, 0, 1436, 563]),
    ("dense/S-2", "out of fuel", [664, 6, 31, 259, 2, 0, 1437, 563]),
    ("dense/S-1", "out of fuel", [664, 6, 31, 259, 2, 0, 1438, 563]),
    ("dense/S+0", "ok", [664, 6, 31, 259, 2, 0, 1439, 563]),
    ("dense/S+1", "ok", [664, 6, 31, 259, 2, 0, 1439, 563]),
];

/// FNV-1a over the outcome at every fuel cap from 1 to `S − 4`.
const DENSE_LOW_CAPS_FINGERPRINT: u64 = 0xae119d41e9604dcb;

fn fields(c: &Counters) -> [u64; 8] {
    [
        c.mutator,
        c.words_allocated,
        c.calls,
        c.prims,
        c.closures_made,
        c.pairs_made,
        c.steps,
        c.checks,
    ]
}

/// Tag checks charged one unit each, with every primitive's first argument
/// proven safe.
fn run_checked(program: &Program) -> Result<fdi_vm::Outcome, VmError> {
    let safe = (0..program.expr_count() as u32)
        .map(Label)
        .filter(|&l| matches!(program.expr(l), ExprKind::Prim(_, args) if !args.is_empty()))
        .map(|l| (l, 0))
        .collect();
    let config = RunConfig {
        model: CostModel {
            type_check_cost: 1,
            ..CostModel::default()
        },
        ..RunConfig::default()
    };
    let mut elim = CheckElim {
        safe,
        ..CheckElim::default()
    };
    run_observed(program, &config, &mut elim)
}

fn capped(program: &Program, fuel: u64) -> Result<fdi_vm::Outcome, VmError> {
    run(
        program,
        &RunConfig {
            fuel,
            ..RunConfig::default()
        },
    )
}

/// `(message, counters)` of a run; a success reads as message `"ok"`.
fn summary(result: Result<fdi_vm::Outcome, VmError>) -> (String, [u64; 8]) {
    match result {
        Ok(out) => ("ok".to_string(), fields(&out.counters)),
        Err(e) => (e.message, fields(&e.counters)),
    }
}

#[test]
fn failed_runs_report_the_recorded_message_and_counters() {
    let dense = parse_and_lower(DENSE).unwrap();
    let s = run(&dense, &RunConfig::default()).unwrap().counters.steps;
    let mut actual: Vec<(String, (String, [u64; 8]))> = Vec::new();
    for &(name, src) in FAILING {
        let program = parse_and_lower(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plain = run(&program, &RunConfig::default());
        assert!(plain.is_err(), "{name}: expected a run-time error");
        actual.push((name.to_string(), summary(plain)));
        actual.push((format!("{name}/checked"), summary(run_checked(&program))));
    }
    for fuel in s - 3..=s + 1 {
        let delta = fuel as i64 - s as i64;
        actual.push((format!("dense/S{delta:+}"), summary(capped(&dense, fuel))));
    }
    let table: String = actual
        .iter()
        .map(|(n, (m, f))| format!("    ({n:?}, {m:?}, {f:?}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "recorded table:\n{table}");
    for ((name, (msg, f)), &(gname, gmsg, gf)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "recorded table:\n{table}");
        assert_eq!(
            (msg.as_str(), f),
            (gmsg, &gf),
            "{name}: message/counters moved; recorded table:\n{table}"
        );
    }
}

#[test]
fn out_of_fuel_counters_match_at_every_low_cap() {
    let dense = parse_and_lower(DENSE).unwrap();
    let s = run(&dense, &RunConfig::default()).unwrap().counters.steps;
    let all: String = (1..s - 3)
        .map(|fuel| {
            let (msg, f) = summary(capped(&dense, fuel));
            assert_eq!(msg, "out of fuel", "fuel {fuel} < {s}");
            assert_eq!(f[6], fuel, "steps at out-of-fuel");
            format!("{fuel}:{f:?};")
        })
        .collect();
    assert_eq!(
        fingerprint(&all),
        DENSE_LOW_CAPS_FINGERPRINT,
        "fingerprint {:#018x} over {} caps",
        fingerprint(&all),
        s - 4
    );
}
