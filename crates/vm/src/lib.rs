//! Execution substrate: a flat-closure abstract machine with a cost model.
//!
//! The paper evaluates inlined programs under Chez Scheme 5.0a on a MIPS
//! R4400, reporting execution time split into mutator and collector time
//! (Fig. 6). That substrate is not available, so this crate provides a
//! deterministic stand-in: a CEK-style machine over resolved code
//! (`resolve`) that charges unit costs per operation (procedure-call
//! overhead, primitive, binding, branch) and words per allocation, with
//! collector time proportional to allocation volume ([`CostModel`]).
//!
//! Inlining + simplification turn closure calls into `let` bindings and
//! prune branches; the machine's counters make that visible exactly the way
//! Fig. 6 does — mutator time falls, collector time moves only when closure
//! allocation changes.
//!
//! [`run`] executes a program; [`run_observed`] executes it under an
//! [`Observer`], which sees each call's site and linkage cost (the
//! profiler's data) and decides which tag checks are elided (check
//! elimination's). `run` is `run_observed` with the no-op observer `()`.
//!
//! # Examples
//!
//! ```
//! use fdi_vm::{run, RunConfig};
//!
//! let p = fdi_lang::parse_and_lower(
//!     "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)",
//! ).unwrap();
//! let out = run(&p, &RunConfig::default()).unwrap();
//! assert_eq!(out.value, "3628800");
//! assert_eq!(out.counters.calls, 11);
//! ```

mod cost;
mod machine;
mod prims;
mod resolve;
mod value;

pub use cost::{CostModel, Counters};
pub use machine::{run, run_observed, Observer, Outcome, RunConfig, VmError};

#[cfg(test)]
mod more_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_lang::parse_and_lower;

    fn eval(src: &str) -> String {
        let p = parse_and_lower(src).unwrap();
        run(&p, &RunConfig::default()).unwrap().value
    }

    fn eval_out(src: &str) -> Outcome {
        let p = parse_and_lower(src).unwrap();
        run(&p, &RunConfig::default()).unwrap()
    }

    fn eval_err(src: &str) -> VmError {
        let p = parse_and_lower(src).unwrap();
        run(&p, &RunConfig::default()).unwrap_err()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("(+ 1 2 3)"), "6");
        assert_eq!(eval("(- 10 4 1)"), "5");
        assert_eq!(eval("(- 7)"), "-7");
        assert_eq!(eval("(* 2 3 4)"), "24");
        assert_eq!(eval("(/ 12 4)"), "3");
        assert_eq!(eval("(/ 1 2)"), "0.5");
        assert_eq!(eval("(quotient 7 2)"), "3");
        assert_eq!(eval("(remainder 7 -2)"), "1");
        assert_eq!(eval("(modulo 7 -2)"), "-1");
        assert_eq!(eval("(modulo -7 2)"), "1");
        assert_eq!(eval("(expt 2 10)"), "1024");
        assert_eq!(eval("(max 1 5 3)"), "5");
        assert_eq!(eval("(min 1 5 3)"), "1");
        assert_eq!(eval("(abs -9)"), "9");
        assert_eq!(eval("(gcd 12 18)"), "6");
    }

    #[test]
    fn floats_and_rounding() {
        assert_eq!(eval("(+ 1.5 2)"), "3.5");
        assert_eq!(eval("(sqrt 9.0)"), "3.0");
        assert_eq!(eval("(floor 2.7)"), "2.0");
        assert_eq!(eval("(ceiling 2.2)"), "3.0");
        assert_eq!(eval("(truncate -2.7)"), "-2.0");
        assert_eq!(eval("(exact->inexact 2)"), "2.0");
        assert_eq!(eval("(inexact->exact 2.0)"), "2");
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("(< 1 2 3)"), "#t");
        assert_eq!(eval("(< 1 3 2)"), "#f");
        assert_eq!(eval("(= 2 2 2)"), "#t");
        assert_eq!(eval("(>= 3 3 1)"), "#t");
        assert_eq!(eval("(zero? 0)"), "#t");
        assert_eq!(eval("(even? 4)"), "#t");
        assert_eq!(eval("(odd? 4)"), "#f");
    }

    #[test]
    fn pairs_and_mutation() {
        assert_eq!(eval("(car (cons 1 2))"), "1");
        assert_eq!(eval("(cdr (cons 1 2))"), "2");
        assert_eq!(
            eval("(let ((p (cons 1 2))) (begin (set-car! p 9) (car p)))"),
            "9"
        );
        assert_eq!(
            eval("(let ((p (cons 1 2))) (begin (set-cdr! p 9) (cdr p)))"),
            "9"
        );
        assert_eq!(eval("'(1 2 3)"), "(1 2 3)");
        assert_eq!(eval("'(1 . 2)"), "(1 . 2)");
    }

    #[test]
    fn vectors() {
        assert_eq!(eval("(vector-ref (vector 'a 'b) 1)"), "b");
        assert_eq!(eval("(vector-length (make-vector 5 0))"), "5");
        assert_eq!(
            eval("(let ((v (make-vector 3 0))) (begin (vector-set! v 1 9) (vector-ref v 1)))"),
            "9"
        );
        assert_eq!(eval("(vector 1 2)"), "#(1 2)");
    }

    #[test]
    fn strings_chars_symbols() {
        assert_eq!(eval("(string-length \"hello\")"), "5");
        assert_eq!(eval("(string-append \"a\" \"b\" \"c\")"), "\"abc\"");
        assert_eq!(eval("(substring \"hello\" 1 3)"), "\"el\"");
        assert_eq!(eval("(string=? \"x\" \"x\")"), "#t");
        assert_eq!(eval("(symbol->string 'foo)"), "\"foo\"");
        assert_eq!(eval("(string->symbol \"foo\")"), "foo");
        assert_eq!(eval("(char->integer #\\a)"), "97");
        assert_eq!(eval("(integer->char 98)"), "#\\b");
        assert_eq!(eval("(char<? #\\a #\\b)"), "#t");
        assert_eq!(eval("(number->string 42)"), "\"42\"");
    }

    #[test]
    fn equality() {
        assert_eq!(eval("(eq? 'a 'a)"), "#t");
        assert_eq!(eval("(eqv? 1 1)"), "#t");
        assert_eq!(eval("(eq? (cons 1 2) (cons 1 2))"), "#f");
        assert_eq!(eval("(let ((p (cons 1 2))) (eq? p p))"), "#t");
        assert_eq!(eval("(equal? '(1 (2 3)) '(1 (2 3)))"), "#t");
        assert_eq!(eval("(equal? '(1 2) '(1 3))"), "#f");
        assert_eq!(eval("(equal? \"ab\" \"ab\")"), "#t");
        assert_eq!(eval("(equal? (vector 1 2) (vector 1 2))"), "#t");
    }

    #[test]
    fn closures_and_capture() {
        assert_eq!(eval("((lambda (x) x) 41)"), "41");
        assert_eq!(
            eval("(define (adder n) (lambda (x) (+ x n))) ((adder 10) 5)"),
            "15"
        );
        // Flat-closure capture of a capture.
        assert_eq!(
            eval("(define (f a) (lambda () (lambda () a))) (((f 7)))"),
            "7"
        );
    }

    #[test]
    fn letrec_mutual_recursion() {
        assert_eq!(
            eval(
                "(letrec ((even2? (lambda (n) (if (zero? n) #t (odd2? (- n 1)))))
                          (odd2? (lambda (n) (if (zero? n) #f (even2? (- n 1))))))
                   (even2? 101))"
            ),
            "#f"
        );
    }

    #[test]
    fn deep_tail_recursion_is_constant_stack() {
        // One million tail calls — would overflow any recursive evaluator.
        assert_eq!(
            eval(
                "(letrec ((loop (lambda (n acc) (if (zero? n) acc (loop (- n 1) (+ acc 1))))))
                   (loop 1000000 0))"
            ),
            "1000000"
        );
    }

    #[test]
    fn variadic_and_apply() {
        assert_eq!(eval("((lambda args args) 1 2 3)"), "(1 2 3)");
        assert_eq!(eval("((lambda (a . r) (cons a r)) 1 2)"), "(1 2)");
        assert_eq!(eval("(apply + '(1 2 3))"), "6");
        assert_eq!(eval("(apply + 1 2 '(3 4))"), "10");
        assert_eq!(eval("(list 1 2 3)"), "(1 2 3)");
    }

    #[test]
    fn prelude_procedures_execute() {
        assert_eq!(eval("(length '(a b c))"), "3");
        assert_eq!(eval("(append '(1 2) '(3) '(4 5))"), "(1 2 3 4 5)");
        assert_eq!(eval("(reverse '(1 2 3))"), "(3 2 1)");
        assert_eq!(eval("(map car '((1 2) (3 4)))"), "(1 3)");
        assert_eq!(eval("(map + '(1 2) '(10 20))"), "(11 22)");
        assert_eq!(eval("(assq 'b '((a 1) (b 2)))"), "(b 2)");
        assert_eq!(eval("(memv 2 '(1 2 3))"), "(2 3)");
        assert_eq!(eval("(filter even? '(1 2 3 4))"), "(2 4)");
        assert_eq!(eval("(foldl + 0 '(1 2 3 4))"), "10");
        assert_eq!(eval("(sort '(3 1 2) <)"), "(1 2 3)");
        assert_eq!(eval("(list->vector '(1 2))"), "#(1 2)");
        assert_eq!(eval("(vector->list (vector 1 2))"), "(1 2)");
        assert_eq!(eval("(iota 4)"), "(0 1 2 3)");
    }

    #[test]
    fn cl_ref_reads_captures() {
        assert_eq!(
            eval("(let ((k 9)) (let ((f (lambda (x) k))) (cl-ref f 0)))"),
            "9"
        );
    }

    #[test]
    fn output_is_captured() {
        let out = eval_out("(begin (display \"x=\") (write \"y\") (newline) 0)");
        assert_eq!(out.output, "x=\"y\"\n");
    }

    #[test]
    fn runtime_errors() {
        assert!(eval_err("(car '())").message.contains("car"));
        assert!(eval_err("(vector-ref (vector 1) 5)")
            .message
            .contains("out of range"));
        assert!(eval_err("(+ 1 'a)").message.contains("number"));
        assert!(eval_err("((lambda (x) x) 1 2)")
            .message
            .contains("arguments"));
        assert!(eval_err("((lambda (x y) x) 1)")
            .message
            .contains("arguments"));
        assert!(eval_err("(error \"boom\" 42)").message.contains("boom"));
        assert!(eval_err("(quotient 1 0)").message.contains("zero"));
        assert!(eval_err("(1 2)").message.contains("procedure"));
    }

    #[test]
    fn fuel_exhaustion() {
        let p = parse_and_lower("(letrec ((f (lambda () (f)))) (f))").unwrap();
        let cfg = RunConfig {
            fuel: 10_000,
            ..RunConfig::default()
        };
        let err = run(&p, &cfg).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn random_is_deterministic() {
        let a = eval_out("(cons (random 100) (random 100))");
        let b = eval_out("(cons (random 100) (random 100))");
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn call_counters_track_calls() {
        let out = eval_out("(define (f x) x) (begin (f 1) (f 2) (f 3))");
        assert_eq!(out.counters.calls, 3);
        assert!(out.counters.mutator >= 3 * CostModel::default().call_overhead);
    }

    #[derive(Debug, PartialEq)]
    struct Site {
        site: fdi_lang::Label,
        calls: u64,
        cost: u64,
    }

    /// Tallies each call site's calls and cost, in label order.
    #[derive(Default)]
    struct Tally(std::collections::BTreeMap<fdi_lang::Label, Site>);

    impl Observer for Tally {
        fn call(&mut self, site: fdi_lang::Label, cost: u64) {
            let s = self.0.entry(site).or_insert(Site {
                site,
                calls: 0,
                cost: 0,
            });
            s.calls += 1;
            s.cost += cost;
        }
    }

    fn run_tallied(p: &fdi_lang::Program) -> (Outcome, Vec<Site>) {
        let mut tally = Tally::default();
        let out = run_observed(p, &RunConfig::default(), &mut tally).unwrap();
        (out, tally.0.into_values().collect())
    }

    #[test]
    fn profiled_run_attributes_every_call() {
        let src = "(define (f x) x)
                   (define (g x) (f (f x)))
                   (begin (g 1) (g 2) (apply f '(3)))";
        let p = parse_and_lower(src).unwrap();
        let plain = run(&p, &RunConfig::default()).unwrap();
        let (out, sites) = run_tallied(&p);
        // Profiling changes no observable behaviour or counter.
        assert_eq!(out.value, plain.value);
        assert_eq!(out.counters, plain.counters);
        // Per-site attribution is exhaustive: calls sum to the global call
        // counter and every cost is at least the fixed overhead per call.
        let m = CostModel::default();
        assert_eq!(
            sites.iter().map(|s| s.calls).sum::<u64>(),
            out.counters.calls
        );
        assert!(sites.iter().all(|s| s.cost >= s.calls * m.call_overhead));
        assert!(sites.iter().map(|s| s.cost).sum::<u64>() <= out.counters.mutator);
        // Sorted by label, no duplicates.
        assert!(sites.windows(2).all(|w| w[0].site < w[1].site));
        // g is called twice from one site; f four times across three sites.
        assert!(sites.iter().any(|s| s.calls == 2));
    }

    #[test]
    fn profiled_run_is_deterministic() {
        let src = "(define (add a b) (+ a b))
                   (letrec ((loop (lambda (n acc)
                                    (if (zero? n) acc (loop (- n 1) (add acc n))))))
                     (loop 50 0))";
        let p = parse_and_lower(src).unwrap();
        let (a, sa) = run_tallied(&p);
        let (b, sb) = run_tallied(&p);
        assert_eq!(a.value, b.value);
        assert_eq!(sa, sb);
    }

    #[test]
    fn allocation_counters_track_words() {
        let m = CostModel::default();
        let out = eval_out("(cons 1 2)");
        assert_eq!(out.counters.pairs_made, 1);
        assert_eq!(out.counters.words_allocated, m.pair_words);
        let out2 = eval_out("(lambda (x) x)");
        assert_eq!(out2.counters.closures_made, 1);
        assert_eq!(out2.counters.words_allocated, m.closure_base_words);
        // A closure with one capture costs one more word.
        let out3 = eval_out("(let ((k 1)) (lambda (x) k))");
        assert_eq!(out3.counters.words_allocated, m.closure_base_words + 1);
    }

    #[test]
    fn collector_cost_proportional_to_allocation() {
        let m = CostModel::default();
        let out = eval_out("(cons 1 (cons 2 '()))");
        assert_eq!(
            out.counters.collector(&m),
            2 * m.pair_words * m.gc_cost_per_word
        );
    }

    #[test]
    fn inlined_program_is_cheaper_but_equal() {
        // End-to-end: inlining + simplification must preserve the value and
        // reduce mutator cost on a call-heavy program.
        let src = "(define (add a b) (+ a b))
                   (letrec ((loop (lambda (n acc)
                                    (if (zero? n) acc (loop (- n 1) (add acc n))))))
                     (loop 2000 0))";
        let p = parse_and_lower(src).unwrap();
        let before = run(&p, &RunConfig::default()).unwrap();
        let flow = fdi_cfa::analyze(&p, fdi_cfa::Polyvariance::PolymorphicSplitting);
        let (inlined, _) =
            fdi_inline::inline_program(&p, &flow, &fdi_inline::InlineConfig::with_threshold(200));
        let (simple, _) = fdi_simplify::simplify(&inlined);
        let after = run(&simple, &RunConfig::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert!(
            after.counters.mutator < before.counters.mutator,
            "inlining should reduce mutator cost: {} -> {}",
            before.counters.mutator,
            after.counters.mutator
        );
        assert!(after.counters.calls < before.counters.calls);
    }

    #[test]
    fn case_and_cond_execute() {
        assert_eq!(eval("(case 2 ((1) 'one) ((2) 'two) (else 'many))"), "two");
        assert_eq!(eval("(cond ((= 1 2) 'a) ((= 1 1) 'b) (else 'c))"), "b");
        assert_eq!(eval("(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 5) s))"), "10");
    }

    #[test]
    fn quasiquote_executes() {
        assert_eq!(eval("(let ((x 2)) `(1 ,x ,@(list 3 4)))"), "(1 2 3 4)");
    }
}
