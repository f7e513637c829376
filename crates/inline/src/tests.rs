use crate::{
    inline_program, inline_program_budgeted, inline_program_with, InlineConfig, InlineGuide,
    InlineMode, InlineOutcome, InlineReport, InlineRuntime,
};
use fdi_cfa::{analyze, FlowAnalysis, Polyvariance};
use fdi_lang::{parse_and_lower, ExprKind, Program};
use fdi_telemetry::Telemetry;

/// [`inline_program_with`], sequential and without telemetry.
fn recorded(p: &Program, flow: &FlowAnalysis, cfg: &InlineConfig) -> InlineOutcome {
    inline_program_with(p, flow, cfg, InlineRuntime::sequential(), &Telemetry::off())
}

/// [`inline_program_budgeted`], sequential and without telemetry.
fn budgeted(
    p: &Program,
    flow: &FlowAnalysis,
    cfg: &InlineConfig,
    guide: Option<&InlineGuide>,
    size_budget: Option<usize>,
) -> InlineOutcome {
    inline_program_budgeted(
        p,
        flow,
        cfg,
        guide,
        size_budget,
        InlineRuntime::sequential(),
        &Telemetry::off(),
    )
}

fn run(src: &str, config: &InlineConfig) -> (Program, InlineReport) {
    let p = parse_and_lower(src).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    assert!(!flow.stats().aborted);
    let (out, report) = inline_program(&p, &flow, config);
    fdi_lang::validate(&out).expect("inlined program is well-formed");
    (out, report)
}

/// Inline, then simplify — the full §2 pipeline after analysis.
fn run_simplified(src: &str, threshold: usize) -> (String, InlineReport) {
    let (out, report) = run(src, &InlineConfig::with_threshold(threshold));
    let (simple, _) = fdi_simplify::simplify(&out);
    (fdi_lang::unparse(&simple).to_string(), report)
}

#[test]
fn inlines_simple_known_call() {
    let (out, report) = run(
        "(define (sq x) (* x x)) (sq 7)",
        &InlineConfig::with_threshold(100),
    );
    assert_eq!(report.sites_inlined, 1);
    assert!(fdi_lang::validate(&out).is_ok());
}

#[test]
fn simplifies_to_constant_after_inline() {
    let (out, _) = run_simplified("(define (sq x) (* x x)) (sq 7)", 100);
    assert_eq!(out, "49");
}

#[test]
fn threshold_zero_disables_inlining() {
    let (_, report) = run(
        "(define (sq x) (* x x)) (sq 7)",
        &InlineConfig::with_threshold(0),
    );
    assert_eq!(report.sites_inlined, 0);
    assert!(report.rejected_size >= 1);
}

#[test]
fn higher_order_argument_is_inlined() {
    // The paper's generality claim: procedures passed as arguments inline.
    let (out, report) = run_simplified(
        "(define (twice f x) (f (f x)))
         (define (add1 n) (+ n 1))
         (twice add1 5)",
        200,
    );
    assert!(report.sites_inlined >= 2, "{report:?}");
    assert_eq!(out, "7");
}

#[test]
fn procedure_from_data_structure_is_inlined() {
    let (out, report) = run_simplified(
        "(define p (cons (lambda (x) (* 3 x)) '()))
         ((car p) 4)",
        200,
    );
    assert!(report.sites_inlined >= 1, "{report:?}");
    assert_eq!(out, "12");
}

#[test]
fn object_style_dispatch_is_inlined() {
    // §2.1's make-network example: ((N 'open) addr) inlines the open-branch
    // procedure even though N itself is a dispatcher. Each network instance
    // receives one message kind, so polymorphic splitting keeps the
    // dispatch tests precise and specialization prunes the other branches.
    let (out, report) = run_simplified(
        "(define (make-counter)
           (lambda (msg)
             (case msg
               ((get) (lambda (c) (car c)))
               ((bump) (lambda (c) (set-car! c (+ 1 (car c)))))
               (else (error \"bad msg\")))))
         (define cell (cons 41 '()))
         (define bumper (make-counter))
         (define getter (make-counter))
         (begin ((bumper 'bump) cell) ((getter 'get) cell))",
        500,
    );
    assert!(report.sites_inlined >= 2, "{report:?}");
    assert!(
        report.branches_pruned >= 1,
        "case dispatch should prune: {report:?}"
    );
    assert!(!out.contains("error"), "dead else branches pruned: {out}");
}

#[test]
fn recursive_procedure_builds_loop_not_unfolding() {
    let (out, report) = run(
        "(define (count n) (if (zero? n) 0 (count (- n 1))))
         (count 10)",
        &InlineConfig::with_threshold(500),
    );
    assert!(report.sites_inlined >= 1, "{report:?}");
    assert!(report.loops_tied >= 1, "{report:?}");
    assert!(fdi_lang::validate(&out).is_ok());
}

#[test]
fn mutual_recursion_terminates() {
    let (out, report) = run(
        "(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
         (define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
         (even2? 10)",
        &InlineConfig::with_threshold(1000),
    );
    assert!(report.loops_tied >= 1, "{report:?}");
    assert!(fdi_lang::validate(&out).is_ok());
}

#[test]
fn open_procedure_rejected_in_closed_mode() {
    // The returned closure captures k (not top-level) and k's reference
    // survives specialization → rejected in Closed mode.
    let (_, report) = run(
        "(define (const k) (lambda () k))
         (define f (const 5))
         (f)",
        &InlineConfig::with_threshold(500),
    );
    assert!(report.rejected_open >= 1, "{report:?}");
}

#[test]
fn open_procedure_inlined_in_cl_ref_mode() {
    let config = InlineConfig {
        threshold: 500,
        mode: InlineMode::ClRef,
        unroll: 0,
    };
    let (out, report) = run(
        "(define (const k) (lambda () k))
         (define f (const 5))
         (f)",
        &config,
    );
    assert!(report.sites_inlined >= 1, "{report:?}");
    // The inlined copy accesses k through cl-ref.
    let has_clref = out
        .labels()
        .any(|l| matches!(out.expr(l), ExprKind::ClRef(..)));
    assert!(has_clref, "cl-ref should be emitted");
}

#[test]
fn free_var_in_pruned_branch_allows_closed_inline() {
    // The paper's exception (i): z occurs only in a conditional branch that
    // specialization eliminates, so the procedure inlines in Closed mode.
    let (_, report) = run(
        "(define (make z)
           (lambda (flag) (if flag 'const z)))
         (define g (make (cons 1 2)))
         (g #t)",
        &InlineConfig::with_threshold(500),
    );
    assert!(report.sites_inlined >= 1, "{report:?}");
    assert!(report.branches_pruned >= 1, "{report:?}");
}

#[test]
fn map_car_specializes_and_prunes_map_star() {
    // Figs. 1–3: inlining (map car m) prunes the variable-arity path.
    let (out, report) = run_simplified(
        "(define m (cons (cons 1 2) (cons (cons 3 4) '())))
         (map car m)",
        500,
    );
    assert!(report.sites_inlined >= 1, "map should inline: {report:?}");
    assert!(
        report.branches_pruned >= 1,
        "(null? args) should prune: {report:?}"
    );
    assert!(
        !out.contains("apply"),
        "map* (apply path) should be pruned: {out}"
    );
}

#[test]
fn selective_inlining_per_call_site() {
    // A large procedure may be inlined where specialization shrinks it and
    // rejected elsewhere — here the same callee at two sites with a small
    // threshold: both still inline or not coherently; the point is the
    // decision is per-site.
    let src = "(define (f sel x)
                 (if sel
                     (+ x 1)
                     (begin (display x) (display x) (display x) (display x)
                            (display x) (display x) (display x) (display x)
                            (display x) (display x) (display x) (display x)
                            (- x 1))))
               (cons (f #t 1) (f #f 2))";
    let (_, report) = run(src, &InlineConfig::with_threshold(12));
    // The #t site specializes to (+ x 1) — small enough; the #f site's
    // specialization keeps the display chain — too big.
    assert_eq!(report.sites_inlined, 1, "{report:?}");
    assert_eq!(report.rejected_size, 1, "{report:?}");
}

#[test]
fn inlining_inside_large_procedures_still_happens() {
    // §2.2: a procedure too big to inline still gets inlining *within* it.
    let src = "(define (tiny x) (+ x 1))
               (define (huge y)
                 (begin (display y) (display y) (display y) (display y)
                        (display y) (display y) (display y) (display y)
                        (tiny y)))
               (huge 5)";
    let (_, report) = run(src, &InlineConfig::with_threshold(8));
    assert!(
        report.sites_inlined >= 1,
        "tiny inlines inside huge: {report:?}"
    );
    assert!(
        report.rejected_size >= 1,
        "huge itself rejected: {report:?}"
    );
}

#[test]
fn variadic_callee_inlines_with_explicit_rest_list() {
    let (out, report) = run_simplified(
        "(define (collect . xs) xs)
         (collect 1 2 3)",
        200,
    );
    assert!(report.sites_inlined >= 1, "{report:?}");
    assert_eq!(out, "(cons 1 (cons 2 (cons 3 (quote ()))))");
}

#[test]
fn unknown_callee_left_alone() {
    let (_, report) = run(
        "(define (pick b) (if b (lambda (x) (+ x 1)) (lambda (x) (- x 1))))
         ((pick (zero? (random 2))) 5)",
        &InlineConfig::with_threshold(500),
    );
    // ((pick …) 5) has two possible closures → not a candidate.
    assert!(report.sites_inlined <= 2, "{report:?}");
}

#[test]
fn behaviour_preserved_under_inline_plus_simplify() {
    // Source-to-source round trip sanity: the pipeline output re-lowers.
    let (out, _) = run_simplified(
        "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
         (len (cons 1 (cons 2 (cons 3 '()))))",
        300,
    );
    assert!(parse_and_lower(&out).is_ok(), "{out}");
}

#[test]
fn loop_unrolling_unfolds_then_ties() {
    let src = "(define (count n) (if (zero? n) 0 (count (- n 1)))) (count 10)";
    let p = parse_and_lower(src).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let mut config = InlineConfig::with_threshold(500);
    config.unroll = 2;
    let (out, report) = inline_program(&p, &flow, &config);
    fdi_lang::validate(&out).expect("unrolled program is well-formed");
    assert!(report.unrolled >= 1, "{report:?}");
    assert!(report.loops_tied >= 1, "loops must still tie: {report:?}");
    // Behaviour is preserved.
    let (simple, _) = fdi_simplify::simplify(&out);
    let r = fdi_vm::run(&simple, &fdi_vm::RunConfig::default()).unwrap();
    assert_eq!(r.value, "0");
}

#[test]
fn unrolling_reduces_dynamic_calls() {
    let src = "(define (count n) (if (zero? n) 0 (count (- n 1)))) (count 60)";
    let p = parse_and_lower(src).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let run = |unroll: usize| {
        let mut config = InlineConfig::with_threshold(2000);
        config.unroll = unroll;
        let (out, _) = inline_program(&p, &flow, &config);
        let (simple, _) = fdi_simplify::simplify(&out);
        fdi_vm::run(&simple, &fdi_vm::RunConfig::default()).unwrap()
    };
    let plain = run(0);
    let unrolled = run(3);
    assert_eq!(plain.value, unrolled.value);
    assert!(
        unrolled.counters.calls < plain.counters.calls,
        "unrolling should execute fewer calls: {} vs {}",
        unrolled.counters.calls,
        plain.counters.calls
    );
}

#[test]
fn divergence_prunes_right_of_error() {
    // §3.4: with left-to-right evaluation, the subexpressions to the right
    // of one whose abstract value is ⊥ can be pruned.
    let (out, report) = run(
        "(define (boom) (error \"unreachable\"))
         (begin (display 1) (boom) (display 2) (display 3))",
        &InlineConfig::with_threshold(100),
    );
    assert!(report.divergence_prunes >= 2, "{report:?}");
    let printed = fdi_lang::unparse(&out).to_string();
    assert!(!printed.contains("(display 2)"), "{printed}");
    assert!(printed.contains("(display 1)"), "{printed}");
}

#[test]
fn divergent_call_argument_prunes_the_call() {
    let (out, report) = run(
        "(define (f a b) (cons a b))
         (f (error \"stop\") (display 9))",
        &InlineConfig::with_threshold(100),
    );
    assert!(report.divergence_prunes >= 1, "{report:?}");
    let printed = fdi_lang::unparse(&out).to_string();
    assert!(!printed.contains("(display 9)"), "{printed}");
    // Behaviour preserved: the program still errors with the same message.
    let (simple, _) = fdi_simplify::simplify(&out);
    let err = fdi_vm::run(&simple, &fdi_vm::RunConfig::default()).unwrap_err();
    assert!(err.message.contains("stop"), "{}", err.message);
}

#[test]
fn report_counts_are_consistent() {
    let (_, report) = run(
        "(define (sq x) (* x x)) (cons (sq 2) (sq 3))",
        &InlineConfig::with_threshold(100),
    );
    assert!(report.calls_seen >= 2);
    assert_eq!(report.sites_inlined, 2);
}

#[test]
fn budgeted_without_budget_is_identical() {
    let src = "(define (sq x) (* x x)) (define (inc n) (+ n 1)) (cons (sq 7) (inc 1))";
    let p = parse_and_lower(src).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cfg = InlineConfig::with_threshold(200);
    let plain = recorded(&p, &flow, &cfg);
    let mut guide = InlineGuide::new();
    guide.set("l1", 999);
    let budgeted = budgeted(&p, &flow, &cfg, Some(&guide), None);
    assert_eq!(
        fdi_lang::unparse(&plain.program).to_string(),
        fdi_lang::unparse(&budgeted.program).to_string()
    );
    assert_eq!(plain.report, budgeted.report);
    assert_eq!(plain.decisions, budgeted.decisions);
}

#[test]
fn size_budget_caps_committed_specializations() {
    use fdi_telemetry::DecisionReason;
    let src = "(define (sq x) (* x x))
               (define (inc n) (+ n 1))
               (cons (sq 7) (inc 1))";
    let p = parse_and_lower(src).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cfg = InlineConfig::with_threshold(200);
    let probe = recorded(&p, &flow, &cfg);
    let sizes: Vec<(String, usize)> = probe
        .decisions
        .iter()
        .filter_map(|d| match d.reason {
            DecisionReason::Inlined { specialized_size } => {
                Some((d.site_label.clone(), specialized_size))
            }
            _ => None,
        })
        .collect();
    assert!(sizes.len() >= 2, "{sizes:?}");
    // A budget that fits either specialization alone but never both.
    let budget = sizes.iter().map(|s| s.1).max().unwrap();
    let stat = budgeted(&p, &flow, &cfg, None, Some(budget));
    fdi_lang::validate(&stat.program).unwrap();
    assert_eq!(stat.report.sites_inlined, 1, "{:?}", stat.report);
    assert_eq!(stat.report.rejected_budget, 1);
    // Static order spends the budget on the first probe site.
    let first = &sizes[0].0;
    assert!(stat
        .decisions
        .iter()
        .any(|d| d.site_label == *first && matches!(d.reason, DecisionReason::Inlined { .. })));
    // All the benefit on the second site flips the allocation.
    let hot = &sizes[1].0;
    let mut guide = InlineGuide::new();
    guide.set(hot.clone(), 1_000);
    let guided = budgeted(&p, &flow, &cfg, Some(&guide), Some(budget));
    fdi_lang::validate(&guided.program).unwrap();
    assert_eq!(guided.report.sites_inlined, 1, "{:?}", guided.report);
    assert!(guided
        .decisions
        .iter()
        .any(|d| d.site_label == *hot && matches!(d.reason, DecisionReason::Inlined { .. })));
    let cut = guided
        .decisions
        .iter()
        .find(|d| matches!(d.reason, DecisionReason::SizeBudgetExhausted { .. }))
        .expect("the cold site records the budget cut");
    assert_eq!(cut.site_label, *first);
    // The committed total respects the budget under both orderings.
    for out in [&stat, &guided] {
        let committed: usize = out
            .decisions
            .iter()
            .filter_map(|d| match d.reason {
                DecisionReason::Inlined { specialized_size } => Some(specialized_size),
                _ => None,
            })
            .sum();
        assert!(committed <= budget, "{committed} > {budget}");
    }
}

#[test]
fn budgeted_runs_are_deterministic() {
    let src = "(define (twice f x) (f (f x)))
               (define (add1 n) (+ n 1))
               (define (sq x) (* x x))
               (cons (twice add1 5) (twice sq 2))";
    let p = parse_and_lower(src).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cfg = InlineConfig::with_threshold(300);
    let mut guide = InlineGuide::new();
    guide.set("l9", 70);
    guide.set("l12", 50);
    let a = budgeted(&p, &flow, &cfg, Some(&guide), Some(30));
    let b = budgeted(&p, &flow, &cfg, Some(&guide), Some(30));
    assert_eq!(
        fdi_lang::unparse(&a.program).to_string(),
        fdi_lang::unparse(&b.program).to_string()
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.report, b.report);
}

// --- specialization cache & parallel units ---------------------------------

/// A source with enough distinct callees, recursion, and higher-order flow
/// to exercise replay, footprints, and threshold validity intervals.
const CACHE_SRC: &str = "
  (define (sq x) (* x x))
  (define (inc n) (+ n 1))
  (define (twice f x) (f (f x)))
  (define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
  (define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))
  (define data (cons 1 (cons 2 (cons 3 '()))))
  (cons (twice inc (sq 4))
        (cons (len data) (cons (sum data) (map sq data))))";

fn outcome_fingerprint(out: &crate::InlineOutcome) -> (String, InlineReport, usize) {
    (
        fdi_lang::unparse(&out.program).to_string(),
        out.report,
        out.decisions.len(),
    )
}

#[test]
fn spec_cache_sweep_is_byte_identical_and_hits() {
    use crate::SpecializationCache;
    let p = parse_and_lower(CACHE_SRC).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cache = SpecializationCache::unbounded();
    let salt = 0xfeed_beef_u64;
    for &t in &[0usize, 50, 100, 200, 500, 1000] {
        let cfg = InlineConfig::with_threshold(t);
        let base = recorded(&p, &flow, &cfg);
        let rt = InlineRuntime {
            cache: Some((&cache, salt)),
            units: 1,
        };
        let cached = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
        assert_eq!(
            outcome_fingerprint(&base),
            outcome_fingerprint(&cached),
            "threshold {t}"
        );
        assert_eq!(base.decisions, cached.decisions, "threshold {t}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "sweep must replay entries: {stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    // A second identical sweep replays from cache.
    let before = cache.stats();
    let cfg = InlineConfig::with_threshold(200);
    let rt = InlineRuntime {
        cache: Some((&cache, salt)),
        units: 1,
    };
    let again = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
    fdi_lang::validate(&again.program).unwrap();
    assert!(cache.stats().hits > before.hits);
}

#[test]
fn spec_cache_salt_separates_sources() {
    use crate::SpecializationCache;
    let cache = SpecializationCache::unbounded();
    let cfg = InlineConfig::with_threshold(200);
    for (salt, src) in [
        (1u64, "(define (sq x) (* x x)) (sq 7)"),
        (2u64, "(define (sq x) (+ x x)) (sq 7)"),
    ] {
        let p = parse_and_lower(src).unwrap();
        let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
        let base = recorded(&p, &flow, &cfg);
        let rt = InlineRuntime {
            cache: Some((&cache, salt)),
            units: 1,
        };
        let cached = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
        assert_eq!(outcome_fingerprint(&base), outcome_fingerprint(&cached));
    }
}

#[test]
fn spec_cache_clear_mid_sweep_is_transparent() {
    use crate::SpecializationCache;
    let p = parse_and_lower(CACHE_SRC).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cache = SpecializationCache::unbounded();
    let cfg = InlineConfig::with_threshold(200);
    let base = recorded(&p, &flow, &cfg);
    let rt = InlineRuntime {
        cache: Some((&cache, 7)),
        units: 1,
    };
    let warm = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
    cache.clear();
    let cold = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
    assert_eq!(outcome_fingerprint(&base), outcome_fingerprint(&warm));
    assert_eq!(outcome_fingerprint(&base), outcome_fingerprint(&cold));
    assert!(cache.stats().evictions > 0, "{:?}", cache.stats());
}

#[test]
fn parallel_units_are_byte_identical() {
    let p = parse_and_lower(CACHE_SRC).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    for &t in &[0usize, 100, 200, 500] {
        let cfg = InlineConfig::with_threshold(t);
        let base = recorded(&p, &flow, &cfg);
        for units in [2usize, 4, 8] {
            let rt = InlineRuntime { cache: None, units };
            let par = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
            assert_eq!(
                outcome_fingerprint(&base),
                outcome_fingerprint(&par),
                "threshold {t}, units {units}"
            );
            assert_eq!(
                base.decisions, par.decisions,
                "threshold {t}, units {units}"
            );
        }
    }
}

#[test]
fn cache_and_units_compose_byte_identically() {
    use crate::SpecializationCache;
    let p = parse_and_lower(CACHE_SRC).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cache = SpecializationCache::unbounded();
    for &t in &[100usize, 200, 500] {
        let cfg = InlineConfig::with_threshold(t);
        let base = recorded(&p, &flow, &cfg);
        let rt = InlineRuntime {
            cache: Some((&cache, 3)),
            units: 4,
        };
        let both = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
        assert_eq!(
            outcome_fingerprint(&base),
            outcome_fingerprint(&both),
            "threshold {t}"
        );
    }
    assert!(cache.stats().misses > 0);
}

#[test]
fn budgeted_with_cache_runtime_is_identical() {
    use crate::SpecializationCache;
    let p = parse_and_lower(CACHE_SRC).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cfg = InlineConfig::with_threshold(300);
    let cache = SpecializationCache::unbounded();
    let base = budgeted(&p, &flow, &cfg, None, Some(40));
    let rt = InlineRuntime {
        cache: Some((&cache, 11)),
        units: 2,
    };
    let cached = inline_program_budgeted(&p, &flow, &cfg, None, Some(40), rt, &Telemetry::off());
    assert_eq!(outcome_fingerprint(&base), outcome_fingerprint(&cached));
    assert_eq!(base.decisions, cached.decisions);
}

#[test]
fn spec_cache_ledger_sheds_under_pressure() {
    use crate::{CacheLedger, SpecializationCache};
    use std::sync::atomic::{AtomicUsize, Ordering};
    struct TinyLedger {
        used: AtomicUsize,
        limit: usize,
    }
    impl CacheLedger for TinyLedger {
        fn charge(&self, bytes: usize) {
            self.used.fetch_add(bytes, Ordering::Relaxed);
        }
        fn release(&self, bytes: usize) {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
        }
        fn over_limit(&self) -> bool {
            self.used.load(Ordering::Relaxed) > self.limit
        }
    }
    let cache = SpecializationCache::new(Box::new(TinyLedger {
        used: AtomicUsize::new(0),
        limit: 512,
    }));
    let p = parse_and_lower(CACHE_SRC).unwrap();
    let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
    let cfg = InlineConfig::with_threshold(500);
    let base = recorded(&p, &flow, &cfg);
    let rt = InlineRuntime {
        cache: Some((&cache, 5)),
        units: 1,
    };
    let out = inline_program_with(&p, &flow, &cfg, rt, &Telemetry::off());
    assert_eq!(outcome_fingerprint(&base), outcome_fingerprint(&out));
    let stats = cache.stats();
    assert!(stats.evictions > 0, "tiny ledger must shed: {stats:?}");
    assert!(stats.bytes <= 4096, "{stats:?}");
}
