//! End-to-end telemetry contract: decision provenance per rejection
//! reason, collector-on/off output determinism, and Chrome-trace export.
//!
//! Each provenance test pins a corpus program whose shape produces exactly
//! one [`DecisionRecord`] with the reason under test, so a regression in
//! either the inliner's conditions or the recording shows up as a count
//! change, not just a flipped flag.

use fdi_core::{
    optimize, run, DecisionReason, DecisionRecord, PipelineConfig, Request, Telemetry, Verdict,
};
use fdi_engine::{Engine, EngineConfig, Job};
use fdi_telemetry::{validate_chrome_trace, MetricsRegistry, RingSink};
use std::sync::Arc;

fn decisions_at(src: &str, threshold: usize) -> Vec<DecisionRecord> {
    let out = optimize(src, &PipelineConfig::with_threshold(threshold)).expect("pipeline");
    assert!(!out.health.degraded(), "{}", out.health.summary());
    out.decisions
}

fn with_reason(
    decisions: &[DecisionRecord],
    matches: impl Fn(&DecisionReason) -> bool,
) -> Vec<&DecisionRecord> {
    decisions.iter().filter(|d| matches(&d.reason)).collect()
}

#[test]
fn non_unique_closure_is_recorded_once() {
    // One call site, two lambdas flowing to the operator: Condition 1 fails.
    let decisions = decisions_at("((if (> 1 0) (lambda (x) x) (lambda (y) (+ y 1))) 5)", 200);
    let hits = with_reason(&decisions, |r| *r == DecisionReason::NonUniqueClosure);
    assert_eq!(hits.len(), 1, "{decisions:?}");
    assert_eq!(hits[0].verdict, Verdict::Rejected);
    assert_eq!(
        decisions.len(),
        1,
        "no other candidate expected: {decisions:?}"
    );
}

#[test]
fn threshold_exceeded_is_recorded_once_with_sizes() {
    // A single site whose specialized body (measured 19 nodes) cannot fit a
    // threshold of 5.
    let src = "
        (define (poly x)
          (+ (* x (* x (* x x)))
             (+ (* 3 (* x x))
                (+ (* 7 x) 11))))
        (poly 2)";
    let decisions = decisions_at(src, 5);
    let hits = with_reason(&decisions, |r| {
        matches!(r, DecisionReason::ThresholdExceeded { .. })
    });
    assert_eq!(hits.len(), 1, "{decisions:?}");
    let DecisionReason::ThresholdExceeded { size, limit } = hits[0].reason else {
        unreachable!()
    };
    assert_eq!(limit, 5);
    assert!(size > limit, "measured size {size} must exceed the limit");
    assert_eq!(decisions.len(), 1, "{decisions:?}");
}

#[test]
fn open_procedure_is_recorded_once_with_free_vars() {
    // `(make-adder 3)` inlines; the escaping closure it returns is open
    // over `n`, so the application site fails Condition 2.
    let src = "(define (make-adder n) (lambda (x) (+ x n))) ((make-adder 3) 4)";
    let decisions = decisions_at(src, 200);
    let hits = with_reason(&decisions, |r| {
        matches!(r, DecisionReason::OpenProcedure { .. })
    });
    assert_eq!(hits.len(), 1, "{decisions:?}");
    assert_eq!(
        hits[0].reason,
        DecisionReason::OpenProcedure { free_vars: 1 }
    );
    // The wrapper call itself still inlines.
    assert_eq!(
        with_reason(&decisions, |r| matches!(r, DecisionReason::Inlined { .. })).len(),
        1,
        "{decisions:?}"
    );
}

#[test]
fn loop_guard_is_recorded_once() {
    // The letrec self-call ties the back-edge after the one free unfolding;
    // the external call site is deliberately non-unique so only a single
    // unfolding path reaches the loop map.
    let src = "
        (letrec ((go (lambda (i) (if (> i 3) i (go (+ i 1))))))
          ((if (> 1 0) go (lambda (z) z)) 0))";
    let decisions = decisions_at(src, 200);
    let hits = with_reason(&decisions, |r| *r == DecisionReason::LoopGuard);
    assert_eq!(hits.len(), 1, "{decisions:?}");
    assert_eq!(hits[0].callee, "go");
    assert_eq!(
        with_reason(&decisions, |r| *r == DecisionReason::NonUniqueClosure).len(),
        1,
        "{decisions:?}"
    );
}

#[test]
fn budget_denied_is_recorded_once_at_the_depth_limit() {
    // A 65-deep chain of single-call wrappers: at a threshold large enough
    // that size never trips, the inliner's recursion-depth budget (64) is
    // the only limit, and exactly one chain walk crosses it.
    let n = 65;
    let mut src = String::new();
    for i in (0..n).rev() {
        let body = if i < n - 1 {
            format!("(f{} (+ x 1))", i + 1)
        } else {
            "(+ x 1)".to_string()
        };
        src.push_str(&format!("(define (f{i} x) {body})\n"));
    }
    src.push_str("(f0 0)\n");
    let decisions = decisions_at(&src, 100_000);
    let hits = with_reason(&decisions, |r| *r == DecisionReason::BudgetDenied);
    assert_eq!(hits.len(), 1, "{} decisions", decisions.len());
    assert_eq!(hits[0].verdict, Verdict::Rejected);
}

#[test]
fn every_decision_pairs_verdict_with_reason() {
    let src = "
        (define (make-adder n) (lambda (x) (+ x n)))
        (define (sq x) (* x x))
        (+ ((make-adder 3) 4) (sq 7))";
    for d in decisions_at(src, 200) {
        assert_eq!(d.verdict, d.reason.verdict(), "{d}");
        assert!(!d.site_label.is_empty() && !d.callee.is_empty(), "{d}");
    }
}

/// Telemetry observes, it never steers: the same program optimized with
/// the disabled handle and with a live ring collector must print
/// byte-identical programs and identical decision streams.
#[test]
fn collector_on_and_off_outputs_are_byte_identical() {
    let sources = [
        "(define (sq x) (* x x)) (sq 7)",
        "(define (make-adder n) (lambda (x) (+ x n))) ((make-adder 3) 4)",
        "(letrec ((go (lambda (i) (if (> i 3) i (go (+ i 1)))))) (go 0))",
        "(define m '((1 2) (3 4))) (map car m)",
    ];
    for src in sources {
        let config = PipelineConfig::with_threshold(200);
        let off = optimize(src, &config).expect("collector-off pipeline");
        let sink = Arc::new(RingSink::default());
        let telemetry = Telemetry::with_collector(sink.clone());
        let on = run(&Request {
            telemetry,
            ..Request::source(src, config)
        })
        .expect("collector-on pipeline");
        assert!(!sink.is_empty(), "collector saw no events for {src:?}");
        assert_eq!(
            fdi_sexpr::pretty(&fdi_lang::unparse(&off.optimized)),
            fdi_sexpr::pretty(&fdi_lang::unparse(&on.optimized)),
            "{src:?}"
        );
        assert_eq!(off.decisions, on.decisions, "{src:?}");
        assert_eq!(off.report.sites_inlined, on.report.sites_inlined);
        assert_eq!(off.fuel_used, on.fuel_used);
    }
}

/// The exported Chrome trace of a full pipeline run passes the structural
/// validator and carries the expected span names and decision instants.
#[test]
fn pipeline_chrome_trace_validates() {
    let sink = Arc::new(RingSink::default());
    let telemetry = Telemetry::with_collector(sink.clone());
    let out = run(&Request {
        telemetry,
        ..Request::source(
            "(define (sq x) (* x x)) (sq 7)",
            PipelineConfig::with_threshold(200),
        )
    })
    .expect("pipeline");
    assert_eq!(out.decisions.len(), 1);

    let trace = fdi_telemetry::chrome_trace(&sink.drain());
    let summary = validate_chrome_trace(&trace).expect("trace validates");
    assert!(summary.spans >= 5, "{summary:?}"); // pipeline + frontend + passes
    assert_eq!(summary.decisions, 1, "{summary:?}");
    assert!(summary.max_depth >= 2, "{summary:?}");
    for name in [
        "\"pipeline\"",
        "\"frontend\"",
        "\"analyze\"",
        "\"inline\"",
        "\"simplify\"",
    ] {
        assert!(trace.contains(name), "missing {name} in trace");
    }
    assert!(
        trace.contains("\"decision:inlined\""),
        "decision instant missing"
    );
}

/// The engine records decision totals from every job into its stats.
#[test]
fn engine_stats_aggregate_decisions() {
    let engine = fdi_engine::Engine::with_jobs(2);
    let config = PipelineConfig::with_threshold(200);
    let h1 = engine.submit(fdi_engine::Job::new(
        "(define (sq x) (* x x)) (sq 7)",
        config,
    ));
    let h2 = engine.submit(fdi_engine::Job::new(
        "(define (make-adder n) (lambda (x) (+ x n))) ((make-adder 3) 4)",
        config,
    ));
    h1.wait().expect("job 1");
    h2.wait().expect("job 2");
    let stats = engine.stats();
    assert_eq!(stats.decisions.inlined(), 2);
    assert_eq!(stats.decisions.get("open_procedure"), 1);
    assert!(stats
        .json()
        .to_string()
        .contains("\"telemetry\":{\"decisions\":{\"inlined\":2,"));
}

/// A metrics registry reads the CFA's sampled counters as their latest
/// value: after one analysis of `lattice`, `cfa.steps` and `cfa.contours`
/// are that analysis's totals, not the sum of every sample on the way. The
/// engine's registry sees the analysis it shares between jobs the same way,
/// with one `cfa.solve` span per analysis it computed.
#[test]
fn registry_reads_cfa_samples_as_the_final_value() {
    let bench = fdi_benchsuite::BENCHMARKS
        .iter()
        .find(|b| b.name == "lattice")
        .expect("lattice benchmark");
    let src = bench.scaled(bench.test_scale);
    let registry = Arc::new(MetricsRegistry::new());
    let request = Request {
        telemetry: Telemetry::with_collector(registry.clone()),
        ..Request::source(&src, PipelineConfig::with_threshold(200))
    };
    let out = run(&request).expect("pipeline");
    let stats = &out.flow_stats;
    assert!(stats.steps > 1024, "more than one sample was taken");
    assert_eq!(registry.gauge("cfa.steps"), Some(stats.steps as f64));
    assert_eq!(registry.gauge("cfa.contours"), Some(stats.contours as f64));

    let engine = Engine::new(EngineConfig::default());
    let jobs = [0, 200].map(|t| Job::new(src.as_str(), PipelineConfig::with_threshold(t)));
    for out in engine.run_batch(jobs) {
        let flow = &out.expect("job").flow_stats;
        assert_eq!((flow.steps, flow.contours), (stats.steps, stats.contours));
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.gauge("cfa.steps"), Some(stats.steps as f64));
    assert_eq!(metrics.gauge("cfa.contours"), Some(stats.contours as f64));
    let solves = metrics
        .json()
        .get("histograms")
        .and_then(|h| h.get("cfa.solve"))
        .and_then(|h| h.get("count"))
        .and_then(|n| n.as_num());
    let misses = engine.stats().analysis_misses;
    assert_eq!(misses, 1, "the two jobs share one analysis");
    assert_eq!(solves, Some(misses as f64));
}
