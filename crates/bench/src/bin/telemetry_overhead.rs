//! Measures what a live telemetry collector costs the pipeline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fdi-bench --bin telemetry_overhead -- \
//!     [--serve] [--reps R] [--assert PCT]
//! ```
//!
//! Optimizes the Table 1 suite twice per repetition — once with the
//! disabled [`Telemetry`] handle, once with a [`RingSink`] collector
//! installed — interleaved, taking the median suite wall over `R`
//! repetitions (default 5). Along the way it asserts the two runs'
//! optimized programs are byte-identical: telemetry observes decisions, it
//! never makes them.
//!
//! `--serve` measures the *daemon's* observability plane instead: the suite
//! runs on the batch engine, once bare and once with `fdi serve`'s exact
//! collector stack installed — a [`MetricsRegistry`] and a
//! [`FlightRecorder`] behind a [`Fanout`] — so the number gates what the
//! always-on metrics/flight plane costs a live daemon, not just what a
//! passive ring buffer costs the pipeline.
//!
//! `--assert PCT` turns the report into a gate: exit non-zero when the
//! collector-on median exceeds the collector-off median by more than `PCT`
//! percent. A small absolute slack (25 ms per suite pass) is added on top
//! so that timer noise on loaded CI hosts cannot fail a suite whose entire
//! wall clock is a few dozen milliseconds.

use fdi_core::{run, PipelineConfig, Request, Telemetry};
use fdi_engine::{Engine, EngineConfig, Job};
use fdi_telemetry::{Fanout, FlightRecorder, MetricsRegistry, RingSink};
use fdi_testutil::timed;
use std::sync::Arc;
use std::time::Duration;

/// Timer-noise floor added to the `--assert` budget.
const SLACK: Duration = Duration::from_millis(25);

fn optimize_suite(
    sources: &[String],
    config: &PipelineConfig,
    telemetry: &Telemetry,
) -> Vec<String> {
    sources
        .iter()
        .map(|src| {
            let request = Request {
                telemetry: telemetry.clone(),
                ..Request::source(src, *config)
            };
            let out = run(&request).expect("suite optimizes");
            fdi_sexpr::pretty(&fdi_lang::unparse(&out.optimized))
        })
        .collect()
}

/// Applies the `--assert PCT` gate (shared by both legs): exits nonzero
/// when `on` exceeds `off` by more than `pct` percent plus [`SLACK`].
fn gate(who: &str, off: Duration, on: Duration, assert_pct: Option<f64>) {
    let overhead_pct = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;
    if let Some(pct) = assert_pct {
        let budget = Duration::from_secs_f64(off.as_secs_f64() * pct / 100.0) + SLACK;
        if on > off + budget {
            eprintln!(
                "{who}: FAIL: collector costs {overhead_pct:.2}% (> {pct}% + {SLACK:?} slack)"
            );
            std::process::exit(1);
        }
        println!("assertion     : within {pct}% (+{SLACK:?} slack) of the no-collector wall");
    }
}

fn median(walls: &mut [Duration]) -> Duration {
    walls.sort();
    walls[walls.len() / 2]
}

/// The `--serve` leg: suite on the batch engine, bare vs the daemon's
/// always-on metrics + flight collector stack. Fresh engines per arm per
/// rep, so every rep pays the full cold compute the collectors must shadow.
fn serve_leg(reps: usize, assert_pct: Option<f64>) {
    let sources: Vec<String> = fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| b.scaled(b.test_scale))
        .collect();
    let config = PipelineConfig::default();
    let run_suite = |engine: &Engine| -> Vec<String> {
        engine
            .run_batch(sources.iter().map(|src| Job::new(src.as_str(), config)))
            .into_iter()
            .map(|r| {
                let out = r.expect("suite optimizes");
                fdi_sexpr::pretty(&fdi_lang::unparse(&out.optimized))
            })
            .collect()
    };
    // Warm-up (allocator, page faults), also the byte-identity reference.
    let reference = run_suite(&Engine::new(EngineConfig::default()));

    let mut off_walls = Vec::with_capacity(reps);
    let mut on_walls = Vec::with_capacity(reps);
    let mut events = 0u64;
    for _ in 0..reps {
        let engine_off = Engine::new(EngineConfig::default());
        let (off_out, off_wall) = timed(|| run_suite(&engine_off));
        let metrics = Arc::new(MetricsRegistry::new());
        let flight = Arc::new(FlightRecorder::with_capacity(64));
        let telemetry =
            Telemetry::with_collector(Arc::new(Fanout::new(vec![metrics.clone(), flight])));
        let engine_on = Engine::with_telemetry(EngineConfig::default(), &telemetry);
        let (on_out, on_wall) = timed(|| run_suite(&engine_on));
        assert_eq!(
            off_out, reference,
            "bare-engine output drifted between reps"
        );
        assert_eq!(
            on_out, reference,
            "metrics-on output differs — the observability plane steered the engine"
        );
        events = metrics.overhead().0;
        off_walls.push(off_wall);
        on_walls.push(on_wall);
    }
    let off = median(&mut off_walls);
    let on = median(&mut on_walls);
    let overhead_pct = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;
    println!(
        "telemetry_overhead --serve: {} benchmarks, median of {} rep(s), \
         {} event(s) per metered suite pass",
        sources.len(),
        reps,
        events
    );
    println!("plane off     : {off:>10.3?}");
    println!("plane on      : {on:>10.3?}  ({overhead_pct:+.2}% wall)");
    println!("outputs       : byte-identical with and without the plane");
    gate("telemetry_overhead --serve", off, on, assert_pct);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let reps: usize = flag("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1);
    let assert_pct: Option<f64> = flag("--assert").and_then(|s| s.parse().ok());
    if args.iter().any(|a| a == "--serve") {
        serve_leg(reps, assert_pct);
        return;
    }

    let sources: Vec<String> = fdi_benchsuite::BENCHMARKS
        .iter()
        .map(|b| b.scaled(b.test_scale))
        .collect();
    let config = PipelineConfig::default();

    // Warm-up pass so first-touch costs (allocator, page faults) don't land
    // on whichever arm happens to run first.
    let reference = optimize_suite(&sources, &config, &Telemetry::off());

    let mut off_walls = Vec::with_capacity(reps);
    let mut on_walls = Vec::with_capacity(reps);
    let mut events = 0usize;
    for _ in 0..reps {
        let (off_out, off_wall) = timed(|| optimize_suite(&sources, &config, &Telemetry::off()));
        let sink = Arc::new(RingSink::default());
        let telemetry = Telemetry::with_collector(sink.clone());
        let (on_out, on_wall) = timed(|| optimize_suite(&sources, &config, &telemetry));
        assert_eq!(
            off_out, reference,
            "collector-off output drifted between reps"
        );
        assert_eq!(
            on_out, reference,
            "collector-on output differs — telemetry steered the pipeline"
        );
        events = sink.len();
        off_walls.push(off_wall);
        on_walls.push(on_wall);
    }
    let off = median(&mut off_walls);
    let on = median(&mut on_walls);
    let overhead_pct = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;

    println!(
        "telemetry_overhead: {} benchmarks, median of {} rep(s), {} event(s) per traced suite pass",
        sources.len(),
        reps,
        events
    );
    println!("collector off : {off:>10.3?}");
    println!("collector on  : {on:>10.3?}  ({overhead_pct:+.2}% wall)");
    println!("outputs       : byte-identical with and without the collector");
    gate("telemetry_overhead", off, on, assert_pct);
}
