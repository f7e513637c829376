//! Structured observability for the flow-directed inlining pipeline.
//!
//! This crate is the telemetry backbone every other layer emits into: a
//! [`Collector`] trait with ring-buffer and JSON-lines sinks, nested spans
//! with monotonic wall-clock timing, typed instants/counters/histograms,
//! per-call-site inlining [`DecisionRecord`]s, and a Chrome Trace Event
//! Format exporter ([`trace::chrome_trace`]) whose output loads in
//! `chrome://tracing` and Perfetto. On top of the event stream sit the live
//! observability pieces: a [`MetricsRegistry`] (windowed counters, gauges,
//! fixed-bucket duration histograms, JSON and Prometheus text exposition)
//! and a [`FlightRecorder`] (bounded last-N-requests ring with optional disk
//! write-through for post-mortems), both plain [`Collector`]s that can be
//! [`Fanout`]ed behind one handle.
//!
//! The design constraint is that telemetry must be *free when off*: a
//! [`Telemetry`] handle is a single `Option<Arc<_>>`, every emission site
//! starts with one branch on it, and no timestamp is read, no string is
//! allocated, and no lock is touched unless a collector is installed. The
//! pipeline's collector-off output is byte-identical to a run without this
//! crate compiled in at all — telemetry observes decisions, it never makes
//! them.
//!
//! # Examples
//!
//! ```
//! use fdi_telemetry::{RingSink, Telemetry, Event};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(RingSink::with_capacity(1024));
//! let tel = Telemetry::with_collector(sink.clone());
//! {
//!     let _span = tel.span("analyze", "pass");
//!     tel.counter("cfa.steps", 42);
//! }
//! let events = sink.snapshot();
//! assert!(matches!(events[0], Event::SpanBegin { .. }));
//! assert!(matches!(events[2], Event::SpanEnd { .. }));
//! ```

mod decision;
pub mod flight;
pub mod json;
pub mod metrics;
mod sink;
pub mod trace;

pub use decision::{DecisionReason, DecisionRecord, DecisionTotals, Verdict, REASON_KEYS};
pub use flight::{FlightEntry, FlightRecorder};
pub use metrics::MetricsRegistry;
pub use sink::{Fanout, JsonLinesSink, RingSink};
pub use trace::{chrome_trace, validate_chrome_trace, TraceSummary};

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One telemetry event. Timestamps are microseconds of monotonic wall clock
/// since the owning [`Telemetry`] handle was created; `tid` is a stable hash
/// of the emitting thread, so engine workers land on separate trace tracks.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened: `id` pairs it with its [`Event::SpanEnd`].
    SpanBegin {
        /// Unique id within the handle, pairing begin with end.
        id: u64,
        /// Span name (pass name, engine stage, …).
        name: String,
        /// Category: `"pass"`, `"engine"`, `"frontend"`, …
        cat: &'static str,
        /// Microseconds since the handle's origin.
        ts_us: u64,
        /// Emitting-thread hash.
        tid: u64,
    },
    /// A span closed.
    SpanEnd {
        /// The paired [`Event::SpanBegin`]'s id.
        id: u64,
        /// Span name (duplicated so sinks need no begin-lookup).
        name: String,
        /// Microseconds since the handle's origin.
        ts_us: u64,
        /// Emitting-thread hash.
        tid: u64,
    },
    /// A point-in-time marker with string arguments.
    Instant {
        /// Marker name (`"cache.parse"`, `"retry"`, `"oracle"`, …).
        name: String,
        /// Category.
        cat: &'static str,
        /// Key/value payload rendered into the trace's `args`.
        args: Vec<(String, String)>,
        /// Microseconds since the handle's origin.
        ts_us: u64,
        /// Emitting-thread hash.
        tid: u64,
    },
    /// A sampled counter value.
    Counter {
        /// Counter name.
        name: String,
        /// Sampled value.
        value: u64,
        /// Microseconds since the handle's origin.
        ts_us: u64,
        /// Emitting-thread hash.
        tid: u64,
    },
    /// A labelled-bucket histogram snapshot.
    Histogram {
        /// Histogram name.
        name: String,
        /// `(bucket label, count)` pairs, in bucket order.
        buckets: Vec<(String, u64)>,
        /// Microseconds since the handle's origin.
        ts_us: u64,
        /// Emitting-thread hash.
        tid: u64,
    },
    /// One per-call-site inlining decision (provenance).
    Decision {
        /// The decision.
        record: DecisionRecord,
        /// Microseconds since the handle's origin.
        ts_us: u64,
        /// Emitting-thread hash.
        tid: u64,
    },
}

impl Event {
    /// The event's timestamp in microseconds since the handle's origin.
    pub fn ts_us(&self) -> u64 {
        match self {
            Event::SpanBegin { ts_us, .. }
            | Event::SpanEnd { ts_us, .. }
            | Event::Instant { ts_us, .. }
            | Event::Counter { ts_us, .. }
            | Event::Histogram { ts_us, .. }
            | Event::Decision { ts_us, .. } => *ts_us,
        }
    }

    /// The emitting thread's hash (the trace track).
    pub fn tid(&self) -> u64 {
        match self {
            Event::SpanBegin { tid, .. }
            | Event::SpanEnd { tid, .. }
            | Event::Instant { tid, .. }
            | Event::Counter { tid, .. }
            | Event::Histogram { tid, .. }
            | Event::Decision { tid, .. } => *tid,
        }
    }
}

/// A telemetry event consumer. Implementations must be thread-safe: the
/// engine's workers emit concurrently into one collector.
pub trait Collector: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: Event);
}

struct TelemetryInner {
    collector: Arc<dyn Collector>,
    origin: Instant,
    /// Shared with every [`Telemetry::tee`] of the handle, so span ids
    /// stay unique across all of them.
    next_span: Arc<AtomicU64>,
}

/// A cheap, cloneable handle to a collector — or to nothing.
///
/// [`Telemetry::off`] (also `Default`) is the no-op handle: every emission
/// method returns after one branch. Clone the handle freely; all clones
/// share the collector, the monotonic origin, and the span-id counter.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Stable hash of the current thread's id, used as the trace track id.
fn current_tid() -> u64 {
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

impl Telemetry {
    /// The disabled handle: all emissions are no-ops.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle feeding `collector`; timestamps are relative to now.
    pub fn with_collector(collector: Arc<dyn Collector>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                collector,
                origin: Instant::now(),
                next_span: Arc::new(AtomicU64::new(1)),
            })),
        }
    }

    /// A handle feeding `extra` as well as this handle's collector, if any,
    /// on the same clock and span-id sequence. This is how an owner adds a
    /// collector of its own (the engine's metrics registry) to whatever
    /// handle its caller passed in.
    pub fn tee(&self, extra: Arc<dyn Collector>) -> Telemetry {
        let Some(inner) = &self.inner else {
            return Telemetry::with_collector(extra);
        };
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                collector: Arc::new(Fanout::new(vec![inner.collector.clone(), extra])),
                origin: inner.origin,
                next_span: inner.next_span.clone(),
            })),
        }
    }

    /// Is a collector installed?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this handle's origin (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.origin.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.collector.record(event);
        }
    }

    /// Opens a span; the returned guard closes it on drop. Free when off.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str, cat: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { tel: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let tid = current_tid();
        inner.collector.record(Event::SpanBegin {
            id,
            name: name.to_string(),
            cat,
            ts_us: inner.origin.elapsed().as_micros() as u64,
            tid,
        });
        SpanGuard {
            tel: Some((self.clone(), id, name.to_string(), tid)),
        }
    }

    /// Emits a point-in-time marker with arguments.
    pub fn instant(&self, name: &str, cat: &'static str, args: &[(&str, String)]) {
        if self.inner.is_none() {
            return;
        }
        self.emit(Event::Instant {
            name: name.to_string(),
            cat,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            ts_us: self.now_us(),
            tid: current_tid(),
        });
    }

    /// Emits a sampled counter value.
    pub fn counter(&self, name: &str, value: u64) {
        if self.inner.is_none() {
            return;
        }
        self.emit(Event::Counter {
            name: name.to_string(),
            value,
            ts_us: self.now_us(),
            tid: current_tid(),
        });
    }

    /// Emits a labelled-bucket histogram snapshot.
    pub fn histogram(&self, name: &str, buckets: &[(&str, u64)]) {
        if self.inner.is_none() {
            return;
        }
        self.emit(Event::Histogram {
            name: name.to_string(),
            buckets: buckets
                .iter()
                .map(|&(label, n)| (label.to_string(), n))
                .collect(),
            ts_us: self.now_us(),
            tid: current_tid(),
        });
    }

    /// Emits one inlining decision record.
    pub fn decision(&self, record: &DecisionRecord) {
        if self.inner.is_none() {
            return;
        }
        self.emit(Event::Decision {
            record: record.clone(),
            ts_us: self.now_us(),
            tid: current_tid(),
        });
    }
}

/// Closes its span on drop. Obtained from [`Telemetry::span`].
pub struct SpanGuard {
    tel: Option<(Telemetry, u64, String, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tel, id, name, tid)) = self.tel.take() {
            tel.emit(Event::SpanEnd {
                id,
                name,
                ts_us: tel.now_us(),
                tid,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::off();
        assert!(!tel.enabled());
        let _s = tel.span("x", "t");
        tel.counter("c", 1);
        tel.instant("i", "t", &[("k", "v".to_string())]);
        assert_eq!(tel.now_us(), 0);
    }

    #[test]
    fn spans_nest_and_pair_by_id() {
        let sink = Arc::new(RingSink::with_capacity(64));
        let tel = Telemetry::with_collector(sink.clone());
        {
            let _outer = tel.span("outer", "t");
            let _inner = tel.span("inner", "t");
        }
        let ev = sink.snapshot();
        assert_eq!(ev.len(), 4);
        let (Event::SpanBegin { id: o, .. }, Event::SpanBegin { id: i, .. }) = (&ev[0], &ev[1])
        else {
            panic!("expected two begins, got {ev:?}");
        };
        // Inner closes before outer.
        assert!(matches!(&ev[2], Event::SpanEnd { id, name, .. } if id == i && name == "inner"));
        assert!(matches!(&ev[3], Event::SpanEnd { id, name, .. } if id == o && name == "outer"));
    }

    #[test]
    fn tee_feeds_both_collectors_on_one_clock_and_id_sequence() {
        let caller = Arc::new(RingSink::with_capacity(64));
        let owner = Arc::new(RingSink::with_capacity(64));
        let tel = Telemetry::with_collector(caller.clone());
        let teed = tel.tee(owner.clone());
        drop(tel.span("outer", "t"));
        drop(teed.span("inner", "t"));
        assert_eq!(caller.len(), 4, "the caller sees both handles' events");
        assert_eq!(owner.len(), 2, "the owner sees the teed handle's only");
        let ids: Vec<u64> = caller
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                Event::SpanBegin { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [1, 2], "span ids never collide across tees");
        assert!(Telemetry::off().tee(owner.clone()).enabled());
    }

    #[test]
    fn timestamps_are_monotonic_within_a_thread() {
        let sink = Arc::new(RingSink::with_capacity(64));
        let tel = Telemetry::with_collector(sink.clone());
        for i in 0..10 {
            tel.counter("c", i);
        }
        let ts: Vec<u64> = sink.snapshot().iter().map(Event::ts_us).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn collectors_accept_concurrent_emitters() {
        let sink = Arc::new(RingSink::with_capacity(4096));
        let tel = Telemetry::with_collector(sink.clone());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tel = tel.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let _s = tel.span("work", "t");
                        tel.counter("n", i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.snapshot().len(), 4 * 100 * 3);
    }
}
