//! A metrics registry: counters, gauges, and fixed-bucket histograms with
//! sliding time-window aggregation.
//!
//! [`MetricsRegistry`] is a [`Collector`]: install it on a [`crate::Telemetry`]
//! handle (alone, fanned out with [`crate::Fanout`], or added with
//! [`crate::Telemetry::tee`]) and every instant, counter, histogram, and
//! decision already emitted by the pipeline lands in the registry for free.
//! Instants become windowed event counters (a `hit`/`miss` argument splits
//! the name into `.hit`/`.miss` series). A counter event is a *sample* of a
//! value its emitter keeps (the CFA's running step count, say), so it sets
//! a gauge to the latest sample; it is never summed. Span begin/end pairs
//! feed per-span duration histograms in microseconds, and decision records
//! tally into a [`DecisionTotals`].
//!
//! Owners also write directly: [`MetricsRegistry::add`] bumps a counter
//! (the batch engine records every count it keeps this way, into the one
//! registry it owns), and [`MetricsRegistry::set_gauge`] records a level
//! measured elsewhere (the serve daemon sets its footprint gauges before
//! every scrape).
//!
//! Windowing: each counter and histogram keeps, next to its cumulative
//! total, a ring of [`WINDOW_SLOTS`] buckets of [`WINDOW_SLOT_SECS`] seconds
//! of monotonic clock. Slots are stamped with their absolute index and
//! lazily reset on reuse, so an idle series costs nothing to age out. The
//! exported `1m`/`5m` figures sum the last 12 / 60 whole slots.
//!
//! Exposition is dual: [`MetricsRegistry::json`] builds one JSON document
//! (the `{"op":"metrics"}` payload) for the crate's [`Json`] writer, and
//! [`MetricsRegistry::to_prometheus_text`] renders the Prometheus text
//! exposition format — hand-rolled and std-only.
//!
//! The registry self-accounts: [`MetricsRegistry::overhead`] reports how
//! many events it absorbed and the cumulative wall time spent in
//! [`Collector::record`], which the daemon surfaces as its telemetry
//! overhead estimate in `{"op":"health"}`.

use crate::json::Json;
use crate::{Collector, DecisionTotals, Event};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Seconds of monotonic clock per window slot.
pub const WINDOW_SLOT_SECS: u64 = 5;
/// Slots in the ring; must cover the widest exported window (5 m = 60).
pub const WINDOW_SLOTS: usize = 64;
/// Whole slots summed for the 1-minute window.
const SLOTS_1M: u64 = 12;
/// Whole slots summed for the 5-minute window.
const SLOTS_5M: u64 = 60;

/// Histogram bucket upper bounds, in microseconds. The `+Inf` bucket is
/// implicit (one extra count slot past the last bound).
pub const DURATION_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
const NBUCKETS: usize = DURATION_BUCKETS_US.len() + 1;

/// A cumulative total plus a slot ring for windowed readings.
#[derive(Debug, Clone)]
struct Windowed {
    total: u64,
    /// `(absolute slot index, count)`; a stale stamp means the slot is free.
    ring: [(u64, u64); WINDOW_SLOTS],
}

impl Windowed {
    fn new() -> Windowed {
        Windowed {
            total: 0,
            ring: [(u64::MAX, 0); WINDOW_SLOTS],
        }
    }

    fn add(&mut self, n: u64, slot: u64) {
        self.total += n;
        let cell = &mut self.ring[(slot % WINDOW_SLOTS as u64) as usize];
        if cell.0 != slot {
            *cell = (slot, 0);
        }
        cell.1 += n;
    }

    /// Sum of the last `slots` whole slots, the current one included.
    fn window(&self, slots: u64, now_slot: u64) -> u64 {
        let oldest = now_slot.saturating_sub(slots.saturating_sub(1));
        self.ring
            .iter()
            .filter(|(stamp, _)| *stamp >= oldest && *stamp <= now_slot)
            .map(|(_, n)| n)
            .sum()
    }
}

/// One span-duration histogram: fixed µs buckets, windowed count and sum.
#[derive(Debug, Clone)]
struct Histo {
    buckets: [u64; NBUCKETS],
    sum_us: u64,
    count: Windowed,
    sum_ring: Windowed,
}

impl Histo {
    fn new() -> Histo {
        Histo {
            buckets: [0; NBUCKETS],
            sum_us: 0,
            count: Windowed::new(),
            sum_ring: Windowed::new(),
        }
    }

    fn observe(&mut self, us: u64, slot: u64) {
        let i = DURATION_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NBUCKETS - 1);
        self.buckets[i] += 1;
        self.sum_us += us;
        self.count.add(1, slot);
        self.sum_ring.add(us, slot);
    }
}

#[derive(Default)]
struct RegistryState {
    counters: BTreeMap<String, Windowed>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histo>,
    /// Labelled-bucket snapshots (e.g. `cfa.valset_sizes`), merged by label.
    labelled: BTreeMap<String, BTreeMap<String, u64>>,
    decisions: DecisionTotals,
    /// Open span begins, id → ts_us, so an end can compute its duration.
    open_spans: HashMap<u64, u64>,
}

/// The registry. Cheap to share behind an `Arc`; all methods take `&self`.
pub struct MetricsRegistry {
    started: Instant,
    state: Mutex<RegistryState>,
    events: AtomicU64,
    record_ns: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry; its window clock starts now.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            started: Instant::now(),
            state: Mutex::new(RegistryState::default()),
            events: AtomicU64::new(0),
            record_ns: AtomicU64::new(0),
        }
    }

    fn now_slot(&self) -> u64 {
        self.started.elapsed().as_secs() / WINDOW_SLOT_SECS
    }

    /// Adds `n` to the windowed counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.add_at(name, n, self.now_slot());
    }

    fn add_at(&self, name: &str, n: u64, slot: u64) {
        counter(&mut self.state.lock().unwrap().counters, name).add(n, slot);
    }

    /// Sets the gauge `name` to `value`, creating it on first use.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.state
            .lock()
            .unwrap()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Feeds one duration observation into the histogram `name`.
    pub fn observe_us(&self, name: &str, us: u64) {
        self.observe_at(name, us, self.now_slot());
    }

    fn observe_at(&self, name: &str, us: u64, slot: u64) {
        let mut state = self.state.lock().unwrap();
        state
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histo::new)
            .observe(us, slot);
    }

    /// `(events absorbed, nanoseconds spent in record)` — the registry's own
    /// cost, for the daemon's telemetry overhead estimate.
    pub fn overhead(&self) -> (u64, u64) {
        (self.events.load(Relaxed), self.record_ns.load(Relaxed))
    }

    /// The cumulative total of counter `name` (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.state
            .lock()
            .unwrap()
            .counters
            .get(name)
            .map_or(0, |w| w.total)
    }

    /// The current value of gauge `name`, if it was ever set or sampled.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.state.lock().unwrap().gauges.get(name).copied()
    }

    /// Every inline decision absorbed so far, by reason.
    pub fn decisions(&self) -> DecisionTotals {
        self.state.lock().unwrap().decisions
    }

    /// The whole registry as one JSON document.
    pub fn json(&self) -> Json {
        let now_slot = self.now_slot();
        let state = self.state.lock().unwrap();
        let (events, ns) = self.overhead();
        let windows = |count: &Windowed, sum: Option<&Windowed>| {
            [("w1m", SLOTS_1M), ("w5m", SLOTS_5M)].map(|(key, slots)| {
                let count = count.window(slots, now_slot).into();
                let value = match sum {
                    None => count,
                    Some(sum) => Json::obj([
                        ("count", count),
                        ("sum_us", sum.window(slots, now_slot).into()),
                    ]),
                };
                (key, value)
            })
        };
        let counters = state.counters.iter().map(|(name, w)| {
            let total = [("total", w.total.into())];
            (
                name.as_str(),
                Json::obj(total.into_iter().chain(windows(w, None))),
            )
        });
        let histograms = state.histograms.iter().map(|(name, h)| {
            let fixed = [
                (
                    "bounds_us",
                    Json::Arr(DURATION_BUCKETS_US.map(Json::from).to_vec()),
                ),
                ("counts", Json::Arr(h.buckets.map(Json::from).to_vec())),
                ("sum_us", h.sum_us.into()),
                ("count", h.count.total.into()),
            ];
            let windowed = windows(&h.count, Some(&h.sum_ring));
            (name.as_str(), Json::obj(fixed.into_iter().chain(windowed)))
        });
        let labelled = state.labelled.iter().map(|(name, buckets)| {
            let pairs = buckets.iter().map(|(label, &n)| (label.as_str(), n.into()));
            (name.as_str(), Json::obj(pairs))
        });
        Json::obj([
            ("uptime_s", self.started.elapsed().as_secs().into()),
            ("window_slot_secs", WINDOW_SLOT_SECS.into()),
            (
                "overhead",
                Json::obj([
                    ("events", events.into()),
                    ("record_us", (ns / 1_000).into()),
                ]),
            ),
            ("counters", Json::obj(counters)),
            (
                "gauges",
                Json::obj(state.gauges.iter().map(|(n, &v)| (n.as_str(), v.into()))),
            ),
            ("histograms", Json::obj(histograms)),
            ("labelled", Json::obj(labelled)),
            ("decisions", state.decisions.json()),
        ])
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Counters become `fdi_<name>_total` (with `_1m`/`_5m` gauges for the
    /// windows), gauges become `fdi_<name>`, span histograms become one
    /// `fdi_span_duration_us` family labelled by span with cumulative `le`
    /// buckets, and decision totals become `fdi_inline_decisions_total`
    /// labelled by reason.
    pub fn to_prometheus_text(&self) -> String {
        let now_slot = self.now_slot();
        let state = self.state.lock().unwrap();
        let mut out = String::with_capacity(2048);
        for (name, w) in &state.counters {
            let m = sanitize(name);
            out.push_str(&format!(
                "# TYPE fdi_{m}_total counter\nfdi_{m}_total {}\n",
                w.total
            ));
            out.push_str(&format!(
                "# TYPE fdi_{m}_1m gauge\nfdi_{m}_1m {}\n",
                w.window(SLOTS_1M, now_slot)
            ));
            out.push_str(&format!(
                "# TYPE fdi_{m}_5m gauge\nfdi_{m}_5m {}\n",
                w.window(SLOTS_5M, now_slot)
            ));
        }
        for (name, v) in &state.gauges {
            let m = sanitize(name);
            out.push_str(&format!("# TYPE fdi_{m} gauge\nfdi_{m} {}\n", fmt_f64(*v)));
        }
        if !state.histograms.is_empty() {
            out.push_str("# TYPE fdi_span_duration_us histogram\n");
            for (name, h) in &state.histograms {
                let span = sanitize(name);
                let mut cumulative = 0u64;
                for (i, count) in h.buckets.iter().enumerate() {
                    cumulative += count;
                    let le = match DURATION_BUCKETS_US.get(i) {
                        Some(b) => b.to_string(),
                        None => "+Inf".to_string(),
                    };
                    out.push_str(&format!(
                        "fdi_span_duration_us_bucket{{span=\"{span}\",le=\"{le}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "fdi_span_duration_us_sum{{span=\"{span}\"}} {}\n",
                    h.sum_us
                ));
                out.push_str(&format!(
                    "fdi_span_duration_us_count{{span=\"{span}\"}} {}\n",
                    h.count.total
                ));
            }
        }
        if state.decisions.total() > 0 {
            out.push_str("# TYPE fdi_inline_decisions_total counter\n");
            for (key, n) in state.decisions.iter() {
                out.push_str(&format!(
                    "fdi_inline_decisions_total{{reason=\"{}\"}} {n}\n",
                    sanitize(key)
                ));
            }
        }
        let (events, ns) = self.overhead();
        out.push_str(&format!(
            "# TYPE fdi_telemetry_events_total counter\nfdi_telemetry_events_total {events}\n"
        ));
        out.push_str(&format!(
            "# TYPE fdi_telemetry_record_us_total counter\nfdi_telemetry_record_us_total {}\n",
            ns / 1_000
        ));
        out
    }

    fn absorb(&self, event: Event, slot: u64) {
        let mut state = self.state.lock().unwrap();
        match event {
            Event::SpanBegin { id, ts_us, .. } => {
                state.open_spans.insert(id, ts_us);
            }
            Event::SpanEnd {
                id, name, ts_us, ..
            } => {
                if let Some(begin) = state.open_spans.remove(&id) {
                    state
                        .histograms
                        .entry(name)
                        .or_insert_with(Histo::new)
                        .observe(ts_us.saturating_sub(begin), slot);
                }
            }
            Event::Instant { name, args, .. } => {
                // A hit/miss argument splits the series; anything else (error
                // strings, paths) stays out of the name to bound cardinality.
                let series = match args.iter().find(|(k, _)| k == "hit") {
                    Some((_, v)) if v == "true" => format!("{name}.hit"),
                    Some(_) => format!("{name}.miss"),
                    None => name,
                };
                counter(&mut state.counters, &series).add(1, slot);
            }
            Event::Counter { name, value, .. } => {
                state.gauges.insert(name, value as f64);
            }
            Event::Histogram { name, buckets, .. } => {
                let merged = state.labelled.entry(name).or_default();
                for (label, n) in buckets {
                    *merged.entry(label).or_insert(0) += n;
                }
            }
            Event::Decision { record, .. } => {
                state.decisions.record(&record.reason);
            }
        }
    }
}

impl Collector for MetricsRegistry {
    fn record(&self, event: Event) {
        let start = Instant::now();
        self.absorb(event, self.now_slot());
        self.events.fetch_add(1, Relaxed);
        self.record_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }
}

/// The counter `name`, created empty on first use. Looks up by `&str` so
/// the common case (the series exists) allocates nothing.
fn counter<'a>(counters: &'a mut BTreeMap<String, Windowed>, name: &str) -> &'a mut Windowed {
    if !counters.contains_key(name) {
        counters.insert(name.to_string(), Windowed::new());
    }
    counters.get_mut(name).expect("inserted above")
}

/// A metric-name-safe rendering: every byte outside `[a-zA-Z0-9_]` → `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders a gauge value for the Prometheus text: shortest round-trip,
/// integral values without a fraction, non-finite as 0.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecisionReason, DecisionRecord};

    fn instant(name: &str, args: &[(&str, &str)]) -> Event {
        Event::Instant {
            name: name.to_string(),
            cat: "t",
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            ts_us: 0,
            tid: 1,
        }
    }

    #[test]
    fn instants_become_windowed_counters_with_hit_miss_split() {
        let reg = MetricsRegistry::new();
        reg.record(instant("cache.parse", &[("hit", "true")]));
        reg.record(instant("cache.parse", &[("hit", "true")]));
        reg.record(instant("cache.parse", &[("hit", "false")]));
        reg.record(instant("job.retry", &[("error", "boom")]));
        assert_eq!(reg.counter_total("cache.parse.hit"), 2);
        assert_eq!(reg.counter_total("cache.parse.miss"), 1);
        assert_eq!(reg.counter_total("job.retry"), 1);
        assert_eq!(reg.counter_total("absent"), 0);
        let (events, _) = reg.overhead();
        assert_eq!(events, 4);
    }

    #[test]
    fn counter_samples_read_as_their_latest_value() {
        // The CFA samples its running totals every 1024 steps and once at
        // the end; one analysis of `lattice` samples steps 0, 1024 and 1758
        // and contours 1, 39 and 44. The registry must read the final
        // sample, not the sum of all three (2782 steps, 84 contours).
        let reg = MetricsRegistry::new();
        for (steps, contours) in [(0, 1), (1024, 39), (1758, 44)] {
            for (name, value) in [("cfa.steps", steps), ("cfa.contours", contours)] {
                reg.record(Event::Counter {
                    name: name.to_string(),
                    value,
                    ts_us: 0,
                    tid: 1,
                });
            }
        }
        assert_eq!(reg.gauge("cfa.steps"), Some(1758.0));
        assert_eq!(reg.gauge("cfa.contours"), Some(44.0));
        assert_eq!(reg.counter_total("cfa.steps"), 0, "samples never sum");
        let text = reg.to_prometheus_text();
        assert!(text.contains("# TYPE fdi_cfa_steps gauge\nfdi_cfa_steps 1758\n"));
    }

    #[test]
    fn window_ages_out_old_slots() {
        let mut w = Windowed::new();
        w.add(5, 0);
        assert_eq!(w.window(SLOTS_1M, 0), 5);
        // Eleven slots later the event is still inside the 1m window…
        assert_eq!(w.window(SLOTS_1M, 11), 5);
        // …one more and it ages out of 1m but stays in 5m…
        assert_eq!(w.window(SLOTS_1M, 12), 0);
        assert_eq!(w.window(SLOTS_5M, 12), 5);
        // …and far past 5m it is gone from every window but the total.
        assert_eq!(w.window(SLOTS_5M, 60), 0);
        assert_eq!(w.total, 5);
        // Ring reuse after a full wrap does not resurrect the old slot.
        w.add(1, WINDOW_SLOTS as u64);
        assert_eq!(w.window(1, WINDOW_SLOTS as u64), 1);
        assert_eq!(w.total, 6);
    }

    #[test]
    fn spans_feed_duration_histograms() {
        let reg = MetricsRegistry::new();
        reg.record(Event::SpanBegin {
            id: 7,
            name: "job".to_string(),
            cat: "engine",
            ts_us: 100,
            tid: 1,
        });
        reg.record(Event::SpanEnd {
            id: 7,
            name: "job".to_string(),
            ts_us: 600,
            tid: 1,
        });
        let json = reg.json().to_string();
        let doc = crate::json::parse(&json).expect("registry JSON parses");
        let job = doc
            .get("histograms")
            .and_then(|h| h.get("job"))
            .expect("job histogram");
        assert_eq!(job.get("count").and_then(|n| n.as_num()), Some(1.0));
        assert_eq!(job.get("sum_us").and_then(|n| n.as_num()), Some(500.0));
        let w1m = job.get("w1m").expect("1m window");
        assert_eq!(w1m.get("count").and_then(|n| n.as_num()), Some(1.0));
        // An end without a begin (begin evicted, handle reused) is dropped.
        reg.record(Event::SpanEnd {
            id: 99,
            name: "job".to_string(),
            ts_us: 700,
            tid: 1,
        });
        assert_eq!((reg.overhead().0), 3);
    }

    #[test]
    fn json_is_wellformed_and_carries_windows() {
        let reg = MetricsRegistry::new();
        reg.add("serve.requests", 3);
        reg.set_gauge("inflight", 2.0);
        reg.set_gauge("spec_hit_rate", 0.75);
        reg.observe_us("request", 1234);
        reg.record(Event::Decision {
            record: DecisionRecord {
                site_label: "l1".to_string(),
                contour: "·".to_string(),
                callee: "f".to_string(),
                verdict: DecisionReason::LoopGuard.verdict(),
                reason: DecisionReason::LoopGuard,
            },
            ts_us: 0,
            tid: 1,
        });
        let doc = crate::json::parse(&reg.json().to_string()).expect("parses");
        let counters = doc.get("counters").expect("counters");
        let sr = counters.get("serve.requests").expect("series");
        assert_eq!(sr.get("total").and_then(|n| n.as_num()), Some(3.0));
        assert_eq!(sr.get("w1m").and_then(|n| n.as_num()), Some(3.0));
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("spec_hit_rate"))
                .and_then(|n| n.as_num()),
            Some(0.75)
        );
        assert_eq!(
            doc.get("decisions")
                .and_then(|d| d.get("loop_guard"))
                .and_then(|n| n.as_num()),
            Some(1.0)
        );
    }

    #[test]
    fn prometheus_text_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.add("cache.parse.hit", 2);
        reg.set_gauge("cache_bytes_used", 4096.0);
        reg.observe_us("job", 50);
        reg.observe_us("job", 2_000_000);
        let text = reg.to_prometheus_text();
        assert!(text.contains("# TYPE fdi_cache_parse_hit_total counter\n"));
        assert!(text.contains("fdi_cache_parse_hit_total 2\n"));
        assert!(text.contains("fdi_cache_bytes_used 4096\n"));
        assert!(text.contains("fdi_span_duration_us_bucket{span=\"job\",le=\"100\"} 1\n"));
        assert!(text.contains("fdi_span_duration_us_bucket{span=\"job\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("fdi_span_duration_us_count{span=\"job\"} 2\n"));
        // Buckets are cumulative: every line's value is ≥ its predecessor's.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("fdi_span_duration_us_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        // Every sample line is `name value` or `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
        }
    }
}
