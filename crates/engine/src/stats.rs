//! Engine observability: the [`EngineStats`] view of the engine's metrics
//! registry.
//!
//! The engine counts each fact once, into the one [`MetricsRegistry`] it
//! owns: as an instant it emits anyway (the `cache.*` hit/miss instants,
//! which the registry splits into `.hit`/`.miss` series, `job.retry`,
//! `job.poisoned`, `cache.evict`, `cache.corruption_detected`,
//! `profile.stale`, the store write-failure instants), or with
//! [`MetricsRegistry::add`] under an `engine.*` name for facts with no
//! instant of their own. [`from_registry`] reads them back. Decision totals
//! are the registry's tally of the pipeline's decision events. Gauges are
//! not counts: the queue high-water mark, cache and store bytes, the
//! store's GC evictions and the specialization cache's counters are read
//! from their owners when [`crate::Engine::stats`] takes its snapshot.

use fdi_core::PassTrace;
use fdi_telemetry::json::Json;
use fdi_telemetry::{DecisionTotals, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The pipeline passes the engine aggregates across jobs, in trace order.
/// The frontend is deliberately absent: the engine's parse cache makes its
/// cost a cache property (`parse_ns`), not a per-job pass.
pub const TRACKED_PASSES: [&str; 4] = ["baseline", "analyze", "inline", "simplify"];

/// Adds the time since `started` to the nanosecond counter `name`.
pub(crate) fn add_time(metrics: &MetricsRegistry, name: &str, started: Instant) {
    metrics.add(name, started.elapsed().as_nanos() as u64);
}

/// Folds one finished job's per-pass traces into the `engine.pass.*`
/// series. Untracked trace names (a repeated simplify step still reports as
/// `"simplify"`, so in practice only `"frontend"`) are skipped.
pub(crate) fn record_passes(metrics: &MetricsRegistry, traces: &[PassTrace]) {
    for t in traces.iter().filter(|t| TRACKED_PASSES.contains(&t.pass)) {
        let pass = t.pass;
        metrics.add(&format!("engine.pass.{pass}.runs"), t.runs as u64);
        metrics.add(&format!("engine.pass.{pass}.ns"), t.wall.as_nanos() as u64);
        metrics.add(&format!("engine.pass.{pass}.fuel"), t.fuel);
    }
}

/// Jobs queued or executing, and the peak of that depth: a gauge pair,
/// read at snapshot time.
#[derive(Debug, Default)]
pub(crate) struct QueueGauge {
    depth: AtomicU64,
    highwater: AtomicU64,
}

impl QueueGauge {
    /// Records a job entering a queue, maintaining the high-water mark.
    pub(crate) fn enqueue(&self) {
        let depth = self.depth.fetch_add(1, Relaxed) + 1;
        self.highwater.fetch_max(depth, Relaxed);
    }

    /// Records a job leaving a queue (it started executing).
    pub(crate) fn dequeue(&self) {
        self.depth.fetch_sub(1, Relaxed);
    }

    /// The highest depth seen so far.
    pub(crate) fn highwater(&self) -> u64 {
        self.highwater.load(Relaxed)
    }
}

/// The registry-backed counts of an [`EngineStats`]; the gauges are left
/// zero for [`crate::Engine::stats`] to fill from their owners.
pub(crate) fn from_registry(metrics: &MetricsRegistry) -> EngineStats {
    let c = |name: &str| metrics.counter_total(name);
    let pass = |name: &str| PassStat {
        runs: c(&format!("engine.pass.{name}.runs")),
        ns: c(&format!("engine.pass.{name}.ns")),
        fuel: c(&format!("engine.pass.{name}.fuel")),
    };
    EngineStats {
        jobs_submitted: c("engine.jobs_submitted"),
        jobs_deduped: c("engine.jobs_deduped"),
        jobs_completed: c("engine.jobs_completed"),
        jobs_retried: c("job.retry"),
        jobs_quarantined: c("job.poisoned"),
        parse_hits: c("cache.parse.hit"),
        parse_misses: c("cache.parse.miss"),
        analysis_hits: c("cache.analysis.hit"),
        analysis_misses: c("cache.analysis.miss"),
        analysis_uncached: c("engine.analysis_uncached"),
        fingerprints_computed: c("engine.fingerprints_computed"),
        cache_evictions_fault: c("cache.evict"),
        cache_evictions_corruption: c("engine.cache_evictions_corruption"),
        cache_evictions_pressure: c("engine.cache_evictions_pressure"),
        cache_corruptions_detected: c("cache.corruption_detected"),
        exec_hits: c("cache.exec.hit"),
        exec_misses: c("cache.exec.miss"),
        store_hits: c("cache.store.hit"),
        store_misses: c("cache.store.miss"),
        store_corruptions_detected: c("engine.store_corruptions_detected"),
        store_writes: c("engine.store_writes"),
        store_write_failures: c("store.write_torn") + c("store.full") + c("store.write_failed"),
        profile_applied: c("engine.profile_applied"),
        profile_stale: c("profile.stale"),
        workers_respawned: c("engine.workers_respawned"),
        parse_ns: c("engine.parse_ns"),
        analysis_ns: c("engine.analysis_ns"),
        transform_ns: c("engine.transform_ns"),
        execute_ns: c("engine.execute_ns"),
        passes: TRACKED_PASSES.map(pass),
        decisions: metrics.decisions(),
        ..EngineStats::default()
    }
}

/// Engine-wide totals for one pipeline pass, folded from every completed
/// job's [`PassTrace`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Pass applications across all jobs (a `simplify*3` step counts 3).
    pub runs: u64,
    /// Cumulative wall-clock time in the pass, all workers summed.
    pub ns: u64,
    /// Cumulative fuel the pass charged to job budgets.
    pub fuel: u64,
}

/// A point-in-time view of one engine's counts (read from its metrics
/// registry) and resource gauges (read from their owners).
///
/// Cache hits count every job that *reused* an artifact — whether it found
/// the artifact ready or waited on another worker's in-flight computation —
/// so `analysis_misses` is exactly the number of control-flow analyses the
/// engine performed: one per distinct (source, analysis-policy) pair, which
/// is the invariant the warm-cache tests assert.
///
/// The `*_ns` totals are cumulative wall-clock time spent obtaining each
/// artifact across all workers (cache waits included), so they can exceed
/// elapsed wall time under parallelism. `transform_ns` covers the
/// inline + simplify tail; for deadline-bearing jobs that bypass the
/// analysis cache (`analysis_uncached`) it covers the analysis too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs accepted and enqueued (dedup'd jobs excluded).
    pub jobs_submitted: u64,
    /// Jobs coalesced onto an identical in-flight job.
    pub jobs_deduped: u64,
    /// Jobs that finished (degraded runs included — they complete).
    pub jobs_completed: u64,
    /// Supervised retry attempts after a transient failure.
    pub jobs_retried: u64,
    /// Jobs quarantined after exhausting their retries (the poison list).
    pub jobs_quarantined: u64,
    /// Parse artifacts reused.
    pub parse_hits: u64,
    /// Front-end runs performed.
    pub parse_misses: u64,
    /// Flow analyses reused.
    pub analysis_hits: u64,
    /// Flow analyses performed through the cache.
    pub analysis_misses: u64,
    /// Jobs that bypassed the caches (wall-clock deadline or fault plan set).
    pub analysis_uncached: u64,
    /// Cache-key fingerprints computed (source + config hashes). Bypass
    /// jobs skip fingerprinting entirely, so they contribute zero here.
    pub fingerprints_computed: u64,
    /// Evictions from injected `cache-evict` faults.
    pub cache_evictions_fault: u64,
    /// Evictions of entries the fingerprint recheck caught corrupted.
    pub cache_evictions_corruption: u64,
    /// Evictions shedding bytes to fit the `cache_bytes` budget (LRU
    /// order, in-flight entries exempt).
    pub cache_evictions_pressure: u64,
    /// Ready-entry bytes currently held by the in-memory caches (a gauge,
    /// filled at snapshot time; zero when byte accounting is off).
    pub cache_bytes_used: u64,
    /// Corrupted cache artifacts caught by the fingerprint recheck.
    pub cache_corruptions_detected: u64,
    /// Inliner specializations replayed from the shared memo cache (a
    /// gauge filled at snapshot time from the cache's own counters).
    pub spec_hits: u64,
    /// Inliner specializations recorded into the shared memo cache.
    pub spec_misses: u64,
    /// Specialization entries shed — byte pressure, variant-slot reuse,
    /// and the `spec-cache-evict` chaos seam all land here.
    pub spec_evictions: u64,
    /// Memoized sweep-cell executions served without a VM run.
    pub exec_hits: u64,
    /// Sweep-cell executions actually run on the VM through the cache.
    pub exec_misses: u64,
    /// Disk-store artifacts served without recomputation.
    pub store_hits: u64,
    /// Disk-store lookups that found nothing reusable.
    pub store_misses: u64,
    /// Corrupt disk-store frames caught by the checksum recheck on load
    /// (each one evicted, never served).
    pub store_corruptions_detected: u64,
    /// Artifacts durably persisted to the disk store.
    pub store_writes: u64,
    /// Disk-store writes that failed (IO errors, injected torn writes, and
    /// injected `store-full` rejections); the engine degrades to
    /// recomputation.
    pub store_write_failures: u64,
    /// Artifacts deleted by the store-quota GC (least-recently-used order,
    /// never mid-read).
    pub store_gc_evictions: u64,
    /// Bytes currently held by the disk store (a gauge, filled at snapshot
    /// time; zero when no store is attached).
    pub store_bytes_used: u64,
    /// Jobs marked profile-guided at submission (the engine's loaded
    /// profile matched the job's source).
    pub profile_applied: u64,
    /// Jobs whose source did not match the engine's loaded profile: the
    /// job ran in static order and a `profile.stale` instant was emitted.
    pub profile_stale: u64,
    /// Pool workers respawned after a panic (capacity never degrades).
    pub workers_respawned: u64,
    /// Highest number of jobs simultaneously queued or executing.
    pub queue_highwater: u64,
    /// Total time spent obtaining parse artifacts.
    pub parse_ns: u64,
    /// Total time spent obtaining analysis artifacts.
    pub analysis_ns: u64,
    /// Total time in the inline + simplify tail.
    pub transform_ns: u64,
    /// Total time executing sweep cells on the VM.
    pub execute_ns: u64,
    /// Per-pass totals across completed jobs, indexed like
    /// [`TRACKED_PASSES`] (baseline, analyze, inline, simplify).
    pub passes: [PassStat; 4],
    /// Inline decisions the engine's jobs emitted, bucketed by reason: the
    /// registry's tally of the pipeline's decision events.
    pub decisions: DecisionTotals,
}

impl EngineStats {
    /// The aggregate for a tracked pass, by name.
    pub fn pass(&self, name: &str) -> Option<PassStat> {
        TRACKED_PASSES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.passes[i])
    }
    /// Fraction of analysis-cache lookups that reused a result.
    pub fn analysis_hit_rate(&self) -> f64 {
        let total = self.analysis_hits + self.analysis_misses;
        if total == 0 {
            0.0
        } else {
            self.analysis_hits as f64 / total as f64
        }
    }

    /// The snapshot as one JSON document (stable key order): every count,
    /// the `*_ms` phase times, the per-pass totals, and the decision totals.
    pub fn json(&self) -> Json {
        let ms = |ns: u64| Json::from(ns as f64 / 1e6);
        let times = [
            ("parse_ms", ms(self.parse_ns)),
            ("analysis_ms", ms(self.analysis_ns)),
            ("transform_ms", ms(self.transform_ns)),
            ("execute_ms", ms(self.execute_ns)),
        ];
        let passes = TRACKED_PASSES.iter().zip(&self.passes).map(|(&name, p)| {
            let fields = [
                ("runs", p.runs.into()),
                ("ms", ms(p.ns)),
                ("fuel", p.fuel.into()),
            ];
            (name, Json::obj(fields))
        });
        let tail = [
            ("passes", Json::obj(passes)),
            (
                "telemetry",
                Json::obj([("decisions", self.decisions.json())]),
            ),
        ];
        let counts = [
            ("jobs_submitted", self.jobs_submitted),
            ("jobs_deduped", self.jobs_deduped),
            ("jobs_completed", self.jobs_completed),
            ("jobs_retried", self.jobs_retried),
            ("jobs_quarantined", self.jobs_quarantined),
            ("parse_hits", self.parse_hits),
            ("parse_misses", self.parse_misses),
            ("analysis_hits", self.analysis_hits),
            ("analysis_misses", self.analysis_misses),
            ("analysis_uncached", self.analysis_uncached),
            ("fingerprints_computed", self.fingerprints_computed),
            ("cache_evictions_fault", self.cache_evictions_fault),
            (
                "cache_evictions_corruption",
                self.cache_evictions_corruption,
            ),
            ("cache_evictions_pressure", self.cache_evictions_pressure),
            ("cache_bytes_used", self.cache_bytes_used),
            (
                "cache_corruptions_detected",
                self.cache_corruptions_detected,
            ),
            ("spec_hits", self.spec_hits),
            ("spec_misses", self.spec_misses),
            ("spec_evictions", self.spec_evictions),
            ("exec_hits", self.exec_hits),
            ("exec_misses", self.exec_misses),
            ("store_hits", self.store_hits),
            ("store_misses", self.store_misses),
            (
                "store_corruptions_detected",
                self.store_corruptions_detected,
            ),
            ("store_writes", self.store_writes),
            ("store_write_failures", self.store_write_failures),
            ("store_gc_evictions", self.store_gc_evictions),
            ("store_bytes_used", self.store_bytes_used),
            ("profile_applied", self.profile_applied),
            ("profile_stale", self.profile_stale),
            ("workers_respawned", self.workers_respawned),
            ("queue_highwater", self.queue_highwater),
        ];
        let counts = counts.map(|(key, n)| (key, Json::from(n)));
        Json::obj(counts.into_iter().chain(times).chain(tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highwater_tracks_peak_depth() {
        let s = QueueGauge::default();
        s.enqueue();
        s.enqueue();
        s.dequeue();
        s.enqueue();
        s.dequeue();
        s.dequeue();
        assert_eq!(s.highwater(), 2);
    }

    #[test]
    fn hit_rates() {
        let mut s = EngineStats::default();
        assert_eq!(s.analysis_hit_rate(), 0.0);
        s.analysis_hits = 3;
        s.analysis_misses = 1;
        assert!((s.analysis_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let s = EngineStats::default();
        let j = s.json().to_string();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"analysis_misses\":0"));
        assert!(j.contains("\"store_hits\":0,\"store_misses\":0"));
        assert!(j.contains("\"store_writes\":0,\"store_write_failures\":0"));
        assert!(j.contains("\"cache_evictions_pressure\":0"));
        assert!(
            !j.contains("\"cache_evictions\":"),
            "the deprecated all-cause sum must be gone"
        );
        assert!(j.contains("\"spec_hits\":0,\"spec_misses\":0,\"spec_evictions\":0"));
        assert!(j.contains("\"exec_hits\":0,\"exec_misses\":0"));
        assert!(j.contains("\"store_gc_evictions\":0,\"store_bytes_used\":0"));
        // One outer object, one "passes" object, one object per tracked
        // pass, plus the "telemetry" section and its "decisions" object.
        assert_eq!(j.matches('{').count(), 4 + TRACKED_PASSES.len());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"passes\":{\"baseline\":{\"runs\":0"));
        assert!(j.contains("\"telemetry\":{\"decisions\":{\"inlined\":0,"));
    }

    #[test]
    fn eviction_causes_snapshot_independently() {
        let m = MetricsRegistry::new();
        m.add("cache.evict", 2);
        m.add("engine.cache_evictions_corruption", 3);
        m.add("engine.cache_evictions_pressure", 5);
        let snap = from_registry(&m);
        assert_eq!(snap.cache_evictions_fault, 2);
        assert_eq!(snap.cache_evictions_corruption, 3);
        assert_eq!(snap.cache_evictions_pressure, 5);
    }

    #[test]
    fn record_passes_folds_tracked_traces_and_skips_the_rest() {
        use fdi_core::PassDisposition;
        use std::time::Duration;
        let m = MetricsRegistry::new();
        let trace = |pass, runs, fuel| PassTrace {
            pass,
            wall: Duration::from_micros(5),
            fuel,
            size_before: 10,
            size_after: 10,
            runs,
            disposition: PassDisposition::Completed,
        };
        record_passes(
            &m,
            &[
                trace("frontend", 1, 0), // untracked: the parse cache owns it
                trace("baseline", 1, 10),
                trace("analyze", 1, 40),
                trace("inline", 1, 12),
                trace("simplify", 3, 9),
            ],
        );
        record_passes(&m, &[trace("baseline", 1, 10), trace("simplify", 1, 8)]);
        let snap = from_registry(&m);
        assert_eq!(snap.pass("baseline").unwrap().runs, 2);
        assert_eq!(snap.pass("analyze").unwrap().fuel, 40);
        assert_eq!(snap.pass("simplify").unwrap().runs, 4);
        assert_eq!(snap.pass("simplify").unwrap().fuel, 17);
        assert_eq!(snap.pass("inline").unwrap().ns, 5_000);
        assert_eq!(snap.pass("frontend"), None);
    }
}
