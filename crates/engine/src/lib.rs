//! `fdi-engine` — the concurrent batch-optimization engine.
//!
//! The sequential pipeline in [`fdi_core`] optimizes one program under one
//! configuration. The experiments that matter — Table 1, the Fig. 6
//! threshold sweep, policy ablations — run the pipeline over a *batch*:
//! many programs × many configurations, where most of the cost (the front
//! end, and above all the polyvariant flow analysis) depends on only part of
//! the configuration. This crate runs such batches on a worker pool and
//! makes the redundancy structural, with a content-addressed artifact
//! cache:
//!
//! * **parse artifacts** keyed by [`source_fingerprint`] — one front-end run
//!   per distinct source, shared by every configuration;
//! * **flow analyses** keyed by (source fingerprint,
//!   [`PipelineConfig::analysis_fingerprint`]) — one CFA per (program,
//!   analysis policy), shared by every inline threshold. A six-threshold
//!   sweep analyzes each program exactly once.
//!
//! Both caches deduplicate *in-flight* work (the internal `cache` module's
//! gates): concurrent jobs needing the same artifact block on one
//! computation instead of racing. Whole jobs deduplicate the same way:
//! submitting a job identical (by [`PipelineConfig::fingerprint`]) to one
//! already in flight returns a handle to the existing run.
//!
//! # Supervision
//!
//! Every job runs under a supervisor that classifies failures by
//! [`PipelineError::is_transient`]: injected faults, phase panics, oracle
//! rejections, and wall-clock deadline exhaustion are *transient* (a retry
//! can genuinely clear them — deadlines re-anchor, fault seeds advance);
//! everything else is deterministic and returned at once. Transient
//! failures are retried up to [`EngineConfig::max_retries`] times with a
//! deterministic linear backoff, each attempt re-seeding the job's fault
//! plan (`seed + attempt`) so an injected failure does not trivially recur.
//! A job that exhausts its retries is **quarantined**: its last result is
//! still returned (degraded outputs are outputs), but the job lands on the
//! poison list ([`Engine::poisoned`]) and in
//! [`EngineStats::jobs_quarantined`] so a batch report can name it.
//!
//! The pool supervises its own threads the same way: a worker killed by the
//! `worker-panic` chaos seam is respawned (capacity never degrades) and the
//! task it was holding is rescued and re-run, so no submitted job is lost.
//!
//! # Chaos
//!
//! An engine built with an enabled [`EngineConfig::faults`] plan threads a
//! shared [`FaultInjector`] through its cache and pool seams: cache owners
//! abandoned mid-fill, freshly used entries evicted, stored artifact
//! checksums corrupted (and caught by a fingerprint recheck before reuse),
//! workers killed, dequeues delayed. All of it is deterministic in the seed
//! and none of it may change what a batch computes — only how much work
//! computing it takes. Cached parse artifacts carry a checksum of their
//! canonical unparse exactly when chaos is enabled, so corruption detection
//! costs nothing in production.
//!
//! Determinism: the engine's sweeps reuse the sequential sweep's own
//! order-independent pieces ([`fdi_core::execute_cell`]) and funnel results
//! through the same order-dependent assembly
//! ([`fdi_core::assemble_sweep_rows`]), so an engine sweep at any worker
//! count is byte-identical to the sequential one.
//!
//! Bypass caveat: a job with a wall-clock deadline (on the budget or the
//! analysis limits) is anchored to *its* run's clock, and a job with its
//! own fault plan replays injections private to that run; neither may share
//! artifacts or dedup with anything. Such jobs bypass every cache (counted
//! in [`EngineStats::analysis_uncached`]) and — since cache keys are their
//! only consumer — skip fingerprint computation entirely
//! ([`EngineStats::fingerprints_computed`] stays flat).

mod cache;
mod pool;
mod stats;
mod store;

pub use stats::{EngineStats, PassStat, TRACKED_PASSES};
pub use store::{fsck, FsckReport, StoredOutput};

use cache::{BudgetLedger, CacheBudget, Gate, KeyedCache};
use fdi_core::faults::{FaultInjector, FaultPlan, FaultPoint};
use fdi_core::{
    analyze_contained, assemble_sweep_rows, execute_cell, parse_contained, run, source_fingerprint,
    FlowAnalysis, InlineGuide, Input, Outcome, Phase, PipelineConfig, PipelineError,
    PipelineOutput, Program, Request, RunConfig, SpecializationCache, SweepCell, SweepRow,
};
use fdi_telemetry::{DecisionTotals, Telemetry};
use pool::{Pool, Task};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sizing and supervision policy of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Bounded queue slots *per worker*; a full shard blocks submission
    /// (backpressure). Defaults to 8 — a deep backlog only inflates the
    /// queue high-water mark and submission latency, it cannot make the
    /// workers faster, and on hosts with little parallelism a cold batch
    /// behind long queues was measurably slower than sequential.
    pub queue_cap: usize,
    /// The engine-level chaos plan: cache, pool, and disk-store seams
    /// (`cache-abandon`, `cache-evict`, `cache-corrupt`, `worker-panic`,
    /// `queue-delay`, `store-write`, `store-read`, `store-corrupt`) fire
    /// from one injector shared across workers. Disabled by default.
    pub faults: FaultPlan,
    /// Retries granted to a job whose failure is classified transient.
    /// Defaults to 2 (three attempts total).
    pub max_retries: u32,
    /// Base of the deterministic linear backoff between retries (attempt
    /// `k` sleeps `k × retry_backoff`). Defaults to 10 ms.
    pub retry_backoff: Duration,
    /// Root of the disk-backed store of [`StoredOutput`] artifacts. `None`
    /// (the default) keeps the engine memory-only; `Some(dir)` persists
    /// every fully healthy, cache-eligible output so a restarted engine
    /// can answer from disk ([`Engine::lookup_stored`]). An unopenable
    /// root is reported and the store disabled — never a construction
    /// failure.
    pub store: Option<PathBuf>,
    /// Byte budget shared by the in-memory artifact caches (parses and
    /// analyses). `None` (the default) leaves them unbounded; `Some(n)`
    /// turns on byte accounting with least-recently-used eviction once the
    /// combined footprint exceeds `n` — pressure evictions are counted in
    /// [`EngineStats::cache_evictions_pressure`], and in-flight entries are
    /// exempt (evicting one would strand its waiters).
    pub cache_bytes: Option<usize>,
    /// Byte quota for the disk store. `None` (the default) is unbounded;
    /// `Some(n)` makes each write run a least-recently-used GC until the
    /// store fits, counted in [`EngineStats::store_gc_evictions`]. The GC
    /// holds shard write locks, so it never deletes an artifact mid-read.
    pub store_bytes: Option<u64>,
    /// A loaded call-site profile to apply engine-wide. Every submitted job
    /// whose source fingerprint matches is marked profile-guided (splitting
    /// its cache key and ordering its inline budget hot-first); a mismatch
    /// leaves the job static and emits a `profile.stale` instant. `None`
    /// (the default) runs everything in static order.
    pub profile: Option<EngineProfile>,
}

/// A verified profile artifact in engine form: the staleness key, the
/// content fingerprint to fold into job cache keys, and the benefit guide.
///
/// The engine does not read profile artifacts itself — the caller (the CLI,
/// via `fdi-profile`) loads and verifies the artifact and hands over this
/// distilled form, keeping the engine decoupled from the on-disk format.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// [`source_fingerprint`] of the source the profile was collected from.
    pub source_fp: u64,
    /// Content fingerprint of the artifact (`Profile::fingerprint`).
    pub fingerprint: u64,
    /// The benefit-ordered guide distilled from the profile.
    pub guide: Arc<InlineGuide>,
}

impl EngineConfig {
    /// `workers` threads with the default queue capacity.
    pub fn with_workers(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_cap: 8,
            faults: FaultPlan::default(),
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            store: None,
            cache_bytes: None,
            store_bytes: None,
            profile: None,
        }
    }
}

/// One unit of batch work: a source program under a pipeline configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Scheme source text. `Arc<str>` so a sweep's jobs share one copy.
    pub source: Arc<str>,
    /// The pipeline configuration to run it under.
    pub config: PipelineConfig,
    /// Request-scoped trace id, echoed into the job's telemetry span so a
    /// serve request can be joined against the engine's trace. Correlation
    /// only: never part of [`Job::key`], never influences the output.
    pub trace: Option<u64>,
}

impl Job {
    /// A job optimizing `source` under `config`.
    pub fn new(source: impl Into<Arc<str>>, config: PipelineConfig) -> Job {
        Job {
            source: source.into(),
            config,
            trace: None,
        }
    }

    /// The same job, carrying `trace` as its correlation id.
    pub fn with_trace(mut self, trace: u64) -> Job {
        self.trace = Some(trace);
        self
    }

    /// The job's identity: (source fingerprint, whole-config fingerprint).
    /// Jobs with equal keys produce identical outputs and are deduplicated
    /// in flight.
    pub fn key(&self) -> (u64, u64) {
        (source_fingerprint(&self.source), self.config.fingerprint())
    }

    /// Does this job bypass the artifact caches and job dedup? True unless
    /// its configuration [shares artifacts](PipelineConfig::shares_artifacts):
    /// a deadline anchors to the run's own clock, and a job-level fault
    /// plan's injections are private to the run. Bypass jobs never compute
    /// a fingerprint — cache keys are the only thing fingerprints are for.
    fn bypasses_cache(&self) -> bool {
        !self.config.shares_artifacts()
    }
}

/// What a job resolves to: the pipeline's output (possibly degraded — see
/// [`PipelineOutput::health`]) behind an `Arc` shared with every
/// deduplicated waiter, or the typed error of a source that never produced
/// a program.
pub type JobResult = Result<Arc<PipelineOutput>, PipelineError>;

type ExecResult = Result<Outcome, PipelineError>;
type AnalysisResult = Result<Arc<FlowAnalysis>, PipelineError>;
type JobKey = (u64, u64);

/// A job that exhausted its retries: an entry on the engine's poison list.
#[derive(Debug, Clone)]
pub struct PoisonedJob {
    /// The job's source text.
    pub source: Arc<str>,
    /// The inline threshold it ran under (to tell sweep siblings apart).
    pub threshold: usize,
    /// Attempts made (initial run + retries).
    pub attempts: u32,
    /// The transient failure that kept recurring.
    pub error: PipelineError,
}

/// The engine's resource posture at a point in time — what `fdi serve`'s
/// `health` op reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStatus {
    /// Ready-entry bytes held by the in-memory caches (zero when byte
    /// accounting is off).
    pub cache_bytes_used: u64,
    /// The configured [`EngineConfig::cache_bytes`] budget, if any.
    pub cache_bytes_limit: Option<u64>,
    /// Disk-store footprint; `None` when no store is attached.
    pub store_bytes_used: Option<u64>,
    /// The configured [`EngineConfig::store_bytes`] quota, if any.
    pub store_bytes_limit: Option<u64>,
    /// True when repeated write failures have degraded the engine to
    /// memory-only operation (answers still flow; nothing persists until a
    /// probe write succeeds).
    pub store_degraded: bool,
}

/// A claim on a submitted job's eventual result.
#[derive(Debug)]
pub struct JobHandle {
    gate: Arc<Gate<JobResult>>,
    /// True when this submission coalesced onto an identical in-flight job.
    pub deduped: bool,
}

impl JobHandle {
    /// Blocks until the job finishes.
    pub fn wait(&self) -> JobResult {
        self.gate
            .wait()
            .expect("engine job gates are always filled")
    }

    /// Waits at most `timeout` for the job. `None` means the deadline
    /// passed first: the job keeps running — and still fills the caches and
    /// the disk store — but this waiter gives up, which is how serve mode
    /// turns an over-budget request into a typed timeout instead of a hung
    /// connection.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        self.gate
            .wait_deadline(Instant::now() + timeout)
            .map(|v| v.expect("engine job gates are always filled"))
    }
}

/// A cached front-end artifact. The checksum is the fingerprint of the
/// program's canonical unparse, computed only when engine chaos is enabled;
/// the `cache-corrupt` seam flips it, and the recheck on every hit catches
/// the mismatch and recomputes.
#[derive(Debug, Clone)]
struct ParseArtifact {
    program: Arc<Program>,
    checksum: Arc<AtomicU64>,
}

/// The content address of a parse artifact's payload.
fn artifact_checksum(program: &Program) -> u64 {
    source_fingerprint(&fdi_lang::unparse(program).to_string())
}

/// Consecutive store-write failures before the engine declares the store
/// unwritable and degrades to memory-only operation.
const STORE_DEGRADE_AFTER: u64 = 3;

/// While memory-only, every n-th would-be write probes the store so a
/// recovered disk (space freed, permissions fixed) re-enables persistence
/// without a restart.
const STORE_PROBE_EVERY: u64 = 16;

/// Estimated resident bytes of a cached parse artifact, for the byte
/// budget. Proportional to the AST arena, not exact — eviction ordering
/// only needs stable, cheap, comparable sizes. Contained errors are
/// negatively cached at a small flat charge.
fn parse_artifact_bytes(v: &Result<ParseArtifact, PipelineError>) -> usize {
    match v {
        Ok(a) => 128 + 48 * a.program.expr_count() + 24 * a.program.var_count(),
        Err(_) => 64,
    }
}

/// Estimated resident bytes of a cached flow analysis.
fn analysis_bytes(v: &Result<Arc<FlowAnalysis>, PipelineError>) -> usize {
    match v {
        Ok(a) => a.approx_bytes(),
        Err(_) => 64,
    }
}

/// Estimated resident bytes of a memoized sweep-cell execution.
fn exec_bytes(v: &ExecResult) -> usize {
    match v {
        Ok(o) => 128 + o.value.len() + o.output.len(),
        Err(_) => 64,
    }
}

/// Shared engine state: every worker task holds an `Arc<Inner>`.
struct Inner {
    stats: stats::StatsInner,
    /// Telemetry handle shared by every worker: job spans, cache instants,
    /// retry/quarantine instants, and the pipeline's own events all land in
    /// one collector, distinguished by worker thread id. Defaults to off.
    telemetry: Telemetry,
    /// The engine-level chaos injector, shared by caches and the pool.
    injector: Arc<FaultInjector>,
    /// Supervision policy (from [`EngineConfig`]).
    max_retries: u32,
    retry_backoff: Duration,
    /// Jobs that exhausted their retries.
    poisoned: Mutex<Vec<PoisonedJob>>,
    /// Parse artifacts by source fingerprint.
    programs: KeyedCache<u64, Result<ParseArtifact, PipelineError>>,
    /// Flow analyses by (source fingerprint, analysis fingerprint).
    analyses: KeyedCache<JobKey, AnalysisResult>,
    /// In-flight jobs by whole-job key, for submission dedup.
    inflight: Mutex<HashMap<JobKey, Arc<Gate<JobResult>>>>,
    /// Round-robin shard assignment for execution and bypass tasks.
    exec_shard: AtomicU64,
    /// The disk-backed artifact store, when [`EngineConfig::store`] is set.
    store: Option<store::DiskStore>,
    /// The shared cache byte budget, when [`EngineConfig::cache_bytes`] is
    /// set.
    cache_budget: Option<Arc<CacheBudget>>,
    /// Consecutive disk-store write failures. At
    /// [`STORE_DEGRADE_AFTER`] the engine stops attempting writes
    /// (memory-only operation) except for a periodic probe; any success
    /// resets it.
    store_consec_failures: AtomicU64,
    /// Writes skipped while memory-only, for probe scheduling.
    store_skipped: AtomicU64,
    /// The engine-wide profile, when [`EngineConfig::profile`] is set.
    profile: Option<EngineProfile>,
    /// The inliner's memoized-specialization cache, shared by every job on
    /// every worker. Byte-accounted against [`EngineConfig::cache_bytes`]
    /// when set; its hit/miss/evict counters surface as
    /// [`EngineStats::spec_hits`] and friends. Output-transparent by
    /// construction — it only changes how fast the inline pass runs.
    spec_cache: SpecializationCache,
    /// Parallel inlining units handed to each job's pipeline:
    /// `max(1, available_parallelism / workers)`, so inline-level threads
    /// never oversubscribe a pool that already saturates the host.
    inline_units: usize,
    /// Memoized sweep-cell executions, keyed by the optimized program's
    /// canonical unparse and the run configuration. Distinct thresholds
    /// routinely converge on the same optimized bytes, and a warm engine
    /// re-sweeps identical cells; both reuse the VM run. Never consulted
    /// when engine chaos is enabled.
    exec_cells: KeyedCache<u64, ExecResult>,
}

impl Inner {
    /// Marks `job` profile-guided when the engine profile matches its
    /// source; a stale profile leaves the job static. With `record` set
    /// (submission) the outcome is counted and a stale match emits a
    /// `profile.stale` instant; without it (store lookups) the application
    /// is silent — keys must agree with submission, stats must not move.
    fn apply_profile(&self, job: &mut Job, record: bool) {
        let Some(p) = self.profile.as_ref() else {
            return;
        };
        if p.source_fp == source_fingerprint(&job.source) {
            job.config.profile_fp = Some(p.fingerprint);
            if record {
                self.stats.profile_applied.fetch_add(1, Relaxed);
            }
        } else if record {
            self.stats.profile_stale.fetch_add(1, Relaxed);
            self.telemetry.instant(
                "profile.stale",
                "profile",
                &[
                    ("profile_fp", format!("{:016x}", p.source_fp)),
                    (
                        "source_fp",
                        format!("{:016x}", source_fingerprint(&job.source)),
                    ),
                ],
            );
        }
    }
}

/// The guide for `job`, if it was marked profile-guided at submission.
/// Gated on the fingerprint so a job configured against a *different*
/// profile (or none) never picks up this engine's guide by accident.
fn job_guide<'a>(inner: &'a Inner, job: &Job) -> Option<&'a InlineGuide> {
    let p = inner.profile.as_ref()?;
    (job.config.profile_fp == Some(p.fingerprint)).then(|| p.guide.as_ref())
}

/// The concurrent batch-optimization engine.
///
/// Dropping the engine closes its queues and joins the workers; work
/// already submitted still runs to completion first, so outstanding
/// [`JobHandle`]s always resolve.
pub struct Engine {
    inner: Arc<Inner>,
    pool: Pool,
}

impl Engine {
    /// An engine sized by `config`.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_telemetry(config, &Telemetry::off())
    }

    /// An engine whose workers emit into `telemetry`'s collector: per-job
    /// spans, cache hit/miss instants, retry and quarantine instants, plus
    /// every job's own pipeline spans and decision events. Events carry the
    /// worker's thread id, so a chrome-trace export shows one track per
    /// worker.
    pub fn with_telemetry(config: EngineConfig, telemetry: &Telemetry) -> Engine {
        let stats = stats::StatsInner::default();
        let injector = Arc::new(FaultInjector::new(config.faults));
        let pool = Pool::with_chaos(
            config.workers,
            config.queue_cap,
            injector.clone(),
            stats.workers_respawned.clone(),
        );
        let disk = config.store.as_ref().and_then(|root| {
            match store::DiskStore::open(root, injector.clone()) {
                Ok(s) => Some(s.with_quota(config.store_bytes)),
                Err(e) => {
                    // Degrade to memory-only: a missing disk must never
                    // stop the engine from computing.
                    eprintln!("fdi-engine: disk store disabled: {e}");
                    None
                }
            }
        });
        let cache_budget = config
            .cache_bytes
            .map(|limit| CacheBudget::new(limit, stats.cache_evictions_pressure.clone()));
        let (programs, analyses, exec_cells) = match &cache_budget {
            Some(b) => (
                KeyedCache::bounded(b.clone(), parse_artifact_bytes),
                KeyedCache::bounded(b.clone(), analysis_bytes),
                KeyedCache::bounded(b.clone(), exec_bytes),
            ),
            None => (KeyedCache::new(), KeyedCache::new(), KeyedCache::new()),
        };
        let spec_cache = match &cache_budget {
            Some(b) => SpecializationCache::new(Box::new(BudgetLedger(b.clone()))),
            None => SpecializationCache::unbounded(),
        };
        let inline_units = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            / config.workers.max(1);
        Engine {
            inner: Arc::new(Inner {
                stats,
                telemetry: telemetry.clone(),
                injector,
                max_retries: config.max_retries,
                retry_backoff: config.retry_backoff,
                poisoned: Mutex::new(Vec::new()),
                programs,
                analyses,
                inflight: Mutex::new(HashMap::new()),
                exec_shard: AtomicU64::new(0),
                store: disk,
                cache_budget,
                store_consec_failures: AtomicU64::new(0),
                store_skipped: AtomicU64::new(0),
                profile: config.profile,
                spec_cache,
                inline_units: inline_units.max(1),
                exec_cells,
            }),
            pool,
        }
    }

    /// An engine with `jobs` workers (the `--jobs N` entry point).
    pub fn with_jobs(jobs: usize) -> Engine {
        Engine::new(EngineConfig::with_workers(jobs))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// A point-in-time snapshot of the engine's counters, with the
    /// resource gauges (cache and store footprints, GC evictions) filled
    /// from their owners.
    pub fn stats(&self) -> EngineStats {
        let mut snap = self.inner.stats.snapshot();
        let spec = self.inner.spec_cache.stats();
        snap.spec_hits = spec.hits;
        snap.spec_misses = spec.misses;
        snap.spec_evictions = spec.evictions;
        if let Some(budget) = &self.inner.cache_budget {
            snap.cache_bytes_used = budget.bytes_used() as u64;
        }
        if let Some(store) = &self.inner.store {
            snap.store_bytes_used = store.bytes_used();
            snap.store_gc_evictions = store.gc_evictions();
        }
        snap
    }

    /// The engine's resource posture, for serve-mode health reporting.
    pub fn resources(&self) -> ResourceStatus {
        ResourceStatus {
            cache_bytes_used: self
                .inner
                .cache_budget
                .as_ref()
                .map(|b| b.bytes_used() as u64)
                .unwrap_or(0),
            cache_bytes_limit: self
                .inner
                .cache_budget
                .as_ref()
                .and_then(|b| (b.limit() != usize::MAX).then_some(b.limit() as u64)),
            store_bytes_used: self.inner.store.as_ref().map(|s| s.bytes_used()),
            store_bytes_limit: self.inner.store.as_ref().and_then(|s| s.quota()),
            store_degraded: self.inner.store.is_some()
                && self.inner.store_consec_failures.load(Relaxed) >= STORE_DEGRADE_AFTER,
        }
    }

    /// The poison list: jobs that exhausted their retries, in quarantine
    /// order.
    pub fn poisoned(&self) -> Vec<PoisonedJob> {
        self.inner.poisoned.lock().unwrap().clone()
    }

    /// Consults the disk store for a persisted output of `job`, verifying
    /// the frame checksum on load. A corrupt frame is evicted (and counted
    /// in [`EngineStats::store_corruptions_detected`]) so the caller's
    /// recompute repaves it — the store never serves a guess. Bypass jobs
    /// (deadline or private fault plan) never consult the store, and an
    /// engine without [`EngineConfig::store`] always misses.
    pub fn lookup_stored(&self, job: &Job) -> Option<StoredOutput> {
        let store = self.inner.store.as_ref()?;
        if job.bypasses_cache() {
            return None;
        }
        // The store key must match what submission would compute, so the
        // engine profile is applied to a silent copy (no counters, no
        // instants — this is a read-only probe, not a submission).
        let mut keyed = job.clone();
        self.inner.apply_profile(&mut keyed, false);
        self.inner.stats.fingerprints_computed.fetch_add(2, Relaxed);
        let hit = store.load_counted(keyed.key(), &self.inner.stats);
        self.inner.telemetry.instant(
            "cache.store",
            "cache",
            &[("hit", hit.is_some().to_string())],
        );
        hit
    }

    /// Submits a job, blocking only when the target shard's queue is full.
    ///
    /// An identical cache-eligible job already in flight is joined instead
    /// of re-run: the returned handle (marked `deduped`) resolves to the
    /// same shared output. Bypass jobs (deadline or fault plan) are never
    /// deduplicated and never fingerprinted.
    pub fn submit(&self, mut job: Job) -> JobHandle {
        self.inner.apply_profile(&mut job, true);
        let gate = Arc::new(Gate::new());
        let key = if job.bypasses_cache() {
            None
        } else {
            self.inner.stats.fingerprints_computed.fetch_add(2, Relaxed);
            let key = job.key();
            match self.inner.inflight.lock().unwrap().entry(key) {
                Entry::Occupied(e) => {
                    self.inner.stats.jobs_deduped.fetch_add(1, Relaxed);
                    return JobHandle {
                        gate: e.get().clone(),
                        deduped: true,
                    };
                }
                Entry::Vacant(e) => {
                    e.insert(gate.clone());
                }
            }
            Some(key)
        };
        self.inner.stats.jobs_submitted.fetch_add(1, Relaxed);
        self.inner.stats.enqueue();
        let inner = self.inner.clone();
        let task_gate = gate.clone();
        let task: Task = Box::new(move || {
            inner.stats.dequeue();
            let result = supervise(&inner, &job);
            if let Some(key) = key {
                inner.inflight.lock().unwrap().remove(&key);
            }
            // Count completion before publishing: anyone woken by the gate
            // must already see this job in `jobs_completed`.
            inner.stats.jobs_completed.fetch_add(1, Relaxed);
            task_gate.set(result);
        });
        let shard = match key {
            Some((src, cfg)) => src ^ cfg.rotate_left(32),
            None => self.inner.exec_shard.fetch_add(1, Relaxed),
        };
        self.pool.submit(shard, task);
        JobHandle {
            gate,
            deduped: false,
        }
    }

    /// Submits every job, then waits for all of them; results come back in
    /// submission order.
    pub fn run_batch(&self, jobs: impl IntoIterator<Item = Job>) -> Vec<JobResult> {
        let handles: Vec<JobHandle> = jobs.into_iter().map(|j| self.submit(j)).collect();
        handles.iter().map(JobHandle::wait).collect()
    }

    /// The engine-backed threshold sweep: semantically identical (and
    /// byte-identical in its rows) to [`fdi_core::sweep`], but with the
    /// per-threshold pipelines and VM executions spread over the pool and
    /// the analysis shared through the artifact cache.
    ///
    /// # Errors
    ///
    /// Exactly [`fdi_core::sweep`]'s: a front end rejection, or a
    /// threshold-0 baseline that fails to execute.
    pub fn sweep(
        &self,
        src: &str,
        thresholds: &[usize],
        config: &PipelineConfig,
        run_config: &RunConfig,
    ) -> Result<Vec<SweepRow>, PipelineError> {
        self.sweep_many(&[src], thresholds, config, run_config)
            .pop()
            .expect("one sweep per source")
    }

    /// Sweeps many programs at once — the shape of the Table 1 / Fig. 6
    /// experiments. Every (source × threshold) pipeline job is submitted up
    /// front so the pool works across programs, not one program at a time.
    /// Results come back in `sources` order.
    pub fn sweep_many(
        &self,
        sources: &[&str],
        thresholds: &[usize],
        config: &PipelineConfig,
        run_config: &RunConfig,
    ) -> Vec<Result<Vec<SweepRow>, PipelineError>> {
        // Threshold 0 always runs first: it anchors normalization.
        let mut all: Vec<usize> = vec![0];
        all.extend(thresholds.iter().copied().filter(|&t| t != 0));

        // Phase 1: submit every pipeline job.
        let handles: Vec<Vec<JobHandle>> = sources
            .iter()
            .map(|&src| {
                let source: Arc<str> = Arc::from(src);
                all.iter()
                    .map(|&t| {
                        self.submit(Job {
                            source: source.clone(),
                            config: PipelineConfig {
                                threshold: t,
                                ..*config
                            },
                            trace: None,
                        })
                    })
                    .collect()
            })
            .collect();

        // Phase 2: as each source's pipelines finish, put its executions on
        // the pool. A job-level error (front end rejection) fails that
        // source's sweep, matching the sequential contract.
        type PendingCell = (usize, Arc<PipelineOutput>, Arc<Gate<ExecResult>>);
        let pending: Vec<Result<Vec<PendingCell>, PipelineError>> = handles
            .iter()
            .map(|source_handles| {
                let mut cells = Vec::with_capacity(all.len());
                for (handle, &t) in source_handles.iter().zip(&all) {
                    let output = handle.wait()?;
                    let gate = self.submit_exec(output.clone(), t, run_config);
                    cells.push((t, output, gate));
                }
                Ok(cells)
            })
            .collect();

        // Phase 3: collect executions and fold through the same assembly
        // the sequential sweep uses.
        pending
            .into_iter()
            .map(|cells| {
                let cells = cells?
                    .into_iter()
                    .map(|(threshold, output, gate)| SweepCell {
                        threshold,
                        output,
                        exec: gate.wait().expect("engine exec gates are always filled"),
                    })
                    .collect();
                assemble_sweep_rows(cells, run_config)
            })
            .collect()
    }

    /// Puts one sweep cell's VM execution on the pool, memoized through the
    /// exec-cell cache: the VM is deterministic in (program bytes, run
    /// configuration), so cells whose optimized programs coincide — distinct
    /// thresholds converging on the same bytes, or a warm re-sweep — share
    /// one run. A hit on a cached [`PipelineError::Vm`] is re-stamped with
    /// this cell's threshold (the error's only cell-dependent field). With
    /// engine chaos enabled the cache is skipped outright, and a panicking
    /// execution is evicted after publication so it is never replayed as an
    /// answer.
    fn submit_exec(
        &self,
        output: Arc<PipelineOutput>,
        threshold: usize,
        run_config: &RunConfig,
    ) -> Arc<Gate<ExecResult>> {
        let gate = Arc::new(Gate::new());
        let task_gate = gate.clone();
        let inner = self.inner.clone();
        let run_config = *run_config;
        let memoize = !self.inner.injector.plan().enabled();
        self.inner.stats.enqueue();
        let task: Task = Box::new(move || {
            inner.stats.dequeue();
            let _span = inner.telemetry.span("execute", "engine");
            let started = Instant::now();
            let run = || {
                catch_unwind(AssertUnwindSafe(|| {
                    execute_cell(&output, threshold, &run_config)
                }))
                .unwrap_or_else(|_| {
                    Err(PipelineError::PhasePanicked {
                        phase: Phase::Execution,
                        message: "engine execution unwound outside phase containment".into(),
                    })
                })
            };
            let exec = if memoize {
                let key = source_fingerprint(&format!(
                    "{}\n{run_config:?}",
                    fdi_lang::unparse(&output.optimized)
                ));
                inner.stats.fingerprints_computed.fetch_add(1, Relaxed);
                let (mut exec, hit) = inner.exec_cells.get_or_compute(key, run);
                stats::StatsInner::cache_event(
                    &inner.stats.exec_hits,
                    &inner.stats.exec_misses,
                    hit,
                );
                inner
                    .telemetry
                    .instant("cache.exec", "cache", &[("hit", hit.to_string())]);
                match &mut exec {
                    Err(PipelineError::Vm { threshold: t, .. }) => *t = threshold,
                    Err(PipelineError::PhasePanicked { .. }) => {
                        inner.exec_cells.evict(&key);
                    }
                    _ => {}
                }
                exec
            } else {
                run()
            };
            stats::StatsInner::add_time(&inner.stats.execute_ns, started.elapsed());
            task_gate.set(exec);
        });
        let shard = self.inner.exec_shard.fetch_add(1, Relaxed);
        self.pool.submit(shard, task);
        gate
    }
}

/// The transient failure in `result`, if any: a transient top-level error,
/// or the first transient degradation of an otherwise completed run.
fn transient_failure(result: &JobResult) -> Option<PipelineError> {
    match result {
        Err(e) if e.is_transient() => Some(e.clone()),
        Err(_) => None,
        Ok(out) => out
            .health
            .degradations
            .iter()
            .find(|d| d.error.is_transient())
            .map(|d| d.error.clone()),
    }
}

/// Runs one job under the retry/quarantine policy.
///
/// Each attempt runs [`run_job`] under a panic backstop. A transiently
/// failed attempt is retried after a deterministic linear backoff, with the
/// job's fault seed advanced by the attempt number (so a seeded injection —
/// a pure function of the seed — does not trivially recur, while the whole
/// retry schedule stays reproducible). A job that exhausts its retries is
/// quarantined on the poison list; its last result is still returned.
///
/// For a job carrying a [`fdi_core::Budget`] deadline, the retry wall is
/// capped against that deadline: a retry whose backoff sleep would land the
/// next attempt past the job's own time budget is not taken — the job is
/// quarantined immediately instead. Supervised retries can therefore never
/// overshoot a request deadline.
fn supervise(inner: &Inner, job: &Job) -> JobResult {
    let started = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        let mut this_attempt = job.clone();
        if attempt > 0 && this_attempt.config.faults.enabled() {
            this_attempt.config.faults.seed = job.config.faults.seed.wrapping_add(attempt as u64);
        }
        let result = catch_unwind(AssertUnwindSafe(|| run_job(inner, &this_attempt)))
            .unwrap_or_else(|payload| {
                // Keep the payload text: injected cache-seam panics carry
                // "injected fault at …", which downstream consumers (fuzz
                // tolerance, corpus replay) use to classify the failure.
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "no panic message".into());
                Err(PipelineError::PhasePanicked {
                    phase: Phase::Frontend,
                    message: format!("engine job unwound outside phase containment: {detail}"),
                })
            });
        let failure = match transient_failure(&result) {
            None => return result,
            Some(e) => e,
        };
        // The next retry would sleep `backoff`; a deadline-bearing job
        // whose remaining budget cannot absorb that sleep is quarantined
        // now — retrying it could only blow the request deadline.
        let backoff = inner.retry_backoff * (attempt + 1);
        let deadline_spent = job
            .config
            .budget
            .deadline
            .is_some_and(|d| started.elapsed() + backoff >= d);
        if attempt >= inner.max_retries || deadline_spent {
            inner.stats.jobs_quarantined.fetch_add(1, Relaxed);
            inner.telemetry.instant(
                "job.poisoned",
                "engine",
                &[
                    ("threshold", job.config.threshold.to_string()),
                    ("attempts", (attempt + 1).to_string()),
                    ("error", failure.to_string()),
                ],
            );
            inner.poisoned.lock().unwrap().push(PoisonedJob {
                source: job.source.clone(),
                threshold: job.config.threshold,
                attempts: attempt + 1,
                error: failure,
            });
            return result;
        }
        attempt += 1;
        inner.stats.jobs_retried.fetch_add(1, Relaxed);
        inner.telemetry.instant(
            "job.retry",
            "engine",
            &[
                ("attempt", attempt.to_string()),
                ("error", failure.to_string()),
            ],
        );
        std::thread::sleep(backoff);
    }
}

/// Persists a fully healthy, cache-eligible output to the disk store, when
/// one is attached. Degraded or oracle-rejected runs are never persisted —
/// a warm restart must recompute them, not replay them. Store failures
/// degrade: counted in [`EngineStats::store_write_failures`] and traced as
/// a typed [`PipelineError::Store`], never propagated into the job result
/// that is already computed.
fn persist_output(inner: &Inner, job: &Job, src_key: u64, out: &PipelineOutput) {
    let Some(store) = &inner.store else {
        return;
    };
    if !out.health.degradations.is_empty() || out.health.oracle_rejected() {
        return;
    }
    // Memory-only mode: after STORE_DEGRADE_AFTER consecutive write
    // failures (a full disk, most likely), stop hammering the store —
    // requests keep succeeding from memory — but let every n-th output
    // probe it, so a recovered disk re-enables persistence by itself.
    if inner.store_consec_failures.load(Relaxed) >= STORE_DEGRADE_AFTER {
        let skipped = inner.store_skipped.fetch_add(1, Relaxed) + 1;
        if !skipped.is_multiple_of(STORE_PROBE_EVERY) {
            return;
        }
    }
    inner.stats.fingerprints_computed.fetch_add(1, Relaxed);
    let key = (src_key, job.config.fingerprint());
    let stored = StoredOutput {
        optimized: fdi_lang::unparse(&out.optimized).to_string(),
        baseline_size: out.baseline_size,
        optimized_size: out.optimized_size,
        sites_inlined: out.report.sites_inlined,
        fuel_used: out.fuel_used,
        decisions: DecisionTotals::tally(&out.decisions),
    };
    let write_failed = |instant: &str, fields: &[(&str, String)]| {
        inner.stats.store_write_failures.fetch_add(1, Relaxed);
        inner.telemetry.instant(instant, "cache", fields);
        let failures = inner.store_consec_failures.fetch_add(1, Relaxed) + 1;
        if failures == STORE_DEGRADE_AFTER {
            // One typed instant at the transition, not one per skipped
            // write: the signal is "the engine went memory-only", and it
            // must never surface as a failed request.
            inner.telemetry.instant(
                "store.memory_only",
                "cache",
                &[("consecutive_failures", failures.to_string())],
            );
        }
    };
    match store.save(key, &stored) {
        store::Saved::Written => {
            inner.stats.store_writes.fetch_add(1, Relaxed);
            let was = inner.store_consec_failures.swap(0, Relaxed);
            if was >= STORE_DEGRADE_AFTER {
                inner.telemetry.instant("store.recovered", "cache", &[]);
            }
        }
        store::Saved::Torn => {
            write_failed("store.write_torn", &[]);
        }
        store::Saved::Full => {
            write_failed("store.full", &[("error", "injected ENOSPC".to_string())]);
        }
        store::Saved::Failed(message) => {
            let e = PipelineError::Store { message };
            write_failed("store.write_failed", &[("error", e.to_string())]);
        }
    }
}

/// One job, start to finish, on a worker thread: parse and analyze through
/// the artifact caches, then run the pipeline in-process over the cached
/// program — unless the job bypasses caching entirely (deadline or private
/// fault plan), in which case the whole pipeline runs from source with no
/// fingerprint ever computed, and its output is never persisted.
fn run_job(inner: &Inner, job: &Job) -> JobResult {
    let _span = inner.telemetry.span("job", "engine");
    if let Some(trace) = job.trace {
        // Inside the span, so a trace viewer (and the flight recorder's
        // time base) can join the request id against the engine's work.
        inner.telemetry.instant(
            "job.trace",
            "engine",
            &[("trace_id", format!("{trace:016x}"))],
        );
    }
    let cached = if job.bypasses_cache() {
        inner.stats.analysis_uncached.fetch_add(1, Relaxed);
        None
    } else {
        Some(cached_artifacts(inner, job)?)
    };
    let input = match &cached {
        None => Input::Source(&job.source),
        Some((_, program, analysis)) => Input::Program {
            program,
            analysis: analysis.as_ref().map(|a| a.as_ref().map(|flow| &**flow)),
        },
    };
    // Bypass jobs skip the *artifact* caches (their deadlines and fault
    // plans are private to the run), but still share the specialization
    // cache: it is output-transparent, and its fault seam
    // (`spec-cache-evict`) is only reachable from a job-level plan.
    let request = Request {
        input,
        config: job.config,
        guide: job_guide(inner, job),
        telemetry: inner.telemetry.clone(),
        spec_cache: Some(&inner.spec_cache),
        inline_units: inner.inline_units,
    };
    let started = Instant::now();
    let out = run(&request);
    stats::StatsInner::add_time(&inner.stats.transform_ns, started.elapsed());
    let out = out?;
    inner.stats.record_passes(&out.passes);
    inner.stats.record_decisions(&out.decisions);
    if let Some((src_key, ..)) = cached {
        persist_output(inner, job, src_key, &out);
    }
    Ok(Arc::new(out))
}

/// A cache-eligible job's inputs from the artifact caches: its source
/// fingerprint, its lowered program, and — when the configuration
/// [reuses analyses](PipelineConfig::reuses_analysis) — its flow analysis.
/// A schedule that opens with a rewrite never consumes a shared analysis
/// (the rewrite would invalidate it), so there is nothing for the analysis
/// cache to hold: the schedule computes its own analyses.
///
/// # Errors
///
/// The source's (cached) frontend rejection.
fn cached_artifacts(
    inner: &Inner,
    job: &Job,
) -> Result<(u64, Arc<Program>, Option<AnalysisResult>), PipelineError> {
    let src_key = source_fingerprint(&job.source);
    inner.stats.fingerprints_computed.fetch_add(1, Relaxed);
    let chaos = inner.injector.plan().enabled();

    // Obtain the parse artifact, under chaos re-verifying its checksum: a
    // detected corruption evicts and recomputes (at most one extra lap —
    // the recompute is a miss, which skips the recheck).
    let artifact = loop {
        let parse_started = Instant::now();
        let source = job.source.clone();
        let injector = &inner.injector;
        let (parsed, hit) = inner.programs.get_or_compute(src_key, move || {
            if injector.poll(FaultPoint::CacheAbandon).is_some() {
                // The cache's unwind guard abandons the gate (waiters
                // retry); this owner's job fails transiently and is
                // retried by its supervisor.
                panic!("injected fault at cache-abandon");
            }
            parse_contained(&source).map(|p| {
                let program = Arc::new(p);
                let checksum = if chaos {
                    artifact_checksum(&program)
                } else {
                    0
                };
                ParseArtifact {
                    program,
                    checksum: Arc::new(AtomicU64::new(checksum)),
                }
            })
        });
        stats::StatsInner::cache_event(&inner.stats.parse_hits, &inner.stats.parse_misses, hit);
        stats::StatsInner::add_time(&inner.stats.parse_ns, parse_started.elapsed());
        inner
            .telemetry
            .instant("cache.parse", "cache", &[("hit", hit.to_string())]);
        let artifact = parsed?;
        if chaos && hit {
            if inner.injector.poll(FaultPoint::CacheCorrupt).is_some() {
                artifact.checksum.fetch_xor(0xDEAD_BEEF_DEAD_BEEF, Relaxed);
            }
            if artifact_checksum(&artifact.program) != artifact.checksum.load(Relaxed) {
                inner.stats.cache_corruptions_detected.fetch_add(1, Relaxed);
                inner
                    .telemetry
                    .instant("cache.corruption_detected", "cache", &[]);
                if inner.programs.evict(&src_key) {
                    inner.stats.cache_evictions_corruption.fetch_add(1, Relaxed);
                }
                continue;
            }
        }
        if chaos && inner.injector.poll(FaultPoint::CacheEvict).is_some() {
            // Drop the entry *after* taking our clone: this job proceeds,
            // the next asker recomputes.
            if inner.programs.evict(&src_key) {
                inner.stats.cache_evictions_fault.fetch_add(1, Relaxed);
                inner.telemetry.instant("cache.evict", "cache", &[]);
            }
        }
        break artifact;
    };
    let program = artifact.program;
    if !job.config.reuses_analysis() {
        inner.stats.analysis_uncached.fetch_add(1, Relaxed);
        return Ok((src_key, program, None));
    }
    let analysis_started = Instant::now();
    let analysis_program = program.clone();
    let config = job.config;
    inner.stats.fingerprints_computed.fetch_add(1, Relaxed);
    let (analysis, hit) = inner
        .analyses
        .get_or_compute((src_key, job.config.analysis_fingerprint()), move || {
            analyze_contained(&analysis_program, &config).map(Arc::new)
        });
    stats::StatsInner::cache_event(
        &inner.stats.analysis_hits,
        &inner.stats.analysis_misses,
        hit,
    );
    stats::StatsInner::add_time(&inner.stats.analysis_ns, analysis_started.elapsed());
    inner
        .telemetry
        .instant("cache.analysis", "cache", &[("hit", hit.to_string())]);
    Ok((src_key, program, Some(analysis)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_core::{Budget, OracleConfig};

    const SRC: &str = "(define (sq x) (* x x)) (cons (sq 2) (sq 3))";

    #[test]
    fn identical_inflight_jobs_dedup_onto_one_run() {
        // One worker: the first job occupies it, so the next two identical
        // submissions are still queued/in-flight when dedup is checked.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_cap: 8,
            ..EngineConfig::default()
        });
        let blocker = engine.submit(Job::new(SRC, PipelineConfig::with_threshold(0)));
        let first = engine.submit(Job::new(SRC, PipelineConfig::with_threshold(200)));
        let second = engine.submit(Job::new(SRC, PipelineConfig::with_threshold(200)));
        assert!(!first.deduped);
        assert!(second.deduped, "identical in-flight job must coalesce");
        let (a, b) = (first.wait().unwrap(), second.wait().unwrap());
        assert!(Arc::ptr_eq(&a, &b), "deduped handles share one output");
        blocker.wait().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.jobs_submitted, 2);
        assert_eq!(stats.jobs_deduped, 1);
        assert_eq!(stats.jobs_completed, 2);
    }

    #[test]
    fn thresholds_share_one_analysis() {
        let engine = Engine::with_jobs(4);
        let results = engine.run_batch(
            [0, 100, 200, 400].map(|t| Job::new(SRC, PipelineConfig::with_threshold(t))),
        );
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = engine.stats();
        assert_eq!(stats.parse_misses, 1, "one front-end run");
        assert_eq!(stats.analysis_misses, 1, "one CFA for all four thresholds");
        assert_eq!(stats.analysis_hits, 3);
        assert_eq!(stats.analysis_uncached, 0);
    }

    #[test]
    fn over_budget_job_degrades_without_poisoning_the_pool() {
        let engine = Engine::with_jobs(2);
        let starved = PipelineConfig {
            budget: Budget::default().with_fuel(0),
            ..PipelineConfig::with_threshold(200)
        };
        let degraded = engine.submit(Job::new(SRC, starved)).wait().unwrap();
        assert!(degraded.health.degraded(), "zero fuel must degrade");
        // Fuel exhaustion is deterministic: no retries, no quarantine.
        assert_eq!(engine.stats().jobs_retried, 0);
        assert_eq!(engine.stats().jobs_quarantined, 0);
        // The pool still serves healthy work afterwards.
        let healthy = engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(200)))
            .wait()
            .unwrap();
        assert!(!healthy.health.degraded());
        assert_eq!(engine.stats().jobs_completed, 2);
    }

    #[test]
    fn frontend_failures_are_negatively_cached() {
        let engine = Engine::with_jobs(2);
        let bad = "(define (f x) (* x x"; // unbalanced
        let first = engine
            .submit(Job::new(bad, PipelineConfig::with_threshold(0)))
            .wait();
        let second = engine
            .submit(Job::new(bad, PipelineConfig::with_threshold(200)))
            .wait();
        assert!(matches!(first, Err(PipelineError::Frontend(_))));
        assert!(matches!(second, Err(PipelineError::Frontend(_))));
        let stats = engine.stats();
        assert_eq!(stats.parse_misses, 1, "the rejection is cached too");
        assert_eq!(stats.parse_hits, 1);
    }

    #[test]
    fn deadline_jobs_bypass_the_analysis_cache() {
        let engine = Engine::with_jobs(2);
        let deadline = PipelineConfig {
            budget: Budget::default().with_deadline(std::time::Duration::from_secs(60)),
            ..PipelineConfig::with_threshold(200)
        };
        let out = engine.submit(Job::new(SRC, deadline)).wait().unwrap();
        assert!(!out.health.degraded(), "a generous deadline still succeeds");
        let stats = engine.stats();
        assert_eq!(stats.analysis_uncached, 1);
        assert_eq!(stats.analysis_hits + stats.analysis_misses, 0);
        // And such jobs never dedup, even against an identical twin.
        let a = engine.submit(Job::new(SRC, deadline));
        let b = engine.submit(Job::new(SRC, deadline));
        assert!(!a.deduped && !b.deduped);
        a.wait().unwrap();
        b.wait().unwrap();
    }

    #[test]
    fn bypass_jobs_never_compute_fingerprints() {
        // The whole point of the bypass path: no cache keys, no fingerprints.
        let engine = Engine::with_jobs(2);
        let deadline = PipelineConfig {
            budget: Budget::default().with_deadline(std::time::Duration::from_secs(60)),
            ..PipelineConfig::with_threshold(200)
        };
        engine.submit(Job::new(SRC, deadline)).wait().unwrap();
        assert_eq!(engine.stats().fingerprints_computed, 0);
        // A cache-eligible job computes exactly four: source + whole-config
        // at submission (dedup key), source + analysis policy inside the
        // run (cache keys).
        engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(200)))
            .wait()
            .unwrap();
        assert_eq!(engine.stats().fingerprints_computed, 4);
    }

    #[test]
    fn rewrite_first_schedules_skip_the_analysis_cache() {
        let engine = Engine::with_jobs(2);
        let config = PipelineConfig {
            schedule: fdi_core::Schedule::parse("simplify*2").unwrap(),
            ..PipelineConfig::with_threshold(200)
        };
        let out = engine.submit(Job::new(SRC, config)).wait().unwrap();
        assert!(!out.health.degraded());
        let stats = engine.stats();
        // The parse artifact is still shared; only the analysis cache is
        // moot (a shared analysis would never be consumed).
        assert_eq!(stats.parse_misses, 1);
        assert_eq!(stats.analysis_hits + stats.analysis_misses, 0);
        assert_eq!(stats.analysis_uncached, 1);
        // And such jobs still dedup by whole-job key.
        let a = engine.submit(Job::new(SRC, config));
        let b = engine.submit(Job::new(SRC, config));
        a.wait().unwrap();
        b.wait().unwrap();
        assert!(a.deduped || b.deduped || engine.stats().parse_hits >= 1);
    }

    #[test]
    fn per_pass_aggregates_fold_every_completed_job() {
        let engine = Engine::with_jobs(2);
        let out = engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(200)))
            .wait()
            .unwrap();
        let stats = engine.stats();
        for name in TRACKED_PASSES {
            let p = stats.pass(name).unwrap();
            assert_eq!(p.runs, 1, "{name} must have run exactly once");
        }
        // The engine-wide fuel total is the job's own fuel accounting.
        let total: u64 = stats.passes.iter().map(|p| p.fuel).sum();
        assert_eq!(total, out.fuel_used);
        // A second job under a different threshold doubles the run counts
        // (the cached analysis still counts as an analyze run for the job).
        engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(100)))
            .wait()
            .unwrap();
        assert_eq!(engine.stats().pass("analyze").unwrap().runs, 2);
        assert_eq!(engine.stats().pass("simplify").unwrap().runs, 2);
    }

    #[test]
    fn engine_sweep_matches_sequential_sweep() {
        let engine = Engine::with_jobs(4);
        let config = PipelineConfig::default();
        let run_config = RunConfig::default();
        let thresholds = [100, 400];
        let ours = engine
            .sweep(SRC, &thresholds, &config, &run_config)
            .unwrap();
        let theirs = fdi_core::sweep(SRC, &thresholds, &config, &run_config).unwrap();
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.threshold, b.threshold);
            assert_eq!(a.value, b.value);
            assert_eq!(format!("{:?}", a.counters), format!("{:?}", b.counters));
            assert_eq!(a.norm_total.to_bits(), b.norm_total.to_bits());
            assert_eq!(a.size_ratio.to_bits(), b.size_ratio.to_bits());
        }
    }

    #[test]
    fn sweep_reports_frontend_errors_per_source() {
        let engine = Engine::with_jobs(2);
        let results = engine.sweep_many(
            &[SRC, "(oops"],
            &[200],
            &PipelineConfig::default(),
            &RunConfig::default(),
        );
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(PipelineError::Frontend(_))));
    }

    fn store_root(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fdi-engine-store-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_engine(root: &std::path::Path, faults: FaultPlan) -> Engine {
        Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            faults,
            retry_backoff: Duration::from_millis(1),
            store: Some(root.to_path_buf()),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn disk_store_round_trips_across_engine_restarts() {
        let root = store_root("roundtrip");
        let job = Job::new(SRC, PipelineConfig::with_threshold(200));

        let first = store_engine(&root, FaultPlan::default());
        assert!(first.lookup_stored(&job).is_none(), "cold store misses");
        let out = first.submit(job.clone()).wait().unwrap();
        let stats = first.stats();
        assert_eq!(stats.store_writes, 1);
        assert_eq!(stats.store_misses, 1);
        drop(first);

        // A fresh engine on the same root — the restart path — answers
        // from disk with the byte-identical optimized text.
        let second = store_engine(&root, FaultPlan::default());
        let stored = second.lookup_stored(&job).expect("warm store hits");
        assert_eq!(
            stored.optimized,
            fdi_lang::unparse(&out.optimized).to_string()
        );
        assert_eq!(stored.baseline_size, out.baseline_size);
        assert_eq!(stored.optimized_size, out.optimized_size);
        assert_eq!(stored.sites_inlined, out.report.sites_inlined);
        assert_eq!(stored.fuel_used, out.fuel_used);
        assert_eq!(
            stored.decisions,
            fdi_telemetry::DecisionTotals::tally(&out.decisions)
        );
        assert_eq!(second.stats().store_hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn degraded_outputs_are_never_persisted() {
        let root = store_root("degraded");
        let engine = store_engine(&root, FaultPlan::default());
        let starved = PipelineConfig {
            budget: Budget::default().with_fuel(0),
            ..PipelineConfig::with_threshold(200)
        };
        let job = Job::new(SRC, starved);
        let out = engine.submit(job.clone()).wait().unwrap();
        assert!(out.health.degraded(), "zero fuel must degrade");
        assert_eq!(engine.stats().store_writes, 0);
        assert!(engine.lookup_stored(&job).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bypass_jobs_never_touch_the_store() {
        let root = store_root("bypass");
        let engine = store_engine(&root, FaultPlan::default());
        let deadline = PipelineConfig {
            budget: Budget::default().with_deadline(Duration::from_secs(60)),
            ..PipelineConfig::with_threshold(200)
        };
        let job = Job::new(SRC, deadline);
        assert!(engine.lookup_stored(&job).is_none());
        engine.submit(job).wait().unwrap();
        let stats = engine.stats();
        assert_eq!(
            stats.store_hits + stats.store_misses + stats.store_writes,
            0
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_store_write_is_evicted_and_repaved() {
        // One injected `store-write` tears the first persist mid-frame —
        // the footprint of a process killed mid-write. The next lookup
        // detects the corruption, evicts, and the recompute repaves it:
        // zero wrong answers, zero poisoned jobs.
        let root = store_root("torn");
        let clean = Engine::new(EngineConfig::with_workers(2));
        let job = Job::new(SRC, PipelineConfig::with_threshold(200));
        let expected =
            fdi_lang::unparse(&clean.submit(job.clone()).wait().unwrap().optimized).to_string();

        let engine = store_engine(
            &root,
            FaultPlan::only(0xD15C, &[FaultPoint::StoreWrite]).with_limit(1),
        );
        engine.submit(job.clone()).wait().unwrap();
        assert_eq!(engine.stats().store_write_failures, 1);
        assert!(engine.lookup_stored(&job).is_none(), "torn frame: miss");
        assert_eq!(engine.stats().store_corruptions_detected, 1);
        // Recompute and re-persist (the injector's cap is spent).
        engine.submit(job.clone()).wait().unwrap();
        let stored = engine.lookup_stored(&job).expect("repaved artifact");
        assert_eq!(stored.optimized, expected, "no wrong answers, ever");
        assert!(engine.poisoned().is_empty(), "no poisoned results");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_corruption_is_detected_on_load() {
        let root = store_root("corrupt");
        let engine = store_engine(
            &root,
            FaultPlan::only(0xC0DE, &[FaultPoint::StoreCorrupt]).with_limit(1),
        );
        let job = Job::new(SRC, PipelineConfig::with_threshold(200));
        engine.submit(job.clone()).wait().unwrap();
        assert_eq!(engine.stats().store_writes, 1);
        assert!(engine.lookup_stored(&job).is_none(), "flipped byte: miss");
        assert_eq!(engine.stats().store_corruptions_detected, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_pressure_evicts_and_recomputes_byte_identically() {
        // A starvation-level cache budget: every insert overflows it, so
        // the caches thrash — and the answers must not change.
        let reference = Engine::with_jobs(2);
        let starved = Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            cache_bytes: Some(1),
            ..EngineConfig::default()
        });
        for t in [0usize, 200, 1000] {
            let job = || Job::new(SRC, PipelineConfig::with_threshold(t));
            let want = reference.submit(job()).wait().unwrap();
            let got = starved.submit(job()).wait().unwrap();
            assert_eq!(
                fdi_lang::unparse(&got.optimized).to_string(),
                fdi_lang::unparse(&want.optimized).to_string(),
                "threshold {t}: pressure eviction changed the answer"
            );
            assert!(!got.health.degraded());
        }
        let stats = starved.stats();
        assert!(
            stats.cache_evictions_pressure > 0,
            "a 1-byte budget must shed entries"
        );
        assert_eq!(stats.cache_evictions_fault, 0);
        assert_eq!(stats.cache_evictions_corruption, 0);
        assert!(
            stats.cache_bytes_used <= 1,
            "footprint gauge must respect the budget at rest"
        );
        // The specialization cache charges the same budget and must shed
        // under it too, never holding bytes the keyed caches were denied.
        assert!(
            stats.spec_evictions > 0,
            "a 1-byte budget must shed specializations"
        );
        // The unbounded reference never sheds and reports no byte gauge.
        assert_eq!(reference.stats().cache_evictions_pressure, 0);
    }

    #[test]
    fn bounded_cache_still_dedups_inflight_and_serves_hits() {
        // A roomy budget: entries fit, so bounding must not cost hits.
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            cache_bytes: Some(64 << 20),
            ..EngineConfig::default()
        });
        for t in [0usize, 200] {
            engine
                .submit(Job::new(SRC, PipelineConfig::with_threshold(t)))
                .wait()
                .unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.parse_misses, 1, "one parse, shared");
        assert_eq!(stats.parse_hits, 1);
        assert_eq!(stats.cache_evictions_pressure, 0);
        assert!(stats.cache_bytes_used > 0, "footprint gauge is live");
    }

    #[test]
    fn store_quota_gc_bounds_the_footprint_without_losing_answers() {
        // Size one artifact with an unbounded store first.
        let probe_root = store_root("quota-probe");
        let probe = store_engine(&probe_root, FaultPlan::default());
        probe
            .submit(Job::new(SRC, PipelineConfig::with_threshold(0)))
            .wait()
            .unwrap();
        let one = probe.stats().store_bytes_used;
        assert!(one > 0);
        drop(probe);
        let _ = std::fs::remove_dir_all(&probe_root);

        let root = store_root("quota");
        let quota = 2 * one + one / 2;
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            store: Some(root.clone()),
            store_bytes: Some(quota),
            ..EngineConfig::default()
        });
        for t in [0usize, 100, 200, 400] {
            let out = engine
                .submit(Job::new(SRC, PipelineConfig::with_threshold(t)))
                .wait()
                .unwrap();
            assert!(!out.health.degraded());
        }
        let stats = engine.stats();
        assert_eq!(stats.store_writes, 4, "every output persisted");
        assert!(stats.store_gc_evictions >= 1, "the quota must bite");
        assert!(
            stats.store_bytes_used <= quota,
            "footprint {} over quota {quota}",
            stats.store_bytes_used
        );
        // The most recent artifact survived the GC and serves warm.
        let last = Job::new(SRC, PipelineConfig::with_threshold(400));
        assert!(engine.lookup_stored(&last).is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_full_degrades_to_memory_only_and_recovers() {
        let root = store_root("enospc");
        // Three injected ENOSPC rejections, then the disk "frees up".
        let engine = store_engine(
            &root,
            FaultPlan::only(0xF11, &[FaultPoint::StoreFull]).with_limit(STORE_DEGRADE_AFTER as u32),
        );
        for t in [0usize, 100, 200] {
            let out = engine
                .submit(Job::new(SRC, PipelineConfig::with_threshold(t)))
                .wait()
                .unwrap();
            assert!(!out.health.degraded(), "ENOSPC must never fail a request");
        }
        let stats = engine.stats();
        assert_eq!(stats.store_writes, 0);
        assert_eq!(stats.store_write_failures, STORE_DEGRADE_AFTER);
        assert!(engine.resources().store_degraded, "memory-only after 3");
        // Memory-only: the next outputs skip the store entirely…
        for t in 1..STORE_PROBE_EVERY {
            engine
                .submit(Job::new(
                    SRC,
                    PipelineConfig::with_threshold(1000 + t as usize),
                ))
                .wait()
                .unwrap();
        }
        assert_eq!(engine.stats().store_write_failures, STORE_DEGRADE_AFTER);
        // …until the probe write lands (the injector's cap is spent) and
        // persistence re-enables itself.
        engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(5000)))
            .wait()
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.store_writes, 1, "the probe write landed");
        assert!(!engine.resources().store_degraded, "recovered");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retry_backoff_is_capped_by_the_job_deadline() {
        // A persistent miscompile with generous retries, but a budget
        // deadline the backoff schedule must not overshoot: without the
        // cap this job would sleep 80+160+…+800 ms across ten retries.
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            max_retries: 10,
            retry_backoff: Duration::from_millis(80),
            ..EngineConfig::default()
        });
        let config = PipelineConfig {
            faults: FaultPlan::only(5, &[FaultPoint::Miscompile]),
            oracle: OracleConfig::on(),
            budget: Budget::default().with_deadline(Duration::from_millis(200)),
            ..PipelineConfig::with_threshold(200)
        };
        let started = Instant::now();
        let out = engine.submit(Job::new(SRC, config)).wait().unwrap();
        let elapsed = started.elapsed();
        assert!(out.health.oracle_rejected(), "miscompile still caught");
        let stats = engine.stats();
        assert_eq!(stats.jobs_quarantined, 1);
        assert!(
            stats.jobs_retried < 10,
            "deadline must cut the retry schedule short ({} retries)",
            stats.jobs_retried
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "retry wall must stay inside the deadline's order of magnitude ({elapsed:?})"
        );
    }

    fn chaos_engine(points: &[FaultPoint], limit: u32) -> Engine {
        Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            faults: FaultPlan::only(0xE17, points).with_limit(limit),
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn worker_panic_respawns_and_later_jobs_still_complete() {
        // Satellite regression: a worker panic mid-batch is followed by
        // successful completion of later jobs, and the queue high-water
        // mark stays monotone across snapshots.
        let engine = chaos_engine(&[FaultPoint::WorkerPanic], 2);
        let mut highwater = 0;
        for t in [0usize, 100, 200, 400, 800] {
            let out = engine
                .submit(Job::new(SRC, PipelineConfig::with_threshold(t)))
                .wait()
                .unwrap();
            assert!(!out.health.degraded(), "threshold {t} run degraded");
            let snap = engine.stats();
            assert!(snap.queue_highwater >= highwater, "high-water regressed");
            highwater = snap.queue_highwater;
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_completed, 5, "no job lost to worker panics");
        assert_eq!(stats.workers_respawned, 2, "both injected panics respawned");
    }

    #[test]
    fn cache_abandon_is_retried_to_success() {
        let engine = chaos_engine(&[FaultPoint::CacheAbandon], 1);
        let out = engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(200)))
            .wait()
            .unwrap();
        assert!(!out.health.degraded());
        let stats = engine.stats();
        assert_eq!(stats.jobs_retried, 1, "one abandoned fill, one retry");
        assert_eq!(stats.jobs_quarantined, 0);
        assert_eq!(stats.parse_misses, 1, "the retry's fill succeeded");
    }

    #[test]
    fn cache_corruption_is_detected_and_recomputed() {
        let engine = chaos_engine(&[FaultPoint::CacheCorrupt], 1);
        let a = engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(0)))
            .wait()
            .unwrap();
        // Same source again: the hit's recheck sees the corrupted checksum.
        let b = engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(200)))
            .wait()
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.cache_corruptions_detected, 1);
        assert_eq!(stats.parse_misses, 2, "corrupted artifact was recomputed");
        // Corruption is repaired, never served: both runs are healthy.
        assert!(!a.health.degraded() && !b.health.degraded());
    }

    #[test]
    fn cache_evict_forces_recompute() {
        let engine = chaos_engine(&[FaultPoint::CacheEvict], 1);
        engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(0)))
            .wait()
            .unwrap();
        engine
            .submit(Job::new(SRC, PipelineConfig::with_threshold(200)))
            .wait()
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.cache_evictions_fault, 1);
        assert_eq!(stats.parse_misses, 2, "evicted artifact was recomputed");
    }

    #[test]
    fn persistent_transient_failures_quarantine() {
        // A job whose own fault plan miscompiles on *every* seed (rate 1/1,
        // so reseeding cannot clear it) keeps tripping the oracle; the
        // supervisor exhausts its retries and quarantines the job.
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let config = PipelineConfig {
            faults: FaultPlan::only(5, &[FaultPoint::Miscompile]),
            oracle: OracleConfig::on(),
            ..PipelineConfig::with_threshold(200)
        };
        let out = engine.submit(Job::new(SRC, config)).wait().unwrap();
        assert!(
            out.health.oracle_rejected(),
            "the miscompile must be caught, not shipped"
        );
        let stats = engine.stats();
        assert_eq!(stats.jobs_retried, 2, "default policy: two retries");
        assert_eq!(stats.jobs_quarantined, 1);
        let poisoned = engine.poisoned();
        assert_eq!(poisoned.len(), 1);
        assert_eq!(poisoned[0].attempts, 3);
        assert!(matches!(
            poisoned[0].error,
            PipelineError::OracleRejected { .. }
        ));
    }

    /// A matched engine profile for `src` with a distinctive fingerprint.
    fn test_profile(src: &str) -> EngineProfile {
        let mut guide = InlineGuide::new();
        guide.set("l1".to_string(), 1_000);
        EngineProfile {
            source_fp: source_fingerprint(src),
            fingerprint: 0x51de_600d_51de_600d,
            guide: Arc::new(guide),
        }
    }

    #[test]
    fn guided_and_static_modes_never_share_a_store_key() {
        let root = store_root("profile-modes");
        let job = Job::new(SRC, PipelineConfig::with_threshold(200));

        // A static engine persists the job under the static key.
        let static_engine = store_engine(&root, FaultPlan::default());
        static_engine.submit(job.clone()).wait().unwrap();
        assert_eq!(static_engine.stats().store_writes, 1);
        drop(static_engine);

        // A guided engine over the same root must MISS on lookup: its
        // profile rewrites the job key, so the static artifact is invisible
        // to it — no cross-mode cache hit, ever.
        let guided = Engine::new(EngineConfig {
            workers: 2,
            queue_cap: 8,
            retry_backoff: Duration::from_millis(1),
            store: Some(root.clone()),
            profile: Some(test_profile(SRC)),
            ..EngineConfig::default()
        });
        assert!(
            guided.lookup_stored(&job).is_none(),
            "a guided engine must not serve a static-mode artifact"
        );
        // The probe applied the profile silently: no counter moved.
        assert_eq!(guided.stats().profile_applied, 0);

        // The guided engine computes and persists under its own key…
        guided.submit(job.clone()).wait().unwrap();
        let stats = guided.stats();
        assert_eq!(stats.profile_applied, 1);
        assert_eq!(stats.profile_stale, 0);
        assert_eq!(stats.store_writes, 1, "guided artifact is a new write");
        // …which it can then find again.
        assert!(guided.lookup_stored(&job).is_some());
        drop(guided);

        // And the static view of the same root still resolves to the
        // original static artifact.
        let static_again = store_engine(&root, FaultPlan::default());
        assert!(static_again.lookup_stored(&job).is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_profile_degrades_to_static_with_a_typed_instant() {
        use fdi_telemetry::{Event, RingSink, Telemetry};

        let sink = Arc::new(RingSink::with_capacity(4096));
        let telemetry = Telemetry::with_collector(sink.clone());
        // A profile collected from some *other* source: stale for SRC.
        let engine = Engine::with_telemetry(
            EngineConfig {
                workers: 2,
                queue_cap: 8,
                profile: Some(test_profile("(define (other y) y) (other 1)")),
                ..EngineConfig::default()
            },
            &telemetry,
        );
        let job = Job::new(SRC, PipelineConfig::with_threshold(200));
        let out = engine.submit(job.clone()).wait().unwrap();

        let stats = engine.stats();
        assert_eq!(stats.profile_stale, 1);
        assert_eq!(stats.profile_applied, 0);
        assert!(
            sink.drain()
                .iter()
                .any(|e| matches!(e, Event::Instant { name, .. } if name == "profile.stale")),
            "staleness must be visible in telemetry, not silent"
        );

        // The degraded run is byte-identical to a profile-less engine's.
        let plain = Engine::with_jobs(2);
        let expected = plain.submit(job).wait().unwrap();
        assert_eq!(
            fdi_lang::unparse(&out.optimized).to_string(),
            fdi_lang::unparse(&expected.optimized).to_string()
        );
        assert_eq!(out.decisions, expected.decisions);
    }
}
