//! Memoized specialization: a content-addressed cache of depth-0
//! specialization attempts, shared across inliner runs.
//!
//! The paper's `Inline?` gate is the *only* place the size threshold `T`
//! enters an outermost specialization: the specialized body itself is a
//! deterministic function of the callee closure, the inliner's mode/unroll
//! knobs, and a small *footprint* of ambient facts (which enclosing
//! renamings and loop-map entries the construction consulted). A sweep over
//! many thresholds can therefore build each specialization once and replay
//! it — relocated into the current arena — at every other threshold where
//! the recorded gate/abort observations stay consistent, re-evaluating only
//! the gate.
//!
//! Keys are `(salt, callee closure, direct-local flag)`, where the salt
//! fingerprints everything else the construction can read: source program,
//! analysis configuration, and the inliner's mode/unroll. Each key holds a
//! small bucket of variants distinguished by footprint, because the same
//! callee can specialize differently under different ambient scopes.

use crate::{InlineReport, SpecAttempt};
use fdi_cfa::{ClosureId, ContourId};
use fdi_lang::{Label, VarId, VarInfo};
use fdi_telemetry::DecisionRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Byte accounting hook: lets an embedder charge the cache's contents
/// against a budget shared with its other caches. The cache sheds its own
/// least-recently-used entries while [`CacheLedger::over_limit`] holds.
pub trait CacheLedger: Send + Sync {
    /// Account `bytes` of newly cached data.
    fn charge(&self, bytes: usize);
    /// Return `bytes` of evicted data.
    fn release(&self, bytes: usize);
    /// True while the combined budget is over its limit.
    fn over_limit(&self) -> bool;
}

/// A ledger with no limit: the cache never sheds under pressure.
pub struct UnboundedLedger;

impl CacheLedger for UnboundedLedger {
    fn charge(&self, _bytes: usize) {}
    fn release(&self, _bytes: usize) {}
    fn over_limit(&self) -> bool {
        false
    }
}

/// Cache key: content salt, callee closure, and whether the site is a
/// direct call to the locally-bound procedure (which relaxes the
/// free-variable discipline, so it specializes differently).
pub(crate) type SpecKey = (u64, ClosureId, bool);

/// One ambient fact the specialization consulted; replay is valid only
/// where the same query gives the same answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FootDep {
    /// `lookup(v)` resolved outside the region (or not at all).
    Var(VarId, Option<Option<VarId>>),
    /// `loop_var(λ, κ)` resolved outside the region (or not at all).
    Loop(Label, ContourId, Option<(VarId, bool)>),
}

/// Live bookkeeping while one depth-0 specialization records an entry.
pub(crate) struct Recording {
    /// Ambient renaming-stack height at region start: finds below this
    /// index are footprint facts.
    pub vmark: usize,
    /// Ambient loop-map height at region start.
    pub lmark: usize,
    /// Decision-log length at region start.
    pub dmark: usize,
    /// Arena sizes at region start (the relocation bases).
    pub e0: usize,
    pub v0: usize,
    pub report_base: InlineReport,
    pub deps: Vec<FootDep>,
    /// Capture layouts pinned inside the region.
    pub pins: Vec<(Label, Vec<VarId>)>,
    /// Largest nested specialization the gate *accepted* (valid only while
    /// `< T'`) and smallest it *rejected* (valid only while `≥ T'`).
    pub max_accepted: Option<usize>,
    pub min_rejected: Option<usize>,
    /// Largest arena growth that *passed* an abort-guard checkpoint, and
    /// the growth that tripped it (for aborted regions).
    pub max_growth: usize,
    pub trip_growth: Option<usize>,
}

impl Recording {
    pub(crate) fn new(
        vmark: usize,
        lmark: usize,
        dmark: usize,
        e0: usize,
        v0: usize,
        report_base: InlineReport,
    ) -> Recording {
        Recording {
            vmark,
            lmark,
            dmark,
            e0,
            v0,
            report_base,
            deps: Vec::new(),
            pins: Vec::new(),
            max_accepted: None,
            min_rejected: None,
            max_growth: 0,
            trip_growth: None,
        }
    }

    pub(crate) fn note_var(&mut self, v: VarId, seen: Option<Option<VarId>>) {
        if !self
            .deps
            .iter()
            .any(|d| matches!(d, FootDep::Var(w, _) if *w == v))
        {
            self.deps.push(FootDep::Var(v, seen));
        }
    }

    pub(crate) fn note_loop(&mut self, lam: Label, k: ContourId, seen: Option<(VarId, bool)>) {
        if !self
            .deps
            .iter()
            .any(|d| matches!(d, FootDep::Loop(l, c, _) if *l == lam && *c == k))
        {
            self.deps.push(FootDep::Loop(lam, k, seen));
        }
    }

    /// A nested `Inline?` verdict at the recording threshold.
    pub(crate) fn note_gate(&mut self, size: usize, accepted: bool) {
        if accepted {
            self.max_accepted = Some(self.max_accepted.map_or(size, |m| m.max(size)));
        } else {
            self.min_rejected = Some(self.min_rejected.map_or(size, |m| m.min(size)));
        }
    }
}

/// One memoized specialization: the arena delta `[e0‥)`/`[v0‥)` the region
/// built, plus everything needed to replay it byte-identically and to
/// decide at which thresholds the replay is faithful.
pub(crate) struct SpecEntry {
    e0: u32,
    v0: u32,
    exprs: Vec<fdi_lang::ExprKind>,
    vars: Vec<VarInfo>,
    pins: Vec<(Label, Vec<VarId>)>,
    pub(crate) deps: Vec<FootDep>,
    report_delta: InlineReport,
    decisions: Vec<DecisionRecord>,
    max_accepted: Option<usize>,
    min_rejected: Option<usize>,
    max_growth: usize,
    trip_growth: Option<usize>,
    outcome: SpecAttempt,
    bytes: usize,
}

impl SpecEntry {
    pub(crate) fn from_recording(
        rec: Recording,
        outcome: SpecAttempt,
        exprs: Vec<fdi_lang::ExprKind>,
        vars: Vec<VarInfo>,
        report_now: InlineReport,
        decisions_now: &[DecisionRecord],
    ) -> SpecEntry {
        let decisions = decisions_now[rec.dmark..].to_vec();
        let bytes = 160
            + exprs.len() * 56
            + vars.len() * 24
            + rec.deps.len() * 40
            + rec
                .pins
                .iter()
                .map(|(_, v)| 24 + v.len() * 8)
                .sum::<usize>()
            + decisions
                .iter()
                .map(|d| 96 + d.site_label.len() + d.contour.len() + d.callee.len())
                .sum::<usize>();
        SpecEntry {
            e0: rec.e0 as u32,
            v0: rec.v0 as u32,
            exprs,
            vars,
            pins: rec.pins,
            deps: rec.deps,
            report_delta: report_now.delta_from(rec.report_base),
            decisions,
            max_accepted: rec.max_accepted,
            min_rejected: rec.min_rejected,
            max_growth: rec.max_growth,
            trip_growth: rec.trip_growth,
            outcome,
            bytes,
        }
    }

    pub(crate) fn bases(&self) -> (u32, u32) {
        (self.e0, self.v0)
    }

    pub(crate) fn exprs(&self) -> &[fdi_lang::ExprKind] {
        &self.exprs
    }

    pub(crate) fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    pub(crate) fn pins(&self) -> &[(Label, Vec<VarId>)] {
        &self.pins
    }

    pub(crate) fn report_delta(&self) -> InlineReport {
        self.report_delta
    }

    pub(crate) fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    pub(crate) fn outcome(&self) -> &SpecAttempt {
        &self.outcome
    }

    /// Would a live run at threshold `t` have made the same construction?
    /// Every nested gate verdict and every abort-guard checkpoint must come
    /// out the same way.
    fn valid_at(&self, t: usize) -> bool {
        if let Some(a) = self.max_accepted {
            if a >= t {
                return false;
            }
        }
        if let Some(r) = self.min_rejected {
            if r < t {
                return false;
            }
        }
        let cap = t.max(1) * 8;
        match self.trip_growth {
            None => self.max_growth <= cap,
            Some(trip) => self.max_growth <= cap && trip > cap,
        }
    }
}

struct Stored {
    entry: Arc<SpecEntry>,
    last_used: u64,
}

struct SpecInner {
    map: HashMap<SpecKey, Vec<Stored>>,
    /// Every stored entry's `last_used` tick, oldest first, with its key:
    /// the pressure-eviction order. Ticks are unique (each probe or insert
    /// takes a fresh one and stamps at most one entry), so the first entry
    /// is exactly the least-recently-used one.
    lru: BTreeMap<u64, SpecKey>,
    tick: u64,
    bytes: usize,
}

/// Aggregate counters of one [`SpecializationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecCacheStats {
    /// Probes that replayed a memoized specialization.
    pub hits: u64,
    /// Probes that fell through to a live (recording) specialization.
    pub misses: u64,
    /// Entries shed — variant-bucket overflow, budget pressure, or a
    /// [`SpecializationCache::clear`].
    pub evictions: u64,
    /// Estimated bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// Variants kept per key before the stalest is shed: the same callee under
/// a handful of distinct ambient scopes covers real programs; unbounded
/// buckets would let one churning scope chain hold memory hostage. Eight
/// comfortably spans a six-threshold sweep whose validity intervals split
/// per threshold, without letting a churning scope chain grow unchecked.
const MAX_VARIANTS: usize = 8;

/// The shared, thread-safe memo table. See the module docs for the model.
pub struct SpecializationCache {
    inner: Mutex<SpecInner>,
    ledger: Box<dyn CacheLedger>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SpecializationCache {
    /// A cache charging its contents to `ledger`.
    pub fn new(ledger: Box<dyn CacheLedger>) -> SpecializationCache {
        SpecializationCache {
            inner: Mutex::new(SpecInner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                bytes: 0,
            }),
            ledger,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache that never sheds under pressure.
    pub fn unbounded() -> SpecializationCache {
        SpecializationCache::new(Box::new(UnboundedLedger))
    }

    /// Finds a variant of `key` whose threshold interval admits `threshold`
    /// and whose footprint still holds (per `deps_hold`).
    pub(crate) fn probe(
        &self,
        key: SpecKey,
        threshold: usize,
        deps_hold: impl Fn(&[FootDep]) -> bool,
    ) -> Option<Arc<SpecEntry>> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(bucket) = inner.map.get_mut(&key) {
            for stored in bucket.iter_mut() {
                if stored.entry.valid_at(threshold) && deps_hold(&stored.entry.deps) {
                    inner.lru.remove(&stored.last_used);
                    inner.lru.insert(tick, key);
                    stored.last_used = tick;
                    self.hits.fetch_add(1, Relaxed);
                    return Some(stored.entry.clone());
                }
            }
        }
        self.misses.fetch_add(1, Relaxed);
        None
    }

    pub(crate) fn insert(&self, key: SpecKey, entry: SpecEntry) {
        let bytes = entry.bytes;
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let bucket = inner.map.entry(key).or_default();
        let mut freed = 0usize;
        let mut evicted = 0u64;
        if bucket.len() >= MAX_VARIANTS {
            let stalest = bucket
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("non-empty bucket");
            let gone = bucket.remove(stalest);
            inner.lru.remove(&gone.last_used);
            freed += gone.entry.bytes;
            evicted += 1;
        }
        bucket.push(Stored {
            entry: Arc::new(entry),
            last_used: tick,
        });
        inner.lru.insert(tick, key);
        inner.bytes = inner.bytes + bytes - freed;
        self.ledger.charge(bytes);
        if freed > 0 {
            self.ledger.release(freed);
        }
        // Shed least-recently-used entries while the shared budget is over
        // its limit; an entry we cannot afford is better dropped than kept
        // at the expense of the engine's other caches.
        while self.ledger.over_limit() {
            let Some((last_used, key)) = inner.lru.pop_first() else {
                break;
            };
            let bucket = inner.map.get_mut(&key).expect("indexed entry has a bucket");
            let idx = bucket
                .iter()
                .position(|s| s.last_used == last_used)
                .expect("indexed entry is in its bucket");
            let gone = bucket.remove(idx);
            if bucket.is_empty() {
                inner.map.remove(&key);
            }
            inner.bytes -= gone.entry.bytes;
            self.ledger.release(gone.entry.bytes);
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Relaxed);
    }

    /// Drops every entry (the `spec-cache-evict` chaos fault lands here).
    /// Subsequent runs re-record; output is unaffected by construction.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        let freed = inner.bytes;
        let dropped = inner.lru.len();
        inner.map.clear();
        inner.lru.clear();
        inner.bytes = 0;
        self.ledger.release(freed);
        self.evictions.fetch_add(dropped as u64, Relaxed);
    }

    /// Aggregate counters since construction.
    pub fn stats(&self) -> SpecCacheStats {
        let inner = self.inner.lock().unwrap();
        SpecCacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            bytes: inner.bytes as u64,
            entries: inner.lru.len() as u64,
        }
    }
}

impl std::fmt::Debug for SpecializationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SpecializationCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .field("bytes", &s.bytes)
            .field("entries", &s.entries)
            .finish()
    }
}
