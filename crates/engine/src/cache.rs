//! The content-addressed artifact cache and its in-flight computation
//! gates.
//!
//! Two layers:
//!
//! * [`Gate`] — a write-once cell a computing thread fills and any number of
//!   threads wait on (the engine also uses gates directly for job results
//!   and sweep executions);
//! * [`KeyedCache`] — a keyed map of gates with *in-flight deduplication*:
//!   the first thread to ask for a key computes it, every concurrent asker
//!   blocks on the same gate, and later askers read the finished value. A
//!   key is therefore computed at most once, which is the engine's central
//!   invariant ("one CFA per (program, policy)").
//!
//! Values are cached as `Result`s: contained failures (frontend rejections,
//! analysis panics) are deterministic for a given key and are negatively
//! cached like any other artifact.
//!
//! Panic safety: compute closures are expected to be *total* (the engine
//! only passes panic-contained closures). If one unwinds anyway, a guard
//! abandons the gate — waiters wake up and retry the computation themselves
//! instead of blocking forever.
//!
//! Resource governance: a cache may be constructed *bounded* against a
//! shared [`CacheBudget`] — a byte limit spanning every cache that charges
//! it. Ready entries are byte-accounted (via a caller-supplied sizer) and
//! stamped with a recency tick; when an insert pushes the shared budget over
//! its limit, the inserting cache evicts its own least-recently-used ready
//! entries until the budget fits (or it has nothing left to give — a sibling
//! cache holding the bytes sheds them on *its* next insert). In-flight
//! entries carry no bytes and are never pressure-evicted: evicting one would
//! strand its waiters, and its cost isn't known until it resolves.

use fdi_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug)]
struct GateState<V> {
    value: Option<V>,
    abandoned: bool,
}

/// A write-once value cell with blocking readers.
#[derive(Debug)]
pub(crate) struct Gate<V> {
    state: Mutex<GateState<V>>,
    ready: Condvar,
}

impl<V: Clone> Gate<V> {
    pub(crate) fn new() -> Gate<V> {
        Gate {
            state: Mutex::new(GateState {
                value: None,
                abandoned: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Publishes the value and wakes every waiter.
    pub(crate) fn set(&self, v: V) {
        let mut s = self.state.lock().unwrap();
        debug_assert!(s.value.is_none(), "gate filled twice");
        s.value = Some(v);
        self.ready.notify_all();
    }

    /// Marks the gate as never-to-be-filled and wakes every waiter.
    fn abandon(&self) {
        let mut s = self.state.lock().unwrap();
        s.abandoned = true;
        self.ready.notify_all();
    }

    /// Blocks until the value is published (`Some`) or the computation was
    /// abandoned (`None`).
    pub(crate) fn wait(&self) -> Option<V> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(v) = &s.value {
                return Some(v.clone());
            }
            if s.abandoned {
                return None;
            }
            s = self.ready.wait(s).unwrap();
        }
    }

    /// Like [`Gate::wait`], but gives up at `deadline`: the outer `None`
    /// means the gate was still unfilled when time ran out (the computation
    /// keeps running — only this waiter stops watching). This is what turns
    /// a serve-mode request deadline into a typed timeout instead of a hung
    /// connection.
    pub(crate) fn wait_deadline(&self, deadline: std::time::Instant) -> Option<Option<V>> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(v) = &s.value {
                return Some(Some(v.clone()));
            }
            if s.abandoned {
                return Some(None);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            (s, _) = self.ready.wait_timeout(s, deadline - now).unwrap();
        }
    }
}

/// A byte budget shared by every cache constructed against it.
///
/// `used` is the sum of ready-entry bytes across all charging caches (a
/// gauge); entries shed to fit the limit are counted in the engine's
/// registry, next to fault and corruption evictions.
pub(crate) struct CacheBudget {
    limit: usize,
    used: AtomicUsize,
    metrics: Arc<MetricsRegistry>,
}

impl CacheBudget {
    pub(crate) fn new(limit: usize, metrics: Arc<MetricsRegistry>) -> Arc<CacheBudget> {
        Arc::new(CacheBudget {
            limit,
            used: AtomicUsize::new(0),
            metrics,
        })
    }

    /// Ready-entry bytes currently charged against this budget.
    pub(crate) fn bytes_used(&self) -> usize {
        self.used.load(Relaxed)
    }

    /// The configured limit (`usize::MAX` when accounting-only).
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }
}

/// Lets the inliner's shared [`fdi_core::SpecializationCache`] charge the
/// same byte budget as the engine's keyed caches: one `cache_bytes` limit
/// spans parses, analyses, exec cells, and specializations. The spec cache
/// sheds its own LRU entries while [`CacheLedger::over_limit`] holds, and
/// counts those sheds itself ([`fdi_core::SpecCacheStats::evictions`]), so
/// this adapter moves bytes only — never the pressure-eviction counter.
pub(crate) struct BudgetLedger(pub(crate) Arc<CacheBudget>);

impl fdi_core::CacheLedger for BudgetLedger {
    fn charge(&self, bytes: usize) {
        self.0.used.fetch_add(bytes, Relaxed);
    }

    fn release(&self, bytes: usize) {
        self.0.used.fetch_sub(bytes, Relaxed);
    }

    fn over_limit(&self) -> bool {
        self.0.used.load(Relaxed) > self.0.limit
    }
}

#[derive(Debug)]
struct Ready<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug)]
enum Slot<V> {
    InFlight(Arc<Gate<V>>),
    Ready(Ready<V>),
}

/// A content-addressed cache with in-flight deduplication and (optionally)
/// byte-accounted LRU eviction against a shared [`CacheBudget`].
pub(crate) struct KeyedCache<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    budget: Option<Arc<CacheBudget>>,
    size_of: fn(&V) -> usize,
    tick: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> KeyedCache<K, V> {
    /// An unbounded cache: entries are never pressure-evicted and carry no
    /// byte accounting.
    pub(crate) fn new() -> KeyedCache<K, V> {
        KeyedCache {
            map: Mutex::new(HashMap::new()),
            budget: None,
            size_of: |_| 0,
            tick: AtomicU64::new(0),
        }
    }

    /// A cache charging `budget` for every ready entry, sized by `size_of`.
    pub(crate) fn bounded(budget: Arc<CacheBudget>, size_of: fn(&V) -> usize) -> KeyedCache<K, V> {
        KeyedCache {
            map: Mutex::new(HashMap::new()),
            budget: Some(budget),
            size_of,
            tick: AtomicU64::new(0),
        }
    }

    /// Number of cached (ready or in-flight) entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Drops the *ready* entry for `key`, forcing the next asker to
    /// recompute. In-flight entries are left alone — evicting one would
    /// strand its waiters — so eviction of a key being computed is a no-op.
    /// Returns whether an entry was removed.
    pub(crate) fn evict(&self, key: &K) -> bool {
        let mut map = self.map.lock().unwrap();
        match map.get(key) {
            Some(Slot::Ready(_)) => {
                if let Some(Slot::Ready(r)) = map.remove(key) {
                    self.discharge(r.bytes);
                }
                true
            }
            _ => false,
        }
    }

    /// Returns the bytes an eviction must give back to the budget.
    fn discharge(&self, bytes: usize) {
        if let Some(budget) = &self.budget {
            budget.used.fetch_sub(bytes, Relaxed);
        }
    }

    /// Sheds this cache's least-recently-used ready entries while the
    /// shared budget is over its limit. Stops when the budget fits or this
    /// cache has no ready entries left — never touches in-flight slots, and
    /// never blocks another cache (the budget is atomics, not a lock).
    fn enforce_budget(&self, map: &mut HashMap<K, Slot<V>>) {
        let Some(budget) = &self.budget else { return };
        while budget.used.load(Relaxed) > budget.limit {
            let lru = map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(r) => Some((r.last_used, k)),
                    Slot::InFlight(_) => None,
                })
                .min_by_key(|(t, _)| *t)
                .map(|(_, k)| k.clone());
            let Some(key) = lru else { break };
            if let Some(Slot::Ready(r)) = map.remove(&key) {
                budget.used.fetch_sub(r.bytes, Relaxed);
                budget.metrics.add("engine.cache_evictions_pressure", 1);
            }
        }
    }

    /// Returns the value for `key`, computing it at most once across all
    /// threads.
    ///
    /// The boolean is `true` on a *hit*: the value came from the cache or
    /// from another thread's in-flight computation (waited on). It is
    /// `false` exactly when this call ran `compute`.
    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let mut compute = Some(compute);
        loop {
            let gate = {
                let mut map = self.map.lock().unwrap();
                match map.get_mut(&key) {
                    Some(Slot::Ready(r)) => {
                        r.last_used = self.tick.fetch_add(1, Relaxed);
                        return (r.value.clone(), true);
                    }
                    Some(Slot::InFlight(g)) => g.clone(),
                    None => {
                        let g = Arc::new(Gate::new());
                        map.insert(key.clone(), Slot::InFlight(g.clone()));
                        drop(map);
                        // Owner path: compute, publish, fill the gate. The
                        // guard abandons the gate if `compute` unwinds so
                        // waiters retry instead of hanging.
                        let mut guard = AbandonOnUnwind {
                            cache: self,
                            key: &key,
                            gate: &g,
                            armed: true,
                        };
                        let v = (compute.take().expect("compute consumed twice"))();
                        guard.armed = false;
                        let bytes = (self.size_of)(&v);
                        if let Some(budget) = &self.budget {
                            budget.used.fetch_add(bytes, Relaxed);
                        }
                        let mut map = self.map.lock().unwrap();
                        map.insert(
                            key.clone(),
                            Slot::Ready(Ready {
                                value: v.clone(),
                                bytes,
                                // Freshest tick: under pressure the entry
                                // just computed is the last to go.
                                last_used: self.tick.fetch_add(1, Relaxed),
                            }),
                        );
                        self.enforce_budget(&mut map);
                        drop(map);
                        g.set(v.clone());
                        return (v, false);
                    }
                }
            };
            match gate.wait() {
                Some(v) => return (v, true),
                // The owner unwound; race to become the new owner.
                None => continue,
            }
        }
    }
}

/// Removes the in-flight entry and abandons its gate if the owning
/// computation unwinds.
struct AbandonOnUnwind<'a, K: Eq + Hash + Clone, V: Clone> {
    cache: &'a KeyedCache<K, V>,
    key: &'a K,
    gate: &'a Gate<V>,
    armed: bool,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for AbandonOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.map.lock().unwrap().remove(self.key);
            self.gate.abandon();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Duration;

    #[test]
    fn computes_once_and_hits_after() {
        let c: KeyedCache<u64, u64> = KeyedCache::new();
        let runs = AtomicU64::new(0);
        let (v, hit) = c.get_or_compute(7, || {
            runs.fetch_add(1, Relaxed);
            42
        });
        assert_eq!((v, hit), (42, false));
        let (v, hit) = c.get_or_compute(7, || {
            runs.fetch_add(1, Relaxed);
            99
        });
        assert_eq!((v, hit), (42, true));
        assert_eq!(runs.load(Relaxed), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_askers_share_one_computation() {
        let c: Arc<KeyedCache<u64, u64>> = Arc::new(KeyedCache::new());
        let runs = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (c, runs, hits) = (c.clone(), runs.clone(), hits.clone());
                std::thread::spawn(move || {
                    let (v, hit) = c.get_or_compute(1, || {
                        // Slow compute: give the other threads time to pile
                        // onto the in-flight gate.
                        std::thread::sleep(Duration::from_millis(30));
                        runs.fetch_add(1, Relaxed);
                        7
                    });
                    if hit {
                        hits.fetch_add(1, Relaxed);
                    }
                    assert_eq!(v, 7);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(runs.load(Relaxed), 1, "exactly one computation");
        assert_eq!(hits.load(Relaxed), 7, "everyone else shared it");
    }

    #[test]
    fn unwinding_owner_does_not_strand_waiters() {
        let c: Arc<KeyedCache<u64, u64>> = Arc::new(KeyedCache::new());
        let c2 = c.clone();
        let owner = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(5, || {
                    std::thread::sleep(Duration::from_millis(20));
                    panic!("owner died");
                })
            }));
        });
        std::thread::sleep(Duration::from_millis(5));
        // This waiter piles onto the in-flight gate, sees it abandoned, and
        // becomes the new owner.
        let (v, _) = c.get_or_compute(5, || 11);
        assert_eq!(v, 11);
        owner.join().unwrap();
    }

    #[test]
    fn wait_deadline_times_out_then_still_sees_the_value() {
        use std::time::Instant;
        let g: Arc<Gate<u64>> = Arc::new(Gate::new());
        // Unfilled gate, expired deadline: immediate timeout, not a hang.
        assert_eq!(g.wait_deadline(Instant::now()), None);
        let g2 = g.clone();
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            g2.set(9);
        });
        // A deadline shorter than the fill sees a timeout…
        assert_eq!(
            g.wait_deadline(Instant::now() + Duration::from_millis(5)),
            None
        );
        // …and a later generous wait still gets the published value.
        assert_eq!(
            g.wait_deadline(Instant::now() + Duration::from_secs(5)),
            Some(Some(9))
        );
        setter.join().unwrap();
    }

    #[test]
    fn evict_forces_recompute_but_spares_inflight() {
        let c: Arc<KeyedCache<u64, u64>> = Arc::new(KeyedCache::new());
        let (v, _) = c.get_or_compute(3, || 30);
        assert_eq!(v, 30);
        assert!(c.evict(&3));
        assert!(!c.evict(&3), "already gone");
        let (v, hit) = c.get_or_compute(3, || 31);
        assert_eq!((v, hit), (31, false), "evicted entry recomputes");

        // An in-flight entry survives eviction attempts.
        let c2 = c.clone();
        let owner = std::thread::spawn(move || {
            c2.get_or_compute(4, || {
                std::thread::sleep(Duration::from_millis(40));
                44
            })
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(!c.evict(&4), "in-flight entries are not evictable");
        assert_eq!(owner.join().unwrap().0, 44);
    }

    #[test]
    fn distinct_keys_do_not_share() {
        let c: KeyedCache<(u64, u64), u64> = KeyedCache::new();
        let (a, _) = c.get_or_compute((1, 1), || 1);
        let (b, _) = c.get_or_compute((1, 2), || 2);
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
    }

    /// Pressure evictions counted in a test budget's registry.
    fn pressure(metrics: &MetricsRegistry) -> u64 {
        metrics.counter_total("engine.cache_evictions_pressure")
    }

    fn bounded_cache(limit: usize) -> (KeyedCache<u64, u64>, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        let budget = CacheBudget::new(limit, metrics.clone());
        // Every value weighs 100 bytes: a limit of N*100 holds N entries.
        (KeyedCache::bounded(budget, |_| 100), metrics)
    }

    #[test]
    fn pressure_evicts_lru_first() {
        let (c, metrics) = bounded_cache(300);
        for k in 0..3 {
            c.get_or_compute(k, || k * 10);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(pressure(&metrics), 0, "under budget: nothing shed");
        // Touch key 0 so key 1 becomes the LRU, then overflow.
        c.get_or_compute(0, || 999);
        c.get_or_compute(3, || 30);
        assert_eq!(pressure(&metrics), 1);
        assert_eq!(c.len(), 3);
        let (v, hit) = c.get_or_compute(1, || 777);
        assert_eq!((v, hit), (777, false), "LRU key 1 was the one evicted");
        let (v, hit) = c.get_or_compute(0, || 888);
        assert_eq!((v, hit), (0, true), "recently touched key 0 survived");
    }

    #[test]
    fn budget_accounting_tracks_inserts_and_evictions() {
        let metrics = Arc::new(MetricsRegistry::new());
        let budget = CacheBudget::new(usize::MAX, metrics.clone());
        let c: KeyedCache<u64, u64> = KeyedCache::bounded(budget.clone(), |_| 100);
        assert_eq!(budget.bytes_used(), 0);
        c.get_or_compute(1, || 1);
        c.get_or_compute(2, || 2);
        assert_eq!(budget.bytes_used(), 200);
        assert!(c.evict(&1));
        assert_eq!(budget.bytes_used(), 100, "explicit evict refunds bytes");
        assert_eq!(pressure(&metrics), 0, "no pressure under MAX limit");
    }

    #[test]
    fn shared_budget_spans_caches_and_spares_inflight() {
        let metrics = Arc::new(MetricsRegistry::new());
        let budget = CacheBudget::new(250, metrics.clone());
        let a: Arc<KeyedCache<u64, u64>> = Arc::new(KeyedCache::bounded(budget.clone(), |_| 100));
        let b: KeyedCache<u64, u64> = KeyedCache::bounded(budget.clone(), |_| 100);
        a.get_or_compute(1, || 1);
        b.get_or_compute(1, || 1);
        assert_eq!(budget.bytes_used(), 200, "both caches charge one budget");
        // An in-flight computation in `a` holds no bytes and cannot be shed:
        // when `b`'s insert overflows the budget, `b` evicts its own entry.
        let a2 = a.clone();
        let owner = std::thread::spawn(move || {
            a2.get_or_compute(9, || {
                std::thread::sleep(Duration::from_millis(40));
                99
            })
        });
        std::thread::sleep(Duration::from_millis(10));
        b.get_or_compute(2, || 2);
        assert_eq!(pressure(&metrics), 1);
        assert_eq!(b.len(), 1, "b shed its own LRU entry");
        assert_eq!(a.len(), 2, "a's ready + in-flight entries untouched");
        assert_eq!(owner.join().unwrap(), (99, false));
    }

    #[test]
    fn entry_larger_than_budget_still_serves_then_goes() {
        let (c, metrics) = bounded_cache(50);
        // 100-byte value against a 50-byte budget: the caller still gets the
        // value (bounded wins, but never a wrong/missing answer)…
        let (v, hit) = c.get_or_compute(1, || 11);
        assert_eq!((v, hit), (11, false));
        // …and the entry itself is shed, so the next asker recomputes.
        assert_eq!(pressure(&metrics), 1);
        let (v, hit) = c.get_or_compute(1, || 12);
        assert_eq!((v, hit), (12, false));
    }
}
