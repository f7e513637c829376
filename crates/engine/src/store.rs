//! The sharded, disk-backed content-addressed artifact store.
//!
//! The in-memory caches ([`crate::cache`]) die with the process; this store
//! is what makes warm state survive a crash or restart (`fdi serve`'s whole
//! point). It persists *final job outputs* — the optimized program text plus
//! the summary numbers a report needs — keyed by the same content address
//! the engine dedups on: `(source fingerprint, whole-config fingerprint)`.
//! Only fully healthy outputs are persisted; a degraded or oracle-rejected
//! run must be recomputed, never replayed from disk.
//!
//! # Layout and framing
//!
//! ```text
//! <root>/out/<2-hex shard>/<16-hex src>-<16-hex cfg>.art
//! ```
//!
//! Each artifact file is one [`fdi_core::framing`] frame — the same layout
//! the profiler's `Profile` artifact uses — mirroring the in-memory
//! corrupted-artifact discipline (checksum recheck before reuse):
//!
//! ```text
//! magic "FDI\x01" · payload length (u64 LE) · FNV-1a checksum (u64 LE) · payload
//! ```
//!
//! The payload is the [`StoredOutput`] JSON codec. Writes go to a `.tmp`
//! sibling and are renamed into place, so a clean shutdown never leaves a
//! half-frame at a final path; stale `.tmp` files from a killed process are
//! swept on open. A load whose frame fails *any* check — magic, length,
//! checksum, UTF-8, JSON shape — deletes the file and reports
//! [`Loaded::Corrupt`]: the caller recomputes, and the store never serves a
//! guess.
//!
//! # Resource governance
//!
//! A store may carry a byte *quota* (`--store-bytes`): when a write pushes
//! the tracked footprint over it, a GC pass deletes least-recently-used
//! artifacts (recency is the in-process access tick, falling back to file
//! mtime for artifacts untouched since open) until the store fits. Deletion
//! takes the artifact's shard write lock while loads hold the read lock, so
//! the GC never yanks a file out from under a reader mid-verification. The
//! stale-`.tmp` sweep on open only removes tmp files older than an age
//! threshold — a *fresh* tmp may be a second daemon's in-flight write on the
//! same store, and sweeping it would tear that daemon's rename.
//!
//! [`fsck`] is the offline self-healing half: it walks every shard, verifies
//! each frame end to end, and (with repair) evicts corrupt artifacts and
//! orphaned tmp files, returning the store to a state where every load
//! either verifies or misses.
//!
//! # Chaos seams
//!
//! Four catalogued fault points drive the crash-recovery tests:
//!
//! * `store-write` — the atomic rename is skipped and a truncated frame
//!   lands at the final path: the footprint of a process killed mid-write.
//! * `store-read` — the load reports a miss; the caller must recompute.
//! * `store-corrupt` — one payload byte is flipped after a successful
//!   write; the checksum recheck on the next load must catch it.
//! * `store-full` — the write is rejected as if the device were full
//!   (ENOSPC); the engine must degrade to memory-only, never fail the job.

use fdi_core::faults::{FaultInjector, FaultPoint};
use fdi_core::framing::{decode_frame as decode_payload, encode_frame, HEADER};
use fdi_telemetry::json::{parse, Json};
use fdi_telemetry::DecisionTotals;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, SystemTime};

/// A persisted job outcome: everything a warm re-serve needs to answer a
/// request without recomputing — the optimized program text (the
/// byte-identity anchor) and the summary numbers of a batch-report entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredOutput {
    /// Canonical unparse of the optimized program.
    pub optimized: String,
    /// Size of the threshold-0 baseline (paper size metric).
    pub baseline_size: usize,
    /// Size of the optimized program.
    pub optimized_size: usize,
    /// Call sites the inliner specialized.
    pub sites_inlined: usize,
    /// Total fuel the run charged to its budget.
    pub fuel_used: u64,
    /// Inline decision totals, bucketed by reason.
    pub decisions: DecisionTotals,
}

impl StoredOutput {
    /// Table 1's code-size ratio, matching
    /// [`fdi_core::PipelineOutput::size_ratio`].
    pub fn size_ratio(&self) -> f64 {
        self.optimized_size as f64 / self.baseline_size as f64
    }

    /// The payload codec: one JSON object, stable key order.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("v", Json::from(1u64)),
            ("optimized", self.optimized.as_str().into()),
            ("baseline_size", self.baseline_size.into()),
            ("optimized_size", self.optimized_size.into()),
            ("sites_inlined", self.sites_inlined.into()),
            ("fuel_used", self.fuel_used.into()),
            ("decisions", self.decisions.json()),
        ])
        .to_string()
    }

    /// Decodes [`StoredOutput::to_json`]. Any shape mismatch is an error —
    /// a half-written or foreign payload must read as corruption, not as a
    /// zeroed result.
    pub fn from_json(text: &str) -> Result<StoredOutput, String> {
        let doc = parse(text)?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        if num("v")? != 1 {
            return Err("unknown stored-output version".to_string());
        }
        let optimized = doc
            .get("optimized")
            .and_then(Json::as_str)
            .ok_or("missing field \"optimized\"")?
            .to_string();
        let mut decisions = DecisionTotals::default();
        for (key, value) in doc
            .get("decisions")
            .and_then(Json::as_obj)
            .ok_or("missing object \"decisions\"")?
        {
            let n = value.as_num().ok_or("non-numeric decision count")?;
            decisions.add(key, n as u64);
        }
        Ok(StoredOutput {
            optimized,
            baseline_size: num("baseline_size")? as usize,
            optimized_size: num("optimized_size")? as usize,
            sites_inlined: num("sites_inlined")? as usize,
            fuel_used: num("fuel_used")?,
            decisions,
        })
    }
}

/// What a [`DiskStore::load`] found.
#[derive(Debug)]
pub(crate) enum Loaded {
    /// A verified artifact.
    Hit(StoredOutput),
    /// No artifact on disk (or an injected `store-read` fault).
    Miss,
    /// A frame that failed verification; the file has been evicted.
    Corrupt,
}

/// What a [`DiskStore::save`] did.
#[derive(Debug)]
pub(crate) enum Saved {
    /// The artifact is durably in place.
    Written,
    /// An injected `store-write` fault tore the write: a truncated frame
    /// sits at the final path, exactly as a mid-write kill would leave it.
    Torn,
    /// An injected `store-full` fault rejected the write before any bytes
    /// landed — the ENOSPC footprint. The engine must degrade to
    /// memory-only operation, never fail the job.
    Full,
    /// A real IO failure; the store degrades to recomputation.
    Failed(String),
}

/// How old a `.tmp` file must be before the sweep on open removes it. A
/// fresh tmp may belong to a *live* writer — a second daemon sharing the
/// store — whose rename would be torn by an eager sweep.
const TMP_SWEEP_AGE: Duration = Duration::from_secs(60);

/// Shard-lock fan-out: 256 path shards map onto this many reader-writer
/// locks. Enough to keep unrelated loads and GC deletions from serializing.
const N_SHARD_LOCKS: usize = 16;

/// The disk-backed store. Cheap to clone around worker threads is not
/// needed — the engine holds exactly one behind its shared `Inner`.
#[derive(Debug)]
pub(crate) struct DiskStore {
    root: PathBuf,
    injector: Arc<FaultInjector>,
    /// Byte quota; `None` means unbounded.
    quota: Option<u64>,
    /// Tracked footprint of final-path artifacts, maintained by
    /// save/delete and seeded by a walk at open.
    used: AtomicU64,
    /// Artifacts deleted by the quota GC.
    gc_evictions: AtomicU64,
    /// In-process access recency per artifact path; files untouched since
    /// open fall back to their mtime (strictly older than any tick).
    recency: Mutex<HashMap<PathBuf, u64>>,
    tick: AtomicU64,
    /// Per-shard reader-writer locks: loads hold read, deletions (GC)
    /// hold write, so the GC never deletes a file mid-read.
    shard_locks: [RwLock<()>; N_SHARD_LOCKS],
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`, sweeps
    /// *stale* `.tmp` files left by a killed writer (fresh ones are spared
    /// — see [`TMP_SWEEP_AGE`]), and seeds the footprint accounting.
    pub(crate) fn open(root: &Path, injector: Arc<FaultInjector>) -> Result<DiskStore, String> {
        DiskStore::open_aged(root, injector, TMP_SWEEP_AGE)
    }

    /// [`DiskStore::open`] with an explicit tmp-sweep age (test seam).
    pub(crate) fn open_aged(
        root: &Path,
        injector: Arc<FaultInjector>,
        tmp_age: Duration,
    ) -> Result<DiskStore, String> {
        let out = root.join("out");
        fs::create_dir_all(&out).map_err(|e| format!("cannot create store {out:?}: {e}"))?;
        let store = DiskStore {
            root: root.to_path_buf(),
            injector,
            quota: None,
            used: AtomicU64::new(0),
            gc_evictions: AtomicU64::new(0),
            recency: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            shard_locks: std::array::from_fn(|_| RwLock::new(())),
        };
        store.sweep_tmp(tmp_age);
        store.used.store(store.walk_bytes(), Relaxed);
        Ok(store)
    }

    /// Sets the byte quota the GC enforces after each write.
    pub(crate) fn with_quota(mut self, quota: Option<u64>) -> DiskStore {
        self.quota = quota;
        self
    }

    /// Tracked footprint in bytes.
    pub(crate) fn bytes_used(&self) -> u64 {
        self.used.load(Relaxed)
    }

    /// The configured quota, if any.
    pub(crate) fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// Artifacts the quota GC has deleted.
    pub(crate) fn gc_evictions(&self) -> u64 {
        self.gc_evictions.load(Relaxed)
    }

    /// Removes abandoned `.tmp` files (a write-then-rename interrupted
    /// before the rename) older than `max_age`. Younger tmp files are
    /// spared: they may be a concurrent daemon's in-flight write, and its
    /// rename must find them intact. Final-path artifacts are left for
    /// `load`'s verification to judge.
    fn sweep_tmp(&self, max_age: Duration) {
        for file in walk_store(&self.root) {
            if !is_tmp(&file) {
                continue;
            }
            let stale = fs::metadata(&file)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| SystemTime::now().duration_since(t).ok())
                .is_some_and(|age| age >= max_age);
            if stale {
                let _ = fs::remove_file(&file);
            }
        }
    }

    /// Sum of final-path artifact bytes on disk right now.
    fn walk_bytes(&self) -> u64 {
        walk_store(&self.root)
            .filter(|p| !is_tmp(p))
            .filter_map(|p| fs::metadata(&p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// The artifact path for a job key, sharded by the source fingerprint's
    /// top byte.
    fn path(&self, key: (u64, u64)) -> PathBuf {
        self.root
            .join("out")
            .join(format!("{:02x}", (key.0 >> 56) as u8))
            .join(format!("{:016x}-{:016x}.art", key.0, key.1))
    }

    /// The reader-writer lock covering `key`'s shard.
    fn shard_lock(&self, key: (u64, u64)) -> &RwLock<()> {
        &self.shard_locks[((key.0 >> 56) as usize) % N_SHARD_LOCKS]
    }

    /// The reader-writer lock covering an artifact path (by its 2-hex
    /// shard directory name; unparsable paths share lock zero).
    fn shard_lock_of(&self, path: &Path) -> &RwLock<()> {
        let shard = path
            .parent()
            .and_then(|d| d.file_name())
            .and_then(|n| n.to_str())
            .and_then(|n| u8::from_str_radix(n, 16).ok())
            .unwrap_or(0);
        &self.shard_locks[shard as usize % N_SHARD_LOCKS]
    }

    /// Subtracts `n` tracked bytes, saturating: accounting drift must
    /// never wrap the gauge.
    fn sub_used(&self, n: u64) {
        let _ = self
            .used
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Stamps `path` most-recently-used.
    fn touch(&self, path: PathBuf) {
        let t = self.tick.fetch_add(1, Relaxed);
        self.recency.lock().unwrap().insert(path, t);
    }

    /// Loads and verifies the artifact for `key`. Corrupt frames are
    /// deleted before reporting, so one bad artifact costs exactly one
    /// recompute and can never be served twice. The whole read (open,
    /// verify, corrupt-evict) holds the shard read lock, so a concurrent
    /// GC cannot delete the file mid-read.
    pub(crate) fn load(&self, key: (u64, u64)) -> Loaded {
        if self.injector.poll(FaultPoint::StoreRead).is_some() {
            return Loaded::Miss;
        }
        let path = self.path(key);
        let _guard = self.shard_lock(key).read().unwrap();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return Loaded::Miss,
        };
        match decode_frame(&bytes) {
            Some(out) => {
                self.touch(path);
                Loaded::Hit(out)
            }
            None => {
                if fs::remove_file(&path).is_ok() {
                    self.sub_used(bytes.len() as u64);
                    self.recency.lock().unwrap().remove(&path);
                }
                Loaded::Corrupt
            }
        }
    }

    /// Persists the artifact for `key` with write-then-rename, then (when
    /// a quota is set) sheds least-recently-used artifacts until the store
    /// fits again.
    pub(crate) fn save(&self, key: (u64, u64), out: &StoredOutput) -> Saved {
        if self.injector.poll(FaultPoint::StoreFull).is_some() {
            // Injected ENOSPC: rejected before any bytes land.
            return Saved::Full;
        }
        let path = self.path(key);
        if let Some(dir) = path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                return Saved::Failed(format!("cannot create shard {dir:?}: {e}"));
            }
        }
        let frame = encode_frame(&out.to_json());
        let old = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if self.injector.poll(FaultPoint::StoreWrite).is_some() {
            // Simulated mid-write kill: a truncated frame at the *final*
            // path, bypassing the rename discipline entirely.
            let torn = &frame[..HEADER + (frame.len() - HEADER) / 2];
            if fs::write(&path, torn).is_ok() {
                self.sub_used(old);
                self.used.fetch_add(torn.len() as u64, Relaxed);
            }
            return Saved::Torn;
        }
        let tmp = path.with_extension("tmp");
        let write = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&frame))
            .and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Saved::Failed(format!("cannot write {path:?}: {e}"));
        }
        self.sub_used(old);
        self.used.fetch_add(frame.len() as u64, Relaxed);
        self.touch(path.clone());
        if self.injector.poll(FaultPoint::StoreCorrupt).is_some() {
            // Silent bit rot after a successful write: flip the payload's
            // last byte and let the next load's checksum recheck catch it.
            if let Ok(mut bytes) = fs::read(&path) {
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0x40;
                    let _ = fs::write(&path, &bytes);
                }
            }
        }
        self.enforce_quota(&path);
        Saved::Written
    }

    /// Sheds least-recently-used artifacts while the footprint exceeds the
    /// quota. `keep` (the artifact just written) is never a candidate —
    /// evicting the write that triggered the GC would make the save a
    /// silent no-op. Artifacts untouched since open order by mtime, before
    /// (older than) anything this process has stamped. Each deletion holds
    /// its shard write lock, so no reader loses a file mid-verification.
    fn enforce_quota(&self, keep: &Path) {
        let Some(quota) = self.quota else { return };
        if self.used.load(Relaxed) <= quota {
            return;
        }
        // Unseen artifacts (mtime-ordered) drain before any recency-stamped
        // one: a tick means "this process served it", which mtime can't say.
        let recency = self.recency.lock().unwrap();
        let mut unseen: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        let mut seen: Vec<(u64, PathBuf, u64)> = Vec::new();
        for file in walk_store(&self.root) {
            if is_tmp(&file) || file == keep {
                continue;
            }
            let Ok(meta) = fs::metadata(&file) else {
                continue;
            };
            match recency.get(&file) {
                Some(&t) => seen.push((t, file, meta.len())),
                None => unseen.push((
                    meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    file,
                    meta.len(),
                )),
            }
        }
        drop(recency);
        unseen.sort();
        seen.sort();
        let victims = unseen
            .into_iter()
            .map(|(_, p, n)| (p, n))
            .chain(seen.into_iter().map(|(_, p, n)| (p, n)));
        for (path, len) in victims {
            if self.used.load(Relaxed) <= quota {
                break;
            }
            let _guard = self.shard_lock_of(&path).write().unwrap();
            if fs::remove_file(&path).is_ok() {
                self.sub_used(len);
                self.gc_evictions.fetch_add(1, Relaxed);
                self.recency.lock().unwrap().remove(&path);
            }
        }
    }
}

/// Verifies a frame end to end ([`fdi_core::framing`]) and decodes its
/// payload; `None` means corrupt.
fn decode_frame(bytes: &[u8]) -> Option<StoredOutput> {
    let payload = decode_payload(bytes)?;
    StoredOutput::from_json(payload).ok()
}

/// Every file under `<root>/out/<shard>/`, tmp files included.
fn walk_store(root: &Path) -> impl Iterator<Item = PathBuf> {
    fs::read_dir(root.join("out"))
        .into_iter()
        .flatten()
        .flatten()
        .flat_map(|shard| fs::read_dir(shard.path()).into_iter().flatten().flatten())
        .map(|file| file.path())
}

fn is_tmp(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "tmp")
}

/// What [`fsck`] found (and, with repair, did) in a store.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Final-path artifacts examined.
    pub scanned: usize,
    /// Artifacts whose frame verified end to end.
    pub healthy: usize,
    /// Artifacts that failed any check (magic, length, checksum, UTF-8,
    /// payload shape).
    pub corrupt: usize,
    /// Abandoned `.tmp` files (an interrupted write-then-rename).
    pub orphaned_tmp: usize,
    /// Damaged files deleted (repair mode only).
    pub repaired: usize,
    /// Bytes held by healthy artifacts.
    pub bytes: u64,
    /// The damaged paths, for the report.
    pub corrupt_paths: Vec<PathBuf>,
}

impl FsckReport {
    /// Damaged files still on disk after this run.
    pub fn unrepaired(&self) -> usize {
        (self.corrupt + self.orphaned_tmp).saturating_sub(self.repaired)
    }
}

/// Walks every shard of the store at `root`, verifying each artifact's
/// frame end to end — exactly the checks a load performs, but across the
/// whole store at once. With `repair` set, corrupt artifacts and orphaned
/// tmp files are deleted (an evicted artifact costs one recompute; a
/// served corruption would cost a wrong answer, which the store never
/// allows). Run it against a quiesced store: a live daemon's in-flight
/// tmp files are indistinguishable from orphans.
pub fn fsck(root: &Path, repair: bool) -> Result<FsckReport, String> {
    let out = root.join("out");
    if !out.is_dir() {
        return Err(format!("{root:?} is not an artifact store (no out/ dir)"));
    }
    let mut report = FsckReport::default();
    for file in walk_store(root) {
        if is_tmp(&file) {
            report.orphaned_tmp += 1;
            report.corrupt_paths.push(file.clone());
            if repair && fs::remove_file(&file).is_ok() {
                report.repaired += 1;
            }
            continue;
        }
        report.scanned += 1;
        let healthy = fs::read(&file)
            .ok()
            .and_then(|bytes| decode_frame(&bytes).map(|_| bytes.len() as u64));
        match healthy {
            Some(len) => {
                report.healthy += 1;
                report.bytes += len;
            }
            None => {
                report.corrupt += 1;
                report.corrupt_paths.push(file.clone());
                if repair && fs::remove_file(&file).is_ok() {
                    report.repaired += 1;
                }
            }
        }
    }
    report.corrupt_paths.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_core::faults::FaultPlan;
    use std::sync::atomic::AtomicU64;

    fn quiet_injector() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(FaultPlan::default()))
    }

    fn tmp_root(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fdi-store-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> StoredOutput {
        let mut decisions = DecisionTotals::default();
        decisions.add("inlined", 3);
        decisions.add("loop_guard", 1);
        StoredOutput {
            optimized: "(define (f x) (* x x))\n(f 2)".to_string(),
            baseline_size: 24,
            optimized_size: 18,
            sites_inlined: 3,
            fuel_used: 97,
            decisions,
        }
    }

    #[test]
    fn json_codec_round_trips() {
        let out = sample();
        let back = StoredOutput::from_json(&out.to_json()).unwrap();
        assert_eq!(out, back);
        assert!((out.size_ratio() - 0.75).abs() < 1e-12);
        // Escaping survives: program text with quotes and newlines.
        let tricky = StoredOutput {
            optimized: "(display \"a\nb\\c\")".to_string(),
            ..sample()
        };
        assert_eq!(StoredOutput::from_json(&tricky.to_json()).unwrap(), tricky);
    }

    #[test]
    fn from_json_rejects_foreign_shapes() {
        for bad in [
            "{}",
            "{\"v\":2,\"optimized\":\"x\"}",
            "{\"v\":1,\"optimized\":7}",
            "{\"v\":1,\"optimized\":\"x\",\"baseline_size\":1}",
            "not json at all",
        ] {
            assert!(StoredOutput::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn save_then_load_round_trips_across_reopen() {
        let root = tmp_root("roundtrip");
        let out = sample();
        let key = (0xAB54_A98C_EB1F_0AD2u64, 0x0123_4567_89AB_CDEFu64);
        {
            let store = DiskStore::open(&root, quiet_injector()).unwrap();
            assert!(matches!(store.save(key, &out), Saved::Written));
        }
        // A fresh open — the restart path — still verifies and serves it.
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        match store.load(key) {
            Loaded::Hit(back) => assert_eq!(back, out),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(store.load((1, 2)), Loaded::Miss));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_frame_is_evicted_not_served() {
        let root = tmp_root("truncate");
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        let key = (11, 22);
        store.save(key, &sample());
        let path = store.path(key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(key), Loaded::Corrupt));
        assert!(!path.exists(), "corrupt artifact must be evicted");
        // The eviction is terminal: the next load is a plain miss.
        assert!(matches!(store.load(key), Loaded::Miss));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_byte_is_evicted_not_served() {
        let root = tmp_root("flip");
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        let key = (33, 44);
        store.save(key, &sample());
        let path = store.path(key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER + (bytes.len() - HEADER) / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(key), Loaded::Corrupt));
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_torn_write_reads_as_corrupt_then_recovers() {
        let root = tmp_root("torn");
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::only(7, &[FaultPoint::StoreWrite]).with_limit(1),
        ));
        let store = DiskStore::open(&root, injector).unwrap();
        let key = (55, 66);
        // First save is torn: a truncated frame sits at the final path.
        assert!(matches!(store.save(key, &sample()), Saved::Torn));
        assert!(store.path(key).exists());
        assert!(matches!(store.load(key), Loaded::Corrupt));
        // The injector's cap is spent: the re-save lands cleanly.
        assert!(matches!(store.save(key, &sample()), Saved::Written));
        assert!(matches!(store.load(key), Loaded::Hit(_)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_corruption_is_caught_by_the_checksum() {
        let root = tmp_root("chaos-corrupt");
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::only(9, &[FaultPoint::StoreCorrupt]).with_limit(1),
        ));
        let store = DiskStore::open(&root, injector).unwrap();
        let key = (77, 88);
        assert!(matches!(store.save(key, &sample()), Saved::Written));
        assert!(matches!(store.load(key), Loaded::Corrupt));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_read_fault_is_a_miss_never_a_guess() {
        let root = tmp_root("chaos-read");
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::only(3, &[FaultPoint::StoreRead]).with_limit(1),
        ));
        let store = DiskStore::open(&root, injector).unwrap();
        let key = (99, 11);
        store.save(key, &sample());
        assert!(matches!(store.load(key), Loaded::Miss), "read fault: miss");
        assert!(matches!(store.load(key), Loaded::Hit(_)), "cap spent: hit");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let root = tmp_root("sweep");
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        let key = (12, 34);
        store.save(key, &sample());
        let stale = store.path(key).with_extension("tmp");
        fs::write(&stale, b"half a frame").unwrap();
        drop(store);
        // Older than the (tiny, test-seam) threshold: swept.
        std::thread::sleep(Duration::from_millis(30));
        let store =
            DiskStore::open_aged(&root, quiet_injector(), Duration::from_millis(10)).unwrap();
        assert!(!stale.exists(), "stale tmp must be swept");
        assert!(matches!(store.load(key), Loaded::Hit(_)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fresh_tmp_survives_a_second_daemon_opening_the_store() {
        // Regression: daemon B opening a shared store must not sweep a tmp
        // file daemon A wrote moments ago — A's rename would find nothing.
        let root = tmp_root("two-daemons");
        let a = DiskStore::open(&root, quiet_injector()).unwrap();
        let key = (0x5600_0000_0000_0001, 2);
        let path = a.path(key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        // Daemon A mid-save: the frame is at the tmp path, rename pending.
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, encode_frame(&sample().to_json())).unwrap();
        // Daemon B opens the same store with the production sweep age.
        let b = DiskStore::open(&root, quiet_injector()).unwrap();
        assert!(tmp.exists(), "a fresh tmp is a live write, not an orphan");
        // A's rename completes; both daemons now serve the artifact.
        fs::rename(&tmp, &path).unwrap();
        assert!(matches!(a.load(key), Loaded::Hit(_)));
        assert!(matches!(b.load(key), Loaded::Hit(_)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn quota_gc_sheds_least_recently_used_first() {
        let root = tmp_root("quota");
        // Size one artifact, then set the quota to hold roughly two.
        let probe = DiskStore::open(&root, quiet_injector()).unwrap();
        probe.save((0, 0), &sample());
        let one = probe.bytes_used();
        assert!(one > 0);
        drop(probe);
        let _ = fs::remove_dir_all(&root);

        let store = DiskStore::open(&root, quiet_injector())
            .unwrap()
            .with_quota(Some(2 * one + one / 2));
        // Keys in distinct shards (distinct top bytes) to exercise the
        // per-shard locking in GC.
        let k1 = (0x0100_0000_0000_0000u64, 1);
        let k2 = (0x0200_0000_0000_0000u64, 2);
        let k3 = (0x0300_0000_0000_0000u64, 3);
        store.save(k1, &sample());
        store.save(k2, &sample());
        assert_eq!(store.gc_evictions(), 0, "two fit under the quota");
        // Touch k1 so k2 is the LRU, then overflow with k3.
        assert!(matches!(store.load(k1), Loaded::Hit(_)));
        store.save(k3, &sample());
        assert_eq!(store.gc_evictions(), 1);
        assert!(matches!(store.load(k2), Loaded::Miss), "LRU k2 was shed");
        assert!(matches!(store.load(k1), Loaded::Hit(_)));
        assert!(
            matches!(store.load(k3), Loaded::Hit(_)),
            "just-written kept"
        );
        assert!(store.bytes_used() <= 2 * one + one / 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn quota_gc_drains_unseen_artifacts_before_recent_ones() {
        let root = tmp_root("quota-unseen");
        let key_old = (0x1100_0000_0000_0000u64, 9);
        let key_new = (0x2200_0000_0000_0000u64, 9);
        {
            let store = DiskStore::open(&root, quiet_injector()).unwrap();
            store.save(key_old, &sample());
        }
        // Reopen: key_old is on disk but untouched this process.
        let one = {
            let store = DiskStore::open(&root, quiet_injector()).unwrap();
            store.bytes_used()
        };
        let store = DiskStore::open(&root, quiet_injector())
            .unwrap()
            .with_quota(Some(one + one / 2));
        store.save(key_new, &sample());
        assert_eq!(store.gc_evictions(), 1);
        assert!(
            matches!(store.load(key_old), Loaded::Miss),
            "the artifact from a previous life goes first"
        );
        assert!(matches!(store.load(key_new), Loaded::Hit(_)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bytes_used_tracks_saves_evictions_and_reopen() {
        let root = tmp_root("accounting");
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        assert_eq!(store.bytes_used(), 0);
        let key = (0x0A00_0000_0000_0000u64, 1);
        store.save(key, &sample());
        let one = store.bytes_used();
        assert!(one > 0);
        // Overwrite, same content: footprint unchanged (old len refunded).
        store.save(key, &sample());
        assert_eq!(store.bytes_used(), one);
        // Corrupt-evict refunds the bytes.
        let path = store.path(key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        drop(store);
        // Reopen re-walks the (now truncated) file…
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        assert_eq!(store.bytes_used(), (bytes.len() / 2) as u64);
        // …and the corrupt-evict zeroes the footprint.
        assert!(matches!(store.load(key), Loaded::Corrupt));
        assert_eq!(store.bytes_used(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_store_full_rejects_the_write_without_bytes() {
        let root = tmp_root("full");
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::only(5, &[FaultPoint::StoreFull]).with_limit(1),
        ));
        let store = DiskStore::open(&root, injector).unwrap();
        let key = (44, 55);
        assert!(matches!(store.save(key, &sample()), Saved::Full));
        assert!(!store.path(key).exists(), "ENOSPC leaves nothing behind");
        assert_eq!(store.bytes_used(), 0);
        // The cap is spent: the retry lands.
        assert!(matches!(store.save(key, &sample()), Saved::Written));
        assert!(matches!(store.load(key), Loaded::Hit(_)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_reports_and_repairs_damage() {
        let root = tmp_root("fsck");
        assert!(fsck(&root, false).is_err(), "not a store yet");
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        let good = (0x0100_0000_0000_0000u64, 1);
        let bad = (0x0200_0000_0000_0000u64, 2);
        store.save(good, &sample());
        store.save(bad, &sample());
        // Flip one payload byte in `bad` and orphan a tmp next to `good`.
        let bad_path = store.path(bad);
        let mut bytes = fs::read(&bad_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&bad_path, &bytes).unwrap();
        let orphan = store.path(good).with_extension("tmp");
        fs::write(&orphan, b"interrupted").unwrap();
        drop(store);

        let report = fsck(&root, false).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.healthy, 1);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.orphaned_tmp, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepaired(), 2);
        assert_eq!(report.corrupt_paths.len(), 2);
        assert!(bad_path.exists(), "report mode must not delete");

        let report = fsck(&root, true).unwrap();
        assert_eq!(report.repaired, 2);
        assert_eq!(report.unrepaired(), 0);
        assert!(!bad_path.exists() && !orphan.exists());

        // The healed store is clean and still serves the good artifact.
        let report = fsck(&root, false).unwrap();
        assert_eq!((report.corrupt, report.orphaned_tmp), (0, 0));
        assert_eq!(report.healthy, 1);
        let store = DiskStore::open(&root, quiet_injector()).unwrap();
        assert!(matches!(store.load(good), Loaded::Hit(_)));
        assert!(matches!(store.load(bad), Loaded::Miss));
        let _ = fs::remove_dir_all(&root);
    }
}
