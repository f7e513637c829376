//! The flight recorder: an always-on bounded ring of the last N requests,
//! notable incidents, and decision totals — the post-mortem a SIGKILL'd
//! daemon leaves behind.
//!
//! [`FlightRecorder`] generalizes [`crate::RingSink`] in two directions.
//! First, it records *requests*, not raw events: the owner (the serve
//! daemon) calls [`FlightRecorder::record_request`] with one
//! [`FlightEntry`] per finished request — trace id, what was asked,
//! outcome, duration — and the ring keeps the most recent
//! [`FlightRecorder::capacity`]. Second, installed as a [`Collector`] it
//! filters the event stream down to *notable* instants (retries, poisoned
//! jobs, cache corruption, store degradation and recovery, stale profiles)
//! with µs timestamps, and tallies every decision record, so a dump carries
//! the incident context around the requests without buffering the full
//! firehose.
//!
//! With [`FlightRecorder::with_writethrough`] each recorded request is also
//! appended as one JSON line to a file under the store directory; on
//! startup the ring is seeded from that file's tail. That is what lets a
//! post-restart `{"op":"flight"}` still list the requests that were in the
//! ring when the previous process was SIGKILL'd — no pre-arranged
//! `--trace-out`, no graceful shutdown required. Write-through IO failures
//! are ignored: the recorder observes the daemon, it never fails it.

use crate::json::Json;
use crate::{Collector, DecisionTotals, Event};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Instant names worth keeping in the incident ring. Everything else (cache
/// hit/miss traffic, per-pass markers) belongs to the metrics registry.
const NOTABLE: [&str; 10] = [
    "job.retry",
    "job.poisoned",
    "cache.corruption_detected",
    "cache.evict",
    "profile.stale",
    "store.memory_only",
    "store.recovered",
    "store.write_torn",
    "store.full",
    "store.write_failed",
];

/// One finished request, as the flight recorder remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// The request's trace id (16 hex digits on the wire).
    pub trace_id: String,
    /// What was asked: the job spec, or the op name for control requests.
    pub what: String,
    /// How it ended: `ok`, `cached`, `timeout`, `overloaded`, `failed`, ….
    pub outcome: String,
    /// Wall time from admission to reply, in microseconds.
    pub duration_us: u64,
    /// When it finished, µs since the owner's telemetry origin.
    pub ts_us: u64,
}

impl FlightEntry {
    /// One stable-key JSON object (also the write-through line format).
    pub fn json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::from(self.trace_id.as_str())),
            ("what", self.what.as_str().into()),
            ("outcome", self.outcome.as_str().into()),
            ("duration_us", self.duration_us.into()),
            ("ts_us", self.ts_us.into()),
        ])
    }

    fn from_json(doc: &Json) -> Option<FlightEntry> {
        Some(FlightEntry {
            trace_id: doc.get("trace_id")?.as_str()?.to_string(),
            what: doc.get("what")?.as_str()?.to_string(),
            outcome: doc.get("outcome")?.as_str()?.to_string(),
            duration_us: doc.get("duration_us")?.as_num()? as u64,
            ts_us: doc.get("ts_us")?.as_num()? as u64,
        })
    }
}

struct Rings {
    requests: VecDeque<FlightEntry>,
    notable: VecDeque<(String, u64)>,
    decisions: DecisionTotals,
    writethrough: Option<Writethrough>,
}

/// The write-through journal: its path, an append handle (`None` after a
/// failed open; the next record retries), and lines written since the
/// last compaction.
struct Writethrough {
    path: PathBuf,
    file: Option<File>,
    written: u64,
}

impl Writethrough {
    /// Appends `line` (which ends in a newline) in one write.
    fn append(&mut self, line: &str) {
        if self.file.is_none() {
            self.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .ok();
        }
        let Some(file) = &mut self.file else { return };
        if file.write_all(line.as_bytes()).is_ok() {
            self.written += 1;
        } else {
            // Drop the handle so the next record reopens the path.
            self.file = None;
        }
    }
}

/// The recorder. Share behind an `Arc`; all methods take `&self`.
pub struct FlightRecorder {
    capacity: usize,
    rings: Mutex<Rings>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests (minimum 1) and as
    /// many notable instants.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            rings: Mutex::new(Rings {
                requests: VecDeque::new(),
                notable: VecDeque::new(),
                decisions: DecisionTotals::default(),
                writethrough: None,
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// A recorder with disk write-through: every request appends one JSON
    /// line to `path`, and the ring is seeded from the tail of an existing
    /// file — so the last requests survive a SIGKILL. The file is compacted
    /// back to ring size whenever it grows past a few multiples of the
    /// capacity. IO failures (unwritable dir, torn tail line) are absorbed.
    pub fn with_writethrough(capacity: usize, path: &Path) -> FlightRecorder {
        let recorder = FlightRecorder::with_capacity(capacity);
        {
            let mut rings = recorder.rings.lock().unwrap();
            if let Ok(text) = std::fs::read_to_string(path) {
                for line in text.lines() {
                    let Ok(doc) = crate::json::parse(line) else {
                        continue; // a torn tail from the kill, not an error
                    };
                    if let Some(entry) = FlightEntry::from_json(&doc) {
                        if rings.requests.len() >= recorder.capacity {
                            rings.requests.pop_front();
                        }
                        rings.requests.push_back(entry);
                    }
                }
            }
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            rings.writethrough = Some(Writethrough {
                path: path.to_path_buf(),
                file: None,
                written: 0,
            });
            compact(&mut rings);
        }
        recorder
    }

    /// How many requests the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(requests buffered, capacity)` — the health occupancy gauge.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.rings.lock().unwrap().requests.len(), self.capacity)
    }

    /// Requests evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Records one finished request (and appends it to the write-through
    /// file, when configured).
    pub fn record_request(&self, entry: FlightEntry) {
        let mut rings = self.rings.lock().unwrap();
        if rings.requests.len() >= self.capacity {
            rings.requests.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        let line = format!("{}\n", entry.json());
        rings.requests.push_back(entry);
        if let Some(journal) = &mut rings.writethrough {
            journal.append(&line);
            if journal.written > 4 * self.capacity as u64 {
                compact(&mut rings);
            }
        }
    }

    /// The recorded requests, oldest first.
    pub fn requests(&self) -> Vec<FlightEntry> {
        self.rings
            .lock()
            .unwrap()
            .requests
            .iter()
            .cloned()
            .collect()
    }

    /// The whole recorder state as one JSON object.
    pub fn json(&self) -> Json {
        let rings = self.rings.lock().unwrap();
        let notable = rings.notable.iter().map(|(name, ts_us)| {
            Json::obj([
                ("name", Json::from(name.as_str())),
                ("ts_us", (*ts_us).into()),
            ])
        });
        Json::obj([
            ("capacity", self.capacity.into()),
            ("len", rings.requests.len().into()),
            ("dropped", self.dropped().into()),
            (
                "requests",
                Json::Arr(rings.requests.iter().map(FlightEntry::json).collect()),
            ),
            ("notable", Json::Arr(notable.collect())),
            ("decisions", rings.decisions.json()),
        ])
    }

    /// Dumps [`FlightRecorder::json`] to `path` (for the panic/drain
    /// auto-dump). IO failure is reported to the caller, never panics.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.json().to_string())
    }
}

/// Rewrites the write-through file to exactly the ring's contents, resetting
/// the growth counter; the next record reopens the append handle on the
/// rewritten file. Failures are absorbed.
fn compact(rings: &mut Rings) {
    if let Some(journal) = &mut rings.writethrough {
        let body: String = rings
            .requests
            .iter()
            .map(|e| format!("{}\n", e.json()))
            .collect();
        journal.file = None;
        let _ = std::fs::write(&journal.path, body);
        journal.written = 0;
    }
}

impl Collector for FlightRecorder {
    fn record(&self, event: Event) {
        match event {
            Event::Instant { name, ts_us, .. } if NOTABLE.contains(&name.as_str()) => {
                let mut rings = self.rings.lock().unwrap();
                if rings.notable.len() >= self.capacity {
                    rings.notable.pop_front();
                }
                rings.notable.push_back((name, ts_us));
            }
            Event::Decision { record, .. } => {
                self.rings.lock().unwrap().decisions.record(&record.reason);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, outcome: &str) -> FlightEntry {
        FlightEntry {
            trace_id: id.to_string(),
            what: "bench:fib@6".to_string(),
            outcome: outcome.to_string(),
            duration_us: 1500,
            ts_us: 42,
        }
    }

    #[test]
    fn ring_keeps_the_last_requests_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record_request(entry("aaaa", "ok"));
        rec.record_request(entry("bbbb", "ok"));
        rec.record_request(entry("cccc", "timeout"));
        assert_eq!(rec.occupancy(), (2, 2));
        assert_eq!(rec.dropped(), 1);
        let ids: Vec<String> = rec.requests().iter().map(|e| e.trace_id.clone()).collect();
        assert_eq!(ids, ["bbbb", "cccc"]);
        let doc = crate::json::parse(&rec.json().to_string()).expect("flight JSON parses");
        assert_eq!(doc.get("len").and_then(|n| n.as_num()), Some(2.0));
        let reqs = doc.get("requests").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(
            reqs[1].get("outcome").and_then(|o| o.as_str()),
            Some("timeout")
        );
    }

    #[test]
    fn collector_filters_notable_instants_and_tallies_decisions() {
        let rec = FlightRecorder::with_capacity(8);
        let instant = |name: &str| Event::Instant {
            name: name.to_string(),
            cat: "t",
            args: Vec::new(),
            ts_us: 9,
            tid: 1,
        };
        rec.record(instant("cache.parse")); // routine traffic: filtered out
        rec.record(instant("job.retry"));
        rec.record(instant("store.write_failed"));
        let doc = crate::json::parse(&rec.json().to_string()).unwrap();
        let notable = doc.get("notable").and_then(|n| n.as_arr()).unwrap();
        assert_eq!(notable.len(), 2);
        assert_eq!(
            notable[0].get("name").and_then(|n| n.as_str()),
            Some("job.retry")
        );
    }

    #[test]
    fn writethrough_survives_a_new_recorder_on_the_same_file() {
        let dir = std::env::temp_dir().join(format!("fdi-flight-{}", std::process::id()));
        let path = dir.join("requests.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let rec = FlightRecorder::with_writethrough(4, &path);
            rec.record_request(entry("1111", "ok"));
            rec.record_request(entry("2222", "cached"));
        } // no graceful shutdown: the recorder is simply dropped
        let revived = FlightRecorder::with_writethrough(4, &path);
        let ids: Vec<String> = revived
            .requests()
            .iter()
            .map(|e| e.trace_id.clone())
            .collect();
        assert_eq!(ids, ["1111", "2222"]);
        // A torn tail line (mid-write kill) is skipped, not fatal.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"trace_id\":\"33").unwrap();
        }
        let torn = FlightRecorder::with_writethrough(4, &path);
        assert_eq!(torn.occupancy().0, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writethrough_reseeds_the_last_capacity_entries_in_order() {
        let dir = std::env::temp_dir().join(format!("fdi-flight-reseed-{}", std::process::id()));
        let path = dir.join("requests.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let ids: Vec<String> = (0..19).map(|i| format!("{i:04x}")).collect();
        {
            // The 17th record passes 4 × 4 appended lines and compacts the
            // file; the last two are appended through a reopened handle.
            let rec = FlightRecorder::with_writethrough(4, &path);
            for id in &ids {
                rec.record_request(entry(id, "ok"));
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "every line is whole");
        let revived = FlightRecorder::with_writethrough(4, &path);
        let got: Vec<String> = revived
            .requests()
            .iter()
            .map(|e| e.trace_id.clone())
            .collect();
        assert_eq!(got, ids[ids.len() - 4..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writethrough_compacts_past_growth_bound() {
        let dir = std::env::temp_dir().join(format!("fdi-flight-compact-{}", std::process::id()));
        let path = dir.join("requests.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::with_writethrough(2, &path);
        for i in 0..32 {
            rec.record_request(entry(&format!("{i:04x}"), "ok"));
        }
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(lines <= 2 + 4 * 2, "file stays bounded, has {lines} lines");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
