//! Result assembly: a tiny JSON writer, order statistics, the host record,
//! and the per-run detail file.

use crate::workload::json_escape;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where runs leave their detail files and temporary daemon stores.
pub const OUT_DIR: &str = ".bench_out";

/// A JSON value, written compactly.
#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj(fields: Vec<(&str, J)>) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rust prints the shortest representation that round-trips, so
            // every measured digit survives. JSON has no infinities.
            J::Num(x) if x.is_finite() => write!(f, "{x}"),
            J::Num(_) => write!(f, "null"),
            J::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            J::Bool(b) => write!(f, "{b}"),
            J::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            J::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", json_escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports: the result line plus the detail record.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: samples, checks, per-benchmark rows,
    /// spans. Written to the detail file, never to stdout.
    pub details: Vec<(&'static str, J)>,
    /// Human-readable problems; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check; the first fifty are kept verbatim.
    pub fn problem(&mut self, p: String) {
        if self.problems.len() < 50 {
            self.problems.push(p);
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = J::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        J::obj(vec![("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
                    )
                })
                .collect(),
        );
        J::obj(vec![
            ("correct", J::Bool(self.problems.is_empty())),
            ("attempted", J::Num(self.attempted as f64)),
            ("failed", J::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host and build the numbers were taken on.
#[derive(Debug, Clone)]
pub struct Host {
    /// The `fdi` binary under test, built from the checkout.
    pub fdi: PathBuf,
    pub nproc: usize,
    pub commit: String,
    pub source_digest: String,
    pub rustc: String,
}

impl Host {
    /// Builds `fdi` first, so that the first run in a fresh checkout pays
    /// for every build, whichever workload it measures.
    pub fn probe() -> Result<Host, String> {
        let fdi = crate::daemon::build_fdi()?;
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        // Outside a git checkout, `git` would name an enclosing
        // repository's commit; the source digest identifies the code.
        let commit = Path::new(".git")
            .exists()
            .then(|| run("git", &["rev-parse", "HEAD"]))
            .flatten();
        Ok(Host {
            fdi,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: commit.unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", tree_digest()),
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        })
    }

    pub fn to_json(&self) -> J {
        J::obj(vec![
            ("nproc", J::Num(self.nproc as f64)),
            ("commit", J::str(&self.commit)),
            ("source_digest", J::str(&self.source_digest)),
            ("rustc", J::str(&self.rustc)),
        ])
    }
}

/// FNV-1a over the program's sources (root manifest, `src/`, `crates/`),
/// visited in sorted order: identifies the code measured even where the
/// checkout carries no git metadata.
fn tree_digest() -> u64 {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            if let Ok(entries) = std::fs::read_dir(path) {
                for e in entries.flatten() {
                    walk(&e.path(), files);
                }
            }
        } else if path
            .extension()
            .is_some_and(|x| x == "rs" || x == "scm" || x == "toml" || x == "lock")
        {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Writes the run's detail record under [`OUT_DIR`] and returns its path.
pub fn write_details(name: &str, record: &J) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, format!("{record}\n"))?;
    Ok(path)
}
