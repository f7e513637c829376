//! Seeded workload inputs. Every job and request list is a pure function of
//! the `--seed` argument; the programs under test only ever see the
//! generated sources and flags.

use fdi_benchsuite::{Benchmark, BENCHMARKS};
use fdi_core::{source_fingerprint, PipelineConfig};
use std::sync::Arc;

/// The Fig. 6 thresholds. Threshold 0 is the normalization baseline.
pub const THRESHOLDS: [usize; 6] = [0, 50, 100, 200, 500, 1000];

/// The threshold every `serve-hot` request carries: the daemon's default.
pub const HOT_THRESHOLD: usize = 200;

/// Cells of one full (benchmark × threshold) grid: one `serve-cold` round.
pub const ROUND: usize = 8 * THRESHOLDS.len();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    ServeCold,
    ServeHot,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep" => Some(Workload::Sweep),
            "serve-cold" => Some(Workload::ServeCold),
            "serve-hot" => Some(Workload::ServeHot),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
        }
    }
}

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F00D_CAFE_D00D)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The Fig. 6 sweep's sources: the eight benchmarks at their default scale,
/// in Table 1 order, for every seed. The grid leaves nothing to draw but
/// the submission order, and that only moves the engine's round-robin
/// placement of VM executions (a tenth of the makespan on two workers),
/// which would turn a scheduling accident into seed-to-seed spread.
pub fn sweep_sources() -> Vec<(&'static Benchmark, String)> {
    BENCHMARKS.iter().map(|b| (b, b.source())).collect()
}

/// One `fdi serve` job request.
#[derive(Debug, Clone)]
pub struct Request {
    pub bench: &'static Benchmark,
    pub threshold: usize,
    pub source: Arc<str>,
    /// The JSON request line, newline included, ready for one `write`.
    pub line: String,
}

impl Request {
    fn new(bench: &'static Benchmark, threshold: usize, variant: u64) -> Request {
        let source: Arc<str> = variant_source(bench, variant).into();
        let line = format!(
            "{{\"op\":\"job\",\"source\":\"{}\",\"flags\":[\"-t\",\"{threshold}\"]}}\n",
            json_escape(&source)
        );
        Request {
            bench,
            threshold,
            source,
            line,
        }
    }

    /// The pipeline configuration the daemon derives from the flags.
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig::with_threshold(self.threshold)
    }
}

/// `bench` at its test scale, with the scale spelled `(- (variant + scale)
/// variant)`. Distinct variants are distinct programs — the daemon's caches
/// (keyed by source text) and any cache keyed by the lowered program miss on
/// them — yet they compute the same answer, and the simplifier folds the
/// spelling away, so sizes depend only on (benchmark, threshold).
fn variant_source(bench: &Benchmark, variant: u64) -> String {
    let scale = u64::from(bench.test_scale);
    format!(
        "{}\n({} (- {} {variant}))\n",
        bench.body,
        bench.driver,
        variant + scale
    )
}

fn variant_id(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F)).next() % 1_000_000_000
}

/// The first `n` `serve-cold` requests. Request `i` belongs to round
/// `i / ROUND`; each round is a seeded permutation of the full
/// (benchmark × threshold) grid, and every request has its own variant, so
/// nearly every source is one the daemon has never analyzed.
pub fn cold_requests(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut grid: Vec<(usize, usize)> = (0..BENCHMARKS.len())
            .flat_map(|b| THRESHOLDS.iter().map(move |&t| (b, t)))
            .collect();
        rng.shuffle(&mut grid);
        for (b, t) in grid.into_iter().take(n - out.len()) {
            let variant = variant_id(seed, out.len() as u64);
            out.push(Request::new(&BENCHMARKS[b], t, variant));
        }
    }
    out
}

/// The `serve-hot` set: every benchmark once, at the daemon's default
/// threshold, each under a seeded variant.
pub fn hot_set(seed: u64) -> Vec<Request> {
    BENCHMARKS
        .iter()
        .enumerate()
        .map(|(i, b)| Request::new(b, HOT_THRESHOLD, variant_id(!seed, i as u64)))
        .collect()
}

/// The first `n` indices into the hot set: seeded permutations back to back.
pub fn hot_order(seed: u64, set: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed.rotate_left(17));
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut perm: Vec<usize> = (0..set).collect();
        rng.shuffle(&mut perm);
        out.extend(perm.into_iter().take(n - out.len()));
    }
    out
}

/// A content digest of a request list, recorded so two runs can be shown
/// to have sent the same inputs.
pub fn digest(requests: &[Request]) -> u64 {
    requests
        .iter()
        .fold(0, |acc, r| acc.rotate_left(5) ^ source_fingerprint(&r.line))
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
