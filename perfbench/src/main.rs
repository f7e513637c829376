//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|serve-cold|serve-hot --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root; it builds `fdi` from the root manifest
//! before anything else. With `--trace 0` it measures one workload end to
//! end with tracing off; with `--trace 1` it replays the workload's job
//! list single-threaded through each layer's public functions and reports
//! per-layer self times and work counters. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the full record (samples, checks, spans) goes to
//! `.bench_out/`. `BENCHMARK.json` says why each workload exists.
//!
//! End-to-end metrics, for every workload:
//!
//! * `setup_s` — median of several set-ups. `sweep`: the sources, their
//!   reference outcomes and the engine; `serve-*`: spawning `fdi serve` on a
//!   fresh store until it answers a ping (`serve-hot`: and storing the hot
//!   set).
//! * `throughput_per_s` — sweep cells, or answered requests, per second.
//! * `latency_p50_ms`, `latency_p90_ms` — `serve-*`: client time from the
//!   start of the send to the end of the reply line, a failed request
//!   counting as missing every limit; `sweep`: the wall of each whole cold
//!   sweep.
//! * `success_rate` — one minus failed / attempted. A failure is a typed
//!   rejection, a degraded answer, or an answer whose value or output
//!   differs from a VM run of the unoptimized lowered source.
//! * `peak_rss_mb` — `VmHWM` of the process doing the work (this one for
//!   `sweep`, the daemon for `serve-*`).
//! * `cost_ratio`, `size_ratio` — geometric means over non-zero thresholds
//!   of optimized / base VM cost and code size. Deterministic: a change to
//!   what the optimizer produces shows here.

mod daemon;
mod report;
mod timed;
mod traced;
mod workload;

use report::{Host, J};
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

const USAGE: &str =
    "usage: fdi-perfbench --workload sweep|serve-cold|serve-hot --seed N --seconds S --trace 0|1";

/// The command line, checked.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The timed phase's length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdi-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = match Host::probe() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fdi-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        traced::run(&args, &host)
    } else {
        timed::run(&args, &host)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fdi-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for p in &out.problems {
        eprintln!("fdi-perfbench: check failed: {p}");
    }
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut record = vec![
        ("workload", J::str(args.workload.name())),
        ("seed", J::Num(args.seed as f64)),
        ("seconds", J::Num(args.seconds as f64)),
        ("trace", J::Bool(args.trace)),
        ("host", host.to_json()),
        (
            "problems",
            J::Arr(out.problems.iter().map(J::str).collect()),
        ),
    ];
    record.extend(out.details.iter().cloned());
    match report::write_details(&name, &J::obj(record)) {
        Ok(path) => eprintln!("fdi-perfbench: details in {}", path.display()),
        Err(e) => eprintln!("fdi-perfbench: cannot write details: {e}"),
    }
    println!(
        "# {} seed={} nproc={} commit={} source_digest={} rustc={:?}",
        args.workload.name(),
        args.seed,
        host.nproc,
        host.commit,
        host.source_digest,
        host.rustc
    );
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
