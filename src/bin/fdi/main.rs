//! `fdi` — the flow-directed inlining optimizer as a command-line tool.
//!
//! ```text
//! fdi optimize <file.scm> [-t THRESHOLD] [--clref] [--policy 0cfa|poly|1cfa]
//! fdi run      <file.scm> [-t THRESHOLD] [--clref] [--stats] [--trace]
//! fdi analyze  <file.scm> [--policy …]
//! fdi explain  <file.scm> [--site LABEL] [--json] [-t THRESHOLD] [--policy …]
//! fdi profile  <file.scm> [--entry EXPR] [-o FILE]
//! fdi batch    <manifest> [job-flags…] [--jobs N] [--out FILE] [--trace-out FILE]
//! fdi report   [-t THRESHOLD] [--policy …] [--scale test|default]
//!              [--metrics FILE|-]
//! fdi serve    [--port N] [--port-file FILE] [--store DIR] [--jobs N]
//!              [--max-inflight N] [--deadline-ms N] [--read-deadline-ms N]
//!              [--cache-bytes N] [--store-bytes N]
//! fdi client   (--port N | --port-file FILE) [--retries N] [--retry-seed S]
//!              <ping|stats|health|metrics [--metrics-text]|flight|shutdown|job …>
//! fdi fsck     <STORE> [--repair]
//! fdi bench-diff <baseline.json> <current.json> [--tolerance PCT]
//!              [--hit-rate-tolerance ABS] [--wins-drop N]
//! ```
//!
//! `profile` runs the original program on the cost-model VM with per-site
//! attribution and writes a versioned, checksummed profile artifact
//! (`<file>.fdiprof`). `--profile FILE` (on `optimize`, `run`, `explain`,
//! `batch`, and `serve`) loads such an artifact; combined with
//! `--size-budget N` the inliner allocates its whole-run specialized-size
//! budget to the hottest sites first (benefit = measured dynamic cost)
//! instead of syntactic order. A profile collected from a different source
//! is *stale*: the run degrades to static order with a warning and a
//! `profile.stale` telemetry instant, never a silent reorder.
//!
//! `optimize` prints the optimized source; `run` executes baseline and
//! optimized versions on the cost-model VM and reports both; `analyze`
//! prints flow-analysis statistics and inline candidates.
//!
//! `explain` prints the inliner's decision provenance: one line per
//! candidate call site with its contour, callee, verdict, and the typed
//! reason it was or wasn't inlined (non-unique closure, size threshold,
//! open procedure, loop guard, inliner budget). `report` optimizes the
//! Table 1 benchmark suite and prints one row per benchmark with a
//! decisions column aggregated from the same provenance stream.
//!
//! `--trace-out FILE` (on every subcommand that runs the pipeline) collects
//! the run's telemetry — pass spans, CFA convergence counters, cache and
//! engine events — and writes it in Chrome Trace Event Format, loadable in
//! `chrome://tracing` or Perfetto.
//!
//! `batch` runs a whole manifest of jobs on the concurrent engine
//! (`fdi-engine`) and emits one JSON report. Each manifest line is a job:
//! a source — `path/to/file.scm` or `bench:<name>[@<scale>]` — followed by
//! per-job flags (`-t`, `--policy`, `--unroll`, `--clref`, `--fuel`,
//! `--deadline-ms`, `--max-growth`, `--passes`, `--size-budget`,
//! `--validate`, `--oracle-fuel`, `--faults`). The same flags after the
//! manifest path on the command line set every job's defaults. Blank lines
//! and `#` comments are skipped. Identical jobs dedup in flight, and jobs
//! sharing a source or an analysis policy share artifacts through the
//! engine's cache.
//!
//! `--passes SCHEDULE` replaces the default pass schedule
//! (`analyze,inline,simplify`) with a custom one: comma-separated pass
//! names, with `simplify*N` repeating the simplifier N times and a bare
//! `simplify*` running it to a fixpoint. `--trace` prints one line per
//! executed pass (wall time, fuel charged, node-count delta, disposition)
//! to stderr; `batch` reports the same trace per job in its JSON.
//!
//! By default the pipeline degrades on phase failures (budget trips, limit
//! aborts, contained panics) and reports them as `;; degraded:` warnings on
//! stderr; `--strict` turns the first such failure into a non-zero exit.
//! `--deadline-ms`, `--fuel`, and `--max-growth` bound the run.
//!
//! `--validate` arms the translation-validation oracle: after every
//! transformation checkpoint the candidate program is run against the
//! original on the cost-model VM (under `--oracle-fuel`), and a divergence
//! rolls the pipeline back to the last validated program (reported in the
//! health ledger as an oracle rejection). `--faults SEED` arms the seeded
//! chaos plan — deterministic injected panics, typed errors, and latency at
//! every catalogued pipeline fault point; in `batch` and `serve`,
//! `--engine-faults SEED` additionally arms the engine's cache, worker-pool,
//! and disk-store seams.
//!
//! `serve` keeps the engine and its caches hot in a persistent daemon
//! (JSON lines over localhost TCP) and, with `--store DIR`, persists
//! finished optimizations to a checksummed disk store that survives crashes
//! and restarts; `client` is the matching one-shot client, with
//! `--retries N` for seeded-backoff retry of transient failures. See
//! `serve.rs` for the protocol and its typed rejections (overloaded,
//! timeout, draining).
//!
//! The daemon carries a live observability plane: `{"op":"metrics"}`
//! returns windowed counters, gauges, and span-duration histograms (as JSON,
//! or Prometheus text via `fdi client metrics --metrics-text`);
//! `{"op":"flight"}` dumps the flight recorder — the last requests with
//! their deterministic `trace_id`s (shared with `batch` and
//! `explain --json` output for the same source and config) and any notable
//! incidents. `fdi report --metrics FILE|-` renders a scraped metrics JSON
//! document as tables. `fdi bench-diff` is the perf-regression watchdog:
//! it compares two benchmark snapshots (`results/BENCH_sweep.json` /
//! `BENCH_profile.json`) and exits nonzero past tolerance — the CI perf
//! gate.
//!
//! Resource governance: `--cache-bytes N` (on `batch` and `serve`) bounds
//! the in-memory artifact caches with byte-accounted LRU eviction (`serve`
//! defaults to 64 MiB, `batch` to unbounded), and
//! `--store-bytes N` (on `serve`) puts the disk store under a quota enforced
//! by LRU garbage collection. `fdi fsck <STORE> [--repair]` is the offline
//! integrity checker for a store: it verifies every artifact frame and, with
//! `--repair`, evicts corrupt and orphaned entries so a damaged store heals
//! by recomputation instead of serving lies.

mod analyze;
mod batch;
mod bench_diff;
mod client;
mod explain;
mod fsck;
mod optimize;
mod opts;
mod profile;
mod report;
mod run;
mod serve;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        return opts::usage();
    };
    let rest: Vec<String> = argv.collect();
    // `batch` and `report` have their own argument shapes; everything else
    // shares the single-file option parser.
    if command == "batch" {
        return batch::main(rest);
    }
    if command == "report" {
        return report::main(rest);
    }
    if command == "serve" {
        return serve::main(rest);
    }
    if command == "client" {
        return client::main(rest);
    }
    if command == "fsck" {
        return fsck::main(rest);
    }
    if command == "bench-diff" {
        return bench_diff::main(rest);
    }
    let Some(opts) = opts::parse(rest) else {
        return opts::usage();
    };
    match command.as_str() {
        "optimize" => optimize::main(&opts),
        "run" => run::main(&opts),
        "analyze" => analyze::main(&opts),
        "explain" => explain::main(&opts),
        "profile" => profile::main(&opts),
        _ => opts::usage(),
    }
}
