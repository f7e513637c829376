//! `fdi fsck` — offline integrity check and repair for a disk store.
//!
//! ```text
//! fdi fsck <STORE> [--repair]
//! ```
//!
//! Walks every artifact under `<STORE>/out/`, verifies each frame's magic,
//! length, and checksum ([`fdi_core::framing`]), and reports per-store
//! totals. Orphaned `.tmp` files (a crash mid-write) are always damage;
//! corrupt artifacts are the disk lying. With `--repair`, both are evicted —
//! safe because every artifact is a cache entry the engine will faithfully
//! recompute; without it, nothing is touched.
//!
//! Exit code: 0 when the store is healthy **or** every problem was
//! repaired; nonzero while unrepaired damage remains, so
//! `fdi fsck "$STORE" || fdi fsck "$STORE" --repair` is the idiomatic
//! pre-start gate for a daemon.

use fdi_engine::fsck;
use fdi_telemetry::json::Json;
use std::process::ExitCode;

pub fn main(args: Vec<String>) -> ExitCode {
    let mut store: Option<String> = None;
    let mut repair = false;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            _ if store.is_none() && !arg.starts_with('-') => store = Some(arg),
            other => {
                eprintln!("fdi fsck: unexpected argument {other:?}");
                eprintln!("usage: fdi fsck <STORE> [--repair]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(store) = store else {
        eprintln!("usage: fdi fsck <STORE> [--repair]");
        return ExitCode::FAILURE;
    };
    let report = match fsck(std::path::Path::new(&store), repair) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fdi fsck: {e}");
            return ExitCode::FAILURE;
        }
    };
    for path in &report.corrupt_paths {
        eprintln!(
            "fdi fsck: corrupt artifact{}: {}",
            if repair { " (evicted)" } else { "" },
            path.display()
        );
    }
    let summary = Json::obj([
        ("store", Json::from(store.as_str())),
        ("scanned", report.scanned.into()),
        ("healthy", report.healthy.into()),
        ("corrupt", report.corrupt.into()),
        ("orphaned_tmp", report.orphaned_tmp.into()),
        ("repaired", report.repaired.into()),
        ("bytes", report.bytes.into()),
        ("unrepaired", report.unrepaired().into()),
    ]);
    println!("{summary}");
    if report.unrepaired() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
