//! `fdi explain` — per-call-site inlining decision provenance.
//!
//! Runs the pipeline and prints, for every candidate call site the inliner
//! considered, one line with the site label, contour, callee, verdict, and
//! the typed reason: `l17 @ κ3 -> f: rejected [threshold-exceeded(size=240,
//! limit=200)]`. `--site LABEL` narrows the output to one site.
//!
//! `--json` emits one JSON object per decision instead (stable keys, one
//! per line). Every object leads with `"trace_id"` — the deterministic
//! fingerprint of this (source, config), the same id `fdi serve` and
//! `fdi batch` answer with for the identical job — so a puzzling daemon
//! response can be explained offline and joined back by id. With a fresh
//! `--profile` loaded, each object additionally carries the site's measured
//! dynamic behavior: `"calls"` (dynamic call count) and `"benefit"`
//! (attributed mutator cost — the priority the guided size budget
//! allocates by).

use crate::opts::Options;
use fdi_core::DecisionTotals;
use fdi_telemetry::json::Json;
use std::process::ExitCode;

pub fn main(opts: &Options) -> ExitCode {
    let Some(src) = opts.read_source() else {
        return ExitCode::FAILURE;
    };
    let Some((out, profile)) = opts.run_pipeline_with_profile(&src) else {
        return ExitCode::FAILURE;
    };
    let decisions: Vec<_> = match &opts.site {
        Some(label) => out
            .decisions
            .iter()
            .filter(|d| d.site_label == *label)
            .collect(),
        None => out.decisions.iter().collect(),
    };
    if let (Some(label), true) = (&opts.site, decisions.is_empty()) {
        eprintln!(
            "fdi: no decision recorded for site {label:?} ({} candidate site(s) total)",
            out.decisions.len()
        );
        return ExitCode::FAILURE;
    }
    if decisions.is_empty() {
        // Degraded runs roll the inline step back, leaving no provenance;
        // run_pipeline already printed the health warning in that case.
        println!(";; no candidate call sites");
        return ExitCode::SUCCESS;
    }
    let trace_hex = fdi_core::trace_id_hex(&src, &opts.config());
    for d in &decisions {
        if opts.json {
            // Lead with the job's trace id (see the module docs), keeping
            // the decision record's own keys untouched after it, then the
            // profile's measurements of the site, when it has any.
            let Json::Obj(record) = d.json() else {
                unreachable!("a decision record renders as an object")
            };
            let mut members = vec![("trace_id".to_string(), Json::from(trace_hex.as_str()))];
            members.extend(record);
            let site = profile
                .as_ref()
                .and_then(|p| p.sites.iter().find(|s| s.site == d.site_label));
            if let Some(site) = site {
                members.push(("calls".to_string(), site.calls.into()));
                members.push(("benefit".to_string(), site.cost.into()));
            }
            println!("{}", Json::Obj(members));
        } else {
            println!("{d}");
        }
    }
    let totals = DecisionTotals::tally(decisions.iter().copied());
    eprintln!(
        ";; {} candidate site(s): {} inlined, {} rejected",
        totals.total(),
        totals.inlined(),
        totals.rejected()
    );
    ExitCode::SUCCESS
}
