//! The programs the VM cost-model tests run: each paper benchmark at its
//! test scale, unoptimized and optimized at several thresholds.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use fdi_benchsuite::BENCHMARKS;
use fdi_core::{optimize_program, PipelineConfig};
use fdi_lang::Program;

/// One executed program: a benchmark at test scale, either unoptimized
/// (`threshold: None`) or optimized at inline threshold `T`.
pub struct Case {
    pub bench: &'static str,
    pub threshold: Option<usize>,
    pub program: Program,
}

impl Case {
    /// `"boyer/T=200"`, `"boyer/unopt"`.
    pub fn name(&self) -> String {
        match self.threshold {
            None => format!("{}/unopt", self.bench),
            Some(t) => format!("{}/T={t}", self.bench),
        }
    }
}

/// Every benchmark × (`None` = unoptimized, or `Some(T)`) in `variants`.
pub fn cases(variants: &[Option<usize>]) -> Vec<Case> {
    let mut out = Vec::new();
    for b in BENCHMARKS {
        let lowered = fdi_lang::parse_and_lower(&b.scaled(b.test_scale))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for &threshold in variants {
            let program = match threshold {
                None => lowered.clone(),
                Some(t) => {
                    optimize_program(&lowered, &PipelineConfig::with_threshold(t))
                        .unwrap_or_else(|e| panic!("{} @{t}: {e}", b.name))
                        .optimized
                }
            };
            out.push(Case {
                bench: b.name,
                threshold,
                program,
            });
        }
    }
    out
}

/// FNV-1a over `s`: a stable fingerprint for values and outputs.
pub fn fingerprint(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
