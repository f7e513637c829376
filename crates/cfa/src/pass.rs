//! The flow analysis's identity in `fdi-core`'s pass schedules.

/// The analysis as a schedulable pass: its stable name and the
/// behaviour-version salt folded into schedule fingerprints (and so into
/// every cache and store key of a run that analyzes). The pass manager calls
/// [`analyze_instrumented`](crate::analyze_instrumented) directly, with its
/// budget deadline threaded into the limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzePass;

impl AnalyzePass {
    /// Stable pass name; also resolves the fault-injection point and the
    /// schedule-grammar keyword.
    pub const NAME: &'static str = "analyze";
    /// Schedule-fingerprint salt for this pass's behaviour version.
    pub const SALT: u64 = 0xcfa0_0001;
}
