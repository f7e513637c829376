//! Per-call-site inlining decision provenance.
//!
//! The paper's evaluation turns on *why* each candidate call site was or
//! wasn't inlined — Condition 1 (unique closure), Condition 2 (free
//! variables / closed up to top level), the `Inline?` size threshold, and
//! the loop map. A [`DecisionRecord`] captures one such verdict with a
//! typed [`DecisionReason`], so tools can aggregate ([`DecisionTotals`]),
//! explain (`fdi explain`), and trend (engine sweeps) without parsing
//! free-form strings.

use crate::json::Json;
use std::fmt;

/// Did the site get inlined?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The call was replaced by a specialized copy of the callee body.
    Inlined,
    /// The call was left in place.
    Rejected,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Inlined => "inlined",
            Verdict::Rejected => "rejected",
        })
    }
}

/// Why a candidate call site got its verdict.
///
/// Exactly one reason per decision; [`DecisionReason::key`] gives the stable
/// snake_case identifier used in JSON output and aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// The site was inlined; the specialized body measured this size.
    Inlined {
        /// Size of the specialized callee body (AST node count).
        specialized_size: usize,
    },
    /// Condition 1 failed: the flow analysis did not prove a single
    /// `(code, contour)` pair flows to the operator (or the arity of the
    /// unique closure did not accept the call).
    NonUniqueClosure,
    /// The specialized body was larger than the inliner's size threshold.
    ThresholdExceeded {
        /// Measured specialized size when the limit tripped.
        size: usize,
        /// The configured threshold it exceeded.
        limit: usize,
    },
    /// Condition 2 failed: the callee has free variables that are not
    /// closed up to top level at this site.
    OpenProcedure {
        /// How many free variables blocked the substitution.
        free_vars: usize,
    },
    /// The loop map suppressed the site: inlining here would unfold a
    /// letrec-bound loop beyond the configured unroll budget.
    LoopGuard,
    /// The inliner's own recursion-depth budget was exhausted before the
    /// site could be considered.
    BudgetDenied,
    /// The run's size budget ran out before this site's turn: under
    /// budgeted (profile-guided or static) ordering, hotter/earlier sites
    /// consumed the shared specialized-size allowance first.
    SizeBudgetExhausted {
        /// Specialized size this site would have added.
        size: usize,
        /// The configured whole-run size budget.
        budget: usize,
    },
}

/// Stable reason keys, in canonical aggregation order. Index `i` matches
/// `DecisionTotals` slot `i` and `DecisionReason::key()` values.
pub const REASON_KEYS: [&str; 7] = [
    "inlined",
    "non_unique_closure",
    "threshold_exceeded",
    "open_procedure",
    "loop_guard",
    "budget_denied",
    "size_budget_exhausted",
];

impl DecisionReason {
    fn index(&self) -> usize {
        match self {
            DecisionReason::Inlined { .. } => 0,
            DecisionReason::NonUniqueClosure => 1,
            DecisionReason::ThresholdExceeded { .. } => 2,
            DecisionReason::OpenProcedure { .. } => 3,
            DecisionReason::LoopGuard => 4,
            DecisionReason::BudgetDenied => 5,
            DecisionReason::SizeBudgetExhausted { .. } => 6,
        }
    }

    /// Stable snake_case identifier (one of [`REASON_KEYS`]).
    pub fn key(&self) -> &'static str {
        REASON_KEYS[self.index()]
    }

    /// The verdict this reason implies.
    pub fn verdict(&self) -> Verdict {
        match self {
            DecisionReason::Inlined { .. } => Verdict::Inlined,
            _ => Verdict::Rejected,
        }
    }
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionReason::Inlined { specialized_size } => {
                write!(f, "inlined(size={specialized_size})")
            }
            DecisionReason::NonUniqueClosure => f.write_str("non-unique-closure"),
            DecisionReason::ThresholdExceeded { size, limit } => {
                write!(f, "threshold-exceeded(size={size}, limit={limit})")
            }
            DecisionReason::OpenProcedure { free_vars } => {
                write!(f, "open-procedure(free-vars={free_vars})")
            }
            DecisionReason::LoopGuard => f.write_str("loop-guard"),
            DecisionReason::BudgetDenied => f.write_str("budget-denied"),
            DecisionReason::SizeBudgetExhausted { size, budget } => {
                write!(f, "size-budget-exhausted(size={size}, budget={budget})")
            }
        }
    }
}

/// One inlining decision at one candidate call site in one contour.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionRecord {
    /// The call expression's label, e.g. `"l17"`.
    pub site_label: String,
    /// The abstract contour the site was considered in, e.g. `"κ3"` or `"·"`.
    pub contour: String,
    /// Human-readable callee, e.g. the operator variable or `"λl9"`.
    pub callee: String,
    /// The outcome.
    pub verdict: Verdict,
    /// Why.
    pub reason: DecisionReason,
}

impl DecisionRecord {
    /// The record as one JSON object with stable key order: site, contour,
    /// callee, verdict, reason key, then the reason's payload.
    pub fn json(&self) -> Json {
        let mut members = vec![
            ("site", Json::from(self.site_label.as_str())),
            ("contour", self.contour.as_str().into()),
            ("callee", self.callee.as_str().into()),
            ("verdict", self.verdict.to_string().into()),
            ("reason", self.reason.key().into()),
        ];
        match self.reason {
            DecisionReason::Inlined { specialized_size } => {
                members.push(("specialized_size", specialized_size.into()));
            }
            DecisionReason::ThresholdExceeded { size, limit } => {
                members.extend([("size", size.into()), ("limit", limit.into())]);
            }
            DecisionReason::OpenProcedure { free_vars } => {
                members.push(("free_vars", free_vars.into()));
            }
            DecisionReason::SizeBudgetExhausted { size, budget } => {
                members.extend([("size", size.into()), ("budget", budget.into())]);
            }
            _ => {}
        }
        Json::obj(members)
    }
}

impl fmt::Display for DecisionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} -> {}: {} [{}]",
            self.site_label, self.contour, self.callee, self.verdict, self.reason
        )
    }
}

/// Decision counts bucketed by reason key, in [`REASON_KEYS`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionTotals {
    counts: [u64; REASON_KEYS.len()],
}

impl DecisionTotals {
    /// Totals over an iterator of records.
    pub fn tally<'a, I: IntoIterator<Item = &'a DecisionRecord>>(records: I) -> DecisionTotals {
        let mut t = DecisionTotals::default();
        for r in records {
            t.record(&r.reason);
        }
        t
    }

    /// Counts one decision.
    pub fn record(&mut self, reason: &DecisionReason) {
        self.counts[reason.index()] += 1;
    }

    /// Adds `n` decisions under a stable reason key — the inverse of
    /// [`DecisionTotals::json`], for consumers that rebuild totals from
    /// a serialized snapshot. Unknown keys are ignored (a snapshot written
    /// by a future reason catalogue still loads).
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(i) = REASON_KEYS.iter().position(|k| *k == key) {
            self.counts[i] += n;
        }
    }

    /// Adds another total into this one.
    pub fn merge(&mut self, other: &DecisionTotals) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The count for a stable reason key; 0 for unknown keys.
    pub fn get(&self, key: &str) -> u64 {
        REASON_KEYS
            .iter()
            .position(|k| *k == key)
            .map_or(0, |i| self.counts[i])
    }

    /// Sites inlined.
    pub fn inlined(&self) -> u64 {
        self.counts[0]
    }

    /// Sites rejected, across all rejection reasons.
    pub fn rejected(&self) -> u64 {
        self.counts[1..].iter().sum()
    }

    /// All decisions counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(key, count)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        REASON_KEYS.iter().copied().zip(self.counts.iter().copied())
    }

    /// One JSON object, keys in canonical order.
    pub fn json(&self) -> Json {
        Json::obj(self.iter().map(|(k, n)| (k, n.into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(reason: DecisionReason) -> DecisionRecord {
        DecisionRecord {
            site_label: "l1".to_string(),
            contour: "·".to_string(),
            callee: "f".to_string(),
            verdict: reason.verdict(),
            reason,
        }
    }

    #[test]
    fn keys_are_stable_and_exhaustive() {
        let reasons = [
            DecisionReason::Inlined {
                specialized_size: 3,
            },
            DecisionReason::NonUniqueClosure,
            DecisionReason::ThresholdExceeded { size: 9, limit: 4 },
            DecisionReason::OpenProcedure { free_vars: 2 },
            DecisionReason::LoopGuard,
            DecisionReason::BudgetDenied,
            DecisionReason::SizeBudgetExhausted { size: 5, budget: 2 },
        ];
        let keys: Vec<&str> = reasons.iter().map(|r| r.key()).collect();
        assert_eq!(keys, REASON_KEYS);
        assert_eq!(reasons[0].verdict(), Verdict::Inlined);
        assert!(reasons[1..]
            .iter()
            .all(|r| r.verdict() == Verdict::Rejected));
    }

    #[test]
    fn totals_tally_merge_and_report() {
        let records = [
            rec(DecisionReason::Inlined {
                specialized_size: 3,
            }),
            rec(DecisionReason::Inlined {
                specialized_size: 5,
            }),
            rec(DecisionReason::LoopGuard),
            rec(DecisionReason::ThresholdExceeded { size: 9, limit: 4 }),
        ];
        let mut t = DecisionTotals::tally(&records);
        assert_eq!(t.inlined(), 2);
        assert_eq!(t.rejected(), 2);
        assert_eq!(t.get("loop_guard"), 1);
        assert_eq!(t.get("nonsense"), 0);
        let mut u = DecisionTotals::default();
        u.record(&DecisionReason::LoopGuard);
        t.merge(&u);
        assert_eq!(t.get("loop_guard"), 2);
        assert_eq!(t.total(), 5);
        assert!(t.json().to_string().starts_with("{\"inlined\":2,"));
    }

    #[test]
    fn add_rebuilds_totals_from_keys() {
        let mut t = DecisionTotals::default();
        t.add("inlined", 4);
        t.add("loop_guard", 2);
        t.add("not_a_reason", 9); // ignored, not counted
        assert_eq!(t.inlined(), 4);
        assert_eq!(t.rejected(), 2);
        assert_eq!(t.total(), 6);
        // Round-trip shape: every key in json is addable back.
        let mut u = DecisionTotals::default();
        for (key, n) in t.iter() {
            u.add(key, n);
        }
        assert_eq!(t, u);
    }

    #[test]
    fn record_json_carries_reason_payload() {
        let j = rec(DecisionReason::ThresholdExceeded { size: 9, limit: 4 })
            .json()
            .to_string();
        assert!(j.contains("\"reason\":\"threshold_exceeded\""), "{j}");
        assert!(j.contains("\"size\":9,\"limit\":4"), "{j}");
        let j = rec(DecisionReason::OpenProcedure { free_vars: 2 })
            .json()
            .to_string();
        assert!(j.contains("\"free_vars\":2"), "{j}");
    }
}
