//! The call-site profiler and its persistent artifact.
//!
//! Flow-directed inlining decides *which* sites to specialize from static
//! flow information; this crate supplies the *ordering* evidence a size
//! budget needs: how hot each call site actually is. A [`Profile`] is
//! collected by running the **original lowered program** on the cost-model
//! VM ([`fdi_vm::run_observed`]) under an [`fdi_vm::Observer`] that tallies
//! each call site's calls and cost — the same program the inliner's
//! decision provenance labels its sites against, so the profile's site
//! labels (`l17`, …) and a
//! [`fdi_telemetry::DecisionRecord::site_label`] name the same call sites.
//!
//! # The artifact
//!
//! A profile persists as one [`fdi_core::framing`] frame (magic · length ·
//! FNV-1a checksum · JSON payload) — the same torn-write/bit-flip discipline
//! the engine's disk store uses. The payload is versioned
//! ([`PROFILE_VERSION`]) and keyed by the [`source_fingerprint`] of the
//! profiled source text; [`Profile::stale`] is the staleness gate callers
//! must apply before trusting it against a (possibly edited) source.
//!
//! # From profile to guide
//!
//! [`Profile::guide`] turns the per-site measurements into an
//! [`InlineGuide`]: each site's benefit is the total mutator cost the VM
//! attributed to it — dynamic call count × per-call linkage cost
//! (`call_overhead + call_per_arg × argc`, plus the argument-spread cost at
//! `apply` sites). That is exactly the cost a committed specialization
//! eliminates, so allocating the inliner's size budget in descending benefit
//! order is hot-first allocation.

use fdi_core::framing::{decode_frame, encode_frame};
use fdi_core::source_fingerprint;
use fdi_inline::InlineGuide;
use fdi_lang::Label;
use fdi_telemetry::json::{parse, Json};
use fdi_vm::{Observer, RunConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// Version of the artifact payload this crate writes and accepts.
pub const PROFILE_VERSION: u64 = 1;

/// One call site's measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProfile {
    /// The site's label in the lowered program (`l17`), identical to the
    /// [`fdi_telemetry::DecisionRecord::site_label`] the inliner records.
    pub site: String,
    /// Dynamic calls dispatched from this site.
    pub calls: u64,
    /// Total mutator cost the VM attributed to this site's call linkage.
    pub cost: u64,
}

/// Each call site's row, keyed by label so the rows come out in numeric
/// label order (`l9` before `l10`).
#[derive(Default)]
struct SiteTally(BTreeMap<Label, SiteProfile>);

impl Observer for SiteTally {
    fn call(&mut self, site: Label, cost: u64) {
        let row = self.0.entry(site).or_insert_with(|| SiteProfile {
            site: site.to_string(),
            calls: 0,
            cost: 0,
        });
        row.calls += 1;
        row.cost += cost;
    }
}

/// A persistent, checksummed call-site profile of one source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// [`source_fingerprint`] of the profiled source — the staleness key.
    pub source_fp: u64,
    /// The `--entry` expression appended for collection, if any (provenance
    /// only; it does not key anything).
    pub entry: Option<String>,
    /// The cost model's per-call overhead at collection time.
    pub call_overhead: u64,
    /// The cost model's per-argument cost at collection time.
    pub call_per_arg: u64,
    /// Total dynamic calls over the run.
    pub total_calls: u64,
    /// Total mutator cost attributed to call linkage over the run.
    pub total_cost: u64,
    /// Per-site rows, sorted by numeric label.
    pub sites: Vec<SiteProfile>,
}

/// Why a profile could not be collected, loaded, or saved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// Filesystem failure (path and cause).
    Io(String),
    /// The frame failed verification: bad magic, truncation, extension,
    /// checksum mismatch, or invalid UTF-8. Never trust a partial read.
    Corrupt,
    /// A verified frame carrying a payload version this crate does not
    /// speak.
    Version(u64),
    /// A verified frame whose payload is not a profile (shape mismatch).
    Malformed(String),
    /// The source under profiling did not lower.
    Frontend(String),
    /// The profiled run failed on the VM.
    Vm(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "io: {e}"),
            ProfileError::Corrupt => write!(f, "corrupt profile artifact"),
            ProfileError::Version(v) => write!(f, "unsupported profile version {v}"),
            ProfileError::Malformed(e) => write!(f, "malformed profile payload: {e}"),
            ProfileError::Frontend(e) => write!(f, "frontend: {e}"),
            ProfileError::Vm(e) => write!(f, "vm: {e}"),
        }
    }
}

impl Profile {
    /// Collects a profile by running `src` (with `entry` appended, when
    /// given) on the cost-model VM, tallying each call site's calls and
    /// linkage cost.
    ///
    /// The profile is keyed by `src` alone: the entry expression is a
    /// driver, not part of the program the profile will later guide.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Frontend`] when the combined source does not lower,
    /// [`ProfileError::Vm`] when the run fails (out of fuel, type error, …).
    pub fn collect(
        src: &str,
        entry: Option<&str>,
        config: &RunConfig,
    ) -> Result<Profile, ProfileError> {
        let combined = match entry {
            Some(e) => format!("{src}\n{e}"),
            None => src.to_string(),
        };
        let program = fdi_lang::parse_and_lower(&combined)
            .map_err(|e| ProfileError::Frontend(e.to_string()))?;
        let mut tally = SiteTally::default();
        let outcome = fdi_vm::run_observed(&program, config, &mut tally)
            .map_err(|e| ProfileError::Vm(e.message))?;
        let sites: Vec<SiteProfile> = tally.0.into_values().collect();
        Ok(Profile {
            source_fp: source_fingerprint(src),
            entry: entry.map(str::to_string),
            call_overhead: config.model.call_overhead,
            call_per_arg: config.model.call_per_arg,
            total_calls: outcome.counters.calls,
            total_cost: sites.iter().map(|s| s.cost).sum(),
            sites,
        })
    }

    /// True when this profile was not collected from `src` — the caller must
    /// fall back to static order (and say so in telemetry).
    pub fn stale(&self, src: &str) -> bool {
        self.source_fp != source_fingerprint(src)
    }

    /// Stable identity of this profile's *content* — the fingerprint of its
    /// canonical payload. Fold this into the pipeline cache key
    /// ([`fdi_core`'s `PipelineConfig::profile_fp`]) so runs guided by
    /// different profiles never collide.
    pub fn fingerprint(&self) -> u64 {
        source_fingerprint(&self.to_json())
    }

    /// The benefit-ordered inline guide: each site's benefit is the total
    /// dynamic linkage cost the VM attributed to it.
    pub fn guide(&self) -> InlineGuide {
        let mut g = InlineGuide::new();
        for s in &self.sites {
            g.set(s.site.clone(), s.cost);
        }
        g
    }

    /// The payload codec: one JSON object, stable key order. Fingerprints
    /// are 16-hex-digit strings (JSON numbers are doubles and cannot carry a
    /// full `u64`).
    pub fn to_json(&self) -> String {
        let sites = self.sites.iter().map(|s| {
            Json::obj([
                ("site", Json::from(s.site.as_str())),
                ("calls", s.calls.into()),
                ("cost", s.cost.into()),
            ])
        });
        Json::obj([
            ("v", PROFILE_VERSION.into()),
            ("source_fp", Json::Str(format!("{:016x}", self.source_fp))),
            ("entry", self.entry.clone().map_or(Json::Null, Json::Str)),
            ("call_overhead", self.call_overhead.into()),
            ("call_per_arg", self.call_per_arg.into()),
            ("total_calls", self.total_calls.into()),
            ("total_cost", self.total_cost.into()),
            ("sites", Json::Arr(sites.collect())),
        ])
        .to_string()
    }

    /// Decodes [`Profile::to_json`].
    ///
    /// # Errors
    ///
    /// [`ProfileError::Version`] for a well-formed payload of another
    /// version; [`ProfileError::Malformed`] for any shape mismatch.
    pub fn from_json(text: &str) -> Result<Profile, ProfileError> {
        let doc = parse(text).map_err(ProfileError::Malformed)?;
        let num = |j: &Json, key: &str| -> Result<u64, ProfileError> {
            j.get(key)
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| ProfileError::Malformed(format!("missing numeric field {key:?}")))
        };
        let v = num(&doc, "v")?;
        if v != PROFILE_VERSION {
            return Err(ProfileError::Version(v));
        }
        let source_fp = doc
            .get("source_fp")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| ProfileError::Malformed("missing hex field \"source_fp\"".into()))?;
        let entry = match doc.get("entry") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_str()
                    .ok_or_else(|| ProfileError::Malformed("non-string \"entry\"".into()))?
                    .to_string(),
            ),
        };
        let mut sites = Vec::new();
        for row in doc
            .get("sites")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProfileError::Malformed("missing array \"sites\"".into()))?
        {
            sites.push(SiteProfile {
                site: row
                    .get("site")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProfileError::Malformed("site row without label".into()))?
                    .to_string(),
                calls: num(row, "calls")?,
                cost: num(row, "cost")?,
            });
        }
        Ok(Profile {
            source_fp,
            entry,
            call_overhead: num(&doc, "call_overhead")?,
            call_per_arg: num(&doc, "call_per_arg")?,
            total_calls: num(&doc, "total_calls")?,
            total_cost: num(&doc, "total_cost")?,
            sites,
        })
    }

    /// Writes the framed artifact atomically (tmp sibling + rename), so a
    /// kill mid-write never leaves a half-frame at the final path.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ProfileError> {
        let frame = encode_frame(&self.to_json());
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, &frame).map_err(|e| ProfileError::Io(format!("write {tmp:?}: {e}")))?;
        fs::rename(&tmp, path).map_err(|e| ProfileError::Io(format!("rename to {path:?}: {e}")))
    }

    /// Loads and verifies a framed artifact.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Io`] when the file cannot be read,
    /// [`ProfileError::Corrupt`] when the frame fails verification
    /// (truncation, bit flips, foreign bytes), and [`Profile::from_json`]'s
    /// errors for a verified frame with the wrong payload.
    pub fn load(path: &Path) -> Result<Profile, ProfileError> {
        let bytes = fs::read(path).map_err(|e| ProfileError::Io(format!("read {path:?}: {e}")))?;
        let payload = decode_frame(&bytes).ok_or(ProfileError::Corrupt)?;
        Profile::from_json(payload)
    }
}

#[cfg(test)]
mod tests;
