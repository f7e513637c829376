//! Flow-directed inlining: the transformation `I[e]κρ` of Fig. 5.
//!
//! A call site is inlined when a unique abstract closure flows to its
//! function position (Inlining Condition 1, §3.3), the arity matches, the
//! site is not already being unfolded (the loop map ρ), and the *specialized*
//! body passes the `Inline?` size threshold (§3.7). The callee is specialized
//! to the closure's contour: conditionals whose test can never be true
//! (resp. false) there lose the corresponding branch (§3.4), and call sites
//! inside the specialized body are inlined recursively under Inlining
//! Condition 2. Infinite unfolding is cut by binding the specialized
//! procedure with `letrec` and emitting back-edge calls to it (§3.6).
//!
//! Two modes reproduce the paper's two configurations (§3.5/§4):
//!
//! * [`InlineMode::ClRef`] — the general algorithm: free variables of the
//!   inlined procedure are rebound via `(cl-ref w i)` on the extra closure
//!   parameter `w`.
//! * [`InlineMode::Closed`] — the evaluated configuration: only procedures
//!   *closed up to top-level variables* are inlined, so no `cl-ref` is ever
//!   emitted. A procedure with free variables still inlines when its free
//!   references disappear in the specialized copy (pruned branch) or refer
//!   to procedures that are themselves inlined — exactly the paper's two
//!   exceptions.
//!
//! Two orthogonal accelerations preserve byte-identical output (see
//! [`InlineRuntime`]): outermost specializations can be memoized in a
//! [`SpecializationCache`] shared across runs (a threshold sweep then only
//! re-evaluates the `Inline?` gate per threshold), and the root letrec's
//! bindings can be specialized on parallel threads and merged back in
//! binding order.
//!
//! # Examples
//!
//! ```
//! use fdi_inline::{inline_program, InlineConfig};
//! use fdi_cfa::{analyze, Polyvariance};
//!
//! let p = fdi_lang::parse_and_lower("(define (sq x) (* x x)) (sq 7)").unwrap();
//! let flow = analyze(&p, Polyvariance::PolymorphicSplitting);
//! let (out, report) = inline_program(&p, &flow, &InlineConfig::with_threshold(100));
//! assert_eq!(report.sites_inlined, 1);
//! # let _ = out;
//! ```

use fdi_cfa::{AbsVal, ClosureId, ContourId, Ctx, FlowAnalysis};
use fdi_lang::{
    Binder, Const, ExprKind, FreeVars, Label, LambdaInfo, PrimOp, Program, VarId, VarInfo,
};
use fdi_telemetry::{DecisionReason, DecisionRecord, Telemetry};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

mod spec_cache;

pub use spec_cache::{CacheLedger, SpecCacheStats, SpecializationCache, UnboundedLedger};
use spec_cache::{FootDep, Recording, SpecEntry};

/// How inlined procedures access their free variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InlineMode {
    /// Only inline procedures closed up to top-level variables (the paper's
    /// evaluated configuration — never emits `cl-ref`).
    #[default]
    Closed,
    /// Inline any procedure, accessing free variables with `(cl-ref w i)`.
    ClRef,
}

/// Configuration of one inlining run.
#[derive(Debug, Clone, Copy)]
pub struct InlineConfig {
    /// The size threshold `T`: a specialization is inlined when its size is
    /// below this value. Threshold 0 disables inlining.
    pub threshold: usize,
    /// Free-variable discipline.
    pub mode: InlineMode,
    /// Loop unrolling depth: how many times a recursive back-edge may be
    /// unfolded before the loop map ties it (§3.6 notes "loop unrolling …
    /// would be easy to include in this framework"; the paper sets this to
    /// 0 to isolate the benefits of inlining, and so do we by default).
    pub unroll: usize,
}

impl InlineConfig {
    /// The paper's evaluated configuration at threshold `t`.
    pub fn with_threshold(t: usize) -> InlineConfig {
        InlineConfig {
            threshold: t,
            mode: InlineMode::Closed,
            unroll: 0,
        }
    }
}

impl Default for InlineConfig {
    fn default() -> InlineConfig {
        // The paper's sweet spot is between 200 and 500 (§4).
        InlineConfig::with_threshold(200)
    }
}

/// Shared runtime context of one inliner run, orthogonal to
/// [`InlineConfig`] (which is fingerprinted into artifact identities —
/// nothing here may change the output, only how fast it is produced).
#[derive(Clone, Copy)]
pub struct InlineRuntime<'a> {
    /// Specialization memo table plus the content salt its entries are
    /// valid under. The salt must fingerprint everything the construction
    /// can read besides the threshold: source program, flow analysis
    /// configuration, and the inliner's mode/unroll.
    pub cache: Option<(&'a SpecializationCache, u64)>,
    /// Split the root letrec's bindings across this many threads
    /// (1 = fully sequential). The merge is deterministic: output arenas
    /// are label-for-label identical to the sequential run.
    pub units: usize,
}

impl InlineRuntime<'_> {
    /// No cache, no parallelism — the historical behaviour.
    pub fn sequential() -> InlineRuntime<'static> {
        InlineRuntime {
            cache: None,
            units: 1,
        }
    }
}

impl Default for InlineRuntime<'static> {
    fn default() -> Self {
        InlineRuntime::sequential()
    }
}

/// Per-call-site benefit estimates from a dynamic profile.
///
/// Keys are site labels exactly as [`DecisionRecord::site_label`] renders
/// them (`"l17"`); values are the estimated mutator cost inlining the site
/// would save — dynamic call count × per-call overhead, as measured by
/// `fdi_vm::run_profiled`. Sites absent from the guide have benefit 0. Under
/// a size budget ([`inline_program_budgeted`]) the guide replaces syntactic
/// traversal order with benefit order, so hot sites claim the budget first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InlineGuide {
    benefits: HashMap<String, u64>,
}

impl InlineGuide {
    /// An empty guide (every site's benefit is 0).
    pub fn new() -> InlineGuide {
        InlineGuide::default()
    }

    /// Sets one site's estimated benefit.
    pub fn set(&mut self, site_label: impl Into<String>, benefit: u64) {
        self.benefits.insert(site_label.into(), benefit);
    }

    /// The estimated benefit of a site; 0 when unprofiled.
    pub fn benefit(&self, site_label: &str) -> u64 {
        self.benefits.get(site_label).copied().unwrap_or(0)
    }

    /// How many sites carry a benefit estimate.
    pub fn len(&self) -> usize {
        self.benefits.len()
    }

    /// Whether the guide is empty.
    pub fn is_empty(&self) -> bool {
        self.benefits.is_empty()
    }
}

/// What the inliner did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineReport {
    /// Call sites considered (calls and applies).
    pub calls_seen: usize,
    /// Call sites inlined.
    pub sites_inlined: usize,
    /// Back-edges tied into loops via the loop map.
    pub loops_tied: usize,
    /// Candidates rejected for free-variable reasons (Closed mode).
    pub rejected_open: usize,
    /// Candidates rejected because the specialized body exceeded the size
    /// threshold at an ordinary (non-back-edge) site.
    pub rejected_size: usize,
    /// Loop-unroll attempts at back-edge sites whose specialization exceeded
    /// the size threshold; the site was then tied via the loop map (counted
    /// in [`InlineReport::loops_tied`] as well).
    pub rejected_loop_guard: usize,
    /// Candidates denied because the whole-run size budget was already
    /// spent on higher-priority sites ([`inline_program_budgeted`]).
    pub rejected_budget: usize,
    /// Conditional branches pruned during specialization.
    pub branches_pruned: usize,
    /// Subexpressions pruned to the right of a divergent one (§3.4's
    /// generalized pruning for left-to-right evaluation).
    pub divergence_prunes: usize,
    /// Recursive back-edges unfolded by loop unrolling before tying.
    pub unrolled: usize,
}

impl InlineReport {
    /// Field-wise `self - base` (counters only ever grow during a run).
    pub(crate) fn delta_from(self, base: InlineReport) -> InlineReport {
        InlineReport {
            calls_seen: self.calls_seen - base.calls_seen,
            sites_inlined: self.sites_inlined - base.sites_inlined,
            loops_tied: self.loops_tied - base.loops_tied,
            rejected_open: self.rejected_open - base.rejected_open,
            rejected_size: self.rejected_size - base.rejected_size,
            rejected_loop_guard: self.rejected_loop_guard - base.rejected_loop_guard,
            rejected_budget: self.rejected_budget - base.rejected_budget,
            branches_pruned: self.branches_pruned - base.branches_pruned,
            divergence_prunes: self.divergence_prunes - base.divergence_prunes,
            unrolled: self.unrolled - base.unrolled,
        }
    }

    /// Field-wise `self + delta`.
    pub(crate) fn merged(self, d: InlineReport) -> InlineReport {
        InlineReport {
            calls_seen: self.calls_seen + d.calls_seen,
            sites_inlined: self.sites_inlined + d.sites_inlined,
            loops_tied: self.loops_tied + d.loops_tied,
            rejected_open: self.rejected_open + d.rejected_open,
            rejected_size: self.rejected_size + d.rejected_size,
            rejected_loop_guard: self.rejected_loop_guard + d.rejected_loop_guard,
            rejected_budget: self.rejected_budget + d.rejected_budget,
            branches_pruned: self.branches_pruned + d.branches_pruned,
            divergence_prunes: self.divergence_prunes + d.divergence_prunes,
            unrolled: self.unrolled + d.unrolled,
        }
    }
}

/// The inliner's identity in `fdi-core`'s pass schedules: its stable name
/// and the behaviour-version salt folded into schedule fingerprints (and so
/// into every cache and store key of a run that inlines).
#[derive(Debug, Clone, Copy, Default)]
pub struct InlinePass;

impl InlinePass {
    /// Stable pass name; also resolves the fault-injection point and the
    /// schedule-grammar keyword.
    pub const NAME: &'static str = "inline";
    /// Schedule-fingerprint salt for this pass's behaviour version.
    pub const SALT: u64 = 0x1a11_4e01;
}

/// Everything one inlining run produced: the rewritten program, the
/// aggregate counters, and per-call-site decision provenance.
#[derive(Debug, Clone)]
pub struct InlineOutcome {
    /// The rewritten (not yet simplified) program.
    pub program: Program,
    /// Aggregate counters.
    pub report: InlineReport,
    /// One record per candidate call site that reached a final verdict, in
    /// transformation order. Candidates are sites whose operator value set
    /// contains at least one closure. Records inside *discarded*
    /// speculations are dropped (the aggregate counters, historically, are
    /// not rolled back — so counter totals may exceed record totals when
    /// speculative inlining unwinds).
    pub decisions: Vec<DecisionRecord>,
}

/// Runs flow-directed inlining over `program` using `flow`.
///
/// The returned program is *not* yet simplified; run
/// `fdi_simplify::simplify` afterwards, as §2.3 prescribes.
pub fn inline_program(
    program: &Program,
    flow: &FlowAnalysis,
    config: &InlineConfig,
) -> (Program, InlineReport) {
    let out = inline_program_with(
        program,
        flow,
        config,
        InlineRuntime::sequential(),
        &Telemetry::off(),
    );
    (out.program, out.report)
}

/// [`inline_program`] with decision provenance, under an explicit
/// [`InlineRuntime`].
///
/// Returns per-call-site [`DecisionRecord`]s alongside the program, and
/// emits each record into `telemetry` when a collector is installed. A
/// shared [`SpecializationCache`] memoizes outermost specializations across
/// runs, and `units > 1` shards the root letrec's bindings across threads.
/// Neither the telemetry handle nor the runtime changes the output: it is
/// byte-identical to the sequential, cache-free run (replays carry an exact
/// footprint of the ambient facts the recorded construction consulted, and
/// stale footprints fall back to a live specialization).
pub fn inline_program_with(
    program: &Program,
    flow: &FlowAnalysis,
    config: &InlineConfig,
    rt: InlineRuntime<'_>,
    telemetry: &Telemetry,
) -> InlineOutcome {
    let out = run_inliner(program, flow, config, None, rt, telemetry);
    // Decisions are emitted only once the run is complete, so discarded
    // speculations never leak ghost records into the collector.
    for record in &out.decisions {
        telemetry.decision(record);
    }
    out
}

/// [`inline_program_with`] under a whole-run *size budget*: the total
/// specialized size committed across all inlined sites may not exceed
/// `size_budget`.
///
/// The run is probe-order-commit. A silent probe pass discovers every
/// site the threshold-driven inliner would specialize and how much total
/// specialized size each distinct `(site, contour)` key commits. Those
/// keys are grouped into admission *units* and put in priority order:
/// static order is one key per unit in probe (syntactic) order; a guide
/// groups a label's every contour key into one unit and sorts units by
/// benefit *density* (measured dynamic call overhead per unit of probe
/// size), ties broken by probe order. The budget is then allocated by
/// *measurement*, not estimate: a binary search over gated inliner runs
/// finds the longest prefix of the priority order whose committed total
/// fits the budget, and a greedy extension pass tries each remaining unit
/// that could still fit, keeping it only if the re-measured commit stays
/// within budget. Denied sites record
/// [`DecisionReason::SizeBudgetExhausted`] and stay plain calls.
///
/// Probe estimates steer only the ordering and the extension pruning — a
/// key may fire in more copies under the gate than the probe saw, so
/// every kept plan is one the inliner actually committed within budget.
/// The budget is a **hard cap on the committed total**; an over-budget
/// commit is never returned. Only the final commit's decisions reach
/// telemetry.
///
/// With `size_budget == None` there is nothing to gate and this is exactly
/// [`inline_program_with`] — guide or not, the output is byte-identical to
/// the static run.
///
/// Under a budget, the ungated probe pass may reuse memoized
/// specializations from `rt`'s cache; gated commit passes always specialize
/// live (a budget gate changes which nested sites inline, which the memo
/// footprint does not model).
pub fn inline_program_budgeted(
    program: &Program,
    flow: &FlowAnalysis,
    config: &InlineConfig,
    guide: Option<&InlineGuide>,
    size_budget: Option<usize>,
    rt: InlineRuntime<'_>,
    telemetry: &Telemetry,
) -> InlineOutcome {
    let Some(budget) = size_budget else {
        return inline_program_with(program, flow, config, rt, telemetry);
    };
    let probe = run_inliner(program, flow, config, None, rt, telemetry);
    // Committed-size totals per key, as last observed (the estimate the
    // greedy plan allocates by); plus each key's first probe occurrence,
    // the static priority and the guide's tie-break.
    let per_key_totals = |decisions: &[DecisionRecord]| {
        let mut totals: HashMap<(String, String), usize> = HashMap::new();
        for d in decisions {
            if let DecisionReason::Inlined { specialized_size } = d.reason {
                *totals
                    .entry((d.site_label.clone(), d.contour.clone()))
                    .or_insert(0) += specialized_size;
            }
        }
        totals
    };
    let estimate = per_key_totals(&probe.decisions);
    // Planning units: one per admission decision. Static order plans per
    // (site, contour) key in probe order. A guide plans per *label* — the
    // profile's granularity — so a hot label's every contour variant is
    // admitted (and charged) together: crediting the label's full dynamic
    // cost to each variant separately would spend budget on cold-contour
    // duplicates of hot labels.
    struct Unit {
        index: usize,
        keys: Vec<(String, String)>,
        benefit: u64,
    }
    // A label the probe tied as a loop back-edge realizes almost none of
    // its measured benefit: the profile counted every iteration through
    // the site, but inlining eliminates only the loop *entry* — the
    // back-edge is tied to a residual loop and keeps paying call overhead.
    // Such labels sort last (benefit 0) rather than soaking up budget the
    // hot straight-line sites could use.
    let loopy: HashSet<&str> = probe
        .decisions
        .iter()
        .filter(|d| matches!(d.reason, DecisionReason::LoopGuard))
        .map(|d| d.site_label.as_str())
        .collect();
    let mut units: Vec<Unit> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (i, d) in probe.decisions.iter().enumerate() {
        if let DecisionReason::Inlined { .. } = d.reason {
            let key = (d.site_label.clone(), d.contour.clone());
            match guide {
                None => {
                    if !units.iter().any(|u| u.keys[0] == key) {
                        units.push(Unit {
                            index: i,
                            keys: vec![key],
                            benefit: 0,
                        });
                    }
                }
                Some(g) => match seen.entry(d.site_label.clone()) {
                    Entry::Occupied(e) => {
                        let unit = &mut units[*e.get()];
                        if !unit.keys.contains(&key) {
                            unit.keys.push(key);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(units.len());
                        units.push(Unit {
                            index: i,
                            keys: vec![key],
                            benefit: if loopy.contains(d.site_label.as_str()) {
                                0
                            } else {
                                g.benefit(&d.site_label)
                            },
                        });
                    }
                },
            }
        }
    }
    let unit_size = |u: &Unit, estimate: &HashMap<(String, String), usize>| -> usize {
        u.keys
            .iter()
            .map(|k| estimate.get(k).copied().unwrap_or(0))
            .sum()
    };
    if guide.is_some() {
        // Greedy knapsack order: benefit *density* (dynamic cost saved per
        // unit of specialized size committed), not raw benefit — a huge hot
        // site must not crowd out several cheap warm ones. Cross-multiplied
        // in u128 so the comparison is exact; zero-size units are free and
        // sort first; ties fall back to probe order. Sorted once, on probe
        // estimates, so re-planning rounds never reshuffle priorities.
        let density: Vec<(u128, u128, usize)> = units
            .iter()
            .map(|u| (u.benefit as u128, unit_size(u, &estimate) as u128, u.index))
            .collect();
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by(|&a, &b| {
            let ((ba, sa, ia), (bb, sb, ib)) = (density[a], density[b]);
            (bb * sa).cmp(&(ba * sb)).then(ia.cmp(&ib))
        });
        units = {
            let mut by_pos: Vec<Option<Unit>> = units.into_iter().map(Some).collect();
            order.iter().map(|&i| by_pos[i].take().unwrap()).collect()
        };
    }
    // Commit under a given admission set, measuring the actual total. The
    // gate denies any key outside `allow`, so an empty admission commits 0
    // and every measurement is a plan the inliner really executed.
    let commit = |admit: &[bool]| -> (InlineOutcome, usize) {
        let mut gate = Gate {
            allow: HashSet::new(),
            denied: HashMap::new(),
            budget,
        };
        for (u, &on) in units.iter().zip(admit) {
            if on {
                gate.allow.extend(u.keys.iter().cloned());
            } else {
                for k in &u.keys {
                    gate.denied
                        .insert(k.clone(), estimate.get(k).copied().unwrap_or(0));
                }
            }
        }
        let out = run_inliner(program, flow, config, Some(gate), rt, telemetry);
        let total = per_key_totals(&out.decisions).values().sum::<usize>();
        (out, total)
    };
    // Longest admissible prefix of the priority order, by measurement: a
    // gated key can fire in more copies than the probe saw, so probe
    // estimates cannot allocate the budget — each probe here is a real
    // commit. The empty prefix commits nothing, so `lo` always holds a
    // within-budget plan.
    let mut admit = vec![false; units.len()];
    let (mut best, mut best_total) = (None, 0usize);
    let (mut lo, mut hi) = (0usize, units.len());
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        admit[..mid].fill(true);
        admit[mid..].fill(false);
        let (out, total) = commit(&admit);
        if total <= budget {
            best = Some(out);
            best_total = total;
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    admit[..lo].fill(true);
    admit[lo..].fill(false);
    let mut out = match best {
        Some(out) => out,
        None => {
            let (out, total) = commit(&admit);
            best_total = total;
            out
        }
    };
    // Greedy extension: the prefix may stop at one oversized unit while
    // later, smaller ones still fit. Try each remaining unit whose probe
    // estimate fits the measured slack; keep it only if the re-measured
    // commit stays within budget.
    for i in lo..units.len() {
        if unit_size(&units[i], &estimate) > budget - best_total {
            continue;
        }
        admit[i] = true;
        let (ext, total) = commit(&admit);
        if total <= budget {
            out = ext;
            best_total = total;
        } else {
            admit[i] = false;
        }
    }
    for record in &out.decisions {
        telemetry.decision(record);
    }
    out
}

/// The commit-phase allow set of a budgeted run: only keys in `allow` may
/// inline; `denied` remembers each cut site's planned size for its
/// [`DecisionReason::SizeBudgetExhausted`] record. Keys are
/// `(site label, contour)` strings, matching [`DecisionRecord`]s.
struct Gate {
    allow: HashSet<(String, String)>,
    denied: HashMap<(String, String), usize>,
    budget: usize,
}

/// One full inliner pass, optionally gated by a budget plan. Emits nothing
/// into telemetry besides cache/unit tracing — callers emit decisions, once
/// the run is final.
fn run_inliner(
    program: &Program,
    flow: &FlowAnalysis,
    config: &InlineConfig,
    gate: Option<Gate>,
    rt: InlineRuntime<'_>,
    telemetry: &Telemetry,
) -> InlineOutcome {
    let mut rhs_of = HashMap::new();
    for l in program.reachable() {
        if let ExprKind::Let(bindings, _) | ExprKind::Letrec(bindings, _) = program.expr(l) {
            for &(v, e) in bindings {
                rhs_of.insert(v, e);
            }
        }
    }
    // Pre-intern the inliner's generated names: after this point no
    // transformation interns anything (copied variables reuse their source
    // `Sym`s), so every parallel unit — and every run over the same source —
    // shares one interner layout. This is what lets memoized entries store
    // `Sym`s directly and lets units discard their interner clones at merge.
    let mut interner = program.interner().clone();
    interner.intern("%inl");
    interner.intern("%w");
    let shared = Shared {
        old: program,
        flow,
        config: *config,
        gate,
        fv: FreeVars::compute(program),
        rhs_of,
        cache: rt.cache,
        units: rt.units.max(1),
        telemetry,
    };
    let mut inliner = Inliner::new(&shared, Program::new(interner));
    let root = inliner
        .transform(program.root(), Ctx::At(ContourId::EMPTY))
        .expect("top-level transform cannot poison");
    inliner.out.set_root(root);
    debug_assert!(
        fdi_lang::validate(&inliner.out).is_ok(),
        "inliner produced ill-formed AST: {:?}",
        fdi_lang::validate(&inliner.out)
    );
    if shared.cache.is_some() {
        telemetry.instant(
            "specialize.cache",
            "inline",
            &[
                ("hits", inliner.run_hits.to_string()),
                ("misses", inliner.run_misses.to_string()),
            ],
        );
    }
    InlineOutcome {
        program: inliner.out,
        report: inliner.report,
        decisions: inliner.decisions,
    }
}

/// Aborts a speculative specialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Poison {
    /// Closed-mode body referenced a disallowed free variable: the nearest
    /// enclosing speculation rejects and falls back to a plain call.
    Open,
    /// The outermost speculation's size budget was exceeded: unwind the
    /// whole nest.
    TooBig,
}

/// How one specialization attempt ended (internal to the transformer).
enum Attempt {
    /// Inlined: the resulting expression and the specialized body size.
    Inlined(Label, usize),
    /// Rejected; the caller attributes counters and records the reason.
    Rejected(Reject),
}

/// Why a specialization attempt was rejected.
enum Reject {
    /// Closed-mode free-variable violation; carries how many free variables
    /// this speculation had to poison (0 when the blocking reference was
    /// poisoned by an enclosing speculation).
    Open { free_vars: usize },
    /// The specialized body was too big: either measured over the threshold,
    /// or aborted mid-construction (where `size` counts the arena nodes
    /// built before the budget tripped).
    TooBig { size: usize },
}

/// A constructed (pre-gate) specialization: everything [`Inliner::try_inline`]
/// needs to run the `Inline?` gate and, on acceptance, commit the
/// `(letrec ((y λ')) (call y …))` wrapper. All labels/variables index the
/// current output arena — memoized entries store these record-side and
/// relocate on replay.
#[derive(Debug, Clone)]
pub(crate) struct SpecData {
    letrec_label: Label,
    lam_label: Label,
    y: VarId,
    w: VarId,
    new_params: Vec<VarId>,
    body: Label,
    cl_ref_binds: Vec<(VarId, u32)>,
    specialized_size: usize,
}

/// How one outermost-eligible specialization construction ended. Unlike
/// [`Attempt`], the `Inline?` gate has *not* run yet: `Done` may still be
/// rejected by size at the current threshold. This is the memoization unit.
#[derive(Debug, Clone)]
pub(crate) enum SpecAttempt {
    /// Construction finished; the gate decides.
    Done(SpecData),
    /// Closed-mode free-variable violation (see [`Reject::Open`]).
    Open { free_vars: usize },
    /// Construction aborted past the size budget (see [`Reject::TooBig`]).
    TooBig { size: usize },
}

/// Hard cap on transform recursion through nested inlines; combined with the
/// loop map this cannot trigger on sane thresholds, but keeps adversarial
/// configurations from overflowing the stack.
const MAX_INLINE_DEPTH: usize = 64;

/// Run-wide immutable state, shared by the main transformer and every
/// parallel inlining unit.
struct Shared<'p> {
    old: &'p Program,
    flow: &'p FlowAnalysis,
    config: InlineConfig,
    /// Budget plan of a commit pass; `None` runs ungated (the historical
    /// behaviour, and the probe pass).
    gate: Option<Gate>,
    fv: FreeVars,
    /// Binding right-hand sides: variable → RHS label, for recognizing
    /// direct calls to locally-bound procedures.
    rhs_of: HashMap<VarId, Label>,
    /// Memo table for outermost specializations, with its content salt.
    cache: Option<(&'p SpecializationCache, u64)>,
    /// Parallel inlining units for the root letrec (1 = sequential).
    units: usize,
    telemetry: &'p Telemetry,
}

struct Inliner<'p, 's> {
    sh: &'s Shared<'p>,
    out: Program,
    /// Scope-ordered variable renaming; `None` marks a poisoned variable.
    vmap: Vec<(VarId, Option<VarId>)>,
    /// The loop map ρ: (λ label, specialization contour) → loop variable,
    /// plus whether that variable's λ carries the extra `w` parameter
    /// (call-site specializations do; letrec-registered originals do not).
    loop_map: Vec<((Label, ContourId), (VarId, bool))>,
    report: InlineReport,
    /// Decision provenance for candidate call sites, in transformation
    /// order; truncated back when a speculation is discarded.
    decisions: Vec<DecisionRecord>,
    depth: usize,
    /// Arena sizes at the start of each in-flight speculative inline; a
    /// specialization that grows past its budget aborts immediately instead
    /// of finishing construction (the paper's footnote 2 estimates the
    /// specialized size "without actually constructing it"; we construct,
    /// but bail out as soon as the budget is exceeded).
    size_marks: Vec<usize>,
    /// Live footprint/validity bookkeeping while an outermost
    /// specialization records a cache entry.
    rec: Option<Recording>,
    run_hits: u64,
    run_misses: u64,
}

/// One parallel unit's results, merged back in binding order.
struct UnitOut {
    out: Program,
    /// Unit-arena labels of the transformed binding λs, in binding order.
    lambdas: Vec<Label>,
    report: InlineReport,
    decisions: Vec<DecisionRecord>,
    run_hits: u64,
    run_misses: u64,
}

/// Split `n` bindings into at most `units` contiguous, near-even chunks.
fn chunk_ranges(n: usize, units: usize) -> Vec<(usize, usize)> {
    let units = units.min(n).max(1);
    let (base, extra) = (n / units, n % units);
    let mut out = Vec::with_capacity(units);
    let mut start = 0;
    for i in 0..units {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

impl<'p, 's> Inliner<'p, 's> {
    fn new(sh: &'s Shared<'p>, out: Program) -> Inliner<'p, 's> {
        Inliner {
            sh,
            out,
            vmap: Vec::new(),
            loop_map: Vec::new(),
            report: InlineReport::default(),
            decisions: Vec::new(),
            depth: 0,
            size_marks: Vec::new(),
            rec: None,
            run_hits: 0,
            run_misses: 0,
        }
    }

    fn lookup(&mut self, v: VarId) -> Option<Option<VarId>> {
        let found = self
            .vmap
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &(w, _))| w == v);
        let (idx, res) = match found {
            Some((i, &(_, nv))) => (Some(i), Some(nv)),
            None => (None, None),
        };
        if let Some(rec) = &mut self.rec {
            // Resolutions below the region's watermark (or misses) read
            // *ambient* state: they are part of the entry's footprint.
            if idx.is_none_or(|i| i < rec.vmark) {
                rec.note_var(v, res);
            }
        }
        res
    }

    /// [`Inliner::lookup`] without footprint recording, for probing whether
    /// a candidate entry's recorded footprint still holds.
    fn lookup_raw(&self, v: VarId) -> Option<Option<VarId>> {
        self.vmap
            .iter()
            .rev()
            .find(|&&(w, _)| w == v)
            .map(|&(_, nv)| nv)
    }

    fn loop_var(&mut self, lam: Label, k: ContourId) -> Option<(VarId, bool)> {
        let found = self
            .loop_map
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &(key, _))| key == (lam, k));
        let (idx, res) = match found {
            Some((i, &(_, y))) => (Some(i), Some(y)),
            None => (None, None),
        };
        if let Some(rec) = &mut self.rec {
            if idx.is_none_or(|i| i < rec.lmark) {
                rec.note_loop(lam, k, res);
            }
        }
        res
    }

    fn loop_var_raw(&self, lam: Label, k: ContourId) -> Option<(VarId, bool)> {
        self.loop_map
            .iter()
            .rev()
            .find(|&&(key, _)| key == (lam, k))
            .map(|&(_, y)| y)
    }

    fn fresh_var(&mut self, name: &str, binder: Binder, top_level: bool) -> VarId {
        let sym = self.out.interner_mut().intern(name);
        self.out.add_var(VarInfo {
            name: sym,
            binder,
            top_level,
        })
    }

    fn fresh_from(&mut self, old_var: VarId, binder: Binder) -> VarId {
        let info = *self.sh.old.var(old_var);
        let nv = self.out.add_var(VarInfo {
            name: info.name,
            binder,
            top_level: info.top_level,
        });
        self.vmap.push((old_var, Some(nv)));
        nv
    }

    fn konst(&mut self, c: Const) -> Label {
        self.out.add_expr(ExprKind::Const(c))
    }

    /// The contour column of a decision record: `?` is the union contour,
    /// `∅` a dead context.
    fn ctx_string(ctx: Ctx) -> String {
        match ctx {
            Ctx::Top => "?".to_string(),
            Ctx::At(k) => k.to_string(),
            Ctx::Dead => "∅".to_string(),
        }
    }

    /// Human-readable callee: the operator variable's source name when the
    /// operator is a variable, otherwise the callee λ's label (or the
    /// operator expression's label when no unique callee exists).
    fn callee_string(&self, op: Label, lambda: Option<Label>) -> String {
        if let ExprKind::Var(v) = self.sh.old.expr(op) {
            return self.sh.old.var_name(*v).to_string();
        }
        match lambda {
            Some(l) => format!("λ{l}"),
            None => format!("<{op}>"),
        }
    }

    /// When a budget plan is active and does not admit this site, the size
    /// its specialization would have added (0 when the probe never priced
    /// it). `None` means the site may try to inline.
    fn gate_denied(&self, site: Label, ctx: Ctx) -> Option<usize> {
        let gate = self.sh.gate.as_ref()?;
        let key = (site.to_string(), Self::ctx_string(ctx));
        if gate.allow.contains(&key) {
            None
        } else {
            Some(gate.denied.get(&key).copied().unwrap_or(0))
        }
    }

    fn record_decision(&mut self, site: Label, ctx: Ctx, callee: String, reason: DecisionReason) {
        self.decisions.push(DecisionRecord {
            site_label: site.to_string(),
            contour: Self::ctx_string(ctx),
            callee,
            verdict: reason.verdict(),
            reason,
        });
    }

    // --- the transformation I[e]κρ -----------------------------------------

    fn transform(&mut self, l: Label, ctx: Ctx) -> Result<Label, Poison> {
        if let Some(&mark) = self.size_marks.first() {
            // Generous slack: arena nodes include speculative garbage, and
            // the size metric is roughly one unit per node.
            let budget = mark + self.sh.config.threshold.max(1) * 8;
            let count = self.out.expr_count();
            if count > budget {
                if let Some(rec) = &mut self.rec {
                    // The outermost mark is the recording region's own, so
                    // this growth is exactly the one a replaying threshold
                    // must also trip on.
                    rec.trip_growth = Some(count - mark);
                }
                return Err(Poison::TooBig);
            }
            if let Some(rec) = &mut self.rec {
                rec.max_growth = rec.max_growth.max(count - mark);
            }
        }
        match self.sh.old.expr(l).clone() {
            ExprKind::Const(c) => Ok(self.konst(c)),
            ExprKind::Var(v) => match self.lookup(v) {
                Some(Some(nv)) => Ok(self.out.add_expr(ExprKind::Var(nv))),
                Some(None) => Err(Poison::Open),
                None => unreachable!("variable {v} not in transform scope"),
            },
            ExprKind::Prim(p, args) => {
                if let Some(done) = self.prune_divergent_sequence(&args, ctx)? {
                    return Ok(done);
                }
                let new_args = args
                    .iter()
                    .map(|&a| self.transform(a, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.out.add_expr(ExprKind::Prim(p, new_args)))
            }
            ExprKind::Call(parts) => self.transform_call(l, &parts, ctx),
            ExprKind::Apply(f, arg) => {
                self.report.calls_seen += 1;
                let nf = self.transform(f, ctx)?;
                let na = self.transform(arg, ctx)?;
                Ok(self.out.add_expr(ExprKind::Apply(nf, na)))
            }
            ExprKind::Begin(parts) => {
                if let Some(done) = self.prune_divergent_sequence(&parts, ctx)? {
                    return Ok(done);
                }
                let new_parts = parts
                    .iter()
                    .map(|&e| self.transform(e, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.out.add_expr(ExprKind::Begin(new_parts)))
            }
            ExprKind::If(c, t, e) => self.transform_if(c, t, e, ctx),
            ExprKind::Let(bindings, body) => {
                let rhs_ctx = self.sh.flow.extend_ctx(ctx, l);
                let label = self.out.add_expr(ExprKind::Const(Const::Unspecified));
                let mark = self.vmap.len();
                let mut rhss = Vec::new();
                for &(_, e) in &bindings {
                    rhss.push(self.transform(e, rhs_ctx)?);
                }
                let mut new_bindings = Vec::new();
                for (&(x, _), ne) in bindings.iter().zip(rhss) {
                    let nx = self.fresh_from(x, Binder::Let(label));
                    new_bindings.push((nx, ne));
                }
                let nbody = self.transform(body, ctx);
                self.vmap.truncate(mark);
                let nbody = nbody?;
                self.out.set_expr(label, ExprKind::Let(new_bindings, nbody));
                Ok(label)
            }
            ExprKind::Letrec(bindings, body) => self.transform_letrec(l, &bindings, body, ctx),
            ExprKind::Lambda(lam) => {
                // Original copies of λ-expressions are not specialized to any
                // contour: their bodies transform in the union contour `?`.
                self.transform_lambda(l, &lam, Ctx::Top)
            }
            ExprKind::ClRef(e, n) => {
                let ne = self.transform(e, ctx)?;
                Ok(self.out.add_expr(ExprKind::ClRef(ne, n)))
            }
        }
    }

    fn transform_lambda(
        &mut self,
        old_label: Label,
        lam: &LambdaInfo,
        body_ctx: Ctx,
    ) -> Result<Label, Poison> {
        let label = self.out.add_expr(ExprKind::Const(Const::Unspecified));
        // In ClRef mode the capture layout of every original λ copy is
        // pinned to the source free-variable order, so the `cl-ref` indices
        // emitted at inline sites stay valid under later simplification
        // (§3.5's `[z1 … zm]` annotation).
        if self.sh.config.mode == InlineMode::ClRef {
            if let Some(free) = self.sh.fv.get(old_label) {
                let free = free.to_vec();
                let mapped: Option<Vec<VarId>> =
                    free.iter().map(|&z| self.lookup(z).flatten()).collect();
                if let Some(pins) = mapped {
                    if !pins.is_empty() {
                        if let Some(rec) = &mut self.rec {
                            rec.pins.push((label, pins.clone()));
                        }
                        self.out.pin_captures(label, pins);
                    }
                }
            }
        }
        let mark = self.vmap.len();
        let params: Vec<VarId> = lam
            .params
            .iter()
            .map(|&p| self.fresh_from(p, Binder::Lambda(label)))
            .collect();
        let rest = lam.rest.map(|r| self.fresh_from(r, Binder::Lambda(label)));
        let body = self.transform(lam.body, body_ctx);
        self.vmap.truncate(mark);
        let body = body?;
        self.out
            .set_expr(label, ExprKind::Lambda(LambdaInfo { params, rest, body }));
        Ok(label)
    }

    fn transform_letrec(
        &mut self,
        l: Label,
        bindings: &[(VarId, Label)],
        body: Label,
        ctx: Ctx,
    ) -> Result<Label, Poison> {
        let units = self.plan_units(l, bindings);
        let rhs_ctx = self.sh.flow.extend_ctx(ctx, l);
        let label = self.out.add_expr(ExprKind::Const(Const::Unspecified));
        let vmark = self.vmap.len();
        let lmark = self.loop_map.len();
        let mut new_vars = Vec::new();
        for &(y, f) in bindings {
            let ny = self.fresh_from(y, Binder::Letrec(label));
            new_vars.push(ny);
            // Register each letrec procedure in the loop map for its binding
            // contour: recursive references (which the analysis does not
            // split) then emit plain calls to the letrec variable instead of
            // unfolding. Only meaningful under a splitting policy — without
            // splitting every call shares the binding contour and
            // registration would suppress inlining entirely.
            if self.sh.flow.policy().splits() {
                if let Ctx::At(k) = rhs_ctx {
                    self.loop_map.push(((f, k), (ny, false)));
                }
            }
        }
        let result = if units > 1 {
            self.transform_letrec_parallel(bindings, body, ctx, label, &new_vars, units)
        } else {
            (|| -> Result<Label, Poison> {
                let mut new_bindings = Vec::new();
                for (i, &(_, f)) in bindings.iter().enumerate() {
                    let ExprKind::Lambda(lam) = self.sh.old.expr(f).clone() else {
                        unreachable!("letrec rhs is a lambda")
                    };
                    let nf = self.transform_lambda(f, &lam, Ctx::Top)?;
                    new_bindings.push((new_vars[i], nf));
                }
                let nbody = self.transform(body, ctx)?;
                self.out
                    .set_expr(label, ExprKind::Letrec(new_bindings, nbody));
                Ok(label)
            })()
        };
        self.vmap.truncate(vmark);
        self.loop_map.truncate(lmark);
        result
    }

    /// How many parallel units to split this letrec across. Only the
    /// outermost (root) letrec — the top-level `define` chain — is sharded:
    /// its bindings transform independently (each `transform_lambda`
    /// restores every stack it touches), so chunks of bindings can run on
    /// separate threads against private output arenas and merge in binding
    /// order with a pure index relocation.
    fn plan_units(&self, l: Label, bindings: &[(VarId, Label)]) -> usize {
        if self.sh.units <= 1
            || self.depth != 0
            || l != self.sh.old.root()
            || self.rec.is_some()
            || bindings.len() < 2
        {
            return 1;
        }
        self.sh.units.min(bindings.len())
    }

    #[allow(clippy::too_many_arguments)]
    fn transform_letrec_parallel(
        &mut self,
        bindings: &[(VarId, Label)],
        body: Label,
        ctx: Ctx,
        label: Label,
        new_vars: &[VarId],
        units: usize,
    ) -> Result<Label, Poison> {
        let sh = self.sh;
        let v_base = self.out.var_count();
        let seed_vars: Vec<VarInfo> = (0..v_base)
            .map(|i| *self.out.var(VarId(i as u32)))
            .collect();
        let chunks = chunk_ranges(bindings.len(), units);
        let unit_outs: Vec<Result<UnitOut, Poison>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(start, end)| {
                    let vmap = self.vmap.clone();
                    let loop_map = self.loop_map.clone();
                    let interner = self.out.interner().clone();
                    let seed = &seed_vars;
                    scope.spawn(move || {
                        let _span = sh.telemetry.span("inline.unit", "inline");
                        let mut out = Program::new(interner);
                        for vi in seed {
                            out.add_var(*vi);
                        }
                        let mut unit = Inliner::new(sh, out);
                        unit.vmap = vmap;
                        unit.loop_map = loop_map;
                        let mut lambdas = Vec::new();
                        for &(_, f) in &bindings[start..end] {
                            let ExprKind::Lambda(lam) = sh.old.expr(f).clone() else {
                                unreachable!("letrec rhs is a lambda")
                            };
                            lambdas.push(unit.transform_lambda(f, &lam, Ctx::Top)?);
                        }
                        Ok(UnitOut {
                            out: unit.out,
                            lambdas,
                            report: unit.report,
                            decisions: unit.decisions,
                            run_hits: unit.run_hits,
                            run_misses: unit.run_misses,
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("inlining unit panicked"))
                .collect()
        });
        let mut new_bindings = Vec::new();
        let mut idx = 0usize;
        for r in unit_outs {
            let u = r?;
            for nf in self.merge_unit(u, v_base) {
                new_bindings.push((new_vars[idx], nf));
                idx += 1;
            }
        }
        let nbody = self.transform(body, ctx)?;
        self.out
            .set_expr(label, ExprKind::Letrec(new_bindings, nbody));
        Ok(label)
    }

    /// Appends one unit's private arena onto the main one. Unit expressions
    /// only reference unit labels (0-based), and unit variables split into
    /// the seeded ambient prefix (`< v_base`, kept verbatim — those indices
    /// are the main arena's) and unit-fresh variables (relocated). Because
    /// units are merged in binding order and each binding's allocations are
    /// self-contained, the merged arena is label-for-label identical to the
    /// sequential run's.
    fn merge_unit(&mut self, u: UnitOut, v_base: usize) -> Vec<Label> {
        let label_offset = self.out.expr_count() as u32;
        let var_offset = self.out.var_count() as u32 - v_base as u32;
        let vb = v_base as u32;
        let rl = move |l: Label| Label(l.0 + label_offset);
        let rv = move |v: VarId| {
            if v.0 < vb {
                v
            } else {
                VarId(v.0 + var_offset)
            }
        };
        for l in 0..u.out.expr_count() {
            let nk = fdi_lang::map_expr_refs(u.out.expr(Label(l as u32)), rl, rv);
            self.out.add_expr(nk);
        }
        for v in v_base..u.out.var_count() {
            let vi = *u.out.var(VarId(v as u32));
            self.out.add_var(VarInfo {
                name: vi.name,
                binder: vi.binder.map_label(rl),
                top_level: vi.top_level,
            });
        }
        for (l, pins) in u.out.pinned_captures_all() {
            self.out
                .pin_captures(rl(l), pins.iter().map(|&p| rv(p)).collect());
        }
        self.report = self.report.merged(u.report);
        self.decisions.extend(u.decisions);
        self.run_hits += u.run_hits;
        self.run_misses += u.run_misses;
        u.lambdas.iter().map(|&l| rl(l)).collect()
    }

    fn transform_if(&mut self, c: Label, t: Label, e: Label, ctx: Ctx) -> Result<Label, Poison> {
        let test_vals = self.sh.flow.values(c, ctx);
        let may_true = test_vals.may_be_true();
        let may_false = test_vals.may_be_false();
        let nc = self.transform(c, ctx)?;
        match (may_true, may_false) {
            (true, true) => {
                let nt = self.transform(t, ctx)?;
                let ne = self.transform(e, ctx)?;
                Ok(self.out.add_expr(ExprKind::If(nc, nt, ne)))
            }
            (true, false) => {
                self.report.branches_pruned += 1;
                let nt = self.transform(t, ctx)?;
                Ok(self.out.add_expr(ExprKind::Begin(vec![nc, nt])))
            }
            (false, true) => {
                self.report.branches_pruned += 1;
                let ne = self.transform(e, ctx)?;
                Ok(self.out.add_expr(ExprKind::Begin(vec![nc, ne])))
            }
            (false, false) => {
                // The test diverges (or the context is dead): both branches
                // are pruned (Fig. 5's final case).
                self.report.branches_pruned += 2;
                Ok(nc)
            }
        }
    }

    fn transform_call(&mut self, site: Label, parts: &[Label], ctx: Ctx) -> Result<Label, Poison> {
        self.report.calls_seen += 1;
        if let Some(done) = self.prune_divergent_sequence(parts, ctx)? {
            return Ok(done);
        }
        let argc = parts.len() - 1;
        // Inlining Condition 1/2: a unique procedure in this context. Per
        // §3.3, the closures may differ in environment as long as they share
        // the same code; we additionally require a single specialization
        // contour so Fig. 5's specialization context is well defined.
        //
        // A site is a *candidate* (and gets a decision record) when at least
        // one closure flows to its operator; sites calling only primitives or
        // unreached code stay silent.
        let fn_vals = self.sh.flow.values(parts[0], ctx);
        let is_candidate = fn_vals.iter().any(|v| matches!(v, AbsVal::Clo(_)));
        let unique = self.unique_code_and_contour(&fn_vals);
        if let Some(cid) = unique {
            let c = self.sh.flow.closure(cid);
            let ExprKind::Lambda(lam) = self.sh.old.expr(c.lambda).clone() else {
                unreachable!("closure over non-lambda")
            };
            let callee = self.callee_string(parts[0], Some(c.lambda));
            if lam.accepts(argc) {
                match self.loop_var(c.lambda, c.contour) {
                    Some((y, true)) => {
                        // Already unfolding this procedure at this contour.
                        // With loop unrolling enabled, unfold up to `unroll`
                        // more copies before tying the back-edge.
                        let unfoldings = self
                            .loop_map
                            .iter()
                            .filter(|&&(key, (_, w))| key == (c.lambda, c.contour) && w)
                            .count();
                        if unfoldings <= self.sh.config.unroll && self.depth < MAX_INLINE_DEPTH {
                            if let Some(size) = self.gate_denied(site, ctx) {
                                // The budget plan cut this unfolding: tie the
                                // back-edge as if the unroll lost its turn.
                                self.report.rejected_budget += 1;
                                self.report.loops_tied += 1;
                                let budget = self.sh.gate.as_ref().map_or(0, |g| g.budget);
                                self.record_decision(
                                    site,
                                    ctx,
                                    callee,
                                    DecisionReason::SizeBudgetExhausted { size, budget },
                                );
                                return self.emit_loop_call(y, &lam, parts, ctx);
                            }
                            match self.try_inline(parts, ctx, cid, &lam)? {
                                Attempt::Inlined(done, size) => {
                                    self.report.unrolled += 1;
                                    self.record_decision(
                                        site,
                                        ctx,
                                        callee,
                                        DecisionReason::Inlined {
                                            specialized_size: size,
                                        },
                                    );
                                    return Ok(done);
                                }
                                Attempt::Rejected(Reject::Open { .. }) => {
                                    self.report.rejected_open += 1;
                                }
                                Attempt::Rejected(Reject::TooBig { .. }) => {
                                    self.report.rejected_loop_guard += 1;
                                }
                            }
                        }
                        self.report.loops_tied += 1;
                        self.record_decision(site, ctx, callee, DecisionReason::LoopGuard);
                        return self.emit_loop_call(y, &lam, parts, ctx);
                    }
                    Some((_, false)) => {
                        // A letrec-bound original: leave the call as-is (the
                        // operator already names the letrec variable). Not a
                        // decision — the site was never up for inlining.
                    }
                    None => {
                        if let Some(size) = self.gate_denied(site, ctx) {
                            // The budget plan cut this site: record the cut
                            // and fall through to a plain call.
                            self.report.rejected_budget += 1;
                            let budget = self.sh.gate.as_ref().map_or(0, |g| g.budget);
                            self.record_decision(
                                site,
                                ctx,
                                callee,
                                DecisionReason::SizeBudgetExhausted { size, budget },
                            );
                        } else if self.depth < MAX_INLINE_DEPTH {
                            match self.try_inline(parts, ctx, cid, &lam)? {
                                Attempt::Inlined(done, size) => {
                                    self.record_decision(
                                        site,
                                        ctx,
                                        callee,
                                        DecisionReason::Inlined {
                                            specialized_size: size,
                                        },
                                    );
                                    return Ok(done);
                                }
                                Attempt::Rejected(Reject::Open { free_vars }) => {
                                    self.report.rejected_open += 1;
                                    self.record_decision(
                                        site,
                                        ctx,
                                        callee,
                                        DecisionReason::OpenProcedure { free_vars },
                                    );
                                }
                                Attempt::Rejected(Reject::TooBig { size }) => {
                                    self.report.rejected_size += 1;
                                    self.record_decision(
                                        site,
                                        ctx,
                                        callee,
                                        DecisionReason::ThresholdExceeded {
                                            size,
                                            limit: self.sh.config.threshold,
                                        },
                                    );
                                }
                            }
                        } else {
                            self.record_decision(site, ctx, callee, DecisionReason::BudgetDenied);
                        }
                    }
                }
            } else {
                // A unique closure that cannot accept this arity: fold into
                // the non-unique reason (no single *compatible* procedure).
                self.record_decision(site, ctx, callee, DecisionReason::NonUniqueClosure);
            }
        } else if is_candidate {
            let callee = self.callee_string(parts[0], None);
            self.record_decision(site, ctx, callee, DecisionReason::NonUniqueClosure);
        }
        let new_parts = parts
            .iter()
            .map(|&e| self.transform(e, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.out.add_expr(ExprKind::Call(new_parts)))
    }

    /// §3.4 generalized pruning: with left-to-right evaluation, everything
    /// to the right of a subexpression whose abstract value is ⊥ (divergent
    /// or erroring) can never run. Returns the transformed prefix as a
    /// `begin` when such a subexpression exists (other than in last
    /// position, where the enclosing form is equivalent anyway).
    fn prune_divergent_sequence(
        &mut self,
        parts: &[Label],
        ctx: Ctx,
    ) -> Result<Option<Label>, Poison> {
        // Only meaningful in a live analyzed context: at `Dead` everything
        // is ⊥ and the caller's normal transformation handles it.
        if ctx == Ctx::Dead {
            return Ok(None);
        }
        let divergent = parts
            .iter()
            .position(|&e| self.sh.flow.reached(e, ctx) && self.sh.flow.values(e, ctx).is_empty());
        let Some(i) = divergent else {
            return Ok(None);
        };
        if i + 1 == parts.len() {
            return Ok(None);
        }
        self.report.divergence_prunes += parts.len() - i - 1;
        let kept = parts[..=i]
            .iter()
            .map(|&e| self.transform(e, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        if kept.len() == 1 {
            return Ok(Some(kept[0]));
        }
        Ok(Some(self.out.add_expr(ExprKind::Begin(kept))))
    }

    /// All values are closures over one λ in one contour → representative.
    fn unique_code_and_contour(&self, vals: &fdi_cfa::ValSet) -> Option<ClosureId> {
        let mut rep: Option<(ClosureId, Label, ContourId)> = None;
        for v in vals.iter() {
            let AbsVal::Clo(id) = v else { return None };
            let c = self.sh.flow.closure(id);
            match rep {
                None => rep = Some((id, c.lambda, c.contour)),
                Some((_, l0, k0)) if l0 == c.lambda && k0 == c.contour => {}
                Some(_) => return None,
            }
        }
        rep.map(|(id, _, _)| id)
    }

    /// The operator expression passed as the extra `w` argument. In Closed
    /// mode `w` is never read, so a bare variable reference — which carries
    /// no effects, and may refer to a procedure that only stays inlinable if
    /// we do not materialize the reference (the paper's free-procedure
    /// exception) — becomes the unspecified constant. In ClRef mode the body
    /// loads captures through `w`, so the operator must be passed for real.
    fn w_argument(&mut self, e0: Label, ctx: Ctx) -> Result<Label, Poison> {
        let w_unused = self.sh.config.mode == InlineMode::Closed;
        if w_unused && matches!(self.sh.old.expr(e0), ExprKind::Var(_)) {
            Ok(self.konst(Const::Unspecified))
        } else {
            self.transform(e0, ctx)
        }
    }

    /// Arguments for a call to a specialized procedure `y`: fixed parameters
    /// pass through; a variadic callee's extra arguments build the rest list
    /// explicitly so the emitted λ has fixed arity.
    fn loop_call_args(
        &mut self,
        lam: &LambdaInfo,
        parts: &[Label],
        ctx: Ctx,
    ) -> Result<Vec<Label>, Poison> {
        let mut out = Vec::new();
        for &a in &parts[1..1 + lam.params.len()] {
            out.push(self.transform(a, ctx)?);
        }
        if lam.rest.is_some() {
            let extras = &parts[1 + lam.params.len()..];
            let transformed = extras
                .iter()
                .map(|&e| self.transform(e, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            let mut list = self.konst(Const::Nil);
            for e in transformed.into_iter().rev() {
                list = self
                    .out
                    .add_expr(ExprKind::Prim(PrimOp::Cons, vec![e, list]));
            }
            out.push(list);
        }
        Ok(out)
    }

    fn emit_loop_call(
        &mut self,
        y: VarId,
        lam: &LambdaInfo,
        parts: &[Label],
        ctx: Ctx,
    ) -> Result<Label, Poison> {
        let yref = self.out.add_expr(ExprKind::Var(y));
        let w = self.w_argument(parts[0], ctx)?;
        let mut call = vec![yref, w];
        call.extend(self.loop_call_args(lam, parts, ctx)?);
        Ok(self.out.add_expr(ExprKind::Call(call)))
    }

    /// Attempts to specialize and inline the unique callee at a call site.
    /// Returns `Ok(Attempt::Rejected(..))` when the speculation fails
    /// (threshold, free variables); the caller attributes counters, records
    /// the decision, and emits a plain call. Speculative output nodes simply
    /// stay unreachable in the arena; speculative decision records are
    /// truncated on rejection.
    fn try_inline(
        &mut self,
        parts: &[Label],
        ctx: Ctx,
        cid: ClosureId,
        lam: &LambdaInfo,
    ) -> Result<Attempt, Poison> {
        // A *direct local call*: the operator is a let/letrec variable whose
        // right-hand side is this very λ. Such a call always receives the
        // closure created by the current activation of the enclosing scope,
        // so the λ's free variables denote exactly the bindings lexically
        // visible here and may be referenced directly — this is what lets
        // Fig. 2 specialize `map1` (whose `f` is free) inside the inlined
        // copy of `map`.
        let direct_local = match self.sh.old.expr(parts[0]) {
            ExprKind::Var(v) => self.sh.rhs_of.get(v) == Some(&self.sh.flow.closure(cid).lambda),
            _ => false,
        };
        let dmark = self.decisions.len();
        let spec = match self.specialize_cached(cid, lam, direct_local)? {
            SpecAttempt::Open { free_vars } => {
                return Ok(Attempt::Rejected(Reject::Open { free_vars }));
            }
            SpecAttempt::TooBig { size } => {
                return Ok(Attempt::Rejected(Reject::TooBig { size }));
            }
            SpecAttempt::Done(d) => d,
        };

        // Inline? — the size of the specialized body must be under T. The
        // verdict (but never the construction above) depends on the
        // threshold, which is why it runs outside the memoized region; a
        // recording in progress notes it to bound the entry's validity.
        if spec.specialized_size >= self.sh.config.threshold {
            if let Some(rec) = &mut self.rec {
                rec.note_gate(spec.specialized_size, false);
            }
            self.decisions.truncate(dmark);
            return Ok(Attempt::Rejected(Reject::TooBig {
                size: spec.specialized_size,
            }));
        }
        if let Some(rec) = &mut self.rec {
            rec.note_gate(spec.specialized_size, true);
        }

        // Bind cl-refs around the body (Fig. 5's let of (cl-ref w i)).
        let final_body = if spec.cl_ref_binds.is_empty() {
            spec.body
        } else {
            let let_label = self.out.add_expr(ExprKind::Const(Const::Unspecified));
            let mut binds = Vec::new();
            for &(nz, i) in &spec.cl_ref_binds {
                self.out.set_var_binder(nz, Binder::Let(let_label));
                let wref = self.out.add_expr(ExprKind::Var(spec.w));
                let clref = self.out.add_expr(ExprKind::ClRef(wref, i));
                binds.push((nz, clref));
            }
            self.out
                .set_expr(let_label, ExprKind::Let(binds, spec.body));
            let_label
        };

        self.out.set_expr(
            spec.lam_label,
            ExprKind::Lambda(LambdaInfo {
                params: spec.new_params.clone(),
                rest: None,
                body: final_body,
            }),
        );
        // (letrec ((y λ')) (call y I[e0] I[e1] … I[en]))
        let yref = self.out.add_expr(ExprKind::Var(spec.y));
        let warg = self.w_argument(parts[0], ctx)?;
        let mut call_parts = vec![yref, warg];
        call_parts.extend(self.loop_call_args(lam, parts, ctx)?);
        let ncall = self.out.add_expr(ExprKind::Call(call_parts));
        self.out.set_expr(
            spec.letrec_label,
            ExprKind::Letrec(vec![(spec.y, spec.lam_label)], ncall),
        );
        self.report.sites_inlined += 1;
        Ok(Attempt::Inlined(spec.letrec_label, spec.specialized_size))
    }

    /// [`Inliner::specialize`] through the memo table when this site is
    /// *outermost* (depth 0, no budget gate, no recording already open):
    /// a valid cached variant is replayed into the arena; a miss records
    /// the live construction as a new variant.
    fn specialize_cached(
        &mut self,
        cid: ClosureId,
        lam: &LambdaInfo,
        direct_local: bool,
    ) -> Result<SpecAttempt, Poison> {
        let Some((cache, salt)) = self.sh.cache else {
            return self.specialize(cid, lam, direct_local);
        };
        if self.depth != 0 || self.sh.gate.is_some() || self.rec.is_some() {
            return self.specialize(cid, lam, direct_local);
        }
        let key = (salt, cid, direct_local);
        let hit = cache.probe(key, self.sh.config.threshold, |deps| self.deps_hold(deps));
        if let Some(entry) = hit {
            self.run_hits += 1;
            return Ok(self.replay(&entry));
        }
        self.run_misses += 1;
        self.rec = Some(Recording::new(
            self.vmap.len(),
            self.loop_map.len(),
            self.decisions.len(),
            self.out.expr_count(),
            self.out.var_count(),
            self.report,
        ));
        let result = self.specialize(cid, lam, direct_local);
        let rec = self.rec.take().expect("recording survives specialization");
        if let Ok(attempt) = &result {
            cache.insert(key, self.build_entry(rec, attempt));
        }
        result
    }

    /// Does a recorded footprint still describe the current ambient scope?
    fn deps_hold(&self, deps: &[FootDep]) -> bool {
        deps.iter().all(|d| match *d {
            FootDep::Var(v, expect) => self.lookup_raw(v) == expect,
            FootDep::Loop(l, k, expect) => self.loop_var_raw(l, k) == expect,
        })
    }

    /// Splices a memoized arena delta into the output, relocating region
    /// labels/variables to the current bases (ambient references recorded
    /// below the entry's bases are kept verbatim — the footprint check
    /// guarantees they resolve identically here).
    fn replay(&mut self, entry: &SpecEntry) -> SpecAttempt {
        let eb = self.out.expr_count() as u32;
        let vb = self.out.var_count() as u32;
        let (e0, v0) = entry.bases();
        let rl = move |l: Label| {
            if l.0 >= e0 {
                Label(l.0 - e0 + eb)
            } else {
                l
            }
        };
        let rv = move |v: VarId| {
            if v.0 >= v0 {
                VarId(v.0 - v0 + vb)
            } else {
                v
            }
        };
        for k in entry.exprs() {
            let nk = fdi_lang::map_expr_refs(k, rl, rv);
            self.out.add_expr(nk);
        }
        for vi in entry.vars() {
            self.out.add_var(VarInfo {
                name: vi.name,
                binder: vi.binder.map_label(rl),
                top_level: vi.top_level,
            });
        }
        for (l, pins) in entry.pins() {
            self.out
                .pin_captures(rl(*l), pins.iter().map(|&p| rv(p)).collect());
        }
        self.report = self.report.merged(entry.report_delta());
        for d in entry.decisions() {
            let mut d = d.clone();
            // Nested threshold rejections embed the recording run's limit;
            // restate them against the current one.
            if let DecisionReason::ThresholdExceeded { size, .. } = d.reason {
                d.reason = DecisionReason::ThresholdExceeded {
                    size,
                    limit: self.sh.config.threshold,
                };
                d.verdict = d.reason.verdict();
            }
            self.decisions.push(d);
        }
        match entry.outcome() {
            SpecAttempt::Open { free_vars } => SpecAttempt::Open {
                free_vars: *free_vars,
            },
            SpecAttempt::TooBig { size } => SpecAttempt::TooBig { size: *size },
            SpecAttempt::Done(d) => SpecAttempt::Done(SpecData {
                letrec_label: rl(d.letrec_label),
                lam_label: rl(d.lam_label),
                y: rv(d.y),
                w: rv(d.w),
                new_params: d.new_params.iter().map(|&p| rv(p)).collect(),
                body: rl(d.body),
                cl_ref_binds: d.cl_ref_binds.iter().map(|&(v, i)| (rv(v), i)).collect(),
                specialized_size: d.specialized_size,
            }),
        }
    }

    /// Packages a finished recording as a cache entry: the arena delta
    /// since the recording's bases plus footprint, validity interval, and
    /// report/decision deltas.
    fn build_entry(&self, rec: Recording, attempt: &SpecAttempt) -> SpecEntry {
        let exprs: Vec<ExprKind> = (rec.e0..self.out.expr_count())
            .map(|i| self.out.expr(Label(i as u32)).clone())
            .collect();
        let vars: Vec<VarInfo> = (rec.v0..self.out.var_count())
            .map(|i| *self.out.var(VarId(i as u32)))
            .collect();
        SpecEntry::from_recording(
            rec,
            attempt.clone(),
            exprs,
            vars,
            self.report,
            &self.decisions,
        )
    }

    /// Constructs the specialized copy of the unique callee: skeleton
    /// labels, free-variable discipline, parameter renaming, loop-map
    /// registration, and the recursive body transform. Everything here is a
    /// deterministic function of `(cid, direct_local)`, the run
    /// configuration, and the ambient facts the construction looks up —
    /// crucially, *not* of the size threshold, which only enters through
    /// the caller's `Inline?` gate and the abort guard (both captured in a
    /// recording's validity interval). That is what makes this the
    /// memoization boundary.
    fn specialize(
        &mut self,
        cid: ClosureId,
        lam: &LambdaInfo,
        direct_local: bool,
    ) -> Result<SpecAttempt, Poison> {
        let c = self.sh.flow.closure(cid);
        let body_ctx = self.sh.flow.closure_body_ctx(cid);
        let free = self
            .sh
            .fv
            .get(c.lambda)
            .map(<[VarId]>::to_vec)
            .unwrap_or_default();

        // Set up the specialized λ skeleton.
        let letrec_label = self.out.add_expr(ExprKind::Const(Const::Unspecified));
        let lam_label = self.out.add_expr(ExprKind::Const(Const::Unspecified));
        let y = self.fresh_var("%inl", Binder::Letrec(letrec_label), false);
        let w = self.fresh_var("%w", Binder::Lambda(lam_label), false);

        let vmark = self.vmap.len();
        let lmark = self.loop_map.len();
        let dmark = self.decisions.len();
        // Free-variable discipline.
        let mut poisoned = 0usize;
        let mut cl_ref_binds: Vec<(VarId, u32)> = Vec::new(); // (new var, index)
        for (i, &z) in free.iter().enumerate() {
            let info = *self.sh.old.var(z);
            match self.sh.config.mode {
                InlineMode::Closed => {
                    if (info.top_level || direct_local)
                        && self.lookup(z).is_some_and(|m| m.is_some())
                    {
                        // Top-level variables have a single activation, and a
                        // direct local call sees the creating activation's
                        // bindings: reference them through the enclosing
                        // mapping (no push).
                    } else {
                        // Poison: the specialization only survives if this
                        // reference disappears (pruned branch or inlined
                        // procedure reference).
                        self.vmap.push((z, None));
                        poisoned += 1;
                    }
                }
                InlineMode::ClRef => {
                    if (info.top_level || direct_local)
                        && self.lookup(z).is_some_and(|m| m.is_some())
                    {
                        // Direct references beat cl-ref loads when sound.
                    } else {
                        let name = self.sh.old.var_name(z).to_string();
                        let nz = self.fresh_var(&name, Binder::Let(Label(0)), false);
                        self.vmap.push((z, Some(nz)));
                        cl_ref_binds.push((nz, i as u32));
                    }
                }
            }
        }
        // Parameters (fixed arity in the emitted λ; rest becomes explicit).
        let mut new_params = vec![w];
        for &p in &lam.params {
            new_params.push(self.fresh_from(p, Binder::Lambda(lam_label)));
        }
        if let Some(r) = lam.rest {
            new_params.push(self.fresh_from(r, Binder::Lambda(lam_label)));
        }
        // Guard against unbounded unfolding of this closure. The key is the
        // closure's identity (λ, creation contour) — a recursive reference
        // yields the same abstract closure under every policy, so the
        // back-edge is caught even when the body specializes in the union
        // context (call-strings policy, whose body contours the transformer
        // does not track).
        self.loop_map.push(((c.lambda, c.contour), (y, true)));
        self.depth += 1;
        let smark = self.out.expr_count();
        self.size_marks.push(smark);
        let body = self.transform(lam.body, body_ctx);
        self.size_marks.pop();
        self.depth -= 1;
        self.vmap.truncate(vmark);
        self.loop_map.truncate(lmark);
        let body = match body {
            Ok(b) => b,
            Err(Poison::Open) => {
                // This specialization references a disallowed free variable:
                // reject it and let the caller emit a plain call (enclosing
                // speculations are unaffected). Counter attribution lives
                // with the caller, which knows whether this was an unroll
                // attempt or an ordinary site.
                self.decisions.truncate(dmark);
                return Ok(SpecAttempt::Open {
                    free_vars: poisoned,
                });
            }
            Err(Poison::TooBig) => {
                // The *outermost* budget was exceeded. If that is this
                // speculation, reject it; otherwise keep unwinding.
                if self.size_marks.is_empty() {
                    self.decisions.truncate(dmark);
                    return Ok(SpecAttempt::TooBig {
                        size: self.out.expr_count().saturating_sub(smark),
                    });
                }
                return Err(Poison::TooBig);
            }
        };

        let specialized_size = fdi_lang::expr_size(&self.out, body);
        Ok(SpecAttempt::Done(SpecData {
            letrec_label,
            lam_label,
            y,
            w,
            new_params,
            body,
            cl_ref_binds,
            specialized_size,
        }))
    }
}

#[cfg(test)]
mod tests;
