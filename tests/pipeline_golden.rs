//! Golden pipeline table: for every paper benchmark at test scale, at
//! T = 0, 200 and 1000 plus one profile-guided, size-budgeted row, the
//! optimizer's output bytes, sizes, fuel, inline report, decision stream and
//! per-pass traces must match the recorded table — and every way of handing
//! the pipeline its input (source text, lowered program, program with a
//! precomputed analysis, program under a shared specialization cache with
//! parallel inlining units) must reproduce the same row.
//!
//! `tests/passes.rs` compares the pipeline with itself; this table catches a
//! change that moves every entry point at once. A change that moves a row
//! changes what the optimizer produces and must be deliberate.

use fdi_benchsuite::BENCHMARKS;
use fdi_core::{
    analyze_contained, optimize, run, DecisionReason, InlineGuide, InlineReport, Input,
    PassDisposition, PassTrace, PipelineConfig, PipelineOutput, Program, Request, RunConfig,
    SpecializationCache,
};

const THRESHOLDS: [usize; 3] = [0, 200, 1000];

/// `(pass, disposition, runs, fuel)` of one [`PassTrace`].
type Trace = (&'static str, &'static str, u32, u64);

/// One recorded case.
struct Row {
    case: &'static str,
    /// FNV-1a of `pretty(unparse(optimized))`.
    text: u64,
    baseline_size: usize,
    optimized_size: usize,
    fuel_used: u64,
    /// The ten [`InlineReport`] fields in declaration order.
    report: [usize; 10],
    /// Decision count and FNV-1a of the records' JSON, one per line.
    decisions: (usize, u64),
    /// The transform traces (baseline first), without the frontend entry.
    passes: &'static [Trace],
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    Row { case: "lattice/T=0", text: 0x3f11e0a745278a97, baseline_size: 620, optimized_size: 620, fuel_used: 3652, report: [126, 0, 8, 4, 55, 0, 0, 3, 0, 0], decisions: (59, 0xd3b7b5446b1486e3), passes: &[("baseline", "completed", 1, 620), ("analyze", "completed", 1, 1758), ("inline", "completed", 1, 654), ("simplify", "completed", 1, 620)] },
    Row { case: "lattice/T=200", text: 0xaff7554795c1ac50, baseline_size: 620, optimized_size: 839, fuel_used: 5195, report: [2792, 1736, 807, 35, 90, 0, 0, 27, 0, 0], decisions: (144, 0xd4873857d772db53), passes: &[("baseline", "completed", 1, 620), ("analyze", "completed", 1, 1758), ("inline", "completed", 1, 1978), ("simplify", "completed", 1, 839)] },
    Row { case: "lattice/T=1000", text: 0xc537086ec270de1b, baseline_size: 620, optimized_size: 840, fuel_used: 7678, report: [8435, 5579, 2533, 117, 72, 0, 0, 75, 0, 0], decisions: (329, 0xdd2637d81947bef5), passes: &[("baseline", "completed", 1, 620), ("analyze", "completed", 1, 1758), ("inline", "completed", 1, 4460), ("simplify", "completed", 1, 840)] },
    Row { case: "lattice/guided", text: 0xc0538014b393a263, baseline_size: 620, optimized_size: 847, fuel_used: 4654, report: [105, 45, 18, 0, 0, 0, 32, 3, 0, 0], decisions: (103, 0xe786bb0521366b07), passes: &[("baseline", "completed", 1, 620), ("analyze", "completed", 1, 1758), ("inline", "completed", 1, 1429), ("simplify", "completed", 1, 847)] },
    Row { case: "boyer/T=0", text: 0xfeaf940c69305c80, baseline_size: 1605, optimized_size: 1567, fuel_used: 11148, report: [179, 0, 27, 0, 117, 0, 0, 3, 0, 0], decisions: (90, 0x41eb9564d59e5d1e), passes: &[("baseline", "completed", 1, 1605), ("analyze", "completed", 1, 6371), ("inline", "completed", 1, 1605), ("simplify", "completed", 1, 1567)] },
    Row { case: "boyer/T=200", text: 0xc13a9a69d8c38f0f, baseline_size: 1605, optimized_size: 2045, fuel_used: 14640, report: [1469, 735, 514, 51, 51, 0, 0, 144, 0, 0], decisions: (264, 0x1fd7f8b31f8531b3), passes: &[("baseline", "completed", 1, 1605), ("analyze", "completed", 1, 6371), ("inline", "completed", 1, 4619), ("simplify", "completed", 1, 2045)] },
    Row { case: "boyer/T=1000", text: 0x44b729be83479b73, baseline_size: 1605, optimized_size: 2038, fuel_used: 18624, report: [2510, 1376, 847, 88, 22, 0, 0, 237, 0, 0], decisions: (529, 0xa75407f87248c8b0), passes: &[("baseline", "completed", 1, 1605), ("analyze", "completed", 1, 6371), ("inline", "completed", 1, 8610), ("simplify", "completed", 1, 2038)] },
    Row { case: "boyer/guided", text: 0x479e1629e1e0f83c, baseline_size: 1605, optimized_size: 2142, fuel_used: 13688, report: [200, 108, 44, 2, 0, 0, 30, 18, 0, 0], decisions: (198, 0xce9b4952c22a9ff0), passes: &[("baseline", "completed", 1, 1605), ("analyze", "completed", 1, 6371), ("inline", "completed", 1, 3570), ("simplify", "completed", 1, 2142)] },
    Row { case: "graphs/T=0", text: 0xc225ffce73734a99, baseline_size: 521, optimized_size: 521, fuel_used: 2491, report: [163, 0, 14, 0, 57, 0, 0, 5, 0, 0], decisions: (58, 0x884bfb1bee5602b8), passes: &[("baseline", "completed", 1, 521), ("analyze", "completed", 1, 877), ("inline", "completed", 1, 572), ("simplify", "completed", 1, 521)] },
    Row { case: "graphs/T=200", text: 0x0b4fc094c96afa40, baseline_size: 521, optimized_size: 605, fuel_used: 4436, report: [3752, 1466, 1215, 326, 18, 0, 0, 8, 0, 0], decisions: (178, 0xe801aeaf7d89b404), passes: &[("baseline", "completed", 1, 521), ("analyze", "completed", 1, 877), ("inline", "completed", 1, 2433), ("simplify", "completed", 1, 605)] },
    Row { case: "graphs/T=1000", text: 0x7844c20dc9817e50, baseline_size: 521, optimized_size: 595, fuel_used: 5924, report: [7154, 2878, 2382, 699, 4, 0, 0, 8, 0, 0], decisions: (294, 0x61ed4bc8a152b290), passes: &[("baseline", "completed", 1, 521), ("analyze", "completed", 1, 877), ("inline", "completed", 1, 3931), ("simplify", "completed", 1, 595)] },
    Row { case: "graphs/guided", text: 0x0b4fc094c96afa40, baseline_size: 521, optimized_size: 605, fuel_used: 3676, report: [129, 53, 31, 0, 0, 0, 35, 5, 0, 0], decisions: (125, 0xe3538b0ef1f8d4b0), passes: &[("baseline", "completed", 1, 521), ("analyze", "completed", 1, 877), ("inline", "completed", 1, 1673), ("simplify", "completed", 1, 605)] },
    Row { case: "matrix/T=0", text: 0x9b3a3d0fe9f2ebc7, baseline_size: 642, optimized_size: 604, fuel_used: 2760, report: [158, 0, 9, 4, 56, 0, 0, 3, 0, 0], decisions: (66, 0x3f881df13691caf1), passes: &[("baseline", "completed", 1, 642), ("analyze", "completed", 1, 879), ("inline", "completed", 1, 635), ("simplify", "completed", 1, 604)] },
    Row { case: "matrix/T=200", text: 0x6d39906b5d8c9a9e, baseline_size: 642, optimized_size: 726, fuel_used: 5658, report: [2281, 538, 723, 136, 54, 0, 0, 156, 0, 0], decisions: (309, 0x70b436122979fd40), passes: &[("baseline", "completed", 1, 642), ("analyze", "completed", 1, 879), ("inline", "completed", 1, 3411), ("simplify", "completed", 1, 726)] },
    Row { case: "matrix/T=1000", text: 0xdb87eef71749b2e9, baseline_size: 642, optimized_size: 774, fuel_used: 10925, report: [5818, 1625, 1867, 325, 19, 0, 0, 507, 0, 0], decisions: (728, 0xc23bc21268604d58), passes: &[("baseline", "completed", 1, 642), ("analyze", "completed", 1, 879), ("inline", "completed", 1, 8630), ("simplify", "completed", 1, 774)] },
    Row { case: "matrix/guided", text: 0x6d39906b5d8c9a9e, baseline_size: 642, optimized_size: 726, fuel_used: 4556, report: [208, 53, 45, 0, 0, 0, 45, 24, 0, 0], decisions: (207, 0xe26dd36dfa6dc322), passes: &[("baseline", "completed", 1, 642), ("analyze", "completed", 1, 879), ("inline", "completed", 1, 2309), ("simplify", "completed", 1, 726)] },
    Row { case: "maze/T=0", text: 0x3091cb3b87e10e40, baseline_size: 623, optimized_size: 623, fuel_used: 2720, report: [67, 0, 15, 0, 41, 0, 0, 0, 0, 0], decisions: (41, 0xf55bbe5a73fe769b), passes: &[("baseline", "completed", 1, 623), ("analyze", "completed", 1, 811), ("inline", "completed", 1, 663), ("simplify", "completed", 1, 623)] },
    Row { case: "maze/T=200", text: 0xab31035107b57d11, baseline_size: 623, optimized_size: 665, fuel_used: 4458, report: [656, 306, 283, 0, 35, 0, 0, 0, 0, 0], decisions: (111, 0x70a82ad7a82aeced), passes: &[("baseline", "completed", 1, 623), ("analyze", "completed", 1, 811), ("inline", "completed", 1, 2359), ("simplify", "completed", 1, 665)] },
    Row { case: "maze/T=1000", text: 0xba2da5ebcc3acd6c, baseline_size: 623, optimized_size: 652, fuel_used: 7647, report: [1210, 622, 550, 0, 13, 0, 0, 0, 0, 0], decisions: (262, 0xbd8a22a7a052dbe9), passes: &[("baseline", "completed", 1, 623), ("analyze", "completed", 1, 811), ("inline", "completed", 1, 5561), ("simplify", "completed", 1, 652)] },
    Row { case: "maze/guided", text: 0xab31035107b57d11, baseline_size: 623, optimized_size: 665, fuel_used: 3669, report: [81, 28, 24, 0, 0, 0, 27, 0, 0, 0], decisions: (79, 0xd98fdb901986759e), passes: &[("baseline", "completed", 1, 623), ("analyze", "completed", 1, 811), ("inline", "completed", 1, 1570), ("simplify", "completed", 1, 665)] },
    Row { case: "splay/T=0", text: 0x28b945aa3815abe9, baseline_size: 690, optimized_size: 690, fuel_used: 3108, report: [152, 0, 4, 0, 115, 0, 0, 0, 0, 0], decisions: (97, 0xad889036db312fb8), passes: &[("baseline", "completed", 1, 690), ("analyze", "completed", 1, 1038), ("inline", "completed", 1, 690), ("simplify", "completed", 1, 690)] },
    Row { case: "splay/T=200", text: 0x87a5b30f9d7a07c1, baseline_size: 690, optimized_size: 729, fuel_used: 5282, report: [2234, 1729, 116, 0, 32, 0, 0, 0, 0, 0], decisions: (219, 0xb7e52cf890436d8f), passes: &[("baseline", "completed", 1, 690), ("analyze", "completed", 1, 1038), ("inline", "completed", 1, 2825), ("simplify", "completed", 1, 729)] },
    Row { case: "splay/T=1000", text: 0x7e4adecf6639c5dc, baseline_size: 690, optimized_size: 719, fuel_used: 6359, report: [4999, 3946, 266, 0, 55, 0, 0, 0, 0, 0], decisions: (289, 0xcdf7b7544a5d12aa), passes: &[("baseline", "completed", 1, 690), ("analyze", "completed", 1, 1038), ("inline", "completed", 1, 3912), ("simplify", "completed", 1, 719)] },
    Row { case: "splay/guided", text: 0x027eee2a53ca2ac3, baseline_size: 690, optimized_size: 691, fuel_used: 4568, report: [158, 113, 4, 0, 0, 0, 24, 0, 0, 0], decisions: (158, 0x5dbd79293d4b6566), passes: &[("baseline", "completed", 1, 690), ("analyze", "completed", 1, 1038), ("inline", "completed", 1, 2149), ("simplify", "completed", 1, 691)] },
    Row { case: "nbody/T=0", text: 0x0994fdf4984a148f, baseline_size: 399, optimized_size: 399, fuel_used: 1862, report: [27, 0, 0, 0, 14, 0, 0, 0, 0, 0], decisions: (20, 0x84995a24c054f848), passes: &[("baseline", "completed", 1, 399), ("analyze", "completed", 1, 629), ("inline", "completed", 1, 435), ("simplify", "completed", 1, 399)] },
    Row { case: "nbody/T=200", text: 0x486e862569fa22c8, baseline_size: 399, optimized_size: 414, fuel_used: 2775, report: [210, 84, 32, 25, 7, 0, 0, 0, 0, 0], decisions: (68, 0xb64ccf920fc9d548), passes: &[("baseline", "completed", 1, 399), ("analyze", "completed", 1, 629), ("inline", "completed", 1, 1333), ("simplify", "completed", 1, 414)] },
    Row { case: "nbody/T=1000", text: 0x486e862569fa22c8, baseline_size: 399, optimized_size: 414, fuel_used: 4053, report: [210, 90, 32, 25, 1, 0, 0, 0, 0, 0], decisions: (128, 0xb5183be48e7af4e6), passes: &[("baseline", "completed", 1, 399), ("analyze", "completed", 1, 629), ("inline", "completed", 1, 2611), ("simplify", "completed", 1, 414)] },
    Row { case: "nbody/guided", text: 0x963c7a75b8a61de1, baseline_size: 399, optimized_size: 414, fuel_used: 2388, report: [50, 15, 7, 0, 0, 0, 12, 0, 0, 0], decisions: (50, 0x22c4f826233b1b87), passes: &[("baseline", "completed", 1, 399), ("analyze", "completed", 1, 629), ("inline", "completed", 1, 946), ("simplify", "completed", 1, 414)] },
    Row { case: "dynamic/T=0", text: 0xcd062e2fd2039fcc, baseline_size: 2643, optimized_size: 2468, fuel_used: 28805, report: [248, 0, 21, 0, 145, 0, 0, 7, 0, 0], decisions: (174, 0xdaa92a3ec398a2c1), passes: &[("baseline", "completed", 1, 2643), ("analyze", "completed", 1, 21106), ("inline", "completed", 1, 2588), ("simplify", "completed", 1, 2468)] },
    Row { case: "dynamic/T=200", text: 0x6a28ba3b57e1c529, baseline_size: 2643, optimized_size: 2717, fuel_used: 30895, report: [7706, 5186, 1650, 0, 129, 0, 0, 673, 0, 0], decisions: (253, 0x0d310bee06da3d30), passes: &[("baseline", "completed", 1, 2643), ("analyze", "completed", 1, 21106), ("inline", "completed", 1, 4429), ("simplify", "completed", 1, 2717)] },
    Row { case: "dynamic/T=1000", text: 0x3b8087b0b8d9473e, baseline_size: 2643, optimized_size: 4250, fuel_used: 43097, report: [26230, 18261, 5888, 0, 121, 0, 0, 2371, 0, 0], decisions: (985, 0xf542f4658da2fa2b), passes: &[("baseline", "completed", 1, 2643), ("analyze", "completed", 1, 21106), ("inline", "completed", 1, 15098), ("simplify", "completed", 1, 4250)] },
    Row { case: "dynamic/guided", text: 0xcbb8e0cb7cff40fe, baseline_size: 2643, optimized_size: 2664, fuel_used: 30156, report: [210, 77, 15, 0, 0, 0, 73, 7, 0, 0], decisions: (209, 0xdb3324332c8027e8), passes: &[("baseline", "completed", 1, 2643), ("analyze", "completed", 1, 21106), ("inline", "completed", 1, 3743), ("simplify", "completed", 1, 2664)] },
];

/// FNV-1a over `s`.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_fields(r: &InlineReport) -> [usize; 10] {
    [
        r.calls_seen,
        r.sites_inlined,
        r.loops_tied,
        r.rejected_open,
        r.rejected_size,
        r.rejected_loop_guard,
        r.rejected_budget,
        r.branches_pruned,
        r.divergence_prunes,
        r.unrolled,
    ]
}

fn disposition(d: PassDisposition) -> &'static str {
    match d {
        PassDisposition::Completed => "completed",
        PassDisposition::CachedAnalysis => "cached-analysis",
        PassDisposition::Degraded => "degraded",
        PassDisposition::Skipped => "skipped",
    }
}

/// The measured row, owned, with the shape-specific trace differences
/// normalized away: a source run's leading frontend trace is checked and
/// dropped, and a precomputed analysis's `cached-analysis` disposition is
/// checked and read as `completed` (it draws the same fuel).
#[derive(Debug, PartialEq)]
struct Measured {
    text: u64,
    baseline_size: usize,
    optimized_size: usize,
    fuel_used: u64,
    report: [usize; 10],
    decisions: (usize, u64),
    passes: Vec<(String, String, u32, u64)>,
}

fn measure(out: &PipelineOutput, from_source: bool, cached: bool, case: &str) -> Measured {
    let mut traces: &[PassTrace] = &out.passes;
    if from_source {
        let first = traces.first().expect("a source run traces its frontend");
        assert_eq!(
            (first.pass, first.disposition, first.runs, first.fuel),
            ("frontend", PassDisposition::Completed, 1, 0),
            "{case}: frontend trace"
        );
        traces = &traces[1..];
    }
    let passes = traces
        .iter()
        .map(|t| {
            let d = match t.disposition {
                PassDisposition::CachedAnalysis => {
                    assert!(cached, "{case}: cached analysis without a precomputed one");
                    PassDisposition::Completed
                }
                d => d,
            };
            (
                t.pass.to_string(),
                disposition(d).to_string(),
                t.runs,
                t.fuel,
            )
        })
        .collect();
    let rendered: Vec<String> = out.decisions.iter().map(|d| d.to_json()).collect();
    Measured {
        text: fnv(&fdi_sexpr::pretty(&fdi_lang::unparse(&out.optimized))),
        baseline_size: out.baseline_size,
        optimized_size: out.optimized_size,
        fuel_used: out.fuel_used,
        report: report_fields(&out.report),
        decisions: (out.decisions.len(), fnv(&rendered.join("\n"))),
        passes,
    }
}

fn expected(row: &Row) -> Measured {
    Measured {
        text: row.text,
        baseline_size: row.baseline_size,
        optimized_size: row.optimized_size,
        fuel_used: row.fuel_used,
        report: row.report,
        decisions: row.decisions,
        passes: row
            .passes
            .iter()
            .map(|&(p, d, r, f)| (p.to_string(), d.to_string(), r, f))
            .collect(),
    }
}

/// Renders a measured row as a `GOLDEN` entry, so a deliberate change can be
/// re-recorded from the failure message.
fn render(case: &str, m: &Measured) -> String {
    let passes: Vec<String> = m
        .passes
        .iter()
        .map(|(p, d, r, f)| format!("({p:?}, {d:?}, {r}, {f})"))
        .collect();
    format!(
        "    Row {{ case: {case:?}, text: {:#018x}, baseline_size: {}, optimized_size: {}, \
         fuel_used: {}, report: {:?}, decisions: ({}, {:#018x}), passes: &[{}] }},",
        m.text,
        m.baseline_size,
        m.optimized_size,
        m.fuel_used,
        m.report,
        m.decisions.0,
        m.decisions.1,
        passes.join(", ")
    )
}

/// A size budget that binds: half the specialized size an unbudgeted run
/// commits (as `tests/profile.rs` and `bench_snapshot` pick theirs).
fn binding_budget(out: &PipelineOutput) -> usize {
    let total: usize = out
        .decisions
        .iter()
        .filter_map(|d| match d.reason {
            DecisionReason::Inlined { specialized_size } => Some(specialized_size),
            _ => None,
        })
        .sum();
    (total / 2).max(1)
}

/// One case: its name, configuration and (for the guided row) guide.
struct Case {
    name: String,
    config: PipelineConfig,
    guide: Option<InlineGuide>,
}

fn cases(src: &str, bench: &str) -> Vec<Case> {
    let mut out: Vec<Case> = THRESHOLDS
        .iter()
        .map(|&t| Case {
            name: format!("{bench}/T={t}"),
            config: PipelineConfig::with_threshold(t),
            guide: None,
        })
        .collect();
    let profile = fdi_profile::Profile::collect(src, None, &RunConfig::default())
        .unwrap_or_else(|e| panic!("{bench}: profile: {e}"));
    let unbudgeted = optimize(src, &PipelineConfig::default()).unwrap();
    out.push(Case {
        name: format!("{bench}/guided"),
        config: PipelineConfig {
            size_budget: Some(binding_budget(&unbudgeted)),
            profile_fp: Some(profile.fingerprint()),
            ..PipelineConfig::default()
        },
        guide: Some(profile.guide()),
    });
    out
}

#[test]
fn every_input_shape_reproduces_the_recorded_table() {
    let mut golden = GOLDEN.iter();
    let mut mismatches = Vec::new();
    let mut check = |case: &str, shape: &str, m: &Measured, row: Option<&Row>| match row {
        Some(row) if row.case == case && expected(row) == *m => {}
        _ => mismatches.push(format!("{shape}:\n{}", render(case, m))),
    };
    for b in BENCHMARKS {
        let src = b.scaled(b.test_scale);
        let program: Program = fdi_lang::parse_and_lower(&src).unwrap();
        let spec_cache = SpecializationCache::unbounded();
        for case in cases(&src, b.name) {
            let row = golden.next();
            let analysis = analyze_contained(&program, &case.config);
            let lowered = |analysis| Input::Program {
                program: &program,
                analysis,
            };
            let analyzed = lowered(Some(analysis.as_ref()));
            let guided = |input| Request {
                input,
                guide: case.guide.as_ref(),
                ..Request::program(&program, case.config)
            };
            let shapes = [
                ("source", guided(Input::Source(&src))),
                ("program", guided(lowered(None))),
                ("analysis", guided(analyzed)),
                (
                    "spec cache",
                    Request {
                        spec_cache: Some(&spec_cache),
                        inline_units: 4,
                        ..guided(analyzed)
                    },
                ),
            ];
            for (shape, request) in shapes {
                let out = run(&request).unwrap();
                let from_source = matches!(request.input, Input::Source(_));
                let cached = matches!(
                    request.input,
                    Input::Program {
                        analysis: Some(_),
                        ..
                    }
                );
                check(
                    &case.name,
                    shape,
                    &measure(&out, from_source, cached, &case.name),
                    row,
                );
            }
        }
        assert!(
            spec_cache.stats().hits > 0,
            "{}: the shared specialization cache was never hit",
            b.name
        );
    }
    assert!(golden.next().is_none(), "the table has rows for no case");
    assert!(
        mismatches.is_empty(),
        "rows differ:\n{}",
        mismatches.join("\n")
    );
}
