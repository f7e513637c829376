//! Pins the whole flow analysis of every paper benchmark at test scale under
//! each policy: one digest per (benchmark, policy) over every
//! `(label, contour)` and `(variable, contour)` value set, the contour,
//! closure and environment tables in id order, the call sites, and the
//! solver statistics. The inliner reads nothing else, so a solver change
//! that keeps these digests keeps every decision downstream. Only the
//! public query API is used.
//!
//! A digest that moves means the analysis changed — its values, or just
//! the order in which it interned contours, closures or environments. Both
//! must be deliberate. On a mismatch the test prints the whole table;
//! `cargo test --release -p fdi-cfa --test golden_analysis` re-prints it.

use fdi_benchsuite::BENCHMARKS;
use fdi_cfa::{analyze, AbsConst, AbsVal, ClosureId, ContourId, Ctx, FlowAnalysis, Polyvariance};
use fdi_lang::{FreeVars, Program, VarId};

/// `(benchmark/policy, steps, digest)`.
type Row = (&'static str, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("lattice/poly-split", 1758, 0x3706d40ed7c3765d),
    ("lattice/0cfa", 1222, 0xdd67b111c4f34b95),
    ("lattice/1cfa", 1839, 0x439a539049533505),
    ("lattice/2cfa", 3422, 0xdd58d9b4c425a194),
    ("boyer/poly-split", 6371, 0xd84f8aae7305294f),
    ("boyer/0cfa", 8414, 0xab2db2312e5a78ae),
    ("boyer/1cfa", 16804, 0xff35c911bf7100fd),
    ("boyer/2cfa", 46075, 0x902ca30855a572de),
    ("graphs/poly-split", 877, 0x4217a42059929056),
    ("graphs/0cfa", 849, 0xa899b4d17112b1db),
    ("graphs/1cfa", 1577, 0xa0c772ae0570f156),
    ("graphs/2cfa", 2821, 0xc6a2ae8e5fbbb47d),
    ("matrix/poly-split", 879, 0x4eca5899d580789d),
    ("matrix/0cfa", 853, 0xbfc1752c23c82641),
    ("matrix/1cfa", 1767, 0xdcd3254ad1be0e26),
    ("matrix/2cfa", 3551, 0x5447bc83d327f704),
    ("maze/poly-split", 811, 0x56304626f65da4d7),
    ("maze/0cfa", 786, 0x604ff61f92a0da44),
    ("maze/1cfa", 1470, 0xc64773362e61cf90),
    ("maze/2cfa", 3438, 0x684a7835d42decbc),
    ("splay/poly-split", 1038, 0x7fb97708a5f25396),
    ("splay/0cfa", 998, 0xa918d31c26f9c73a),
    ("splay/1cfa", 8804, 0xe5fbe7347cb7cf61),
    ("splay/2cfa", 13190, 0x7ffd3719d2fb7490),
    ("nbody/poly-split", 629, 0x051183aa4bf18690),
    ("nbody/0cfa", 498, 0xe1cee56c636afe96),
    ("nbody/1cfa", 617, 0x7eb6fa5c4f33f5f7),
    ("nbody/2cfa", 1081, 0xb25176ef9930e787),
    ("dynamic/poly-split", 21106, 0x20a8ea0f9815555b),
    ("dynamic/0cfa", 13803, 0x05798baa3002384b),
    ("dynamic/1cfa", 38481, 0xed483b2d953f9fcc),
    ("dynamic/2cfa", 102933, 0xa3c21e8497d52b01),
];

const POLICIES: [Polyvariance; 4] = [
    Polyvariance::PolymorphicSplitting,
    Polyvariance::Monovariant,
    Polyvariance::CallStrings(1),
    Polyvariance::CallStrings(2),
];

/// FNV-1a over a stream of little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn val(&mut self, v: AbsVal) {
        match v {
            AbsVal::Const(c) => {
                self.word(0);
                let (tag, sym) = match c {
                    AbsConst::True => (0, 0),
                    AbsConst::False => (1, 0),
                    AbsConst::Nil => (2, 0),
                    AbsConst::Num => (3, 0),
                    AbsConst::Char => (4, 0),
                    AbsConst::Str => (5, 0),
                    AbsConst::Sym(s) => (6, u64::from(s.0)),
                    AbsConst::AnySym => (7, 0),
                    AbsConst::Unspec => (8, 0),
                };
                self.word(tag);
                self.word(sym);
            }
            AbsVal::Clo(c) => {
                self.word(1);
                self.word(u64::from(c.0));
            }
            AbsVal::Pair(l, k) => {
                self.word(2);
                self.word(u64::from(l.0));
                self.word(u64::from(k.0));
            }
            AbsVal::Vector(l, k) => {
                self.word(3);
                self.word(u64::from(l.0));
                self.word(u64::from(k.0));
            }
        }
    }

    fn vals(&mut self, vals: &fdi_cfa::ValSet) {
        self.word(vals.len() as u64);
        for v in vals.iter() {
            self.val(v);
        }
    }
}

fn digest(program: &Program, flow: &FlowAnalysis) -> u64 {
    let mut d = Digest::new();
    let s = flow.stats();
    for w in [
        s.nodes as u64,
        s.edges,
        s.steps,
        s.contours as u64,
        s.closures as u64,
        s.arity_mismatches,
        u64::from(s.aborted),
    ] {
        d.word(w);
    }
    for &b in &s.valset_histogram {
        d.word(b);
    }
    // Contour table, in id order.
    for k in 0..s.contours {
        let labels = flow.contour_labels(ContourId(k as u32));
        d.word(labels.len() as u64);
        for l in labels {
            d.word(u64::from(l.0));
        }
    }
    // Closure table, in id order; each environment's bindings are hashed
    // once, at the first closure that carries it, in id order.
    let fv = FreeVars::compute(program);
    let mut env_owner: Vec<Option<ClosureId>> = Vec::new();
    for id in 0..s.closures {
        let cid = ClosureId(id as u32);
        let c = flow.closure(cid);
        d.word(u64::from(c.lambda.0));
        d.word(u64::from(c.env.0));
        d.word(u64::from(c.contour.0));
        let e = c.env.0 as usize;
        if env_owner.len() <= e {
            env_owner.resize(e + 1, None);
        }
        env_owner[e].get_or_insert(cid);
    }
    for (e, owner) in env_owner.iter().enumerate() {
        let Some(cid) = *owner else { continue };
        d.word(e as u64);
        let lambda = flow.closure(cid).lambda;
        for &v in fv.get(lambda).unwrap_or_default() {
            d.word(u64::from(v.0));
            match flow.closure_env_lookup(cid, v) {
                Some(k) => d.word(u64::from(k.0) + 1),
                None => d.word(0),
            }
        }
    }
    for &(l, k) in flow.call_sites() {
        d.word(u64::from(l.0));
        d.word(u64::from(k.0));
    }
    // Expression table: every label, its contours in table order.
    for l in program.labels() {
        let contours = flow.contours_of(l);
        d.word(contours.len() as u64);
        for k in contours {
            d.word(u64::from(k.0));
            d.vals(&flow.values(l, Ctx::At(k)));
        }
    }
    // Variable table: every non-empty (variable, contour) entry.
    for v in 0..program.var_count() {
        for k in 0..s.contours {
            let vals = flow.var_values(VarId(v as u32), ContourId(k as u32));
            if !vals.is_empty() {
                d.word(v as u64);
                d.word(k as u64);
                d.vals(&vals);
            }
        }
    }
    d.0
}

#[test]
fn every_benchmark_analysis_matches_the_recorded_digest() {
    let mut actual: Vec<(String, u64, u64)> = Vec::new();
    for b in BENCHMARKS {
        let program = fdi_lang::parse_and_lower(&b.scaled(b.test_scale))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for policy in POLICIES {
            let flow = analyze(&program, policy);
            let name = format!("{}/{}", b.name, policy.name());
            assert!(!flow.stats().aborted, "{name}: analysis aborted");
            actual.push((name, flow.stats().steps, digest(&program, &flow)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, s, d)| format!("    (\"{n}\", {s}, {d:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "recorded table:\n{table}");
    for ((name, steps, dig), &(gname, gsteps, gdig)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "recorded table:\n{table}");
        assert_eq!(
            (*steps, *dig),
            (gsteps, gdig),
            "{name}: analysis moved; recorded table:\n{table}"
        );
    }
}
