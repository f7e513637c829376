//! Pins the cost model Fig. 6 rests on: for every paper benchmark at test
//! scale, unoptimized and at T = 0, 200 and 1000, the machine's value,
//! output and all eight [`Counters`] fields must match the recorded table.
//! A change to the machine that moves any of them changes the paper's
//! numbers and must be deliberate.

mod common;

use common::{cases, fingerprint};
use fdi_vm::{run, Counters, RunConfig};

/// `(case, mutator, words_allocated, calls, prims, closures_made,
/// pairs_made, steps, checks, value fingerprint, output fingerprint)`.
type Row = (&'static str, [u64; 8], u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("lattice/unopt", [2486227, 34502, 165241, 383659, 3624, 1776, 2471148, 232999], 0x9286b63340ae926f, 0xcbf29ce484222325),
    ("lattice/T=0", [1897739, 34323, 111754, 383627, 3589, 1776, 2203489, 232999], 0x9286b63340ae926f, 0xcbf29ce484222325),
    ("lattice/T=200", [1588035, 113497, 81739, 383691, 32386, 1776, 2091966, 232999], 0x9286b63340ae926f, 0xcbf29ce484222325),
    ("lattice/T=1000", [1588037, 113502, 81739, 383691, 32388, 1776, 2091969, 232999], 0x9286b63340ae926f, 0xcbf29ce484222325),
    ("boyer/unopt", [1456048, 70155, 95655, 226231, 10623, 7639, 1479973, 126378], 0x260ab5650c44acb7, 0xcbf29ce484222325),
    ("boyer/T=0", [1096418, 56423, 63495, 223487, 7875, 7639, 1312551, 126378], 0x260ab5650c44acb7, 0xcbf29ce484222325),
    ("boyer/T=200", [994275, 70902, 53687, 223704, 13919, 7639, 1271786, 126378], 0x260ab5650c44acb7, 0xcbf29ce484222325),
    ("boyer/T=1000", [994276, 70983, 53686, 223704, 13931, 7639, 1271794, 126378], 0x260ab5650c44acb7, 0xcbf29ce484222325),
    ("graphs/unopt", [374088, 48404, 25007, 47034, 6664, 5706, 361347, 31574], 0x8191946cc96cae4c, 0xcbf29ce484222325),
    ("graphs/T=0", [361668, 47356, 23941, 47033, 6316, 5706, 355324, 31574], 0x8191946cc96cae4c, 0xcbf29ce484222325),
    ("graphs/T=200", [307627, 47228, 18716, 48486, 7992, 5706, 338714, 31574], 0x8191946cc96cae4c, 0xcbf29ce484222325),
    ("graphs/T=1000", [300136, 46362, 18030, 48486, 7704, 5706, 335684, 31574], 0x8191946cc96cae4c, 0xcbf29ce484222325),
    ("matrix/unopt", [424417, 62165, 24675, 87411, 8029, 7980, 514438, 79250], 0xd05839f0d5c30656, 0xcbf29ce484222325),
    ("matrix/T=0", [420176, 60684, 24395, 87121, 7729, 7980, 511025, 79250], 0xd05839f0d5c30656, 0xcbf29ce484222325),
    ("matrix/T=200", [415734, 66804, 23809, 87121, 10238, 7980, 509648, 79250], 0xd05839f0d5c30656, 0xcbf29ce484222325),
    ("matrix/T=1000", [402579, 66466, 22713, 87121, 10229, 7980, 501982, 79250], 0xd05839f0d5c30656, 0xcbf29ce484222325),
    ("maze/unopt", [286437, 33079, 15559, 67699, 2501, 5765, 454196, 94713], 0x4568b718181c937c, 0xcbf29ce484222325),
    ("maze/T=0", [282001, 33057, 15117, 67699, 2495, 5765, 453285, 94713], 0x4568b718181c937c, 0xcbf29ce484222325),
    ("maze/T=200", [248769, 34338, 12271, 68563, 2923, 5765, 436939, 94713], 0x4568b718181c937c, 0xcbf29ce484222325),
    ("maze/T=1000", [248734, 34332, 12268, 68563, 2921, 5765, 436926, 94713], 0x4568b718181c937c, 0xcbf29ce484222325),
    ("splay/unopt", [2490669, 288359, 192466, 145896, 19358, 1, 2074959, 206306], 0xeb69b05c0249b53d, 0xcbf29ce484222325),
    ("splay/T=0", [2490669, 288359, 192466, 145896, 19358, 1, 2074959, 206306], 0xeb69b05c0249b53d, 0xcbf29ce484222325),
    ("splay/T=200", [671736, 108915, 31159, 145896, 13, 1, 1208617, 206306], 0xeb69b05c0249b53d, 0xcbf29ce484222325),
    ("splay/T=1000", [663935, 108911, 30559, 145896, 12, 1, 1203817, 206306], 0xeb69b05c0249b53d, 0xcbf29ce484222325),
    ("nbody/unopt", [115338, 10663, 4178, 50313, 169, 0, 277392, 98397], 0x3d9b415ca09a1513, 0xcbf29ce484222325),
    ("nbody/T=0", [114411, 10573, 4101, 50313, 165, 0, 276853, 98397], 0x3d9b415ca09a1513, 0xcbf29ce484222325),
    ("nbody/T=200", [89123, 10306, 2004, 50217, 81, 0, 263733, 98205], 0x3d9b415ca09a1513, 0xcbf29ce484222325),
    ("nbody/T=1000", [89123, 10306, 2004, 50217, 81, 0, 263733, 98205], 0x3d9b415ca09a1513, 0xcbf29ce484222325),
    ("dynamic/unopt", [208169, 14844, 12244, 36847, 1129, 2344, 251544, 18679], 0x0b4713f0f2a9488c, 0xcbf29ce484222325),
    ("dynamic/T=0", [202194, 14408, 12005, 36247, 1124, 2344, 242663, 18679], 0x0b4713f0f2a9488c, 0xcbf29ce484222325),
    ("dynamic/T=200", [178693, 16958, 9787, 36907, 2173, 2344, 233961, 18679], 0x0b4713f0f2a9488c, 0xcbf29ce484222325),
    ("dynamic/T=1000", [176581, 19027, 9567, 36907, 2561, 2344, 233093, 18679], 0x0b4713f0f2a9488c, 0xcbf29ce484222325),
];

fn fields(c: &Counters) -> [u64; 8] {
    [
        c.mutator,
        c.words_allocated,
        c.calls,
        c.prims,
        c.closures_made,
        c.pairs_made,
        c.steps,
        c.checks,
    ]
}

#[test]
fn counters_values_and_outputs_match_the_recorded_table() {
    let cases = cases(&[None, Some(0), Some(200), Some(1000)]);
    let mut actual = Vec::new();
    for case in &cases {
        let out = run(&case.program, &RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name()));
        actual.push((
            case.name(),
            fields(&out.counters),
            fingerprint(&out.value),
            fingerprint(&out.output),
        ));
    }
    let table: String = actual
        .iter()
        .map(|(n, f, v, o)| format!("    (\"{n}\", {f:?}, {v:#018x}, {o:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "recorded table:\n{table}");
    for ((name, f, v, o), &(gname, gf, gv, go)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "recorded table:\n{table}");
        assert_eq!(
            (f, v, o),
            (&gf, &gv, &go),
            "{name}: counters/value/output moved; recorded table:\n{table}"
        );
    }
}
