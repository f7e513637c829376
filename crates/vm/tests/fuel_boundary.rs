//! Fuel is charged one unit per machine step, so a run capped at `F` fuel
//! either finishes exactly as the uncapped run does (`F ≥ S`, where `S` is
//! the uncapped step count) or stops with "out of fuel" after exactly `F`
//! steps (`F < S`). Any shortcut in the machine that charges steps in bulk
//! must keep both facts at every cap, which this test probes densely near
//! both ends and at seeded caps in between.

mod common;

use common::{cases, fingerprint};
use fdi_testutil::Rng;
use fdi_vm::{run, RunConfig};

/// Seeded caps strictly between the dense low range and `S − 2`.
const MIDDLE_CAPS: usize = 150;

#[test]
fn out_of_fuel_fires_at_exactly_the_capped_step() {
    for case in cases(&[None, Some(200)]) {
        let name = case.name();
        let full =
            run(&case.program, &RunConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = full.counters.steps;
        let mut caps: Vec<u64> = (1..=60).chain(s - 2..=s + 1).collect();
        let mut rng = Rng::new(fingerprint(&name));
        caps.extend((0..MIDDLE_CAPS).map(|_| rng.range(61, s as i64 - 2) as u64));
        for fuel in caps {
            let capped = run(
                &case.program,
                &RunConfig {
                    fuel,
                    ..RunConfig::default()
                },
            );
            match capped {
                Ok(out) => {
                    assert!(fuel >= s, "{name}: finished under fuel {fuel} < {s}");
                    assert_eq!(out.value, full.value, "{name} @ fuel {fuel}");
                    assert_eq!(out.output, full.output, "{name} @ fuel {fuel}");
                    assert_eq!(out.counters, full.counters, "{name} @ fuel {fuel}");
                }
                Err(e) => {
                    assert!(fuel < s, "{name}: failed under fuel {fuel} ≥ {s}: {e}");
                    assert_eq!(e.message, "out of fuel", "{name} @ fuel {fuel}");
                    assert_eq!(e.counters.steps, fuel, "{name}: steps at out-of-fuel");
                }
            }
        }
    }
}
