//! The optimizer's contract through the differential harness
//! (`harness/mod.rs`): optimized legs verify clean, never add a rotation or
//! a key switch, and an unrequested rotation step smuggled into one is
//! caught; on Sobel 16×16 the optimizer strictly cuts the work and runs the
//! fan-outs hoisted, bit for bit at every thread count.

mod harness;

use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Steps negative, past the slot count or multiples of it, which the
    // optimized legs canonicalize.
    #[test]
    fn optimized_programs_verify_cleanly(seed in any::<u64>(), budget in 3usize..25) {
        differential(&generated(seed, budget, &WIDE, Encrypt::No))?;
    }

    // Key counts are not asserted: `differential.rs` pins a program whose
    // optimized leg needs one more Galois key.
    #[test]
    fn optimization_is_cost_monotone(seed in any::<u64>(), budget in 3usize..25) {
        differential(&generated(seed, budget, &FLAT, Encrypt::No))?;
    }

    #[test]
    fn smuggled_rotation_step_is_caught(seed in any::<u64>(), budget in 6usize..25) {
        caught(seed, budget, 5)?;
    }
}

/// The optimizer strictly cuts Sobel's nodes, key switches and predicted
/// time and keeps its fan-outs hoisted; every leg keeps the filter.
#[test]
fn sobel_16x16_is_strictly_reduced_and_value_preserving() {
    let legs = sobel(Encrypt::No, None);
    let (before, after) = (cost(&legs, UNOPTIMIZED), cost(&legs, DEFAULT));
    assert!(
        after.nodes < before.nodes
            && after.key_switches < before.key_switches
            && after.predicted_us < before.predicted_us
            && after.distinct_rotation_steps <= before.distinct_rotation_steps
            && after.hoisted_groups >= 1
            && 2 * after.hoisted_rotations >= after.rotations,
        "unoptimized {before:?}\noptimized {after:?}"
    );
}

/// Both optimized legs run Sobel's fan-outs hoisted, serially and at 2, 3
/// and 8 threads, bit for bit.
#[test]
fn sobel_hoisted_twins_are_bit_identical() {
    let legs = sobel(Encrypt::Legs(&[DEFAULT, LAZY]), None);
    for name in [DEFAULT, LAZY] {
        let groups = cost(&legs, name).hoisted_groups;
        assert!(groups >= 1, "{name}: {groups} hoisted groups");
    }
}
