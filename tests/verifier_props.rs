//! The standalone verifier against the differential harness
//! (`harness/mod.rs`): every compiled leg of a deep-tail random program
//! verifies clean, and each single mutation of a compiled program is caught
//! by its named check (paper §6.2: a compiled program never throws inside
//! the FHE runtime).

mod harness;

use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compiled_programs_verify_cleanly(
        seed in any::<u64>(),
        budget in 3usize..25,
        depth in 3usize..7,
    ) {
        differential(&generated(seed, budget, &deep(depth), Encrypt::No))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corruption_is_caught_by_the_matching_check(
        seed in any::<u64>(),
        budget in 6usize..25,
        choice in 0usize..6,
    ) {
        caught(seed, budget, choice)?;
    }
}
