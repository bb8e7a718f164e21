//! The compiler's central guarantee on random programs: every leg of the
//! differential harness (`harness/mod.rs`) either fails cleanly or verifies,
//! keeps the reference semantics to 1e-9 and fits the 128-bit budget.

mod harness;

use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compilation_preserves_reference_semantics(seed in any::<u64>(), budget in 3usize..25) {
        differential(&generated(seed, budget, &FLAT, Encrypt::No))?;
    }
}
