//! Regression test for the rescale-drift fix: the end-to-end encrypted LeNet
//! path used by `report --table 5` and `report --figure 7` must run green
//! under the evaluator's **exact-equality** scale checking (the 2^-10 drift
//! tolerance is gone), with the paper-level accuracy proxy intact.

use eva_bench::{measure_inference, prepare_network, random_image};
use eva_tensor::networks::lenet5_small;

#[test]
fn lenet_table5_figure7_path_is_exact_and_accurate() {
    // Three networks and images: one seed's error says little about the
    // budget's margin.
    for seed in 1..=3 {
        let network = lenet5_small(seed);
        let prepared = prepare_network(&network);
        let image = random_image(&network, seed);

        // Both lowerings must have needed exact match-scale fixes: this is
        // the network family whose drifted adds used to crash the executor.
        assert!(
            prepared.eva.1.stats.exact_scale_fixes_inserted > 0,
            "seed {seed}: expected the exact-scale phase to correct rescale drift in EVA-mode LeNet"
        );
        assert!(
            prepared.chet.1.stats.exact_scale_fixes_inserted > 0,
            "seed {seed}: expected the exact-scale phase to correct rescale drift in CHET-mode LeNet"
        );

        // The EVA (waterline) lowering — the mode whose drift used to be
        // papered over by the tolerance — takes the same path as
        // `--table 5` / `--figure 7`: parallel executor, seeded keys. Under
        // exact-equality scale checks any residual drift would abort
        // execution rather than show up as extra error. (The CHET-mode
        // encrypted path runs via `report --table 5`; it is kept out of the
        // test suite for time.)
        let measurement = measure_inference(&prepared.eva.0, &prepared.eva.1, &network, &image, 2);
        assert!(
            measurement.max_error <= 1e-4,
            "seed {seed}: max logit error {:.3e} exceeds the 1e-4 budget",
            measurement.max_error
        );
        assert!(
            measurement.argmax_agrees,
            "seed {seed}: argmax flipped under encryption"
        );
        eprintln!("seed {seed}: max logit error {:.3e}", measurement.max_error);
    }
}
