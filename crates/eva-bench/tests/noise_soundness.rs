//! Soundness of the worst-case noise estimator, pinned against *measured*
//! decryption error on the two example circuits the paper evaluates.
//!
//! The estimator's contract is one-sided: for range-correct executions its
//! per-output `message_error_log2` is an upper bound, with high probability,
//! on the observed decryption error. This test runs Sobel edge detection and
//! LeNet-5 inference end to end under encryption and asserts
//!
//! 1. the gate **accepts** both programs at the default safety margin (the
//!    whole point of calibrating the model — a sound but uselessly loose
//!    bound would refuse real workloads), and
//! 2. the measured max error never exceeds the estimated bound.
//!
//! The bound is deliberately conservative (worst-case magnitudes compound
//! through every multiply), so the gap between the two sides is large; the
//! assertion is about the *direction* of the inequality, not its tightness.

use std::collections::HashMap;

use eva_backend::{run_encrypted, run_reference};
use eva_bench::{measure_inference, prepare_network, random_image};
use eva_core::analysis::{estimate_noise, DEFAULT_SAFETY_MARGIN_BITS};
use eva_core::{compile, CompilerOptions};
use eva_tensor::networks::lenet5_small;

#[test]
fn sobel_estimate_bounds_measured_error() {
    let n = 16usize;
    let program = eva_apps::image::sobel_program(n);
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();

    let noise = estimate_noise(&compiled);
    let budgets = noise.output_budgets(&compiled.program);
    assert!(!budgets.is_empty());
    for output in &budgets {
        assert!(
            output.budget_bits >= DEFAULT_SAFETY_MARGIN_BITS,
            "gate would refuse Sobel: output {:?} budget {:.1} bits",
            output.name,
            output.budget_bits
        );
    }

    // A step-edge test image in [0, 1]: inputs respect the range contract.
    let mut image = vec![0.0f64; n * n];
    for i in n / 4..3 * n / 4 {
        for j in n / 4..3 * n / 4 {
            image[i * n + j] = 0.2;
        }
    }
    let inputs: HashMap<String, Vec<f64>> = [("image".to_string(), image)].into_iter().collect();
    let reference = run_reference(&compiled.program, &inputs).unwrap();
    let encrypted = run_encrypted(&compiled, &inputs).unwrap();

    for output in &budgets {
        let observed = reference[&output.name]
            .iter()
            .zip(&encrypted[&output.name])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let bound = output.message_error_log2.exp2();
        assert!(
            observed <= bound,
            "output {:?}: measured error {observed:.3e} exceeds the estimated \
             worst-case bound {bound:.3e} (2^{:.1}) — the noise model is unsound",
            output.name,
            output.message_error_log2
        );
    }
}

#[test]
fn lenet_estimate_bounds_measured_error() {
    let network = lenet5_small(1);
    let prepared = prepare_network(&network);
    let compiled = &prepared.eva.1;

    let noise = estimate_noise(compiled);
    let budgets = noise.output_budgets(&compiled.program);
    assert!(!budgets.is_empty());
    for output in &budgets {
        assert!(
            output.budget_bits >= DEFAULT_SAFETY_MARGIN_BITS,
            "gate would refuse LeNet: output {:?} budget {:.1} bits",
            output.name,
            output.budget_bits
        );
    }

    // measure_inference compares encrypted logits against the plaintext
    // reference semantics of the same compiled program — exactly the error
    // the estimator bounds.
    let image = random_image(&network, 1);
    let measurement = measure_inference(&prepared.eva.0, compiled, &network, &image, 2);
    let bound_log2 = budgets
        .iter()
        .map(|o| o.message_error_log2)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        measurement.max_error <= bound_log2.exp2(),
        "measured max logit error {:.3e} exceeds the estimated worst-case bound 2^{bound_log2:.1}",
        measurement.max_error
    );
}
