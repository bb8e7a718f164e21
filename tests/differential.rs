//! The differential harness (`harness/mod.rs`) on named programs: generated
//! ones run encrypted on a shrunk ring, a pinned draw and the `.evaprog`
//! round trip, and workloads at their compiled parameters — the mixed
//! program, Sobel 16×16 and a program with keys at two levels served over
//! localhost, LeNet-5-small, and an identity rotation that needs no key.

mod harness;

use eva::ir::analysis::key_levels;
use eva::ir::{Opcode, Program};
use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_programs_run_bit_identically_encrypted(seed in any::<u64>(), budget in 3usize..14) {
        differential(&generated(seed, budget, &FLAT, Encrypt::Shrunk))?;
    }

    #[test]
    fn deep_programs_keep_exact_scales_encrypted(
        seed in any::<u64>(),
        budget in 3usize..12,
        depth in 3usize..5,
    ) {
        let case = generated(seed, budget, &deep(depth), Encrypt::Shrunk);
        for (name, leg) in differential(&case)? {
            let rescales = leg.program.opcode_histogram().get("rescale").copied().unwrap_or(0);
            prop_assert!(rescales >= depth.min(3), "{}: {name} has {rescales} rescales\n{}",
                case.label, case.program);
        }
    }
}

/// Its optimized leg needs a key for one more step (1 → 2) while saving a
/// rotation and a key switch: the cost contract, which counts no keys,
/// holds.
#[test]
fn a_program_whose_optimizer_adds_a_galois_key_is_cost_monotone() {
    let seed = 9_495_111_241_445_897_171;
    check(&generated(seed, 14, &FLAT, Encrypt::No));
}

#[test]
fn seed_11_round_trips_through_evaprog() {
    let legs = check(&generated(11, 12, &FLAT, Encrypt::No));
    assert!(leg(&legs, DEFAULT).is_some());
}

/// Galois and relinearization keys, a plain input, a scalar constant and
/// match-scale corrections, within 1e-4 of the reference over the service.
#[test]
fn mixed_program() {
    let mut p = Program::new("mixed", 16);
    let image = p.input_cipher("image", 30);
    let weights = p.input_vector("weights", 20);
    let c = p.constant(eva::ir::ConstantValue::Scalar(0.25), 20);
    let shifted = p.instruction(Opcode::RotateLeft(3), &[image]);
    let weighted = p.instruction(Opcode::Multiply, &[shifted, weights]);
    let scaled = p.instruction(Opcode::Multiply, &[weighted, c]);
    let sum = p.instruction(Opcode::Add, &[scaled, image]);
    let sq = p.instruction(Opcode::Multiply, &[sum, sum]);
    p.output("out", sq, 30);
    let image = (0..16).map(|i| f64::from(i) / 8.0 - 1.0).collect();
    let weights = (0..16).map(|i| f64::from(i % 3) - 1.0).collect();
    let inputs = Values::from([("image".into(), image), ("weights".into(), weights)]);
    let case = Case::new("mixed program", p, inputs);
    check(&Case {
        serve: Some(DEFAULT),
        tolerance: Some(1e-4),
        ..case
    });
}

/// Sobel 16×16, as the application `sobel(16, 9)`: a two-thread server
/// returns the default leg's in-process bits, and the CSE+DCE twin, which
/// selects the unoptimized leg's primes, decrypts to its bits.
#[test]
fn sobel_16x16() {
    let legs = sobel(Encrypt::Legs(&[DEFAULT, UNOPTIMIZED, TWIN]), Some(DEFAULT));
    // So the twin was compared bit for bit.
    let parameters = |name| &leg(&legs, name).unwrap().parameters;
    assert_eq!(parameters(TWIN), parameters(UNOPTIMIZED));
}

/// LeNet-5-small: hundreds of rotations in many fan-outs. Its 703 MB key
/// upload is too slow to serve here.
#[test]
fn lenet_5_small() {
    let network = eva::tensor::networks::lenet5_small(42);
    let lowered = eva::tensor::lower_network(&network, eva::tensor::LoweringMode::Eva);
    let size = lowered.program.vec_size();
    let image = (0..size).map(|i| (i % 23) as f64 / 23.0 - 0.5).collect();
    let inputs = Values::from([(lowered.input_name, image)]);
    let case = Case::new("LeNet-5-small", lowered.program, inputs);
    check(&Case {
        encrypt: Encrypt::Legs(&[DEFAULT]),
        ..case
    });
}

/// Keys at the level they are used: a rotation at the top level and one
/// after two rescales give Galois keys at two levels, served alike.
#[test]
fn keys_at_two_levels() {
    let mut p = Program::new("two-levels", 16);
    let x = p.input_cipher("x", 30);
    let shifted = p.instruction(Opcode::RotateLeft(3), &[x]);
    let sum = p.instruction(Opcode::Add, &[x, shifted]);
    let sq = p.instruction(Opcode::Multiply, &[sum, sum]);
    let fourth = p.instruction(Opcode::Multiply, &[sq, sq]);
    let out = p.instruction(Opcode::RotateLeft(1), &[fourth]);
    p.output("out", out, 30);
    let x = (0..16).map(|i| f64::from(i) / 32.0).collect();
    let case = Case::new("keys at two levels", p, Values::from([("x".into(), x)]));
    let legs = check(&Case {
        serve: Some(DEFAULT),
        tolerance: Some(1e-4),
        ..case
    });
    let default = leg(&legs, DEFAULT).unwrap();
    let top = default.parameters.data_primes.len();
    let galois = key_levels(default).unwrap().galois;
    let below = galois.iter().filter(|&&(_, level)| level < top).count();
    assert_eq!((galois.len(), below), (2, 1), "{galois:?}");
}

/// A rotation by the slot count is the identity (Galois element 1): the
/// unoptimized legs keep it, yet no key is built or uploaded for it, and
/// every leg decrypts to the reference.
#[test]
fn identity_rotation_needs_no_galois_key() {
    let mut p = Program::new("identity_rotation", 4096);
    let x = p.input_cipher("x", 30);
    let r = p.instruction(Opcode::RotateLeft(4096), &[x]);
    let sum = p.instruction(Opcode::Add, &[x, r]);
    p.output("out", sum, 30);
    let x = (0..4096).map(|i| f64::from(i % 31) / 31.0).collect();
    let case = Case::new("identity rotation", p, Values::from([("x".into(), x)]));
    let legs = check(&Case {
        serve: Some(DEFAULT),
        tolerance: Some(1e-4),
        ..case
    });
    let unopt = leg(&legs, UNOPTIMIZED).unwrap();
    assert_eq!(unopt.parameters.degree, 8192);
    assert_eq!(unopt.rotation_steps, [4096]);
    assert!(key_levels(unopt).unwrap().galois.is_empty());
}
