//! Transforms the backend skips because their result is known beforehand.
//!
//! Two places produce a residue row without running the FFT/NTT that would
//! compute it, and this file pins that both are *exact*:
//!
//! 1. **Splat plaintexts** — `CkksEncoder::encode` of a vector whose slots
//!    all hold one bit pattern yields the constant polynomial
//!    `round(c·2^scale)`, at every level and every (sparse) slot count, which
//!    is bit for bit what the FFT route produced; any other vector, however
//!    close, still takes that route and encodes as it did before the
//!    shortcut existed.
//! 2. **Own-prime digit rows** — row `j` of key-switch digit `j` is the
//!    target's own NTT row; `relinearize`, `rotate` and `rotate_hoisted`
//!    outputs are bit-identical to the commit before the reuse (and, with
//!    `rescale_to_next`, to the commit before the mod-down and rescale
//!    constants moved into `RnsBasis::drop_constants`).
//!
//! The hashes asserted below were captured by running this file on the parent
//! commit (`eef4907`), whose encoder and evaluator run every transform. The
//! key-switch hashes were re-captured when the fixture moved from public-key
//! to secret-key encryption (which changes the input ciphertext and, with no
//! public key drawn first, the keys): on `1a78693`, whose kernels still
//! matched the `eef4907` hashes under the old fixture, with the new one.

use eva_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParameters, Evaluator, KeyGenerator, Plaintext,
    SymmetricEncryptor,
};
use eva_poly::RnsPoly;
use proptest::prelude::*;

/// FNV-1a over every residue word of `polys`, in order.
fn fnv<'a>(polys: impl IntoIterator<Item = &'a RnsPoly>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in polys.into_iter().flat_map(|p| p.rows().flatten()) {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn fnv_cts(cts: &[Ciphertext]) -> u64 {
    fnv(cts.iter().flat_map(|ct| ct.polys()))
}

/// `evaluator.rs`'s seeded unit-test fixture (key seed 21, secret-key
/// encryption seed 22) over arbitrary parameters.
struct Harness {
    context: CkksContext,
    encoder: CkksEncoder,
    encryptor: SymmetricEncryptor,
    evaluator: Evaluator,
    keygen: KeyGenerator,
}

fn harness(params: CkksParameters) -> Harness {
    let context = CkksContext::new(params).unwrap();
    let keygen = KeyGenerator::from_seed(context.clone(), 21);
    Harness {
        encoder: CkksEncoder::new(context.clone()),
        encryptor: SymmetricEncryptor::from_seed(context.clone(), keygen.secret_key().clone(), 22),
        evaluator: Evaluator::new(context.clone()),
        keygen,
        context,
    }
}

fn fixture() -> Harness {
    harness(CkksParameters::new_insecure(256, &[40, 40, 40, 40], 45).unwrap())
}

const HOISTED_STEPS: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, -1];
const SINGLE_STEPS: [i64; 3] = [1, -2, 3];

/// Hashes of a relinearized square, its rescale, three single rotations
/// (left and right) and one 8-way hoisted fan-out of a fresh top-level
/// ciphertext.
fn key_switch_hashes(mut h: Harness) -> [u64; 4] {
    let level = h.context.max_level();
    let values: Vec<f64> = (0..h.context.slot_count())
        .map(|i| (i as f64).sin())
        .collect();
    let ct = h.encryptor.encrypt(&h.encoder.encode(&values, 40.0, level));
    let rk = h.keygen.create_relinearization_key();
    let gk = h
        .keygen
        .create_galois_keys(&[&HOISTED_STEPS[..], &SINGLE_STEPS[..]].concat());

    let relinearized = h
        .evaluator
        .relinearize(&h.evaluator.square(&ct).unwrap(), &rk)
        .unwrap();
    let rescaled = h.evaluator.rescale_to_next(&relinearized).unwrap();
    let rotated: Vec<Ciphertext> = SINGLE_STEPS
        .iter()
        .map(|&step| h.evaluator.rotate(&ct, step, &gk).unwrap())
        .collect();
    let hoisted = h
        .evaluator
        .rotate_hoisted(&ct, &HOISTED_STEPS, &gk)
        .unwrap();
    [
        fnv_cts(&[relinearized]),
        fnv_cts(&[rescaled]),
        fnv_cts(&rotated),
        fnv_cts(&hoisted),
    ]
}

#[test]
fn key_switch_outputs_match_the_parent_commit_on_the_fixture() {
    assert_eq!(
        key_switch_hashes(fixture()),
        [
            0x85e9_a503_e43c_b3ef,
            0xeebe_4042_26f5_7710,
            0x69b0_dee9_6527_9d85,
            0x113b_ba76_00e5_9bd2
        ],
        "relinearize / rescale / rotate / rotate_hoisted at N = 256, 4 primes"
    );
}

#[test]
fn key_switch_outputs_match_the_parent_commit_at_n8192_level3() {
    assert_eq!(
        key_switch_hashes(harness(CkksParameters::new(8192, &[40, 40, 40]).unwrap())),
        [
            0x240c_a222_feed_67bd,
            0x5a29_c26b_5f7c_4459,
            0xc4dc_9268_7319_502c,
            0x0c64_ad40_a233_526f
        ],
        "relinearize / rescale / rotate / rotate_hoisted at N = 8192, level 3"
    );
}

#[test]
fn own_prime_digit_rows_are_the_targets_rows() {
    let mut h = fixture();
    let values: Vec<f64> = (0..128).map(|i| (i as f64).cos()).collect();
    for level in 1..=4 {
        let ct = h.encryptor.encrypt(&h.encoder.encode(&values, 40.0, level));
        let target = &ct.polys()[1];
        let decomp = h.evaluator.decompose_for_key_switch(target, level);
        assert_eq!(decomp.digits().len(), level);
        for (j, digit) in decomp.digits().iter().enumerate() {
            assert_eq!(
                digit.residue(j),
                target.residue(j),
                "level {level}, digit {j}"
            );
        }
    }
}

#[test]
fn splat_encodings_match_the_parent_commit() {
    // The parent ran these through the FFT and the NTTs; skipping both must
    // not move a bit (which is why no workload's `output_digest` moved).
    let h = fixture();
    let hashes = [
        fnv([&h.encoder.encode(&[0.37; 128], 40.0, 4).poly]),
        fnv([&h.encoder.encode(&[-1.0 / 3.0; 128], 70.0, 3).poly]),
        fnv([&h.encoder.encode(&[1e-3; 4], 59.5, 2).poly]),
    ];
    assert_eq!(
        hashes,
        [
            0xc39f_e378_6968_bb25,
            0x38d3_b2e5_f5f2_6525,
            0x70bf_4a0f_eda0_d325
        ],
        "full and sparse splat encodings"
    );
}

/// `values` with slot `index` moved up by one unit in the last place.
fn with_one_ulp(values: &[f64], index: usize) -> Vec<f64> {
    let mut out = values.to_vec();
    out[index] = f64::from_bits(out[index].to_bits() + 1);
    out
}

#[test]
fn a_vector_one_ulp_from_a_splat_encodes_as_the_parent_commit_did() {
    let h = fixture();
    let near_splat = with_one_ulp(&[0.37; 128], 77);
    // Scale 2^40: every coefficient is below 2^63. Scale 2^70: the constant
    // coefficient is not, so both lifts into the RNS basis are covered.
    let hashes = [40.0, 70.0].map(|scale| fnv([&h.encoder.encode(&near_splat, scale, 4).poly]));
    assert_eq!(
        hashes,
        [0xc39f_e378_6968_bb25, 0x3e9f_c92f_397a_df11],
        "general-path encodings at scales 2^40 and 2^70"
    );
}

/// Asserts that `pt` is the constant polynomial `round(c·2^scale)` and that
/// it decodes to `c` in every one of `slots` slots.
fn assert_constant_poly(
    context: &CkksContext,
    encoder: &CkksEncoder,
    pt: &Plaintext,
    c: f64,
    slots: usize,
) -> Result<(), TestCaseError> {
    let scaled = (c * pt.scale_log2.exp2()).round();
    let mut coeff = pt.poly.clone();
    coeff.to_coeff(context.key_basis());
    prop_assert_eq!(coeff.level(), pt.level);
    for (row, modulus) in coeff.rows().zip(context.key_basis().moduli()) {
        let constant = (scaled as i128).rem_euclid(i128::from(modulus.value())) as u64;
        prop_assert_eq!(row[0], constant);
        prop_assert!(row[1..].iter().all(|&x| x == 0), "off-constant coefficient");
    }
    // Decoding is only meaningful while the scaled constant fits the chain.
    if scaled.abs().log2() < context.key_basis().product_bits(pt.level) - 2.0 {
        // Half a unit of rounding at the scale, plus `f64` rounding of the
        // scaling multiply and the decoder's divide.
        let tolerance = (1.0 - pt.scale_log2).exp2() + c.abs() * 2f64.powi(-50);
        for (slot, value) in encoder.decode(pt, slots).into_iter().enumerate() {
            prop_assert!(
                (value - c).abs() <= tolerance,
                "slot {} of {}: {} vs {}",
                slot,
                slots,
                value,
                c
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A splat vector encodes to exactly the constant polynomial, at every
    // level and every power-of-two slot count down to one (sparse packing
    // replicates, and a replicated constant is the same constant).
    #[test]
    fn splat_vectors_encode_to_the_exact_constant_polynomial(
        magnitude in 0.0f64..8.0,
        sign in prop::sample::select(vec![-1.0f64, 1.0, 0.0]),
        scale_log2 in 10.0f64..60.0,
    ) {
        let params = CkksParameters::new_insecure(64, &[40, 50, 60], 59).unwrap();
        let context = CkksContext::new(params).unwrap();
        let encoder = CkksEncoder::new(context.clone());
        let c = magnitude * sign;
        for level in 1..=context.max_level() {
            for log_slots in 0..=5 {
                let slots = 1usize << log_slots;
                let pt = encoder.encode(&vec![c; slots], scale_log2, level);
                prop_assert_eq!(pt.scale_log2, scale_log2);
                assert_constant_poly(&context, &encoder, &pt, c, slots)?;
            }
        }
    }
}
