//! Property tests for the runtime wire codecs: `decode ∘ encode = id` (and
//! re-encoding is byte-identical) for full and seeded ciphertexts and both
//! evaluation-key types across random degrees and levels, plus totality under
//! corruption — truncated and bit-flipped buffers must return errors, never
//! panic.

use eva_ckks::{Ciphertext, GaloisKeys, KeySwitchKey, RelinearizationKey, SeededCiphertext};
use eva_poly::{PolyForm, RnsPoly};
use eva_wire::{fingerprint_eval_keys, WireError, WireObject};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random_poly(
    degree: usize,
    level: usize,
    form: PolyForm,
    rng: &mut rand::rngs::StdRng,
) -> RnsPoly {
    let data: Vec<u64> = (0..degree * level)
        .map(|_| rng.gen_range(0..u64::MAX))
        .collect();
    RnsPoly::from_flat(degree, data, form)
}

fn random_ciphertext(degree: usize, level: usize, size: usize, seed: u64) -> Ciphertext {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scale = 20.0 + rng.gen_range(0.0..40.0);
    let polys = (0..size)
        .map(|_| random_poly(degree, level, PolyForm::Ntt, &mut rng))
        .collect();
    Ciphertext::from_parts(polys, scale, level)
}

fn random_seeded_ciphertext(degree: usize, level: usize, seed: u64) -> SeededCiphertext {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scale = 20.0 + rng.gen_range(0.0..40.0);
    let mut expansion_seed = [0u8; 32];
    for byte in expansion_seed.iter_mut() {
        *byte = rng.gen_range(0..=255u64) as u8;
    }
    let b = random_poly(degree, level, PolyForm::Ntt, &mut rng);
    SeededCiphertext::from_parts(expansion_seed, b, scale, level)
}

fn random_key_switch_key(
    degree: usize,
    level: usize,
    rng: &mut rand::rngs::StdRng,
) -> KeySwitchKey {
    let digits = (0..level.max(1))
        .map(|_| {
            (
                random_poly(degree, level, PolyForm::Ntt, rng),
                random_poly(degree, level, PolyForm::Ntt, rng),
            )
        })
        .collect();
    KeySwitchKey::from_digits(digits)
}

/// Round-trips one object and checks both value identity (via the byte
/// representation, which is canonical) and byte identity of the re-encoding.
fn assert_roundtrip<T: WireObject>(value: &T) {
    let bytes = value.to_wire_bytes();
    let restored = T::from_wire_bytes(&bytes).expect("decode of a fresh encoding");
    assert_eq!(
        restored.to_wire_bytes(),
        bytes,
        "re-encoding must be byte-identical"
    );
}

/// Every truncation must error; every single-bit flip must either error or
/// decode to an object whose canonical re-encoding reproduces the mutated
/// buffer exactly (a semantically valid different object). Nothing panics.
fn assert_corruption_total<T: WireObject>(value: &T) {
    let bytes = value.to_wire_bytes();
    for cut in 0..bytes.len() {
        assert!(
            T::from_wire_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
    for bit in 0..bytes.len() * 8 {
        let mut mutated = bytes.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        match T::from_wire_bytes(&mutated) {
            Err(_) => {}
            Ok(decoded) => assert_eq!(
                decoded.to_wire_bytes(),
                mutated,
                "bit flip {bit} decoded but does not re-encode to the mutated buffer"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ciphertext_roundtrip(
        degree in prop::sample::select(vec![8usize, 16, 32, 64]),
        level in 1usize..5,
        size in 2usize..4,
        seed in any::<u64>(),
    ) {
        assert_roundtrip(&random_ciphertext(degree, level, size, seed));
    }

    #[test]
    fn seeded_ciphertext_roundtrip(
        degree in prop::sample::select(vec![8usize, 16, 32, 64]),
        level in 1usize..5,
        seed in any::<u64>(),
    ) {
        assert_roundtrip(&random_seeded_ciphertext(degree, level, seed));
    }

    // The tentpole invariant of the seeded transport: for the same message
    // under the same RNG state, the seeded path (encrypt_seeded → wire →
    // decode → expand) and the unseeded path (encrypt) produce the same
    // ciphertext, bit for bit — and hence decrypt identically.
    #[test]
    fn seeded_and_unseeded_encryption_coincide(
        key_seed in any::<u64>(),
        enc_seed in any::<u64>(),
        level in 1usize..4,
        // Keep m·2^scale comfortably inside one 40-bit prime (the level-1
        // case has Q = 2^40): |m| < 1 and scale ≤ 33 leaves headroom for the
        // canonical-embedding blow-up across 16 slots.
        scale in 25.0f64..33.0,
        message in prop::collection::vec(-1.0f64..1.0, 16),
    ) {
        use eva_ckks::{
            CkksContext, CkksEncoder, CkksParameters, Decryptor, KeyGenerator, SymmetricEncryptor,
        };

        let params = CkksParameters::new_insecure(32, &[40, 40, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let keygen = KeyGenerator::from_seed(ctx.clone(), key_seed);
        let encoder = CkksEncoder::new(ctx.clone());
        let pt = encoder.encode(&message, scale, level);

        let mut seeded_enc =
            SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), enc_seed);
        let mut full_enc =
            SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), enc_seed);

        let seeded = seeded_enc.encrypt_seeded(&pt);
        let full = full_enc.encrypt(&pt);

        // Through the EVAD wire format and back, the expansion is the
        // unseeded ciphertext, bit for bit.
        let restored = SeededCiphertext::from_wire_bytes(&seeded.to_wire_bytes()).unwrap();
        let expanded = restored.expand(&ctx).unwrap();
        prop_assert_eq!(expanded.polys(), full.polys());
        prop_assert_eq!(expanded.scale_log2().to_bits(), full.scale_log2().to_bits());
        prop_assert_eq!(expanded.level(), full.level());

        // And both decrypt to the same values — trivially, being identical,
        // but decrypt once each to pin the full pipeline.
        let decryptor = Decryptor::new(ctx, keygen.secret_key().clone());
        let a = decryptor.decrypt_to_values(&expanded, 16);
        let b = decryptor.decrypt_to_values(&full, 16);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.iter().zip(&message) {
            prop_assert!((x - y).abs() < 1e-3, "decryption drifted: {} vs {}", x, y);
        }
    }

    #[test]
    fn relinearization_key_roundtrip(
        degree in prop::sample::select(vec![8usize, 32]),
        level in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rk = RelinearizationKey::from_key_switch_key(
            random_key_switch_key(degree, level, &mut rng),
        );
        assert_roundtrip(&rk);
    }

    #[test]
    fn galois_keys_roundtrip(
        degree in prop::sample::select(vec![8usize, 32]),
        level in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Distinct odd elements < 2N, one shared by two steps.
        let elts = [1u64, 3, 5];
        let steps: Vec<(i64, u64)> = vec![(-2, elts[0]), (1, elts[1]), (4, elts[2]), (7, elts[1])];
        let keys: Vec<(u64, KeySwitchKey)> = elts
            .iter()
            .map(|&e| (e, random_key_switch_key(degree, level, &mut rng)))
            .collect();
        assert_roundtrip(&GaloisKeys::from_parts(steps, keys));
    }
}

#[test]
fn corruption_never_panics_and_always_surfaces() {
    // Small fixed objects so the exhaustive truncation + bit-flip sweeps stay
    // cheap; every object family is covered.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    assert_corruption_total(&random_ciphertext(8, 2, 2, 7));
    assert_corruption_total(&random_seeded_ciphertext(8, 2, 7));
    assert_corruption_total(&RelinearizationKey::from_key_switch_key(
        random_key_switch_key(8, 2, &mut rng),
    ));
    let gk = GaloisKeys::from_parts(
        vec![(1, 5)],
        vec![(5, random_key_switch_key(8, 2, &mut rng))],
    );
    assert_corruption_total(&gk);
}

#[test]
fn wrong_magic_is_a_typed_error() {
    // A ciphertext buffer is not accepted by the relinearization-key
    // decoder: the formats are distinguished by magic, not by guessing.
    let ct = random_ciphertext(8, 1, 2, 1);
    let err = RelinearizationKey::from_wire_bytes(&ct.to_wire_bytes()).unwrap_err();
    assert!(matches!(err, WireError::BadMagic { .. }));
    // Nor is a seeded ciphertext a full ciphertext (EVAD vs EVAC).
    let seeded = random_seeded_ciphertext(8, 1, 1);
    let err = Ciphertext::from_wire_bytes(&seeded.to_wire_bytes()).unwrap_err();
    assert!(matches!(err, WireError::BadMagic { .. }));
}

#[test]
fn eval_key_fingerprints_are_stable_and_content_sensitive() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let relin = RelinearizationKey::from_key_switch_key(random_key_switch_key(8, 2, &mut rng));
    let galois = GaloisKeys::from_parts(
        vec![(1, 5)],
        vec![(5, random_key_switch_key(8, 2, &mut rng))],
    );

    // Deterministic: the same keys always hash to the same fingerprint, and
    // a wire round trip (canonical re-encoding) preserves it.
    let fp = fingerprint_eval_keys(Some(&relin), &galois);
    assert_eq!(fp, fingerprint_eval_keys(Some(&relin), &galois));
    let relin_rt = RelinearizationKey::from_wire_bytes(&relin.to_wire_bytes()).unwrap();
    let galois_rt = GaloisKeys::from_wire_bytes(&galois.to_wire_bytes()).unwrap();
    assert_eq!(fp, fingerprint_eval_keys(Some(&relin_rt), &galois_rt));

    // Sensitive: dropping the relin key, or changing any key content,
    // changes the fingerprint.
    assert_ne!(fp, fingerprint_eval_keys(None, &galois));
    let other_relin =
        RelinearizationKey::from_key_switch_key(random_key_switch_key(8, 2, &mut rng));
    assert_ne!(fp, fingerprint_eval_keys(Some(&other_relin), &galois));
    let other_galois = GaloisKeys::from_parts(
        vec![(2, 5)],
        vec![(5, random_key_switch_key(8, 2, &mut rng))],
    );
    assert_ne!(fp, fingerprint_eval_keys(Some(&relin), &other_galois));
}

/// The wire contract of the evaluation keys, pinned from the commit before
/// keys were stored in evaluation order: seeded keys encode to the same
/// `EVAL` / `EVAG` bytes and fingerprint, decoding and re-encoding is byte
/// identical, and a decoded Galois key rotates exactly as the generated one.
/// The byte pins are BLAKE2b-256 digests (`b2sum -l 256`) of the same
/// `EVAL` / `EVAG` bytes the original SHA-256 pins were taken over.
#[test]
fn seeded_eval_keys_keep_their_wire_bytes_fingerprint_and_rotations() {
    use eva_ckks::{
        CkksContext, CkksEncoder, CkksParameters, Evaluator, KeyGenerator, SymmetricEncryptor,
    };
    use eva_wire::{Blake2b256, KeyFingerprint};

    let hex = |digest: [u8; 32]| KeyFingerprint(digest).to_string();
    let params = CkksParameters::new_insecure(64, &[40, 40, 40], 45).unwrap();
    let ctx = CkksContext::new(params).unwrap();
    let mut keygen = KeyGenerator::from_seed(ctx.clone(), 17);
    let relin = keygen.create_relinearization_key();
    // A negative step, and 29 ≡ −3 (mod 32 slots): two steps, one element.
    let steps = [1i64, -3, 29, 5];
    let galois = keygen.create_galois_keys(&steps);
    assert_eq!(galois.element_keys().len(), 3);

    let (relin_bytes, galois_bytes) = (relin.to_wire_bytes(), galois.to_wire_bytes());
    assert_eq!(
        hex(Blake2b256::digest(&relin_bytes)),
        "4717f524e25747afcb269443c9f8694796a5abcfadc0548dd5d29b6ed2d0e9db"
    );
    assert_eq!(
        hex(Blake2b256::digest(&galois_bytes)),
        "e9e92f3eff68a838f9cb2ce6680993fbfd791abc7c2d8934100b5f15be398f54"
    );
    assert_eq!(
        fingerprint_eval_keys(Some(&relin), &galois).to_string(),
        "1df88999eddfe43c453cdb27789c86a9907a421b371cbf1082f5eaaa71ab73e9"
    );

    let decoded = GaloisKeys::from_wire_bytes(&galois_bytes).unwrap();
    assert_eq!(decoded.to_wire_bytes(), galois_bytes);
    assert_roundtrip(&relin);

    let values: Vec<f64> = (0..32).map(|i| i as f64 / 32.0).collect();
    let ct = SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 18)
        .encrypt(&CkksEncoder::new(ctx.clone()).encode(&values, 30.0, 3));
    let evaluator = Evaluator::new(ctx);
    let expected = evaluator.rotate_hoisted(&ct, &steps, &galois).unwrap();
    for (want, &step) in expected.iter().zip(&steps) {
        let got = evaluator.rotate(&ct, step, &decoded).unwrap();
        assert_eq!(got.polys(), want.polys(), "step {step}");
    }
}
