//! Differential key-switch test harness for hoisted rotations.
//!
//! Three contracts are pinned here, over random rotation sets, levels and
//! ring degrees:
//!
//! 1. **Bit identity**: `Evaluator::rotate_hoisted` (decompose once, apply
//!    every Galois key to the shared digits) produces ciphertexts that are
//!    bit-identical to sequential `Evaluator::rotate` calls.
//! 2. **One exact kernel**: `Evaluator::apply_key_switch` — the unreduced
//!    128-bit digit × key sum, reduced once — leaves every accumulator limb
//!    strictly below `2q`, and one canonicalization lands exactly on the
//!    value a fully canonical (`add`/`mul` per step) accumulation over the
//!    key's *canonical* rows computes: directly for a relinearization key,
//!    through the key's gather table for a (stored `σ⁻¹`-permuted) Galois
//!    key.
//! 3. **A switch is its pieces**: `Evaluator::key_switch_digit` alone is
//!    that digit of the whole decomposition (and of the definition), and
//!    digits assembled in any order, applied member by member in any order
//!    from a scratch another switch left dirty, are bit-identical to
//!    `rotate_hoisted` and `relinearize` — what lets a scheduler run the
//!    pieces as separate tasks.

use eva_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParameters, Decryptor, Evaluator, KeyGenerator,
    KeySwitchDecomposition, KeySwitchScratch, SymmetricEncryptor,
};
use eva_poly::RnsPoly;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Harness {
    context: CkksContext,
    evaluator: Evaluator,
    decryptor: Decryptor,
    keygen: KeyGenerator,
    ct: Ciphertext,
    values: Vec<f64>,
}

fn build(degree: usize, levels: usize, level: usize, seed: u64) -> Harness {
    let bits = vec![40u32; levels];
    let params = CkksParameters::new_insecure(degree, &bits, 45).unwrap();
    let context = CkksContext::new(params).unwrap();
    let keygen = KeyGenerator::from_seed(context.clone(), seed ^ 0xA5A5);
    let mut encryptor =
        SymmetricEncryptor::from_seed(context.clone(), keygen.secret_key().clone(), seed ^ 0x5A5A);
    let encoder = CkksEncoder::new(context.clone());
    let decryptor = Decryptor::new(context.clone(), keygen.secret_key().clone());

    let slots = context.slot_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ct = encryptor.encrypt(&encoder.encode(&values, 40.0, level));
    Harness {
        evaluator: Evaluator::new(context.clone()),
        context,
        decryptor,
        keygen,
        ct,
        values,
    }
}

/// The modulus backing accumulator row `pos` of a level-`level` key switch
/// (rows `0..level` are the data primes, row `level` is the special prime).
fn row_modulus(context: &CkksContext, level: usize, pos: usize) -> eva_math::Modulus {
    let idx = if pos == level {
        context.special_index()
    } else {
        pos
    };
    context.key_basis().moduli()[idx]
}

/// Strict reference accumulation: the same digit × key sums as
/// `apply_key_switch` with the automorphism applied to the digits, over the
/// key's canonical rows, canonicalizing after every single
/// multiply-accumulate step.
fn canonical_accumulate(
    context: &CkksContext,
    decomp: &KeySwitchDecomposition,
    key: &[(RnsPoly, RnsPoly)],
    table: Option<&[u32]>,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let n = context.degree();
    let level = decomp.level();
    let ext = level + 1;
    let mut acc0 = vec![vec![0u64; n]; ext];
    let mut acc1 = vec![vec![0u64; n]; ext];
    for (digit, (k0, k1)) in decomp.digits().iter().zip(key) {
        for pos in 0..ext {
            let m_idx = if pos == level {
                context.special_index()
            } else {
                pos
            };
            let q = &context.key_basis().moduli()[m_idx];
            let digit_row = digit.residue(pos);
            let k0_row = k0.residue(m_idx);
            let k1_row = k1.residue(m_idx);
            for i in 0..n {
                let t = match table {
                    Some(tb) => digit_row[tb[i] as usize],
                    None => digit_row[i],
                };
                acc0[pos][i] = q.add(acc0[pos][i], q.mul(t, k0_row[i]));
                acc1[pos][i] = q.add(acc1[pos][i], q.mul(t, k1_row[i]));
            }
        }
    }
    (acc0, acc1)
}

/// Maps raw random draws onto a valid rotation-step set for `slots` slots
/// (steps in `[-(slots-1), slots-1]`, including 0 and duplicates).
fn shape_steps(raw: &[i64], count: usize, slots: i64) -> Vec<i64> {
    raw[..count]
        .iter()
        .map(|s| s.rem_euclid(2 * slots - 1) - (slots - 1))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Hoisted rotation fan-outs are bit-identical to sequential rotations,
    // across random degrees, chain lengths, operating levels and step sets
    // (including step 0 and duplicate steps).
    #[test]
    fn hoisted_rotations_match_sequential_bit_exactly(
        degree in prop::sample::select(vec![64usize, 128, 256]),
        levels in 2usize..=4,
        level_pick in any::<u64>(),
        seed in any::<u64>(),
        raw_steps in prop::collection::vec(any::<i64>(), 6),
        step_count in 1usize..=6,
    ) {
        let level = 1 + (level_pick as usize) % levels;
        let steps = shape_steps(&raw_steps, step_count, (degree / 2) as i64);
        let mut h = build(degree, levels, level, seed);
        let gk = h.keygen.create_galois_keys(&steps);

        let hoisted = h.evaluator.rotate_hoisted(&h.ct, &steps, &gk).unwrap();
        prop_assert_eq!(hoisted.len(), steps.len());
        let slots = h.context.slot_count();
        for (rotated, &step) in hoisted.iter().zip(&steps) {
            let sequential = h.evaluator.rotate(&h.ct, step, &gk).unwrap();
            prop_assert_eq!(rotated.polys(), sequential.polys());
            prop_assert_eq!(rotated.scale_log2(), sequential.scale_log2());
            prop_assert_eq!(rotated.level(), level);

            // And both actually rotate: decrypt and compare slot-wise.
            let decrypted = h.decryptor.decrypt_to_values(rotated, slots);
            for i in 0..slots {
                let src = (i as i64 + step).rem_euclid(slots as i64) as usize;
                prop_assert!((decrypted[i] - h.values[src]).abs() < 1e-2,
                    "step {}, slot {}: {} vs {}", step, i, decrypted[i], h.values[src]);
            }
        }
    }

    // The one kernel leaves every accumulator limb in [0, 2q) and a single
    // canonicalization agrees exactly with a per-step canonical accumulation
    // over the canonical key rows — for a relinearization key as is, for a
    // Galois key through its gather table.
    #[test]
    fn key_switch_limbs_below_two_q_and_canonicalize_exactly(
        degree in prop::sample::select(vec![64usize, 128, 256]),
        levels in 2usize..=4,
        level_pick in any::<u64>(),
        seed in any::<u64>(),
        raw_step in any::<i64>(),
    ) {
        let level = 1 + (level_pick as usize) % levels;
        let slots = (degree / 2) as i64;
        // A non-zero step (zero performs no key switch at all).
        let step = 1 + raw_step.rem_euclid(slots - 1);
        let mut h = build(degree, levels, level, seed);
        let rk = h.keygen.create_relinearization_key();
        let gk = h.keygen.create_galois_keys(&[step]);
        let elt = h.context.galois().galois_elt_from_step(step);
        let (_, galois_key) = gk
            .element_keys()
            .into_iter()
            .find(|&(e, _)| e == elt)
            .expect("key for the requested step");
        let sigma = h.context.galois().ntt_permutation(elt);
        prop_assert_eq!(galois_key.ntt_permutation(), Some(sigma.as_slice()));
        prop_assert_eq!(rk.key_switch_key().ntt_permutation(), None);

        let decomp = h
            .evaluator
            .decompose_for_key_switch(&h.ct.polys()[1], level);
        let n = h.context.degree();
        for key in [rk.key_switch_key(), galois_key] {
            let table = key.ntt_permutation();
            let mut acc0 = vec![u64::MAX; (level + 1) * n];
            let mut acc1 = vec![u64::MAX; (level + 1) * n];
            h.evaluator.apply_key_switch(&decomp, key, &mut acc0, &mut acc1);
            let canonical: Vec<(RnsPoly, RnsPoly)> = key
                .canonical_digits()
                .map(|(k0, k1)| (k0.into_owned(), k1.into_owned()))
                .collect();
            let (exp0, exp1) = canonical_accumulate(&h.context, &decomp, &canonical, table);
            for (acc, expected) in [(&acc0, &exp0), (&acc1, &exp1)] {
                for (pos, row) in acc.chunks_exact(n).enumerate() {
                    let q = row_modulus(&h.context, level, pos);
                    let two_q = 2 * q.value();
                    for &limb in row {
                        prop_assert!(limb < two_q, "row {}: {} >= 2q = {}", pos, limb, two_q);
                    }
                    // The kernel's output is pre-automorphism: σ reads it
                    // through the table.
                    for i in 0..n {
                        let at = table.map_or(i, |t| t[i] as usize);
                        prop_assert_eq!(q.reduce_once(row[at]), expected[pos][i]);
                    }
                }
            }
        }
    }

    // Digit `j` computed alone is digit `j` of the whole decomposition, and
    // both are what the definition says: the target's residue `j`, as
    // coefficients, reduced into every modulus of the extended basis and
    // transformed.
    #[test]
    fn each_digit_alone_is_its_row_of_the_whole_decomposition(
        degree in prop::sample::select(vec![64usize, 128, 256]),
        levels in 2usize..=4,
        level_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let level = 1 + (level_pick as usize) % levels;
        let h = build(degree, levels, level, seed);
        let target = &h.ct.polys()[1];
        let whole = h.evaluator.decompose_for_key_switch(target, level);
        prop_assert_eq!(whole.digits().len(), level);
        let basis = h.context.key_basis();
        let mut coefficients = target.clone();
        coefficients.to_coeff(basis);
        for j in (0..level).rev() {
            let digit = h.evaluator.key_switch_digit(target, level, j);
            prop_assert_eq!(&digit, &whole.digits()[j]);
            for pos in 0..=level {
                let m_idx = if pos == level { h.context.special_index() } else { pos };
                let q = row_modulus(&h.context, level, pos);
                let mut row: Vec<u64> =
                    coefficients.residue(j).iter().map(|&c| q.reduce(c)).collect();
                basis.ntt_tables()[m_idx].forward(&mut row);
                prop_assert_eq!(digit.residue(pos), &row[..]);
            }
        }
    }

    // Digits lifted backwards and assembled, then members applied in reverse
    // from a scratch that a switch of another ciphertext at a higher level
    // left its sums in, are bit-identical to `rotate_hoisted` and
    // `relinearize`, which run the same pieces in order from a fresh one.
    #[test]
    fn members_in_any_order_from_a_dirty_scratch_match_the_whole_switch(
        degree in prop::sample::select(vec![64usize, 128, 256]),
        levels in 2usize..=4,
        level_pick in any::<u64>(),
        seed in any::<u64>(),
        raw_steps in prop::collection::vec(any::<i64>(), 4),
    ) {
        let level = 1 + (level_pick as usize) % (levels - 1);
        let slots = (degree / 2) as i64;
        let steps: Vec<i64> = raw_steps.iter().map(|s| 1 + s.rem_euclid(slots - 1)).collect();
        let mut h = build(degree, levels, level, seed);
        let gk = h.keygen.create_galois_keys(&steps);
        let rk = h.keygen.create_relinearization_key();

        let mut scratch = KeySwitchScratch::default();
        let mut other = build(degree, levels, levels, seed ^ 0xD1127);
        let other_rk = other.keygen.create_relinearization_key();
        let product = other.evaluator.multiply(&other.ct, &other.ct).unwrap();
        let decomp = other.evaluator.decompose_for_key_switch(&product.polys()[2], levels);
        other
            .evaluator
            .relinearize_decomposed(&product, &other_rk, &decomp, &mut scratch)
            .unwrap();

        let expected = h.evaluator.rotate_hoisted(&h.ct, &steps, &gk).unwrap();
        let target = &h.ct.polys()[1];
        let mut digits: Vec<RnsPoly> = (0..level)
            .rev()
            .map(|j| h.evaluator.key_switch_digit(target, level, j))
            .collect();
        digits.reverse();
        let decomp = KeySwitchDecomposition::from_digits(digits);
        for (expected, &step) in expected.iter().zip(&steps).rev() {
            let member = h
                .evaluator
                .rotate_decomposed(&h.ct, step, &gk, &decomp, &mut scratch)
                .unwrap();
            prop_assert_eq!(member.polys(), expected.polys());
            prop_assert_eq!(member.scale_log2(), expected.scale_log2());
        }

        let product = h.evaluator.multiply(&h.ct, &h.ct).unwrap();
        let expected = h.evaluator.relinearize(&product, &rk).unwrap();
        let decomp = h.evaluator.decompose_for_key_switch(&product.polys()[2], level);
        let relinearized = h
            .evaluator
            .relinearize_decomposed(&product, &rk, &decomp, &mut scratch)
            .unwrap();
        prop_assert_eq!(relinearized.polys(), expected.polys());
        prop_assert_eq!(relinearized.scale_log2(), expected.scale_log2());
    }
}
