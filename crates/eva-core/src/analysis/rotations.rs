//! Rotation-key selection (paper Section 6.2): collect the set of distinct
//! rotation step counts used by the program, because each step count needs a
//! Galois key (steps that share a Galois element share one key), and the
//! level at which each evaluation key is used ([`key_levels`]).
//!
//! # Canonicalization contract
//!
//! EVA programs rotate *logical* vectors of `vec_size` elements. The sparse
//! CKKS packing replicates the logical vector periodically across the `nh`
//! ciphertext slots (`gap = nh / vec_size`), so a ciphertext rotation by `k`
//! slots realizes a logical rotation by `k mod vec_size`. Two consequences,
//! which the rotation-set minimization pass and Galois-key derivation both
//! rely on and must never disagree about:
//!
//! 1. **Left-rotation normal form.** For any step `s`,
//!    `RotateRight(s) ≡ RotateLeft((vec_size − s).rem_euclid(vec_size))`
//!    *value-preserving* on every decoded vector. [`canonical_left_step`] is
//!    the single implementation of this mapping.
//! 2. **Automorphism identity.** On the slot count `nh`, the Galois element
//!    of a signed step is `5^(step mod nh) mod 2N`, so
//!    `galois_elt(−s) = galois_elt(nh − s)` **exactly** — a right rotation
//!    and its canonical left form use the *same* automorphism whenever
//!    `vec_size` equals the slot count, and congruent automorphisms (equal
//!    ciphertext bits) otherwise. The cross-crate test
//!    `galois_element_of_negative_step_matches_canonical_left_form` in
//!    `eva-ckks` pins this against the real key derivation.
//!
//! [`select_rotation_steps`] itself reports steps *signed*, exactly as the
//! instructions spell them (`RotateRight(s)` as `−s`): key derivation
//! understands signed steps, and preserving the spelling keeps the step list
//! bit-stable for programs the optimizer has not touched.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::scale::remaining_levels;
use crate::compiler::CompiledProgram;
use crate::error::EvaError;
use crate::program::Program;
use crate::types::Opcode;

/// Maps a signed rotation step (positive = left, negative = right) to its
/// canonical left step in `[0, vec_size)`.
///
/// This is the normal form the rotation-set minimization pass rewrites every
/// rotation into; Galois-key derivation resolves the same congruence class,
/// so canonicalizing can only shrink (never change) the set of keys needed.
///
/// # Panics
///
/// Panics if `vec_size` is not a power of two (the [`Program`] constructor
/// enforces the same requirement).
pub fn canonical_left_step(step: i64, vec_size: usize) -> i64 {
    assert!(
        vec_size >= 1 && vec_size.is_power_of_two(),
        "vector size {vec_size} must be a power of two"
    );
    step.rem_euclid(vec_size as i64)
}

/// Returns the sorted set of signed rotation steps used by the program.
/// Positive values are left rotations, negative values right rotations, and
/// zero-step rotations are omitted (they are the identity and need no key).
pub fn select_rotation_steps(program: &Program) -> Vec<i64> {
    let steps: BTreeSet<i64> = (0..program.len())
        .filter_map(|id| program.opcode(id)?.rotation_step())
        .filter(|&step| step != 0)
        .collect();
    steps.into_iter().collect()
}

/// The evaluation keys a compiled program needs, each at the highest level
/// — number of remaining data primes — at which the program switches with
/// it. A key at level `ℓ` holds `ℓ` digits over the rows `q_0 … q_{ℓ−1}, P`,
/// which is all a key switch at level `ℓ` or below reads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeyLevels {
    /// The relinearization key's level, if the program relinearizes.
    pub relin: Option<usize>,
    /// One `(step, level)` pair per Galois element, in the order key
    /// generation draws the keys: by the first of the program's sorted
    /// rotation steps that rotates by that element.
    pub galois: Vec<(i64, usize)>,
}

impl KeyLevels {
    /// Residue rows of `N` words the keys hold: `ℓ · 2 · (ℓ + 1)` for a key
    /// at level `ℓ` (`ℓ` digits, two polynomials each, over `ℓ` data primes
    /// and the special prime).
    pub fn rows(&self) -> usize {
        self.relin
            .iter()
            .chain(self.galois.iter().map(|(_, level)| level))
            .map(|&level| level * 2 * (level + 1))
            .sum()
    }
}

/// The level each evaluation key of `compiled` is used at: the
/// relinearization key's, and one per Galois element of its rotation steps,
/// each the highest `remaining_levels` of an operand it switches. Steps share
/// an element exactly when they are congruent modulo the slot count `N/2`
/// (the element of a step is `5^step mod 2N`, and 5 has order `N/2` there),
/// so their uses merge; the class of step 0 is the identity and needs no
/// key. The steps are the program's own
/// ([`select_rotation_steps`]), which the verifier requires
/// [`CompiledProgram::rotation_steps`] to equal.
///
/// # Errors
///
/// Returns [`EvaError`] if level analysis fails (impossible for programs
/// `compile()` has verified).
pub fn key_levels(compiled: &CompiledProgram) -> Result<KeyLevels, EvaError> {
    let program = &compiled.program;
    let top = compiled.parameters.data_primes.len();
    let slots = (compiled.parameters.degree / 2).max(1) as i64;
    let levels = remaining_levels(program, top)?;
    let mut relin = None;
    let mut used: BTreeMap<i64, usize> = BTreeMap::new();
    for id in 0..program.len() {
        let Some(op) = program.opcode(id) else {
            continue;
        };
        let level = program
            .args(id)
            .iter()
            .map(|&a| levels[a])
            .max()
            .unwrap_or(top);
        if op == Opcode::Relinearize {
            relin = relin.max(Some(level));
        } else if let Some(step) = op.rotation_step().filter(|&s| s.rem_euclid(slots) != 0) {
            let highest = used.entry(step).or_insert(0);
            *highest = (*highest).max(level);
        }
    }
    // Sorted steps: each element is listed at the first step of its class.
    let mut galois: Vec<(i64, usize)> = Vec::new();
    for (step, level) in used {
        let class = step.rem_euclid(slots);
        match galois
            .iter_mut()
            .find(|(s, _)| s.rem_euclid(slots) == class)
        {
            Some((_, highest)) => *highest = (*highest).max(level),
            None => galois.push((step, level)),
        }
    }
    Ok(KeyLevels { relin, galois })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::types::Opcode;

    #[test]
    fn collects_unique_signed_steps() {
        let mut p = Program::new("rot", 16);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(3), &[x]);
        let b = p.instruction(Opcode::RotateRight(2), &[a]);
        let c = p.instruction(Opcode::RotateLeft(3), &[b]);
        let d = p.instruction(Opcode::RotateLeft(0), &[c]);
        p.output("out", d, 30);
        assert_eq!(select_rotation_steps(&p), vec![-2, 3]);
    }

    #[test]
    fn empty_for_programs_without_rotations() {
        let mut p = Program::new("none", 16);
        let x = p.input_cipher("x", 30);
        let y = p.instruction(Opcode::Add, &[x, x]);
        p.output("out", y, 30);
        assert!(select_rotation_steps(&p).is_empty());
    }

    /// Reference semantics of a logical left rotation by a signed step.
    fn rotate_ref(v: &[f64], step: i64) -> Vec<f64> {
        let n = v.len() as i64;
        (0..v.len())
            .map(|i| v[(i as i64 + step).rem_euclid(n) as usize])
            .collect()
    }

    #[test]
    fn canonical_left_step_lands_in_range_and_preserves_values() {
        let vec_size = 16usize;
        let v: Vec<f64> = (0..vec_size).map(|i| i as f64).collect();
        for s in -40i64..=40 {
            let c = canonical_left_step(s, vec_size);
            assert!((0..vec_size as i64).contains(&c), "step {s} -> {c}");
            assert_eq!(
                rotate_ref(&v, s),
                rotate_ref(&v, c),
                "RotateLeft({s}) must decode identically to RotateLeft({c})"
            );
        }
    }

    #[test]
    fn right_rotation_maps_to_size_minus_s() {
        // The contract as stated: RotateRight(s) ≡ RotateLeft(vec_size − s)
        // for 0 < s < vec_size.
        for s in 1i64..16 {
            assert_eq!(canonical_left_step(-s, 16), 16 - s);
        }
        assert_eq!(canonical_left_step(0, 16), 0);
        assert_eq!(canonical_left_step(16, 16), 0);
        assert_eq!(canonical_left_step(-16, 16), 0);
        assert_eq!(canonical_left_step(35, 16), 3);
    }

    #[test]
    fn canonicalization_is_idempotent() {
        for s in -64i64..=64 {
            let once = canonical_left_step(s, 32);
            assert_eq!(canonical_left_step(once, 32), once);
        }
    }
}
