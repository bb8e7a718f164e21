//! The ciphertext types: fully materialized [`Ciphertext`]s and the
//! half-size [`SeededCiphertext`] transport form.

use eva_poly::{PolyForm, RnsPoly};
use rand::rngs::ChaCha20Rng;

use crate::context::CkksContext;
use crate::error::CkksError;

/// An RNS-CKKS ciphertext: two (or, right after a multiplication, three)
/// polynomials in NTT form spanning `level` data primes, plus the fixed-point
/// scale of the encrypted message.
///
/// The scale is carried in the `log2` domain as an `f64` and is tracked
/// *exactly*: every evaluator operation updates it with the same `f64`
/// arithmetic the compiler's exact-scale analysis performs, so a compiled
/// program's per-node scale annotations are bit-identical to the values
/// observed here.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) polys: Vec<RnsPoly>,
    pub(crate) scale_log2: f64,
    pub(crate) level: usize,
}

impl Ciphertext {
    /// Creates a ciphertext from raw parts. Exposed for the executor crates;
    /// most users obtain ciphertexts from the encryptor or evaluator.
    pub fn from_parts(polys: Vec<RnsPoly>, scale_log2: f64, level: usize) -> Self {
        assert!(
            !polys.is_empty(),
            "a ciphertext needs at least one polynomial"
        );
        assert!(polys.iter().all(|p| p.level() == level));
        Self {
            polys,
            scale_log2,
            level,
        }
    }

    /// Number of polynomials (2 normally, 3 right after a multiplication).
    pub fn size(&self) -> usize {
        self.polys.len()
    }

    /// `log2` of the fixed-point scale of the encrypted message, tracked
    /// exactly (non-integral once a rescale has divided by a real prime).
    pub fn scale_log2(&self) -> f64 {
        self.scale_log2
    }

    /// The fixed-point scale as a linear factor (`2^scale_log2`). Only for
    /// display and encoding math; comparisons must use [`Self::scale_log2`].
    pub fn scale(&self) -> f64 {
        self.scale_log2.exp2()
    }

    /// Number of data primes this ciphertext currently spans (its level).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The component polynomials.
    pub fn polys(&self) -> &[RnsPoly] {
        &self.polys
    }

    /// Approximate heap memory held by this ciphertext, in bytes. Used by the
    /// executor's memory-reuse accounting.
    pub fn memory_bytes(&self) -> usize {
        self.polys
            .iter()
            .map(|p| p.level() * p.degree() * std::mem::size_of::<u64>())
            .sum()
    }
}

/// A fresh ciphertext in seeded transport form: the uniformly random `a`
/// polynomial is represented by the 32-byte ChaCha20 key it was expanded
/// from, so only the `b` polynomial travels in full — roughly **half** the
/// wire bytes of a two-polynomial [`Ciphertext`].
///
/// Only the *encryptor* can produce this form (the `a` component of a
/// computed ciphertext is no longer uniform), which is why it is emitted by
/// [`SymmetricEncryptor::encrypt_seeded`](crate::SymmetricEncryptor::encrypt_seeded)
/// and consumed by [`SeededCiphertext::expand`] on the receiving side.
/// Expansion is deterministic: the same seed over the same parameters always
/// reproduces the same `a`, bit for bit, so a seeded ciphertext and its
/// expansion are interchangeable.
#[derive(Debug, Clone)]
pub struct SeededCiphertext {
    pub(crate) seed: [u8; 32],
    pub(crate) b: RnsPoly,
    pub(crate) scale_log2: f64,
    pub(crate) level: usize,
}

impl SeededCiphertext {
    /// Reassembles a seeded ciphertext from raw parts (wire codec
    /// constructor). `b` is the `c0` polynomial; `seed` keys the ChaCha20
    /// expansion of the `c1 = a` polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `b`'s level disagrees with `level`.
    pub fn from_parts(seed: [u8; 32], b: RnsPoly, scale_log2: f64, level: usize) -> Self {
        assert_eq!(b.level(), level, "seeded ciphertext level mismatch");
        Self {
            seed,
            b,
            scale_log2,
            level,
        }
    }

    /// The 32-byte ChaCha20 key the `a` polynomial expands from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The `b = c0` polynomial (the only one shipped in full).
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// `log2` of the fixed-point scale (exact; see [`Ciphertext::scale_log2`]).
    pub fn scale_log2(&self) -> f64 {
        self.scale_log2
    }

    /// Number of data primes this ciphertext spans.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Expands the seed back into the full two-polynomial [`Ciphertext`],
    /// bit-identical to the unseeded encryption this transport form was
    /// derived from.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] if `b` is not an element of
    /// `context`'s ring ([`CkksContext::check_ring_elements`]), so hostile
    /// wire data cannot push the expansion out of its domain. The expanded
    /// `a` is one by construction.
    pub fn expand(&self, context: &CkksContext) -> Result<Ciphertext, CkksError> {
        context.check_ring_elements([&self.b], self.level, false)?;
        let a = expand_seeded_a(context, &self.seed, self.level);
        Ok(Ciphertext::from_parts(
            vec![self.b.clone(), a],
            self.scale_log2,
            self.level,
        ))
    }
}

/// Expands a 32-byte seed into the uniformly random `a` polynomial over the
/// first `level` primes of the context's key basis, directly in NTT form
/// (the uniform distribution is invariant under the NTT, so sampling in
/// evaluation form is sound — the same trick SEAL uses for seeded objects).
///
/// The expansion RNG is a ChaCha20 keystream keyed by `seed` alone: it is
/// completely determined by `(seed, parameters)`, independent of who runs
/// it, which is what makes the seeded transport form exact.
pub(crate) fn expand_seeded_a(context: &CkksContext, seed: &[u8; 32], level: usize) -> RnsPoly {
    let basis = context.key_basis();
    let mut rng = ChaCha20Rng::from_key_bytes(*seed);
    let mut a = RnsPoly::zero(basis.degree(), level, PolyForm::Ntt);
    for (row, modulus) in a.rows_mut().zip(basis.moduli()) {
        eva_math::sample_uniform_into(&mut rng, row, modulus);
    }
    a
}
