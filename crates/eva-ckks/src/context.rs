//! The CKKS context: shared precomputed state derived from encryption
//! parameters (prime chain, NTT tables, embedding tables, CRT composers).

use std::sync::Arc;

use eva_math::fft::SpecialFft;
use eva_math::galois::GaloisTool;
use eva_poly::crt::CrtComposer;
use eva_poly::RnsBasis;

use crate::params::{CkksParameters, ParameterError};

/// Shared, immutable precomputed state for one set of [`CkksParameters`].
///
/// The context owns a single [`RnsBasis`] over the *key modulus* — the data
/// primes followed by the special key-switching prime — so ciphertexts (which
/// span a prefix of the data primes) and keys (which span the whole chain) use
/// the same NTT tables. It is cheap to clone (`Arc` internally) and is `Send +
/// Sync`, which the parallel executor relies on.
#[derive(Debug, Clone)]
pub struct CkksContext {
    inner: Arc<ContextInner>,
}

#[derive(Debug)]
struct ContextInner {
    params: CkksParameters,
    key_basis: RnsBasis,
    fft: SpecialFft,
    galois: GaloisTool,
    /// `composers[k-1]` composes residues over the first `k` data primes.
    composers: Vec<CrtComposer>,
    /// `log2` of each data prime, cached once so every rescale subtracts the
    /// exact same `f64` the compiler's exact-scale analysis used.
    data_prime_log2s: Vec<f64>,
}

impl CkksContext {
    /// Builds a context from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ParameterError::ChainTooLong`] if a key switch's unreduced
    /// 128-bit digit × key sum could overflow, and
    /// [`ParameterError::PrimeGeneration`] if the underlying basis cannot be
    /// constructed (which indicates an internal inconsistency, since the
    /// parameters were already validated).
    pub fn new(params: CkksParameters) -> Result<Self, ParameterError> {
        let mut chain: Vec<u64> = params.data_primes().to_vec();
        chain.push(params.special_prime());
        // `Evaluator::apply_key_switch` sums one product of two canonical
        // residues per digit before reducing: exact iff `l · q_max² < 2^128`
        // (about 128 sixty-bit primes — far past any chain the security
        // table admits, but nothing else rules it out for insecure ones).
        let q_max = u128::from(*chain.iter().max().expect("chain holds the special prime"));
        let levels = params.level_count();
        if (levels as u128).checked_mul(q_max * q_max).is_none() {
            return Err(ParameterError::ChainTooLong { levels });
        }
        let key_basis = RnsBasis::new(params.degree(), &chain)
            .map_err(|e| ParameterError::PrimeGeneration(e.to_string()))?;
        let fft = SpecialFft::new(params.degree());
        let galois = GaloisTool::new(params.degree());
        let composers = (1..=params.level_count())
            .map(|k| CrtComposer::new(&key_basis.moduli()[..k]))
            .collect();
        let data_prime_log2s = params
            .data_primes()
            .iter()
            .map(|&q| (q as f64).log2())
            .collect();
        Ok(Self {
            inner: Arc::new(ContextInner {
                params,
                key_basis,
                fft,
                galois,
                composers,
                data_prime_log2s,
            }),
        })
    }

    /// The encryption parameters this context was built from.
    pub fn params(&self) -> &CkksParameters {
        &self.inner.params
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.inner.params.degree()
    }

    /// Slot count `N / 2`.
    pub fn slot_count(&self) -> usize {
        self.inner.params.slot_count()
    }

    /// Number of data primes (the maximum ciphertext level).
    pub fn max_level(&self) -> usize {
        self.inner.params.level_count()
    }

    /// The shared basis over data primes followed by the special prime.
    pub fn key_basis(&self) -> &RnsBasis {
        &self.inner.key_basis
    }

    /// Index of the special prime inside the key basis.
    pub fn special_index(&self) -> usize {
        self.inner.params.level_count()
    }

    /// The canonical-embedding FFT tables.
    pub fn fft(&self) -> &SpecialFft {
        &self.inner.fft
    }

    /// Galois element bookkeeping.
    pub fn galois(&self) -> &GaloisTool {
        &self.inner.galois
    }

    /// The CRT composer for ciphertexts spanning `level` data primes.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the number of data primes.
    pub fn composer(&self, level: usize) -> &CrtComposer {
        &self.inner.composers[level - 1]
    }

    /// Cached `log2` of data prime `i` (the exact `f64` a rescale at level
    /// `i + 1` subtracts from the scale).
    pub fn data_prime_log2(&self, i: usize) -> f64 {
        self.inner.data_prime_log2s[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_exposes_consistent_shapes() {
        let params = CkksParameters::new_insecure(64, &[30, 30, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        assert_eq!(ctx.degree(), 64);
        assert_eq!(ctx.slot_count(), 32);
        assert_eq!(ctx.max_level(), 3);
        assert_eq!(ctx.special_index(), 3);
        assert_eq!(ctx.key_basis().len(), 4);
        assert_eq!(ctx.composer(1).len(), 1);
        assert_eq!(ctx.composer(3).len(), 3);
    }

    #[test]
    fn chains_whose_key_switch_sum_could_overflow_are_refused() {
        // 60-bit primes: q² ≈ 2^120, so a few hundred digits overflow 128
        // bits; the chain is refused before any table or key is built.
        let long = CkksParameters::new_insecure(8, &[60; 300], 60).unwrap();
        assert_eq!(
            CkksContext::new(long).unwrap_err(),
            ParameterError::ChainTooLong { levels: 300 }
        );
    }

    #[test]
    fn context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CkksContext>();
    }
}
