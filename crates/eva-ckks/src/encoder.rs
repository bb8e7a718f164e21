//! CKKS encoding: real vectors ⇄ scaled integer polynomials.
//!
//! Encoding multiplies the slot values by the fixed-point scale, interpolates
//! them through the canonical embedding (inverse special FFT) and rounds to an
//! integer polynomial; decoding is the reverse. When fewer than `N/2` slots
//! are supplied the values are packed sparsely, which is equivalent to
//! encoding the vector replicated `N/2 / slots` times — exactly the input
//! replication the EVA language specifies for undersized vectors (Section 3).
//!
//! A vector whose slots all hold one value `c` — every scalar constant of an
//! EVA program, once broadcast — needs none of that. Its interpolant is the
//! constant polynomial `round(c·2^scale)`, and the NTT of a constant
//! polynomial is that constant's residue at every evaluation point, so
//! [`CkksEncoder::encode`] writes the rows directly: no FFT, no wide
//! coefficient vector, no NTT. Nothing is approximated: on equal inputs every
//! butterfly difference of the inverse FFT is an exact zero and every sum an
//! exact doubling, so the general route arrives at this same polynomial bit
//! for bit, only `N log N` operations later. Sparse packing changes nothing
//! because a replicated constant is the same constant.

use eva_math::fft::Complex;
use eva_poly::{PolyForm, RnsPoly};

use crate::context::CkksContext;

/// An encoded (unencrypted) polynomial, carrying its scale and level.
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded polynomial (NTT form, spanning `level` data primes).
    pub poly: RnsPoly,
    /// `log2` of the fixed-point scale the values were multiplied by,
    /// tracked exactly (see [`crate::Ciphertext::scale_log2`]).
    pub scale_log2: f64,
    /// Number of data primes this plaintext spans.
    pub level: usize,
}

/// Encodes and decodes vectors of reals for a fixed [`CkksContext`].
#[derive(Debug, Clone)]
pub struct CkksEncoder {
    context: CkksContext,
}

impl CkksEncoder {
    /// Creates an encoder for the given context.
    pub fn new(context: CkksContext) -> Self {
        Self { context }
    }

    /// The number of slots available at full packing (`N / 2`).
    pub fn slot_count(&self) -> usize {
        self.context.slot_count()
    }

    /// Encodes `values` at the given `log2` scale and level.
    ///
    /// `values.len()` must be a power of two not exceeding the slot count; a
    /// shorter vector is packed sparsely (replicated in slot space). The
    /// plaintext is stamped with exactly `scale_log2`; the linear factor used
    /// in the rounding arithmetic is `2^scale_log2`. A vector of identical
    /// values skips the transforms (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two, exceeds the slot count, or
    /// if `level` is out of range.
    pub fn encode(&self, values: &[f64], scale_log2: f64, level: usize) -> Plaintext {
        let slots = values.len();
        let nh = self.context.degree() / 2;
        assert!(
            slots.is_power_of_two() && slots <= nh,
            "value count {slots} must be a power of two at most {nh}"
        );
        assert!(scale_log2.is_finite(), "scale must be finite");
        assert!(
            level >= 1 && level <= self.context.max_level(),
            "level {level} out of range"
        );
        let scale = scale_log2.exp2();
        let n = self.context.degree();
        let basis = self.context.key_basis();
        if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
            let constant = round_to_i128(values[0] * scale);
            let mut poly = RnsPoly::zero(n, level, PolyForm::Ntt);
            for (row, modulus) in poly.rows_mut().zip(basis.moduli()) {
                row.fill(constant.rem_euclid(i128::from(modulus.value())) as u64);
            }
            return Plaintext {
                poly,
                scale_log2,
                level,
            };
        }
        let mut work: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        self.context.fft().embed_inverse(&mut work);
        let gap = nh / slots;
        let mut coeffs = vec![0i128; n];
        for (i, v) in work.iter().enumerate() {
            coeffs[i * gap] = round_to_i128(v.re * scale);
            coeffs[nh + i * gap] = round_to_i128(v.im * scale);
        }
        let mut poly = basis.poly_from_i128(&coeffs, level);
        poly.to_ntt(basis);
        Plaintext {
            poly,
            scale_log2,
            level,
        }
    }

    /// Decodes a plaintext back into `slots` real values.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two or exceeds the slot count.
    pub fn decode(&self, plaintext: &Plaintext, slots: usize) -> Vec<f64> {
        let nh = self.context.degree() / 2;
        assert!(
            slots.is_power_of_two() && slots <= nh,
            "slot count {slots} must be a power of two at most {nh}"
        );
        let mut poly = plaintext.poly.clone();
        poly.to_coeff(self.context.key_basis());
        self.decode_poly(&poly, plaintext.scale_log2, plaintext.level, slots)
    }

    /// Decodes a coefficient-form polynomial with explicit `log2` scale and
    /// level. Used directly by the decryptor to avoid an extra copy.
    pub(crate) fn decode_poly(
        &self,
        poly: &RnsPoly,
        scale_log2: f64,
        level: usize,
        slots: usize,
    ) -> Vec<f64> {
        assert_eq!(poly.form(), PolyForm::Coeff);
        let scale = scale_log2.exp2();
        let nh = self.context.degree() / 2;
        let gap = nh / slots;
        let composer = self.context.composer(level);
        let mut residue_buf = vec![0u64; level];
        let mut values: Vec<Complex> = Vec::with_capacity(slots);
        for i in 0..slots {
            let re_idx = i * gap;
            let im_idx = nh + i * gap;
            for j in 0..level {
                residue_buf[j] = poly.residue(j)[re_idx];
            }
            let re = composer.compose_centered_f64(&residue_buf) / scale;
            for j in 0..level {
                residue_buf[j] = poly.residue(j)[im_idx];
            }
            let im = composer.compose_centered_f64(&residue_buf) / scale;
            values.push(Complex::new(re, im));
        }
        self.context.fft().embed(&mut values);
        values.into_iter().map(|v| v.re).collect()
    }
}

fn round_to_i128(value: f64) -> i128 {
    assert!(
        value.is_finite() && value.abs() < 1.7e38,
        "encoded coefficient {value} overflows the supported range; \
         check input scales"
    );
    value.round() as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParameters;

    fn context() -> CkksContext {
        let params = CkksParameters::new_insecure(128, &[40, 40, 40], 45).unwrap();
        CkksContext::new(params).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip_full_slots() {
        let ctx = context();
        let encoder = CkksEncoder::new(ctx.clone());
        let values: Vec<f64> = (0..64).map(|i| (i as f64 - 32.0) / 7.0).collect();
        let scale = 30.0;
        let pt = encoder.encode(&values, scale, 3);
        let decoded = encoder.decode(&pt, 64);
        for (a, b) in decoded.iter().zip(&values) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_encoding_replicates_vector() {
        let ctx = context();
        let encoder = CkksEncoder::new(ctx);
        let values = vec![1.5, -2.25, 3.0, 0.125];
        let pt = encoder.encode(&values, 30.0, 2);
        // Decoding at full width must show the 4-vector replicated 16 times.
        let full = encoder.decode(&pt, 64);
        for (i, v) in full.iter().enumerate() {
            assert!((v - values[i % 4]).abs() < 1e-6, "slot {i}: {v}");
        }
    }

    #[test]
    fn decoding_at_lower_level_still_works() {
        let ctx = context();
        let encoder = CkksEncoder::new(ctx);
        let values = vec![0.5; 64];
        let pt = encoder.encode(&values, 25.0, 1);
        let decoded = encoder.decode(&pt, 64);
        assert!(decoded.iter().all(|v| (v - 0.5).abs() < 1e-5));
    }

    #[test]
    fn encoding_error_scales_inversely_with_scale() {
        let ctx = context();
        let encoder = CkksEncoder::new(ctx);
        let values: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let coarse = encoder.decode(&encoder.encode(&values, 12.0, 2), 64);
        let fine = encoder.decode(&encoder.encode(&values, 40.0, 2), 64);
        let err = |out: &[f64]| {
            out.iter()
                .zip(&values)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(err(&fine) < err(&coarse));
        assert!(err(&fine) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn encode_rejects_non_power_of_two() {
        let ctx = context();
        let encoder = CkksEncoder::new(ctx);
        encoder.encode(&[1.0, 2.0, 3.0], 20.0, 1);
    }
}
