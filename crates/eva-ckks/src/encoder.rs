//! CKKS encoding: real vectors ⇄ scaled integer polynomials.
//!
//! Encoding multiplies the slot values by the fixed-point scale, interpolates
//! them through the canonical embedding (inverse special FFT) and rounds to an
//! integer polynomial; decoding is the reverse. When fewer than `N/2` slots
//! are supplied the values are packed sparsely, which is equivalent to
//! encoding the vector replicated `N/2 / slots` times — exactly the input
//! replication the EVA language specifies for undersized vectors (Section 3).
//!
//! # Sparse slots are short transforms
//!
//! With `slots < N/2` values the interpolant is a polynomial in `X^gap`,
//! `gap = N / (2·slots)`: `a(X) = b(X^gap)` for a `b` of `n' = 2·slots`
//! coefficients. Neither end of the encoder pays for the `N`-point transform
//! that the replication suggests; both run the `n'`-point transform on the
//! `N`-point tables (see [`eva_math::ntt`]'s notes on short transforms):
//!
//! * [`CkksEncoder::encode`] lifts only `b`'s `n'` coefficients, runs the
//!   forward transform on the row's first `n'` entries and widens the row in
//!   place: output `k` fills evaluation points `k·gap … k·gap + gap − 1`.
//! * [`CkksEncoder::decode`], and with it every decryption, sums each block
//!   of `gap` consecutive evaluation values and runs the inverse on the `n'`
//!   sums. The tables' `N^{-1}` scaling is the fold's `1/gap` times the
//!   short transform's `1/n'`, so the result is exactly the coefficient at
//!   each multiple of `gap`, the only ones decoding reads.
//!
//! Both are the full-length route bit for bit: the transforms land on the
//! same canonical residues.
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
                row.fill(modulus.reduce_i128(constant));
            }
            return Plaintext {
                poly,
                scale_log2,
                level,
            };
        }
        let mut work: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        self.context.fft().embed_inverse(&mut work);
        // The compressed polynomial b with a(X) = b(X^gap): coefficient
        // i·gap of a is b's i, and N/2 + i·gap is b's slots + i.
        let gap = nh / slots;
        let short = 2 * slots;
        let mut coeffs = vec![0i128; short];
        for (i, v) in work.iter().enumerate() {
            coeffs[i] = round_to_i128(v.re * scale);
            coeffs[slots + i] = round_to_i128(v.im * scale);
        }
        let mut poly = RnsPoly::zero(n, level, PolyForm::Ntt);
        for ((row, modulus), tables) in poly.rows_mut().zip(basis.moduli()).zip(basis.ntt_tables())
        {
            let prefix = &mut row[..short];
            for (dst, &c) in prefix.iter_mut().zip(&coeffs) {
                *dst = modulus.reduce_i128(c);
            }
            tables.forward(prefix);
            // Output k of the short transform is outputs k·gap … k·gap +
            // gap − 1 of the full one; widening from the back never
            // overwrites an output before it is read.
            for k in (0..short).rev() {
                let value = row[k];
                row[k * gap..(k + 1) * gap].fill(value);
            }
        }
        Plaintext {
            poly,
            scale_log2,
            level,
        }
    }

    /// Decodes a plaintext back into `slots` real values.
    ///
    /// Only the `2·slots` coefficients at multiples of the gap are read,
    /// and they come from a fold and a short inverse transform per prime
    /// (see the module docs); the plaintext is neither copied nor
    /// transformed at full length.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two or exceeds the slot count,
    /// or if the plaintext's polynomial is not in NTT form or spans fewer
    /// primes than its level.
    pub fn decode(&self, plaintext: &Plaintext, slots: usize) -> Vec<f64> {
        let nh = self.context.degree() / 2;
        assert!(
            slots.is_power_of_two() && slots <= nh,
            "slot count {slots} must be a power of two at most {nh}"
        );
        let basis = self.context.key_basis();
        let level = plaintext.level;
        assert_eq!(
            plaintext.poly.form(),
            PolyForm::Ntt,
            "plaintexts are in NTT form"
        );
        assert!(
            level <= plaintext.poly.level(),
            "plaintext level {level} exceeds its polynomial's {}",
            plaintext.poly.level()
        );
        let gap = nh / slots;
        let short = 2 * slots;
        // Row j holds coefficients 0, gap, 2·gap, … modulo q_j.
        let mut coeffs = vec![0u64; level * short];
        for (((dst, row), modulus), tables) in coeffs
            .chunks_exact_mut(short)
            .zip(plaintext.poly.rows())
            .zip(basis.moduli())
            .zip(basis.ntt_tables())
        {
            for (sum, block) in dst.iter_mut().zip(row.chunks_exact(gap)) {
                *sum = block.iter().fold(0, |acc, &v| modulus.add(acc, v));
            }
            tables.inverse(dst);
        }
        let scale = plaintext.scale_log2.exp2();
        let composer = self.context.composer(level);
        let mut residue_buf = vec![0u64; level];
        let mut coefficient = |i: usize| {
            for (r, row) in residue_buf.iter_mut().zip(coeffs.chunks_exact(short)) {
                *r = row[i];
            }
            composer.compose_centered_f64(&residue_buf) / scale
        };
        let mut values: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(coefficient(i), coefficient(slots + i)))
            .collect();
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

    /// The full-transform encoder the short transforms replace: an `N`-long
    /// coefficient vector with `2·slots` non-zeros, lifted whole and taken
    /// through the `N`-point forward NTT.
    fn reference_encode(
        encoder: &CkksEncoder,
        values: &[f64],
        scale_log2: f64,
        level: usize,
    ) -> Plaintext {
        let ctx = &encoder.context;
        let (n, nh) = (ctx.degree(), ctx.degree() / 2);
        let scale = scale_log2.exp2();
        let mut work: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        ctx.fft().embed_inverse(&mut work);
        let gap = nh / values.len();
        let mut coeffs = vec![0i128; n];
        for (i, v) in work.iter().enumerate() {
            coeffs[i * gap] = round_to_i128(v.re * scale);
            coeffs[nh + i * gap] = round_to_i128(v.im * scale);
        }
        let mut poly = ctx.key_basis().poly_from_i128(&coeffs, level);
        poly.to_ntt(ctx.key_basis());
        Plaintext {
            poly,
            scale_log2,
            level,
        }
    }

    /// The full-transform decoder: a copy of the plaintext through the
    /// `N`-point inverse NTT, read at the multiples of the gap.
    fn reference_decode(encoder: &CkksEncoder, plaintext: &Plaintext, slots: usize) -> Vec<f64> {
        let ctx = &encoder.context;
        let nh = ctx.degree() / 2;
        let gap = nh / slots;
        let mut poly = plaintext.poly.clone();
        poly.to_coeff(ctx.key_basis());
        let scale = plaintext.scale_log2.exp2();
        let composer = ctx.composer(plaintext.level);
        let coefficient = |idx: usize| {
            let residues: Vec<u64> = (0..plaintext.level).map(|j| poly.residue(j)[idx]).collect();
            composer.compose_centered_f64(&residues) / scale
        };
        let mut values: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(coefficient(i * gap), coefficient(nh + i * gap)))
            .collect();
        ctx.fft().embed(&mut values);
        values.into_iter().map(|v| v.re).collect()
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn short_transforms_reproduce_the_full_transform_route_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let params = CkksParameters::new_insecure(4096, &[60, 40, 40], 60).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let encoder = CkksEncoder::new(ctx.clone());
        let basis = ctx.key_basis();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut slots = 1;
        while slots <= ctx.slot_count() {
            let values: Vec<f64> = (0..slots).map(|_| rng.gen_range(-4.0..4.0)).collect();
            for level in [1, 3] {
                let what = format!("{slots} slots, level {level}");
                let pt = encoder.encode(&values, 38.0, level);
                let want = reference_encode(&encoder, &values, 38.0, level);
                assert_eq!(pt.poly, want.poly, "encode: {what}");
                for read in [slots, ctx.slot_count()] {
                    assert_same_bits(
                        &encoder.decode(&pt, read),
                        &reference_decode(&encoder, &want, read),
                        &format!("decode of an encoding at {read} slots: {what}"),
                    );
                }
                // Decryption leaves a dense polynomial, not a sparse one.
                let mut dense = RnsPoly::zero(ctx.degree(), level, PolyForm::Ntt);
                for (row, modulus) in dense.rows_mut().zip(basis.moduli()) {
                    row.iter_mut()
                        .for_each(|v| *v = rng.gen_range(0..modulus.value()));
                }
                let dense = Plaintext {
                    poly: dense,
                    scale_log2: 38.0,
                    level,
                };
                assert_same_bits(
                    &encoder.decode(&dense, slots),
                    &reference_decode(&encoder, &dense, slots),
                    &format!("decode of a dense polynomial: {what}"),
                );
            }
            slots *= 2;
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn encode_rejects_non_power_of_two() {
        let ctx = context();
        let encoder = CkksEncoder::new(ctx);
        encoder.encode(&[1.0, 2.0, 3.0], 20.0, 1);
    }
}
