//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! The forward transform maps coefficient vectors into the evaluation domain in
//! which polynomial multiplication is element-wise; the inverse transform maps
//! back. Twiddle factors are powers of a primitive `2N`-th root of unity `ψ`
//! stored in bit-reversed order and promoted to Shoup form, following the
//! Longa–Naehrig formulation also used by SEAL.
//!
//! # Lazy reduction
//!
//! The butterflies are Harvey-style: instead of reducing to canonical `[0, q)`
//! after every addition and multiplication, values travel as *lazy*
//! representatives and a single correction pass runs at the end. The range
//! invariants (safe for every `q < 2^62`, i.e. `4q < 2^64`):
//!
//! * [`NttTables::forward_lazy`] — accepts values in `[0, 4q)`, leaves values
//!   in `[0, 4q)`. Each butterfly conditionally subtracts `2q` from the upper
//!   input (to `[0, 2q)`), computes the Shoup product lazily (to `[0, 2q)`),
//!   and emits `u + v` and `u + 2q - v`, both `< 4q`.
//! * [`NttTables::inverse_lazy`] — accepts values in `[0, 2q)`, leaves values
//!   in `[0, 2q)` (including the final `N^{-1}` scaling, applied lazily).
//! * [`NttTables::forward`] / [`NttTables::inverse`] — canonical wrappers:
//!   same transform followed by the correction pass back to `[0, q)`.
//!
//! Twiddle factors are stored as flat structure-of-arrays (`operand[]` and
//! `quotient[]` side by side) rather than an array of
//! [`ShoupPrecomputed`] structs, so the
//! strided butterfly loops stream two dense `u64` arrays instead of
//! interleaved pairs.

use std::hint::select_unpredictable;

use crate::modulus::{Modulus, ShoupPrecomputed};
use crate::primes::primitive_root_of_unity;

/// Precomputed tables for the negacyclic NTT of a fixed degree and modulus.
///
/// Twiddles are kept in flat SoA arrays: index `i` of the operand array pairs
/// with index `i` of the quotient array.
#[derive(Debug, Clone)]
pub struct NttTables {
    degree: usize,
    modulus: Modulus,
    /// ψ^bitrev(i), i in 0..N.
    root_operands: Vec<u64>,
    /// `floor(ψ^bitrev(i) · 2^64 / q)`.
    root_quotients: Vec<u64>,
    /// ψ^{-bitrev(i)}, i in 0..N.
    inv_root_operands: Vec<u64>,
    /// `floor(ψ^{-bitrev(i)} · 2^64 / q)`.
    inv_root_quotients: Vec<u64>,
    /// N^{-1} mod q in Shoup form (applied to the sum outputs of the fused
    /// final inverse stage).
    inv_degree: ShoupPrecomputed,
    /// `ψ^{-bitrev(1)} · N^{-1} mod q` in Shoup form: the last inverse stage's
    /// single twiddle with the `N^{-1}` scaling folded in, so the inverse
    /// transform needs no separate scaling pass over the array.
    inv_root_last_scaled: ShoupPrecomputed,
}

/// Error returned when NTT tables cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NttError {
    /// Degree must be a power of two and at least 2.
    InvalidDegree(usize),
    /// The modulus does not support a `2N`-th root of unity.
    IncompatibleModulus {
        /// The offending modulus value.
        modulus: u64,
        /// The requested degree.
        degree: usize,
    },
}

impl std::fmt::Display for NttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NttError::InvalidDegree(n) => write!(f, "invalid NTT degree {n}"),
            NttError::IncompatibleModulus { modulus, degree } => write!(
                f,
                "modulus {modulus} does not admit a primitive {}-th root of unity",
                2 * degree
            ),
        }
    }
}

impl std::error::Error for NttError {}

pub(crate) fn bit_reverse(mut value: usize, bits: u32) -> usize {
    let mut result = 0usize;
    for _ in 0..bits {
        result = (result << 1) | (value & 1);
        value >>= 1;
    }
    result
}

impl NttTables {
    /// Builds NTT tables for ring degree `degree` over `modulus`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if the degree is not a power of two or if the
    /// modulus is not congruent to 1 modulo `2 * degree`.
    pub fn new(degree: usize, modulus: Modulus) -> Result<Self, NttError> {
        if degree < 2 || !degree.is_power_of_two() {
            return Err(NttError::InvalidDegree(degree));
        }
        let q = modulus.value();
        if !(q - 1).is_multiple_of(2 * degree as u64) {
            return Err(NttError::IncompatibleModulus { modulus: q, degree });
        }
        let log_n = degree.trailing_zeros();
        let psi = primitive_root_of_unity(&modulus, 2 * degree as u64);
        let psi_inv = modulus
            .inv(psi)
            .expect("primitive root is invertible modulo a prime");

        let mut power = 1u64;
        let mut inv_power = 1u64;
        // powers[bitrev(i)] = psi^i
        let mut plain = vec![0u64; degree];
        let mut plain_inv = vec![0u64; degree];
        for i in 0..degree {
            plain[i] = power;
            plain_inv[i] = inv_power;
            power = modulus.mul(power, psi);
            inv_power = modulus.mul(inv_power, psi_inv);
        }
        let mut root_operands = vec![0u64; degree];
        let mut root_quotients = vec![0u64; degree];
        let mut inv_root_operands = vec![0u64; degree];
        let mut inv_root_quotients = vec![0u64; degree];
        for i in 0..degree {
            let fwd = modulus.shoup(plain[bit_reverse(i, log_n)]);
            root_operands[i] = fwd.operand;
            root_quotients[i] = fwd.quotient;
            let inv = modulus.shoup(plain_inv[bit_reverse(i, log_n)]);
            inv_root_operands[i] = inv.operand;
            inv_root_quotients[i] = inv.quotient;
        }
        let inv_n = modulus
            .inv(degree as u64)
            .expect("degree is invertible modulo an odd prime");
        let inv_degree = modulus.shoup(inv_n);
        // The final inverse stage (m == 2) uses the single twiddle at index 1;
        // pre-scale it by N^{-1} so that stage also performs the scaling.
        let inv_root_last_scaled =
            modulus.shoup(modulus.mul(plain_inv[bit_reverse(1, log_n)], inv_n));
        Ok(Self {
            degree,
            modulus,
            root_operands,
            root_quotients,
            inv_root_operands,
            inv_root_quotients,
            inv_degree,
            inv_root_last_scaled,
        })
    }

    /// The ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The coefficient modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation domain),
    /// producing canonical `[0, q)` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the table degree.
    pub fn forward(&self, values: &mut [u64]) {
        self.forward_lazy(values);
        let q = &self.modulus;
        for value in values.iter_mut() {
            *value = q.reduce_twice(*value);
        }
    }

    /// In-place forward negacyclic NTT with deferred reduction: accepts inputs
    /// in `[0, 4q)` and leaves outputs in `[0, 4q)`.
    ///
    /// The Harvey butterfly keeps every intermediate below `4q < 2^64`; run
    /// [`Modulus::reduce_twice`] over the values (or call
    /// [`NttTables::forward`]) for canonical outputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the table degree.
    pub fn forward_lazy(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "NTT input length mismatch");
        debug_assert!(
            values
                .iter()
                .all(|&v| (v as u128) < 4 * self.modulus.value() as u128),
            "forward_lazy input escapes [0, 4q)"
        );
        let q = self.modulus.value();
        let two_q = q << 1;
        // u in [0, 2q); v = y·w mod q as a [0, 2q) representative.
        let butterfly = |x: &mut u64, y: &mut u64, w: u64, w_quot: u64| {
            let u = select_unpredictable(*x >= two_q, x.wrapping_sub(two_q), *x);
            let hi = ((*y as u128 * w_quot as u128) >> 64) as u64;
            let v = y.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
            *x = u + v;
            *y = u + two_q - v;
        };
        // Stage m pairs block i (of 2t values) with twiddle m + i.
        let twiddles = |m: usize| {
            self.root_operands[m..2 * m]
                .iter()
                .copied()
                .zip(self.root_quotients[m..2 * m].iter().copied())
        };
        let mut m = 1usize;
        let mut t = self.degree >> 1;
        while t >= 4 {
            for (block, (w, w_quot)) in values.chunks_exact_mut(2 * t).zip(twiddles(m)) {
                let (lower, upper) = block.split_at_mut(t);
                for (x, y) in lower.iter_mut().zip(upper) {
                    butterfly(x, y, w, w_quot);
                }
            }
            m <<= 1;
            t >>= 1;
        }
        // The two short stages, unrolled over fixed-size blocks.
        if t == 2 {
            for (block, (w, w_quot)) in values.chunks_exact_mut(4).zip(twiddles(m)) {
                let [x0, x1, y0, y1] = <&mut [u64; 4]>::try_from(block).expect("4-value block");
                butterfly(x0, y0, w, w_quot);
                butterfly(x1, y1, w, w_quot);
            }
            m <<= 1;
        }
        for (block, (w, w_quot)) in values.chunks_exact_mut(2).zip(twiddles(m)) {
            let [x, y] = <&mut [u64; 2]>::try_from(block).expect("2-value block");
            butterfly(x, y, w, w_quot);
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain),
    /// producing canonical `[0, q)` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the table degree.
    pub fn inverse(&self, values: &mut [u64]) {
        self.inverse_lazy(values);
        let q = &self.modulus;
        for value in values.iter_mut() {
            *value = q.reduce_once(*value);
        }
    }

    /// In-place inverse negacyclic NTT with deferred reduction: accepts inputs
    /// in `[0, 2q)` and leaves outputs in `[0, 2q)`. The final `N^{-1}`
    /// scaling is **merged into the last butterfly stage** — its sum output is
    /// multiplied by `N^{-1}` and its difference output by the pre-scaled
    /// twiddle `ψ^{-bitrev(1)}·N^{-1}`, both as lazy Shoup products — so no
    /// separate scaling pass over the array is needed.
    ///
    /// Run [`Modulus::reduce_once`] over the values (or call
    /// [`NttTables::inverse`]) for canonical outputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the table degree.
    pub fn inverse_lazy(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "NTT input length mismatch");
        debug_assert!(
            values
                .iter()
                .all(|&v| (v as u128) < 2 * self.modulus.value() as u128),
            "inverse_lazy input escapes [0, 2q): reduce forward_lazy output first"
        );
        let q = self.modulus.value();
        let two_q = q << 1;
        let n = self.degree;
        let mut t = 1usize;
        let mut m = n;
        while m > 2 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = self.inv_root_operands[h + i];
                let w_quot = self.inv_root_quotients[h + i];
                let (lower, upper) = values[j1..j1 + 2 * t].split_at_mut(t);
                for (x, y) in lower.iter_mut().zip(upper.iter_mut()) {
                    // u, v in [0, 2q); sums stay below 4q < 2^64.
                    let u = *x;
                    let v = *y;
                    let s = u + v;
                    *x = select_unpredictable(s >= two_q, s.wrapping_sub(two_q), s);
                    let d = u + two_q - v;
                    let hi = ((d as u128 * w_quot as u128) >> 64) as u64;
                    *y = d.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        // Fused final stage (m == 2, one twiddle, halves at distance N/2):
        // both butterfly outputs absorb the N^{-1} scaling. The Shoup product
        // accepts the unreduced [0, 4q) sums directly and emits [0, 2q).
        let modulus = &self.modulus;
        let inv_n = &self.inv_degree;
        let w_n = &self.inv_root_last_scaled;
        let (lower, upper) = values.split_at_mut(t);
        for (x, y) in lower.iter_mut().zip(upper.iter_mut()) {
            let u = *x;
            let v = *y;
            *x = modulus.mul_shoup_lazy(u + v, inv_n);
            *y = modulus.mul_shoup_lazy(u + two_q - v, w_n);
        }
    }
}

/// Multiplies two polynomials of `Z_q[X]/(X^N+1)` given in coefficient form,
/// returning the coefficient-form product. Intended for tests and small sizes;
/// the executor works in the evaluation domain instead.
pub fn negacyclic_multiply_naive(a: &[u64], b: &[u64], modulus: &Modulus) -> Vec<u64> {
    let n = a.len();
    assert_eq!(n, b.len());
    let mut out = vec![0u64; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let prod = modulus.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = modulus.add(out[k], prod);
            } else {
                out[k - n] = modulus.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn tables(degree: usize, bits: u32) -> NttTables {
        let q = generate_ntt_primes(degree, &[bits]).unwrap()[0];
        NttTables::new(degree, Modulus::new(q).unwrap()).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        let q = Modulus::new(97).unwrap();
        assert!(matches!(
            NttTables::new(100, q),
            Err(NttError::InvalidDegree(100))
        ));
        // 97 - 1 = 96 is not divisible by 2*64 = 128.
        assert!(matches!(
            NttTables::new(64, q),
            Err(NttError::IncompatibleModulus { .. })
        ));
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let degree = 256;
        let ntt = tables(degree, 50);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let original: Vec<u64> = (0..degree)
            .map(|_| rng.gen_range(0..ntt.modulus().value()))
            .collect();
        let mut values = original.clone();
        ntt.forward(&mut values);
        assert_ne!(values, original, "transform should not be the identity");
        ntt.inverse(&mut values);
        assert_eq!(values, original);
    }

    #[test]
    fn forward_inverse_roundtrip_at_the_smallest_degrees() {
        // Degree 2 runs only the t = 1 stage, 4 the t = 2 and t = 1 stages,
        // 8 one general stage before them.
        for degree in [2, 4, 8] {
            let ntt = tables(degree, 30);
            let q = *ntt.modulus();
            let mut rng = rand::rngs::StdRng::seed_from_u64(degree as u64);
            let a: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q.value())).collect();
            let b: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q.value())).collect();
            let mut values = a.clone();
            ntt.forward(&mut values);
            ntt.inverse(&mut values);
            assert_eq!(values, a, "degree {degree}");

            let (mut fa, mut fb) = (a.clone(), b.clone());
            ntt.forward(&mut fa);
            ntt.forward(&mut fb);
            let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
            ntt.inverse(&mut fc);
            assert_eq!(fc, negacyclic_multiply_naive(&a, &b, &q), "degree {degree}");
        }
    }

    #[test]
    fn forward_lazy_matches_the_one_loop_butterfly_sweep_bit_for_bit() {
        // The stage-by-stage loop the specialized stages replace: every
        // block of every stage through one sliced split.
        fn reference(ntt: &NttTables, values: &mut [u64]) {
            let q = ntt.modulus.value();
            let two_q = q << 1;
            let n = ntt.degree;
            let (mut t, mut m) = (n, 1);
            while m < n {
                t >>= 1;
                for i in 0..m {
                    let (w, w_quot) = (ntt.root_operands[m + i], ntt.root_quotients[m + i]);
                    let (lower, upper) = values[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                    for (x, y) in lower.iter_mut().zip(upper.iter_mut()) {
                        let u = if *x >= two_q { *x - two_q } else { *x };
                        let hi = ((*y as u128 * w_quot as u128) >> 64) as u64;
                        let v = y.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
                        *x = u + v;
                        *y = u + two_q - v;
                    }
                }
                m <<= 1;
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for log_n in 1..=12 {
            let degree = 1usize << log_n;
            let ntt = tables(degree, 60);
            let four_q = 4 * ntt.modulus().value();
            let original: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..four_q)).collect();
            let (mut got, mut expected) = (original.clone(), original);
            ntt.forward_lazy(&mut got);
            reference(&ntt, &mut expected);
            assert_eq!(got, expected, "degree {degree}");
        }
    }

    #[test]
    fn lazy_forward_respects_4q_bound_and_matches_canonical() {
        let degree = 512;
        let ntt = tables(degree, 60);
        let q = ntt.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let original: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q)).collect();

        let mut lazy = original.clone();
        ntt.forward_lazy(&mut lazy);
        assert!(
            lazy.iter().all(|&v| (v as u128) < 4 * q as u128),
            "forward_lazy output escapes [0, 4q)"
        );

        let mut canonical = original.clone();
        ntt.forward(&mut canonical);
        assert!(canonical.iter().all(|&v| v < q));
        let corrected: Vec<u64> = lazy
            .iter()
            .map(|&v| ntt.modulus().reduce_twice(v))
            .collect();
        assert_eq!(corrected, canonical);
    }

    #[test]
    fn lazy_inverse_respects_2q_bound_and_matches_canonical() {
        let degree = 512;
        let ntt = tables(degree, 60);
        let q = ntt.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut eval: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q)).collect();
        ntt.forward(&mut eval);

        let mut lazy = eval.clone();
        ntt.inverse_lazy(&mut lazy);
        assert!(
            lazy.iter().all(|&v| (v as u128) < 2 * q as u128),
            "inverse_lazy output escapes [0, 2q)"
        );

        let mut canonical = eval.clone();
        ntt.inverse(&mut canonical);
        assert!(canonical.iter().all(|&v| v < q));
        let corrected: Vec<u64> = lazy.iter().map(|&v| ntt.modulus().reduce_once(v)).collect();
        assert_eq!(corrected, canonical);
    }

    #[test]
    fn pointwise_product_matches_naive_negacyclic() {
        let degree = 64;
        let ntt = tables(degree, 40);
        let q = *ntt.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..degree).map(|_| rng.gen_range(0..q.value())).collect();
        let expected = negacyclic_multiply_naive(&a, &b, &q);

        let mut fa = a.clone();
        let mut fb = b.clone();
        ntt.forward(&mut fa);
        ntt.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        ntt.inverse(&mut fc);
        assert_eq!(fc, expected);
    }

    #[test]
    fn multiplying_by_x_rotates_negacyclically() {
        let degree = 32;
        let ntt = tables(degree, 30);
        let q = *ntt.modulus();
        // a = X^(N-1), b = X  =>  a*b = X^N = -1.
        let mut a = vec![0u64; degree];
        a[degree - 1] = 1;
        let mut b = vec![0u64; degree];
        b[1] = 1;
        let product = negacyclic_multiply_naive(&a, &b, &q);
        let mut expected = vec![0u64; degree];
        expected[0] = q.value() - 1;
        assert_eq!(product, expected);
    }
}
