//! Random samplers used by RLWE key generation and encryption.
//!
//! * [`sample_uniform_poly`] — coefficients uniform in `[0, q)` (the uniform
//!   "a" component of RLWE samples).
//! * [`sample_ternary`] — uniform ternary secrets in `{-1, 0, 1}`.
//! * [`sample_cbd`] — small errors from a centered binomial distribution with
//!   standard deviation ≈ 3.2, the value mandated by the homomorphic
//!   encryption security standard and used by SEAL.

use crate::modulus::Modulus;
use rand::Rng;

/// Samples a polynomial with coefficients uniform in `[0, q)`.
pub fn sample_uniform_poly<R: Rng + ?Sized>(
    rng: &mut R,
    degree: usize,
    modulus: &Modulus,
) -> Vec<u64> {
    let mut out = vec![0u64; degree];
    sample_uniform_into(rng, &mut out, modulus);
    out
}

/// Fills an existing slice with coefficients uniform in `[0, q)`.
///
/// Allocation-free variant of [`sample_uniform_poly`] for callers that sample
/// directly into a residue row of a preallocated polynomial.
pub fn sample_uniform_into<R: Rng + ?Sized>(rng: &mut R, out: &mut [u64], modulus: &Modulus) {
    for v in out.iter_mut() {
        *v = rng.gen_range(0..modulus.value());
    }
}

/// Samples a uniformly random ternary polynomial with entries in `{-1, 0, 1}`.
pub fn sample_ternary<R: Rng + ?Sized>(rng: &mut R, degree: usize) -> Vec<i8> {
    (0..degree).map(|_| rng.gen_range(-1i8..=1)).collect()
}

/// Number of coin pairs used by the centered binomial sampler; 21 pairs give a
/// variance of 10.5, i.e. a standard deviation of ≈ 3.24, matching the
/// error distribution SEAL targets (σ = 3.2).
pub const CBD_PAIRS: u32 = 21;

/// Samples a small error polynomial from a centered binomial distribution.
///
/// Each coefficient is the difference of two binomial(21, 1/2) samples, giving
/// mean 0 and standard deviation ≈ 3.24.
pub fn sample_cbd<R: Rng + ?Sized>(rng: &mut R, degree: usize) -> Vec<i8> {
    (0..degree)
        .map(|_| {
            let mut acc = 0i16;
            // Draw 2*CBD_PAIRS bits from a single u64 per coefficient.
            let bits: u64 = rng.gen();
            for pair in 0..CBD_PAIRS {
                let b0 = (bits >> (2 * pair)) & 1;
                let b1 = (bits >> (2 * pair + 1)) & 1;
                acc += b0 as i16 - b1 as i16;
            }
            acc as i8
        })
        .collect()
}

/// Converts a signed small polynomial into residues modulo `q`.
pub fn signed_to_residues(values: &[i8], modulus: &Modulus) -> Vec<u64> {
    values
        .iter()
        .map(|&v| {
            if v >= 0 {
                v as u64 % modulus.value()
            } else {
                modulus.value() - ((-v) as u64 % modulus.value())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_poly_in_range() {
        let q = Modulus::new(65537).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let poly = sample_uniform_poly(&mut rng, 1024, &q);
        assert_eq!(poly.len(), 1024);
        assert!(poly.iter().all(|&c| c < 65537));
        // Not all equal (overwhelmingly likely for a working sampler).
        assert!(poly.iter().any(|&c| c != poly[0]));
    }

    #[test]
    fn ternary_values_and_balance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let poly = sample_ternary(&mut rng, 10_000);
        assert!(poly.iter().all(|&v| (-1..=1).contains(&v)));
        let mean: f64 = poly.iter().map(|&v| v as f64).sum::<f64>() / poly.len() as f64;
        assert!(mean.abs() < 0.05, "ternary sampler is badly biased: {mean}");
    }

    #[test]
    fn cbd_standard_deviation_close_to_target() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let poly = sample_cbd(&mut rng, 50_000);
        let mean: f64 = poly.iter().map(|&v| v as f64).sum::<f64>() / poly.len() as f64;
        let var: f64 =
            poly.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / poly.len() as f64;
        assert!(mean.abs() < 0.1);
        assert!((var.sqrt() - 3.24).abs() < 0.2, "sigma = {}", var.sqrt());
    }

    #[test]
    fn signed_residue_conversion() {
        let q = Modulus::new(97).unwrap();
        let values = [-3i8, -1, 0, 1, 5];
        let residues = signed_to_residues(&values, &q);
        assert_eq!(residues, vec![94, 96, 0, 1, 5]);
    }
}
