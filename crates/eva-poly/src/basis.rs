//! The RNS prime basis: an ordered chain of NTT-friendly primes.

use eva_math::modulus::{Modulus, ShoupPrecomputed};
use eva_math::ntt::NttTables;

use crate::poly::{PolyForm, RnsPoly};

/// An ordered chain of primes `q_0, …, q_{k-1}` together with the NTT tables
/// for each, over a fixed ring degree `N`.
///
/// The basis is immutable after construction; polynomials refer to a *prefix*
/// of the chain (their "level"), which shrinks as RESCALE and MODSWITCH drop
/// primes from the back, exactly as in the paper's Section 2.2.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    degree: usize,
    moduli: Vec<Modulus>,
    ntt: Vec<NttTables>,
    /// `drop_constants[j][i]`, `i < j`: see [`RnsBasis::drop_constants`].
    drop_constants: Vec<Vec<DropConstants>>,
}

/// What dividing by a chain prime `q_j` needs modulo an earlier prime `q_i`.
#[derive(Debug, Clone, Copy)]
pub struct DropConstants {
    /// `q_j⁻¹ mod q_i`, Shoup-precomputed.
    pub inverse: ShoupPrecomputed,
    /// `q_j mod q_i`.
    pub residue: u64,
}

/// Errors arising while constructing an [`RnsBasis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BasisError {
    /// Degree must be a power of two and at least 4.
    InvalidDegree(usize),
    /// The prime chain must contain at least one prime.
    EmptyChain,
    /// A chain entry is invalid (not prime, too large, or not ≡ 1 mod 2N).
    InvalidPrime(u64),
    /// The same prime appears twice in the chain.
    DuplicatePrime(u64),
}

impl std::fmt::Display for BasisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BasisError::InvalidDegree(n) => write!(f, "invalid ring degree {n}"),
            BasisError::EmptyChain => write!(f, "prime chain must not be empty"),
            BasisError::InvalidPrime(q) => write!(f, "invalid RNS prime {q}"),
            BasisError::DuplicatePrime(q) => write!(f, "duplicate RNS prime {q}"),
        }
    }
}

impl std::error::Error for BasisError {}

impl RnsBasis {
    /// Builds a basis from a ring degree and prime values.
    ///
    /// # Errors
    ///
    /// Returns [`BasisError`] if the degree is not a supported power of two, a
    /// prime is unsuitable for the negacyclic NTT of that degree, or the chain
    /// contains duplicates.
    pub fn new(degree: usize, primes: &[u64]) -> Result<Self, BasisError> {
        if degree < 4 || !degree.is_power_of_two() {
            return Err(BasisError::InvalidDegree(degree));
        }
        if primes.is_empty() {
            return Err(BasisError::EmptyChain);
        }
        let mut moduli = Vec::with_capacity(primes.len());
        let mut ntt = Vec::with_capacity(primes.len());
        for (i, &q) in primes.iter().enumerate() {
            if primes[..i].contains(&q) {
                return Err(BasisError::DuplicatePrime(q));
            }
            if !eva_math::primes::is_prime(q) {
                return Err(BasisError::InvalidPrime(q));
            }
            let modulus = Modulus::new(q).map_err(|_| BasisError::InvalidPrime(q))?;
            let tables =
                NttTables::new(degree, modulus).map_err(|_| BasisError::InvalidPrime(q))?;
            moduli.push(modulus);
            ntt.push(tables);
        }
        let drop_constants = (0..moduli.len())
            .map(|j| {
                moduli[..j]
                    .iter()
                    .map(|q_i| {
                        let residue = q_i.reduce(moduli[j].value());
                        let inverse = q_i
                            .inv(residue)
                            .expect("chain primes are distinct, so each is invertible mod another");
                        DropConstants {
                            inverse: q_i.shoup(inverse),
                            residue,
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            degree,
            moduli,
            ntt,
            drop_constants,
        })
    }

    /// The ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of primes in the full chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the chain is empty (never true for a constructed basis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The prime moduli, in chain order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The NTT tables, in chain order.
    #[inline]
    pub fn ntt_tables(&self) -> &[NttTables] {
        &self.ntt
    }

    /// The constants for flooring chain prime `dropped` off a polynomial:
    /// entry `i < dropped` holds `q_dropped⁻¹` and `q_dropped` modulo `q_i`.
    /// RESCALE drops the last prime of a ciphertext's chain and the key-switch
    /// mod-down drops the special prime, so both read this one table instead
    /// of recomputing a modular inverse per prime per call.
    #[inline]
    pub fn drop_constants(&self, dropped: usize) -> &[DropConstants] {
        &self.drop_constants[dropped]
    }

    /// Total bit length of the product of the first `level` primes.
    pub fn product_bits(&self, level: usize) -> f64 {
        self.moduli[..level]
            .iter()
            .map(|m| (m.value() as f64).log2())
            .sum()
    }

    /// A zero polynomial spanning the first `level` primes, in the given form.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the chain length.
    pub fn zero_poly(&self, level: usize, form: PolyForm) -> RnsPoly {
        assert!(level >= 1 && level <= self.len(), "invalid level {level}");
        RnsPoly::zero(self.degree, level, form)
    }

    /// Lifts signed coefficients into an RNS polynomial spanning `level` primes
    /// (coefficient form).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree.
    pub fn poly_from_signed(&self, coeffs: &[i64], level: usize) -> RnsPoly {
        assert_eq!(coeffs.len(), self.degree);
        let wide: Vec<i128> = coeffs.iter().map(|&c| c as i128).collect();
        self.poly_from_i128(&wide, level)
    }

    /// Lifts wide signed coefficients into an RNS polynomial spanning `level`
    /// primes (coefficient form). Used by the CKKS encoder, whose scaled
    /// coefficients can exceed 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree or `level` is out
    /// of range.
    pub fn poly_from_i128(&self, coeffs: &[i128], level: usize) -> RnsPoly {
        assert_eq!(coeffs.len(), self.degree);
        assert!(level >= 1 && level <= self.len(), "invalid level {level}");
        let mut poly = RnsPoly::zero(self.degree, level, PolyForm::Coeff);
        for (modulus, row) in self.moduli[..level].iter().zip(poly.rows_mut()) {
            for (dst, &c) in row.iter_mut().zip(coeffs) {
                *dst = modulus.reduce_i128(c);
            }
        }
        poly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_math::generate_ntt_primes;

    fn basis(degree: usize, bits: &[u32]) -> RnsBasis {
        let primes = generate_ntt_primes(degree, bits).unwrap();
        RnsBasis::new(degree, &primes).unwrap()
    }

    #[test]
    fn construction_validates_input() {
        assert!(matches!(
            RnsBasis::new(100, &[97]),
            Err(BasisError::InvalidDegree(100))
        ));
        assert!(matches!(
            RnsBasis::new(16, &[]),
            Err(BasisError::EmptyChain)
        ));
        // 91 is composite.
        assert!(matches!(
            RnsBasis::new(16, &[91]),
            Err(BasisError::InvalidPrime(91))
        ));
        // 101 is prime but 101 mod 32 != 1, so no degree-16 negacyclic NTT exists.
        assert!(matches!(
            RnsBasis::new(16, &[101]),
            Err(BasisError::InvalidPrime(101))
        ));
        let good = generate_ntt_primes(16, &[20]).unwrap();
        assert!(matches!(
            RnsBasis::new(16, &[good[0], good[0]]),
            Err(BasisError::DuplicatePrime(_))
        ));
    }

    #[test]
    fn product_bits_accumulates() {
        let b = basis(32, &[30, 40, 50]);
        assert!((b.product_bits(1) - 30.0).abs() < 0.1);
        assert!((b.product_bits(3) - 120.0).abs() < 0.2);
    }

    #[test]
    fn wide_lift_matches_euclidean_remainder_around_the_word_boundary() {
        let b = basis(16, &[30, 40, 50, 60]);
        let mut coeffs = Vec::new();
        for boundary in [0i128, 1 << 62, 1 << 63, 1 << 64, 1 << 100] {
            for offset in -2i128..=2 {
                coeffs.extend([boundary + offset, -(boundary + offset)]);
            }
        }
        coeffs.extend(b.moduli().iter().map(|m| -i128::from(m.value())));
        for chunk in coeffs.chunks(16) {
            let mut padded = chunk.to_vec();
            padded.resize(16, 0);
            let poly = b.poly_from_i128(&padded, 4);
            for (row, modulus) in poly.rows().zip(b.moduli()) {
                for (&r, &c) in row.iter().zip(&padded) {
                    assert_eq!(r, c.rem_euclid(i128::from(modulus.value())) as u64, "{c}");
                }
            }
        }
    }

    #[test]
    fn drop_constants_invert_every_later_prime() {
        let b = basis(16, &[30, 31, 40, 50]);
        for j in 0..b.len() {
            assert_eq!(b.drop_constants(j).len(), j);
            for (q_i, c) in b.moduli().iter().zip(b.drop_constants(j)) {
                assert_eq!(c.residue, b.moduli()[j].value() % q_i.value());
                assert_eq!(q_i.mul(c.inverse.operand, c.residue), 1);
                assert_eq!(c.inverse, q_i.shoup(c.inverse.operand));
            }
        }
    }

    #[test]
    fn signed_lift_produces_expected_residues() {
        let b = basis(16, &[20, 21]);
        let mut coeffs = vec![0i64; 16];
        coeffs[0] = -1;
        coeffs[1] = 5;
        let poly = b.poly_from_signed(&coeffs, 2);
        assert_eq!(poly.level(), 2);
        assert_eq!(poly.residue(0)[0], b.moduli()[0].value() - 1);
        assert_eq!(poly.residue(1)[0], b.moduli()[1].value() - 1);
        assert_eq!(poly.residue(0)[1], 5);
    }
}
