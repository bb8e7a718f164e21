//! Encryption parameters and the security-standard validation table.
//!
//! The EVA compiler emits a vector of prime bit sizes (Section 6.2 of the
//! paper); [`CkksParameters`] turns that into an actual prime chain and checks
//! it against the homomorphic encryption security standard's bound on
//! `log2 Q` for each ring degree at 128-bit security, exactly as SEAL does
//! when it validates parameters.

use eva_math::primes::{generate_ntt_primes, PrimeGenError};
pub use eva_math::primes::{max_coeff_modulus_bits, MAX_PRIME_BITS};

/// The standard security level targeted by every context in this crate.
pub const SECURITY_BITS: u32 = 128;

/// CKKS encryption parameters: a ring degree, a chain of data primes and one
/// special key-switching prime.
///
/// The data primes are ordered such that RESCALE consumes them **from the
/// back** (the last data prime is divided away first), which matches the
/// "rescale chain" orientation the EVA compiler reasons about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkksParameters {
    degree: usize,
    data_primes: Vec<u64>,
    special_prime: u64,
    data_prime_bits: Vec<u32>,
    special_prime_bits: u32,
}

/// Errors from building or validating [`CkksParameters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParameterError {
    /// The ring degree is not one of the supported powers of two.
    UnsupportedDegree(usize),
    /// A prime bit size exceeds [`MAX_PRIME_BITS`] or is smaller than 2.
    InvalidPrimeBits(u32),
    /// The total modulus is too large for the degree at 128-bit security.
    InsecureModulus {
        /// Ring degree requested.
        degree: usize,
        /// Total modulus bits requested (including the special prime).
        requested_bits: u32,
        /// Maximum bits allowed at 128-bit security.
        allowed_bits: u32,
    },
    /// At least one data prime is required.
    EmptyChain,
    /// The chain has so many data primes that the unreduced 128-bit digit ×
    /// key sum of a key switch could overflow (`levels · q_max² ≥ 2^128`).
    ChainTooLong {
        /// Number of data primes requested.
        levels: usize,
    },
    /// Prime generation failed.
    PrimeGeneration(String),
}

impl std::fmt::Display for ParameterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParameterError::UnsupportedDegree(n) => write!(f, "unsupported ring degree {n}"),
            ParameterError::InvalidPrimeBits(b) => write!(f, "invalid prime bit size {b}"),
            ParameterError::InsecureModulus {
                degree,
                requested_bits,
                allowed_bits,
            } => write!(
                f,
                "coefficient modulus of {requested_bits} bits exceeds the {allowed_bits}-bit \
                 budget of degree {degree} at 128-bit security"
            ),
            ParameterError::EmptyChain => write!(f, "at least one data prime is required"),
            ParameterError::ChainTooLong { levels } => write!(
                f,
                "a chain of {levels} data primes could overflow the 128-bit key-switch sum"
            ),
            ParameterError::PrimeGeneration(msg) => write!(f, "prime generation failed: {msg}"),
        }
    }
}

impl std::error::Error for ParameterError {}

impl From<PrimeGenError> for ParameterError {
    fn from(err: PrimeGenError) -> Self {
        ParameterError::PrimeGeneration(err.to_string())
    }
}

impl CkksParameters {
    /// Builds parameters from a ring degree and the bit sizes of the data
    /// primes (rescale order: the **last** entry is consumed by the first
    /// RESCALE). A 60-bit special prime is appended automatically.
    ///
    /// # Errors
    ///
    /// Returns [`ParameterError`] if the degree is unsupported, a bit size is
    /// out of range, or the resulting modulus violates 128-bit security.
    pub fn new(degree: usize, data_prime_bits: &[u32]) -> Result<Self, ParameterError> {
        let generated = Self::new_insecure(degree, data_prime_bits, MAX_PRIME_BITS)?;
        Self::from_primes(
            degree,
            &generated.data_primes,
            generated.special_prime,
            true,
        )
    }

    /// Builds parameters directly from **actual prime values** — the chain
    /// the EVA compiler's parameter selection resolved and annotated exact
    /// scales against. Using the very same primes on the backend is what
    /// keeps the compiler's scale predictions bit-identical to the scales
    /// the evaluator observes.
    ///
    /// When `enforce_security` is set, the 128-bit bound on `log2 Q` is
    /// validated against the exact `log2 Q`: [`CkksParameters::new`] is a
    /// generated chain checked here.
    ///
    /// # Errors
    ///
    /// Returns [`ParameterError`] if the degree is unsupported, a prime is
    /// out of the supported bit range, not NTT-friendly for the degree
    /// (`q ≢ 1 mod 2N`), duplicated, or the modulus violates the requested
    /// security bound.
    pub fn from_primes(
        degree: usize,
        data_primes: &[u64],
        special_prime: u64,
        enforce_security: bool,
    ) -> Result<Self, ParameterError> {
        if degree < 8 || !degree.is_power_of_two() {
            return Err(ParameterError::UnsupportedDegree(degree));
        }
        if data_primes.is_empty() {
            return Err(ParameterError::EmptyChain);
        }
        // Primes are sized by their *nominal* bit count (the s minimizing
        // |log2 q − s|): the closest-prime search may pick a prime slightly
        // above 2^s, whose raw bit count is s + 1.
        let bits_of = eva_math::nominal_prime_bits;
        let mut chain: Vec<u64> = data_primes.to_vec();
        chain.push(special_prime);
        for &q in &chain {
            if q < 2 {
                return Err(ParameterError::InvalidPrimeBits(0));
            }
            let bits = bits_of(q);
            if !(2..=MAX_PRIME_BITS).contains(&bits) {
                return Err(ParameterError::InvalidPrimeBits(bits));
            }
            if q % (2 * degree as u64) != 1 {
                return Err(ParameterError::PrimeGeneration(format!(
                    "prime {q} is not NTT-friendly for degree {degree}"
                )));
            }
        }
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != chain.len() {
            return Err(ParameterError::PrimeGeneration(
                "duplicate primes in the modulus chain".into(),
            ));
        }
        let data_prime_bits: Vec<u32> = data_primes.iter().map(|&q| bits_of(q)).collect();
        let special_prime_bits = bits_of(special_prime);
        if enforce_security {
            let allowed =
                max_coeff_modulus_bits(degree).ok_or(ParameterError::UnsupportedDegree(degree))?;
            // Check the standard's bound against the *exact* log2 Q, not the
            // nominal bit sum: primes just above 2^s would otherwise let a
            // chain slip past the table by a fraction of a bit per prime.
            let exact: f64 = chain.iter().map(|&q| (q as f64).log2()).sum();
            if exact > f64::from(allowed) {
                return Err(ParameterError::InsecureModulus {
                    degree,
                    requested_bits: exact.ceil() as u32,
                    allowed_bits: allowed,
                });
            }
        }
        Ok(Self {
            degree,
            data_primes: data_primes.to_vec(),
            special_prime,
            data_prime_bits,
            special_prime_bits,
        })
    }

    /// Builds parameters **without** enforcing the 128-bit-security bound on
    /// `log2 Q`. Intended for unit tests and micro-benchmarks that use small
    /// ring degrees; production callers should use [`CkksParameters::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ParameterError`] if the degree is not a power of two of at
    /// least 8, a bit size is out of range, or prime generation fails.
    pub fn new_insecure(
        degree: usize,
        data_prime_bits: &[u32],
        special_prime_bits: u32,
    ) -> Result<Self, ParameterError> {
        if degree < 8 || !degree.is_power_of_two() {
            return Err(ParameterError::UnsupportedDegree(degree));
        }
        let mut bits = data_prime_bits.to_vec();
        bits.push(special_prime_bits);
        if let Some(&bad) = bits.iter().find(|b| !(2..=MAX_PRIME_BITS).contains(b)) {
            return Err(ParameterError::InvalidPrimeBits(bad));
        }
        // Generated primes round to exactly the requested sizes, which
        // `from_primes` records as the chain's nominal bit sizes.
        let primes = generate_ntt_primes(degree, &bits)?;
        let (special_prime, data_primes) =
            primes.split_last().expect("the chain has a special prime");
        Self::from_primes(degree, data_primes, *special_prime, false)
    }

    /// The ring degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of slots in a ciphertext (`N / 2`).
    pub fn slot_count(&self) -> usize {
        self.degree / 2
    }

    /// The data primes, in chain order (rescale consumes from the back).
    pub fn data_primes(&self) -> &[u64] {
        &self.data_primes
    }

    /// The special key-switching prime.
    pub fn special_prime(&self) -> u64 {
        self.special_prime
    }

    /// Nominal bit sizes of the data primes (for a generated chain, the
    /// requested sizes).
    pub fn data_prime_bits(&self) -> &[u32] {
        &self.data_prime_bits
    }

    /// Nominal bit size of the special prime.
    pub fn special_prime_bits(&self) -> u32 {
        self.special_prime_bits
    }

    /// Number of data primes (the paper's modulus-chain length `r` counts these
    /// plus the special prime; see [`CkksParameters::chain_length`]).
    pub fn level_count(&self) -> usize {
        self.data_primes.len()
    }

    /// Total chain length `r` including the special prime, as reported in the
    /// paper's Table 6.
    pub fn chain_length(&self) -> usize {
        self.data_primes.len() + 1
    }

    /// Exact total `log2 Q` of the full modulus (data primes + special prime).
    pub fn total_modulus_bits(&self) -> f64 {
        self.data_primes
            .iter()
            .chain(std::iter::once(&self.special_prime))
            .map(|&q| (q as f64).log2())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn security_table_matches_standard() {
        assert_eq!(max_coeff_modulus_bits(4096), Some(109));
        assert_eq!(max_coeff_modulus_bits(32768), Some(881));
        assert_eq!(max_coeff_modulus_bits(1000), None);
    }

    #[test]
    fn parameters_build_and_report_sizes() {
        let params = CkksParameters::new(8192, &[40, 30, 30]).unwrap();
        assert_eq!(params.degree(), 8192);
        assert_eq!(params.level_count(), 3);
        assert_eq!(params.chain_length(), 4);
        assert_eq!(params.data_primes().len(), 3);
        assert!((params.total_modulus_bits() - 160.0).abs() < 1.0);
        for (&p, &bits) in params.data_primes().iter().zip(params.data_prime_bits()) {
            assert_eq!(eva_math::nominal_prime_bits(p), bits);
            assert_eq!(p % (2 * 8192), 1);
        }
    }

    #[test]
    fn oversized_modulus_is_rejected() {
        let err = CkksParameters::new(4096, &[60, 60]).unwrap_err();
        assert!(matches!(err, ParameterError::InsecureModulus { .. }));
        // 60 + 60 data bits + 60 special = 180 > 109.
    }

    #[test]
    fn degenerate_requests_are_rejected() {
        assert!(matches!(
            CkksParameters::new(1234, &[30]),
            Err(ParameterError::UnsupportedDegree(1234))
        ));
        assert!(matches!(
            CkksParameters::new(8192, &[]),
            Err(ParameterError::EmptyChain)
        ));
        assert!(matches!(
            CkksParameters::new(8192, &[61]),
            Err(ParameterError::InvalidPrimeBits(61))
        ));
    }
}
