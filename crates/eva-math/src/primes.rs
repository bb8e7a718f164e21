//! Primality testing and NTT-friendly prime generation.
//!
//! The RNS-CKKS coefficient modulus is a product of word-sized primes, each of
//! which must satisfy `q ≡ 1 (mod 2N)` so that the negacyclic NTT of degree `N`
//! exists modulo `q`. [`generate_ntt_primes`] produces distinct primes with the
//! requested bit sizes, mirroring SEAL's `CoeffModulus::Create`, and
//! [`max_coeff_modulus_bits`] bounds their product at 128-bit security.

use crate::modulus::Modulus;

/// Maximum bit size of any single prime of a coefficient-modulus chain:
/// SEAL's limit, and the paper's `log2 s_f`, the largest rescale divisor.
pub const MAX_PRIME_BITS: u32 = 60;

/// Maximum total bits of the coefficient modulus (including the special prime)
/// admissible at 128-bit security for a given ring degree, following the
/// HomomorphicEncryption.org security standard (and extrapolating one doubling
/// for degree 65536, which the standard tables stop short of).
pub fn max_coeff_modulus_bits(degree: usize) -> Option<u32> {
    match degree {
        1024 => Some(27),
        2048 => Some(54),
        4096 => Some(109),
        8192 => Some(218),
        16384 => Some(438),
        32768 => Some(881),
        65536 => Some(1762),
        _ => None,
    }
}

/// Deterministic Miller–Rabin primality test, valid for all `u64` inputs.
///
/// Uses the fixed witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`
/// which is known to be sufficient for 64-bit integers.
///
/// # Examples
///
/// ```
/// use eva_math::is_prime;
/// assert!(is_prime((1u64 << 61) - 1)); // Mersenne prime
/// assert!(!is_prime(1_000_000_000));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    let modulus = match Modulus::new(n) {
        Ok(m) => m,
        // Values >= 2^62 fall back to plain u128 arithmetic.
        Err(_) => return is_prime_u128(n, d, s),
    };
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = modulus.pow(a % n, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = modulus.mul(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn is_prime_u128(n: u64, d: u64, s: u32) -> bool {
    let n128 = n as u128;
    let pow = |mut base: u128, mut e: u64| -> u128 {
        let mut acc = 1u128;
        base %= n128;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base % n128;
            }
            base = base * base % n128;
            e >>= 1;
        }
        acc
    };
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow(a as u128, d);
        if x == 1 || x == n128 - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = x * x % n128;
            if x == n128 - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Error returned by [`generate_ntt_primes`] when a request cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimeGenError {
    /// The polynomial degree must be a power of two and at least 2.
    InvalidDegree(usize),
    /// A requested bit size was outside the supported range `[2, 61]`.
    InvalidBitSize(u32),
    /// No more primes of the requested size exist for this degree.
    Exhausted {
        /// Bit size that could not be satisfied.
        bit_size: u32,
        /// Ring degree for which the prime was requested.
        degree: usize,
    },
}

impl std::fmt::Display for PrimeGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrimeGenError::InvalidDegree(n) => write!(f, "invalid polynomial degree {n}"),
            PrimeGenError::InvalidBitSize(b) => write!(f, "invalid prime bit size {b}"),
            PrimeGenError::Exhausted { bit_size, degree } => write!(
                f,
                "no more {bit_size}-bit NTT primes available for degree {degree}"
            ),
        }
    }
}

impl std::error::Error for PrimeGenError {}

/// The *nominal* bit size of a prime `q`: the integer `s` minimizing
/// `|log2 q − s|`. A prime just **above** `2^s` still has nominal size `s`
/// (its raw bit count is `s + 1`), which is what the closest-prime search of
/// [`generate_ntt_primes`] produces.
///
/// # Examples
///
/// ```
/// use eva_math::nominal_prime_bits;
/// assert_eq!(nominal_prime_bits((1u64 << 40) - 87), 40); // just below 2^40
/// assert_eq!(nominal_prime_bits((1u64 << 40) + 453), 40); // just above 2^40
/// assert_eq!(nominal_prime_bits(3), 2);
/// ```
pub fn nominal_prime_bits(q: u64) -> u32 {
    debug_assert!(q >= 2);
    let raw = 64 - q.leading_zeros();
    // q ∈ [2^(raw-1), 2^raw): log2 q rounds up to `raw` iff it is ≥ raw - 0.5.
    if (q as f64).log2() >= f64::from(raw) - 0.5 {
        raw
    } else {
        raw - 1
    }
}

/// Generates distinct primes `q_i ≡ 1 (mod 2N)`, each as **close to `2^s` as
/// possible** for its requested size `s`.
///
/// The search walks outwards from `2^s` over both smaller and larger
/// candidates in order of distance, so the chosen primes minimize
/// `|log2 q − s|` — and with them the per-rescale scale drift the compiler's
/// exact-scale phase has to correct (a rescale divides the scale by the
/// *actual* prime, not by `2^s`). Primes of equal requested size are
/// distinct (the k-th request gets the k-th closest prime); results are
/// deterministic. Note that a prime just above `2^s` has `s + 1` raw bits
/// but nominal size `s` (see [`nominal_prime_bits`]).
///
/// # Errors
///
/// Returns an error if `degree` is not a power of two, a bit size is outside
/// `[2, 61]`, or the supply of suitable primes is exhausted.
///
/// # Examples
///
/// ```
/// use eva_math::{generate_ntt_primes, nominal_prime_bits};
/// let primes = generate_ntt_primes(4096, &[40, 40, 60]).unwrap();
/// assert_eq!(primes.len(), 3);
/// assert!(primes.iter().all(|&q| q % (2 * 4096) == 1));
/// assert_eq!(primes.iter().map(|&q| nominal_prime_bits(q)).collect::<Vec<_>>(), vec![40, 40, 60]);
/// ```
pub fn generate_ntt_primes(degree: usize, bit_sizes: &[u32]) -> Result<Vec<u64>, PrimeGenError> {
    if degree < 2 || !degree.is_power_of_two() {
        return Err(PrimeGenError::InvalidDegree(degree));
    }
    let factor = 2 * degree as u64;
    let mut result: Vec<u64> = Vec::with_capacity(bit_sizes.len());
    for &bits in bit_sizes {
        if !(2..=61).contains(&bits) {
            return Err(PrimeGenError::InvalidBitSize(bits));
        }
        let target = 1u64 << bits;
        // Candidate ladder: `below` descends from the largest `k·2N + 1` not
        // exceeding the target, `above` ascends from the next rung up. Each
        // side stays valid while its candidate still rounds to `bits`
        // (`nominal_prime_bits`), which also keeps every candidate well below
        // the 2^62 modulus limit.
        let mut below = (target - 1) / factor * factor + 1;
        let mut above = below + factor;
        let valid = |c: u64| c > 2 && nominal_prime_bits(c) == bits;
        let mut found = None;
        while found.is_none() {
            let below_ok = valid(below);
            let above_ok = valid(above);
            let candidate = match (below_ok, above_ok) {
                (false, false) => {
                    return Err(PrimeGenError::Exhausted {
                        bit_size: bits,
                        degree,
                    })
                }
                (true, false) => true,
                (false, true) => false,
                // Both in range: take whichever is closer to 2^s.
                (true, true) => target - below <= above - target,
            };
            if candidate {
                if is_prime(below) && !result.contains(&below) {
                    found = Some(below);
                }
                below = below.saturating_sub(factor);
            } else {
                if is_prime(above) && !result.contains(&above) {
                    found = Some(above);
                }
                above += factor;
            }
        }
        result.push(found.expect("loop exits only with a prime"));
    }
    Ok(result)
}

/// Returns the minimal primitive root modulo the prime `q`, i.e. a generator of
/// the multiplicative group `Z_q^*`.
///
/// # Panics
///
/// Panics if `q` is not prime (the factorization loop would not terminate
/// meaningfully); this is an internal helper exposed for the NTT tables.
pub fn primitive_root(modulus: &Modulus) -> u64 {
    let q = modulus.value();
    let group_order = q - 1;
    // Factor the group order (word-sized trial division is fine here; this runs
    // once per prime at context-creation time).
    let mut factors = Vec::new();
    let mut m = group_order;
    let mut p = 2u64;
    while p * p <= m {
        if m.is_multiple_of(p) {
            factors.push(p);
            while m.is_multiple_of(p) {
                m /= p;
            }
        }
        p += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    'candidate: for g in 2..q {
        for &f in &factors {
            if modulus.pow(g, group_order / f) == 1 {
                continue 'candidate;
            }
        }
        return g;
    }
    unreachable!("every prime field has a primitive root")
}

/// Returns a primitive `order`-th root of unity modulo the prime `q`.
///
/// # Panics
///
/// Panics if `order` does not divide `q - 1`.
pub fn primitive_root_of_unity(modulus: &Modulus, order: u64) -> u64 {
    let q = modulus.value();
    assert!(
        (q - 1).is_multiple_of(order),
        "order {order} does not divide q-1 for q={q}"
    );
    let g = primitive_root(modulus);
    modulus.pow(g, (q - 1) / order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_recognized() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 97, 65537];
        for &p in &primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 91, 561, 1_000_000, 6_700_417 * 3];
        for &c in &composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime((1u64 << 61) - 1));
        assert!(is_prime(0xffff_ffff_0000_0001)); // Goldilocks, 2^64 - 2^32 + 1
        assert!(!is_prime((1u64 << 61) - 3));
    }

    #[test]
    fn generated_primes_are_ntt_friendly() {
        let degree = 2048;
        let primes = generate_ntt_primes(degree, &[30, 30, 40, 60]).unwrap();
        assert_eq!(primes.len(), 4);
        for (i, &q) in primes.iter().enumerate() {
            assert!(is_prime(q));
            assert_eq!(q % (2 * degree as u64), 1);
            let requested = [30u32, 30, 40, 60][i];
            assert_eq!(nominal_prime_bits(q), requested);
        }
        // Equal bit sizes must still give distinct primes.
        assert_ne!(primes[0], primes[1]);
    }

    #[test]
    fn generated_primes_are_the_closest_to_the_target_power() {
        // No other NTT-friendly prime of the same nominal size may lie
        // strictly closer to 2^s than the chosen one.
        let degree = 1024;
        let factor = 2 * degree as u64;
        for bits in [20u32, 30, 40, 50, 60] {
            let q = generate_ntt_primes(degree, &[bits]).unwrap()[0];
            let target = 1u64 << bits;
            let distance = target.abs_diff(q);
            let mut c = (target - 1) / factor * factor + 1;
            // Scan every candidate strictly closer than the chosen prime.
            let mut closer: Vec<u64> = Vec::new();
            while target - c < distance {
                closer.push(c);
                c -= factor;
            }
            let mut c = (target - 1) / factor * factor + 1 + factor;
            while c - target < distance {
                closer.push(c);
                c += factor;
            }
            assert!(
                closer.iter().all(|&c| !is_prime(c)),
                "{bits}-bit: a closer NTT prime than {q} exists"
            );
        }
    }

    #[test]
    fn nominal_bits_round_to_the_nearest_power() {
        assert_eq!(nominal_prime_bits(2), 1);
        assert_eq!(nominal_prime_bits(3), 2);
        assert_eq!(nominal_prime_bits(4), 2);
        assert_eq!(nominal_prime_bits(6), 3);
        assert_eq!(nominal_prime_bits((1u64 << 50) - 27), 50);
        assert_eq!(nominal_prime_bits((1u64 << 50) + 1), 50);
        assert_eq!(nominal_prime_bits((1u64 << 60) + 1), 60);
        // Exactly halfway in the log domain rounds up.
        let sqrt2_mid = ((1u64 << 40) as f64 * std::f64::consts::SQRT_2) as u64;
        assert_eq!(nominal_prime_bits(sqrt2_mid + 2), 41);
    }

    #[test]
    fn generation_rejects_bad_input() {
        assert!(matches!(
            generate_ntt_primes(1000, &[30]),
            Err(PrimeGenError::InvalidDegree(1000))
        ));
        assert!(matches!(
            generate_ntt_primes(1024, &[62]),
            Err(PrimeGenError::InvalidBitSize(62))
        ));
        assert!(matches!(
            generate_ntt_primes(1024, &[1]),
            Err(PrimeGenError::InvalidBitSize(1))
        ));
    }

    #[test]
    fn primitive_root_of_unity_has_exact_order() {
        let degree = 1024u64;
        let primes = generate_ntt_primes(degree as usize, &[40]).unwrap();
        let q = Modulus::new(primes[0]).unwrap();
        let w = primitive_root_of_unity(&q, 2 * degree);
        assert_eq!(q.pow(w, 2 * degree), 1);
        assert_ne!(q.pow(w, degree), 1, "root must be primitive");
    }
}
