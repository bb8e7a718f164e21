//! Word-sized modular arithmetic.
//!
//! [`Modulus`] wraps a prime (or any odd modulus) smaller than 2^62 and
//! precomputes the Barrett constant `floor(2^128 / q)` so that products of two
//! residues can be reduced without a hardware division. Constant operands can
//! additionally be promoted to a [`ShoupPrecomputed`] form, which the NTT uses
//! for its twiddle factors.
//!
//! # Lazy-reduction ranges
//!
//! The hot kernels (NTT butterflies, fused dyadic products) defer the final
//! reduction to canonical `[0, q)` and instead track *lazy* representatives.
//! The invariants, all safe because `q < 2^62` keeps `4q < 2^64`:
//!
//! | operation | input range | output range |
//! |---|---|---|
//! | [`Modulus::add_lazy`]       | `[0, q)` each   | `[0, 2q)` |
//! | [`Modulus::sub_lazy`]       | `[0, q)` each   | `[0, 2q)` |
//! | [`Modulus::mul_shoup_lazy`] | any `u64`       | `[0, 2q)` |
//! | [`Modulus::reduce_once`]    | `[0, 2q)`       | `[0, q)`  |
//! | [`Modulus::reduce_twice`]   | `[0, 4q)`       | `[0, q)`  |
//!
//! The canonical operations ([`Modulus::add`], [`Modulus::sub`],
//! [`Modulus::mul`], [`Modulus::mul_shoup`]) keep both inputs and outputs in
//! `[0, q)`.
//!
//! # Selects and branches
//!
//! A per-coefficient choice that is a coin flip on random residues (whether
//! a sum crossed `q`, whether a lazy value crossed `2q`, which side of `q/2`
//! a centered lift falls on) goes through [`std::hint::select_unpredictable`]:
//! left to its heuristics, LLVM turns a mask select into a conditional jump
//! that mispredicts on half the coefficients. A choice that is almost always
//! the same (the Barrett correction in [`Modulus::reduce_u128`] and
//! [`Modulus::reduce_u128_lazy`], whose estimate is nearly always exact)
//! stays a branch, which predicts and is cheaper than a select. Both arms of
//! a select are evaluated, so an arm that can underflow uses `wrapping_sub`.

use std::fmt;
use std::hint::select_unpredictable;

/// Maximum number of bits a [`Modulus`] value may occupy.
///
/// SEAL restricts coefficient-modulus primes to 60 bits; we allow 62 so the
/// special key-switching prime has headroom, while keeping lazy sums safe.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A positive odd modulus `q < 2^62` with precomputed Barrett constants.
///
/// # Examples
///
/// ```
/// use eva_math::Modulus;
/// let q = Modulus::new((1u64 << 30) - 35).unwrap();
/// assert_eq!(q.mul(12345, 67890), (12345u128 * 67890 % q.value() as u128) as u64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / value), low and high 64-bit words.
    const_ratio: (u64, u64),
    bit_count: u32,
}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Modulus")
            .field("value", &self.value)
            .field("bits", &self.bit_count)
            .finish()
    }
}

impl fmt::Display for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// Error returned when constructing a [`Modulus`] from an unsupported value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidModulus(pub u64);

impl fmt::Display for InvalidModulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid modulus value {}", self.0)
    }
}

impl std::error::Error for InvalidModulus {}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidModulus`] if `value < 2` or `value >= 2^62`.
    pub fn new(value: u64) -> Result<Self, InvalidModulus> {
        if value < 2 || value >> MAX_MODULUS_BITS != 0 {
            return Err(InvalidModulus(value));
        }
        // const_ratio = floor(2^128 / value) computed by long division of
        // the 192-bit value 2^128 by `value` using u128 steps.
        // high = floor((2^128 - 1)/q). Since 2^128 = u128::MAX + 1,
        // floor(2^128/q) equals `high` unless the +1 carries across a multiple
        // of q, i.e. unless (u128::MAX % q) == q - 1, in which case add one.
        let high = u128::MAX / value as u128;
        let rem = u128::MAX % value as u128;
        let ratio = if rem == value as u128 - 1 {
            high + 1
        } else {
            high
        };
        let const_ratio = (ratio as u64, (ratio >> 64) as u64);
        let bit_count = 64 - value.leading_zeros();
        Ok(Self {
            value,
            const_ratio,
            bit_count,
        })
    }

    /// The modulus value `q`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits in `q`.
    #[inline]
    pub fn bit_count(&self) -> u32 {
        self.bit_count
    }

    /// Reduces an arbitrary 64-bit value modulo `q`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        self.reduce_u128(a as u128)
    }

    /// Reduces an arbitrary 128-bit value modulo `q` using Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, z: u128) -> u64 {
        let mut r = self.reduce_u128_raw(z);
        // The Barrett estimate undershoots the true quotient by at most a couple,
        // so a short correction loop restores the canonical representative.
        while r >= self.value {
            r -= self.value;
        }
        r
    }

    /// Reduces a signed 128-bit value to its canonical residue in `[0, q)`
    /// (the Euclidean remainder).
    ///
    /// A magnitude that fits one word takes the Barrett reduction and a sign
    /// fix; only wider values (CKKS scales beyond `2^64`) pay for the
    /// software 128-bit remainder.
    #[inline]
    pub fn reduce_i128(&self, c: i128) -> u64 {
        match u64::try_from(c.unsigned_abs()) {
            Ok(magnitude) if c < 0 => self.neg(self.reduce(magnitude)),
            Ok(magnitude) => self.reduce(magnitude),
            Err(_) => c.rem_euclid(i128::from(self.value)) as u64,
        }
    }

    /// The uncorrected Barrett step: a representative of `z mod q` in
    /// `[0, 4q)` (the quotient estimate undershoots by at most a couple).
    #[inline]
    fn reduce_u128_raw(&self, z: u128) -> u64 {
        let (r0, r1) = self.const_ratio;
        let z0 = z as u64;
        let z1 = (z >> 64) as u64;

        // Estimate the quotient floor(z * ratio / 2^128); only its low 64 bits are
        // needed because the remainder fits in a single word.
        //   z * ratio = z0*r0 + (z0*r1 + z1*r0)*2^64 + z1*r1*2^128
        // so the low quotient word is
        //   low64(z1*r1) + bits 64..127 of (z0*r1 + z1*r0 + floor(z0*r0 / 2^64)).
        // The wrapping u128 sum below only ever loses bit 128, which does not
        // contribute to bits 64..127.
        let carry = ((z0 as u128 * r0 as u128) >> 64) as u64;
        let mid = (z0 as u128 * r1 as u128)
            .wrapping_add(z1 as u128 * r0 as u128)
            .wrapping_add(carry as u128);
        let q_hat = z1.wrapping_mul(r1).wrapping_add((mid >> 64) as u64);

        z0.wrapping_sub(q_hat.wrapping_mul(self.value))
    }

    /// Modular addition of two residues already in `[0, q)`.
    ///
    /// Whether the sum crosses `q` is a coin flip on random residues, so the
    /// correction is a select, not a branch.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        select_unpredictable(s >= self.value, s.wrapping_sub(self.value), s)
    }

    /// Modular subtraction of two residues already in `[0, q)`.
    ///
    /// Adds back `q` on a borrow, through a select: `a >= b` is a coin flip
    /// on random residues.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let (d, borrow) = a.overflowing_sub(b);
        select_unpredictable(borrow, d.wrapping_add(self.value), d)
    }

    /// Lazy modular addition: inputs in `[0, q)`, output in `[0, 2q)`.
    ///
    /// Branch-free: the sum is returned unreduced. Feed the result to
    /// [`Modulus::reduce_once`] (or a subsequent lazy operation) when a
    /// canonical representative is needed.
    #[inline]
    pub fn add_lazy(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        a + b
    }

    /// Lazy modular subtraction: inputs in `[0, q)`, output in `[0, 2q)`.
    ///
    /// Branch-free: returns `a + q - b`, which is congruent to `a - b` and
    /// never underflows.
    #[inline]
    pub fn sub_lazy(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        a + self.value - b
    }

    /// Reduces a lazy representative in `[0, 2q)` to canonical `[0, q)` with a
    /// single selected subtraction of `q`.
    #[inline]
    pub fn reduce_once(&self, a: u64) -> u64 {
        debug_assert!(a < 2 * self.value);
        select_unpredictable(a >= self.value, a.wrapping_sub(self.value), a)
    }

    /// Reduces a lazy representative in `[0, 4q)` to canonical `[0, q)` with
    /// two selected subtractions, of `2q` and then of `q` (the correction
    /// pass the lazy NTT runs once at the end instead of inside every
    /// butterfly).
    #[inline]
    pub fn reduce_twice(&self, a: u64) -> u64 {
        debug_assert!(a < 4 * self.value);
        let two_q = self.value << 1;
        let a = select_unpredictable(a >= two_q, a.wrapping_sub(two_q), a);
        self.reduce_once(a)
    }

    /// Modular negation of a residue in `[0, q)`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of two residues in `[0, q)`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Lazy modular multiplication: inputs in `[0, q)`, output in `[0, 2q)`.
    ///
    /// Runs the same Barrett step as [`Modulus::mul`] but settles for a lazy
    /// representative with one conditional subtraction of `2q` instead of
    /// the canonical correction loop — the form fused key-switch
    /// accumulation loops keep until the single canonicalization pass at the
    /// end.
    #[inline]
    pub fn mul_lazy(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128_lazy(a as u128 * b as u128)
    }

    /// Lazy Barrett reduction of an arbitrary 128-bit value: a representative
    /// of `z mod q` in `[0, 2q)`, with one conditional subtraction of `2q`
    /// instead of the canonical correction loop. This is what lets a sum of
    /// unreduced products be reduced **once** (the key-switch accumulation).
    /// The subtraction is rarely taken, so it is left a branch.
    #[inline]
    pub fn reduce_u128_lazy(&self, z: u128) -> u64 {
        let r = self.reduce_u128_raw(z);
        let two_q = self.value << 1;
        let r = r - (two_q & ((r >= two_q) as u64).wrapping_neg());
        debug_assert!(r < two_q);
        r
    }

    /// Modular exponentiation `a^e mod q` by square-and-multiply.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Modular inverse of `a`, if it exists.
    ///
    /// Primality of the modulus is not assumed (so Fermat's little theorem is
    /// not applicable); the extended Euclidean algorithm is used instead, which
    /// works for any modulus and returns `None` when `gcd(a, q) != 1`.
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        // Extended Euclid over signed 128-bit accumulators.
        let (mut old_r, mut r) = (a as i128, self.value as i128);
        let (mut old_s, mut s) = (1i128, 0i128);
        while r != 0 {
            let quotient = old_r / r;
            let tmp = old_r - quotient * r;
            old_r = r;
            r = tmp;
            let tmp = old_s - quotient * s;
            old_s = s;
            s = tmp;
        }
        if old_r != 1 {
            return None;
        }
        let q = self.value as i128;
        let inv = ((old_s % q) + q) % q;
        Some(inv as u64)
    }

    /// Precomputes a Shoup representation of `operand` for repeated
    /// multiplication by it modulo `q`.
    #[inline]
    pub fn shoup(&self, operand: u64) -> ShoupPrecomputed {
        debug_assert!(operand < self.value);
        let quotient = ((operand as u128) << 64) / self.value as u128;
        ShoupPrecomputed {
            operand,
            quotient: quotient as u64,
        }
    }

    /// Multiplies `a` by a Shoup-precomputed constant modulo `q`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, c: &ShoupPrecomputed) -> u64 {
        self.reduce_once(self.mul_shoup_lazy(a, c))
    }

    /// Lazy Shoup multiplication: `a * c mod q` as a representative in
    /// `[0, 2q)`, skipping the final conditional subtraction.
    ///
    /// Correct for *any* `a < 2^64` (the Harvey butterflies exploit this by
    /// feeding in values up to `4q`): the quotient estimate
    /// `floor(a * c.quotient / 2^64)` undershoots the true quotient by less
    /// than `1 + a/2^64 < 2`, so `a*c.operand - estimate*q` lands in `[0, 2q)`.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, c: &ShoupPrecomputed) -> u64 {
        let hi = ((a as u128 * c.quotient as u128) >> 64) as u64;
        a.wrapping_mul(c.operand)
            .wrapping_sub(hi.wrapping_mul(self.value))
    }
}

/// A constant operand promoted for Shoup modular multiplication.
///
/// Produced by [`Modulus::shoup`] and consumed by [`Modulus::mul_shoup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupPrecomputed {
    /// The constant operand itself, reduced modulo `q`.
    pub operand: u64,
    /// `floor(operand * 2^64 / q)`.
    pub quotient: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mul(a: u64, b: u64, q: u64) -> u64 {
        (a as u128 * b as u128 % q as u128) as u64
    }

    #[test]
    fn new_rejects_bad_values() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new(2).is_ok());
        assert!(Modulus::new((1 << 62) - 1).is_ok());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(97).unwrap();
        for a in 0..97 {
            for b in 0..97 {
                let s = q.add(a, b);
                assert_eq!(s, (a + b) % 97);
                assert_eq!(q.sub(s, b), a);
            }
            assert_eq!(q.add(a, q.neg(a)), 0);
        }
    }

    #[test]
    fn mul_lazy_is_congruent_and_below_two_q() {
        let values = [97u64, (1 << 40) - 87, (1 << 61) + 20 * 8192 + 1];
        for q in values {
            let modulus = Modulus::new(q).unwrap();
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = x % q;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = x % q;
                let lazy = modulus.mul_lazy(a, b);
                assert!(lazy < 2 * q);
                assert_eq!(modulus.reduce_once(lazy), naive_mul(a, b, q));
            }
        }
    }

    #[test]
    fn mul_matches_naive_small() {
        let q = Modulus::new(0xffff_ffff_0000_0001u64 >> 3).unwrap();
        let qv = q.value();
        let samples = [0u64, 1, 2, qv - 1, qv / 2, 12345, 0xdead_beef];
        for &a in &samples {
            for &b in &samples {
                let a = a % qv;
                let b = b % qv;
                assert_eq!(q.mul(a, b), naive_mul(a, b, qv), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn reduce_u128_matches_naive() {
        let q = Modulus::new((1u64 << 60) - 93).unwrap();
        let qv = q.value() as u128;
        let samples: [u128; 6] = [
            0,
            1,
            u128::MAX,
            u128::MAX / 2,
            (1u128 << 120) + 12345,
            qv * qv - 1,
        ];
        for &z in &samples {
            assert_eq!(q.reduce_u128(z) as u128, z % qv, "z={z}");
        }
    }

    #[test]
    fn reduce_i128_is_the_euclidean_remainder_around_the_word_boundary() {
        for q in [
            Modulus::new(97).unwrap(),
            Modulus::new((1 << 61) + 1).unwrap(),
        ] {
            let wide = i128::from(q.value());
            for boundary in [0i128, wide, 1 << 63, 1 << 64, 1 << 100, i128::MAX] {
                for offset in -2i128..=2 {
                    for c in [
                        boundary.saturating_add(offset),
                        (-boundary).saturating_add(offset),
                    ] {
                        assert_eq!(q.reduce_i128(c), c.rem_euclid(wide) as u64, "{c} mod {q}");
                    }
                }
            }
            assert_eq!(q.reduce_i128(i128::MIN), i128::MIN.rem_euclid(wide) as u64);
        }
    }

    #[test]
    fn pow_and_inv() {
        let q = Modulus::new(65537).unwrap();
        assert_eq!(q.pow(3, 0), 1);
        assert_eq!(q.pow(3, 16), 3u64.pow(16) % 65537);
        for a in 1..200u64 {
            let inv = q.inv(a).unwrap();
            assert_eq!(q.mul(a, inv), 1);
        }
        assert_eq!(q.inv(0), None);
    }

    #[test]
    fn inv_nonprime_modulus() {
        let q = Modulus::new(15).unwrap();
        assert_eq!(q.inv(3), None);
        assert_eq!(q.inv(2), Some(8));
    }

    #[test]
    fn lazy_ops_stay_in_declared_ranges() {
        // Exhaustive over a small modulus: outputs in [0, 2q), congruent mod q.
        let q = Modulus::new(97).unwrap();
        for a in 0..97u64 {
            for b in 0..97u64 {
                let s = q.add_lazy(a, b);
                assert!(s < 2 * 97, "add_lazy({a},{b}) = {s} escapes [0, 2q)");
                assert_eq!(s % 97, (a + b) % 97);
                assert_eq!(q.reduce_once(s), q.add(a, b));
                let d = q.sub_lazy(a, b);
                assert!(d < 2 * 97, "sub_lazy({a},{b}) = {d} escapes [0, 2q)");
                assert_eq!(q.reduce_once(d), q.sub(a, b));
            }
        }
    }

    #[test]
    fn mul_shoup_lazy_bounded_for_arbitrary_inputs() {
        // mul_shoup_lazy must stay below 2q for ANY u64 input, including
        // values far above q (the lazy NTT feeds in representatives up to 4q).
        let q = Modulus::new((1u64 << 61) - 1).unwrap();
        let qv = q.value();
        let consts = [1u64, 2, qv - 1, qv / 3, 0x0123_4567_89ab_cdef % qv];
        let inputs = [
            0u64,
            1,
            qv - 1,
            qv,
            2 * qv - 1,
            4 * qv - 1,
            u64::MAX,
            0xdead_beef_dead_beef,
        ];
        for &c in &consts {
            let pre = q.shoup(c);
            for &a in &inputs {
                let r = q.mul_shoup_lazy(a, &pre);
                assert!(r < 2 * qv, "mul_shoup_lazy({a}, {c}) = {r} >= 2q");
                assert_eq!(q.reduce_once(r) as u128, a as u128 * c as u128 % qv as u128);
            }
        }
    }

    #[test]
    fn reduce_twice_covers_full_4q_range() {
        // Up to the largest modulus, where 4q - 1 sits just below 2^64.
        for qv in [(1u64 << 50) - 27, (1u64 << MAX_MODULUS_BITS) - 1] {
            let q = Modulus::new(qv).unwrap();
            for &a in &[0, 1, qv - 1, qv, 2 * qv - 1, 2 * qv, 3 * qv + 5, 4 * qv - 1] {
                assert_eq!(q.reduce_twice(a), a % qv);
            }
        }
    }

    #[test]
    fn canonical_ops_at_the_largest_modulus() {
        // Both arms of a select are evaluated: an arm that underflows would
        // panic here under overflow checks.
        let qv = (1u64 << MAX_MODULUS_BITS) - 1;
        let q = Modulus::new(qv).unwrap();
        for &a in &[0, 1, qv - 1, qv, 2 * qv - 1] {
            assert_eq!(q.reduce_once(a), a % qv);
        }
        let edges = [0, 1, qv / 2, qv / 2 + 1, qv - 2, qv - 1];
        for &a in &edges {
            for &b in &edges {
                // q < 2^62, so these reference sums cannot overflow.
                assert_eq!(q.add(a, b), (a + b) % qv, "add({a}, {b})");
                assert_eq!(q.sub(a, b), (a + qv - b) % qv, "sub({a}, {b})");
            }
        }
        assert_eq!(q.add(qv - 1, qv - 1), qv - 2);
        assert_eq!(q.sub(0, qv - 1), 1);
    }

    #[test]
    fn shoup_matches_mul() {
        let q = Modulus::new((1u64 << 50) - 27).unwrap();
        let qv = q.value();
        let consts = [1u64, 2, qv - 1, 0x1234_5678, qv / 3];
        let inputs = [0u64, 1, qv - 1, 999_999_999, qv / 7];
        for &c in &consts {
            let pre = q.shoup(c);
            for &a in &inputs {
                assert_eq!(q.mul_shoup(a, &pre), q.mul(a, c));
            }
        }
    }
}
