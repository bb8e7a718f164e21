//! Galois automorphism bookkeeping for CKKS slot rotations.
//!
//! Rotating the encrypted slot vector left by `r` positions corresponds to the
//! ring automorphism `X ↦ X^{5^r mod 2N}`; complex conjugation of the slots
//! corresponds to `X ↦ X^{2N-1}`. [`GaloisTool`] computes the Galois elements
//! and applies the automorphism to coefficient-domain polynomials.

use crate::modulus::Modulus;
use crate::ntt::bit_reverse;

/// Computes Galois elements and applies automorphisms for a fixed ring degree.
#[derive(Debug, Clone)]
pub struct GaloisTool {
    degree: usize,
    m: usize,
}

impl GaloisTool {
    /// Creates a tool for ring degree `degree` (must be a power of two ≥ 4).
    ///
    /// # Panics
    ///
    /// Panics if `degree` is not a power of two or is smaller than 4.
    pub fn new(degree: usize) -> Self {
        assert!(
            degree >= 4 && degree.is_power_of_two(),
            "degree must be a power of two >= 4, got {degree}"
        );
        Self {
            degree,
            m: 2 * degree,
        }
    }

    /// The ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The Galois element `5^steps mod 2N` implementing a left rotation of the
    /// slot vector by `steps` positions. Negative steps rotate right. The
    /// power is taken by square-and-multiply, `O(log N)` per call.
    pub fn galois_elt_from_step(&self, steps: i64) -> u64 {
        let slots = (self.degree / 2) as i64;
        let m = self.m as u128;
        let (mut exp, mut base, mut elt) = (steps.rem_euclid(slots), 5u128, 1u128);
        while exp > 0 {
            if exp & 1 == 1 {
                elt = elt * base % m;
            }
            base = base * base % m;
            exp >>= 1;
        }
        elt as u64
    }

    /// The Galois element `2N - 1` implementing complex conjugation of slots.
    #[inline]
    pub fn galois_elt_conjugate(&self) -> u64 {
        (self.m - 1) as u64
    }

    /// Applies the automorphism `X ↦ X^galois_elt` to a coefficient-domain
    /// polynomial, writing the result into `output`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the ring degree or if
    /// `galois_elt` is even (not a unit modulo `2N`).
    pub fn apply(&self, input: &[u64], galois_elt: u64, modulus: &Modulus, output: &mut [u64]) {
        assert_eq!(input.len(), self.degree);
        assert_eq!(output.len(), self.degree);
        assert!(
            galois_elt % 2 == 1 && (galois_elt as usize) < self.m,
            "galois element {galois_elt} must be an odd unit modulo {}",
            self.m
        );
        for (i, &coeff) in input.iter().enumerate() {
            let index = i * galois_elt as usize % self.m;
            if index < self.degree {
                output[index] = coeff;
            } else {
                output[index - self.degree] = modulus.neg(coeff);
            }
        }
    }

    /// Precomputes the index permutation that implements `X ↦ X^galois_elt`
    /// directly on NTT-domain rows: `output[i] = input[table[i]]`.
    ///
    /// The negacyclic NTT stores at index `i` the evaluation of the
    /// polynomial at `ψ^(2·bitrev(i)+1)` (ψ a primitive 2N-th root), so the
    /// automorphism only permutes evaluations — no negations and no modular
    /// arithmetic are needed, and the table depends only on the ring degree
    /// and the Galois element, never on the modulus. One table therefore
    /// serves every residue row of an RNS polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `galois_elt` is even (not a unit modulo `2N`) or out of
    /// range.
    pub fn ntt_permutation(&self, galois_elt: u64) -> Vec<u32> {
        assert!(
            galois_elt % 2 == 1 && (galois_elt as usize) < self.m,
            "galois element {galois_elt} must be an odd unit modulo {}",
            self.m
        );
        let log_n = self.degree.trailing_zeros();
        (0..self.degree)
            .map(|i| {
                // Output slot `i` wants the evaluation at exponent
                // e = galois_elt · (2·bitrev(i)+1) mod 2N, which the input
                // stores at index bitrev((e-1)/2).
                let odd = 2 * bit_reverse(i, log_n) + 1;
                let e = galois_elt as usize * odd % self.m;
                bit_reverse((e - 1) >> 1, log_n) as u32
            })
            .collect()
    }

    /// Applies a permutation produced by [`GaloisTool::ntt_permutation`] to
    /// one NTT-domain row: a pure gather, `output[i] = input[table[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the ring degree.
    pub fn apply_ntt(&self, input: &[u64], table: &[u32], output: &mut [u64]) {
        assert_eq!(input.len(), self.degree);
        assert_eq!(table.len(), self.degree);
        assert_eq!(output.len(), self.degree);
        for (o, &t) in output.iter_mut().zip(table) {
            *o = input[t as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttTables;

    #[test]
    fn galois_elements_are_units() {
        let tool = GaloisTool::new(64);
        for steps in -5i64..=5 {
            let elt = tool.galois_elt_from_step(steps);
            assert_eq!(elt % 2, 1);
            assert!(elt < 128);
        }
        assert_eq!(tool.galois_elt_from_step(0), 1);
        assert_eq!(tool.galois_elt_conjugate(), 127);
    }

    /// The element as `5` multiplied in `step mod N/2` times.
    fn iterated_elt(tool: &GaloisTool, step: i64) -> u64 {
        let m = 2 * tool.degree() as u64;
        let exp = step.rem_euclid(tool.degree() as i64 / 2);
        (0..exp).fold(1, |elt, _| elt * 5 % m)
    }

    #[test]
    fn square_and_multiply_matches_the_iterated_product() {
        for degree in [1usize << 6, 1 << 10] {
            let tool = GaloisTool::new(degree);
            let half = degree as i64 / 2;
            for step in -half..=half {
                assert_eq!(
                    tool.galois_elt_from_step(step),
                    iterated_elt(&tool, step),
                    "N = {degree}, step {step}"
                );
            }
        }
        let degree = 1usize << 15;
        let tool = GaloisTool::new(degree);
        let span = degree as u64 + 1;
        for i in 0..1000u64 {
            // Spread over [−N/2, N/2] by a multiplicative hash of `i`.
            let step = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % span;
            let step = step as i64 - degree as i64 / 2;
            assert_eq!(
                tool.galois_elt_from_step(step),
                iterated_elt(&tool, step),
                "N = {degree}, step {step}"
            );
        }
    }

    #[test]
    fn rotation_steps_compose() {
        let tool = GaloisTool::new(256);
        let a = tool.galois_elt_from_step(3);
        let b = tool.galois_elt_from_step(4);
        let c = tool.galois_elt_from_step(7);
        assert_eq!(a * b % 512, c);
    }

    #[test]
    fn apply_identity_automorphism() {
        let tool = GaloisTool::new(8);
        let q = Modulus::new(97).unwrap();
        let input: Vec<u64> = (0..8).collect();
        let mut output = vec![0u64; 8];
        tool.apply(&input, 1, &q, &mut output);
        assert_eq!(output, input);
    }

    #[test]
    fn ntt_permutation_is_identity_for_element_one() {
        let tool = GaloisTool::new(32);
        let table = tool.ntt_permutation(1);
        assert!(table.iter().enumerate().all(|(i, &t)| t as usize == i));
    }

    #[test]
    fn ntt_permutation_matches_coefficient_domain_path() {
        // The NTT-domain gather must be bit-identical to the reference
        // route: inverse NTT -> coefficient-domain automorphism -> forward
        // NTT. Pinned across degrees, moduli and Galois elements (rotation
        // elements 5^k and the conjugation element 2N-1).
        for (degree, q) in [(8usize, 97u64), (32, 7681), (64, 7681), (256, 65537)] {
            let modulus = Modulus::new(q).unwrap();
            let tables = NttTables::new(degree, modulus).unwrap();
            let tool = GaloisTool::new(degree);
            let mut elements: Vec<u64> = (0..5).map(|s| tool.galois_elt_from_step(s)).collect();
            elements.push(tool.galois_elt_from_step(-3));
            elements.push(tool.galois_elt_conjugate());
            let input: Vec<u64> = (0..degree as u64).map(|i| (i * 31 + 7) % q).collect();
            let mut input_ntt = input.clone();
            tables.forward(&mut input_ntt);
            for elt in elements {
                let mut expected = vec![0u64; degree];
                tool.apply(&input, elt, &modulus, &mut expected);
                tables.forward(&mut expected);

                let table = tool.ntt_permutation(elt);
                let mut actual = vec![0u64; degree];
                tool.apply_ntt(&input_ntt, &table, &mut actual);
                assert_eq!(actual, expected, "degree {degree}, q {q}, elt {elt}");
            }
        }
    }

    #[test]
    fn apply_wraps_and_negates_correctly() {
        let tool = GaloisTool::new(8);
        let q = Modulus::new(97).unwrap();
        // X^7 under X -> X^3 becomes X^21 = (X^8)^2 * X^5 = X^5 (no sign flip).
        let mut input = vec![0u64; 8];
        input[7] = 2;
        let mut output = vec![0u64; 8];
        tool.apply(&input, 3, &q, &mut output);
        let mut expected = vec![0u64; 8];
        expected[5] = 2;
        assert_eq!(output, expected);

        // X^3 under X -> X^3 becomes X^9 = -X^1 (one wrap past X^8 flips the sign).
        let mut input = vec![0u64; 8];
        input[3] = 2;
        tool.apply(&input, 3, &q, &mut output.clone());
        let mut output2 = vec![0u64; 8];
        tool.apply(&input, 3, &q, &mut output2);
        let mut expected2 = vec![0u64; 8];
        expected2[1] = 97 - 2;
        assert_eq!(output2, expected2);
    }
}
