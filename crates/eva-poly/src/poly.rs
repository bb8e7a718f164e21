//! RNS polynomials and their ring operations.
//!
//! # Storage layout and reduction invariants
//!
//! An [`RnsPoly`] stores all residue rows in **one contiguous `Vec<u64>`**
//! with stride `degree` (row `i` occupies `data[i*degree .. (i+1)*degree]`),
//! so level-`r` kernels stream a single dense allocation instead of chasing
//! `r` separate heap vectors. Rows are accessed through [`RnsPoly::residue`] /
//! [`RnsPoly::residue_mut`] / [`RnsPoly::rows`]; the flat buffer itself can be
//! taken with [`RnsPoly::into_flat`].
//!
//! Every stored coefficient is always a **canonical** residue in `[0, q_i)`.
//! The kernels may use the lazy-reduction primitives of
//! [`eva_math::modulus`](eva_math::Modulus) internally (outputs in `[0, 2q)` /
//! `[0, 4q)`), but they restore the canonical invariant before returning, so
//! callers never observe a lazy representative.

use std::hint::select_unpredictable;

use eva_math::galois::GaloisTool;

use crate::basis::RnsBasis;

/// Representation domain of an [`RnsPoly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyForm {
    /// Coefficient domain: residue `i` holds the polynomial coefficients mod `q_i`.
    Coeff,
    /// Evaluation (NTT) domain: residue `i` holds the NTT of the coefficients mod `q_i`.
    Ntt,
}

/// A polynomial of `Z_Q[X]/(X^N+1)` stored residue-wise over a prefix of an
/// [`RnsBasis`] prime chain, in one contiguous buffer of stride `N`.
///
/// The number of stored residues is the polynomial's *level* (the paper's
/// `r` for that ciphertext); RESCALE and MODSWITCH shrink it from the back.
#[derive(Debug, Clone, PartialEq)]
pub struct RnsPoly {
    degree: usize,
    level: usize,
    /// Residue rows, row-major: `data[i*degree + j]` is coefficient `j` mod `q_i`.
    data: Vec<u64>,
    form: PolyForm,
}

impl RnsPoly {
    /// A zero polynomial with `level` residues of the given degree and form.
    ///
    /// # Panics
    ///
    /// Panics if `degree` or `level` is zero.
    pub fn zero(degree: usize, level: usize, form: PolyForm) -> Self {
        assert!(degree > 0, "degree must be positive");
        assert!(level > 0, "polynomial must have at least one residue");
        Self {
            degree,
            level,
            data: vec![0u64; degree * level],
            form,
        }
    }

    /// Builds a polynomial from a flat row-major residue buffer
    /// (`data[i*degree + j]` = coefficient `j` mod `q_i`).
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or `data.len()` is not a positive multiple
    /// of `degree`.
    pub fn from_flat(degree: usize, data: Vec<u64>, form: PolyForm) -> Self {
        assert!(degree > 0, "degree must be positive");
        assert!(
            !data.is_empty() && data.len().is_multiple_of(degree),
            "flat buffer length {} is not a positive multiple of degree {degree}",
            data.len()
        );
        let level = data.len() / degree;
        Self {
            degree,
            level,
            data,
            form,
        }
    }

    /// Consumes the polynomial, returning its flat row-major residue buffer.
    pub fn into_flat(self) -> Vec<u64> {
        self.data
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of residues (primes) this polynomial currently spans.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The representation domain.
    #[inline]
    pub fn form(&self) -> PolyForm {
        self.form
    }

    /// Residue row `i` (the polynomial modulo `q_i`).
    #[inline]
    pub fn residue(&self, i: usize) -> &[u64] {
        &self.data[i * self.degree..(i + 1) * self.degree]
    }

    /// Mutable residue row `i`.
    #[inline]
    pub fn residue_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.degree..(i + 1) * self.degree]
    }

    /// Iterator over the residue rows, in chain order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.degree)
    }

    /// Mutable iterator over the residue rows, in chain order.
    #[inline]
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [u64]> {
        self.data.chunks_exact_mut(self.degree)
    }

    fn check_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.degree, other.degree, "degree mismatch");
        assert_eq!(self.level, other.level, "level mismatch");
        assert_eq!(self.form, other.form, "form mismatch");
    }

    fn check_basis(&self, basis: &RnsBasis) {
        assert_eq!(self.degree, basis.degree(), "basis degree mismatch");
        assert!(
            self.level <= basis.len(),
            "polynomial level {} exceeds basis length {}",
            self.level,
            basis.len()
        );
    }

    /// Converts the polynomial to NTT form in place (no-op if already NTT).
    pub fn to_ntt(&mut self, basis: &RnsBasis) {
        self.check_basis(basis);
        if self.form == PolyForm::Ntt {
            return;
        }
        for (row, tables) in self
            .data
            .chunks_exact_mut(self.degree)
            .zip(basis.ntt_tables())
        {
            tables.forward(row);
        }
        self.form = PolyForm::Ntt;
    }

    /// Converts the polynomial to coefficient form in place (no-op if already
    /// in coefficient form).
    pub fn to_coeff(&mut self, basis: &RnsBasis) {
        self.check_basis(basis);
        if self.form == PolyForm::Coeff {
            return;
        }
        for (row, tables) in self
            .data
            .chunks_exact_mut(self.degree)
            .zip(basis.ntt_tables())
        {
            tables.inverse(row);
        }
        self.form = PolyForm::Coeff;
    }

    /// `self += other` (element-wise per residue), in place and without
    /// allocating. Operands must agree in degree, level and form.
    pub fn add_assign(&mut self, other: &RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        self.check_basis(basis);
        for (i, (row, other_row)) in self.rows_mut_with(other) {
            let q = &basis.moduli()[i];
            for (a, &b) in row.iter_mut().zip(other_row) {
                *a = q.add(*a, b);
            }
        }
    }

    /// `self -= other`, in place and without allocating.
    pub fn sub_assign(&mut self, other: &RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        self.check_basis(basis);
        for (i, (row, other_row)) in self.rows_mut_with(other) {
            let q = &basis.moduli()[i];
            for (a, &b) in row.iter_mut().zip(other_row) {
                *a = q.sub(*a, b);
            }
        }
    }

    /// `self = -self`.
    pub fn negate(&mut self, basis: &RnsBasis) {
        self.check_basis(basis);
        for (i, row) in self.data.chunks_exact_mut(self.degree).enumerate() {
            let q = &basis.moduli()[i];
            for a in row.iter_mut() {
                *a = q.neg(*a);
            }
        }
    }

    /// `self *= other` element-wise in the evaluation domain (dyadic product),
    /// in place and without allocating.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not in NTT form.
    pub fn dyadic_mul_assign(&mut self, other: &RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        self.check_basis(basis);
        assert_eq!(self.form, PolyForm::Ntt, "dyadic product requires NTT form");
        for (i, (row, other_row)) in self.rows_mut_with(other) {
            let q = &basis.moduli()[i];
            for (a, &b) in row.iter_mut().zip(other_row) {
                *a = q.mul(*a, b);
            }
        }
    }

    /// Returns the dyadic product `self * other` without modifying the
    /// operands. The returned polynomial is the only allocation.
    pub fn dyadic_mul(&self, other: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        let mut result = self.clone();
        result.dyadic_mul_assign(other, basis);
        result
    }

    /// `acc += self * other` element-wise in the evaluation domain, fused so
    /// no product temporary is materialized.
    ///
    /// # Panics
    ///
    /// Panics if operands are not in NTT form or have mismatched shapes.
    pub fn dyadic_mul_acc(&self, other: &RnsPoly, acc: &mut RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        self.check_compatible(acc);
        assert_eq!(self.form, PolyForm::Ntt, "dyadic product requires NTT form");
        let degree = self.degree;
        for i in 0..self.level {
            let q = &basis.moduli()[i];
            let a_row = &self.data[i * degree..(i + 1) * degree];
            let b_row = &other.data[i * degree..(i + 1) * degree];
            let acc_row = &mut acc.data[i * degree..(i + 1) * degree];
            for ((acc_v, &a), &b) in acc_row.iter_mut().zip(a_row).zip(b_row) {
                *acc_v = q.add(*acc_v, q.mul(a, b));
            }
        }
    }

    /// Multiplies every residue by a scalar (given as an unreduced `u64`).
    pub fn mul_scalar(&mut self, scalar: u64, basis: &RnsBasis) {
        self.check_basis(basis);
        for (i, row) in self.data.chunks_exact_mut(self.degree).enumerate() {
            let q = &basis.moduli()[i];
            let s = q.reduce(scalar);
            let pre = q.shoup(s);
            for a in row.iter_mut() {
                *a = q.mul_shoup(*a, &pre);
            }
        }
    }

    /// Drops the last residue (the paper's MODSWITCH on the polynomial layer).
    ///
    /// # Panics
    ///
    /// Panics if only one residue remains.
    pub fn drop_last(&mut self) {
        assert!(self.level > 1, "cannot drop the last remaining RNS residue");
        self.level -= 1;
        self.data.truncate(self.level * self.degree);
    }

    /// Divides the polynomial by the last prime of its chain (with rounding
    /// towards the RNS floor), dropping that prime — the polynomial layer of
    /// the paper's RESCALE. Works in either representation form and preserves
    /// the form of `self`.
    ///
    /// Uses two reusable row-sized scratch buffers (the inverse-transformed
    /// last residue and one delta row shared across all remaining primes); no
    /// per-prime allocation.
    ///
    /// # Panics
    ///
    /// Panics if only one residue remains.
    pub fn rescale_by_last(&mut self, basis: &RnsBasis) {
        self.check_basis(basis);
        assert!(self.level > 1, "cannot rescale a single-prime polynomial");
        let degree = self.degree;
        let last_idx = self.level - 1;
        let q_last = basis.moduli()[last_idx];

        // Bring the last residue into coefficient form so its integer
        // representative can be reduced modulo every remaining prime.
        let mut last_coeff = self.residue(last_idx).to_vec();
        if self.form == PolyForm::Ntt {
            basis.ntt_tables()[last_idx].inverse(&mut last_coeff);
        }
        let half_q_last = q_last.value() / 2;

        let mut delta = vec![0u64; degree];
        for (i, consts) in basis.drop_constants(last_idx).iter().enumerate() {
            let q_i = &basis.moduli()[i];
            // delta = centered representative of the last residue, reduced
            // mod q_i; above q_last/2 it is the negative one, c - q_last.
            for (d, &c) in delta.iter_mut().zip(&last_coeff) {
                let r = q_i.reduce(c);
                *d = select_unpredictable(c > half_q_last, q_i.sub(r, consts.residue), r);
            }
            if self.form == PolyForm::Ntt {
                basis.ntt_tables()[i].forward(&mut delta);
            }
            let row = &mut self.data[i * degree..(i + 1) * degree];
            for (a, &d) in row.iter_mut().zip(&delta) {
                *a = q_i.mul_shoup(q_i.sub(*a, d), &consts.inverse);
            }
        }
        self.level = last_idx;
        self.data.truncate(self.level * degree);
    }

    /// Applies the Galois automorphism `X ↦ X^galois_elt` and returns the
    /// transformed polynomial (the returned polynomial is the only
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is not in coefficient form.
    pub fn apply_galois(&self, galois_elt: u64, basis: &RnsBasis) -> RnsPoly {
        self.check_basis(basis);
        assert_eq!(
            self.form,
            PolyForm::Coeff,
            "Galois automorphisms are applied in coefficient form"
        );
        let tool = GaloisTool::new(self.degree);
        let mut out = RnsPoly::zero(self.degree, self.level, PolyForm::Coeff);
        for (i, (src, dst)) in self
            .rows()
            .zip(out.data.chunks_exact_mut(self.degree))
            .enumerate()
        {
            tool.apply(src, galois_elt, &basis.moduli()[i], dst);
        }
        out
    }

    /// Applies a precomputed NTT-domain Galois permutation (from
    /// [`GaloisTool::ntt_permutation`]) to every residue row, returning the
    /// permuted polynomial. A pure gather — no modular arithmetic and no
    /// transform — so the same table serves all rows regardless of their
    /// moduli.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is not in NTT form or the table length does
    /// not match the ring degree.
    pub fn permute_ntt(&self, table: &[u32]) -> RnsPoly {
        assert_eq!(
            self.form,
            PolyForm::Ntt,
            "NTT-domain Galois permutations require NTT form"
        );
        assert_eq!(table.len(), self.degree, "permutation table length");
        let mut out = RnsPoly::zero(self.degree, self.level, PolyForm::Ntt);
        for (src, dst) in self.rows().zip(out.data.chunks_exact_mut(self.degree)) {
            for (o, &t) in dst.iter_mut().zip(table) {
                *o = src[t as usize];
            }
        }
        out
    }

    /// Returns a copy of this polynomial restricted to its first `level`
    /// residues (the same polynomial under a smaller prefix of the chain).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the current level.
    pub fn truncated(&self, level: usize) -> RnsPoly {
        assert!(
            level >= 1 && level <= self.level,
            "cannot truncate level {} polynomial to level {level}",
            self.level
        );
        RnsPoly {
            degree: self.degree,
            level,
            data: self.data[..level * self.degree].to_vec(),
            form: self.form,
        }
    }

    /// True if every residue of the polynomial is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&c| c == 0)
    }

    /// Pairs each mutable row of `self` with the matching row of `other`,
    /// yielding `(prime_index, (self_row, other_row))`.
    fn rows_mut_with<'a>(
        &'a mut self,
        other: &'a RnsPoly,
    ) -> impl Iterator<Item = (usize, (&'a mut [u64], &'a [u64]))> {
        self.data
            .chunks_exact_mut(self.degree)
            .zip(other.data.chunks_exact(other.degree))
            .enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::RnsBasis;
    use eva_math::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn basis(degree: usize, bits: &[u32]) -> RnsBasis {
        let primes = generate_ntt_primes(degree, bits).unwrap();
        RnsBasis::new(degree, &primes).unwrap()
    }

    fn random_poly(basis: &RnsBasis, level: usize, seed: u64) -> RnsPoly {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut poly = RnsPoly::zero(basis.degree(), level, PolyForm::Coeff);
        for i in 0..level {
            let q = basis.moduli()[i].value();
            for v in poly.residue_mut(i) {
                *v = rng.gen_range(0..q);
            }
        }
        poly
    }

    #[test]
    fn flat_layout_round_trips() {
        let poly = RnsPoly::from_flat(4, (0u64..12).collect(), PolyForm::Coeff);
        assert_eq!(poly.level(), 3);
        assert_eq!(poly.degree(), 4);
        assert_eq!(poly.residue(1), &[4, 5, 6, 7]);
        assert_eq!(poly.rows().count(), 3);
        assert_eq!(poly.into_flat(), (0u64..12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn from_flat_rejects_ragged_buffer() {
        RnsPoly::from_flat(4, vec![0u64; 7], PolyForm::Coeff);
    }

    #[test]
    fn add_sub_are_inverses() {
        let b = basis(32, &[30, 30, 40]);
        let mut a = random_poly(&b, 3, 1);
        let original = a.clone();
        let c = random_poly(&b, 3, 2);
        a.add_assign(&c, &b);
        a.sub_assign(&c, &b);
        assert_eq!(a, original);
    }

    #[test]
    fn negate_twice_is_identity() {
        let b = basis(32, &[30, 30]);
        let mut a = random_poly(&b, 2, 3);
        let original = a.clone();
        a.negate(&b);
        assert_ne!(a, original);
        a.negate(&b);
        assert_eq!(a, original);
    }

    #[test]
    fn ntt_roundtrip_preserves_polynomial() {
        let b = basis(64, &[40, 50]);
        let mut a = random_poly(&b, 2, 4);
        let original = a.clone();
        a.to_ntt(&b);
        assert_eq!(a.form(), PolyForm::Ntt);
        a.to_coeff(&b);
        assert_eq!(a, original);
    }

    #[test]
    fn dyadic_mul_matches_naive_multiplication() {
        let b = basis(32, &[40]);
        let q = &b.moduli()[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let ac: Vec<u64> = (0..32).map(|_| rng.gen_range(0..q.value())).collect();
        let bc: Vec<u64> = (0..32).map(|_| rng.gen_range(0..q.value())).collect();
        let expected = eva_math::ntt::negacyclic_multiply_naive(&ac, &bc, q);

        let mut pa = RnsPoly::from_flat(32, ac, PolyForm::Coeff);
        let mut pb = RnsPoly::from_flat(32, bc, PolyForm::Coeff);
        pa.to_ntt(&b);
        pb.to_ntt(&b);
        let mut prod = pa.dyadic_mul(&pb, &b);
        prod.to_coeff(&b);
        assert_eq!(prod.residue(0), expected.as_slice());
    }

    #[test]
    fn dyadic_mul_acc_accumulates_products() {
        let b = basis(32, &[40, 50]);
        let mut pa = random_poly(&b, 2, 20);
        let mut pb = random_poly(&b, 2, 21);
        pa.to_ntt(&b);
        pb.to_ntt(&b);
        let mut acc = pa.dyadic_mul(&pb, &b);
        pa.dyadic_mul_acc(&pb, &mut acc, &b);
        // acc == 2 * (pa ∘ pb)
        let mut twice = pa.dyadic_mul(&pb, &b);
        let copy = twice.clone();
        twice.add_assign(&copy, &b);
        assert_eq!(acc, twice);
    }

    #[test]
    fn mul_scalar_matches_elementwise() {
        let b = basis(16, &[30, 31]);
        let coeffs: Vec<i64> = (0..16).collect();
        let mut a = b.poly_from_signed(&coeffs, 2);
        a.mul_scalar(7, &b);
        for (i, &c) in coeffs.iter().enumerate() {
            assert_eq!(a.residue(0)[i], (c * 7) as u64 % b.moduli()[0].value());
        }
    }

    #[test]
    fn rescale_divides_scaled_constant() {
        // Encode the constant polynomial v * q_last (exactly divisible), rescale,
        // and expect the constant polynomial v at one level lower.
        let b = basis(16, &[30, 30, 40]);
        let q_last = b.moduli()[2].value();
        let v = 12345i128;
        let mut coeffs = vec![0i128; 16];
        coeffs[0] = v * q_last as i128;
        coeffs[3] = -v * q_last as i128;
        let mut a = b.poly_from_i128(&coeffs, 3);
        a.rescale_by_last(&b);
        assert_eq!(a.level(), 2);
        assert_eq!(a.residue(0)[0], v as u64);
        assert_eq!(a.residue(1)[0], v as u64);
        assert_eq!(a.residue(0)[3], b.moduli()[0].value() - v as u64);
    }

    #[test]
    fn rescale_matches_per_coefficient_i128_reference() {
        // out_i = (a_i - centered(a_last)) * q_last^-1 mod q_i, where the
        // centered lift is a_last if a_last <= q_last/2, else a_last - q_last.
        // The last row holds both sides of that boundary; the two bases put
        // q_last above and below the remaining primes.
        for bits in [[30, 30, 40], [50, 40, 30]] {
            let b = basis(16, &bits);
            let q_last = b.moduli()[2].value();
            let half = q_last / 2;
            let mut a = random_poly(&b, 3, 8);
            a.residue_mut(2)[..4].copy_from_slice(&[half, half + 1, 0, q_last - 1]);
            let original = a.clone();
            a.rescale_by_last(&b);
            for (i, q_i) in b.moduli()[..2].iter().enumerate() {
                let q = q_i.value() as i128;
                let inv = q_i.inv(q_last).expect("distinct primes") as i128;
                let rows = original.residue(i).iter().zip(original.residue(2));
                for (j, (&x, &c)) in rows.enumerate() {
                    let centered = if c > half {
                        c as i128 - q_last as i128
                    } else {
                        c as i128
                    };
                    let expected = (x as i128 - centered).rem_euclid(q) * inv % q;
                    assert_eq!(a.residue(i)[j] as i128, expected, "prime {i} coeff {j}");
                }
            }
        }
    }

    #[test]
    fn rescale_in_ntt_form_matches_coeff_form() {
        let b = basis(32, &[30, 30, 40]);
        let mut coeff_version = random_poly(&b, 3, 5);
        let mut ntt_version = coeff_version.clone();
        coeff_version.rescale_by_last(&b);
        ntt_version.to_ntt(&b);
        ntt_version.rescale_by_last(&b);
        ntt_version.to_coeff(&b);
        assert_eq!(coeff_version, ntt_version);
    }

    #[test]
    fn drop_last_reduces_level() {
        let b = basis(16, &[20, 21, 22]);
        let mut a = random_poly(&b, 3, 6);
        a.drop_last();
        assert_eq!(a.level(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot drop")]
    fn drop_last_panics_at_level_one() {
        let b = basis(16, &[20]);
        let mut a = random_poly(&b, 1, 7);
        a.drop_last();
    }

    #[test]
    fn permute_ntt_matches_coefficient_domain_galois() {
        let b = basis(32, &[40, 41]);
        let tool = GaloisTool::new(32);
        for (seed, step) in [(3u64, 1i64), (4, 5), (5, -2)] {
            let elt = tool.galois_elt_from_step(step);
            let a = random_poly(&b, 2, seed);
            let mut expected = a.apply_galois(elt, &b);
            expected.to_ntt(&b);
            let mut a_ntt = a.clone();
            a_ntt.to_ntt(&b);
            let actual = a_ntt.permute_ntt(&tool.ntt_permutation(elt));
            assert_eq!(actual, expected);
        }
    }

    #[test]
    fn galois_composition_matches_single_application() {
        let b = basis(32, &[40]);
        let a = random_poly(&b, 1, 8);
        // Applying g twice equals applying g^2 mod 2N.
        let g = 5u64;
        let twice = a.apply_galois(g, &b).apply_galois(g, &b);
        let composed = a.apply_galois(g * g % 64, &b);
        assert_eq!(twice, composed);
    }

    #[test]
    fn apply_galois_is_ring_homomorphism_for_multiplication() {
        // galois(a*b) == galois(a) * galois(b)
        let b = basis(32, &[40]);
        let pa = random_poly(&b, 1, 10);
        let pb = random_poly(&b, 1, 11);
        let g = 9u64; // 5^2 mod 64 = 25? any odd unit works; use 9 = 3^2.

        let mut na = pa.clone();
        let mut nb = pb.clone();
        na.to_ntt(&b);
        nb.to_ntt(&b);
        let mut prod = na.dyadic_mul(&nb, &b);
        prod.to_coeff(&b);
        let lhs = prod.apply_galois(g, &b);

        let mut ga = pa.apply_galois(g, &b);
        let mut gb = pb.apply_galois(g, &b);
        ga.to_ntt(&b);
        gb.to_ntt(&b);
        let mut rhs = ga.dyadic_mul(&gb, &b);
        rhs.to_coeff(&b);
        assert_eq!(lhs, rhs);
    }
}
