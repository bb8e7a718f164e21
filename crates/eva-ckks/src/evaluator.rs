//! Homomorphic evaluation: the operations the EVA instruction set lowers to.
//!
//! Every EVA opcode of the paper's Table 2 maps onto exactly one method here:
//! NEGATE → [`Evaluator::negate`], ADD/SUB → [`Evaluator::add`] /
//! [`Evaluator::sub`] (or the `_plain` variants), MULTIPLY →
//! [`Evaluator::multiply`] / [`Evaluator::multiply_plain`], ROTATELEFT /
//! ROTATERIGHT → [`Evaluator::rotate`], RELINEARIZE →
//! [`Evaluator::relinearize`], MODSWITCH → [`Evaluator::mod_switch_to_next`]
//! and RESCALE → [`Evaluator::rescale_to_next`].
//!
//! The methods enforce the same operand constraints SEAL enforces (equal
//! levels for binary operations, equal scales for addition, at most two
//! polynomials before a multiplication), returning [`CkksError`] instead of
//! panicking — these are the runtime exceptions the EVA compiler's validation
//! pass is designed to rule out ahead of time.
//!
//! # Transform counts
//!
//! A key switch at level `l` executes `l² + 3l + 2` NTTs: `l` inverse
//! transforms of the target, `l²` forward transforms of the lifted digits
//! and `l + 1` (one inverse, `l` forward) in each of the two mod-downs. The
//! textbook count has `l` more — digit `j` lifted to its own prime `q_j` —
//! but reducing a residue of `q_j` modulo `q_j` changes nothing, so that
//! row's forward NTT is the target's NTT row the decomposition started
//! from, and [`Evaluator::key_switch_digit`] copies it. The copy is
//! bit-exact because stored rows are canonical and the NTT is a bijection on
//! canonical rows. The constants of the two flooring divisions
//! (`P⁻¹`, `P mod q_i` here; `q_last⁻¹` in RESCALE) come from
//! [`eva_poly::RnsBasis::drop_constants`], computed once per context.
//!
//! # A key switch is its pieces
//!
//! Nothing in a switch is private to one call. The decomposition is `l`
//! independent digits ([`Evaluator::key_switch_digit`]), and applying a key
//! to it ([`Evaluator::relinearize_decomposed`],
//! [`Evaluator::rotate_decomposed`]) needs only the digits, the key and a
//! [`KeySwitchScratch`] its caller owns. [`Evaluator::relinearize`],
//! [`Evaluator::rotate`] and [`Evaluator::rotate_hoisted`] run those pieces
//! in order on one thread; a scheduler may run them as separate tasks, and
//! the bits cannot tell.
//!
//! # One key-switch kernel, and why its sum is exact
//!
//! Between the decomposition and the two mod-downs sits the only digit × key
//! loop in the crate, [`Evaluator::apply_key_switch`], shared by
//! RELINEARIZE, ROTATE and hoisted fan-outs. It needs nothing precomputed
//! per key: it adds the `l` products `d_j · k_j` **unreduced** in a `u128`
//! and Barrett-reduces the sum once. With canonical operands a product is
//! below `q²`, so the sum is the true integer iff `l · q_max² < 2^128`:
//! [`CkksContext::new`] refuses longer chains (about 128 sixty-bit primes),
//! digits and generated key rows are canonical by construction, and the
//! service validates uploaded ones. An exact sum reduced once is congruent
//! to reducing every term, and both mod-downs canonicalize, so outputs are
//! bit-identical to a reduce-per-term kernel.

use std::hint::select_unpredictable;

use eva_poly::{PolyForm, RnsPoly};

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoder::Plaintext;
use crate::error::CkksError;
use crate::keys::{GaloisKeys, KeySwitchKey, RelinearizationKey};

/// Reusable RNS decomposition of a key-switch target.
///
/// Produced by [`Evaluator::decompose_for_key_switch`], or assembled from
/// separately computed digits by [`KeySwitchDecomposition::from_digits`]:
/// for each data prime `q_j` of the target's chain it holds the digit
/// `target mod q_j` lifted to every modulus of the extended basis (data
/// primes + special prime) in NTT form. Decomposing costs `l(l+1)` NTTs and is independent of the key being
/// applied, so a rotation fan-out decomposes its source **once** and applies
/// each Galois key to the shared digits — hoisted key-switching. The
/// automorphism commutes with the decomposition (it is a pure NTT-domain
/// permutation, applied after the key as the mod-down reads the
/// accumulators), which is what makes the sharing sound.
#[derive(Debug, Clone)]
pub struct KeySwitchDecomposition {
    level: usize,
    digits: Vec<RnsPoly>,
}

impl KeySwitchDecomposition {
    /// Assembles a decomposition from its digits, one per data prime in
    /// prime order, each from [`Evaluator::key_switch_digit`] on the same
    /// target — what a scheduler that ran the digits as separate tasks hands
    /// back to the evaluator.
    ///
    /// # Panics
    ///
    /// Panics if a digit does not span the `digits.len() + 1` moduli of the
    /// extended basis.
    pub fn from_digits(digits: Vec<RnsPoly>) -> Self {
        let level = digits.len();
        assert!(
            digits.iter().all(|d| d.level() == level + 1),
            "every digit spans the data primes plus the special prime"
        );
        Self { level, digits }
    }

    /// Number of data primes in the decomposed target's chain.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The lifted digits: `digits()[j]` spans `level() + 1` NTT rows, where
    /// row `pos < level()` is modulus `q_pos` and the last row is the special
    /// prime.
    pub fn digits(&self) -> &[RnsPoly] {
        &self.digits
    }
}

/// The work buffers of a key switch — the extended accumulator pair plus
/// the special-row and delta rows of the mod-down — owned by whoever runs
/// switches one after another, such as an executor worker.
///
/// It starts empty, grows to the highest level it has been used at and is
/// sliced per call, so a run's megabytes of intermediates are mapped and
/// faulted once per owner rather than once per switch, and a program with
/// no key switch allocates nothing. Every area is fully overwritten before
/// it is read: what an earlier switch left behind cannot reach a result.
#[derive(Debug, Default)]
pub struct KeySwitchScratch {
    words: Vec<u64>,
}

impl KeySwitchScratch {
    /// The `acc0`, `acc1` (`(level + 1) · n` each), `special` (`n`) and
    /// `delta` (`level · n`) areas of one switch.
    fn areas(&mut self, level: usize, n: usize) -> [&mut [u64]; 4] {
        let ext = (level + 1) * n;
        let words = 2 * ext + n + level * n;
        if self.words.len() < words {
            self.words = vec![0u64; words];
        }
        let (acc0, rest) = self.words.split_at_mut(ext);
        let (acc1, rest) = rest.split_at_mut(ext);
        let (special, rest) = rest.split_at_mut(n);
        [acc0, acc1, special, &mut rest[..level * n]]
    }
}

fn check_size(ct: &Ciphertext, expected: usize) -> Result<(), CkksError> {
    if ct.size() != expected {
        return Err(CkksError::InvalidCiphertextSize {
            found: ct.size(),
            expected,
        });
    }
    Ok(())
}

/// Stateless homomorphic evaluator bound to one [`CkksContext`].
#[derive(Debug, Clone)]
pub struct Evaluator {
    context: CkksContext,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(context: CkksContext) -> Self {
        Self { context }
    }

    /// The context this evaluator operates under.
    pub fn context(&self) -> &CkksContext {
        &self.context
    }

    fn check_binary(&self, a: &Ciphertext, b: &Ciphertext) -> Result<(), CkksError> {
        if a.level() != b.level() {
            return Err(CkksError::LevelMismatch {
                left: a.level(),
                right: b.level(),
            });
        }
        Ok(())
    }

    /// Scales are compared with **exact** `f64` equality. There is no drift
    /// tolerance: the compiler's exact-scale phase tracks scales with the
    /// same `f64` arithmetic performed here (against the same primes), so a
    /// mismatch is a genuine constraint violation, never inherent prime
    /// drift.
    fn check_scales(&self, a: f64, b: f64) -> Result<(), CkksError> {
        if a != b {
            return Err(CkksError::ScaleMismatch { left: a, right: b });
        }
        Ok(())
    }

    fn check_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Result<(), CkksError> {
        if ct.level() != pt.level {
            return Err(CkksError::PlaintextLevelMismatch {
                ciphertext: ct.level(),
                plaintext: pt.level,
            });
        }
        Ok(())
    }

    /// Negates every encrypted slot.
    pub fn negate(&self, ct: &Ciphertext) -> Ciphertext {
        let basis = self.context.key_basis();
        let polys = ct
            .polys()
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.negate(basis);
                p
            })
            .collect();
        Ciphertext::from_parts(polys, ct.scale_log2(), ct.level())
    }

    /// Adds two ciphertexts element-wise.
    ///
    /// # Errors
    ///
    /// Fails if the operands differ in level (Constraint 1) or scale
    /// (Constraint 2).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.check_binary(a, b)?;
        self.check_scales(a.scale_log2(), b.scale_log2())?;
        let basis = self.context.key_basis();
        let size = a.size().max(b.size());
        let level = a.level();
        let mut polys = Vec::with_capacity(size);
        for i in 0..size {
            let poly = match (a.polys().get(i), b.polys().get(i)) {
                (Some(x), Some(y)) => {
                    let mut x = x.clone();
                    x.add_assign(y, basis);
                    x
                }
                (Some(x), None) => x.clone(),
                (None, Some(y)) => y.clone(),
                (None, None) => unreachable!(),
            };
            polys.push(poly);
        }
        Ok(Ciphertext::from_parts(polys, a.scale_log2(), level))
    }

    /// Subtracts `b` from `a` element-wise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::add`].
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let negated = self.negate(b);
        self.add(a, &negated)
    }

    /// Adds an encoded plaintext to a ciphertext.
    ///
    /// # Errors
    ///
    /// Fails if levels or scales disagree.
    pub fn add_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        self.check_plain(ct, pt)?;
        self.check_scales(ct.scale_log2(), pt.scale_log2)?;
        let basis = self.context.key_basis();
        let mut polys: Vec<RnsPoly> = ct.polys().to_vec();
        polys[0].add_assign(&pt.poly, basis);
        Ok(Ciphertext::from_parts(polys, ct.scale_log2(), ct.level()))
    }

    /// Subtracts an encoded plaintext from a ciphertext.
    ///
    /// # Errors
    ///
    /// Fails if levels or scales disagree.
    pub fn sub_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        self.check_plain(ct, pt)?;
        self.check_scales(ct.scale_log2(), pt.scale_log2)?;
        let basis = self.context.key_basis();
        let mut polys: Vec<RnsPoly> = ct.polys().to_vec();
        polys[0].sub_assign(&pt.poly, basis);
        Ok(Ciphertext::from_parts(polys, ct.scale_log2(), ct.level()))
    }

    /// Multiplies two ciphertexts element-wise. The result has three
    /// polynomials and the product of the operand scales; relinearize to bring
    /// it back to two polynomials.
    ///
    /// # Errors
    ///
    /// Fails if levels disagree (Constraint 1) or either operand has more than
    /// two polynomials (Constraint 3).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.check_binary(a, b)?;
        if a.size() != 2 {
            return Err(CkksError::TooManyPolynomials { size: a.size() });
        }
        if b.size() != 2 {
            return Err(CkksError::TooManyPolynomials { size: b.size() });
        }
        let basis = self.context.key_basis();
        let (a0, a1) = (&a.polys()[0], &a.polys()[1]);
        let (b0, b1) = (&b.polys()[0], &b.polys()[1]);
        // The three output polynomials are the only allocations: the cross
        // term accumulates into c1 via the fused dyadic kernel instead of
        // materializing `a1 * b0` separately.
        let c0 = a0.dyadic_mul(b0, basis);
        let mut c1 = a0.dyadic_mul(b1, basis);
        a1.dyadic_mul_acc(b0, &mut c1, basis);
        let c2 = a1.dyadic_mul(b1, basis);
        Ok(Ciphertext::from_parts(
            vec![c0, c1, c2],
            a.scale_log2() + b.scale_log2(),
            a.level(),
        ))
    }

    /// Multiplies a ciphertext by an encoded plaintext element-wise. The
    /// result scale is the product of the two scales.
    ///
    /// # Errors
    ///
    /// Fails if the plaintext level does not match the ciphertext level.
    pub fn multiply_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        self.check_plain(ct, pt)?;
        let basis = self.context.key_basis();
        let polys = ct
            .polys()
            .iter()
            .map(|p| p.dyadic_mul(&pt.poly, basis))
            .collect();
        Ok(Ciphertext::from_parts(
            polys,
            ct.scale_log2() + pt.scale_log2,
            ct.level(),
        ))
    }

    /// Squares a ciphertext (shorthand for multiplying it by itself).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::multiply`].
    pub fn square(&self, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.multiply(ct, ct)
    }

    /// Reduces a three-polynomial ciphertext back to two polynomials using the
    /// relinearization key (the paper's RELINEARIZE instruction): decomposes
    /// `c2` and hands it to [`Evaluator::relinearize_decomposed`].
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext does not have exactly three polynomials.
    pub fn relinearize(
        &self,
        ct: &Ciphertext,
        key: &RelinearizationKey,
    ) -> Result<Ciphertext, CkksError> {
        check_size(ct, 3)?;
        let decomp = self.decompose_for_key_switch(&ct.polys()[2], ct.level());
        self.relinearize_decomposed(ct, key, &decomp, &mut KeySwitchScratch::default())
    }

    /// The key-dependent half of [`Evaluator::relinearize`]: applies the
    /// relinearization key to `decomp`, the decomposition of `ct`'s third
    /// polynomial (however its digits were computed), using the caller's
    /// work buffers.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext does not have exactly three polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `decomp` was not taken at `ct`'s level.
    pub fn relinearize_decomposed(
        &self,
        ct: &Ciphertext,
        key: &RelinearizationKey,
        decomp: &KeySwitchDecomposition,
        scratch: &mut KeySwitchScratch,
    ) -> Result<Ciphertext, CkksError> {
        check_size(ct, 3)?;
        // Switch `c2` from `s²` to `s`: `c0` is folded into the mod-down,
        // `c1` accumulated into the owned output — no cloned temporaries.
        let (d0, mut d1) = self.finish_key_switch(ct, decomp, &key.key, scratch);
        d1.add_assign(&ct.polys()[1], self.context.key_basis());
        Ok(Ciphertext::from_parts(
            vec![d0, d1],
            ct.scale_log2(),
            ct.level(),
        ))
    }

    /// Divides the message by the last prime of the ciphertext's chain and
    /// drops that prime (the paper's RESCALE instruction). The scale is
    /// divided by the actual prime value — in the `log2` domain, the cached
    /// `log2 q` of that prime is subtracted, the very same `f64` the
    /// compiler's exact-scale analysis subtracts, so predicted and observed
    /// scales stay bit-identical.
    ///
    /// # Errors
    ///
    /// Fails if only one prime remains in the chain.
    pub fn rescale_to_next(&self, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
        if ct.level() <= 1 {
            return Err(CkksError::ModulusChainExhausted);
        }
        let basis = self.context.key_basis();
        let divisor_log2 = self.context.data_prime_log2(ct.level() - 1);
        let polys = ct
            .polys()
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.rescale_by_last(basis);
                p
            })
            .collect();
        Ok(Ciphertext::from_parts(
            polys,
            ct.scale_log2() - divisor_log2,
            ct.level() - 1,
        ))
    }

    /// Drops the last prime of the chain without scaling the message (the
    /// paper's MODSWITCH instruction).
    ///
    /// # Errors
    ///
    /// Fails if only one prime remains in the chain.
    pub fn mod_switch_to_next(&self, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
        if ct.level() <= 1 {
            return Err(CkksError::ModulusChainExhausted);
        }
        let polys = ct
            .polys()
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.drop_last();
                p
            })
            .collect();
        Ok(Ciphertext::from_parts(
            polys,
            ct.scale_log2(),
            ct.level() - 1,
        ))
    }

    /// Rotates the encrypted slot vector left by `steps` positions (negative
    /// steps rotate right), using the corresponding Galois key.
    ///
    /// Rotation by step 0 is a scale-preserving no-op clone and requires no
    /// Galois key.
    ///
    /// # Errors
    ///
    /// Fails if no Galois key for `steps` exists or the ciphertext has more
    /// than two polynomials.
    pub fn rotate(
        &self,
        ct: &Ciphertext,
        steps: i64,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        let mut fan_out_of_one = self.rotate_hoisted(ct, &[steps], keys)?;
        Ok(fan_out_of_one.pop().expect("one step, one rotation"))
    }

    /// Rotates one ciphertext by every step in `steps` with **hoisted**
    /// key-switching: the expensive RNS decomposition of `c1` is computed
    /// once and each Galois key is applied to the shared digits
    /// ([`Evaluator::rotate_decomposed`]), so `k` rotations cost one
    /// decompose plus `k` cheap applies instead of `k` full key-switches.
    ///
    /// Results are **bit-identical** to calling [`Evaluator::rotate`] once
    /// per step (which is this with a fan-out of one: no member's result
    /// depends on what else shares the decomposition or the scratch). Step 0
    /// entries yield a no-op clone and require no Galois key.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext does not have exactly two polynomials or a
    /// Galois key for any non-zero step is missing.
    pub fn rotate_hoisted(
        &self,
        ct: &Ciphertext,
        steps: &[i64],
        keys: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        check_size(ct, 2)?;
        let mut decomp = None;
        let mut scratch = KeySwitchScratch::default();
        steps
            .iter()
            .map(|&step| {
                if step == 0 {
                    return Ok(ct.clone());
                }
                let decomp = decomp.get_or_insert_with(|| {
                    self.decompose_for_key_switch(&ct.polys()[1], ct.level())
                });
                self.rotate_decomposed(ct, step, keys, decomp, &mut scratch)
            })
            .collect()
    }

    /// One member of a hoisted fan-out: applies the Galois key for the
    /// non-zero `step` to `decomp`, the decomposition of `ct`'s second
    /// polynomial (however its digits were computed), using the caller's
    /// work buffers. Members of one fan-out may run in any order and on
    /// different threads, each with a scratch of its own.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext does not have exactly two polynomials or no
    /// Galois key for `step` exists.
    ///
    /// # Panics
    ///
    /// Panics if `decomp` was not taken at `ct`'s level.
    pub fn rotate_decomposed(
        &self,
        ct: &Ciphertext,
        step: i64,
        keys: &GaloisKeys,
        decomp: &KeySwitchDecomposition,
        scratch: &mut KeySwitchScratch,
    ) -> Result<Ciphertext, CkksError> {
        check_size(ct, 2)?;
        let key = keys.key_for_step(step)?;
        let (c0_rot, d1) = self.finish_key_switch(ct, decomp, key, scratch);
        Ok(Ciphertext::from_parts(
            vec![c0_rot, d1],
            ct.scale_log2(),
            ct.level(),
        ))
    }

    /// RNS-decomposes a key-switch target (NTT form, spanning `level` data
    /// primes): one [`Evaluator::key_switch_digit`] per data prime. This is
    /// the key-independent half of key switching — `l` inverse plus `l²`
    /// forward NTTs — reusable across every key applied to the same target.
    pub fn decompose_for_key_switch(
        &self,
        target: &RnsPoly,
        level: usize,
    ) -> KeySwitchDecomposition {
        let digits = (0..level).map(|j| self.key_switch_digit(target, level, j));
        KeySwitchDecomposition::from_digits(digits.collect())
    }

    /// Digit `j` of a key-switch target's decomposition: the target's
    /// residue `j` lifted to every modulus of the extended basis (data
    /// primes + special prime), forward transformed. It reads row `j` of the
    /// target and nothing else — one inverse NTT and `level` forward ones,
    /// its own-prime row being a copy of the target's (see the module docs)
    /// — so the `level` digits of one target are independent pieces of work.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not below `level` or the target has fewer rows.
    pub fn key_switch_digit(&self, target: &RnsPoly, level: usize, j: usize) -> RnsPoly {
        let basis = self.context.key_basis();
        let n = self.context.degree();
        let special = self.context.special_index();
        assert!(j < level, "digit {j} of a level-{level} decomposition");

        let mut data = vec![0u64; (level + 1) * n];
        // Row `j` holds the digit in coefficient form while the other rows
        // are lifted from it, and only then becomes what it has to be.
        let (before, rest) = data.split_at_mut(j * n);
        let (digit, after) = rest.split_at_mut(n);
        digit.copy_from_slice(target.residue(j));
        basis.ntt_tables()[j].inverse(digit);
        let others = (0..j).chain(j + 1..=level);
        for (pos, row) in others.zip(before.chunks_mut(n).chain(after.chunks_mut(n))) {
            let m_idx = if pos == level { special } else { pos };
            let modulus = &basis.moduli()[m_idx];
            for (dst, &c) in row.iter_mut().zip(&*digit) {
                *dst = modulus.reduce(c);
            }
            basis.ntt_tables()[m_idx].forward(row);
        }
        // Reducing digit `j` modulo its own prime changes nothing, so its
        // forward NTT is the row the inverse transform above started from.
        digit.copy_from_slice(target.residue(j));
        RnsPoly::from_flat(n, data, PolyForm::Ntt)
    }

    /// The key-dependent half of key switching, and the only digit × key
    /// loop there is: for every element of the extended basis, sums
    /// `d_j · k_j` over the digits unreduced in 128 bits (exact — see the
    /// module docs) and Barrett-reduces once, leaving each limb of `acc0` /
    /// `acc1` (both `(level + 1) · degree` long, fully overwritten) in
    /// `[0, 2q)`.
    ///
    /// The key's rows are read as stored. For a Galois key that is
    /// `σ⁻¹`-permuted, so the result is the **pre-automorphism** pair
    /// `b = Σ dⱼ·σ⁻¹(kⱼ)`, and `σ(b)` — what the switch needs — is `b` read
    /// through [`KeySwitchKey::ntt_permutation`], as the mod-down does.
    ///
    /// # Panics
    ///
    /// Panics if an accumulator has the wrong length or the key does not
    /// span the context's key basis.
    pub fn apply_key_switch(
        &self,
        decomp: &KeySwitchDecomposition,
        key: &KeySwitchKey,
        acc0: &mut [u64],
        acc1: &mut [u64],
    ) {
        // Elements summed per pass (64 KiB of stack accumulators). The loop
        // is bound by streaming 3·level input rows; 16 KiB runs per row keep
        // the hardware prefetchers on a stream long enough to pay off.
        const CHUNK: usize = 2048;
        let basis = self.context.key_basis();
        let n = self.context.degree();
        let special = self.context.special_index();
        let level = decomp.level;
        assert_eq!(acc0.len(), (level + 1) * n, "accumulator length mismatch");
        assert_eq!(acc1.len(), (level + 1) * n, "accumulator length mismatch");

        for (pos, (row0, row1)) in acc0.chunks_mut(n).zip(acc1.chunks_mut(n)).enumerate() {
            let m_idx = if pos == level { special } else { pos };
            let modulus = &basis.moduli()[m_idx];
            for (c, (a0, a1)) in row0
                .chunks_mut(CHUNK)
                .zip(row1.chunks_mut(CHUNK))
                .enumerate()
            {
                let span = c * CHUNK..c * CHUNK + a0.len();
                let mut sum0 = [0u128; CHUNK];
                let mut sum1 = [0u128; CHUNK];
                for (digit, (k0, k1)) in decomp.digits.iter().zip(&key.digits) {
                    let d = &digit.residue(pos)[span.clone()];
                    let k0 = &k0.residue(m_idx)[span.clone()];
                    let k1 = &k1.residue(m_idx)[span.clone()];
                    for (((s0, s1), &d), (&k0, &k1)) in
                        sum0.iter_mut().zip(&mut sum1).zip(d).zip(k0.iter().zip(k1))
                    {
                        // Canonical operands are what makes `level` products
                        // fit (`CkksContext::new` checks `l · q² < 2^128`).
                        debug_assert!(d.max(k0).max(k1) < modulus.value());
                        *s0 += d as u128 * k0 as u128;
                        *s1 += d as u128 * k1 as u128;
                    }
                }
                for ((a0, a1), (&s0, &s1)) in a0.iter_mut().zip(a1).zip(sum0.iter().zip(&sum1)) {
                    *a0 = modulus.reduce_u128_lazy(s0);
                    *a1 = modulus.reduce_u128_lazy(s1);
                }
            }
        }
    }

    /// Applies `key` to the decomposition of `ct`'s last polynomial and
    /// floors the special prime away from both accumulators, yielding the
    /// canonical `(d0, d1)` pair over the data primes with `ct`'s `c0` added
    /// into `d0` in the same pass — everything read through the key's gather
    /// table when it has one (a rotation: the automorphism happens here).
    fn finish_key_switch(
        &self,
        ct: &Ciphertext,
        decomp: &KeySwitchDecomposition,
        key: &KeySwitchKey,
        scratch: &mut KeySwitchScratch,
    ) -> (RnsPoly, RnsPoly) {
        let level = decomp.level;
        assert_eq!(level, ct.level(), "decomposition taken at another level");
        let [acc0, acc1, special, delta] = scratch.areas(level, self.context.degree());
        self.apply_key_switch(decomp, key, acc0, acc1);
        let table = key.ntt_permutation();
        let fold0 = Some(&ct.polys()[0]);
        let d0 = self.mod_down_into(acc0, level, table, fold0, special, delta);
        let d1 = self.mod_down_into(acc1, level, table, None, special, delta);
        (d0, d1)
    }

    /// Floors the special prime off one `[0, 2q)` accumulator of
    /// [`Evaluator::apply_key_switch`], with `special_coeff` (`degree` long)
    /// and `delta` (`level × degree`, one row per data prime) as caller-owned
    /// work rows. The lazy rows never see a separate canonicalization pass:
    /// the special row feeds the inverse NTT directly (Harvey butterflies
    /// accept lazy input) and the data rows are canonicalized inside the
    /// flooring multiply itself, whose Shoup product tolerates any `u64`
    /// representative.
    ///
    /// When `out_perm` is given, the accumulator is read **through** the
    /// automorphism gather table — this is how a rotation applies `σ` to the
    /// pre-automorphism accumulators, fused into reads the mod-down makes
    /// anyway. When `fold` carries a ciphertext polynomial, it is gathered
    /// through the same table and added into the output in the same pass —
    /// the permuted `c0` of a rotation never exists as a separate
    /// polynomial.
    fn mod_down_into(
        &self,
        flat: &[u64],
        level: usize,
        out_perm: Option<&[u32]>,
        fold: Option<&RnsPoly>,
        special_coeff: &mut [u64],
        delta: &mut [u64],
    ) -> RnsPoly {
        let basis = self.context.key_basis();
        let n = self.context.degree();
        let special = self.context.special_index();
        let p_value = self.context.params().special_prime();
        let half_p = p_value / 2;
        let idx_mask = n - 1;

        let special_row = &flat[level * n..(level + 1) * n];
        match out_perm {
            Some(table) => {
                for (d, &t) in special_coeff.iter_mut().zip(table) {
                    *d = special_row[t as usize & idx_mask];
                }
            }
            None => special_coeff.copy_from_slice(special_row),
        }
        basis.ntt_tables()[special].inverse(special_coeff);

        // Centered round of the special residue into every data prime in one
        // pass over the coefficients (the `> P/2` test is shared; each prime
        // gets its own reduction into its delta row) ...
        let moduli = &basis.moduli()[..level];
        let consts = &basis.drop_constants(special)[..level];
        for (ci, &c) in special_coeff.iter().enumerate() {
            let wrap = c > half_p;
            for (m, (q_i, p)) in moduli.iter().zip(consts).enumerate() {
                let r = q_i.reduce(c);
                delta[m * n + ci] = select_unpredictable(wrap, q_i.sub(r, p.residue), r);
            }
        }

        // ... transformed lazily (outputs in [0, 4q)) and floored off in one
        // fused pass per row: acc − delta as the representative
        // `acc + 4q − delta < 6q`, then × P⁻¹ via the any-input Shoup
        // product, reduced once to canonical form.
        let mut data = Vec::with_capacity(level * n);
        for (m, (q_i, p)) in moduli.iter().zip(consts).enumerate() {
            let pre = &p.inverse;
            let four_q = q_i.value() << 2;
            let drow = &mut delta[m * n..(m + 1) * n];
            basis.ntt_tables()[m].forward_lazy(drow);
            let acc_row = &flat[m * n..(m + 1) * n];
            let floored = |a: u64, d: u64| q_i.reduce_once(q_i.mul_shoup_lazy(a + four_q - d, pre));
            match (out_perm, fold) {
                (Some(table), Some(poly)) => {
                    let fold_row = &poly.residue(m)[..n];
                    data.extend(drow.iter().zip(table).map(|(&d, &t)| {
                        let s = t as usize & idx_mask;
                        q_i.add(floored(acc_row[s], d), fold_row[s])
                    }));
                }
                (Some(table), None) => {
                    data.extend(
                        drow.iter()
                            .zip(table)
                            .map(|(&d, &t)| floored(acc_row[t as usize & idx_mask], d)),
                    );
                }
                (None, Some(poly)) => {
                    let fold_row = &poly.residue(m)[..n];
                    data.extend(
                        acc_row
                            .iter()
                            .zip(drow.iter())
                            .zip(fold_row)
                            .map(|((&a, &d), &f)| q_i.add(floored(a, d), f)),
                    );
                }
                (None, None) => {
                    data.extend(
                        acc_row
                            .iter()
                            .zip(drow.iter())
                            .map(|(&a, &d)| floored(a, d)),
                    );
                }
            }
        }
        RnsPoly::from_flat(n, data, PolyForm::Ntt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CkksEncoder;
    use crate::encrypt::{Decryptor, SymmetricEncryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParameters;

    struct Fixture {
        encoder: CkksEncoder,
        encryptor: SymmetricEncryptor,
        decryptor: Decryptor,
        evaluator: Evaluator,
        keygen: KeyGenerator,
        slots: usize,
    }

    fn fixture() -> Fixture {
        let params = CkksParameters::new_insecure(256, &[40, 40, 40, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 21);
        Fixture {
            encoder: CkksEncoder::new(ctx.clone()),
            encryptor: SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 22),
            decryptor: Decryptor::new(ctx.clone(), keygen.secret_key().clone()),
            evaluator: Evaluator::new(ctx),
            keygen,
            slots: 128,
        }
    }

    fn assert_close(actual: &[f64], expected: &[f64], tolerance: f64) {
        for (i, (a, b)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - b).abs() < tolerance,
                "slot {i}: {a} vs expected {b} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn add_sub_negate() {
        let mut f = fixture();
        let scale = 40.0;
        let xs: Vec<f64> = (0..f.slots).map(|i| i as f64 / 100.0).collect();
        let ys: Vec<f64> = (0..f.slots).map(|i| (i as f64).cos()).collect();
        let ct_x = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let ct_y = f.encryptor.encrypt(&f.encoder.encode(&ys, scale, 4));

        let sum = f.evaluator.add(&ct_x, &ct_y).unwrap();
        let expected: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a + b).collect();
        assert_close(
            &f.decryptor.decrypt_to_values(&sum, f.slots),
            &expected,
            1e-4,
        );

        let diff = f.evaluator.sub(&ct_x, &ct_y).unwrap();
        let expected: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a - b).collect();
        assert_close(
            &f.decryptor.decrypt_to_values(&diff, f.slots),
            &expected,
            1e-4,
        );

        let neg = f.evaluator.negate(&ct_x);
        let expected: Vec<f64> = xs.iter().map(|a| -a).collect();
        assert_close(
            &f.decryptor.decrypt_to_values(&neg, f.slots),
            &expected,
            1e-4,
        );
    }

    #[test]
    fn plaintext_operations() {
        let mut f = fixture();
        let scale = 40.0;
        let xs: Vec<f64> = (0..f.slots).map(|i| (i as f64 + 1.0) / 64.0).collect();
        let ps: Vec<f64> = (0..f.slots).map(|i| ((i % 7) as f64) - 3.0).collect();
        let ct = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let pt = f.encoder.encode(&ps, scale, 4);

        let sum = f.evaluator.add_plain(&ct, &pt).unwrap();
        let expected: Vec<f64> = xs.iter().zip(&ps).map(|(a, b)| a + b).collect();
        assert_close(
            &f.decryptor.decrypt_to_values(&sum, f.slots),
            &expected,
            1e-4,
        );

        let diff = f.evaluator.sub_plain(&ct, &pt).unwrap();
        let expected: Vec<f64> = xs.iter().zip(&ps).map(|(a, b)| a - b).collect();
        assert_close(
            &f.decryptor.decrypt_to_values(&diff, f.slots),
            &expected,
            1e-4,
        );

        let prod = f.evaluator.multiply_plain(&ct, &pt).unwrap();
        let expected: Vec<f64> = xs.iter().zip(&ps).map(|(a, b)| a * b).collect();
        assert_eq!(
            prod.scale_log2(),
            scale + scale,
            "multiply adds log2 scales"
        );
        assert_close(
            &f.decryptor.decrypt_to_values(&prod, f.slots),
            &expected,
            1e-3,
        );
    }

    #[test]
    fn multiply_relinearize_rescale() {
        let mut f = fixture();
        let scale = 40.0;
        let xs: Vec<f64> = (0..f.slots)
            .map(|i| (i as f64 / f.slots as f64) - 0.5)
            .collect();
        let ys: Vec<f64> = (0..f.slots).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
        let ct_x = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let ct_y = f.encryptor.encrypt(&f.encoder.encode(&ys, scale, 4));
        let rk = f.keygen.create_relinearization_key();

        let raw = f.evaluator.multiply(&ct_x, &ct_y).unwrap();
        assert_eq!(raw.size(), 3);
        let expected: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a * b).collect();
        // Decrypting the 3-polynomial ciphertext directly must already work.
        assert_close(
            &f.decryptor.decrypt_to_values(&raw, f.slots),
            &expected,
            1e-3,
        );

        let relin = f.evaluator.relinearize(&raw, &rk).unwrap();
        assert_eq!(relin.size(), 2);
        assert_close(
            &f.decryptor.decrypt_to_values(&relin, f.slots),
            &expected,
            1e-3,
        );

        let rescaled = f.evaluator.rescale_to_next(&relin).unwrap();
        assert_eq!(rescaled.level(), 3);
        assert!((rescaled.scale_log2() - 40.0).abs() < 0.1);
        assert_close(
            &f.decryptor.decrypt_to_values(&rescaled, f.slots),
            &expected,
            1e-3,
        );
    }

    #[test]
    fn mod_switch_preserves_message_and_scale() {
        let mut f = fixture();
        let scale = 40.0;
        let xs: Vec<f64> = (0..f.slots).map(|i| (i % 5) as f64 * 0.2).collect();
        let ct = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let switched = f.evaluator.mod_switch_to_next(&ct).unwrap();
        assert_eq!(switched.level(), 3);
        assert_eq!(switched.scale_log2(), scale);
        assert_close(
            &f.decryptor.decrypt_to_values(&switched, f.slots),
            &xs,
            1e-4,
        );
    }

    #[test]
    fn rotation_left_and_right() {
        let mut f = fixture();
        let scale = 40.0;
        let xs: Vec<f64> = (0..f.slots).map(|i| i as f64 / 10.0).collect();
        let ct = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let gk = f.keygen.create_galois_keys(&[1, 3, -2]);

        for &step in &[1i64, 3, -2] {
            let rotated = f.evaluator.rotate(&ct, step, &gk).unwrap();
            let expected: Vec<f64> = (0..f.slots)
                .map(|i| {
                    let src = (i as i64 + step).rem_euclid(f.slots as i64) as usize;
                    xs[src]
                })
                .collect();
            assert_close(
                &f.decryptor.decrypt_to_values(&rotated, f.slots),
                &expected,
                1e-3,
            );
        }
    }

    #[test]
    fn rotation_by_zero_is_identity() {
        let mut f = fixture();
        let xs = vec![1.25; 128];
        let ct = f.encryptor.encrypt(&f.encoder.encode(&xs, 40.0, 2));
        // Step 0 must require no Galois key at all — neither at keygen (no
        // key material is generated for it) nor at rotate time (no lookup).
        let gk = f.keygen.create_galois_keys(&[]);
        let out = f.evaluator.rotate(&ct, 0, &gk).unwrap();
        assert_eq!(out.polys(), ct.polys(), "step 0 is a bit-exact clone");
        assert_eq!(out.scale_log2(), ct.scale_log2(), "scale is preserved");
        assert_close(&f.decryptor.decrypt_to_values(&out, 128), &xs, 1e-4);
        // Same through the hoisted path.
        let hoisted = f.evaluator.rotate_hoisted(&ct, &[0], &gk).unwrap();
        assert_eq!(hoisted.len(), 1);
        assert_eq!(hoisted[0].polys(), ct.polys());
    }

    #[test]
    fn hoisted_rotations_are_bit_identical_to_sequential() {
        let mut f = fixture();
        let scale = 40.0;
        let xs: Vec<f64> = (0..f.slots).map(|i| (i as f64).sin()).collect();
        let ct = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let steps = [1i64, 3, -2, 0, 7];
        let gk = f.keygen.create_galois_keys(&steps);

        let hoisted = f.evaluator.rotate_hoisted(&ct, &steps, &gk).unwrap();
        assert_eq!(hoisted.len(), steps.len());
        for (h, &step) in hoisted.iter().zip(&steps) {
            let sequential = f.evaluator.rotate(&ct, step, &gk).unwrap();
            assert_eq!(h.polys(), sequential.polys(), "step {step}");
            assert_eq!(h.scale_log2(), sequential.scale_log2());
            let expected: Vec<f64> = (0..f.slots)
                .map(|i| xs[(i as i64 + step).rem_euclid(f.slots as i64) as usize])
                .collect();
            assert_close(&f.decryptor.decrypt_to_values(h, f.slots), &expected, 1e-3);
        }
    }

    #[test]
    fn key_switch_sum_is_exact_at_the_largest_operands() {
        // Every digit and key residue `q − 1`, at the top level of a chain
        // of the largest primes: each unreduced sum is `l · (q − 1)²`, the
        // most the 128-bit accumulator is ever asked to hold, and
        // `(q − 1)² ≡ 1`, so every limb must come out as `l`.
        let params = CkksParameters::new_insecure(64, &[60; 12], 60).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let (n, l) = (ctx.degree(), ctx.max_level());
        let mut worst = RnsPoly::zero(n, l + 1, PolyForm::Ntt);
        for (row, q) in worst.rows_mut().zip(ctx.key_basis().moduli()) {
            row.fill(q.value() - 1);
        }
        let decomp = KeySwitchDecomposition {
            level: l,
            digits: vec![worst.clone(); l],
        };
        let key = KeySwitchKey::from_digits(vec![(worst.clone(), worst); l]);

        let mut acc0 = vec![0u64; (l + 1) * n];
        let mut acc1 = vec![0u64; (l + 1) * n];
        Evaluator::new(ctx.clone()).apply_key_switch(&decomp, &key, &mut acc0, &mut acc1);
        for acc in [&acc0, &acc1] {
            for (row, q) in acc.chunks_exact(n).zip(ctx.key_basis().moduli()) {
                assert!(row.iter().all(|&limb| limb < 2 * q.value()));
                assert!(row.iter().all(|&limb| q.reduce_once(limb) == l as u64));
            }
        }
    }

    #[test]
    fn constraint_violations_are_reported() {
        let mut f = fixture();
        let scale = 40.0;
        let xs = vec![0.5; 128];
        let ct_high = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let ct_low = f.evaluator.mod_switch_to_next(&ct_high).unwrap();

        // Level mismatch (Constraint 1).
        assert!(matches!(
            f.evaluator.add(&ct_high, &ct_low),
            Err(CkksError::LevelMismatch { .. })
        ));

        // Scale mismatch (Constraint 2).
        let other_scale = f.encryptor.encrypt(&f.encoder.encode(&xs, 30.0, 4));
        assert!(matches!(
            f.evaluator.add(&ct_high, &other_scale),
            Err(CkksError::ScaleMismatch { .. })
        ));

        // Too many polynomials (Constraint 3).
        let product = f.evaluator.multiply(&ct_high, &ct_high).unwrap();
        assert!(matches!(
            f.evaluator.multiply(&product, &ct_high),
            Err(CkksError::TooManyPolynomials { .. })
        ));

        // Missing rotation key.
        let gk = f.keygen.create_galois_keys(&[1]);
        assert!(matches!(
            f.evaluator.rotate(&ct_high, 7, &gk),
            Err(CkksError::MissingGaloisKey { step: 7 })
        ));

        // Exhausted modulus chain.
        let mut ct = ct_high.clone();
        for _ in 0..3 {
            ct = f.evaluator.mod_switch_to_next(&ct).unwrap();
        }
        assert!(matches!(
            f.evaluator.mod_switch_to_next(&ct),
            Err(CkksError::ModulusChainExhausted)
        ));
    }

    #[test]
    fn deep_polynomial_evaluation_x2y3() {
        // The paper's running example (Figure 2): x^2 * y^3 with rescaling.
        let mut f = fixture();
        let xs: Vec<f64> = (0..f.slots).map(|i| 0.3 + (i % 4) as f64 * 0.1).collect();
        let ys: Vec<f64> = (0..f.slots).map(|i| 0.5 + (i % 3) as f64 * 0.05).collect();
        let rk = f.keygen.create_relinearization_key();
        let scale = 40.0;

        let ct_x = f.encryptor.encrypt(&f.encoder.encode(&xs, scale, 4));
        let ct_y = f.encryptor.encrypt(&f.encoder.encode(&ys, scale, 4));

        // x^2, rescale once.
        let x2 = f
            .evaluator
            .relinearize(&f.evaluator.square(&ct_x).unwrap(), &rk)
            .unwrap();
        let x2 = f.evaluator.rescale_to_next(&x2).unwrap();
        // y^2, rescale once; y^3 = y^2 * (y at the lower level), rescale again.
        let y2 = f
            .evaluator
            .relinearize(&f.evaluator.square(&ct_y).unwrap(), &rk)
            .unwrap();
        let y2 = f.evaluator.rescale_to_next(&y2).unwrap();
        let y_low = f.evaluator.mod_switch_to_next(&ct_y).unwrap();
        let y3 = f
            .evaluator
            .relinearize(&f.evaluator.multiply(&y2, &y_low).unwrap(), &rk)
            .unwrap();
        let y3 = f.evaluator.rescale_to_next(&y3).unwrap();
        // x^2 down to y^3's level, then multiply.
        let x2_low = f.evaluator.mod_switch_to_next(&x2).unwrap();
        let result = f
            .evaluator
            .relinearize(&f.evaluator.multiply(&x2_low, &y3).unwrap(), &rk)
            .unwrap();
        let result = f.evaluator.rescale_to_next(&result).unwrap();

        let expected: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| x * x * y * y * y).collect();
        assert_close(
            &f.decryptor.decrypt_to_values(&result, f.slots),
            &expected,
            1e-2,
        );
    }
}
