//! Key material and key generation: the secret key and the evaluation
//! (relinearization and Galois) keys.
//!
//! Key switching follows the RNS "one digit per data prime, one special prime"
//! construction used by SEAL: the key for digit `j` hides `(P mod q_j) · s_src`
//! in its `q_j` residue, so that accumulating `d_j ·` key over all digits and
//! flooring away the special prime `P` yields an encryption of
//! `target · s_src` under the target secret `s`.
//!
//! A key is built at the highest level `ℓ` its program switches at: `ℓ`
//! digits, one per data prime `q_0 … q_{ℓ−1}`, each over the rows
//! `q_0 … q_{ℓ−1}, P`. Digit `j` touches residue `j` only and every RNS row
//! is independent, so such a key is exactly the matching sub-block of the
//! top-level key drawn from the same randomness, and it switches a
//! ciphertext at level `ℓ` or below bit for bit as that key would.
//!
//! Evaluation keys are the largest object a deployment holds, so each is
//! held **once**, in the order the evaluator reads it — see
//! [`KeySwitchKey`]. A rotation key is one per Galois element, not one per
//! rotation step: steps congruent modulo the slot count rotate by the same
//! automorphism, and the evaluator derives a step's element from the
//! context (see [`GaloisKeys`]).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{mpsc, Mutex};

use eva_math::galois::GaloisTool;
use eva_poly::{PolyForm, RnsPoly};
use rand::rngs::{ChaCha20Rng, StdRng};
use rand::{RngCore, SeedableRng};

use crate::context::CkksContext;

/// The secret key: a uniformly random ternary polynomial.
///
/// Deliberately **not** serializable: `eva-wire` implements codecs for the
/// ciphertexts and evaluation keys a session frames but provides no encoder
/// for this type, so a secret key can never be framed onto a socket by the
/// service layer.
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// `s` in NTT form over the full key basis (data primes + special prime).
    pub(crate) ntt: RnsPoly,
    /// `s` in coefficient form (what [`SecretKey::leak_probe`] reads).
    pub(crate) coeff: RnsPoly,
}

impl SecretKey {
    /// Raw little-endian bytes of the first residue row of `s` in coefficient
    /// form, exposed **only** so deployment tests can scan captured network
    /// traffic and assert these bytes never appear on the wire. Do not use
    /// for anything else.
    pub fn leak_probe(&self) -> Vec<u8> {
        self.coeff
            .residue(0)
            .iter()
            .flat_map(|&c| c.to_le_bytes())
            .collect()
    }
}

/// A generic key-switching key: one `(k0_j, k1_j)` pair per digit, for the
/// data primes `q_0 … q_{d−1}` of the `d` digits it has, each polynomial over
/// the rows `q_0 … q_{d−1}, P` — the special prime always last. A key of `d`
/// digits switches ciphertexts at level `d` and below.
///
/// The digit rows are the only form of the key the process holds — no Shoup
/// quotients, no second layout, nothing built on first use. A
/// relinearization key is in canonical (wire) order. A Galois key is stored
/// **`σ⁻¹`-permuted** beside the gather table of its automorphism `σ`:
/// because `σ(d)·k = σ(d · σ⁻¹(k))`, the multiply-accumulate streams digits
/// and key rows linearly and the automorphism moves into the mod-down, fused
/// into reads it makes anyway. The permutation happens once, where the key
/// is made ([`KeyGenerator::create_evaluation_keys`], [`GaloisKeys::from_parts`]);
/// the wire format and the fingerprint see only
/// [`KeySwitchKey::canonical_digits`].
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) digits: Vec<(RnsPoly, RnsPoly)>,
    /// `σ(x)[i] = x[table[i]]` for the automorphism the rows are stored
    /// under the inverse of; `None` for rows in canonical order.
    pub(crate) table: Option<Vec<u32>>,
}

impl KeySwitchKey {
    /// Assembles a key-switching key from its canonical-order digit pairs
    /// (wire codec constructor).
    pub fn from_digits(digits: Vec<(RnsPoly, RnsPoly)>) -> Self {
        Self {
            digits,
            table: None,
        }
    }

    /// Brings canonical-order rows into evaluation order for the
    /// automorphism with NTT gather table `table`: every row is scattered
    /// through it, `k'[table[i]] = k[i]`, i.e. `k' = σ⁻¹(k)`.
    fn permuted(mut self, table: Vec<u32>) -> Self {
        assert!(self.table.is_none(), "rows are permuted exactly once");
        let mut scratch = vec![0u64; table.len()];
        for (k0, k1) in &mut self.digits {
            for row in k0.rows_mut().chain(k1.rows_mut()) {
                for (&t, &k) in table.iter().zip(row.iter()) {
                    scratch[t as usize] = k;
                }
                row.copy_from_slice(&scratch);
            }
        }
        self.table = Some(table);
        self
    }

    /// The highest ciphertext level the key switches at: its digit count.
    pub fn level(&self) -> usize {
        self.digits.len()
    }

    /// The `(k0_j, k1_j)` pair for every digit `j`, **as stored**
    /// (see the type docs; [`KeySwitchKey::canonical_digits`] undoes the
    /// permutation of a Galois key).
    pub fn digits(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.digits
    }

    /// The gather table of the automorphism a Galois key's rows are stored
    /// under the inverse of (`canonical[i] = stored[table[i]]`); `None` for
    /// a key in canonical order.
    pub fn ntt_permutation(&self) -> Option<&[u32]> {
        self.table.as_deref()
    }

    /// The digit pairs in canonical order — what the wire format carries and
    /// the fingerprint hashes — gathered back one digit at a time for a
    /// Galois key (which panics unless its polynomials are in NTT form, as
    /// the codec checks), borrowed as they are otherwise.
    pub fn canonical_digits(&self) -> impl Iterator<Item = (Cow<'_, RnsPoly>, Cow<'_, RnsPoly>)> {
        self.digits
            .iter()
            .map(|(k0, k1)| (self.canonical(k0), self.canonical(k1)))
    }

    fn canonical<'a>(&'a self, poly: &'a RnsPoly) -> Cow<'a, RnsPoly> {
        match &self.table {
            None => Cow::Borrowed(poly),
            Some(table) => Cow::Owned(poly.permute_ntt(table)),
        }
    }

    /// Bytes this key holds in memory: its digit rows plus, for a Galois
    /// key, the gather table (`1 / 4l(l+1)` of the rows at level `l`:
    /// 1.25 % at `l = 4`, 0.35 % at `l = 8`).
    pub fn resident_bytes(&self) -> usize {
        let rows: usize = self
            .digits
            .iter()
            .map(|(k0, k1)| k0.level() * k0.degree() + k1.level() * k1.degree())
            .sum();
        rows * std::mem::size_of::<u64>()
            + self.table.as_ref().map_or(0, |t| t.len()) * std::mem::size_of::<u32>()
    }
}

/// Relinearization key: switches the `s²` component of a freshly multiplied
/// ciphertext back to the secret `s` (the paper's RELINEARIZE target).
#[derive(Debug, Clone)]
pub struct RelinearizationKey {
    pub(crate) key: KeySwitchKey,
}

impl RelinearizationKey {
    /// Reassembles a relinearization key from its key-switching key (wire
    /// codec constructor).
    pub fn from_key_switch_key(key: KeySwitchKey) -> Self {
        Self { key }
    }

    /// The underlying key-switching key (from `s²` to `s`).
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.key
    }

    /// Bytes this key holds in memory.
    pub fn resident_bytes(&self) -> usize {
        self.key.resident_bytes()
    }
}

/// Rotation (Galois) keys: one key-switching key per Galois element.
///
/// The EVA compiler's rotation-selection pass (paper Section 6.2) picks the
/// steps a program rotates by. A step rotates by the automorphism of the
/// element `5^step mod 2N`, which the evaluator derives from the context on
/// every rotation, so steps congruent modulo the slot count share one key
/// and the keys are stored by element alone, as SEAL stores them.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    /// Galois element → switching key (from the rotated secret to `s`).
    pub(crate) keys: HashMap<u64, KeySwitchKey>,
}

impl GaloisKeys {
    /// Assembles Galois keys from `(element, canonical-order key)` pairs
    /// (wire codec constructor), bringing every key into evaluation order.
    /// The gather table depends only on the ring degree and the element, so
    /// no context is needed.
    ///
    /// # Panics
    ///
    /// Panics if a key's ring degree is not a power of two ≥ 4, its
    /// polynomials disagree in degree, or its element is not an odd unit
    /// modulo `2N` (the codec rejects all three before calling this), or if
    /// a key is already in evaluation order (taken from another `GaloisKeys`
    /// rather than built by [`KeySwitchKey::from_digits`]).
    pub fn from_parts(keys: Vec<(u64, KeySwitchKey)>) -> Self {
        let keys = keys
            .into_iter()
            .map(|(elt, key)| {
                let table = GaloisTool::new(key.digits[0].0.degree()).ntt_permutation(elt);
                (elt, key.permuted(table))
            })
            .collect();
        Self { keys }
    }

    /// The `(Galois element, key)` pairs, sorted by element (deterministic
    /// iteration order for serialization).
    pub fn element_keys(&self) -> Vec<(u64, &KeySwitchKey)> {
        let mut pairs: Vec<(u64, &KeySwitchKey)> = self.keys.iter().map(|(&e, k)| (e, k)).collect();
        pairs.sort_unstable_by_key(|&(e, _)| e);
        pairs
    }

    /// The key for the Galois element `element`, if present.
    pub(crate) fn key(&self, element: u64) -> Option<&KeySwitchKey> {
        self.keys.get(&element)
    }

    /// Bytes these keys hold in memory.
    pub fn resident_bytes(&self) -> usize {
        self.keys.values().map(KeySwitchKey::resident_bytes).sum()
    }
}

/// Generates all key material for one [`CkksContext`].
///
/// The generator owns its RNG. [`KeyGenerator::new`] keys a ChaCha20 CSPRNG
/// stand-in from OS entropy (the security-relevant path); use
/// [`KeyGenerator::from_seed`] for reproducible keys in tests and benchmarks,
/// which deliberately keeps the fast deterministic xoshiro256** generator.
pub struct KeyGenerator {
    context: CkksContext,
    secret: SecretKey,
    rng: Box<dyn RngCore + Send + Sync>,
}

impl std::fmt::Debug for KeyGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyGenerator")
            .field("degree", &self.context.degree())
            .finish()
    }
}

impl KeyGenerator {
    /// Creates a key generator with a fresh random secret key, drawing all
    /// randomness from a ChaCha20 generator keyed from OS entropy.
    pub fn new(context: CkksContext) -> Self {
        Self::with_rng(context, Box::new(ChaCha20Rng::from_os_entropy()))
    }

    /// Creates a key generator whose secret key and all subsequently generated
    /// keys are derived deterministically from `seed` (xoshiro256**; test and
    /// benchmark fixtures only — not a CSPRNG).
    pub fn from_seed(context: CkksContext, seed: u64) -> Self {
        Self::with_rng(context, Box::new(StdRng::seed_from_u64(seed)))
    }

    fn with_rng(context: CkksContext, mut rng: Box<dyn RngCore + Send + Sync>) -> Self {
        let secret = Self::generate_secret(&context, &mut *rng);
        Self {
            context,
            secret,
            rng,
        }
    }

    fn generate_secret(context: &CkksContext, rng: &mut (dyn RngCore + Send + Sync)) -> SecretKey {
        let basis = context.key_basis();
        let n = context.degree();
        let ternary = eva_math::sample_ternary(rng, n);
        let signed: Vec<i64> = ternary.iter().map(|&v| v as i64).collect();
        let coeff = basis.poly_from_signed(&signed, basis.len());
        let mut ntt = coeff.clone();
        ntt.to_ntt(basis);
        SecretKey { ntt, coeff }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.secret
    }

    /// Generates a relinearization key (switching from `s²` to `s`) at the
    /// top level.
    pub fn create_relinearization_key(&mut self) -> RelinearizationKey {
        let (relin, _) = self.create_evaluation_keys(Some(self.context.max_level()), &[]);
        relin.expect("a relinearization key was requested")
    }

    /// Generates top-level Galois keys for the given rotation steps (see
    /// [`KeyGenerator::create_evaluation_keys`]).
    pub fn create_galois_keys(&mut self, steps: &[i64]) -> GaloisKeys {
        let top = self.context.max_level();
        let galois: Vec<(i64, usize)> = steps.iter().map(|&step| (step, top)).collect();
        self.create_evaluation_keys(None, &galois).1
    }

    /// Generates the evaluation keys a program needs, each at the level it
    /// is used at: a relinearization key at level `relin` if given, and a
    /// Galois key for every rotation step of the `(step, level)` pairs in
    /// `galois`. A key at level `ℓ` holds `ℓ` digits over the rows
    /// `q_0 … q_{ℓ−1}, P` (see the module docs).
    ///
    /// Duplicate steps, and steps that alias one Galois element, share one
    /// key, at the highest of their levels; step 0 is skipped entirely — a
    /// rotation by zero is a no-op clone in the evaluator, so no key
    /// material is generated (and none needs to be uploaded) for it.
    ///
    /// Generation runs in two phases. The calling thread draws every random
    /// value and allocates every key row, key by key (relinearization first,
    /// then Galois keys in step order) and, within a key, digit by digit
    /// (the uniform `a` over the full basis, then the error). It draws the
    /// randomness of the top-level key whatever a key's level, sampling the
    /// rows and digits a lower key does not keep into a scratch row, so the
    /// kept rows and every later draw are what they are at the top level. It
    /// hands each key to a pool of scoped workers as soon as it is drawn; a
    /// worker computes the key in the rows it was handed. The draw order is
    /// the contract every caller relies on: drawn right after the secret
    /// key, as `eva-backend`'s one client key path does, a seeded generator
    /// yields the same keys — and so the same wire bytes and fingerprint —
    /// on any number of cores. One key is built inline, with no thread.
    ///
    /// # Panics
    ///
    /// Panics if a level is 0 or above the context's top level.
    pub fn create_evaluation_keys(
        &mut self,
        relin: Option<usize>,
        galois: &[(i64, usize)],
    ) -> (Option<RelinearizationKey>, GaloisKeys) {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.create_evaluation_keys_on(relin, galois, workers)
    }

    /// [`KeyGenerator::create_evaluation_keys`] on at most `workers` threads.
    fn create_evaluation_keys_on(
        &mut self,
        relin: Option<usize>,
        galois: &[(i64, usize)],
        workers: usize,
    ) -> (Option<RelinearizationKey>, GaloisKeys) {
        let tool = self.context.galois();
        let mut elements: Vec<(u64, usize)> = Vec::new();
        for &(step, level) in galois.iter().filter(|&&(step, _)| step != 0) {
            let elt = tool.galois_elt_from_step(step);
            match elements.iter_mut().find(|(e, _)| *e == elt) {
                Some((_, kept)) => *kept = (*kept).max(level),
                None => elements.push((elt, level)),
            }
        }
        let sources: Vec<(KeySource, usize)> = relin
            .map(|level| (KeySource::Square, level))
            .into_iter()
            .chain(
                elements
                    .iter()
                    .map(|&(elt, level)| (KeySource::Galois(tool.ntt_permutation(elt)), level)),
            )
            .collect();
        let top = self.context.max_level();
        for &(_, level) in &sources {
            assert!(
                (1..=top).contains(&level),
                "key level {level} outside 1..={top}"
            );
        }

        let Self {
            context,
            secret,
            rng,
        } = self;
        let workers = workers.min(sources.len());
        let built: Vec<KeySwitchKey> = if workers <= 1 {
            sources
                .into_iter()
                .map(|(source, level)| {
                    build_key(
                        context,
                        secret,
                        draw_key(context, &mut **rng, source, level),
                    )
                })
                .collect()
        } else {
            let (jobs, queue) = mpsc::channel();
            let queue = Mutex::new(queue);
            let mut built: Vec<(usize, KeySwitchKey)> = std::thread::scope(|scope| {
                let pool: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                // The guard drops at the end of this
                                // statement: the lock covers the wait for a
                                // key, never the building of one.
                                let job = queue
                                    .lock()
                                    .expect("no worker panics holding the queue")
                                    .recv();
                                let Ok((index, drawn)) = job else { break };
                                done.push((index, build_key(context, secret, drawn)));
                            }
                            done
                        })
                    })
                    .collect();
                for (index, (source, level)) in sources.into_iter().enumerate() {
                    let drawn = draw_key(context, &mut **rng, source, level);
                    jobs.send((index, drawn))
                        .expect("the queue outlives the draws");
                }
                drop(jobs);
                pool.into_iter()
                    .flat_map(|worker| worker.join().expect("a key-building worker panicked"))
                    .collect()
            });
            built.sort_unstable_by_key(|&(index, _)| index);
            built.into_iter().map(|(_, key)| key).collect()
        };

        let mut built = built.into_iter();
        let relin = relin.map(|_| RelinearizationKey {
            key: built
                .next()
                .expect("the relinearization key is built first"),
        });
        let galois = GaloisKeys {
            keys: elements
                .into_iter()
                .map(|(elt, _)| elt)
                .zip(built)
                .collect(),
        };
        (relin, galois)
    }
}

/// What a key-switching key switches from; the target is always `s`.
enum KeySource {
    /// `s²`: the relinearization key.
    Square,
    /// `σ(s)` for the automorphism with this NTT gather table: a Galois key,
    /// stored `σ⁻¹`-permuted under the same table.
    Galois(Vec<u32>),
}

/// One key-switching key as the drawing thread hands it to a worker: its
/// randomness drawn and every row it will own allocated, nothing computed.
struct DrawnKey {
    source: KeySource,
    /// Per kept digit: the `k0` rows (zero), the uniform `a` (which is
    /// `k1`), and the error coefficients; rows `q_0 … q_{ℓ−1}, P` for a key
    /// of `ℓ` digits.
    digits: Vec<(RnsPoly, RnsPoly, Vec<i8>)>,
}

/// Index in the key basis of row `row` of a key at level `level`: the data
/// prime of that index, and the special prime for the last row.
fn key_row_modulus(row: usize, level: usize, special: usize) -> usize {
    if row < level {
        row
    } else {
        special
    }
}

/// Draws one key's randomness in the order keys have always drawn it: for
/// every digit of the top-level key, the uniform `a` over every prime of the
/// key basis, then the error. A key at `level` keeps the first `level`
/// digits and, of each, the rows of `q_0 … q_{level−1}` and `P`; the rest is
/// drawn into a scratch row and dropped. Every row the key will own is
/// allocated here, on the drawing thread, so the long-lived key rows come
/// from one allocator arena rather than scattering across the workers'.
fn draw_key(
    context: &CkksContext,
    rng: &mut (dyn RngCore + Send + Sync),
    source: KeySource,
    level: usize,
) -> DrawnKey {
    let basis = context.key_basis();
    let n = basis.degree();
    let special = context.special_index();
    let mut scratch = vec![0u64; n];
    let mut digits = Vec::with_capacity(level);
    for j in 0..context.max_level() {
        let mut kept = (j < level).then(|| RnsPoly::zero(n, level + 1, PolyForm::Ntt));
        for (m, modulus) in basis.moduli().iter().enumerate() {
            let row = match &mut kept {
                Some(a) if m < level => a.residue_mut(m),
                Some(a) if m == special => a.residue_mut(level),
                _ => &mut scratch[..],
            };
            eva_math::sample_uniform_into(rng, row, modulus);
        }
        let error = eva_math::sample_cbd(rng, n);
        if let Some(a) = kept {
            digits.push((RnsPoly::zero(n, level + 1, PolyForm::Ntt), a, error));
        }
    }
    DrawnKey { source, digits }
}

/// Computes a drawn key in place: for digit `j`,
/// `k0 = −(a·s + e) + (P mod q_j)·src` with `src` added into residue `j`
/// only, so that accumulating `d_j · key` over the digits and flooring away
/// `P` switches `src` to `s`. Every row is computed over its own prime (see
/// [`key_row_modulus`]). Only residue `j` of `src` is needed, so it is read
/// off `s` element by element (`s²`, or the gather `σ(s)[i] = s[table[i]]`)
/// and never materialized: a worker allocates nothing that outlives a key.
fn build_key(context: &CkksContext, secret: &SecretKey, drawn: DrawnKey) -> KeySwitchKey {
    let basis = context.key_basis();
    let special = context.special_index();
    let p_value = context.params().special_prime();
    let DrawnKey { source, digits } = drawn;
    let level = digits.len();
    let digits = digits
        .into_iter()
        .enumerate()
        .map(|(j, (mut k0, a, error))| {
            for (row, (k, a_row)) in k0.rows_mut().zip(a.rows()).enumerate() {
                let m = key_row_modulus(row, level, special);
                let q = &basis.moduli()[m];
                for (dst, &e) in k.iter_mut().zip(&error) {
                    *dst = if e < 0 {
                        q.neg(u64::from(e.unsigned_abs()))
                    } else {
                        e as u64
                    };
                }
                basis.ntt_tables()[m].forward(k);
                for ((dst, &a), &s) in k.iter_mut().zip(a_row).zip(secret.ntt.residue(m)) {
                    *dst = q.neg(q.add(*dst, q.mul(a, s)));
                }
            }
            let q_j = &basis.moduli()[j];
            let pre = q_j.shoup(q_j.reduce(p_value));
            let s_j = secret.ntt.residue(j);
            let src = |i: usize| match &source {
                KeySource::Square => q_j.mul(s_j[i], s_j[i]),
                KeySource::Galois(table) => s_j[table[i] as usize],
            };
            for (i, dst) in k0.residue_mut(j).iter_mut().enumerate() {
                *dst = q_j.add(*dst, q_j.mul_shoup(src(i), &pre));
            }
            (k0, a)
        })
        .collect();
    let key = KeySwitchKey::from_digits(digits);
    match source {
        KeySource::Square => key,
        KeySource::Galois(table) => key.permuted(table),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParameters;
    use eva_poly::RnsBasis;

    fn context() -> CkksContext {
        let params = CkksParameters::new_insecure(64, &[40, 40], 45).unwrap();
        CkksContext::new(params).unwrap()
    }

    #[test]
    fn secret_key_is_ternary() {
        let ctx = context();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 1);
        let coeff = &keygen.secret_key().coeff;
        let q0 = ctx.key_basis().moduli()[0].value();
        for &c in coeff.residue(0) {
            assert!(
                c == 0 || c == 1 || c == q0 - 1,
                "non-ternary coefficient {c}"
            );
        }
    }

    #[test]
    fn entropy_keyed_generators_produce_distinct_secrets() {
        // KeyGenerator::new draws from the ChaCha20 CSPRNG path.
        let ctx = context();
        let a = KeyGenerator::new(ctx.clone());
        let b = KeyGenerator::new(ctx);
        assert_ne!(
            a.secret_key().coeff,
            b.secret_key().coeff,
            "two entropy-keyed generators must not share a secret"
        );
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let ctx = context();
        let a = KeyGenerator::from_seed(ctx.clone(), 42);
        let b = KeyGenerator::from_seed(ctx, 42);
        assert_eq!(a.secret_key().coeff, b.secret_key().coeff);
    }

    /// The sorted Galois elements a key set holds.
    fn elements(gk: &GaloisKeys) -> Vec<u64> {
        gk.element_keys().into_iter().map(|(elt, _)| elt).collect()
    }

    #[test]
    fn galois_keys_track_requested_steps() {
        let ctx = context();
        let tool = ctx.galois().clone();
        let mut keygen = KeyGenerator::from_seed(ctx, 4);
        let gk = keygen.create_galois_keys(&[1, 2, -1, 2]);
        let mut want: Vec<u64> = [1, 2, -1].map(|s| tool.galois_elt_from_step(s)).to_vec();
        want.sort_unstable();
        assert_eq!(elements(&gk), want);
        for step in [1, 2, -1] {
            assert!(
                gk.key(tool.galois_elt_from_step(step)).is_some(),
                "step {step}"
            );
        }
        assert!(gk.key(tool.galois_elt_from_step(5)).is_none());
    }

    #[test]
    fn step_zero_generates_no_key_material() {
        let ctx = context();
        let tool = ctx.galois().clone();
        let mut keygen = KeyGenerator::from_seed(ctx, 11);
        let gk = keygen.create_galois_keys(&[0, 1, 0]);
        // Rotation by zero is a no-op clone in the evaluator, so requesting
        // it must not cost any key material (elt = 1 would otherwise be a
        // full useless key-switch key).
        assert_eq!(elements(&gk), vec![tool.galois_elt_from_step(1)]);
        assert!(gk.key(1).is_none());
    }

    /// Pins the canonicalization contract documented in
    /// `eva-core::analysis::rotations`: on the slot count `nh`, the Galois
    /// element is `5^(step mod nh) mod 2N`, so a right rotation by `s`
    /// (spelled `−s`) and its canonical left form `nh − s` derive the *same*
    /// automorphism — and therefore share one key-switch key.
    #[test]
    fn galois_element_of_negative_step_matches_canonical_left_form() {
        let ctx = context();
        let nh = ctx.slot_count() as i64;
        let tool = ctx.galois().clone();
        for s in 1..nh {
            assert_eq!(
                tool.galois_elt_from_step(-s),
                tool.galois_elt_from_step(nh - s),
                "galois_elt(−{s}) must equal galois_elt({nh} − {s})"
            );
        }
        // The shared element means the generated key material is shared too:
        // requesting both spellings yields one key, found from either.
        let mut keygen = KeyGenerator::from_seed(ctx, 9);
        let gk = keygen.create_galois_keys(&[-3, nh - 3]);
        assert_eq!(gk.keys.len(), 1, "one automorphism, one key");
        assert_eq!(elements(&gk), vec![tool.galois_elt_from_step(-3)]);
        assert!(gk.key(tool.galois_elt_from_step(nh - 3)).is_some());
    }

    #[test]
    fn relin_key_has_one_digit_per_data_prime() {
        let ctx = context();
        let mut keygen = KeyGenerator::from_seed(ctx.clone(), 5);
        let rk = keygen.create_relinearization_key();
        assert_eq!(rk.key.digits.len(), ctx.max_level());
        for (k0, k1) in &rk.key.digits {
            assert_eq!(k0.level(), ctx.key_basis().len());
            assert_eq!(k1.level(), ctx.key_basis().len());
        }
    }

    /// Samples a uniformly random polynomial directly in NTT form over every
    /// prime of `basis`.
    fn sample_uniform_ntt(basis: &RnsBasis, rng: &mut (dyn RngCore + Send + Sync)) -> RnsPoly {
        let mut poly = RnsPoly::zero(basis.degree(), basis.len(), PolyForm::Ntt);
        for (row, modulus) in poly.rows_mut().zip(basis.moduli()) {
            eva_math::sample_uniform_into(rng, row, modulus);
        }
        poly
    }

    /// Samples a small error polynomial over the first `level` primes, NTT form.
    fn sample_error_ntt(keygen: &mut KeyGenerator, level: usize) -> RnsPoly {
        let basis = keygen.context.key_basis();
        let cbd = eva_math::sample_cbd(&mut keygen.rng, basis.degree());
        let signed: Vec<i64> = cbd.iter().map(|&v| v as i64).collect();
        let mut poly = basis.poly_from_signed(&signed, level);
        poly.to_ntt(basis);
        poly
    }

    /// The sequential key-switching key loop the two-phase generator
    /// replaced: each digit drawn and computed in turn on one thread.
    fn reference_key_switch_key(keygen: &mut KeyGenerator, source: &RnsPoly) -> KeySwitchKey {
        let context = keygen.context.clone();
        let basis = context.key_basis();
        let p_value = context.params().special_prime();
        let mut digits = Vec::new();
        for j in 0..context.max_level() {
            let a = sample_uniform_ntt(basis, &mut *keygen.rng);
            let e = sample_error_ntt(keygen, basis.len());
            // k0 = -(a*s + e) with (P mod q_j) * source added into residue j.
            let mut k0 = a.dyadic_mul(&keygen.secret.ntt, basis);
            k0.add_assign(&e, basis);
            k0.negate(basis);
            let q_j = &basis.moduli()[j];
            let pre = q_j.shoup(q_j.reduce(p_value));
            for (dst, &src) in k0.residue_mut(j).iter_mut().zip(source.residue(j)) {
                *dst = q_j.add(*dst, q_j.mul_shoup(src, &pre));
            }
            digits.push((k0, a));
        }
        KeySwitchKey::from_digits(digits)
    }

    /// Relinearization then Galois keys from the sequential loop, with
    /// `σ(s)` taken in coefficient form and transformed.
    fn reference_keys(
        keygen: &mut KeyGenerator,
        relin: bool,
        steps: &[i64],
    ) -> (Option<KeySwitchKey>, GaloisKeys) {
        let context = keygen.context.clone();
        let basis = context.key_basis();
        let relin = relin.then(|| {
            let s_squared = keygen.secret.ntt.dyadic_mul(&keygen.secret.ntt, basis);
            reference_key_switch_key(keygen, &s_squared)
        });
        let mut galois = GaloisKeys::default();
        for &step in steps.iter().filter(|&&step| step != 0) {
            let elt = context.galois().galois_elt_from_step(step);
            if galois.keys.contains_key(&elt) {
                continue;
            }
            let mut rotated = keygen.secret.coeff.apply_galois(elt, basis);
            rotated.to_ntt(basis);
            let key = reference_key_switch_key(keygen, &rotated);
            let table = context.galois().ntt_permutation(elt);
            galois.keys.insert(elt, key.permuted(table));
        }
        (relin, galois)
    }

    fn assert_same_key(got: &KeySwitchKey, want: &KeySwitchKey, what: &str) {
        assert!(got.digits == want.digits, "{what}: digit rows differ");
        assert_eq!(got.table, want.table, "{what}: gather table differs");
    }

    /// The sub-block of `full` a key at `level` is: its first `level`
    /// digits, each over the rows of `q_0 … q_{level−1}` and the special
    /// prime.
    fn trimmed(full: &KeySwitchKey, level: usize) -> KeySwitchKey {
        let keep = |poly: &RnsPoly| {
            let rows = poly.rows().take(level).chain(poly.rows().last());
            let data = rows.flatten().copied().collect();
            RnsPoly::from_flat(poly.degree(), data, poly.form())
        };
        KeySwitchKey {
            digits: full.digits[..level]
                .iter()
                .map(|(k0, k1)| (keep(k0), keep(k1)))
                .collect(),
            table: full.table.clone(),
        }
    }

    #[test]
    fn evaluation_keys_match_the_sequential_reference_on_any_worker_count() {
        // Four data primes, so keys sit at the top level, one below it and
        // at the bottom.
        let params = CkksParameters::new_insecure(64, &[40, 40, 40, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let top = ctx.max_level();
        // Step 0 (no key), a negative step and its alias 29 ≡ −3 (32 slots)
        // at different levels (one key, at the higher), and keys at the
        // top, one below and at level 1, with and without
        // relinearization; then one key alone, and a relinearization key
        // below the top.
        let steps = [(0, top), (1, top), (-3, top - 1), (29, 1), (5, 1)];
        let none: &[(i64, usize)] = &[];
        let cases = [
            (Some(top), &steps[..]),
            (None, &steps[..]),
            (Some(top), none),
            (Some(top - 1), none),
            (None, &[(5, 1)][..]),
        ];
        let tool = ctx.galois().clone();
        for (relin, steps) in cases {
            let mut reference = KeyGenerator::from_seed(ctx.clone(), 23);
            let plain: Vec<i64> = steps.iter().map(|&(step, _)| step).collect();
            let (want_relin, want_galois) = reference_keys(&mut reference, relin.is_some(), &plain);
            let want_next = reference.rng.next_u64();
            let want_level = |elt: u64| {
                steps
                    .iter()
                    .filter(|&&(step, _)| step != 0 && tool.galois_elt_from_step(step) == elt)
                    .map(|&(_, level)| level)
                    .max()
                    .unwrap()
            };
            for workers in [1, 2, 3, 8] {
                let what = format!("relin {relin:?}, steps {steps:?}, {workers} workers");
                let mut keygen = KeyGenerator::from_seed(ctx.clone(), 23);
                let (got_relin, got_galois) =
                    keygen.create_evaluation_keys_on(relin, steps, workers);
                assert_eq!(got_relin.is_some(), relin.is_some(), "{what}");
                if let (Some(got), Some(want), Some(level)) = (&got_relin, &want_relin, relin) {
                    assert_eq!(got.key.level(), level, "{what}");
                    assert_same_key(&got.key, &trimmed(want, level), &what);
                }
                let (got_keys, want_keys) = (got_galois.element_keys(), want_galois.element_keys());
                assert_eq!(got_keys.len(), want_keys.len(), "{what}");
                for ((elt, got), (want_elt, want)) in got_keys.into_iter().zip(want_keys) {
                    assert_eq!(elt, want_elt, "{what}");
                    let level = want_level(elt);
                    assert_eq!(got.level(), level, "{what}, element {elt}");
                    assert_same_key(
                        got,
                        &trimmed(want, level),
                        &format!("{what}, element {elt}"),
                    );
                }
                // Both generators consumed the same draws: what comes next matches too.
                assert_eq!(keygen.rng.next_u64(), want_next, "{what}");
            }
        }
    }
}
