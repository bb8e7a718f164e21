//! Encryption and decryption.
//!
//! Encryption is secret-key only: [`SymmetricEncryptor`] produces
//! [`SeededCiphertext`]s, whose uniform `a` polynomial is replaced by the
//! 32-byte ChaCha20 seed it expands from, halving fresh-ciphertext wire
//! bytes. Whoever encrypts owns the secret key (the deployment client, or
//! the in-process executor), and the noise analysis prices exactly this
//! fresh noise; there is no public-key encryptor, whose `u·e` products
//! would add noise the analysis does not model.

use rand::rngs::{ChaCha20Rng, StdRng};
use rand::{RngCore, SeedableRng};

use crate::ciphertext::{expand_seeded_a, Ciphertext, SeededCiphertext};
use crate::context::CkksContext;
use crate::encoder::{CkksEncoder, Plaintext};
use crate::keys::SecretKey;

/// Encrypts plaintexts under the **secret key**, emitting seed-compressible
/// ciphertexts.
///
/// A symmetric encryption is `(b, a)` with `a` uniformly random and
/// `b = -(a·s) + e + m`. Because `a` is *purely* random, it can be
/// derived from a 32-byte seed and shipped as that seed:
/// [`SymmetricEncryptor::encrypt_seeded`] returns a [`SeededCiphertext`]
/// holding `(seed, b)`, and [`SeededCiphertext::expand`] reproduces the full
/// ciphertext bit-for-bit anywhere. [`SymmetricEncryptor::encrypt`] is the
/// unseeded convenience path; it is *defined* as `encrypt_seeded` followed by
/// `expand`, so the two paths can never diverge.
///
/// [`SymmetricEncryptor::new`] draws randomness from a ChaCha20 generator
/// keyed from OS entropy and
/// [`SymmetricEncryptor::from_seed`] keeps the deterministic xoshiro256**
/// generator for reproducible tests.
pub struct SymmetricEncryptor {
    context: CkksContext,
    secret_key: SecretKey,
    rng: Box<dyn RngCore + Send + Sync>,
}

impl std::fmt::Debug for SymmetricEncryptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymmetricEncryptor")
            .field("degree", &self.context.degree())
            .finish()
    }
}

impl SymmetricEncryptor {
    /// Creates a symmetric encryptor whose randomness comes from a ChaCha20
    /// generator keyed from OS entropy.
    pub fn new(context: CkksContext, secret_key: SecretKey) -> Self {
        Self {
            context,
            secret_key,
            rng: Box::new(ChaCha20Rng::from_os_entropy()),
        }
    }

    /// Creates a symmetric encryptor with deterministic encryption randomness
    /// (xoshiro256**; tests and benchmarks only — not a CSPRNG).
    pub fn from_seed(context: CkksContext, secret_key: SecretKey, seed: u64) -> Self {
        Self {
            context,
            secret_key,
            rng: Box::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Encrypts a plaintext into the seeded transport form. The per-ciphertext
    /// expansion seed is drawn from the encryptor's own RNG; the error
    /// polynomial is drawn next, so the draw order is fixed and
    /// seeded/unseeded encryptions under the same RNG state coincide.
    pub fn encrypt_seeded(&mut self, plaintext: &Plaintext) -> SeededCiphertext {
        let basis = self.context.key_basis();
        let level = plaintext.level;
        let n = self.context.degree();

        // Per-ciphertext expansion seed (little-endian u64 fill).
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        let a = expand_seeded_a(&self.context, &seed, level);

        let cbd = eva_math::sample_cbd(&mut self.rng, n);
        let signed: Vec<i64> = cbd.iter().map(|&v| v as i64).collect();
        let mut e = basis.poly_from_signed(&signed, level);
        e.to_ntt(basis);

        // b = -(a·s) + e + m over the first `level` primes.
        let s = self.secret_key.ntt.truncated(level);
        let mut b = a.dyadic_mul(&s, basis);
        b.negate(basis);
        b.add_assign(&e, basis);
        b.add_assign(&plaintext.poly, basis);

        SeededCiphertext {
            seed,
            b,
            scale_log2: plaintext.scale_log2,
            level,
        }
    }

    /// Encrypts a plaintext into a full [`Ciphertext`] — exactly the
    /// expansion of [`SymmetricEncryptor::encrypt_seeded`], so the seeded and
    /// unseeded paths are bit-identical by construction.
    pub fn encrypt(&mut self, plaintext: &Plaintext) -> Ciphertext {
        self.encrypt_seeded(plaintext)
            .expand(&self.context)
            .expect("a freshly produced seeded ciphertext always fits its own context")
    }
}

/// Decrypts ciphertexts with the secret key and decodes them back to reals.
#[derive(Debug)]
pub struct Decryptor {
    context: CkksContext,
    secret_key: SecretKey,
    encoder: CkksEncoder,
}

impl Decryptor {
    /// Creates a decryptor.
    pub fn new(context: CkksContext, secret_key: SecretKey) -> Self {
        let encoder = CkksEncoder::new(context.clone());
        Self {
            context,
            secret_key,
            encoder,
        }
    }

    /// Decrypts a ciphertext into the underlying (still encoded) polynomial.
    pub fn decrypt(&self, ciphertext: &Ciphertext) -> Plaintext {
        let basis = self.context.key_basis();
        let level = ciphertext.level();
        let s = self.secret_key.ntt.truncated(level);

        // m = c0 + c1*s + c2*s^2 + ...
        let mut acc = ciphertext.polys()[0].clone();
        let mut s_power = s.clone();
        for poly in &ciphertext.polys()[1..] {
            let term = poly.dyadic_mul(&s_power, basis);
            acc.add_assign(&term, basis);
            s_power.dyadic_mul_assign(&s, basis);
        }
        Plaintext {
            poly: acc,
            scale_log2: ciphertext.scale_log2(),
            level,
        }
    }

    /// Decrypts and decodes a ciphertext into `slots` real values.
    pub fn decrypt_to_values(&self, ciphertext: &Ciphertext, slots: usize) -> Vec<f64> {
        let plaintext = self.decrypt(ciphertext);
        self.encoder.decode(&plaintext, slots)
    }

    /// The held secret key's leak-audit probe (see
    /// [`SecretKey::leak_probe`]).
    pub fn secret_key_probe(&self) -> Vec<u8> {
        self.secret_key.leak_probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParameters;

    fn setup() -> (CkksContext, CkksEncoder, SymmetricEncryptor, Decryptor) {
        let params = CkksParameters::new_insecure(256, &[40, 40, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 11);
        let encoder = CkksEncoder::new(ctx.clone());
        let encryptor = SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 12);
        let decryptor = Decryptor::new(ctx.clone(), keygen.secret_key().clone());
        (ctx, encoder, encryptor, decryptor)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (_ctx, encoder, mut encryptor, decryptor) = setup();
        let values: Vec<f64> = (0..128).map(|i| (i as f64 / 128.0) - 0.5).collect();
        let scale = 40.0;
        let pt = encoder.encode(&values, scale, 3);
        let ct = encryptor.encrypt(&pt);
        assert_eq!(ct.size(), 2);
        assert_eq!(ct.level(), 3);
        let decrypted = decryptor.decrypt_to_values(&ct, 128);
        for (a, b) in decrypted.iter().zip(&values) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn an_encryption_of_zero_decrypts_to_a_small_error() {
        // b + a·s = e + m: with m = 0, decryption leaves the error alone.
        let (ctx, encoder, mut encryptor, decryptor) = setup();
        let zero = encoder.encode(&[0.0; 128], 30.0, 3);
        let mut error = decryptor.decrypt(&encryptor.encrypt(&zero)).poly;
        error.to_coeff(ctx.key_basis());
        // Each coefficient modulo the first prime, centered: must be tiny.
        let q0 = ctx.key_basis().moduli()[0].value();
        for &c in error.residue(0) {
            let centered = if c > q0 / 2 {
                c as i64 - q0 as i64
            } else {
                c as i64
            };
            assert!(
                centered.abs() < 64,
                "error coefficient too large: {centered}"
            );
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (_ctx, encoder, mut encryptor, _) = setup();
        let pt = encoder.encode(&[1.0; 128], 30.0, 2);
        let a = encryptor.encrypt(&pt);
        let b = encryptor.encrypt(&pt);
        assert_ne!(
            a.polys()[1],
            b.polys()[1],
            "two encryptions share randomness"
        );
    }

    #[test]
    fn decrypting_with_wrong_key_garbles_message() {
        let (ctx, encoder, mut encryptor, _) = setup();
        let other = KeyGenerator::from_seed(ctx.clone(), 999);
        let wrong = Decryptor::new(ctx, other.secret_key().clone());
        let values = vec![0.25; 128];
        let pt = encoder.encode(&values, 40.0, 1);
        let ct = encryptor.encrypt(&pt);
        let garbled = wrong.decrypt_to_values(&ct, 128);
        let max_err = garbled
            .iter()
            .zip(&values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err > 1.0, "wrong key should not decrypt correctly");
    }

    #[test]
    fn symmetric_encryption_decrypts_and_matches_its_expansion() {
        let (ctx, encoder, _, _) = setup();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 11);
        let decryptor = Decryptor::new(ctx.clone(), keygen.secret_key().clone());
        let values: Vec<f64> = (0..128).map(|i| (i as f64 / 64.0) - 1.0).collect();
        let pt = encoder.encode(&values, 40.0, 3);

        // Seeded and unseeded paths from the same RNG state are bit-identical.
        let mut enc_a = SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 21);
        let mut enc_b = SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 21);
        let seeded = enc_a.encrypt_seeded(&pt);
        let full = enc_b.encrypt(&pt);
        let expanded = seeded.expand(&ctx).unwrap();
        assert_eq!(expanded.polys(), full.polys());
        assert_eq!(expanded.scale_log2().to_bits(), full.scale_log2().to_bits());
        assert_eq!(expanded.level(), full.level());

        // Both decrypt to the message.
        for ct in [&expanded, &full] {
            let decrypted = decryptor.decrypt_to_values(ct, 128);
            for (a, b) in decrypted.iter().zip(&values) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn seeded_expansion_rejects_foreign_shapes() {
        let (ctx, encoder, _, _) = setup();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 11);
        let mut enc = SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 5);
        let pt = encoder.encode(&[1.0; 4], 30.0, 2);
        let seeded = enc.encrypt_seeded(&pt);
        // A context with a shorter chain cannot expand a level-2 ciphertext...
        let small =
            CkksContext::new(CkksParameters::new_insecure(256, &[40], 45).unwrap()).unwrap();
        assert!(seeded.expand(&small).is_err());
        // ...and neither can one with a different ring degree.
        let other = CkksContext::new(CkksParameters::new_insecure(512, &[40, 40, 40], 45).unwrap())
            .unwrap();
        assert!(seeded.expand(&other).is_err());
    }

    #[test]
    fn symmetric_encryption_is_randomized() {
        let (ctx, encoder, _, _) = setup();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 11);
        let mut enc = SymmetricEncryptor::from_seed(ctx, keygen.secret_key().clone(), 6);
        let pt = encoder.encode(&[1.0; 128], 30.0, 2);
        let a = enc.encrypt_seeded(&pt);
        let b = enc.encrypt_seeded(&pt);
        assert_ne!(
            a.seed(),
            b.seed(),
            "two encryptions share an expansion seed"
        );
    }

    #[test]
    fn fresh_ciphertext_memory_accounting() {
        let (_ctx, encoder, mut encryptor, _) = setup();
        let pt = encoder.encode(&[0.0; 128], 30.0, 3);
        let ct = encryptor.encrypt(&pt);
        // 2 polynomials * 3 primes * 256 coefficients * 8 bytes.
        assert_eq!(ct.memory_bytes(), 2 * 3 * 256 * 8);
    }
}
