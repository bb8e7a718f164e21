//! Wire codecs for the runtime objects that cross the client/server trust
//! boundary: full and seeded ciphertexts and the two evaluation-key types.
//!
//! Every codec is a [`WireObject`] — a 4-byte magic, a `u32` version and a
//! length-prefixed body — and every decoder validates shapes structurally
//! (consistent degrees, levels and forms, bounded sizes, finite scales) so
//! corrupt or hostile input returns a [`WireError`] instead of panicking or
//! triggering a pathological allocation.
//!
//! There is deliberately **no codec for `SecretKey`**: the service layer can
//! only ever frame objects that implement [`WireObject`], so secret key
//! material cannot reach a socket through this crate.

use eva_ckks::{Ciphertext, GaloisKeys, KeySwitchKey, RelinearizationKey, SeededCiphertext};
use eva_poly::{PolyForm, RnsPoly};

use crate::frame::{Reader, WireError, WireObject, Writer};

/// Largest ring degree a decoder will accept (one doubling above the largest
/// degree the security tables support, as headroom for experiments).
pub const MAX_WIRE_DEGREE: usize = 1 << 17;

/// Largest RNS level (number of primes) a decoder will accept.
pub const MAX_WIRE_LEVEL: usize = 64;

/// Largest number of polynomials a ciphertext may carry on the wire. Fresh
/// ciphertexts have 2, un-relinearized products 3; higher powers are not
/// produced by any executor path but get a little headroom.
pub const MAX_WIRE_CIPHERTEXT_POLYS: usize = 8;

/// Bytes of an object envelope: magic, version and body length.
const ENVELOPE_BYTES: u64 = 4 + 4 + 8;

fn form_tag(form: PolyForm) -> u8 {
    match form {
        PolyForm::Coeff => 0,
        PolyForm::Ntt => 1,
    }
}

fn form_from_tag(tag: u8) -> Result<PolyForm, WireError> {
    match tag {
        0 => Ok(PolyForm::Coeff),
        1 => Ok(PolyForm::Ntt),
        other => Err(WireError::Invalid(format!(
            "unknown polynomial form tag {other}"
        ))),
    }
}

/// Writes one RNS polynomial (nested field; no envelope of its own).
pub fn encode_poly(w: &mut Writer, poly: &RnsPoly) {
    w.u32(poly.degree() as u32);
    w.u32(poly.level() as u32);
    w.u8(form_tag(poly.form()));
    for row in poly.rows() {
        for &limb in row {
            w.u64(limb);
        }
    }
}

/// Encoded length of a polynomial of `degree` coefficients over `level` primes.
pub fn encoded_poly_len(degree: usize, level: usize) -> u64 {
    4 + 4 + 1 + 8 * (degree * level) as u64
}

/// Reads one RNS polynomial written by [`encode_poly`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation or out-of-range shape fields.
pub fn decode_poly(r: &mut Reader<'_>) -> Result<RnsPoly, WireError> {
    let degree = r.u32()? as usize;
    let level = r.u32()? as usize;
    if degree == 0 || degree > MAX_WIRE_DEGREE {
        return Err(WireError::Invalid(format!(
            "polynomial degree {degree} out of range"
        )));
    }
    if level == 0 || level > MAX_WIRE_LEVEL {
        return Err(WireError::Invalid(format!(
            "polynomial level {level} out of range"
        )));
    }
    let form = form_from_tag(r.u8()?)?;
    let data = r.u64_array(degree * level)?;
    Ok(RnsPoly::from_flat(degree, data, form))
}

/// Reads `count` polynomials that must agree in degree, level and form.
fn decode_uniform_polys(
    r: &mut Reader<'_>,
    count: usize,
    what: &str,
) -> Result<Vec<RnsPoly>, WireError> {
    let mut polys: Vec<RnsPoly> = Vec::with_capacity(count);
    for i in 0..count {
        let poly = decode_poly(r)?;
        if let Some(first) = polys.first() {
            if poly.degree() != first.degree()
                || poly.level() != first.level()
                || poly.form() != first.form()
            {
                return Err(WireError::Invalid(format!(
                    "{what} polynomial {i} disagrees with polynomial 0 in shape or form"
                )));
            }
        }
        polys.push(poly);
    }
    Ok(polys)
}

impl WireObject for Ciphertext {
    const MAGIC: [u8; 4] = *b"EVAC";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut Writer) {
        w.f64(self.scale_log2());
        w.u32(self.level() as u32);
        w.u8(self.size() as u8);
        for poly in self.polys() {
            encode_poly(w, poly);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let scale_log2 = r.f64()?;
        if !scale_log2.is_finite() {
            return Err(WireError::Invalid("non-finite ciphertext scale".into()));
        }
        let level = r.u32()? as usize;
        let count = r.u8()? as usize;
        if count == 0 || count > MAX_WIRE_CIPHERTEXT_POLYS {
            return Err(WireError::Invalid(format!(
                "ciphertext polynomial count {count} out of range"
            )));
        }
        let polys = decode_uniform_polys(r, count, "ciphertext")?;
        if polys[0].level() != level {
            return Err(WireError::Invalid(format!(
                "ciphertext level field {level} does not match polynomial level {}",
                polys[0].level()
            )));
        }
        Ok(Ciphertext::from_parts(polys, scale_log2, level))
    }
}

/// Encoded length of an `EVAC` object holding `size` such polynomials.
pub fn encoded_ciphertext_len(size: usize, degree: usize, level: usize) -> u64 {
    ENVELOPE_BYTES + 8 + 4 + 1 + size as u64 * encoded_poly_len(degree, level)
}

impl WireObject for SeededCiphertext {
    const MAGIC: [u8; 4] = *b"EVAD";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut Writer) {
        w.f64(self.scale_log2());
        w.u32(self.level() as u32);
        w.raw(self.seed());
        encode_poly(w, self.b());
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let scale_log2 = r.f64()?;
        if !scale_log2.is_finite() {
            return Err(WireError::Invalid(
                "non-finite seeded-ciphertext scale".into(),
            ));
        }
        let level = r.u32()? as usize;
        let seed: [u8; 32] = r.take(32)?.try_into().expect("take(32) returns 32 bytes");
        let b = decode_poly(r)?;
        if b.level() != level {
            return Err(WireError::Invalid(format!(
                "seeded ciphertext level field {level} does not match polynomial level {}",
                b.level()
            )));
        }
        Ok(SeededCiphertext::from_parts(seed, b, scale_log2, level))
    }
}

/// Encoded length of an `EVAD` object: one polynomial plus its 32-byte seed.
pub fn encoded_seeded_ciphertext_len(degree: usize, level: usize) -> u64 {
    ENVELOPE_BYTES + 8 + 4 + 32 + encoded_poly_len(degree, level)
}

fn encode_key_switch_key(w: &mut Writer, key: &KeySwitchKey) {
    w.u32(key.digits().len() as u32);
    for (k0, k1) in key.canonical_digits() {
        encode_poly(w, &k0);
        encode_poly(w, &k1);
    }
}

/// Encoded length of a key-switching key of `digits` digit pairs over the
/// `level` primes of the key basis (the field nested in `EVAL` and `EVAG`).
pub fn encoded_key_switch_key_len(digits: usize, degree: usize, level: usize) -> u64 {
    4 + 2 * digits as u64 * encoded_poly_len(degree, level)
}

fn decode_key_switch_key(r: &mut Reader<'_>) -> Result<KeySwitchKey, WireError> {
    let count = r.u32()? as usize;
    if count == 0 || count > MAX_WIRE_LEVEL {
        return Err(WireError::Invalid(format!(
            "key-switching digit count {count} out of range"
        )));
    }
    let polys = decode_uniform_polys(r, 2 * count, "key-switching key")?;
    let mut it = polys.into_iter();
    let mut digits = Vec::with_capacity(count);
    for _ in 0..count {
        digits.push((it.next().unwrap(), it.next().unwrap()));
    }
    Ok(KeySwitchKey::from_digits(digits))
}

impl WireObject for RelinearizationKey {
    const MAGIC: [u8; 4] = *b"EVAL";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut Writer) {
        encode_key_switch_key(w, self.key_switch_key());
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RelinearizationKey::from_key_switch_key(
            decode_key_switch_key(r)?,
        ))
    }
}

/// Encoded length of an `EVAL` object around a key-switching key of
/// `key_switch_key_len` bytes.
pub fn encoded_relin_key_len(key_switch_key_len: u64) -> u64 {
    ENVELOPE_BYTES + key_switch_key_len
}

/// Encoded length of an `EVAG` object with `steps` step-table entries and
/// `elements` keys of `key_switch_key_len` bytes each.
pub fn encoded_galois_keys_len(steps: usize, elements: usize, key_switch_key_len: u64) -> u64 {
    ENVELOPE_BYTES + 4 + 16 * steps as u64 + 4 + elements as u64 * (8 + key_switch_key_len)
}

impl WireObject for GaloisKeys {
    const MAGIC: [u8; 4] = *b"EVAG";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut Writer) {
        let steps = self.step_elements();
        w.u32(steps.len() as u32);
        for (step, elt) in steps {
            w.i64(step);
            w.u64(elt);
        }
        let keys = self.element_keys();
        w.u32(keys.len() as u32);
        for (elt, key) in keys {
            w.u64(elt);
            encode_key_switch_key(w, key);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let step_count = r.u32()? as usize;
        if step_count > 4 * MAX_WIRE_DEGREE {
            return Err(WireError::Invalid(format!(
                "Galois step count {step_count} out of range"
            )));
        }
        let mut steps = Vec::with_capacity(step_count.min(1 << 16));
        let mut prev_step: Option<i64> = None;
        for _ in 0..step_count {
            let step = r.i64()?;
            let elt = r.u64()?;
            if prev_step.is_some_and(|p| p >= step) {
                return Err(WireError::Invalid(
                    "Galois steps are not strictly increasing".into(),
                ));
            }
            prev_step = Some(step);
            steps.push((step, elt));
        }
        let key_count = r.u32()? as usize;
        let mut keys: Vec<(u64, KeySwitchKey)> = Vec::with_capacity(key_count.min(1 << 16));
        let mut degree: Option<usize> = None;
        for _ in 0..key_count {
            let elt = r.u64()?;
            let key = decode_key_switch_key(r)?;
            let key_degree = key.digits()[0].0.degree();
            if degree.is_some_and(|d| d != key_degree) {
                return Err(WireError::Invalid(
                    "Galois keys disagree in ring degree".into(),
                ));
            }
            degree = Some(key_degree);
            // Galois elements must be odd units modulo 2N over a
            // power-of-two ring; validating here keeps the preconditions of
            // the automorphism table `GaloisKeys::from_parts` builds out of
            // reach of hostile input.
            if !key_degree.is_power_of_two() || key_degree < 4 {
                return Err(WireError::Invalid(format!(
                    "Galois key ring degree {key_degree} is not a power of two >= 4"
                )));
            }
            if key.digits()[0].0.form() != PolyForm::Ntt {
                return Err(WireError::Invalid(
                    "Galois key polynomials are not in NTT form".into(),
                ));
            }
            if elt % 2 != 1 || elt >= 2 * key_degree as u64 {
                return Err(WireError::Invalid(format!(
                    "Galois element {elt} is not an odd unit modulo 2N"
                )));
            }
            if keys.last().is_some_and(|(prev, _)| *prev >= elt) {
                return Err(WireError::Invalid(
                    "Galois elements are not strictly increasing".into(),
                ));
            }
            keys.push((elt, key));
        }
        for (step, elt) in &steps {
            if !keys.iter().any(|(e, _)| e == elt) {
                return Err(WireError::Invalid(format!(
                    "rotation step {step} references Galois element {elt} with no key"
                )));
            }
        }
        for (elt, _) in &keys {
            if !steps.iter().any(|(_, e)| e == elt) {
                return Err(WireError::Invalid(format!(
                    "Galois element {elt} is not referenced by any rotation step"
                )));
            }
        }
        Ok(GaloisKeys::from_parts(steps, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_ckks::{
        CkksContext, CkksEncoder, CkksParameters, Decryptor, KeyGenerator, SymmetricEncryptor,
    };

    fn context() -> CkksContext {
        let params = CkksParameters::new_insecure(32, &[30, 30, 40], 45).unwrap();
        CkksContext::new(params).unwrap()
    }

    #[test]
    fn ciphertext_roundtrip_is_bit_exact_and_reencode_is_byte_identical() {
        let ctx = context();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 1);
        let encoder = CkksEncoder::new(ctx.clone());
        let mut encryptor =
            SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 2);
        let pt = encoder.encode(&[0.5, -1.25, 3.0, 0.125], 30.5, 3);
        let ct = encryptor.encrypt(&pt);

        let bytes = ct.to_wire_bytes();
        let restored = Ciphertext::from_wire_bytes(&bytes).unwrap();
        assert_eq!(restored.scale_log2().to_bits(), ct.scale_log2().to_bits());
        assert_eq!(restored.level(), ct.level());
        assert_eq!(restored.polys(), ct.polys());
        assert_eq!(restored.to_wire_bytes(), bytes);

        // The restored ciphertext still decrypts.
        let decryptor = Decryptor::new(ctx, keygen.secret_key().clone());
        let values = decryptor.decrypt_to_values(&restored, 4);
        assert!((values[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn seeded_ciphertext_roundtrip_expands_to_the_unseeded_encryption() {
        let ctx = context();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 9);
        let encoder = CkksEncoder::new(ctx.clone());
        let pt = encoder.encode(&[0.75, -2.0, 1.0, 0.5], 31.5, 3);
        let mut seeded_enc =
            SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 10);
        let mut full_enc =
            SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 10);

        let seeded = seeded_enc.encrypt_seeded(&pt);
        let bytes = seeded.to_wire_bytes();
        // The seeded transport form is roughly half the full encoding.
        let full = full_enc.encrypt(&pt);
        assert!(bytes.len() * 100 <= full.to_wire_bytes().len() * 55);

        let restored = SeededCiphertext::from_wire_bytes(&bytes).unwrap();
        assert_eq!(restored.to_wire_bytes(), bytes);
        let expanded = restored.expand(&ctx).unwrap();
        assert_eq!(expanded.polys(), full.polys());
        assert_eq!(expanded.scale_log2().to_bits(), full.scale_log2().to_bits());

        let decryptor = Decryptor::new(ctx, keygen.secret_key().clone());
        let values = decryptor.decrypt_to_values(&expanded, 4);
        assert!((values[0] - 0.75).abs() < 1e-3);
    }

    #[test]
    fn relin_and_galois_keys_roundtrip() {
        let ctx = context();
        let mut keygen = KeyGenerator::from_seed(ctx.clone(), 4);
        let rk = keygen.create_relinearization_key();
        let restored = RelinearizationKey::from_wire_bytes(&rk.to_wire_bytes()).unwrap();
        assert_eq!(
            restored.key_switch_key().digits(),
            rk.key_switch_key().digits()
        );

        let gk = keygen.create_galois_keys(&[1, -2, 5]);
        let bytes = gk.to_wire_bytes();
        let restored = GaloisKeys::from_wire_bytes(&bytes).unwrap();
        assert_eq!(restored.step_elements(), gk.step_elements());
        assert_eq!(
            restored.to_wire_bytes(),
            bytes,
            "re-encode must be byte-identical"
        );
        assert!(restored.supports_step(-2));
    }

    #[test]
    fn encoded_lengths_match_the_encoders() {
        let ctx = context();
        let (degree, level) = (ctx.degree(), ctx.max_level());
        let mut keygen = KeyGenerator::from_seed(ctx.clone(), 5);
        let encoder = CkksEncoder::new(ctx.clone());
        let mut encryptor = SymmetricEncryptor::from_seed(ctx, keygen.secret_key().clone(), 6);
        let pt = encoder.encode(&[1.0; 4], 30.0, level);
        let ct = encryptor.encrypt(&pt);
        let mut w = Writer::new();
        encode_poly(&mut w, &ct.polys()[0]);
        assert_eq!(w.into_bytes().len() as u64, encoded_poly_len(degree, level));
        assert_eq!(
            ct.to_wire_bytes().len() as u64,
            encoded_ciphertext_len(2, degree, level)
        );
        assert_eq!(
            encryptor.encrypt_seeded(&pt).to_wire_bytes().len() as u64,
            encoded_seeded_ciphertext_len(degree, level)
        );

        // One digit per data prime, each over the key basis (one more prime).
        let key = encoded_key_switch_key_len(level, degree, level + 1);
        let (relin, galois) = keygen.create_evaluation_keys(true, &[1, -2, 5]);
        let relin = relin.unwrap().to_wire_bytes();
        assert_eq!(relin.len() as u64, encoded_relin_key_len(key));
        assert_eq!(
            galois.to_wire_bytes().len() as u64,
            encoded_galois_keys_len(3, 3, key)
        );
        // Steps congruent modulo the slot count share one key.
        let aliasing = keygen.create_galois_keys(&[1, 1 + degree as i64 / 2]);
        assert_eq!(
            aliasing.to_wire_bytes().len() as u64,
            encoded_galois_keys_len(2, 1, key)
        );
        assert_eq!(
            GaloisKeys::default().to_wire_bytes().len() as u64,
            encoded_galois_keys_len(0, 0, key)
        );
    }

    #[test]
    fn encoded_lengths_reproduce_measured_key_uploads() {
        // `EVAL` plus `EVAG` bytes, with as many steps as keys.
        let keys = |degree: usize, primes: usize, elements: usize| {
            let key = encoded_key_switch_key_len(primes, degree, primes + 1);
            encoded_relin_key_len(key) + encoded_galois_keys_len(elements, elements, key)
        };
        // LeNet-5-small's kernel replay: N = 2^15, 8 data primes, 8 keys.
        assert_eq!(keys(1 << 15, 8, 8), 339_740_188);
        // Sobel 64×64: N = 2^14, 4 data primes, 8 keys.
        assert_eq!(keys(1 << 14, 4, 8), 47_186_836);
        // x² + x, the service workloads: N = 2^13, 2 data primes, no rotation.
        assert_eq!(keys(1 << 13, 2, 0), 786_512);
    }

    #[test]
    fn empty_galois_keys_roundtrip() {
        let gk = GaloisKeys::default();
        let restored = GaloisKeys::from_wire_bytes(&gk.to_wire_bytes()).unwrap();
        assert_eq!(restored.step_count(), 0);
    }

    #[test]
    fn mismatched_levels_are_rejected() {
        let ctx = context();
        let keygen = KeyGenerator::from_seed(ctx.clone(), 7);
        let encoder = CkksEncoder::new(ctx.clone());
        let ct = SymmetricEncryptor::from_seed(ctx, keygen.secret_key().clone(), 8)
            .encrypt(&encoder.encode(&[1.0; 4], 20.0, 2));
        let mut bytes = ct.to_wire_bytes();
        // The level field sits right after the envelope (16 bytes) and the
        // scale (8 bytes); bump it so it disagrees with the polynomials.
        bytes[16 + 8] ^= 0x01;
        assert!(matches!(
            Ciphertext::from_wire_bytes(&bytes),
            Err(WireError::Invalid(_))
        ));
    }
}
