//! Content fingerprints for evaluation-key caching.
//!
//! Session resumption lets a reconnecting client skip the multi-megabyte
//! evaluation-key upload: the server keeps recently seen keys in a cache
//! addressed by a **content hash over their canonical wire bytes**, and the
//! client names that hash in its Hello message. Both sides compute the hash
//! with [`fingerprint_eval_keys`], so no fingerprint ever needs to travel
//! alongside the keys themselves.
//!
//! The hash is unkeyed BLAKE2b with a 32-byte digest (RFC 7693),
//! implemented here directly because the build environment vendors all
//! dependencies. Collision resistance matters: the cache is shared between
//! mutually distrusting clients, and a weaker hash would let one client craft
//! keys colliding with another's fingerprint and poison the entry.
//! (Evaluation keys are public material, so even a successful collision
//! discloses nothing — it can only corrupt the victim's results, which their
//! decryption immediately exposes as garbage.)
//!
//! BLAKE2b rather than SHA-256: every cold session hashes its whole key
//! upload twice (the client after sending it, the server as it arrives), and
//! BLAKE2b's 64-bit add-rotate-xor rounds run three to four times faster
//! than a portable scalar SHA-256: 510–670 MB/s against 150–220 MB/s over a
//! 786 512-byte upload on one core of a 2-vCPU Xeon (AVX-512, SHA-NI) VM.
//! SHA-256 through the SHA-NI instructions would be faster still, but
//! reaching them after runtime CPU detection needs `unsafe` (every crate
//! forbids it) and would keep a second, portable path beside it; BLAKE2b is
//! one safe scalar path everywhere.

use std::fmt;

use eva_ckks::{GaloisKeys, RelinearizationKey};

use crate::frame::WireObject;

/// BLAKE2b initialization vector (RFC 7693 §2.6; the SHA-512 IV).
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Message word schedule of the twelve rounds (RFC 7693 §2.7; rounds 10
/// and 11 reuse rows 0 and 1).
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// BLAKE2b block size in bytes.
const BLOCK: usize = 128;

/// Incremental unkeyed BLAKE2b with a 32-byte digest (RFC 7693). Feed
/// bytes with [`Blake2b256::update`], finish with [`Blake2b256::finalize`].
#[derive(Debug, Clone)]
pub struct Blake2b256 {
    state: [u64; 8],
    /// Buffered message block. A full block stays here until more input
    /// arrives, because the last block must be compressed with the final
    /// flag set — even when the message is an exact multiple of 128 bytes.
    block: [u8; BLOCK],
    /// Bytes currently buffered in `block`.
    fill: usize,
    /// Message bytes compressed so far (the RFC's offset counter `t`).
    compressed: u128,
}

impl Default for Blake2b256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Blake2b256 {
    /// A fresh hasher: the IV with the parameter block for an unkeyed
    /// 32-byte digest (fan-out and depth 1) folded into the first word.
    pub fn new() -> Self {
        let mut state = IV;
        state[0] ^= 0x0101_0000 | 32;
        Self {
            state,
            block: [0u8; BLOCK],
            fill: 0,
            compressed: 0,
        }
    }

    /// Absorbs `bytes` into the hash state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.fill == BLOCK {
                // More input follows, so the buffered block is not the last.
                let block = self.block;
                self.compress(&block, BLOCK, false);
                self.fill = 0;
            }
            if self.fill == 0 {
                // Whole blocks straight from the input, keeping at least one
                // byte back for the final compression.
                while rest.len() > BLOCK {
                    let (block, tail) = rest.split_at(BLOCK);
                    self.compress(block.try_into().unwrap(), BLOCK, false);
                    rest = tail;
                }
            }
            let take = rest.len().min(BLOCK - self.fill);
            self.block[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
            self.fill += take;
            rest = &rest[take..];
        }
    }

    /// Compresses the zero-padded last block with the final flag and
    /// returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        self.block[self.fill..].fill(0);
        let block = self.block;
        self.compress(&block, self.fill, true);
        let mut digest = [0u8; 32];
        for (chunk, word) in digest.chunks_exact_mut(8).zip(self.state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        digest
    }

    /// One-shot convenience: the BLAKE2b-256 digest of `bytes`.
    pub fn digest(bytes: &[u8]) -> [u8; 32] {
        let mut hasher = Self::new();
        hasher.update(bytes);
        hasher.finalize()
    }

    /// The compression function F (RFC 7693 §3.2) over one block holding
    /// `len` message bytes.
    fn compress(&mut self, block: &[u8; BLOCK], len: usize, last: bool) {
        self.compressed += len as u128;
        let mut m = [0u64; 16];
        for (word, chunk) in m.iter_mut().zip(block.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        let mut v = [0u64; 16];
        v[..8].copy_from_slice(&self.state);
        v[8..].copy_from_slice(&IV);
        v[12] ^= self.compressed as u64;
        v[13] ^= (self.compressed >> 64) as u64;
        if last {
            v[14] = !v[14];
        }
        for round in 0..12 {
            let s = &SIGMA[round % 10];
            mix(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
            mix(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
            mix(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
            mix(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
            mix(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
            mix(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
            mix(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
            mix(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
        }
        for (i, word) in self.state.iter_mut().enumerate() {
            *word ^= v[i] ^ v[i + 8];
        }
    }
}

/// The mixing function G (RFC 7693 §3.1).
#[inline(always)]
fn mix(v: &mut [u64; 16], a: usize, b: usize, c: usize, d: usize, x: u64, y: u64) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(32);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(24);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(63);
}

/// A 256-bit content fingerprint over a client's evaluation keys, used to
/// address the server's key cache during session resumption.
///
/// Produced by [`fingerprint_eval_keys`]; displayed as 64 lowercase hex
/// digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyFingerprint(pub [u8; 32]);

impl KeyFingerprint {
    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Display for KeyFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in self.0 {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

/// Domain-separation prefix of the evaluation-key fingerprint (so the digest
/// can never be confused with a hash of the same bytes in another role).
const FINGERPRINT_DOMAIN: &[u8] = b"EVA-eval-keys-v3";

/// Computes the content fingerprint of one client's evaluation keys:
///
/// ```text
/// BLAKE2b-256( "EVA-eval-keys-v3" · has_relin(u8) · relin_wire_bytes? · galois_wire_bytes )
/// ```
///
/// where the key bytes are the canonical `eva-wire` encodings (`EVAL` and
/// `EVAG`, which re-encode byte-identically after a decode). Client and
/// server compute this independently — the client over the keys it generated,
/// the server over the keys it received — so the fingerprint itself never
/// needs to be trusted from the wire.
pub fn fingerprint_eval_keys(
    relin: Option<&RelinearizationKey>,
    galois: &GaloisKeys,
) -> KeyFingerprint {
    let mut hasher = Blake2b256::new();
    hasher.update(FINGERPRINT_DOMAIN);
    match relin {
        Some(key) => {
            hasher.update(&[1]);
            hasher.update(&key.to_wire_bytes());
        }
        None => hasher.update(&[0]),
    }
    hasher.update(&galois.to_wire_bytes());
    KeyFingerprint(hasher.finalize())
}

/// Computes the evaluation-key fingerprint from an already-serialized
/// key-upload byte sequence of the shape `has_relin(u8) · EVAL? · EVAG` —
/// which is exactly the session protocol's EvalKeys frame payload.
///
/// This is **byte-identical input** to [`fingerprint_eval_keys`] (the bool
/// is one `0`/`1` byte, the keys are their canonical wire encodings), so the
/// two functions always agree; this form exists so that the client can hash
/// the payload it has just sent and the server can hash the payload it
/// received, with neither side re-serializing tens of megabytes of key
/// material it already holds as bytes. Decoders only accept canonical
/// encodings (re-encoding any accepted buffer is byte-identical, pinned by
/// the corruption tests), so hashing received bytes equals hashing the
/// decoded keys.
pub fn fingerprint_eval_key_payload(payload: &[u8]) -> KeyFingerprint {
    let mut hasher = EvalKeyPayloadHasher::new();
    hasher.update(payload);
    hasher.finalize()
}

/// Streaming form of [`fingerprint_eval_key_payload`]: feed the EvalKeys
/// frame payload in arbitrary chunks as it arrives off the wire and finalize
/// once — the digest is byte-identical to the one-shot function, so a server
/// reading a multi-megabyte key upload in bounded chunks never has to make a
/// second full pass over the payload just to fingerprint it.
#[derive(Debug, Clone)]
pub struct EvalKeyPayloadHasher {
    inner: Blake2b256,
}

impl EvalKeyPayloadHasher {
    /// Starts a fingerprint computation (the domain prefix is hashed here).
    pub fn new() -> Self {
        let mut inner = Blake2b256::new();
        inner.update(FINGERPRINT_DOMAIN);
        Self { inner }
    }

    /// Absorbs the next chunk of the payload.
    pub fn update(&mut self, chunk: &[u8]) {
        self.inner.update(chunk);
    }

    /// Completes the digest over everything absorbed so far.
    pub fn finalize(self) -> KeyFingerprint {
        KeyFingerprint(self.inner.finalize())
    }
}

impl Default for EvalKeyPayloadHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` bytes of the pattern `i mod 251` (no period dividing the
    /// block size).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn known_answers() {
        // Each digest agrees between `b2sum -l 256` and Python's
        // `hashlib.blake2b(digest_size=32)` over the same bytes. The lengths
        // straddle the 128-byte block: an exact multiple must keep its last
        // block for the final compression.
        assert_eq!(
            KeyFingerprint(Blake2b256::digest(b"abc")).to_string(),
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
        );
        // `<length> <digest>` of the `pattern`; 786 512 bytes is about the
        // size of a seeded `service_cold` key upload.
        let cases = "
            0 0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8
            127 f2fe67ff342e21b8f45e8f2e0bcd1d9243245d50ee6c78042e9c491388791c72
            128 c3582f71ebb2be66fa5dd750f80baae97554f3b015663c8be377cfcb2488c1d1
            129 f7f3c46ba2564ff4c4c162da1f5b605f9f1c4aa6a20652a9f9a337c1a2f5b9c9
            255 d9ef0fc521b4266d16df662bec231bc2ec3989e7adeaf63169c295dc239dbbea
            256 582f782226018ec33076bd8d1c42413530ac7e1126260ffc0f306ba3befc3f24
            257 227e15ed64ee8e93eb7bc53828f76eed974f2c4ab1408c3d08f212b7f8d69904
            1000 b372d0608f720c8c3dd41e9c8eecb10143b41abe520b616607e754bf79c08331
            786512 b28a3796c9de41462b59411aecb640e8e27ddeab1b756ccf219f6d202799cd70";
        for case in cases.trim().lines() {
            let (len, want) = case.trim().split_once(' ').unwrap();
            let digest = KeyFingerprint(Blake2b256::digest(&pattern(len.parse().unwrap())));
            assert_eq!(digest.to_string(), want, "length {len}");
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = pattern(1000);
        let whole = Blake2b256::digest(&data);
        for split in 0..=data.len() {
            let mut hasher = Blake2b256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), whole, "split {split}");
        }
        let data = pattern(786_512);
        let whole = Blake2b256::digest(&data);
        for chunk in [1, 64, 128, 129, 65_536] {
            let mut hasher = Blake2b256::new();
            for piece in data.chunks(chunk) {
                hasher.update(piece);
            }
            assert_eq!(hasher.finalize(), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn payload_form_matches_the_reference_definition() {
        // `has_relin(u8) · EVAL? · EVAG` hashed as one buffer must equal the
        // piecewise reference definition — the session layer relies on this
        // to hash frame payloads instead of re-serializing keys.
        let galois = GaloisKeys::default();
        let mut payload = vec![0u8];
        payload.extend_from_slice(&galois.to_wire_bytes());
        assert_eq!(
            fingerprint_eval_key_payload(&payload),
            fingerprint_eval_keys(None, &galois)
        );
    }

    #[test]
    fn fingerprint_hex_rendering() {
        let fp = KeyFingerprint([0xab; 32]);
        assert_eq!(fp.to_string(), "ab".repeat(32));
        assert_eq!(fp.as_bytes(), &[0xab; 32]);
    }
}
