//! # eva-wire — the binary wire formats of the EVA deployment split
//!
//! The EVA paper's deployment model (Section 2) is a client/server split: the
//! client owns every key, encodes and encrypts its inputs, and an untrusted
//! server executes the compiled circuit over ciphertexts. This crate defines
//! the **byte formats** that cross that trust boundary:
//!
//! * [`frame`] — the framing layer shared by *every* EVA binary format: the
//!   little-endian [`Writer`]/[`Reader`] pair, the magic/version/length
//!   object envelope and the [`WireError`] type. The compiler's program
//!   format in `eva-core::serialize` is built on this same layer, so program
//!   files and runtime objects share one set of framing rules.
//! * [`runtime`] — [`WireObject`] codecs for the runtime objects:
//!   [`Ciphertext`](eva_ckks::Ciphertext),
//!   [`SeededCiphertext`](eva_ckks::SeededCiphertext) (half-size fresh
//!   ciphertexts whose uniform polynomial ships as a 32-byte seed),
//!   [`RelinearizationKey`](eva_ckks::RelinearizationKey) and
//!   [`GaloisKeys`](eva_ckks::GaloisKeys) — the objects a session frames.
//! * [`fingerprint`] — BLAKE2b-256 content fingerprints over evaluation-key wire
//!   bytes ([`fingerprint_eval_keys`]), the addresses of the deployment
//!   server's evaluation-key cache for session resumption.
//!
//! `SecretKey` intentionally has **no codec**: the service layer can only
//! frame [`WireObject`] values, so this crate is a structural guarantee that
//! secret key material never reaches a socket.
//!
//! Every decoder is total: truncated, bit-flipped or hostile input returns a
//! [`WireError`], never panics, and claimed lengths are validated against the
//! available bytes before any allocation.
//!
//! # Format summary
//!
//! | object | magic | version |
//! |---|---|---|
//! | EVA program (`eva-core::serialize`) | `EVAP` | 3 |
//! | compiled program bundle (`eva-core::serialize`) | `EVAB` | 3 |
//! | encryption parameter spec (`eva-core::serialize`) | `EVAS` | 2 |
//! | ciphertext | `EVAC` | 1 |
//! | seeded ciphertext | `EVAD` | 1 |
//! | relinearization key | `EVAL` | 1 |
//! | Galois keys | `EVAG` | 2 |
//! | program manifest (`eva-service`) | `EVAM` | 3 |
//!
//! Every object is `magic(4) · version(u32) · body_len(u64) · body`, all
//! integers little-endian. The full byte-level specification, including the
//! session protocol these objects travel inside, lives in
//! [`docs/PROTOCOL.md`](https://github.com/eva-reproduction/eva/blob/main/docs/PROTOCOL.md).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fingerprint;
pub mod frame;
pub mod runtime;

pub use fingerprint::{
    fingerprint_eval_key_payload, fingerprint_eval_keys, Blake2b256, EvalKeyPayloadHasher,
    KeyFingerprint,
};
pub use frame::{Reader, WireError, WireObject, Writer};
pub use runtime::{
    decode_poly, encode_poly, encoded_ciphertext_len, encoded_galois_keys_len,
    encoded_key_switch_key_len, encoded_poly_len, encoded_relin_key_len,
    encoded_seeded_ciphertext_len, MAX_WIRE_CIPHERTEXT_POLYS, MAX_WIRE_DEGREE, MAX_WIRE_LEVEL,
};
