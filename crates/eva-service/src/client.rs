//! The deployment client: the trusted party that owns every key.
//!
//! [`EvaClient`] connects to an [`EvaServer`](crate::EvaServer), validates
//! the encryption parameters the server publishes (rebuilding them with
//! [`CkksParameters::from_primes`], which re-checks NTT-friendliness,
//! distinctness and — when claimed — the 128-bit security bound), generates
//! all key material locally, uploads only the evaluation keys, and then
//! encrypts inputs / decrypts outputs for as many evaluation rounds as it
//! likes. The secret key never leaves the client, and there is no public
//! key: key derivation, encryption and decryption are `eva-backend`'s
//! [`SecretContext`], the same code the in-process executor runs, so a
//! seeded session is bit-identical to an in-process run.
//!
//! Two transport optimizations keep sessions lean:
//!
//! * fresh ciphertexts travel in **seeded** form (`EVAD`): inputs are
//!   encrypted with the secret key, and the uniform polynomial ships as a
//!   32-byte seed — roughly half the bytes of the full two-polynomial
//!   encoding;
//! * a reconnecting client can **resume**: it presents the
//!   [`SessionTicket`] of an earlier session — the key seed paired with the
//!   evaluation-key fingerprint — and if the server still caches those keys
//!   the multi-megabyte key upload, and the client-side key generation it
//!   would require, are skipped entirely. Resumed sessions always draw
//!   **fresh** encryption randomness from OS entropy: only key *identity*
//!   is deterministic, never the per-ciphertext randomness (re-seeding the
//!   encryption RNG across sessions would repeat `(a, e)` pairs, and the
//!   difference of two `b` components would hand an observer the encoded
//!   plaintext difference).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use eva_backend::{admit_values, SecretContext};
use eva_ckks::{CkksContext, CkksParameters};
use eva_core::EvaError;
use eva_wire::{fingerprint_eval_key_payload, KeyFingerprint};

use crate::error::ServiceError;
use crate::limits::ClientConfig;
use crate::protocol::{
    encode_payload, expect_message, write_frame, write_message, Message, ProgramManifest,
    PROTOCOL_VERSION,
};

/// Establishes a TCP connection under a [`ClientConfig`]: connect deadline
/// per resolved address, then socket read/write timeouts — so neither a
/// black-holed connect nor a stalled server can hang the client forever.
fn connect_stream(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
) -> Result<TcpStream, ServiceError> {
    let stream = match config.connect_timeout {
        Some(timeout) => {
            let mut last_err = None;
            let mut connected = None;
            for addr in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&addr, timeout) {
                    Ok(stream) => {
                        connected = Some(stream);
                        break;
                    }
                    Err(err) => last_err = Some(err),
                }
            }
            connected.ok_or_else(|| {
                ServiceError::Io(last_err.unwrap_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "address resolved to no socket addresses",
                    )
                }))
            })?
        }
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    Ok(stream)
}

/// Everything a client needs to resume a later session without re-uploading
/// its evaluation keys: the deterministic key seed (to re-derive the *same
/// secret key* the cached evaluation keys belong to) and the content
/// fingerprint addressing the server's key cache.
///
/// The two values are deliberately one type: resuming with a fingerprint
/// from a *different* seed would make the server relinearize and rotate
/// under the wrong secret, and every output would silently decrypt to noise
/// — so the pairing produced by [`EvaClient::resumption_ticket`] is the only
/// supported way to resume. Store and reload it as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicket {
    /// The key-derivation seed the original session ran with.
    pub key_seed: u64,
    /// Fingerprint of the evaluation keys derived from that seed.
    pub fingerprint: KeyFingerprint,
}

/// A connected client session, generic over the transport so tests can use
/// instrumented or in-memory streams.
pub struct EvaClient<S> {
    stream: S,
    manifest: ProgramManifest,
    secret: SecretContext,
    key_seed: Option<u64>,
    fingerprint: Option<KeyFingerprint>,
    resumed: bool,
}

impl<S> std::fmt::Debug for EvaClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaClient")
            .field("program", &self.manifest.name)
            .field("degree", &self.secret.context().degree())
            .field("resumed", &self.resumed)
            .finish()
    }
}

impl EvaClient<TcpStream> {
    /// Connects to a server under the default [`ClientConfig`] (a connect
    /// deadline and socket read/write timeouts) and performs the full
    /// handshake (hello → manifest → parameter validation → key generation
    /// → evaluation-key upload).
    ///
    /// `key_seed` selects deterministic **key derivation** — what makes a
    /// session resumable via [`EvaClient::resumption_ticket`]; pass `None`
    /// for fresh CSPRNG keys. Per-ciphertext encryption randomness is always
    /// drawn fresh from OS entropy either way (see
    /// [`EvaClient::handshake_deterministic`] for the test-only fully
    /// reproducible mode).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on connection, protocol or validation
    /// failures.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use std::collections::HashMap;
    /// use eva_service::EvaClient;
    ///
    /// let mut client = EvaClient::connect("server:7700", None).unwrap();
    /// let inputs: HashMap<String, Vec<f64>> =
    ///     [("x".to_string(), vec![1.5; 8])].into_iter().collect();
    /// let outputs = client.evaluate(&inputs).unwrap();
    /// client.finish().unwrap();
    /// # let _ = outputs;
    /// ```
    ///
    /// To use session resumption later, connect with a **seed** (so the same
    /// keys can be re-derived) and keep the [`SessionTicket`]; see
    /// [`EvaClient::connect_resuming`].
    pub fn connect(addr: impl ToSocketAddrs, key_seed: Option<u64>) -> Result<Self, ServiceError> {
        Self::connect_with(addr, key_seed, &ClientConfig::default())
    }

    /// Like [`EvaClient::connect`], but attempting **session resumption**
    /// with the [`SessionTicket`] of an earlier seeded session
    /// ([`EvaClient::resumption_ticket`]). If the server still caches the
    /// ticket's keys, neither evaluation-key generation nor the upload
    /// happens; otherwise the handshake falls back to the full path
    /// transparently.
    ///
    /// The ticket pairs the key seed with the fingerprint because resumption
    /// is only sound when this client re-derives the **exact secret key**
    /// the cached evaluation keys were generated from — mismatched halves
    /// would make every output silently decrypt to noise. Encryption
    /// randomness is drawn **fresh from OS entropy** regardless of the seed:
    /// the seed fixes identity, never per-ciphertext randomness.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on connection, protocol or validation
    /// failures.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use eva_service::EvaClient;
    ///
    /// let mut client = EvaClient::connect("server:7700", Some(7)).unwrap();
    /// let ticket = client.resumption_ticket().unwrap();
    /// client.finish().unwrap();
    ///
    /// // Later: present the ticket — zero key-upload bytes.
    /// let mut client = EvaClient::connect_resuming("server:7700", ticket).unwrap();
    /// assert!(client.resumed());
    /// ```
    pub fn connect_resuming(
        addr: impl ToSocketAddrs,
        ticket: SessionTicket,
    ) -> Result<Self, ServiceError> {
        Self::handshake_resuming(connect_stream(addr, &ClientConfig::default())?, ticket)
    }

    /// Like [`EvaClient::connect`], but under a caller-chosen
    /// [`ClientConfig`]: the TCP connect honors its deadline (per resolved
    /// address) and the socket gets its read/write timeouts.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on connection (including
    /// [`std::io::ErrorKind::TimedOut`]), protocol or validation failures.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        key_seed: Option<u64>,
        config: &ClientConfig,
    ) -> Result<Self, ServiceError> {
        Self::handshake(connect_stream(addr, config)?, key_seed)
    }
}

impl<S: Read + Write> EvaClient<S> {
    /// Performs the handshake over an already-established stream.
    ///
    /// `key_seed` fixes **key identity only** (so the session can mint a
    /// [`SessionTicket`] and later resume); per-ciphertext encryption
    /// randomness always comes fresh from OS entropy, so reconnecting with
    /// the same seed never repeats encryption randomness. For bit-for-bit
    /// reproducible sessions (tests, measurements) use
    /// [`EvaClient::handshake_deterministic`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on protocol or validation failures.
    pub fn handshake(stream: S, key_seed: Option<u64>) -> Result<Self, ServiceError> {
        Self::handshake_inner(stream, key_seed, None, false)
    }

    /// Performs a **fully deterministic** handshake: keys *and* encryption
    /// randomness derive from `key_seed` exactly as in
    /// `EncryptedContext::setup`, so the session is bit-identical to the
    /// in-process executor. Tests, benchmarks and reproducible
    /// measurements only: two sessions with the same seed repeat the same
    /// per-ciphertext `(seed, e)` randomness, and the difference of their
    /// `b` components reveals the encoded plaintext difference — **never use
    /// this with real data**.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on protocol or validation failures.
    pub fn handshake_deterministic(stream: S, key_seed: u64) -> Result<Self, ServiceError> {
        Self::handshake_inner(stream, Some(key_seed), None, true)
    }

    /// Performs the handshake over an already-established stream, attempting
    /// session resumption with a [`SessionTicket`] (transport-generic
    /// counterpart of [`EvaClient::connect_resuming`]). The ticket's seed
    /// re-derives the keys; encryption randomness is fresh OS entropy.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on protocol or validation failures.
    pub fn handshake_resuming(stream: S, ticket: SessionTicket) -> Result<Self, ServiceError> {
        Self::handshake_inner(
            stream,
            Some(ticket.key_seed),
            Some(ticket.fingerprint),
            false,
        )
    }

    /// [`EvaClient::handshake_resuming`] with **deterministic encryption
    /// randomness**, for tests that must compare a retried/resumed session
    /// bit-for-bit against the in-process executor. Every session seeded
    /// this way re-derives the *same* per-ciphertext `(a, e)` randomness
    /// from the ticket's key seed, which is exactly the plaintext-leaking
    /// repetition [`EvaClient::handshake_deterministic`] warns about —
    /// **never use this with real data**; real resumption
    /// ([`EvaClient::handshake_resuming`]) always draws fresh OS entropy.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on protocol or validation failures.
    pub fn handshake_resuming_deterministic(
        stream: S,
        ticket: SessionTicket,
    ) -> Result<Self, ServiceError> {
        Self::handshake_inner(
            stream,
            Some(ticket.key_seed),
            Some(ticket.fingerprint),
            true,
        )
    }

    /// Shared handshake body. `deterministic_encryption` selects the seeded
    /// encryption RNG (test/bench reproducibility only — combined with
    /// reconnection it repeats `(a, e)` pairs across sessions and leaks
    /// plaintext differences, which is why production resumption always
    /// passes `false` and only the loudly-warned `*_deterministic`
    /// constructors pass `true`).
    fn handshake_inner(
        mut stream: S,
        key_seed: Option<u64>,
        resume: Option<KeyFingerprint>,
        deterministic_encryption: bool,
    ) -> Result<Self, ServiceError> {
        write_message(
            &mut stream,
            &Message::Hello {
                protocol: PROTOCOL_VERSION,
                resume,
            },
        )?;
        let (manifest, keys_cached) = match expect_message(&mut stream)? {
            Message::Manifest {
                manifest,
                keys_cached,
            } => (*manifest, keys_cached),
            Message::Error(msg) => return Err(ServiceError::Remote(msg)),
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected Manifest, got {other:?}"
                )))
            }
        };
        if keys_cached && resume.is_none() {
            return Err(ServiceError::Protocol(
                "server claims cached keys but this session offered none to resume".into(),
            ));
        }
        // Handshake validation: never build a context, or draw a key, from
        // unvalidated wire data. `from_primes` checks the chain (degree,
        // prime sizes, NTT-friendliness, primality, distinctness) and the
        // 128-bit bound on log2 Q, whatever the server's program claims.
        let params = CkksParameters::from_primes(
            manifest.degree,
            &manifest.data_primes,
            manifest.special_prime,
            true,
        )
        .map_err(|e| ServiceError::InvalidParameters(e.to_string()))?;
        if manifest.vec_size > params.slot_count() {
            return Err(ServiceError::InvalidParameters(format!(
                "vector size {} exceeds the {} slots of degree {}",
                manifest.vec_size,
                params.slot_count(),
                manifest.degree
            )));
        }
        let context =
            CkksContext::new(params).map_err(|e| ServiceError::InvalidParameters(e.to_string()))?;

        let eval_keys = (!keys_cached).then_some(&manifest.keys);
        let (secret, keys) =
            SecretContext::generate(context, key_seed, deterministic_encryption, eval_keys);
        let fingerprint = match keys {
            Some((relin, galois)) => {
                // Serialize the upload once, send it, then fingerprint those
                // same bytes — the EvalKeys payload (`has_relin · EVAL? ·
                // EVAG`) is exactly the fingerprint input, and the server
                // hashes it as received. Hashing after the write lets the
                // client's pass overlap the server's hash, decode and
                // validation of the upload instead of delaying it. Unseeded
                // sessions skip the hash: their secret key can never be
                // re-derived, so no resumption ticket can exist and
                // digesting megabytes of key material would buy nothing.
                let (tag, payload) = encode_payload(&Message::EvalKeys {
                    relin: relin.map(Box::new),
                    galois: Box::new(galois),
                });
                write_frame(&mut stream, tag, &payload)?;
                key_seed
                    .is_some()
                    .then(|| fingerprint_eval_key_payload(&payload))
            }
            // Resumed: the server already holds keys under this fingerprint,
            // so evaluation-key generation and the upload are skipped — only
            // the secret key was derived.
            None => Some(resume.expect("keys_cached implies a resume offer")),
        };
        Ok(Self {
            stream,
            manifest,
            secret,
            key_seed,
            fingerprint,
            resumed: keys_cached,
        })
    }

    /// The program manifest the server published.
    pub fn manifest(&self) -> &ProgramManifest {
        &self.manifest
    }

    /// Content fingerprint of this session's evaluation keys (informational;
    /// to resume a later session use [`EvaClient::resumption_ticket`], which
    /// pairs this with the key seed it belongs to). `None` for unseeded
    /// sessions: they can never resume, so the multi-megabyte hash is
    /// skipped entirely.
    pub fn eval_key_fingerprint(&self) -> Option<KeyFingerprint> {
        self.fingerprint
    }

    /// The ticket a later connection can present to
    /// [`EvaClient::connect_resuming`] to skip the evaluation-key upload
    /// while the server still caches the keys. `None` for sessions with
    /// fresh CSPRNG keys — without a seed the secret key cannot be
    /// re-derived, so resumption can never be sound.
    pub fn resumption_ticket(&self) -> Option<SessionTicket> {
        Some(SessionTicket {
            key_seed: self.key_seed?,
            fingerprint: self.fingerprint?,
        })
    }

    /// Whether this session resumed server-cached evaluation keys (in which
    /// case no key material was generated or uploaded).
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Runs one evaluation round: encrypts the manifest's inputs with
    /// [`SecretContext::encrypt_inputs`] (ciphertexts in seeded transport
    /// form — half the upload bytes of a full ciphertext), ships them, holds
    /// the outputs to the manifest with [`admit_values`] and decrypts them with
    /// [`SecretContext::decrypt_outputs`] — the loops the in-process
    /// `EncryptedContext` runs too.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] if an input is missing or malformed, the
    /// server reports an error, or the response fails validation.
    pub fn evaluate(
        &mut self,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<HashMap<String, Vec<f64>>, ServiceError> {
        let vec_size = self.manifest.vec_size;
        let wire_inputs = self
            .secret
            .encrypt_inputs(&self.manifest.inputs, vec_size, inputs)?;
        write_message(&mut self.stream, &Message::Inputs(wire_inputs))?;
        let outputs = match expect_message(&mut self.stream)? {
            Message::Outputs(outputs) => outputs,
            Message::Error(msg) => return Err(ServiceError::Remote(msg)),
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected Outputs, got {other:?}"
                )))
            }
        };
        // The gate the server's inputs pass, so a hostile server cannot push
        // the decryptor out of its domain.
        let specs = &self.manifest.outputs;
        let values = admit_values(self.secret.context(), specs, vec_size, outputs).map_err(
            |err| match err {
                EvaError::Execution(msg) => ServiceError::Protocol(msg),
                other => other.into(),
            },
        )?;
        let outputs = specs.iter().map(|spec| spec.name.clone()).zip(values);
        Ok(self.secret.decrypt_outputs(outputs.collect(), vec_size))
    }

    /// The secret key's leak-audit probe (see
    /// [`eva_ckks::SecretKey::leak_probe`]): deployment tests scan captured
    /// traffic for these bytes to prove the secret never hit the socket.
    pub fn secret_key_probe(&self) -> Vec<u8> {
        self.secret.secret_key_probe()
    }

    /// Ends the session politely and returns the transport (so instrumented
    /// streams can be inspected afterwards).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] if the goodbye cannot be sent.
    pub fn finish(mut self) -> Result<S, ServiceError> {
        write_message(&mut self.stream, &Message::Bye)?;
        Ok(self.stream)
    }
}
