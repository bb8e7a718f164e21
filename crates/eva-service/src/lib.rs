//! # eva-service — client/server deployment of compiled EVA programs
//!
//! The EVA paper's whole point is a deployment split (Section 2): a client
//! that encodes and encrypts with keys it never shares, and an untrusted
//! server that executes the compiled circuit over ciphertexts. This crate
//! implements that split over TCP:
//!
//! * [`EvaServer`] loads a [`CompiledProgram`](eva_core::CompiledProgram)
//!   (in memory or from a `.evaprog` bundle), publishes a
//!   [`ProgramManifest`] to connecting clients, accepts their evaluation
//!   keys and runs evaluation rounds with the shared parallel executor —
//!   concurrently across sessions, each isolated with its own client's keys.
//! * [`EvaClient`] validates the published parameters with
//!   `CkksParameters::from_primes`, generates **all** keys locally, uploads
//!   only the evaluation keys (relinearization + exactly the Galois keys the
//!   circuit's rotation steps need), then encrypts inputs and decrypts
//!   outputs for any number of evaluation rounds.
//!
//! Two transport optimizations keep the wire lean:
//!
//! * **Seeded ciphertexts** — fresh encrypted inputs travel as `EVAD`
//!   objects (a 32-byte expansion seed plus one polynomial instead of two),
//!   roughly halving upload bytes per ciphertext.
//! * **Session resumption** — the server caches evaluation keys by content
//!   fingerprint; a client reconnecting with the same keys
//!   ([`EvaClient::connect_resuming`]) skips the multi-megabyte key upload
//!   (and the key generation behind it) entirely.
//!
//! Wire formats come from `eva-wire`; secret keys have no wire
//! representation at all, and there is no public key: clients encrypt with
//! the secret key, so the server receives nothing it could encrypt (let
//! alone decrypt) with. The full protocol specification lives in
//! [`docs/PROTOCOL.md`](https://github.com/eva-reproduction/eva/blob/main/docs/PROTOCOL.md).
//!
//! # Example
//!
//! ```no_run
//! use std::collections::HashMap;
//! use std::net::TcpListener;
//! use eva_core::{compile, CompilerOptions, Opcode, Program};
//! use eva_service::{EvaClient, EvaServer};
//!
//! // Compile x^2 and serve it on a localhost socket.
//! let mut p = Program::new("square", 8);
//! let x = p.input_cipher("x", 30);
//! let sq = p.instruction(Opcode::Multiply, &[x, x]);
//! p.output("out", sq, 30);
//! let compiled = compile(&p, &CompilerOptions::default()).unwrap();
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let server = EvaServer::new(compiled).unwrap();
//! let handle = std::thread::spawn(move || server.serve_sessions(&listener, 1));
//!
//! let mut client = EvaClient::connect(addr, None).unwrap();
//! let inputs: HashMap<String, Vec<f64>> =
//!     [("x".to_string(), vec![1.5; 8])].into_iter().collect();
//! let outputs = client.evaluate(&inputs).unwrap();
//! assert!((outputs["out"][0] - 2.25).abs() < 1e-3);
//! client.finish().unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod client;
pub mod error;
pub mod keystore;
pub mod limits;
pub mod protocol;
mod reactor;
pub mod record;
pub mod retry;
mod sched;
pub mod server;
mod session;

pub use chaos::{ChaosStream, Fault};
pub use client::{EvaClient, SessionTicket};
pub use error::{Finding, ProgramDiagnostics, ServiceError};
pub use eva_wire::KeyFingerprint;
pub use keystore::DiskKeyStore;
pub use limits::{ClientConfig, ServerConfig};
pub use protocol::{
    bytes_with_tag, frame_index, FrameSummary, InputSpec, InputValue, Message, OutputSpec,
    OutputValue, ProgramManifest, ValuePayload, MAX_FRAME_BYTES, PROTOCOL_VERSION, TAG_BYE,
    TAG_ERROR, TAG_EVAL_KEYS, TAG_HELLO, TAG_INPUTS, TAG_MANIFEST, TAG_OUTPUTS,
};
pub use record::{contains_bytes, RecordingStream};
pub use retry::{ReliableClient, RetryPolicy, RetryStats};
pub use server::{
    EvaServer, ServerStats, SessionReport, KEY_CACHE_BUDGET_BYTES, KEY_CACHE_CAPACITY,
};
