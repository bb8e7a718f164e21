//! Resource limits and deadlines for the service layer.
//!
//! The session socket is unauthenticated, so every resource a peer can make
//! the server spend — worker-thread time, buffered bytes, concurrent
//! sessions — must be bounded *before* any trust is established. This module
//! holds the knobs ([`ServerConfig`], [`ClientConfig`]); the reactor enforces
//! the time bound as a per-connection timer. A server takes its
//! [`ServerConfig`] once, at construction
//! ([`EvaServer::with_config`](crate::EvaServer::with_config)), and keeps
//! it for its lifetime.
//!
//! Buffered bytes need no knob: each frame header is checked against the
//! largest payload a conforming client of the loaded program sends under
//! that tag, and reads pause while a completed frame waits to be served.
//!
//! The read deadline is a **wall-clock budget per incoming message**, not a
//! per-`read(2)` timeout: a slowloris peer that trickles one byte per
//! almost-timeout would defeat a per-read timeout forever, but against a
//! per-message budget the total stall is bounded no matter how the bytes are
//! paced. The timer arms when a session is admitted and re-arms on every
//! write (the server answered) **and on every completed frame**, so
//! back-to-back messages (evaluation keys immediately followed by inputs)
//! each get their own budget while a peer that never completes a frame in
//! time is still cut off.

use std::path::PathBuf;
use std::time::Duration;

/// Peak-memory admission budget of [`ServerConfig::default`]: 4 GiB of
/// simultaneously-live ciphertext/plaintext bytes plus one session's
/// evaluation keys, as predicted by `eva_core::predict_peak_memory`.
const DEFAULT_MEMORY_BUDGET_BYTES: u64 = 4 << 30;

/// Resource limits an [`EvaServer`](crate::EvaServer) applies to the loaded
/// program and to every session (taken once, by
/// [`EvaServer::with_config`](crate::EvaServer::with_config)).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Wall-clock budget for receiving one complete message (tag, length and
    /// payload), measured from the first read after the server's last write
    /// or the previous completed frame — each message gets its own budget.
    /// A peer that stalls mid-frame — or trickles bytes slower than this —
    /// is disconnected with a `deadline:` protocol error. Also bounds how
    /// long an idle session may sit between evaluation rounds. `None`
    /// disables the deadline (not recommended on untrusted networks).
    pub read_deadline: Option<Duration>,
    /// Write timeout: how long a closing connection may take to drain its
    /// last frames, so a peer that stops reading cannot hold its slot
    /// forever.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served sessions of one serve call
    /// ([`EvaServer::serve_forever`](crate::EvaServer::serve_forever) or
    /// [`serve_sessions`](crate::EvaServer::serve_sessions)). Further
    /// connections are answered with a polite `busy:` protocol `Error`
    /// frame and closed — backpressure a retrying client turns into
    /// backoff, instead of unbounded per-connection state.
    pub max_sessions: usize,
    /// Peak-memory budget in bytes. The load gate refuses a program whose
    /// forecast peak (`eva_core::predict_peak_memory`: live values plus one
    /// session's evaluation keys) exceeds it, with a `peak-memory` finding;
    /// the scheduler then runs at most as many evaluations at once as the
    /// budget holds forecast peaks (always at least one). `None` disables
    /// both.
    pub memory_budget: Option<u64>,
    /// Directory of a [`DiskKeyStore`](crate::DiskKeyStore) layered under
    /// the in-memory key cache (created if needed): uploaded evaluation
    /// keys are persisted there, and resumption lookups that miss the
    /// in-memory cache fall back to disk — so warm, zero-upload resumption
    /// survives server restarts. Disk entries are never trusted: the
    /// fingerprint is re-verified over the bytes read back, and the keys
    /// re-validated, before anything is served. `None` keeps keys in
    /// memory only.
    pub key_store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_deadline: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_sessions: 64,
            memory_budget: Some(DEFAULT_MEMORY_BUDGET_BYTES),
            key_store: None,
        }
    }
}

/// Socket tuning for [`EvaClient::connect_with`](crate::EvaClient::connect_with):
/// a connect deadline plus per-read/per-write socket timeouts, so a stalled
/// or black-holed server cannot hang the client forever.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection (per resolved address).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout (each `read(2)`; a stalled server trips it).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

#[cfg(test)]
mod tests {
    use eva_core::{compile, CompilerOptions, Opcode, Program};

    use crate::protocol::{TAG_BYE, TAG_EVAL_KEYS, TAG_HELLO, TAG_INPUTS, TAG_OUTPUTS};
    use crate::session::SessionMachine;
    use crate::EvaServer;

    /// The server of `x²` on a `scale_bits` input.
    fn square_server(scale_bits: u32) -> EvaServer {
        let mut p = Program::new("square", 8);
        let x = p.input_cipher("x", scale_bits);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", sq, 30);
        EvaServer::new(compile(&p, &CompilerOptions::default()).unwrap()).unwrap()
    }

    #[test]
    fn a_keyless_programs_key_frame_is_bounded_to_the_empty_upload() {
        // At 30 bits the square reaches the output unrescaled and
        // unrelinearized: has_relin · an EVAG without keys.
        let machine = SessionMachine::new(square_server(30));
        machine.admit(TAG_EVAL_KEYS, 1 + (16 + 4)).unwrap();
        assert!(machine.admit(TAG_EVAL_KEYS, 1 + (16 + 4) + 1).is_err());
    }

    #[test]
    fn each_tag_is_bounded_by_what_the_programs_client_sends() {
        // At 60 bits the waterline rescales the square, so it is
        // relinearized first and the client sends a relinearization key.
        let server = square_server(60);
        let (degree, primes) = (
            server.manifest().degree,
            server.manifest().data_primes.len(),
        );
        // The square is relinearized on the fresh input, at the top level.
        assert_eq!(server.manifest().keys.relin, Some(primes));
        let key = eva_wire::encoded_key_switch_key_len(primes, degree, primes + 1);
        let machine = SessionMachine::new(server);
        let cases = [
            // has_relin · EVAL · an EVAG without keys.
            (TAG_EVAL_KEYS, 1 + (16 + key) + (16 + 4), "evaluation-key"),
            // One input named "x", a full top-level ciphertext.
            (
                TAG_INPUTS,
                4 + 4 + 1 + 1 + eva_wire::encoded_ciphertext_len(2, degree, primes),
                "input",
            ),
            (TAG_HELLO, 37, "control"),
            (TAG_BYE, 37, "control"),
            (TAG_OUTPUTS, 37, "control"),
        ];
        for (tag, bound, what) in cases {
            machine.admit(tag, bound).unwrap();
            let err = machine.admit(tag, bound + 1).unwrap_err();
            let rendered = err.to_string();
            assert!(rendered.contains("quota:"), "{rendered}");
            assert!(rendered.contains(what), "{rendered}");
            assert!(rendered.contains(&format!("{bound}-byte")), "{rendered}");
            assert!(
                err.is_transient(),
                "a corrupted length header stays retryable"
            );
        }
    }
}
