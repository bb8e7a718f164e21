//! Resource limits and deadlines for the service layer.
//!
//! The session socket is unauthenticated, so every resource a peer can make
//! the server spend — worker-thread time, buffered bytes, concurrent
//! sessions — must be bounded *before* any trust is established. This module
//! holds the knobs ([`ServerConfig`], [`ClientConfig`]) and the per-session
//! byte quotas; the reactor enforces the time bound as a per-connection
//! timer. A server takes its [`ServerConfig`] once, at construction
//! ([`EvaServer::with_config`](crate::EvaServer::with_config)), and keeps
//! it for its lifetime.
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

use crate::error::ServiceError;
use crate::protocol::{TAG_EVAL_KEYS, TAG_INPUTS};

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
    /// Maximum concurrently served sessions. Further connections are
    /// answered with a polite `busy:` protocol `Error` frame and closed —
    /// backpressure a retrying client turns into backoff, instead of
    /// unbounded per-connection state.
    pub max_sessions: usize,
    /// Per-session byte quota for `EvalKeys` frames, checked against the
    /// **announced** frame length before any payload byte is buffered.
    pub eval_key_quota: u64,
    /// Per-session cumulative byte quota for `Inputs` frames, checked the
    /// same way.
    pub input_quota: u64,
    /// Evaluation worker threads the reactor's shared scheduler runs
    /// (cross-session: every queued evaluation competes for this pool).
    /// `0` sizes the pool automatically from the machine's available
    /// parallelism.
    pub eval_workers: usize,
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
            // Evaluation keys are tens of megabytes (≈48 MB for 16×16
            // Sobel); one upload per session plus headroom.
            eval_key_quota: 256 * 1024 * 1024,
            // Many evaluation rounds of seeded inputs fit comfortably; a
            // peer needing more opens a new session.
            input_quota: 1 << 30,
            eval_workers: 0,
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

/// Per-session byte budgets for the unauthenticated sinks (`EvalKeys` and
/// `Inputs` frames), decremented by the **announced** length of each frame
/// before its payload is read — an over-quota frame is refused while still
/// costing the server only its 9-byte header.
#[derive(Debug)]
pub(crate) struct SessionQuotas {
    eval_key: u64,
    input: u64,
}

impl SessionQuotas {
    pub(crate) fn new(config: &ServerConfig) -> Self {
        Self {
            eval_key: config.eval_key_quota,
            input: config.input_quota,
        }
    }

    /// Admits or refuses one announced frame. Non-sink tags are always
    /// admitted (they are tiny and bounded by `MAX_FRAME_BYTES` anyway).
    pub(crate) fn admit(&mut self, tag: u8, len: u64) -> Result<(), ServiceError> {
        let (budget, what) = match tag {
            TAG_EVAL_KEYS => (&mut self.eval_key, "evaluation-key"),
            TAG_INPUTS => (&mut self.input, "input"),
            _ => return Ok(()),
        };
        if len > *budget {
            return Err(ServiceError::Protocol(format!(
                "quota: {what} frame of {len} bytes exceeds the session's remaining \
                 {budget}-byte {what} quota"
            )));
        }
        *budget -= len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_track_the_announced_lengths_per_tag() {
        let config = ServerConfig {
            eval_key_quota: 100,
            input_quota: 50,
            ..ServerConfig::default()
        };
        let mut quotas = SessionQuotas::new(&config);
        quotas.admit(TAG_EVAL_KEYS, 60).unwrap();
        quotas.admit(TAG_INPUTS, 20).unwrap();
        quotas.admit(TAG_INPUTS, 30).unwrap();
        // Budgets are cumulative per tag.
        let err = quotas.admit(TAG_INPUTS, 1).unwrap_err();
        assert!(err.to_string().contains("quota:"), "{err}");
        let err = quotas.admit(TAG_EVAL_KEYS, 41).unwrap_err();
        assert!(err.to_string().contains("evaluation-key"), "{err}");
        // Other tags are never counted.
        quotas.admit(crate::protocol::TAG_BYE, u64::MAX).unwrap();
    }
}
