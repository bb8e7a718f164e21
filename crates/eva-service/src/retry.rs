//! A retrying client session: bounded exponential backoff with
//! deterministic jitter, re-handshaking transparently through
//! [`SessionTicket`] resumption so a retried evaluation uploads **zero**
//! evaluation-key bytes.
//!
//! [`ReliableClient`] owns a *connector* (any `FnMut(attempt) -> transport`)
//! instead of a socket, so the same retry loop drives plain TCP, recorded
//! streams, and the chaos transport alike. On a transient failure
//! ([`ServiceError::is_transient`]) it drops the broken session, sleeps the
//! backoff, reconnects, and — when the first successful session minted a
//! ticket — resumes it, logging a `RETRY-RESUMED` event. Permanent errors
//! (verifier refusals, execution failures) surface immediately: retrying a
//! deterministic failure only burns the budget.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::time::Duration;

use crate::client::{EvaClient, SessionTicket};
use crate::error::ServiceError;

/// Bounded exponential backoff with deterministic jitter.
///
/// Delay before retry `i` (0-based) is `base_delay · 2^i`, capped at
/// `max_delay`, plus a jitter drawn uniformly from `[0, jitter]` by a
/// seeded splitmix64 — deterministic so chaos tests replay exactly, varied
/// per retry so a thundering herd still spreads out.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connection attempts (the first try included). `1` disables
    /// retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub max_delay: Duration,
    /// Maximum extra jitter added to each backoff.
    pub jitter: Duration,
    /// Seed of the jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(5),
            jitter: Duration::from_millis(50),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Sebastiano Vigna's splitmix64 — tiny, seedable, plenty for jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The delay to sleep before retry `retry` (0-based: the delay between
    /// the first failure and the second attempt is `backoff_delay(0)`).
    pub fn backoff_delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(retry))
            .min(self.max_delay);
        let jitter_nanos = self.jitter.as_nanos() as u64;
        if jitter_nanos == 0 {
            return exp;
        }
        // Each retry index gets its own deterministic draw.
        let mut state = self.seed ^ u64::from(retry).wrapping_mul(0xA076_1D64_78BD_642F);
        exp + Duration::from_nanos(splitmix64(&mut state) % (jitter_nanos + 1))
    }
}

/// Counters a [`ReliableClient`] accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Connection attempts made (successful handshakes and failures alike).
    pub attempts: u64,
    /// Evaluations that needed at least one retry.
    pub retried_evaluations: u64,
    /// Retry handshakes that resumed server-cached keys (zero key bytes).
    pub resumed_retries: u64,
}

/// A client session that survives transient failures by reconnecting with
/// backoff and resuming via [`SessionTicket`] (see the module docs).
///
/// `connect` is called with the 0-based attempt number and returns a fresh
/// transport; the client handshakes over it (resuming whenever it holds a
/// ticket) and re-runs the evaluation. The transport type is generic so
/// tests can hand back recorded or fault-injected streams.
pub struct ReliableClient<S, C> {
    connect: C,
    policy: RetryPolicy,
    key_seed: u64,
    /// Test-only: deterministic per-session encryption randomness, so chaos
    /// tests can assert bit-identity with the in-process executor. See
    /// [`EvaClient::handshake_deterministic`] for why real deployments must
    /// never set this.
    deterministic: bool,
    ticket: Option<SessionTicket>,
    session: Option<EvaClient<S>>,
    stats: RetryStats,
    events: Vec<String>,
}

impl<S, C> std::fmt::Debug for ReliableClient<S, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableClient")
            .field("policy", &self.policy)
            .field("connected", &self.session.is_some())
            .field("has_ticket", &self.ticket.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<S, C> ReliableClient<S, C>
where
    S: Read + Write,
    C: FnMut(u32) -> Result<S, ServiceError>,
{
    /// Builds a retrying client around a connector and a key seed (the seed
    /// is what makes sessions resumable — see [`SessionTicket`]). No
    /// connection happens until the first [`evaluate`](Self::evaluate).
    pub fn new(connect: C, key_seed: u64, policy: RetryPolicy) -> Self {
        Self {
            connect,
            policy,
            key_seed,
            deterministic: false,
            ticket: None,
            session: None,
            stats: RetryStats::default(),
            events: Vec::new(),
        }
    }

    /// Test-only: derive each session's encryption randomness from the key
    /// seed too, so evaluations are bit-identical to the in-process
    /// executor under the same seed. **Never use with real data** — see
    /// [`EvaClient::handshake_deterministic`].
    #[must_use]
    pub fn deterministic_for_tests(mut self) -> Self {
        self.deterministic = true;
        self
    }

    /// Seeds the client with a ticket from an earlier process/session, so
    /// even its *first* connection resumes (e.g. across a client restart).
    #[must_use]
    pub fn with_ticket(mut self, ticket: SessionTicket) -> Self {
        self.ticket = Some(ticket);
        self
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Human-readable event log (`RETRY-RESUMED`, backoff notes); chaos
    /// tests and the CI transcript grep read this.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// The current resumption ticket, if any session has minted one.
    pub fn ticket(&self) -> Option<SessionTicket> {
        self.ticket
    }

    /// Whether the **current** session resumed server-cached keys.
    pub fn resumed(&self) -> bool {
        self.session.as_ref().is_some_and(|s| s.resumed())
    }

    /// Drops the current session without a goodbye (simulating a client
    /// that lost its connection), keeping the ticket for resumption.
    pub fn disconnect(&mut self) {
        self.session = None;
    }

    /// Ensures a live session, handshaking (and resuming, given a ticket)
    /// over a fresh transport if needed. `attempt` is forwarded to the
    /// connector and used to mark retry resumptions.
    fn ensure_session(&mut self, attempt: u32) -> Result<(), ServiceError> {
        if self.session.is_some() {
            return Ok(());
        }
        self.stats.attempts += 1;
        let stream = (self.connect)(attempt)?;
        let client = match self.ticket {
            Some(ticket) if self.deterministic => {
                EvaClient::handshake_resuming_deterministic(stream, ticket)?
            }
            Some(ticket) => EvaClient::handshake_resuming(stream, ticket)?,
            None if self.deterministic => {
                EvaClient::handshake_deterministic(stream, self.key_seed)?
            }
            None => EvaClient::handshake(stream, Some(self.key_seed))?,
        };
        if let Some(ticket) = client.resumption_ticket() {
            self.ticket = Some(ticket);
        }
        if attempt > 0 && client.resumed() {
            self.stats.resumed_retries += 1;
            self.events.push("RETRY-RESUMED".to_string());
        }
        self.session = Some(client);
        Ok(())
    }

    /// Runs one evaluation round, retrying transient failures up to the
    /// policy's attempt budget with exponential backoff + jitter. Each
    /// retry reconnects from scratch and resumes via the ticket, so it
    /// re-uploads zero evaluation-key bytes.
    ///
    /// # Errors
    ///
    /// Returns the first permanent error immediately, or the last transient
    /// error once the attempt budget is exhausted.
    pub fn evaluate(
        &mut self,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<HashMap<String, Vec<f64>>, ServiceError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let result = self.ensure_session(attempt).and_then(|()| {
                self.session
                    .as_mut()
                    .expect("ensure_session leaves a session on success")
                    .evaluate(inputs)
            });
            match result {
                Ok(outputs) => {
                    if attempt > 0 {
                        self.stats.retried_evaluations += 1;
                    }
                    return Ok(outputs);
                }
                Err(err) => {
                    // The session is in an unknown protocol state: drop it.
                    self.session = None;
                    if !err.is_transient() || attempt + 1 >= max_attempts {
                        return Err(err);
                    }
                    let delay = self.policy.backoff_delay(attempt);
                    self.events
                        .push(format!("retry {} after {delay:?}: {err}", attempt + 1));
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }

    /// Ends the current session politely and returns its transport for
    /// inspection (e.g. a traffic audit of the *last* — retried — session).
    /// Returns `None` if no session is live.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] if the goodbye cannot be sent.
    pub fn finish(mut self) -> Result<Option<S>, ServiceError> {
        match self.session.take() {
            Some(session) => session.finish().map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(450),
            jitter: Duration::ZERO,
            seed: 1,
        };
        assert_eq!(policy.backoff_delay(0), Duration::from_millis(100));
        assert_eq!(policy.backoff_delay(1), Duration::from_millis(200));
        assert_eq!(policy.backoff_delay(2), Duration::from_millis(400));
        assert_eq!(policy.backoff_delay(3), Duration::from_millis(450));
        assert_eq!(policy.backoff_delay(31), Duration::from_millis(450));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_varied() {
        let policy = RetryPolicy {
            jitter: Duration::from_millis(40),
            ..RetryPolicy::default()
        };
        let twin = policy.clone();
        let mut distinct = std::collections::HashSet::new();
        for retry in 0..16 {
            let delay = policy.backoff_delay(retry);
            assert_eq!(delay, twin.backoff_delay(retry), "same seed, same delay");
            let exp = policy
                .base_delay
                .saturating_mul(2u32.saturating_pow(retry))
                .min(policy.max_delay);
            assert!(delay >= exp && delay <= exp + policy.jitter);
            distinct.insert(delay - exp);
        }
        assert!(
            distinct.len() > 4,
            "jitter draws should vary across retries"
        );
    }

    #[test]
    fn a_crashed_session_worker_is_worth_retrying() {
        // The frame a contained panic answers with must read as transient,
        // so a retrying client reconnects instead of giving up.
        assert!(
            ServiceError::Remote("internal error: the session worker crashed".into())
                .is_transient()
        );
    }
}
