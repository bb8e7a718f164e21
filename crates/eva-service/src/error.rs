//! The service-layer error type.

use std::fmt;
use std::io;

use eva_wire::WireError;

/// The findings behind a refused program load: the program's name and one
/// entry per finding. A server only ever reports them to its operator; they
/// are never framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDiagnostics {
    /// Name of the program the findings refer to.
    pub program: String,
    /// Every finding, in the order the gate produced them.
    pub diagnostics: Vec<Finding>,
}

/// One finding: the check that fired (the verifier's stable kebab-case
/// name, e.g. `"scale-match"`, or `"noise-budget"` / `"peak-memory"`), the
/// node it anchors to (if any) and the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable name of the check that fired.
    pub check: String,
    /// Node id the finding is anchored to, if any.
    pub node: Option<usize>,
    /// Human-readable description with node/opcode provenance.
    pub message: String,
}

/// Errors produced by the EVA deployment client and server.
#[derive(Debug)]
pub enum ServiceError {
    /// A socket read or write failed.
    Io(io::Error),
    /// A frame or wire object failed to decode.
    Wire(WireError),
    /// The peer violated the session protocol (wrong message order, wrong
    /// protocol version, oversized frame, …).
    Protocol(String),
    /// The server's encryption parameters failed client-side validation, or
    /// uploaded key material failed server-side validation.
    InvalidParameters(String),
    /// The static verifier or the noise gate refused a program: the payload
    /// carries every finding so the refusal is explainable to the operator.
    /// A server returning this has not instantiated any FHE state for the
    /// program — it refuses to serve rather than panic mid-evaluation.
    InvalidProgram(ProgramDiagnostics),
    /// The peer reported an error for the current request.
    Remote(String),
    /// Compilation or execution of the program failed.
    Execution(String),
    /// The peer closed the connection mid-session.
    Disconnected,
}

impl ServiceError {
    /// Whether retrying on a **fresh connection** has a chance of succeeding
    /// — the gate [`ReliableClient`](crate::ReliableClient) applies before
    /// each backoff.
    ///
    /// Transient: socket failures, disconnects, undecodable or
    /// protocol-violating traffic (a flipped bit or truncated frame corrupts
    /// what the peer *sent*, not what it *is*), locally-detected parameter
    /// corruption, and the server's explicitly retryable refusals (`busy:`
    /// backpressure, `deadline:` stall disconnects, `quota:` refusals of a
    /// frame header — a length corrupted in transit announces more than
    /// the program's bound — and `internal error` panics).
    ///
    /// Permanent: every other server-reported error (a verifier refusal or
    /// an execution failure reproduces deterministically) and local
    /// [`InvalidProgram`](ServiceError::InvalidProgram) /
    /// [`Execution`](ServiceError::Execution) failures.
    pub fn is_transient(&self) -> bool {
        match self {
            ServiceError::Io(_) | ServiceError::Wire(_) | ServiceError::Disconnected => true,
            ServiceError::Protocol(_) | ServiceError::InvalidParameters(_) => true,
            ServiceError::Remote(msg) => {
                msg.starts_with("busy:")
                    || msg.contains("deadline:")
                    || msg.contains("quota:")
                    || msg.contains("internal error")
            }
            ServiceError::InvalidProgram(_) | ServiceError::Execution(_) => false,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(err) => write!(f, "socket error: {err}"),
            ServiceError::Wire(err) => write!(f, "wire decoding error: {err}"),
            ServiceError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServiceError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            ServiceError::InvalidProgram(diagnostics) => {
                let joined: Vec<String> = diagnostics
                    .diagnostics
                    .iter()
                    .map(|d| format!("[{}] {}", d.check, d.message))
                    .collect();
                write!(
                    f,
                    "program {:?} failed verification: {}",
                    diagnostics.program,
                    joined.join("; ")
                )
            }
            ServiceError::Remote(msg) => write!(f, "peer reported an error: {msg}"),
            ServiceError::Execution(msg) => write!(f, "execution failed: {msg}"),
            ServiceError::Disconnected => write!(f, "peer closed the connection mid-session"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(err) => Some(err),
            ServiceError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for ServiceError {
    fn from(err: io::Error) -> Self {
        ServiceError::Io(err)
    }
}

impl From<WireError> for ServiceError {
    fn from(err: WireError) -> Self {
        ServiceError::Wire(err)
    }
}

impl From<eva_core::EvaError> for ServiceError {
    /// An execution error keeps its bare message, so it reads with one
    /// prefix (`execution failed: …`); any other kind keeps its own.
    fn from(err: eva_core::EvaError) -> Self {
        match err {
            eva_core::EvaError::Execution(msg) => ServiceError::Execution(msg),
            other => ServiceError::Execution(other.to_string()),
        }
    }
}
