//! Error type for scheme-level operations.

use std::fmt;

/// Errors returned by the CKKS evaluator and related components.
///
/// These are precisely the runtime failures the paper says FHE libraries throw
/// when cryptographic constraints are violated (Section 4.2); the EVA compiler's
/// validation passes exist to guarantee a compiled program never triggers them.
#[derive(Debug, Clone, PartialEq)]
pub enum CkksError {
    /// Two operands are at different levels (different coefficient moduli);
    /// violates the paper's Constraint 1.
    LevelMismatch {
        /// Level of the left operand.
        left: usize,
        /// Level of the right operand.
        right: usize,
    },
    /// Two addition/subtraction operands have different scales; violates the
    /// paper's Constraint 2. Scales are compared with exact `f64` equality
    /// (no drift tolerance); the fields carry both exact `log2` scales.
    ScaleMismatch {
        /// Exact `log2` scale of the left operand.
        left: f64,
        /// Exact `log2` scale of the right operand.
        right: f64,
    },
    /// A multiplication operand has more than two polynomials; violates the
    /// paper's Constraint 3 (relinearization required first).
    TooManyPolynomials {
        /// Number of polynomials found.
        size: usize,
    },
    /// Rescaling or mod-switching past the last remaining prime.
    ModulusChainExhausted,
    /// A rotation step for which no Galois key was generated.
    MissingGaloisKey {
        /// The requested rotation step.
        step: i64,
    },
    /// An evaluation key built for a lower level than the ciphertext it
    /// would switch: it lacks the digits of the primes above its level.
    KeyBelowCiphertext {
        /// The key's level (its digit count).
        key: usize,
        /// The ciphertext's level.
        ciphertext: usize,
    },
    /// The ciphertext has an unexpected number of polynomials for the
    /// requested operation.
    InvalidCiphertextSize {
        /// Number of polynomials found.
        found: usize,
        /// Number of polynomials expected.
        expected: usize,
    },
    /// Plaintext and ciphertext shapes (level) disagree.
    PlaintextLevelMismatch {
        /// Ciphertext level.
        ciphertext: usize,
        /// Plaintext level.
        plaintext: usize,
    },
    /// An externally supplied object (a wire-decoded ciphertext or key) is
    /// not an element of the context's ring (see
    /// [`CkksContext::check_ring_elements`](crate::CkksContext::check_ring_elements)).
    InvalidParameters(String),
}

impl fmt::Display for CkksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkksError::LevelMismatch { left, right } => {
                write!(f, "operand levels differ: {left} vs {right}")
            }
            CkksError::ScaleMismatch { left, right } => {
                write!(
                    f,
                    "operand scales differ (exact-equality check): \
                     2^{left:.17e} vs 2^{right:.17e} (delta {:.3e} bits)",
                    left - right
                )
            }
            CkksError::TooManyPolynomials { size } => {
                write!(
                    f,
                    "ciphertext has {size} polynomials; relinearize before multiplying"
                )
            }
            CkksError::ModulusChainExhausted => {
                write!(f, "no primes left in the modulus chain")
            }
            CkksError::MissingGaloisKey { step } => {
                write!(f, "no Galois key was generated for rotation step {step}")
            }
            CkksError::KeyBelowCiphertext { key, ciphertext } => {
                write!(
                    f,
                    "evaluation key at level {key} cannot switch a ciphertext at level {ciphertext}"
                )
            }
            CkksError::InvalidCiphertextSize { found, expected } => {
                write!(f, "ciphertext has {found} polynomials, expected {expected}")
            }
            CkksError::PlaintextLevelMismatch {
                ciphertext,
                plaintext,
            } => {
                write!(
                    f,
                    "plaintext level {plaintext} does not match ciphertext level {ciphertext}"
                )
            }
            CkksError::InvalidParameters(msg) => {
                write!(f, "object does not fit the context: {msg}")
            }
        }
    }
}

impl std::error::Error for CkksError {}
