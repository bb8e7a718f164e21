//! A pure-Rust implementation of the RNS-CKKS homomorphic encryption scheme.
//!
//! This crate plays the role Microsoft SEAL plays for the EVA paper: it is the
//! execution target the compiled EVA programs run against. It implements the
//! RNS variant of CKKS (Cheon et al., "A full RNS variant of approximate
//! homomorphic encryption"): batched fixed-point vectors are encoded into
//! integer polynomials, encrypted under Ring-LWE, and evaluated with
//! element-wise addition, multiplication and slot rotation, with explicit
//! RESCALE / MODSWITCH / RELINEARIZE maintenance operations — exactly the
//! instruction set the EVA language exposes (paper Table 2).
//!
//! # Components
//!
//! * [`CkksParameters`] / [`CkksContext`] — encryption parameters validated
//!   against the 128-bit security standard, and the precomputed state derived
//!   from them.
//! * [`CkksEncoder`] — canonical-embedding encoding of real vectors.
//! * [`KeyGenerator`], [`SecretKey`], [`RelinearizationKey`], [`GaloisKeys`]
//!   — key material.
//! * [`SymmetricEncryptor`] / [`SeededCiphertext`] / [`Decryptor`] —
//!   secret-key encryption, whose uniform `a` polynomial travels as a
//!   32-byte ChaCha20 seed (halving fresh-ciphertext wire bytes), and
//!   decryption. There is no public-key encryption: the party that encrypts
//!   owns the secret key, and the noise analysis prices only this fresh
//!   noise.
//! * [`Evaluator`] — the homomorphic operations (one per EVA opcode).
//!
//! # Example
//!
//! ```
//! use eva_ckks::{
//!     CkksContext, CkksEncoder, CkksParameters, Decryptor, Evaluator, KeyGenerator,
//!     SymmetricEncryptor,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 8192 is the smallest degree whose security budget fits three 40-bit data
//! // primes plus the 60-bit special prime. The extra prime below the scale
//! // leaves room for the result after one rescale.
//! let params = CkksParameters::new(8192, &[40, 40, 40])?;
//! let context = CkksContext::new(params)?;
//! let mut keygen = KeyGenerator::new(context.clone());
//! let relin_key = keygen.create_relinearization_key();
//!
//! let encoder = CkksEncoder::new(context.clone());
//! let mut encryptor = SymmetricEncryptor::new(context.clone(), keygen.secret_key().clone());
//! let decryptor = Decryptor::new(context.clone(), keygen.secret_key().clone());
//! let evaluator = Evaluator::new(context);
//!
//! let values = vec![1.5, -2.0, 0.25, 3.0];
//! // Scales are handled in the log2 domain: 40.0 means a scale of 2^40.
//! let scale_log2 = 40.0;
//! // Encode at the top level (3 data primes are available).
//! let ct = encryptor.encrypt(&encoder.encode(&values, scale_log2, 3));
//! let squared = evaluator.relinearize(&evaluator.square(&ct)?, &relin_key)?;
//! let squared = evaluator.rescale_to_next(&squared)?;
//! let result = decryptor.decrypt_to_values(&squared, 4);
//! assert!((result[0] - 2.25).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ciphertext;
pub mod context;
pub mod encoder;
pub mod encrypt;
pub mod error;
pub mod evaluator;
pub mod keys;
pub mod params;

pub use ciphertext::{Ciphertext, SeededCiphertext};
pub use context::CkksContext;
pub use encoder::{CkksEncoder, Plaintext};
pub use encrypt::{Decryptor, SymmetricEncryptor};
pub use error::CkksError;
pub use evaluator::{Evaluator, KeySwitchDecomposition, KeySwitchScratch};
pub use keys::{GaloisKeys, KeyGenerator, KeySwitchKey, RelinearizationKey, SecretKey};
pub use params::{max_coeff_modulus_bits, CkksParameters, ParameterError};
