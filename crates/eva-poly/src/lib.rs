//! RNS polynomial arithmetic over `Z_Q[X]/(X^N + 1)` for the EVA reproduction.
//!
//! The RNS (residue number system) variant of CKKS represents every polynomial
//! by its residues modulo a chain of word-sized primes `q_0, …, q_{k-1}` whose
//! product is the ciphertext modulus `Q`. This crate provides:
//!
//! * [`RnsBasis`] — an ordered prime chain with the NTT tables for each prime.
//! * [`RnsPoly`] — a polynomial stored residue-wise in **one contiguous
//!   buffer** (stride `N`, see the [`poly`] module docs for the layout and
//!   reduction invariants), in either coefficient or evaluation (NTT) form,
//!   with the ring operations the CKKS evaluator needs: addition,
//!   subtraction, negation, fused dyadic multiply/multiply-accumulate, scalar
//!   multiplication, Galois automorphisms, rescaling by the last prime and
//!   modulus dropping. Stored coefficients are always canonical (`[0, q_i)`);
//!   lazy representatives never escape a kernel.
//! * [`crt`] — exact CRT composition of residues into big integers, used by
//!   decryption to recover centered coefficients.
//!
//! The crate is deliberately independent of any encryption concept; it is the
//! "polynomial layer" that the `eva-ckks` crate builds the scheme on, mirroring
//! how SEAL separates its `util` polynomial layer from the scheme layer.
//!
//! # Examples
//!
//! ```
//! use eva_math::generate_ntt_primes;
//! use eva_poly::{PolyForm, RnsBasis};
//!
//! let primes = generate_ntt_primes(32, &[30, 30]).unwrap();
//! let basis = RnsBasis::new(32, &primes).unwrap();
//! let mut coeffs = vec![0i64; 32];
//! coeffs[0] = 7;
//! let mut a = basis.poly_from_signed(&coeffs, 2);
//! let b = a.clone();
//! a.add_assign(&b, &basis);
//! assert_eq!(a.residue(0)[0], 14);
//! assert_eq!(a.form(), PolyForm::Coeff);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod crt;
pub mod poly;

pub use basis::{DropConstants, RnsBasis};
pub use crt::{CrtComposer, UBig};
pub use poly::{PolyForm, RnsPoly};
