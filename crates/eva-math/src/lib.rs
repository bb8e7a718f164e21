//! Number-theoretic and transform substrate for the EVA reproduction.
//!
//! This crate contains everything below the polynomial-ring layer of an
//! RNS-CKKS implementation (the role Microsoft SEAL's `util` layer plays for
//! the paper):
//!
//! * [`modulus`] — word-sized prime moduli with Barrett and Shoup modular
//!   multiplication, modular exponentiation and inversion, plus the
//!   lazy-reduction primitives (`add_lazy`/`sub_lazy`/`mul_shoup_lazy`,
//!   outputs in `[0, 2q)`) that the hot kernels build on; see the module docs
//!   for the range-invariant table.
//! * [`primes`] — deterministic Miller–Rabin primality testing and generation
//!   of NTT-friendly primes (`q ≡ 1 mod 2N`) of requested bit sizes, and the
//!   128-bit security table bounding their product per ring degree.
//! * [`ntt`] — the negacyclic number-theoretic transform over `Z_q[X]/(X^N+1)`,
//!   with Harvey lazy-reduction butterflies and SoA twiddle tables.
//! * [`fft`] — a complex FFT over the canonical-embedding root ordering used by
//!   the CKKS encoder (powers-of-five orbit).
//! * [`sampling`] — samplers for uniform, ternary and centered-binomial noise.
//! * [`galois`] — Galois element bookkeeping for slot rotations.
//!
//! All of it is pure Rust with no unsafe code and no external arithmetic
//! dependencies.
//!
//! # Examples
//!
//! ```
//! use eva_math::{generate_ntt_primes, Modulus, NttTables};
//!
//! // A 40-bit NTT-friendly prime for ring degree 1024, and a transform over it.
//! let primes = generate_ntt_primes(1024, &[40]).unwrap();
//! let q = Modulus::new(primes[0]).unwrap();
//! let ntt = NttTables::new(1024, q).unwrap();
//! let mut a = vec![0u64; 1024];
//! a[1] = 1; // the polynomial X
//! ntt.forward(&mut a);
//! ntt.inverse(&mut a);
//! assert_eq!(a[1], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
pub mod galois;
pub mod modulus;
pub mod ntt;
pub mod primes;
pub mod sampling;

pub use fft::{Complex, SpecialFft};
pub use galois::GaloisTool;
pub use modulus::Modulus;
pub use ntt::NttTables;
pub use primes::{generate_ntt_primes, is_prime, nominal_prime_bits, MAX_PRIME_BITS};
pub use sampling::{sample_cbd, sample_ternary, sample_uniform_into, sample_uniform_poly};
