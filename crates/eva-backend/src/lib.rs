//! # eva-backend — executors for compiled EVA programs
//!
//! The compiler in `eva-core` produces a transformed program plus encryption
//! parameters; this crate runs it:
//!
//! * [`mod@reference`] — the paper's `id`-scheme reference semantics on plaintext
//!   vectors (Section 3), used to define correctness and to measure the
//!   numeric fidelity of encrypted execution.
//! * [`encrypted`] — key generation, input encryption and binding, the
//!   per-node kernels against the `eva-ckks` RNS-CKKS scheme, and output
//!   decryption, with the phases split out so they can be timed separately
//!   (paper Table 7).
//! * [`parallel`] — the one executor, the asynchronous DAG scheduler of
//!   Section 6.1: a dependence-counting board seeded from the program's
//!   execution schedule (`eva_core::analysis::Schedule`), which retires
//!   (frees) each value as soon as its last consumer has run and audits
//!   the peak memory it held. [`execute_parallel`] runs it on the calling
//!   thread plus scoped worker threads; [`EvaluationContext::execute_serial`]
//!   is the same run at one thread, on the caller alone, so serial and
//!   parallel runs are bit-identical by construction.
//!
//! The encrypted executor is split along the deployment trust boundary:
//! [`EvaluationContext`] holds only public evaluation state (context,
//! encoder, evaluator, relinearization + Galois keys); it binds inputs
//! through its one gate, [`EvaluationContext::bind_inputs`], and is what the
//! executor runs against — locally and on the `eva-service` server, where
//! the keys and the inputs arrive over the wire. [`SecretContext`] is the
//! client's half: key derivation, the one input-encryption loop
//! ([`SecretContext::encrypt_inputs`] over the [`live_inputs`] list) and the
//! one decryption loop ([`SecretContext::decrypt_outputs`]), shared by the
//! `eva-service` deployment client and the in-process [`EncryptedContext`].
//! An in-process run is the client/server round trip without the socket:
//! client half, binding gate, executor, client half.
//!
//! ```no_run
//! use std::collections::HashMap;
//! use eva_core::{compile, CompilerOptions, Opcode, Program};
//! use eva_backend::run_encrypted;
//!
//! let mut program = Program::new("square", 8);
//! let x = program.input_cipher("x", 30);
//! let sq = program.instruction(Opcode::Multiply, &[x, x]);
//! program.output("out", sq, 30);
//! let compiled = compile(&program, &CompilerOptions::default()).unwrap();
//!
//! let inputs: HashMap<String, Vec<f64>> =
//!     [("x".to_string(), vec![1.5; 8])].into_iter().collect();
//! let outputs = run_encrypted(&compiled, &inputs).unwrap();
//! assert!((outputs["out"][0] - 2.25).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encrypted;
pub mod parallel;
pub mod reference;

pub use encrypted::{
    live_inputs, parameters_from_spec, run_encrypted, EncryptedContext, EvaluationContext,
    InputSpec, MemoryAudit, NodeValue, SecretContext, ValuePayload,
};
pub use parallel::execute_parallel;
pub use reference::run_reference;
