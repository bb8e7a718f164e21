//! # eva-core — the EVA language, IR and optimizing compiler
//!
//! This crate implements the core contribution of *"EVA: An Encrypted Vector
//! Arithmetic Language and Compiler for Efficient Homomorphic Computation"*
//! (PLDI 2020):
//!
//! * the EVA **language / intermediate representation** — typed DAG programs
//!   over encrypted and plaintext vectors ([`Program`], [`Opcode`],
//!   [`ValueType`], Tables 1–2 of the paper) with a compact binary
//!   [`serialize`] format standing in for the paper's Protocol Buffers schema;
//! * the **graph rewriting framework** and the transformation passes of
//!   Section 5 ([`passes`]): WATERLINE-RESCALE (and the ALWAYS-RESCALE
//!   baseline), EAGER/LAZY-MODSWITCH, MATCH-SCALE and RELINEARIZE;
//! * the **analysis passes** of Section 6 ([`analysis`]): scale, rescale-chain
//!   and polynomial-count data flow, constraint validation, encryption
//!   parameter selection and rotation-key selection;
//! * the **compiler driver** of Algorithm 1 ([`compile`]);
//! * a standalone **program verifier** ([`analysis::verifier`]) and
//!   **worst-case noise estimator** ([`analysis::noise`]) that gate both the
//!   compiler's output and untrusted `.evaprog` loads.
//!
//! The compiler is backend-agnostic: it produces a transformed program plus a
//! [`ParameterSpec`]; the `eva-backend` crate executes it against the
//! `eva-ckks` implementation of RNS-CKKS (this reproduction's stand-in for
//! Microsoft SEAL).
//!
//! # Example
//!
//! ```
//! use eva_core::{compile, CompilerOptions, Opcode, Program};
//!
//! // The paper's running example: x^2 * y^3.
//! let mut program = Program::new("x2y3", 8);
//! let x = program.input_cipher("x", 60);
//! let y = program.input_cipher("y", 30);
//! let x2 = program.instruction(Opcode::Multiply, &[x, x]);
//! let y2 = program.instruction(Opcode::Multiply, &[y, y]);
//! let y3 = program.instruction(Opcode::Multiply, &[y2, y]);
//! let out = program.instruction(Opcode::Multiply, &[x2, y3]);
//! program.output("out", out, 30);
//!
//! let compiled = compile(&program, &CompilerOptions::default()).unwrap();
//! assert_eq!(compiled.stats.rescales_inserted, 2);
//! assert_eq!(compiled.parameters.chain_length(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compiler;
pub mod error;
pub mod passes;
pub mod program;
pub mod serialize;
pub mod types;

pub use analysis::{
    check_noise, estimate_cost, estimate_noise, predict_peak_memory, select_rotation_steps,
    verify_compiled, verify_program, CostModel, CostReport, MemoryForecast, NoiseModel,
    NoiseReport, ParameterSpec, VerifierReport,
};
pub use compiler::{
    compile, CompilationStats, CompiledProgram, CompilerOptions, ModSwitchStrategy, RescaleStrategy,
};
pub use error::EvaError;
pub use program::{Node, NodeId, NodeKind, OutputInfo, Program};
pub use types::{ConstantValue, Opcode, ValueType};
