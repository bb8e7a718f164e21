//! Analysis passes: graph traversals that compute per-node facts without
//! modifying the graph (paper Section 6).
//!
//! Each walks [`Program::topological_order`](crate::Program::topological_order)
//! — the one Kahn sort, which the verifier's `acyclic` check also runs —
//! and reads [`Program::uses`](crate::Program::uses) and
//! [`Program::live_mask`](crate::Program::live_mask) directly.

// The analysis API is a documented contract (docs/ANALYSIS.md): the service
// layer gates untrusted program load on it, so missing docs here are errors
// even though the rest of the crate only warns.
#![deny(missing_docs)]

pub mod cost;
pub mod liveness;
pub mod noise;
pub mod parameters;
pub mod rotations;
pub mod scale;
pub mod schedule;
pub mod verifier;

pub use cost::{estimate_cost, CostModel, CostReport};
pub use liveness::{predict_peak_memory, MemoryForecast};
pub use noise::{
    check_noise, estimate_noise, NoiseModel, NoiseReport, OutputBudget, DEFAULT_SAFETY_MARGIN_BITS,
};
pub use parameters::{select_parameters, ParameterSpec};
pub use rotations::{canonical_left_step, key_levels, select_rotation_steps, KeyLevels};
pub use scale::{
    analyze_exact_scales, analyze_levels, analyze_num_polys, analyze_scales, match_scale_delta,
    prime_log2s, remaining_levels, ChainEntry,
};
pub use schedule::{Schedule, Step, SwitchSite};
pub use verifier::{verify_compiled, verify_program, Check, Diagnostic, Severity, VerifierReport};
