//! Liveness and peak-memory analysis: predicts, before execution, the
//! maximum number of simultaneously-live ciphertexts — and bytes — a serial
//! execution holds.
//!
//! The forecast is the [`Schedule`] walk (paper Section 6.1: a value is
//! released once its last live consumer has run) with static sizes in
//! place of values. The live inputs are the baseline. Each step adds what
//! it materializes (at the first-reached member of a switch site, every
//! member, since the executor computes them from one shared
//! decomposition); the peak is sampled there, while a result still
//! coexists with its parents; then the step subtracts what it releases.
//!
//! Sizes follow the backend's accounting: a ciphertext at level `ℓ` with
//! `p` polynomials holds `p · ℓ · degree` 8-byte residues
//! (`Ciphertext::memory_bytes`), a plaintext vector `vec_size` 8-byte
//! floats. Levels come from the same chain analysis the verifier uses and
//! polynomial counts from [`analyze_num_polys`].
//!
//! The backend's serial executor does not walk the steps: it is its
//! parallel scheduler on one thread, which takes ready nodes first in,
//! first out. Its allocation-counting audit
//! (`EvaluationContext::execute_serial_audited`) therefore agrees with
//! this forecast by measurement, not by construction — equal on Sobel,
//! lower on LeNet-5-small — and checks what the forecast assumes: that the
//! static sizes equal the `memory_bytes()` of the ciphertexts the
//! evaluator really produces (level and polynomial-count analyses against
//! the scheme).
//!
//! Beside the values stand the evaluation keys, resident for the whole
//! execution: one key-switching key for relinearization if the program
//! relinearizes, one per distinct Galois element of its rotation steps,
//! each at the highest level `ℓ` the program uses it at ([`key_levels`]):
//! `ℓ` digits × 2 polynomials × `(ℓ + 1) · degree` residues over the first
//! `ℓ` data primes plus the special prime ([`MemoryForecast::key_bytes`];
//! the backend holds exactly these rows — `resident_bytes()` on its key
//! types — plus one `degree`-entry gather table per Galois key).
//!
//! The service layer uses [`predict_peak_memory`] for admission control:
//! a program whose predicted footprint — values plus keys — exceeds the
//! configured budget is refused at load time with a named `peak-memory`
//! finding, and an admitted one runs at most `max(1, budget / peak_bytes)`
//! evaluations at once.

use crate::analysis::rotations::key_levels;
use crate::analysis::scale::{analyze_num_polys, remaining_levels};
use crate::compiler::CompiledProgram;
use crate::error::EvaError;

use super::schedule::Schedule;

/// The predicted peak memory state of one serial execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryForecast {
    /// Maximum number of simultaneously-live values (ciphertext or plain).
    pub peak_live_values: usize,
    /// Maximum number of simultaneously-live **ciphertexts**.
    pub peak_live_ciphertexts: usize,
    /// Maximum simultaneous bytes across all live values.
    pub peak_bytes: usize,
    /// The node being computed when the byte peak occurs (`None` when the
    /// peak is the initial binding set of a program with no instructions).
    pub at_node: Option<usize>,
    /// Bytes of evaluation-key rows one client's session holds resident
    /// while the program runs (not part of `peak_bytes`).
    pub key_bytes: usize,
}

/// Predicts a compiled program's peak memory along its schedule steps — the
/// serial executor's, up to the order it takes ready nodes in (see the
/// module docs).
///
/// # Errors
///
/// Returns [`EvaError`] if the program graph is cyclic or level analysis
/// fails (impossible for programs `compile()` has verified).
pub fn predict_peak_memory(compiled: &CompiledProgram) -> Result<MemoryForecast, EvaError> {
    let program = &compiled.program;
    let schedule = Schedule::new(program, compiled.parameters.degree / 2)?;
    let degree = compiled.parameters.degree;
    let levels = remaining_levels(program, compiled.parameters.data_primes.len())?;
    let polys = analyze_num_polys(program);
    let plain_bytes = program.vec_size() * std::mem::size_of::<f64>();

    // (ciphertexts, bytes) a node's value occupies while live, mirroring
    // `NodeValue::memory_bytes` on the backend.
    let size_of = |id: usize| -> (usize, usize) {
        if program.node(id).ty.is_cipher() {
            let residues = polys[id] * levels[id] * degree;
            (1, residues * std::mem::size_of::<u64>())
        } else {
            (0, plain_bytes)
        }
    };

    let mut values = schedule.inputs.len();
    let (mut ciphers, mut bytes) = schedule
        .inputs
        .iter()
        .map(|&id| size_of(id))
        .fold((0, 0), |(c, b), (dc, db)| (c + dc, b + db));
    let mut forecast = MemoryForecast {
        peak_live_values: values,
        peak_live_ciphertexts: ciphers,
        peak_bytes: bytes,
        at_node: None,
        key_bytes: key_levels(compiled)?.rows() * degree * std::mem::size_of::<u64>(),
    };
    for step in &schedule.steps {
        for &id in &step.materializes {
            let (c, b) = size_of(id);
            values += 1;
            ciphers += c;
            bytes += b;
        }
        if bytes > forecast.peak_bytes {
            forecast.peak_bytes = bytes;
            forecast.at_node = Some(step.node);
        }
        forecast.peak_live_values = forecast.peak_live_values.max(values);
        forecast.peak_live_ciphertexts = forecast.peak_live_ciphertexts.max(ciphers);
        for &id in &step.releases {
            let (c, b) = size_of(id);
            values -= 1;
            ciphers -= c;
            bytes -= b;
        }
    }
    Ok(forecast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerOptions};
    use crate::program::Program;
    use crate::types::Opcode;

    fn chain(depth: usize) -> CompiledProgram {
        let mut p = Program::new("chain", 16);
        let x = p.input_cipher("x", 30);
        let mut acc = x;
        for _ in 0..depth {
            acc = p.instruction(Opcode::Add, &[acc, acc]);
        }
        p.output("out", acc, 30);
        compile(&p, &CompilerOptions::default()).unwrap()
    }

    #[test]
    fn a_linear_chain_keeps_two_ciphertexts_live() {
        let compiled = chain(5);
        let f = predict_peak_memory(&compiled).unwrap();
        // At each step the new value coexists with its (about-to-be-released)
        // parent: never more than two ciphertexts at once.
        assert_eq!(f.peak_live_ciphertexts, 2);
        assert!(f.peak_bytes > 0);
        assert!(f.at_node.is_some());
    }

    #[test]
    fn wide_fanout_holds_every_branch_live() {
        let mut p = Program::new("fan", 16);
        let x = p.input_cipher("x", 30);
        let branches: Vec<_> = (1..=4)
            .map(|s| p.instruction(Opcode::RotateLeft(s), &[x]))
            .collect();
        let mut acc = branches[0];
        for &b in &branches[1..] {
            acc = p.instruction(Opcode::Add, &[acc, b]);
        }
        p.output("out", acc, 30);
        let compiled = compile(&p, &CompilerOptions::unoptimized()).unwrap();
        let f = predict_peak_memory(&compiled).unwrap();
        // x + all four rotations live at once (x is consumed by every branch).
        assert!(f.peak_live_ciphertexts >= 5, "{f:?}");
        // The optimized twin predicts no more live ciphertexts than this.
        let optimized = compile(&p, &CompilerOptions::default()).unwrap();
        let g = predict_peak_memory(&optimized).unwrap();
        assert!(g.peak_live_ciphertexts <= f.peak_live_ciphertexts, "{g:?}");
    }

    #[test]
    fn deeper_programs_do_not_shrink_the_forecast_bytes_per_ct() {
        // A fresh ciphertext at max level must dominate the byte count of a
        // rescaled one: sanity-check the level-aware byte model.
        let shallow = predict_peak_memory(&chain(1)).unwrap();
        assert!(shallow.peak_bytes >= 2 * 2 * shallow_level_bytes(&chain(1)));
    }

    fn shallow_level_bytes(c: &CompiledProgram) -> usize {
        // One polynomial's bytes at the top level.
        c.parameters.data_primes.len() * c.parameters.degree * 8
    }
}
