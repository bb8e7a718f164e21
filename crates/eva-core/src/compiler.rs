//! The compiler driver (paper Algorithm 1): transform, validate, select
//! encryption parameters, select rotation keys.

use std::collections::HashSet;

use crate::analysis::noise::{check_noise, estimate_noise, NoiseModel};
use crate::analysis::scale::remaining_levels;
use crate::analysis::verifier::{verify_compiled, verify_program, Check};
use crate::analysis::{select_parameters, select_rotation_steps, ParameterSpec};
use crate::error::EvaError;
use crate::passes::{
    apply_exact_scales, canonicalize_rotations, eliminate_common_subexpressions,
    eliminate_dead_code, factor_rotation_sums, insert_always_rescale, insert_eager_modswitch,
    insert_lazy_modswitch, insert_match_scale, insert_relinearize, insert_waterline_rescale,
};
use crate::program::Program;
use crate::types::Opcode;

/// Which RESCALE insertion strategy to use (paper Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RescaleStrategy {
    /// EVA's waterline strategy: rescale by the maximum prime size only while
    /// the scale stays above the waterline (default, optimal chain length).
    #[default]
    Waterline,
    /// The naive baseline: rescale after every ciphertext multiplication.
    Always,
}

/// Which MODSWITCH insertion strategy to use (paper Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModSwitchStrategy {
    /// Insert MODSWITCH at the earliest feasible edge, shared among consumers
    /// (default; Figure 5(c)).
    #[default]
    Eager,
    /// Insert MODSWITCH immediately below the mismatching instruction
    /// (Figure 5(b)).
    Lazy,
}

/// Options controlling compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// RESCALE insertion strategy.
    pub rescale: RescaleStrategy,
    /// MODSWITCH insertion strategy.
    pub mod_switch: ModSwitchStrategy,
    /// Run the analysis-driven optimizer before the maintenance pipeline
    /// (see [`compile`]). On by default; off runs the paper's Algorithm 1
    /// alone, for ablations and unoptimized twins in tests.
    pub optimize: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        Self {
            rescale: RescaleStrategy::Waterline,
            mod_switch: ModSwitchStrategy::Eager,
            optimize: true,
        }
    }
}

impl CompilerOptions {
    /// Default options with the optimizer off.
    pub fn unoptimized() -> Self {
        Self {
            optimize: false,
            ..Self::default()
        }
    }
}

/// Statistics about what the compiler did, useful for reports and ablations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompilationStats {
    /// Number of RESCALE instructions inserted.
    pub rescales_inserted: usize,
    /// Number of MODSWITCH instructions inserted.
    pub mod_switches_inserted: usize,
    /// Number of MATCH-SCALE fixes (constant multiplications) inserted.
    pub scale_fixes_inserted: usize,
    /// Number of RELINEARIZE instructions inserted.
    pub relinearizations_inserted: usize,
    /// Number of *exact* match-scale corrections inserted by the second
    /// (exact-scale) phase, closing sub-bit rescale drift between operands.
    pub exact_scale_fixes_inserted: usize,
    /// Total node count of the transformed program.
    pub node_count: usize,
    /// Duplicate nodes merged by common-subexpression elimination.
    pub cse_merged: usize,
    /// Dead nodes removed (pre-pipeline DCE plus the final sweep).
    pub dce_removed: usize,
    /// Rotation rewrites by canonicalization (spelling, identity bypass,
    /// compose-merge).
    pub rotations_canonicalized: usize,
    /// Rotations eliminated by baby-step/giant-step factoring of
    /// rotate–multiply–accumulate sums.
    pub rotations_factored: usize,
}

/// The result of compilation: the transformed executable program plus the
/// encryption parameters and rotation steps needed to run it (the three
/// outputs of the paper's Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The transformed program (contains RESCALE/MODSWITCH/RELINEARIZE).
    pub program: Program,
    /// Prime bit sizes and ring degree for key generation.
    pub parameters: ParameterSpec,
    /// Rotation steps that need Galois keys.
    pub rotation_steps: Vec<i64>,
    /// Transformation statistics.
    pub stats: CompilationStats,
}

impl CompiledProgram {
    /// The vector size of the program.
    pub fn vec_size(&self) -> usize {
        self.program.vec_size()
    }

    /// The program name.
    pub fn name(&self) -> &str {
        self.program.name()
    }

    /// Whether the program contains a RELINEARIZE instruction, and so needs
    /// a relinearization key next to the Galois keys of
    /// [`CompiledProgram::rotation_steps`].
    pub fn needs_relinearization(&self) -> bool {
        let program = &self.program;
        (0..program.len()).any(|id| program.opcode(id) == Some(Opcode::Relinearize))
    }

    /// Renders the compiled graph in Graphviz DOT syntax, annotated with the
    /// facts the static analyses computed: each node label carries its
    /// opcode, level (remaining primes), exact `log2` scale and worst-case
    /// noise budget in bits. The plain structural dump without annotations is
    /// [`Program::to_dot`].
    ///
    /// ```
    /// use eva_core::{compile, CompilerOptions, Opcode, Program};
    ///
    /// let mut p = Program::new("square", 8);
    /// let x = p.input_cipher("x", 30);
    /// let sq = p.instruction(Opcode::Multiply, &[x, x]);
    /// p.output("out", sq, 30);
    /// let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    /// let dot = compiled.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("budget"));
    /// ```
    pub fn to_dot(&self) -> String {
        let program = &self.program;
        let noise = estimate_noise(self);
        let max_level = self.parameters.data_primes.len();
        let levels =
            remaining_levels(program, max_level).unwrap_or_else(|_| vec![max_level; program.len()]);
        program.to_dot_with(|id| {
            let node = program.node(id);
            if !node.ty.is_cipher() {
                return String::new();
            }
            let budget = noise.nodes[id].budget_bits;
            format!("\\nL={} budget={budget:.1}b", levels[id])
        })
    }
}

/// Checks that an optimizer pass introduced no new *class* of verifier error.
///
/// Raw input programs legitimately fail some nominal checks (e.g. ADD scale
/// matching before MATCH-SCALE has run), so the guard compares the set of
/// failing check names against the pre-optimization baseline instead of
/// demanding a clean report: a pass may only leave error classes unchanged
/// or fixed, never add one.
fn optimizer_guard(
    program: &Program,
    baseline: &HashSet<Check>,
    pass: &str,
) -> Result<(), EvaError> {
    let report = verify_program(program);
    for diagnostic in report.errors() {
        if !baseline.contains(&diagnostic.check) {
            return Err(EvaError::Validation(format!(
                "optimizer pass {pass} introduced a new verifier error [{}]: {}",
                diagnostic.check, diagnostic.message
            )));
        }
    }
    Ok(())
}

/// Compiles an input EVA program (paper Algorithm 1, preceded by this
/// reproduction's analysis-driven optimizer).
///
/// First, the input gate: [`verify_program`] runs once on the input, and a
/// program failing one of its structural checks (`acyclic`, `arg-indices`,
/// `outputs`, `constants`) is refused, as is one containing a compiler-only
/// instruction (RESCALE, MODSWITCH, RELINEARIZE). This holds even when the
/// offending node is dead. The remaining findings of that report are the
/// optimizer's baseline. Then, when [`CompilerOptions::optimize`] is set,
/// the optimization passes run — rotation canonicalization, global
/// common-subexpression elimination, baby-step/giant-step rotation
/// factoring and dead-code elimination — and after each the verifier checks
/// that no error class outside the baseline appeared. The transformation step
/// then applies, in order: RESCALE insertion, MODSWITCH insertion,
/// MATCH-SCALE and RELINEARIZE. The transformed program is checked against
/// Constraints 1–4 by [`verify_program`] — if it fails the compiler returns
/// an error instead of producing a program that would throw inside the FHE
/// library — and encryption parameters (including the actual primes) are
/// selected. A second, exact scale phase then re-annotates the program
/// against the chosen primes, inserting exact match-scale corrections where
/// rescale drift would otherwise break the evaluator's exact scale-equality
/// check. Both phases use the one scale transfer function of
/// [`crate::analysis::scale`]. A final dead-code sweep (unconditional —
/// optimizer on or off) guarantees shipped programs are dead-free, and
/// rotation steps are selected last so they reflect the optimized graph.
/// The result passes [`verify_compiled`], which also checks that every
/// annotation is bit-identical to what the executor will observe, and the
/// worst-case noise gate.
///
/// # Errors
///
/// Returns [`EvaError::InvalidProgram`] if the input gate refuses the
/// program, carrying every structural finding (each prefixed with its check
/// name) or the first compiler-only instruction. Returns another
/// [`EvaError`] if an optimizer pass introduces a new verifier error class,
/// a constraint is violated after transformation, or no supported ring
/// degree can hold the required coefficient modulus.
pub fn compile(input: &Program, options: &CompilerOptions) -> Result<CompiledProgram, EvaError> {
    // The input gate: a program the verifier finds structurally broken is
    // not navigable by the passes below, so it is refused before any runs.
    let report = verify_program(input);
    let structural: Vec<String> = report
        .errors()
        .filter(|d| d.check.is_structural())
        .map(|d| format!("[{}] {}", d.check, d.message))
        .collect();
    if !structural.is_empty() {
        return Err(EvaError::InvalidProgram(structural.join("; ")));
    }
    for id in 0..input.len() {
        if let Some(op) = input.opcode(id).filter(|op| !op.allowed_in_input()) {
            return Err(EvaError::InvalidProgram(format!(
                "instruction node {id} uses compiler-only opcode {op}"
            )));
        }
    }
    let mut program = input.clone();

    // Analysis-driven optimization passes (this reproduction's addition to
    // the paper's pipeline), in an order where CSE sees canonical rotation
    // spellings and factoring sees deduplicated single-use rotations. Every
    // pass is re-checked by the IR verifier before the next one runs.
    let mut cse_merged = 0;
    let mut dce_removed = 0;
    let mut rotations_canonicalized = 0;
    let mut rotations_factored = 0;
    if options.optimize {
        let baseline: HashSet<Check> = report.errors().map(|d| d.check).collect();
        let guard = |program: &Program, pass: &str| optimizer_guard(program, &baseline, pass);
        rotations_canonicalized = canonicalize_rotations(&mut program);
        guard(&program, "rotation-canonicalize")?;
        cse_merged = eliminate_common_subexpressions(&mut program);
        guard(&program, "cse")?;
        rotations_factored = factor_rotation_sums(&mut program);
        guard(&program, "rotation-factor")?;
        dce_removed = eliminate_dead_code(&mut program);
        guard(&program, "dce")?;
    }

    let rescales_inserted = match options.rescale {
        RescaleStrategy::Waterline => insert_waterline_rescale(&mut program),
        RescaleStrategy::Always => insert_always_rescale(&mut program),
    };
    let mod_switches_inserted = match options.mod_switch {
        ModSwitchStrategy::Eager => insert_eager_modswitch(&mut program),
        ModSwitchStrategy::Lazy => insert_lazy_modswitch(&mut program),
    };
    let scale_fixes_inserted = insert_match_scale(&mut program);
    let relinearizations_inserted = insert_relinearize(&mut program);

    if let Some(err) = verify_program(&program).into_error() {
        return Err(err);
    }
    let parameters = select_parameters(&mut program)?;

    // Phase two: the prime chain is fixed, so re-annotate with exact scales
    // and correct the sub-bit drift the nominal phase cannot see.
    let exact_scale_fixes_inserted = apply_exact_scales(&mut program, &parameters)?;

    // Unconditional final dead-code sweep: maintenance passes can orphan
    // nodes, and `verify_compiled` now treats dead code in a compiled
    // program as an error, so every shipped program must be dead-free —
    // optimizer on or off. DCE preserves exact annotations verbatim.
    dce_removed += eliminate_dead_code(&mut program);

    let rotation_steps = select_rotation_steps(&program);

    let stats = CompilationStats {
        rescales_inserted,
        mod_switches_inserted,
        scale_fixes_inserted,
        relinearizations_inserted,
        exact_scale_fixes_inserted,
        node_count: program.len(),
        cse_merged,
        dce_removed,
        rotations_canonicalized,
        rotations_factored,
    };
    let compiled = CompiledProgram {
        program,
        parameters,
        rotation_steps,
        stats,
    };

    // The full verifier re-checks its own output against the shipped spec —
    // structure, constraints, level budget, rotation coverage and
    // bit-identical exact scales.
    if let Some(err) = verify_compiled(&compiled).into_error() {
        return Err(err);
    }
    // Finally the worst-case noise gate: a program whose outputs could drown
    // in noise is rejected at compile time rather than decrypting to garbage.
    check_noise(&compiled, &NoiseModel::default())?;
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueType;

    /// The paper's Figure 2 running example.
    fn x2y3() -> Program {
        let mut p = Program::new("x2y3", 8);
        let x = p.input_cipher("x", 60);
        let y = p.input_cipher("y", 30);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let y2 = p.instruction(Opcode::Multiply, &[y, y]);
        let y3 = p.instruction(Opcode::Multiply, &[y2, y]);
        let out = p.instruction(Opcode::Multiply, &[x2, y3]);
        p.output("out", out, 30);
        p
    }

    #[test]
    fn compile_x2y3_with_default_options() {
        let compiled = compile(&x2y3(), &CompilerOptions::default()).unwrap();
        // Figure 2(d)/(e): two rescales, four relinearizations, no scale fixes.
        assert_eq!(compiled.stats.rescales_inserted, 2);
        assert_eq!(compiled.stats.relinearizations_inserted, 4);
        assert_eq!(compiled.stats.scale_fixes_inserted, 0);
        assert!(compiled.rotation_steps.is_empty());
        // Chain: 2 rescale primes + 2 tail primes covering the output scale
        // (2^90) times the desired scale (2^30) + the special prime.
        assert_eq!(compiled.parameters.chain_length(), 5);
        assert_eq!(compiled.parameters.total_bits(), 300);
    }

    #[test]
    fn compile_rejects_invalid_input() {
        let refusal = |p: &Program, options: &CompilerOptions| match compile(p, options) {
            Err(EvaError::InvalidProgram(message)) => message,
            other => panic!("expected InvalidProgram, got {other:?}"),
        };
        let both = [CompilerOptions::default(), CompilerOptions::unoptimized()];

        // A program without outputs and one with a compiler-only opcode are
        // refused too; `program.rs`'s `input_validation_*` tests cover them.
        let mut twice = Program::new("twice", 8);
        let x = twice.input_cipher("x", 30);
        twice.output("out", x, 30);
        twice.output("out", x, 30);
        for options in &both {
            assert!(refusal(&twice, options).contains("[outputs] duplicate output name"));
        }

        // A two-node cycle, as a decoded `.evaprog` can carry one: the gate
        // refuses it before any pass walks a partial order.
        let mut cyclic = Program::new("cyclic", 8);
        let x = cyclic.input_cipher("x", 30);
        let sq = cyclic.instruction(Opcode::Multiply, &[x, x]);
        let sum = cyclic.instruction(Opcode::Add, &[sq, x]);
        cyclic.output("out", sum, 30);
        cyclic.replace_arg(sq, x, sum);
        let cyclic = crate::serialize::from_bytes(&crate::serialize::to_bytes(&cyclic)).unwrap();
        for options in &both {
            assert!(refusal(&cyclic, options).contains("[acyclic]"));
        }

        // A Cipher-typed ADD of two plaintext operands lies about its type;
        // it is refused even though no output reads it.
        let mut retyped = Program::new("retyped", 8);
        let x = retyped.input_cipher("x", 30);
        let v = retyped.input_vector("v", 30);
        let w = retyped.input_vector("w", 30);
        let sq = retyped.instruction(Opcode::Multiply, &[x, x]);
        retyped.push_instruction(Opcode::Add, vec![v, w], ValueType::Cipher);
        retyped.output("out", sq, 30);
        for options in &both {
            assert!(refusal(&retyped, options).contains("[arg-indices]"));
        }
    }

    #[test]
    fn compiled_program_never_fails_validation_for_random_options() {
        let program = x2y3();
        for rescale in [RescaleStrategy::Waterline] {
            for mod_switch in [ModSwitchStrategy::Eager, ModSwitchStrategy::Lazy] {
                let options = CompilerOptions {
                    rescale,
                    mod_switch,
                    optimize: true,
                };
                let compiled = compile(&program, &options).unwrap();
                assert!(compiled.parameters.total_bits() > 0);
            }
        }
    }

    #[test]
    fn rotation_steps_are_collected() {
        let mut p = Program::new("rot", 64);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(1), &[x]);
        let b = p.instruction(Opcode::RotateRight(4), &[x]);
        let sum = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", sum, 30);
        // The optimizer canonicalizes RotateRight(4) to RotateLeft(60).
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.rotation_steps, vec![1, 60]);
        assert_eq!(compiled.stats.rotations_canonicalized, 1);
        assert_eq!(compiled.vec_size(), 64);
        assert_eq!(compiled.name(), "rot");
        // The unoptimized pipeline preserves the spelled steps.
        let unopt = compile(&p, &CompilerOptions::unoptimized()).unwrap();
        assert_eq!(unopt.rotation_steps, vec![-4, 1]);
    }

    #[test]
    fn optimizer_strips_dead_code_and_merges_duplicates() {
        let mut p = Program::new("opt", 8);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::Multiply, &[x, x]);
        let b = p.instruction(Opcode::Multiply, &[x, x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        // The rotation needs the squares relinearized.
        let r = p.instruction(Opcode::RotateLeft(1), &[s]);
        let dead = p.instruction(Opcode::Negate, &[x]);
        let _dead2 = p.instruction(Opcode::Multiply, &[dead, dead]);
        p.output("out", r, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.stats.cse_merged, 1);
        assert!(compiled.stats.dce_removed >= 3, "{:?}", compiled.stats);
        // One shared square → one relinearization instead of two.
        assert_eq!(compiled.stats.relinearizations_inserted, 1);
        // Compiled output carries no dead instruction nodes.
        let live = compiled.program.live_mask();
        for (id, node) in compiled.program.nodes().iter().enumerate() {
            if matches!(node.kind, crate::program::NodeKind::Instruction { .. }) {
                assert!(live[id], "dead instruction {id} survived compile()");
            }
        }
    }

    #[test]
    fn unoptimized_compiles_are_also_dead_free() {
        // The final DCE sweep runs regardless of optimizer options, so the
        // dead-code-as-error rule of `verify_compiled` holds universally.
        let mut p = Program::new("deadfree", 8);
        let x = p.input_cipher("x", 30);
        let live = p.instruction(Opcode::Add, &[x, x]);
        let _dead = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", live, 30);
        let compiled = compile(&p, &CompilerOptions::unoptimized()).unwrap();
        assert!(compiled.stats.dce_removed >= 1);
        let live_mask = compiled.program.live_mask();
        for (id, node) in compiled.program.nodes().iter().enumerate() {
            if matches!(node.kind, crate::program::NodeKind::Instruction { .. }) {
                assert!(live_mask[id], "dead instruction {id} survived");
            }
        }
    }

    #[test]
    fn eager_produces_no_longer_chain_than_lazy() {
        // The paper argues eager insertion is at least as efficient as lazy.
        let program = x2y3();
        let eager = compile(
            &program,
            &CompilerOptions {
                mod_switch: ModSwitchStrategy::Eager,
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        let lazy = compile(
            &program,
            &CompilerOptions {
                mod_switch: ModSwitchStrategy::Lazy,
                ..CompilerOptions::default()
            },
        )
        .unwrap();
        assert!(eager.parameters.chain_length() <= lazy.parameters.chain_length());
    }
}
