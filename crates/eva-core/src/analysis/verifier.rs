//! The full IR verifier: a standalone static checker for EVA programs.
//!
//! The paper's validation passes (Section 6.2) as a reusable verifier that
//! works on **any** [`Program`] — freshly compiled or decoded from an
//! untrusted `.evaprog` file — and reports *every* violation it finds, each
//! with node provenance (id and opcode), instead of first-error-only. The
//! scale and rescale-chain rules it checks are the compiler's own, shared
//! through [`crate::analysis::scale`].
//!
//! Two entry points:
//!
//! * [`verify_program`] checks a transformed program in isolation:
//!   structural well-formedness (acyclic DAG, in-range argument indices and
//!   arities, no dangling or duplicate outputs, dead-node hygiene) plus the
//!   paper's Constraints 1–4 over nominal scales (conforming moduli chains,
//!   equal ADD/SUB scales, two polynomials into every cipher-cipher
//!   multiplication, rotation and rescale, bounded rescale divisors).
//! * [`verify_compiled`] additionally checks a [`CompiledProgram`] against
//!   its shipped [`ParameterSpec`](crate::ParameterSpec): level underflow of
//!   rescale/modswitch chains vs. the actual prime chain, exact-scale
//!   annotations bit-identical to what the executor will observe, a
//!   Galois-key request equal to the program's rotation steps, and the
//!   prime chain itself. The chain has one validator, the backend's
//!   `CkksParameters::from_primes` at 128-bit security (degree, prime
//!   sizes, NTT-friendliness, primality, distinctness, the security
//!   bound), so a spec that verifies always builds a context; the verifier
//!   adds only that the ring packs the program's slots.
//!
//! Each finding is a [`Diagnostic`] naming the [`Check`] that failed, so
//! callers (and tests) can match failures to checks by name. Dead nodes are
//! reported as warnings — compiled programs may legitimately contain them —
//! and warnings never make a report unclean.
//!
//! # Example
//!
//! ```
//! use eva_core::analysis::verifier::{verify_compiled, Check};
//! use eva_core::{compile, CompilerOptions, Opcode, Program};
//!
//! let mut p = Program::new("square", 8);
//! let x = p.input_cipher("x", 30);
//! let sq = p.instruction(Opcode::Multiply, &[x, x]);
//! p.output("out", sq, 30);
//!
//! // Everything the compiler produces verifies cleanly.
//! let compiled = compile(&p, &CompilerOptions::default()).unwrap();
//! assert!(verify_compiled(&compiled).is_clean());
//!
//! // Tampering with the shipped parameters is caught by a named check.
//! let mut tampered = compiled.clone();
//! tampered.parameters.special_prime = tampered.parameters.data_primes[0];
//! let report = verify_compiled(&tampered);
//! assert!(!report.is_clean());
//! assert!(report.has_error(Check::Parameters));
//! ```

use std::collections::HashSet;

use eva_ckks::CkksParameters;
use eva_math::MAX_PRIME_BITS;

use crate::analysis::rotations::select_rotation_steps;
use crate::analysis::scale::{
    analyze_num_polys, needs_two_polys, prime_log2s, propagate_chains, scale_of, Phase,
};
use crate::compiler::CompiledProgram;
use crate::error::EvaError;
use crate::program::{NodeId, NodeKind, Program};
use crate::types::{ConstantValue, Opcode};

/// The individual checks the verifier runs. Every [`Diagnostic`] names the
/// check that produced it, so a corrupted program can be matched to the
/// specific property it violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// The program graph is a DAG (no argument cycles).
    Acyclic,
    /// Argument lists match opcode arities, every index names an existing
    /// node, and the declared type follows the operands (an instruction is
    /// Cipher-typed iff one of its operands is).
    ArgIndices,
    /// Outputs exist, refer to existing nodes and have unique names.
    Outputs,
    /// Constants are plaintext-typed and fit the program vector size.
    Constants,
    /// Dead-node hygiene: instruction nodes that cannot reach any output.
    /// A warning for raw input programs; an **error** for compiled programs,
    /// which `compile()` always strips of dead code before shipping.
    DeadCode,
    /// Paper Constraint 1: operands of binary cipher ops have conforming,
    /// equal-length rescale/modswitch chains (equal coefficient moduli).
    ChainConformity,
    /// Paper Constraint 2: ADD/SUB operands have equal scales (exact `f64`
    /// equality when verifying against a parameter spec).
    ScaleMatch,
    /// Paper Constraint 3, extended to every consumer that needs it: the
    /// cipher operands of a cipher-cipher MULTIPLY, a ROTATE and a RESCALE
    /// consist of exactly two polynomials. A plaintext MULTIPLY, ADD, SUB,
    /// NEGATE, MODSWITCH and outputs accept three.
    Relinearized,
    /// Paper Constraint 4: every RESCALE divides by at most the maximum
    /// prime size and never below its operand's scale.
    RescaleBounds,
    /// Rescale/modswitch chains never consume more primes than the shipped
    /// parameter spec provides (level underflow).
    LevelBudget,
    /// The Galois-key request of the compiled program is exactly the
    /// program's rotation steps.
    RotationKeys,
    /// Stamped exact-scale annotations are bit-identical to a replay of the
    /// evaluator's scale arithmetic against the shipped primes.
    ExactScales,
    /// The prime chain passes the backend's validator at 128-bit security,
    /// and the ring degree packs the program's slots.
    Parameters,
}

impl Check {
    /// A stable kebab-case name for the check, used in diagnostics, the
    /// service's load refusals and tests.
    pub fn name(self) -> &'static str {
        match self {
            Check::Acyclic => "acyclic",
            Check::ArgIndices => "arg-indices",
            Check::Outputs => "outputs",
            Check::Constants => "constants",
            Check::DeadCode => "dead-code",
            Check::ChainConformity => "chain-conformity",
            Check::ScaleMatch => "scale-match",
            Check::Relinearized => "relinearized",
            Check::RescaleBounds => "rescale-bounds",
            Check::LevelBudget => "level-budget",
            Check::RotationKeys => "rotation-keys",
            Check::ExactScales => "exact-scales",
            Check::Parameters => "parameters",
        }
    }

    /// Whether the check guards the program's shape rather than its
    /// arithmetic (`acyclic`, `arg-indices`, `outputs`, `constants`): a
    /// program failing one is malformed, and `compile` refuses it as input.
    pub fn is_structural(self) -> bool {
        matches!(
            self,
            Check::Acyclic | Check::ArgIndices | Check::Outputs | Check::Constants
        )
    }
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory only; does not make the report unclean.
    Warning,
    /// A genuine violation: the program must not be executed.
    Error,
}

/// One verifier finding: the check that fired, where, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The check that produced this finding.
    pub check: Check,
    /// Whether the finding is a hard error or advisory.
    pub severity: Severity,
    /// The node the finding is anchored to, if any.
    pub node: Option<NodeId>,
    /// Human-readable description, including node and opcode provenance.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let severity = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "[{}] {severity}: {}", self.check, self.message)
    }
}

/// The verifier's result: every diagnostic found, in program order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifierReport {
    /// All findings, errors and warnings alike.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifierReport {
    /// Whether the program passed: no error-severity diagnostics (warnings
    /// such as dead code are allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Iterator over the error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any **error** diagnostic came from the given check.
    pub fn has_error(&self, check: Check) -> bool {
        self.errors().any(|d| d.check == check)
    }

    /// Collapses the report into a single [`EvaError::Validation`] carrying
    /// every error message (with its check name), or `None` if clean.
    pub fn into_error(self) -> Option<EvaError> {
        if self.is_clean() {
            return None;
        }
        let joined: Vec<String> = self
            .errors()
            .map(|d| format!("[{}] {}", d.check, d.message))
            .collect();
        Some(EvaError::Validation(joined.join("; ")))
    }
}

impl std::fmt::Display for VerifierReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "verifier: clean");
        }
        for diagnostic in &self.diagnostics {
            writeln!(f, "{diagnostic}")?;
        }
        Ok(())
    }
}

/// Verifies a standalone (transformed) program: structural well-formedness
/// plus Constraints 1–4 over nominal scales. Reports every violation found.
///
/// [`MAX_PRIME_BITS`] bounds rescale divisors (Constraint 4, the paper's
/// `log2 s_f`).
pub fn verify_program(program: &Program) -> VerifierReport {
    let mut verifier = Verifier::new(program, MAX_PRIME_BITS, None);
    verifier.run();
    verifier.report
}

/// Verifies a compiled program against its own parameter spec and rotation
/// keys: everything [`verify_program`] checks, plus level budget, exact-scale
/// bit-identity, the exact rotation-key request and the prime chain.
///
/// This is the gate `eva-service` runs on every `.evaprog` load and the
/// compiler runs on its own output: a program passing it can never throw
/// inside the FHE runtime.
pub fn verify_compiled(compiled: &CompiledProgram) -> VerifierReport {
    let spec = &compiled.parameters;
    // The chain's one validator is the backend's own, so the verifier
    // refuses exactly the chains no context could be built from.
    let chain =
        CkksParameters::from_primes(spec.degree, &spec.data_primes, spec.special_prime, true);
    // Constraint 4 bounds a rescale by the special prime. A chain that
    // failed validation has no trustworthy special prime to size, so the
    // bound falls back to the largest prime size.
    let max_rescale_bits = match chain {
        Ok(_) => spec.special_prime_bits(),
        Err(_) => MAX_PRIME_BITS,
    };
    let mut verifier = Verifier::new(&compiled.program, max_rescale_bits, Some(compiled));
    verifier.run();
    if let Err(err) = chain {
        let message = format!("invalid prime chain: {err}");
        verifier.error(Check::Parameters, None, message);
    }
    if spec.degree < 2 * compiled.vec_size() {
        let message = format!(
            "ring degree {} cannot pack {} slots (needs at least {})",
            spec.degree,
            compiled.vec_size(),
            2 * compiled.vec_size()
        );
        verifier.error(Check::Parameters, None, message);
    }
    verifier.report
}

/// `%id (opcode)` / `%id (input "x")` provenance prefix for messages.
fn describe(program: &Program, id: NodeId) -> String {
    match &program.node(id).kind {
        NodeKind::Input { name } => format!("node {id} (input {name:?})"),
        NodeKind::Constant { .. } => format!("node {id} (constant)"),
        NodeKind::Instruction { op, .. } => format!("node {id} ({op})"),
    }
}

/// Internal driver holding the program under inspection and the report being
/// built.
struct Verifier<'a> {
    program: &'a Program,
    max_rescale_bits: u32,
    compiled: Option<&'a CompiledProgram>,
    report: VerifierReport,
    /// Topological order, available once the structural pass proved the
    /// graph acyclic.
    order: Vec<NodeId>,
    live: Vec<bool>,
}

impl<'a> Verifier<'a> {
    fn new(
        program: &'a Program,
        max_rescale_bits: u32,
        compiled: Option<&'a CompiledProgram>,
    ) -> Self {
        Self {
            program,
            max_rescale_bits,
            compiled,
            report: VerifierReport::default(),
            order: Vec::new(),
            live: Vec::new(),
        }
    }

    fn error(&mut self, check: Check, node: Option<NodeId>, message: String) {
        self.report.diagnostics.push(Diagnostic {
            check,
            severity: Severity::Error,
            node,
            message,
        });
    }

    fn warn(&mut self, check: Check, node: Option<NodeId>, message: String) {
        self.report.diagnostics.push(Diagnostic {
            check,
            severity: Severity::Warning,
            node,
            message,
        });
    }

    fn run(&mut self) {
        if !self.structural() {
            // The graph is not even navigable; semantic analyses would index
            // out of range or loop, so stop at the structural findings.
            return;
        }
        self.semantic();
        if let Some(compiled) = self.compiled {
            self.rotations(compiled);
        }
    }

    /// Structural pass. Returns whether the graph is safe to traverse
    /// (arguments in range, arities correct, acyclic).
    fn structural(&mut self) -> bool {
        let program = self.program;
        let node_count = program.len();

        if program.outputs().is_empty() {
            self.error(Check::Outputs, None, "program declares no outputs".into());
        }
        let mut seen_names: HashSet<&str> = HashSet::new();
        for output in program.outputs() {
            if !seen_names.insert(&output.name) {
                self.error(
                    Check::Outputs,
                    None,
                    format!("duplicate output name {:?}", output.name),
                );
            }
            if output.node >= node_count {
                self.error(
                    Check::Outputs,
                    None,
                    format!(
                        "output {:?} dangles: node {} does not exist ({} nodes)",
                        output.name, output.node, node_count
                    ),
                );
            }
        }

        let mut navigable = true;
        for (id, node) in program.nodes().iter().enumerate() {
            match &node.kind {
                NodeKind::Constant { value } => {
                    if node.ty.is_cipher() {
                        self.error(
                            Check::Constants,
                            Some(id),
                            format!("node {id} (constant) has Cipher type"),
                        );
                    }
                    if let ConstantValue::Vector(v) = value {
                        if v.len() > program.vec_size() {
                            self.error(
                                Check::Constants,
                                Some(id),
                                format!(
                                    "node {id} (constant) holds {} elements, program vector \
                                     size is {}",
                                    v.len(),
                                    program.vec_size()
                                ),
                            );
                        }
                    }
                }
                NodeKind::Instruction { op, args } => {
                    if args.len() != op.arity() {
                        self.error(
                            Check::ArgIndices,
                            Some(id),
                            format!(
                                "node {id} ({op}) has {} arguments, {op} expects {}",
                                args.len(),
                                op.arity()
                            ),
                        );
                        navigable = false;
                    }
                    let mut in_range = true;
                    for &arg in args {
                        if arg >= node_count {
                            self.error(
                                Check::ArgIndices,
                                Some(id),
                                format!(
                                    "node {id} ({op}) references missing node {arg} \
                                     ({node_count} nodes)"
                                ),
                            );
                            in_range = false;
                        }
                    }
                    // The rule `Program::instruction` infers types by: Cipher
                    // iff some operand is. The scale and chain rules rely on it.
                    let typed = !in_range
                        || program.cipher_args(id).next().is_some() == node.ty.is_cipher();
                    if !typed {
                        let has = if node.ty.is_cipher() { "no" } else { "a" };
                        self.error(
                            Check::ArgIndices,
                            Some(id),
                            format!(
                                "node {id} ({op}) is declared {} but has {has} Cipher operand",
                                node.ty
                            ),
                        );
                    }
                    navigable &= in_range && typed;
                }
                NodeKind::Input { .. } => {}
            }
        }
        if !navigable {
            return false;
        }

        // Cycle check: the program's one topological order, which reports
        // the nodes a cycle blocks instead of assuming a DAG. The semantic
        // pass walks the same order every rewrite pass walks.
        match program.topological_order() {
            Ok(order) => self.order = order,
            Err(mut cyclic) => {
                let stuck = cyclic.len();
                cyclic.truncate(8);
                self.error(
                    Check::Acyclic,
                    cyclic.first().copied(),
                    format!(
                        "program graph has a cycle through {stuck} node(s), including {}",
                        cyclic
                            .iter()
                            .map(|&id| format!("%{id}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                );
                return false;
            }
        }

        // Dead-node hygiene: instruction nodes that cannot reach any output.
        // For a *compiled* program this is an error: `compile()` always runs
        // a final dead-code sweep, so dead nodes in a compiled artifact mean
        // it was tampered with (or produced by something else) — and dead
        // branches are exactly where prime-budget and exact-scale guarantees
        // do not hold. For raw input programs it stays a warning.
        self.live = program.live_mask();
        let dead: Vec<NodeId> = (0..node_count)
            .filter(|&id| !self.live[id] && program.opcode(id).is_some())
            .collect();
        if !dead.is_empty() {
            let shown: Vec<String> = dead.iter().take(8).map(|&id| format!("%{id}")).collect();
            let suffix = if dead.len() > shown.len() {
                ", …"
            } else {
                ""
            };
            let message = format!(
                "{} instruction node(s) never reach an output: {}{suffix}",
                dead.len(),
                shown.join(", ")
            );
            if self.compiled.is_some() {
                self.error(Check::DeadCode, dead.first().copied(), message);
            } else {
                self.warn(Check::DeadCode, dead.first().copied(), message);
            }
        }
        true
    }

    /// The semantic pass: chains and scales through the shared propagators
    /// in [`crate::analysis::scale`], then polynomial counts, exact-scale
    /// stamps and level budget.
    fn semantic(&mut self) {
        let program = self.program;
        let diagnostics = &mut self.report.diagnostics;
        let mut sink = |check, id, message| {
            diagnostics.push(Diagnostic {
                check,
                severity: Severity::Error,
                node: Some(id),
                message,
            })
        };
        let chains = propagate_chains(program, &self.order, &mut sink);
        let log_primes = self
            .compiled
            .map(|c| prime_log2s(&c.parameters.data_primes));
        let phase = match &log_primes {
            Some(log_primes) => Phase::Exact {
                log_primes,
                chains: &chains,
                live: &self.live,
            },
            None => Phase::Nominal,
        };
        let mut scales = vec![0.0f64; program.len()];
        for &id in &self.order {
            // Dead nodes of a compiled program never execute, so neither
            // the bounds nor the exact replay apply to them.
            let executes = log_primes.is_none() || self.live[id];
            if let Some(op @ Opcode::Rescale(bits)) = program.opcode(id) {
                if executes && bits > self.max_rescale_bits {
                    let message = format!(
                        "node {id} ({op}): rescale by 2^{bits} exceeds the maximum of 2^{}",
                        self.max_rescale_bits
                    );
                    sink(Check::RescaleBounds, id, message);
                }
            }
            // `level-budget` is reported below, once per consuming node.
            scales[id] = scale_of(program, id, &scales, &phase, &mut |check, id, message| {
                if check != Check::LevelBudget {
                    sink(check, id, message);
                }
            });
            // Exact mode: the stamped annotation must be bit-identical to the
            // replayed value, or the evaluator's exact-equality check fires
            // at run time.
            let stamped = program.node(id).scale_log2;
            if log_primes.is_some() && stamped.to_bits() != scales[id].to_bits() {
                let message = format!(
                    "{}: stamped scale 2^{stamped} is not bit-identical to the replayed exact \
                     scale 2^{}",
                    describe(program, id),
                    scales[id]
                );
                sink(Check::ExactScales, id, message);
            }
        }
        let polys = analyze_num_polys(program);

        let max_level = self
            .compiled
            .map(|c| c.parameters.data_primes.len())
            .unwrap_or(usize::MAX);
        for id in 0..program.len() {
            let Some(op) = program.opcode(id) else {
                continue;
            };
            // A cipher-cipher multiply and a rotate are refused at run time
            // on wider operands (`CkksError::TooManyPolynomials` /
            // `InvalidCiphertextSize`), and a rescale of three polynomials
            // is outside the noise model, so a missing relinearization
            // upstream of any of them is a load-time refusal, not a session
            // crash or an unpriced error.
            if needs_two_polys(program, id) {
                for a in program.cipher_args(id) {
                    if polys[a] != 2 {
                        let message = format!(
                            "{}: operand %{a} has {} polynomials; relinearization missing",
                            describe(self.program, id),
                            polys[a]
                        );
                        self.error(Check::Relinearized, Some(id), message);
                    }
                }
            }
            // Level underflow: a consuming node whose chain is longer than
            // the shipped prime chain would run the modulus dry at run time.
            // Reported at consuming nodes only, so one deep chain yields one
            // diagnostic rather than one per descendant.
            if op.consumes_modulus()
                && self.live[id]
                && program.node(id).ty.is_cipher()
                && chains[id].len() > max_level
            {
                let message = format!(
                    "{}: rescale chain of length {} exceeds the {max_level}-prime chain",
                    describe(self.program, id),
                    chains[id].len()
                );
                self.error(Check::LevelBudget, Some(id), message);
            }
        }

        // No output gate: an output may leave with three polynomials. The
        // client's decryption computes `c0 + c1·s + c2·s²`, `EVAC` carries
        // the polynomial count, and the noise model prices such an output
        // without a key-switch term, because none ran.
    }

    /// Rotation-key coverage (compiled programs only): the Galois-key
    /// request is exactly the program's rotation steps. A missing step would
    /// fail at run time; an extra one would make every client generate and
    /// upload a key no instruction reads.
    fn rotations(&mut self, compiled: &CompiledProgram) {
        let required = select_rotation_steps(self.program);
        if compiled.rotation_steps != required {
            self.error(
                Check::RotationKeys,
                None,
                format!(
                    "the Galois-key request {:?} is not the program's rotation steps {required:?}",
                    compiled.rotation_steps
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ParameterSpec;
    use crate::compiler::{compile, CompilerOptions};
    use crate::program::Program;
    use crate::types::{ConstantValue, ValueType};

    fn sum_of_rotations() -> Program {
        // A program exercising rotations, multiplication and addition.
        let mut p = Program::new("rotsum", 16);
        let x = p.input_cipher("x", 30);
        let r1 = p.instruction(Opcode::RotateLeft(1), &[x]);
        let r2 = p.instruction(Opcode::RotateRight(2), &[x]);
        let prod = p.instruction(Opcode::Multiply, &[r1, r2]);
        let sum = p.instruction(Opcode::Add, &[prod, prod]);
        p.output("out", sum, 30);
        p
    }

    fn compiled_rotsum() -> CompiledProgram {
        compile(&sum_of_rotations(), &CompilerOptions::default()).unwrap()
    }

    #[test]
    fn compiled_programs_verify_cleanly() {
        let compiled = compiled_rotsum();
        let report = verify_compiled(&compiled);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn swapped_arg_is_caught() {
        // Mutation: retarget one argument of a cipher ADD to a node at a
        // different scale/level — the scale-match (and possibly chain) check
        // must fire.
        let mut compiled = compiled_rotsum();
        let program = &mut compiled.program;
        let add = (0..program.len())
            .find(|&id| {
                program.opcode(id) == Some(Opcode::Add)
                    && program
                        .args(id)
                        .iter()
                        .all(|&a| program.node(a).ty.is_cipher())
            })
            .expect("cipher add");
        // Point the second operand back at the raw input (different scale
        // and chain than the transformed operand).
        program.replace_arg_at(add, 1, 0);
        let report = verify_compiled(&compiled);
        assert!(!report.is_clean());
        assert!(
            report.has_error(Check::ScaleMatch) || report.has_error(Check::ChainConformity),
            "{report}"
        );
    }

    #[test]
    fn dropped_relinearize_is_caught() {
        // Mutation: bypass a RELINEARIZE node, re-exposing a 3-polynomial
        // ciphertext to a downstream multiply.
        let mut p = Program::new("needs_relin", 8);
        let x = p.input_cipher("x", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let deeper = p.instruction(Opcode::Multiply, &[prod, x]);
        p.output("out", deeper, 30);
        let report = verify_program(&p);
        assert!(report.has_error(Check::Relinearized), "{report}");
    }

    #[test]
    fn deepened_rescale_chain_is_caught() {
        // Mutation: append an extra RESCALE past the shipped prime chain.
        let mut compiled = compiled_rotsum();
        let out_node = compiled.program.outputs()[0].node;
        let extra = compiled.program.push_instruction(
            Opcode::Rescale(30),
            vec![out_node],
            ValueType::Cipher,
        );
        compiled.program.redirect_outputs(out_node, extra);
        // One rescale per remaining prime exhausts the chain.
        for _ in 0..compiled.parameters.data_primes.len() {
            let out_node = compiled.program.outputs()[0].node;
            let extra = compiled.program.push_instruction(
                Opcode::Rescale(30),
                vec![out_node],
                ValueType::Cipher,
            );
            compiled.program.redirect_outputs(out_node, extra);
        }
        let report = verify_compiled(&compiled);
        assert!(report.has_error(Check::LevelBudget), "{report}");
    }

    #[test]
    fn removed_rotation_step_is_caught() {
        let mut compiled = compiled_rotsum();
        assert!(!compiled.rotation_steps.is_empty());
        compiled.rotation_steps.remove(0);
        let report = verify_compiled(&compiled);
        assert!(report.has_error(Check::RotationKeys), "{report}");
    }

    #[test]
    fn tampered_exact_scale_is_caught() {
        let mut compiled = compiled_rotsum();
        let out_node = compiled.program.outputs()[0].node;
        let stamped = compiled.program.node(out_node).scale_log2;
        compiled.program.set_scale_log2(out_node, stamped + 1.0);
        let report = verify_compiled(&compiled);
        assert!(report.has_error(Check::ExactScales), "{report}");
    }

    #[test]
    fn cycle_is_caught_without_panicking() {
        // Build a cycle through the pub(crate) mutator: %1 -> %2 -> %1.
        let mut p = Program::new("cyclic", 8);
        let x = p.input_cipher("x", 30);
        let a = p.push_instruction(Opcode::Negate, vec![x], ValueType::Cipher);
        let b = p.push_instruction(Opcode::Negate, vec![a], ValueType::Cipher);
        p.replace_arg_at(a, 0, b);
        p.output("out", b, 30);
        let report = verify_program(&p);
        assert!(report.has_error(Check::Acyclic), "{report}");
    }

    #[test]
    fn duplicate_and_missing_outputs_are_caught() {
        let mut p = Program::new("bad_outputs", 8);
        let x = p.input_cipher("x", 30);
        p.output("out", x, 30);
        p.output("out", x, 30); // duplicate name
        let report = verify_program(&p);
        assert!(report.has_error(Check::Outputs), "{report}");

        let empty = Program::new("no_outputs", 8);
        let report = verify_program(&empty);
        assert!(report.has_error(Check::Outputs), "{report}");
    }

    #[test]
    fn oversized_rescale_and_underflow_are_caught() {
        let mut p = Program::new("bad_rescale", 8);
        let x = p.input_cipher("x", 30);
        let r = p.push_instruction(Opcode::Rescale(65), vec![x], ValueType::Cipher);
        p.output("out", r, 30);
        let report = verify_program(&p);
        assert!(report.has_error(Check::RescaleBounds), "{report}");
        // Both findings (over the max AND underflowing the operand) surface.
        assert!(report.error_count() >= 2, "{report}");
    }

    #[test]
    fn dead_nodes_are_warnings_not_errors() {
        let mut p = Program::new("dead", 8);
        let x = p.input_cipher("x", 30);
        let _dead = p.instruction(Opcode::Negate, &[x]);
        let live = p.instruction(Opcode::Add, &[x, x]);
        p.output("out", live, 30);
        let report = verify_program(&p);
        assert!(report.is_clean(), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.check == Check::DeadCode && d.severity == Severity::Warning));
    }

    #[test]
    fn dead_nodes_are_errors_in_compiled_programs() {
        // `compile()` guarantees dead-free output, so a dead instruction in a
        // compiled artifact means tampering — an error, not a warning.
        let mut compiled = compiled_rotsum();
        let x = 0; // the input node
        let dead = compiled
            .program
            .push_instruction(Opcode::Negate, vec![x], ValueType::Cipher);
        let _ = dead;
        let report = verify_compiled(&compiled);
        assert!(report.has_error(Check::DeadCode), "{report}");
        assert!(report
            .errors()
            .any(|d| d.check == Check::DeadCode && d.node == Some(dead)));
    }

    #[test]
    fn compiled_programs_verify_dead_free() {
        let compiled = compiled_rotsum();
        let report = verify_compiled(&compiled);
        assert!(report.is_clean(), "{report}");
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.check == Check::DeadCode));
    }

    #[test]
    fn tampered_parameters_are_caught() {
        type Tamper = fn(&mut ParameterSpec);
        let cases: [(&str, Tamper); 7] = [
            ("non-NTT-friendly prime", |spec| spec.special_prime += 2),
            ("repeated prime", |spec| {
                spec.special_prime = spec.data_primes[0]
            }),
            ("zero special prime", |spec| spec.special_prime = 0),
            ("zero data prime", |spec| spec.data_primes[0] = 0),
            ("over-budget chain", |spec| spec.degree /= 2),
            ("unsupported degree", |spec| spec.degree = 512),
            ("composite modulus", |spec| {
                let step = 2 * spec.degree as u64;
                spec.special_prime = (1..)
                    .map(|j| spec.special_prime - j * step)
                    .find(|q| q % 3 == 0)
                    .unwrap();
            }),
        ];
        for (name, tamper) in cases {
            let mut compiled = compiled_rotsum();
            tamper(&mut compiled.parameters);
            let spec = &compiled.parameters;
            assert!(
                CkksParameters::from_primes(
                    spec.degree,
                    &spec.data_primes,
                    spec.special_prime,
                    true
                )
                .is_err(),
                "{name}: the backend accepts it"
            );
            let report = verify_compiled(&compiled);
            assert!(report.has_error(Check::Parameters), "{name}: {report}");
            // Nothing was generated: the finding names the defect.
            let finding = report.to_string();
            assert!(!finding.contains("generation"), "{name}: {finding}");
        }
    }

    #[test]
    fn an_unused_rotation_step_is_caught() {
        let mut compiled = compiled_rotsum();
        compiled.rotation_steps.push(5);
        compiled.rotation_steps.sort_unstable();
        let report = verify_compiled(&compiled);
        assert!(report.has_error(Check::RotationKeys), "{report}");
    }

    #[test]
    fn all_violations_are_reported_not_just_the_first() {
        // Two independent defects in one program: both must appear.
        let mut p = Program::new("multi", 8);
        let x = p.input_cipher("x", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let deeper = p.instruction(Opcode::Multiply, &[prod, x]); // missing relin
        let sum = p.instruction(Opcode::Add, &[deeper, x]); // scale mismatch
        p.output("out", sum, 30);
        let report = verify_program(&p);
        assert!(report.has_error(Check::Relinearized), "{report}");
        assert!(report.has_error(Check::ScaleMatch), "{report}");
    }

    // The paper's Constraints 1–4 on transformed programs, one case each.

    #[test]
    fn valid_program_passes() {
        // x^2 (relinearized) added to the raw product: equal scales and chains.
        let mut p = Program::new("valid", 8);
        let x = p.input_cipher("x", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let relin = p.push_instruction(Opcode::Relinearize, vec![prod], ValueType::Cipher);
        let sum = p.instruction(Opcode::Add, &[relin, prod]);
        p.output("out", sum, 30);
        let report = verify_program(&p);
        assert!(report.is_clean(), "{report}");
    }

    /// The single error a one-defect program reports, as `[check] message`.
    fn only_error(p: &Program) -> String {
        let err = verify_program(p)
            .into_error()
            .expect("a defect")
            .to_string();
        assert_eq!(err.matches('[').count(), 1, "{err}");
        err
    }

    #[test]
    fn scale_mismatch_is_reported() {
        let mut p = Program::new("scale_mismatch", 8);
        let x = p.input_cipher("x", 30);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[x2, x]); // 60 vs 30 bits
        p.output("out", sum, 30);
        let err = only_error(&p);
        assert!(
            err.contains("[scale-match]") && err.contains("scales differ"),
            "{err}"
        );
    }

    #[test]
    fn modulus_mismatch_is_reported() {
        let mut p = Program::new("modulus_mismatch", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let rescaled = p.push_instruction(Opcode::Rescale(30), vec![x], ValueType::Cipher);
        let sum = p.instruction(Opcode::Add, &[rescaled, y]);
        p.output("out", sum, 30);
        let err = verify_program(&p).into_error().unwrap().to_string();
        assert!(
            err.contains("[chain-conformity]") && err.contains("chain"),
            "{err}"
        );
    }

    #[test]
    fn missing_relinearization_is_reported() {
        let mut p = Program::new("missing_relin", 8);
        let x = p.input_cipher("x", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let deeper = p.instruction(Opcode::Multiply, &[prod, x]);
        p.output("out", deeper, 30);
        let err = only_error(&p);
        assert!(
            err.contains("[relinearized]") && err.contains("polynomials"),
            "{err}"
        );
    }

    #[test]
    fn a_three_polynomial_rescale_is_refused() {
        let mut p = Program::new("rescale_3", 8);
        let x = p.input_cipher("x", 60);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let r = p.push_instruction(Opcode::Rescale(60), vec![prod], ValueType::Cipher);
        p.output("out", r, 60);
        let err = only_error(&p);
        assert!(
            err.contains("[relinearized]") && err.contains("rescale"),
            "{err}"
        );
    }

    #[test]
    fn a_three_polynomial_plain_multiply_and_output_are_accepted() {
        // x² · v + x² leaves with three polynomials, in a program and in a
        // compiled one.
        let mut p = Program::new("plain_3", 8);
        let x = p.input_cipher("x", 20);
        let v = p.input_vector("v", 10);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let scaled = p.instruction(Opcode::Multiply, &[prod, v]);
        let one = p.constant(ConstantValue::Scalar(1.0), 10);
        let matched = p.instruction(Opcode::Multiply, &[prod, one]);
        let sum = p.instruction(Opcode::Add, &[scaled, matched]);
        p.output("out", sum, 20);
        assert!(verify_program(&p).is_clean());
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        assert_eq!(
            analyze_num_polys(&compiled.program)[compiled.program.outputs()[0].node],
            3
        );
        let report = verify_compiled(&compiled);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn oversized_rescale_is_reported() {
        let mut p = Program::new("big_rescale", 8);
        let x = p.input_cipher("x", 65);
        let r = p.push_instruction(Opcode::Rescale(65), vec![x], ValueType::Cipher);
        p.output("out", r, 30);
        let err = only_error(&p);
        assert!(
            err.contains("[rescale-bounds]") && err.contains("exceeds the maximum"),
            "{err}"
        );
    }

    #[test]
    fn type_lying_instruction_is_refused_without_panicking() {
        // A Cipher-typed ADD of two plaintext operands, shipped through the
        // .evaprog codec: the exact replay has no cipher operand to follow.
        let mut p = Program::new("square", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let mut compiled = compile(&p, &CompilerOptions::default()).unwrap();
        let program = &mut compiled.program;
        let out = program.outputs()[0].node;
        let v = program.input_vector("v", 20);
        let lie = program.push_instruction(Opcode::Add, vec![v, v], ValueType::Cipher);
        let sum = program.push_instruction(Opcode::Add, vec![out, lie], ValueType::Cipher);
        program.redirect_outputs(out, sum);
        let bytes = crate::serialize::compiled_to_bytes(&compiled);
        let decoded = crate::serialize::compiled_from_bytes(&bytes).unwrap();
        let report = verify_compiled(&decoded);
        assert!(report.has_error(Check::ArgIndices), "{report}");
        assert!(report.errors().all(|d| d.node == Some(lie)), "{report}");

        // The other direction: a plaintext-typed NEGATE of a ciphertext.
        let mut p = Program::new("retyped", 8);
        let x = p.input_cipher("x", 30);
        let plain = p.push_instruction(Opcode::Negate, vec![x], ValueType::Vector);
        p.output("out", plain, 30);
        let report = verify_program(&p);
        assert!(report.has_error(Check::ArgIndices), "{report}");
    }
}
