//! Forward data-flow analyses: fixed-point scales, rescale chains (levels) and
//! polynomial counts.
//!
//! # One copy of each rule
//!
//! Every scale rule lives in one transfer function, `scale_of`, and every
//! chain rule in one propagator, `propagate_chains`. Both report each
//! violation to a caller-supplied sink as `(check, node, message)` and keep
//! propagating, so every caller sees the same facts:
//!
//! * the [verifier](crate::analysis::verifier) pushes each finding as a
//!   diagnostic, over its own cycle-safe order;
//! * the public wrappers below ([`analyze_scales`], [`analyze_exact_scales`],
//!   [`analyze_levels`], [`remaining_levels`]) run over
//!   [`Program::topological_order`] and return their first fatal finding as
//!   [`EvaError::Validation`];
//! * the exact match-scale pass ([`crate::passes::apply_exact_scales`]) turns
//!   a finding into an error;
//! * the nominal rewrite passes (waterline / always rescale, match-scale)
//!   ignore findings: they run before the program is valid.
//!
//! # The two-phase exact-scale pipeline
//!
//! Scales are tracked in the `log2` domain as `f64` throughout the compiler,
//! in two phases, which are the two phases of `scale_of`:
//!
//! 1. **Nominal phase** (before parameter selection): [`analyze_scales`]
//!    propagates the programmer's integral bit annotations under
//!    power-of-two semantics — MULTIPLY adds `log2` scales, `RESCALE(s)`
//!    subtracts exactly `s` bits. All values are integral `f64`s, so the
//!    rewrite passes (waterline rescale, match-scale, modswitch) make the
//!    same decisions the paper's integer formulation makes, and parameter
//!    selection can size the prime chain from them.
//! 2. **Exact phase** (after parameter selection): once the actual
//!    NTT-friendly primes are fixed, [`analyze_exact_scales`] re-propagates
//!    scales against the real chain — a RESCALE at level `l` subtracts
//!    `log2(q_{l-1})` of the *actual* prime, which is close to but never
//!    exactly its nominal bit size. The propagation mirrors, operation for
//!    operation, the `f64` arithmetic the runtime evaluator performs
//!    (addition of `log2` scales on multiply, subtraction of a cached
//!    `log2 q` on rescale), so the compiler's predicted scales are
//!    **bit-identical** to the scales the executor observes.
//!
//! ADD/SUB requires exactly equal operand scales at runtime. Where two
//! operands reach the same level through different RESCALE/MODSWITCH
//! structures their exact scales differ by a tiny drift (≈ `2^-15` relative
//! per rescale, the gap between a prime and its power-of-two nominal); the
//! exact match-scale pass
//! ([`crate::passes::apply_exact_scales`]) closes that gap by multiplying the
//! lower-scale operand with the constant `1` encoded at the scale ratio,
//! using [`match_scale_delta`] to pick a `log2` delta whose rounded sum lands
//! bit-exactly on the target. The executor therefore needs **no scale
//! tolerance at all** — its scale comparison is exact `f64` equality, and any
//! mismatch is a genuine compiler bug rather than inherent prime drift.

use crate::analysis::verifier::Check;
use crate::error::EvaError;
use crate::program::{NodeId, NodeKind, Program};
use crate::types::Opcode;

/// One entry of a node's rescale chain (paper Definition 3): either a RESCALE
/// by a known number of bits, or a MODSWITCH (the paper's `∞`, which matches
/// any rescale value when chains are compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEntry {
    /// RESCALE by `2^bits`.
    Rescale(u32),
    /// MODSWITCH (matches any value during conformity comparison).
    ModSwitch,
}

impl ChainEntry {
    pub(crate) fn merge(a: ChainEntry, b: ChainEntry) -> Option<ChainEntry> {
        match (a, b) {
            (ChainEntry::ModSwitch, other) | (other, ChainEntry::ModSwitch) => Some(other),
            (ChainEntry::Rescale(x), ChainEntry::Rescale(y)) if x == y => Some(a),
            _ => None,
        }
    }
}

/// Where the shared propagators send a violation: the check it breaks, the
/// node, and a message with node and opcode provenance.
pub(crate) type Sink<'s> = &'s mut dyn FnMut(Check, NodeId, String);

/// Which semantics `scale_of` applies.
pub(crate) enum Phase<'a> {
    /// Power-of-two semantics over the programmer's integral annotations.
    Nominal,
    /// The evaluator's replay against the actual primes: `log_primes` holds
    /// each data prime's `log2` (bottom of the chain first), `chains` every
    /// node's rescale chain and `live` the nodes that execute.
    Exact {
        log_primes: &'a [f64],
        chains: &'a [Vec<ChainEntry>],
        live: &'a [bool],
    },
}

/// The scale transfer function: the `log2` scale of node `id` given its
/// operands' entries in `scales`. Every scale rule is stated here once.
///
/// * Inputs and constants carry their annotation.
/// * **Nominal**: MULTIPLY adds its operands' scales; ADD/SUB operands,
///   plaintext included, must agree ([`Check::ScaleMatch`]) and the result
///   is the larger; `RESCALE(s)` subtracts `s` bits, saturating at zero on
///   underflow ([`Check::RescaleBounds`]); every other instruction keeps its
///   first operand's scale.
/// * **Exact**, cipher nodes: the evaluator's replay. A RESCALE whose chain
///   leaves level `l` subtracts `log2(q_l)` of the real prime (a chain longer
///   than the primes is [`Check::LevelBudget`] and falls back to the nominal
///   divisor); an ADD/SUB with a plaintext operand inherits the cipher
///   operand's scale, since the executor encodes the plaintext at exactly
///   that scale, so only two cipher operands can disagree.
/// * **Exact**, plaintext nodes: nominal — the executor computes them as raw
///   vectors and re-encodes them at their annotation. Dead nodes keep their
///   annotation: they never execute, and their chains may outrun the primes.
///
/// Never indexes out of range on a program the verifier's structural pass
/// accepts (arities, argument indices and cipher bits all consistent).
pub(crate) fn scale_of(
    program: &Program,
    id: NodeId,
    scales: &[f64],
    phase: &Phase<'_>,
    report: Sink<'_>,
) -> f64 {
    let node = program.node(id);
    let NodeKind::Instruction { op, args } = &node.kind else {
        return node.scale_log2;
    };
    let exact = match *phase {
        Phase::Exact { live, .. } if !live[id] => return node.scale_log2,
        Phase::Exact {
            log_primes, chains, ..
        } if node.ty.is_cipher() => Some((log_primes, chains)),
        _ => None,
    };
    let operand = |i: usize| scales[args[i]];
    match op {
        Opcode::Multiply => operand(0) + operand(1),
        Opcode::Add | Opcode::Sub => {
            let (a, b, which) = if exact.is_some() {
                let mut cipher = program.cipher_args(id).map(|arg| scales[arg]);
                let a = cipher.next().unwrap_or_else(|| operand(0));
                (a, cipher.next().unwrap_or(a), "exact ")
            } else {
                (operand(0), operand(1), "")
            };
            if a != b {
                let message =
                    format!("node {id} ({op}): operand {which}scales differ (2^{a} vs 2^{b})");
                report(Check::ScaleMatch, id, message);
            }
            a.max(b)
        }
        Opcode::Rescale(bits) => {
            let input = operand(0);
            let bits = f64::from(*bits);
            if let Some((log_primes, chains)) = exact {
                // chains[id] includes this node's own entry, so the prime
                // divided sits at max_level - chains[id].len().
                let (consumed, max_level) = (chains[id].len(), log_primes.len());
                if let Some(log_q) = max_level
                    .checked_sub(consumed)
                    .and_then(|l| log_primes.get(l))
                {
                    return input - log_q;
                }
                let message = format!(
                    "node {id} ({op}): rescale chain of length {consumed} exceeds the \
                     {max_level}-prime chain"
                );
                report(Check::LevelBudget, id, message);
                input - bits
            } else {
                if input < bits {
                    let message = format!(
                        "node {id} ({op}): rescale by 2^{bits} underflows operand scale 2^{input}"
                    );
                    report(Check::RescaleBounds, id, message);
                }
                (input - bits).max(0.0)
            }
        }
        Opcode::Negate
        | Opcode::RotateLeft(_)
        | Opcode::RotateRight(_)
        | Opcode::Relinearize
        | Opcode::ModSwitch => operand(0),
    }
}

/// The rescale-chain propagator (paper Definition 3 and Constraint 1): the
/// chain of every cipher node, visiting `order`. Non-cipher nodes get an
/// empty chain; a cipher instruction merges its cipher operands' chains and
/// appends its own RESCALE/MODSWITCH entry.
///
/// Operands whose chains do not conform are reported once per node as
/// [`Check::ChainConformity`], and propagation recovers so one root cause
/// does not cascade into a finding per descendant: a length conflict keeps
/// the longer chain, an entry conflict keeps the first operand's entry.
pub(crate) fn propagate_chains(
    program: &Program,
    order: &[NodeId],
    report: Sink<'_>,
) -> Vec<Vec<ChainEntry>> {
    let mut chains: Vec<Vec<ChainEntry>> = vec![Vec::new(); program.len()];
    for &id in order {
        let node = program.node(id);
        let NodeKind::Instruction { op, .. } = &node.kind else {
            continue;
        };
        if !node.ty.is_cipher() {
            continue;
        }
        let mut conflict = None;
        let mut merged: Option<Vec<ChainEntry>> = None;
        for arg in program.cipher_args(id) {
            let arg_chain = &chains[arg];
            merged = Some(match merged {
                None => arg_chain.clone(),
                Some(current) if current.len() != arg_chain.len() => {
                    conflict.get_or_insert_with(|| {
                        format!(
                            "operand rescale chains have different lengths ({} vs {})",
                            current.len(),
                            arg_chain.len()
                        )
                    });
                    if arg_chain.len() > current.len() {
                        arg_chain.clone()
                    } else {
                        current
                    }
                }
                Some(current) => current
                    .iter()
                    .zip(arg_chain)
                    .map(|(&a, &b)| {
                        ChainEntry::merge(a, b).unwrap_or_else(|| {
                            conflict.get_or_insert_with(|| {
                                format!(
                                    "operands have non-conforming rescale chains ({a:?} vs {b:?})"
                                )
                            });
                            a
                        })
                    })
                    .collect(),
            });
        }
        if let Some(message) = conflict {
            report(
                Check::ChainConformity,
                id,
                format!("node {id} ({op}): {message}"),
            );
        }
        let mut chain = merged.unwrap_or_default();
        match op {
            Opcode::Rescale(bits) => chain.push(ChainEntry::Rescale(*bits)),
            Opcode::ModSwitch => chain.push(ChainEntry::ModSwitch),
            _ => {}
        }
        chains[id] = chain;
    }
    chains
}

/// Runs a propagation with a sink that keeps the first finding whose check
/// `fatal` accepts, and returns that finding as the error.
fn first_fatal<T>(
    fatal: impl Fn(Check) -> bool,
    run: impl FnOnce(Sink<'_>) -> T,
) -> Result<T, EvaError> {
    let mut first = None;
    let value = run(&mut |check, _, message| {
        if first.is_none() && fatal(check) {
            first = Some(message);
        }
    });
    first.map_or(Ok(value), |message| Err(EvaError::Validation(message)))
}

/// `scale_of` over every node in [`Program::topological_order`].
fn propagate_scales(program: &Program, phase: &Phase<'_>, report: Sink<'_>) -> Vec<f64> {
    let mut scales = vec![0.0f64; program.len()];
    for id in program.topological_order() {
        scales[id] = scale_of(program, id, &scales, phase, report);
    }
    scales
}

/// Computes the nominal `log2` scale of every node and stores it on the
/// program. Returns the vector of scales indexed by node id.
///
/// This is the *nominal* phase of the pipeline described in the module docs:
/// inputs and constants carry their annotations, MULTIPLY adds `log2` scales,
/// RESCALE subtracts its nominal divisor, and every other instruction keeps
/// its first operand's scale. After parameter selection
/// [`analyze_exact_scales`] replaces these annotations with the exact values.
///
/// # Errors
///
/// Returns [`EvaError::Validation`] if a RESCALE divides by more bits than its
/// operand's scale has.
pub fn analyze_scales(program: &mut Program) -> Result<Vec<f64>, EvaError> {
    let scales = first_fatal(
        |check| check == Check::RescaleBounds,
        |report| propagate_scales(program, &Phase::Nominal, report),
    )?;
    for (id, &scale) in scales.iter().enumerate() {
        program.set_scale_log2(id, scale);
    }
    Ok(scales)
}

/// `log2` of each data prime, cached once per exact-scale pass. The values
/// are computed with the same `(q as f64).log2()` expression the runtime
/// context uses, which is what makes compiler predictions bit-identical to
/// executor observations.
pub fn prime_log2s(data_primes: &[u64]) -> Vec<f64> {
    data_primes.iter().map(|&q| (q as f64).log2()).collect()
}

/// Computes the **exact** `log2` scale of every node against the actual prime
/// chain chosen by parameter selection, without modifying the program.
///
/// The propagation replays the evaluator's own scale arithmetic (the exact
/// phase in the module docs): MULTIPLY adds the operand `log2` scales, a
/// RESCALE subtracts `log2` of the real prime it divides by, ADD/SUB with a
/// plaintext operand inherits the cipher operand's scale, and plaintext and
/// dead nodes keep nominal semantics.
///
/// # Errors
///
/// Returns [`EvaError::Validation`] if the rescale chains do not conform, a
/// cipher-cipher ADD/SUB has operands whose exact scales are not
/// bit-identical (the exact match-scale pass should have corrected them
/// first), or a node's rescale chain is longer than the prime chain.
pub fn analyze_exact_scales(program: &Program, data_primes: &[u64]) -> Result<Vec<f64>, EvaError> {
    let chains = analyze_levels(program)?;
    let log_primes = prime_log2s(data_primes);
    let live = program.live_mask();
    let phase = Phase::Exact {
        log_primes: &log_primes,
        chains: &chains,
        live: &live,
    };
    first_fatal(|_| true, |report| propagate_scales(program, &phase, report))
}

/// Solves for a `log2`-domain correction `delta` such that
/// `source + delta == target` holds **bit-exactly** in `f64` arithmetic.
///
/// The naive `target - source` lands within an ulp of the target after the
/// rounded re-addition; because `|delta| ≪ |source|`, nudging `delta` in
/// ulp-of-target steps moves the rounded sum one representable value at a
/// time, so a few steps in either direction always reach the target exactly.
/// Returns `None` only if no representable delta works (not observed in
/// practice; callers surface it as a validation error).
pub fn match_scale_delta(source: f64, target: f64) -> Option<f64> {
    if source == target {
        return Some(0.0);
    }
    let base = target - source;
    if source + base == target {
        return Some(base);
    }
    // One ulp at the target's magnitude (scales are positive, tens of bits).
    let ulp = (target.next_up() - target).max(f64::MIN_POSITIVE);
    for k in 1..=8i32 {
        for sign in [1.0f64, -1.0] {
            let delta = base + sign * f64::from(k) * ulp;
            if source + delta == target {
                return Some(delta);
            }
        }
    }
    None
}

/// Computes the conforming rescale chain of every *cipher* node.
///
/// Non-cipher nodes get an empty chain. The chain of a cipher node is the
/// sequence of RESCALE/MODSWITCH operations on any root-to-node path; the
/// analysis fails if two paths disagree (the chains are not conforming), which
/// is exactly the paper's Constraint 1 precondition.
///
/// # Errors
///
/// Returns [`EvaError::Validation`] if any node has non-conforming chains.
pub fn analyze_levels(program: &Program) -> Result<Vec<Vec<ChainEntry>>, EvaError> {
    let order = program.topological_order();
    first_fatal(|_| true, |report| propagate_chains(program, &order, report))
}

/// Computes the number of polynomials of every cipher node's ciphertext
/// (paper Constraint 3): fresh ciphertexts have 2, a cipher-cipher MULTIPLY
/// produces 3, RELINEARIZE brings it back to 2.
pub fn analyze_num_polys(program: &Program) -> Vec<usize> {
    let order = program.topological_order();
    let mut polys = vec![2usize; program.len()];
    for id in order {
        let node = program.node(id);
        if !node.ty.is_cipher() {
            continue;
        }
        if let Some(op) = program.opcode(id) {
            let cipher_args: Vec<NodeId> = program.cipher_args(id).collect();
            polys[id] = match op {
                Opcode::Multiply if cipher_args.len() == 2 => {
                    polys[cipher_args[0]] + polys[cipher_args[1]] - 1
                }
                Opcode::Relinearize => 2,
                _ => cipher_args.iter().map(|&a| polys[a]).max().unwrap_or(2),
            };
        }
    }
    polys
}

/// Convenience: the length of each node's rescale chain (the paper's `level`).
pub fn chain_lengths(chains: &[Vec<ChainEntry>]) -> Vec<usize> {
    chains.iter().map(|c| c.len()).collect()
}

/// The number of data primes still alive at each node's value — what the
/// backend calls the ciphertext's level: `max_level` minus the length of the
/// node's rescale chain.
///
/// # Errors
///
/// Propagates [`analyze_levels`] failures (non-conforming chains).
pub fn remaining_levels(program: &Program, max_level: usize) -> Result<Vec<usize>, EvaError> {
    Ok(analyze_levels(program)?
        .iter()
        .map(|chain| max_level.saturating_sub(chain.len()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::types::{Opcode, ValueType};

    #[test]
    fn scales_follow_multiply_and_rescale() {
        let mut p = Program::new("scales", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 25);
        let prod = p.instruction(Opcode::Multiply, &[x, y]);
        let rescaled = p.push_instruction(Opcode::Rescale(40), vec![prod], ValueType::Cipher);
        p.output("out", rescaled, 25);
        let scales = analyze_scales(&mut p).unwrap();
        assert_eq!(scales[prod], 55.0);
        assert_eq!(scales[rescaled], 15.0);
        assert_eq!(p.node(rescaled).scale_log2, 15.0);
    }

    #[test]
    fn exact_scales_divide_by_actual_primes() {
        // x^2 rescaled once: the exact scale is 2*30 - log2(q_top), not 60-40.
        let mut p = Program::new("exact", 8);
        let x = p.input_cipher("x", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let rescaled = p.push_instruction(Opcode::Rescale(40), vec![prod], ValueType::Cipher);
        p.output("out", rescaled, 20);
        // Two data primes; the first rescale divides by the *last* one.
        let primes = [1099511590913u64, 1099511680897];
        let exact = analyze_exact_scales(&p, &primes).unwrap();
        assert_eq!(exact[x], 30.0);
        assert_eq!(exact[prod], 60.0);
        assert_eq!(
            exact[rescaled].to_bits(),
            (60.0 - (primes[1] as f64).log2()).to_bits()
        );
        assert!(exact[rescaled] != 20.0, "exact scale is never the nominal");
    }

    #[test]
    fn exact_scales_reject_drifted_add() {
        // x^2 rescaled vs x mod-switched: same level, different division
        // history, so the exact scales genuinely differ -> validation error.
        let mut p = Program::new("drift", 8);
        let x = p.input_cipher("x", 40);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let rescaled = p.push_instruction(Opcode::Rescale(40), vec![prod], ValueType::Cipher);
        let switched = p.push_instruction(Opcode::ModSwitch, vec![x], ValueType::Cipher);
        let sum = p.instruction(Opcode::Add, &[rescaled, switched]);
        p.output("out", sum, 40);
        let primes = [1099511590913u64, 1099511680897];
        let err = analyze_exact_scales(&p, &primes).unwrap_err();
        assert!(err.to_string().contains("exact scales differ"), "{err}");
    }

    #[test]
    fn match_scale_delta_lands_bit_exactly() {
        let qs = [1099511590913u64, 1099511680897, 2199023190017];
        let mut cases = Vec::new();
        for (i, &qa) in qs.iter().enumerate() {
            for &qb in &qs[i + 1..] {
                // The canonical drift pair: divided by qa vs divided by qb.
                cases.push((80.0 - (qa as f64).log2(), 80.0 - (qb as f64).log2()));
                cases.push((117.3 - (qa as f64).log2(), 117.3 - (qb as f64).log2()));
            }
        }
        cases.push((40.0, 40.0));
        for (source, target) in cases {
            let delta = match_scale_delta(source, target)
                .unwrap_or_else(|| panic!("no delta for {source} -> {target}"));
            assert_eq!(
                (source + delta).to_bits(),
                target.to_bits(),
                "source {source}, delta {delta}"
            );
        }
    }

    #[test]
    fn rescale_underflow_is_rejected() {
        let mut p = Program::new("underflow", 8);
        let x = p.input_cipher("x", 30);
        let r = p.push_instruction(Opcode::Rescale(60), vec![x], ValueType::Cipher);
        p.output("out", r, 30);
        assert!(analyze_scales(&mut p).is_err());
    }

    #[test]
    fn chains_merge_modswitch_with_rescale() {
        // x --rescale(60)--> a --+
        //                        +--> add
        // x --modswitch-------> b --+
        let mut p = Program::new("chains", 8);
        let x = p.input_cipher("x", 30);
        let a = p.push_instruction(Opcode::Rescale(60), vec![x], ValueType::Cipher);
        let b = p.push_instruction(Opcode::ModSwitch, vec![x], ValueType::Cipher);
        let add = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", add, 30);
        let chains = analyze_levels(&p).unwrap();
        assert_eq!(chains[add], vec![ChainEntry::Rescale(60)]);
    }

    #[test]
    fn non_conforming_chains_are_detected() {
        // One operand rescaled, the other not: lengths differ.
        let mut p = Program::new("bad_chains", 8);
        let x = p.input_cipher("x", 30);
        let a = p.push_instruction(Opcode::Rescale(60), vec![x], ValueType::Cipher);
        let add = p.instruction(Opcode::Add, &[a, x]);
        p.output("out", add, 30);
        assert!(analyze_levels(&p).is_err());
    }

    #[test]
    fn num_polys_tracks_multiplication_and_relinearization() {
        let mut p = Program::new("polys", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let prod = p.instruction(Opcode::Multiply, &[x, y]);
        let relin = p.push_instruction(Opcode::Relinearize, vec![prod], ValueType::Cipher);
        let plain = p.input_vector("v", 20);
        let mixed = p.instruction(Opcode::Multiply, &[relin, plain]);
        p.output("out", mixed, 30);
        let polys = analyze_num_polys(&p);
        assert_eq!(polys[x], 2);
        assert_eq!(polys[prod], 3);
        assert_eq!(polys[relin], 2);
        assert_eq!(polys[mixed], 2);
    }
}
