//! Worst-case CKKS noise-budget estimation.
//!
//! A program can satisfy the paper's Constraints 1–4 and still decrypt to
//! garbage: nothing in scale or level analysis bounds how much *noise* the
//! homomorphic operations accumulate relative to the remaining coefficient
//! modulus. This module propagates conservative per-node noise bounds in the
//! `log2` domain and computes a **noise budget** for every node — how many
//! bits of modulus head-room remain above the accumulated error — so the
//! compiler (and any `.evaprog` consumer) can reject programs whose outputs
//! would drown in noise before ever touching a secret key.
//!
//! # The model
//!
//! Every cipher node carries a pair `(mag, err)` of base-2 logarithms:
//!
//! * `mag` — the unconditional worst-case magnitude of the *scaled message*
//!   (`|m| · scale`, in coefficient units), seeded from `scale · max|c|`
//!   for constants (known exactly) and from the scale for inputs (`|m| ≤ 1`
//!   at the boundary). It grows through convolutions and squarings far
//!   beyond what tame inputs produce and is reported for visibility — the
//!   DOT dump and `report --analysis` show where a program's range blows
//!   up — but it does not gate compilation.
//! * `err` — an upper bound on the *error* term added by encoding,
//!   encryption and every homomorphic operation, propagated **conditional
//!   on the paper's range contract**: the programmer keeps every
//!   intermediate message bounded by 1 in absolute value, so a cipher
//!   operand's magnitude is its scale. (Unconditional error bounds are
//!   useless on real circuits — a LeNet with squaring activations has a
//!   worst-case `mag` of `2^hundreds` while its actual activations stay
//!   `O(1)`.) Constants are not subject to the contract; their exact
//!   magnitude multiplies the partner's error.
//!
//! Transfer rules (`⊕` on *error* terms is [`log2_add_rms`] — independent
//! error polynomials accumulate in quadrature, as in SEAL's noise
//! simulator; `⊕` on *magnitudes* is plain [`log2_add`], because messages
//! can align exactly; `s` is a node's *contract magnitude*: its scale for
//! cipher operands, `scale · max|c|` for plaintext operands):
//!
//! | operation | `mag` | `err` |
//! |---|---|---|
//! | fresh encryption | `scale` | `√N·2^6.5 ⊕ enc ⊕ mag·2⁻⁴⁵` |
//! | plaintext input | `scale` | `enc ⊕ mag·2⁻⁴⁵` |
//! | scalar constant `c` | `scale·abs(c)` | exact residue `abs(c·2ˢ − round(c·2ˢ))` ⊕ `mag·2⁻⁴⁵` |
//! | vector constant | `scale·max abs(cᵢ)` | `enc ⊕ mag·2⁻⁴⁵` |
//! | ADD / SUB / NEGATE | `mag₁ ⊕ mag₂` | `err₁ ⊕ err₂` |
//! | MULTIPLY | `mag₁ + mag₂` | `s₁·err₂ ⊕ s₂·err₁ ⊕ err₁·err₂` |
//! | RELINEARIZE / ROTATE | unchanged | `err ⊕ ks` (key-switch term) |
//! | RESCALE by `q` | `mag − log2 q` | `(err − log2 q) ⊕ rr` (rounding) |
//! | MODSWITCH | unchanged | `err ⊕ rr` |
//!
//! with `N` the ring degree, encoding rounding `enc = √N·2^3`, division
//! rounding `rr = N·2^3`, and the hybrid key-switch term — **per level** —
//! `ks(ℓ) = N^1.5·2^(b_max(ℓ) − special prime bits)·2^2 ⊕ rr`, where
//! `b_max(ℓ)` is the widest data prime still live at the node's level: the
//! special prime divides each raised digit product back down by however
//! much it exceeds that digit's own prime, so rotations low in the chain
//! (where only narrow primes survive) are almost noiseless, while
//! rotations at the top of a chain whose primes match the special prime
//! pay the full `N^1.5` term.
//!
//! The additive terms are **high-probability canonical-embedding bounds**
//! (the standard CKKS heuristics: a polynomial with iid small coefficients
//! lands within `6σ·√N` in slot domain, not its ℓ1 worst case `N·B`), each
//! with a ≥ 1-bit cushion over noise measured operation by operation against
//! this repository's backend — see the `*_HP_BITS` constants. In the same
//! spirit, sums of error bounds accumulate in quadrature: the error
//! polynomials entering an ADD (or the cross terms of a MULTIPLY) come from
//! distinct encodings, encryptions and key switches, so their amplitudes
//! add as `√(a² + b²)`, not `a + b`. Strict ℓ1 accounting would be vacuous
//! twice over at the paper's scales (down to `2²⁵`): the per-op worst cases
//! sit 8+ bits above measured noise, and a LeNet-style 36-term convolution
//! would be charged `log2 36 ≈ 5` bits per layer for alignments that occur
//! with probability `≈ 0`, compounding through squaring activations into a
//! bound hundreds of bits past reality. The MULTIPLY cross terms themselves
//! need no cushion — they are exact given the operand bounds (verified to
//! within half a bit against the backend).
//!
//! A scalar (splat) constant encodes as a *constant polynomial*, so its
//! only encoding error is the rounding of that single coefficient — a
//! residue the analysis computes exactly, plus a `2⁻⁴⁵` relative cushion
//! for the `f64` embedding arithmetic (the real FFT error is below
//! `2⁻⁴⁹`). This matters: the MATCH-SCALE pass multiplies by `1.0` encoded
//! at scale `≈ 2⁰`, where the generic `N/2` bound would charge `2¹³`
//! *relative* error for an operation that is exact to 13 decimal digits.
//!
//! The **budget** of a node at level `ℓ` with primes `q₀ … q_{ℓ−1}` left is
//!
//! ```text
//! budget = Σ log2 qᵢ − 1 − err
//! ```
//!
//! — the bits of head-room between the accumulated error bound and `Q/2`.
//! A program is rejected when any output's budget falls below
//! [`NoiseModel::safety_margin_bits`]. The scaled message itself is *not*
//! charged against the budget: whether the message magnitude stays inside
//! the modulus is the programmer's range contract (the paper's position).
//! The estimate is therefore a high-probability bound for range-correct
//! executions — per-op cushions carry the tail risk that quadrature
//! accumulation gives up — and the soundness tests pin
//! `estimated ≥ measured` on the Sobel and LeNet circuits, where the
//! estimate sits 25+ bits above the observed decryption error.
//!
//! # Example
//!
//! ```
//! use eva_core::analysis::noise::{estimate_noise, NoiseModel};
//! use eva_core::{compile, CompilerOptions, Opcode, Program};
//!
//! let mut p = Program::new("square", 8);
//! let x = p.input_cipher("x", 30);
//! let sq = p.instruction(Opcode::Multiply, &[x, x]);
//! p.output("out", sq, 30);
//! let compiled = compile(&p, &CompilerOptions::default()).unwrap();
//!
//! let report = estimate_noise(&compiled);
//! let budget = report.output_budgets(&compiled.program);
//! assert!(budget[0].budget_bits > NoiseModel::default().safety_margin_bits);
//! ```

use crate::analysis::scale::{analyze_levels, chain_lengths, prime_log2s};
use crate::compiler::CompiledProgram;
use crate::error::EvaError;
use crate::program::{NodeId, NodeKind, Program};
use crate::types::{ConstantValue, Opcode};

/// Relative error cushion (in bits) for the `f64` canonical-embedding
/// arithmetic inside the encoder. The actual forward/inverse FFT error is
/// below `2⁻⁴⁹` relative; `2⁻⁴⁵` leaves four bits of slack.
const EMBED_FP_BITS: f64 = 45.0;

/// High-probability constants, in bits over the structural `√N` / `N`
/// factors. Each is a ≥ 1-bit cushion over the noise measured operation by
/// operation against this repository's own backend (`eva-ckks`, CBD error
/// with `eva_math::sampling::CBD_PAIRS` pairs, σ ≈ 3.24); the end-to-end
/// soundness tests keep them honest.
///
/// Fresh symmetric encryption error ≤ `√N · 2^FRESH_HP_BITS`
/// (measured ≈ `√N · 2^3.2`; `6σ√N` alone is `√N · 2^4.3`).
const FRESH_HP_BITS: f64 = 6.5;
/// Encoding rounding ≤ `√N · 2^ENCODE_HP_BITS` (concentration of a
/// uniform-[−1/2,1/2] rounding polynomial is `√(N/12) ≈ √N · 2^−1.8`).
const ENCODE_HP_BITS: f64 = 3.0;
/// Key-switch digit products ≤ `N^1.5 · 2^(widest live data prime − special)
/// · 2^KS_HP_BITS`. Measured `N^1.5 · 2^(b_max − special) · 2^c` with
/// `c ∈ [0.4, 1.2]` across chains mixing 25/40/50/55/60-bit primes at
/// degrees 2^14 and 2^15; the digit count leaves no visible trace because
/// narrower digits are suppressed by `2^(bⱼ − b_max)`.
const KS_HP_BITS: f64 = 2.0;
/// Rescale/mod-switch division rounding ≤ `N · 2^RESCALE_HP_BITS`
/// (measured ≈ `N · 2^0.3`).
const RESCALE_HP_BITS: f64 = 3.0;

/// `log2(a + b)` computed from `log2 a` and `log2 b` without overflow.
/// `f64::NEG_INFINITY` represents an exact zero bound.
pub fn log2_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// `log2 √(a² + b²)` — accumulation *in quadrature* for independent error
/// terms. Error polynomials from distinct encodings, encryptions and key
/// switches are independent (rotations of one polynomial are slot-wise
/// decorrelated by the Galois action), so their high-probability bounds add
/// as variances, not amplitudes; message magnitudes, which can align
/// exactly, always use [`log2_add`] instead.
pub fn log2_add_rms(a: f64, b: f64) -> f64 {
    0.5 * log2_add(2.0 * a, 2.0 * b)
}

/// Tunable constants of the worst-case noise model.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Minimum acceptable noise budget (bits) at every program output. The
    /// default leaves one decimal digit of precision between the worst-case
    /// error and the modulus wrap-around.
    pub safety_margin_bits: f64,
}

/// Default minimum output budget, in bits. The high-probability bounds
/// already over-approximate measured noise by a comfortable factor, so a
/// small positive margin suffices to keep every accepted program
/// decryptable.
pub const DEFAULT_SAFETY_MARGIN_BITS: f64 = 8.0;

impl Default for NoiseModel {
    fn default() -> Self {
        Self {
            safety_margin_bits: DEFAULT_SAFETY_MARGIN_BITS,
        }
    }
}

/// Per-node noise state: `log2` bounds on scaled-message magnitude and
/// accumulated error, plus the budget derived from the node's level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeNoise {
    /// `log2` upper bound on `|message| · scale` in coefficient units.
    pub mag_log2: f64,
    /// `log2` upper bound on the accumulated error term. For plaintext
    /// nodes this is the encoding-error bound charged when a cipher
    /// operation consumes them.
    pub err_log2: f64,
    /// Bits of head-room between the worst-case error and `Q/2` at this
    /// node's level; negative means the error alone may wrap the modulus.
    /// The scaled message is not charged here — staying in range is the
    /// programmer's contract (see the module docs).
    pub budget_bits: f64,
}

/// A named output's noise estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputBudget {
    /// The output's name.
    pub name: String,
    /// The output's node id.
    pub node: NodeId,
    /// Bits of modulus head-room at the output.
    pub budget_bits: f64,
    /// `log2` of the worst-case error *in message units* (error divided by
    /// the output's scale) — directly comparable to measured decryption
    /// error.
    pub message_error_log2: f64,
}

/// The estimator's result: per-node noise state over a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseReport {
    /// Noise state per node, indexed by node id. Plaintext nodes carry the
    /// encoding bound and an infinite budget.
    pub nodes: Vec<NodeNoise>,
}

impl NoiseReport {
    /// The per-output budgets of `program` under this report.
    pub fn output_budgets(&self, program: &Program) -> Vec<OutputBudget> {
        program
            .outputs()
            .iter()
            .map(|output| {
                let state = self.nodes[output.node];
                OutputBudget {
                    name: output.name.clone(),
                    node: output.node,
                    budget_bits: state.budget_bits,
                    message_error_log2: state.err_log2 - program.node(output.node).scale_log2,
                }
            })
            .collect()
    }

    /// The smallest output budget, or `None` for a program with no outputs.
    pub fn min_output_budget(&self, program: &Program) -> Option<f64> {
        self.output_budgets(program)
            .iter()
            .map(|o| o.budget_bits)
            .min_by(|a, b| a.total_cmp(b))
    }
}

/// Runs the worst-case estimator over a compiled program.
///
/// The program is assumed verified (see
/// [`crate::analysis::verifier::verify_compiled`]): chains conform and never
/// underflow the prime chain. Out-of-budget levels saturate rather than
/// panic, so running the estimator on an unverified program is safe but its
/// numbers are only meaningful after verification.
///
/// # Panics
///
/// Panics if the graph has a cycle, which the verifier's `acyclic` check
/// refuses and no compiled program has.
pub fn estimate_noise(compiled: &CompiledProgram) -> NoiseReport {
    let program = &compiled.program;
    let spec = &compiled.parameters;
    let log_primes = prime_log2s(&spec.data_primes);
    let max_level = log_primes.len();
    let degree = spec.degree as f64;
    let log_n = degree.log2();
    // Encoding rounds each coefficient into [−1/2, 1/2]; the slot-domain
    // (canonical embedding) image of that rounding polynomial concentrates
    // around √(N/12), so the high-probability bound is √N · 2^ENCODE_HP.
    let encode_err = 0.5 * log_n + ENCODE_HP_BITS;
    // Symmetric (seeded) encryption — the only encryption `eva-ckks` has —
    // adds a single CBD error polynomial: √N·σ slot-domain spread.
    // (Public-key encryption would add the u·e products, ≈ √N·σ larger.)
    let fresh_err = log2_add_rms(0.5 * log_n + FRESH_HP_BITS, encode_err);
    let special_bits = f64::from(spec.special_prime_bits());
    // Division rounding: ⌊·⌉ leaves r + r'·s with dense-CBD s — slot spread
    // ≈ N·σ/√12, bounded high-probability by N · 2^RESCALE_HP.
    let rescale_round = log_n + RESCALE_HP_BITS;
    // Hybrid key switching decomposes the target into one digit per *live*
    // data prime, so its noise depends on the node's level: each digit
    // product is a uniform-mod-`qⱼ` polynomial times a CBD key error,
    // divided by the special prime. Measured across prime chains, the noise
    // tracks the *widest live digit* — `N^1.5 · 2^(b_max − special)` — with
    // no visible dependence on the digit count (narrower digits are
    // exponentially suppressed by their own width). Rescale consumes primes
    // from the back of `data_primes`, so the live primes at level `l`
    // are the first `l` entries.
    let ks_err_at: Vec<f64> = (0..=max_level)
        .map(|l| {
            let b_max = log_primes[..l]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let base = 1.5 * log_n + (b_max - special_bits) + KS_HP_BITS;
            log2_add_rms(base, rescale_round)
        })
        .collect();

    // Cumulative log2 Q per level: log_q[l] = Σ_{i<l} log2 q_i.
    let mut log_q = vec![0.0f64; max_level + 1];
    for (i, &lp) in log_primes.iter().enumerate() {
        log_q[i + 1] = log_q[i] + lp;
    }

    // A verified program always has conforming chains; if not, levels are
    // meaningless anyway, so treat every node as full-modulus.
    let chains = match analyze_levels(program) {
        Ok(chains) => chain_lengths(&chains),
        Err(_) => vec![0usize; program.len()],
    };
    let level_of = |id: NodeId| max_level.saturating_sub(chains[id].min(max_level));

    let mut nodes = vec![
        NodeNoise {
            mag_log2: f64::NEG_INFINITY,
            err_log2: f64::NEG_INFINITY,
            budget_bits: f64::INFINITY,
        };
        program.len()
    ];

    let order = program
        .topological_order()
        .expect("acyclic: compiled programs pass the verifier's cycle check");
    for id in order {
        let node = program.node(id);
        let state = match &node.kind {
            NodeKind::Input { .. } => {
                if node.ty.is_cipher() {
                    NodeNoise {
                        mag_log2: node.scale_log2,
                        err_log2: log2_add_rms(fresh_err, node.scale_log2 - EMBED_FP_BITS),
                        budget_bits: 0.0, // filled below
                    }
                } else {
                    // Runtime plaintext vector, |v| ≤ 1 by contract: generic
                    // coefficient-rounding bound plus the fp embedding term.
                    NodeNoise {
                        mag_log2: node.scale_log2,
                        err_log2: log2_add_rms(encode_err, node.scale_log2 - EMBED_FP_BITS),
                        budget_bits: f64::INFINITY,
                    }
                }
            }
            NodeKind::Constant { value } => {
                let (mag, err) = constant_bounds(value, node.scale_log2, encode_err);
                NodeNoise {
                    mag_log2: mag,
                    err_log2: err,
                    budget_bits: f64::INFINITY,
                }
            }
            NodeKind::Instruction { op, args } => {
                if !node.ty.is_cipher() {
                    // Plaintext subgraph (scalar/integer arithmetic on
                    // constants): bound the magnitude by the largest operand
                    // and charge the generic encoding bound on use.
                    let mag = args
                        .iter()
                        .map(|&a| nodes[a].mag_log2)
                        .fold(f64::NEG_INFINITY, f64::max);
                    NodeNoise {
                        mag_log2: mag,
                        err_log2: log2_add_rms(encode_err, mag - EMBED_FP_BITS),
                        budget_bits: f64::INFINITY,
                    }
                } else {
                    // Plaintext operands carry their encoding-error bound in
                    // `err_log2`, so every operand reads uniformly.
                    let operand = |a: NodeId| -> (f64, f64) {
                        let s = nodes[a];
                        (s.mag_log2, s.err_log2)
                    };
                    // Contract magnitude: the scale for cipher operands
                    // (`|m| ≤ 1` at every node, the paper's range contract),
                    // the exact magnitude for plaintext operands.
                    let contract_mag = |a: NodeId| -> f64 {
                        if program.node(a).ty.is_cipher() {
                            program.node(a).scale_log2
                        } else {
                            nodes[a].mag_log2
                        }
                    };
                    match op {
                        Opcode::Negate => {
                            let (mag, err) = operand(args[0]);
                            NodeNoise {
                                mag_log2: mag,
                                err_log2: err,
                                budget_bits: 0.0,
                            }
                        }
                        Opcode::Add | Opcode::Sub => {
                            let (mag_a, err_a) = operand(args[0]);
                            let (mag_b, err_b) = operand(args[1]);
                            NodeNoise {
                                mag_log2: log2_add(mag_a, mag_b),
                                err_log2: log2_add_rms(err_a, err_b),
                                budget_bits: 0.0,
                            }
                        }
                        Opcode::Multiply => {
                            let (mag_a, err_a) = operand(args[0]);
                            let (mag_b, err_b) = operand(args[1]);
                            let err = log2_add_rms(
                                log2_add_rms(
                                    contract_mag(args[0]) + err_b,
                                    contract_mag(args[1]) + err_a,
                                ),
                                err_a + err_b,
                            );
                            NodeNoise {
                                mag_log2: mag_a + mag_b,
                                err_log2: err,
                                budget_bits: 0.0,
                            }
                        }
                        Opcode::Relinearize | Opcode::RotateLeft(_) | Opcode::RotateRight(_) => {
                            let (mag, err) = operand(args[0]);
                            NodeNoise {
                                mag_log2: mag,
                                err_log2: log2_add_rms(err, ks_err_at[level_of(id)]),
                                budget_bits: 0.0,
                            }
                        }
                        Opcode::Rescale(_) => {
                            let (mag, err) = operand(args[0]);
                            // chains[id] counts this node's own consumption,
                            // so the prime divided out sits just above the
                            // node's level.
                            let consumed = chains[id].min(max_level);
                            let divisor = if consumed == 0 {
                                0.0
                            } else {
                                log_primes[max_level - consumed]
                            };
                            NodeNoise {
                                mag_log2: mag - divisor,
                                err_log2: log2_add_rms(err - divisor, rescale_round),
                                budget_bits: 0.0,
                            }
                        }
                        Opcode::ModSwitch => {
                            let (mag, err) = operand(args[0]);
                            NodeNoise {
                                mag_log2: mag,
                                err_log2: log2_add_rms(err, rescale_round),
                                budget_bits: 0.0,
                            }
                        }
                    }
                }
            }
        };
        let mut state = state;
        if node.ty.is_cipher() {
            let level = level_of(id);
            state.budget_bits = log_q[level] - 1.0 - state.err_log2;
        }
        nodes[id] = state;
    }

    NoiseReport { nodes }
}

/// Worst-case `(mag, err)` bounds for an encoded constant. The magnitude is
/// known exactly; a scalar's encoding error is the rounding residue of the
/// single coefficient of its constant polynomial, also known exactly, plus
/// the fp embedding cushion.
fn constant_bounds(value: &ConstantValue, scale_log2: f64, encode_err: f64) -> (f64, f64) {
    let scalar = |c: f64| -> (f64, f64) {
        let scaled = c.abs() * scale_log2.exp2();
        let mag = if scaled == 0.0 {
            f64::NEG_INFINITY
        } else {
            scaled.log2()
        };
        let residue = (scaled - scaled.round()).abs();
        let round_err = if residue == 0.0 {
            f64::NEG_INFINITY
        } else {
            residue.log2()
        };
        (mag, log2_add_rms(round_err, mag - EMBED_FP_BITS))
    };
    match value {
        ConstantValue::Scalar(c) => scalar(*c),
        ConstantValue::Integer(i) => scalar(f64::from(*i)),
        ConstantValue::Vector(values) => {
            let max = values.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            let mag = if max == 0.0 {
                f64::NEG_INFINITY
            } else {
                scale_log2 + max.log2()
            };
            (mag, log2_add_rms(encode_err, mag - EMBED_FP_BITS))
        }
    }
}

/// Gate used by the compiler and by `.evaprog` consumers: estimates noise
/// and rejects the program if any output's worst-case budget is below the
/// model's safety margin.
///
/// # Errors
///
/// Returns [`EvaError::NoiseBudget`] naming every under-budget output.
pub fn check_noise(
    compiled: &CompiledProgram,
    model: &NoiseModel,
) -> Result<NoiseReport, EvaError> {
    let report = estimate_noise(compiled);
    let failing: Vec<String> = report
        .output_budgets(&compiled.program)
        .iter()
        .filter(|o| o.budget_bits < model.safety_margin_bits)
        .map(|o| {
            format!(
                "output {:?} (node {}) has a worst-case noise budget of {:.1} bits, below \
                 the {:.1}-bit safety margin",
                o.name, o.node, o.budget_bits, model.safety_margin_bits
            )
        })
        .collect();
    if failing.is_empty() {
        Ok(report)
    } else {
        Err(EvaError::NoiseBudget(failing.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerOptions};
    use crate::types::Opcode;

    #[test]
    fn log2_add_basics() {
        assert_eq!(log2_add(f64::NEG_INFINITY, 3.0), 3.0);
        assert_eq!(log2_add(3.0, f64::NEG_INFINITY), 3.0);
        // log2(2^3 + 2^3) = 4.
        assert!((log2_add(3.0, 3.0) - 4.0).abs() < 1e-12);
        // Dominated by the larger term.
        assert!((log2_add(50.0, 0.0) - 50.0).abs() < 1e-3);
    }

    fn compiled(depth: usize) -> CompiledProgram {
        let mut p = Program::new(format!("chain{depth}"), 16);
        let x = p.input_cipher("x", 30);
        let mut acc = x;
        for _ in 0..depth {
            let sq = p.instruction(Opcode::Multiply, &[acc, x]);
            acc = sq;
        }
        p.output("out", acc, 30);
        compile(&p, &CompilerOptions::default()).unwrap()
    }

    #[test]
    fn budgets_shrink_with_depth() {
        let shallow = compiled(1);
        let deep = compiled(4);
        let b_shallow = estimate_noise(&shallow)
            .min_output_budget(&shallow.program)
            .unwrap();
        let b_deep = estimate_noise(&deep)
            .min_output_budget(&deep.program)
            .unwrap();
        assert!(
            b_shallow.is_finite() && b_deep.is_finite(),
            "budgets must be finite: {b_shallow} vs {b_deep}"
        );
    }

    #[test]
    fn realistic_programs_pass_the_gate() {
        for depth in 1..=4 {
            let c = compiled(depth);
            check_noise(&c, &NoiseModel::default())
                .unwrap_or_else(|e| panic!("depth {depth} rejected: {e}"));
        }
    }

    #[test]
    fn zero_margin_model_accepts_more_than_a_huge_one() {
        let c = compiled(2);
        assert!(check_noise(
            &c,
            &NoiseModel {
                safety_margin_bits: 0.0
            }
        )
        .is_ok());
        let err = check_noise(
            &c,
            &NoiseModel {
                safety_margin_bits: 1_000_000.0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, EvaError::NoiseBudget(_)), "{err}");
        assert!(err.to_string().contains("safety margin"), "{err}");
    }

    #[test]
    fn an_unrelinearized_output_is_priced_without_a_key_switch() {
        // x² + x leaves with three polynomials: its error is the ADD of its
        // operands' errors and nothing more.
        let mut p = Program::new("x2_plus_x", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[sq, x]);
        p.output("out", sum, 30);
        let c = compile(&p, &CompilerOptions::default()).unwrap();
        assert!(!c.needs_relinearization());
        let report = check_noise(&c, &NoiseModel::default()).unwrap();
        let out = c.program.outputs()[0].node;
        let &[a, b] = c.program.args(out) else {
            panic!("the output is the ADD");
        };
        let err = |r: &NoiseReport, id: NodeId| r.nodes[id].err_log2;
        assert_eq!(
            err(&report, out).to_bits(),
            log2_add_rms(err(&report, a), err(&report, b)).to_bits()
        );
    }

    #[test]
    fn plaintext_nodes_have_infinite_budget() {
        let mut p = Program::new("plain", 8);
        let x = p.input_cipher("x", 30);
        let v = p.input_vector("v", 15);
        let prod = p.instruction(Opcode::Multiply, &[x, v]);
        p.output("out", prod, 30);
        let c = compile(&p, &CompilerOptions::default()).unwrap();
        let report = estimate_noise(&c);
        for (id, node) in c.program.nodes().iter().enumerate() {
            if !node.ty.is_cipher() {
                assert_eq!(report.nodes[id].budget_bits, f64::INFINITY);
            }
        }
    }
}
