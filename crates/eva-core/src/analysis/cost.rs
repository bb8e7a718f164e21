//! Static cost model: predicts where a compiled program spends its time
//! before a single ciphertext exists.
//!
//! After the lazy-NTT work, key-switching dominates every real circuit
//! (BENCH_primitives.json at `N = 8192`, level 3: relinearize ≈ 4709 µs vs
//! cipher multiply ≈ 323 µs), so the model counts the *key switches* a
//! program performs — relinearizations plus non-identity rotations — along
//! with multiplies, rescales and the NTTs underneath them, each weighted by
//! the ciphertext level it executes at.
//!
//! # Level scaling
//!
//! All costs are calibrated at reference level 3 and scaled by the NTT count
//! of the primitive at the node's actual level `ℓ` (the number of data
//! primes still alive there):
//!
//! * a key switch (relinearize, rotate) performs `2ℓ(ℓ + 1) + 4` NTTs —
//!   28 at `ℓ = 3`, matching the measured `4709 / 168 ≈ 28` ratio of
//!   relinearize to a single forward NTT;
//! * a rescale performs `2(ℓ + 1)` NTTs — 8 at `ℓ = 3`, matching the
//!   measured `1297 / 168 ≈ 7.7`;
//! * dyadic work (multiply, add) is linear in `ℓ`.
//!
//! These formulas are scaling laws fitted to measured ratios, not literal
//! transform counts. `eva-ckks` executes `ℓ² + 3ℓ + 2` NTTs per key switch
//! (`ℓ` inverse and `ℓ²` forward in the decomposition — each digit's
//! own-prime row is copied, not transformed — plus `ℓ + 1` in each of the two
//! mod-downs) and `2ℓ` per rescale (one inverse and `ℓ − 1` forward per
//! polynomial): 20 and 6 at `ℓ = 3` against the model's 28 and 8. The
//! difference is absorbed by the per-NTT weight the reference timings imply;
//! [`CostReport::ntts`] and `predicted_us` report the model's figures.
//!
//! Only **live** cipher nodes are costed: executors skip dead branches, and
//! `compile()` removes them outright.

use std::collections::BTreeMap;

use crate::analysis::scale::remaining_levels;
use crate::compiler::CompiledProgram;
use crate::error::EvaError;
use crate::program::NodeKind;
use crate::types::Opcode;

use super::schedule::Schedule;

/// Latency weights in microseconds at the reference level, calibrated from
/// BENCH_primitives.json (`N = 8192`, level 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Reference level the weights were measured at.
    pub reference_level: usize,
    /// One key switch (relinearize / rotate) at the reference level, µs.
    pub key_switch_us: f64,
    /// One rescale at the reference level, µs.
    pub rescale_us: f64,
    /// One cipher–cipher multiply (dyadic part) at the reference level, µs.
    pub multiply_us: f64,
    /// One cipher–plain multiply or encode-heavy op at the reference level, µs.
    pub multiply_plain_us: f64,
    /// One add/sub/negate at the reference level, µs.
    pub add_us: f64,
    /// One forward NTT of a single polynomial at the reference size, µs.
    pub ntt_us: f64,
    /// One hoisted follower rotation (per-key apply + mod-down against a
    /// fan-out group's shared decomposition) at the reference level, µs.
    pub hoisted_apply_us: f64,
}

impl Default for CostModel {
    /// Weights measured on this repository's own benchmark harness
    /// (`report --primitives`, checked in as BENCH_primitives.json).
    fn default() -> Self {
        Self {
            reference_level: 3,
            key_switch_us: 4709.3,   // ckks_relinearize_n8192_l3
            rescale_us: 1297.3,      // ckks_rescale_n8192_l3
            multiply_us: 322.7,      // ckks_multiply_n8192_l3
            multiply_plain_us: 70.5, // dyadic_mul_n8192_l3
            add_us: 24.4,            // dyadic_add_n8192_l3
            ntt_us: 167.7,           // ntt_forward_n8192
            // (ckks_rotate_hoisted_x8_n8192_l3 − ckks_rotate_n8192_l3) / 7
            hoisted_apply_us: 1650.0,
        }
    }
}

/// Number of NTTs one key switch performs at level `l`.
pub fn key_switch_ntts(l: usize) -> usize {
    2 * l * (l + 1) + 4
}

/// Number of NTTs one rescale performs at level `l`.
pub fn rescale_ntts(l: usize) -> usize {
    2 * (l + 1)
}

/// Effective NTTs one hoisted follower rotation performs at level `l`: the
/// `2(l + 1)` literal NTTs of canonicalize + mod-down, plus ~2 NTTs' worth
/// of fused permute/multiply-accumulate work against the shared digits
/// (matching the measured `hoisted_apply_us / ntt_us ≈ 10` ratio at the
/// reference level).
pub fn hoisted_apply_ntts(l: usize) -> usize {
    2 * (l + 1) + 2
}

/// What the static cost model predicts for one compiled program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostReport {
    /// Total node count of the program (live and dead).
    pub nodes: usize,
    /// Live cipher–cipher multiplies.
    pub multiplies: usize,
    /// Live cipher–plain multiplies.
    pub multiplies_plain: usize,
    /// Live adds/subs/negates touching ciphertext.
    pub adds: usize,
    /// Live non-identity cipher rotations (each is one key switch).
    pub rotations: usize,
    /// Live relinearizations (each is one key switch).
    pub relinearizations: usize,
    /// Live rescales.
    pub rescales: usize,
    /// Live mod-switches (prime drop, no key switch).
    pub mod_switches: usize,
    /// Total key switches: `rotations + relinearizations`.
    pub key_switches: usize,
    /// Number of distinct rotation steps (= Galois keys to generate/ship).
    pub distinct_rotation_steps: usize,
    /// Rotation fan-out groups executed hoisted (shared decomposition).
    pub hoisted_groups: usize,
    /// Rotations priced as hoisted followers (group members beyond the
    /// first, which pay only the per-key apply).
    pub hoisted_rotations: usize,
    /// Total NTT count across all key switches and rescales.
    pub ntts: usize,
    /// Key switches per ciphertext level (level → count).
    pub key_switches_per_level: BTreeMap<usize, usize>,
    /// Predicted serial execution latency in microseconds.
    pub predicted_us: f64,
}

/// Runs the static cost model over a compiled program.
///
/// # Errors
///
/// Returns [`EvaError`] if the program graph is cyclic or its level analysis
/// fails (both impossible for programs produced by `compile()`, which
/// verifies them first).
pub fn estimate_cost(
    compiled: &CompiledProgram,
    model: &CostModel,
) -> Result<CostReport, EvaError> {
    let program = &compiled.program;
    let schedule = Schedule::new(program)?;
    let levels = remaining_levels(program, compiled.parameters.data_primes.len())?;

    let ref_ks_ntts = key_switch_ntts(model.reference_level) as f64;
    let ref_rs_ntts = rescale_ntts(model.reference_level) as f64;
    let ref_ha_ntts = hoisted_apply_ntts(model.reference_level) as f64;
    let ref_level = model.reference_level as f64;

    let mut report = CostReport {
        nodes: program.len(),
        distinct_rotation_steps: compiled.rotation_steps.len(),
        hoisted_groups: schedule.fanouts.len(),
        ..CostReport::default()
    };

    for id in schedule.steps.iter().map(|step| step.node) {
        let node = program.node(id);
        if !node.ty.is_cipher() {
            continue;
        }
        let NodeKind::Instruction { op, args } = &node.kind else {
            continue;
        };
        // The level the instruction's *inputs* are at (what key-switch and
        // dyadic work operate on): maintenance ops record their own chain,
        // so use the argument's level where one exists.
        let level = program
            .cipher_args(id)
            .map(|a| levels[a])
            .max()
            .unwrap_or(levels[id]);
        let scale = |ref_us: f64, weight: f64| ref_us * weight;
        match op {
            Opcode::Multiply => {
                let both_cipher = args.iter().all(|&a| program.node(a).ty.is_cipher());
                if both_cipher {
                    report.multiplies += 1;
                    report.predicted_us += scale(model.multiply_us, level as f64 / ref_level);
                } else {
                    report.multiplies_plain += 1;
                    report.predicted_us += scale(model.multiply_plain_us, level as f64 / ref_level);
                }
            }
            Opcode::Add | Opcode::Sub | Opcode::Negate => {
                report.adds += 1;
                report.predicted_us += scale(model.add_us, level as f64 / ref_level);
            }
            Opcode::RotateLeft(s) | Opcode::RotateRight(s) if *s != 0 => {
                report.rotations += 1;
                *report.key_switches_per_level.entry(level).or_insert(0) += 1;
                // The executors run rotation fan-outs hoisted: the group's
                // first member pays a full key switch (it funds the shared
                // decomposition), every other member only the per-key apply.
                if schedule.is_fanout_follower(id) {
                    report.hoisted_rotations += 1;
                    let ntts = hoisted_apply_ntts(level);
                    report.ntts += ntts;
                    report.predicted_us += scale(model.hoisted_apply_us, ntts as f64 / ref_ha_ntts);
                } else {
                    let ntts = key_switch_ntts(level);
                    report.ntts += ntts;
                    report.predicted_us += scale(model.key_switch_us, ntts as f64 / ref_ks_ntts);
                }
            }
            // Identity rotations are cloned by the evaluator: no key switch.
            Opcode::RotateLeft(_) | Opcode::RotateRight(_) => {}
            Opcode::Relinearize => {
                report.relinearizations += 1;
                let ntts = key_switch_ntts(level);
                report.ntts += ntts;
                *report.key_switches_per_level.entry(level).or_insert(0) += 1;
                report.predicted_us += scale(model.key_switch_us, ntts as f64 / ref_ks_ntts);
            }
            Opcode::Rescale(_) => {
                report.rescales += 1;
                let ntts = rescale_ntts(level);
                report.ntts += ntts;
                report.predicted_us += scale(model.rescale_us, ntts as f64 / ref_rs_ntts);
            }
            Opcode::ModSwitch => {
                // Dropping the top prime copies the surviving residues;
                // negligible next to any key switch, costed as one add.
                report.mod_switches += 1;
                report.predicted_us += scale(model.add_us, level as f64 / ref_level);
            }
        }
    }
    report.key_switches = report.rotations + report.relinearizations;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerOptions};
    use crate::program::Program;
    use crate::types::{Opcode, ValueType};

    fn rotated_product() -> CompiledProgram {
        let mut p = Program::new("rotprod", 16);
        let x = p.input_cipher("x", 30);
        let r = p.instruction(Opcode::RotateLeft(1), &[x]);
        let m = p.instruction(Opcode::Multiply, &[x, r]);
        p.output("out", m, 30);
        compile(&p, &CompilerOptions::default()).unwrap()
    }

    #[test]
    fn counts_key_switches_and_rotations() {
        let compiled = rotated_product();
        let report = estimate_cost(&compiled, &CostModel::default()).unwrap();
        assert_eq!(report.rotations, 1);
        assert_eq!(report.relinearizations, 1, "multiply gets relinearized");
        assert_eq!(report.key_switches, 2);
        assert_eq!(report.multiplies, 1);
        assert_eq!(report.distinct_rotation_steps, 1);
        assert!(report.predicted_us > 0.0);
        assert_eq!(
            report.key_switches_per_level.values().sum::<usize>(),
            report.key_switches
        );
    }

    #[test]
    fn dead_nodes_cost_nothing() {
        let compiled = rotated_product();
        let before = estimate_cost(&compiled, &CostModel::default()).unwrap();
        let mut with_dead = compiled.clone();
        let p = &mut with_dead.program;
        let x = (0..p.len())
            .find(|&id| matches!(p.node(id).kind, NodeKind::Input { .. }))
            .unwrap();
        let d = p.push_instruction(Opcode::RotateLeft(2), vec![x], ValueType::Cipher);
        p.push_instruction(Opcode::Multiply, vec![d, d], ValueType::Cipher);
        let after = estimate_cost(&with_dead, &CostModel::default()).unwrap();
        assert_eq!(after.nodes, before.nodes + 2);
        assert_eq!(after.rotations, before.rotations);
        assert_eq!(after.key_switches, before.key_switches);
        assert_eq!(after.ntts, before.ntts);
        assert_eq!(after.predicted_us.to_bits(), before.predicted_us.to_bits());
    }

    #[test]
    fn ntt_formulas_match_calibration_ratios() {
        // At the reference level the formulas must reproduce the measured
        // primitive ratios within ~5%: relinearize/NTT ≈ 28, rescale/NTT ≈ 8,
        // hoisted follower apply/NTT ≈ 10.
        let m = CostModel::default();
        assert_eq!(key_switch_ntts(3), 28);
        assert_eq!(rescale_ntts(3), 8);
        assert_eq!(hoisted_apply_ntts(3), 10);
        let measured_ks = m.key_switch_us / m.ntt_us;
        assert!((measured_ks - 28.0).abs() / 28.0 < 0.05, "{measured_ks}");
        let measured_rs = m.rescale_us / m.ntt_us;
        assert!((measured_rs - 8.0).abs() / 8.0 < 0.05, "{measured_rs}");
        let measured_ha = m.hoisted_apply_us / m.ntt_us;
        assert!((measured_ha - 10.0).abs() / 10.0 < 0.05, "{measured_ha}");
    }

    #[test]
    fn fanout_followers_are_priced_as_hoisted_applies() {
        // An 8-way rotation fan-out: the first member funds the shared
        // decomposition (full key switch), the other seven pay only the
        // per-key apply — so the predicted rotation time must come in well
        // under eight sequential key switches.
        let mut p = Program::new("fanout", 256);
        let x = p.input_cipher("x", 30);
        let mut acc = None;
        for step in [1, 2, 16, 17, 18, 32, 33, 34] {
            let r = p.instruction(Opcode::RotateLeft(step), &[x]);
            acc = Some(match acc {
                None => r,
                Some(prev) => p.instruction(Opcode::Add, &[prev, r]),
            });
        }
        p.output("out", acc.unwrap(), 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        let m = CostModel::default();
        let report = estimate_cost(&compiled, &m).unwrap();
        assert_eq!(report.rotations, 8);
        assert_eq!(report.hoisted_groups, 1);
        assert_eq!(report.hoisted_rotations, 7);
        // Rotation cost alone: 1 full switch + 7 applies vs 8 full switches.
        let hoisted = m.key_switch_us + 7.0 * m.hoisted_apply_us;
        let sequential = 8.0 * m.key_switch_us;
        assert!(sequential / hoisted >= 2.0, "{}", sequential / hoisted);
        assert!(report.predicted_us < sequential);
    }
}
