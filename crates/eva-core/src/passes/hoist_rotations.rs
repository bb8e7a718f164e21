//! Rotation fan-out grouping for hoisted key-switching.
//!
//! The evaluator's hoisted rotation path (`Evaluator::rotate_hoisted`)
//! RNS-decomposes a ciphertext once and applies every requested Galois key
//! to the shared decomposition. That changes the cost shape of rotations:
//! `k` rotations of one source cost one decomposition plus `k` cheap
//! applies instead of `k` full key switches. In NTT counts at level `ℓ`
//! (`ℓ` data primes plus the special prime):
//!
//! * decompose: `ℓ(ℓ + 1)` NTTs (`ℓ` inverse + `ℓ²` forward — digit `j`'s
//!   own-prime row is a copy of the target's, not a transform);
//! * per-key apply + mod-down: `2(ℓ + 1)` NTTs;
//! * a lone rotation therefore costs `ℓ(ℓ + 1) + 2(ℓ + 1) = ℓ² + 3ℓ + 2`,
//!   the count `eva-ckks`'s evaluator documents and executes.
//!
//! At `ℓ = 3` an 8-way fan-out costs `12 + 8·8 = 76` NTTs hoisted versus
//! `8·20 = 160` sequential — the ≥2× speedup this pass exists to preserve.
//!
//! This module contributes two things to the pipeline:
//!
//! 1. [`group_rotation_fanouts`] — a pure analysis: live, cipher-typed,
//!    non-identity rotations grouped by source node, keeping groups of two
//!    or more. Nothing about the program graph or its wire format changes.
//!    The execution schedule (`analysis::schedule`) records the groups for
//!    both executors, the memory forecast and the cost model; the chaining
//!    gate below prices them at compile time.
//! 2. [`chain_rotations_if_profitable`] — a hoisting-aware gate around
//!    [`chain_rotations`]. Differential chaining
//!    re-parents fan-out members onto each other, which shrinks the
//!    Galois-key set but destroys exactly the same-source structure hoisting
//!    exploits (each chained member pays a full decomposition again). The
//!    gate runs chaining on a scratch clone, compares the hoisted NTT
//!    estimate before and after, and commits the rewrite only when it does
//!    not make the hoisted execution plan more expensive.

use std::collections::BTreeMap;

use crate::program::{NodeId, Program};
use crate::types::Opcode;

use super::chain_rotations;

/// A group of live cipher rotations sharing one source ciphertext, eligible
/// for hoisted key-switching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationFanout {
    /// The shared source node every member rotates.
    pub source: NodeId,
    /// The member rotation nodes with their signed left-rotation steps,
    /// in ascending node order.
    pub members: Vec<(NodeId, i64)>,
}

/// Extracts the signed left-rotation step of a rotation opcode.
fn rotation_step(op: Opcode) -> Option<i64> {
    match op {
        Opcode::RotateLeft(s) => Some(s as i64),
        Opcode::RotateRight(s) => Some(-(s as i64)),
        _ => None,
    }
}

/// Groups live, cipher-typed, non-identity rotations by their source node,
/// returning every group with at least two members in ascending source
/// order (members in ascending node order).
///
/// This is a pure analysis: the program graph itself is never rewritten.
/// Zero-step rotations are clones in the evaluator and perform no key
/// switch, so they never join a group.
pub fn group_rotation_fanouts(program: &Program) -> Vec<RotationFanout> {
    let live = program.live_mask();
    let mut groups: BTreeMap<NodeId, Vec<(NodeId, i64)>> = BTreeMap::new();
    for id in 0..program.len() {
        if !live[id] || !program.node(id).ty.is_cipher() {
            continue;
        }
        let Some(op) = program.opcode(id) else {
            continue;
        };
        let Some(step) = rotation_step(op) else {
            continue;
        };
        if step == 0 {
            continue;
        }
        groups
            .entry(program.args(id)[0])
            .or_default()
            .push((id, step));
    }
    groups
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .map(|(source, members)| RotationFanout { source, members })
        .collect()
}

/// NTTs one shared RNS decomposition performs at level `l`.
pub fn decompose_ntts(l: usize) -> usize {
    l * (l + 1)
}

/// NTTs one per-key apply (lazy accumulate + mod-down) performs at level `l`.
pub fn apply_ntts(l: usize) -> usize {
    2 * (l + 1)
}

/// Estimates the total key-switch NTT count of a program's live rotations
/// under the hoisted execution plan, pricing every rotation at nominal
/// level `level`.
///
/// Fan-out groups cost one decomposition plus one apply per member; lone
/// rotations cost a full decompose-plus-apply. Levels are not yet assigned
/// at the point in the pipeline where this estimate guards rewrites, so a
/// single nominal level is used — the comparison between two variants of
/// the same program is what matters, not the absolute number.
pub fn hoisted_ntt_estimate(program: &Program, level: usize) -> usize {
    let live = program.live_mask();
    let mut total = 0usize;
    let mut grouped = vec![false; program.len()];
    for fanout in group_rotation_fanouts(program) {
        total += decompose_ntts(level) + fanout.members.len() * apply_ntts(level);
        for (id, _) in &fanout.members {
            grouped[*id] = true;
        }
    }
    for id in 0..program.len() {
        if grouped[id] || !live[id] || !program.node(id).ty.is_cipher() {
            continue;
        }
        let Some(op) = program.opcode(id) else {
            continue;
        };
        if matches!(rotation_step(op), Some(step) if step != 0) {
            total += decompose_ntts(level) + apply_ntts(level);
        }
    }
    total
}

/// Nominal level the chaining gate prices rotations at. The relative
/// comparison is level-independent in practice (both cost formulas are
/// monotone in `l`), so the calibration reference level is used.
const GATE_LEVEL: usize = 3;

/// Runs [`chain_rotations`] on a scratch clone and
/// commits the rewrite only if the hoisted NTT estimate does not get worse.
/// Returns the number of rotations re-parented (0 when chaining declined or
/// was rejected by the gate).
///
/// Chaining converts a `k`-member fan-out into up to `⌈k/depth⌉` chain
/// heads plus sequential singletons; under hoisted execution that trades
/// `D + kA` NTTs for at least `D + cA + (k − c)(D + A)`, which is strictly
/// worse whenever any chain has length greater than one. The gate therefore
/// usually declines chaining on fan-out-shaped programs — the Galois-key-set
/// reduction chaining buys is not worth re-paying the decomposition per
/// member.
pub fn chain_rotations_if_profitable(program: &mut Program, max_depth: u32) -> usize {
    let mut trial = program.clone();
    let reparented = chain_rotations(&mut trial, max_depth);
    if reparented == 0 {
        return 0;
    }
    let before = hoisted_ntt_estimate(program, GATE_LEVEL);
    let after = hoisted_ntt_estimate(&trial, GATE_LEVEL);
    if after > before {
        return 0;
    }
    *program = trial;
    reparented
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::rotations::select_rotation_steps;

    /// An 8-way Sobel-shaped rotation fan-out from a single source.
    fn fanout_program(steps: &[i32]) -> (Program, NodeId) {
        let mut p = Program::new("fanout", 256);
        let x = p.input_cipher("x", 30);
        let mut acc = None;
        for &step in steps {
            let r = p.instruction(Opcode::RotateLeft(step), &[x]);
            acc = Some(match acc {
                None => r,
                Some(prev) => p.instruction(Opcode::Add, &[prev, r]),
            });
        }
        p.output("out", acc.unwrap(), 30);
        (p, x)
    }

    #[test]
    fn groups_same_source_rotations() {
        let (p, x) = fanout_program(&[1, 2, 16, 17, 18, 32, 33, 34]);
        let groups = group_rotation_fanouts(&p);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].source, x);
        let steps: Vec<i64> = groups[0].members.iter().map(|&(_, s)| s).collect();
        assert_eq!(steps, vec![1, 2, 16, 17, 18, 32, 33, 34]);
    }

    #[test]
    fn lone_rotations_and_identities_form_no_group() {
        let mut p = Program::new("lone", 16);
        let x = p.input_cipher("x", 30);
        let r = p.instruction(Opcode::RotateLeft(1), &[x]);
        let z = p.instruction(Opcode::RotateLeft(0), &[x]);
        let s = p.instruction(Opcode::Add, &[r, z]);
        p.output("out", s, 30);
        assert!(group_rotation_fanouts(&p).is_empty());
    }

    #[test]
    fn dead_rotations_are_not_grouped() {
        let mut p = Program::new("dead", 16);
        let x = p.input_cipher("x", 30);
        let live = p.instruction(Opcode::RotateLeft(1), &[x]);
        let _dead_a = p.instruction(Opcode::RotateLeft(2), &[x]);
        let _dead_b = p.instruction(Opcode::RotateLeft(3), &[x]);
        p.output("out", live, 30);
        assert!(group_rotation_fanouts(&p).is_empty());
    }

    #[test]
    fn right_rotations_group_with_signed_steps() {
        let mut p = Program::new("signed", 16);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(1), &[x]);
        let b = p.instruction(Opcode::RotateRight(2), &[x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", s, 30);
        let groups = group_rotation_fanouts(&p);
        assert_eq!(groups.len(), 1);
        let steps: Vec<i64> = groups[0].members.iter().map(|&(_, s)| s).collect();
        assert_eq!(steps, vec![1, -2]);
    }

    #[test]
    fn ntt_formulas_match_the_documented_counts() {
        // ℓ = 3: decompose 12, apply 8, lone rotation 20, 8-way fan-out 76.
        assert_eq!(decompose_ntts(3), 12);
        assert_eq!(apply_ntts(3), 8);
        assert_eq!(decompose_ntts(3) + apply_ntts(3), 20);
        assert_eq!(decompose_ntts(3) + 8 * apply_ntts(3), 76);
        // A lone rotation is the evaluator's `ℓ² + 3ℓ + 2` at every level.
        for l in 1..=12 {
            assert_eq!(decompose_ntts(l) + apply_ntts(l), l * l + 3 * l + 2);
        }
    }

    #[test]
    fn estimate_prices_fanouts_below_sequential() {
        let (p, _) = fanout_program(&[1, 2, 16, 17, 18, 32, 33, 34]);
        assert_eq!(hoisted_ntt_estimate(&p, 3), 76);
        let (lone, _) = fanout_program(&[7]);
        assert_eq!(hoisted_ntt_estimate(&lone, 3), 20);
    }

    #[test]
    fn gate_declines_chaining_that_destroys_a_fanout() {
        // The ladder chain_rotations happily collapses ({1,2,16,17,18,32,
        // 33,34} → keys {1,14,18}) costs 76 hoisted NTTs as a fan-out but
        // 148 once chained — the gate must refuse it.
        let (mut p, _) = fanout_program(&[1, 2, 16, 17, 18, 32, 33, 34]);
        let mut chained = p.clone();
        assert!(chain_rotations(&mut chained, 4) > 0, "chaining would fire");
        assert_eq!(hoisted_ntt_estimate(&chained, 3), 148);
        assert_eq!(chain_rotations_if_profitable(&mut p, 4), 0);
        assert_eq!(
            select_rotation_steps(&p),
            vec![1, 2, 16, 17, 18, 32, 33, 34],
            "fan-out left intact for hoisting"
        );
    }

    #[test]
    fn gate_passes_through_refusals() {
        // chain_rotations itself refuses {1, 5} (no step-set shrink); the
        // gate reports 0 without touching the program.
        let mut p = Program::new("refuse", 16);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(1), &[x]);
        let b = p.instruction(Opcode::RotateLeft(5), &[x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", s, 30);
        assert_eq!(chain_rotations_if_profitable(&mut p, 4), 0);
        assert_eq!(select_rotation_steps(&p), vec![1, 5]);
    }
}
