//! Global common-subexpression elimination (hash-consing), driven by a
//! value-numbering analysis over the program's topological order.
//!
//! Two nodes in the same value-numbering class compute bit-identical values
//! on every execution (FHE evaluation is deterministic given its operands),
//! so every class is merged onto its topologically-first representative:
//! all uses and output references of the other members are redirected to it.
//! The duplicates become dead and are swept by
//! [`super::dce::eliminate_dead_code`].
//!
//! Because the representative precedes every duplicate in topological order
//! and graph edges only point backward along that order, redirection can
//! never create a cycle. The pass is **bit-preserving**: it changes neither
//! the rotation-step set nor the evaluator's RNG draw order, so optimized
//! and unoptimized programs decrypt to bit-identical outputs under the same
//! seed.

use std::collections::HashMap;

use crate::program::{NodeId, NodeKind, Program};
use crate::types::{ConstantValue, Opcode};

/// The hashable identity of a node for value numbering: two nodes with equal
/// keys compute bit-identical values on every execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum VnKey {
    /// Inputs are opaque runtime values: never merged, not even with
    /// themselves under a different id.
    Unique(NodeId),
    /// Constants compare by exact bit pattern of payload *and* scale — CKKS
    /// encodes a constant at its annotated scale, so `2.0 @ 2^20` and
    /// `2.0 @ 2^30` are different plaintexts.
    Constant {
        /// Discriminant + payload bits of the [`ConstantValue`].
        payload: (u8, Vec<u64>),
        /// `scale_log2` bit pattern.
        scale: u64,
    },
    /// Instructions compare by opcode, argument equivalence classes
    /// (operand order canonicalized for commutative ops) and stamped scale.
    Instruction {
        /// The operation.
        op: Opcode,
        /// Value numbers of the arguments.
        args: Vec<usize>,
        /// `scale_log2` bit pattern (0.0 for untransformed input programs;
        /// including it keeps the relation sound on annotated programs too).
        scale: u64,
    },
}

/// Value-numbering equivalence analysis: assigns every node a class id such
/// that two nodes share a class **iff** they provably compute bit-identical
/// values — same opcode, equivalent operands (modulo commutativity of ADD
/// and MULTIPLY), bit-identical constants.
///
/// FHE evaluation is deterministic given the operand ciphertexts, so merging
/// a class onto one representative (what [`eliminate_common_subexpressions`]
/// does) preserves outputs bit-for-bit.
///
/// Takes the program's topological `order` and returns
/// `(class_of, representative)`: `class_of[id]` is the node's class and
/// `representative[class]` the topologically-first member of the class.
fn value_numbers(program: &Program, order: &[NodeId]) -> (Vec<usize>, Vec<NodeId>) {
    let mut class_of = vec![usize::MAX; program.len()];
    let mut representative: Vec<NodeId> = Vec::new();
    let mut table: HashMap<VnKey, usize> = HashMap::new();
    for &id in order {
        let node = program.node(id);
        let key = match &node.kind {
            NodeKind::Input { .. } => VnKey::Unique(id),
            NodeKind::Constant { value } => VnKey::Constant {
                payload: constant_bits(value),
                scale: node.scale_log2.to_bits(),
            },
            NodeKind::Instruction { op, args } => {
                let mut arg_classes: Vec<usize> = args.iter().map(|&a| class_of[a]).collect();
                if matches!(op, Opcode::Add | Opcode::Multiply) {
                    arg_classes.sort_unstable();
                }
                VnKey::Instruction {
                    op: *op,
                    args: arg_classes,
                    scale: node.scale_log2.to_bits(),
                }
            }
        };
        let next = representative.len();
        let class = *table.entry(key).or_insert(next);
        if class == next {
            representative.push(id);
        }
        class_of[id] = class;
    }
    (class_of, representative)
}

/// Exact bit representation of a constant payload (discriminant + bits), so
/// `0.0` and `-0.0` — different CKKS plaintexts — stay distinct.
fn constant_bits(value: &ConstantValue) -> (u8, Vec<u64>) {
    match value {
        ConstantValue::Scalar(v) => (0, vec![v.to_bits()]),
        ConstantValue::Integer(v) => (1, vec![*v as u64]),
        ConstantValue::Vector(v) => (2, v.iter().map(|x| x.to_bits()).collect()),
    }
}

/// Merges every value-numbering class onto its representative, returning the
/// number of duplicate nodes whose uses were redirected.
///
/// Programs whose graph is cyclic are left untouched (the verifier gate in
/// `compile()` reports the cycle with a precise diagnostic instead).
pub fn eliminate_common_subexpressions(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let (classes, representatives) = value_numbers(program, &order);
    let uses = program.uses();
    let mut merged = 0;
    for id in 0..program.len() {
        let rep = representatives[classes[id]];
        if rep == id {
            continue;
        }
        let referenced =
            !uses[id].is_empty() || program.outputs().iter().any(|output| output.node == id);
        if referenced {
            for &user in &uses[id] {
                program.replace_arg(user, id, rep);
            }
            program.redirect_outputs(id, rep);
            merged += 1;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ConstantValue, Opcode};

    #[test]
    fn merges_duplicate_subtrees_across_outputs() {
        let mut p = Program::new("cse", 8);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::Multiply, &[x, x]);
        let b = p.instruction(Opcode::Multiply, &[x, x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        p.output("sum", s, 30);
        p.output("sq", b, 30);
        let merged = eliminate_common_subexpressions(&mut p);
        assert_eq!(merged, 1);
        assert_eq!(p.args(s), &[a, a], "both operands now the representative");
        assert_eq!(p.outputs()[1].node, a, "output redirected too");
        assert!(!p.live_mask()[b], "duplicate went dead");
    }

    #[test]
    fn merges_transitively_through_operand_classes() {
        let mut p = Program::new("cse2", 8);
        let x = p.input_cipher("x", 30);
        let n1 = p.instruction(Opcode::Negate, &[x]);
        let n2 = p.instruction(Opcode::Negate, &[x]);
        let m1 = p.instruction(Opcode::Multiply, &[n1, n1]);
        let m2 = p.instruction(Opcode::Multiply, &[n2, n2]);
        let s = p.instruction(Opcode::Add, &[m1, m2]);
        p.output("out", s, 30);
        let merged = eliminate_common_subexpressions(&mut p);
        assert_eq!(merged, 2, "negate and multiply duplicates both merge");
        assert_eq!(p.args(s), &[m1, m1]);
    }

    #[test]
    fn merges_commutative_operand_orders_and_duplicate_constants() {
        let mut p = Program::new("cse3", 8);
        let x = p.input_cipher("x", 30);
        let c1 = p.constant(ConstantValue::Scalar(3.0), 20);
        let c2 = p.constant(ConstantValue::Scalar(3.0), 20);
        let m1 = p.instruction(Opcode::Multiply, &[x, c1]);
        let m2 = p.instruction(Opcode::Multiply, &[c2, x]);
        let s = p.instruction(Opcode::Add, &[m1, m2]);
        p.output("out", s, 30);
        let merged = eliminate_common_subexpressions(&mut p);
        assert!(
            merged >= 2,
            "constant and commuted multiply merge: {merged}"
        );
        assert_eq!(p.args(s), &[m1, m1]);
    }

    #[test]
    fn leaves_distinct_computations_alone() {
        let mut p = Program::new("nocse", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let a = p.instruction(Opcode::Sub, &[x, y]);
        let b = p.instruction(Opcode::Sub, &[y, x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", s, 30);
        assert_eq!(eliminate_common_subexpressions(&mut p), 0);
        assert_eq!(p.args(s), &[a, b]);
    }

    #[test]
    fn value_numbering_merges_structural_duplicates() {
        let mut p = Program::new("dups", 8);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::Multiply, &[x, x]);
        let b = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", sum, 30);
        let (classes, reps) = value_numbers(&p, &p.topological_order().unwrap());
        assert_eq!(classes[a], classes[b]);
        assert_eq!(reps[classes[a]], a, "representative is topologically first");
        assert_ne!(classes[x], classes[a]);
    }

    #[test]
    fn value_numbering_canonicalizes_commutative_operands_only() {
        let mut p = Program::new("comm", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let axy = p.instruction(Opcode::Add, &[x, y]);
        let ayx = p.instruction(Opcode::Add, &[y, x]);
        let sxy = p.instruction(Opcode::Sub, &[x, y]);
        let syx = p.instruction(Opcode::Sub, &[y, x]);
        let m = p.instruction(Opcode::Multiply, &[axy, ayx]);
        let n = p.instruction(Opcode::Multiply, &[sxy, syx]);
        let out = p.instruction(Opcode::Add, &[m, n]);
        p.output("out", out, 30);
        let (classes, _) = value_numbers(&p, &p.topological_order().unwrap());
        assert_eq!(classes[axy], classes[ayx], "ADD is commutative");
        assert_ne!(classes[sxy], classes[syx], "SUB is not");
    }

    #[test]
    fn value_numbering_never_merges_inputs_and_respects_constant_bits() {
        let mut p = Program::new("consts", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let c1 = p.constant(ConstantValue::Scalar(2.0), 20);
        let c2 = p.constant(ConstantValue::Scalar(2.0), 20);
        let c3 = p.constant(ConstantValue::Scalar(2.0), 30);
        let m1 = p.instruction(Opcode::Multiply, &[x, c1]);
        let m2 = p.instruction(Opcode::Multiply, &[y, c2]);
        let m3 = p.instruction(Opcode::Multiply, &[x, c3]);
        let s = p.instruction(Opcode::Add, &[m1, m2]);
        let t = p.instruction(Opcode::Add, &[s, m3]);
        p.output("out", t, 30);
        let (classes, _) = value_numbers(&p, &p.topological_order().unwrap());
        assert_ne!(classes[x], classes[y], "inputs are opaque");
        assert_eq!(classes[c1], classes[c2], "bit-identical constants merge");
        assert_ne!(classes[c1], classes[c3], "different scales do not");
        assert_ne!(classes[m1], classes[m2]);
        assert_ne!(classes[m1], classes[m3]);
    }

    #[test]
    fn value_numbering_is_transitive_through_operands() {
        let mut p = Program::new("transitive", 8);
        let x = p.input_cipher("x", 30);
        let a1 = p.instruction(Opcode::Negate, &[x]);
        let a2 = p.instruction(Opcode::Negate, &[x]);
        // b1/b2 use *different* node ids with the same class.
        let b1 = p.instruction(Opcode::Multiply, &[a1, a1]);
        let b2 = p.instruction(Opcode::Multiply, &[a2, a2]);
        let s = p.instruction(Opcode::Add, &[b1, b2]);
        p.output("out", s, 30);
        let (classes, _) = value_numbers(&p, &p.topological_order().unwrap());
        assert_eq!(classes[b1], classes[b2]);
    }
}
