//! Dead-code elimination: rebuilds the program without nodes that cannot
//! reach any output.
//!
//! Executors already *skip* dead nodes at run time, but until this pass dead
//! branches were still compiled, verified, serialized and shipped to the
//! server. Removing them shrinks the wire bundle, the verifier's workload
//! and — because `select_rotation_steps` scans *all* nodes — the set of
//! Galois keys a client must generate and upload.
//!
//! Two deliberate conservatisms:
//!
//! * **Input nodes are always kept**, live or dead: the program's input
//!   signature is part of its contract (`bind_inputs` refuses unknown
//!   names), and the executors already skip binding dead inputs.
//! * Node payloads are copied **verbatim** — exact (non-integral) scale
//!   annotations stamped by the compiler's second phase survive, which is
//!   why `compile()` can run this pass again *after* `apply_exact_scales`
//!   to guarantee every shipped program is dead-free.
//!
//! The pass is bit-preserving: live nodes, their exact annotations and
//! their topological execution order are unchanged.

use crate::program::{Node, NodeKind, Program};

/// Removes every non-input node that does not reach an output, returning the
/// number of nodes removed. Cyclic graphs are left untouched (the verifier
/// gate reports the cycle instead).
pub fn eliminate_dead_code(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let live = program.live_mask();
    let keep: Vec<bool> = (0..program.len())
        .map(|id| live[id] || matches!(program.node(id).kind, NodeKind::Input { .. }))
        .collect();
    let removed = keep.iter().filter(|&&k| !k).count();
    if removed == 0 {
        return 0;
    }

    let mut rebuilt = Program::new(program.name(), program.vec_size());
    let mut remap = vec![usize::MAX; program.len()];
    for &id in &order {
        if !keep[id] {
            continue;
        }
        let node = program.node(id);
        let kind = match &node.kind {
            NodeKind::Instruction { op, args } => NodeKind::Instruction {
                op: *op,
                args: args.iter().map(|&a| remap[a]).collect(),
            },
            other => other.clone(),
        };
        remap[id] = rebuilt.push_node(Node {
            kind,
            ty: node.ty,
            scale_log2: node.scale_log2,
        });
    }
    for output in program.outputs() {
        rebuilt.push_output(output.name.clone(), remap[output.node], output.scale_log2);
    }
    *program = rebuilt;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Opcode;

    #[test]
    fn removes_dead_branches_but_keeps_dead_inputs() {
        let mut p = Program::new("dce", 8);
        let x = p.input_cipher("x", 30);
        let unused = p.input_cipher("unused", 30);
        let live = p.instruction(Opcode::Add, &[x, x]);
        let d1 = p.instruction(Opcode::Multiply, &[x, unused]);
        let _d2 = p.instruction(Opcode::Negate, &[d1]);
        p.output("out", live, 30);
        let removed = eliminate_dead_code(&mut p);
        assert_eq!(removed, 2);
        assert_eq!(p.len(), 3, "x, unused, add");
        let names: Vec<_> = p
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Input { name } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"unused".to_string()), "signature preserved");
        assert!(p
            .live_mask()
            .iter()
            .zip(p.nodes())
            .all(|(&l, n)| { l || matches!(n.kind, NodeKind::Input { .. }) }));
    }

    #[test]
    fn preserves_exact_scales_and_output_wiring() {
        let mut p = Program::new("scales", 8);
        let x = p.input_cipher("x", 30);
        let dead = p.instruction(Opcode::Negate, &[x]);
        let live = p.instruction(Opcode::Multiply, &[x, x]);
        p.set_scale_log2(live, 59.99993133961417);
        p.set_scale_log2(dead, 1.5);
        p.output("out", live, 60);
        let removed = eliminate_dead_code(&mut p);
        assert_eq!(removed, 1);
        let out = p.outputs()[0].node;
        assert_eq!(
            p.node(out).scale_log2.to_bits(),
            59.99993133961417f64.to_bits(),
            "exact annotation copied bit-for-bit"
        );
        assert_eq!(p.outputs()[0].scale_log2, 60.0);
    }

    #[test]
    fn noop_on_fully_live_programs() {
        let mut p = Program::new("live", 8);
        let x = p.input_cipher("x", 30);
        let m = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", m, 30);
        let before = p.clone();
        assert_eq!(eliminate_dead_code(&mut p), 0);
        assert_eq!(p, before);
    }

    #[test]
    fn handles_out_of_id_order_graphs() {
        // A rewrite can re-parent a node onto a later id; DCE must follow
        // the true topological order, not id order.
        let mut p = Program::new("reorder", 8);
        let x = p.input_cipher("x", 30);
        let a = p.push_instruction(Opcode::RotateLeft(1), vec![x], crate::ValueType::Cipher);
        let b = p.push_instruction(Opcode::RotateLeft(2), vec![x], crate::ValueType::Cipher);
        // Re-parent a onto b: a = rotate(b, ...), so a's parent has a larger id.
        p.replace_instruction(a, Opcode::RotateLeft(7), vec![b]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        let _dead = p.instruction(Opcode::Negate, &[s]);
        p.output("out", s, 30);
        let removed = eliminate_dead_code(&mut p);
        assert_eq!(removed, 1);
        // Rebuilt program must still be a valid DAG with backward args.
        for (id, node) in p.nodes().iter().enumerate() {
            if let NodeKind::Instruction { args, .. } = &node.kind {
                for &arg in args {
                    assert!(arg < id, "node {id} references later node {arg}");
                }
            }
        }
    }
}
