//! MODSWITCH insertion passes (paper Section 5.3).
//!
//! After RESCALE insertion the operands of a binary instruction may sit at
//! different levels (different coefficient moduli), violating Constraint 1.
//! These passes insert MODSWITCH instructions to equalize levels:
//!
//! * [`insert_eager_modswitch`] — EVA's pass: a single backward traversal that
//!   pushes every needed MODSWITCH to the earliest feasible edge, sharing it
//!   among all consumers that need the lower level (Figure 5(c)). Roots are
//!   then equalized with the paper's auxiliary rule.
//! * [`insert_lazy_modswitch`] — the baseline that inserts MODSWITCH directly
//!   below the mismatching binary instruction (Figure 5(b)).

use std::collections::BTreeMap;

use crate::passes::GraphEditor;
use crate::program::{NodeId, Program};
use crate::types::Opcode;

fn consumes_modulus(program: &Program, id: NodeId) -> bool {
    matches!(
        program.opcode(id),
        Some(Opcode::Rescale(_)) | Some(Opcode::ModSwitch)
    )
}

/// Inserts EAGER-MODSWITCH nodes (Figure 4) plus the paper's auxiliary rule
/// that equalizes the reverse levels of all ciphertext roots. Returns the
/// number of MODSWITCH nodes inserted.
pub fn insert_eager_modswitch(program: &mut Program) -> usize {
    let order = program.topological_order();
    let mut editor = GraphEditor::new(program);
    // rlevel(n): conforming rescale-chain length of n in the transpose graph,
    // i.e. how many RESCALE/MODSWITCH nodes lie below n on every path.
    let mut rlevel: Vec<usize> = vec![0; editor.len()];
    let mut inserted = 0;

    for &id in order.iter().rev() {
        rlevel.resize(editor.len(), 0);
        if !editor.program().node(id).ty.is_cipher() {
            continue;
        }
        let children: Vec<NodeId> = editor.uses_of(id).to_vec();
        if children.is_empty() {
            rlevel[id] = 0;
            continue;
        }
        // Demand each child places on this node: the child's own rlevel plus
        // one if the child itself consumes a modulus prime.
        let mut groups: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for &child in &children {
            let demand = rlevel[child] + usize::from(consumes_modulus(editor.program(), child));
            groups.entry(demand).or_default().push(child);
        }
        let max_demand = *groups.keys().next_back().expect("children is non-empty");
        for (&demand, group) in groups.iter().take_while(|(&d, _)| d < max_demand) {
            // Build a shared MODSWITCH chain of the missing length and redirect
            // this group of children onto its end.
            let mut tail = id;
            for _ in 0..(max_demand - demand) {
                tail = editor.insert_between(tail, Opcode::ModSwitch, &[]);
                rlevel.resize(editor.len(), 0);
                inserted += 1;
            }
            for &child in group {
                editor.redirect_use(child, id, tail);
            }
        }
        rlevel[id] = max_demand;
    }

    // Auxiliary rule: equalize the reverse level of all ciphertext roots so
    // every root-to-output path consumes the same number of primes.
    let cipher_roots: Vec<NodeId> = (0..editor.len())
        .filter(|&id| editor.program().is_cipher_root(id))
        .collect();
    if let Some(&max_root) = cipher_roots.iter().map(|&r| &rlevel[r]).max() {
        for &root in &cipher_roots {
            let missing = max_root - rlevel[root];
            let mut tail = root;
            for _ in 0..missing {
                tail = editor.insert_after_all(tail, Opcode::ModSwitch);
                rlevel.resize(editor.len(), 0);
                inserted += 1;
            }
        }
    }
    inserted
}

/// Inserts LAZY-MODSWITCH nodes (Figure 4): walk forward and, whenever a
/// binary instruction's ciphertext operands sit at different levels, insert
/// MODSWITCH nodes directly on the higher-level... lower-level operand edge
/// until the levels match. Returns the number of MODSWITCH nodes inserted.
pub fn insert_lazy_modswitch(program: &mut Program) -> usize {
    let order = program.topological_order();
    let mut editor = GraphEditor::new(program);
    // level(n): number of RESCALE/MODSWITCH nodes above n (forward).
    let mut level: Vec<usize> = vec![0; editor.len()];
    let mut inserted = 0;

    for id in order {
        level.resize(editor.len(), 0);
        let node_is_cipher = editor.program().node(id).ty.is_cipher();
        let args: Vec<NodeId> = editor.program().args(id).to_vec();
        if args.is_empty() {
            continue;
        }
        let op = editor
            .program()
            .opcode(id)
            .expect("non-root node is an instruction");
        // Equalize ciphertext operand levels for binary instructions.
        if matches!(op, Opcode::Add | Opcode::Sub | Opcode::Multiply) && args.len() == 2 {
            let cipher_args: Vec<(usize, NodeId)> = args
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, a)| editor.program().node(a).ty.is_cipher())
                .collect();
            if cipher_args.len() == 2 {
                let (idx_a, a) = cipher_args[0];
                let (idx_b, b) = cipher_args[1];
                let (low_idx, low_node, deficit) = if level[a] > level[b] {
                    (idx_b, b, level[a] - level[b])
                } else {
                    (idx_a, a, level[b] - level[a])
                };
                if deficit > 0 {
                    let ty = editor.program().node(low_node).ty;
                    let mut tail = low_node;
                    let mut chain_level = level[low_node];
                    for _ in 0..deficit {
                        tail = editor.add_instruction(Opcode::ModSwitch, vec![tail], ty);
                        level.resize(editor.len(), 0);
                        chain_level += 1;
                        level[tail] = chain_level;
                        inserted += 1;
                    }
                    editor.replace_arg_at(id, low_idx, tail);
                }
            }
        }
        // Now compute this node's own level.
        let parent_max = editor
            .program()
            .cipher_args(id)
            .map(|a| level[a])
            .max()
            .unwrap_or(0);
        level[id] = parent_max
            + usize::from(consumes_modulus(editor.program(), id)) * usize::from(node_is_cipher);
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scale::analyze_levels;
    use crate::analysis::verifier::verify_program;
    use crate::passes::rescale::insert_waterline_rescale;
    use crate::program::Program;
    use crate::types::Opcode;

    /// The paper's Figure 5 input: x^2 + x + x with x at 2^60 (so that the
    /// waterline pass rescales the square).
    fn x2_plus_x_plus_x() -> Program {
        let mut p = Program::new("x2xx", 8);
        let x = p.input_cipher("x", 60);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let add1 = p.instruction(Opcode::Add, &[x2, x]);
        let add2 = p.instruction(Opcode::Add, &[add1, x]);
        p.output("out", add2, 60);
        p
    }

    fn count_modswitch(p: &Program) -> usize {
        p.opcode_histogram().get("mod_switch").copied().unwrap_or(0)
    }

    #[test]
    fn eager_shares_a_single_modswitch_for_both_adds() {
        // Figure 5(c): after waterline rescaling of x^2, the two ADDs both need
        // x one level down; eager insertion shares one MODSWITCH on x.
        let mut p = x2_plus_x_plus_x();
        insert_waterline_rescale(&mut p, 60);
        let inserted = insert_eager_modswitch(&mut p);
        assert_eq!(inserted, 1, "one shared MODSWITCH, as in Figure 5(c)");
        assert_eq!(count_modswitch(&p), 1);
        // The result is structurally valid: chains conform at every node.
        assert!(analyze_levels(&p).is_ok());
    }

    #[test]
    fn lazy_inserts_one_modswitch_per_add() {
        // Figure 5(b): lazy insertion patches each ADD separately.
        let mut p = x2_plus_x_plus_x();
        insert_waterline_rescale(&mut p, 60);
        let inserted = insert_lazy_modswitch(&mut p);
        assert_eq!(
            inserted, 2,
            "one MODSWITCH per mismatching ADD, as in Figure 5(b)"
        );
        assert!(analyze_levels(&p).is_ok());
    }

    #[test]
    fn eager_equalizes_roots() {
        // out1 = x^2 (rescaled), out2 = x + y: y is a fresh root that must be
        // brought down to x's post-equalization level... but x itself also needs
        // a MODSWITCH for the add; both roots end up with conforming chains.
        let mut p = Program::new("roots", 8);
        let x = p.input_cipher("x", 60);
        let y = p.input_cipher("y", 60);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[x, y]);
        p.output("square", x2, 60);
        p.output("sum", sum, 60);
        insert_waterline_rescale(&mut p, 60);
        insert_eager_modswitch(&mut p);
        assert!(
            analyze_levels(&p).is_ok(),
            "chains conform after eager insertion"
        );
        // Constraint 1 holds for the add as well.
        assert!(verify_program(&p, 60).is_clean());
    }

    #[test]
    fn no_modswitch_needed_for_balanced_programs() {
        let mut p = Program::new("balanced", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let sum = p.instruction(Opcode::Add, &[x, y]);
        p.output("out", sum, 30);
        assert_eq!(insert_eager_modswitch(&mut p), 0);
        assert_eq!(insert_lazy_modswitch(&mut p), 0);
    }
}
