//! RELINEARIZE insertion pass (paper Section 5.2).
//!
//! A ciphertext-ciphertext multiplication produces a three-polynomial
//! ciphertext; Constraint 3 requires every multiplication operand to have
//! exactly two, so EVA inserts a RELINEARIZE node between every
//! cipher-cipher MULTIPLY and its children. With this placement a single
//! relinearization key suffices for the whole program.

use crate::passes::GraphEditor;
use crate::program::Program;
use crate::types::Opcode;

/// Inserts RELINEARIZE after every ciphertext-ciphertext multiplication
/// (Figure 4). Returns the number of nodes inserted.
pub fn insert_relinearize(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let mut editor = GraphEditor::new(program);
    let mut inserted = 0;
    for id in order {
        if !matches!(editor.program().opcode(id), Some(Opcode::Multiply)) {
            continue;
        }
        let args = editor.program().args(id);
        let both_cipher = args.len() == 2
            && args
                .iter()
                .all(|&a| editor.program().node(a).ty.is_cipher());
        if both_cipher {
            editor.insert_after_all(id, Opcode::Relinearize);
            inserted += 1;
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scale::analyze_num_polys;
    use crate::program::Program;
    use crate::types::Opcode;

    #[test]
    fn relinearize_follows_cipher_multiplications_only() {
        let mut p = Program::new("relin", 8);
        let x = p.input_cipher("x", 30);
        let v = p.input_vector("v", 20);
        let cc = p.instruction(Opcode::Multiply, &[x, x]);
        let cp = p.instruction(Opcode::Multiply, &[cc, v]);
        p.output("out", cp, 30);
        let inserted = insert_relinearize(&mut p);
        assert_eq!(inserted, 1);
        let polys = analyze_num_polys(&p);
        let out = p.outputs()[0].node;
        assert_eq!(
            polys[out], 2,
            "the plaintext multiply sees a relinearized operand"
        );
    }

    #[test]
    fn relinearize_is_inserted_before_existing_children() {
        // Mirrors Figure 2(d) -> 2(e): the RESCALE that already follows the
        // multiply must become the child of the new RELINEARIZE.
        let mut p = Program::new("order", 8);
        let x = p.input_cipher("x", 60);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        crate::passes::rescale::insert_waterline_rescale(&mut p, 60);
        insert_relinearize(&mut p);
        // sq's only user must now be the relinearize, whose user is the rescale.
        let uses = p.uses();
        assert_eq!(uses[sq].len(), 1);
        let relin = uses[sq][0];
        assert_eq!(p.opcode(relin), Some(Opcode::Relinearize));
        assert_eq!(uses[relin].len(), 1);
        assert!(matches!(p.opcode(uses[relin][0]), Some(Opcode::Rescale(_))));
    }

    #[test]
    fn deep_multiplication_chain_gets_relinearized_everywhere() {
        let mut p = Program::new("chain", 8);
        let x = p.input_cipher("x", 20);
        let mut acc = x;
        for _ in 0..4 {
            acc = p.instruction(Opcode::Multiply, &[acc, x]);
        }
        p.output("out", acc, 20);
        assert_eq!(insert_relinearize(&mut p), 4);
        let polys = analyze_num_polys(&p);
        assert!(polys.iter().all(|&c| c <= 3));
    }
}
