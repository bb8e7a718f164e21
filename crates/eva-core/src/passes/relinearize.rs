//! RELINEARIZE insertion pass (paper Section 5.2), placed on demand.
//!
//! A ciphertext-ciphertext multiplication produces a three-polynomial
//! ciphertext. Only three consumers need it back in two polynomials: a
//! cipher-cipher MULTIPLY and a ROTATE (the evaluator refuses wider
//! operands) and a RESCALE (the noise model does not price rescaling the
//! `s²` term). ADD, SUB, NEGATE, a plaintext MULTIPLY and MODSWITCH accept
//! three polynomials and pass the need up to their operands. An output
//! accepts three polynomials: decryption computes `c0 + c1·s + c2·s²`.
//!
//! The paper relinearizes after every cipher-cipher MULTIPLY. This pass
//! does so only where the product's value reaches a consumer that needs two
//! polynomials, found by one backward analysis. A product that reaches only
//! outputs pays no key switch, and a program without such a product needs
//! no relinearization key: x² + x (paper Figure 3) compiles with none.
//! Where a RELINEARIZE is needed it still sits right after the product, so
//! a program whose every product is needed compiles exactly as under the
//! paper's rule, and one relinearization key serves the whole program.

use crate::analysis::scale::needs_two_polys;
use crate::passes::GraphEditor;
use crate::program::Program;
use crate::types::Opcode;

/// Inserts RELINEARIZE after every ciphertext-ciphertext multiplication
/// whose value reaches a consumer that needs two polynomials (Figure 4,
/// restricted by one backward analysis). Returns the number of nodes
/// inserted.
pub fn insert_relinearize(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    // demand[id]: a path from `id` through operations that keep a third
    // polynomial reaches a consumer that needs two.
    let mut demand = vec![false; program.len()];
    for &id in order.iter().rev() {
        let passes_through = demand[id] && program.opcode(id) != Some(Opcode::Relinearize);
        if passes_through || needs_two_polys(program, id) {
            for arg in program.cipher_args(id) {
                demand[arg] = true;
            }
        }
    }
    let mut editor = GraphEditor::new(program);
    let mut inserted = 0;
    for id in order {
        let product = editor.program().opcode(id) == Some(Opcode::Multiply)
            && editor.program().cipher_args(id).count() == 2;
        if product && demand[id] {
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
    use crate::compiler::{compile, CompilerOptions};
    use crate::program::Program;
    use crate::types::Opcode;

    /// `x·x` on a 30-bit input, returning the program, `x` and the square.
    fn square() -> (Program, usize, usize) {
        let mut p = Program::new("square", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        (p, x, sq)
    }

    #[test]
    fn a_product_reaching_only_outputs_stays_unrelinearized() {
        // Paper Figure 3's x² + x: the square reaches the output through an
        // ADD, so nothing needs it in two polynomials.
        let (mut p, x, sq) = square();
        let sum = p.instruction(Opcode::Add, &[sq, x]);
        p.output("out", sum, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        assert_eq!(compiled.stats.relinearizations_inserted, 0);
        assert!(!compiled.needs_relinearization());
        let polys = analyze_num_polys(&compiled.program);
        assert_eq!(polys[compiled.program.outputs()[0].node], 3);
    }

    #[test]
    fn relinearize_follows_cipher_multiplications_only() {
        let mut p = Program::new("relin", 8);
        let x = p.input_cipher("x", 30);
        let v = p.input_vector("v", 20);
        let cc = p.instruction(Opcode::Multiply, &[x, x]);
        let cp = p.instruction(Opcode::Multiply, &[cc, v]);
        let rotated = p.instruction(Opcode::RotateLeft(1), &[cp]);
        p.output("out", rotated, 30);
        let inserted = insert_relinearize(&mut p);
        assert_eq!(inserted, 1);
        let polys = analyze_num_polys(&p);
        assert_eq!(
            polys[cp], 2,
            "the plaintext multiply sees a relinearized operand"
        );
    }

    #[test]
    fn plaintext_multiply_negate_and_modswitch_pass_three_polynomials() {
        let (mut p, _, sq) = square();
        let v = p.input_vector("v", 20);
        let cp = p.instruction(Opcode::Multiply, &[sq, v]);
        let neg = p.instruction(Opcode::Negate, &[cp]);
        let ms = p.instruction(Opcode::ModSwitch, &[neg]);
        p.output("out", ms, 30);
        assert_eq!(insert_relinearize(&mut p), 0);
        assert_eq!(analyze_num_polys(&p)[ms], 3);
    }

    #[test]
    fn a_square_feeding_a_rotate_a_product_or_a_rescale_is_relinearized() {
        let consumers: [fn(&mut Program, usize, usize) -> usize; 3] = [
            |p, _, sq| p.instruction(Opcode::RotateLeft(1), &[sq]),
            |p, x, sq| p.instruction(Opcode::Multiply, &[sq, x]),
            |p, _, sq| p.instruction(Opcode::Rescale(30), &[sq]),
        ];
        for consumer in consumers {
            let (mut p, x, sq) = square();
            // The demand reaches the square through an ADD.
            let sum = p.instruction(Opcode::Add, &[sq, sq]);
            let used = consumer(&mut p, x, sum);
            p.output("out", used, 30);
            let before = p.len();
            let inserted = insert_relinearize(&mut p);
            assert!(inserted >= 1, "{}", p.to_dot());
            let relin = before;
            assert_eq!(p.opcode(relin), Some(Opcode::Relinearize));
            assert_eq!(p.args(relin), &[sq]);
            let polys = analyze_num_polys(&p);
            for &a in p.args(used) {
                assert_eq!(polys[a], 2, "{}", p.to_dot());
            }
        }
    }

    #[test]
    fn relinearize_is_inserted_before_existing_children() {
        // Mirrors Figure 2(d) -> 2(e): the RESCALE that already follows the
        // multiply must become the child of the new RELINEARIZE.
        let mut p = Program::new("order", 8);
        let x = p.input_cipher("x", 60);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        crate::passes::rescale::insert_waterline_rescale(&mut p);
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
        let chain = |rotate_out: bool| {
            let mut p = Program::new("chain", 8);
            let x = p.input_cipher("x", 20);
            let mut acc = x;
            for _ in 0..4 {
                acc = p.instruction(Opcode::Multiply, &[acc, x]);
            }
            if rotate_out {
                acc = p.instruction(Opcode::RotateLeft(1), &[acc]);
            }
            p.output("out", acc, 20);
            (p, acc)
        };
        let (mut p, _) = chain(true);
        assert_eq!(insert_relinearize(&mut p), 4);
        let polys = analyze_num_polys(&p);
        assert!(polys.iter().all(|&c| c <= 3));
        // Without the rotation the last product reaches only the output.
        let (mut p, last) = chain(false);
        assert_eq!(insert_relinearize(&mut p), 3);
        assert_eq!(analyze_num_polys(&p)[last], 3);
    }
}
