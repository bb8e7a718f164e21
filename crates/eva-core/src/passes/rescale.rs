//! RESCALE insertion passes (paper Section 5.3).
//!
//! * [`insert_waterline_rescale`] — EVA's pass: always rescale by the maximum
//!   allowed value `s_f` (2^60 in SEAL), and only when the resulting scale
//!   stays above the *waterline* (the largest input scale). This is the pass
//!   the paper proves yields the minimal modulus-chain length.
//! * [`insert_always_rescale`] — the naive baseline the paper defines for
//!   comparison: rescale after every ciphertext multiplication by the smaller
//!   operand scale.

use eva_math::MAX_PRIME_BITS;

use crate::analysis::scale::{scale_of, Phase};
use crate::passes::GraphEditor;
use crate::program::{NodeKind, Program};
use crate::types::Opcode;

fn waterline(program: &Program) -> f64 {
    program
        .nodes()
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Input { .. } | NodeKind::Constant { .. }))
        .map(|n| n.scale_log2)
        .fold(0.0f64, f64::max)
}

/// Inserts WATERLINE-RESCALE nodes (Figure 4): after a ciphertext
/// multiplication, rescale by `2^MAX_PRIME_BITS` (the paper's `s_f`) as long
/// as the remaining scale stays at or above the waterline `s_w` (the maximum
/// input/constant scale). Returns the number of RESCALE nodes inserted.
pub fn insert_waterline_rescale(program: &mut Program) -> usize {
    let sw = waterline(program);
    let sf = f64::from(MAX_PRIME_BITS);
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let mut editor = GraphEditor::new(program);
    let mut scales = vec![0.0f64; editor.len()];
    let mut inserted = 0;

    for id in order {
        scales.resize(editor.len(), 0.0);
        // The program is not valid yet, so findings are ignored.
        scales[id] = scale_of(
            editor.program(),
            id,
            &scales,
            &Phase::Nominal,
            &mut |_, _, _| {},
        );
        let node = editor.program().node(id);
        let is_cipher_multiply =
            node.ty.is_cipher() && matches!(editor.program().opcode(id), Some(Opcode::Multiply));
        if !is_cipher_multiply {
            continue;
        }
        // Rescale while the post-rescale scale stays at or above the waterline.
        let mut current_scale = scales[id];
        let mut tail = id;
        while current_scale >= sf + sw {
            let rescale = editor.insert_after_all(tail, Opcode::Rescale(MAX_PRIME_BITS));
            current_scale -= sf;
            scales.resize(editor.len(), 0.0);
            scales[rescale] = current_scale;
            tail = rescale;
            inserted += 1;
        }
    }
    inserted
}

/// Inserts ALWAYS-RESCALE nodes (Figure 4): after every ciphertext
/// multiplication, rescale by the smaller operand scale. Defined by the paper
/// only as a baseline; EVA itself uses [`insert_waterline_rescale`]. Returns
/// the number of RESCALE nodes inserted.
pub fn insert_always_rescale(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let mut editor = GraphEditor::new(program);
    let mut scales = vec![0.0f64; editor.len()];
    let mut inserted = 0;

    for id in order {
        scales.resize(editor.len(), 0.0);
        // The program is not valid yet, so findings are ignored.
        scales[id] = scale_of(
            editor.program(),
            id,
            &scales,
            &Phase::Nominal,
            &mut |_, _, _| {},
        );
        let node = editor.program().node(id);
        let is_cipher_multiply =
            node.ty.is_cipher() && matches!(editor.program().opcode(id), Some(Opcode::Multiply));
        if !is_cipher_multiply {
            continue;
        }
        let operand_min = editor
            .program()
            .args(id)
            .iter()
            .map(|&a| scales[a])
            .fold(f64::INFINITY, f64::min);
        if operand_min <= 0.0 || !operand_min.is_finite() {
            continue;
        }
        // Input-program scales are integral annotations, so the rounded bit
        // count equals the nominal operand scale.
        let rescale = editor.insert_after_all(id, Opcode::Rescale(operand_min.round() as u32));
        scales.resize(editor.len(), 0.0);
        scales[rescale] = (scales[id] - operand_min).max(0.0);
        inserted += 1;
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scale::{analyze_levels, analyze_scales, ChainEntry};
    use crate::program::Program;
    use crate::types::Opcode;

    /// The paper's Figure 2 input: x^2 * y^3 with x at 2^60 and y at 2^30.
    fn x2y3(x_scale: u32, y_scale: u32) -> Program {
        let mut p = Program::new("x2y3", 8);
        let x = p.input_cipher("x", x_scale);
        let y = p.input_cipher("y", y_scale);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let y2 = p.instruction(Opcode::Multiply, &[y, y]);
        let y3 = p.instruction(Opcode::Multiply, &[y2, y]);
        let out = p.instruction(Opcode::Multiply, &[x2, y3]);
        p.output("out", out, 30);
        p
    }

    #[test]
    fn waterline_rescale_matches_figure_2d() {
        // With x at 2^60, y at 2^30 and s_f = 2^60, Figure 2(d) contains exactly
        // two RESCALE nodes: after x^2 (120 -> 60) and after the final multiply
        // (150 -> 90); the output scale is 2^60 * 2^30 as the paper states.
        let mut p = x2y3(60, 30);
        let inserted = insert_waterline_rescale(&mut p);
        assert_eq!(inserted, 2);
        let scales = analyze_scales(&mut p).unwrap();
        let out_node = p.outputs()[0].node;
        assert_eq!(scales[out_node], 90.0);
        // After MODSWITCH insertion the chains conform and the output has
        // consumed exactly two 2^60 primes.
        crate::passes::modswitch::insert_eager_modswitch(&mut p);
        let chains = analyze_levels(&p).unwrap();
        let out_node = p.outputs()[0].node;
        assert_eq!(
            chains[out_node],
            vec![ChainEntry::Rescale(60), ChainEntry::Rescale(60)]
        );
    }

    #[test]
    fn waterline_rescale_skips_small_products() {
        // 25-bit inputs: a single multiplication gives 50 bits, which is below
        // 60 + 25, so no rescale is inserted.
        let mut p = Program::new("small", 8);
        let x = p.input_cipher("x", 25);
        let y = p.input_cipher("y", 25);
        let prod = p.instruction(Opcode::Multiply, &[x, y]);
        p.output("out", prod, 25);
        assert_eq!(insert_waterline_rescale(&mut p), 0);
    }

    #[test]
    fn always_rescale_inserts_after_every_multiply() {
        let mut p = x2y3(60, 30);
        let inserted = insert_always_rescale(&mut p);
        assert_eq!(inserted, 4, "one rescale per multiplication (Figure 2(b))");
    }

    #[test]
    fn waterline_handles_oversized_scales_with_multiple_rescales() {
        // Two 60-bit operands: the 120-bit product must come back below
        // 60 + waterline even if that takes more than one rescale step.
        let mut p = Program::new("big", 8);
        let x = p.input_cipher("x", 55);
        let y = p.input_cipher("y", 55);
        let prod = p.instruction(Opcode::Multiply, &[x, y]);
        let prod2 = p.instruction(Opcode::Multiply, &[prod, prod]);
        p.output("out", prod2, 30);
        insert_waterline_rescale(&mut p);
        let scales = analyze_scales(&mut p).unwrap();
        let out_node = p.outputs()[0].node;
        // Whatever the exact chain, the final scale must sit below s_f + s_w.
        assert!(scales[out_node] < 115.0);
    }
}
