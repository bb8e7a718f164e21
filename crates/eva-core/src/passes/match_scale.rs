//! MATCH-SCALE insertion passes (paper Section 5.3, "Matching Scales").
//!
//! Addition and subtraction require both operands to carry the same
//! fixed-point scale (Constraint 2). Instead of spending a RESCALE/MODSWITCH
//! (which would consume a modulus prime, as in Figure 3(b)), EVA multiplies
//! the smaller-scale operand by the constant `1` encoded at the missing scale
//! (Figure 3(c)) — the product then has the larger scale and no prime is
//! consumed.
//!
//! Two passes share this rule:
//!
//! * [`insert_match_scale`] runs in the nominal phase and fixes the *bit*
//!   mismatches visible in the programmer's annotations.
//! * [`apply_exact_scales`] runs after parameter selection and fixes the
//!   sub-bit drift between operands whose division histories differ (one
//!   was rescaled by prime `q_i`, the other by `q_j`): it multiplies the
//!   lower-scale operand by `1` at a delta solved to make the exact scales
//!   bit-identical, then stamps every node with its exact scale annotation.

use crate::analysis::scale::{
    acyclic_order, analyze_levels, match_scale_delta, prime_log2s, scale_of, Phase,
};
use crate::analysis::ParameterSpec;
use crate::error::EvaError;
use crate::passes::GraphEditor;
use crate::program::{NodeId, Program};
use crate::types::{ConstantValue, Opcode};

/// Inserts MATCH-SCALE fixes (Figure 4): for every ADD/SUB whose operand
/// scales differ, multiply the smaller-scale operand by a constant `1` encoded
/// at the scale difference. Returns the number of fixes inserted.
pub fn insert_match_scale(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let mut editor = GraphEditor::new(program);
    let mut scales = vec![0.0f64; editor.len()];
    let mut inserted = 0;

    for id in order {
        scales.resize(editor.len(), 0.0);
        let op = editor.program().opcode(id);
        if matches!(op, Some(Opcode::Add) | Some(Opcode::Sub)) {
            let args: Vec<usize> = editor.program().args(id).to_vec();
            if args.len() == 2 {
                let (a, b) = (args[0], args[1]);
                if scales[a] != scales[b] {
                    let (low_idx, diff) = if scales[a] < scales[b] {
                        (0usize, scales[b] - scales[a])
                    } else {
                        (1usize, scales[a] - scales[b])
                    };
                    multiply_by_one(&mut editor, &mut scales, id, low_idx, diff);
                    inserted += 1;
                }
            }
        }
        scales.resize(editor.len(), 0.0);
        // The program is not valid yet, so findings are ignored.
        scales[id] = scale_of(
            editor.program(),
            id,
            &scales,
            &Phase::Nominal,
            &mut |_, _, _| {},
        );
    }
    inserted
}

/// The exact phase of the pipeline (see [`crate::analysis::scale`]): given the
/// actual prime chain from parameter selection, re-propagates scales exactly,
/// inserts exact match-scale corrections wherever a cipher-cipher ADD/SUB
/// would see operands whose exact scales differ (sub-bit rescale drift), and
/// stamps every node — and every output — with its exact `log2` scale.
///
/// Returns the number of exact corrections inserted.
///
/// # Errors
///
/// Returns [`EvaError::Validation`] if a correction delta cannot be solved or
/// a rescale chain is longer than the prime chain.
pub fn apply_exact_scales(program: &mut Program, spec: &ParameterSpec) -> Result<usize, EvaError> {
    let chains = analyze_levels(program)?;
    let log_primes = prime_log2s(&spec.data_primes);
    let order = acyclic_order(program)?;
    let live = program.live_mask();
    // Correction nodes are appended after every original id and are never
    // RESCALEs, so the precomputed chains and live mask stay valid for every
    // node the loop visits.
    let phase = Phase::Exact {
        log_primes: &log_primes,
        chains: &chains,
        live: &live,
    };
    let mut editor = GraphEditor::new(program);
    let mut scales = vec![0.0f64; editor.len()];
    let mut inserted = 0;

    for id in order {
        scales.resize(editor.len(), 0.0);
        // Correct drifted cipher-cipher ADD/SUB operands before computing
        // this node's own exact scale. Dead nodes are never executed: they
        // get no corrections (their chains may outrun the primes).
        let op = editor.program().opcode(id);
        if live[id] && matches!(op, Some(Opcode::Add) | Some(Opcode::Sub)) {
            let args: Vec<NodeId> = editor.program().args(id).to_vec();
            let both_cipher = editor.program().cipher_args(id).count() == 2;
            if both_cipher && scales[args[0]] != scales[args[1]] {
                let (a, b) = (args[0], args[1]);
                let (low_idx, source, target) = if scales[a] < scales[b] {
                    (0usize, scales[a], scales[b])
                } else {
                    (1usize, scales[b], scales[a])
                };
                let delta = match_scale_delta(source, target).ok_or_else(|| {
                    EvaError::Validation(format!(
                        "node {id}: no representable match-scale delta from \
                         2^{source:.10e} to 2^{target:.10e}"
                    ))
                })?;
                // The delta was solved so the product's scale is
                // bit-identical to the target.
                let fixed = multiply_by_one(&mut editor, &mut scales, id, low_idx, delta);
                debug_assert_eq!(scales[fixed].to_bits(), target.to_bits());
                inserted += 1;
            }
        }
        scales.resize(editor.len(), 0.0);
        let mut finding = None;
        scales[id] = scale_of(
            editor.program(),
            id,
            &scales,
            &phase,
            &mut |_, _, message| {
                finding.get_or_insert(message);
            },
        );
        if let Some(message) = finding {
            return Err(EvaError::Validation(message));
        }
    }

    // Stamp the exact annotations (corrections included) onto the program.
    for id in 0..program.len() {
        let exact = scales[id];
        program.set_scale_log2(id, exact);
    }
    Ok(inserted)
}

/// The one fix both passes insert: multiplies argument `low_idx` of `id`
/// by the constant `1` at scale `delta`, rewires `id` onto the product and
/// records both new nodes' scales. Returns the product's id.
fn multiply_by_one(
    editor: &mut GraphEditor<'_>,
    scales: &mut Vec<f64>,
    id: NodeId,
    low_idx: usize,
    delta: f64,
) -> NodeId {
    let low_node = editor.program().args(id)[low_idx];
    let one = editor.add_constant(ConstantValue::Scalar(1.0), delta);
    let ty = editor.program().node(low_node).ty;
    let fixed = editor.add_instruction(Opcode::Multiply, vec![low_node, one], ty);
    scales.resize(editor.len(), 0.0);
    scales[one] = delta;
    // Mirrors the evaluator: multiply adds log2 scales.
    scales[fixed] = scales[low_node] + delta;
    editor.replace_arg_at(id, low_idx, fixed);
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scale::analyze_scales;
    use crate::analysis::verifier::verify_program;
    use crate::passes::relinearize::insert_relinearize;
    use crate::program::Program;
    use crate::types::Opcode;

    /// The paper's Figure 3 input: x^2 + x with x at 2^30.
    fn x2_plus_x() -> Program {
        let mut p = Program::new("x2_plus_x", 8);
        let x = p.input_cipher("x", 30);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[x2, x]);
        p.output("out", sum, 30);
        p
    }

    #[test]
    fn figure_3c_multiplies_by_constant_one() {
        let mut p = x2_plus_x();
        let inserted = insert_match_scale(&mut p);
        assert_eq!(inserted, 1);
        // No RESCALE or MODSWITCH was added (that is the whole point of the rule).
        let histogram = p.opcode_histogram();
        assert_eq!(histogram.get("rescale"), None);
        assert_eq!(histogram.get("mod_switch"), None);
        assert_eq!(histogram.get("multiply"), Some(&2));
        // Both ADD operands now carry 2^60.
        let scales = analyze_scales(&mut p).unwrap();
        let out = p.outputs()[0].node;
        assert_eq!(scales[out], 60.0);
        insert_relinearize(&mut p);
        assert!(verify_program(&p).is_clean());
    }

    #[test]
    fn exact_pass_corrects_rescale_drift() {
        use crate::analysis::scale::analyze_exact_scales;
        use crate::analysis::ParameterSpec;
        use crate::program::NodeKind;
        use crate::types::ValueType;

        // The canonical drift case: x^2 rescaled (divided by the top prime)
        // added to x mod-switched (never divided). Nominal scales agree at 40
        // bits, exact scales differ by the prime's sub-bit deviation.
        let mut p = Program::new("drift", 8);
        let x = p.input_cipher("x", 40);
        let prod = p.instruction(Opcode::Multiply, &[x, x]);
        let relin = p.push_instruction(Opcode::Relinearize, vec![prod], ValueType::Cipher);
        let rescaled = p.push_instruction(Opcode::Rescale(40), vec![relin], ValueType::Cipher);
        let switched = p.push_instruction(Opcode::ModSwitch, vec![x], ValueType::Cipher);
        let sum = p.instruction(Opcode::Add, &[rescaled, switched]);
        p.output("out", sum, 40);
        analyze_scales(&mut p).unwrap();

        let spec = ParameterSpec {
            degree: 8192,
            data_primes: vec![1099511590913, 1099511680897],
            special_prime: 1152921504606830593,
            secure: false,
        };
        assert!(
            analyze_exact_scales(&p, &spec.data_primes).is_err(),
            "drift must be detected before correction"
        );
        let fixes = apply_exact_scales(&mut p, &spec).unwrap();
        assert_eq!(fixes, 1, "one exact correction for the drifted add");
        // After correction the exact analysis succeeds and matches the stamps.
        let exact = analyze_exact_scales(&p, &spec.data_primes).unwrap();
        for (id, node) in p.nodes().iter().enumerate() {
            assert_eq!(
                node.scale_log2.to_bits(),
                exact[id].to_bits(),
                "node {id} annotation disagrees with exact analysis"
            );
        }
        // The correction constant carries a tiny, non-integral delta scale.
        let delta_node = p
            .nodes()
            .iter()
            .enumerate()
            .find(|(_, n)| matches!(n.kind, NodeKind::Constant { .. }) && n.scale_log2.abs() < 1.0)
            .map(|(id, _)| id)
            .expect("exact correction constant exists");
        assert!(p.node(delta_node).scale_log2 != 0.0);
    }

    #[test]
    fn no_fix_for_matching_scales() {
        let mut p = Program::new("same", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let sum = p.instruction(Opcode::Add, &[x, y]);
        p.output("out", sum, 30);
        assert_eq!(insert_match_scale(&mut p), 0);
    }

    #[test]
    fn cascading_mismatches_are_fixed_in_one_pass() {
        // (x*y) + x + x : the first add mismatches (55 vs 30), and the second
        // add then sees 55 vs 30 again.
        let mut p = Program::new("cascade", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 25);
        let prod = p.instruction(Opcode::Multiply, &[x, y]);
        let add1 = p.instruction(Opcode::Add, &[prod, x]);
        let add2 = p.instruction(Opcode::Add, &[add1, x]);
        p.output("out", add2, 30);
        let inserted = insert_match_scale(&mut p);
        assert_eq!(inserted, 2);
        insert_relinearize(&mut p);
        assert!(verify_program(&p).is_clean());
    }
}
