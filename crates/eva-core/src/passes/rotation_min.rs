//! Rotation-set minimization: canonicalize rotation spellings and collapse
//! composed rotations, so the program needs fewer Galois keys *and* fewer
//! key switches.
//!
//! Two rewrites, both in [`canonicalize_rotations`]:
//!
//! 1. Canonical spelling — every rotation becomes
//!    `RotateLeft(canonical_left_step(step, vec_size))` (the contract of
//!    [`crate::analysis::rotations`]); identity rotations (canonical step 0)
//!    are bypassed entirely, since the evaluator would clone the ciphertext
//!    but `select_rotation_steps` would still demand a Galois key for the
//!    spelled step.
//! 2. Compose-merging —
//!    `rotate(rotate(x, a), b)` where the inner rotation has no other
//!    consumer becomes `rotate(x, (a + b) mod size)`: one key switch and one
//!    node fewer, and strictly less rotation noise.
//!
//! Canonicalization and compose-merging are value-preserving but not
//! bit-preserving (a different automorphism draws different keygen
//! randomness), which is why `verify_compiled` + the noise gate re-check
//! every compiled artifact and the optimizer proptests assert tolerance
//! equality rather than bit equality for this pass.

use crate::analysis::rotations::canonical_left_step;
use crate::program::{NodeKind, Program};
use crate::types::Opcode;

/// Rewrites every rotation into canonical left-step form, bypasses identity
/// rotations, and merges single-use composed rotations. Returns the number
/// of rewrites performed.
pub fn canonicalize_rotations(program: &mut Program) -> usize {
    let Ok(order) = program.topological_order() else {
        return 0;
    };
    let size = program.vec_size() as i64;
    let mut rewrites = 0usize;

    // Pass 1: canonical spelling. RotateRight(s) → RotateLeft((−s) mod size),
    // out-of-range left steps reduced mod size.
    for id in 0..program.len() {
        let NodeKind::Instruction { op, args } = &program.node(id).kind else {
            continue;
        };
        let (op, args) = (*op, args.clone());
        if let Some(step) = op.rotation_step() {
            let canonical = canonical_left_step(step, size as usize);
            if op != Opcode::RotateLeft(canonical as i32) {
                program.replace_instruction(id, Opcode::RotateLeft(canonical as i32), args);
                rewrites += 1;
            }
        }
    }

    // Pass 2 (topological): bypass identities, merge composed rotations.
    let uses = program.uses();
    let mut use_count: Vec<usize> = uses.iter().map(Vec::len).collect();
    for output in program.outputs() {
        use_count[output.node] += 1;
    }
    for &id in &order {
        let Some(Opcode::RotateLeft(step)) = program.opcode(id) else {
            continue;
        };
        let arg = program.args(id)[0];
        if step == 0 {
            // Identity: point every user and output at the argument. The
            // node itself goes dead and DCE sweeps it.
            for &user in &uses[id] {
                // No-op if an earlier rewrite already retargeted this user.
                if program.args(user).contains(&id) {
                    program.replace_arg(user, id, arg);
                    use_count[arg] += 1;
                }
            }
            let redirected = program
                .outputs()
                .iter()
                .filter(|output| output.node == id)
                .count();
            program.redirect_outputs(id, arg);
            use_count[arg] += redirected;
            use_count[id] = 0;
            rewrites += 1;
            continue;
        }
        // Compose-merge: if the argument is itself a rotation consumed only
        // here (and not an output), fold its step into ours. The argument's
        // opcode is already canonical because parents precede children in
        // the topological order.
        if let Some(Opcode::RotateLeft(inner_step)) = program.opcode(arg) {
            if use_count[arg] == 1 {
                let merged =
                    canonical_left_step((step as i64) + (inner_step as i64), size as usize);
                let inner_arg = program.args(arg)[0];
                program.replace_instruction(id, Opcode::RotateLeft(merged as i32), vec![inner_arg]);
                use_count[arg] -= 1;
                use_count[inner_arg] += 1;
                rewrites += 1;
            }
        }
    }
    rewrites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::rotations::select_rotation_steps;

    #[test]
    fn canonicalizes_right_rotations_and_identities() {
        let mut p = Program::new("canon", 16);
        let x = p.input_cipher("x", 30);
        let r = p.instruction(Opcode::RotateRight(4), &[x]);
        let ident = p.instruction(Opcode::RotateLeft(0), &[x]);
        let s = p.instruction(Opcode::Add, &[r, ident]);
        p.output("out", s, 30);
        let rewrites = canonicalize_rotations(&mut p);
        assert!(rewrites >= 2, "{rewrites}");
        assert_eq!(p.opcode(r), Some(Opcode::RotateLeft(12)));
        assert_eq!(p.args(s), &[r, x], "identity bypassed");
        assert_eq!(select_rotation_steps(&p), vec![12]);
    }

    #[test]
    fn merges_single_use_composed_rotations() {
        let mut p = Program::new("compose", 16);
        let x = p.input_cipher("x", 30);
        let inner = p.instruction(Opcode::RotateLeft(3), &[x]);
        let outer = p.instruction(Opcode::RotateLeft(5), &[inner]);
        p.output("out", outer, 30);
        canonicalize_rotations(&mut p);
        assert_eq!(p.opcode(outer), Some(Opcode::RotateLeft(8)));
        assert_eq!(p.args(outer), &[x]);
        assert!(!p.live_mask()[inner]);
    }

    #[test]
    fn does_not_merge_shared_inner_rotations() {
        let mut p = Program::new("shared", 16);
        let x = p.input_cipher("x", 30);
        let inner = p.instruction(Opcode::RotateLeft(3), &[x]);
        let outer = p.instruction(Opcode::RotateLeft(5), &[inner]);
        let s = p.instruction(Opcode::Add, &[outer, inner]);
        p.output("out", s, 30);
        canonicalize_rotations(&mut p);
        assert_eq!(p.opcode(outer), Some(Opcode::RotateLeft(5)));
        assert_eq!(p.args(outer), &[inner], "shared inner stays");
    }
}
