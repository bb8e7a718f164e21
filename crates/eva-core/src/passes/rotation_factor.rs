//! Baby-step/giant-step factoring of rotate–multiply–accumulate sums — the
//! second half of rotation-set minimization, targeting the dominant rotation
//! pattern of vectorized kernels (convolutions, stencils, dot products):
//!
//! ```text
//! Σ_j  c_j ⊙ rot(x, s_j)           (one key-switch per distinct step s_j)
//! ```
//!
//! Factoring each step as `s_j = g + b` with `b = s_j mod B` turns the sum
//! into
//!
//! ```text
//! Σ_g  rot( Σ_b  c'_{g,b} ⊙ rot(x, b),  g )
//! ```
//!
//! where `c'_{g,b}` is the plaintext constant **pre-rotated right by `g` at
//! compile time** (rotation of a plaintext is free: it is literally a
//! re-indexing of the constant's payload vector). The identity used is
//! `rot(c' ⊙ z, g) = rot_plain(c', g) ⊙ rot(z, g)` — a left rotation by `g`
//! of a product with the right-rotated constant restores the original
//! constant against the fully rotated ciphertext. Ciphertext rotations drop
//! from `|S|` (one per distinct step) to `|babies ≠ 0| + |giants ≠ 0|`,
//! roughly `2·√|S|` for dense step sets: fewer key-switches *executed*, and
//! usually fewer distinct steps for [`select_rotation_steps`](crate::analysis::rotations::select_rotation_steps) too.
//!
//! The pass only fires where it is provably a pure win:
//!
//! * every rewritten term `mul(rot(x, s), const)` and its rotation are
//!   **single-use** leaves of one addition tree, so the old nodes all die in
//!   the final DCE sweep;
//! * the block size `B` is chosen by exhaustive scan to minimize the new
//!   rotation count, and the group is left untouched unless the saving
//!   strictly exceeds any constant-node growth (shared vector constants
//!   that must be duplicated in rotated form);
//! * addition and multiplication node counts break even exactly (the tree
//!   is rebuilt with the same number of adds and one multiply per term).
//!
//! Like the other rotation passes this is **value-preserving**, not
//! bit-preserving: sums are re-associated and constants re-encoded, so
//! decoded outputs agree to working precision while ciphertext bits differ.

use std::collections::{BTreeMap, BTreeSet};

use crate::program::{NodeKind, Program};
use crate::types::{ConstantValue, Opcode};

/// One rewritable leaf of an addition tree: `mul(rot(src, step), const)`.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// The `Multiply` leaf node.
    leaf: usize,
    /// Its rotation argument (`RotateLeft(step)` of `src`).
    rot: usize,
    /// The canonical left step in `[1, vec_size)`.
    step: i64,
    /// Its constant argument.
    constant: usize,
}

/// Rewrites rotate–multiply–accumulate sums into baby-step/giant-step form,
/// returning the number of ciphertext rotations eliminated.
///
/// Runs on canonicalized programs (after `canonicalize_rotations`, so every
/// cipher rotation is a `RotateLeft` with a step in `[1, vec_size)`); cyclic
/// or non-power-of-two-vector programs are left untouched.
pub fn factor_rotation_sums(program: &mut Program) -> usize {
    let vs = program.vec_size() as i64;
    if !program.vec_size().is_power_of_two() || program.topological_order().is_err() {
        return 0;
    }

    // Reference counts (argument occurrences plus output references) and,
    // where a node has exactly one referencing instruction, that consumer.
    let len = program.len();
    let mut refs = vec![0usize; len];
    let mut a_consumer = vec![usize::MAX; len];
    for id in 0..len {
        for &a in program.args(id) {
            refs[a] += 1;
            a_consumer[a] = id;
        }
    }
    let mut is_output = vec![false; len];
    for output in program.outputs() {
        refs[output.node] += 1;
        is_output[output.node] = true;
    }
    let live = program.live_mask();
    let is_add = |p: &Program, id: usize| {
        matches!(
            p.node(id).kind,
            NodeKind::Instruction {
                op: Opcode::Add,
                ..
            }
        )
    };
    // An interior node of an addition tree: a live Add consumed exactly once,
    // by another Add, and not an output.
    let interior = |p: &Program, id: usize| {
        is_add(p, id) && refs[id] == 1 && !is_output[id] && is_add(p, a_consumer[id])
    };

    let mut eliminated = 0usize;
    for root in 0..len {
        if !live[root] || !is_add(program, root) || interior(program, root) {
            continue;
        }
        // Collect the tree's leaves left-to-right.
        let mut leaves: Vec<usize> = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &arg in program.args(id).iter().rev() {
                if interior(program, arg) {
                    stack.push(arg);
                } else {
                    leaves.push(arg);
                }
            }
        }
        leaves.reverse();

        // Partition leaves into rewritable terms (grouped by rotation
        // source) and kept leaves.
        let mut groups: BTreeMap<usize, Vec<Term>> = BTreeMap::new();
        let mut term_of_leaf: BTreeMap<usize, usize> = BTreeMap::new();
        for &leaf in &leaves {
            if let Some((src, term)) = match_term(program, &refs, &is_output, leaf, vs) {
                term_of_leaf.insert(leaf, src);
                groups.entry(src).or_default().push(term);
            }
        }
        // Duplicate leaves (the same term summed twice) would double-count
        // its single reference; keep only groups of structurally distinct,
        // distinct-step terms.
        let mut rewritten: BTreeMap<usize, (Vec<Term>, i64)> = BTreeMap::new();
        for (src, terms) in groups {
            let steps: BTreeSet<i64> = terms.iter().map(|t| t.step).collect();
            if steps.len() != terms.len() || terms.len() < 2 {
                continue;
            }
            let Some((cost, block)) = best_block(&steps) else {
                continue;
            };
            let savings = steps.len().saturating_sub(cost);
            // Constant growth: a rotated copy is only needed for vector
            // constants of giant-shifted terms, and only nets a node when
            // the original constant stays live elsewhere.
            let growth = terms
                .iter()
                .filter(|t| {
                    t.step % block != t.step
                        && refs[t.constant] > 1
                        && matches!(
                            program.node(t.constant).kind,
                            NodeKind::Constant {
                                value: ConstantValue::Vector(_)
                            }
                        )
                })
                .count();
            if savings > growth && savings >= 1 {
                rewritten.insert(src, (terms, block));
            }
        }
        if rewritten.is_empty() {
            continue;
        }

        // Build the replacement terms: kept leaves in order, then one
        // factored sum per rewritten group.
        let mut replacement: Vec<usize> = leaves
            .iter()
            .copied()
            .filter(|leaf| {
                term_of_leaf
                    .get(leaf)
                    .is_none_or(|src| !rewritten.contains_key(src))
            })
            .collect();
        for (src, (terms, block)) in &rewritten {
            let old_rots = terms.len();
            replacement.push(build_factored_sum(program, *src, terms, *block, vs));
            let new_rots = count_new_rotations(terms, *block);
            eliminated += old_rots - new_rots;
        }
        splice_into_root(program, root, &replacement);
    }
    eliminated
}

/// Matches a leaf against `mul(rot(src, step), const)` with single-use
/// rotation and leaf, returning the rotation source and the term.
fn match_term(
    program: &Program,
    refs: &[usize],
    is_output: &[bool],
    leaf: usize,
    vs: i64,
) -> Option<(usize, Term)> {
    if refs[leaf] != 1 || is_output[leaf] {
        return None;
    }
    let NodeKind::Instruction {
        op: Opcode::Multiply,
        args,
    } = &program.node(leaf).kind
    else {
        return None;
    };
    let (rot, constant) = match (
        matches!(program.node(args[0]).kind, NodeKind::Constant { .. }),
        matches!(program.node(args[1]).kind, NodeKind::Constant { .. }),
    ) {
        (false, true) => (args[0], args[1]),
        (true, false) => (args[1], args[0]),
        _ => return None,
    };
    if refs[rot] != 1 || is_output[rot] {
        return None;
    }
    let NodeKind::Instruction {
        op: Opcode::RotateLeft(s),
        args: rot_args,
    } = &program.node(rot).kind
    else {
        return None;
    };
    let step = (*s as i64).rem_euclid(vs);
    if step == 0 {
        return None;
    }
    // Vector constants are re-encoded in rotated form; their scale must be
    // expressible as the whole bit count `Program::constant` accepts.
    let scale = program.node(constant).scale_log2;
    if matches!(
        program.node(constant).kind,
        NodeKind::Constant {
            value: ConstantValue::Vector(_)
        }
    ) && (scale.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&scale))
    {
        return None;
    }
    Some((
        rot_args[0],
        Term {
            leaf,
            rot,
            step,
            constant,
        },
    ))
}

/// Exhaustively picks the block size minimizing the rewritten rotation
/// count `|babies ≠ 0| + |giants ≠ 0|`.
fn best_block(steps: &BTreeSet<i64>) -> Option<(usize, i64)> {
    let max = *steps.iter().next_back()?;
    let mut best: Option<(usize, i64)> = None;
    for block in 1..=max {
        let babies: BTreeSet<i64> = steps.iter().map(|s| s % block).collect();
        let giants: BTreeSet<i64> = steps.iter().map(|s| s - s % block).collect();
        let cost =
            babies.iter().filter(|&&b| b != 0).count() + giants.iter().filter(|&&g| g != 0).count();
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, block));
        }
    }
    best
}

fn count_new_rotations(terms: &[Term], block: i64) -> usize {
    let babies: BTreeSet<i64> = terms.iter().map(|t| t.step % block).collect();
    let giants: BTreeSet<i64> = terms.iter().map(|t| t.step - t.step % block).collect();
    babies.iter().filter(|&&b| b != 0).count() + giants.iter().filter(|&&g| g != 0).count()
}

/// Emits the factored `Σ_g rot(Σ_b c' ⊙ rot(src, b), g)` nodes for one
/// group and returns the id of its top node.
fn build_factored_sum(
    program: &mut Program,
    src: usize,
    terms: &[Term],
    block: i64,
    vs: i64,
) -> usize {
    // Shared baby rotations; giant-0 terms reuse their original leaf (and
    // therefore their original rotation and constant) untouched, and their
    // rotation nodes seed the cache so giant-shifted terms with the same
    // baby step share them instead of duplicating the rotation.
    let mut baby_node: BTreeMap<i64, usize> = BTreeMap::new();
    let mut by_giant: BTreeMap<i64, Vec<&Term>> = BTreeMap::new();
    for t in terms {
        let giant = t.step - t.step % block;
        if giant == 0 {
            baby_node.insert(t.step, t.rot);
        }
        by_giant.entry(giant).or_default().push(t);
    }
    let mut group_terms: Vec<usize> = Vec::new();
    for (giant, terms_g) in by_giant {
        let inner: Vec<usize> = terms_g
            .iter()
            .map(|t| {
                if giant == 0 {
                    t.leaf
                } else {
                    let baby = t.step - giant;
                    let baby_id = *baby_node.entry(baby).or_insert_with(|| {
                        if baby == 0 {
                            src
                        } else {
                            program.instruction(Opcode::RotateLeft(baby as i32), &[src])
                        }
                    });
                    let constant = rotated_constant(program, t.constant, giant, vs);
                    program.instruction(Opcode::Multiply, &[baby_id, constant])
                }
            })
            .collect();
        let sum = fold_add(program, &inner);
        group_terms.push(if giant == 0 {
            sum
        } else {
            program.instruction(Opcode::RotateLeft(giant as i32), &[sum])
        });
    }
    fold_add(program, &group_terms)
}

/// Left-folds node ids with `Add`; a single id folds to itself.
fn fold_add(program: &mut Program, terms: &[usize]) -> usize {
    let mut acc = terms[0];
    for &t in &terms[1..] {
        acc = program.instruction(Opcode::Add, &[acc, t]);
    }
    acc
}

/// A constant equal to `constant` rotated **right** by `giant` logical
/// slots, so that `rot_left(c' ⊙ z, giant) = c ⊙ rot_left(z, giant)`.
/// Scalar and integer splats are rotation-invariant and reused as-is.
fn rotated_constant(program: &mut Program, constant: usize, giant: i64, vs: i64) -> usize {
    let NodeKind::Constant { value } = &program.node(constant).kind else {
        unreachable!("match_term only accepts constant operands");
    };
    match value {
        ConstantValue::Scalar(_) | ConstantValue::Integer(_) => constant,
        ConstantValue::Vector(_) => {
            let full = value.to_vector(vs as usize);
            let rotated: Vec<f64> = (0..vs)
                .map(|i| full[(i - giant).rem_euclid(vs) as usize])
                .collect();
            let scale_bits = program.node(constant).scale_log2 as u32;
            program.constant(ConstantValue::Vector(rotated), scale_bits)
        }
    }
}

/// Rewrites `root` in place to compute the sum of `replacement` terms. The
/// final combine is written into the root node itself so every external
/// consumer (and output) of the tree keeps its node id.
fn splice_into_root(program: &mut Program, root: usize, replacement: &[usize]) {
    match replacement {
        [] => unreachable!("an addition tree has at least one leaf"),
        [single] => {
            // Mirror the single term's instruction into the root; the term
            // node itself goes dead and is swept by the final DCE.
            let NodeKind::Instruction { op, args } = program.node(*single).kind.clone() else {
                unreachable!("factored sums and kept leaves of a rewritten tree are instructions");
            };
            program.replace_instruction(root, op, args);
        }
        [rest @ .., last] => {
            let acc = fold_add(program, rest);
            program.replace_instruction(root, Opcode::Add, vec![acc, *last]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::rotations::select_rotation_steps;
    use crate::analysis::verifier::verify_program;
    use crate::program::Program;
    use std::collections::HashMap;

    /// Minimal plaintext evaluator for value-preservation checks (the full
    /// reference executor lives downstream in `eva-backend`).
    fn eval(p: &Program, inputs: &HashMap<String, Vec<f64>>) -> HashMap<String, Vec<f64>> {
        let vs = p.vec_size();
        let mut values: Vec<Option<Vec<f64>>> = vec![None; p.len()];
        for id in p.topological_order().unwrap() {
            let value = match &p.node(id).kind {
                NodeKind::Input { name } => inputs[name].clone(),
                NodeKind::Constant { value } => value.to_vector(vs),
                NodeKind::Instruction { op, args } => {
                    let a: Vec<&Vec<f64>> =
                        args.iter().map(|&x| values[x].as_ref().unwrap()).collect();
                    match op {
                        Opcode::Add => (0..vs).map(|i| a[0][i] + a[1][i]).collect(),
                        Opcode::Multiply => (0..vs).map(|i| a[0][i] * a[1][i]).collect(),
                        Opcode::RotateLeft(s) => (0..vs)
                            .map(|i| a[0][(i as i64 + *s as i64).rem_euclid(vs as i64) as usize])
                            .collect(),
                        other => unimplemented!("test evaluator: {other:?}"),
                    }
                }
            };
            values[id] = Some(value);
        }
        p.outputs()
            .iter()
            .map(|o| (o.name.clone(), values[o.node].clone().unwrap()))
            .collect()
    }

    fn rotation_count(p: &Program) -> usize {
        let live = p.live_mask();
        (0..p.len())
            .filter(|&id| {
                live[id]
                    && matches!(
                        p.node(id).kind,
                        NodeKind::Instruction {
                            op: Opcode::RotateLeft(_) | Opcode::RotateRight(_),
                            ..
                        }
                    )
            })
            .count()
    }

    /// A 3×3 stencil over a 16-wide row layout: steps {1,2,16,17,18,32,33,34}.
    fn stencil(vec_size: usize, width: i32) -> Program {
        let mut p = Program::new("stencil", vec_size);
        let x = p.input_cipher("x", 30);
        let mut acc = None;
        for i in 0..3 {
            for j in 0..3 {
                let step = i * width + j;
                let rotated = if step == 0 {
                    x
                } else {
                    p.instruction(Opcode::RotateLeft(step), &[x])
                };
                // Non-uniform weights so compile-time constant rotation is
                // actually exercised (a splat would be rotation-invariant).
                let weight = p.constant(
                    ConstantValue::Vector(
                        (0..vec_size)
                            .map(|k| 0.1 * f64::from(i * 3 + j + 1) + 0.001 * k as f64)
                            .collect(),
                    ),
                    30,
                );
                let term = p.instruction(Opcode::Multiply, &[rotated, weight]);
                acc = Some(match acc {
                    None => term,
                    Some(a) => p.instruction(Opcode::Add, &[a, term]),
                });
            }
        }
        p.output("out", acc.unwrap(), 30);
        p
    }

    #[test]
    fn stencil_sum_drops_to_baby_and_giant_rotations() {
        let mut p = stencil(64, 16);
        let before = rotation_count(&p);
        assert_eq!(before, 8);
        let eliminated = factor_rotation_sums(&mut p);
        // Babies {1, 2} + giants {16, 32}: four rotations survive.
        assert_eq!(eliminated, 4);
        crate::passes::dce::eliminate_dead_code(&mut p);
        assert_eq!(rotation_count(&p), 4);
        let steps: Vec<i64> = select_rotation_steps(&p);
        assert_eq!(steps, vec![1, 2, 16, 32]);
        assert!(verify_program(&p).is_clean());
    }

    #[test]
    fn factored_sum_is_value_preserving() {
        let reference = stencil(64, 16);
        let mut factored = stencil(64, 16);
        factor_rotation_sums(&mut factored);
        let inputs: HashMap<String, Vec<f64>> = [(
            "x".to_string(),
            (0..64)
                .map(|i| f64::from(i) / 64.0 - 0.5)
                .collect::<Vec<_>>(),
        )]
        .into_iter()
        .collect();
        let expected = eval(&reference, &inputs);
        let actual = eval(&factored, &inputs);
        for (a, b) in actual["out"].iter().zip(&expected["out"]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn shared_rotations_are_left_alone() {
        // rot(x, 1) feeds two different terms: not single-use, no rewrite.
        let mut p = Program::new("shared", 16);
        let x = p.input_cipher("x", 30);
        let r = p.instruction(Opcode::RotateLeft(1), &[x]);
        let c1 = p.constant(ConstantValue::Vector(vec![1.0; 16]), 30);
        let c2 = p.constant(ConstantValue::Vector(vec![2.0; 16]), 30);
        let t1 = p.instruction(Opcode::Multiply, &[r, c1]);
        let t2 = p.instruction(Opcode::Multiply, &[r, c2]);
        let sum = p.instruction(Opcode::Add, &[t1, t2]);
        p.output("out", sum, 30);
        assert_eq!(factor_rotation_sums(&mut p), 0);
    }

    #[test]
    fn small_groups_without_savings_are_left_alone() {
        // Two far-apart steps: any blocking needs two rotations, no win.
        let mut p = Program::new("nogain", 64);
        let x = p.input_cipher("x", 30);
        let mut acc = None;
        for step in [3, 17] {
            let r = p.instruction(Opcode::RotateLeft(step), &[x]);
            let c = p.constant(ConstantValue::Vector(vec![0.5; 64]), 30);
            let t = p.instruction(Opcode::Multiply, &[r, c]);
            acc = Some(match acc {
                None => t,
                Some(a) => p.instruction(Opcode::Add, &[a, t]),
            });
        }
        p.output("out", acc.unwrap(), 30);
        assert_eq!(factor_rotation_sums(&mut p), 0);
    }

    #[test]
    fn scalar_constants_are_reused_not_duplicated() {
        let mut p = Program::new("scalar", 64);
        let x = p.input_cipher("x", 30);
        let c = p.constant(ConstantValue::Scalar(0.25), 30);
        let mut acc = None;
        for step in [1, 2, 3, 16, 17, 18, 32, 33, 34] {
            let r = p.instruction(Opcode::RotateLeft(step), &[x]);
            let t = p.instruction(Opcode::Multiply, &[r, c]);
            acc = Some(match acc {
                None => t,
                Some(a) => p.instruction(Opcode::Add, &[a, t]),
            });
        }
        p.output("out", acc.unwrap(), 30);
        let before = p.len();
        let eliminated = factor_rotation_sums(&mut p);
        assert!(eliminated > 0);
        // No rotated constant copies: the scalar splat is rotation-invariant.
        let constants = (0..p.len())
            .filter(|&id| matches!(p.node(id).kind, NodeKind::Constant { .. }))
            .count();
        assert_eq!(constants, 1);
        assert!(p.len() > before, "new rotation/multiply/add nodes appended");
    }
}
