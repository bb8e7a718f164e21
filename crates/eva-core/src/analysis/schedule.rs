//! The execution schedule: the one lowering of a program that the
//! executor, the peak-memory forecast and the cost model read.
//!
//! The paper's executor (Section 6.1) is one rule — visit the DAG in
//! dependence order, run a node once its parents are done, free a value
//! once its last consumer has run. [`Schedule::new`] applies that rule once,
//! over the program's topological order, use lists ([`Program::uses`]) and
//! live set ([`Program::live_mask`]), and records the result as a list of
//! [`Step`]s in serial execution order:
//!
//! * a step **materializes** the values that come into existence when its
//!   node is reached: the node's own value, or — for the first-reached
//!   member of a rotation fan-out ([`RotationFanout`]) — every member
//!   of the group at once, because the executor runs the group hoisted
//!   (one shared decomposition, one key apply per member). Inputs are bound
//!   before execution and fan-out members reached later already exist, so
//!   those steps materialize nothing;
//! * a step **releases** the parents whose last live consumer it is. A
//!   fan-out source is therefore released when its last member is *reached*
//!   in topological order, not when the group executes.
//!
//! The memory forecast is that walk with static byte sizes and the cost
//! model reads the step order and the fan-out followers. The executor —
//! one scheduler, on the calling thread or on workers — seeds its
//! dependence and use counters from the per-node tables and runs ready
//! nodes first in, first out, so even on one thread its order need not be
//! the step order.
//!
//! Lowering is a single `O(nodes + edges)` pass next to kernels that take
//! tens of microseconds to milliseconds per node, so a schedule is built
//! per call and never cached: there is no plan object to keep in sync with
//! a program and no second entry point that takes one.

use std::collections::BTreeMap;

use crate::error::EvaError;
use crate::program::{NodeId, NodeKind, Program};
use crate::types::Opcode;

use super::scale::acyclic_order;

/// A group of live cipher rotations sharing one source ciphertext, executed
/// hoisted: one shared decomposition, one key apply per member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationFanout {
    /// The shared source node every member rotates.
    pub source: NodeId,
    /// The member rotation nodes with their signed left-rotation steps,
    /// in ascending node order.
    pub members: Vec<(NodeId, i64)>,
}

/// Groups live, cipher-typed, non-identity rotations by their source node,
/// returning every group with at least two members in ascending source
/// order (members in ascending node order). Zero-step rotations are clones
/// in the evaluator and perform no key switch, so they never join a group.
fn group_rotation_fanouts(program: &Program, live: &[bool]) -> Vec<RotationFanout> {
    let mut groups: BTreeMap<NodeId, Vec<(NodeId, i64)>> = BTreeMap::new();
    for id in 0..program.len() {
        if !live[id] || !program.node(id).ty.is_cipher() {
            continue;
        }
        let step = program.opcode(id).and_then(Opcode::rotation_step);
        if let Some(step) = step.filter(|&s| s != 0) {
            let source = program.args(id)[0];
            groups.entry(source).or_default().push((id, step));
        }
    }
    groups
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .map(|(source, members)| RotationFanout { source, members })
        .collect()
}

/// One live node of the serial execution order, with the values that appear
/// and disappear around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The node this step reaches.
    pub node: NodeId,
    /// Values that come into existence at this step: `[node]`, every
    /// member of the node's rotation fan-out (ascending node order) when it
    /// is the first member reached, or nothing for inputs and for fan-out
    /// members reached later.
    pub materializes: Vec<NodeId>,
    /// Values whose last live consumer is this step, dropped once it has
    /// run (ascending node order). Output nodes are never released.
    pub releases: Vec<NodeId>,
}

/// The lowered execution order of one program (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Every live node exactly once, parents before children.
    pub steps: Vec<Step>,
    /// The live input nodes — the values that must be bound before
    /// execution — in ascending node order.
    pub inputs: Vec<NodeId>,
    /// Per node: its live consumers, each listed once.
    pub consumers: Vec<Vec<NodeId>>,
    /// Per live node: how many distinct parents it waits for.
    pub parent_counts: Vec<usize>,
    /// Per node: live consumers plus one per program output naming it; the
    /// value is released when this many consumers have run, so an output
    /// survives to decryption.
    pub use_counts: Vec<usize>,
    /// Rotation fan-outs: two or more live cipher rotations of one source,
    /// executed hoisted. The first member (lowest node id) pays the shared
    /// decomposition in the cost model; the rest are followers.
    pub fanouts: Vec<RotationFanout>,
    /// Per node: the index into [`Schedule::fanouts`] of the group it is a
    /// member of, if any.
    pub group_of: Vec<Option<u32>>,
}

impl Schedule {
    /// Lowers `program` into its execution schedule.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::InvalidProgram`] if the graph has a cycle.
    pub fn new(program: &Program) -> Result<Self, EvaError> {
        let order = acyclic_order(program)?;
        let live = program.live_mask();
        let consumers: Vec<Vec<NodeId>> = program
            .uses()
            .into_iter()
            .map(|users| users.into_iter().filter(|&c| live[c]).collect())
            .collect();
        let mut use_counts: Vec<usize> = consumers.iter().map(Vec::len).collect();
        for output in program.outputs() {
            use_counts[output.node] += 1;
        }

        let fanouts = group_rotation_fanouts(program, &live);
        let mut group_of = vec![None; program.len()];
        for (g, fanout) in fanouts.iter().enumerate() {
            for &(member, _) in &fanout.members {
                group_of[member] = Some(g as u32);
            }
        }

        let mut parent_counts = vec![0usize; program.len()];
        let mut remaining = use_counts.clone();
        let mut group_done = vec![false; fanouts.len()];
        let mut steps = Vec::new();
        for id in order.into_iter().filter(|&id| live[id]) {
            let materializes = match group_of[id] {
                _ if matches!(program.node(id).kind, NodeKind::Input { .. }) => Vec::new(),
                None => vec![id],
                Some(g) => {
                    let first_reached = !std::mem::replace(&mut group_done[g as usize], true);
                    let members = fanouts[g as usize].members.iter().map(|&(m, _)| m);
                    members.filter(|_| first_reached).collect()
                }
            };
            let mut parents = program.args(id).to_vec();
            parents.sort_unstable();
            parents.dedup();
            parent_counts[id] = parents.len();
            // `id` is one of the `remaining[a]` live consumers counted
            // above for each of its distinct parents, so this cannot
            // underflow.
            parents.retain(|&a| {
                remaining[a] -= 1;
                remaining[a] == 0
            });
            steps.push(Step {
                node: id,
                materializes,
                releases: parents,
            });
        }
        let inputs = (0..program.len())
            .filter(|&id| live[id] && matches!(program.node(id).kind, NodeKind::Input { .. }))
            .collect();
        Ok(Self {
            steps,
            inputs,
            consumers,
            parent_counts,
            use_counts,
            fanouts,
            group_of,
        })
    }

    /// Whether `id` is a fan-out **follower**: a group member other than the
    /// first, which pays only the per-key apply against the group's shared
    /// decomposition.
    pub fn is_fanout_follower(&self, id: NodeId) -> bool {
        self.group_of[id].is_some_and(|g| self.fanouts[g as usize].members[0].0 != id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-way rotation fan-out whose source also feeds an ADD, a
    /// duplicate-argument node, a dead branch and two outputs sharing a node.
    fn mixed() -> Program {
        let mut p = Program::new("mixed", 16);
        let x = p.input_cipher("x", 30); // 0
        let sq = p.instruction(Opcode::Multiply, &[x, x]); // 1
        let r1 = p.instruction(Opcode::RotateLeft(1), &[sq]); // 2
        let r2 = p.instruction(Opcode::RotateLeft(2), &[sq]); // 3
        let r3 = p.instruction(Opcode::RotateRight(3), &[sq]); // 4
        let a = p.instruction(Opcode::Add, &[sq, r1]); // 5
        let b = p.instruction(Opcode::Add, &[r2, r3]); // 6
        let c = p.instruction(Opcode::Add, &[a, b]); // 7
        let dead = p.instruction(Opcode::RotateLeft(5), &[sq]); // 8
        let _dead2 = p.instruction(Opcode::Negate, &[dead]); // 9
        let _unused = p.input_cipher("unused", 30); // 10
        p.output("first", c, 30);
        p.output("second", c, 30);
        p
    }

    fn step(node: NodeId, materializes: &[NodeId], releases: &[NodeId]) -> Step {
        Step {
            node,
            materializes: materializes.to_vec(),
            releases: releases.to_vec(),
        }
    }

    #[test]
    fn steps_materialize_groups_once_and_release_after_the_last_consumer() {
        let s = Schedule::new(&mixed()).unwrap();
        assert_eq!(
            s.steps,
            vec![
                step(0, &[], &[]),
                // x * x waits for one distinct parent and releases x.
                step(1, &[1], &[0]),
                // First member reached: the whole fan-out appears.
                step(2, &[2, 3, 4], &[]),
                step(3, &[], &[]),
                step(4, &[], &[]),
                // sq outlives the group's execution: it goes when its last
                // live consumer, this ADD, has run; the dead rotation does
                // not hold it.
                step(5, &[5], &[1, 2]),
                step(6, &[6], &[3, 4]),
                // Both outputs name node 7, so it is never released.
                step(7, &[7], &[5, 6]),
            ]
        );
        assert_eq!(s.inputs, vec![0], "the dead input is never bound");
    }

    #[test]
    fn tables_count_live_consumers_distinct_parents_and_output_references() {
        let s = Schedule::new(&mixed()).unwrap();
        assert_eq!(s.consumers[1], vec![2, 3, 4, 5], "dead node 8 is dropped");
        assert_eq!(s.use_counts[..8], [1, 4, 1, 1, 1, 1, 1, 2]);
        assert_eq!(s.use_counts[8..], [0, 0, 0]);
        assert_eq!(s.parent_counts[..8], [0, 1, 1, 1, 1, 2, 2, 2]);
        assert_eq!(s.fanouts.len(), 1);
        assert_eq!(s.fanouts[0].source, 1);
        assert_eq!(s.fanouts[0].members, vec![(2, 1), (3, 2), (4, -3)]);
        assert_eq!(s.group_of[2..5], [Some(0); 3]);
        assert!(s.group_of[8].is_none(), "dead rotations join no group");
        assert!(!s.is_fanout_follower(2));
        assert!(s.is_fanout_follower(3) && s.is_fanout_follower(4));
        assert!(!s.is_fanout_follower(5));
    }

    #[test]
    fn constants_materialize_at_their_own_step() {
        let mut p = Program::new("consts", 8);
        let x = p.input_cipher("x", 30);
        let c = p.constant(crate::types::ConstantValue::Scalar(2.0), 20);
        let m = p.instruction(Opcode::Multiply, &[x, c]);
        p.output("out", m, 30);
        let s = Schedule::new(&p).unwrap();
        assert_eq!(
            s.steps,
            vec![
                step(0, &[], &[]),
                step(1, &[1], &[]),
                step(2, &[2], &[0, 1])
            ]
        );
    }

    #[test]
    fn a_cyclic_program_is_an_error_not_a_panic() {
        let mut p = mixed();
        // sq's argument becomes its own descendant.
        p.replace_arg(1, 0, 7);
        assert!(matches!(
            Schedule::new(&p),
            Err(EvaError::InvalidProgram(_))
        ));
    }

    /// A summed rotation fan-out of `steps` from a single source.
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

    fn fanouts(p: &Program) -> Vec<RotationFanout> {
        group_rotation_fanouts(p, &p.live_mask())
    }

    #[test]
    fn groups_same_source_rotations() {
        let (p, x) = fanout_program(&[1, 2, 16, 17, 18, 32, 33, 34]);
        let groups = fanouts(&p);
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
        assert!(fanouts(&p).is_empty());
    }

    #[test]
    fn dead_rotations_are_not_grouped() {
        let mut p = Program::new("dead", 16);
        let x = p.input_cipher("x", 30);
        let live = p.instruction(Opcode::RotateLeft(1), &[x]);
        let _dead_a = p.instruction(Opcode::RotateLeft(2), &[x]);
        let _dead_b = p.instruction(Opcode::RotateLeft(3), &[x]);
        p.output("out", live, 30);
        assert!(fanouts(&p).is_empty());
    }

    #[test]
    fn right_rotations_group_with_signed_steps() {
        let mut p = Program::new("signed", 16);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(1), &[x]);
        let b = p.instruction(Opcode::RotateRight(2), &[x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", s, 30);
        let groups = fanouts(&p);
        assert_eq!(groups.len(), 1);
        let steps: Vec<i64> = groups[0].members.iter().map(|&(_, s)| s).collect();
        assert_eq!(steps, vec![1, -2]);
    }
}
