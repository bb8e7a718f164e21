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
//!   member of a switch site ([`SwitchSite`]) — every member of the site at
//!   once, because the executor runs a site on one shared decomposition
//!   (one key apply per member). Inputs are bound before execution and
//!   site members reached later already exist, so those steps materialize
//!   nothing;
//! * a step **releases** the parents whose last live consumer it is. A
//!   site's source is therefore released when its last member is *reached*
//!   in topological order, not when the site executes.
//!
//! A **switch site** is every live encrypted key switch of one source
//! value — its RELINEARIZEs and its ROTATEs by a Galois element other than
//! the identity ([`Opcode::switches_key`](crate::Opcode::switches_key))
//! — grouped here once: the executor lifts the source's decomposition once
//! per site and applies each member's key to it, and the cost model prices
//! a site's members after the first as hoisted followers.
//!
//! The memory forecast is that walk with static byte sizes and the cost
//! model reads the step order and the sites. The executor — one scheduler,
//! on the calling thread or on workers — seeds its dependence and use
//! counters from the per-node tables and its sites from the site list, and
//! runs ready nodes first in, first out, so even on one thread its order
//! need not be the step order.
//!
//! Lowering is a single `O(nodes + edges)` pass next to kernels that take
//! tens of microseconds to milliseconds per node, so a schedule is built
//! per call and never cached: there is no plan object to keep in sync with
//! a program and no second entry point that takes one.

use std::collections::BTreeMap;

use crate::error::EvaError;
use crate::program::{NodeId, NodeKind, Program};

use super::scale::acyclic_order;

/// The live encrypted key switches of one source value (see the module
/// docs), run on one shared decomposition of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSite {
    /// The node whose value every member switches.
    pub source: NodeId,
    /// The member nodes, in ascending node order.
    pub members: Vec<NodeId>,
}

/// Groups every live, cipher-typed key switch by its source node: the
/// sites in ascending source order, and per node the index of the site it
/// is a member of.
fn switch_sites(
    program: &Program,
    live: &[bool],
    slots: usize,
) -> (Vec<SwitchSite>, Vec<Option<usize>>) {
    let mut by_source: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for id in 0..program.len() {
        let switches = program.opcode(id).is_some_and(|op| op.switches_key(slots));
        if live[id] && switches && program.node(id).ty.is_cipher() {
            by_source.entry(program.args(id)[0]).or_default().push(id);
        }
    }
    let mut site_of = vec![None; program.len()];
    let sites = by_source
        .into_iter()
        .enumerate()
        .map(|(s, (source, members))| {
            for &member in &members {
                site_of[member] = Some(s);
            }
            SwitchSite { source, members }
        })
        .collect();
    (sites, site_of)
}

/// One live node of the serial execution order, with the values that appear
/// and disappear around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The node this step reaches.
    pub node: NodeId,
    /// Values that come into existence at this step: `[node]`, every
    /// member of the node's switch site (ascending node order) when it is
    /// the first member reached, or nothing for inputs and for site members
    /// reached later.
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
    /// Every switch site, sites of one member included, in ascending source
    /// order.
    pub sites: Vec<SwitchSite>,
    /// Per node: the index into [`Schedule::sites`] of the site it is a
    /// member of, if it switches a key.
    pub site_of: Vec<Option<usize>>,
}

impl Schedule {
    /// Lowers `program` into its execution schedule in a ring of `slots`
    /// slots, which decides the rotations that switch no key.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::InvalidProgram`] if the graph has a cycle.
    pub fn new(program: &Program, slots: usize) -> Result<Self, EvaError> {
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
        let (sites, site_of) = switch_sites(program, &live, slots);

        let mut parent_counts = vec![0usize; program.len()];
        let mut remaining = use_counts.clone();
        let mut site_reached = vec![false; sites.len()];
        let mut steps = Vec::new();
        for id in order.into_iter().filter(|&id| live[id]) {
            // The first-reached member of a site materializes every member.
            let materializes = match site_of[id] {
                _ if matches!(program.node(id).kind, NodeKind::Input { .. }) => Vec::new(),
                None => vec![id],
                Some(s) if !std::mem::replace(&mut site_reached[s], true) => {
                    sites[s].members.clone()
                }
                Some(_) => Vec::new(),
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
            sites,
            site_of,
        })
    }

    /// Whether `id` is a **hoisted follower**: a member of a switch site
    /// other than its first, which pays only the per-key apply against the
    /// site's shared decomposition.
    pub fn is_hoisted_follower(&self, id: NodeId) -> bool {
        self.site_of[id].is_some_and(|s| self.sites[s].members[0] != id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Opcode;

    /// The slot count of every test ring: above every step the tests use.
    const SLOTS: usize = 1 << 14;

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
        let s = Schedule::new(&mixed(), SLOTS).unwrap();
        assert_eq!(
            s.steps,
            vec![
                step(0, &[], &[]),
                // x * x waits for one distinct parent and releases x.
                step(1, &[1], &[0]),
                // First member reached: the whole site appears.
                step(2, &[2, 3, 4], &[]),
                step(3, &[], &[]),
                step(4, &[], &[]),
                // sq outlives the site's execution: it goes when its last
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
        let s = Schedule::new(&mixed(), SLOTS).unwrap();
        assert_eq!(s.consumers[1], vec![2, 3, 4, 5], "dead node 8 is dropped");
        assert_eq!(s.use_counts[..8], [1, 4, 1, 1, 1, 1, 1, 2]);
        assert_eq!(s.use_counts[8..], [0, 0, 0]);
        assert_eq!(s.parent_counts[..8], [0, 1, 1, 1, 1, 2, 2, 2]);
        let site = SwitchSite {
            source: 1,
            members: vec![2, 3, 4],
        };
        assert_eq!(s.sites, vec![site]);
        assert_eq!(s.site_of[2..5], [Some(0); 3]);
        assert!(s.site_of[8].is_none(), "dead rotations join no site");
        assert!(!s.is_hoisted_follower(2));
        assert!(s.is_hoisted_follower(3) && s.is_hoisted_follower(4));
        assert!(!s.is_hoisted_follower(5));
    }

    #[test]
    fn every_live_key_switch_is_in_exactly_one_site() {
        let mut p = Program::new("sites", 16);
        let x = p.input_cipher("x", 30); // 0
        let sq = p.instruction(Opcode::Multiply, &[x, x]); // 1
        let relin = p.instruction(Opcode::Relinearize, &[sq]); // 2
        let lone = p.instruction(Opcode::RotateLeft(1), &[x]); // 3
        let f1 = p.instruction(Opcode::RotateLeft(1), &[relin]); // 4
        let f2 = p.instruction(Opcode::RotateLeft(2), &[relin]); // 5
        let f3 = p.instruction(Opcode::RotateRight(3), &[relin]); // 6
        let identity = p.instruction(Opcode::RotateLeft(0), &[relin]); // 7
        let dead = p.instruction(Opcode::RotateLeft(5), &[x]); // 8
        let a = p.instruction(Opcode::Add, &[lone, f1]);
        let b = p.instruction(Opcode::Add, &[f2, f3]);
        let c = p.instruction(Opcode::Add, &[a, b]);
        let d = p.instruction(Opcode::Add, &[c, identity]);
        p.output("out", d, 30);
        let s = Schedule::new(&p, SLOTS).unwrap();

        let switches = [relin, lone, f1, f2, f3];
        for id in 0..p.len() {
            let containing = s.sites.iter().filter(|site| site.members.contains(&id));
            let expected = usize::from(switches.contains(&id));
            assert_eq!(containing.count(), expected, "node {id}");
            assert_eq!(s.site_of[id].is_some(), switches.contains(&id), "node {id}");
        }
        for site in &s.sites {
            assert!(site.members.iter().all(|&m| p.args(m) == [site.source]));
            assert!(site.members.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(s.site_of[identity].is_none() && s.site_of[dead].is_none());
        assert_eq!(s.sites[s.site_of[relin].unwrap()].members, vec![relin]);
        assert_eq!(s.sites[s.site_of[lone].unwrap()].members, vec![lone]);
        assert_eq!(s.sites[s.site_of[f1].unwrap()].members, vec![f1, f2, f3]);
        let followers: Vec<NodeId> = (0..p.len())
            .filter(|&id| s.is_hoisted_follower(id))
            .collect();
        assert_eq!(followers, vec![f2, f3]);
    }

    #[test]
    fn constants_materialize_at_their_own_step() {
        let mut p = Program::new("consts", 8);
        let x = p.input_cipher("x", 30);
        let c = p.constant(crate::types::ConstantValue::Scalar(2.0), 20);
        let m = p.instruction(Opcode::Multiply, &[x, c]);
        p.output("out", m, 30);
        let s = Schedule::new(&p, SLOTS).unwrap();
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
            Schedule::new(&p, SLOTS),
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

    fn sites(p: &Program) -> Vec<SwitchSite> {
        Schedule::new(p, SLOTS).unwrap().sites
    }

    /// The signed step of each of `site`'s members.
    fn steps(p: &Program, site: &SwitchSite) -> Vec<i64> {
        let step = |&m: &NodeId| p.opcode(m).and_then(Opcode::rotation_step);
        site.members
            .iter()
            .map(step)
            .collect::<Option<_>>()
            .unwrap()
    }

    #[test]
    fn groups_same_source_rotations() {
        let (p, x) = fanout_program(&[1, 2, 16, 17, 18, 32, 33, 34]);
        let sites = sites(&p);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].source, x);
        assert_eq!(steps(&p, &sites[0]), vec![1, 2, 16, 17, 18, 32, 33, 34]);
    }

    #[test]
    fn lone_rotations_and_identities_form_no_group() {
        let mut p = Program::new("lone", 16);
        let x = p.input_cipher("x", 30);
        let r = p.instruction(Opcode::RotateLeft(1), &[x]);
        let z = p.instruction(Opcode::RotateLeft(0), &[x]);
        let s = p.instruction(Opcode::Add, &[r, z]);
        // Rotations by a multiple of the slot count are identities too.
        let whole = p.instruction(Opcode::RotateRight(2 * SLOTS as i32), &[s]);
        let back = p.instruction(Opcode::RotateLeft(SLOTS as i32), &[whole]);
        p.output("out", back, 30);
        // The lone rotation is a site of one; the identities are clones and
        // join none.
        let site = SwitchSite {
            source: x,
            members: vec![r],
        };
        assert_eq!(sites(&p), vec![site]);
    }

    #[test]
    fn dead_rotations_are_not_grouped() {
        let mut p = Program::new("dead", 16);
        let x = p.input_cipher("x", 30);
        let live = p.instruction(Opcode::RotateLeft(1), &[x]);
        let _dead_a = p.instruction(Opcode::RotateLeft(2), &[x]);
        let _dead_b = p.instruction(Opcode::RotateLeft(3), &[x]);
        p.output("out", live, 30);
        let site = SwitchSite {
            source: x,
            members: vec![live],
        };
        assert_eq!(sites(&p), vec![site]);
    }

    #[test]
    fn right_rotations_group_with_signed_steps() {
        let mut p = Program::new("signed", 16);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(1), &[x]);
        let b = p.instruction(Opcode::RotateRight(2), &[x]);
        let s = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", s, 30);
        let sites = sites(&p);
        assert_eq!(sites.len(), 1);
        assert_eq!(steps(&p, &sites[0]), vec![1, -2]);
    }
}
