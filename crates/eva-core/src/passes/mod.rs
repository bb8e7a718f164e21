//! Graph transformation passes (paper Section 5).
//!
//! Each pass is a set of local rewrite rules applied over the term graph in a
//! forward or backward direction. [`GraphEditor`] is the shared rewriting
//! framework: it maintains the use (child) lists incrementally so rules can
//! insert maintenance instructions between a node and (a subset of) its
//! children in O(degree) time.

pub mod cse;
pub mod dce;
pub mod match_scale;
pub mod modswitch;
pub mod relinearize;
pub mod rescale;
pub mod rotation_factor;
pub mod rotation_min;

pub use cse::eliminate_common_subexpressions;
pub use dce::eliminate_dead_code;
pub use match_scale::{apply_exact_scales, insert_match_scale};
pub use modswitch::{insert_eager_modswitch, insert_lazy_modswitch};
pub use relinearize::insert_relinearize;
pub use rescale::{insert_always_rescale, insert_waterline_rescale};
pub use rotation_factor::factor_rotation_sums;
pub use rotation_min::canonicalize_rotations;

use crate::program::{NodeId, Program};
use crate::types::{Opcode, ValueType};

/// A mutable view of a program plus incrementally maintained use lists,
/// shared by all rewrite passes.
#[derive(Debug)]
pub struct GraphEditor<'a> {
    program: &'a mut Program,
    uses: Vec<Vec<NodeId>>,
}

impl<'a> GraphEditor<'a> {
    /// Wraps a program for rewriting.
    pub fn new(program: &'a mut Program) -> Self {
        let uses = program.uses();
        Self { program, uses }
    }

    /// Immutable access to the underlying program.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The nodes currently using `node` as an argument.
    pub fn uses_of(&self, node: NodeId) -> &[NodeId] {
        &self.uses[node]
    }

    /// Inserts a unary maintenance instruction `op` between `node` and the
    /// subset `children` of its users, returning the new node's id. Every
    /// occurrence of `node` in those children's argument lists is redirected.
    pub fn insert_between(&mut self, node: NodeId, op: Opcode, children: &[NodeId]) -> NodeId {
        let ty = self.program.node(node).ty;
        let new_id = self.program.push_instruction(op, vec![node], ty);
        self.uses.push(Vec::new());
        for &child in children {
            self.program.replace_arg(child, node, new_id);
            self.uses[node].retain(|&u| u != child);
            if !self.uses[new_id].contains(&child) {
                self.uses[new_id].push(child);
            }
        }
        self.uses[node].push(new_id);
        new_id
    }

    /// Inserts `op` between `node` and *all* of its current users, including
    /// any program outputs that refer to `node` (the paper models outputs as
    /// leaf children, so they are redirected as well).
    pub fn insert_after_all(&mut self, node: NodeId, op: Opcode) -> NodeId {
        let children = self.uses[node].clone();
        let new_id = self.insert_between(node, op, &children);
        self.program.redirect_outputs(node, new_id);
        new_id
    }

    /// Appends a fresh constant node with an explicit `log2` scale (the exact
    /// match-scale pass needs non-integral deltas).
    pub fn add_constant(&mut self, value: crate::types::ConstantValue, scale_log2: f64) -> NodeId {
        let id = self.program.push_constant(value, scale_log2);
        self.uses.push(Vec::new());
        id
    }

    /// Appends a fresh instruction node with explicit arguments and type,
    /// wiring the use lists.
    pub fn add_instruction(&mut self, op: Opcode, args: Vec<NodeId>, ty: ValueType) -> NodeId {
        let id = self.program.push_instruction(op, args.clone(), ty);
        self.uses.push(Vec::new());
        for arg in args {
            if !self.uses[arg].contains(&id) {
                self.uses[arg].push(id);
            }
        }
        id
    }

    /// Redirects every occurrence of `from` in `child`'s argument list to `to`,
    /// maintaining the use lists.
    pub fn redirect_use(&mut self, child: NodeId, from: NodeId, to: NodeId) {
        self.program.replace_arg(child, from, to);
        self.uses[from].retain(|&u| u != child);
        if !self.uses[to].contains(&child) {
            self.uses[to].push(child);
        }
    }

    /// Redirects only the `index`-th argument of `node` to `new_arg`,
    /// maintaining the use lists.
    pub fn replace_arg_at(&mut self, node: NodeId, index: usize, new_arg: NodeId) {
        let old_arg = self.program.args(node)[index];
        self.program.replace_arg_at(node, index, new_arg);
        // Only drop the use edge if no other argument slot still references the old node.
        if !self.program.args(node).contains(&old_arg) {
            self.uses[old_arg].retain(|&u| u != node);
        }
        if !self.uses[new_arg].contains(&node) {
            self.uses[new_arg].push(node);
        }
    }

    /// Number of nodes currently in the graph.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ConstantValue;

    #[test]
    fn insert_after_all_redirects_every_user() {
        let mut p = Program::new("t", 8);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::Multiply, &[x, x]);
        let b = p.instruction(Opcode::Add, &[a, x]);
        p.output("out", b, 30);
        let mut editor = GraphEditor::new(&mut p);
        let relin = editor.insert_after_all(a, Opcode::Relinearize);
        assert_eq!(editor.program().args(b), &[relin, x]);
        assert_eq!(editor.uses_of(a), &[relin]);
        assert_eq!(editor.uses_of(relin), &[b]);
    }

    #[test]
    fn insert_between_touches_only_selected_children() {
        let mut p = Program::new("t", 8);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::Negate, &[x]);
        let b = p.instruction(Opcode::Negate, &[x]);
        p.output("a", a, 30);
        p.output("b", b, 30);
        let mut editor = GraphEditor::new(&mut p);
        let ms = editor.insert_between(x, Opcode::ModSwitch, &[b]);
        assert_eq!(editor.program().args(a), &[x]);
        assert_eq!(editor.program().args(b), &[ms]);
        assert!(editor.uses_of(x).contains(&a));
        assert!(editor.uses_of(x).contains(&ms));
        assert!(!editor.uses_of(x).contains(&b));
    }

    #[test]
    fn replace_arg_at_keeps_duplicate_uses() {
        let mut p = Program::new("t", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let mut editor = GraphEditor::new(&mut p);
        let c = editor.add_constant(ConstantValue::Scalar(1.0), 10.0);
        let scaled = editor.add_instruction(Opcode::Multiply, vec![x, c], ValueType::Cipher);
        editor.replace_arg_at(sq, 1, scaled);
        assert_eq!(editor.program().args(sq), &[x, scaled]);
        // x is still used by sq (through slot 0) and by the new multiply.
        assert!(editor.uses_of(x).contains(&sq));
        assert!(editor.uses_of(x).contains(&scaled));
    }
}
