//! The EVA program representation: a directed acyclic graph of typed nodes
//! (paper Section 3), together with the traversal helpers the compiler's
//! analysis and rewriting frameworks are built on (Sections 5.1 and 6.1).

use crate::types::{ConstantValue, Opcode, ValueType};

/// Identifier of a node inside a [`Program`].
pub type NodeId = usize;

/// What a node represents: a runtime input, a compile-time constant, or an
/// instruction computing a new value from its parents.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A value only available at run time.
    Input {
        /// Name used to bind the value at execution time.
        name: String,
    },
    /// A value available at compile time (any type except `Cipher`).
    Constant {
        /// The constant payload.
        value: ConstantValue,
    },
    /// An instruction node computing a value from its parameters.
    Instruction {
        /// The operation performed at this node.
        op: Opcode,
        /// Parameter nodes, in argument order (the paper's `n.parms`).
        args: Vec<NodeId>,
    },
}

/// One node of the program graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// What the node is.
    pub kind: NodeKind,
    /// The EVA type of the value produced at this node.
    pub ty: ValueType,
    /// `log2` of the node's fixed-point scale, tracked exactly as an `f64`.
    ///
    /// For inputs and constants this starts as the programmer-provided
    /// annotation (an integral number of bits); for instructions it is filled
    /// in by scale analysis and is `0` until then. After parameter selection
    /// the second (exact) scale pass re-annotates every cipher node with the
    /// scale the executor will actually observe — a non-integral value once a
    /// RESCALE has divided by a real prime `q ≈ 2^s` (see
    /// [`crate::analysis::scale`] for the two-phase pipeline).
    pub scale_log2: f64,
}

/// A named program output (a leaf of the graph).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputInfo {
    /// Output name.
    pub name: String,
    /// Node whose value is returned.
    pub node: NodeId,
    /// Desired fixed-point scale of the output (`log2`, integral annotation).
    pub scale_log2: f64,
}

/// An EVA program: the tuple `(M, Insts, Consts, Inputs, Outputs)` of the
/// paper, represented as one node table plus an output list.
///
/// Nodes are stored in creation order and arguments always refer to
/// previously created nodes, so the node id order is a topological order of
/// the DAG. Compiler passes that insert nodes keep this invariant by visiting
/// an explicit topological ordering instead of raw ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    vec_size: usize,
    nodes: Vec<Node>,
    outputs: Vec<OutputInfo>,
}

impl Program {
    /// Creates an empty program operating on vectors of `vec_size` elements.
    ///
    /// # Panics
    ///
    /// Panics if `vec_size` is not a power of two (paper Section 3 requires
    /// power-of-two vector sizes so rotation semantics are well defined).
    pub fn new(name: impl Into<String>, vec_size: usize) -> Self {
        assert!(
            vec_size >= 1 && vec_size.is_power_of_two(),
            "vector size {vec_size} must be a power of two"
        );
        Self {
            name: name.into(),
            vec_size,
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fixed vector length of all `Cipher`/`Vector` values in the program.
    pub fn vec_size(&self) -> usize {
        self.vec_size
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A single node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The declared outputs.
    pub fn outputs(&self) -> &[OutputInfo] {
        &self.outputs
    }

    /// Adds a `Cipher` input with the given fixed-point scale (in bits).
    pub fn input_cipher(&mut self, name: impl Into<String>, scale_bits: u32) -> NodeId {
        self.push_input(name, ValueType::Cipher, f64::from(scale_bits))
    }

    /// Adds a plaintext `Vector` input with the given scale.
    pub fn input_vector(&mut self, name: impl Into<String>, scale_bits: u32) -> NodeId {
        self.push_input(name, ValueType::Vector, f64::from(scale_bits))
    }

    /// Adds a plaintext `Scalar` input with the given scale.
    pub fn input_scalar(&mut self, name: impl Into<String>, scale_bits: u32) -> NodeId {
        self.push_input(name, ValueType::Scalar, f64::from(scale_bits))
    }

    /// Adds an input of the given type with an explicit `log2` scale.
    /// Used by deserialization, which must round-trip exact (non-integral)
    /// scales of already-compiled programs.
    pub(crate) fn push_input(
        &mut self,
        name: impl Into<String>,
        ty: ValueType,
        scale_log2: f64,
    ) -> NodeId {
        self.push(Node {
            kind: NodeKind::Input { name: name.into() },
            ty,
            scale_log2,
        })
    }

    /// Adds a compile-time constant with the given scale.
    ///
    /// # Panics
    ///
    /// Panics if a `Vector` constant is longer than the program vector size.
    pub fn constant(&mut self, value: ConstantValue, scale_bits: u32) -> NodeId {
        if let ConstantValue::Vector(v) = &value {
            assert!(
                v.len() <= self.vec_size,
                "constant vector of length {} exceeds program vector size {}",
                v.len(),
                self.vec_size
            );
        }
        self.push_constant(value, f64::from(scale_bits))
    }

    /// Adds an instruction node.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the opcode arity or an
    /// argument id is out of range.
    pub fn instruction(&mut self, op: Opcode, args: &[NodeId]) -> NodeId {
        assert_eq!(
            args.len(),
            op.arity(),
            "opcode {op} expects {} arguments, got {}",
            op.arity(),
            args.len()
        );
        for &arg in args {
            assert!(arg < self.nodes.len(), "argument {arg} is not a valid node");
        }
        let ty = if args.iter().any(|&a| self.nodes[a].ty.is_cipher()) {
            ValueType::Cipher
        } else {
            ValueType::Vector
        };
        self.push(Node {
            kind: NodeKind::Instruction {
                op,
                args: args.to_vec(),
            },
            ty,
            scale_log2: 0.0,
        })
    }

    /// Marks `node` as a program output with the given name and desired scale.
    pub fn output(&mut self, name: impl Into<String>, node: NodeId, scale_bits: u32) {
        self.push_output(name, node, f64::from(scale_bits));
    }

    /// Marks `node` as a program output with an explicit `log2` scale
    /// (deserialization round-trips exact scales through this).
    pub(crate) fn push_output(&mut self, name: impl Into<String>, node: NodeId, scale_log2: f64) {
        assert!(node < self.nodes.len(), "output node {node} does not exist");
        self.outputs.push(OutputInfo {
            name: name.into(),
            node,
            scale_log2,
        });
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        id
    }

    /// The argument list of a node (empty for inputs and constants).
    pub fn args(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id].kind {
            NodeKind::Instruction { args, .. } => args,
            _ => &[],
        }
    }

    /// The Cipher-typed operands of a node, in argument order.
    pub(crate) fn cipher_args(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.args(id)
            .iter()
            .copied()
            .filter(|&arg| self.nodes[arg].ty.is_cipher())
    }

    /// The opcode of a node, if it is an instruction.
    pub fn opcode(&self, id: NodeId) -> Option<Opcode> {
        match &self.nodes[id].kind {
            NodeKind::Instruction { op, .. } => Some(*op),
            _ => None,
        }
    }

    /// Whether the node is a root (no parents) of `Cipher` type — the paper's
    /// Definition 1.
    pub fn is_cipher_root(&self, id: NodeId) -> bool {
        self.args(id).is_empty() && self.nodes[id].ty.is_cipher()
    }

    /// Computes, for every node, the list of nodes that use it as an argument
    /// (its children in the graph sense).
    pub fn uses(&self) -> Vec<Vec<NodeId>> {
        let mut uses: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            if let NodeKind::Instruction { args, .. } = &node.kind {
                for &arg in args {
                    // A node that uses the same argument twice (x * x) is listed once.
                    if uses[arg].last() != Some(&id) {
                        uses[arg].push(id);
                    }
                }
            }
        }
        uses
    }

    /// A topological ordering of all nodes (parents before children),
    /// computed with Kahn's algorithm: the ready queue is seeded in ascending
    /// node id and drained first in, first out.
    ///
    /// Node ids are already topologically ordered for programs built through
    /// this API, but compiler passes append nodes out of order and decoded or
    /// hand-mutated programs may not be acyclic at all, so the ordering is
    /// computed from the edges and never assumed.
    ///
    /// # Errors
    ///
    /// Returns the ids of the nodes stuck on (or behind) a cycle, in
    /// ascending order, when the graph is not a DAG.
    pub fn topological_order(&self) -> Result<Vec<NodeId>, Vec<NodeId>> {
        let mut in_degree: Vec<usize> = self
            .nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Instruction { args, .. } => {
                    // Count distinct parents so it matches the deduplicated use lists.
                    let mut distinct: Vec<NodeId> = args.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    distinct.len()
                }
                _ => 0,
            })
            .collect();
        let uses = self.uses();
        let mut queue: std::collections::VecDeque<NodeId> = (0..self.nodes.len())
            .filter(|&id| in_degree[id] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &user in &uses[id] {
                in_degree[user] -= 1;
                if in_degree[user] == 0 {
                    queue.push_back(user);
                }
            }
        }
        if order.len() < self.nodes.len() {
            // A node never reached still waits for a parent.
            return Err((0..self.nodes.len())
                .filter(|&id| in_degree[id] > 0)
                .collect());
        }
        Ok(order)
    }

    /// Returns, for every node, whether it can reach a program output (is
    /// *live*). Dead nodes are never executed and are skipped by the
    /// exact-scale phase: parameter selection budgets the prime chain from
    /// the outputs, so a dead branch may consume more rescales than the
    /// chain provides without affecting any observable value.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for output in &self.outputs {
            if !live[output.node] {
                live[output.node] = true;
                stack.push(output.node);
            }
        }
        while let Some(id) = stack.pop() {
            for &arg in self.args(id) {
                if !live[arg] {
                    live[arg] = true;
                    stack.push(arg);
                }
            }
        }
        live
    }

    /// Multiplicative depth of the program: the maximum number of MULTIPLY
    /// nodes on any root-to-output path (paper Section 2.2).
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle, which has no depth.
    pub fn multiplicative_depth(&self) -> usize {
        let order = self
            .topological_order()
            .expect("the multiplicative depth needs an acyclic program graph");
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max_depth = 0;
        for id in order {
            let is_multiply = matches!(self.opcode(id), Some(Opcode::Multiply));
            let parent_max = self.args(id).iter().map(|&a| depth[a]).max().unwrap_or(0);
            depth[id] = parent_max + usize::from(is_multiply);
            max_depth = max_depth.max(depth[id]);
        }
        max_depth
    }

    /// Renders the program graph in Graphviz DOT syntax (mirroring PyEVA's
    /// `to_DOT`), one box per node labelled with its id, operation, type and
    /// `log2` scale, plus double-octagon sinks for the named outputs.
    ///
    /// Pipe the result through `dot -Tsvg` to visualise what the compiler
    /// passes did to a program. For a dump annotated with levels and noise
    /// budgets, see
    /// [`CompiledProgram::to_dot`](crate::CompiledProgram::to_dot).
    ///
    /// ```
    /// use eva_core::{Opcode, Program};
    ///
    /// let mut p = Program::new("square", 8);
    /// let x = p.input_cipher("x", 30);
    /// let sq = p.instruction(Opcode::Multiply, &[x, x]);
    /// p.output("out", sq, 30);
    /// let dot = p.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("multiply"));
    /// ```
    pub fn to_dot(&self) -> String {
        self.to_dot_with(|_| String::new())
    }

    /// [`Program::to_dot`] with a caller-supplied annotation appended to each
    /// node's label (the string is inserted verbatim into the DOT label, so
    /// use `\n` as `\\n`). The compiler uses this to attach levels and noise
    /// budgets to the dump.
    pub fn to_dot_with(&self, annotate: impl Fn(NodeId) -> String) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut dot = String::new();
        dot.push_str(&format!("digraph \"{}\" {{\n", escape(&self.name)));
        dot.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
        for (id, node) in self.nodes.iter().enumerate() {
            let (head, shape) = match &node.kind {
                NodeKind::Input { name } => (format!("input \\\"{}\\\"", escape(name)), "house"),
                NodeKind::Constant { .. } => ("const".to_string(), "ellipse"),
                NodeKind::Instruction { op, .. } => (op.to_string(), "box"),
            };
            dot.push_str(&format!(
                "  n{id} [shape={shape}, label=\"%{id} {head}\\n{:?} @2^{}{}\"];\n",
                node.ty,
                node.scale_log2,
                annotate(id)
            ));
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if let NodeKind::Instruction { args, .. } = &node.kind {
                for &arg in args {
                    dot.push_str(&format!("  n{arg} -> n{id};\n"));
                }
            }
        }
        for (i, output) in self.outputs.iter().enumerate() {
            dot.push_str(&format!(
                "  out{i} [shape=doubleoctagon, label=\"{} @2^{}\"];\n  n{} -> out{i};\n",
                escape(&output.name),
                output.scale_log2,
                output.node
            ));
        }
        dot.push_str("}\n");
        dot
    }

    /// Counts nodes per opcode, used by reports and tests.
    pub fn opcode_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut histogram = std::collections::BTreeMap::new();
        for node in &self.nodes {
            if let NodeKind::Instruction { op, .. } = &node.kind {
                *histogram.entry(op.mnemonic()).or_insert(0) += 1;
            }
        }
        histogram
    }

    // ----- graph surgery -------------------------------------------------
    //
    // Unchecked mutators used by the compiler's rewriting framework. They are
    // public because tests and mutation corpora deliberately use them to
    // construct *invalid* programs — nothing here maintains the invariants the
    // [`crate::analysis::verifier`] checks, and a program mutated through
    // these must be re-verified before execution.

    /// Appends a new instruction node without arity or type checking (the
    /// rewriting framework constructs maintenance instructions; mutation
    /// corpora construct deliberately broken ones). The new node's scale
    /// annotation starts at `2^0`.
    pub fn push_instruction(&mut self, op: Opcode, args: Vec<NodeId>, ty: ValueType) -> NodeId {
        self.push(Node {
            kind: NodeKind::Instruction { op, args },
            ty,
            scale_log2: 0.0,
        })
    }

    /// Appends a new constant node with an explicit `log2` scale (the exact
    /// match-scale pass inserts constants with tiny non-integral scales).
    pub(crate) fn push_constant(&mut self, value: ConstantValue, scale_log2: f64) -> NodeId {
        let ty = value.value_type();
        self.push(Node {
            kind: NodeKind::Constant { value },
            ty,
            scale_log2,
        })
    }

    /// Appends an already-built node verbatim, preserving its exact scale
    /// annotation. Dead-code elimination rebuilds programs through this so
    /// exact (non-integral) scales stamped by the compiler survive the copy.
    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        self.push(node)
    }

    /// Rewrites the opcode and argument list of an existing instruction node
    /// in place, without re-checking any invariant. Rotation-set minimization
    /// uses this to re-parent rotations onto each other; the per-pass
    /// verifier run in `compile()` guards the result.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an instruction.
    pub(crate) fn replace_instruction(&mut self, node: NodeId, op: Opcode, args: Vec<NodeId>) {
        match &mut self.nodes[node].kind {
            NodeKind::Instruction {
                op: slot_op,
                args: slot_args,
            } => {
                *slot_op = op;
                *slot_args = args;
            }
            other => panic!("node %{node} is not an instruction: {other:?}"),
        }
    }

    /// Replaces occurrences of `old_arg` with `new_arg` in the argument list of
    /// `node`, without re-checking any invariant.
    pub fn replace_arg(&mut self, node: NodeId, old_arg: NodeId, new_arg: NodeId) {
        if let NodeKind::Instruction { args, .. } = &mut self.nodes[node].kind {
            for arg in args.iter_mut() {
                if *arg == old_arg {
                    *arg = new_arg;
                }
            }
        }
    }

    /// Replaces only the `index`-th argument of `node`, without re-checking
    /// any scale, chain or type invariant.
    pub fn replace_arg_at(&mut self, node: NodeId, index: usize, new_arg: NodeId) {
        if let NodeKind::Instruction { args, .. } = &mut self.nodes[node].kind {
            args[index] = new_arg;
        }
    }

    /// Sets the analysed `log2` scale of a node (normally stamped by the
    /// exact-scale pass; overriding it desynchronizes the annotation from the
    /// evaluator's arithmetic, which the `exact-scales` check detects).
    pub fn set_scale_log2(&mut self, node: NodeId, scale_log2: f64) {
        self.nodes[node].scale_log2 = scale_log2;
    }

    /// Redirects every output that refers to `from` so it refers to `to`.
    /// Used when a maintenance instruction is inserted after an output node
    /// (the paper models outputs as leaf children, which get repointed too).
    pub fn redirect_outputs(&mut self, from: NodeId, to: NodeId) {
        for output in &mut self.outputs {
            if output.node == from {
                output.node = to;
            }
        }
    }
}

impl std::fmt::Display for Program {
    /// A readable textual dump of the program, one node per line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "program {} (vec_size = {})", self.name, self.vec_size)?;
        for (id, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Input { name } => writeln!(
                    f,
                    "  %{id} = input {name:?} : {} @2^{}",
                    node.ty, node.scale_log2
                )?,
                NodeKind::Constant { value } => {
                    let summary = match value {
                        ConstantValue::Vector(v) => format!("vector[{}]", v.len()),
                        ConstantValue::Scalar(s) => format!("scalar {s}"),
                        ConstantValue::Integer(i) => format!("integer {i}"),
                    };
                    writeln!(
                        f,
                        "  %{id} = const {summary} : {} @2^{}",
                        node.ty, node.scale_log2
                    )?
                }
                NodeKind::Instruction { op, args } => {
                    let args: Vec<String> = args.iter().map(|a| format!("%{a}")).collect();
                    writeln!(
                        f,
                        "  %{id} = {op} {} : {} @2^{}",
                        args.join(", "),
                        node.ty,
                        node.scale_log2
                    )?
                }
            }
        }
        for output in &self.outputs {
            writeln!(
                f,
                "  output {:?} = %{} @2^{}",
                output.name, output.node, output.scale_log2
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvaError;

    fn x2_plus_x() -> Program {
        let mut p = Program::new("x2_plus_x", 8);
        let x = p.input_cipher("x", 30);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[x2, x]);
        p.output("out", sum, 30);
        p
    }

    #[test]
    fn build_and_inspect_simple_program() {
        let p = x2_plus_x();
        assert_eq!(p.len(), 3);
        assert_eq!(p.vec_size(), 8);
        assert_eq!(p.outputs().len(), 1);
        assert_eq!(p.opcode(1), Some(Opcode::Multiply));
        assert_eq!(p.args(2), &[1, 0]);
        assert!(p.is_cipher_root(0));
        assert!(!p.is_cipher_root(1));
        assert_eq!(p.multiplicative_depth(), 1);
    }

    #[test]
    fn instruction_type_propagates_cipher() {
        let mut p = Program::new("types", 4);
        let c = p.input_cipher("c", 30);
        let v = p.input_vector("v", 20);
        let prod = p.instruction(Opcode::Multiply, &[c, v]);
        let plain = p.instruction(Opcode::Add, &[v, v]);
        assert_eq!(p.node(prod).ty, ValueType::Cipher);
        assert_eq!(p.node(plain).ty, ValueType::Vector);
    }

    #[test]
    fn uses_and_topological_order() {
        let p = x2_plus_x();
        let uses = p.uses();
        assert_eq!(uses[0], vec![1, 2]); // x used by the multiply and the add
        assert_eq!(uses[1], vec![2]);
        let order = p.topological_order().unwrap();
        assert_eq!(order.len(), 3);
        let pos = |id: NodeId| order.iter().position(|&n| n == id).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn topological_order_reports_cyclic_nodes() {
        let mut p = x2_plus_x();
        let neg = p.instruction(Opcode::Negate, &[2]);
        // The multiply now reads the add, which reads the multiply.
        p.replace_arg(1, 0, 2);
        let cyclic = p.topological_order().unwrap_err();
        assert_eq!(
            cyclic,
            vec![1, 2, neg],
            "the cycle and everything behind it"
        );
    }

    #[test]
    fn multiplicative_depth_of_power_chain() {
        let mut p = Program::new("x8", 4);
        let x = p.input_cipher("x", 30);
        let mut acc = x;
        for _ in 0..3 {
            acc = p.instruction(Opcode::Multiply, &[acc, acc]);
        }
        p.output("out", acc, 30);
        assert_eq!(p.multiplicative_depth(), 3);
    }

    /// The message `compile`'s input gate refuses `p` with, under both the
    /// default and the unoptimized options.
    fn input_refusals(p: &Program) -> Vec<String> {
        use crate::compiler::{compile, CompilerOptions};
        [CompilerOptions::default(), CompilerOptions::unoptimized()]
            .iter()
            .map(|options| match compile(p, options) {
                Err(EvaError::InvalidProgram(message)) => message,
                other => panic!("expected InvalidProgram, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn input_validation_rejects_compiler_opcodes() {
        // Maintenance instructions are the compiler's to insert.
        let mut p = Program::new("bad", 4);
        let x = p.input_cipher("x", 30);
        let r = p.push_instruction(Opcode::Rescale(60), vec![x], ValueType::Cipher);
        p.output("out", r, 30);
        for message in input_refusals(&p) {
            assert!(message.contains("compiler-only"), "{message}");
        }
    }

    #[test]
    fn input_validation_requires_outputs() {
        let mut p = Program::new("no_outputs", 4);
        p.input_cipher("x", 30);
        for message in input_refusals(&p) {
            assert!(message.contains("[outputs]"), "{message}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn vector_size_must_be_power_of_two() {
        Program::new("bad", 6);
    }

    #[test]
    fn display_contains_each_node() {
        let p = x2_plus_x();
        let text = p.to_string();
        assert!(text.contains("input \"x\""));
        assert!(text.contains("multiply"));
        assert!(text.contains("output \"out\""));
    }

    #[test]
    fn histogram_counts_ops() {
        let p = x2_plus_x();
        let h = p.opcode_histogram();
        assert_eq!(h.get("multiply"), Some(&1));
        assert_eq!(h.get("add"), Some(&1));
    }
}
