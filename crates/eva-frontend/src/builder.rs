//! The program builder: the owner of the term graph under construction.

use std::cell::RefCell;
use std::rc::Rc;

use eva_core::{ConstantValue, Program};

use crate::expr::Expr;

/// Builds an EVA [`Program`] through [`Expr`] handles, the Rust counterpart of
/// the paper's `with program:` context manager in PyEVA.
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Rc<RefCell<Program>>,
    default_constant_scale: u32,
}

impl ProgramBuilder {
    /// Creates a builder for a program over vectors of `vec_size` elements.
    /// Scalar constants lifted by operators use a default scale of 2^30.
    ///
    /// # Panics
    ///
    /// Panics if `vec_size` is not a power of two.
    pub fn new(name: impl Into<String>, vec_size: usize) -> Self {
        Self::with_default_scale(name, vec_size, 30)
    }

    /// Like [`ProgramBuilder::new`] with an explicit default scale (in bits)
    /// for constants lifted from bare `f64` operands.
    ///
    /// # Panics
    ///
    /// Panics if `vec_size` is not a power of two.
    pub fn with_default_scale(
        name: impl Into<String>,
        vec_size: usize,
        default_constant_scale: u32,
    ) -> Self {
        Self {
            program: Rc::new(RefCell::new(Program::new(name, vec_size))),
            default_constant_scale,
        }
    }

    /// The program's vector size.
    pub fn vec_size(&self) -> usize {
        self.program.borrow().vec_size()
    }

    fn expr(&self, node: eva_core::NodeId) -> Expr {
        Expr {
            program: Rc::clone(&self.program),
            node,
            constant_scale: self.default_constant_scale,
        }
    }

    /// Declares an encrypted input with the given scale (in bits).
    pub fn input_cipher(&mut self, name: impl Into<String>, scale_bits: u32) -> Expr {
        let node = self.program.borrow_mut().input_cipher(name, scale_bits);
        self.expr(node)
    }

    /// Declares a plaintext vector input with the given scale.
    pub fn input_vector(&mut self, name: impl Into<String>, scale_bits: u32) -> Expr {
        let node = self.program.borrow_mut().input_vector(name, scale_bits);
        self.expr(node)
    }

    /// Declares a plaintext scalar input with the given scale.
    pub fn input_scalar(&mut self, name: impl Into<String>, scale_bits: u32) -> Expr {
        let node = self.program.borrow_mut().input_scalar(name, scale_bits);
        self.expr(node)
    }

    /// Adds a plaintext vector constant with the given scale.
    pub fn constant_vector(&mut self, values: Vec<f64>, scale_bits: u32) -> Expr {
        let node = self
            .program
            .borrow_mut()
            .constant(ConstantValue::Vector(values), scale_bits);
        self.expr(node)
    }

    /// Adds a scalar constant with the given scale.
    pub fn constant_scalar(&mut self, value: f64, scale_bits: u32) -> Expr {
        let node = self
            .program
            .borrow_mut()
            .constant(ConstantValue::Scalar(value), scale_bits);
        self.expr(node)
    }

    /// Declares `expr` as a named program output with the desired scale.
    pub fn output(&mut self, name: impl Into<String>, expr: Expr, scale_bits: u32) {
        self.program
            .borrow_mut()
            .output(name, expr.node_id(), scale_bits);
    }

    /// Finalizes the builder and returns the program.
    ///
    /// Outstanding [`Expr`] handles keep a reference to the shared graph, so
    /// the program is cloned out rather than moved; building is cheap relative
    /// to compiling and executing.
    pub fn build(self) -> Program {
        self.program.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_core::{compile, verify_program, CompilerOptions};

    /// No error from the verifier's structural checks: the program is one
    /// `compile` accepts as input (raw programs may still fail scale checks
    /// the compiler's passes repair).
    fn assert_structurally_sound(program: &Program) {
        let report = verify_program(program);
        assert!(
            !report.errors().any(|d| d.check.is_structural()),
            "{report}"
        );
    }

    #[test]
    fn sobel_like_program_compiles() {
        // A miniature of the paper's Figure 6 Sobel example.
        let mut b = ProgramBuilder::new("sobel_mini", 16);
        let image = b.input_cipher("image", 30);
        let kernel = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];
        let mut ix: Option<Expr> = None;
        for (i, row) in kernel.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                let rotated = &image << (i * 4 + j) as i32;
                let weighted = &rotated * w;
                ix = Some(match ix {
                    None => weighted,
                    Some(acc) => acc + weighted,
                });
            }
        }
        let ix = ix.unwrap();
        let energy = &ix * &ix;
        b.output("edges", energy, 30);
        let program = b.build();
        assert_structurally_sound(&program);
        let compiled = compile(&program, &CompilerOptions::default()).unwrap();
        assert!(!compiled.rotation_steps.is_empty());
    }

    #[test]
    fn builder_inputs_and_constants() {
        let mut b = ProgramBuilder::with_default_scale("io", 8, 25);
        let x = b.input_cipher("x", 40);
        let v = b.input_vector("v", 20);
        let s = b.input_scalar("s", 10);
        let c = b.constant_vector(vec![1.0, 2.0], 15);
        let k = b.constant_scalar(4.0, 15);
        let out = &(&(&x * &v) + &c) * &(&s + &k);
        b.output("out", out, 30);
        let program = b.build();
        assert_eq!(program.len(), 9);
        assert_eq!(program.outputs().len(), 1);
        assert_structurally_sound(&program);
    }

    #[test]
    fn default_scale_is_used_for_lifted_constants() {
        let mut b = ProgramBuilder::with_default_scale("scales", 8, 42);
        let x = b.input_cipher("x", 30);
        let y = &x + 1.0;
        b.output("out", y, 30);
        let program = b.build();
        let constant = program
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, eva_core::NodeKind::Constant { .. }))
            .unwrap();
        assert_eq!(constant.scale_log2, 42.0);
    }
}
