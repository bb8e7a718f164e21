//! Expression handles with operator overloading.

use std::cell::RefCell;
use std::rc::Rc;

use eva_core::{ConstantValue, NodeId, Opcode, Program};

/// A handle to a node in the program being built.
///
/// `Expr` values are produced by [`crate::ProgramBuilder`] and combined with
/// the standard arithmetic operators; every operation appends the
/// corresponding instruction to the underlying EVA program. Plain `f64`
/// operands are lifted to scalar constants encoded at the builder's default
/// scale, mirroring PyEVA's `constant(scale, value)` helper.
#[derive(Clone)]
pub struct Expr {
    pub(crate) program: Rc<RefCell<Program>>,
    pub(crate) node: NodeId,
    pub(crate) constant_scale: u32,
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Expr").field("node", &self.node).finish()
    }
}

impl Expr {
    /// The node id this expression refers to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    fn same_program(&self, other: &Expr) {
        assert!(
            Rc::ptr_eq(&self.program, &other.program),
            "expressions from different ProgramBuilders cannot be combined"
        );
    }

    pub(crate) fn binary(&self, op: Opcode, rhs: &Expr) -> Expr {
        self.same_program(rhs);
        let node = self
            .program
            .borrow_mut()
            .instruction(op, &[self.node, rhs.node]);
        Expr {
            program: Rc::clone(&self.program),
            node,
            constant_scale: self.constant_scale,
        }
    }

    fn unary(&self, op: Opcode) -> Expr {
        let node = self.program.borrow_mut().instruction(op, &[self.node]);
        Expr {
            program: Rc::clone(&self.program),
            node,
            constant_scale: self.constant_scale,
        }
    }

    fn lift_scalar(&self, value: f64) -> Expr {
        let node = self
            .program
            .borrow_mut()
            .constant(ConstantValue::Scalar(value), self.constant_scale);
        Expr {
            program: Rc::clone(&self.program),
            node,
            constant_scale: self.constant_scale,
        }
    }

    /// Rotates the vector left by `steps` slots (the paper's `<<` in PyEVA).
    pub fn rotate_left(&self, steps: i32) -> Expr {
        self.unary(Opcode::RotateLeft(steps))
    }

    /// Rotates the vector right by `steps` slots.
    pub fn rotate_right(&self, steps: i32) -> Expr {
        self.unary(Opcode::RotateRight(steps))
    }

    /// Squares the expression.
    pub fn square(&self) -> Expr {
        self.binary(Opcode::Multiply, self)
    }

    /// Raises the expression to a small positive integer power by repeated
    /// multiplication (left-to-right, mirroring PyEVA's `**`).
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is zero (an encrypted constant 1 has no meaning
    /// without a scale choice).
    pub fn pow(&self, exponent: u32) -> Expr {
        assert!(exponent >= 1, "exponent must be at least 1");
        let mut acc = self.clone();
        for _ in 1..exponent {
            acc = acc.binary(Opcode::Multiply, self);
        }
        acc
    }
}

macro_rules! impl_binary_op {
    ($trait:ident, $method:ident, $opcode:expr) => {
        impl std::ops::$trait<&Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                self.binary($opcode, rhs)
            }
        }
        impl std::ops::$trait<Expr> for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                self.binary($opcode, &rhs)
            }
        }
        impl std::ops::$trait<&Expr> for Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                self.binary($opcode, rhs)
            }
        }
        impl std::ops::$trait<Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                self.binary($opcode, &rhs)
            }
        }
        impl std::ops::$trait<f64> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                let constant = self.lift_scalar(rhs);
                self.binary($opcode, &constant)
            }
        }
        impl std::ops::$trait<f64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                let constant = self.lift_scalar(rhs);
                self.binary($opcode, &constant)
            }
        }
    };
}

impl_binary_op!(Add, add, Opcode::Add);
impl_binary_op!(Sub, sub, Opcode::Sub);
impl_binary_op!(Mul, mul, Opcode::Multiply);

impl std::ops::Neg for &Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        self.unary(Opcode::Negate)
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        self.unary(Opcode::Negate)
    }
}

impl std::ops::Shl<i32> for &Expr {
    type Output = Expr;
    fn shl(self, steps: i32) -> Expr {
        self.rotate_left(steps)
    }
}

impl std::ops::Shl<i32> for Expr {
    type Output = Expr;
    fn shl(self, steps: i32) -> Expr {
        self.rotate_left(steps)
    }
}

impl std::ops::Shr<i32> for &Expr {
    type Output = Expr;
    fn shr(self, steps: i32) -> Expr {
        self.rotate_right(steps)
    }
}

impl std::ops::Shr<i32> for Expr {
    type Output = Expr;
    fn shr(self, steps: i32) -> Expr {
        self.rotate_right(steps)
    }
}

#[cfg(test)]
mod tests {
    use crate::ProgramBuilder;
    use eva_core::Opcode;

    #[test]
    fn operators_build_the_expected_graph() {
        let mut b = ProgramBuilder::new("ops", 8);
        let x = b.input_cipher("x", 30);
        let y = b.input_cipher("y", 30);
        let expr = &(&x + &y) * &(&x - &y);
        let rotated = &expr << 2;
        let shifted = &rotated >> 1;
        let negated = -&shifted;
        b.output("out", negated, 30);
        let program = b.build();
        let hist = program.opcode_histogram();
        assert_eq!(hist.get("add"), Some(&1));
        assert_eq!(hist.get("sub"), Some(&1));
        assert_eq!(hist.get("multiply"), Some(&1));
        assert_eq!(hist.get("rotate_left"), Some(&1));
        assert_eq!(hist.get("rotate_right"), Some(&1));
        assert_eq!(hist.get("negate"), Some(&1));
    }

    #[test]
    fn scalar_operands_become_constants() {
        let mut b = ProgramBuilder::new("scalars", 8);
        let x = b.input_cipher("x", 30);
        let y = &x * 3.5 + 1.25;
        b.output("out", y, 30);
        let program = b.build();
        // Two scalar constants were lifted.
        let constants = program
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, eva_core::NodeKind::Constant { .. }))
            .count();
        assert_eq!(constants, 2);
    }

    #[test]
    fn pow_builds_a_multiplication_chain() {
        let mut b = ProgramBuilder::new("pow", 8);
        let x = b.input_cipher("x", 30);
        let cubed = x.pow(3);
        b.output("out", cubed, 30);
        let program = b.build();
        assert_eq!(program.opcode_histogram().get("multiply"), Some(&2));
        assert_eq!(program.multiplicative_depth(), 2);
        let _ = Opcode::Multiply;
    }

    #[test]
    #[should_panic(expected = "different ProgramBuilders")]
    fn mixing_builders_panics() {
        let mut a = ProgramBuilder::new("a", 8);
        let mut b = ProgramBuilder::new("b", 8);
        let x = a.input_cipher("x", 30);
        let y = b.input_cipher("y", 30);
        let _ = &x + &y;
    }
}
