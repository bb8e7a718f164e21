//! Value types, opcodes and constant values of the EVA language (paper
//! Tables 1 and 2).

/// The type of a value flowing through an EVA program (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// An encrypted vector of fixed-point values.
    Cipher,
    /// A vector of 64-bit floating point values (plaintext).
    Vector,
    /// A 64-bit floating point value.
    Scalar,
    /// A 32-bit signed integer (used for rotation step counts).
    Integer,
}

impl ValueType {
    /// Whether this type denotes encrypted data.
    pub fn is_cipher(self) -> bool {
        matches!(self, ValueType::Cipher)
    }
}

impl std::fmt::Display for ValueType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ValueType::Cipher => "Cipher",
            ValueType::Vector => "Vector",
            ValueType::Scalar => "Scalar",
            ValueType::Integer => "Integer",
        };
        f.write_str(name)
    }
}

/// Instruction opcodes (paper Table 2).
///
/// The first group may appear in input programs; the FHE-specific maintenance
/// instructions of the second group are inserted by the compiler and are not
/// accepted from frontends.
///
/// `Eq`/`Hash` are sound because no variant carries floating-point payload;
/// value numbering (in `passes::cse`) keys hash tables on opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Negate each element of the argument.
    Negate,
    /// Add arguments element-wise.
    Add,
    /// Subtract the right argument from the left one element-wise.
    Sub,
    /// Multiply arguments element-wise (and multiply scales).
    Multiply,
    /// Rotate elements to the left by the given number of indices.
    RotateLeft(i32),
    /// Rotate elements to the right by the given number of indices.
    RotateRight(i32),
    /// Apply relinearization (compiler-inserted).
    Relinearize,
    /// Switch to the next modulus in the modulus chain (compiler-inserted).
    ModSwitch,
    /// Rescale the ciphertext (compiler-inserted). The operand is the
    /// *nominal* divisor in bits; at run time the executor divides by the
    /// actual prime at the ciphertext's level, and the exact-scale phase of
    /// the compiler re-annotates node scales with `log2` of that real prime
    /// (see `analysis::scale` for the two-phase pipeline).
    Rescale(u32),
}

impl Opcode {
    /// Whether frontends are allowed to emit this opcode (paper Table 2's
    /// "Restrictions" column).
    pub fn allowed_in_input(&self) -> bool {
        !matches!(
            self,
            Opcode::Relinearize | Opcode::ModSwitch | Opcode::Rescale(_)
        )
    }

    /// Whether this opcode consumes a prime from the modulus chain.
    pub fn consumes_modulus(&self) -> bool {
        matches!(self, Opcode::ModSwitch | Opcode::Rescale(_))
    }

    /// Number of value arguments this opcode expects.
    pub fn arity(&self) -> usize {
        match self {
            Opcode::Add | Opcode::Sub | Opcode::Multiply => 2,
            Opcode::Negate
            | Opcode::RotateLeft(_)
            | Opcode::RotateRight(_)
            | Opcode::Relinearize
            | Opcode::ModSwitch
            | Opcode::Rescale(_) => 1,
        }
    }

    /// The signed step of a rotation (`RotateLeft(s)` → `s`,
    /// `RotateRight(s)` → `−s`), or `None` for any other opcode.
    pub fn rotation_step(self) -> Option<i64> {
        match self {
            Opcode::RotateLeft(s) => Some(s as i64),
            Opcode::RotateRight(s) => Some(-(s as i64)),
            _ => None,
        }
    }

    /// Whether this opcode, on an encrypted operand in a ring of `slots`
    /// slots, switches keys: a relinearization, or a rotation by a step
    /// that is not a multiple of `slots`. A multiple rotates by Galois
    /// element 1, the identity: the evaluator clones the operand, and no key
    /// is built, priced or applied for it.
    pub fn switches_key(self, slots: usize) -> bool {
        let slots = slots.max(1) as i64;
        self == Opcode::Relinearize
            || self
                .rotation_step()
                .is_some_and(|step| step.rem_euclid(slots) != 0)
    }

    /// A short mnemonic used by the textual program dump.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Opcode::Negate => "negate",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Multiply => "multiply",
            Opcode::RotateLeft(_) => "rotate_left",
            Opcode::RotateRight(_) => "rotate_right",
            Opcode::Relinearize => "relinearize",
            Opcode::ModSwitch => "mod_switch",
            Opcode::Rescale(_) => "rescale",
        }
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Opcode::RotateLeft(steps) => write!(f, "rotate_left<{steps}>"),
            Opcode::RotateRight(steps) => write!(f, "rotate_right<{steps}>"),
            Opcode::Rescale(bits) => write!(f, "rescale<{bits}>"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// A compile-time constant value. Constants may be of any type except
/// `Cipher` (paper Section 3: ciphertext values cannot exist before key
/// generation).
#[derive(Debug, Clone, PartialEq)]
pub enum ConstantValue {
    /// A plaintext vector.
    Vector(Vec<f64>),
    /// A plaintext scalar, broadcast across all slots.
    Scalar(f64),
    /// A 32-bit integer (e.g. a rotation amount represented as data).
    Integer(i32),
}

impl ConstantValue {
    /// The EVA type of this constant.
    pub fn value_type(&self) -> ValueType {
        match self {
            ConstantValue::Vector(_) => ValueType::Vector,
            ConstantValue::Scalar(_) => ValueType::Scalar,
            ConstantValue::Integer(_) => ValueType::Integer,
        }
    }

    /// Materializes the constant as a vector of `size` elements (scalars are
    /// broadcast).
    pub fn to_vector(&self, size: usize) -> Vec<f64> {
        match self {
            ConstantValue::Vector(v) => {
                let mut out = v.clone();
                out.resize(size, 0.0);
                out
            }
            ConstantValue::Scalar(s) => vec![*s; size],
            ConstantValue::Integer(i) => vec![*i as f64; size],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_input_restrictions_match_table_2() {
        assert!(Opcode::Add.allowed_in_input());
        assert!(Opcode::Multiply.allowed_in_input());
        assert!(Opcode::RotateLeft(3).allowed_in_input());
        assert!(!Opcode::Relinearize.allowed_in_input());
        assert!(!Opcode::ModSwitch.allowed_in_input());
        assert!(!Opcode::Rescale(60).allowed_in_input());
    }

    #[test]
    fn modulus_consumption() {
        assert!(Opcode::Rescale(60).consumes_modulus());
        assert!(Opcode::ModSwitch.consumes_modulus());
        assert!(!Opcode::Multiply.consumes_modulus());
        assert!(!Opcode::Relinearize.consumes_modulus());
    }

    #[test]
    fn arity_matches_signatures() {
        assert_eq!(Opcode::Add.arity(), 2);
        assert_eq!(Opcode::Negate.arity(), 1);
        assert_eq!(Opcode::RotateLeft(1).arity(), 1);
        assert_eq!(Opcode::Rescale(60).arity(), 1);
    }

    #[test]
    fn constants_broadcast() {
        let scalar = ConstantValue::Scalar(2.5);
        assert_eq!(scalar.to_vector(3), vec![2.5, 2.5, 2.5]);
        assert_eq!(scalar.value_type(), ValueType::Scalar);
        let vector = ConstantValue::Vector(vec![1.0, 2.0]);
        assert_eq!(vector.to_vector(4), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(ConstantValue::Integer(7).value_type(), ValueType::Integer);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Opcode::RotateLeft(5).to_string(), "rotate_left<5>");
        assert_eq!(Opcode::Rescale(60).to_string(), "rescale<60>");
        assert_eq!(ValueType::Cipher.to_string(), "Cipher");
    }
}
