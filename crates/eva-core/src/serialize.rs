//! Serialization of EVA programs and compiled artifacts.
//!
//! The paper defines a Protocol Buffers schema (Figure 1) as the wire format
//! of the EVA language. This reproduction uses a self-contained binary format
//! with the same information content, built on the framing layer shared with
//! the runtime codecs (`eva-wire`): every object is a [`WireObject`] — a
//! 4-byte magic, a `u32` version and a length-prefixed body — so program
//! files, parameter specs and ciphertexts all follow one set of framing
//! rules and return one error type on malformed input.
//!
//! Three object families live here (the types are local to this crate):
//!
//! | object | magic | version |
//! |---|---|---|
//! | [`Program`] | `EVAP` | 3 |
//! | [`ParameterSpec`] | `EVAS` | 2 |
//! | [`CompiledProgram`] (the `.evaprog` bundle) | `EVAB` | 3 |
//!
//! Version history of `EVAP`: v2 switched scales to exact `f64` log2 values;
//! v3 adopted the shared length-prefixed envelope. `EVAS` v2 dropped the
//! prime bit sizes, which are derived from the primes, so a spec is the
//! degree, the data primes, the special prime and the security flag. `EVAB`
//! v2 extended the statistics block from 6 to 11 `u64` counts (optimizer
//! pass counters); v3 dropped the rotation-chaining count, leaving 10. A v3
//! bundle nests its spec, so one written with `EVAS` v1 is refused by the
//! spec's version check.

use crate::analysis::ParameterSpec;
use crate::compiler::{CompilationStats, CompiledProgram};
use crate::error::EvaError;
use crate::program::{NodeKind, Program};
use crate::types::{ConstantValue, Opcode, ValueType};
use eva_wire::{Reader, WireError, WireObject, Writer};

impl From<WireError> for EvaError {
    fn from(err: WireError) -> Self {
        EvaError::Serialization(err.to_string())
    }
}

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Cipher => 0,
        ValueType::Vector => 1,
        ValueType::Scalar => 2,
        ValueType::Integer => 3,
    }
}

fn type_from_tag(tag: u8) -> Result<ValueType, WireError> {
    Ok(match tag {
        0 => ValueType::Cipher,
        1 => ValueType::Vector,
        2 => ValueType::Scalar,
        3 => ValueType::Integer,
        other => {
            return Err(WireError::Invalid(format!(
                "unknown value type tag {other}"
            )))
        }
    })
}

fn opcode_tag(op: Opcode) -> (u8, i64) {
    match op {
        Opcode::Negate => (1, 0),
        Opcode::Add => (2, 0),
        Opcode::Sub => (3, 0),
        Opcode::Multiply => (4, 0),
        Opcode::RotateLeft(s) => (7, s as i64),
        Opcode::RotateRight(s) => (8, s as i64),
        Opcode::Relinearize => (9, 0),
        Opcode::ModSwitch => (10, 0),
        Opcode::Rescale(bits) => (11, bits as i64),
    }
}

fn opcode_from_tag(tag: u8, operand: i64) -> Result<Opcode, WireError> {
    Ok(match tag {
        1 => Opcode::Negate,
        2 => Opcode::Add,
        3 => Opcode::Sub,
        4 => Opcode::Multiply,
        7 => Opcode::RotateLeft(operand as i32),
        8 => Opcode::RotateRight(operand as i32),
        9 => Opcode::Relinearize,
        10 => Opcode::ModSwitch,
        11 => Opcode::Rescale(operand as u32),
        other => return Err(WireError::Invalid(format!("unknown opcode tag {other}"))),
    })
}

impl WireObject for Program {
    const MAGIC: [u8; 4] = *b"EVAP";
    const VERSION: u32 = 3;

    fn encode_body(&self, w: &mut Writer) {
        w.str(self.name());
        w.u64(self.vec_size() as u64);
        w.u64(self.len() as u64);
        for id in 0..self.len() {
            let node = self.node(id);
            w.u8(type_tag(node.ty));
            w.f64(node.scale_log2);
            match &node.kind {
                NodeKind::Input { name } => {
                    w.u8(0);
                    w.str(name);
                }
                NodeKind::Constant { value } => {
                    w.u8(1);
                    match value {
                        ConstantValue::Vector(v) => {
                            w.u8(0);
                            w.u64(v.len() as u64);
                            for &x in v {
                                w.f64(x);
                            }
                        }
                        ConstantValue::Scalar(s) => {
                            w.u8(1);
                            w.f64(*s);
                        }
                        ConstantValue::Integer(i) => {
                            w.u8(2);
                            w.i32(*i);
                        }
                    }
                }
                NodeKind::Instruction { op, args } => {
                    w.u8(2);
                    let (tag, operand) = opcode_tag(*op);
                    w.u8(tag);
                    w.i64(operand);
                    w.u32(args.len() as u32);
                    for &arg in args {
                        w.u64(arg as u64);
                    }
                }
            }
        }
        w.u64(self.outputs().len() as u64);
        for output in self.outputs() {
            w.str(&output.name);
            w.u64(output.node as u64);
            w.f64(output.scale_log2);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.str()?;
        let vec_size = r.u64()? as usize;
        if vec_size == 0 || !vec_size.is_power_of_two() {
            return Err(WireError::Invalid(format!(
                "vector size {vec_size} is not a power of two"
            )));
        }
        let node_count = r.u64()? as usize;
        let mut program = Program::new(name, vec_size);
        for id in 0..node_count {
            let ty = type_from_tag(r.u8()?)?;
            let scale_log2 = r.f64()?;
            if !scale_log2.is_finite() {
                return Err(WireError::Invalid(format!(
                    "node {id} has a non-finite scale"
                )));
            }
            let kind_tag = r.u8()?;
            match kind_tag {
                0 => {
                    let input_name = r.str()?;
                    let node = program.push_input(input_name, ty, scale_log2);
                    debug_assert_eq!(node, id);
                }
                1 => {
                    let const_tag = r.u8()?;
                    let value = match const_tag {
                        0 => {
                            let len = r.u64()? as usize;
                            if len.checked_mul(8).is_none_or(|b| b > r.remaining()) {
                                return Err(WireError::UnexpectedEnd);
                            }
                            let mut v = Vec::with_capacity(len);
                            for _ in 0..len {
                                v.push(r.f64()?);
                            }
                            ConstantValue::Vector(v)
                        }
                        1 => ConstantValue::Scalar(r.f64()?),
                        2 => ConstantValue::Integer(r.i32()?),
                        other => {
                            return Err(WireError::Invalid(format!("unknown constant tag {other}")))
                        }
                    };
                    if let ConstantValue::Vector(v) = &value {
                        if v.len() > vec_size {
                            return Err(WireError::Invalid(format!(
                                "constant node {id} is longer than the program vector size"
                            )));
                        }
                    }
                    let node = program.push_constant(value, scale_log2);
                    debug_assert_eq!(node, id);
                }
                2 => {
                    let op_tag = r.u8()?;
                    let operand = r.i64()?;
                    let op = opcode_from_tag(op_tag, operand)?;
                    let arg_count = r.u32()? as usize;
                    let mut args = Vec::with_capacity(arg_count.min(1 << 16));
                    for _ in 0..arg_count {
                        let arg = r.u64()? as usize;
                        // Compiler passes may leave forward references (a rewritten
                        // node can point at a maintenance node appended later), so
                        // only require the id to be within the node table.
                        if arg >= node_count {
                            return Err(WireError::Invalid(format!(
                                "instruction {id} references missing node {arg}"
                            )));
                        }
                        args.push(arg);
                    }
                    let ty_expected = ty;
                    let node = program.push_instruction(op, args, ty_expected);
                    program.set_scale_log2(node, scale_log2);
                    debug_assert_eq!(node, id);
                }
                other => return Err(WireError::Invalid(format!("unknown node kind tag {other}"))),
            }
        }
        let output_count = r.u64()? as usize;
        for _ in 0..output_count {
            let output_name = r.str()?;
            let node = r.u64()? as usize;
            let scale_log2 = r.f64()?;
            if !scale_log2.is_finite() {
                return Err(WireError::Invalid(format!(
                    "output {output_name} has a non-finite scale"
                )));
            }
            if node >= program.len() {
                return Err(WireError::Invalid(format!(
                    "output {output_name} references missing node {node}"
                )));
            }
            program.push_output(output_name, node, scale_log2);
        }
        Ok(program)
    }
}

impl WireObject for ParameterSpec {
    const MAGIC: [u8; 4] = *b"EVAS";
    // See the module docs for the version history.
    const VERSION: u32 = 2;

    fn encode_body(&self, w: &mut Writer) {
        w.u64(self.degree as u64);
        w.u64_slice(&self.data_primes);
        w.u64(self.special_prime);
        w.bool(self.secure);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let degree = r.u64()? as usize;
        if degree < 2 || !degree.is_power_of_two() || degree > eva_wire::MAX_WIRE_DEGREE {
            return Err(WireError::Invalid(format!(
                "ring degree {degree} out of range"
            )));
        }
        // Only the shape is checked here; the primes themselves are the
        // verifier's `parameters` check.
        let data_primes = r.u64_slice()?;
        if data_primes.is_empty() || data_primes.len() > eva_wire::MAX_WIRE_LEVEL {
            return Err(WireError::Invalid(format!(
                "data prime count {} out of range",
                data_primes.len()
            )));
        }
        Ok(ParameterSpec {
            degree,
            data_primes,
            special_prime: r.u64()?,
            secure: r.bool()?,
        })
    }
}

impl WireObject for CompiledProgram {
    const MAGIC: [u8; 4] = *b"EVAB";
    // See the module docs for the version history.
    const VERSION: u32 = 3;

    fn encode_body(&self, w: &mut Writer) {
        self.program.encode(w);
        self.parameters.encode(w);
        w.u32(self.rotation_steps.len() as u32);
        for &step in &self.rotation_steps {
            w.i64(step);
        }
        let stats = &self.stats;
        for count in [
            stats.rescales_inserted,
            stats.mod_switches_inserted,
            stats.scale_fixes_inserted,
            stats.relinearizations_inserted,
            stats.exact_scale_fixes_inserted,
            stats.node_count,
            stats.cse_merged,
            stats.dce_removed,
            stats.rotations_canonicalized,
            stats.rotations_factored,
        ] {
            w.u64(count as u64);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let program = Program::decode(r)?;
        let parameters = ParameterSpec::decode(r)?;
        let step_count = r.u32()? as usize;
        let mut rotation_steps = Vec::with_capacity(step_count.min(1 << 16));
        for _ in 0..step_count {
            rotation_steps.push(r.i64()?);
        }
        let mut counts = [0usize; 10];
        for slot in &mut counts {
            *slot = r.u64()? as usize;
        }
        let stats = CompilationStats {
            rescales_inserted: counts[0],
            mod_switches_inserted: counts[1],
            scale_fixes_inserted: counts[2],
            relinearizations_inserted: counts[3],
            exact_scale_fixes_inserted: counts[4],
            node_count: counts[5],
            cse_merged: counts[6],
            dce_removed: counts[7],
            rotations_canonicalized: counts[8],
            rotations_factored: counts[9],
        };
        Ok(CompiledProgram {
            program,
            parameters,
            rotation_steps,
            stats,
        })
    }
}

/// Serializes a program into the EVA binary format.
pub fn to_bytes(program: &Program) -> Vec<u8> {
    program.to_wire_bytes()
}

/// Deserializes a program from the EVA binary format.
///
/// # Errors
///
/// Returns [`EvaError::Serialization`] if the input is truncated, has an
/// unknown version, or contains invalid tags or node references.
pub fn from_bytes(bytes: &[u8]) -> Result<Program, EvaError> {
    Ok(Program::from_wire_bytes(bytes)?)
}

/// Serializes a compiled program — transformed graph, parameter spec,
/// rotation steps and statistics — into the `.evaprog` bundle format a
/// deployment server loads.
pub fn compiled_to_bytes(compiled: &CompiledProgram) -> Vec<u8> {
    compiled.to_wire_bytes()
}

/// Deserializes a `.evaprog` compiled-program bundle.
///
/// # Errors
///
/// Returns [`EvaError::Serialization`] on any framing or content defect.
pub fn compiled_from_bytes(bytes: &[u8]) -> Result<CompiledProgram, EvaError> {
    Ok(CompiledProgram::from_wire_bytes(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::types::{ConstantValue, Opcode};

    fn sample_program() -> Program {
        let mut p = Program::new("sample", 16);
        let x = p.input_cipher("x", 30);
        let w = p.input_vector("weights", 20);
        let c = p.constant(ConstantValue::Vector(vec![1.0, 2.0, 3.0]), 15);
        let s = p.constant(ConstantValue::Scalar(0.5), 10);
        let prod = p.instruction(Opcode::Multiply, &[x, w]);
        let rot = p.instruction(Opcode::RotateLeft(3), &[prod]);
        let sum = p.instruction(Opcode::Add, &[rot, x]);
        let scaled = p.instruction(Opcode::Multiply, &[sum, c]);
        let shifted = p.instruction(Opcode::Sub, &[scaled, s]);
        p.output("result", shifted, 30);
        p.output("partial", rot, 25);
        p
    }

    #[test]
    fn roundtrip_preserves_program() {
        let original = sample_program();
        let bytes = to_bytes(&original);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn roundtrip_preserves_transformed_programs() {
        let mut p = sample_program();
        crate::passes::insert_waterline_rescale(&mut p);
        crate::passes::insert_eager_modswitch(&mut p);
        crate::passes::insert_match_scale(&mut p);
        crate::passes::insert_relinearize(&mut p);
        let restored = from_bytes(&to_bytes(&p)).unwrap();
        assert_eq!(p, restored);
    }

    #[test]
    fn roundtrip_preserves_exact_compiled_scales() {
        // A fully compiled program carries exact (non-integral) f64 scales;
        // the format must round-trip them bit for bit.
        let mut p = Program::new("exact", 8);
        let x = p.input_cipher("x", 40);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[x2, x]);
        let deep = p.instruction(Opcode::Multiply, &[sum, sum]);
        p.output("out", deep, 30);
        let compiled =
            crate::compiler::compile(&p, &crate::compiler::CompilerOptions::default()).unwrap();
        assert!(
            compiled
                .program
                .nodes()
                .iter()
                .any(|n| n.scale_log2.fract() != 0.0),
            "a compiled program with rescales must carry non-integral exact scales"
        );
        let restored = from_bytes(&to_bytes(&compiled.program)).unwrap();
        assert_eq!(compiled.program, restored);
    }

    #[test]
    fn corrupted_input_is_rejected() {
        let bytes = to_bytes(&sample_program());
        assert!(matches!(
            from_bytes(&bytes[..10]),
            Err(EvaError::Serialization(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(from_bytes(&bad_magic).is_err());
        assert!(from_bytes(&[]).is_err());
        // Trailing bytes after the envelope are rejected too.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(from_bytes(&trailing).is_err());
    }

    #[test]
    fn compiled_bundle_roundtrips() {
        let compiled = crate::compiler::compile(
            &sample_program(),
            &crate::compiler::CompilerOptions::default(),
        )
        .unwrap();
        let bytes = compiled_to_bytes(&compiled);
        let restored = compiled_from_bytes(&bytes).unwrap();
        assert_eq!(compiled, restored);
        // Byte-identical re-encoding (the format has one canonical encoding).
        assert_eq!(compiled_to_bytes(&restored), bytes);
        // Truncations error out.
        assert!(compiled_from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn parameter_spec_roundtrips() {
        let compiled = crate::compiler::compile(
            &sample_program(),
            &crate::compiler::CompilerOptions::default(),
        )
        .unwrap();
        let spec = &compiled.parameters;
        let restored = ParameterSpec::from_wire_bytes(&spec.to_wire_bytes()).unwrap();
        assert_eq!(&restored, spec);
    }

    mod spec_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            // `decode ∘ encode = id` for parameter specs across random ring
            // degrees and chain lengths, with byte-identical re-encoding,
            // and truncation always surfaces as an error.
            #[test]
            fn parameter_spec_roundtrip_random(
                degree_log2 in 3u32..17,
                levels in 1usize..9,
                seed in any::<u64>(),
                secure in proptest::prelude::any::<u64>(),
            ) {
                // Synthesize a spec without running prime generation (shapes
                // are what the codec cares about).
                let mut state = seed | 1;
                let mut next = || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    state
                };
                let data_primes: Vec<u64> = (0..levels).map(|_| next() >> 4 | 1).collect();
                let spec = ParameterSpec {
                    degree: 1usize << degree_log2,
                    data_primes,
                    special_prime: next() >> 4 | 1,
                    secure: secure % 2 == 0,
                };
                let bytes = spec.to_wire_bytes();
                let restored = ParameterSpec::from_wire_bytes(&bytes).unwrap();
                prop_assert_eq!(&restored, &spec);
                prop_assert_eq!(restored.to_wire_bytes(), bytes.clone());
                for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
                    prop_assert!(ParameterSpec::from_wire_bytes(&bytes[..cut]).is_err());
                }
            }
        }
    }
}
