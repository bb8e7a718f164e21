//! The reference executor: the paper's `id` "encryption" scheme (Section 3,
//! Execution Semantics), which stores Cipher values as plain vectors and makes
//! every homomorphic instruction its own plaintext counterpart.
//!
//! The reference executor defines what a program *means*; the encrypted
//! executors are correct exactly when their decrypted outputs approximate the
//! reference outputs. It runs on both input programs and compiled programs
//! (the maintenance instructions RESCALE/MODSWITCH/RELINEARIZE are value-wise
//! identities).

use std::collections::HashMap;

use eva_core::{EvaError, NodeKind, Opcode, Program};

/// Executes `program` on plaintext vectors according to the reference
/// semantics and returns the named outputs.
///
/// Inputs of type `Cipher` and `Vector` are looked up by name in `inputs`;
/// vectors shorter than the program vector size are repeated cyclically
/// (matching the paper's input-replication rule), longer ones are an error.
///
/// # Errors
///
/// Returns [`EvaError::Execution`] if an input is missing, has an
/// incompatible length or holds a non-finite value, and
/// [`EvaError::InvalidProgram`] if the graph has a cycle.
pub fn run_reference(
    program: &Program,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<HashMap<String, Vec<f64>>, EvaError> {
    let size = program.vec_size();
    let mut values: Vec<Option<Vec<f64>>> = vec![None; program.len()];

    let order = program.topological_order().map_err(|cyclic| {
        EvaError::InvalidProgram(format!(
            "program graph has a cycle through {} node(s)",
            cyclic.len()
        ))
    })?;
    for id in order {
        let node = program.node(id);
        let value = match &node.kind {
            NodeKind::Input { name } => {
                let raw = inputs.get(name).ok_or_else(|| {
                    EvaError::Execution(format!("missing input value for {name:?}"))
                })?;
                Some(replicate(raw, size, name)?)
            }
            NodeKind::Constant { value } => Some(value.to_vector(size)),
            NodeKind::Instruction { op, args } => {
                let arg_values: Vec<&Vec<f64>> = args
                    .iter()
                    .map(|&a| values[a].as_ref().expect("parents are computed first"))
                    .collect();
                Some(apply_op(*op, &arg_values, size))
            }
        };
        values[id] = value;
    }

    let mut outputs = HashMap::new();
    for output in program.outputs() {
        let value = values[output.node]
            .as_ref()
            .expect("output nodes are computed")
            .clone();
        outputs.insert(output.name.clone(), value);
    }
    Ok(outputs)
}

/// Replicates an input's values cyclically to the program vector size,
/// after [`check_input`].
pub(crate) fn replicate(raw: &[f64], size: usize, name: &str) -> Result<Vec<f64>, EvaError> {
    check_input(raw, size, name)?;
    Ok((0..size).map(|i| raw[i % raw.len()]).collect())
}

/// The check every input passes on every path: between 1 and `size`
/// values, all finite (the encoder cannot represent a NaN or an infinity).
pub(crate) fn check_input(raw: &[f64], size: usize, name: &str) -> Result<(), EvaError> {
    if raw.is_empty() || raw.len() > size {
        return Err(EvaError::Execution(format!(
            "input {name:?} has length {}, expected between 1 and {size}",
            raw.len()
        )));
    }
    if raw.iter().any(|v| !v.is_finite()) {
        return Err(EvaError::Execution(format!(
            "input {name:?} contains non-finite values"
        )));
    }
    Ok(())
}

pub(crate) fn apply_op(op: Opcode, args: &[&Vec<f64>], size: usize) -> Vec<f64> {
    match op {
        Opcode::Negate => args[0].iter().map(|v| -v).collect(),
        Opcode::Add => elementwise(args[0], args[1], |a, b| a + b),
        Opcode::Sub => elementwise(args[0], args[1], |a, b| a - b),
        Opcode::Multiply => elementwise(args[0], args[1], |a, b| a * b),
        Opcode::RotateLeft(steps) => rotate_left(args[0], steps as i64, size),
        Opcode::RotateRight(steps) => rotate_left(args[0], -(steps as i64), size),
        Opcode::Relinearize | Opcode::ModSwitch | Opcode::Rescale(_) => args[0].clone(),
    }
}

fn elementwise(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

pub(crate) fn rotate_left(v: &[f64], steps: i64, size: usize) -> Vec<f64> {
    (0..size)
        .map(|i| {
            let src = (i as i64 + steps).rem_euclid(size as i64) as usize;
            v[src]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_core::Program;

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(name, v)| (name.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn arithmetic_and_rotation_semantics() {
        let mut p = Program::new("ref", 4);
        let x = p.input_cipher("x", 30);
        let y = p.input_vector("y", 30);
        let sum = p.instruction(Opcode::Add, &[x, y]);
        let rot = p.instruction(Opcode::RotateLeft(1), &[sum]);
        let neg = p.instruction(Opcode::Negate, &[rot]);
        let rot_r = p.instruction(Opcode::RotateRight(2), &[neg]);
        p.output("out", rot_r, 30);

        let result = run_reference(
            &p,
            &inputs(&[
                ("x", vec![1.0, 2.0, 3.0, 4.0]),
                ("y", vec![10.0, 20.0, 30.0, 40.0]),
            ]),
        )
        .unwrap();
        // sum = [11,22,33,44]; rot left 1 = [22,33,44,11]; neg; rot right 2 =
        // [-44,-11,-22,-33].
        assert_eq!(result["out"], vec![-44.0, -11.0, -22.0, -33.0]);
    }

    #[test]
    fn short_inputs_are_replicated() {
        let mut p = Program::new("rep", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let result = run_reference(&p, &inputs(&[("x", vec![2.0, 3.0])])).unwrap();
        assert_eq!(result["out"], vec![4.0, 9.0, 4.0, 9.0, 4.0, 9.0, 4.0, 9.0]);
    }

    #[test]
    fn cyclic_programs_are_errors() {
        let mut p = Program::new("cyclic", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let sum = p.instruction(Opcode::Add, &[sq, x]);
        p.output("out", sum, 30);
        p.replace_arg(sq, x, sum);
        let p = eva_core::serialize::from_bytes(&eva_core::serialize::to_bytes(&p)).unwrap();
        let err = run_reference(&p, &inputs(&[("x", vec![2.0])])).unwrap_err();
        assert!(matches!(err, EvaError::InvalidProgram(_)), "{err}");
    }

    #[test]
    fn maintenance_instructions_are_value_identities() {
        let mut p = Program::new("x2y3", 8);
        let x = p.input_cipher("x", 60);
        let y = p.input_cipher("y", 30);
        let x2 = p.instruction(Opcode::Multiply, &[x, x]);
        let y2 = p.instruction(Opcode::Multiply, &[y, y]);
        let y3 = p.instruction(Opcode::Multiply, &[y2, y]);
        let out = p.instruction(Opcode::Multiply, &[x2, y3]);
        p.output("out", out, 30);
        let input_map = inputs(&[("x", vec![0.5; 8]), ("y", vec![2.0; 8])]);
        let before = run_reference(&p, &input_map).unwrap();

        let compiled = eva_core::compile(&p, &eva_core::CompilerOptions::default()).unwrap();
        let after = run_reference(&compiled.program, &input_map).unwrap();
        assert_eq!(before["out"], after["out"]);
        assert!((before["out"][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_and_oversized_inputs_are_errors() {
        let mut p = Program::new("err", 4);
        let x = p.input_cipher("x", 30);
        p.output("out", x, 30);
        assert!(run_reference(&p, &HashMap::new()).is_err());
        assert!(run_reference(&p, &inputs(&[("x", vec![1.0; 9])])).is_err());
    }
}
