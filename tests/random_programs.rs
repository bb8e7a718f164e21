//! Property-based integration test: the compiler's central guarantee.
//!
//! For randomly generated input programs, compilation must either fail with a
//! clean error or produce a program that (a) passes validation — it would
//! never throw inside the FHE library — and (b) preserves the reference
//! semantics (the maintenance instructions do not change values).

use std::collections::HashMap;

use eva::backend::run_reference;
use eva::ir::{compile, CompilerOptions, ModSwitchStrategy, Opcode, Program, RescaleStrategy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds a random DAG program from a seed: a mix of cipher/plain inputs and
/// random arithmetic, rotation and subtraction nodes.
fn random_program(seed: u64, node_budget: usize) -> Program {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vec_size = 16usize;
    let mut program = Program::new(format!("random_{seed}"), vec_size);
    let mut pool = vec![
        program.input_cipher("a", rng.gen_range(20..=35)),
        program.input_cipher("b", rng.gen_range(20..=35)),
        program.input_vector("v", rng.gen_range(10..=20)),
    ];
    for _ in 0..node_budget {
        let lhs = pool[rng.gen_range(0..pool.len())];
        let rhs = pool[rng.gen_range(0..pool.len())];
        let node = match rng.gen_range(0..6) {
            0 => program.instruction(Opcode::Add, &[lhs, rhs]),
            1 => program.instruction(Opcode::Sub, &[lhs, rhs]),
            2 | 3 => program.instruction(Opcode::Multiply, &[lhs, rhs]),
            4 => program.instruction(Opcode::RotateLeft(rng.gen_range(0..8)), &[lhs]),
            _ => program.instruction(Opcode::Negate, &[lhs]),
        };
        pool.push(node);
    }
    // Use the last few nodes as outputs so deep chains are exercised.
    let outputs = pool.len().saturating_sub(2);
    for (i, &node) in pool[outputs..].iter().enumerate() {
        if program.node(node).ty.is_cipher() {
            program.output(format!("out{i}"), node, 30);
        }
    }
    // Guarantee at least one cipher output.
    if program.outputs().is_empty() {
        program.output("fallback", pool[0], 30);
    }
    program
}

fn random_inputs(seed: u64) -> HashMap<String, Vec<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xdead_beef);
    ["a", "b", "v"]
        .iter()
        .map(|&name| {
            (
                name.to_string(),
                (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compilation_preserves_reference_semantics(seed in any::<u64>(), budget in 3usize..25) {
        let program = random_program(seed, budget);
        let inputs = random_inputs(seed);
        let before = run_reference(&program, &inputs).unwrap();

        for (rescale, mod_switch) in [
            (RescaleStrategy::Waterline, ModSwitchStrategy::Eager),
            (RescaleStrategy::Waterline, ModSwitchStrategy::Lazy),
        ] {
            let options =
                CompilerOptions { rescale, mod_switch, ..Default::default() };
            match compile(&program, &options) {
                Ok(compiled) => {
                    // The transformed program must compute the same values.
                    let after = run_reference(&compiled.program, &inputs).unwrap();
                    for (name, expected) in &before {
                        let actual = &after[name];
                        for (a, b) in actual.iter().zip(expected) {
                            prop_assert!((a - b).abs() < 1e-9,
                                "output {name} changed after transformation: {a} vs {b}");
                        }
                    }
                    // And its parameters must be well-formed.
                    prop_assert!(compiled.parameters.chain_length() >= 2);
                    prop_assert!(compiled.parameters.total_bits() <= 1762);
                }
                Err(err) => {
                    // Two failure modes are acceptable for very deep random
                    // programs: parameter selection (the modulus outgrows every
                    // supported ring degree) and the worst-case noise gate (deep
                    // multiply chains genuinely drown their outputs in noise).
                    // Validation failures would mean the transformation itself
                    // is broken.
                    prop_assert!(
                        matches!(
                            err,
                            eva::ir::EvaError::ParameterSelection(_)
                                | eva::ir::EvaError::NoiseBudget(_)
                        ),
                        "unexpected compilation failure: {err}"
                    );
                }
            }
        }
    }
}
