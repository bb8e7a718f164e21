//! Property-based tests for the standalone IR verifier.
//!
//! Two properties, mirroring the paper's Section 6.2 claim that compiled
//! programs can never throw inside the FHE runtime:
//!
//! 1. **Completeness on good programs** — every program the compiler produces
//!    from a random circuit passes `verify_compiled` with zero errors.
//! 2. **Sensitivity to corruption** — a single mutation of a compiled
//!    program (retargeting an argument, bypassing a relinearize, deepening a
//!    rescale chain past the prime budget, dropping a rotation step from the
//!    Galois-key request, flipping an instruction's cipher bit) is caught by
//!    the matching named check.

use eva::ir::analysis::verifier::{verify_compiled, Check};
use eva::ir::{
    compile, CompiledProgram, CompilerOptions, ModSwitchStrategy, Opcode, Program, RescaleStrategy,
    ValueType,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Same shape as the generator in `random_programs.rs`: a random DAG over
/// cipher/plain inputs with arithmetic, rotations and negation.
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
    let outputs = pool.len().saturating_sub(2);
    for (i, &node) in pool[outputs..].iter().enumerate() {
        if program.node(node).ty.is_cipher() {
            program.output(format!("out{i}"), node, 30);
        }
    }
    if program.outputs().is_empty() {
        program.output("fallback", pool[0], 30);
    }
    program
}

fn compile_random(seed: u64, budget: usize, lazy: bool) -> Option<CompiledProgram> {
    let options = CompilerOptions {
        rescale: RescaleStrategy::Waterline,
        mod_switch: if lazy {
            ModSwitchStrategy::Lazy
        } else {
            ModSwitchStrategy::Eager
        },
        max_rescale_bits: 60,
        ..CompilerOptions::default()
    };
    compile(&random_program(seed, budget), &options).ok()
}

/// The single-mutation corruptions from the issue, each paired with the
/// named check(s) allowed to catch it. Several checks may legitimately fire
/// for one mutation (retargeting an argument breaks the stamped exact scales
/// of every descendant as well as the local scale match), but at least one
/// of the *matching* checks must.
fn mutate(compiled: &mut CompiledProgram, choice: usize, rng: &mut impl Rng) -> Vec<Check> {
    let program = &mut compiled.program;
    match choice {
        // Retarget one argument of a live cipher binary op back at a raw
        // input: scale, chain and exact-scale annotations all diverge.
        0 => {
            let live = program.live_mask();
            if let Some(id) = (0..program.len()).find(|&id| {
                live[id]
                    && matches!(
                        program.opcode(id),
                        Some(Opcode::Add | Opcode::Sub | Opcode::Multiply)
                    )
                    && program
                        .args(id)
                        .iter()
                        .all(|&a| program.node(a).ty.is_cipher())
                    && !program.args(id).contains(&0)
            }) {
                program.replace_arg_at(id, rng.gen_range(0..2), 0);
                vec![
                    Check::ScaleMatch,
                    Check::ChainConformity,
                    Check::ExactScales,
                ]
            } else {
                Vec::new()
            }
        }
        // Bypass a live relinearize: its consumers (or the output wire
        // contract) see a 3-polynomial ciphertext. Dead relinearize nodes are
        // skipped — bypassing one changes nothing observable.
        1 => {
            let live = program.live_mask();
            if let Some(id) = (0..program.len())
                .find(|&id| live[id] && program.opcode(id) == Some(Opcode::Relinearize))
            {
                let operand = program.args(id)[0];
                let users: Vec<usize> = (0..program.len())
                    .filter(|&u| program.args(u).contains(&id))
                    .collect();
                for user in users {
                    program.replace_arg(user, id, operand);
                }
                program.redirect_outputs(id, operand);
                vec![Check::Relinearized, Check::ExactScales, Check::ScaleMatch]
            } else {
                Vec::new()
            }
        }
        // Deepen the rescale chain of an output until it outruns the shipped
        // prime chain.
        2 => {
            for _ in 0..=compiled.parameters.data_primes.len() {
                let out_node = program.outputs()[0].node;
                let extra = program.push_instruction(
                    Opcode::Rescale(30),
                    vec![out_node],
                    ValueType::Cipher,
                );
                program.redirect_outputs(out_node, extra);
            }
            vec![Check::LevelBudget, Check::ExactScales]
        }
        // Flip the cipher bit of a live instruction: a retyped copy takes
        // over its uses, so its declared type no longer follows its operands.
        4 => {
            let live = program.live_mask();
            let instructions: Vec<usize> = (0..program.len())
                .filter(|&id| live[id] && program.opcode(id).is_some())
                .collect();
            if instructions.is_empty() {
                return Vec::new();
            }
            let id = instructions[rng.gen_range(0..instructions.len())];
            let ty = if program.node(id).ty.is_cipher() {
                ValueType::Vector
            } else {
                ValueType::Cipher
            };
            let op = program.opcode(id).unwrap();
            let retyped = program.push_instruction(op, program.args(id).to_vec(), ty);
            for user in 0..retyped {
                program.replace_arg(user, id, retyped);
            }
            program.redirect_outputs(id, retyped);
            vec![Check::ArgIndices]
        }
        // Drop a rotation step from the Galois-key request.
        _ => {
            if compiled.rotation_steps.is_empty() {
                Vec::new()
            } else {
                let victim = rng.gen_range(0..compiled.rotation_steps.len());
                compiled.rotation_steps.remove(victim);
                vec![Check::RotationKeys]
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // (a) Every compiler-produced program passes the verifier cleanly.
    #[test]
    fn compiled_programs_verify_cleanly(seed in any::<u64>(), budget in 3usize..25, lazy in any::<bool>()) {
        if let Some(compiled) = compile_random(seed, budget, lazy) {
            let report = verify_compiled(&compiled);
            prop_assert!(report.is_clean(), "compiler output failed verification:\n{report}");
        }
    }

    // (b) Single-mutation corruption is caught by the matching named check.
    #[test]
    fn corruption_is_caught_by_the_matching_check(
        seed in any::<u64>(),
        budget in 6usize..25,
        choice in 0usize..5,
    ) {
        let Some(mut compiled) = compile_random(seed, budget, false) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let expected = mutate(&mut compiled, choice, &mut rng);
        if expected.is_empty() {
            // The mutation did not apply to this program (e.g. no relinearize
            // present); nothing to check.
            return Ok(());
        }
        let report = verify_compiled(&compiled);
        prop_assert!(!report.is_clean(), "mutation {choice} survived verification");
        prop_assert!(
            expected.iter().any(|&check| report.has_error(check)),
            "mutation {choice} caught, but by the wrong check(s):\n{report}"
        );
    }
}

/// The service-layer contract in one deterministic test: a valid program
/// round-trips through `.evaprog` bytes and still verifies; every mutated
/// variant is rejected.
#[test]
fn evaprog_roundtrip_preserves_verifiability() {
    let compiled = compile_random(11, 12, false).expect("seed 11 compiles");
    let bytes = eva::ir::serialize::compiled_to_bytes(&compiled);
    let decoded = eva::ir::serialize::compiled_from_bytes(&bytes).unwrap();
    let report = verify_compiled(&decoded);
    assert!(report.is_clean(), "{report}");
}
