//! Property-based integration test for exact scale tracking: the compiler's
//! per-node scale annotations must be **bit-identical** (as `f64`s) to the
//! scales the encrypted executor observes, across random programs with deep
//! rescale chains.
//!
//! Every ciphertext the encrypted executor produces is also checked by a
//! `debug_assert!` comparing observed vs annotated scale, so (with debug
//! assertions on, as in `cargo test` and the CI debug job) a single encrypted
//! run checks *every* node, not only the outputs asserted here: a deviation
//! fails the run with an error naming the node.

use std::collections::HashMap;

use eva::backend::{EncryptedContext, NodeValue};
use eva::ir::{compile, CompilerOptions, ModSwitchStrategy, Opcode, Program, RescaleStrategy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random DAG with a deep squaring tail so waterline insertion produces a
/// rescale chain of at least `depth` levels.
fn random_deep_program(seed: u64, budget: usize, depth: usize) -> Program {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut program = Program::new(format!("deep_{seed}"), 8);
    let mut pool = vec![
        program.input_cipher("a", rng.gen_range(40..=55)),
        program.input_cipher("b", rng.gen_range(40..=55)),
        program.input_vector("v", rng.gen_range(10..=20)),
    ];
    for _ in 0..budget {
        let lhs = pool[rng.gen_range(0..pool.len())];
        let rhs = pool[rng.gen_range(0..pool.len())];
        let node = match rng.gen_range(0..6) {
            0 => program.instruction(Opcode::Add, &[lhs, rhs]),
            1 => program.instruction(Opcode::Sub, &[lhs, rhs]),
            2 | 3 => program.instruction(Opcode::Multiply, &[lhs, rhs]),
            4 => program.instruction(Opcode::RotateLeft(rng.gen_range(0..4)), &[lhs]),
            _ => program.instruction(Opcode::Negate, &[lhs]),
        };
        pool.push(node);
    }
    // Deep tail: repeated squaring forces >= `depth` waterline rescales, and
    // the add of the (mod-switched) original exercises the drift correction.
    let mut acc = *pool
        .iter()
        .rev()
        .find(|&&n| program.node(n).ty.is_cipher())
        .expect("cipher nodes exist");
    let start = acc;
    for _ in 0..depth {
        acc = program.instruction(Opcode::Multiply, &[acc, acc]);
    }
    let rejoin = program.instruction(Opcode::Multiply, &[acc, start]);
    program.output("deep", rejoin, 30);
    program.output("mid", acc, 30);
    program
}

fn random_inputs(seed: u64) -> HashMap<String, Vec<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    ["a", "b", "v"]
        .iter()
        .map(|&name| {
            (
                name.to_string(),
                (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiler_scales_are_bit_identical_to_executor_scales(
        seed in any::<u64>(),
        budget in 3usize..12,
        depth in 3usize..5,
    ) {
        let program = random_deep_program(seed, budget, depth);
        for (rescale, mod_switch) in [
            (RescaleStrategy::Waterline, ModSwitchStrategy::Eager),
            (RescaleStrategy::Waterline, ModSwitchStrategy::Lazy),
        ] {
            let options =
                CompilerOptions { rescale, mod_switch, ..Default::default() };
            let Ok(mut compiled) = compile(&program, &options) else {
                // Oversized random programs may exceed every ring degree.
                continue;
            };
            let rescales = compiled
                .program
                .opcode_histogram()
                .get("rescale")
                .copied()
                .unwrap_or(0);
            prop_assert!(rescales >= depth.min(3),
                "the squaring tail must produce a deep rescale chain");

            // Scale bookkeeping is degree-independent, and the compiler's
            // primes (chosen for a large secure degree, q = 1 mod 2N) remain
            // NTT-friendly for any smaller power-of-two degree. Shrink the
            // ring so each proptest case runs in milliseconds.
            compiled.parameters.degree = 1024;
            compiled.parameters.secure = false;

            let mut ctx = EncryptedContext::setup(&compiled, Some(seed ^ 1)).unwrap();
            let bindings = ctx.encrypt_inputs(&compiled, &random_inputs(seed)).unwrap();
            // execute_serial runs the per-node debug_assert over every live
            // instruction; the explicit check below re-verifies the outputs.
            let values = ctx.execute_serial(&compiled, bindings).unwrap();
            for output in compiled.program.outputs() {
                let Some(NodeValue::Cipher(ct)) = values.get(&output.node) else {
                    continue;
                };
                let annotated = compiled.program.node(output.node).scale_log2;
                prop_assert!(
                    ct.scale_log2().to_bits() == annotated.to_bits(),
                    "output {}: executor scale 2^{} vs compiler annotation 2^{}",
                    &output.name,
                    ct.scale_log2(),
                    annotated
                );
            }
        }
    }
}
