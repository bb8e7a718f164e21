//! Property-based tests for the analysis-driven optimizer.
//!
//! Three properties from the optimizer's contract, plus an extension of the
//! verifier mutation corpus to optimized programs:
//!
//! 1. **Verified output** — every optimized compile passes `verify_compiled`
//!    with zero errors (the in-pipeline guards re-check after each pass; this
//!    re-checks the final artifact from outside).
//! 2. **Bit-identity of the structural subset** — CSE + DCE are
//!    bit-preserving: a twin built by running those two passes by hand and
//!    compiling the result unoptimized decrypts to exactly the same `f64`
//!    bits as the unoptimized twin after encrypted execution with the same
//!    seed, whenever both twins select the same encryption parameters. (The
//!    rotation passes are only *value*-preserving — they re-associate sums
//!    and re-encode constants — so they are excluded here and covered by
//!    tolerance-based tests.
//!    Parameters can legitimately differ when the unoptimized twin carries a
//!    dead cipher branch with a deeper rescale chain than any live path:
//!    parameter selection runs before the final dead-code sweep, so only the
//!    optimized twin gets the smaller modulus chain. That is an optimizer
//!    win, not a bug — in that case the outputs agree to working precision
//!    instead of bitwise.)
//! 3. **Monotone key switching** — the fully optimized twin never has more
//!    rotations or key switches than the unoptimized twin.
//! 4. **Mutation corpus** — corrupting an optimized compiled program (a
//!    rotation by an unrequested step smuggled in front of an output) is
//!    caught by the matching named check.

use std::collections::HashMap;

use eva::backend::{execute_parallel, EncryptedContext, NodeValue};
use eva::ir::analysis::verifier::{verify_compiled, Check};
use eva::ir::passes::{eliminate_common_subexpressions, eliminate_dead_code};
use eva::ir::{
    compile, estimate_cost, CompiledProgram, CompilerOptions, CostModel, EvaError, Opcode, Program,
    ValueType,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Same shape as the generator in `verifier_props.rs`: a random DAG over
/// cipher/plain inputs with arithmetic, rotations and negation. Random
/// programs are duplicate-heavy (small pools resample the same operands), so
/// CSE and DCE both get real work.
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

fn inputs_for(seed: u64) -> HashMap<String, Vec<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
    ["a", "b", "v"]
        .iter()
        .map(|name| {
            let v: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (name.to_string(), v)
        })
        .collect()
}

/// The bit-preserving structural passes (CSE + DCE) run by hand, then the
/// maintenance pipeline alone.
fn compile_cse_dce_only(program: &Program) -> Result<CompiledProgram, EvaError> {
    let mut program = program.clone();
    eliminate_common_subexpressions(&mut program);
    eliminate_dead_code(&mut program);
    compile(&program, &CompilerOptions::unoptimized())
}

/// One seeded encrypted execution: setup, encrypt, run, decrypt.
fn run_seeded(
    compiled: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    seed: u64,
) -> HashMap<String, Vec<f64>> {
    let mut context = EncryptedContext::setup(compiled, Some(seed)).expect("setup");
    let bindings = context.encrypt_inputs(compiled, inputs).expect("encrypt");
    let values = context.execute_serial(compiled, bindings).expect("execute");
    context.decrypt_outputs(compiled, &values).expect("decrypt")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // (1) The fully optimized artifact passes the standalone verifier.
    #[test]
    fn optimized_programs_verify_cleanly(seed in any::<u64>(), budget in 3usize..25) {
        if let Ok(compiled) = compile(&random_program(seed, budget), &CompilerOptions::default()) {
            let report = verify_compiled(&compiled);
            prop_assert!(report.is_clean(), "optimized output failed verification:\n{report}");
        }
    }

    // (3) Optimization never adds a rotation or a key switch.
    #[test]
    fn optimization_is_cost_monotone(seed in any::<u64>(), budget in 3usize..25) {
        let program = random_program(seed, budget);
        let (Ok(unopt), Ok(opt)) = (
            compile(&program, &CompilerOptions::unoptimized()),
            compile(&program, &CompilerOptions::default()),
        ) else { return Ok(()); };
        let model = CostModel::default();
        let before = estimate_cost(&unopt, &model).unwrap();
        let after = estimate_cost(&opt, &model).unwrap();
        // Not monotone by design, so not asserted:
        // - `nodes`: eager mod-switch placement without the dead consumers can add one;
        // - `distinct_rotation_steps`: compose-merging rot(rot(x,5),5) beside a kept
        //   rot(x,5) saves a key switch but needs a new key (step 10).
        prop_assert!(after.rotations <= before.rotations,
            "{} > {} rotations", after.rotations, before.rotations);
        prop_assert!(after.key_switches <= before.key_switches,
            "{} > {} key switches", after.key_switches, before.key_switches);
    }

    // (4) Mutation corpus, extended to optimized programs: a rotation by an
    // unrequested step inserted in front of an output must be caught by the
    // rotation-key coverage check.
    #[test]
    fn smuggled_rotation_step_is_caught(seed in any::<u64>(), budget in 6usize..25) {
        let Ok(mut compiled) = compile(&random_program(seed, budget), &CompilerOptions::default())
        else { return Ok(()); };
        let vec_size = compiled.program.vec_size() as i64;
        // A canonical step the compiled program did not request a key for.
        let Some(step) = (1..vec_size).find(|s| !compiled.rotation_steps.contains(s))
        else { return Ok(()); };
        let out_node = compiled.program.outputs()[0].node;
        let scale = compiled.program.node(out_node).scale_log2;
        let extra = compiled.program.push_instruction(
            Opcode::RotateLeft(step as i32),
            vec![out_node],
            ValueType::Cipher,
        );
        compiled.program.set_scale_log2(extra, scale);
        compiled.program.redirect_outputs(out_node, extra);
        let report = verify_compiled(&compiled);
        prop_assert!(report.has_error(Check::RotationKeys),
            "uncovered rotation step {step} survived verification:\n{report}");
    }
}

proptest! {
    // Encrypted executions are expensive; fewer cases, still fresh programs
    // every run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // (2) CSE + DCE are bit-preserving through the encrypted backend.
    #[test]
    fn cse_dce_twin_is_bit_identical(seed in any::<u64>(), budget in 3usize..14) {
        let program = random_program(seed, budget);
        let (Ok(unopt), Ok(opt)) = (
            compile(&program, &CompilerOptions::unoptimized()),
            compile_cse_dce_only(&program),
        ) else { return Ok(()); };
        let inputs = inputs_for(seed);
        let baseline = run_seeded(&unopt, &inputs, 42);
        let optimized = run_seeded(&opt, &inputs, 42);
        prop_assert_eq!(baseline.len(), optimized.len());
        let same_parameters = unopt.parameters == opt.parameters;
        for (name, expected) in &baseline {
            let actual = &optimized[name];
            for (i, (a, b)) in actual.iter().zip(expected).enumerate() {
                if same_parameters {
                    prop_assert!(a.to_bits() == b.to_bits(),
                        "output {name}[{i}]: {a} != {b} (bitwise)");
                } else {
                    // DCE shrank the modulus chain (see module docs): the
                    // twins run under different primes, so require value
                    // preservation instead of bit-identity.
                    prop_assert!((a - b).abs() < 1e-3 * b.abs().max(1.0),
                        "output {name}[{i}]: {a} vs {b}");
                }
            }
        }
    }
}

/// The acceptance workload, deterministically: on compiled Sobel 16×16 the
/// optimizer strictly reduces node count and key switches, keeps the
/// rotation fan-outs intact for hoisted execution, and the optimized program
/// still decrypts to the unoptimized twin's outputs within CKKS noise.
#[test]
fn sobel_16x16_is_strictly_reduced_and_value_preserving() {
    let program = eva::apps::image::sobel_program(16);
    let unopt = compile(&program, &CompilerOptions::unoptimized()).unwrap();
    let opt = compile(&program, &CompilerOptions::default()).unwrap();
    let model = CostModel::default();
    let before = estimate_cost(&unopt, &model).unwrap();
    let after = estimate_cost(&opt, &model).unwrap();
    assert!(
        after.nodes < before.nodes,
        "{} !< {}",
        after.nodes,
        before.nodes
    );
    assert!(
        after.distinct_rotation_steps <= before.distinct_rotation_steps,
        "{} !<= {}",
        after.distinct_rotation_steps,
        before.distinct_rotation_steps
    );
    assert!(
        after.key_switches < before.key_switches,
        "{} !< {}",
        after.key_switches,
        before.key_switches
    );
    // The optimizer must leave Sobel's rotation fan-out hoistable.
    assert!(after.hoisted_groups >= 1, "{:?}", after.hoisted_groups);
    assert!(
        after.hoisted_rotations >= after.rotations / 2,
        "{} hoisted of {} rotations",
        after.hoisted_rotations,
        after.rotations
    );
    assert!(
        after.predicted_us < before.predicted_us,
        "{} !< {}",
        after.predicted_us,
        before.predicted_us
    );

    let image: Vec<f64> = (0..256).map(|i| ((i % 17) as f64) / 17.0).collect();
    let inputs: HashMap<String, Vec<f64>> = [("image".to_string(), image)].into_iter().collect();
    let baseline = run_seeded(&unopt, &inputs, 42);

    // The structural subset (CSE + DCE) is exactly bit-identical on Sobel.
    let structural = compile_cse_dce_only(&program).unwrap();
    assert_eq!(structural.parameters, unopt.parameters);
    for (name, expected) in &baseline {
        for (i, (a, b)) in run_seeded(&structural, &inputs, 42)[name]
            .iter()
            .zip(expected)
            .enumerate()
        {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}[{i}]: {a} != {b} (bitwise)"
            );
        }
    }

    // The full optimizer re-associates rotation sums: value-preserving.
    let optimized = run_seeded(&opt, &inputs, 42);
    for (name, expected) in &baseline {
        for (a, b) in optimized[name].iter().zip(expected) {
            assert!(
                (a - b).abs() < 1e-2 * b.abs().max(1.0),
                "{name}: {a} vs {b}"
            );
        }
    }
}

/// Asserts two output maps hold bit-identical values (ciphertext
/// polynomials and scales, or plaintext `f64` bits).
fn assert_outputs_bit_identical(
    a: &HashMap<usize, NodeValue>,
    b: &HashMap<usize, NodeValue>,
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}: output count");
    for (node, va) in a {
        match (va, &b[node]) {
            (NodeValue::Cipher(x), NodeValue::Cipher(y)) => {
                assert_eq!(
                    x.polys(),
                    y.polys(),
                    "{label}: ciphertext output {node} diverged"
                );
                assert_eq!(x.scale_log2().to_bits(), y.scale_log2().to_bits());
                assert_eq!(x.level(), y.level());
            }
            (NodeValue::Plain(x), NodeValue::Plain(y)) => {
                assert!(
                    x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "{label}: plaintext output {node} diverged"
                );
            }
            _ => panic!("{label}: output {node} changed kind"),
        }
    }
}

/// Runs one workload through the serial executor and the parallel one at
/// 2, 3 and 8 threads, asserting bit-identical ciphertext outputs
/// everywhere: each rotation fan-out is one shared decomposition whose
/// digits and key applies run as tasks in whatever order the threads take
/// them, and that must not move a single bit.
fn assert_hoisting_is_bit_invisible(
    compiled: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
) {
    let report = estimate_cost(compiled, &CostModel::default()).unwrap();
    assert!(
        report.hoisted_groups >= 1,
        "workload exercises no rotation fan-out: {report:?}"
    );
    let mut ctx = EncryptedContext::setup(compiled, Some(42)).unwrap();
    let bindings = ctx.encrypt_inputs(compiled, inputs).unwrap();
    let serial = ctx.execute_serial(compiled, bindings.clone()).unwrap();
    for threads in [2, 3, 8] {
        let parallel =
            execute_parallel(ctx.evaluation(), compiled, bindings.clone(), threads).unwrap();
        assert_outputs_bit_identical(&parallel, &serial, &format!("serial vs {threads} threads"));
    }
    // And the outputs decode to something: guard against a trivially-empty
    // comparison.
    let decrypted = ctx.decrypt_outputs(compiled, &serial).unwrap();
    assert!(!decrypted.is_empty());
}

/// Sobel 16×16 twins: the serial and the parallel executions of its
/// rotation fan-outs are bit-identical.
#[test]
fn sobel_hoisted_twins_are_bit_identical() {
    let program = eva::apps::image::sobel_program(16);
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let image: Vec<f64> = (0..256).map(|i| ((i % 17) as f64) / 17.0).collect();
    let inputs: HashMap<String, Vec<f64>> = [("image".to_string(), image)].into_iter().collect();
    assert_hoisting_is_bit_invisible(&compiled, &inputs);
}

/// LeNet-5-small twins: the full DNN workload (hundreds of rotations across
/// many fan-out groups) through the same differential harness.
#[test]
fn lenet_hoisted_twins_are_bit_identical() {
    let network = eva::tensor::networks::lenet5_small(42);
    let lowered = eva::tensor::lower_network(&network, eva::tensor::LoweringMode::Eva);
    let compiled = compile(&lowered.program, &CompilerOptions::default()).unwrap();
    let image: Vec<f64> = (0..lowered.program.vec_size())
        .map(|i| ((i % 23) as f64) / 23.0 - 0.5)
        .collect();
    let inputs: HashMap<String, Vec<f64>> =
        [(lowered.input_name.clone(), image)].into_iter().collect();
    assert_hoisting_is_bit_invisible(&compiled, &inputs);
}
