//! Integration tests for the shared execution schedule
//! (`eva_core::analysis::Schedule`): the memory forecast and the serial
//! executor's audit agree, the parallel executor is bit-identical to the
//! serial one, and the cost model and forecast print exactly what they
//! printed before they were rewritten as schedule walks.

mod harness;

use std::collections::HashMap;

use eva::backend::{EncryptedContext, MemoryAudit};
use eva::ir::{
    compile, estimate_cost, predict_peak_memory, CompiledProgram, CompilerOptions, CostModel,
    MemoryForecast, Opcode, Program,
};
use harness::{check, cost, Case, DEFAULT, LAZY};

type Inputs = HashMap<String, Vec<f64>>;

/// A 3-way rotation fan-out whose source also feeds an ADD, a
/// duplicate-argument node, a dead branch and two outputs sharing a node
/// (the program `schedule.rs`'s unit tests pin step by step).
fn mixed_program() -> Program {
    let mut p = Program::new("mixed", 16);
    let x = p.input_cipher("x", 30);
    let sq = p.instruction(Opcode::Multiply, &[x, x]);
    let r1 = p.instruction(Opcode::RotateLeft(1), &[sq]);
    let r2 = p.instruction(Opcode::RotateLeft(2), &[sq]);
    let r3 = p.instruction(Opcode::RotateRight(3), &[sq]);
    let a = p.instruction(Opcode::Add, &[sq, r1]);
    let b = p.instruction(Opcode::Add, &[r2, r3]);
    let c = p.instruction(Opcode::Add, &[a, b]);
    let dead = p.instruction(Opcode::RotateLeft(5), &[sq]);
    let _dead = p.instruction(Opcode::Negate, &[dead]);
    p.output("first", c, 30);
    p.output("second", c, 30);
    p
}

fn mixed_inputs() -> Inputs {
    let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0 - 0.5).collect();
    HashMap::from([("x".to_string(), x)])
}

fn mixed() -> (CompiledProgram, Inputs) {
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    (compiled, mixed_inputs())
}

fn sobel_16() -> (CompiledProgram, Inputs) {
    let compiled = compile(
        &eva::apps::image::sobel_program(16),
        &CompilerOptions::default(),
    )
    .unwrap();
    let image: Vec<f64> = (0..256).map(|i| ((i % 17) as f64) / 17.0).collect();
    (compiled, HashMap::from([("image".to_string(), image)]))
}

fn audited(compiled: &CompiledProgram, inputs: &Inputs) -> (MemoryForecast, MemoryAudit) {
    let forecast = predict_peak_memory(compiled).unwrap();
    let mut ctx = EncryptedContext::setup(compiled, Some(42)).unwrap();
    let bindings = ctx.encrypt_inputs(compiled, inputs).unwrap();
    let (_, audit) = ctx
        .evaluation()
        .execute_serial_audited(compiled, bindings)
        .unwrap();
    (forecast, audit)
}

#[test]
fn forecast_equals_the_audit_on_sobel_and_bounds_it_on_the_mixed_program() {
    let (compiled, inputs) = sobel_16();
    let (forecast, audit) = audited(&compiled, &inputs);
    assert_eq!(forecast.peak_live_ciphertexts, audit.peak_live_ciphertexts);
    assert_eq!(forecast.peak_bytes, audit.peak_bytes);

    let (compiled, inputs) = mixed();
    let (forecast, audit) = audited(&compiled, &inputs);
    assert!(
        forecast.peak_live_values >= audit.peak_live_values
            && forecast.peak_live_ciphertexts >= audit.peak_live_ciphertexts
            && forecast.peak_bytes >= audit.peak_bytes,
        "forecast {forecast:?} must upper-bound audit {audit:?}"
    );
}

/// The mixed program's fan-out runs hoisted in the optimized legs, and every
/// leg of the differential harness runs serially and at 2, 3 and 8 threads
/// bit for bit (the thread counts grew after the test was named). Sobel's
/// fan-outs are `optimizer_props.rs`'s `sobel_hoisted_twins_are_bit_identical`.
#[test]
fn parallel_is_bit_identical_to_serial_at_one_two_and_four_threads() {
    let case = Case::new("rotation fan-out", mixed_program(), mixed_inputs());
    let legs = check(&Case {
        tolerance: Some(1e-4),
        ..case
    });
    for name in [DEFAULT, LAZY] {
        let groups = cost(&legs, name).hoisted_groups;
        assert!(groups >= 1, "{name}: {groups} hoisted groups");
    }
}

/// What `estimate_cost` and `predict_peak_memory` printed at the commit
/// before both became schedule walks.
struct Golden {
    nodes: usize,
    key_switches: usize,
    hoisted_groups: usize,
    hoisted_rotations: usize,
    ntts: usize,
    predicted_us_bits: u64,
    forecast: MemoryForecast,
}

fn assert_golden(program: &Program, golden: &Golden) {
    let compiled = compile(program, &CompilerOptions::default()).unwrap();
    let report = estimate_cost(&compiled, &CostModel::default()).unwrap();
    assert_eq!(report.nodes, golden.nodes);
    assert_eq!(report.key_switches, golden.key_switches);
    assert_eq!(report.hoisted_groups, golden.hoisted_groups);
    assert_eq!(report.hoisted_rotations, golden.hoisted_rotations);
    assert_eq!(report.ntts, golden.ntts);
    assert_eq!(
        report.predicted_us.to_bits(),
        golden.predicted_us_bits,
        "predicted {} µs",
        report.predicted_us
    );
    assert_eq!(predict_peak_memory(&compiled).unwrap(), golden.forecast);
}

#[test]
fn cost_report_and_forecast_match_the_pre_schedule_goldens() {
    assert_golden(
        &eva::apps::image::sobel_program(64),
        &Golden {
            nodes: 75,
            key_switches: 12,
            hoisted_groups: 1,
            hoisted_rotations: 7,
            ntts: 308,
            predicted_us_bits: 0x40ea_f277_8af8_af8c, // 55187.73571428572
            forecast: MemoryForecast {
                peak_live_values: 25,
                peak_live_ciphertexts: 16,
                peak_bytes: 17_072_128,
                at_node: Some(30),
                key_bytes: 47_185_920, // 1 relin + 8 Galois keys
            },
        },
    );
    // Unlike Sobel's, this literal is not a pre-schedule capture: it was
    // re-captured from PR 18, which changed the *program* (`lower_fc` became
    // one shared reduction per layer; before it: 1141 nodes, 293 key
    // switches, 17702 NTTs, 22 Galois keys). The analyses are unchanged.
    // It is LeNet with the activations at the vector scale, as every
    // network was lowered before the activations moved to `scales.scalar`.
    // Both LeNet `key_bytes` count each key at the level the program uses
    // it at; with every key at the top level they read 792 723 456.
    let network = eva::tensor::networks::lenet5_small(42);
    let lowered = lenet_with_activations_at_the_vector_scale(&network);
    assert_golden(
        &lowered.program,
        &Golden {
            nodes: 526,
            key_switches: 63,
            hoisted_groups: 4,
            hoisted_rotations: 17,
            ntts: 4592,
            predicted_us_bits: 0x4128_3c78_7c57_c572, // 794172.2428571417
            forecast: MemoryForecast {
                peak_live_values: 143,
                peak_live_ciphertexts: 45,
                peak_bytes: 165_003_264,
                at_node: Some(267),
                key_bytes: 674_234_368, // 1 relin + 20 Galois keys, at their levels
            },
        },
    );
    // The default lowering, activations at Table 4's 10-bit scalar scale:
    // the waterline pass drops 42 rescales, the key switches stay put.
    let lowered = eva::tensor::lower_network(&network, eva::tensor::LoweringMode::Eva);
    assert_golden(
        &lowered.program,
        &Golden {
            nodes: 484,
            key_switches: 63,
            hoisted_groups: 4,
            hoisted_rotations: 17,
            ntts: 3738,
            predicted_us_bits: 0x4123_fa9a_f46b_46bd, // 654669.4773809534
            forecast: MemoryForecast {
                peak_live_values: 143,
                peak_live_ciphertexts: 45,
                peak_bytes: 165_519_360,
                at_node: Some(267),
                key_bytes: 703_594_496, // 1 relin + 20 Galois keys, at their levels
            },
        },
    );
}

/// LeNet-5-small lowered with its activation coefficients at the vector
/// scale (15 bits), the input the LeNet pins below were captured on.
fn lenet_with_activations_at_the_vector_scale(
    network: &eva::tensor::Network,
) -> eva::tensor::LoweredNetwork {
    use eva::tensor::{lower_network_with_scales, LoweringMode, ScaleConfig};
    lower_network_with_scales(
        network,
        LoweringMode::Eva,
        ScaleConfig {
            scalar: 15,
            ..ScaleConfig::eva_default()
        },
    )
}

fn rotation_steps(program: &Program) -> Vec<i64> {
    (0..program.len())
        .filter_map(|id| program.opcode(id)?.rotation_step())
        .collect()
}

/// Where LeNet-5-small's key switches are since each fully-connected layer
/// became one shared reduction: two 15-rotation trees by powers of two
/// instead of 26 private ten-step chains, on the parameters (and so the
/// per-key bytes) the per-output kernel compiled to.
#[test]
fn lenet_census_one_reduction_tree_per_fully_connected_layer() {
    use eva::tensor::networks::{lenet5_small, Layer};

    let network = lenet5_small(42);
    let lowered = lenet_with_activations_at_the_vector_scale(&network);
    let compiled = lowered.compile().unwrap();
    let report = estimate_cost(&compiled, &CostModel::default()).unwrap();
    assert!(report.key_switches <= 65, "{}", report.key_switches);
    assert!(report.distinct_rotation_steps <= 22);

    // Lowering is sequential and activations emit no rotation, so the
    // rotations past the convolutional prefix's are the two FC layers'.
    let mut prefix = network.clone();
    let first_fc = prefix
        .layers
        .iter()
        .position(|layer| matches!(layer, Layer::FullyConnected(_)))
        .unwrap();
    prefix.layers.truncate(first_fc);
    let before_fc =
        rotation_steps(&lenet_with_activations_at_the_vector_scale(&prefix).program).len();
    let steps = rotation_steps(&lowered.program);
    let fc_steps = &steps[before_fc..];
    assert_eq!(fc_steps.len(), 15 + 15);
    assert!(fc_steps
        .iter()
        .all(|&s| s > 0 && (s as u64).is_power_of_two()));

    let spec = &compiled.parameters;
    assert_eq!(spec.degree, 32768);
    assert_eq!(spec.data_prime_bits(), [40, 40, 60, 60, 60, 60, 60, 60]);
    assert_eq!(spec.special_prime_bits(), 60);
}

/// The forecast's `key_bytes` is the formula
/// `Σ ℓ · 2 · (ℓ+1) · N · 8` over the keys, each at the level `ℓ` the
/// program uses it at; the keys a session really holds are exactly those
/// rows plus one `N`-entry `u32` gather table per Galois key — there is no
/// second resident form.
#[test]
fn forecast_key_bytes_equal_the_resident_key_rows() {
    use eva::backend::parameters_from_spec;
    use eva::ckks::{CkksContext, KeyGenerator};
    use eva::ir::analysis::key_levels;

    // x² + x, and the same sum rotated by one slot: the rotation needs the
    // square relinearized, so only the rotated program holds keys.
    let x2_plus_x = |rotated: bool| {
        let mut p = Program::new("x2_plus_x", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let mut out = p.instruction(Opcode::Add, &[sq, x]);
        if rotated {
            out = p.instruction(Opcode::RotateLeft(1), &[out]);
        }
        p.output("out", out, 30);
        compile(&p, &CompilerOptions::default()).unwrap()
    };
    let keyless = x2_plus_x(false);
    assert!(!keyless.needs_relinearization() && keyless.rotation_steps.is_empty());
    assert_eq!(predict_peak_memory(&keyless).unwrap().key_bytes, 0);
    let rotated = x2_plus_x(true);
    assert!(rotated.needs_relinearization());
    // x⁴ rotated by one slot: the waterline rescales each 60-bit square,
    // so the rotation runs below the top level and so does its key, while
    // the relinearization key stays at the top.
    let below = {
        let mut p = Program::new("x4_rotated", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let fourth = p.instruction(Opcode::Multiply, &[sq, sq]);
        let out = p.instruction(Opcode::RotateLeft(1), &[fourth]);
        p.output("out", out, 30);
        compile(&p, &CompilerOptions::default()).unwrap()
    };
    let levels = key_levels(&below).unwrap();
    let top = below.parameters.data_primes.len();
    assert_eq!(levels.relin, Some(top));
    assert_eq!(levels.galois.len(), 1);
    assert!(levels.galois[0].1 < top, "{levels:?} at top level {top}");

    for compiled in [sobel_16().0, rotated, below] {
        let context =
            CkksContext::new(parameters_from_spec(&compiled.parameters).unwrap()).unwrap();
        let mut keygen = KeyGenerator::from_seed(context.clone(), 5);
        let levels = key_levels(&compiled).unwrap();
        let (relin, galois) = keygen.create_evaluation_keys(levels.relin, &levels.galois);
        let resident = relin.map_or(0, |k| k.resident_bytes()) + galois.resident_bytes();
        let tables = galois.element_keys().len() * context.degree() * std::mem::size_of::<u32>();

        let forecast = predict_peak_memory(&compiled).unwrap();
        assert!(forecast.key_bytes > 0);
        assert_eq!(forecast.key_bytes, resident - tables);
        assert_eq!(forecast.key_bytes, levels.rows() * context.degree() * 8);
        // A table is 4 bytes per ring index beside a Galois key's
        // 16·l·(l+1): 1.25 % at l = 4, 0.35 % at l = 8.
        for (_, key) in galois.element_keys() {
            let l = key.level();
            let table = context.degree() * std::mem::size_of::<u32>();
            assert_eq!(table * 4 * l * (l + 1), key.resident_bytes() - table);
        }
    }
}
