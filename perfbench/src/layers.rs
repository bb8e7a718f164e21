//! The per-layer metrics every workload shares, measured after its timed
//! window in a traced run: the compiler and its analyses (`eva-core`), the
//! kernel replay (`eva-ckks`), the primitives under the kernels
//! (`eva-math`/`eva-poly`) and the wire encodings (`eva-wire`).

use eva_core::serialize::{compiled_from_bytes, compiled_to_bytes};
use eva_core::{
    check_noise, compile, estimate_cost, predict_peak_memory, verify_compiled, CompiledProgram,
    CompilerOptions, CostModel, NoiseModel,
};

use crate::cases::Case;
use crate::json::Json;
use crate::replay::{count_ops, Bench};
use crate::run::{Config, Outcome};
use crate::stats::median;
use crate::trace::Tracer;

/// Samples behind `build_s`, `compile_s` and `verify_load_s`.
const SAMPLES: usize = 10;

/// Measures the shared layers of `compiled` (the default compile of what
/// `build` returns) and adds them to `out`. Returns the replay's keys and
/// operands for a workload that has more of its own to time with them.
///
/// `execute_s` is the workload's own median execution time on `threads`
/// threads; the executor's share of it is what the kernel replay leaves.
pub fn measure(
    build: fn(u64) -> Case,
    compiled: &CompiledProgram,
    cfg: &Config,
    execute_s: f64,
    threads: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Bench, String> {
    // eva-frontend / eva-tensor / eva-apps: building the input program.
    let builds: Vec<f64> = (0..SAMPLES)
        .map(|_| tracer.time("build", None, |_| build(cfg.seed)).1)
        .collect();
    out.metrics.insert("build_s", median(&builds));

    // eva-core: the compiler, and the load path a server runs on a program
    // it does not trust (decode, verify, noise gate).
    let case = build(cfg.seed);
    let mut compiles = Vec::new();
    for _ in 0..SAMPLES {
        let (again, s) = tracer.time("compile", None, |_| {
            compile(&case.program, &CompilerOptions::default())
        });
        if again.map_err(|e| format!("compile: {e}"))? != *compiled {
            return Err("compiling the same program twice gave two results".into());
        }
        compiles.push(s);
    }
    out.metrics.insert("compile_s", median(&compiles));

    let bytes = compiled_to_bytes(compiled);
    let mut loads = Vec::new();
    for _ in 0..SAMPLES {
        let (loaded, s) = tracer.time("verify_load", None, |_| -> Result<(), String> {
            let loaded = compiled_from_bytes(&bytes).map_err(|e| e.to_string())?;
            if let Some(error) = verify_compiled(&loaded).into_error() {
                return Err(error.to_string());
            }
            check_noise(&loaded, &NoiseModel::default()).map_err(|e| e.to_string())?;
            Ok(())
        });
        loaded.map_err(|e| format!("program load: {e}"))?;
        loads.push(s);
    }
    out.metrics.insert("verify_load_s", median(&loads));

    // Exact counts from the static analyses; they must repeat bit for bit.
    let cost = estimate_cost(compiled, &CostModel::default()).map_err(|e| e.to_string())?;
    let forecast = predict_peak_memory(compiled).map_err(|e| e.to_string())?;
    let predicted_exec_s = cost.predicted_us / 1e6;
    let m = &mut out.metrics;
    m.insert("nodes", cost.nodes as f64);
    m.insert("key_switches", cost.key_switches as f64);
    m.insert(
        "distinct_rotation_steps",
        cost.distinct_rotation_steps as f64,
    );
    m.insert("hoisted_rotations", cost.hoisted_rotations as f64);
    m.insert("ntts", cost.ntts as f64);
    m.insert(
        "predicted_peak_mb",
        forecast.peak_bytes as f64 / (1024.0 * 1024.0),
    );
    m.insert("cost_model_ratio", execute_s / predicted_exec_s);
    out.detail
        .insert("predicted_exec_s", Json::Num(predicted_exec_s));
    out.detail
        .insert("degree", Json::Num(compiled.parameters.degree as f64));
    out.detail.insert(
        "data_primes",
        Json::Num(compiled.parameters.data_primes.len() as f64),
    );

    // eva-ckks: what the kernels alone would take.
    let counts = count_ops(compiled)?;
    let mut bench = Bench::new(compiled, &counts, cfg.seed)?;
    let (replay, _) = tracer.time("kernel_replay", None, |_| bench.replay(&counts));
    let replay = replay?;
    let kernel_replay_s = replay.total_s();
    let m = &mut out.metrics;
    m.insert("key_switch_s", replay.key_switch_s);
    m.insert("multiply_s", replay.multiply_s);
    m.insert("plain_encode_s", replay.plain_encode_s);
    m.insert("add_s", replay.add_s);
    m.insert("kernel_replay_s", kernel_replay_s);
    // What the run takes beyond an even split of its kernel time over the
    // threads: scheduling, waiting on the critical path, memory traffic.
    m.insert(
        "executor_residual_s",
        execute_s - kernel_replay_s / threads as f64,
    );
    m.insert(
        "parallel_efficiency",
        kernel_replay_s / (threads as f64 * execute_s),
    );
    // Not among the declared metrics: a program without a rescale (x² + x)
    // would report a time that is zero on every run.
    out.detail.insert("rescale_s", Json::Num(replay.rescale_s));
    out.detail.insert(
        "kernel_replay",
        Json::Arr(
            replay
                .detail
                .iter()
                .map(|&(kernel, level, calls, per_call_s)| {
                    Json::obj([
                        ("kernel", Json::Str(format!("{kernel:?}"))),
                        ("level", Json::Num(level as f64)),
                        ("calls", Json::Num(calls as f64)),
                        ("per_call_s", Json::Num(per_call_s)),
                    ])
                })
                .collect(),
        ),
    );

    // eva-math / eva-poly, then eva-wire, at this program's degree.
    let (ntt_fwd_us, ntt_inv_us, dyadic_mul_us) = bench.primitives_us();
    let (ct_encode_us, ct_decode_us, ct_bytes) = bench.ciphertext_wire()?;
    let (keys_encode_us, keys_decode_us, keys_bytes, fingerprint_us) = bench.eval_keys_wire()?;
    let m = &mut out.metrics;
    m.insert("ntt_fwd_us", ntt_fwd_us);
    m.insert("ntt_inv_us", ntt_inv_us);
    m.insert("dyadic_mul_us", dyadic_mul_us);
    m.insert("ct_encode_us", ct_encode_us);
    m.insert("ct_decode_us", ct_decode_us);
    m.insert("ct_bytes", ct_bytes as f64);
    m.insert("evalkeys_encode_us", keys_encode_us);
    m.insert("evalkeys_decode_us", keys_decode_us);
    m.insert("evalkeys_bytes", keys_bytes as f64);
    m.insert("fingerprint_us", fingerprint_us);
    Ok(bench)
}
