//! The `eva-ckks` layer measured from outside: count what a compiled
//! program asks of the evaluator per (kernel, level), time each such call on
//! fresh operands, and multiply. The sum is what the kernels alone would
//! take — the rest of an execution belongs to the executor above them.
//!
//! Below that, the `eva-math`/`eva-poly` primitives the kernels are made of
//! and the `eva-wire` encodings of the objects they produce are timed the
//! same way at the program's own ring degree and primes.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use eva_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParameters, Evaluator, GaloisKeys, KeyGenerator,
    RelinearizationKey, SymmetricEncryptor,
};
use eva_core::analysis::analyze_levels;
use eva_core::{CompiledProgram, NodeKind, Opcode};
use eva_poly::PolyForm;
use eva_wire::{fingerprint_eval_keys, WireObject};
use rand::SeedableRng;

use crate::stats::median;

/// Samples per timed kernel: the fewest a median may rest on here.
const SAMPLES: usize = 10;
/// How long one call may take and still be sampled `SAMPLES` times, and
/// how often a longer one is sampled.
const SLOW_CALL_S: f64 = 0.1;
const SLOW_SAMPLES: usize = 3;
/// Most Galois keys generated for the replay. A fan-out wider than this is
/// priced by the per-follower cost measured at this width, which is linear
/// in the number of keys applied.
const MAX_REPLAY_STEPS: usize = 8;
/// Scale of the replay's operands; the kernels' cost does not depend on it.
const SCALE_LOG2: f64 = 30.0;

/// One evaluator or encoder call the executors make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    Multiply,
    MultiplyPlain,
    /// Add or subtract of two ciphertexts, or a negation.
    Add,
    AddPlain,
    Relinearize,
    /// A rotation that pays a full key switch: alone, or first of a fan-out.
    Rotate,
    /// A later member of a rotation fan-out, which reuses the first member's
    /// decomposition and pays only the per-key apply.
    HoistedFollower,
    Rescale,
    ModSwitch,
    /// Encoding of a plaintext operand, once per plain add or multiply.
    Encode,
}

/// How often a compiled program calls each kernel at each level (the number
/// of data primes its operands still carry).
pub type OpCounts = BTreeMap<(Kernel, usize), usize>;

/// Counts the kernel calls one execution of `compiled` makes.
///
/// Compiled programs are dead-free (the verifier rejects dead nodes), so
/// every cipher instruction counts.
pub fn count_ops(compiled: &CompiledProgram) -> Result<OpCounts, String> {
    let program = &compiled.program;
    let max_level = compiled.parameters.data_primes.len();
    let chains = analyze_levels(program).map_err(|e| e.to_string())?;
    let level_of = |id: usize| max_level.saturating_sub(chains[id].len());

    let mut counts = OpCounts::new();
    let mut rotated_sources = BTreeSet::new();
    let mut fanout_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    for node in program.nodes() {
        if let NodeKind::Instruction {
            op: Opcode::RotateLeft(s) | Opcode::RotateRight(s),
            args,
        } = &node.kind
        {
            if node.ty.is_cipher() && *s != 0 {
                *fanout_sizes.entry(args[0]).or_default() += 1;
            }
        }
    }
    for (id, node) in program.nodes().iter().enumerate() {
        let NodeKind::Instruction { op, args } = &node.kind else {
            continue;
        };
        if !node.ty.is_cipher() {
            continue;
        }
        let is_cipher = |a: &usize| program.node(*a).ty.is_cipher();
        // The level the operands are at, which is what the kernel works on.
        let level = args
            .iter()
            .filter(|a| is_cipher(a))
            .map(|&a| level_of(a))
            .max()
            .unwrap_or_else(|| level_of(id));
        let all_cipher = args.iter().all(is_cipher);
        let kernels: &[Kernel] = match op {
            Opcode::Multiply if all_cipher => &[Kernel::Multiply],
            Opcode::Multiply => &[Kernel::MultiplyPlain, Kernel::Encode],
            Opcode::Add | Opcode::Sub if all_cipher => &[Kernel::Add],
            Opcode::Add | Opcode::Sub => &[Kernel::AddPlain, Kernel::Encode],
            Opcode::Negate => &[Kernel::Add],
            // A rotation by zero is a clone in the evaluator.
            Opcode::RotateLeft(0) | Opcode::RotateRight(0) => &[],
            Opcode::RotateLeft(_) | Opcode::RotateRight(_) => {
                // Executors hoist every fan-out of two or more rotations of
                // one source: its first member funds the decomposition.
                let first = rotated_sources.insert(args[0]);
                if first || fanout_sizes[&args[0]] < 2 {
                    &[Kernel::Rotate]
                } else {
                    &[Kernel::HoistedFollower]
                }
            }
            Opcode::Relinearize => &[Kernel::Relinearize],
            Opcode::Rescale(_) => &[Kernel::Rescale],
            Opcode::ModSwitch => &[Kernel::ModSwitch],
        };
        for &kernel in kernels {
            *counts.entry((kernel, level)).or_default() += 1;
        }
    }
    Ok(counts)
}

/// Total calls of `kernel` over all levels.
pub fn total(counts: &OpCounts, kernel: Kernel) -> usize {
    counts
        .iter()
        .filter(|((k, _), _)| *k == kernel)
        .map(|(_, n)| n)
        .sum()
}

/// Median seconds of `SAMPLES` runs of `routine`, after one warm-up run.
/// A routine whose warm-up run takes longer than [`SLOW_CALL_S`] — encoding
/// or hashing hundreds of megabytes of keys — is sampled `SLOW_SAMPLES`
/// times: at that length a run is its own average.
fn time_median<T>(mut routine: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(routine());
    let samples = if start.elapsed().as_secs_f64() > SLOW_CALL_S {
        SLOW_SAMPLES
    } else {
        SAMPLES
    };
    let samples: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// [`time_median`] of a call that can fail. The operands are the same on
/// every call, so if the first succeeds they all do; a kernel that refuses
/// its operands is an error, not a fast kernel.
fn time_checked<T, E: std::fmt::Display>(
    what: &str,
    mut routine: impl FnMut() -> Result<T, E>,
) -> Result<f64, String> {
    routine().map_err(|e| format!("{what}: {e}"))?;
    Ok(time_median(routine))
}

/// Keys and operands for replaying a program's kernels, under a secret key
/// of the replay's own.
pub struct Bench {
    context: CkksContext,
    encoder: CkksEncoder,
    evaluator: Evaluator,
    encryptor: SymmetricEncryptor,
    relin: Option<RelinearizationKey>,
    galois: GaloisKeys,
    steps: Vec<i64>,
    values: Vec<f64>,
    /// Seconds of one full rotation per level, once measured: the cost of a
    /// fan-out's followers is taken relative to it.
    rotate_s: BTreeMap<usize, f64>,
}

/// Seconds the kernels of one execution take, by the layer metric they are
/// reported under, plus the per-(kernel, level) detail for the trace file.
#[derive(Default)]
pub struct Replay {
    pub key_switch_s: f64,
    pub rescale_s: f64,
    pub multiply_s: f64,
    pub plain_encode_s: f64,
    pub add_s: f64,
    /// `(kernel, level, calls, median seconds per call)`.
    pub detail: Vec<(Kernel, usize, usize, f64)>,
}

impl Replay {
    pub fn total_s(&self) -> f64 {
        self.key_switch_s + self.rescale_s + self.multiply_s + self.plain_encode_s + self.add_s
    }
}

impl Bench {
    /// Builds the context from the program's own primes and generates the
    /// keys its kernels need: a relinearization key if it relinearizes and
    /// Galois keys for up to [`MAX_REPLAY_STEPS`] of its rotation steps.
    pub fn new(compiled: &CompiledProgram, counts: &OpCounts, seed: u64) -> Result<Self, String> {
        let spec = &compiled.parameters;
        let params = CkksParameters::from_primes(
            spec.degree,
            &spec.data_primes,
            spec.special_prime,
            spec.secure,
        )
        .map_err(|e| e.to_string())?;
        let context = CkksContext::new(params).map_err(|e| e.to_string())?;
        let mut keygen = KeyGenerator::from_seed(context.clone(), seed);
        let relin =
            (total(counts, Kernel::Relinearize) > 0).then(|| keygen.create_relinearization_key());
        let steps: Vec<i64> = compiled
            .rotation_steps
            .iter()
            .copied()
            .filter(|&s| s != 0)
            .take(MAX_REPLAY_STEPS)
            .collect();
        let galois = keygen.create_galois_keys(&steps);
        let encryptor =
            SymmetricEncryptor::from_seed(context.clone(), keygen.secret_key().clone(), seed + 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let values = (0..compiled.vec_size())
            .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
            .collect();
        Ok(Self {
            encoder: CkksEncoder::new(context.clone()),
            evaluator: Evaluator::new(context.clone()),
            context,
            encryptor,
            relin,
            galois,
            steps,
            values,
            rotate_s: BTreeMap::new(),
        })
    }

    fn fresh(&mut self, level: usize) -> Ciphertext {
        let plaintext = self.encoder.encode(&self.values, SCALE_LOG2, level);
        self.encryptor.encrypt(&plaintext)
    }

    /// Median seconds of one call of `kernel` on fresh operands at `level`.
    fn time_kernel(&mut self, kernel: Kernel, level: usize) -> Result<f64, String> {
        if let (Kernel::Rotate, Some(&known)) = (kernel, self.rotate_s.get(&level)) {
            return Ok(known);
        }
        let a = self.fresh(level);
        let b = self.fresh(level);
        let ev = &self.evaluator;
        let what = format!("{kernel:?} at level {level}");
        let plain = || self.encoder.encode(&self.values, SCALE_LOG2, level);
        match kernel {
            Kernel::Multiply => time_checked(&what, || ev.multiply(&a, &b)),
            Kernel::MultiplyPlain => {
                let pt = plain();
                time_checked(&what, || ev.multiply_plain(&a, &pt))
            }
            Kernel::Add => time_checked(&what, || ev.add(&a, &b)),
            Kernel::AddPlain => {
                let pt = plain();
                time_checked(&what, || ev.add_plain(&a, &pt))
            }
            Kernel::Encode => Ok(time_median(plain)),
            Kernel::Relinearize => {
                let key = self.relin.as_ref().ok_or("no relinearization key")?;
                let product = ev.multiply(&a, &b).map_err(|e| format!("{what}: {e}"))?;
                time_checked(&what, || ev.relinearize(&product, key))
            }
            Kernel::Rotate => {
                if self.steps.is_empty() {
                    return Err(format!("{what}: the program has no rotation steps"));
                }
                // Round-robin over the replay's steps so that the key
                // working set is the fan-out's, not one cache-hot key.
                let mut next = 0;
                let seconds = time_checked(&what, || {
                    next += 1;
                    ev.rotate(&a, self.steps[next % self.steps.len()], &self.galois)
                })?;
                self.rotate_s.insert(level, seconds);
                Ok(seconds)
            }
            Kernel::HoistedFollower => {
                let width = self.steps.len();
                if width < 2 {
                    return Err(format!("{what}: a fan-out needs two rotation steps"));
                }
                let group =
                    time_checked(&what, || ev.rotate_hoisted(&a, &self.steps, &self.galois))?;
                let single = self.time_kernel(Kernel::Rotate, level)?;
                Ok(((group - single) / (width - 1) as f64).max(0.0))
            }
            Kernel::Rescale => time_checked(&what, || ev.rescale_to_next(&a)),
            Kernel::ModSwitch => time_checked(&what, || ev.mod_switch_to_next(&a)),
        }
    }

    /// Times every counted (kernel, level) and sums calls × median.
    pub fn replay(&mut self, counts: &OpCounts) -> Result<Replay, String> {
        let mut replay = Replay::default();
        for (&(kernel, level), &calls) in counts {
            let per_call = self.time_kernel(kernel, level)?;
            let bucket = match kernel {
                Kernel::Relinearize | Kernel::Rotate | Kernel::HoistedFollower => {
                    &mut replay.key_switch_s
                }
                Kernel::Rescale | Kernel::ModSwitch => &mut replay.rescale_s,
                Kernel::Multiply | Kernel::MultiplyPlain => &mut replay.multiply_s,
                Kernel::Encode => &mut replay.plain_encode_s,
                Kernel::Add | Kernel::AddPlain => &mut replay.add_s,
            };
            *bucket += calls as f64 * per_call;
            replay.detail.push((kernel, level, calls, per_call));
        }
        Ok(replay)
    }

    /// `eva-math`/`eva-poly` primitives at the program's degree and first
    /// prime, in microseconds: forward NTT, inverse NTT and a dyadic
    /// multiply, each of one residue row.
    pub fn primitives_us(&self) -> (f64, f64, f64) {
        let basis = self.context.key_basis();
        let tables = &basis.ntt_tables()[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut a = basis.zero_poly(1, PolyForm::Ntt);
        let mut b = basis.zero_poly(1, PolyForm::Ntt);
        eva_math::sample_uniform_into(&mut rng, a.residue_mut(0), &basis.moduli()[0]);
        eva_math::sample_uniform_into(&mut rng, b.residue_mut(0), &basis.moduli()[0]);
        let input = a.residue(0).to_vec();
        let mut row = input.clone();
        let forward = time_median(|| {
            row.copy_from_slice(&input);
            tables.forward(&mut row);
        });
        let inverse = time_median(|| {
            row.copy_from_slice(&input);
            tables.inverse(&mut row);
        });
        let dyadic = time_median(|| a.dyadic_mul(&b, basis));
        (forward * 1e6, inverse * 1e6, dyadic * 1e6)
    }

    /// `eva-wire` on a fresh top-level ciphertext:
    /// `(encode µs, decode µs, bytes)`.
    pub fn ciphertext_wire(&mut self) -> Result<(f64, f64, usize), String> {
        let ct = self.fresh(self.context.max_level());
        wire_times(&ct)
    }

    /// Seconds the wire takes out of one service round trip of `compiled`:
    /// each cipher input encoded by the client in seeded form, decoded and
    /// expanded by the server, and each output encoded by the server at the
    /// level it leaves the program and decoded by the client.
    pub fn service_wire_s(&mut self, compiled: &CompiledProgram) -> Result<f64, String> {
        let program = &compiled.program;
        let max_level = self.context.max_level();
        let chains = analyze_levels(program).map_err(|e| e.to_string())?;
        let mut micros = 0.0;
        for node in program.nodes() {
            if matches!(node.kind, NodeKind::Input { .. }) && node.ty.is_cipher() {
                let plaintext = self.encoder.encode(&self.values, SCALE_LOG2, max_level);
                let seeded = self.encryptor.encrypt_seeded(&plaintext);
                let (encode, decode, _) = wire_times(&seeded)?;
                let expand = time_checked("expand", || seeded.expand(&self.context))?;
                micros += encode + decode + expand * 1e6;
            }
        }
        for output in program.outputs() {
            if program.node(output.node).ty.is_cipher() {
                let level = max_level.saturating_sub(chains[output.node].len());
                let (encode, decode, _) = wire_times(&self.fresh(level))?;
                micros += encode + decode;
            }
        }
        Ok(micros / 1e6)
    }

    /// `eva-wire` and the fingerprint on the replay's evaluation keys (the
    /// relinearization key if any, then the Galois keys):
    /// `(encode µs, decode µs, bytes, fingerprint µs)`.
    pub fn eval_keys_wire(&self) -> Result<(f64, f64, usize, f64), String> {
        let (mut encode, mut decode, mut bytes) = wire_times(&self.galois)?;
        if let Some(relin) = &self.relin {
            let (e, d, b) = wire_times(relin)?;
            encode += e;
            decode += d;
            bytes += b;
        }
        let fingerprint = time_median(|| fingerprint_eval_keys(self.relin.as_ref(), &self.galois));
        Ok((encode, decode, bytes, fingerprint * 1e6))
    }
}

/// `(encode µs, decode µs, encoded bytes)` of one wire object.
pub fn wire_times<T: WireObject>(object: &T) -> Result<(f64, f64, usize), String> {
    let bytes = object.to_wire_bytes();
    let encode = time_median(|| object.to_wire_bytes());
    let decode = time_checked("wire decode", || T::from_wire_bytes(&bytes))?;
    Ok((encode * 1e6, decode * 1e6, bytes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_core::{compile, estimate_cost, CompilerOptions, CostModel};

    #[test]
    fn counts_agree_with_the_cost_model_on_sobel() {
        let case = crate::cases::sobel(1);
        let compiled = compile(&case.program, &CompilerOptions::default()).unwrap();
        let counts = count_ops(&compiled).unwrap();
        let report = estimate_cost(&compiled, &CostModel::default()).unwrap();

        let of = |k| total(&counts, k);
        assert_eq!(of(Kernel::Multiply), report.multiplies);
        assert_eq!(of(Kernel::MultiplyPlain), report.multiplies_plain);
        assert_eq!(of(Kernel::Add) + of(Kernel::AddPlain), report.adds);
        assert_eq!(
            of(Kernel::Rotate) + of(Kernel::HoistedFollower),
            report.rotations
        );
        assert_eq!(of(Kernel::HoistedFollower), report.hoisted_rotations);
        assert_eq!(of(Kernel::Relinearize), report.relinearizations);
        assert_eq!(of(Kernel::Rescale), report.rescales);
        assert_eq!(of(Kernel::ModSwitch), report.mod_switches);
        assert_eq!(
            of(Kernel::Encode),
            of(Kernel::MultiplyPlain) + of(Kernel::AddPlain)
        );

        let mut key_switches_per_level = BTreeMap::new();
        for (&(kernel, level), &calls) in &counts {
            if matches!(
                kernel,
                Kernel::Relinearize | Kernel::Rotate | Kernel::HoistedFollower
            ) {
                *key_switches_per_level.entry(level).or_insert(0) += calls;
            }
        }
        assert_eq!(key_switches_per_level, report.key_switches_per_level);
        assert!(report.key_switches > 0 && report.hoisted_rotations > 0);
    }
}
