//! The compiler's correctness contract, stated once and checked
//! differentially: a compiled program never throws inside the FHE library
//! and computes what its input program computes (paper §6).
//!
//! [`differential`] compiles one program five ways — waterline rescaling ×
//! {eager, lazy} mod-switching × {optimized, unoptimized}, plus a twin
//! whose CSE and DCE run by hand before the unoptimized pipeline. Each leg
//! compiles or fails as `ParameterSelection` or `NoiseBudget` only; verifies
//! clean, also after an `.evaprog` round trip; keeps the reference semantics
//! to 1e-9; and has 2 or more primes of at most 1762 bits in all. Optimized,
//! it has no more rotations or key switches than unoptimized (key counts
//! may grow: merging `rot(rot(x, 5), 5)` beside a kept `rot(x, 5)` saves a
//! switch but needs a key for step 10). Encrypted, its serial run and its
//! runs at 2, 3 and 8 threads are bit-identical, every cipher output has its
//! annotated scale bit for bit, and the twin decrypts to the unoptimized
//! eager leg's bits when both select the same primes (to 1e-3 when DCE let
//! the twin drop a dead branch's deeper chain). Served, one deterministic
//! localhost session returns the in-process bits and carries no chunk of
//! the secret key.
//!
//! [`random_program`] is the workspace tests' only program generator. The
//! vendored proptest cannot shrink, so a failure prints the seed, the
//! budget and the whole generated program.
//!
//! Each test file that runs the check includes this module as `mod
//! harness;`: `differential.rs` holds the named workloads, and
//! `random_programs.rs`, `verifier_props.rs`, `optimizer_props.rs`,
//! `schedule.rs` and `end_to_end.rs` keep their properties under the names
//! they have always had. Each of them uses only part of the module.

#![allow(dead_code)]

use std::collections::HashMap;
use std::fmt::Display;
use std::net::{TcpListener, TcpStream};
use std::ops::{Range, RangeInclusive};

use eva::apps::Application;
use eva::backend::{execute_parallel, run_reference, EncryptedContext, NodeValue};
use eva::ir::analysis::verifier::{verify_compiled, Check};
use eva::ir::passes::{eliminate_common_subexpressions, eliminate_dead_code};
use eva::ir::serialize::{compiled_from_bytes, compiled_to_bytes};
use eva::ir::{
    compile, estimate_cost, CompiledProgram, CompilerOptions, CostModel, CostReport, EvaError,
    ModSwitchStrategy, Opcode, Program, ValueType,
};
use eva::service::{contains_any_chunk, EvaClient, EvaServer, RecordingStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub type Values = HashMap<String, Vec<f64>>;

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Prefixes an error with what failed.
trait Why<T> {
    fn why(self, what: &str) -> Result<T, String>;
}

impl<T, E: Display> Why<T> for Result<T, E> {
    fn why(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// The seed of every key set and encryption, so twins draw alike.
pub const SEED: u64 = 42;

/// What [`random_program`] draws from: the vector size, the scales of the
/// cipher inputs `a` and `b` (the plain `v` is at 10–20 bits), the rotation
/// steps, and a tail of squarings of the last cipher node, which then feed
/// the outputs so the waterline pass builds a chain that deep (without one,
/// the last two nodes are the outputs).
pub struct Shape(usize, RangeInclusive<u32>, Range<i32>, Option<usize>);

pub const FLAT: Shape = Shape(16, 20..=35, 0..8, None);

/// Steps that are negative, past the slot count or multiples of it, which
/// the optimized legs canonicalize.
pub const WIDE: Shape = Shape(16, 20..=35, -40..40, None);

pub fn deep(depth: usize) -> Shape {
    Shape(8, 40..=55, 0..4, Some(depth))
}

/// A random DAG of `budget` adds, subs, multiplies, rotations and negations
/// over `a`, `b` and `v`; small pools resample operands, giving CSE work.
pub fn random_program(seed: u64, budget: usize, shape: &Shape) -> Program {
    let Shape(vec_size, scales, rotations, tail) = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let prefix = tail.map_or("random", |_| "deep");
    let mut program = Program::new(format!("{prefix}_{seed}"), *vec_size);
    let mut pool = vec![
        program.input_cipher("a", rng.gen_range(scales.clone())),
        program.input_cipher("b", rng.gen_range(scales.clone())),
        program.input_vector("v", rng.gen_range(10..=20)),
    ];
    for _ in 0..budget {
        let lhs = pool[rng.gen_range(0..pool.len())];
        let rhs = pool[rng.gen_range(0..pool.len())];
        let node = match rng.gen_range(0..6) {
            0 => program.instruction(Opcode::Add, &[lhs, rhs]),
            1 => program.instruction(Opcode::Sub, &[lhs, rhs]),
            2 | 3 => program.instruction(Opcode::Multiply, &[lhs, rhs]),
            4 => {
                let step = rng.gen_range(rotations.clone());
                program.instruction(Opcode::RotateLeft(step), &[lhs])
            }
            _ => program.instruction(Opcode::Negate, &[lhs]),
        };
        pool.push(node);
    }
    if let Some(depth) = *tail {
        let cipher = |&&n: &&usize| program.node(n).ty.is_cipher();
        let start = *pool.iter().rev().find(cipher).expect("a cipher input");
        let mut acc = start;
        for _ in 0..depth {
            acc = program.instruction(Opcode::Multiply, &[acc, acc]);
        }
        // Multiplying by the mod-switched start exercises the drift fix.
        let rejoin = program.instruction(Opcode::Multiply, &[acc, start]);
        program.output("deep", rejoin, 30);
        program.output("mid", acc, 30);
        return program;
    }
    let first = pool.len().saturating_sub(2);
    for (i, &node) in pool[first..].iter().enumerate() {
        if program.node(node).ty.is_cipher() {
            program.output(format!("out{i}"), node, 30);
        }
    }
    if program.outputs().is_empty() {
        program.output("fallback", pool[0], 30);
    }
    program
}

/// Which legs run encrypted.
#[derive(Clone, Copy)]
pub enum Encrypt {
    No,
    /// Every leg, on a ring shrunk to N = 1024 with the 128-bit check off:
    /// scale bookkeeping does not depend on N, and primes 1 mod 2N stay
    /// NTT-friendly for a smaller N.
    Shrunk,
    /// These legs, each of which must compile, at their compiled parameters.
    Legs(&'static [&'static str]),
}

pub struct Case {
    /// Names the case in a failure.
    pub label: String,
    pub program: Program,
    pub inputs: Values,
    pub encrypt: Encrypt,
    /// The encrypted leg that one localhost session runs once more.
    pub serve: Option<&'static str>,
    /// Bound on decrypted outputs against the reference, relative to
    /// `max(|reference|, 1)`.
    pub tolerance: Option<f64>,
}

impl Case {
    /// Every leg encrypted at its compiled parameters, none served, no bound.
    pub fn new(label: impl Into<String>, program: Program, inputs: Values) -> Self {
        let (label, encrypt) = (label.into(), Encrypt::Legs(EVERY_LEG));
        let (serve, tolerance) = (None, None);
        Case {
            label,
            program,
            inputs,
            encrypt,
            serve,
            tolerance,
        }
    }
}

pub fn generated(seed: u64, budget: usize, shape: &Shape, encrypt: Encrypt) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let inputs = ["a", "b", "v"].map(|name| {
        let values = (0..shape.0).map(|_| rng.gen_range(-1.0..1.0));
        (name.to_string(), values.collect())
    });
    let Shape(_, _, rotations, tail) = shape;
    let label = format!(
        "random_program(seed {seed}, budget {budget}, rotations {rotations:?}, tail {tail:?})"
    );
    let program = random_program(seed, budget, shape);
    Case {
        encrypt,
        ..Case::new(label, program, inputs.into())
    }
}

/// What `CompilerOptions::default()` compiles.
pub const DEFAULT: &str = "eager";
pub const UNOPTIMIZED: &str = "eager unoptimized";
pub const LAZY: &str = "lazy";
pub const LAZY_UNOPTIMIZED: &str = "lazy unoptimized";
/// Compiles the program after CSE and DCE, with [`UNOPTIMIZED`]'s options.
pub const TWIN: &str = "cse+dce twin";
/// Waterline legs (the default rescaling), each optimized one before its unoptimized one.
const LEGS: [(&str, ModSwitchStrategy, bool); 5] = [
    (DEFAULT, ModSwitchStrategy::Eager, true),
    (UNOPTIMIZED, ModSwitchStrategy::Eager, false),
    (LAZY, ModSwitchStrategy::Lazy, true),
    (LAZY_UNOPTIMIZED, ModSwitchStrategy::Lazy, false),
    (TWIN, ModSwitchStrategy::Eager, false),
];

pub const EVERY_LEG: &[&str] = &[DEFAULT, UNOPTIMIZED, LAZY, LAZY_UNOPTIMIZED, TWIN];

/// The legs that compiled, by name.
pub type Legs = Vec<(&'static str, CompiledProgram)>;

pub fn leg<'a>(legs: &'a Legs, name: &str) -> Option<&'a CompiledProgram> {
    legs.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
}

/// Checks the contract on one case; a failure names it and prints its program.
pub fn differential(case: &Case) -> Result<Legs, String> {
    contract(case).map_err(|msg| format!("{}: {msg}\n{}", case.label, case.program))
}

pub fn check(case: &Case) -> Legs {
    differential(case).unwrap_or_else(|msg| panic!("{msg}"))
}

fn contract(case: &Case) -> Result<Legs, String> {
    let (program, inputs) = (&case.program, &case.inputs);
    let reference = run_reference(program, inputs).why("reference")?;
    let mut structural = program.clone();
    eliminate_common_subexpressions(&mut structural);
    eliminate_dead_code(&mut structural);
    let mut legs = Legs::new();
    for (name, mod_switch, optimize) in LEGS {
        let mut options = CompilerOptions::unoptimized();
        (options.mod_switch, options.optimize) = (mod_switch, optimize);
        let source = if name == TWIN { &structural } else { program };
        match compile(source, &options) {
            Ok(compiled) => {
                compiled_contract(&compiled, inputs, &reference).why(name)?;
                legs.push((name, compiled));
            }
            Err(EvaError::ParameterSelection(_) | EvaError::NoiseBudget(_)) => {}
            Err(err) => return Err(format!("{name} fails to compile: {err}")),
        }
    }

    for pair in LEGS[..4].chunks(2) {
        let (opt, unopt) = (pair[0].0, pair[1].0);
        let (Some(after), Some(before)) = (leg(&legs, opt), leg(&legs, unopt)) else {
            continue;
        };
        let after = estimate_cost(after, &CostModel::default()).why(opt)?;
        let before = estimate_cost(before, &CostModel::default()).why(unopt)?;
        let fewer = after.rotations <= before.rotations;
        let fewer = fewer && after.key_switches <= before.key_switches;
        ensure!(fewer, "{opt}: {after:?}\n{unopt}: {before:?}");
    }

    if let Encrypt::Legs(names) = case.encrypt {
        if let Some(name) = names.iter().find(|&&n| leg(&legs, n).is_none()) {
            return Err(format!("{name} did not compile"));
        }
    }
    let mut decrypted = HashMap::new();
    for (name, compiled) in &legs {
        let shrink = match case.encrypt {
            Encrypt::No => continue,
            Encrypt::Shrunk => true,
            Encrypt::Legs(names) if names.contains(name) => false,
            Encrypt::Legs(_) => continue,
        };
        let outputs = encrypted(compiled, inputs, shrink).why(&format!("{name}, encrypted"))?;
        if let Some(bound) = case.tolerance {
            compare(&outputs, &reference, Some(bound)).why(&format!("{name} vs reference"))?;
        }
        decrypted.insert(*name, outputs);
    }
    if let (Some(twin), Some(unopt)) = (decrypted.get(TWIN), decrypted.get(UNOPTIMIZED)) {
        let parameters = |name| leg(&legs, name).map(|c| &c.parameters);
        let bound = (parameters(TWIN) != parameters(UNOPTIMIZED)).then_some(1e-3);
        compare(twin, unopt, bound).why(&format!("{TWIN} vs {UNOPTIMIZED}"))?;
    }
    if let Some(name) = case.serve {
        let in_process = decrypted
            .get(name)
            .ok_or(format!("{name} is served, not encrypted"))?;
        let compiled = leg(&legs, name).expect("an encrypted leg compiled");
        session(compiled, inputs, in_process).why(&format!("{name}, served"))?;
    }
    Ok(legs)
}

/// What a compiled leg must satisfy before it is encrypted.
fn compiled_contract(leg: &CompiledProgram, inputs: &Values, want: &Values) -> Result<(), String> {
    let report = verify_compiled(leg);
    ensure!(report.is_clean(), "fails verification:\n{report}");
    let decoded = compiled_from_bytes(&compiled_to_bytes(leg)).why(".evaprog round trip")?;
    let report = verify_compiled(&decoded);
    ensure!(report.is_clean(), "fails after a round trip:\n{report}");
    let after = run_reference(&leg.program, inputs).why("reference")?;
    compare(&after, want, Some(1e-9)).why("reference semantics changed")?;
    let (primes, bits) = (leg.parameters.chain_length(), leg.parameters.total_bits());
    ensure!(primes >= 2 && bits <= 1762, "{primes} primes, {bits} bits");
    Ok(())
}

/// Runs a leg from [`SEED`] serially and at 2, 3 and 8 threads, checks the
/// runs agree bit for bit and the outputs carry their annotated scales, and
/// returns the decrypted serial run.
fn encrypted(leg: &CompiledProgram, inputs: &Values, shrink: bool) -> Result<Values, String> {
    let mut leg = leg.clone();
    if shrink {
        leg.parameters.degree = 1024;
        leg.parameters.secure = false;
    }
    let mut ctx = EncryptedContext::setup(&leg, Some(SEED)).why("setup")?;
    let bindings = ctx.encrypt_inputs(&leg, inputs).why("encrypt")?;
    let serial = ctx.execute_serial(&leg, bindings.clone()).why("serial")?;
    for threads in [2, 3, 8] {
        let parallel = execute_parallel(ctx.evaluation(), &leg, bindings.clone(), threads);
        let parallel = parallel.why(&format!("{threads} threads"))?;
        ensure!(
            same(&serial, &parallel),
            "{threads} threads differ from serial"
        );
    }
    for output in leg.program.outputs() {
        if let Some(NodeValue::Cipher(ct)) = serial.get(&output.node) {
            let (got, want) = (ct.scale_log2(), leg.program.node(output.node).scale_log2);
            let exact = got.to_bits() == want.to_bits();
            ensure!(exact, "{}: scale 2^{got}, annotated 2^{want}", output.name);
        }
    }
    ctx.decrypt_outputs(&leg, &serial).why("decrypt")
}

/// Two runs' outputs, bit for bit.
fn same(a: &HashMap<usize, NodeValue>, b: &HashMap<usize, NodeValue>) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().all(|(node, x)| match (x, &b[node]) {
            (NodeValue::Cipher(x), NodeValue::Cipher(y)) => {
                x.polys() == y.polys()
                    && x.scale_log2().to_bits() == y.scale_log2().to_bits()
                    && x.level() == y.level()
            }
            (NodeValue::Plain(x), NodeValue::Plain(y)) => bits(x) == bits(y),
            _ => false,
        })
}

/// One deterministic localhost session of `leg` on a two-thread server: it
/// returns `in_process`'s bits, the server reports one session of one
/// evaluation, and no 32-byte chunk of the secret key crosses the socket.
fn session(leg: &CompiledProgram, inputs: &Values, in_process: &Values) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").why("bind")?;
    let addr = listener.local_addr().why("bind")?;
    let server = EvaServer::new(leg.clone()).why("load")?.with_threads(2);
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let stream = RecordingStream::new(TcpStream::connect(addr).why("connect")?);
    let mut client = EvaClient::handshake_deterministic(stream, SEED).why("handshake")?;
    let outputs = client.evaluate(inputs).why("evaluate")?;
    let probe = client.secret_key_probe();
    let stream = client.finish().why("bye")?;
    let reports = server_thread.join().expect("the server does not panic");
    let reports = reports
        .why("serve")?
        .into_iter()
        .map(|r| r.map(|r| r.evaluations));
    let reports: Vec<_> = reports.collect();
    ensure!(matches!(reports[..], [Ok(1)]), "server reports {reports:?}");
    compare(&outputs, in_process, None)?;
    let leaks = |bytes: &[u8]| contains_any_chunk(bytes, &probe, 32);
    let leaked = leaks(stream.sent()) || leaks(stream.received());
    ensure!(!leaked, "secret-key bytes on the wire");
    Ok(())
}

/// `got` holds `want`'s outputs to `tolerance · max(|want|, 1)`, or bit for
/// bit without a tolerance.
pub fn compare(got: &Values, want: &Values, tolerance: Option<f64>) -> Result<(), String> {
    ensure!(got.len() == want.len(), "{} outputs", got.len());
    for (name, expected) in want {
        let actual = got.get(name).ok_or(format!("no output {name}"))?;
        ensure!(actual.len() == expected.len(), "{name}: length");
        for (i, (a, b)) in actual.iter().zip(expected).enumerate() {
            let equal = match tolerance {
                Some(bound) => (a - b).abs() <= bound * b.abs().max(1.0),
                None => a.to_bits() == b.to_bits(),
            };
            ensure!(equal, "{name}[{i}]: {a} vs {b} (tolerance {tolerance:?})");
        }
    }
    Ok(())
}

/// Mutation `choice` of the default compile of a generated program is
/// caught by its check, or has nothing to act on.
pub fn caught(seed: u64, budget: usize, choice: usize) -> Result<(), String> {
    let program = random_program(seed, budget, &FLAT);
    let Ok(mut compiled) = compile(&program, &CompilerOptions::default()) else {
        return Ok(());
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    if let Some(expected) = mutate(&mut compiled, choice, &mut rng) {
        let report = verify_compiled(&compiled);
        ensure!(
            expected.iter().any(|&check| report.has_error(check)),
            "random_program(seed {seed}, budget {budget}, FLAT): mutation {choice} not caught by \
             {expected:?}:\n{report}\n{program}"
        );
    }
    Ok(())
}

/// The checks of which one must catch a mutation.
type Catchers = Option<&'static [Check]>;

/// One single-point corruption of a compiled program and the checks of
/// which one must catch it, or `None` if it has nothing to act on (say, no
/// relinearize). A retargeted argument also breaks its descendants' scales.
fn mutate(compiled: &mut CompiledProgram, choice: usize, rng: &mut StdRng) -> Catchers {
    use Check::*;
    let program = &mut compiled.program;
    let live = program.live_mask();
    let scale = |p: &Program, id: usize| p.node(id).scale_log2.to_bits();
    let cipher_op = [Opcode::Add, Opcode::Sub, Opcode::Multiply].map(Some);
    Some(match choice {
        // Retarget an argument of a live cipher binary op at input 0 of
        // another scale (one of the same scale and level is no corruption).
        0 => {
            let id = (0..program.len()).find(|&id| {
                let args = program.args(id);
                live[id]
                    && cipher_op.contains(&program.opcode(id))
                    && args.iter().all(|&a| program.node(a).ty.is_cipher())
                    && args.iter().any(|&a| scale(program, a) != scale(program, 0))
            })?;
            let args = program.args(id);
            let slots: Vec<usize> = (0..2)
                .filter(|&i| scale(program, args[i]) != scale(program, 0))
                .collect();
            program.replace_arg_at(id, slots[rng.gen_range(0..slots.len())], 0);
            &[ScaleMatch, ChainConformity, ExactScales]
        }
        // Bypass a live relinearize: its consumer needs two polynomials.
        1 => {
            let relinearize = Some(Opcode::Relinearize);
            let id =
                (0..program.len()).find(|&id| live[id] && program.opcode(id) == relinearize)?;
            let operand = program.args(id)[0];
            for user in 0..program.len() {
                program.replace_arg(user, id, operand);
            }
            program.redirect_outputs(id, operand);
            &[Relinearized]
        }
        // Rescale an output past the end of the prime chain.
        2 => {
            for _ in 0..=compiled.parameters.data_primes.len() {
                let out = program.outputs()[0].node;
                let extra =
                    program.push_instruction(Opcode::Rescale(30), vec![out], ValueType::Cipher);
                program.redirect_outputs(out, extra);
            }
            &[LevelBudget, ExactScales]
        }
        // Drop a step from the Galois-key request.
        3 if compiled.rotation_steps.is_empty() => return None,
        3 => {
            let victim = rng.gen_range(0..compiled.rotation_steps.len());
            compiled.rotation_steps.remove(victim);
            &[RotationKeys]
        }
        // Flip the cipher bit of a live instruction: a retyped copy takes
        // over its uses, so its type no longer follows its operands.
        4 => {
            let instructions: Vec<usize> = (0..program.len())
                .filter(|&id| live[id] && program.opcode(id).is_some())
                .collect();
            if instructions.is_empty() {
                return None;
            }
            let id = instructions[rng.gen_range(0..instructions.len())];
            let ty = match program.node(id).ty {
                ValueType::Cipher => ValueType::Vector,
                _ => ValueType::Cipher,
            };
            let op = program.opcode(id)?;
            let retyped = program.push_instruction(op, program.args(id).to_vec(), ty);
            for user in 0..retyped {
                program.replace_arg(user, id, retyped);
            }
            program.redirect_outputs(id, retyped);
            &[ArgIndices]
        }
        // Smuggle a rotation by an unrequested step in front of an output.
        _ => {
            let slots = program.vec_size() as i32;
            let step = (1..slots).find(|&s| !compiled.rotation_steps.contains(&i64::from(s)))?;
            let out = program.outputs()[0].node;
            let rotated =
                program.push_instruction(Opcode::RotateLeft(step), vec![out], ValueType::Cipher);
            program.set_scale_log2(rotated, program.node(out).scale_log2);
            program.redirect_outputs(out, rotated);
            &[RotationKeys]
        }
    })
}

pub fn cost(legs: &Legs, name: &str) -> CostReport {
    estimate_cost(leg(legs, name).unwrap(), &CostModel::default()).unwrap()
}

/// An application: its reference is the output computed apart from the
/// program, and every encrypted leg stays within the application's
/// tolerance of it.
pub fn application(app: Application, encrypt: Encrypt, serve: Option<&'static str>) -> Legs {
    let reference = run_reference(&app.program, &app.inputs).unwrap();
    compare(&reference, &app.expected, Some(1e-9)).unwrap();
    let tolerance = Some(app.tolerance);
    let case = Case::new(app.name, app.program, app.inputs);
    check(&Case {
        encrypt,
        serve,
        tolerance,
        ..case
    })
}

/// Sobel 16×16, as the application `sobel(16, 9)`.
pub fn sobel(encrypt: Encrypt, serve: Option<&'static str>) -> Legs {
    let app = eva::apps::image::sobel(16, 9);
    assert_eq!(app.program, eva::apps::image::sobel_program(16));
    application(app, encrypt, serve)
}
