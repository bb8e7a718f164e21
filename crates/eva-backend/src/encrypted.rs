//! The encrypted executor: runs a compiled EVA program against the RNS-CKKS
//! scheme, handling key generation, input encryption, plaintext encoding of
//! non-cipher operands and output decryption.
//!
//! The executor is split into explicit phases (context/key generation, input
//! encryption, execution, decryption) so the benchmark harness can time each
//! phase separately, exactly like the paper's Table 7. This module holds the
//! per-node kernels; the order they run in — serial on the calling thread or
//! parallel on workers — is [`crate::parallel`]'s one scheduler.

use std::collections::HashMap;
use std::sync::Arc;

use eva_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksError, CkksParameters, Decryptor, Evaluator,
    GaloisKeys, KeyGenerator, KeySwitchDecomposition, KeySwitchScratch, RelinearizationKey,
    SeededCiphertext, SymmetricEncryptor,
};
use eva_core::analysis::{key_levels, KeyLevels};
use eva_core::{CompiledProgram, EvaError, NodeId, NodeKind, Opcode, Program, ValueType};

use crate::reference::{apply_op, check_input, replicate};

/// A value flowing through the encrypted executor: either a ciphertext or a
/// plaintext vector (the executor keeps plaintext data unencoded and encodes
/// it on demand at the level and scale its cipher consumer requires).
#[derive(Debug, Clone)]
pub enum NodeValue {
    /// An encrypted value.
    Cipher(Ciphertext),
    /// A plaintext vector of program-vector-size elements.
    Plain(Vec<f64>),
}

impl NodeValue {
    /// Approximate heap memory held by this value, in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            NodeValue::Cipher(ct) => ct.memory_bytes(),
            NodeValue::Plain(v) => v.len() * std::mem::size_of::<f64>(),
        }
    }
}

/// One live program input, as the client half needs to know it: its name,
/// whether it is encrypted, and the exact `log2` scale a `Cipher` input is
/// encoded at (the binding gate checks it bit for bit).
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    /// Input name (the program's input node name).
    pub name: String,
    /// Whether the input is encrypted (`Cipher`) or bound as plain values.
    pub cipher: bool,
    /// Exact `log2` scale the client encodes this input at.
    pub scale_log2: f64,
}

/// One program output as the deployment manifest describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Output name.
    pub name: String,
    /// Whether the output comes back encrypted.
    pub cipher: bool,
}

/// A named value one half of a session expects from the other, as
/// [`admit_values`] reads it: a program input or a program output.
pub trait ValueSpec {
    /// What a refusal calls the value: `"input"` or `"output"`.
    const ROLE: &'static str;
    /// The value's name, whether it is encrypted and, for an input, the
    /// exact `log2` scale its ciphertext carries.
    fn spec(&self) -> (&str, bool, Option<f64>);
}

impl ValueSpec for InputSpec {
    const ROLE: &'static str = "input";
    fn spec(&self) -> (&str, bool, Option<f64>) {
        (&self.name, self.cipher, Some(self.scale_log2))
    }
}

impl ValueSpec for OutputSpec {
    const ROLE: &'static str = "output";
    fn spec(&self) -> (&str, bool, Option<f64>) {
        (&self.name, self.cipher, None)
    }
}

/// The one gate for the named values a peer sends, in either direction:
/// [`EvaluationContext::bind_inputs`] runs it on a round's inputs against
/// [`live_inputs`], the deployment client on the outputs against the
/// manifest's [`OutputSpec`]s. Each name may appear once and must be one of
/// `specs`, each spec needs a value of its kind, and each ciphertext must
/// meet its direction's rule and be an element of `context`'s ring
/// ([`CkksContext::check_ring_elements`], which a seeded input's `b` passes
/// as it expands; the fresh `a` is not scanned again). A plain input holds
/// 1 to `vec_size` finite values and is replicated to `vec_size`. Returns
/// one value per spec, in order.
///
/// # Errors
///
/// Returns [`EvaError::Execution`] naming the first value refused.
pub fn admit_values<S: ValueSpec>(
    context: &CkksContext,
    specs: &[S],
    vec_size: usize,
    values: Vec<(String, ValuePayload)>,
) -> Result<Vec<NodeValue>, EvaError> {
    let (role, top) = (S::ROLE, context.max_level());
    let mut named = HashMap::with_capacity(values.len());
    for (name, value) in values {
        if named.insert(name.clone(), value).is_some() {
            return Err(EvaError::Execution(format!(
                "duplicate {role} {name:?} in one evaluation request"
            )));
        }
    }
    let mut admitted = Vec::with_capacity(specs.len());
    for (name, cipher, want) in specs.iter().map(ValueSpec::spec) {
        let value = named
            .remove(name)
            .ok_or_else(|| EvaError::Execution(format!("missing {role} value for {name:?}")))?;
        // The rules of each direction for a ciphertext of `polys`
        // polynomials at `level` and scale `2^scale`, one line each: an
        // input (`want` is its scale) is a fresh encryption, an output is
        // computed; the ring check bounds either's level by the top.
        let rule = |polys: usize, level: usize, scale: f64, seeded: bool| match want {
            Some(_) if polys != 2 => Err(format!("expected 2 polynomials, found {polys}")),
            Some(_) if level != top => Err(format!(
                "expected a top-level ciphertext (level {top}), found level {level}"
            )),
            Some(want) if scale.to_bits() != want.to_bits() => Err(format!(
                "scale 2^{scale} is not bit-identical to the program's input scale 2^{want}"
            )),
            None if seeded => Err("arrived in seeded form, which only encryptors produce".into()),
            None if !(2..=3).contains(&polys) => {
                Err(format!("expected 2 or 3 polynomials, found {polys}"))
            }
            _ => Ok(()),
        };
        let refused = |form: &str, why: String| {
            EvaError::Execution(format!("{form} {role} {name:?} rejected: {why}"))
        };
        admitted.push(match (cipher, value) {
            (true, ValuePayload::Cipher(ct)) => {
                let ring = || context.check_ring_elements(ct.polys(), ct.level(), false);
                rule(ct.size(), ct.level(), ct.scale_log2(), false)
                    .and_then(|()| ring().map_err(|err| err.to_string()))
                    .map_err(|why| refused("encrypted", why))?;
                NodeValue::Cipher(*ct)
            }
            (true, ValuePayload::Seeded(ct)) => NodeValue::Cipher(
                rule(2, ct.level(), ct.scale_log2(), true)
                    .and_then(|()| ct.expand(context).map_err(|err| err.to_string()))
                    .map_err(|why| refused("seeded", why))?,
            ),
            (false, ValuePayload::Plain(raw)) if want.is_some() => {
                NodeValue::Plain(replicate(&raw, vec_size, name)?)
            }
            (false, ValuePayload::Plain(raw)) => NodeValue::Plain(raw),
            (cipher, _) => {
                let kind = if cipher { "encrypted" } else { "plain" };
                return Err(EvaError::Execution(format!(
                    "{role} {name:?} must be {kind}"
                )));
            }
        });
    }
    if let Some(name) = named.keys().next() {
        return Err(EvaError::Execution(format!(
            "{role} {name:?} does not match any live program {role}"
        )));
    }
    Ok(admitted)
}

/// The live (output-reachable) inputs of `program` in ascending node order,
/// with their node ids: the one list the deployment manifest publishes, the
/// client half encrypts and [`EvaluationContext::bind_inputs`] binds. Dead
/// inputs need no value.
pub fn live_inputs(program: &Program) -> impl Iterator<Item = (NodeId, InputSpec)> + '_ {
    let live = program.live_mask();
    program
        .nodes()
        .iter()
        .enumerate()
        .filter(move |&(id, _)| live[id])
        .filter_map(|(id, node)| match &node.kind {
            NodeKind::Input { name } => Some((
                id,
                InputSpec {
                    name: name.clone(),
                    cipher: node.ty == ValueType::Cipher,
                    scale_log2: node.scale_log2,
                },
            )),
            _ => None,
        })
}

/// A named value between the client half and the evaluation half: inputs
/// the client encrypted ([`SecretContext::encrypt_inputs`]) on their way to
/// [`EvaluationContext::bind_inputs`], and outputs on their way back. The
/// deployment service frames exactly these on the wire.
#[derive(Debug, Clone)]
pub enum ValuePayload {
    /// An encrypted value, every polynomial dense: two, or three for an
    /// output the compiler left unrelinearized. Computed values (outputs)
    /// can only travel this way.
    Cipher(Box<Ciphertext>),
    /// A fresh encrypted value in seeded form (roughly half the bytes):
    /// only the encryptor produces these, and the binding gate expands them.
    Seeded(Box<SeededCiphertext>),
    /// A plaintext vector.
    Plain(Vec<f64>),
}

impl From<NodeValue> for ValuePayload {
    fn from(value: NodeValue) -> Self {
        match value {
            NodeValue::Cipher(ct) => ValuePayload::Cipher(Box::new(ct)),
            NodeValue::Plain(v) => ValuePayload::Plain(v),
        }
    }
}

/// The secret-free half of the executor: the CKKS context, the encoder used
/// for plaintext operands, the evaluator and the **evaluation keys**
/// (relinearization and Galois keys).
///
/// This is exactly the state an untrusted deployment server holds: it can
/// execute a compiled program over ciphertexts it received, but it can
/// neither encrypt nor decrypt anything. The in-process [`EncryptedContext`]
/// pairs this with the client's [`SecretContext`].
pub struct EvaluationContext {
    context: CkksContext,
    encoder: CkksEncoder,
    evaluator: Evaluator,
    // The evaluation keys are held behind `Arc`s so a deployment server can
    // share one cached multi-megabyte key set across concurrent resumed
    // sessions without deep-cloning it per connection.
    relin_key: Option<Arc<RelinearizationKey>>,
    galois_keys: Arc<GaloisKeys>,
}

impl std::fmt::Debug for EvaluationContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaluationContext")
            .field("degree", &self.context.degree())
            .field("levels", &self.context.max_level())
            .finish()
    }
}

/// The client's secret-key half: the CKKS context, an encoder, the
/// secret-key encryptor and the decryptor. The in-process executor
/// ([`EncryptedContext`]) and the deployment client (`eva-service`'s
/// `EvaClient`) both hold one, so they derive keys in one order and encrypt
/// and decrypt with one code path; a seeded in-process run is bit-identical
/// to a client/server run by construction.
///
/// Inputs are encrypted with the **secret key**, in seeded form
/// ([`SymmetricEncryptor`]): the party that encrypts owns the secret key,
/// and this fresh noise is what `eva-core`'s noise analysis prices.
pub struct SecretContext {
    context: CkksContext,
    encoder: CkksEncoder,
    encryptor: SymmetricEncryptor,
    decryptor: Decryptor,
}

impl std::fmt::Debug for SecretContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretContext")
            .field("degree", &self.context.degree())
            .field("levels", &self.context.max_level())
            .finish()
    }
}

/// CKKS context plus **all** key material needed to run one compiled program
/// in-process: the evaluation half ([`EvaluationContext`]) plus the
/// secret-key half ([`SecretContext`]).
pub struct EncryptedContext {
    eval: EvaluationContext,
    secret: SecretContext,
}

impl std::fmt::Debug for EncryptedContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedContext")
            .field("degree", &self.eval.context.degree())
            .field("levels", &self.eval.context.max_level())
            .finish()
    }
}

fn to_eva_error(err: CkksError) -> EvaError {
    EvaError::Execution(format!("CKKS backend error: {err}"))
}

/// Builds the CKKS parameters a compiled program's spec describes.
///
/// # Errors
///
/// Returns [`EvaError::Execution`] if the spec cannot be instantiated —
/// among others when it names no data primes.
pub fn parameters_from_spec(spec: &eva_core::ParameterSpec) -> Result<CkksParameters, EvaError> {
    // Build the context from the *actual primes* the compiler selected
    // and annotated exact scales against — regenerating primes from bit
    // sizes would break the bit-identity between the compiler's scale
    // predictions and the evaluator's observations.
    CkksParameters::from_primes(
        spec.degree,
        &spec.data_primes,
        spec.special_prime,
        spec.secure,
    )
    .map_err(|e| EvaError::Execution(format!("invalid encryption parameters: {e}")))
}

impl EvaluationContext {
    /// Assembles an evaluation context from a CKKS context and evaluation
    /// keys — the server side of the deployment split, where the keys arrive
    /// over the wire instead of from a local key generator.
    pub fn from_parts(
        context: CkksContext,
        relin_key: Option<RelinearizationKey>,
        galois_keys: GaloisKeys,
    ) -> Self {
        Self::from_shared(context, relin_key.map(Arc::new), Arc::new(galois_keys))
    }

    /// Like [`EvaluationContext::from_parts`], but sharing already-`Arc`'d
    /// evaluation keys — the deployment server's session-resumption path,
    /// where one cached key set backs many concurrent sessions and a deep
    /// clone of tens of megabytes per connection would defeat the cache.
    pub fn from_shared(
        context: CkksContext,
        relin_key: Option<Arc<RelinearizationKey>>,
        galois_keys: Arc<GaloisKeys>,
    ) -> Self {
        let encoder = CkksEncoder::new(context.clone());
        let evaluator = Evaluator::new(context.clone());
        Self {
            context,
            encoder,
            evaluator,
            relin_key,
            galois_keys,
        }
    }

    /// The underlying CKKS context.
    pub fn context(&self) -> &CkksContext {
        &self.context
    }

    /// The evaluator (shared, thread-safe).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The encoder used for plaintext operands.
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// The binding gate: [`admit_values`] over the program's
    /// [`live_inputs`], whether the inputs arrived over the wire or from the
    /// in-process client half ([`EncryptedContext::encrypt_inputs`]), bound
    /// to their input nodes.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] if an input is duplicated, missing,
    /// unknown or refused.
    pub fn bind_inputs(
        &self,
        compiled: &CompiledProgram,
        inputs: Vec<(String, ValuePayload)>,
    ) -> Result<HashMap<NodeId, NodeValue>, EvaError> {
        let program = &compiled.program;
        let (ids, specs): (Vec<NodeId>, Vec<InputSpec>) = live_inputs(program).unzip();
        let values = admit_values(&self.context, &specs, program.vec_size(), inputs)?;
        Ok(ids.into_iter().zip(values).collect())
    }

    /// Collects a program's outputs from computed node values by name,
    /// **without decrypting** — the server side sends these back over the
    /// wire for the client to decrypt.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] if an output value is missing.
    pub fn named_outputs(
        compiled: &CompiledProgram,
        values: &HashMap<NodeId, NodeValue>,
    ) -> Result<Vec<(String, NodeValue)>, EvaError> {
        let mut outputs = Vec::with_capacity(compiled.program.outputs().len());
        for output in compiled.program.outputs() {
            let value = values.get(&output.node).ok_or_else(|| {
                EvaError::Execution(format!("output {:?} was not computed", output.name))
            })?;
            outputs.push((output.name.clone(), value.clone()));
        }
        Ok(outputs)
    }

    /// Executes instruction `id` given its argument values — every
    /// instruction but a switch-site member, which
    /// [`execute_switch_member`](Self::execute_switch_member) runs.
    pub(crate) fn execute_instruction(
        &self,
        program: &Program,
        id: NodeId,
        args: &[&NodeValue],
    ) -> Result<NodeValue, EvaError> {
        let size = program.vec_size();
        let node = program.node(id);
        let NodeKind::Instruction { op, args: arg_ids } = &node.kind else {
            return Err(EvaError::Execution(format!(
                "node {id} is not an instruction"
            )));
        };
        // Pure plaintext computation falls back to reference semantics.
        if args.iter().all(|a| matches!(a, NodeValue::Plain(_))) {
            let plain_args: Vec<&Vec<f64>> = args
                .iter()
                .map(|a| match a {
                    NodeValue::Plain(v) => v,
                    NodeValue::Cipher(_) => unreachable!(),
                })
                .collect();
            return Ok(NodeValue::Plain(apply_op(*op, &plain_args, size)));
        }

        let ev = &self.evaluator;
        let result = match op {
            Opcode::Negate => {
                let ct = expect_cipher(args[0])?;
                ev.negate(ct)
            }
            Opcode::Add | Opcode::Sub => {
                let (ct, other, swapped) = split_cipher_plain(args)?;
                match other {
                    NodeValue::Cipher(rhs) => {
                        if matches!(op, Opcode::Add) {
                            ev.add(ct, rhs).map_err(to_eva_error)?
                        } else {
                            ev.sub(ct, rhs).map_err(to_eva_error)?
                        }
                    }
                    NodeValue::Plain(values) => {
                        // Encode the plaintext operand at the ciphertext's exact
                        // scale and level so the exact-equality constraint holds.
                        let pt = self.encoder.encode(values, ct.scale_log2(), ct.level());
                        let mut out = if matches!(op, Opcode::Add) {
                            ev.add_plain(ct, &pt).map_err(to_eva_error)?
                        } else {
                            ev.sub_plain(ct, &pt).map_err(to_eva_error)?
                        };
                        // a SUB with a plaintext left operand computes plain - cipher.
                        if swapped && matches!(op, Opcode::Sub) {
                            out = ev.negate(&out);
                        }
                        out
                    }
                }
            }
            Opcode::Multiply => {
                let (ct, other, _) = split_cipher_plain(args)?;
                match other {
                    NodeValue::Cipher(rhs) => ev.multiply(ct, rhs).map_err(to_eva_error)?,
                    NodeValue::Plain(values) => {
                        // Plaintext factors are encoded at their annotated
                        // exact scale — for the compiler's exact match-scale
                        // corrections this is a tiny non-integral delta.
                        let plain_id = arg_ids
                            .iter()
                            .copied()
                            .find(|&a| !program.node(a).ty.is_cipher())
                            .expect("one operand is plaintext");
                        let scale_log2 = program.node(plain_id).scale_log2;
                        let pt = self.encoder.encode(values, scale_log2, ct.level());
                        ev.multiply_plain(ct, &pt).map_err(to_eva_error)?
                    }
                }
            }
            // A rotation outside a switch site is by Galois element 1,
            // which the evaluator clones.
            Opcode::RotateLeft(_) | Opcode::RotateRight(_) => {
                let step = op.rotation_step().expect("a rotation has a step");
                let ct = expect_cipher(args[0])?;
                ev.rotate(ct, step, &self.galois_keys)
                    .map_err(to_eva_error)?
            }
            // Every relinearization is a switch-site member.
            Opcode::Relinearize => {
                return Err(EvaError::Execution(format!(
                    "node {id} switches a key outside a switch site"
                )));
            }
            Opcode::ModSwitch => {
                let ct = expect_cipher(args[0])?;
                ev.mod_switch_to_next(ct).map_err(to_eva_error)?
            }
            Opcode::Rescale(_) => {
                let ct = expect_cipher(args[0])?;
                ev.rescale_to_next(ct).map_err(to_eva_error)?
            }
        };
        Ok(annotated(program, id, result))
    }

    /// Digit `j` of the decomposition a switch site's members share.
    pub(crate) fn key_switch_digit(
        &self,
        source: &NodeValue,
        j: usize,
    ) -> Result<eva_poly::RnsPoly, EvaError> {
        let ct = expect_cipher(source)?;
        let target = ct.polys().last().expect("a ciphertext has polynomials");
        Ok(self.evaluator.key_switch_digit(target, ct.level(), j))
    }

    /// One member of a switch site: applies the key node `id` names to the
    /// site's decomposition of `source`.
    pub(crate) fn execute_switch_member(
        &self,
        program: &Program,
        id: NodeId,
        source: &NodeValue,
        decomp: &KeySwitchDecomposition,
        scratch: &mut KeySwitchScratch,
    ) -> Result<NodeValue, EvaError> {
        let ct = expect_cipher(source)?;
        let ev = &self.evaluator;
        let op = program.opcode(id);
        let result = match op.and_then(Opcode::rotation_step) {
            Some(step) => ev.rotate_decomposed(ct, step, &self.galois_keys, decomp, scratch),
            None if op == Some(Opcode::Relinearize) => {
                let key = self.relin_key.as_ref().ok_or_else(|| {
                    EvaError::Execution("program relinearizes but no relinearization key".into())
                })?;
                ev.relinearize_decomposed(ct, key, decomp, scratch)
            }
            None => return Err(EvaError::Execution(format!("node {id} switches no key"))),
        };
        Ok(annotated(program, id, result.map_err(to_eva_error)?))
    }

    /// Serial execution of the whole program on the calling thread.
    ///
    /// # Errors
    ///
    /// See [`execute_serial_audited`](Self::execute_serial_audited).
    pub fn execute_serial(
        &self,
        compiled: &CompiledProgram,
        bindings: HashMap<NodeId, NodeValue>,
    ) -> Result<HashMap<NodeId, NodeValue>, EvaError> {
        self.execute_serial_audited(compiled, bindings)
            .map(|(values, _)| values)
    }

    /// The serial executor: [`crate::parallel`]'s board driven on the
    /// calling thread, so its outputs are bit-identical to a parallel run's
    /// at any thread count. Alongside them it returns the board's
    /// [`MemoryAudit`]: the peak number of values and ciphertexts held at
    /// once and their real `memory_bytes()`. `eva-core`'s
    /// `predict_peak_memory` walks the
    /// [`Schedule`](eva_core::analysis::Schedule) steps with static sizes;
    /// the board takes ready nodes first in, first out instead, and the
    /// forecast has measured equal to the audit on Sobel and above it on
    /// LeNet.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError`] if the program is cyclic or a live input is
    /// unbound, and propagates node errors — a kernel panic, such as a
    /// failed exact-scale check, included.
    pub fn execute_serial_audited(
        &self,
        compiled: &CompiledProgram,
        bindings: HashMap<NodeId, NodeValue>,
    ) -> Result<(HashMap<NodeId, NodeValue>, MemoryAudit), EvaError> {
        crate::parallel::run(self, compiled, bindings, 1)
    }
}

/// The measured peak memory state of one audited serial execution — the
/// runtime counterpart of `eva-core`'s static `MemoryForecast`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryAudit {
    /// Maximum number of simultaneously-live values (ciphertext or plain).
    pub peak_live_values: usize,
    /// Maximum number of simultaneously-live **ciphertexts**.
    pub peak_live_ciphertexts: usize,
    /// Maximum simultaneous bytes across all live values.
    pub peak_bytes: usize,
}

impl SecretContext {
    /// Derives the secret key — from `key_seed`, or from OS entropy — and
    /// then, if `eval_keys` asks for them, the evaluation keys, each at its
    /// level (see `eva_core::analysis::key_levels`), in
    /// [`KeyGenerator::create_evaluation_keys`]' draw order. A resumed
    /// session passes `None`: only the secret key is derived.
    ///
    /// Encryption randomness comes from `key_seed + 1` when
    /// `deterministic_encryption` is set and a seed is given, and from OS
    /// entropy otherwise. Deterministic encryption is for tests and
    /// measurements only: two sessions with the same seed repeat their
    /// per-ciphertext randomness, and the difference of two `b` components
    /// reveals the difference of the encoded plaintexts.
    pub fn generate(
        context: CkksContext,
        key_seed: Option<u64>,
        deterministic_encryption: bool,
        eval_keys: Option<&KeyLevels>,
    ) -> (Self, Option<(Option<RelinearizationKey>, GaloisKeys)>) {
        let mut keygen = match key_seed {
            Some(seed) => KeyGenerator::from_seed(context.clone(), seed),
            None => KeyGenerator::new(context.clone()),
        };
        let keys = eval_keys.map(|keys| keygen.create_evaluation_keys(keys.relin, &keys.galois));
        let secret_key = keygen.secret_key();
        let encryptor = match key_seed {
            Some(seed) if deterministic_encryption => SymmetricEncryptor::from_seed(
                context.clone(),
                secret_key.clone(),
                seed.wrapping_add(1),
            ),
            _ => SymmetricEncryptor::new(context.clone(), secret_key.clone()),
        };
        let secret = Self {
            encoder: CkksEncoder::new(context.clone()),
            decryptor: Decryptor::new(context.clone(), secret_key.clone()),
            encryptor,
            context,
        };
        (secret, keys)
    }

    /// The underlying CKKS context.
    pub fn context(&self) -> &CkksContext {
        &self.context
    }

    /// Encrypts the `Cipher` input `name`: replicates `raw` to `vec_size`
    /// slots, encodes it at the top level with the input's exact `log2`
    /// scale and encrypts it in seeded form.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] if `raw` is empty, longer than
    /// `vec_size` or not finite.
    pub fn encrypt(
        &mut self,
        name: &str,
        raw: &[f64],
        vec_size: usize,
        scale_log2: f64,
    ) -> Result<SeededCiphertext, EvaError> {
        let replicated = replicate(raw, vec_size, name)?;
        let plaintext = self
            .encoder
            .encode(&replicated, scale_log2, self.context.max_level());
        Ok(self.encryptor.encrypt_seeded(&plaintext))
    }

    /// The client half of an evaluation round: encrypts every `Cipher`
    /// input of `specs` in seeded form ([`SecretContext::encrypt`]) and
    /// passes plaintext inputs on as given, after the same length and
    /// finiteness check. The named payloads are what
    /// [`EvaluationContext::bind_inputs`] accepts.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] naming the input if one is missing,
    /// empty, longer than `vec_size` or not finite.
    pub fn encrypt_inputs(
        &mut self,
        specs: &[InputSpec],
        vec_size: usize,
        values: &HashMap<String, Vec<f64>>,
    ) -> Result<Vec<(String, ValuePayload)>, EvaError> {
        let mut payloads = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = &spec.name;
            let raw = values
                .get(name)
                .ok_or_else(|| EvaError::Execution(format!("missing input value for {name:?}")))?;
            let value = if spec.cipher {
                let ct = self.encrypt(name, raw, vec_size, spec.scale_log2)?;
                ValuePayload::Seeded(Box::new(ct))
            } else {
                check_input(raw, vec_size, name)?;
                ValuePayload::Plain(raw.clone())
            };
            payloads.push((name.clone(), value));
        }
        Ok(payloads)
    }

    /// Decrypts and decodes a ciphertext to its first `vec_size` values.
    pub fn decrypt(&self, ct: &Ciphertext, vec_size: usize) -> Vec<f64> {
        let mut values = self.decryptor.decrypt_to_values(ct, vec_size.max(1));
        values.truncate(vec_size);
        values
    }

    /// The client half's closing step: decrypts every named output to a
    /// vector of `vec_size` values; plaintext outputs pass as they are.
    pub fn decrypt_outputs(
        &self,
        outputs: Vec<(String, NodeValue)>,
        vec_size: usize,
    ) -> HashMap<String, Vec<f64>> {
        outputs
            .into_iter()
            .map(|(name, value)| match value {
                NodeValue::Cipher(ct) => (name, self.decrypt(&ct, vec_size)),
                NodeValue::Plain(v) => (name, v),
            })
            .collect()
    }

    /// The secret key's leak-audit probe (see
    /// [`eva_ckks::SecretKey::leak_probe`]): raw bytes that deployment tests
    /// scan captured traffic for.
    pub fn secret_key_probe(&self) -> Vec<u8> {
        self.decryptor.secret_key_probe()
    }
}

impl EncryptedContext {
    /// Generates the encryption context and all keys the compiled program
    /// needs: the secret key, a relinearization key if the program
    /// relinearizes and Galois keys for exactly the rotation steps its
    /// ROTATE nodes use, each at the highest level the program uses it at.
    /// A seed fixes the keys and the encryption randomness (see
    /// [`SecretContext::generate`]).
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] if the parameter specification cannot be
    /// instantiated, and propagates level-analysis failures.
    pub fn setup(compiled: &CompiledProgram, seed: Option<u64>) -> Result<Self, EvaError> {
        let params = parameters_from_spec(&compiled.parameters)?;
        let context = CkksContext::new(params)
            .map_err(|e| EvaError::Execution(format!("context creation failed: {e}")))?;
        let levels = key_levels(compiled)?;
        let (secret, keys) = SecretContext::generate(context.clone(), seed, true, Some(&levels));
        let (relin_key, galois_keys) = keys.expect("evaluation keys were requested");
        Ok(Self {
            eval: EvaluationContext::from_parts(context, relin_key, galois_keys),
            secret,
        })
    }

    /// The secret-free evaluation half (context, evaluator, evaluation
    /// keys) — what the executors and the deployment server actually run
    /// against.
    pub fn evaluation(&self) -> &EvaluationContext {
        &self.eval
    }

    /// The underlying CKKS context.
    pub fn context(&self) -> &CkksContext {
        self.eval.context()
    }

    /// The evaluator (shared, thread-safe).
    pub fn evaluator(&self) -> &Evaluator {
        self.eval.evaluator()
    }

    /// Encrypts the program's live inputs with the client half and binds
    /// them through the evaluation half's gate — the client/server round
    /// trip without the socket — returning the initial node-value bindings
    /// for execution.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] if an input is missing, too long or
    /// not finite, or fails the binding gate.
    pub fn encrypt_inputs(
        &mut self,
        compiled: &CompiledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<HashMap<NodeId, NodeValue>, EvaError> {
        let program = &compiled.program;
        let specs: Vec<InputSpec> = live_inputs(program).map(|(_, spec)| spec).collect();
        let payloads = self
            .secret
            .encrypt_inputs(&specs, program.vec_size(), inputs)?;
        self.eval.bind_inputs(compiled, payloads)
    }

    /// Serial execution of the whole program (delegates to the evaluation
    /// half).
    ///
    /// # Errors
    ///
    /// See [`EvaluationContext::execute_serial`].
    pub fn execute_serial(
        &self,
        compiled: &CompiledProgram,
        bindings: HashMap<NodeId, NodeValue>,
    ) -> Result<HashMap<NodeId, NodeValue>, EvaError> {
        self.eval.execute_serial(compiled, bindings)
    }

    /// Decrypts the program outputs into plain vectors of the program's
    /// vector size.
    ///
    /// # Errors
    ///
    /// Returns [`EvaError::Execution`] if an output value is missing.
    pub fn decrypt_outputs(
        &self,
        compiled: &CompiledProgram,
        values: &HashMap<NodeId, NodeValue>,
    ) -> Result<HashMap<String, Vec<f64>>, EvaError> {
        let outputs = EvaluationContext::named_outputs(compiled, values)?;
        Ok(self
            .secret
            .decrypt_outputs(outputs, compiled.program.vec_size()))
    }
}

/// Wraps the ciphertext node `id` produced. The compiler's exact-scale phase
/// promises its per-node annotations are bit-identical to the scales the
/// evaluator produces; this checks that on every node in debug builds (CI
/// runs a debug-assertions job so it executes on the encrypted network
/// paths).
fn annotated(program: &Program, id: NodeId, result: Ciphertext) -> NodeValue {
    debug_assert_eq!(
        result.scale_log2().to_bits(),
        program.node(id).scale_log2.to_bits(),
        "node {id}: executor scale 2^{} deviates from the compiler's exact annotation 2^{}",
        result.scale_log2(),
        program.node(id).scale_log2,
    );
    NodeValue::Cipher(result)
}

fn expect_cipher(value: &NodeValue) -> Result<&Ciphertext, EvaError> {
    match value {
        NodeValue::Cipher(ct) => Ok(ct),
        NodeValue::Plain(_) => Err(EvaError::Execution(
            "expected an encrypted operand but found a plaintext one".into(),
        )),
    }
}

/// Splits a binary argument pair into (cipher operand, other operand, swapped)
/// where `swapped` indicates that the cipher operand was the right-hand one.
fn split_cipher_plain<'a>(
    args: &[&'a NodeValue],
) -> Result<(&'a Ciphertext, &'a NodeValue, bool), EvaError> {
    match (args[0], args[1]) {
        (NodeValue::Cipher(a), other) => Ok((a, other, false)),
        (other, NodeValue::Cipher(b)) => Ok((b, other, true)),
        _ => Err(EvaError::Execution(
            "binary cipher instruction with no encrypted operand".into(),
        )),
    }
}

/// Convenience entry point: set up keys, encrypt, execute serially and
/// decrypt. Mirrors what a user of the original EVA Python package gets from
/// its `evaluate` helper.
///
/// # Errors
///
/// Propagates setup and execution errors.
pub fn run_encrypted(
    compiled: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<HashMap<String, Vec<f64>>, EvaError> {
    let mut context = EncryptedContext::setup(compiled, None)?;
    let bindings = context.encrypt_inputs(compiled, inputs)?;
    let values = context.execute_serial(compiled, bindings)?;
    context.decrypt_outputs(compiled, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;
    use eva_core::{compile, CompilerOptions, Opcode as Op, Program};

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn a_spec_without_primes_is_refused() {
        let mut p = Program::new("sq", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Op::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let mut spec = compile(&p, &CompilerOptions::default()).unwrap().parameters;
        assert!(parameters_from_spec(&spec).is_ok());
        spec.data_primes.clear();
        let err = parameters_from_spec(&spec).unwrap_err();
        assert!(matches!(err, EvaError::Execution(_)), "{err}");
        assert!(err.to_string().contains("data prime"), "{err}");
    }

    #[test]
    fn the_secret_half_rederives_its_secret_and_keys_from_a_seed() {
        let params = CkksParameters::new_insecure(64, &[40, 40], 45).unwrap();
        let context = CkksContext::new(params).unwrap();
        let levels = KeyLevels {
            relin: Some(2),
            galois: vec![(1, 2), (-2, 1)],
        };
        let request = Some(&levels);
        let fingerprint = |keys: Option<(Option<RelinearizationKey>, GaloisKeys)>| {
            let (relin, galois) = keys.expect("keys were requested");
            eva_wire::fingerprint_eval_keys(relin.as_ref(), &galois)
        };

        // The encryption mode draws nothing from the key generator.
        let (mut first, keys) = SecretContext::generate(context.clone(), Some(5), false, request);
        let (_, again) = SecretContext::generate(context.clone(), Some(5), true, request);
        assert_eq!(fingerprint(keys), fingerprint(again));

        // A resumed session derives the same secret key, and nothing else.
        let (resumed, none) = SecretContext::generate(context.clone(), Some(5), false, None);
        assert!(none.is_none());
        assert_eq!(resumed.secret_key_probe(), first.secret_key_probe());
        let (other, _) = SecretContext::generate(context.clone(), Some(6), false, None);
        assert_ne!(other.secret_key_probe(), first.secret_key_probe());

        // So it decrypts what the first session encrypted.
        let ct = first.encrypt("x", &[0.5, -0.25], 8, 30.0).unwrap();
        let decrypted = resumed.decrypt(&ct.expand(&context).unwrap(), 8);
        assert_eq!(decrypted.len(), 8);
        assert!(close(&decrypted, &[0.5, -0.25].repeat(4), 1e-4));
        assert!(first.encrypt("x", &[], 8, 30.0).is_err());
        assert!(first.encrypt("x", &[0.0; 9], 8, 30.0).is_err());
    }

    #[test]
    fn seeded_inputs_are_expanded_when_bound() {
        use eva_ckks::SymmetricEncryptor;

        let mut p = Program::new("bound", 8);
        let x = p.input_cipher("x", 30);
        let w = p.input_vector("w", 20);
        let prod = p.instruction(Op::Multiply, &[x, w]);
        p.output("out", prod, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        let inputs: HashMap<String, (NodeId, InputSpec)> = live_inputs(&compiled.program)
            .map(|(id, spec)| (spec.name.clone(), (id, spec)))
            .collect();
        let (x_id, x_spec) = &inputs["x"];
        let w_id = inputs["w"].0;

        let params = CkksParameters::new_insecure(32, &[30, 30, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let evaluation = |ctx: &CkksContext| {
            EvaluationContext::from_parts(ctx.clone(), None, GaloisKeys::default())
        };
        let keygen = KeyGenerator::from_seed(ctx.clone(), 3);
        let encryptor =
            |seed| SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), seed);
        let pt =
            CkksEncoder::new(ctx.clone()).encode(&[1.0; 8], x_spec.scale_log2, ctx.max_level());
        let seeded = |seed| ValuePayload::Seeded(Box::new(encryptor(seed).encrypt_seeded(&pt)));

        // The expansion is exactly the directly encrypted ciphertext.
        let bound = evaluation(&ctx)
            .bind_inputs(
                &compiled,
                vec![
                    ("x".to_string(), seeded(4)),
                    ("w".to_string(), ValuePayload::Plain(vec![2.0])),
                ],
            )
            .unwrap();
        let NodeValue::Cipher(ct) = &bound[x_id] else {
            panic!("x binds a ciphertext");
        };
        assert_eq!(ct.polys(), encryptor(4).encrypt(&pt).polys());
        assert!(matches!(&bound[&w_id], NodeValue::Plain(v) if v == &vec![2.0; 8]));

        // A seeded ciphertext that does not fit the context is refused, with
        // the class a refused full ciphertext gets.
        let small = CkksContext::new(CkksParameters::new_insecure(32, &[30], 40).unwrap()).unwrap();
        let err = evaluation(&small)
            .bind_inputs(&compiled, vec![("x".to_string(), seeded(5))])
            .unwrap_err();
        assert!(
            matches!(&err, EvaError::Execution(m) if m.contains("seeded input \"x\" rejected")),
            "{err}"
        );

        // A name may appear once.
        let err = evaluation(&ctx)
            .bind_inputs(
                &compiled,
                vec![
                    ("x".to_string(), seeded(6)),
                    ("w".to_string(), ValuePayload::Plain(vec![2.0])),
                    ("w".to_string(), ValuePayload::Plain(vec![3.0])),
                ],
            )
            .unwrap_err();
        assert!(
            matches!(&err, EvaError::Execution(m) if m.contains("duplicate input \"w\"")),
            "{err}"
        );
    }

    /// One defect per case, each refused by the binding gate — its own
    /// rules or the ring check in `eva-ckks` — with a message naming the
    /// input; the same ring check refuses a key-switch key one digit short.
    #[test]
    fn every_defect_of_a_hostile_ciphertext_is_refused_naming_the_input() {
        use eva_ckks::KeySwitchKey;
        use eva_poly::{PolyForm, RnsPoly};

        let mut p = Program::new("gate", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Op::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        let scale = live_inputs(&compiled.program).next().unwrap().1.scale_log2;
        let params = CkksParameters::new_insecure(32, &[30, 30, 40], 45).unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let top = ctx.max_level();
        let mut keygen = KeyGenerator::from_seed(ctx.clone(), 3);
        let pt = CkksEncoder::new(ctx.clone()).encode(&[0.5; 8], scale, top);
        let fresh =
            SymmetricEncryptor::from_seed(ctx.clone(), keygen.secret_key().clone(), 4).encrypt(&pt);
        let polys = fresh.polys().to_vec();
        let with = |polys: Vec<RnsPoly>, scale: f64| {
            let level = polys[0].level();
            Ciphertext::from_parts(polys, scale, level)
        };
        let mut coeff = polys.clone();
        coeff[1].to_coeff(ctx.key_basis());
        let mut at_prime = polys.clone();
        at_prime[1].residue_mut(1)[5] = ctx.key_basis().moduli()[1].value();
        let half = vec![RnsPoly::zero(16, top, PolyForm::Ntt); 2];
        let cases = [
            (
                with([&polys[..], &polys[1..]].concat(), scale),
                "expected 2 polynomials",
            ),
            (
                with(polys.iter().map(|p| p.truncated(top - 1)).collect(), scale),
                "expected a top-level ciphertext",
            ),
            (
                with(polys.clone(), f64::from_bits(scale.to_bits() + 1)),
                "bit-identical to the program's input scale",
            ),
            (
                with(half, scale),
                "ring degree 16 does not match the context degree 32",
            ),
            (with(coeff, scale), "must be in NTT form"),
            (with(at_prime, scale), "non-canonical limb in residue row 1"),
        ];
        let evaluation = EvaluationContext::from_parts(ctx.clone(), None, GaloisKeys::default());
        let bound = evaluation.bind_inputs(
            &compiled,
            vec![("x".into(), NodeValue::Cipher(fresh).into())],
        );
        assert!(bound.is_ok(), "the untampered ciphertext binds");
        for (ct, defect) in cases {
            let err = evaluation
                .bind_inputs(&compiled, vec![("x".into(), NodeValue::Cipher(ct).into())])
                .unwrap_err();
            let EvaError::Execution(text) = &err else {
                panic!("expected an execution error, got {err:?}");
            };
            assert!(
                text.starts_with("encrypted input \"x\" rejected: "),
                "{text}"
            );
            assert!(text.contains(defect), "{defect}: {text}");
        }

        let (relin, _) = keygen.create_evaluation_keys(Some(top), &[]);
        let key = relin.unwrap().key_switch_key().clone();
        let ring = |key: &KeySwitchKey| {
            let polys = key.digits().iter().flat_map(|(k0, k1)| [k0, k1]);
            ctx.check_ring_elements(polys, key.level(), true)
        };
        assert!(ring(&key).is_ok());
        let mut digits = key.digits().to_vec();
        digits.pop();
        let err = ring(&KeySwitchKey::from_digits(digits)).unwrap_err();
        assert!(
            err.to_string().contains("4 residue rows, expected 3"),
            "{err}"
        );
    }

    /// A rotation by the slot count (vec_size 4096 fills the 4096 slots of
    /// N = 8192) is by Galois element 1: no key, no switch site, no key
    /// switch priced, and the executor's clone returns the input.
    #[test]
    fn a_rotation_by_the_slot_count_switches_no_key() {
        let mut p = Program::new("identity", 4096);
        let x = p.input_cipher("x", 30);
        let r = p.instruction(Op::RotateLeft(4096), &[x]);
        p.output("out", r, 30);
        let compiled = compile(&p, &CompilerOptions::unoptimized()).unwrap();
        let slots = compiled.parameters.degree / 2;
        assert_eq!(slots, 4096);
        let cost = eva_core::estimate_cost(&compiled, &eva_core::CostModel::default()).unwrap();
        assert_eq!(cost.key_switches, 0);
        let schedule = eva_core::analysis::Schedule::new(&compiled.program, slots).unwrap();
        assert!(schedule.sites.is_empty());
        assert_eq!(key_levels(&compiled).unwrap(), KeyLevels::default());

        let values: Vec<f64> = (0..4096).map(|i| f64::from(i % 31) / 31.0).collect();
        let inputs = HashMap::from([("x".to_string(), values.clone())]);
        let actual = run_encrypted(&compiled, &inputs).unwrap();
        assert!(close(&actual["out"], &values, 1e-4));
    }

    #[test]
    fn x2y3_encrypted_matches_reference() {
        let mut p = Program::new("x2y3", 8);
        let x = p.input_cipher("x", 40);
        let y = p.input_cipher("y", 30);
        let x2 = p.instruction(Op::Multiply, &[x, x]);
        let y2 = p.instruction(Op::Multiply, &[y, y]);
        let y3 = p.instruction(Op::Multiply, &[y2, y]);
        let out = p.instruction(Op::Multiply, &[x2, y3]);
        p.output("out", out, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();

        let inputs: HashMap<String, Vec<f64>> = [
            (
                "x".to_string(),
                vec![0.5, 1.0, -0.25, 2.0, 0.1, 0.7, -1.0, 0.3],
            ),
            (
                "y".to_string(),
                vec![1.0, 0.5, 2.0, -1.0, 0.9, 1.1, 0.2, -0.4],
            ),
        ]
        .into_iter()
        .collect();
        let expected = run_reference(&compiled.program, &inputs).unwrap();
        let actual = run_encrypted(&compiled, &inputs).unwrap();
        assert!(close(&actual["out"], &expected["out"], 1e-3));
    }

    #[test]
    fn mixed_plaintext_and_rotation_program() {
        let mut p = Program::new("sobel_like", 16);
        let image = p.input_cipher("image", 30);
        let weights = p.input_vector("weights", 20);
        let c = p.constant(eva_core::ConstantValue::Scalar(0.25), 20);
        let shifted = p.instruction(Op::RotateLeft(3), &[image]);
        let weighted = p.instruction(Op::Multiply, &[shifted, weights]);
        let scaled = p.instruction(Op::Multiply, &[weighted, c]);
        let sum = p.instruction(Op::Add, &[scaled, image]);
        let diff = p.instruction(Op::Sub, &[sum, image]);
        p.output("out", diff, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();

        let inputs: HashMap<String, Vec<f64>> = [
            (
                "image".to_string(),
                (0..16).map(|i| (i as f64) / 8.0 - 1.0).collect::<Vec<_>>(),
            ),
            (
                "weights".to_string(),
                (0..16).map(|i| ((i % 3) as f64) - 1.0).collect::<Vec<_>>(),
            ),
        ]
        .into_iter()
        .collect();
        let expected = run_reference(&compiled.program, &inputs).unwrap();
        let actual = run_encrypted(&compiled, &inputs).unwrap();
        assert!(close(&actual["out"], &expected["out"], 1e-3));
    }

    #[test]
    fn plain_minus_cipher_is_handled() {
        let mut p = Program::new("swap", 8);
        let x = p.input_cipher("x", 30);
        let v = p.input_vector("v", 30);
        let diff = p.instruction(Op::Sub, &[v, x]);
        p.output("out", diff, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        let inputs: HashMap<String, Vec<f64>> = [
            ("x".to_string(), vec![1.0; 8]),
            ("v".to_string(), vec![3.0; 8]),
        ]
        .into_iter()
        .collect();
        let actual = run_encrypted(&compiled, &inputs).unwrap();
        assert!(close(&actual["out"], &[2.0; 8], 1e-4));
    }

    #[test]
    fn missing_input_is_an_error() {
        let mut p = Program::new("missing", 8);
        let x = p.input_cipher("x", 30);
        p.output("out", x, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();
        assert!(run_encrypted(&compiled, &HashMap::new()).is_err());
    }

    #[test]
    fn audit_is_bounded_by_the_static_forecast() {
        let mut p = Program::new("audited", 16);
        let image = p.input_cipher("image", 30);
        let weights = p.input_vector("weights", 20);
        let shifted = p.instruction(Op::RotateLeft(3), &[image]);
        let weighted = p.instruction(Op::Multiply, &[shifted, weights]);
        let sum = p.instruction(Op::Add, &[weighted, image]);
        p.output("out", sum, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();

        let inputs: HashMap<String, Vec<f64>> = [
            ("image".to_string(), vec![0.5; 16]),
            ("weights".to_string(), vec![-1.0; 16]),
        ]
        .into_iter()
        .collect();
        let mut context = EncryptedContext::setup(&compiled, Some(11)).unwrap();
        let bindings = context.encrypt_inputs(&compiled, &inputs).unwrap();
        let (values, audit) = context
            .evaluation()
            .execute_serial_audited(&compiled, bindings)
            .unwrap();
        let actual = context.decrypt_outputs(&compiled, &values).unwrap();
        let expected = run_reference(&compiled.program, &inputs).unwrap();
        assert!(close(&actual["out"], &expected["out"], 1e-3));

        assert!(audit.peak_live_ciphertexts >= 2);
        assert!(audit.peak_bytes > 0);
        let forecast = eva_core::predict_peak_memory(&compiled).unwrap();
        assert!(
            forecast.peak_live_values >= audit.peak_live_values
                && forecast.peak_live_ciphertexts >= audit.peak_live_ciphertexts
                && forecast.peak_bytes >= audit.peak_bytes,
            "forecast {forecast:?} must upper-bound audit {audit:?}"
        );
    }
}
