//! The session protocol spoken between [`EvaClient`](crate::EvaClient) and
//! [`EvaServer`](crate::EvaServer).
//!
//! Every message is one length-prefixed frame on the socket:
//!
//! ```text
//! tag (u8) · payload_len (u64, little-endian) · payload
//! ```
//!
//! and payloads are built from the `eva-wire` framing layer, so the same
//! reader/writer, envelopes and error type cover the whole stack. A session
//! proceeds:
//!
//! ```text
//! client                                server
//!   | -- Hello { protocol, resume? } ---> |   resume = eval-key fingerprint
//!   | <-- Manifest (EVAM, keys_cached) -- |   program name, shape, primes,
//!   |                                     |   key levels, input scales
//!   | -- EvalKeys { relin?, galois } ---> |   skipped iff keys_cached
//!   | -- Inputs [name -> ct | values] --> |   fresh ciphertexts travel
//!   | <-- Outputs [name -> ct | values] - |   seeded (EVAD, half the bytes);
//!   | -- Bye ---------------------------> |   repeat Inputs/Outputs freely
//! ```
//!
//! Secret keys never have a wire representation (see `eva-wire`): the
//! server receives only the evaluation keys (relinearization + Galois) it
//! needs to run the circuit. A resuming client that names a fingerprint the
//! server still holds in its evaluation-key cache skips the multi-megabyte
//! key upload entirely.
//!
//! The authoritative byte-level specification — framing, negotiation rules,
//! the session state machine and the security argument — is
//! [`docs/PROTOCOL.md`](https://github.com/eva-reproduction/eva/blob/main/docs/PROTOCOL.md).

use std::io::{Read, Write};

pub use eva_backend::{InputSpec, OutputSpec, ValuePayload};
use eva_ckks::{Ciphertext, GaloisKeys, RelinearizationKey, SeededCiphertext};
use eva_core::analysis::{key_levels, KeyLevels};
use eva_core::{CompiledProgram, EvaError, ValueType};
use eva_wire::{
    encoded_ciphertext_len, encoded_galois_keys_len, encoded_key_switch_key_len,
    encoded_relin_key_len, KeyFingerprint, Reader, WireError, WireObject, Writer,
};

use crate::error::ServiceError;
use crate::session::FrameAssembler;

/// Version of the session protocol (checked in the Hello message).
///
/// Version history: 1 — PR 4's original protocol (bare Hello, full `EVAC`
/// ciphertext uploads, unconditional key upload); 2 — seeded-ciphertext
/// transport, evaluation-key fingerprints and session resumption; 3 —
/// Galois keys travel by element alone (`EVAG` v2, no step table) and the
/// fingerprint domain is `EVA-eval-keys-v3`; 4 — every evaluation key at
/// the level the program uses it at (`EVAM` v2 publishes the levels); 5 —
/// `EVAM` v3 drops the security flag: a client always holds the chain to
/// the 128-bit bound.
pub const PROTOCOL_VERSION: u32 = 5;

/// Upper bound on a single frame's payload (1 GiB), so a corrupt or hostile
/// length prefix cannot demand an unbounded buffer. Frames are additionally
/// read incrementally, so even below the cap a peer must actually send the
/// bytes it announced before they are held in memory. The server bounds a
/// client's frames tighter still, by what its own program's client sends.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// The largest `Hello` payload: version, resume flag and fingerprint.
const MAX_HELLO_BYTES: u64 = 4 + 1 + 32;

/// Everything a client needs to participate in a session: the program's
/// shape, the exact encryption parameters (actual primes, so client and
/// server scales agree bit-for-bit), the evaluation keys to generate, each
/// at its level, and the input/output interface.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramManifest {
    /// Program name.
    pub name: String,
    /// Program vector size (slots used per ciphertext).
    pub vec_size: usize,
    /// Ring degree `N`.
    pub degree: usize,
    /// Actual data primes, chain order (rescale consumes from the back).
    pub data_primes: Vec<u64>,
    /// Actual special key-switching prime.
    pub special_prime: u64,
    /// The evaluation keys to upload and the level of each: the
    /// relinearization key if the program relinearizes, and one Galois key
    /// per element of the program's ROTATE steps, so the client uploads
    /// only the keys — and only the rows — the circuit reads.
    pub keys: KeyLevels,
    /// Live program inputs, in node order.
    pub inputs: Vec<InputSpec>,
    /// Program outputs, in declaration order.
    pub outputs: Vec<OutputSpec>,
}

impl ProgramManifest {
    /// Builds the manifest a server publishes for a compiled program. Only
    /// live (output-reachable) inputs are listed; dead inputs need no value.
    ///
    /// # Errors
    ///
    /// Propagates level-analysis failures ([`key_levels`]; impossible for
    /// programs `compile()` has verified).
    pub fn from_compiled(compiled: &CompiledProgram) -> Result<Self, EvaError> {
        let program = &compiled.program;
        let inputs = eva_backend::live_inputs(program)
            .map(|(_, spec)| spec)
            .collect();
        let outputs = program
            .outputs()
            .iter()
            .map(|output| OutputSpec {
                name: output.name.clone(),
                cipher: program.node(output.node).ty == ValueType::Cipher,
            })
            .collect();
        Ok(Self {
            name: program.name().to_string(),
            vec_size: program.vec_size(),
            degree: compiled.parameters.degree,
            data_primes: compiled.parameters.data_primes.clone(),
            special_prime: compiled.parameters.special_prime,
            keys: key_levels(compiled)?,
            inputs,
            outputs,
        })
    }
}

impl WireObject for ProgramManifest {
    const MAGIC: [u8; 4] = *b"EVAM";
    const VERSION: u32 = 3;

    fn encode_body(&self, w: &mut Writer) {
        w.str(&self.name);
        w.u64(self.vec_size as u64);
        w.u64(self.degree as u64);
        w.u64_slice(&self.data_primes);
        w.u64(self.special_prime);
        w.bool(self.keys.relin.is_some());
        if let Some(level) = self.keys.relin {
            w.u32(level as u32);
        }
        w.u32(self.keys.galois.len() as u32);
        for &(step, level) in &self.keys.galois {
            w.i64(step);
            w.u32(level as u32);
        }
        w.u32(self.inputs.len() as u32);
        for input in &self.inputs {
            w.str(&input.name);
            w.bool(input.cipher);
            w.f64(input.scale_log2);
        }
        w.u32(self.outputs.len() as u32);
        for output in &self.outputs {
            w.str(&output.name);
            w.bool(output.cipher);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.str()?;
        let vec_size = r.u64()? as usize;
        if vec_size == 0 || !vec_size.is_power_of_two() {
            return Err(WireError::Invalid(format!(
                "vector size {vec_size} is not a power of two"
            )));
        }
        let degree = r.u64()? as usize;
        if degree < 2 || !degree.is_power_of_two() || degree > eva_wire::MAX_WIRE_DEGREE {
            return Err(WireError::Invalid(format!(
                "ring degree {degree} out of range"
            )));
        }
        let data_primes = r.u64_slice()?;
        let special_prime = r.u64()?;
        // A key's level is a count of data primes: 1 up to all of them.
        let key_level = |r: &mut Reader<'_>, what: &str| {
            let level = r.u32()? as usize;
            if level == 0 || level > data_primes.len() {
                return Err(WireError::Invalid(format!(
                    "{what} level {level} outside 1..={}",
                    data_primes.len()
                )));
            }
            Ok(level)
        };
        let relin = match r.bool()? {
            true => Some(key_level(r, "relinearization key")?),
            false => None,
        };
        let key_count = r.u32()? as usize;
        let mut galois = Vec::with_capacity(key_count.min(1 << 16));
        for _ in 0..key_count {
            let step = r.i64()?;
            galois.push((step, key_level(r, "Galois key")?));
        }
        let input_count = r.u32()? as usize;
        let mut inputs = Vec::with_capacity(input_count.min(1 << 16));
        for _ in 0..input_count {
            let name = r.str()?;
            let cipher = r.bool()?;
            let scale_log2 = r.f64()?;
            if !scale_log2.is_finite() {
                return Err(WireError::Invalid(format!(
                    "input {name:?} has a non-finite scale"
                )));
            }
            inputs.push(InputSpec {
                name,
                cipher,
                scale_log2,
            });
        }
        let output_count = r.u32()? as usize;
        let mut outputs = Vec::with_capacity(output_count.min(1 << 16));
        for _ in 0..output_count {
            outputs.push(OutputSpec {
                name: r.str()?,
                cipher: r.bool()?,
            });
        }
        Ok(Self {
            name,
            vec_size,
            degree,
            data_primes,
            special_prime,
            keys: KeyLevels { relin, galois },
            inputs,
            outputs,
        })
    }
}

/// The largest payload a conforming client of one program sends under each
/// frame tag, derived once from the program's manifest: its evaluation keys
/// as keygen builds them, summed key by key at each key's level, one round of inputs with every cipher as a full
/// top-level `EVAC` (larger than the seeded `EVAD` clients send), and a
/// `Hello` for every other tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClientFrameBounds {
    eval_keys: u64,
    inputs: u64,
}

impl ClientFrameBounds {
    pub(crate) fn new(manifest: &ProgramManifest) -> Self {
        let (degree, primes) = (manifest.degree, manifest.data_primes.len());
        let key = |level: usize| encoded_key_switch_key_len(level, degree, level + 1);
        let relin = manifest
            .keys
            .relin
            .map_or(0, |level| encoded_relin_key_len(key(level)));
        let galois = manifest.keys.galois.iter().map(|&(_, level)| key(level));
        let cipher = encoded_ciphertext_len(2, degree, primes);
        let plain = 8 + 8 * manifest.vec_size as u64;
        let inputs: u64 = manifest
            .inputs
            .iter()
            .map(|input| {
                4 + input.name.len() as u64 + 1 + if input.cipher { cipher } else { plain }
            })
            .sum();
        Self {
            eval_keys: 1 + relin + encoded_galois_keys_len(galois),
            inputs: 4 + inputs,
        }
    }

    /// The payload bound for a client frame tagged `tag`, and what a
    /// refusal calls such a frame.
    pub(crate) fn bound(&self, tag: u8) -> (u64, &'static str) {
        match tag {
            TAG_EVAL_KEYS => (self.eval_keys, "evaluation-key"),
            TAG_INPUTS => (self.inputs, "input"),
            _ => (MAX_HELLO_BYTES, "control"),
        }
    }
}

fn encode_named_values(w: &mut Writer, values: &[(String, ValuePayload)]) {
    w.u32(values.len() as u32);
    for (name, value) in values {
        w.str(name);
        match value {
            ValuePayload::Cipher(ct) => {
                w.u8(0);
                ct.encode(w);
            }
            ValuePayload::Plain(values) => {
                w.u8(1);
                w.u64(values.len() as u64);
                for &v in values {
                    w.f64(v);
                }
            }
            ValuePayload::Seeded(ct) => {
                w.u8(2);
                ct.encode(w);
            }
        }
    }
}

fn decode_named_values(r: &mut Reader<'_>) -> Result<Vec<(String, ValuePayload)>, WireError> {
    let count = r.u32()? as usize;
    let mut values = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let name = r.str()?;
        let value = match r.u8()? {
            0 => ValuePayload::Cipher(Box::new(Ciphertext::decode(r)?)),
            1 => ValuePayload::Plain(decode_f64_values(r)?),
            2 => ValuePayload::Seeded(Box::new(SeededCiphertext::decode(r)?)),
            other => return Err(WireError::Invalid(format!("unknown value tag {other}"))),
        };
        values.push((name, value));
    }
    Ok(values)
}

/// A protocol message.
#[derive(Debug)]
pub enum Message {
    /// Client → server session opener.
    Hello {
        /// The client's protocol version.
        protocol: u32,
        /// Fingerprint of the evaluation keys the client would upload, when
        /// it believes the server may still hold them cached from an earlier
        /// session (session resumption).
        resume: Option<KeyFingerprint>,
    },
    /// Server → client program description.
    Manifest {
        /// The program manifest (`EVAM` object).
        manifest: Box<ProgramManifest>,
        /// Whether the server found the Hello's resume fingerprint in its
        /// evaluation-key cache. When `true` the client must **not** send
        /// EvalKeys and proceeds straight to Inputs.
        keys_cached: bool,
    },
    /// Client → server evaluation-key upload.
    EvalKeys {
        /// Relinearization key, iff the manifest demands one.
        relin: Option<Box<RelinearizationKey>>,
        /// Galois keys for the manifest's rotation steps.
        galois: Box<GaloisKeys>,
    },
    /// Client → server named inputs for one evaluation.
    Inputs(Vec<(String, ValuePayload)>),
    /// Server → client named outputs of one evaluation.
    Outputs(Vec<(String, ValuePayload)>),
    /// Either direction: the current request failed.
    Error(String),
    /// Client → server: end of session.
    Bye,
}

/// Frame tag of the Hello message.
pub const TAG_HELLO: u8 = 1;
/// Frame tag of the Manifest message.
pub const TAG_MANIFEST: u8 = 2;
/// Frame tag of the EvalKeys message (absent in resumed sessions — traffic
/// audits assert a warm reconnect carries zero bytes under this tag).
pub const TAG_EVAL_KEYS: u8 = 3;
/// Frame tag of the Inputs message.
pub const TAG_INPUTS: u8 = 4;
/// Frame tag of the Outputs message.
pub const TAG_OUTPUTS: u8 = 5;
/// Frame tag of the Error message.
pub const TAG_ERROR: u8 = 6;
/// Frame tag of the Bye message.
pub const TAG_BYE: u8 = 7;

pub(crate) fn encode_payload(message: &Message) -> (u8, Vec<u8>) {
    let mut w = Writer::new();
    let tag = match message {
        Message::Hello { protocol, resume } => {
            w.u32(*protocol);
            match resume {
                Some(fingerprint) => {
                    w.bool(true);
                    w.raw(fingerprint.as_bytes());
                }
                None => w.bool(false),
            }
            TAG_HELLO
        }
        Message::Manifest {
            manifest,
            keys_cached,
        } => {
            manifest.encode(&mut w);
            w.bool(*keys_cached);
            TAG_MANIFEST
        }
        Message::EvalKeys { relin, galois } => {
            match relin {
                Some(key) => {
                    w.bool(true);
                    key.encode(&mut w);
                }
                None => w.bool(false),
            }
            galois.encode(&mut w);
            TAG_EVAL_KEYS
        }
        Message::Inputs(inputs) => {
            encode_named_values(&mut w, inputs);
            TAG_INPUTS
        }
        Message::Outputs(outputs) => {
            encode_named_values(&mut w, outputs);
            TAG_OUTPUTS
        }
        Message::Error(msg) => {
            w.str(msg);
            TAG_ERROR
        }
        Message::Bye => TAG_BYE,
    };
    (tag, w.into_bytes())
}

fn decode_f64_values(r: &mut Reader<'_>) -> Result<Vec<f64>, WireError> {
    let count = r.u64()? as usize;
    if count.checked_mul(8).is_none_or(|b| b > r.remaining()) {
        return Err(WireError::UnexpectedEnd);
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(r.f64()?);
    }
    Ok(values)
}

pub(crate) fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message, ServiceError> {
    let mut r = Reader::new(payload);
    let message = match tag {
        TAG_HELLO => {
            let protocol = r.u32()?;
            // A version-1 Hello is exactly the 4-byte version field. Accept
            // that shape so version negotiation can answer with a clean
            // "unsupported protocol" Error instead of a decode failure.
            let resume = if r.is_empty() {
                None
            } else if r.bool()? {
                let bytes: [u8; 32] = r.take(32)?.try_into().expect("take(32) returns 32 bytes");
                Some(KeyFingerprint(bytes))
            } else {
                None
            };
            Message::Hello { protocol, resume }
        }
        TAG_MANIFEST => {
            let manifest = Box::new(ProgramManifest::decode(&mut r)?);
            let keys_cached = r.bool()?;
            Message::Manifest {
                manifest,
                keys_cached,
            }
        }
        TAG_EVAL_KEYS => {
            let relin = if r.bool()? {
                Some(Box::new(RelinearizationKey::decode(&mut r)?))
            } else {
                None
            };
            let galois = Box::new(GaloisKeys::decode(&mut r)?);
            Message::EvalKeys { relin, galois }
        }
        TAG_INPUTS => Message::Inputs(decode_named_values(&mut r)?),
        TAG_OUTPUTS => Message::Outputs(decode_named_values(&mut r)?),
        TAG_ERROR => Message::Error(r.str()?),
        TAG_BYE => Message::Bye,
        other => {
            return Err(ServiceError::Protocol(format!(
                "unknown message tag {other}"
            )))
        }
    };
    r.expect_end().map_err(ServiceError::Wire)?;
    Ok(message)
}

/// Writes one framed message and flushes the stream.
///
/// # Errors
///
/// Returns [`ServiceError::Io`] on socket failure.
pub fn write_message<S: Write>(stream: &mut S, message: &Message) -> Result<(), ServiceError> {
    let (tag, payload) = encode_payload(message);
    write_frame(stream, tag, &payload)
}

/// Writes one already-encoded frame and flushes the stream (the raw half of
/// [`write_message`]; used where the payload bytes are also needed for
/// something else, e.g. fingerprinting a key upload without re-serializing
/// it).
pub(crate) fn write_frame<S: Write>(
    stream: &mut S,
    tag: u8,
    payload: &[u8],
) -> Result<(), ServiceError> {
    stream.write_all(&[tag])?;
    stream.write_all(&(payload.len() as u64).to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()?;
    Ok(())
}

/// Reads one framed message. Returns `Ok(None)` on a clean end-of-stream
/// (the peer closed between messages); truncation inside a frame is an
/// error.
///
/// # Errors
///
/// Returns [`ServiceError`] on socket failure, oversized frames or
/// undecodable payloads.
pub fn read_message<S: Read>(stream: &mut S) -> Result<Option<Message>, ServiceError> {
    match read_frame(stream)? {
        Some((tag, payload)) => decode_payload(tag, &payload).map(Some),
        None => Ok(None),
    }
}

/// Bytes a blocking frame read requests from the socket at a time. The
/// assembler caps each request at the current frame's remaining bytes, so a
/// read never consumes bytes of the *next* pipelined frame.
pub(crate) const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Reads one raw frame (the byte-level half of [`read_message`]), returning
/// `Ok(None)` on a clean end-of-stream between frames.
///
/// The payload is streamed through the shared [`FrameAssembler`] in
/// [`READ_CHUNK_BYTES`] chunks — the same chunked path the reactor uses —
/// so memory grows only as announced bytes actually arrive, and an
/// EvalKeys payload is content-fingerprinted incrementally as it streams.
/// Nothing is admitted here beyond [`MAX_FRAME_BYTES`]: the reactor checks
/// each frame header against the program's bound for its tag through
/// `SessionMachine::admit`.
///
/// # Errors
///
/// Returns [`ServiceError`] on socket failure, oversized frames or
/// mid-frame truncation.
fn read_frame<S: Read>(stream: &mut S) -> Result<Option<(u8, Vec<u8>)>, ServiceError> {
    let mut assembler = FrameAssembler::new();
    let mut out = std::collections::VecDeque::new();
    let mut buf = [0u8; READ_CHUNK_BYTES];
    loop {
        let want = assembler.bytes_wanted().min(buf.len() as u64) as usize;
        // A bare `read` (unlike `read_exact`) surfaces EINTR; retry it so a
        // signal delivered mid-frame does not kill the session.
        let n = match stream.read(&mut buf[..want]) {
            Ok(n) => n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err.into()),
        };
        if n == 0 {
            // EOF between frames is a clean close; inside one, a disconnect.
            return if assembler.is_idle() {
                Ok(None)
            } else {
                Err(ServiceError::Disconnected)
            };
        }
        assembler.push(&buf[..n], &mut |_, _| Ok(()), &mut out)?;
        if let Some(frame) = out.pop_front() {
            return Ok(Some((frame.tag, frame.payload)));
        }
    }
}

/// The human name of a message (for "expected X, got Y" protocol errors).
pub(crate) fn message_name(message: &Message) -> &'static str {
    match message {
        Message::Hello { .. } => "Hello",
        Message::Manifest { .. } => "Manifest",
        Message::EvalKeys { .. } => "EvalKeys",
        Message::Inputs(_) => "Inputs",
        Message::Outputs(_) => "Outputs",
        Message::Error(_) => "Error",
        Message::Bye => "Bye",
    }
}

/// Reads one message, treating end-of-stream as a protocol violation (used
/// where the protocol requires a next message).
///
/// # Errors
///
/// Returns [`ServiceError::Disconnected`] on end-of-stream, otherwise as
/// [`read_message`].
pub fn expect_message<S: Read>(stream: &mut S) -> Result<Message, ServiceError> {
    read_message(stream)?.ok_or(ServiceError::Disconnected)
}

/// One frame of a captured protocol byte stream, as returned by
/// [`frame_index`]: the message tag and the payload length in bytes.
pub type FrameSummary = (u8, u64);

/// Walks a captured stream of protocol frames (e.g. the `sent` half of a
/// [`RecordingStream`](crate::RecordingStream)) and returns each frame's tag
/// and payload length — the tool traffic audits use to prove, for example,
/// that a resumed session carried **zero** [`TAG_EVAL_KEYS`] bytes.
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEnd`] if the capture ends inside a frame.
pub fn frame_index(captured: &[u8]) -> Result<Vec<FrameSummary>, WireError> {
    let mut frames = Vec::new();
    let mut r = Reader::new(captured);
    while !r.is_empty() {
        let tag = r.u8()?;
        let len = r.u64()?;
        if len > r.remaining() as u64 {
            return Err(WireError::UnexpectedEnd);
        }
        r.take(len as usize)?;
        frames.push((tag, len));
    }
    Ok(frames)
}

/// Sums the payload bytes of every frame in `captured` carrying `tag`
/// (convenience over [`frame_index`] for audits).
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEnd`] if the capture ends inside a frame.
pub fn bytes_with_tag(captured: &[u8], tag: u8) -> Result<u64, WireError> {
    Ok(frame_index(captured)?
        .into_iter()
        .filter(|&(t, _)| t == tag)
        .map(|(_, len)| len)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_core::{compile, CompilerOptions, Opcode, Program};

    fn fixture_program() -> Program {
        let mut p = Program::new("fixture", 8);
        let x = p.input_cipher("x", 30);
        let w = p.input_vector("w", 20);
        let rot = p.instruction(Opcode::RotateLeft(2), &[x]);
        let prod = p.instruction(Opcode::Multiply, &[rot, w]);
        let sq = p.instruction(Opcode::Multiply, &[prod, prod]);
        p.output("out", sq, 30);
        p
    }

    fn compiled_fixture() -> CompiledProgram {
        compile(&fixture_program(), &CompilerOptions::default()).unwrap()
    }

    #[test]
    fn manifest_reflects_the_compiled_program() {
        let compiled = compiled_fixture();
        let manifest = ProgramManifest::from_compiled(&compiled).unwrap();
        assert_eq!(manifest.name, "fixture");
        assert_eq!(manifest.vec_size, 8);
        assert_eq!(manifest.degree, compiled.parameters.degree);
        assert_eq!(manifest.data_primes, compiled.parameters.data_primes);
        // The rotation runs on the fresh input, at the top level.
        let top = compiled.parameters.data_primes.len();
        assert!(manifest.keys.relin.is_some());
        assert_eq!(manifest.keys.galois, vec![(2, top)]);
        assert_eq!(manifest.inputs.len(), 2);
        assert!(manifest.inputs[0].cipher);
        assert!(!manifest.inputs[1].cipher);
        assert_eq!(manifest.outputs.len(), 1);
        assert!(manifest.outputs[0].cipher);
    }

    #[test]
    fn a_manifest_key_level_outside_the_chain_is_refused() {
        let manifest = ProgramManifest::from_compiled(&compiled_fixture()).unwrap();
        let top = manifest.data_primes.len();
        for level in [0, top + 1] {
            for relin in [true, false] {
                let mut bad = manifest.clone();
                match relin {
                    true => bad.keys.relin = Some(level),
                    false => bad.keys.galois[0].1 = level,
                }
                let err = ProgramManifest::from_wire_bytes(&bad.to_wire_bytes()).unwrap_err();
                let message = err.to_string();
                assert!(
                    message.contains(&format!("level {level} outside 1..={top}")),
                    "{message}"
                );
            }
        }
    }

    #[test]
    fn manifest_roundtrips_bit_exactly() {
        let manifest = ProgramManifest::from_compiled(&compiled_fixture()).unwrap();
        let bytes = manifest.to_wire_bytes();
        let restored = ProgramManifest::from_wire_bytes(&bytes).unwrap();
        assert_eq!(restored, manifest);
        assert_eq!(restored.to_wire_bytes(), bytes);
    }

    #[test]
    fn messages_roundtrip_over_a_byte_stream() {
        let manifest = ProgramManifest::from_compiled(&compiled_fixture()).unwrap();
        let fingerprint = KeyFingerprint([7u8; 32]);
        let mut buf: Vec<u8> = Vec::new();
        write_message(
            &mut buf,
            &Message::Hello {
                protocol: 2,
                resume: None,
            },
        )
        .unwrap();
        write_message(
            &mut buf,
            &Message::Hello {
                protocol: 2,
                resume: Some(fingerprint),
            },
        )
        .unwrap();
        write_message(
            &mut buf,
            &Message::Manifest {
                manifest: Box::new(manifest.clone()),
                keys_cached: true,
            },
        )
        .unwrap();
        write_message(
            &mut buf,
            &Message::Inputs(vec![("w".into(), ValuePayload::Plain(vec![1.0, -2.5]))]),
        )
        .unwrap();
        write_message(&mut buf, &Message::Error("boom".into())).unwrap();
        write_message(&mut buf, &Message::Bye).unwrap();

        // The frame audit sees exactly the messages written above.
        let tags: Vec<u8> = frame_index(&buf).unwrap().iter().map(|&(t, _)| t).collect();
        assert_eq!(
            tags,
            vec![
                TAG_HELLO,
                TAG_HELLO,
                TAG_MANIFEST,
                TAG_INPUTS,
                TAG_ERROR,
                TAG_BYE
            ]
        );
        assert_eq!(bytes_with_tag(&buf, TAG_EVAL_KEYS).unwrap(), 0);
        assert!(bytes_with_tag(&buf, TAG_MANIFEST).unwrap() > 0);

        let mut cursor = &buf[..];
        assert!(matches!(
            expect_message(&mut cursor).unwrap(),
            Message::Hello {
                protocol: 2,
                resume: None
            }
        ));
        match expect_message(&mut cursor).unwrap() {
            Message::Hello {
                protocol: 2,
                resume: Some(fp),
            } => assert_eq!(fp, fingerprint),
            other => panic!("expected resuming hello, got {other:?}"),
        }
        match expect_message(&mut cursor).unwrap() {
            Message::Manifest {
                manifest: m,
                keys_cached,
            } => {
                assert_eq!(*m, manifest);
                assert!(keys_cached);
            }
            other => panic!("expected manifest, got {other:?}"),
        }
        match expect_message(&mut cursor).unwrap() {
            Message::Inputs(inputs) => {
                assert_eq!(inputs.len(), 1);
                assert_eq!(inputs[0].0, "w");
                assert!(matches!(&inputs[0].1, ValuePayload::Plain(v) if v == &vec![1.0, -2.5]));
            }
            other => panic!("expected inputs, got {other:?}"),
        }
        assert!(matches!(
            expect_message(&mut cursor).unwrap(),
            Message::Error(msg) if msg == "boom"
        ));
        assert!(matches!(expect_message(&mut cursor).unwrap(), Message::Bye));
        assert!(read_message(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn version_one_hello_still_decodes() {
        // A PR-4 client's Hello is the bare 4-byte version field; it must
        // decode (to resume: None) so the server can answer with a polite
        // version-mismatch Error instead of a framing error.
        let mut buf: Vec<u8> = Vec::new();
        buf.push(TAG_HELLO);
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            expect_message(&mut cursor).unwrap(),
            Message::Hello {
                protocol: 1,
                resume: None
            }
        ));
    }

    #[test]
    fn truncated_frames_and_bad_tags_error() {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, &Message::Error("hello".into())).unwrap();
        // Cut into the payload: read_exact must fail, not hang or panic.
        let mut cursor = &buf[..buf.len() - 2];
        assert!(expect_message(&mut cursor).is_err());
        // Unknown tag.
        let mut bad = buf.clone();
        bad[0] = 200;
        let mut cursor = &bad[..];
        assert!(matches!(
            expect_message(&mut cursor),
            Err(ServiceError::Protocol(_))
        ));
        // Oversized frame length.
        let mut bad = buf;
        bad[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = &bad[..];
        assert!(matches!(
            expect_message(&mut cursor),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn a_lenet_shaped_key_upload_is_bounded_above_the_old_quota() {
        // LeNet-5-small: N = 2^15, 8 data primes, relinearization at the
        // top and 20 distinct rotation steps, one Galois element each: 11
        // used at level 8, 8 at level 7 and 1 at level 5.
        let levels = [8; 11].into_iter().chain([7; 8]).chain([5]);
        let manifest = ProgramManifest {
            name: "lenet".into(),
            vec_size: 1024,
            degree: 1 << 15,
            data_primes: vec![0; 8],
            special_prime: 0,
            keys: KeyLevels {
                relin: Some(8),
                galois: (1..=20).zip(levels).collect(),
            },
            inputs: Vec::new(),
            outputs: Vec::new(),
        };
        let bounds = ClientFrameBounds::new(&manifest);
        assert_eq!(bounds.bound(TAG_EVAL_KEYS).0, 703_597_603);
        assert!(bounds.bound(TAG_EVAL_KEYS).0 > 1 << 28);
        assert!(bounds.bound(TAG_EVAL_KEYS).0 < MAX_FRAME_BYTES);
    }

    /// Serves `program` for one session and runs one round through a real
    /// client, returning the manifest, the server's bounds and what the
    /// client sent.
    fn real_session(
        program: &Program,
        options: &CompilerOptions,
    ) -> (ProgramManifest, ClientFrameBounds, Vec<u8>) {
        use crate::{EvaClient, EvaServer, RecordingStream};
        use std::net::{TcpListener, TcpStream};

        let server = EvaServer::new(compile(program, options).unwrap()).unwrap();
        let manifest = server.manifest().clone();
        let bounds = *server.frame_bounds();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
        let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
        let mut client = EvaClient::handshake(stream, Some(1)).unwrap();
        let inputs = client
            .manifest()
            .inputs
            .iter()
            .map(|input| (input.name.clone(), vec![0.5; program.vec_size()]))
            .collect();
        client.evaluate(&inputs).unwrap();
        let (_, sent, _) = client.finish().unwrap().into_parts();
        thread.join().unwrap().unwrap()[0].as_ref().unwrap();
        (manifest, bounds, sent)
    }

    #[test]
    fn a_real_key_upload_is_exactly_its_bound() {
        let tagged = |sent: &[u8], tag| bytes_with_tag(sent, tag).unwrap();
        // Distinct steps: one Galois key per step.
        let (_, bounds, sent) = real_session(&fixture_program(), &CompilerOptions::default());
        assert_eq!(tagged(&sent, TAG_EVAL_KEYS), bounds.bound(TAG_EVAL_KEYS).0);
        assert!(tagged(&sent, TAG_INPUTS) <= bounds.bound(TAG_INPUTS).0);

        // Aliasing steps: congruent modulo every slot count, so the two
        // steps share one key, listed once.
        let mut p = Program::new("aliasing", 8);
        let x = p.input_cipher("x", 30);
        let a = p.instruction(Opcode::RotateLeft(1), &[x]);
        let b = p.instruction(Opcode::RotateLeft(1 + (1 << 17)), &[x]);
        let sum = p.instruction(Opcode::Add, &[a, b]);
        p.output("out", sum, 30);
        let (manifest, bounds, sent) = real_session(&p, &CompilerOptions::unoptimized());
        assert_eq!(manifest.keys.galois.len(), 1);
        assert_eq!(manifest.keys.galois[0].0, 1);
        assert_eq!(tagged(&sent, TAG_EVAL_KEYS), bounds.bound(TAG_EVAL_KEYS).0);
    }

    #[test]
    fn full_ciphertext_inputs_are_exactly_their_bound() {
        use eva_ckks::{CkksEncoder, KeyGenerator, SymmetricEncryptor};

        let compiled = compiled_fixture();
        let manifest = ProgramManifest::from_compiled(&compiled).unwrap();
        let server = crate::EvaServer::new(compiled).unwrap();
        let context = server.context().clone();
        let keygen = KeyGenerator::from_seed(context.clone(), 2);
        let mut encryptor =
            SymmetricEncryptor::from_seed(context.clone(), keygen.secret_key().clone(), 3);
        let encoder = CkksEncoder::new(context.clone());
        let inputs = manifest
            .inputs
            .iter()
            .map(|input| {
                let values = vec![0.5; manifest.vec_size];
                let value = if input.cipher {
                    let pt = encoder.encode(&values, input.scale_log2, context.max_level());
                    ValuePayload::Cipher(Box::new(encryptor.encrypt(&pt)))
                } else {
                    ValuePayload::Plain(values)
                };
                (input.name.clone(), value)
            })
            .collect();
        let (tag, payload) = encode_payload(&Message::Inputs(inputs));
        assert_eq!(payload.len() as u64, server.frame_bounds().bound(tag).0);
    }
}
