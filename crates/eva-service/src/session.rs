//! The frame-driven session core the reactor runs per connection: a chunked
//! [`FrameAssembler`] that turns arbitrary byte slices into protocol frames,
//! and a [`SessionMachine`] that advances one session per completed frame.
//!
//! The state machine is the protocol of `docs/PROTOCOL.md` as explicit
//! steps — Hello → Manifest, EvalKeys (unless resumed), then Inputs/Outputs
//! rounds until Bye — with the message ordering, validation and error
//! strings the `limits`/`persistence`/`chaos` suites pin. An `Inputs` frame
//! does not evaluate inline: it yields an evaluation closure for the shared
//! scheduler, and the session resumes when the job's completion comes back.

use std::collections::VecDeque;
use std::sync::Arc;

use eva_backend::{execute_parallel, EvaluationContext};
use eva_wire::{EvalKeyPayloadHasher, KeyFingerprint};

use crate::error::ServiceError;
use crate::protocol::{
    decode_payload, encode_payload, message_name, Message, OutputValue, MAX_FRAME_BYTES,
    PROTOCOL_VERSION, TAG_EVAL_KEYS,
};
use crate::sched::EvalRun;
use crate::server::{EvaServer, SessionKeys, SessionReport};

/// Payload bytes are accumulated (and reserved) in steps of this size, so a
/// frame header announcing gigabytes costs at most one such step of memory
/// until the peer actually delivers the bytes.
pub(crate) const PAYLOAD_RESERVE_CHUNK: usize = 1 << 20;

/// One completed protocol frame.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The frame's tag byte.
    pub(crate) tag: u8,
    /// The frame's payload.
    pub(crate) payload: Vec<u8>,
    /// For [`TAG_EVAL_KEYS`] frames: the content fingerprint of the payload,
    /// computed incrementally while the chunks arrived (byte-identical to
    /// `fingerprint_eval_key_payload` over the whole payload).
    pub(crate) eval_key_fingerprint: Option<KeyFingerprint>,
}

/// Incremental frame parser: feed it received byte slices in any sizes and
/// it emits completed frames. Admission checks — the `MAX_FRAME_BYTES` cap
/// and the caller's per-tag bound — run against the **announced** header
/// before the first payload chunk is accepted, and payload memory grows in
/// [`PAYLOAD_RESERVE_CHUNK`] steps as bytes actually arrive, never as one
/// up-front allocation of the announced size.
#[derive(Debug, Default)]
pub(crate) struct FrameAssembler {
    header: [u8; 9],
    header_filled: usize,
    in_payload: bool,
    announced: u64,
    payload: Vec<u8>,
    hasher: Option<EvalKeyPayloadHasher>,
}

impl FrameAssembler {
    /// A fresh assembler, between frames.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether the assembler sits exactly between frames (no partial header
    /// or payload buffered) — an EOF here is a clean close, an EOF anywhere
    /// else is a mid-frame disconnect.
    pub(crate) fn is_idle(&self) -> bool {
        self.header_filled == 0 && !self.in_payload
    }

    /// Upper bound on bytes the current frame still needs — what a blocking
    /// reader may safely request without consuming bytes of the *next*
    /// frame. Never zero: between frames the next header needs 9 bytes.
    pub(crate) fn bytes_wanted(&self) -> u64 {
        if self.in_payload {
            self.announced - self.payload.len() as u64
        } else {
            (self.header.len() - self.header_filled) as u64
        }
    }

    /// Consumes `bytes`, appending completed frames to `out`. `admit` is
    /// called once per frame with the announced `(tag, len)` header.
    pub(crate) fn push(
        &mut self,
        mut bytes: &[u8],
        admit: &mut dyn FnMut(u8, u64) -> Result<(), ServiceError>,
        out: &mut VecDeque<Frame>,
    ) -> Result<(), ServiceError> {
        while !bytes.is_empty() {
            if !self.in_payload {
                let take = bytes.len().min(self.header.len() - self.header_filled);
                self.header[self.header_filled..self.header_filled + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_filled += take;
                bytes = &bytes[take..];
                if self.header_filled < self.header.len() {
                    return Ok(());
                }
                let tag = self.header[0];
                let len = u64::from_le_bytes(self.header[1..9].try_into().expect("8 length bytes"));
                if len > MAX_FRAME_BYTES {
                    return Err(ServiceError::Protocol(format!(
                        "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                    )));
                }
                admit(tag, len)?;
                self.in_payload = true;
                self.announced = len;
                self.payload = Vec::new();
                self.hasher = (tag == TAG_EVAL_KEYS).then(EvalKeyPayloadHasher::new);
            }
            let remaining = self.announced - self.payload.len() as u64;
            let take = (bytes.len() as u64).min(remaining) as usize;
            if take > 0 {
                let chunk = &bytes[..take];
                bytes = &bytes[take..];
                // Grow in bounded steps toward the announced size; a lying
                // header cannot reserve more than one step ahead of the
                // bytes that actually arrived.
                let needed = self.payload.len() + take;
                if self.payload.capacity() < needed {
                    let target = needed.max(
                        (self.payload.len() + PAYLOAD_RESERVE_CHUNK).min(self.announced as usize),
                    );
                    self.payload.reserve_exact(target - self.payload.len());
                }
                self.payload.extend_from_slice(chunk);
                if let Some(hasher) = &mut self.hasher {
                    hasher.update(chunk);
                }
            }
            if self.payload.len() as u64 == self.announced {
                out.push_back(Frame {
                    tag: self.header[0],
                    payload: std::mem::take(&mut self.payload),
                    eval_key_fingerprint: self.hasher.take().map(EvalKeyPayloadHasher::finalize),
                });
                self.header_filled = 0;
                self.in_payload = false;
            }
        }
        Ok(())
    }
}

/// What one protocol step asks the transport to do next.
pub(crate) enum Step {
    /// Nothing to send; keep reading frames.
    Continue,
    /// Queue these encoded frames for the peer, then keep reading.
    Reply(Vec<(u8, Vec<u8>)>),
    /// Submit this evaluation (it runs on a scheduler worker) and **pause
    /// reading** until its completion comes back (one in-flight evaluation
    /// per session).
    Evaluate(EvalRun),
    /// The session ended cleanly (Bye, or EOF between rounds).
    Close(SessionReport),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    AwaitEvalKeys,
    AwaitInputs,
    Evaluating,
    Done,
}

/// The per-connection protocol state machine.
#[derive(Debug)]
pub(crate) struct SessionMachine {
    server: EvaServer,
    report: SessionReport,
    phase: Phase,
    eval: Option<Arc<EvaluationContext>>,
}

impl SessionMachine {
    /// A fresh machine awaiting the client's Hello.
    pub(crate) fn new(server: EvaServer) -> Self {
        Self {
            server,
            report: SessionReport::default(),
            phase: Phase::AwaitHello,
            eval: None,
        }
    }

    /// Admission check for one announced frame header (threaded into the
    /// [`FrameAssembler`] by the transport): the payload may not exceed what
    /// a conforming client of the server's program sends under that tag.
    /// The refusal is a `quota:` protocol error, which stays retryable: a
    /// length header corrupted in transit is refused the same way.
    pub(crate) fn admit(&self, tag: u8, len: u64) -> Result<(), ServiceError> {
        let (bound, what) = self.server.frame_bounds().bound(tag);
        if len > bound {
            return Err(ServiceError::Protocol(format!(
                "quota: {what} frame of {len} bytes exceeds the {bound}-byte {what} \
                 bound of this program"
            )));
        }
        Ok(())
    }

    /// Advances the protocol by one completed frame.
    pub(crate) fn on_frame(&mut self, frame: Frame) -> Result<Step, ServiceError> {
        match self.phase {
            Phase::AwaitHello => self.on_hello(frame),
            Phase::AwaitEvalKeys => self.on_eval_keys(frame),
            Phase::AwaitInputs => self.on_inputs(frame),
            Phase::Evaluating | Phase::Done => Err(ServiceError::Protocol(format!(
                "unexpected frame (tag {}) while no message was awaited",
                frame.tag
            ))),
        }
    }

    /// Handles end-of-stream from the peer: a clean close between rounds,
    /// a mid-handshake disconnect anywhere else.
    pub(crate) fn on_eof(&mut self) -> Result<Step, ServiceError> {
        match self.phase {
            Phase::AwaitInputs => {
                self.phase = Phase::Done;
                Ok(Step::Close(self.report.clone()))
            }
            _ => Err(ServiceError::Disconnected),
        }
    }

    /// Resumes the session with the outcome of its in-flight evaluation.
    pub(crate) fn on_job_done(
        &mut self,
        outcome: Result<Vec<(String, OutputValue)>, ServiceError>,
    ) -> Result<Step, ServiceError> {
        debug_assert_eq!(self.phase, Phase::Evaluating);
        let outputs = outcome?;
        self.report.evaluations += 1;
        self.phase = Phase::AwaitInputs;
        Ok(Step::Reply(vec![encode_payload(&Message::Outputs(
            outputs,
        ))]))
    }

    fn on_hello(&mut self, frame: Frame) -> Result<Step, ServiceError> {
        let resume = match decode_payload(frame.tag, &frame.payload)? {
            Message::Hello { protocol, resume } if protocol == PROTOCOL_VERSION => resume,
            Message::Hello { protocol, .. } => {
                return Err(ServiceError::Protocol(format!(
                    "client speaks protocol {protocol}, server speaks {PROTOCOL_VERSION}"
                )))
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected Hello, got {}",
                    message_name(&other)
                )))
            }
        };
        let cached = resume.and_then(|fingerprint| {
            self.server
                .lookup_keys(&fingerprint)
                .map(|keys| (fingerprint, keys))
        });
        let manifest = Message::Manifest {
            manifest: Box::new(self.server.manifest().clone()),
            keys_cached: cached.is_some(),
        };
        match cached {
            Some((fingerprint, keys)) => {
                self.report.resumed = true;
                self.use_keys(fingerprint, keys);
            }
            None => self.phase = Phase::AwaitEvalKeys,
        }
        Ok(Step::Reply(vec![encode_payload(&manifest)]))
    }

    fn on_eval_keys(&mut self, frame: Frame) -> Result<Step, ServiceError> {
        if frame.tag != TAG_EVAL_KEYS {
            let message = decode_payload(frame.tag, &frame.payload)?;
            return Err(ServiceError::Protocol(format!(
                "expected EvalKeys, got {}",
                message_name(&message)
            )));
        }
        let fingerprint = frame
            .eval_key_fingerprint
            .expect("assembler fingerprints every EvalKeys frame");
        let keys = self.server.accept_key_upload(&frame.payload, fingerprint)?;
        self.use_keys(fingerprint, keys);
        Ok(Step::Continue)
    }

    /// Binds the session to its evaluation keys; input rounds may follow.
    fn use_keys(&mut self, fingerprint: KeyFingerprint, keys: SessionKeys) {
        self.report.key_fingerprint = Some(fingerprint);
        let context = self.server.context().clone();
        let eval = EvaluationContext::from_shared(context, keys.relin, keys.galois);
        self.eval = Some(Arc::new(eval));
        self.phase = Phase::AwaitInputs;
    }

    fn on_inputs(&mut self, frame: Frame) -> Result<Step, ServiceError> {
        let inputs = match decode_payload(frame.tag, &frame.payload)? {
            Message::Inputs(inputs) => inputs,
            Message::Bye => {
                self.phase = Phase::Done;
                return Ok(Step::Close(self.report.clone()));
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected Inputs or Bye, got {}",
                    message_name(&other)
                )))
            }
        };
        let eval = Arc::clone(self.eval.as_ref().expect("keys precede inputs"));
        let bindings = eval.bind_inputs(self.server.compiled(), inputs)?;
        let server = self.server.clone();
        let threads = self.server.executor_threads();
        self.phase = Phase::Evaluating;
        Ok(Step::Evaluate(Box::new(move || {
            let values = execute_parallel(&eval, server.compiled(), bindings, threads)?;
            let outputs = EvaluationContext::named_outputs(server.compiled(), &values)?
                .into_iter()
                .map(|(name, value)| (name, OutputValue::from(value)))
                .collect();
            Ok(outputs)
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_wire::fingerprint_eval_key_payload;

    fn frame_bytes(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn push_all(asm: &mut FrameAssembler, bytes: &[u8]) -> Result<VecDeque<Frame>, ServiceError> {
        let mut out = VecDeque::new();
        asm.push(bytes, &mut |_, _| Ok(()), &mut out)?;
        Ok(out)
    }

    #[test]
    fn frames_assemble_across_arbitrary_chunk_boundaries() {
        let mut wire = frame_bytes(4, b"hello");
        wire.extend_from_slice(&frame_bytes(7, b""));
        wire.extend_from_slice(&frame_bytes(3, &[9u8; 100]));
        // Feed the whole stream one byte at a time: every boundary is hit.
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for byte in &wire {
            frames.extend(push_all(&mut asm, std::slice::from_ref(byte)).unwrap());
        }
        assert!(asm.is_idle());
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].tag, 4);
        assert_eq!(frames[0].payload, b"hello");
        assert!(frames[0].eval_key_fingerprint.is_none());
        assert_eq!(frames[1].tag, 7);
        assert!(frames[1].payload.is_empty());
        assert_eq!(frames[2].payload, vec![9u8; 100]);
    }

    #[test]
    fn eval_key_frames_are_fingerprinted_streaming() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let wire = frame_bytes(TAG_EVAL_KEYS, &payload);
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        // Uneven chunk sizes so hash updates never align with the payload.
        for chunk in wire.chunks(977) {
            frames.extend(push_all(&mut asm, chunk).unwrap());
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(
            frames[0].eval_key_fingerprint.unwrap(),
            fingerprint_eval_key_payload(&payload),
            "the chunked digest must equal the one-shot digest"
        );
    }

    #[test]
    fn oversized_headers_are_refused_before_any_payload() {
        let mut asm = FrameAssembler::new();
        let mut wire = vec![1u8];
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let err = push_all(&mut asm, &wire).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("exceeds"), "{rendered}");
        assert!(
            rendered.contains(&MAX_FRAME_BYTES.to_string()),
            "{rendered}"
        );
    }

    #[test]
    fn admission_runs_on_the_announced_header_not_the_received_bytes() {
        let mut asm = FrameAssembler::new();
        let mut out = VecDeque::new();
        // Header announces 1 MB but not a single payload byte follows.
        let mut wire = vec![3u8];
        wire.extend_from_slice(&1_000_000u64.to_le_bytes());
        let mut seen = None;
        asm.push(
            &wire,
            &mut |tag, len| {
                seen = Some((tag, len));
                Err(ServiceError::Protocol("quota: refused".into()))
            },
            &mut out,
        )
        .unwrap_err();
        assert_eq!(seen, Some((3u8, 1_000_000u64)));
        assert!(out.is_empty());
    }

    #[test]
    fn a_lying_header_reserves_at_most_one_chunk_ahead() {
        let mut asm = FrameAssembler::new();
        let mut wire = vec![4u8];
        wire.extend_from_slice(&(MAX_FRAME_BYTES).to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        let _ = push_all(&mut asm, &wire).unwrap();
        assert!(!asm.is_idle());
        assert!(
            asm.payload.capacity() <= PAYLOAD_RESERVE_CHUNK,
            "announced {MAX_FRAME_BYTES} bytes but only 64 arrived; capacity {} exceeds one \
             reserve step",
            asm.payload.capacity()
        );
    }

    #[test]
    fn bytes_wanted_never_crosses_a_frame_boundary() {
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.bytes_wanted(), 9);
        let wire = frame_bytes(4, b"abcdef");
        let _ = push_all(&mut asm, &wire[..3]).unwrap();
        assert_eq!(asm.bytes_wanted(), 6, "remaining header bytes");
        let _ = push_all(&mut asm, &wire[3..11]).unwrap();
        assert_eq!(asm.bytes_wanted(), 4, "remaining payload bytes");
        let frames = push_all(&mut asm, &wire[11..]).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(asm.bytes_wanted(), 9, "back to awaiting a header");
    }
}
