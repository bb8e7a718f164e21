//! The deployment server: loads one compiled EVA program and evaluates it
//! over ciphertexts for connecting clients.
//!
//! The server is the **untrusted** party of the paper's deployment split: it
//! holds the compiled circuit, the CKKS context derived from the compiler's
//! parameter spec, and — per session — the evaluation keys a client
//! uploaded. It never sees a secret key or a plaintext of any `Cipher`
//! input; it binds the inputs through the one gate the in-process run also
//! passes (`EvaluationContext::bind_inputs`), executes the circuit with the
//! shared parallel executor and returns the still-encrypted outputs.
//!
//! Evaluation keys are additionally kept in a bounded LRU **key cache**
//! addressed by their content fingerprint (`eva_wire::fingerprint`): a
//! client reconnecting with the same keys names the fingerprint in its Hello
//! and skips the multi-megabyte upload entirely (session resumption). Cached
//! entries are shared across sessions behind `Arc`s, so a resumed session
//! costs neither the transfer nor a copy of the keys.
//!
//! A server is configured once, at construction: [`EvaServer::with_config`]
//! takes a [`ServerConfig`] ([`EvaServer::new`] takes the default), runs the
//! load gate on the untrusted program, and keeps both for its lifetime; the
//! only other knob is [`EvaServer::with_threads`]. The rest is derived from
//! the program: the worker cap from its peak-memory forecast, and each
//! client frame's size bound from what its own client sends.
//!
//! Serving state — the open connections, the session limit, shutdown's
//! wake-up and the drain — belongs to the reactor a serve call runs
//! (`reactor.rs`). The server keeps what outlives a call: the program, the
//! key cache, the lifetime counters and the shutdown flag.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eva_backend::parameters_from_spec;
use eva_ckks::{CkksContext, GaloisKeys, RelinearizationKey};
use eva_core::analysis::noise::{check_noise, NoiseModel};
use eva_core::analysis::verifier::{verify_compiled, VerifierReport};
use eva_core::serialize::compiled_from_bytes;
use eva_core::{predict_peak_memory, CompiledProgram};
use eva_wire::{fingerprint_eval_key_payload, KeyFingerprint};

use crate::error::{Finding, ProgramDiagnostics, ServiceError};
use crate::keystore::DiskKeyStore;
use crate::limits::ServerConfig;
use crate::protocol::{
    decode_payload, ClientFrameBounds, Message, ProgramManifest, MAX_FRAME_BYTES, TAG_EVAL_KEYS,
};
use crate::sched::{eval_slots, SchedGauges};

/// Converts a verifier report into the findings a refused load carries:
/// error-severity findings only, each with its stable check name and node.
fn diagnostics_payload(program: &str, report: &VerifierReport) -> ProgramDiagnostics {
    ProgramDiagnostics {
        program: program.to_string(),
        diagnostics: report
            .errors()
            .map(|d| Finding {
                check: d.check.name().to_string(),
                node: d.node,
                message: d.message.clone(),
            })
            .collect(),
    }
}

/// A load refusal with one finding from a gate the verifier does not run
/// (`noise-budget`, `peak-memory`).
fn refusal(program: &str, check: &str, node: Option<usize>, message: String) -> ServiceError {
    ServiceError::InvalidProgram(ProgramDiagnostics {
        program: program.to_string(),
        diagnostics: vec![Finding {
            check: check.to_string(),
            node,
            message,
        }],
    })
}

/// The load gate for an untrusted program: the full static verifier, then
/// the worst-case noise gate, then the peak-memory forecast, then the
/// budget, then the size of the key upload — refusing on the first finding,
/// before any FHE state exists. Returns how many evaluations the budget
/// admits at once ([`eval_slots`]) and the program's manifest.
fn admit_program(
    compiled: &CompiledProgram,
    budget: Option<u64>,
) -> Result<(usize, ProgramManifest), ServiceError> {
    let program = compiled.name();
    let report = verify_compiled(compiled);
    if !report.is_clean() {
        return Err(ServiceError::InvalidProgram(diagnostics_payload(
            program, &report,
        )));
    }
    check_noise(compiled, &NoiseModel::default())
        .map_err(|e| refusal(program, "noise-budget", None, e.to_string()))?;
    let forecast = predict_peak_memory(compiled)
        .map_err(|e| refusal(program, "peak-memory", None, e.to_string()))?;
    if let Some(budget) = budget {
        // Live values plus one session's resident evaluation keys.
        if (forecast.peak_bytes + forecast.key_bytes) as u64 > budget {
            return Err(refusal(
                program,
                "peak-memory",
                forecast.at_node,
                format!(
                    "predicted peak of {} simultaneously-live bytes \
                     ({} ciphertexts) plus {} bytes of evaluation keys \
                     exceeds the admission budget of {budget} bytes",
                    forecast.peak_bytes, forecast.peak_live_ciphertexts, forecast.key_bytes
                ),
            ));
        }
    }
    // The keys travel as one frame, and no frame may exceed the cap: such a
    // program could be loaded but never evaluated.
    let manifest = ProgramManifest::from_compiled(compiled)?;
    let (key_frame, _) = ClientFrameBounds::new(&manifest).bound(TAG_EVAL_KEYS);
    if key_frame > MAX_FRAME_BYTES {
        return Err(refusal(
            program,
            "key-frame",
            None,
            format!(
                "its evaluation keys are a {key_frame}-byte frame, above the \
                 {MAX_FRAME_BYTES}-byte limit on any frame, so no client could upload them"
            ),
        ));
    }
    Ok((eval_slots(budget, forecast.peak_bytes as u64), manifest))
}

/// Statistics for one completed session.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Number of evaluation rounds served.
    pub evaluations: usize,
    /// Whether the session resumed cached evaluation keys (no key upload).
    pub resumed: bool,
    /// Content fingerprint of the session's evaluation keys (server-computed
    /// on upload, cache-resolved on resumption).
    pub key_fingerprint: Option<KeyFingerprint>,
}

/// One client's evaluation keys as held by the server, shared across
/// sessions through the key cache.
#[derive(Debug, Clone)]
pub(crate) struct SessionKeys {
    pub(crate) relin: Option<Arc<RelinearizationKey>>,
    pub(crate) galois: Arc<GaloisKeys>,
}

impl SessionKeys {
    /// Bytes the keys hold in memory — what a cache entry pins. The stored
    /// key is the evaluated key, so this is the upload's size plus the
    /// Galois gather tables (about 1 % on top).
    fn resident_bytes(&self) -> usize {
        self.relin.as_ref().map_or(0, |k| k.resident_bytes()) + self.galois.resident_bytes()
    }
}

#[derive(Debug)]
struct CacheEntry {
    stamp: u64,
    /// [`SessionKeys::resident_bytes`] of the cached keys.
    bytes: usize,
    keys: SessionKeys,
}

/// A bounded least-recently-used map from evaluation-key fingerprints to the
/// keys themselves, limited both by **entry count** and by a **byte budget**
/// — key sets are tens of megabytes each, and the protocol has no
/// authentication, so an unauthenticated peer must not be able to pin
/// unbounded server memory by uploading distinct valid key sets. Eviction
/// scans for the oldest stamp — O(capacity), negligible next to the
/// megabytes each entry saves in transfer.
#[derive(Debug)]
struct KeyCache {
    capacity: usize,
    max_bytes: usize,
    bytes: usize,
    clock: u64,
    entries: HashMap<[u8; 32], CacheEntry>,
}

impl KeyCache {
    fn new(capacity: usize, max_bytes: usize) -> Self {
        Self {
            capacity,
            max_bytes,
            bytes: 0,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, fingerprint: &KeyFingerprint) -> Option<SessionKeys> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(fingerprint.as_bytes()).map(|entry| {
            entry.stamp = clock;
            entry.keys.clone()
        })
    }

    fn insert(&mut self, fingerprint: KeyFingerprint, keys: SessionKeys) {
        let bytes = keys.resident_bytes();
        if bytes > self.max_bytes {
            return;
        }
        self.clock += 1;
        if let Some(old) = self.entries.remove(fingerprint.as_bytes()) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.entries.insert(
            *fingerprint.as_bytes(),
            CacheEntry {
                stamp: self.clock,
                bytes,
                keys,
            },
        );
        // Evict least-recently-used entries until both bounds hold. The new
        // entry carries the newest stamp, so older entries go first and the
        // insert survives unless the capacity is zero.
        while self.entries.len() > self.capacity || self.bytes > self.max_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let evicted = self.entries.remove(&oldest).expect("key from iteration");
            self.bytes -= evicted.bytes;
        }
    }
}

/// A server for one compiled EVA program.
///
/// The CKKS context (NTT tables, CRT composers) is built once from the
/// compiler's actual primes and shared across sessions; each session carries
/// only its client's evaluation keys, so concurrent sessions from different
/// clients — with different keys — are isolated from each other.
#[derive(Debug, Clone)]
pub struct EvaServer {
    inner: Arc<ServerInner>,
    /// Worker threads the parallel executor uses per evaluation.
    threads: usize,
}

#[derive(Debug)]
struct ServerInner {
    compiled: CompiledProgram,
    manifest: ProgramManifest,
    /// The largest payload a client may announce under each frame tag.
    frame_bounds: ClientFrameBounds,
    context: CkksContext,
    key_cache: Mutex<KeyCache>,
    /// Optional disk layer under the in-memory cache
    /// ([`ServerConfig::key_store`]).
    key_store: Option<DiskKeyStore>,
    config: ServerConfig,
    /// How many evaluations the memory budget admits at once, computed by
    /// the load gate; the scheduler runs at most this many workers.
    eval_slots: usize,
    stats: StatCounters,
    shutting_down: AtomicBool,
    /// The write end of the serving reactor's wake pipe, published for the
    /// length of its run, so [`EvaServer::begin_shutdown`] can wake it.
    wake: Mutex<Option<UnixStream>>,
    /// Live scheduler gauges (queue depth, jobs in flight), shared with
    /// whichever reactor run is currently serving.
    gauges: Arc<SchedGauges>,
}

/// Internal atomic counters behind [`ServerStats`].
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub(crate) started: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) panicked: AtomicU64,
    pub(crate) busy_rejected: AtomicU64,
    pub(crate) resumed: AtomicU64,
    pub(crate) disk_resumed: AtomicU64,
    pub(crate) evaluations: AtomicU64,
}

/// A point-in-time snapshot of the server's lifetime counters
/// ([`EvaServer::stats`]). Sessions are counted when they *end*, so
/// `sessions_started` can exceed the sum of the outcome counters while
/// sessions are in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions accepted and admitted (not counting busy rejections).
    pub sessions_started: u64,
    /// Sessions that ended cleanly (client said Bye or hung up between
    /// rounds).
    pub sessions_completed: u64,
    /// Sessions that ended in an error (protocol violation, deadline, frame bound,
    /// invalid keys, …). Panics are counted separately.
    pub sessions_failed: u64,
    /// Sessions whose worker **panicked**; the panic is caught, logged with
    /// the session id, and answered with a best-effort `Error` frame.
    pub session_panics: u64,
    /// Connections refused with a `busy:` error at the concurrency limit.
    pub busy_rejections: u64,
    /// Completed sessions that resumed cached evaluation keys.
    pub resumed_sessions: u64,
    /// Resumptions served from the **disk** store (a restart survivor, or an
    /// in-memory LRU eviction) rather than from memory.
    pub disk_resumptions: u64,
    /// Evaluation rounds served across all completed sessions.
    pub evaluations: u64,
    /// Evaluation jobs currently queued (admitted sessions whose `Inputs`
    /// round is waiting for a scheduler worker). Zero outside a reactor run.
    pub queue_depth: u64,
    /// Evaluation jobs currently executing on scheduler workers. Zero
    /// outside a reactor run.
    pub jobs_inflight: u64,
}

/// Number of distinct evaluation-key sets the server caches for session
/// resumption.
pub const KEY_CACHE_CAPACITY: usize = 32;

/// Byte budget of the evaluation-key cache (1 GiB). Key sets are tens of
/// megabytes each and the socket is unauthenticated, so the cache is
/// bounded in bytes as well as entries.
pub const KEY_CACHE_BUDGET_BYTES: usize = 1 << 30;

impl EvaServer {
    /// [`with_config`](Self::with_config) under [`ServerConfig::default`].
    ///
    /// # Errors
    ///
    /// As [`with_config`](Self::with_config).
    ///
    /// # Example
    ///
    /// ```no_run
    /// use eva_core::{compile, CompilerOptions, Opcode, Program};
    /// use eva_service::EvaServer;
    ///
    /// let mut p = Program::new("square", 8);
    /// let x = p.input_cipher("x", 30);
    /// let sq = p.instruction(Opcode::Multiply, &[x, x]);
    /// p.output("out", sq, 30);
    /// let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    ///
    /// let server = EvaServer::new(compiled).unwrap().with_threads(4);
    /// let listener = std::net::TcpListener::bind("127.0.0.1:7700").unwrap();
    /// server.serve_forever(&listener).unwrap();
    /// ```
    pub fn new(compiled: CompiledProgram) -> Result<Self, ServiceError> {
        Self::with_config(compiled, ServerConfig::default())
    }

    /// Builds a server around a compiled program under `config`,
    /// instantiating the CKKS context from the compiler's parameter spec
    /// (the actual primes, so the compiler's exact-scale annotations hold
    /// bit-for-bit at run time).
    ///
    /// The program is treated as **untrusted**: the full static verifier
    /// (`eva_core::analysis::verifier`), the worst-case noise gate and the
    /// peak-memory admission check against
    /// [`ServerConfig::memory_budget`] run first, and any finding refuses
    /// the program with [`ServiceError::InvalidProgram`] before any FHE
    /// state exists — a malformed `.evaprog` can never panic the server or
    /// reach a session.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidProgram`] if verification, the noise
    /// gate, the memory budget or the key-frame bound (the exact size of its
    /// evaluation keys' upload against [`MAX_FRAME_BYTES`]) refuses the
    /// program — the verifier's
    /// `parameters` check is the validator the context is built with, so a
    /// bad prime chain is refused here too —
    /// [`ServiceError::InvalidParameters`] if a verified spec still cannot be
    /// instantiated, and [`ServiceError::Io`] if the
    /// [`ServerConfig::key_store`] directory cannot be created.
    pub fn with_config(
        compiled: CompiledProgram,
        config: ServerConfig,
    ) -> Result<Self, ServiceError> {
        let (eval_slots, manifest) = admit_program(&compiled, config.memory_budget)?;
        let params = parameters_from_spec(&compiled.parameters)
            .map_err(|e| ServiceError::InvalidParameters(e.to_string()))?;
        let context =
            CkksContext::new(params).map_err(|e| ServiceError::InvalidParameters(e.to_string()))?;
        let key_store = config
            .key_store
            .as_ref()
            .map(DiskKeyStore::open)
            .transpose()?;
        Ok(Self {
            inner: Arc::new(ServerInner {
                compiled,
                frame_bounds: ClientFrameBounds::new(&manifest),
                manifest,
                context,
                key_cache: Mutex::new(KeyCache::new(KEY_CACHE_CAPACITY, KEY_CACHE_BUDGET_BYTES)),
                key_store,
                config,
                eval_slots,
                stats: StatCounters::default(),
                shutting_down: AtomicBool::new(false),
                wake: Mutex::new(None),
                gauges: Arc::new(SchedGauges::default()),
            }),
            threads: 1,
        })
    }

    /// Loads a `.evaprog` compiled-program bundle from disk (the artifact
    /// `eva_core::serialize::compiled_to_bytes` writes).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on I/O, deserialization or parameter errors,
    /// and [`ServiceError::InvalidProgram`] if the bundle decodes but fails
    /// static verification (see [`EvaServer::new`]).
    pub fn from_program_file(path: impl AsRef<Path>) -> Result<Self, ServiceError> {
        let bytes = std::fs::read(path)?;
        let compiled = compiled_from_bytes(&bytes)?;
        Self::new(compiled)
    }

    /// Sets the number of executor worker threads used per evaluation.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The server's resource limits, as given at construction.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// The disk key store, if [`ServerConfig::key_store`] configured one.
    pub fn key_store(&self) -> Option<&DiskKeyStore> {
        self.inner.key_store.as_ref()
    }

    /// A point-in-time snapshot of the server's lifetime counters.
    pub fn stats(&self) -> ServerStats {
        let stats = &self.inner.stats;
        ServerStats {
            sessions_started: stats.started.load(Ordering::Relaxed),
            sessions_completed: stats.completed.load(Ordering::Relaxed),
            sessions_failed: stats.failed.load(Ordering::Relaxed),
            session_panics: stats.panicked.load(Ordering::Relaxed),
            busy_rejections: stats.busy_rejected.load(Ordering::Relaxed),
            resumed_sessions: stats.resumed.load(Ordering::Relaxed),
            disk_resumptions: stats.disk_resumed.load(Ordering::Relaxed),
            evaluations: stats.evaluations.load(Ordering::Relaxed),
            queue_depth: self.inner.gauges.queue_depth.load(Ordering::Relaxed),
            jobs_inflight: self.inner.gauges.jobs_inflight.load(Ordering::Relaxed),
        }
    }

    /// Flags the server as shutting down and wakes a
    /// [`EvaServer::serve_forever`] loop parked in its poller through the
    /// reactor's wake pipe, without waiting for in-flight sessions: the
    /// loop stops accepting, drains them and then returns.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        if let Some(mut wake) = self.inner.wake.lock().expect("wake lock poisoned").as_ref() {
            // Best effort: a full pipe already guarantees a pending wake.
            let _ = wake.write(&[1u8]);
        }
    }

    /// Whether [`EvaServer::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Publishes the running reactor's wake pipe for
    /// [`EvaServer::begin_shutdown`] (`None` once the run ends).
    pub(crate) fn publish_wake(&self, wake: Option<UnixStream>) {
        *self.inner.wake.lock().expect("wake lock poisoned") = wake;
    }

    /// The raw lifetime counters, for transports that account sessions
    /// themselves (the reactor counts admissions and outcomes directly).
    pub(crate) fn counters(&self) -> &StatCounters {
        &self.inner.stats
    }

    /// The scheduler gauges surfaced through [`ServerStats`].
    pub(crate) fn sched_gauges(&self) -> Arc<SchedGauges> {
        Arc::clone(&self.inner.gauges)
    }

    /// The server's CKKS context.
    pub(crate) fn context(&self) -> &CkksContext {
        &self.inner.context
    }

    /// Executor worker threads used per evaluation.
    pub(crate) fn executor_threads(&self) -> usize {
        self.threads
    }

    /// How many evaluations the memory budget admits at once (the
    /// scheduler's worker cap).
    pub(crate) fn eval_slots(&self) -> usize {
        self.inner.eval_slots
    }

    /// Number of evaluation-key sets currently cached for resumption.
    pub fn cached_key_sets(&self) -> usize {
        self.inner
            .key_cache
            .lock()
            .expect("key cache lock poisoned")
            .entries
            .len()
    }

    /// Total resident bytes of the evaluation-key sets currently cached:
    /// each upload's key rows plus its Galois gather tables.
    pub fn cached_key_bytes(&self) -> usize {
        self.inner
            .key_cache
            .lock()
            .expect("key cache lock poisoned")
            .bytes
    }

    /// The per-tag bounds on a client's frames, derived from the manifest.
    pub(crate) fn frame_bounds(&self) -> &ClientFrameBounds {
        &self.inner.frame_bounds
    }

    /// The manifest published to clients.
    pub fn manifest(&self) -> &ProgramManifest {
        &self.inner.manifest
    }

    /// The compiled program being served.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.inner.compiled
    }

    /// Accepts exactly `sessions` connections from `listener` and serves
    /// them **concurrently** on the event-driven reactor: one IO thread
    /// multiplexes every connection and a bounded worker pool runs the
    /// evaluations in submission order, as many at once as the peak-memory
    /// budget admits. Returns the per-session reports in accept order
    /// once every session has ended; per-session failures — including
    /// `busy:` rejections at the concurrency limit — are reported in the
    /// result slots rather than aborting the other sessions. The
    /// [`ServerConfig::max_sessions`] limit counts this call's sessions.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] if the listener or the reactor's poller
    /// fails.
    pub fn serve_sessions(
        &self,
        listener: &TcpListener,
        sessions: usize,
    ) -> Result<Vec<Result<SessionReport, ServiceError>>, ServiceError> {
        crate::reactor::Reactor::new(self.clone())?.serve_sessions(listener, sessions)
    }

    /// Serves connections until [`EvaServer::begin_shutdown`] is called,
    /// multiplexing every session on the event-driven reactor with
    /// evaluations on a bounded worker pool, and answering connections past
    /// [`ServerConfig::max_sessions`] (counted per call) with `busy:`
    /// rejections. On shutdown the accept loop stops and in-flight sessions
    /// are **drained** — evaluations run to completion — before this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when the listener or the reactor's
    /// poller fails.
    pub fn serve_forever(&self, listener: &TcpListener) -> Result<(), ServiceError> {
        crate::reactor::Reactor::new(self.clone())?.serve_forever(listener)
    }

    /// Accepts one uploaded evaluation-key payload: decodes it, validates
    /// the keys against the server context and manifest, caches them under
    /// `fingerprint` (streamed by the frame assembler over the payload **as
    /// received**; byte-identical to the one-shot digest of the payload)
    /// and persists them through the disk layer if one is configured.
    pub(crate) fn accept_key_upload(
        &self,
        payload: &[u8],
        fingerprint: KeyFingerprint,
    ) -> Result<SessionKeys, ServiceError> {
        debug_assert_eq!(
            fingerprint,
            fingerprint_eval_key_payload(payload),
            "transport-computed fingerprint must match the one-shot digest"
        );
        let keys = self.decode_keys(payload)?;
        self.inner
            .key_cache
            .lock()
            .expect("key cache lock poisoned")
            .insert(fingerprint, keys.clone());
        // Persist through to the disk layer (if configured) so the
        // resumption outlives this process. Persistence failure is an
        // operational warning, never a session error.
        if let Some(store) = self.key_store() {
            if let Err(err) = store.store(&fingerprint, payload) {
                eprintln!(
                    "eva-service: failed to persist evaluation keys to {}: {err}",
                    store.root().display()
                );
            }
        }
        Ok(keys)
    }

    /// Resolves a resumption fingerprint: the in-memory LRU first, then the
    /// disk store (if configured). A disk hit is **re-verified** end to end —
    /// the store checks the fingerprint over the bytes read back, and the
    /// decoded keys pass the same [`validate_eval_keys`](Self::validate_eval_keys)
    /// gate as a fresh upload — then promoted into the memory cache. An
    /// entry that decodes but fails validation (e.g. a store directory
    /// shared with a server of different parameters) is ignored without
    /// being evicted; corrupt bytes were already deleted by the store.
    pub(crate) fn lookup_keys(&self, fingerprint: &KeyFingerprint) -> Option<SessionKeys> {
        if let Some(keys) = self
            .inner
            .key_cache
            .lock()
            .expect("key cache lock poisoned")
            .get(fingerprint)
        {
            return Some(keys);
        }
        let payload = self.key_store()?.load(fingerprint)?;
        let keys = self.decode_keys(&payload).ok()?;
        self.inner
            .stats
            .disk_resumed
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .key_cache
            .lock()
            .expect("key cache lock poisoned")
            .insert(*fingerprint, keys.clone());
        Some(keys)
    }

    /// Decodes one `EvalKeys` payload and validates the keys, the one path
    /// both an upload and a disk-store entry take into a session.
    fn decode_keys(&self, payload: &[u8]) -> Result<SessionKeys, ServiceError> {
        let Message::EvalKeys { relin, galois } = decode_payload(TAG_EVAL_KEYS, payload)? else {
            unreachable!("an EvalKeys payload decodes to EvalKeys or fails");
        };
        self.validate_eval_keys(relin.as_deref(), &galois)?;
        Ok(SessionKeys {
            relin: relin.map(|key| Arc::new(*key)),
            galois: Arc::new(*galois),
        })
    }

    /// Validates uploaded evaluation keys against the server context and the
    /// published manifest before any of them touches the evaluator: exactly
    /// the keys the manifest lists, each at exactly its published level `ℓ`
    /// — `ℓ` digits over the rows `q_0 … q_{ℓ−1}, P`, every residue
    /// canonical.
    fn validate_eval_keys(
        &self,
        relin: Option<&RelinearizationKey>,
        galois: &GaloisKeys,
    ) -> Result<(), ServiceError> {
        let inner = &*self.inner;
        let degree = inner.context.degree();
        let moduli = inner.context.key_basis().moduli();
        let special = inner.context.special_index();
        let check_ksk = |what: &str, key: &eva_ckks::KeySwitchKey, level: usize| {
            if key.level() != level {
                return Err(ServiceError::InvalidParameters(format!(
                    "{what} is at level {} (its digit count), the manifest publishes level {level}",
                    key.level()
                )));
            }
            let rows = (0..level).chain([special]).map(|m| &moduli[m]);
            for (k0, k1) in key.digits() {
                for poly in [k0, k1] {
                    if poly.degree() != degree || poly.level() != level + 1 {
                        return Err(ServiceError::InvalidParameters(format!(
                            "{what} polynomial has shape ({}, {}), expected ({degree}, {})",
                            poly.degree(),
                            poly.level(),
                            level + 1
                        )));
                    }
                    // The evaluator sums digit × key products unreduced; that
                    // is exact only for canonical residues.
                    for (row, q) in poly.rows().zip(rows.clone()) {
                        if row.iter().any(|&k| k >= q.value()) {
                            return Err(ServiceError::InvalidParameters(format!(
                                "{what} holds a residue outside [0, {q})"
                            )));
                        }
                    }
                }
            }
            Ok(())
        };
        match (inner.manifest.keys.relin, relin) {
            (Some(level), Some(relin)) => {
                check_ksk("relinearization key", relin.key_switch_key(), level)?
            }
            (Some(_), None) => {
                return Err(ServiceError::InvalidParameters(
                    "the program relinearizes but no relinearization key was uploaded".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(ServiceError::InvalidParameters(
                    "the program does not relinearize but a relinearization key was uploaded"
                        .into(),
                ))
            }
            (None, None) => {}
        }
        let uploaded = galois.element_keys();
        let mut requested = Vec::new();
        for &(step, level) in &inner.manifest.keys.galois {
            let elt = inner.context.galois().galois_elt_from_step(step);
            if !uploaded.iter().any(|&(e, _)| e == elt) {
                return Err(ServiceError::InvalidParameters(format!(
                    "no Galois key for rotation step {step}"
                )));
            }
            requested.push((elt, step, level));
        }
        // Only the automorphisms the program rotates by: a key no step needs
        // would be cached, persisted and charged to the budget for nothing.
        for (elt, key) in uploaded {
            let Some(&(_, step, level)) = requested.iter().find(|&&(e, _, _)| e == elt) else {
                return Err(ServiceError::InvalidParameters(format!(
                    "Galois element {elt} is not requested by any rotation step of the program"
                )));
            };
            check_ksk(&format!("Galois key for rotation step {step}"), key, level)?;
        }
        Ok(())
    }
}

/// Best-effort rendering of a caught panic payload (panics carry `&str` or
/// `String` in practice; anything else is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys occupying exactly `bytes` (a multiple of 16) resident bytes: a
    /// relinearization key of one digit pair over a degree-1 ring.
    fn dummy_keys(bytes: usize) -> SessionKeys {
        use eva_poly::{PolyForm, RnsPoly};
        let poly = || RnsPoly::zero(1, bytes / 16, PolyForm::Ntt);
        let key = eva_ckks::KeySwitchKey::from_digits(vec![(poly(), poly())]);
        let keys = SessionKeys {
            relin: Some(Arc::new(RelinearizationKey::from_key_switch_key(key))),
            galois: Arc::new(GaloisKeys::default()),
        };
        assert_eq!(keys.resident_bytes(), bytes);
        keys
    }

    fn fp(byte: u8) -> KeyFingerprint {
        KeyFingerprint([byte; 32])
    }

    #[test]
    fn key_cache_evicts_least_recently_used_by_count() {
        let mut cache = KeyCache::new(2, usize::MAX);
        cache.insert(fp(1), dummy_keys(16));
        cache.insert(fp(2), dummy_keys(16));
        // Touch 1 so 2 becomes the oldest.
        assert!(cache.get(&fp(1)).is_some());
        cache.insert(fp(3), dummy_keys(16));
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.get(&fp(1)).is_some());
        assert!(cache.get(&fp(2)).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&fp(3)).is_some());
    }

    #[test]
    fn key_cache_enforces_the_byte_budget() {
        let mut cache = KeyCache::new(100, 80);
        cache.insert(fp(1), dummy_keys(32));
        cache.insert(fp(2), dummy_keys(32));
        assert_eq!(cache.bytes, 64);
        // 32 more bytes exceed the budget: the oldest entry goes.
        cache.insert(fp(3), dummy_keys(32));
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.bytes, 64);
        assert!(cache.get(&fp(1)).is_none());
        // An entry larger than the whole budget is not cached at all.
        cache.insert(fp(4), dummy_keys(1008));
        assert!(cache.get(&fp(4)).is_none());
        assert_eq!(cache.bytes, 64);
        // Re-inserting an existing fingerprint replaces, not duplicates.
        cache.insert(fp(2), dummy_keys(48));
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.bytes, 80);
    }

    /// A server for a program rotating by 1 and -2, and an `EvalKeys`
    /// payload carrying keys for `extra_steps` beside the program's.
    fn rotating_upload(extra_steps: &[i64]) -> (EvaServer, Vec<u8>) {
        use crate::protocol::{encode_payload, Message};
        use eva_ckks::KeyGenerator;
        use eva_core::{compile, CompilerOptions, Opcode, Program};

        let mut p = Program::new("rotsq", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let r = p.instruction(Opcode::RotateLeft(1), &[sq]);
        let l = p.instruction(Opcode::RotateRight(2), &[sq]);
        let sum = p.instruction(Opcode::Add, &[r, l]);
        p.output("out", sum, 30);
        let server = EvaServer::new(compile(&p, &CompilerOptions::default()).unwrap()).unwrap();

        let mut keygen = KeyGenerator::from_seed(server.inner.context.clone(), 1);
        let keys = &server.inner.manifest.keys;
        let mut galois = keys.galois.clone();
        galois.extend(extra_steps.iter().map(|&step| (step, keys.galois[0].1)));
        let (relin, galois) = keygen.create_evaluation_keys(keys.relin, &galois);
        let (_, payload) = encode_payload(&Message::EvalKeys {
            relin: relin.map(Box::new),
            galois: Box::new(galois),
        });
        (server, payload)
    }

    #[test]
    fn an_upload_is_charged_what_it_holds_resident() {
        let (server, payload) = rotating_upload(&[]);
        let keys = server
            .accept_key_upload(&payload, fingerprint_eval_key_payload(&payload))
            .unwrap();

        // One resident form: the cache charges the rows the upload carried
        // plus a gather table per Galois key, and nothing else exists.
        let charged = server.inner.key_cache.lock().unwrap().bytes;
        assert_eq!(charged, keys.resident_bytes());
        let tables = 2 * server.context().degree() * std::mem::size_of::<u32>();
        let framing = payload.len() - (charged - tables);
        assert!(framing < 1024, "{framing} bytes of wire framing");
    }

    #[test]
    fn a_galois_key_no_step_requests_is_refused_and_not_cached() {
        let (server, payload) = rotating_upload(&[3]);
        let err = server
            .accept_key_upload(&payload, fingerprint_eval_key_payload(&payload))
            .unwrap_err();
        assert!(
            matches!(&err, ServiceError::InvalidParameters(m) if m.contains("not requested")),
            "{err}"
        );
        assert_eq!(server.cached_key_sets(), 0);
    }

    #[test]
    fn a_key_one_level_off_its_manifest_level_is_refused() {
        use crate::protocol::{encode_payload, Message};
        use eva_ckks::KeyGenerator;
        use eva_core::{compile, CompilerOptions, Opcode, Program};

        // x⁴ rotated by one: the relinearization key is used at the top,
        // the Galois key two rescales below it.
        let mut p = Program::new("rot4", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let fourth = p.instruction(Opcode::Multiply, &[sq, sq]);
        let r = p.instruction(Opcode::RotateLeft(1), &[fourth]);
        p.output("out", r, 30);
        let server = EvaServer::new(compile(&p, &CompilerOptions::default()).unwrap()).unwrap();
        let keys = server.inner.manifest.keys.clone();
        let top = server.context().max_level();
        let (step, level) = keys.galois[0];
        assert!(level >= 2 && level < top, "{keys:?}");

        let cases = [
            (
                Some(top),
                level - 1,
                "Galois key for rotation step 1",
                level - 1,
                level,
            ),
            (
                Some(top),
                level + 1,
                "Galois key for rotation step 1",
                level + 1,
                level,
            ),
            (Some(top - 1), level, "relinearization key", top - 1, top),
        ];
        for (relin, galois, what, got, published) in cases {
            let mut keygen = KeyGenerator::from_seed(server.context().clone(), 1);
            let (relin, galois) = keygen.create_evaluation_keys(relin, &[(step, galois)]);
            let (_, payload) = encode_payload(&Message::EvalKeys {
                relin: relin.map(Box::new),
                galois: Box::new(galois),
            });
            let err = server
                .accept_key_upload(&payload, fingerprint_eval_key_payload(&payload))
                .unwrap_err();
            let want = format!(
                "{what} is at level {got} (its digit count), the manifest publishes level {published}"
            );
            assert!(
                matches!(&err, ServiceError::InvalidParameters(m) if m.contains(&want)),
                "{err}"
            );
        }
        assert_eq!(server.cached_key_sets(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = KeyCache::new(0, usize::MAX);
        cache.insert(fp(1), dummy_keys(16));
        assert_eq!(cache.entries.len(), 0);
        assert!(cache.get(&fp(1)).is_none());
    }

    #[test]
    fn over_budget_programs_are_refused_with_a_peak_memory_finding() {
        use eva_core::{compile, CompilerOptions, Opcode, Program};

        let mut p = Program::new("square", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();

        // The default budget admits this tiny program...
        assert!(EvaServer::new(compiled.clone()).is_ok());
        // ...an impossible budget refuses it, naming the check.
        let budget = |memory_budget| ServerConfig {
            memory_budget,
            ..ServerConfig::default()
        };
        let err = EvaServer::with_config(compiled.clone(), budget(Some(1))).unwrap_err();
        match err {
            ServiceError::InvalidProgram(payload) => {
                assert_eq!(payload.program, "square");
                assert_eq!(payload.diagnostics.len(), 1);
                let d = &payload.diagnostics[0];
                assert_eq!(d.check, "peak-memory");
                assert!(
                    d.message.contains("admission budget"),
                    "unexpected message: {}",
                    d.message
                );
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
        // `None` disables admission entirely.
        assert!(EvaServer::with_config(compiled, budget(None)).is_ok());
    }

    #[test]
    fn a_chain_short_of_a_prime_is_refused_at_load() {
        use eva_core::{compile, CompilerOptions, Opcode, Program};

        // x⁴: two multiplies, so the chain holds a prime per rescale.
        let mut p = Program::new("fourth", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        let fourth = p.instruction(Opcode::Multiply, &[sq, sq]);
        p.output("out", fourth, 30);
        let mut compiled = compile(&p, &CompilerOptions::default()).unwrap();
        // The rest of the chain is still valid primes, so the chain check
        // passes; the shorter chain shows up in the program's arithmetic.
        compiled.parameters.data_primes.pop();
        match EvaServer::new(compiled) {
            Err(ServiceError::InvalidProgram(payload)) => {
                assert!(!payload.diagnostics.is_empty());
                for d in &payload.diagnostics {
                    assert!(
                        ["exact-scales", "noise-budget"].contains(&d.check.as_str()),
                        "{}: {}",
                        d.check,
                        d.message
                    );
                }
            }
            Err(other) => panic!("expected InvalidProgram, got {other}"),
            Ok(_) => panic!("a chain short of a prime was accepted"),
        }
    }

    #[test]
    fn an_uncreatable_key_store_refuses_construction_with_an_io_error() {
        use eva_core::{compile, CompilerOptions, Opcode, Program};

        let mut p = Program::new("square", 8);
        let x = p.input_cipher("x", 30);
        let sq = p.instruction(Opcode::Multiply, &[x, x]);
        p.output("out", sq, 30);
        let compiled = compile(&p, &CompilerOptions::default()).unwrap();

        // A directory cannot be created under a regular file.
        let file = std::env::temp_dir().join(format!("eva-keystore-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let config = ServerConfig {
            key_store: Some(file.join("store")),
            ..ServerConfig::default()
        };
        let err = EvaServer::with_config(compiled, config).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(matches!(err, ServiceError::Io(_)), "got {err:?}");
    }
}
