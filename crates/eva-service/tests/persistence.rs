//! Tests for the disk-backed evaluation-key store layered under the
//! server's in-memory cache: warm resumption must survive a server restart
//! (zero key bytes re-uploaded), and a corrupt cache entry must be evicted
//! and fall back to a fresh upload — never trusted.

use std::collections::HashMap;
use std::fs;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use eva_ckks::{CkksContext, CkksParameters, KeyGenerator};
use eva_core::{compile, CompilerOptions, Opcode, Program};
use eva_service::protocol::{expect_message, write_message};
use eva_service::{
    bytes_with_tag, frame_index, EvaClient, EvaServer, Message, RecordingStream, ServerConfig,
    SessionTicket, PROTOCOL_VERSION, TAG_EVAL_KEYS,
};
use eva_wire::{fingerprint_eval_key_payload, Blake2b256, KeyFingerprint, WireObject, Writer};

/// Rotation + relinearization, so the key set is non-trivial: the square
/// is rotated again, so it is relinearized (an unrotated square would leave
/// unrelinearized and need a Galois key only).
fn rotating_program() -> Program {
    let mut p = Program::new("rotate-square", 16);
    let x = p.input_cipher("x", 30);
    let shifted = p.instruction(Opcode::RotateLeft(2), &[x]);
    let sum = p.instruction(Opcode::Add, &[x, shifted]);
    let sq = p.instruction(Opcode::Multiply, &[sum, sum]);
    let out = p.instruction(Opcode::RotateLeft(2), &[sq]);
    p.output("out", out, 30);
    p
}

fn rotating_inputs() -> HashMap<String, Vec<f64>> {
    [(
        "x".to_string(),
        (0..16).map(|i| (i as f64) / 16.0).collect::<Vec<_>>(),
    )]
    .into_iter()
    .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eva-persistence-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The default config with a disk key store rooted at `dir`.
fn store_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        key_store: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Tentpole: a cold session persists its keys to disk; after a full server
/// restart (fresh process state, same store directory) a resuming client
/// still gets a warm session — zero evaluation-key bytes on the wire, the
/// resumption served from disk, and bit-identical outputs.
#[test]
fn warm_resumption_survives_a_server_restart_via_the_disk_store() {
    let compiled = compile(&rotating_program(), &CompilerOptions::default()).unwrap();
    assert!(compiled.needs_relinearization());
    assert_eq!(compiled.rotation_steps, [2]);
    let inputs = rotating_inputs();
    let seed = 21u64;
    let dir = temp_dir("restart");

    // ---- Incarnation 1: cold session, keys written through to disk. ----
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::with_config(compiled.clone(), store_config(&dir)).unwrap();
    let stats_one = server.clone();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake_deterministic(stream, seed).unwrap();
    assert!(!client.resumed());
    let ticket = client.resumption_ticket().unwrap();
    let cold_outputs = client.evaluate(&inputs).unwrap();
    let stream = client.finish().unwrap();
    assert!(bytes_with_tag(stream.sent(), TAG_EVAL_KEYS).unwrap() > 100_000);
    thread.join().unwrap().unwrap();

    // The upload was persisted under its fingerprint, atomically.
    let store = stats_one.key_store().unwrap();
    assert_eq!(store.len(), 1);
    assert!(store.entry_path(&ticket.fingerprint).exists());
    assert_eq!(stats_one.stats().disk_resumptions, 0);

    // ---- Incarnation 2: a brand-new server over the same directory. ----
    // Its in-memory LRU starts empty; only the disk layer can warm it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::with_config(compiled, store_config(&dir)).unwrap();
    let stats_two = server.clone();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));

    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake_resuming_deterministic(stream, ticket).unwrap();
    assert!(client.resumed(), "restart must not forget cached keys");
    let warm_outputs = client.evaluate(&inputs).unwrap();
    let stream = client.finish().unwrap();

    // Zero evaluation-key bytes crossed the wire after the restart.
    let frames = frame_index(stream.sent()).unwrap();
    assert!(
        frames.iter().all(|&(tag, _)| tag != TAG_EVAL_KEYS),
        "post-restart session sent an EvalKeys frame: {frames:?}"
    );
    assert_eq!(bytes_with_tag(stream.sent(), TAG_EVAL_KEYS).unwrap(), 0);

    // Deterministic sessions are bit-identical, disk warm-up or not.
    for (name, cold) in &cold_outputs {
        for (a, b) in warm_outputs[name].iter().zip(cold) {
            assert_eq!(a.to_bits(), b.to_bits(), "output {name:?} deviates");
        }
    }

    // A second resumption on the *same* incarnation hits the in-memory
    // cache the disk load promoted into — the disk counter must not move.
    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let client = EvaClient::handshake_resuming_deterministic(stream, ticket).unwrap();
    assert!(client.resumed());
    client.finish().unwrap();
    thread.join().unwrap().unwrap();

    let stats = stats_two.stats();
    assert_eq!(stats.disk_resumptions, 1, "only the first lookup hits disk");
    assert_eq!(stats.resumed_sessions, 2);

    let _ = fs::remove_dir_all(&dir);
}

/// Tentpole: a corrupt on-disk entry fails fingerprint re-verification, is
/// evicted, and the session transparently falls back to a full upload —
/// which re-persists a good entry.
#[test]
fn corrupt_disk_entries_fall_back_to_upload_and_are_replaced() {
    let compiled = compile(&rotating_program(), &CompilerOptions::default()).unwrap();
    let inputs = rotating_inputs();
    let dir = temp_dir("corrupt");

    // Cold session to populate the store.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::with_config(compiled.clone(), store_config(&dir)).unwrap();
    let handle = server.clone();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let mut client = EvaClient::connect(addr, Some(33)).unwrap();
    let ticket = client.resumption_ticket().unwrap();
    client.evaluate(&inputs).unwrap();
    client.finish().unwrap();
    thread.join().unwrap().unwrap();

    // Bit-rot the stored entry between incarnations.
    let entry = handle.key_store().unwrap().entry_path(&ticket.fingerprint);
    let mut bytes = fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&entry, &bytes).unwrap();

    // Restart: the resuming handshake must NOT get the corrupt keys — the
    // server evicts the entry and asks for a fresh upload instead.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::with_config(compiled, store_config(&dir)).unwrap();
    let handle = server.clone();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake_resuming(stream, ticket).unwrap();
    assert!(!client.resumed(), "corrupt cache entries must not resume");
    let outputs = client.evaluate(&inputs).unwrap();
    assert!(outputs.contains_key("out"));
    let stream = client.finish().unwrap();
    assert!(
        bytes_with_tag(stream.sent(), TAG_EVAL_KEYS).unwrap() > 100_000,
        "the fallback session re-uploads its keys in full"
    );
    thread.join().unwrap().unwrap();

    let stats = handle.stats();
    assert_eq!(stats.disk_resumptions, 0);
    assert_eq!(stats.resumed_sessions, 0);
    // The fresh upload replaced the evicted entry with verified bytes.
    let store = handle.key_store().unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(
        store.load(&ticket.fingerprint).map(|p| p.len() > 100_000),
        Some(true)
    );

    let _ = fs::remove_dir_all(&dir);
}

/// A stored key set never passed the frame bound, so key validation is its
/// only gate: an entry carrying a Galois key no rotation step of the
/// program maps to is not served, and the resuming Hello gets
/// `keys_cached = false`.
#[test]
fn stored_keys_with_an_unrequested_galois_key_are_not_served() {
    let compiled = compile(&rotating_program(), &CompilerOptions::default()).unwrap();
    let dir = temp_dir("unrequested");
    let server = EvaServer::with_config(compiled, store_config(&dir)).unwrap();
    let handle = server.clone();

    // The program's keys plus one for a step it never rotates by, stored
    // under their own fingerprint as an upload would be.
    let manifest = server.manifest().clone();
    let params = CkksParameters::from_primes(
        manifest.degree,
        &manifest.data_primes,
        manifest.special_prime,
        true,
    )
    .unwrap();
    let mut galois = manifest.keys.galois.clone();
    galois.push((3, manifest.data_primes.len()));
    let (relin, galois) = KeyGenerator::from_seed(CkksContext::new(params).unwrap(), 5)
        .create_evaluation_keys(manifest.keys.relin, &galois);
    let mut frame = Vec::new();
    write_message(
        &mut frame,
        &Message::EvalKeys {
            relin: relin.map(Box::new),
            galois: Box::new(galois),
        },
    )
    .unwrap();
    let payload = &frame[9..];
    let fingerprint = fingerprint_eval_key_payload(payload);
    server
        .key_store()
        .unwrap()
        .store(&fingerprint, payload)
        .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let mut stream = TcpStream::connect(addr).unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            resume: Some(fingerprint),
        },
    )
    .unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Manifest { keys_cached, .. } => assert!(!keys_cached),
        other => panic!("expected Manifest, got {other:?}"),
    }
    drop(stream);
    thread.join().unwrap().unwrap();
    assert_eq!(handle.cached_key_sets(), 0);
    assert_eq!(handle.stats().disk_resumptions, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// An entry stored by a build that fingerprinted under the `-v2` domain
/// (its Galois keys in `EVAG` v1, behind a step table) names a fingerprint
/// nobody computes any more: its bytes no longer hash to its name, so the
/// first load deletes it and the resuming Hello gets `keys_cached = false`.
#[test]
fn an_entry_fingerprinted_under_the_v2_domain_is_deleted_on_first_load() {
    let compiled = compile(&rotating_program(), &CompilerOptions::default()).unwrap();
    let dir = temp_dir("v2-domain");
    let server = EvaServer::with_config(compiled, store_config(&dir)).unwrap();
    let handle = server.clone();

    let manifest = server.manifest().clone();
    let params = CkksParameters::from_primes(
        manifest.degree,
        &manifest.data_primes,
        manifest.special_prime,
        true,
    )
    .unwrap();
    let context = CkksContext::new(params).unwrap();
    let steps: Vec<i64> = manifest.keys.galois.iter().map(|&(step, _)| step).collect();
    let (relin, galois) = KeyGenerator::from_seed(context.clone(), 5)
        .create_evaluation_keys(manifest.keys.relin, &manifest.keys.galois);
    // The payload as the old build framed it: has_relin · EVAL · EVAG v1.
    let mut w = Writer::new();
    w.u8(1);
    w.raw(&relin.unwrap().to_wire_bytes());
    w.object(*b"EVAG", 1, |w| {
        w.u32(steps.len() as u32);
        for &step in &steps {
            w.i64(step);
            w.u64(context.galois().galois_elt_from_step(step));
        }
        w.raw(&galois.to_wire_bytes()[16..]);
    });
    let payload = w.into_bytes();
    let mut hasher = Blake2b256::new();
    hasher.update(b"EVA-eval-keys-v2");
    hasher.update(&payload);
    let fingerprint = KeyFingerprint(hasher.finalize());
    let entry = server.key_store().unwrap().entry_path(&fingerprint);
    fs::create_dir_all(entry.parent().unwrap()).unwrap();
    fs::write(&entry, &payload).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let mut stream = TcpStream::connect(addr).unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            resume: Some(fingerprint),
        },
    )
    .unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Manifest { keys_cached, .. } => assert!(!keys_cached),
        other => panic!("expected Manifest, got {other:?}"),
    }
    drop(stream);
    thread.join().unwrap().unwrap();
    assert!(
        !entry.exists(),
        "the stale entry is deleted on its first load"
    );
    assert_eq!(handle.key_store().unwrap().len(), 0);
    assert_eq!(handle.stats().disk_resumptions, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// A key set stored by a build that generated every key at the top level
/// (protocol 3) holds more digits than the manifest now publishes for a key
/// used below the top: re-validation refuses the entry at resume, and the
/// resuming client falls back to uploading keys at their levels.
#[test]
fn stored_full_level_keys_fail_revalidation_and_the_session_uploads() {
    // x⁴ rotated: the waterline rescales each square, so the rotation and
    // its Galois key sit below the top level.
    let mut p = Program::new("rotate-fourth-power", 16);
    let x = p.input_cipher("x", 30);
    let sq = p.instruction(Opcode::Multiply, &[x, x]);
    let fourth = p.instruction(Opcode::Multiply, &[sq, sq]);
    let out = p.instruction(Opcode::RotateLeft(1), &[fourth]);
    p.output("out", out, 30);
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    let dir = temp_dir("full-level");
    let server = EvaServer::with_config(compiled, store_config(&dir)).unwrap();
    let handle = server.clone();

    let manifest = server.manifest().clone();
    let top = manifest.data_primes.len();
    assert_eq!(manifest.keys.relin, Some(top));
    assert!(manifest.keys.galois.iter().all(|&(_, level)| level < top));
    let params = CkksParameters::from_primes(
        manifest.degree,
        &manifest.data_primes,
        manifest.special_prime,
        true,
    )
    .unwrap();
    // The seed's keys as the older build drew them: the same draws, every
    // key at the top level.
    let seed = 44;
    let everything_at_the_top: Vec<(i64, usize)> = manifest
        .keys
        .galois
        .iter()
        .map(|&(step, _)| (step, top))
        .collect();
    let (relin, galois) = KeyGenerator::from_seed(CkksContext::new(params).unwrap(), seed)
        .create_evaluation_keys(Some(top), &everything_at_the_top);
    let mut frame = Vec::new();
    write_message(
        &mut frame,
        &Message::EvalKeys {
            relin: relin.map(Box::new),
            galois: Box::new(galois),
        },
    )
    .unwrap();
    let payload = &frame[9..];
    let stale = fingerprint_eval_key_payload(payload);
    let store = handle.key_store().unwrap();
    store.store(&stale, payload).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let ticket = SessionTicket {
        key_seed: seed,
        fingerprint: stale,
    };
    let mut client = EvaClient::handshake_resuming(stream, ticket).unwrap();
    assert!(!client.resumed(), "full-level keys must not resume");
    let fresh = client.resumption_ticket().unwrap();
    assert_ne!(fresh.fingerprint, stale);
    let inputs = HashMap::from([("x".to_string(), vec![0.5; 16])]);
    let outputs = client.evaluate(&inputs).unwrap();
    assert!(
        (outputs["out"][0] - 0.0625).abs() < 1e-3,
        "{:?}",
        outputs["out"]
    );
    let stream = client.finish().unwrap();
    let uploaded = bytes_with_tag(stream.sent(), TAG_EVAL_KEYS).unwrap();
    thread.join().unwrap().unwrap();

    // The upload is the keys at their levels, smaller than the stale entry;
    // the stale entry stays on disk, never served.
    assert!(
        uploaded < payload.len() as u64,
        "{uploaded} ≥ {}",
        payload.len()
    );
    assert!(store.entry_path(&fresh.fingerprint).exists());
    let stats = handle.stats();
    assert_eq!(stats.disk_resumptions, 0);
    assert_eq!(stats.resumed_sessions, 0);

    let _ = fs::remove_dir_all(&dir);
}
