//! End-to-end tests over a real localhost TCP socket: the client keeps every
//! key, the server executes over ciphertexts, and the decrypted results
//! match the in-process encrypted executor bit-for-bit under seeded
//! randomness.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};

use eva_backend::{execute_parallel, run_reference, EncryptedContext};
use eva_core::passes::{eliminate_common_subexpressions, eliminate_dead_code};
use eva_core::{compile, CompilerOptions, Opcode, Program};
use eva_service::{
    bytes_with_tag, contains_bytes, frame_index, EvaClient, EvaServer, RecordingStream,
    TAG_EVAL_KEYS, TAG_INPUTS,
};

/// A rotation + plaintext-operand program: exercises Galois keys,
/// relinearization, plain inputs and match-scale corrections.
fn mixed_program() -> Program {
    let mut p = Program::new("mixed", 16);
    let image = p.input_cipher("image", 30);
    let weights = p.input_vector("weights", 20);
    let c = p.constant(eva_core::ConstantValue::Scalar(0.25), 20);
    let shifted = p.instruction(Opcode::RotateLeft(3), &[image]);
    let weighted = p.instruction(Opcode::Multiply, &[shifted, weights]);
    let scaled = p.instruction(Opcode::Multiply, &[weighted, c]);
    let sum = p.instruction(Opcode::Add, &[scaled, image]);
    let sq = p.instruction(Opcode::Multiply, &[sum, sum]);
    p.output("out", sq, 30);
    p
}

fn mixed_inputs() -> HashMap<String, Vec<f64>> {
    [
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
    .collect()
}

#[test]
fn client_server_roundtrip_matches_in_process_executor_bit_for_bit() {
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let inputs = mixed_inputs();
    let seed = 7u64;

    // In-process encrypted execution with the same seed the client will use.
    let mut in_process = EncryptedContext::setup(&compiled, Some(seed)).unwrap();
    let bindings = in_process.encrypt_inputs(&compiled, &inputs).unwrap();
    let values = execute_parallel(in_process.evaluation(), &compiled, bindings, 2).unwrap();
    let expected = in_process.decrypt_outputs(&compiled, &values).unwrap();

    // Client → server → client over a real socket.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled.clone()).unwrap().with_threads(2);
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake_deterministic(stream, seed).unwrap();
    let outputs = client.evaluate(&inputs).unwrap();

    // Identical seeds + identical draw order ⇒ identical keys, identical
    // encryption randomness, identical circuit ⇒ bit-identical results.
    // (handshake_deterministic is the explicit test-only mode; plain
    // seeded handshakes draw fresh encryption randomness.)
    for (name, expected_values) in &expected {
        let got = &outputs[name];
        for (a, b) in got.iter().zip(expected_values) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "output {name:?} deviates from the in-process executor"
            );
        }
    }
    // And well within the ≤ 1e-4 regression bound against the plaintext
    // reference semantics.
    let reference = run_reference(&compiled.program, &inputs).unwrap();
    for (a, b) in outputs["out"].iter().zip(&reference["out"]) {
        assert!((a - b).abs() <= 1e-4, "encrypted {a} vs reference {b}");
    }

    // The secret key never appeared in either direction of the traffic.
    let probe = client.secret_key_probe();
    let stream = client.finish().unwrap();
    assert!(probe.len() >= 64);
    for window in [64, 32] {
        for chunk in probe.chunks(window).take(8) {
            assert!(
                !contains_bytes(stream.sent(), chunk),
                "secret key bytes on the wire"
            );
            assert!(!contains_bytes(stream.received(), chunk));
        }
    }

    let reports = server_thread.join().unwrap().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].as_ref().unwrap().evaluations, 1);
}

/// Paper Figure 3's x² + x needs no evaluation key: the square reaches the
/// output through an ADD, so it is never relinearized. The client uploads
/// an empty key set, and the output crosses the wire with three
/// polynomials that the client decrypts as `c0 + c1·s + c2·s²`.
#[test]
fn square_plus_x_runs_keyless_with_a_three_polynomial_output() {
    use eva_service::protocol::read_message;
    use eva_service::{Message, OutputValue};

    let mut p = Program::new("x2_plus_x", 8);
    let x = p.input_cipher("x", 30);
    let sq = p.instruction(Opcode::Multiply, &[x, x]);
    let sum = p.instruction(Opcode::Add, &[sq, x]);
    p.output("out", sum, 30);
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    assert!(!compiled.needs_relinearization() && compiled.rotation_steps.is_empty());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let xs: Vec<f64> = (0..8).map(|i| (i as f64) / 4.0 - 1.0).collect();
    let inputs: HashMap<String, Vec<f64>> = [("x".to_string(), xs.clone())].into();
    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake_deterministic(stream, 17).unwrap();
    assert!(!client.manifest().needs_relin);
    let outputs = client.evaluate(&inputs).unwrap();
    let (_, sent, received) = client.finish().unwrap().into_parts();
    server_thread.join().unwrap().unwrap();

    // The EvalKeys payload is `has_relin = 0` and an EVAG without keys.
    let mut frames: &[u8] = &sent;
    let mut key_uploads = 0;
    while let Some(message) = read_message(&mut frames).unwrap() {
        if let Message::EvalKeys { relin, galois } = message {
            assert!(relin.is_none());
            assert!(galois.element_keys().is_empty());
            key_uploads += 1;
        }
    }
    assert_eq!(key_uploads, 1);
    assert_eq!(
        bytes_with_tag(&sent, TAG_EVAL_KEYS).unwrap(),
        1 + 16 + 4 + 4
    );

    // The output EVAC carries three polynomials.
    let mut frames: &[u8] = &received;
    let mut polys = Vec::new();
    while let Some(message) = read_message(&mut frames).unwrap() {
        if let Message::Outputs(values) = message {
            for (_, value) in values {
                let OutputValue::Cipher(ct) = value else {
                    panic!("expected a ciphertext output");
                };
                polys.push(ct.size());
            }
        }
    }
    assert_eq!(polys, [3]);

    for (got, x) in outputs["out"].iter().zip(&xs) {
        assert!(
            (got - (x * x + x)).abs() <= 4.8e-7,
            "{got} vs {}",
            x * x + x
        );
    }
}

#[test]
fn warm_reconnect_resumes_cached_keys_and_uploads_zero_key_bytes() {
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let inputs = mixed_inputs();
    let seed = 13u64;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let server_for_thread = server.clone();
    let server_thread = std::thread::spawn(move || server_for_thread.serve_sessions(&listener, 3));

    // ---- Session 1 (cold): full handshake with evaluation-key upload. ----
    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake(stream, Some(seed)).unwrap();
    assert!(!client.resumed());
    let fingerprint = client.eval_key_fingerprint().unwrap();
    let ticket = client.resumption_ticket().unwrap();
    assert_eq!(ticket.key_seed, seed);
    assert_eq!(ticket.fingerprint, fingerprint);
    let cold_outputs = client.evaluate(&inputs).unwrap();
    let stream = client.finish().unwrap();
    let cold_sent = stream.sent().to_vec();
    let cold_key_bytes = bytes_with_tag(&cold_sent, TAG_EVAL_KEYS).unwrap();
    assert!(
        cold_key_bytes > 100_000,
        "cold session should upload substantial key material, got {cold_key_bytes} bytes"
    );
    assert_eq!(server.cached_key_sets(), 1);
    assert!(server.cached_key_bytes() as u64 >= cold_key_bytes - 64);

    // ---- Session 2 (warm): resume with the ticket. ----
    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let mut client = EvaClient::handshake_resuming(stream, ticket).unwrap();
    assert!(client.resumed());
    assert_eq!(client.eval_key_fingerprint(), Some(fingerprint));
    assert_eq!(client.resumption_ticket(), Some(ticket));
    let warm_outputs = client.evaluate(&inputs).unwrap();
    let stream = client.finish().unwrap();
    let warm_sent = stream.sent().to_vec();

    // Zero evaluation-key bytes — no frame with the EvalKeys tag at all.
    let warm_frames = frame_index(&warm_sent).unwrap();
    assert!(
        warm_frames.iter().all(|&(tag, _)| tag != TAG_EVAL_KEYS),
        "warm session sent an EvalKeys frame: {warm_frames:?}"
    );
    assert_eq!(bytes_with_tag(&warm_sent, TAG_EVAL_KEYS).unwrap(), 0);
    // Upload is now dominated by the (seeded) inputs; everything else —
    // hello + goodbye — is framing noise.
    let warm_input_bytes = bytes_with_tag(&warm_sent, TAG_INPUTS).unwrap();
    assert!(
        (warm_sent.len() as u64) < warm_input_bytes + 200,
        "warm upload should be inputs plus a small constant, got {} total / {} inputs",
        warm_sent.len(),
        warm_input_bytes
    );
    assert!(
        warm_sent.len() * 5 < cold_sent.len(),
        "warm reconnect should upload a small fraction of the cold session \
         ({} vs {} bytes)",
        warm_sent.len(),
        cold_sent.len()
    );

    // The warm session re-derives the same keys, so its decrypted outputs
    // agree with the cold session to well within the regression bound — but
    // its encryption randomness is FRESH (resumed sessions draw from OS
    // entropy), so the actual input ciphertext bytes must differ. Reused
    // randomness across sessions would let an observer difference the `b`
    // components and recover encoded-plaintext differences.
    for (name, cold) in &cold_outputs {
        for (a, b) in warm_outputs[name].iter().zip(cold) {
            assert!((a - b).abs() <= 2e-4, "warm {a} vs cold {b}");
        }
    }
    {
        // Extract the Inputs frame payloads from both captures: same
        // plaintext inputs, different sessions ⇒ different ciphertext bytes.
        let inputs_payload = |capture: &[u8]| -> Vec<u8> {
            let mut offset = 0usize;
            for (tag, len) in frame_index(capture).unwrap() {
                let start = offset + 9;
                let end = start + len as usize;
                if tag == TAG_INPUTS {
                    return capture[start..end].to_vec();
                }
                offset = end;
            }
            panic!("no Inputs frame in capture");
        };
        assert_ne!(
            inputs_payload(&cold_sent),
            inputs_payload(&warm_sent),
            "warm session reused the cold session's encryption randomness"
        );
    }

    // ---- Session 3: an unknown fingerprint falls back to a full upload. ----
    let stream = RecordingStream::new(TcpStream::connect(addr).unwrap());
    let bogus = eva_service::SessionTicket {
        key_seed: seed,
        fingerprint: eva_service::KeyFingerprint([0x5a; 32]),
    };
    let mut client = EvaClient::handshake_resuming(stream, bogus).unwrap();
    assert!(!client.resumed(), "bogus fingerprint must not resume");
    assert_eq!(
        client.eval_key_fingerprint(),
        Some(fingerprint),
        "regenerated keys hash to the original fingerprint"
    );
    client.evaluate(&inputs).unwrap();
    let stream = client.finish().unwrap();
    assert!(bytes_with_tag(stream.sent(), TAG_EVAL_KEYS).unwrap() > 0);

    let reports = server_thread.join().unwrap().unwrap();
    let reports: Vec<_> = reports.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(reports.len(), 3);
    assert!(!reports[0].resumed);
    assert!(reports[1].resumed);
    assert!(!reports[2].resumed);
    // The server computed the same fingerprint over the received bytes as
    // the client did over the generated keys.
    for report in &reports {
        assert_eq!(report.key_fingerprint, Some(fingerprint));
    }
}

#[test]
fn concurrent_sessions_with_different_keys_are_isolated() {
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let inputs = mixed_inputs();
    let reference = run_reference(&compiled.program, &inputs).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));

    // Two clients with different keys, connected at the same time; the second
    // runs two evaluation rounds over one session.
    let mut handles = Vec::new();
    for (seed, rounds) in [(101u64, 1usize), (202, 2)] {
        let inputs = inputs.clone();
        let reference = reference["out"].clone();
        handles.push(std::thread::spawn(move || {
            let mut client = EvaClient::connect(addr, Some(seed)).unwrap();
            for _ in 0..rounds {
                let outputs = client.evaluate(&inputs).unwrap();
                for (a, b) in outputs["out"].iter().zip(&reference) {
                    assert!((a - b).abs() <= 1e-4);
                }
            }
            client.finish().unwrap();
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let reports = server_thread.join().unwrap().unwrap();
    let total: usize = reports
        .iter()
        .map(|r| r.as_ref().unwrap().evaluations)
        .sum();
    assert_eq!(total, 3);
}

#[test]
fn unseeded_sessions_have_no_resumption_ticket() {
    // Fresh CSPRNG keys can never be re-derived, so resumption can never be
    // sound for them — structurally, such a session mints no ticket (and
    // `handshake_resuming` only accepts a ticket, which always has a seed).
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let client = EvaClient::connect(addr, None).unwrap();
    assert!(client.resumption_ticket().is_none());
    // The hash over the multi-megabyte key upload is skipped too: no seed,
    // no usable fingerprint.
    assert!(client.eval_key_fingerprint().is_none());
    client.finish().unwrap();
    let _ = server_thread.join().unwrap();
}

#[test]
fn server_rejects_missing_relin_key_and_bad_protocol() {
    use eva_service::{Message, PROTOCOL_VERSION};

    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let serving = server.clone();
    let server_thread = std::thread::spawn(move || serving.serve_sessions(&listener, 3));

    // Session 1: wrong protocol version (e.g. a PR-4 v1 client) is refused
    // with an Error message, not a framing failure.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        eva_service::protocol::write_message(
            &mut stream,
            &Message::Hello {
                protocol: PROTOCOL_VERSION + 1,
                resume: None,
            },
        )
        .unwrap();
        match eva_service::protocol::expect_message(&mut stream).unwrap() {
            Message::Error(msg) => assert!(msg.contains("protocol")),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    // Session 2: withholding the relinearization key is refused.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        eva_service::protocol::write_message(
            &mut stream,
            &Message::Hello {
                protocol: PROTOCOL_VERSION,
                resume: None,
            },
        )
        .unwrap();
        let manifest = match eva_service::protocol::expect_message(&mut stream).unwrap() {
            Message::Manifest { manifest, .. } => *manifest,
            other => panic!("expected Manifest, got {other:?}"),
        };
        assert!(manifest.needs_relin);
        eva_service::protocol::write_message(
            &mut stream,
            &Message::EvalKeys {
                relin: None,
                galois: Box::new(eva_ckks::GaloisKeys::default()),
            },
        )
        .unwrap();
        match eva_service::protocol::expect_message(&mut stream).unwrap() {
            Message::Error(msg) => assert!(msg.contains("relinearization")),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    // Session 3: well-formed keys with one Galois-key residue outside
    // [0, q) are refused at validation — the evaluator's unreduced 128-bit
    // key-switch sum is only exact for canonical residues — instead of
    // reaching a worker.
    {
        use eva_ckks::{CkksContext, CkksParameters, GaloisKeys, KeyGenerator, KeySwitchKey};

        let mut stream = TcpStream::connect(addr).unwrap();
        eva_service::protocol::write_message(
            &mut stream,
            &Message::Hello {
                protocol: PROTOCOL_VERSION,
                resume: None,
            },
        )
        .unwrap();
        let manifest = match eva_service::protocol::expect_message(&mut stream).unwrap() {
            Message::Manifest { manifest, .. } => *manifest,
            other => panic!("expected Manifest, got {other:?}"),
        };
        let params = CkksParameters::from_primes(
            manifest.degree,
            &manifest.data_primes,
            manifest.special_prime,
            manifest.secure,
        )
        .unwrap();
        let mut keygen = KeyGenerator::from_seed(CkksContext::new(params).unwrap(), 3);
        let relin = keygen.create_relinearization_key();
        let galois = keygen.create_galois_keys(&manifest.rotation_steps);
        let hostile = galois
            .element_keys()
            .into_iter()
            .map(|(elt, key)| {
                let mut digits: Vec<_> = key
                    .canonical_digits()
                    .map(|(k0, k1)| (k0.into_owned(), k1.into_owned()))
                    .collect();
                digits[0].1.residue_mut(1)[7] = u64::MAX;
                (elt, KeySwitchKey::from_digits(digits))
            })
            .collect();
        eva_service::protocol::write_message(
            &mut stream,
            &Message::EvalKeys {
                relin: Some(Box::new(relin)),
                galois: Box::new(GaloisKeys::from_parts(galois.step_elements(), hostile)),
            },
        )
        .unwrap();
        match eva_service::protocol::expect_message(&mut stream).unwrap() {
            Message::Error(msg) => assert!(msg.contains("residue"), "unexpected error: {msg}"),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports.iter().all(|r| r.is_err()));
    assert_eq!(server.stats().session_panics, 0);
}

#[test]
fn server_loads_a_compiled_program_bundle_from_disk() {
    // The `.evaprog` deployment artifact: compile once, ship the bundle,
    // serve it from the file.
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let path =
        std::env::temp_dir().join(format!("eva_service_test_{}.evaprog", std::process::id()));
    std::fs::write(&path, eva_core::serialize::compiled_to_bytes(&compiled)).unwrap();
    let server = EvaServer::from_program_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(server.manifest().name, "mixed");
    assert_eq!(server.compiled(), &compiled);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let inputs = mixed_inputs();
    let reference = run_reference(&compiled.program, &inputs).unwrap();
    let mut client = EvaClient::connect(addr, Some(11)).unwrap();
    let outputs = client.evaluate(&inputs).unwrap();
    for (a, b) in outputs["out"].iter().zip(&reference["out"]) {
        assert!((a - b).abs() <= 1e-4);
    }
    client.finish().unwrap();
    server_thread.join().unwrap().unwrap();
}

#[test]
fn evaluating_with_wrong_input_names_is_a_clean_remote_error() {
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let mut client = EvaClient::connect(addr, Some(5)).unwrap();
    let bogus: HashMap<String, Vec<f64>> =
        [("nonsense".to_string(), vec![1.0])].into_iter().collect();
    // The client refuses locally: the manifest says which inputs exist.
    assert!(client.evaluate(&bogus).is_err());
    drop(client);
    // The server sees a clean hang-up, not a crash.
    let _ = server_thread.join().unwrap();
}

/// One input gate on every path: a missing input, an over-long one and a
/// NaN in a plain or a cipher input are refused in-process, by the client
/// before it sends anything, and by the server's binding gate when a raw
/// `Inputs` frame skips the client — each time with the same text naming
/// the input. (A NaN cannot reach the server inside a ciphertext, so the
/// cipher case has no raw frame.)
#[test]
fn bad_inputs_are_refused_alike_in_process_by_the_client_and_by_the_server() {
    use eva_core::EvaError;
    use eva_service::protocol::{expect_message, write_message};
    use eva_service::{InputValue, Message, ServiceError, PROTOCOL_VERSION};

    // Keyless, with the plain input first, so a raw frame carrying only
    // `w` reaches the gate's check of `w`.
    let mut p = Program::new("gate", 8);
    let w = p.input_vector("w", 20);
    let x = p.input_cipher("x", 30);
    let prod = p.instruction(Opcode::Multiply, &[x, w]);
    p.output("out", prod, 30);
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    assert!(!compiled.needs_relinearization() && compiled.rotation_steps.is_empty());

    let with = |name: &str, values: Option<Vec<f64>>| {
        let mut inputs: HashMap<String, Vec<f64>> = [
            ("w".to_string(), vec![0.5]),
            ("x".to_string(), vec![1.0; 8]),
        ]
        .into();
        match values {
            Some(values) => inputs.insert(name.to_string(), values),
            None => inputs.remove(name),
        };
        inputs
    };
    let cases = [
        ("w", with("w", None)),
        ("w", with("w", Some(vec![1.0; 9]))),
        ("w", with("w", Some(vec![0.5, f64::NAN]))),
        ("x", with("x", Some(vec![1.0, f64::NAN]))),
    ];

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled.clone()).unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 4));
    let mut in_process = EncryptedContext::setup(&compiled, Some(3)).unwrap();
    let mut client = EvaClient::connect(addr, Some(3)).unwrap();

    for (name, inputs) in &cases {
        let err = in_process.encrypt_inputs(&compiled, inputs).unwrap_err();
        let EvaError::Execution(text) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        assert!(text.contains(&format!("{name:?}")), "{text}");
        match client.evaluate(inputs).unwrap_err() {
            ServiceError::Execution(message) => assert_eq!(message, err.to_string()),
            other => panic!("expected a local execution error, got {other:?}"),
        }
        if *name == "x" {
            continue;
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Message::Hello {
            protocol: PROTOCOL_VERSION,
            resume: None,
        };
        write_message(&mut stream, &hello).unwrap();
        assert!(matches!(
            expect_message(&mut stream).unwrap(),
            Message::Manifest { .. }
        ));
        let keys = Message::EvalKeys {
            relin: None,
            galois: Box::new(eva_ckks::GaloisKeys::default()),
        };
        write_message(&mut stream, &keys).unwrap();
        let raw: Vec<(String, InputValue)> = inputs
            .get("w")
            .map(|values| ("w".to_string(), InputValue::Plain(values.clone())))
            .into_iter()
            .collect();
        write_message(&mut stream, &Message::Inputs(raw)).unwrap();
        match expect_message(&mut stream).unwrap() {
            Message::Error(message) => assert!(message.contains(text.as_str()), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // The refused rounds sent nothing: the session still evaluates.
    let outputs = client.evaluate(&with("w", Some(vec![0.5]))).unwrap();
    assert!((outputs["out"][0] - 0.5).abs() < 1e-3);
    client.finish().unwrap();
    let reports = server_thread.join().unwrap().unwrap();
    assert_eq!(reports.iter().filter(|r| r.is_ok()).count(), 1);
}

/// Hoisted key switching over the wire: Sobel's rotation fan-outs execute
/// hoisted on a two-thread server (shared RNS decomposition, one Galois-key
/// apply per member), and under the same deterministic handshake the
/// decrypted outputs are bit-identical to in-process serial execution —
/// neither the thread count nor the client/server boundary may move a bit.
#[test]
fn hoisted_sobel_over_the_service_matches_in_process_serial_bit_for_bit() {
    let program = eva_apps::image::sobel_program(16);
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let image: Vec<f64> = (0..256).map(|i| ((i % 17) as f64) / 17.0).collect();
    let inputs: HashMap<String, Vec<f64>> = [("image".to_string(), image)].into_iter().collect();
    let seed = 42u64;

    let mut in_process = EncryptedContext::setup(&compiled, Some(seed)).unwrap();
    let bindings = in_process.encrypt_inputs(&compiled, &inputs).unwrap();
    let values = in_process.execute_serial(&compiled, bindings).unwrap();
    let expected = in_process.decrypt_outputs(&compiled, &values).unwrap();

    // Client → two-thread server → client over a real socket, same seed.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled.clone()).unwrap().with_threads(2);
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let stream = TcpStream::connect(addr).unwrap();
    let mut client = EvaClient::handshake_deterministic(stream, seed).unwrap();
    let outputs = client.evaluate(&inputs).unwrap();
    client.finish().unwrap();
    server_thread.join().unwrap().unwrap();

    for (name, expected_values) in &expected {
        let got = &outputs[name];
        for (i, (a, b)) in got.iter().zip(expected_values).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "output {name:?}[{i}]: the service deviates from in-process \
                 serial execution"
            );
        }
    }
}

/// The optimizer acceptance contract, end-to-end over the service: the
/// structurally optimized (CSE + DCE) Sobel twin returns bit-identical
/// outputs to the unoptimized twin through real client/server evaluations
/// with the same deterministic handshake, and the fully optimized twin
/// (rotation factoring re-associates sums) agrees to working precision.
#[test]
fn optimized_sobel_twin_matches_unoptimized_over_the_service() {
    let program = eva_apps::image::sobel_program(16);
    // The structural subset by hand, then the maintenance pipeline alone.
    let mut structural_program = program.clone();
    eliminate_common_subexpressions(&mut structural_program);
    eliminate_dead_code(&mut structural_program);

    let image: Vec<f64> = (0..256).map(|i| ((i % 17) as f64) / 17.0).collect();
    let inputs: HashMap<String, Vec<f64>> = [("image".to_string(), image)].into_iter().collect();
    let seed = 42u64;

    let serve = |compiled: eva_core::CompiledProgram| {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = EvaServer::new(compiled).unwrap();
        let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
        let stream = TcpStream::connect(addr).unwrap();
        let mut client = EvaClient::handshake_deterministic(stream, seed).unwrap();
        let outputs = client.evaluate(&inputs).unwrap();
        client.finish().unwrap();
        server_thread.join().unwrap().unwrap();
        outputs
    };

    let unopt = compile(&program, &CompilerOptions::unoptimized()).unwrap();
    let baseline = serve(unopt);
    let structural = compile(&structural_program, &CompilerOptions::unoptimized()).unwrap();
    let structural_outputs = serve(structural);
    let full = compile(&program, &CompilerOptions::default()).unwrap();
    let full_outputs = serve(full);

    for (name, expected) in &baseline {
        for (i, (a, b)) in structural_outputs[name].iter().zip(expected).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "structural twin {name}[{i}]: {a} != {b}"
            );
        }
        for (a, b) in full_outputs[name].iter().zip(expected) {
            assert!(
                (a - b).abs() < 1e-2 * b.abs().max(1.0),
                "full twin {name}: {a} vs {b}"
            );
        }
    }
}
