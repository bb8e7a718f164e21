//! End-to-end tests over a real localhost TCP socket: the client keeps every
//! key, the server executes over ciphertexts, and the decrypted results
//! match the in-process encrypted executor bit-for-bit under seeded
//! randomness. The umbrella crate's differential harness serves its named
//! workloads through one such session each.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};

use eva_backend::{run_reference, EncryptedContext};
use eva_core::passes::{eliminate_common_subexpressions, eliminate_dead_code};
use eva_core::{compile, CompiledProgram, CompilerOptions, Opcode, Program};
use eva_service::{
    bytes_with_tag, frame_index, EvaClient, EvaServer, RecordingStream, TAG_EVAL_KEYS, TAG_INPUTS,
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

/// Paper Figure 3's x² + x needs no evaluation key: the square reaches the
/// output through an ADD, so it is never relinearized. The client uploads
/// an empty key set, and the output crosses the wire with three
/// polynomials that the client decrypts as `c0 + c1·s + c2·s²`.
#[test]
fn square_plus_x_runs_keyless_with_a_three_polynomial_output() {
    use eva_service::protocol::read_message;
    use eva_service::{Message, ValuePayload};

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
    assert_eq!(client.manifest().keys.relin, None);
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
    assert_eq!(bytes_with_tag(&sent, TAG_EVAL_KEYS).unwrap(), 1 + 16 + 4);

    // The output EVAC carries three polynomials.
    let mut frames: &[u8] = &received;
    let mut polys = Vec::new();
    while let Some(message) = read_message(&mut frames).unwrap() {
        if let Message::Outputs(values) = message {
            for (_, value) in values {
                let ValuePayload::Cipher(ct) = value else {
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
    let server_thread = std::thread::spawn(move || serving.serve_sessions(&listener, 4));

    // Sessions 1 and 2: a wrong protocol version is refused with an Error
    // message, not a framing failure — a future one, and protocol 3, whose
    // clients build every key at the top level.
    for protocol in [PROTOCOL_VERSION + 1, 3] {
        let mut stream = TcpStream::connect(addr).unwrap();
        eva_service::protocol::write_message(
            &mut stream,
            &Message::Hello {
                protocol,
                resume: None,
            },
        )
        .unwrap();
        match eva_service::protocol::expect_message(&mut stream).unwrap() {
            Message::Error(msg) => assert!(
                msg.contains(&format!("client speaks protocol {protocol}")),
                "{msg}"
            ),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    // Session 3: withholding the relinearization key is refused.
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
        assert!(manifest.keys.relin.is_some());
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
    // Session 4: well-formed keys with one Galois-key residue outside
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
            true,
        )
        .unwrap();
        let mut keygen = KeyGenerator::from_seed(CkksContext::new(params).unwrap(), 3);
        let (relin, galois) =
            keygen.create_evaluation_keys(manifest.keys.relin, &manifest.keys.galois);
        let relin = relin.unwrap();
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
                galois: Box::new(GaloisKeys::from_parts(hostile)),
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
    use eva_service::{Message, ServiceError, ValuePayload, PROTOCOL_VERSION};

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
        // One prefix, at the client and in the server's Error frame.
        let refusal = format!("execution failed: {text}");
        match client.evaluate(inputs).unwrap_err() {
            err @ ServiceError::Execution(_) => assert_eq!(err.to_string(), refusal),
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
        let raw: Vec<(String, ValuePayload)> = inputs
            .get("w")
            .map(|values| ("w".to_string(), ValuePayload::Plain(values.clone())))
            .into_iter()
            .collect();
        write_message(&mut stream, &Message::Inputs(raw)).unwrap();
        match expect_message(&mut stream).unwrap() {
            Message::Error(message) => assert_eq!(message, refusal),
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

/// Sobel 16×16 and an image for it.
fn sobel() -> (Program, HashMap<String, Vec<f64>>) {
    let image = (0..256).map(|i| f64::from(i % 17) / 17.0).collect();
    let inputs = HashMap::from([("image".to_string(), image)]);
    (eva_apps::image::sobel_program(16), inputs)
}

/// The decrypted outputs of one session of `compiled` on a two-thread
/// server, under the deterministic handshake from `seed`.
fn served(
    compiled: CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    seed: u64,
) -> HashMap<String, Vec<f64>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EvaServer::new(compiled).unwrap().with_threads(2);
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));
    let stream = TcpStream::connect(addr).unwrap();
    let mut client = EvaClient::handshake_deterministic(stream, seed).unwrap();
    let outputs = client.evaluate(inputs).unwrap();
    client.finish().unwrap();
    server_thread.join().unwrap().unwrap();
    outputs
}

fn assert_bit_identical(
    got: &HashMap<String, Vec<f64>>,
    want: &HashMap<String, Vec<f64>>,
    label: &str,
) {
    assert_eq!(got.len(), want.len(), "{label}: output count");
    for (name, want) in want {
        for (i, (a, b)) in got[name].iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: {name}[{i}] {a} vs {b}");
        }
    }
}

/// Hoisted key switching over the wire: Sobel's rotation fan-outs execute
/// hoisted on a two-thread server, and under the same deterministic
/// handshake the decrypted outputs are bit-identical to in-process serial
/// execution — neither the thread count nor the client/server boundary may
/// move a bit.
#[test]
fn hoisted_sobel_over_the_service_matches_in_process_serial_bit_for_bit() {
    let (program, inputs) = sobel();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let mut in_process = EncryptedContext::setup(&compiled, Some(42)).unwrap();
    let bindings = in_process.encrypt_inputs(&compiled, &inputs).unwrap();
    let values = in_process.execute_serial(&compiled, bindings).unwrap();
    let expected = in_process.decrypt_outputs(&compiled, &values).unwrap();
    let outputs = served(compiled, &inputs, 42);
    assert_bit_identical(&outputs, &expected, "served vs in-process serial");
}

/// The optimizer's contract over the service: the structurally optimized
/// (CSE + DCE) Sobel twin returns the unoptimized twin's bits, and the fully
/// optimized one (rotation factoring re-associates sums) agrees to 1e-2.
#[test]
fn optimized_sobel_twin_matches_unoptimized_over_the_service() {
    let (program, inputs) = sobel();
    let mut structural = program.clone();
    eliminate_common_subexpressions(&mut structural);
    eliminate_dead_code(&mut structural);
    let unoptimized = CompilerOptions::unoptimized();
    let baseline = served(compile(&program, &unoptimized).unwrap(), &inputs, 42);
    let twin = served(compile(&structural, &unoptimized).unwrap(), &inputs, 42);
    assert_bit_identical(&twin, &baseline, "CSE + DCE twin vs unoptimized");
    let full = compile(&program, &CompilerOptions::default()).unwrap();
    let full = served(full, &inputs, 42);
    for (name, want) in &baseline {
        for (a, b) in full[name].iter().zip(want) {
            let close = (a - b).abs() < 1e-2 * b.abs().max(1.0);
            assert!(close, "optimized {name}: {a} vs {b}");
        }
    }
}
