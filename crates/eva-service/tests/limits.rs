//! Robustness tests for the service's deadlines, frame bounds, concurrency
//! bound and graceful shutdown: slow, stalled and abusive peers must be
//! bounded in the resources they can pin, and every abnormal close must be
//! preceded by a protocol `Error` frame naming what went wrong.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use eva_ckks::{
    CkksContext, CkksEncoder, CkksParameters, Decryptor, GaloisKeys, KeyGenerator,
    SymmetricEncryptor,
};
use eva_core::{compile, CompilerOptions, Opcode, Program};
use eva_service::protocol::{expect_message, write_message};
use eva_service::{
    ClientConfig, EvaClient, EvaServer, Message, ServerConfig, ServiceError, ValuePayload,
    MAX_FRAME_BYTES, PROTOCOL_VERSION, TAG_EVAL_KEYS, TAG_HELLO,
};
use eva_wire::{WireObject, Writer};

/// `x²` on a 60-bit input: the waterline rescales the square, so it is
/// relinearized first and the client uploads a relinearization key (and no
/// Galois keys). At 30 bits the square would leave unrelinearized and the
/// program would need no key at all.
fn square_program() -> Program {
    let mut p = Program::new("square", 8);
    let x = p.input_cipher("x", 60);
    let sq = p.instruction(Opcode::Multiply, &[x, x]);
    p.output("out", sq, 30);
    p
}

#[test]
fn the_square_program_needs_a_relinearization_key_only() {
    let compiled = compile(&square_program(), &CompilerOptions::default()).unwrap();
    assert!(compiled.needs_relinearization() && compiled.rotation_steps.is_empty());
}

fn square_server(config: ServerConfig) -> EvaServer {
    let compiled = compile(&square_program(), &CompilerOptions::default()).unwrap();
    EvaServer::with_config(compiled, config).unwrap()
}

fn square_inputs() -> HashMap<String, Vec<f64>> {
    [("x".to_string(), vec![1.5; 8])].into_iter().collect()
}

/// Satellite: an oversized frame is answered with a protocol `Error` frame
/// **naming the limit** before the close — not a silent hang-up.
#[test]
fn oversized_frame_gets_an_error_frame_naming_the_limit() {
    let server = square_server(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let mut stream = TcpStream::connect(addr).unwrap();
    // A frame header announcing more than MAX_FRAME_BYTES, in Hello position.
    stream.write_all(&[eva_service::TAG_HELLO]).unwrap();
    stream
        .write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
        .unwrap();
    stream.flush().unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Error(msg) => {
            assert!(msg.contains("exceeds"), "unexpected error text: {msg}");
            assert!(
                msg.contains(&MAX_FRAME_BYTES.to_string()),
                "the limit must be named: {msg}"
            );
        }
        other => panic!("expected Error, got {other:?}"),
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports[0].is_err());
}

/// Satellite: a peer that sends a valid tag + length then stops must be
/// disconnected by the read deadline — server side.
#[test]
fn partial_frame_stall_trips_the_server_read_deadline() {
    let server = square_server(ServerConfig {
        read_deadline: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let stats_handle = server.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Valid Hello tag + plausible length… then silence.
    stream.write_all(&[eva_service::TAG_HELLO]).unwrap();
    stream.write_all(&30u64.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.flush().unwrap();
    // The server must send a deadline Error frame, then close.
    match expect_message(&mut stream).unwrap() {
        Message::Error(msg) => assert!(msg.contains("deadline"), "unexpected error: {msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    let reports = server_thread.join().unwrap().unwrap();
    let err = reports[0].as_ref().unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");
    assert!(err.is_transient(), "deadline disconnects must be retryable");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the stall was not bounded by the deadline"
    );
    assert_eq!(stats_handle.stats().sessions_failed, 1);
}

/// Satellite: the same stall, asserted from the client side — a server that
/// accepts and then goes silent trips the client's read timeout.
#[test]
fn stalled_server_trips_the_client_read_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // "Server" accepts, reads the Hello, then stalls without ever answering.
    let stall = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(10));
        drop(stream);
    });

    let started = Instant::now();
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_millis(300)),
        write_timeout: Some(Duration::from_secs(2)),
    };
    let err = EvaClient::connect_with(addr, Some(3), &config).unwrap_err();
    assert!(
        matches!(&err, ServiceError::Io(io) if io.kind() == std::io::ErrorKind::WouldBlock
            || io.kind() == std::io::ErrorKind::TimedOut),
        "expected a socket timeout, got {err}"
    );
    assert!(err.is_transient());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "client read timeout did not bound the stall"
    );
    drop(stall); // detach: the stalling thread exits on its own timer
}

/// `connect` and `connect_resuming` open their socket like `connect_with`
/// under the default [`ClientConfig`], so a stalled server cannot hang them.
#[test]
fn connect_and_connect_resuming_carry_the_default_timeouts() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = square_server(ServerConfig::default());
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));

    let client = EvaClient::connect(addr, Some(4)).unwrap();
    let ticket = client.resumption_ticket().unwrap();
    let first = client.finish().unwrap();
    let resumed = EvaClient::connect_resuming(addr, ticket).unwrap();
    assert!(resumed.resumed());
    let defaults = ClientConfig::default();
    for stream in [first, resumed.finish().unwrap()] {
        assert_eq!(stream.read_timeout().unwrap(), defaults.read_timeout);
        assert_eq!(stream.write_timeout().unwrap(), defaults.write_timeout);
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports.iter().all(Result::is_ok), "{reports:?}");
}

/// Tentpole: at the concurrent-session limit, further connections get a
/// polite `busy:` Error frame (so a retrying client backs off) and are
/// counted in the server stats.
#[test]
fn busy_server_rejects_politely_at_the_session_limit() {
    let server = square_server(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let stats_handle = server.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));

    // Session 1 handshakes fully (so its worker is registered) and stays open.
    let mut first = EvaClient::connect(addr, Some(1)).unwrap();
    // Session 2 must be turned away with the busy error during handshake.
    let err = EvaClient::connect(addr, Some(2)).unwrap_err();
    match &err {
        ServiceError::Remote(msg) => {
            assert!(msg.starts_with("busy:"), "unexpected refusal: {msg}");
            assert!(
                msg.contains("1-session"),
                "the limit should be named: {msg}"
            );
        }
        other => panic!("expected a Remote busy error, got {other}"),
    }
    assert!(err.is_transient(), "busy must be retryable");

    // The admitted session is unaffected by the rejection next door.
    let outputs = first.evaluate(&square_inputs()).unwrap();
    assert!((outputs["out"][0] - 2.25).abs() < 1e-3);
    first.finish().unwrap();

    let reports = server_thread.join().unwrap().unwrap();
    assert_eq!(reports.len(), 2);
    assert!(reports[0].is_ok());
    assert!(reports[1].is_err());
    let stats = stats_handle.stats();
    assert_eq!(stats.busy_rejections, 1);
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.evaluations, 1);
}

/// A session's slot frees when its connection closes: at a limit of one,
/// two sessions one after the other are both admitted.
#[test]
fn a_closed_session_frees_its_slot() {
    let server = square_server(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let stats_handle = server.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));

    for seed in [1, 2] {
        let mut client = EvaClient::connect(addr, Some(seed)).unwrap();
        let outputs = client.evaluate(&square_inputs()).unwrap();
        assert!((outputs["out"][0] - 2.25).abs() < 1e-3);
        // The server's FIN comes after the connection left its table.
        let mut rest = Vec::new();
        client.finish().unwrap().read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }

    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports.iter().all(Result::is_ok), "{reports:?}");
    let stats = stats_handle.stats();
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.sessions_completed, 2);
}

/// Tentpole: an `EvalKeys` frame announcing more than the program's
/// clients upload is refused against its **announced** length, with a
/// `quota:` Error frame.
#[test]
fn eval_key_quota_refuses_oversized_uploads() {
    let server = square_server(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    // Drive the wire directly: Hello, read the manifest, then announce an
    // EvalKeys frame bigger than the quota — without sending a body at all
    // (the refusal must come from the header alone).
    let mut stream = TcpStream::connect(addr).unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            resume: None,
        },
    )
    .unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Manifest { .. } => {}
        other => panic!("expected Manifest, got {other:?}"),
    }
    // 512 MiB: above the square program's key set, below MAX_FRAME_BYTES.
    stream.write_all(&[TAG_EVAL_KEYS]).unwrap();
    stream.write_all(&(512u64 << 20).to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Error(msg) => {
            assert!(msg.contains("quota:"), "unexpected error: {msg}");
            assert!(msg.contains("evaluation-key"), "{msg}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    let reports = server_thread.join().unwrap().unwrap();
    let err = reports[0].as_ref().unwrap_err();
    assert!(err.to_string().contains("quota:"), "{err}");
    assert!(err.is_transient(), "fresh sessions get fresh quotas");
}

/// A `Hello` is at most 37 bytes, so a `Hello`-tagged header announcing
/// 1 MiB is answered at once, from the header alone — well inside a client
/// read timeout far shorter than the server's read deadline.
#[test]
fn an_oversized_hello_is_refused_at_its_header() {
    let server = square_server(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(&[TAG_HELLO]).unwrap();
    stream.write_all(&(1u64 << 20).to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Error(msg) => {
            assert!(msg.contains("quota:"), "unexpected error: {msg}");
            assert!(msg.contains("37-byte"), "the bound must be named: {msg}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports[0].is_err());
}

/// A raw client writes its keys and two rounds of inputs back to back
/// before reading anything: reads pause while a round evaluates, and the
/// pause neither reorders nor stalls the pipelined frames.
#[test]
fn pipelined_rounds_are_answered_in_order() {
    let server = square_server(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let mut stream = TcpStream::connect(addr).unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            resume: None,
        },
    )
    .unwrap();
    let manifest = match expect_message(&mut stream).unwrap() {
        Message::Manifest { manifest, .. } => manifest,
        other => panic!("expected Manifest, got {other:?}"),
    };
    let params = CkksParameters::from_primes(
        manifest.degree,
        &manifest.data_primes,
        manifest.special_prime,
        true,
    )
    .unwrap();
    let context = CkksContext::new(params).unwrap();
    let mut keygen = KeyGenerator::from_seed(context.clone(), 7);
    let (relin, galois) = keygen.create_evaluation_keys(manifest.keys.relin, &manifest.keys.galois);
    let encoder = CkksEncoder::new(context.clone());
    let mut encryptor =
        SymmetricEncryptor::from_seed(context.clone(), keygen.secret_key().clone(), 8);
    let rounds = [1.5, -2.0];

    let mut pipelined = Vec::new();
    write_message(
        &mut pipelined,
        &Message::EvalKeys {
            relin: relin.map(Box::new),
            galois: Box::new(galois),
        },
    )
    .unwrap();
    for x in rounds {
        let plaintext = encoder.encode(&[x; 8], manifest.inputs[0].scale_log2, context.max_level());
        let input = ValuePayload::Seeded(Box::new(encryptor.encrypt_seeded(&plaintext)));
        write_message(&mut pipelined, &Message::Inputs(vec![("x".into(), input)])).unwrap();
    }
    write_message(&mut pipelined, &Message::Bye).unwrap();
    stream.write_all(&pipelined).unwrap();

    let decryptor = Decryptor::new(context, keygen.secret_key().clone());
    for x in rounds {
        let outputs = match expect_message(&mut stream).unwrap() {
            Message::Outputs(outputs) => outputs,
            other => panic!("expected Outputs, got {other:?}"),
        };
        let ValuePayload::Cipher(ct) = &outputs[0].1 else {
            panic!("expected a ciphertext output");
        };
        let out = decryptor.decrypt_to_values(ct, 8)[0];
        assert!((out - x * x).abs() < 1e-3, "round {x}: got {out}");
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert_eq!(reports[0].as_ref().unwrap().evaluations, 2);
}

/// A key upload carrying one Galois key beyond the program's rotation
/// steps is refused, and nothing is cached. The bound is exact, so the
/// extra key is refused at the frame header.
#[test]
fn an_upload_with_an_unrequested_galois_key_is_refused() {
    let mut p = Program::new("rotate", 8);
    let x = p.input_cipher("x", 30);
    let r = p.instruction(Opcode::RotateLeft(1), &[x]);
    let sq = p.instruction(Opcode::Multiply, &[r, r]);
    p.output("out", sq, 30);
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let probe = server.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let mut stream = TcpStream::connect(addr).unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            resume: None,
        },
    )
    .unwrap();
    let manifest = match expect_message(&mut stream).unwrap() {
        Message::Manifest { manifest, .. } => manifest,
        other => panic!("expected Manifest, got {other:?}"),
    };
    let context = CkksContext::new(
        CkksParameters::from_primes(
            manifest.degree,
            &manifest.data_primes,
            manifest.special_prime,
            true,
        )
        .unwrap(),
    )
    .unwrap();
    let mut galois = manifest.keys.galois.clone();
    galois.push((3, manifest.data_primes.len()));
    let (relin, galois) =
        KeyGenerator::from_seed(context, 9).create_evaluation_keys(manifest.keys.relin, &galois);
    write_message(
        &mut stream,
        &Message::EvalKeys {
            relin: relin.map(Box::new),
            galois: Box::new(galois),
        },
    )
    .unwrap();
    match expect_message(&mut stream).unwrap() {
        Message::Error(msg) => assert!(msg.contains("evaluation-key"), "unexpected: {msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports[0].is_err());
    assert_eq!(probe.cached_key_sets(), 0);
}

/// Galois keys as the `EVAG` v1 format encoded them, before protocol 3:
/// the keys behind a `(step, element)` table.
fn evag_v1(galois: &GaloisKeys, steps: &[i64], context: &CkksContext) -> Vec<u8> {
    let mut w = Writer::new();
    w.object(*b"EVAG", 1, |w| {
        w.u32(steps.len() as u32);
        for &step in steps {
            w.i64(step);
            w.u64(context.galois().galois_elt_from_step(step));
        }
        w.raw(&galois.to_wire_bytes()[16..]);
    });
    w.into_bytes()
}

/// Keys in the format before protocol 3 are refused with an `Error` frame
/// and a failed session. The whole upload such a client sends is over the
/// program's exact bound, so its header alone is refused; an `EVAG` v1
/// small enough to pass the bound is refused by its envelope version.
#[test]
fn an_upload_in_the_old_galois_key_format_is_refused() {
    // At 60 bits the square is rescaled, so it is relinearized first.
    let mut p = Program::new("rotate", 8);
    let x = p.input_cipher("x", 60);
    let r = p.instruction(Opcode::RotateLeft(1), &[x]);
    let sq = p.instruction(Opcode::Multiply, &[r, r]);
    p.output("out", sq, 30);
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    let server = EvaServer::new(compiled).unwrap();
    let probe = server.clone();
    let manifest = server.manifest().clone();
    assert!(manifest.keys.relin.is_some() && !manifest.keys.galois.is_empty());
    let context = CkksContext::new(
        CkksParameters::from_primes(
            manifest.degree,
            &manifest.data_primes,
            manifest.special_prime,
            true,
        )
        .unwrap(),
    )
    .unwrap();
    let (relin, galois) = KeyGenerator::from_seed(context.clone(), 9)
        .create_evaluation_keys(manifest.keys.relin, &manifest.keys.galois);
    let steps: Vec<i64> = manifest.keys.galois.iter().map(|&(step, _)| step).collect();
    let old_galois = evag_v1(&galois, &steps, &context);
    let mut full_upload = vec![1];
    full_upload.extend(relin.unwrap().to_wire_bytes());
    full_upload.extend(&old_galois);
    let mut galois_only = vec![0];
    galois_only.extend(&old_galois);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));
    // The full upload is announced, not sent: the bound refuses its header.
    for (payload, sent, refusal) in [
        (&full_upload, 0, "quota:"),
        (
            &galois_only,
            galois_only.len(),
            "unsupported \"EVAG\" format version 1",
        ),
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(
            &mut stream,
            &Message::Hello {
                protocol: PROTOCOL_VERSION,
                resume: None,
            },
        )
        .unwrap();
        match expect_message(&mut stream).unwrap() {
            Message::Manifest { .. } => {}
            other => panic!("expected Manifest, got {other:?}"),
        }
        stream.write_all(&[TAG_EVAL_KEYS]).unwrap();
        stream
            .write_all(&(payload.len() as u64).to_le_bytes())
            .unwrap();
        stream.write_all(&payload[..sent]).unwrap();
        stream.flush().unwrap();
        match expect_message(&mut stream).unwrap() {
            Message::Error(msg) => assert!(msg.contains(refusal), "unexpected error: {msg}"),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    let reports = server_thread.join().unwrap().unwrap();
    assert!(reports.iter().all(|r| r.is_err()));
    let stats = probe.stats();
    assert_eq!((stats.sessions_failed, stats.session_panics), (2, 0));
    assert_eq!(probe.cached_key_sets(), 0);
}

/// Tentpole: graceful shutdown stops accepting but **drains** the in-flight
/// session — its evaluation completes, nothing is aborted.
#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let server = square_server(ServerConfig::default());
    let control = server.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve_thread = std::thread::spawn(move || server.serve_forever(&listener));

    // A session is mid-flight when shutdown begins…
    let mut client = EvaClient::connect(addr, Some(9)).unwrap();
    let shutdown_control = control.clone();
    let shutdown_thread = std::thread::spawn(move || shutdown_control.begin_shutdown());
    std::thread::sleep(Duration::from_millis(100));
    // …and still completes its work.
    let outputs = client.evaluate(&square_inputs()).unwrap();
    assert!((outputs["out"][0] - 2.25).abs() < 1e-3);
    client.finish().unwrap();

    shutdown_thread.join().unwrap();
    serve_thread
        .join()
        .unwrap()
        .expect("serve_forever returns cleanly after shutdown");
    assert!(control.is_shutting_down());
    let stats = control.stats();
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.evaluations, 1);
    // The listener is closed with the serve loop: new connections die.
    assert!(EvaClient::connect_with(
        addr,
        None,
        &ClientConfig {
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
        }
    )
    .is_err());
}

/// Regression: a shutdown requested before the serve loop first looks at
/// the flag — with no connection ever opened — must still end the loop.
/// (The loop used to deregister the listener and then park with nothing
/// left to wake it.)
#[test]
fn shutdown_requested_before_serving_returns_promptly() {
    let server = square_server(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    server.begin_shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.serve_forever(&listener));
    });
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("serve_forever hung on a shutdown flag set before it started")
        .expect("serve_forever");
}

/// A serve loop parked in `epoll_wait` with no connection open wakes on
/// `begin_shutdown` and returns.
#[test]
fn shutdown_wakes_a_parked_serve_loop() {
    let server = square_server(ServerConfig::default());
    let control = server.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.serve_forever(&listener));
    });
    std::thread::sleep(Duration::from_millis(200));
    control.begin_shutdown();
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("serve_forever stayed parked after begin_shutdown")
        .expect("serve_forever");
}
