//! The chaos e2e suite: a [`ReliableClient`] must complete the paper's
//! Sobel benchmark **bit-identically** to the in-process encrypted executor
//! through every injected fault class — artificial delay, short read,
//! mid-frame disconnect, and an in-transit bit flip — by retrying with
//! backoff and resuming the session ticket, never re-uploading a single
//! evaluation-key byte.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use eva_backend::{execute_parallel, EncryptedContext};
use eva_core::{compile, CompilerOptions};
use eva_service::{
    ChaosStream, EvaServer, Fault, ReliableClient, RetryPolicy, ServerConfig, ServiceError,
    TAG_EVAL_KEYS, TAG_HELLO, TAG_INPUTS,
};

const SEED: u64 = 7;

/// A per-connection traffic tap whose buffers outlive the connection, so
/// every attempt — including the faulted ones the client abandons — can be
/// audited after the fact.
#[derive(Clone, Debug, Default)]
struct Tap {
    sent: Arc<Mutex<Vec<u8>>>,
    received: Arc<Mutex<Vec<u8>>>,
}

impl Tap {
    fn sent(&self) -> Vec<u8> {
        self.sent.lock().unwrap().clone()
    }

    fn received(&self) -> Vec<u8> {
        self.received.lock().unwrap().clone()
    }
}

/// A [`TcpStream`] that copies both directions into a [`Tap`].
#[derive(Debug)]
struct TappedStream {
    inner: TcpStream,
    tap: Tap,
}

impl Read for TappedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.tap
            .received
            .lock()
            .unwrap()
            .extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Write for TappedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tap.sent.lock().unwrap().extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Sums the bytes belonging to frames with `tag`, tolerating a trailing
/// partial frame (faulted captures legitimately end mid-frame, where the
/// strict `frame_index` would refuse the whole capture).
fn tag_bytes_tolerant(capture: &[u8], tag: u8) -> u64 {
    let mut total = 0u64;
    let mut pos = 0usize;
    while capture.len() - pos >= 9 {
        let frame_tag = capture[pos];
        let len = u64::from_le_bytes(capture[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let end = pos + 9 + len;
        if frame_tag == tag {
            total += (capture.len().min(end) - pos) as u64;
        }
        if end > capture.len() {
            break;
        }
        pos = end;
    }
    total
}

/// Total wire length (header + payload) of the frame starting at `pos`.
fn frame_len_at(capture: &[u8], pos: usize) -> u64 {
    assert!(
        capture.len() >= pos + 9,
        "no complete frame header at {pos}"
    );
    9 + u64::from_le_bytes(capture[pos + 1..pos + 9].try_into().unwrap())
}

fn assert_bit_identical(
    got: &HashMap<String, Vec<f64>>,
    expected: &HashMap<String, Vec<f64>>,
    round: &str,
) {
    for (name, expected_values) in expected {
        let got_values = &got[name];
        assert_eq!(got_values.len(), expected_values.len());
        for (a, b) in got_values.iter().zip(expected_values) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "round {round}: output {name:?} deviates from the in-process executor"
            );
        }
    }
}

#[test]
fn retrying_client_survives_every_fault_class_bit_identically() {
    let app = eva_apps::image::sobel(8, 5);
    let compiled = compile(&app.program, &CompilerOptions::default()).unwrap();
    let inputs = app.inputs.clone();

    // The ground truth: one in-process encrypted execution under SEED.
    let mut in_process = EncryptedContext::setup(&compiled, Some(SEED)).unwrap();
    let bindings = in_process.encrypt_inputs(&compiled, &inputs).unwrap();
    let values = execute_parallel(in_process.evaluation(), &compiled, bindings, 2).unwrap();
    let expected = in_process.decrypt_outputs(&compiled, &values).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // One short read deadline for the whole run, so the stall of fault
    // class 1 trips it.
    let config = ServerConfig {
        read_deadline: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    };
    let server = EvaServer::with_config(compiled, config)
        .unwrap()
        .with_threads(2);
    let control = server.clone();
    let serve = std::thread::spawn(move || server.serve_forever(&listener));

    // The connector arms each new connection with whatever fault plan the
    // test staged (empty = clean) and keeps a tap on its traffic.
    let next_plan: Arc<Mutex<Vec<Fault>>> = Arc::default();
    let taps: Arc<Mutex<Vec<Tap>>> = Arc::default();
    let connector = {
        let next_plan = Arc::clone(&next_plan);
        let taps = Arc::clone(&taps);
        move |_attempt: u32| -> Result<ChaosStream<TappedStream>, ServiceError> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            let tap = Tap::default();
            taps.lock().unwrap().push(tap.clone());
            let plan = std::mem::take(&mut *next_plan.lock().unwrap());
            Ok(ChaosStream::new(TappedStream { inner: stream, tap }, plan))
        }
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        jitter: Duration::from_millis(10),
        seed: 9,
    };
    let mut client = ReliableClient::new(connector, SEED, policy).deterministic_for_tests();

    // ---- Phase 1: clean cold session (uploads keys, mints the ticket). ----
    let outputs = client.evaluate(&inputs).unwrap();
    assert_bit_identical(&outputs, &expected, "cold");
    client.ticket().expect("seeded sessions mint a ticket");

    // ---- Phase 2: clean warm reconnect — and the wire geometry lesson. ----
    client.disconnect();
    let outputs = client.evaluate(&inputs).unwrap();
    assert_bit_identical(&outputs, &expected, "warm");
    assert!(client.resumed());
    // Deterministic sessions repeat the same bytes, so the warm capture
    // gives exact offsets for aiming the faults: the resuming Hello frame
    // on the sent side, the Manifest frame (and thus where the Outputs
    // frame starts) on the received side.
    let (warm_sent, warm_received) = {
        let taps = taps.lock().unwrap();
        assert_eq!(taps.len(), 2, "two clean connections so far");
        (taps[1].sent(), taps[1].received())
    };
    assert_eq!(warm_sent[0], TAG_HELLO);
    let hello_len = frame_len_at(&warm_sent, 0);
    let manifest_len = frame_len_at(&warm_received, 0);
    assert_eq!(tag_bytes_tolerant(&warm_sent, TAG_EVAL_KEYS), 0);
    assert!(tag_bytes_tolerant(&warm_sent, TAG_INPUTS) > 1_000);

    // ---- Fault class 1: a mid-upload stall longer than the server's read
    // deadline. The server must cut the session; the retry completes. ----
    *next_plan.lock().unwrap() = vec![Fault::DelayWrite {
        at: hello_len + 40, // 40 bytes into the Inputs frame
        delay: Duration::from_secs(4),
    }];
    client.disconnect();
    let outputs = client.evaluate(&inputs).unwrap();
    assert_bit_identical(&outputs, &expected, "delay");

    // ---- Fault class 2: a short read — the Outputs frame ends early. ----
    *next_plan.lock().unwrap() = vec![Fault::TruncateRead {
        at: manifest_len + 60, // 60 bytes into the Outputs frame
    }];
    client.disconnect();
    let outputs = client.evaluate(&inputs).unwrap();
    assert_bit_identical(&outputs, &expected, "short-read");

    // ---- Fault class 3: a mid-frame disconnect while uploading inputs. ----
    *next_plan.lock().unwrap() = vec![Fault::DisconnectWrite { at: hello_len + 60 }];
    client.disconnect();
    let outputs = client.evaluate(&inputs).unwrap();
    assert_bit_identical(&outputs, &expected, "disconnect");

    // ---- Fault class 4: a bit flip in transit. Flipping bit 1 of the
    // Outputs frame tag (5 → 7) turns it into a Bye the client refuses. ----
    *next_plan.lock().unwrap() = vec![Fault::FlipReadBit {
        at: manifest_len, // the Outputs frame's tag byte
        bit: 1,
    }];
    client.disconnect();
    let outputs = client.evaluate(&inputs).unwrap();
    assert_bit_identical(&outputs, &expected, "bit-flip");

    // ---- The audits. ----
    // Every fault class needed exactly one retry, and every retry resumed.
    let stats = client.stats();
    assert_eq!(
        stats.retried_evaluations,
        4,
        "events: {:?}",
        client.events()
    );
    assert_eq!(stats.resumed_retries, 4);
    let resumed_events = client
        .events()
        .iter()
        .filter(|event| *event == "RETRY-RESUMED")
        .count();
    assert_eq!(resumed_events, 4, "events: {:?}", client.events());

    // Zero evaluation-key bytes after the cold session: not on the clean
    // warm reconnect, not on any faulted attempt, not on any retry.
    {
        let taps = taps.lock().unwrap();
        assert_eq!(taps.len(), 10, "2 clean + 4 × (faulted + retry)");
        assert!(tag_bytes_tolerant(&taps[0].sent(), TAG_EVAL_KEYS) > 100_000);
        for (index, tap) in taps.iter().enumerate().skip(1) {
            assert_eq!(
                tag_bytes_tolerant(&tap.sent(), TAG_EVAL_KEYS),
                0,
                "connection {index} re-uploaded key bytes"
            );
        }
    }

    client.finish().unwrap();
    control.begin_shutdown();
    serve
        .join()
        .unwrap()
        .expect("serve_forever returns cleanly after shutdown");
    let stats = control.stats();
    assert_eq!(stats.session_panics, 0);
    assert_eq!(stats.sessions_started, 10);
    assert!(stats.resumed_sessions >= 5, "stats: {stats:?}");
}
