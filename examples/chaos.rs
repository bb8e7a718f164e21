//! Fault-tolerant deployment demo: a retrying client completes encrypted
//! Sobel edge detection **bit-identically** through injected transport
//! faults — delays past the server's read deadline, short reads, mid-frame
//! disconnects and in-transit bit flips — and a full server restart.
//!
//! The pieces on display:
//!
//! 1. [`ReliableClient`] retries transient failures with bounded
//!    exponential backoff + jitter, re-handshaking through the session
//!    ticket so every retry resumes the server's cached evaluation keys
//!    (`RETRY-RESUMED` events, `retry-eval-key-bytes: 0`);
//! 2. [`ChaosStream`] injects each fault class at a deterministic byte
//!    offset, so every recovery shown here is reproducible;
//! 3. the server's [`DiskKeyStore`] persists uploaded keys under their
//!    content fingerprint, so a **restarted** server still resumes warm
//!    (`restart-eval-key-bytes: 0`) — the fingerprint is re-verified on
//!    load, never trusted.
//!
//! Run with `cargo run --release --example chaos -- [image_side]`.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eva::backend::{execute_parallel, EncryptedContext};
use eva::ir::{compile, CompilerOptions};
use eva::service::{
    bytes_with_tag, frame_index, ChaosStream, EvaClient, EvaServer, Fault, RecordingStream,
    ReliableClient, RetryPolicy, ServerConfig, ServiceError, TAG_EVAL_KEYS,
};

const SEED: u64 = 7;

fn bit_identical(got: &HashMap<String, Vec<f64>>, expected: &HashMap<String, Vec<f64>>) -> bool {
    expected.iter().all(|(name, want)| {
        got.get(name).is_some_and(|have| {
            have.len() == want.len()
                && have
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .skip(1)
        .find_map(|a| a.parse().ok())
        .unwrap_or(16);
    let program = eva::apps::image::sobel_program(n);
    let compiled = compile(&program, &CompilerOptions::default())?;
    let mut image = vec![0.0f64; n * n];
    for i in n / 4..3 * n / 4 {
        for j in n / 4..3 * n / 4 {
            image[i * n + j] = 0.2;
        }
    }
    let inputs: HashMap<String, Vec<f64>> = [("image".to_string(), image)].into_iter().collect();
    println!(
        "workload: encrypted {n}x{n} Sobel ({} nodes, N = {})",
        compiled.program.len(),
        compiled.parameters.degree,
    );

    // In-process encrypted run under the same seed: the bit-level oracle
    // every recovered evaluation below is compared against.
    let mut in_process = EncryptedContext::setup(&compiled, Some(SEED))?;
    let bindings = in_process.encrypt_inputs(&compiled, &inputs)?;
    let values = execute_parallel(in_process.evaluation(), &compiled, bindings, 2)?;
    let expected = in_process.decrypt_outputs(&compiled, &values)?;

    // ---- Server with a disk-backed key store under the memory cache. ----
    let store_dir = std::env::temp_dir().join(format!("eva-chaos-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // The read deadline is short enough for the delay fault below to trip.
    let server = EvaServer::with_config(
        compiled.clone(),
        ServerConfig {
            read_deadline: Some(Duration::from_millis(1500)),
            key_store: Some(store_dir.clone()),
            ..ServerConfig::default()
        },
    )?
    .with_threads(2);
    let control = server.clone();
    let serve = std::thread::spawn(move || server.serve_forever(&listener));
    println!(
        "server: listening on {addr}, key store at {}",
        store_dir.display()
    );

    // ---- Cold session: upload keys, mint the resumption ticket. ---------
    let stream = RecordingStream::new(TcpStream::connect(addr)?);
    let mut client = EvaClient::handshake_deterministic(stream, SEED)?;
    let ticket = client
        .resumption_ticket()
        .expect("seeded sessions mint a resumption ticket");
    let outputs = client.evaluate(&inputs)?;
    if !bit_identical(&outputs, &expected) {
        return Err("cold session deviates from the in-process executor".into());
    }
    let cold_sent = client.finish()?.into_parts().1;
    println!(
        "cold session: {} evaluation-key bytes uploaded, outputs bit-identical",
        bytes_with_tag(&cold_sent, TAG_EVAL_KEYS)?
    );

    // ---- Clean warm session: zero key bytes, and the wire geometry the
    // fault plans below aim at (deterministic sessions repeat exactly). ----
    let stream = RecordingStream::new(TcpStream::connect(addr)?);
    let mut client = EvaClient::handshake_resuming_deterministic(stream, ticket)?;
    let outputs = client.evaluate(&inputs)?;
    if !bit_identical(&outputs, &expected) {
        return Err("warm session deviates from the in-process executor".into());
    }
    let (_, warm_sent, warm_received) = client.finish()?.into_parts();
    println!(
        "warm-reconnect-eval-key-bytes: {}",
        bytes_with_tag(&warm_sent, TAG_EVAL_KEYS)?
    );
    // Sent side: the resuming Hello frame, then Inputs. Received side: the
    // Manifest frame, then Outputs. Header = 1 tag byte + 8 length bytes.
    let hello_len = 9 + frame_index(&warm_sent)?[0].1;
    let manifest_len = 9 + frame_index(&warm_received)?[0].1;

    // ---- The retrying client, with a fault plan staged per connection. --
    let next_plan: Arc<Mutex<Vec<Fault>>> = Arc::default();
    let stage = Arc::clone(&next_plan);
    let connector = move |_attempt: u32| -> Result<_, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let plan = std::mem::take(&mut *next_plan.lock().unwrap());
        Ok(ChaosStream::new(RecordingStream::new(stream), plan))
    };
    let mut client = ReliableClient::new(connector, SEED, RetryPolicy::default())
        .with_ticket(ticket)
        .deterministic_for_tests();

    let rounds: [(&str, Vec<Fault>); 4] = [
        (
            "delay (stall past the server's read deadline)",
            vec![Fault::DelayWrite {
                at: hello_len + 40,
                delay: Duration::from_secs(3),
            }],
        ),
        (
            "short read (Outputs frame truncated)",
            vec![Fault::TruncateRead {
                at: manifest_len + 60,
            }],
        ),
        (
            "mid-frame disconnect (while uploading inputs)",
            vec![Fault::DisconnectWrite { at: hello_len + 60 }],
        ),
        (
            "bit flip (Outputs frame tag corrupted in transit)",
            vec![Fault::FlipReadBit {
                at: manifest_len,
                bit: 1,
            }],
        ),
    ];
    for (label, plan) in rounds {
        *stage.lock().unwrap() = plan;
        client.disconnect();
        let start = Instant::now();
        let outputs = client.evaluate(&inputs)?;
        if !bit_identical(&outputs, &expected) {
            return Err(format!("fault `{label}`: recovered outputs deviate").into());
        }
        println!(
            "fault {label}: recovered in {:.2?}, outputs bit-identical",
            start.elapsed()
        );
    }

    for event in client.events() {
        println!("event: {event}");
    }
    let stats = client.stats();
    println!(
        "retry stats: {} attempts, {} retried evaluations, {} resumed retries",
        stats.attempts, stats.retried_evaluations, stats.resumed_retries
    );
    if stats.resumed_retries < 4 {
        return Err("not every fault class recovered through a resumed retry".into());
    }

    // The last retried session's upload: zero evaluation-key bytes.
    let last = client
        .finish()?
        .expect("a live session after the final round");
    let retry_sent = last.into_inner().into_parts().1;
    let retry_key_bytes = bytes_with_tag(&retry_sent, TAG_EVAL_KEYS)?;
    println!("retry-eval-key-bytes: {retry_key_bytes}");
    if retry_key_bytes != 0 {
        return Err("a retried session re-uploaded evaluation-key bytes".into());
    }

    control.begin_shutdown();
    serve.join().expect("serve thread")?;
    let stats = control.stats();
    println!(
        "server stats: {} sessions ({} resumed, {} failed, {} panics), {} evaluations",
        stats.sessions_started,
        stats.resumed_sessions,
        stats.sessions_failed,
        stats.session_panics,
        stats.evaluations
    );

    // ---- Restart: a brand-new server process state, same store dir. -----
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = EvaServer::with_config(
        compiled,
        ServerConfig {
            key_store: Some(store_dir.clone()),
            ..ServerConfig::default()
        },
    )?
    .with_threads(2);
    let control = server.clone();
    let serve = std::thread::spawn(move || server.serve_forever(&listener));
    let stream = RecordingStream::new(TcpStream::connect(addr)?);
    let mut client = EvaClient::handshake_resuming_deterministic(stream, ticket)?;
    println!("restart-warm-resumed: {}", client.resumed());
    if !client.resumed() {
        return Err("restarted server did not resume from the disk store".into());
    }
    let outputs = client.evaluate(&inputs)?;
    if !bit_identical(&outputs, &expected) {
        return Err("post-restart session deviates from the in-process executor".into());
    }
    let restart_sent = client.finish()?.into_parts().1;
    let restart_key_bytes = bytes_with_tag(&restart_sent, TAG_EVAL_KEYS)?;
    println!("restart-eval-key-bytes: {restart_key_bytes}");
    if restart_key_bytes != 0 {
        return Err("post-restart resumption uploaded evaluation-key bytes".into());
    }
    println!(
        "restart resumption served from disk ({} disk resumption(s))",
        control.stats().disk_resumptions
    );
    control.begin_shutdown();
    serve.join().expect("serve thread")?;
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
