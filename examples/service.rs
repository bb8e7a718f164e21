//! Client/server deployment over a real localhost TCP socket: the paper's
//! Section 2 scenario end to end.
//!
//! A server thread loads a compiled program (encrypted Sobel edge detection
//! by default, LeNet-5 inference with `--lenet`); a client generates every
//! key locally, uploads only the evaluation keys, encrypts its input, and
//! decrypts the returned ciphertexts. The example then proves two things:
//!
//! 1. the decrypted results are **bit-identical** to the in-process
//!    encrypted executor under the same seed (and within the ≤ 1e-4
//!    regression bound of the plaintext reference),
//! 2. the secret key's bytes never appeared in either direction of the
//!    captured socket traffic (`secret-key-on-wire: CLEAN`),
//! 3. a **warm reconnect** resumes the server's cached evaluation keys via
//!    the session ticket: the second session's transcript carries **zero**
//!    evaluation-key bytes (`warm-reconnect-eval-key-bytes: 0`) while its
//!    outputs still match the in-process executor (numerically, not
//!    bitwise — resumed sessions deliberately draw fresh encryption
//!    randomness).
//!
//! Run with `cargo run --release --example service -- [image_side | --lenet]`.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use eva::backend::{execute_parallel, run_reference, EncryptedContext};
use eva::ir::{compile, CompilerOptions};
use eva::service::{
    bytes_with_tag, contains_bytes, EvaClient, EvaServer, RecordingStream, TAG_EVAL_KEYS,
    TAG_INPUTS,
};

const SEED: u64 = 7;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lenet = args.iter().any(|a| a == "--lenet");

    // ---- Compile the workload and prepare its inputs. -------------------
    let (compiled, inputs, label) = if lenet {
        let network = eva::tensor::networks::lenet5_small(1);
        let lowered = eva::tensor::lower_network(&network, eva::tensor::LoweringMode::Eva);
        let compiled = lowered.compile()?;
        let image = {
            use eva::tensor::Tensor;
            let (c, h, w) = network.input_shape;
            Tensor::from_data(
                c,
                h,
                w,
                (0..c * h * w)
                    .map(|i| ((i as f64) * 0.37).sin() * 0.5)
                    .collect(),
            )
        };
        let packed = eva::tensor::pack_input(&image, compiled.program.vec_size());
        let inputs: HashMap<String, Vec<f64>> =
            [(lowered.input_name.clone(), packed)].into_iter().collect();
        (compiled, inputs, "LeNet-5-small inference".to_string())
    } else {
        let n: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(16);
        let program = eva::apps::image::sobel_program(n);
        let compiled = compile(&program, &CompilerOptions::default())?;
        let mut image = vec![0.0f64; n * n];
        for i in n / 4..3 * n / 4 {
            for j in n / 4..3 * n / 4 {
                image[i * n + j] = 0.2;
            }
        }
        let inputs: HashMap<String, Vec<f64>> =
            [("image".to_string(), image)].into_iter().collect();
        (compiled, inputs, format!("{n}x{n} Sobel edge detection"))
    };
    println!(
        "workload: encrypted {label} ({} nodes, N = {}, r = {}, rotation keys = {})",
        compiled.program.len(),
        compiled.parameters.degree,
        compiled.parameters.chain_length(),
        compiled.rotation_steps.len(),
    );

    // ---- In-process encrypted run (same seed) as the ground truth. ------
    let mut in_process = EncryptedContext::setup(&compiled, Some(SEED))?;
    let bindings = in_process.encrypt_inputs(&compiled, &inputs)?;
    let values = execute_parallel(in_process.evaluation(), &compiled, bindings, 2)?;
    let expected = in_process.decrypt_outputs(&compiled, &values)?;
    let reference = run_reference(&compiled.program, &inputs)?;

    // ---- Serve the compiled program on a localhost socket. --------------
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!("server: listening on {addr}, keys stay client-side");
    let server = EvaServer::new(compiled.clone())?.with_threads(2);
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 2));

    // ---- Client session over an instrumented stream. --------------------
    let start = Instant::now();
    let stream = RecordingStream::new(TcpStream::connect(addr)?);
    // Deterministic mode (test/demo only): everything derives from SEED so
    // the socket run can be compared bit-for-bit with the in-process one.
    let mut client = EvaClient::handshake_deterministic(stream, SEED)?;
    println!(
        "client: handshake + key generation + evaluation-key upload took {:.2?}",
        start.elapsed()
    );
    let start = Instant::now();
    let outputs = client.evaluate(&inputs)?;
    println!("client: encrypted round trip took {:.2?}", start.elapsed());

    // ---- Verify against the in-process executor and the reference. ------
    let mut max_vs_reference = 0.0f64;
    for (name, got) in &outputs {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got),
            bits(&expected[name]),
            "service output {name:?} is not bit-identical to the in-process executor"
        );
        for (a, b) in got.iter().zip(&reference[name]) {
            max_vs_reference = max_vs_reference.max((a - b).abs());
        }
    }
    println!("max |service - plaintext reference| = {max_vs_reference:.2e}");
    println!("client/server outputs bit-identical to in-process executor");

    // ---- Leak audit: the secret key must never touch the socket. --------
    let probe = client.secret_key_probe();
    let ticket = client
        .resumption_ticket()
        .expect("seeded sessions mint a resumption ticket");
    let stream = client.finish()?;
    let (sent, received) = (stream.sent().to_vec(), stream.received().to_vec());
    println!(
        "traffic: {} bytes uploaded (hello + evaluation keys + seeded encrypted inputs), \
         {} bytes downloaded (manifest + encrypted outputs)",
        sent.len(),
        received.len()
    );
    println!(
        "traffic: evaluation keys {} bytes, inputs {} bytes (seeded EVAD transport)",
        bytes_with_tag(&sent, TAG_EVAL_KEYS)?,
        bytes_with_tag(&sent, TAG_INPUTS)?,
    );
    let leaked = probe
        .chunks(32)
        .any(|chunk| contains_bytes(&sent, chunk) || contains_bytes(&received, chunk));
    if leaked {
        println!("secret-key-on-wire: LEAKED");
        return Err("secret key bytes found in captured socket traffic".into());
    }
    println!("secret-key-on-wire: CLEAN");

    // ---- Warm reconnect: session resumption via cached evaluation keys. --
    // The ticket's seed re-derives the same keys; encryption randomness is
    // fresh OS entropy, so the warm outputs agree numerically (not bitwise)
    // with the first session.
    let start = Instant::now();
    let stream = RecordingStream::new(TcpStream::connect(addr)?);
    let mut client = EvaClient::handshake_resuming(stream, ticket)?;
    println!(
        "client: warm reconnect (resumed = {}) took {:.2?}",
        client.resumed(),
        start.elapsed()
    );
    if !client.resumed() {
        return Err("server did not resume the cached evaluation keys".into());
    }
    let warm_outputs = client.evaluate(&inputs)?;
    let mut max_warm = 0.0f64;
    for (name, got) in &warm_outputs {
        for (a, b) in got.iter().zip(&expected[name]) {
            max_warm = max_warm.max((a - b).abs());
        }
    }
    // Two independently-noised encryptions (deterministic cold run + fresh-
    // entropy warm run) can differ by the sum of two noise draws, so the
    // bound is twice the single-run one.
    assert!(
        max_warm <= 2e-4,
        "warm-reconnect outputs deviate from the in-process executor"
    );
    let stream = client.finish()?;
    let warm_sent = stream.sent().to_vec();
    let warm_key_bytes = bytes_with_tag(&warm_sent, TAG_EVAL_KEYS)?;
    println!(
        "traffic: warm session uploaded {} bytes total ({} input bytes)",
        warm_sent.len(),
        bytes_with_tag(&warm_sent, TAG_INPUTS)?,
    );
    println!("warm-reconnect-eval-key-bytes: {warm_key_bytes}");
    if warm_key_bytes != 0 {
        return Err("warm reconnect uploaded evaluation-key bytes".into());
    }
    println!("warm reconnect outputs match in-process executor (<=2e-4)");

    server_thread
        .join()
        .expect("server thread")?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    // ---- Load gate: a malformed `.evaprog` is refused, never served. ----
    // Corrupt the compiled program the way a broken (or hostile) producer
    // would — here by dropping a rotation step from the Galois-key request —
    // write it to disk, and show the server's verifier refusing the bundle
    // with named diagnostics instead of panicking mid-session.
    let mut corrupted = compiled.clone();
    corrupted.rotation_steps.remove(0);
    let path =
        std::env::temp_dir().join(format!("eva-service-demo-{}.evaprog", std::process::id()));
    std::fs::write(&path, eva::ir::serialize::compiled_to_bytes(&corrupted))?;
    match EvaServer::from_program_file(&path) {
        Err(eva::service::ServiceError::InvalidProgram(diagnostics)) => {
            println!(
                "malformed-program-load: REFUSED ({} finding(s): {})",
                diagnostics.diagnostics.len(),
                diagnostics
                    .diagnostics
                    .iter()
                    .map(|d| format!("[{}]", d.check))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        Err(other) => {
            std::fs::remove_file(&path).ok();
            return Err(format!("expected a verifier refusal, got: {other}").into());
        }
        Ok(_) => {
            std::fs::remove_file(&path).ok();
            return Err("malformed program was accepted by the load gate".into());
        }
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
