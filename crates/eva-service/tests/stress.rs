//! Reactor stress test: 64 simultaneous sessions multiplexed on one IO
//! thread, mixed cold and warm handshakes, every decrypted output
//! bit-identical to the in-process encrypted executor, nobody starved past
//! the read deadline and nothing panicking anywhere.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use eva_backend::{execute_parallel, EncryptedContext};
use eva_core::{compile, CompilerOptions, Opcode, Program};
use eva_service::{EvaClient, EvaServer};

const CONCURRENT_SESSIONS: usize = 64;
const EXECUTOR_THREADS: usize = 2;

/// A small rotation-free program (relinearization key only, no Galois
/// keys), so 64 cold handshakes stay cheap while still exercising real
/// ciphertext multiplication. The 60-bit input makes the waterline rescale
/// the square, which needs it relinearized; a 30-bit square would leave
/// unrelinearized and upload no key.
fn square_program() -> Program {
    let mut p = Program::new("square", 8);
    let x = p.input_cipher("x", 60);
    let sq = p.instruction(Opcode::Multiply, &[x, x]);
    p.output("out", sq, 30);
    p
}

/// Each seed group evaluates its own input vector, so a cross-session mixup
/// (wrong keys, wrong bindings, wrong completion routing) changes bits.
fn inputs_for_seed(seed: u64) -> HashMap<String, Vec<f64>> {
    let vals: Vec<f64> = (0..8)
        .map(|i| ((seed % 97) as f64) / 97.0 + (i as f64) / 16.0 - 0.5)
        .collect();
    [("x".to_string(), vals)].into_iter().collect()
}

/// The in-process encrypted baseline for one seed, per evaluation round:
/// each round draws further encryption randomness from the same
/// deterministic stream, exactly like a service client evaluating twice
/// over one session, so round r of a session compares against entry r.
fn expected_for_seed(
    compiled: &eva_core::CompiledProgram,
    seed: u64,
    rounds: usize,
) -> Vec<HashMap<String, Vec<f64>>> {
    let inputs = inputs_for_seed(seed);
    let mut ctx = EncryptedContext::setup(compiled, Some(seed)).unwrap();
    (0..rounds)
        .map(|_| {
            let bindings = ctx.encrypt_inputs(compiled, &inputs).unwrap();
            let values =
                execute_parallel(ctx.evaluation(), compiled, bindings, EXECUTOR_THREADS).unwrap();
            ctx.decrypt_outputs(compiled, &values).unwrap()
        })
        .collect()
}

fn assert_bit_identical(
    got: &HashMap<String, Vec<f64>>,
    expected: &HashMap<String, Vec<f64>>,
    what: &str,
) {
    for (name, expected_values) in expected {
        let got_values = &got[name];
        assert_eq!(got_values.len(), expected_values.len());
        for (i, (a, b)) in got_values.iter().zip(expected_values).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: output {name}[{i}] deviates from the in-process executor ({a} vs {b})"
            );
        }
    }
}

#[test]
fn sixty_four_concurrent_sessions_multiplex_without_starvation() {
    let compiled = compile(&square_program(), &CompilerOptions::default()).unwrap();
    assert!(compiled.needs_relinearization() && compiled.rotation_steps.is_empty());

    // Seed groups: one warm seed every client in the warm half resumes, and
    // three cold seeds cycled through the cold half. One in-process baseline
    // per seed is enough for bit-identity across all 64 sessions.
    let warm_seed = 500u64;
    let cold_seeds = [1001u64, 1002, 1003];
    let mut expected: HashMap<u64, Vec<HashMap<String, Vec<f64>>>> = HashMap::new();
    for seed in cold_seeds.iter().copied().chain([warm_seed]) {
        expected.insert(seed, expected_for_seed(&compiled, seed, 2));
    }
    let expected = Arc::new(expected);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // max_sessions defaults to exactly 64: every concurrent session must be
    // admitted (a single busy rejection fails the reports check below).
    let server = EvaServer::new(compiled)
        .unwrap()
        .with_threads(EXECUTOR_THREADS);
    let server_for_thread = server.clone();
    let server_thread = std::thread::spawn(move || {
        server_for_thread.serve_sessions(&listener, CONCURRENT_SESSIONS + 1)
    });

    // Priming session: one cold deterministic handshake with the warm seed,
    // so the concurrent warm half has cached keys to resume.
    let ticket = {
        let stream = TcpStream::connect(addr).unwrap();
        let mut client = EvaClient::handshake_deterministic(stream, warm_seed).unwrap();
        let outputs = client.evaluate(&inputs_for_seed(warm_seed)).unwrap();
        assert_bit_identical(&outputs, &expected[&warm_seed][0], "priming session");
        let ticket = client.resumption_ticket().unwrap();
        client.finish().unwrap();
        ticket
    };

    // 64 simultaneous sessions, released together: even indices resume the
    // cached keys (warm), odd indices run full cold handshakes with their
    // own seeds. Sessions alternate one and two evaluation rounds.
    let barrier = Arc::new(Barrier::new(CONCURRENT_SESSIONS));
    let started = Instant::now();
    let mut handles = Vec::new();
    for i in 0..CONCURRENT_SESSIONS {
        let barrier = Arc::clone(&barrier);
        let expected = Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let warm = i % 2 == 0;
            let seed = if warm {
                warm_seed
            } else {
                cold_seeds[(i / 2) % cold_seeds.len()]
            };
            let rounds = 1 + i % 2;
            barrier.wait();
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).ok();
            let mut client = if warm {
                EvaClient::handshake_resuming_deterministic(stream, ticket).unwrap()
            } else {
                EvaClient::handshake_deterministic(stream, seed).unwrap()
            };
            assert_eq!(client.resumed(), warm, "session {i} handshake mode");
            let inputs = inputs_for_seed(seed);
            for round in 0..rounds {
                let outputs = client.evaluate(&inputs).unwrap();
                assert_bit_identical(
                    &outputs,
                    &expected[&seed][round],
                    &format!("session {i} round {round}"),
                );
            }
            client.finish().unwrap();
            rounds
        }));
    }
    let mut total_rounds = 1usize; // the priming session's round
    for handle in handles {
        total_rounds += handle.join().expect("session thread panicked");
    }
    let elapsed = started.elapsed();

    let reports = server_thread.join().unwrap().unwrap();
    assert_eq!(reports.len(), CONCURRENT_SESSIONS + 1);
    let reports: Vec<_> = reports
        .into_iter()
        .map(|r| r.expect("session report"))
        .collect();
    let resumed = reports.iter().filter(|r| r.resumed).count();
    assert_eq!(resumed, CONCURRENT_SESSIONS / 2, "warm half resumed");
    let evaluations: usize = reports.iter().map(|r| r.evaluations).sum();
    assert_eq!(evaluations, total_rounds);

    // Starvation check: the multiplexer served everyone well inside the
    // 30-second per-message read deadline — no session sat unread long
    // enough to trip it (a starved session would have failed its unwrap
    // above with a deadline error anyway).
    let deadline = eva_service::ServerConfig::default()
        .read_deadline
        .expect("default config has a read deadline");
    assert!(
        elapsed < deadline,
        "concurrent phase took {elapsed:?}, past the {deadline:?} deadline"
    );

    let stats = server.stats();
    assert_eq!(stats.sessions_started, CONCURRENT_SESSIONS as u64 + 1);
    assert_eq!(stats.sessions_completed, CONCURRENT_SESSIONS as u64 + 1);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.session_panics, 0, "nothing may panic under load");
    assert_eq!(stats.busy_rejections, 0, "all 64 sessions fit the limit");
    assert_eq!(stats.evaluations, total_rounds as u64);
    assert_eq!(stats.queue_depth, 0, "scheduler queue drained");
    assert_eq!(stats.jobs_inflight, 0, "no evaluation left running");
}
