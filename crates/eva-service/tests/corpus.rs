//! The malformed-`.evaprog` corpus: the server's load gate, exercised file
//! by file.
//!
//! A server loads programs from disk with `EvaServer::from_program_file` and
//! must treat every byte of them as untrusted. This test materializes a
//! corpus next to the system temp dir — one valid bundle plus one variant
//! per corruption class — and asserts the gate's contract:
//!
//! * the valid bundle loads AND serves a real TCP session correctly;
//! * every mutated bundle is refused with the clean protocol-level
//!   [`ServiceError::InvalidProgram`] carrying the named check that fired —
//!   never a panic, never a partially-built server;
//! * byte-level garbage (truncation, bit flips, an empty file) is refused at
//!   the decode layer, also without panicking.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use eva_core::serialize::compiled_to_bytes;
use eva_core::{
    compile, CompiledProgram, CompilerOptions, ConstantValue, Opcode, Program, ValueType,
};
use eva_service::{EvaClient, EvaServer, ServiceError};

/// Same mixed workload as the localhost tests: rotations, relinearization,
/// plain operands and match-scale corrections all present, so every
/// corruption class below has something to corrupt.
fn mixed_program() -> Program {
    let mut p = Program::new("corpus", 16);
    let image = p.input_cipher("image", 30);
    let weights = p.input_vector("weights", 20);
    let c = p.constant(ConstantValue::Scalar(0.25), 20);
    let shifted = p.instruction(Opcode::RotateLeft(3), &[image]);
    let weighted = p.instruction(Opcode::Multiply, &[shifted, weights]);
    let scaled = p.instruction(Opcode::Multiply, &[weighted, c]);
    let sum = p.instruction(Opcode::Add, &[scaled, image]);
    let sq = p.instruction(Opcode::Multiply, &[sum, sum]);
    p.output("out", sq, 30);
    p
}

/// One corruption class: a name for the corpus file, the mutation, and the
/// verifier checks allowed to catch it (several can legitimately fire — see
/// `tests/verifier_props.rs` — but at least one of these must).
struct Corruption {
    name: &'static str,
    expected_checks: &'static [&'static str],
    mutate: fn(&mut CompiledProgram),
}

const CORRUPTIONS: &[Corruption] = &[
    Corruption {
        name: "swapped-arg",
        expected_checks: &["scale-match", "chain-conformity", "exact-scales"],
        mutate: |compiled| {
            let program = &mut compiled.program;
            let id = (0..program.len())
                .find(|&id| {
                    matches!(
                        program.opcode(id),
                        Some(Opcode::Add | Opcode::Sub | Opcode::Multiply)
                    ) && program
                        .args(id)
                        .iter()
                        .all(|&a| program.node(a).ty.is_cipher())
                        && !program.args(id).contains(&0)
                })
                .expect("cipher binary op");
            program.replace_arg_at(id, 1, 0);
        },
    },
    Corruption {
        name: "dropped-relinearize",
        expected_checks: &["relinearized", "exact-scales", "scale-match"],
        mutate: |compiled| {
            let program = &mut compiled.program;
            let relin = (0..program.len())
                .find(|&id| program.opcode(id) == Some(Opcode::Relinearize))
                .expect("relinearize node");
            let operand = program.args(relin)[0];
            for user in 0..program.len() {
                program.replace_arg(user, relin, operand);
            }
            program.redirect_outputs(relin, operand);
        },
    },
    Corruption {
        name: "deepened-rescale-chain",
        expected_checks: &["level-budget", "exact-scales"],
        mutate: |compiled| {
            for _ in 0..=compiled.parameters.data_primes.len() {
                let out = compiled.program.outputs()[0].node;
                let extra = compiled.program.push_instruction(
                    Opcode::Rescale(30),
                    vec![out],
                    ValueType::Cipher,
                );
                compiled.program.redirect_outputs(out, extra);
            }
        },
    },
    Corruption {
        name: "missing-rotation-key",
        expected_checks: &["rotation-keys"],
        mutate: |compiled| {
            assert!(!compiled.rotation_steps.is_empty());
            compiled.rotation_steps.remove(0);
        },
    },
    Corruption {
        name: "tampered-exact-scale",
        expected_checks: &["exact-scales"],
        mutate: |compiled| {
            let out = compiled.program.outputs()[0].node;
            let stamped = compiled.program.node(out).scale_log2;
            compiled.program.set_scale_log2(out, stamped + 1.0);
        },
    },
    Corruption {
        // A Galois key no instruction reads: every client would generate
        // and upload it.
        name: "unused-rotation-step",
        expected_checks: &["rotation-keys"],
        mutate: |compiled| {
            assert!(!compiled.rotation_steps.contains(&5));
            compiled.rotation_steps.push(5);
            compiled.rotation_steps.sort_unstable();
        },
    },
    // The `EVAS` decoder checks only the degree's range and the prime
    // count, so each tampered spec below decodes and reaches the verifier,
    // whose `parameters` check runs the backend's own chain validator.
    Corruption {
        // An unsupported (and unpackable) ring.
        name: "tampered-parameters",
        expected_checks: &["parameters"],
        mutate: |compiled| {
            compiled.parameters.degree = 512;
        },
    },
    Corruption {
        // Half the degree: the primes stay NTT-friendly, but the chain is
        // over the smaller ring's 128-bit budget.
        name: "over-budget-chain",
        expected_checks: &["parameters"],
        mutate: |compiled| {
            compiled.parameters.degree /= 2;
        },
    },
    Corruption {
        name: "non-ntt-friendly-special-prime",
        expected_checks: &["parameters"],
        mutate: |compiled| {
            compiled.parameters.special_prime += 2;
        },
    },
    Corruption {
        name: "repeated-prime",
        expected_checks: &["parameters"],
        mutate: |compiled| {
            compiled.parameters.special_prime = compiled.parameters.data_primes[0];
        },
    },
    Corruption {
        // Below the range every derived bit size assumes.
        name: "zero-special-prime",
        expected_checks: &["parameters"],
        mutate: |compiled| {
            compiled.parameters.special_prime = 0;
        },
    },
    Corruption {
        // A multiple of 3 that is ≡ 1 mod 2N like every prime of the chain.
        // The server's RNS basis would refuse it only when building the
        // context, as `InvalidParameters`.
        name: "composite-special-prime",
        expected_checks: &["parameters"],
        mutate: |compiled| {
            let spec = &mut compiled.parameters;
            let step = 2 * spec.degree as u64;
            spec.special_prime = (1..)
                .map(|j| spec.special_prime - j * step)
                .find(|q| q % 3 == 0)
                .unwrap();
        },
    },
    Corruption {
        // A Cipher-typed ADD of two plaintext operands: the declared type
        // lies about the operands, and the exact-scale replay has no cipher
        // operand to follow.
        name: "retyped-instruction",
        expected_checks: &["arg-indices"],
        mutate: |compiled| {
            let program = &mut compiled.program;
            let out = program.outputs()[0].node;
            let v = program.input_vector("v", 20);
            let lie = program.push_instruction(Opcode::Add, vec![v, v], ValueType::Cipher);
            let sum = program.push_instruction(Opcode::Add, vec![out, lie], ValueType::Cipher);
            program.redirect_outputs(out, sum);
        },
    },
];

/// Writes the corpus into a fresh per-process directory and returns
/// `(dir, valid_path, corrupted_paths)`.
fn materialize_corpus() -> (PathBuf, PathBuf, Vec<(PathBuf, &'static [&'static str])>) {
    let compiled = compile(&mixed_program(), &CompilerOptions::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("eva-evaprog-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let valid = dir.join("valid.evaprog");
    std::fs::write(&valid, compiled_to_bytes(&compiled)).unwrap();

    let mut corrupted = Vec::new();
    for corruption in CORRUPTIONS {
        let mut mutated = compiled.clone();
        (corruption.mutate)(&mut mutated);
        let path = dir.join(format!("{}.evaprog", corruption.name));
        std::fs::write(&path, compiled_to_bytes(&mutated)).unwrap();
        corrupted.push((path, corruption.expected_checks));
    }
    (dir, valid, corrupted)
}

#[test]
fn malformed_corpus_is_rejected_and_the_valid_bundle_serves() {
    let (dir, valid, corrupted) = materialize_corpus();

    // Every corrupted bundle decodes fine but is refused by the verifier
    // with a protocol-level error naming the check that fired.
    for (path, expected_checks) in &corrupted {
        let loaded = EvaServer::from_program_file(path);
        match loaded {
            Err(ServiceError::InvalidProgram(diagnostics)) => {
                assert!(!diagnostics.diagnostics.is_empty());
                assert!(
                    diagnostics
                        .diagnostics
                        .iter()
                        .any(|d| expected_checks.contains(&d.check.as_str())),
                    "{path:?}: expected one of {expected_checks:?}, got: {:?}",
                    diagnostics
                        .diagnostics
                        .iter()
                        .map(|d| d.check.as_str())
                        .collect::<Vec<_>>()
                );
            }
            Err(other) => panic!("{path:?}: wrong refusal {other}"),
            Ok(_) => panic!("{path:?}: malformed program was accepted"),
        }
    }

    // Byte-level garbage never reaches the verifier: the decoder refuses it
    // (and never panics).
    let valid_bytes = std::fs::read(&valid).unwrap();
    let truncated = dir.join("truncated.evaprog");
    std::fs::write(&truncated, &valid_bytes[..valid_bytes.len() / 2]).unwrap();
    let empty = dir.join("empty.evaprog");
    std::fs::write(&empty, []).unwrap();
    let mut flipped_bytes = valid_bytes.clone();
    flipped_bytes[8] ^= 0xff;
    let flipped = dir.join("bit-flipped.evaprog");
    std::fs::write(&flipped, &flipped_bytes).unwrap();
    for path in [&truncated, &empty, &flipped] {
        assert!(
            EvaServer::from_program_file(path).is_err(),
            "{path:?}: garbage bytes were accepted"
        );
    }

    // The valid bundle both loads and actually serves: full TCP round trip
    // against the reference semantics.
    let server = EvaServer::from_program_file(&valid)
        .unwrap()
        .with_threads(2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve_sessions(&listener, 1));

    let inputs: HashMap<String, Vec<f64>> = [
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
    .collect();
    let mut client = EvaClient::handshake(TcpStream::connect(addr).unwrap(), None).unwrap();
    let outputs = client.evaluate(&inputs).unwrap();
    client.finish().unwrap();
    server_thread.join().unwrap().unwrap();

    let program = mixed_program();
    let reference = eva_backend::run_reference(&program, &inputs).unwrap();
    for (a, b) in outputs["out"].iter().zip(&reference["out"]) {
        assert!((a - b).abs() <= 1e-3, "encrypted {a} vs reference {b}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
