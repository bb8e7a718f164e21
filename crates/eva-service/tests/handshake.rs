//! The client's validation of what a scripted server on a socket pair
//! sends: a manifest whose prime chain fails `CkksParameters::from_primes`
//! at 128-bit security is refused as [`ServiceError::InvalidParameters`]
//! before any evaluation key is generated or sent, and `Outputs` that the
//! manifest does not describe, or whose ciphertext is no element of the
//! ring, are refused as a [`ServiceError`] before anything is decrypted.

use std::collections::HashMap;
use std::os::unix::net::UnixStream;

use eva_ckks::{Ciphertext, CkksContext, CkksParameters};
use eva_core::{compile, CompilerOptions, Opcode, Program};
use eva_poly::{PolyForm, RnsPoly};
use eva_service::protocol::{expect_message, read_message, write_message};
use eva_service::{EvaClient, Message, ProgramManifest, ServiceError, ValuePayload};

/// The manifest a server publishes for `x + x`: no evaluation key, so a
/// client that accepts the chain goes straight to a (keyless) upload.
fn manifest() -> ProgramManifest {
    let mut p = Program::new("double", 8);
    let x = p.input_cipher("x", 30);
    let sum = p.instruction(Opcode::Add, &[x, x]);
    p.output("out", sum, 30);
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    ProgramManifest::from_compiled(&compiled).unwrap()
}

/// Plays the server's half of a handshake with `manifest`, and returns what
/// the client did next: `Ok(())` if the server saw the connection close
/// with no further frame, or the next message if one arrived.
fn scripted_handshake(
    manifest: ProgramManifest,
) -> (Result<(), Message>, Result<(), ServiceError>) {
    let (client_end, mut server_end) = UnixStream::pair().unwrap();
    let server = std::thread::spawn(move || {
        let Message::Hello { .. } = expect_message(&mut server_end).unwrap() else {
            panic!("expected Hello");
        };
        write_message(
            &mut server_end,
            &Message::Manifest {
                manifest: Box::new(manifest),
                keys_cached: false,
            },
        )
        .unwrap();
        match read_message(&mut server_end).unwrap() {
            None => Ok(()),
            Some(next) => Err(next),
        }
    });
    let client = EvaClient::handshake(client_end, Some(7)).map(drop);
    (server.join().unwrap(), client)
}

#[test]
fn a_valid_manifest_gets_an_upload() {
    let (server, client) = scripted_handshake(manifest());
    client.unwrap();
    assert!(
        matches!(server, Err(Message::EvalKeys { .. })),
        "{server:?}"
    );
}

#[test]
fn a_chain_over_the_security_budget_is_refused_before_keygen() {
    // The primes stay NTT-friendly for half the degree (q ≡ 1 mod 2N), but
    // half the degree admits about half the modulus bits.
    let mut over_budget = manifest();
    over_budget.degree /= 2;
    let (server, client) = scripted_handshake(over_budget);
    assert!(server.is_ok(), "the client sent {server:?}");
    match client {
        Err(ServiceError::InvalidParameters(msg)) => {
            assert!(msg.contains("128-bit security"), "{msg}")
        }
        other => panic!("expected InvalidParameters, got {other:?}"),
    }
}

#[test]
fn a_non_ntt_friendly_prime_is_refused_before_keygen() {
    let mut unfriendly = manifest();
    unfriendly.special_prime += 2;
    let (server, client) = scripted_handshake(unfriendly);
    assert!(server.is_ok(), "the client sent {server:?}");
    match client {
        Err(ServiceError::InvalidParameters(msg)) => {
            assert!(msg.contains("not NTT-friendly"), "{msg}")
        }
        other => panic!("expected InvalidParameters, got {other:?}"),
    }
}

/// Plays a server that answers the client's one round of inputs with
/// `outputs`, and returns what the client's `evaluate` made of them.
fn scripted_outputs(
    outputs: Vec<(String, ValuePayload)>,
) -> Result<HashMap<String, Vec<f64>>, ServiceError> {
    let (client_end, mut server_end) = UnixStream::pair().unwrap();
    let server = std::thread::spawn(move || {
        let Message::Hello { .. } = expect_message(&mut server_end).unwrap() else {
            panic!("expected Hello");
        };
        let manifest = Box::new(manifest());
        let hello = Message::Manifest {
            manifest,
            keys_cached: false,
        };
        write_message(&mut server_end, &hello).unwrap();
        let Message::EvalKeys { .. } = expect_message(&mut server_end).unwrap() else {
            panic!("expected EvalKeys");
        };
        let Message::Inputs(_) = expect_message(&mut server_end).unwrap() else {
            panic!("expected Inputs");
        };
        write_message(&mut server_end, &Message::Outputs(outputs)).unwrap();
    });
    let mut client = EvaClient::handshake(client_end, Some(7)).unwrap();
    let outputs = client.evaluate(&HashMap::from([("x".to_string(), vec![0.5])]));
    server.join().unwrap();
    outputs
}

/// A two-polynomial ciphertext of zeros over the manifest's chain, with
/// `limb` as its first residue word.
fn zero_output(limb: u64) -> ValuePayload {
    let m = manifest();
    let params = CkksParameters::from_primes(m.degree, &m.data_primes, m.special_prime, true);
    let context = CkksContext::new(params.unwrap()).unwrap();
    let level = context.max_level();
    let mut poly = RnsPoly::zero(context.degree(), level, PolyForm::Ntt);
    poly.residue_mut(0)[0] = limb;
    let ct = Ciphertext::from_parts(vec![poly.clone(), poly], 30.0, level);
    ValuePayload::Cipher(Box::new(ct))
}

#[test]
fn outputs_the_manifest_describes_are_decrypted() {
    let outputs = scripted_outputs(vec![("out".into(), zero_output(0))]).unwrap();
    assert_eq!(outputs["out"], vec![0.0; 8]);
}

#[test]
fn hostile_outputs_are_refused_before_decryption() {
    let out = |value| ("out".to_string(), value);
    let cases = [
        (
            vec![out(zero_output(u64::MAX))],
            "encrypted output \"out\" rejected: object does not fit the context: \
             non-canonical limb in residue row 0",
        ),
        (
            vec![out(zero_output(0)), ("bogus".into(), zero_output(0))],
            "output \"bogus\" does not match any live program output",
        ),
        (
            vec![("bogus".into(), zero_output(0))],
            "missing output value for \"out\"",
        ),
        (
            vec![out(ValuePayload::Plain(vec![1.0]))],
            "output \"out\" must be encrypted",
        ),
    ];
    for (outputs, want) in cases {
        match scripted_outputs(outputs) {
            Err(ServiceError::Protocol(msg)) => assert_eq!(msg, want),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
