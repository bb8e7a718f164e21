//! The client's handshake validation against a scripted server on a socket
//! pair: a manifest whose prime chain fails `CkksParameters::from_primes`
//! at 128-bit security is refused as [`ServiceError::InvalidParameters`]
//! before any evaluation key is generated or sent.

use std::os::unix::net::UnixStream;

use eva_core::{compile, CompilerOptions, Opcode, Program};
use eva_service::protocol::{expect_message, read_message, write_message};
use eva_service::{EvaClient, Message, ProgramManifest, ServiceError};

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
