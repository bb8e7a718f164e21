//! End-to-end integration tests: author → compile → encrypt → execute →
//! decrypt, compared against the reference semantics.

mod harness;

use std::collections::HashMap;

use eva::backend::{run_encrypted, run_reference};
use eva::frontend::ProgramBuilder;
use eva::ir::{compile, CompilerOptions};
use harness::{application, Encrypt, DEFAULT};

fn close(a: &[f64], b: &[f64], tolerance: f64) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < tolerance, "slot {i}: {x} vs {y}");
    }
}

#[test]
fn umbrella_compile_and_run_helper_works() {
    let mut builder = ProgramBuilder::new("helper", 16);
    let x = builder.input_cipher("x", 30);
    let y = &x * &x - &x + 0.5;
    builder.output("y", y, 30);
    let program = builder.build();

    let inputs = vec![("x".to_string(), vec![0.25; 16])];
    let outputs = eva::compile_and_run(&program, &inputs).unwrap();
    assert!((outputs["y"][0] - (0.0625 - 0.25 + 0.5)).abs() < 1e-3);
}

#[test]
fn statistics_kernel_with_rotations_end_to_end() {
    // Mean of 16 encrypted values via rotate-and-add reduction, a pattern the
    // fully-connected DNN kernels rely on.
    let size = 16;
    let mut builder = ProgramBuilder::new("mean", size);
    let x = builder.input_cipher("x", 30);
    let mut acc = x.clone();
    let mut shift = 1;
    while shift < size {
        acc = &acc + &acc.rotate_left(shift as i32);
        shift <<= 1;
    }
    let mean = &acc * (1.0 / size as f64);
    builder.output("mean", mean, 30);
    let program = builder.build();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();

    let values: Vec<f64> = (0..size).map(|i| i as f64 / 10.0).collect();
    let expected_mean = values.iter().sum::<f64>() / size as f64;
    let inputs: HashMap<String, Vec<f64>> = [("x".to_string(), values)].into_iter().collect();

    let reference = run_reference(&compiled.program, &inputs).unwrap();
    close(&reference["mean"], &vec![expected_mean; size], 1e-9);

    let encrypted = run_encrypted(&compiled, &inputs).unwrap();
    close(&encrypted["mean"], &reference["mean"], 1e-3);
}

/// An application, Harris 16×16 (`harris(16, 9)`), through the
/// differential harness: its default leg runs serially and at 2, 3 and 8
/// threads bit for bit, within 1e-2 of the detector computed apart from the
/// program. Sobel's legs run so in `optimizer_props.rs`.
#[test]
fn serial_and_parallel_executors_agree_on_an_application() {
    let harris = eva::apps::image::harris(16, 9);
    application(harris, Encrypt::Legs(&[DEFAULT]), None);
}

#[test]
fn regression_applications_run_encrypted() {
    for app in [
        eva::apps::regression::linear(64, 5),
        eva::apps::regression::polynomial(64, 6),
    ] {
        let compiled = compile(&app.program, &CompilerOptions::default()).unwrap();
        let outputs = run_encrypted(&compiled, &app.inputs).unwrap();
        for (name, expected) in &app.expected {
            close(&outputs[name], expected, app.tolerance);
        }
    }
}

/// Every Table-6 network loads on the service, except the two whose
/// evaluation keys would be one frame over the 1 GiB cap: those are refused
/// at load with a `key-frame` finding, without generating a key.
#[test]
fn networks_whose_keys_no_client_could_upload_are_refused_at_load() {
    use eva::service::{EvaServer, ServiceError};
    use eva::tensor::{all_networks, lower_network, LoweringMode};
    for network in all_networks(1) {
        let lowered = lower_network(&network, LoweringMode::Eva);
        let compiled = compile(&lowered.program, &CompilerOptions::default()).unwrap();
        let refused = ["LeNet-5-large", "SqueezeNet-CIFAR"].contains(&network.name.as_str());
        match EvaServer::new(compiled) {
            Ok(_) => assert!(!refused, "{} loads", network.name),
            Err(ServiceError::InvalidProgram(findings)) => {
                assert!(refused, "{}: {findings:?}", network.name);
                assert_eq!(findings.diagnostics[0].check, "key-frame", "{findings:?}");
            }
            Err(err) => panic!("{}: {err}", network.name),
        }
    }
}
