//! Demand-driven relinearization placement: a cipher-cipher product is
//! relinearized only when its value reaches a cipher-cipher multiply, a
//! rotation or a rescale. Where every product has such a consumer, programs
//! compile byte for byte as under the paper's eager rule; the pins below
//! are BLAKE2b-256 digests of `compiled_to_bytes` taken under that rule,
//! except the default-scale LeNet's, captured when the lowering began to
//! encode the activations at Table 4's scalar scale (10 bits, was 15).

use eva::ir::serialize::compiled_to_bytes;
use eva::ir::{compile, CompiledProgram, CompilerOptions, Opcode, Program};
use eva::tensor::{
    lower_network, lower_network_with_scales, networks::lenet5_small, LoweringMode, ScaleConfig,
};
use eva::wire::fingerprint::Blake2b256;

fn digest(compiled: &CompiledProgram) -> String {
    Blake2b256::digest(&compiled_to_bytes(compiled))
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Paper Figure 2's x²y³.
fn x2y3() -> Program {
    let mut p = Program::new("x2y3", 8);
    let x = p.input_cipher("x", 60);
    let y = p.input_cipher("y", 30);
    let x2 = p.instruction(Opcode::Multiply, &[x, x]);
    let y2 = p.instruction(Opcode::Multiply, &[y, y]);
    let y3 = p.instruction(Opcode::Multiply, &[y2, y]);
    let out = p.instruction(Opcode::Multiply, &[x2, y3]);
    p.output("out", out, 30);
    p
}

#[test]
fn programs_whose_every_product_needs_relinearizing_compile_as_before() {
    let sobel = eva::apps::image::sobel_program(64);
    let cases = [
        (
            "x2y3",
            compile(&x2y3(), &CompilerOptions::default()).unwrap(),
            4,
            "d26af1f009dce2c3ccd8fd0069035f9762f4d2a0ee6c9e8bd594bb3ffda77bb1",
        ),
        (
            "sobel64",
            compile(&sobel, &CompilerOptions::default()).unwrap(),
            4,
            "2cdbe367b1c238c52957a1f0aa7e623af555716f25e415db14650fb715e58e31",
        ),
        (
            "sobel64 unoptimized",
            compile(&sobel, &CompilerOptions::unoptimized()).unwrap(),
            5,
            "eabd143b27f95045a437d0935f0509e72fcc65357543d16caad605fff524f9b1",
        ),
        (
            "lenet5_small, activations at the vector scale",
            lower_network_with_scales(
                &lenet5_small(42),
                LoweringMode::Eva,
                ScaleConfig {
                    scalar: 15,
                    ..ScaleConfig::eva_default()
                },
            )
            .compile()
            .unwrap(),
            4,
            "a2661a741c83858fda1e605890bdbd11bc91fd3c45ac1e58053eb263b066652b",
        ),
        (
            "lenet5_small",
            lower_network(&lenet5_small(42), LoweringMode::Eva)
                .compile()
                .unwrap(),
            4,
            "33c3c1a1ef123a69ade0e30b7dfec76b852d98f16bad210d9a9105e554cfc1cb",
        ),
    ];
    for (name, compiled, relinearizations, pinned) in cases {
        assert_eq!(
            compiled.stats.relinearizations_inserted, relinearizations,
            "{name}"
        );
        assert_eq!(digest(&compiled), pinned, "{name}");
    }
}

#[test]
fn harris_relinearizes_only_the_products_that_feed_a_rescale_or_product() {
    // Under the eager rule Harris relinearized six products; two of them
    // reach the output only through operations that accept three
    // polynomials.
    for n in [16, 64] {
        let program = eva::apps::image::harris_program(n);
        for options in [CompilerOptions::default(), CompilerOptions::unoptimized()] {
            let compiled = compile(&program, &options).unwrap();
            assert_eq!(compiled.stats.relinearizations_inserted, 4, "harris {n}");
            assert!(compiled.needs_relinearization());
        }
    }
}
