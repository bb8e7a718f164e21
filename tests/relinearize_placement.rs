//! Demand-driven relinearization placement: a cipher-cipher product is
//! relinearized only when its value reaches a cipher-cipher multiply, a
//! rotation or a rescale. Where every product has such a consumer, programs
//! compile byte for byte as under the paper's eager rule; the pins below
//! are BLAKE2b-256 digests of `compiled_to_bytes` taken under that rule,
//! except the default-scale LeNet's, captured when the lowering began to
//! encode the activations at Table 4's scalar scale (10 bits, was 15). All
//! five were re-taken when `EVAS` v2 dropped the stored prime bit sizes:
//! each equals the digest of the earlier bundle with its spec rewritten in
//! the v2 layout, so only the layout moved.

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
            "a08827f05f52d9da07186e12e2b1772afedc702ac5de3649ddea841fa573d896",
        ),
        (
            "sobel64",
            compile(&sobel, &CompilerOptions::default()).unwrap(),
            4,
            "ba7559551a08bcc93fc2bbe1f21d875a08dedc6ba0f5ebfb4066849331273d34",
        ),
        (
            "sobel64 unoptimized",
            compile(&sobel, &CompilerOptions::unoptimized()).unwrap(),
            5,
            "010976eeece6658851aa01a100c5f35a6ddf6b332f3814110d265b6e5726372d",
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
            "60b3ef15cd51c08787ad2b839258c4fcddbe7e055791c47b0194ee36d786c965",
        ),
        (
            "lenet5_small",
            lower_network(&lenet5_small(42), LoweringMode::Eva)
                .compile()
                .unwrap(),
            4,
            "40448a4b66a13e059b40393f8e052e5003f9452ec62d83fcc619b49920cd355e",
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
