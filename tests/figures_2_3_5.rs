//! Integration tests reproducing the paper's worked examples:
//! Figure 2 (x²y³), Figure 3 (x² + x) and Figure 5 (x² + x + x).

use eva::ir::passes::{
    insert_always_rescale, insert_eager_modswitch, insert_lazy_modswitch, insert_match_scale,
    insert_relinearize, insert_waterline_rescale,
};
use eva::ir::{compile, CompilerOptions, ModSwitchStrategy, Opcode, Program, RescaleStrategy};

fn x2y3(x_scale: u32, y_scale: u32) -> Program {
    let mut p = Program::new("x2y3", 8);
    let x = p.input_cipher("x", x_scale);
    let y = p.input_cipher("y", y_scale);
    let x2 = p.instruction(Opcode::Multiply, &[x, x]);
    let y2 = p.instruction(Opcode::Multiply, &[y, y]);
    let y3 = p.instruction(Opcode::Multiply, &[y2, y]);
    let out = p.instruction(Opcode::Multiply, &[x2, y3]);
    p.output("out", out, 30);
    p
}

fn x2_plus_x() -> Program {
    let mut p = Program::new("x2_plus_x", 8);
    let x = p.input_cipher("x", 30);
    let x2 = p.instruction(Opcode::Multiply, &[x, x]);
    let sum = p.instruction(Opcode::Add, &[x2, x]);
    p.output("out", sum, 30);
    p
}

fn x2_plus_x_plus_x() -> Program {
    let mut p = Program::new("x2xx", 8);
    let x = p.input_cipher("x", 60);
    let x2 = p.instruction(Opcode::Multiply, &[x, x]);
    let add1 = p.instruction(Opcode::Add, &[x2, x]);
    let add2 = p.instruction(Opcode::Add, &[add1, x]);
    p.output("out", add2, 60);
    p
}

#[test]
fn figure_2_waterline_beats_always_rescale() {
    // Figure 2(b): always-rescale inserts one rescale per multiplication.
    let mut always = x2y3(60, 30);
    assert_eq!(insert_always_rescale(&mut always), 4);

    // Figure 2(d): waterline rescaling only needs two.
    let mut waterline = x2y3(60, 30);
    assert_eq!(insert_waterline_rescale(&mut waterline), 2);

    // Figure 2(e): every product feeds a multiply or a rescale, so each is
    // relinearized.
    assert_eq!(insert_relinearize(&mut waterline), 4);
    let histogram = waterline.opcode_histogram();
    assert_eq!(histogram.get("rescale"), Some(&2));
    assert_eq!(histogram.get("relinearize"), Some(&4));
}

#[test]
fn figure_3_match_scale_avoids_extra_primes() {
    // Figure 3(b): solving the scale mismatch with rescale + modswitch consumes
    // a modulus prime; Figure 3(c)'s MATCH-SCALE multiplication does not.
    let mut with_match_scale = x2_plus_x();
    assert_eq!(insert_waterline_rescale(&mut with_match_scale), 0);
    assert_eq!(insert_match_scale(&mut with_match_scale), 1);
    let compiled = compile(&x2_plus_x(), &CompilerOptions::default()).unwrap();
    // The compiled program consumes no primes before the output tail: the chain
    // holds only the output-scale primes plus the special prime.
    let rescale_like = compiled
        .program
        .opcode_histogram()
        .get("rescale")
        .copied()
        .unwrap_or(0)
        + compiled
            .program
            .opcode_histogram()
            .get("mod_switch")
            .copied()
            .unwrap_or(0);
    assert_eq!(
        rescale_like, 0,
        "MATCH-SCALE must not consume modulus primes"
    );
    assert_eq!(compiled.stats.scale_fixes_inserted, 1);
    // The square reaches the output through the ADD only, so it leaves
    // unrelinearized and the program needs no relinearization key.
    assert_eq!(compiled.stats.relinearizations_inserted, 0);
    assert!(!compiled.needs_relinearization());
}

#[test]
fn figure_5_eager_shares_modswitch_lazy_duplicates_it() {
    let mut eager = x2_plus_x_plus_x();
    insert_waterline_rescale(&mut eager);
    let eager_count = insert_eager_modswitch(&mut eager);

    let mut lazy = x2_plus_x_plus_x();
    insert_waterline_rescale(&mut lazy);
    let lazy_count = insert_lazy_modswitch(&mut lazy);

    assert_eq!(eager_count, 1, "Figure 5(c): one shared MODSWITCH");
    assert_eq!(lazy_count, 2, "Figure 5(b): one MODSWITCH per ADD");
}

#[test]
fn compiled_programs_always_validate_across_strategies() {
    for program in [x2y3(60, 30), x2y3(40, 25), x2_plus_x(), x2_plus_x_plus_x()] {
        for mod_switch in [ModSwitchStrategy::Eager, ModSwitchStrategy::Lazy] {
            let options = CompilerOptions {
                rescale: RescaleStrategy::Waterline,
                mod_switch,
                ..CompilerOptions::default()
            };
            let compiled = compile(&program, &options).expect("compilation must succeed");
            assert!(compiled.parameters.chain_length() >= 2);
        }
    }
}
