//! `report` — regenerate the tables and figures of the EVA paper's evaluation.
//!
//! ```text
//! cargo run --release -p eva-bench --bin report -- --all            # quick set
//! cargo run --release -p eva-bench --bin report -- --table 6
//! cargo run --release -p eva-bench --bin report -- --figure 7 --full
//! cargo run --release -p eva-bench --bin report -- --primitives     # BENCH_primitives.json
//! cargo run --release -p eva-bench --bin report -- --analysis       # verifier + noise budgets
//! cargo run --release -p eva-bench --bin report -- --cost           # BENCH_cost.json
//! cargo run --release -p eva-bench --bin report -- --wire           # BENCH_wire.json (sizes)
//! cargo run --release -p eva-bench --bin report -- --dot sobel.dot  # annotated graphviz dump
//! ```
//!
//! By default the encrypted-latency measurements (Tables 5, 7 and Figure 7)
//! only run the smaller networks so the report finishes in minutes on a
//! laptop; pass `--full` to measure every network of Table 3. An unknown flag,
//! table or figure, or an operand that does not parse, prints the usage line
//! and exits non-zero.

use std::time::Instant;

use eva_bench::*;
use eva_core::analysis::{estimate_noise, verify_compiled};
use eva_core::{
    compile, CompiledProgram, CompilerOptions, ModSwitchStrategy, Opcode, Program, RescaleStrategy,
};
use eva_tensor::all_networks;

#[derive(Debug)]
struct Options {
    tables: Vec<u32>,
    figures: Vec<u32>,
    full: bool,
    threads: usize,
    /// `Some(path)` when `--primitives [path]` was passed: time the arithmetic
    /// substrate kernels and write the JSON baseline to `path`.
    primitives: Option<String>,
    /// `Some(path)` when `--wire [path]` was passed: measure the encoded
    /// size of every wire object, writing `path`.
    wire: Option<String>,
    /// `--analysis`: time the static verifier and dump per-output worst-case
    /// noise budgets for the example circuits (Sobel, LeNet).
    analysis: bool,
    /// `Some(path)` when `--cost [path]` was passed: price the Sobel and
    /// LeNet-5-small circuits with the static cost model, run one audited
    /// encrypted execution of each and write the baseline to `path`.
    cost: Option<String>,
    /// `Some(path)` when `--dot [path]` was passed: write the Sobel circuit
    /// as annotated Graphviz DOT (level + noise budget per node) to `path`.
    dot: Option<String>,
}

const USAGE: &str = "usage: report [--all] [--full] [--threads N] [--table 3..8]... \
                     [--figure 2|3|5|7]... [--analysis] [--primitives [PATH]] [--wire [PATH]] \
                     [--cost [PATH]] [--dot [PATH]]";

/// The paper's tables and figures this binary reproduces.
const TABLES: [u32; 6] = [3, 4, 5, 6, 7, 8];
const FIGURES: [u32; 4] = [2, 3, 5, 7];

type Args<'a> = std::iter::Peekable<std::slice::Iter<'a, String>>;

/// The numeric operand of `flag`.
fn number<T: std::str::FromStr>(flag: &str, args: &mut Args) -> Result<T, String> {
    let operand = args
        .next()
        .ok_or_else(|| format!("{flag} needs a number"))?;
    operand
        .parse()
        .map_err(|_| format!("{flag}: `{operand}` is not a number"))
}

/// The operand of `--table` / `--figure`: one of the numbers in `valid`.
fn one_of(valid: &[u32], flag: &str, args: &mut Args) -> Result<u32, String> {
    let n = number(flag, args)?;
    if valid.contains(&n) {
        Ok(n)
    } else {
        Err(format!("no such {}: {n}", flag.trim_start_matches('-')))
    }
}

/// The optional path operand of a flag: the next argument unless it is
/// itself a flag, else the repo-root baseline file `default`.
fn path_or(default: &str, args: &mut Args) -> String {
    match args.peek() {
        Some(path) if !path.starts_with("--") => args.next().unwrap().clone(),
        _ => default.to_string(),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        tables: Vec::new(),
        figures: Vec::new(),
        full: false,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        primitives: None,
        wire: None,
        analysis: false,
        cost: None,
        dot: None,
    };
    let mut iter = args.iter().peekable();
    let mut all = args.is_empty();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--full" => options.full = true,
            "--table" => options.tables.push(one_of(&TABLES, arg, &mut iter)?),
            "--figure" => options.figures.push(one_of(&FIGURES, arg, &mut iter)?),
            "--threads" => options.threads = number(arg, &mut iter)?,
            "--primitives" => {
                options.primitives = Some(path_or("BENCH_primitives.json", &mut iter))
            }
            "--wire" => options.wire = Some(path_or("BENCH_wire.json", &mut iter)),
            "--analysis" => options.analysis = true,
            "--cost" => options.cost = Some(path_or("BENCH_cost.json", &mut iter)),
            "--dot" => options.dot = Some(path_or("sobel.dot", &mut iter)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all {
        options.tables = TABLES.to_vec();
        options.figures = FIGURES.to_vec();
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("report: {err}\n{USAGE}");
        std::process::exit(2);
    });

    if let Some(path) = &options.primitives {
        println!("== Arithmetic-substrate primitives (writing {path}) ==");
        let timings = measure_primitives(false);
        for t in &timings {
            println!(
                "{:<36} mean={:>10.3}µs min={:>10.3}µs ({} samples)",
                t.name, t.mean_us, t.min_us, t.samples
            );
        }
        if let Err(err) = std::fs::write(path, primitives_json(&timings)) {
            eprintln!("failed to write {path}: {err}");
        }
    }

    if let Some(path) = &options.wire {
        println!("== Wire object sizes (writing {path}) ==");
        let sizes = measure_wire_sizes();
        for entry in &sizes {
            println!("{:<32} {:>12} bytes", entry.name, entry.bytes);
        }
        if let Err(err) = std::fs::write(path, wire_json(&sizes)) {
            eprintln!("failed to write {path}: {err}");
        }
    }

    if let Some(path) = &options.cost {
        println!("== Static cost model vs measured execution (writing {path}) ==");
        let measurements = measure_cost();
        for m in &measurements {
            println!(
                "{:<16} nodes {:>5} -> {:<5} rotation steps {:>3} -> {:<3} key switches {:>4} -> {:<4}",
                m.name,
                m.unoptimized.nodes,
                m.optimized.nodes,
                m.unoptimized.distinct_rotation_steps,
                m.optimized.distinct_rotation_steps,
                m.unoptimized.key_switches,
                m.optimized.key_switches,
            );
            println!(
                "  predicted {:>12.1}µs  measured {:>12.1}µs  peak ciphertexts predicted {} audited {}  max error {:.2e}",
                m.optimized.predicted_us,
                m.measured_execute_us,
                m.forecast.peak_live_ciphertexts,
                m.audit.peak_live_ciphertexts,
                m.max_error,
            );
            assert!(
                m.forecast.peak_bytes >= m.audit.peak_bytes
                    && m.forecast.peak_live_ciphertexts >= m.audit.peak_live_ciphertexts,
                "{}: static forecast {:?} must upper-bound the audit {:?}",
                m.name,
                m.forecast,
                m.audit
            );
        }
        let json = cost_json(&measurements);
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("failed to write {path}: {err}");
        }
    }

    let networks = all_networks(42);
    let heavy_limit = if options.full { networks.len() } else { 1 };

    if options.analysis {
        println!("== Static analysis: verifier timing and worst-case noise budgets ==");
        let sobel = compile(
            &eva_apps::image::sobel_program(16),
            &CompilerOptions::default(),
        )
        .expect("sobel compiles");
        analysis_entry("sobel 16x16", &sobel);
        for network in networks.iter().take(heavy_limit) {
            let prepared = prepare_network(network);
            analysis_entry(&network.name, &prepared.eva.1);
        }
        if !options.full {
            println!("(pass --full to analyse every network of Table 3)");
        }
    }

    if let Some(path) = &options.dot {
        let sobel = compile(
            &eva_apps::image::sobel_program(16),
            &CompilerOptions::default(),
        )
        .expect("sobel compiles");
        let dot = sobel.to_dot();
        match std::fs::write(path, &dot) {
            Ok(()) => println!(
                "wrote annotated DOT for sobel 16x16 ({} nodes) to {path}",
                sobel.program.len()
            ),
            Err(err) => eprintln!("failed to write {path}: {err}"),
        }
    }

    for &figure in &options.figures {
        match figure {
            2 => figure2(),
            3 => figure3(),
            5 => figure5(),
            7 => {
                println!("\n== Figure 7: strong scaling of encrypted inference (CHET vs EVA) ==");
                let threads: Vec<usize> = (1..=options.threads).collect();
                for network in networks.iter().take(heavy_limit) {
                    let prepared = prepare_network(network);
                    for line in figure7_scaling(&prepared, &threads, 5) {
                        println!("{line}");
                    }
                }
                if !options.full {
                    println!("(pass --full to measure every network of Table 3)");
                }
            }
            other => unreachable!("parse_args admitted figure {other}"),
        }
    }

    for &table in &options.tables {
        match table {
            3 => {
                println!("\n== Table 3: networks used in the evaluation ==");
                for network in &networks {
                    println!("{}", table3_network_inventory(network));
                }
            }
            4 => {
                println!(
                    "\n== Table 4: input/output scales and accuracy (encrypted vs plaintext logits) =="
                );
                for (i, network) in networks.iter().enumerate() {
                    let prepared = prepare_network(network);
                    let (lowered, compiled) = &prepared.eva;
                    let measured = (i < heavy_limit).then(|| {
                        let image = random_image(network, 7);
                        measure_inference(lowered, compiled, network, &image, options.threads)
                    });
                    println!("{}", table4_accuracy(&prepared, measured.as_ref()));
                }
                if !options.full {
                    println!("(pass --full to measure the accuracy of every network of Table 3)");
                }
            }
            5 => {
                println!(
                    "\n== Table 5: encrypted inference latency (CHET vs EVA, {} threads) ==",
                    options.threads
                );
                for network in networks.iter().take(heavy_limit) {
                    let prepared = prepare_network(network);
                    println!("{}", table5_latency(&prepared, options.threads, 9));
                }
                if !options.full {
                    println!("(pass --full to measure every network of Table 3)");
                }
            }
            6 => {
                println!("\n== Table 6: encryption parameters selected (CHET vs EVA) ==");
                for network in &networks {
                    let prepared = prepare_network(network);
                    println!("{}", table6_parameters(&prepared));
                }
            }
            7 => {
                println!("\n== Table 7: compilation, context, encryption, decryption times ==");
                for network in networks.iter().take(heavy_limit) {
                    println!("{}", table7_compile_times(network, options.threads, 11));
                }
                if !options.full {
                    println!("(pass --full to measure every network of Table 3)");
                }
            }
            8 => {
                println!("\n== Table 8: arithmetic, statistical ML and image applications ==");
                let apps = eva_apps::all_applications(21);
                let limit = if options.full { apps.len() } else { 4 };
                for app in apps.iter().take(limit) {
                    println!("{}", table8_applications(app));
                }
                if !options.full {
                    println!("(pass --full to also measure the 64x64 Sobel and Harris kernels)");
                }
            }
            other => unreachable!("parse_args admitted table {other}"),
        }
    }
}

/// Times the verifier and the noise estimator on one compiled circuit and
/// prints the per-output worst-case budgets.
fn analysis_entry(label: &str, compiled: &CompiledProgram) {
    let start = Instant::now();
    let report = verify_compiled(compiled);
    let verify_time = start.elapsed();
    let start = Instant::now();
    let noise = estimate_noise(compiled);
    let noise_time = start.elapsed();
    println!(
        "{label:<24} {:>6} nodes  verify {:>9.2?} ({})  noise model {:>9.2?}",
        compiled.program.len(),
        verify_time,
        if report.is_clean() {
            "clean".to_string()
        } else {
            format!("{} errors", report.error_count())
        },
        noise_time,
    );
    for output in noise.output_budgets(&compiled.program) {
        println!(
            "  output {:<16} budget {:>7.1} bits   worst-case message error 2^{:.1}",
            output.name, output.budget_bits, output.message_error_log2
        );
    }
}

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

fn report_compilation(name: &str, program: &Program, options: &CompilerOptions) {
    match compile(program, options) {
        Ok(compiled) => println!(
            "{name:<30} rescale={:<2} modswitch={:<2} matchscale={:<2} relin={:<2} -> r={} log2Q={}",
            compiled.stats.rescales_inserted,
            compiled.stats.mod_switches_inserted,
            compiled.stats.scale_fixes_inserted,
            compiled.stats.relinearizations_inserted,
            compiled.parameters.chain_length(),
            compiled.parameters.total_bits()
        ),
        Err(err) => println!("{name:<30} does not compile: {err}"),
    }
}

fn figure2() {
    println!("\n== Figure 2: x^2 * y^3 under the rescale insertion strategies ==");
    report_compilation(
        "always-rescale + lazy",
        &x2y3(),
        &CompilerOptions {
            rescale: RescaleStrategy::Always,
            mod_switch: ModSwitchStrategy::Lazy,
            ..CompilerOptions::default()
        },
    );
    report_compilation(
        "waterline + eager (EVA)",
        &x2y3(),
        &CompilerOptions::default(),
    );
}

fn figure3() {
    println!("\n== Figure 3: x^2 + x — MATCH-SCALE avoids consuming a prime ==");
    let mut p = Program::new("x2_plus_x", 8);
    let x = p.input_cipher("x", 30);
    let x2 = p.instruction(Opcode::Multiply, &[x, x]);
    let sum = p.instruction(Opcode::Add, &[x2, x]);
    p.output("out", sum, 30);
    report_compilation("waterline + eager (EVA)", &p, &CompilerOptions::default());
}

fn figure5() {
    println!("\n== Figure 5: x^2 + x + x — eager vs lazy MODSWITCH insertion ==");
    let mut p = Program::new("x2xx", 8);
    let x = p.input_cipher("x", 60);
    let x2 = p.instruction(Opcode::Multiply, &[x, x]);
    let add1 = p.instruction(Opcode::Add, &[x2, x]);
    let add2 = p.instruction(Opcode::Add, &[add1, x]);
    p.output("out", add2, 60);
    report_compilation(
        "lazy modswitch",
        &p,
        &CompilerOptions {
            mod_switch: ModSwitchStrategy::Lazy,
            ..CompilerOptions::default()
        },
    );
    report_compilation("eager modswitch (EVA)", &p, &CompilerOptions::default());
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<super::Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn nonsense_is_an_error_not_a_warning() {
        assert!(parse(&["--service"]).unwrap_err().contains("unknown"));
        assert!(parse(&["--table", "99"]).unwrap_err().contains("99"));
        assert!(parse(&["--figure", "4"]).unwrap_err().contains("4"));
        assert!(parse(&["--threads", "x"]).unwrap_err().contains("`x`"));
        assert!(parse(&["--table"]).unwrap_err().contains("needs"));
    }

    #[test]
    fn path_operands_default_to_the_checked_in_baselines() {
        let options = parse(&["--wire"]).unwrap();
        assert_eq!(options.wire.as_deref(), Some("BENCH_wire.json"));
        let options = parse(&["--wire", "--cost", "now.json", "--table", "6"]).unwrap();
        assert_eq!(options.wire.as_deref(), Some("BENCH_wire.json"));
        assert_eq!(options.cost.as_deref(), Some("now.json"));
        assert_eq!(options.tables, [6]);
        let all = parse(&[]).unwrap();
        assert_eq!((all.tables.len(), all.figures.len()), (6, 4));
    }
}
