//! The whole-stack benchmark of the EVA reproduction (see `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark suite [--seed <n>] [--runs <k>] [--seconds <s>] [--trace] --out <file>
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! object as the last line of standard output; everything else goes to
//! standard error. The harness measures each layer from outside, through
//! public functions of the layer crates only.

mod cases;
mod inproc;
mod json;
mod layers;
mod replay;
mod run;
mod service;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inproc::{Exec, InProcess};
use json::Json;
use run::{Config, Outcome};
use spec::Spec;

/// The workloads, in the order `BENCHMARK.json` declares them.
const WORKLOADS: [&str; 4] = [
    "sobel_serial",
    "lenet_parallel",
    "service_warm",
    "service_cold",
];

/// Where result and trace files go: inside the benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        // A shallow program: nearly all of a query is eva-ckks kernels and
        // plaintext encoding, and the executor has nothing to schedule.
        "sobel_serial" => inproc::run(
            &InProcess {
                build: cases::sobel,
                exec: Exec::Serial,
                warmups: 5,
                min_timed: 10,
                setup_reps: 9,
            },
            cfg,
        ),
        // The same kernels under eva-backend's parallel executor: ready
        // queue, fan-out grouping, release of dead values, allocator traffic.
        // Three set-ups, the fewest a median can drop an outlier from: the
        // first is slow whenever the sandbox has to back 2.6 GB afresh.
        "lenet_parallel" => inproc::run(
            &InProcess {
                build: cases::lenet,
                exec: Exec::Parallel(sys::nproc()),
                warmups: 1,
                min_timed: 3,
                setup_reps: 3,
            },
            cfg,
        ),
        "service_warm" => service::run(service::Mode::Warm, cfg),
        "service_cold" => service::run(service::Mode::Cold, cfg),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {WORKLOADS:?}"
        )),
    }
}

/// The arguments of a single-workload run.
struct RunArgs {
    workload: String,
    cfg: Config,
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cfg.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        cfg,
    })
}

/// Runs one workload, writes its result file and prints the result line.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let RunArgs { workload, cfg } = parse_run_args(args, &spec)?;
    // Timings of an unoptimised build, or of one that checks every node's
    // scale while it runs, describe another program.
    if cfg!(debug_assertions) && !cfg.quick {
        return Err("this is a debug or debug-assertions build; build with --release".into());
    }

    let start = Instant::now();
    let outcome = run_workload(&workload, &cfg)?;
    let wall_s = start.elapsed().as_secs_f64();

    let mut metrics = Vec::new();
    for metric in spec.metrics(cfg.trace) {
        let value = *outcome
            .metrics
            .get(metric.name.as_str())
            .ok_or_else(|| format!("{workload} did not measure {}", metric.name))?;
        eprintln!("{:<26} {:>16.6} {}", metric.name, value, metric.unit);
        metrics.push((
            metric.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(metric.unit.clone())),
            ]),
        ));
    }
    for (name, value) in &outcome.detail {
        if !matches!(value, Json::Arr(_)) {
            eprintln!("{name:<26} {}", value.render());
        }
    }
    let tally = &outcome.tally;
    eprintln!(
        "{workload}: seed {} on {} hardware threads, {} answers checked, {} failed \
         (fail_share {}), {wall_s:.1} s in all",
        cfg.seed,
        sys::nproc(),
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    let mut file = vec![
        ("workload", Json::Str(workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("result", result.clone()),
        ("detail", Json::obj(outcome.detail.clone())),
    ];
    if cfg.trace {
        file.push(("self_time", trace::summarize(&outcome.spans)));
        file.push(("spans", trace::spans_json(&outcome.spans)));
    }
    let kind = if cfg.trace { "trace" } else { "result" };
    let path = out_dir().join(format!("{kind}_{workload}.json"));
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(&path, Json::obj(file).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    if tally.attempted == 0 {
        return Err("no query was attempted".into());
    }
    println!("{}", result.render());
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite::run(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        _ => run_one(&args),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke test of the issue: `service_warm` with five timed queries
    /// per client and `sobel_serial` with one, end to end under the profile
    /// `cargo test` builds with.
    #[test]
    fn quick_runs_of_a_service_and_an_in_process_workload_pass_their_checks() {
        let spec = Spec::load().unwrap();
        let cfg = Config {
            seed: 5,
            seconds: 0.001,
            trace: false,
            quick: true,
        };
        for workload in ["service_warm", "sobel_serial"] {
            let outcome = run_workload(workload, &cfg).unwrap();
            assert!(outcome.tally.attempted > 0, "{workload}");
            assert_eq!(outcome.tally.failed, 0, "{workload}");
            for metric in &spec.end_to_end {
                let value = outcome.metrics[metric.name.as_str()];
                assert!(value > 0.0, "{workload} {}: {value}", metric.name);
            }
        }
    }

    #[test]
    fn arguments_of_the_contract_parse_and_bad_ones_do_not() {
        let spec = Spec::load().unwrap();
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let parsed = parse_run_args(
            &args("--workload service_cold --seed 9 --seconds 3 --trace 1"),
            &spec,
        )
        .unwrap();
        assert_eq!(parsed.workload, "service_cold");
        assert_eq!(parsed.cfg.seed, 9);
        assert_eq!(parsed.cfg.seconds, 3.0);
        assert!(parsed.cfg.trace);
        for bad in [
            "--seed 1",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seed",
            "--workload x --frobnicate",
        ] {
            assert!(parse_run_args(&args(bad), &spec).is_err(), "{bad}");
        }
        let unknown = Config {
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: true,
        };
        assert!(run_workload("nope", &unknown).is_err());
    }
}
