//! Every workload in one command, and the comparison of two such runs.
//!
//! `suite` re-executes this binary once per workload and run, so that each
//! workload's peak memory and CPU time are its own process's, and gathers
//! the result files into one. `compare` judges two of those files by the
//! directions and bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::spec::{Better, Metric, Spec};
use crate::stats::{median, spread_share};
use crate::{out_dir, sys};

/// First line of a command's output, or "unknown" if it cannot be run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends the `value` of every metric in a result line to `into`.
fn gather(result: &Json, into: &mut BTreeMap<String, Vec<Json>>) {
    let metrics = result.get("metrics").and_then(Json::as_obj);
    for (name, metric) in metrics.into_iter().flatten() {
        if let Some(value) = metric.get("value") {
            into.entry(name.clone()).or_default().push(value.clone());
        }
    }
}

/// `benchmark suite`: all workloads, `--runs` times each with seeds
/// `--seed`, `--seed`+1, …, untraced and, with `--trace`, traced as well.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let (mut seed, mut runs, mut seconds, mut trace, mut out) =
        (1u64, 1u64, spec.run_seconds, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let out = out.ok_or("suite needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut any_failed = false;
    let mut workloads = BTreeMap::new();
    for workload in &spec.workloads {
        let mut metrics = BTreeMap::new();
        let mut layers = BTreeMap::new();
        let mut exact = BTreeMap::new();
        let (mut wall_s, mut attempted, mut failed) = (Vec::new(), Vec::new(), Vec::new());
        for run in 0..runs {
            for traced in [false, true] {
                if traced && !trace {
                    continue;
                }
                let status = Command::new(&exe)
                    .args(["--workload", &workload.name])
                    .args(["--seed", &(seed + run).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let kind = if traced { "trace" } else { "result" };
                if status.code() == Some(2) {
                    return Err(format!("{} ({kind}) could not run", workload.name));
                }
                let file = read_json(&out_dir().join(format!("{kind}_{}.json", workload.name)))?;
                let result = file.get("result").ok_or("a result file has no result")?;
                gather(result, if traced { &mut layers } else { &mut metrics });
                any_failed |= result.get("failed").and_then(Json::as_f64) != Some(0.0);
                if !traced {
                    wall_s.extend(file.get("wall_s").cloned());
                    attempted.extend(result.get("attempted").cloned());
                    failed.extend(result.get("failed").cloned());
                }
                // Facts that must repeat exactly are kept from the first
                // seed only: later seeds have other inputs.
                if run == 0 {
                    let digest = file.get("detail").and_then(|d| d.get("output_digest"));
                    if let Some(digest) = digest {
                        exact.insert("output_digest".to_string(), digest.clone());
                    }
                    if traced {
                        for metric in spec.per_layer.iter().filter(|m| m.unit == "count") {
                            let values = &layers[&metric.name];
                            exact.insert(metric.name.clone(), values[0].clone());
                        }
                    }
                }
            }
        }
        let lists = |map: BTreeMap<String, Vec<Json>>| {
            Json::Obj(map.into_iter().map(|(k, v)| (k, Json::Arr(v))).collect())
        };
        workloads.insert(
            workload.name.clone(),
            Json::obj([
                ("wall_s", Json::Arr(wall_s)),
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
                ("metrics", lists(metrics)),
                ("layers", lists(layers)),
                ("exact", Json::Obj(exact)),
            ]),
        );
    }

    let file = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&out, file.render() + "\n").map_err(|e| format!("{out}: {e}"))?;
    print_summary(&spec, &file);
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn numbers(list: Option<&Json>) -> Vec<f64> {
    list.and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(Json::as_f64)
        .collect()
}

/// Every metric of a suite file by name, with its unit: median, and the
/// run-to-run spread when there are runs to take it from.
fn print_summary(spec: &Spec, file: &Json) {
    for workload in &spec.workloads {
        let Some(entry) = file.get("workloads").and_then(|w| w.get(&workload.name)) else {
            continue;
        };
        println!("{}", workload.name);
        for (section, list) in [("metrics", &spec.end_to_end), ("layers", &spec.per_layer)] {
            for metric in list {
                let values = numbers(entry.get(section).and_then(|s| s.get(&metric.name)));
                if values.is_empty() {
                    continue;
                }
                let spread = spread_share(&values)
                    .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
                println!(
                    "  {:<26} {:>16.6} {}{spread}",
                    metric.name,
                    median(&values),
                    metric.unit
                );
            }
        }
        let failed: f64 = numbers(entry.get("failed")).iter().sum();
        let attempted: f64 = numbers(entry.get("attempted")).iter().sum();
        println!(
            "  {:<26} {:>16.6}",
            "fail_share",
            failed / attempted.max(1.0)
        );
    }
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// runs cannot tell.
    Unresolved,
}

/// Judges `after` against `before` by the metric's direction and bound:
/// worse or better when the median moved by more than the bound, unresolved
/// when either side's own spread exceeds it.
pub fn judge(metric: &Metric, before: &[f64], after: &[f64]) -> (Verdict, f64) {
    let bound = metric.bound.unwrap_or(0.0);
    let (base, new) = (median(before), median(after));
    let worsening = match metric.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let spread = [before, after]
        .iter()
        .filter_map(|values| spread_share(values))
        .fold(0.0, f64::max);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worsening)
}

/// `benchmark compare <a.json> <b.json>`: one row per workload and
/// end-to-end metric, then every exact count that changed.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [before, after] = args else {
        return Err("compare takes two suite files".into());
    };
    let spec = Spec::load()?;
    let (before, after) = (read_json(before.as_ref())?, read_json(after.as_ref())?);
    let entry = |file: &Json, workload: &str| {
        file.get("workloads")
            .and_then(|w| w.get(workload))
            .cloned()
            .ok_or_else(|| format!("a file has no workload {workload:?}"))
    };

    let mut regressed = false;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "before", "after", "change"
    );
    for workload in &spec.workloads {
        let (a, b) = (
            entry(&before, &workload.name)?,
            entry(&after, &workload.name)?,
        );
        for metric in &spec.end_to_end {
            let values = |e: &Json| numbers(e.get("metrics").and_then(|m| m.get(&metric.name)));
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} lacks {}", workload.name, metric.name));
            }
            let (verdict, worsening) = judge(metric, &va, &vb);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>+7.1}%  {}",
                workload.name,
                metric.name,
                median(&va),
                median(&vb),
                match metric.better {
                    Better::Lower => worsening * 100.0,
                    Better::Higher => -worsening * 100.0,
                },
                format!("{verdict:?}").to_lowercase()
            );
        }
        let share = |e: &Json| {
            numbers(e.get("failed")).iter().sum::<f64>()
                / numbers(e.get("attempted")).iter().sum::<f64>().max(1.0)
        };
        if share(&b) > share(&a) {
            regressed = true;
            println!(
                "{:<16} fail_share rose from {} to {}",
                workload.name,
                share(&a),
                share(&b)
            );
        }
        let exact = |e: &Json| e.get("exact").and_then(Json::as_obj).cloned();
        if let (Some(ea), Some(eb)) = (exact(&a), exact(&b)) {
            for (key, value) in &ea {
                if let Some(other) = eb.get(key).filter(|other| *other != value) {
                    println!(
                        "{:<16} exact {key} changed: {} -> {}",
                        workload.name,
                        value.render(),
                        other.render()
                    );
                }
            }
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(Better::Lower);
        let steady = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(judge(&lower, &steady, &steady).0, Verdict::Same);
        assert_eq!(judge(&lower, &steady, &[1.05; 4]).0, Verdict::Same);
        assert_eq!(judge(&lower, &steady, &[1.2; 4]).0, Verdict::Worse);
        assert_eq!(judge(&lower, &steady, &[0.8; 4]).0, Verdict::Better);
        // Quartiles 0.7 and 1.3 around a median of 1: the runs disagree by
        // more than the bound, so they cannot show a 20 % change either way.
        let noisy = [0.6, 0.8, 1.2, 1.4];
        assert_eq!(judge(&lower, &noisy, &[1.2; 4]).0, Verdict::Unresolved);

        let higher = metric(Better::Higher);
        assert_eq!(judge(&higher, &steady, &[1.2; 4]).0, Verdict::Better);
        assert_eq!(judge(&higher, &steady, &[0.8; 4]).0, Verdict::Worse);
        // Single runs have no spread to object with.
        assert_eq!(judge(&higher, &[1.0], &[1.02]).0, Verdict::Same);
    }
}
