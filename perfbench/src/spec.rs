//! `BENCHMARK.json`, compiled in: the one place that names the workloads and
//! the metrics with their units, directions and bounds. The harness prints
//! exactly the metrics it lists and `compare` judges by its bounds, so the
//! file and the program cannot drift apart.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline's median by which an end-to-end metric may get
    /// worse before that counts as a regression; layers have none.
    pub bound: Option<f64>,
}

/// A workload's name and the one-line reason it exists.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        Self::parse(BENCHMARK_JSON)
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("BENCHMARK.json has no {key:?}"))
        };
        let list = |key: &str| {
            field(key)?
                .as_arr()
                .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(Metric {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        better: match text_of(item, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better {other:?}")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: run_seconds is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|item| {
                    Ok(Workload {
                        name: text_of(item, "name")?,
                        why: text_of(item, "why")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: the layers when traced, else end to end.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty() && s.len() <= 64 && s.chars().all(ok) && !s.starts_with(['_', '.', '-'])
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let spec = Spec::load().unwrap();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        let mut names = Vec::new();
        for workload in &spec.workloads {
            assert!(is_name(&workload.name), "{:?}", workload.name);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
            names.push(&workload.name);
        }
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_name(&metric.name), "{:?}", metric.name);
            assert!(is_unit(&metric.unit), "{:?}", metric.unit);
            names.push(&metric.name);
        }
        let distinct: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");

        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("an end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));

        // The workloads the harness can run are exactly the ones declared.
        let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(declared, crate::WORKLOADS);
    }
}
