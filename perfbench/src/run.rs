//! What every workload shares: its configuration, the tally of checked
//! answers, and the outcome it hands back to `main`.

use std::collections::BTreeMap;

use crate::cases::{Case, Values};
use crate::json::Json;
use crate::trace::Span;

/// One run of one workload, as the command line asked for it.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Makes the inputs and the key seeds: the same seed, the same run.
    pub seed: u64,
    /// Length of the timed window. A workload whose fixed minimum of timed
    /// queries takes longer keeps going until it has them.
    pub seconds: f64,
    /// Keep spans and measure the layers instead of the end-to-end metrics.
    pub trace: bool,
    /// Smoke-test sizes: one set-up, one warm-up, the fewest timed queries.
    pub quick: bool,
}

/// Answers checked so far. Every query a workload sends is recorded here,
/// warm-up queries included: a wrong warm-up answer is still a wrong answer.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Largest absolute error among the answers that passed.
    pub worst_error: f64,
}

impl Tally {
    /// Checks one answer (or records the error that prevented one) and says
    /// whether it was correct. Failures go to standard error as they happen.
    pub fn record(&mut self, case: &Case, answer: Result<&Values, &str>) -> bool {
        self.attempted += 1;
        match answer.map_err(str::to_string).and_then(|v| case.check(v)) {
            Ok(error) => {
                self.worst_error = self.worst_error.max(error);
                true
            }
            Err(why) => {
                self.failed += 1;
                eprintln!("query {} failed: {why}", self.attempted);
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.worst_error = self.worst_error.max(other.worst_error);
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Every metric the run computed, by name. `main` prints the ones
    /// `BENCHMARK.json` lists for the run's mode and fails if one is absent.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further facts for the trace file and standard error only: exact
    /// counts, workload-specific layer numbers, the output digest.
    pub detail: BTreeMap<&'static str, Json>,
    pub spans: Vec<Span>,
}

/// FNV-1a over the bit patterns of an answer's values, outputs taken in name
/// order: an informational check that a seed reproduces its answer exactly.
pub fn digest(outputs: &Values) -> String {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for name in names {
        for value in &outputs[name] {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_wrong_and_missing_answers_as_failed() {
        let case = crate::cases::square_plus_x(1);
        let right: Vec<f64> = case.inputs["x"].iter().map(|x| x * x + x).collect();
        let good = Values::from([("out".to_string(), right)]);
        let bad = Values::from([("out".to_string(), vec![0.0; 8])]);
        let mut tally = Tally::default();
        assert!(tally.record(&case, Ok(&good)));
        assert!(!tally.record(&case, Ok(&bad)));
        assert!(!tally.record(&case, Err("refused: busy")));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn digest_depends_on_every_bit_but_not_on_map_order() {
        let a = Values::from([("x".into(), vec![1.0, 2.0]), ("y".into(), vec![3.0])]);
        let mut b = Values::new();
        b.insert("y".into(), vec![3.0]);
        b.insert("x".into(), vec![1.0, 2.0]);
        assert_eq!(digest(&a), digest(&b));
        b.insert("y".into(), vec![3.0000000000000004]);
        assert_ne!(digest(&a), digest(&b));
    }
}
