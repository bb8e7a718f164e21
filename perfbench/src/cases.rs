//! The three programs the workloads run, each with inputs made from the
//! seed and a check against a reference that never touches the compiler:
//! Sobel's hand-written plaintext filter, LeNet's plaintext tensor
//! inference, and the closed form of x² + x.

use std::collections::HashMap;

use eva_core::{Opcode, Program};
use eva_tensor::{lower_network, pack_input, LoweringMode, Tensor};
use rand::{Rng, SeedableRng};

/// Named input or output vectors of one query.
pub type Values = HashMap<String, Vec<f64>>;

/// Largest absolute output error allowed on Sobel 64×64: four times the
/// 2.8e-3 the seed commit shows at worst over seeds 1–12 (the error is the
/// cubic square-root approximation's, and moves with the image).
pub const SOBEL_TOLERANCE: f64 = 1.1e-2;
/// Largest absolute logit error allowed on LeNet-5-small: four times the
/// 1.2e-4 the seed commit shows at worst over seeds 1–6.
pub const LENET_TOLERANCE: f64 = 4.8e-4;
/// Largest absolute output error allowed on x² + x: four times the 1.2e-7
/// the seed commit shows at worst over seeds 1–12.
pub const SQUARE_TOLERANCE: f64 = 4.8e-7;

/// Largest absolute error of a decrypted answer against the reference, or why
/// the answer is wrong whatever its error.
type Check = dyn Fn(&Values) -> Result<f64, String> + Send + Sync;

/// One program with its inputs and its correctness check.
pub struct Case {
    /// The input program, before compilation.
    pub program: Program,
    pub inputs: Values,
    check: Box<Check>,
    pub tolerance: f64,
}

impl Case {
    /// Checks one decrypted answer, returning its largest absolute error.
    pub fn check(&self, outputs: &Values) -> Result<f64, String> {
        let error = (self.check)(outputs)?;
        if error.is_nan() || error > self.tolerance {
            return Err(format!(
                "largest error {error:e} exceeds the tolerance {:e}",
                self.tolerance
            ));
        }
        Ok(error)
    }
}

/// Largest absolute difference; NaN if any value is NaN and infinite if the
/// lengths differ, so that neither can pass a tolerance.
fn max_abs_error(actual: &[f64], expected: &[f64]) -> f64 {
    if actual.len() != expected.len() {
        return f64::INFINITY;
    }
    actual
        .iter()
        .zip(expected)
        .map(|(a, b)| (a - b).abs())
        .fold(
            0.0,
            |worst, d| if d > worst || d.is_nan() { d } else { worst },
        )
}

fn output<'a>(outputs: &'a Values, name: &str) -> Result<&'a Vec<f64>, String> {
    outputs
        .get(name)
        .ok_or_else(|| format!("output {name:?} is missing"))
}

/// Sobel edge detection on a 64×64 image drawn from `seed`.
pub fn sobel(seed: u64) -> Case {
    let app = eva_apps::image::sobel(64, seed);
    let expected = app.expected;
    Case {
        program: app.program,
        inputs: app.inputs,
        check: Box::new(move |outputs| {
            let mut worst = 0.0f64;
            for (name, reference) in &expected {
                worst = worst.max(max_abs_error(output(outputs, name)?, reference));
            }
            Ok(worst)
        }),
        tolerance: SOBEL_TOLERANCE,
    }
}

/// LeNet-5-small with weights and an input image drawn from `seed`, lowered
/// in EVA mode.
pub fn lenet(seed: u64) -> Case {
    let network = eva_tensor::networks::lenet5_small(seed);
    let (c, h, w) = network.input_shape;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pixels = (0..c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let image = Tensor::from_data(c, h, w, pixels);
    let expected = network.infer_plain(&image);
    let lowered = lower_network(&network, LoweringMode::Eva);
    let packed = pack_input(&image, lowered.program.vec_size());
    let inputs = HashMap::from([(lowered.input_name.clone(), packed)]);
    let program = lowered.program.clone();
    Case {
        program,
        inputs,
        check: Box::new(move |outputs| {
            let logits = lowered.extract_logits(output(outputs, &lowered.output_name)?);
            let error = max_abs_error(&logits, &expected);
            // The class must agree unless the plaintext top two are closer
            // than the error bound, where either answer is within tolerance.
            let (best, runner_up) = top_two(&expected);
            if argmax(&logits) != best && expected[best] - expected[runner_up] > 2.0 * error {
                return Err(format!(
                    "encrypted class {} differs from plaintext class {best}",
                    argmax(&logits)
                ));
            }
            Ok(error)
        }),
        tolerance: LENET_TOLERANCE,
    }
}

fn argmax(values: &[f64]) -> usize {
    top_two(values).0
}

/// Indices of the largest and second-largest value.
fn top_two(values: &[f64]) -> (usize, usize) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
    (order[0], order[1])
}

/// The repository's standard service program x² + x on eight slots, with
/// the slot values drawn from `seed`.
pub fn square_plus_x(seed: u64) -> Case {
    let mut program = Program::new("x2_plus_x", 8);
    let x = program.input_cipher("x", 30);
    let x2 = program.instruction(Opcode::Multiply, &[x, x]);
    let sum = program.instruction(Opcode::Add, &[x2, x]);
    program.output("out", sum, 30);

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let expected: Vec<f64> = xs.iter().map(|x| x * x + x).collect();
    Case {
        program,
        inputs: HashMap::from([("x".to_string(), xs)]),
        check: Box::new(move |outputs| Ok(max_abs_error(output(outputs, "out")?, &expected))),
        tolerance: SQUARE_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_case_accepts_its_reference_and_rejects_a_wrong_answer() {
        let case = square_plus_x(3);
        let xs = &case.inputs["x"];
        let right: Vec<f64> = xs.iter().map(|x| x * x + x).collect();
        let good = HashMap::from([("out".to_string(), right.clone())]);
        assert_eq!(case.check(&good), Ok(0.0));

        let mut wrong = right;
        wrong[5] += 1e-3;
        let bad = HashMap::from([("out".to_string(), wrong)]);
        assert!(case.check(&bad).is_err());
        assert!(case.check(&HashMap::new()).is_err());
        let nan = HashMap::from([("out".to_string(), vec![f64::NAN; 8])]);
        assert!(case.check(&nan).is_err());
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(sobel(9).inputs, sobel(9).inputs);
        assert_ne!(sobel(9).inputs, sobel(10).inputs);
        assert_eq!(lenet(9).inputs, lenet(9).inputs);
        assert_ne!(square_plus_x(9).inputs, square_plus_x(10).inputs);
    }
}
