//! Lowering tensor networks onto the EVA language: the kernel library of the
//! CHET-style frontend (paper Section 7.2).
//!
//! Every activation tensor is packed into a single ciphertext in CHW order
//! (padded to a power of two). Convolutions and poolings are computed with
//! the standard rotate-multiply-accumulate SIMD kernels; strided layouts are
//! tracked in a [`LayoutView`] (this is the data-layout bookkeeping CHET's
//! layout selection performs — we use its CHW choice, as the paper does for
//! the comparison).
//!
//! # The fully-connected kernel
//!
//! A fully-connected layer is **one shared reduction**, not a dot product
//! per output. With `B = out_dim.next_power_of_two()` segments of
//! `S = vec_size / B` slots, output `o` is folded into segment `o`:
//!
//! ```text
//! u = Σ_{k<B} rot(x ⊙ W_k, k·S)        W_k[j] = w_{(⌊j/S⌋ − k) mod B}[j]
//! ```
//!
//! * `W_k` is a compile-time plaintext: in segment `s` it carries the weight
//!   row of output `(s − k) mod B` at the input's physical slots, and zero
//!   where that index is `≥ out_dim`. Rotating the product left by `k`
//!   segments moves segment `o + k` onto segment `o`, so slot `o·S + r` of
//!   `u` is output `o`'s products summed over every input at in-segment
//!   offset `r`. An all-zero `W_k` emits no node.
//! * The sum over `k` is a binary tree on the bits of `k`,
//!   `F(ys, s) = F(evens, 2s) + rot(F(odds, 2s), s)`: `B − 1` rotations by
//!   the power-of-two steps `S, 2S, … vec_size/2`. (With vanished `W_k` the
//!   tree rotates once per node that has an odd child: one fewer than the
//!   non-zero `W_k`, plus one for every such node with no even child.)
//! * The offsets `r` are then folded onto the segment head by rotate-and-add
//!   steps `acc + rot(acc, 2^i)`, **once for the layer** and only for the
//!   bits `i` set in `OR(phys mod S)` over the input layout's occupied
//!   slots. Inputs that already sit on segment heads — a pooled 1×1 map or
//!   an earlier fully-connected layer whose channel stride is a multiple of
//!   `S` — need none.
//! * One 0/1 mask and one bias plaintext at the slots `o·S` finish the layer,
//!   whose output [`LayoutView`] has `channel_stride = S`; every later kernel
//!   and the logit extraction go through the view, so they follow.
//!
//! In all `B − 1 + popcount(OR(phys mod S))` ciphertext rotations for a dense
//! layer, against `out_dim · log2(vec_size)` for a rotate-and-add reduction
//! per output — 15 + 15 instead of 26 · 10 on LeNet-5-small.
//!
//! Two lowering modes are provided:
//!
//! * [`LoweringMode::Eva`] — emit pure arithmetic and let the EVA compiler
//!   insert RESCALE/MODSWITCH globally (the paper's approach);
//! * [`LoweringMode::ChetBaseline`] — model CHET: a single uniform scaling
//!   factor for data and weights, compiled with the ALWAYS-RESCALE +
//!   LAZY-MODSWITCH strategies, i.e. one rescale after every multiplication
//!   exactly as CHET's per-kernel expert implementations do.

use eva_core::{
    compile, CompiledProgram, CompilerOptions, EvaError, ModSwitchStrategy, Program,
    RescaleStrategy,
};
use eva_frontend::{Expr, ProgramBuilder};

use crate::networks::{Layer, Network};

/// Which compiler/lowering strategy to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweringMode {
    /// EVA: mixed scales and global insertion of FHE-specific instructions.
    Eva,
    /// CHET baseline: uniform scaling factor, rescale after every multiply,
    /// lazy modulus switching.
    ChetBaseline,
}

/// Fixed-point scales used when lowering a network (the paper's Table 4
/// "Input Scale" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Scale of the encrypted image input (bits).
    pub cipher: u32,
    /// Scale of plaintext weight vectors (bits).
    pub vector: u32,
    /// Scale of plaintext scalars (bits): the scale at which the
    /// activation polynomial's coefficients `a`, `b`, `c` are encoded.
    pub scalar: u32,
    /// Desired scale of the output (bits).
    pub output: u32,
}

impl ScaleConfig {
    /// The scales the paper uses for most networks in EVA mode
    /// (cipher 25, vector 15, scalar 10, output 30).
    pub fn eva_default() -> Self {
        Self {
            cipher: 25,
            vector: 15,
            scalar: 10,
            output: 30,
        }
    }

    /// A single uniform scaling factor, as CHET uses (40 bits everywhere).
    pub fn chet_default() -> Self {
        Self {
            cipher: 40,
            vector: 40,
            scalar: 40,
            output: 40,
        }
    }
}

/// A strided view describing where the logical tensor elements live inside the
/// packed ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutView {
    /// Logical channels.
    pub channels: usize,
    /// Logical height.
    pub height: usize,
    /// Logical width.
    pub width: usize,
    /// Physical distance between consecutive channels.
    pub channel_stride: usize,
    /// Physical distance between consecutive rows.
    pub row_stride: usize,
    /// Physical distance between consecutive columns.
    pub col_stride: usize,
}

impl LayoutView {
    fn physical(&self, c: usize, i: usize, j: usize) -> usize {
        c * self.channel_stride + i * self.row_stride + j * self.col_stride
    }

    fn logical_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// A network lowered to an EVA input program, ready for compilation.
#[derive(Debug, Clone)]
pub struct LoweredNetwork {
    /// The generated EVA input program.
    pub program: Program,
    /// Name of the encrypted image input.
    pub input_name: String,
    /// Name of the logits output.
    pub output_name: String,
    /// Slot index of each logit inside the output vector.
    pub output_positions: Vec<usize>,
    /// The lowering mode used.
    pub mode: LoweringMode,
    /// The scales used.
    pub scales: ScaleConfig,
}

impl LoweredNetwork {
    /// Compiles the lowered program with the compiler options matching the
    /// lowering mode (EVA: waterline + eager; CHET: always + lazy).
    ///
    /// # Errors
    ///
    /// Propagates compiler errors.
    pub fn compile(&self) -> Result<CompiledProgram, EvaError> {
        let options = match self.mode {
            LoweringMode::Eva => CompilerOptions::default(),
            LoweringMode::ChetBaseline => CompilerOptions {
                rescale: RescaleStrategy::Always,
                mod_switch: ModSwitchStrategy::Lazy,
                ..CompilerOptions::default()
            },
        };
        compile(&self.program, &options)
    }

    /// Extracts the logits from a decrypted output vector.
    pub fn extract_logits(&self, output: &[f64]) -> Vec<f64> {
        self.output_positions.iter().map(|&p| output[p]).collect()
    }
}

/// Packs a plaintext CHW tensor into the flat vector layout used by the
/// lowered program (so callers can feed the encrypted input).
pub fn pack_input(tensor: &crate::tensor::Tensor, vec_size: usize) -> Vec<f64> {
    let mut packed = vec![0.0; vec_size];
    packed[..tensor.data.len()].copy_from_slice(&tensor.data);
    packed
}

/// The ciphertext vector size a network needs: enough room for the widest
/// layer at the input's spatial footprint, rounded up to a power of two.
pub fn vector_size_for(network: &Network) -> usize {
    let (c_in, h, w) = network.input_shape;
    let footprint = h * w;
    let mut max_channels = c_in;
    for layer in &network.layers {
        match layer {
            Layer::Conv(conv) => max_channels = max_channels.max(conv.out_channels),
            Layer::FullyConnected(fc) => max_channels = max_channels.max(fc.out_dim),
            _ => {}
        }
    }
    (max_channels * footprint).next_power_of_two()
}

/// Lowers a network into an EVA input program.
pub fn lower_network(network: &Network, mode: LoweringMode) -> LoweredNetwork {
    let scales = match mode {
        LoweringMode::Eva => ScaleConfig::eva_default(),
        LoweringMode::ChetBaseline => ScaleConfig::chet_default(),
    };
    lower_network_with_scales(network, mode, scales)
}

/// Lowers a network with explicit scales.
pub fn lower_network_with_scales(
    network: &Network,
    mode: LoweringMode,
    scales: ScaleConfig,
) -> LoweredNetwork {
    let vec_size = vector_size_for(network);
    let mut builder = ProgramBuilder::with_default_scale(&network.name, vec_size, scales.scalar);
    let input_name = "image".to_string();
    let output_name = "logits".to_string();

    let (c, h, w) = network.input_shape;
    let mut layout = LayoutView {
        channels: c,
        height: h,
        width: w,
        channel_stride: h * w,
        row_stride: w,
        col_stride: 1,
    };
    let mut current = builder.input_cipher(&input_name, scales.cipher);

    for layer in &network.layers {
        match layer {
            Layer::Conv(conv) => {
                let (expr, new_layout) = lower_conv(
                    &mut builder,
                    &current,
                    layout,
                    conv,
                    vec_size,
                    scales.vector,
                );
                current = expr;
                layout = new_layout;
            }
            Layer::AvgPool { window } => {
                let (expr, new_layout) = lower_pool(
                    &mut builder,
                    &current,
                    layout,
                    *window,
                    vec_size,
                    scales.vector,
                );
                current = expr;
                layout = new_layout;
            }
            Layer::Activation { a, b, c } => {
                current = lower_activation(&mut builder, &current, *a, *b, *c, scales.scalar);
            }
            Layer::FullyConnected(fc) => {
                let (expr, new_layout) =
                    lower_fc(&mut builder, &current, layout, fc, vec_size, scales.vector);
                current = expr;
                layout = new_layout;
            }
        }
    }

    // Output logit positions under the final layout.
    let mut output_positions = Vec::new();
    for c in 0..layout.channels {
        for i in 0..layout.height {
            for j in 0..layout.width {
                output_positions.push(layout.physical(c, i, j));
            }
        }
    }
    builder.output(&output_name, current, scales.output);
    LoweredNetwork {
        program: builder.build(),
        input_name,
        output_name,
        output_positions,
        mode,
        scales,
    }
}

fn lower_conv(
    builder: &mut ProgramBuilder,
    input: &Expr,
    layout: LayoutView,
    conv: &crate::tensor::ConvWeights,
    vec_size: usize,
    weight_scale: u32,
) -> (Expr, LayoutView) {
    let out_h = layout.height - conv.kernel + 1;
    let out_w = layout.width - conv.kernel + 1;
    let out_channels = conv.out_channels;
    let in_channels = layout.channels;
    let mut acc: Option<Expr> = None;

    let min_delta = -(out_channels as isize - 1);
    let max_delta = in_channels as isize - 1;
    for delta in min_delta..=max_delta {
        for di in 0..conv.kernel {
            for dj in 0..conv.kernel {
                let mut mask = vec![0.0; vec_size];
                let mut any = false;
                for f in 0..out_channels {
                    let c = f as isize + delta;
                    if c < 0 || c >= in_channels as isize {
                        continue;
                    }
                    let value = conv.weight(f, c as usize, di, dj);
                    if value == 0.0 {
                        continue;
                    }
                    for i in 0..out_h {
                        for j in 0..out_w {
                            mask[layout.physical(f, i, j)] = value;
                            any = true;
                        }
                    }
                }
                if !any {
                    continue;
                }
                let offset = delta * layout.channel_stride as isize
                    + di as isize * layout.row_stride as isize
                    + dj as isize * layout.col_stride as isize;
                let rotated = input.rotate_left(offset as i32);
                let weights = builder.constant_vector(mask, weight_scale);
                let term = &rotated * &weights;
                acc = Some(match acc {
                    None => term,
                    Some(acc) => acc + term,
                });
            }
        }
    }

    // Bias: a plaintext vector added at the bias positions; the compiler's
    // MATCH-SCALE pass reconciles its scale with the accumulated product.
    let mut bias_mask = vec![0.0; vec_size];
    for f in 0..out_channels {
        for i in 0..out_h {
            for j in 0..out_w {
                bias_mask[layout.physical(f, i, j)] = conv.bias[f];
            }
        }
    }
    let bias = builder.constant_vector(bias_mask, weight_scale);
    let result = acc.expect("convolution has at least one nonzero weight") + bias;

    let new_layout = LayoutView {
        channels: out_channels,
        height: out_h,
        width: out_w,
        ..layout
    };
    (result, new_layout)
}

fn lower_pool(
    builder: &mut ProgramBuilder,
    input: &Expr,
    layout: LayoutView,
    window: usize,
    vec_size: usize,
    weight_scale: u32,
) -> (Expr, LayoutView) {
    let out_h = layout.height / window;
    let out_w = layout.width / window;
    let mut acc: Option<Expr> = None;
    for di in 0..window {
        for dj in 0..window {
            let offset =
                di as isize * layout.row_stride as isize + dj as isize * layout.col_stride as isize;
            let rotated = if offset == 0 {
                input.clone()
            } else {
                input.rotate_left(offset as i32)
            };
            acc = Some(match acc {
                None => rotated,
                Some(acc) => acc + rotated,
            });
        }
    }
    // Normalize and keep only the anchor positions of the pooled grid.
    let norm = 1.0 / (window * window) as f64;
    let mut mask = vec![0.0; vec_size];
    for c in 0..layout.channels {
        for i in 0..out_h {
            for j in 0..out_w {
                mask[layout.physical(c, i * window, j * window)] = norm;
            }
        }
    }
    let mask = builder.constant_vector(mask, weight_scale);
    let result = acc.expect("pooling window is non-empty") * mask;
    let new_layout = LayoutView {
        channels: layout.channels,
        height: out_h,
        width: out_w,
        channel_stride: layout.channel_stride,
        row_stride: layout.row_stride * window,
        col_stride: layout.col_stride * window,
    };
    (result, new_layout)
}

fn lower_activation(
    builder: &mut ProgramBuilder,
    input: &Expr,
    a: f64,
    b: f64,
    c: f64,
    scalar_scale: u32,
) -> Expr {
    let squared = input * input;
    let mut result = &squared * &builder.constant_scalar(a, scalar_scale);
    if b != 0.0 {
        result = result + input * &builder.constant_scalar(b, scalar_scale);
    }
    if c != 0.0 {
        result = result + builder.constant_scalar(c, scalar_scale);
    }
    result
}

fn lower_fc(
    builder: &mut ProgramBuilder,
    input: &Expr,
    layout: LayoutView,
    fc: &crate::tensor::FcWeights,
    vec_size: usize,
    weight_scale: u32,
) -> (Expr, LayoutView) {
    assert_eq!(
        layout.logical_len(),
        fc.in_dim,
        "fully-connected input size mismatch"
    );
    let segments = fc.out_dim.next_power_of_two();
    assert!(
        segments <= vec_size,
        "fully-connected layer with {} outputs needs {segments} segments, the vector has {vec_size} slots",
        fc.out_dim
    );
    let segment_len = vec_size / segments;

    // Logical flattening order must match the plaintext reference (CHW).
    let mut physical_of_logical = Vec::with_capacity(fc.in_dim);
    for c in 0..layout.channels {
        for i in 0..layout.height {
            for j in 0..layout.width {
                physical_of_logical.push(layout.physical(c, i, j));
            }
        }
    }

    // W_k carries, in segment s, the weight row of output (s - k) mod B, so
    // rotating `input * W_k` left by k segments lands output o's products in
    // segment o. A diagonal nothing writes to stays `None` and emits nothing.
    let mut diagonals: Vec<Option<Vec<f64>>> = vec![None; segments];
    for o in 0..fc.out_dim {
        for (t, &phys) in physical_of_logical.iter().enumerate() {
            let weight = fc.weights[o * fc.in_dim + t];
            if weight != 0.0 {
                let k = (phys / segment_len + segments - o) % segments;
                diagonals[k].get_or_insert_with(|| vec![0.0; vec_size])[phys] = weight;
            }
        }
    }
    let terms = diagonals
        .into_iter()
        .map(|diagonal| {
            diagonal.map(|weights| input * &builder.constant_vector(weights, weight_scale))
        })
        .collect();
    let mut acc = rotate_sum(terms, segment_len)
        .expect("fully-connected layer has at least one nonzero weight");

    // Slot o*S + r now holds output o's products at in-segment offset r; fold
    // the offsets the input really occupies onto r = 0.
    let occupied_offsets = physical_of_logical
        .iter()
        .fold(0, |bits, &phys| bits | (phys % segment_len));
    let mut shift = 1usize;
    while shift < segment_len {
        if occupied_offsets & shift != 0 {
            acc = &acc + &acc.rotate_left(shift as i32);
        }
        shift <<= 1;
    }

    // Keep the sums (plus biases) only at the segment heads.
    let mut heads = vec![0.0; vec_size];
    let mut bias = vec![0.0; vec_size];
    for o in 0..fc.out_dim {
        heads[o * segment_len] = 1.0;
        bias[o * segment_len] = fc.bias[o];
    }
    let mut result = acc * builder.constant_vector(heads, weight_scale);
    if fc.bias.iter().any(|&b| b != 0.0) {
        result = result + builder.constant_vector(bias, weight_scale);
    }

    let new_layout = LayoutView {
        channels: fc.out_dim,
        height: 1,
        width: 1,
        channel_stride: segment_len,
        row_stride: 1,
        col_stride: 1,
    };
    (result, new_layout)
}

/// `Σ_k rot(terms[k], k * step)` as a binary tree over the bits of `k`:
/// `F(ys, s) = F(evens, 2s) + rot(F(odds, 2s), s)`. `terms.len()` is a power
/// of two; absent terms cost nothing.
fn rotate_sum(terms: Vec<Option<Expr>>, step: usize) -> Option<Expr> {
    if terms.len() == 1 {
        return terms.into_iter().next().flatten();
    }
    let mut halves = [Vec::new(), Vec::new()];
    for (k, term) in terms.into_iter().enumerate() {
        halves[k % 2].push(term);
    }
    let [evens, odds] = halves;
    let even = rotate_sum(evens, 2 * step);
    let odd = rotate_sum(odds, 2 * step).map(|sum| sum.rotate_left(step as i32));
    match (even, odd) {
        (Some(even), Some(odd)) => Some(even + odd),
        (even, odd) => even.or(odd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks::{all_networks, lenet5_small, Layer, Network};
    use crate::tensor::{ConvWeights, FcWeights, Tensor};
    use eva_backend::run_reference;
    use eva_core::{ConstantValue, NodeKind};
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Lower a network, execute the EVA program under reference semantics and
    /// compare the logits with plaintext tensor inference.
    fn check_reference_equivalence(network: &Network, input: &Tensor, tolerance: f64) {
        let lowered = lower_network(network, LoweringMode::Eva);
        let vec_size = lowered.program.vec_size();
        let packed = pack_input(input, vec_size);
        let inputs: HashMap<String, Vec<f64>> =
            [(lowered.input_name.clone(), packed)].into_iter().collect();
        let outputs = run_reference(&lowered.program, &inputs).unwrap();
        let logits = lowered.extract_logits(&outputs[&lowered.output_name]);
        let expected = network.infer_plain(input);
        assert_eq!(logits.len(), expected.len());
        for (i, (a, b)) in logits.iter().zip(&expected).enumerate() {
            assert!(
                (a - b).abs() < tolerance,
                "logit {i}: lowered {a} vs plain {b}"
            );
        }
    }

    fn random_input(shape: (usize, usize, usize), seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (c, h, w) = shape;
        Tensor::from_data(
            c,
            h,
            w,
            (0..c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn single_conv_layer_matches_plain_inference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let conv = ConvWeights {
            out_channels: 2,
            in_channels: 1,
            kernel: 2,
            weights: (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            bias: vec![0.25, -0.5],
        };
        let network = Network {
            name: "conv_only".into(),
            input_shape: (1, 4, 4),
            layers: vec![Layer::Conv(conv)],
        };
        check_reference_equivalence(&network, &random_input((1, 4, 4), 4), 1e-9);
    }

    #[test]
    fn conv_pool_activation_fc_pipeline_matches_plain_inference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let conv = ConvWeights {
            out_channels: 2,
            in_channels: 1,
            kernel: 3,
            weights: (0..18).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            bias: vec![0.1, -0.1],
        };
        let fc = FcWeights {
            out_dim: 3,
            in_dim: 2 * 3 * 3,
            weights: (0..54).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            bias: vec![0.0, 0.5, -0.25],
        };
        let network = Network {
            name: "mini".into(),
            input_shape: (1, 8, 8),
            layers: vec![
                Layer::Conv(conv),
                Layer::Activation {
                    a: 1.0,
                    b: 1.0,
                    c: 0.0,
                },
                Layer::AvgPool { window: 2 },
                Layer::FullyConnected(fc),
            ],
        };
        check_reference_equivalence(&network, &random_input((1, 8, 8), 6), 1e-9);
    }

    fn random_fc(seed: u64, in_dim: usize, out_dim: usize) -> FcWeights {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        crate::networks::random_fc(&mut rng, in_dim, out_dim)
    }

    fn rotation_steps(network: &Network) -> Vec<i64> {
        let program = lower_network(network, LoweringMode::Eva).program;
        (0..program.len())
            .filter_map(|id| program.opcode(id)?.rotation_step())
            .collect()
    }

    /// A network ending in a fully-connected layer: the lowered program
    /// equals plaintext inference, and the rotations that last layer emits
    /// are powers of two: `tree` of them in the shared tree (one fewer than
    /// the non-zero `W_k`) plus one per bit of `OR(phys mod S)`.
    fn check_fc(network: &Network, seed: u64, tree: usize, offset_bits: usize) {
        check_reference_equivalence(network, &random_input(network.input_shape, seed), 1e-9);
        let mut prefix = network.clone();
        assert!(matches!(
            prefix.layers.pop(),
            Some(Layer::FullyConnected(_))
        ));
        let steps = rotation_steps(network);
        let fc_steps = &steps[rotation_steps(&prefix).len()..];
        assert!(
            fc_steps
                .iter()
                .all(|&s| s > 0 && (s as u64).is_power_of_two()),
            "{fc_steps:?}"
        );
        assert_eq!(fc_steps.len(), tree + offset_bits, "{fc_steps:?}");
    }

    fn fc_only(input_shape: (usize, usize, usize), fc: FcWeights) -> Network {
        Network {
            name: "fc_only".into(),
            input_shape,
            layers: vec![Layer::FullyConnected(fc)],
        }
    }

    #[test]
    fn single_output_fc_is_one_full_reduction() {
        // B = 1, S = vec_size = 16 and every slot is occupied: no tree, all
        // four in-segment steps — the rotate-and-add reduction of a dot product.
        check_fc(&fc_only((1, 4, 4), random_fc(21, 16, 1)), 22, 0, 4);
    }

    #[test]
    fn fc_output_counts_that_are_not_powers_of_two() {
        // 3 outputs: vec_size 8, B = 4, S = 2, inputs at slots 0..8 so bit 0
        // of the offsets is occupied. 10 outputs: vec_size 16 = B, S = 1.
        check_fc(&fc_only((8, 1, 1), random_fc(23, 8, 3)), 24, 4 - 1, 1);
        check_fc(&fc_only((8, 1, 1), random_fc(25, 8, 10)), 26, 16 - 1, 0);
    }

    #[test]
    fn wide_fc_after_pooling_needs_no_in_segment_steps() {
        // LeNet's fc1 shape: 8 pooled inputs at stride 4 feed 16 outputs, so
        // vec_size 64, B = 16, S = 4 and every input sits on a segment head.
        let network = Network {
            name: "pool_fc".into(),
            input_shape: (8, 2, 2),
            layers: vec![
                Layer::AvgPool { window: 2 },
                Layer::FullyConnected(random_fc(27, 8, 16)),
            ],
        };
        check_fc(&network, 28, 16 - 1, 0);
    }

    #[test]
    fn fc_straight_after_a_conv_folds_the_occupied_offsets() {
        // 2x3x3 conv outputs at c*16 + i*4 + j, vec_size 64, B = 4, S = 16:
        // the offsets {0,1,2,4,5,6,8,9,10} occupy all four bits.
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let conv = ConvWeights {
            out_channels: 2,
            in_channels: 1,
            kernel: 2,
            weights: (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            bias: vec![0.3, -0.2],
        };
        let network = Network {
            name: "conv_fc".into(),
            input_shape: (1, 4, 4),
            layers: vec![
                Layer::Conv(conv),
                Layer::FullyConnected(random_fc(30, 18, 3)),
            ],
        };
        check_fc(&network, 31, 4 - 1, 4);
    }

    #[test]
    fn all_zero_diagonals_emit_nothing() {
        // 4 inputs, 4 outputs, S = 1: weight (o, t) lies on diagonal
        // k = (t - o) mod 4. A zero row and a zero column thin every diagonal
        // but empty none; zeroing k = 3 as well leaves W_0, W_1, W_2.
        let mut fc = random_fc(32, 4, 4);
        for o in 0..4 {
            for t in 0..4 {
                if o == 2 || t == 1 || (t + 4 - o) % 4 == 3 {
                    fc.weights[o * 4 + t] = 0.0;
                }
            }
        }
        check_fc(&fc_only((4, 1, 1), fc), 33, 3 - 1, 0);

        // The tree only rotates by powers of two, so a diagonal whose even
        // sibling is absent (here W_3 once W_1 is gone) costs one step more:
        // rot(rot(W_3 term, 2S), S). The compiler merges such chains.
        let mut fc = random_fc(34, 4, 4);
        for o in 0..4 {
            fc.weights[o * 4 + (o + 1) % 4] = 0.0;
        }
        check_fc(&fc_only((4, 1, 1), fc), 35, 3, 0);
    }

    #[test]
    #[should_panic(expected = "needs 4 segments, the vector has 2 slots")]
    fn fc_wider_than_the_vector_is_refused() {
        let mut builder = ProgramBuilder::with_default_scale("too_wide", 2, 10);
        let input = builder.input_cipher("x", 25);
        let layout = LayoutView {
            channels: 2,
            height: 1,
            width: 1,
            channel_stride: 1,
            row_stride: 1,
            col_stride: 1,
        };
        lower_fc(&mut builder, &input, layout, &random_fc(36, 2, 3), 2, 15);
    }

    #[test]
    fn lenet_small_lowering_matches_plain_inference() {
        let network = lenet5_small(11);
        check_reference_equivalence(&network, &random_input((1, 8, 8), 12), 1e-6);
    }

    #[test]
    fn lowering_modes_share_structure_but_differ_in_scales() {
        let network = lenet5_small(13);
        let eva = lower_network(&network, LoweringMode::Eva);
        let chet = lower_network(&network, LoweringMode::ChetBaseline);
        assert_eq!(eva.program.len(), chet.program.len());
        assert_eq!(eva.scales, ScaleConfig::eva_default());
        assert_eq!(chet.scales, ScaleConfig::chet_default());
    }

    /// The scales of every constant in a lowered program, split into
    /// (scalars, vectors).
    fn constant_scales(program: &Program) -> (Vec<f64>, Vec<f64>) {
        let (mut scalars, mut vectors) = (Vec::new(), Vec::new());
        for node in program.nodes() {
            match &node.kind {
                NodeKind::Constant {
                    value: ConstantValue::Scalar(_),
                } => scalars.push(node.scale_log2),
                NodeKind::Constant {
                    value: ConstantValue::Vector(_),
                } => vectors.push(node.scale_log2),
                _ => {}
            }
        }
        (scalars, vectors)
    }

    #[test]
    fn lowering_encodes_constants_at_the_configured_scales() {
        // The activation coefficients are the only scalars (a and b per
        // activation); every weight, bias and mask is a vector. Lowering the
        // coefficients at the vector scale instead cost LeNet-5-small 42
        // rescales under the waterline pass.
        let scalar_counts = [8, 8, 8, 12, 18];
        for (network, scalars_expected) in all_networks(42).iter().zip(scalar_counts) {
            let eva = lower_network(network, LoweringMode::Eva);
            let (scalars, vectors) = constant_scales(&eva.program);
            assert_eq!(scalars.len(), scalars_expected, "{}", network.name);
            assert!(!vectors.is_empty(), "{}", network.name);
            assert!(
                scalars.iter().all(|&s| s == f64::from(eva.scales.scalar)),
                "{}: scalar scales {scalars:?}",
                network.name
            );
            assert!(
                vectors.iter().all(|&s| s == f64::from(eva.scales.vector)),
                "{}",
                network.name
            );

            let chet = lower_network(network, LoweringMode::ChetBaseline);
            let (scalars, vectors) = constant_scales(&chet.program);
            assert_eq!(scalars.len(), scalars_expected, "{}", network.name);
            assert!(
                scalars.iter().chain(&vectors).all(|&s| s == 40.0),
                "{}: CHET constants leave the uniform 40 bits",
                network.name
            );
        }
    }

    #[test]
    fn chet_baseline_selects_larger_parameters_than_eva() {
        // The headline of the paper's Table 6: EVA's global placement yields a
        // shorter modulus chain and smaller Q than CHET's per-kernel policy.
        let network = lenet5_small(17);
        let eva = lower_network(&network, LoweringMode::Eva)
            .compile()
            .unwrap();
        let chet = lower_network(&network, LoweringMode::ChetBaseline)
            .compile()
            .unwrap();
        assert!(
            eva.parameters.chain_length() < chet.parameters.chain_length(),
            "EVA r = {} should be below CHET r = {}",
            eva.parameters.chain_length(),
            chet.parameters.chain_length()
        );
        assert!(eva.parameters.total_bits() < chet.parameters.total_bits());
        assert!(eva.parameters.degree <= chet.parameters.degree);
    }
}
