//! Network descriptions: the five architectures of the paper's Table 3,
//! rebuilt at laptop scale.
//!
//! The paper evaluates LeNet-5 variants on MNIST, a proprietary "Industrial"
//! network and a SqueezeNet variant on CIFAR-10. Neither the trained models
//! nor the datasets are available here (the paper itself uses random weights
//! for Industrial), so every network keeps the *layer structure* of Table 3
//! (number of convolutions, fully-connected layers and activations) with
//! reduced image sizes and channel counts, and uses seeded random weights in
//! `[-1, 1]`. See DESIGN.md for the substitution rationale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::{
    avg_pool, conv2d, fully_connected, poly_activation, ConvWeights, FcWeights, Tensor,
};

/// One layer of a network.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Valid (no padding), stride-1 convolution.
    Conv(ConvWeights),
    /// Average pooling with a square window and matching stride.
    AvgPool {
        /// Window (and stride) size.
        window: usize,
    },
    /// Polynomial activation `a*x^2 + b*x + c` (FHE-compatible replacement for
    /// ReLU, as in CHET).
    Activation {
        /// Quadratic coefficient.
        a: f64,
        /// Linear coefficient.
        b: f64,
        /// Constant coefficient.
        c: f64,
    },
    /// Fully-connected layer over the flattened CHW input.
    FullyConnected(FcWeights),
}

/// A feed-forward network: an input shape plus a layer list.
#[derive(Debug, Clone)]
pub struct Network {
    /// Human-readable name (matches the paper's Table 3 rows).
    pub name: String,
    /// Input shape (channels, height, width).
    pub input_shape: (usize, usize, usize),
    /// The layers in execution order.
    pub layers: Vec<Layer>,
}

/// Per-network layer counts, mirroring the columns of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCounts {
    /// Number of convolutions.
    pub conv: usize,
    /// Number of fully-connected layers.
    pub fc: usize,
    /// Number of polynomial activations.
    pub act: usize,
}

impl Network {
    /// Runs unencrypted inference and returns the logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network's declared shape.
    pub fn infer_plain(&self, input: &Tensor) -> Vec<f64> {
        assert_eq!(
            (input.channels, input.height, input.width),
            self.input_shape,
            "input shape mismatch"
        );
        let mut current = input.clone();
        for layer in &self.layers {
            match layer {
                Layer::Conv(w) => current = conv2d(&current, w),
                Layer::AvgPool { window } => current = avg_pool(&current, *window),
                Layer::Activation { a, b, c } => current = poly_activation(&current, *a, *b, *c),
                Layer::FullyConnected(w) => {
                    let out = fully_connected(&current, w);
                    current = Tensor::from_data(out.len(), 1, 1, out);
                }
            }
        }
        current.data
    }

    /// Layer counts as reported in Table 3.
    pub fn layer_counts(&self) -> LayerCounts {
        let mut counts = LayerCounts {
            conv: 0,
            fc: 0,
            act: 0,
        };
        for layer in &self.layers {
            match layer {
                Layer::Conv(_) => counts.conv += 1,
                Layer::FullyConnected(_) => counts.fc += 1,
                Layer::Activation { .. } => counts.act += 1,
                Layer::AvgPool { .. } => {}
            }
        }
        counts
    }

    /// Approximate floating-point operation count of one unencrypted
    /// inference (the paper's "# FP operations" column).
    pub fn flop_count(&self) -> usize {
        let (mut c, mut h, mut w) = self.input_shape;
        let mut flops = 0usize;
        for layer in &self.layers {
            match layer {
                Layer::Conv(conv) => {
                    let out_h = h - conv.kernel + 1;
                    let out_w = w - conv.kernel + 1;
                    flops += 2
                        * conv.out_channels
                        * conv.in_channels
                        * conv.kernel
                        * conv.kernel
                        * out_h
                        * out_w;
                    c = conv.out_channels;
                    h = out_h;
                    w = out_w;
                }
                Layer::AvgPool { window } => {
                    flops += c * h * w;
                    h /= window;
                    w /= window;
                }
                Layer::Activation { .. } => {
                    flops += 3 * c * h * w;
                }
                Layer::FullyConnected(fc) => {
                    flops += 2 * fc.out_dim * fc.in_dim;
                    c = fc.out_dim;
                    h = 1;
                    w = 1;
                }
            }
        }
        flops
    }

    /// Number of logits the network produces.
    pub fn output_count(&self) -> usize {
        let (mut c, mut h, mut w) = self.input_shape;
        for layer in &self.layers {
            match layer {
                Layer::Conv(conv) => {
                    c = conv.out_channels;
                    h = h - conv.kernel + 1;
                    w = w - conv.kernel + 1;
                }
                Layer::AvgPool { window } => {
                    h /= window;
                    w /= window;
                }
                Layer::FullyConnected(fc) => {
                    c = fc.out_dim;
                    h = 1;
                    w = 1;
                }
                Layer::Activation { .. } => {}
            }
        }
        c * h * w
    }
}

fn random_conv(
    rng: &mut StdRng,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
) -> ConvWeights {
    // Weights are L1-normalized per output so activations stay in [-1, 1]
    // throughout the network: with random (untrained) weights the paper's
    // deeper networks would otherwise overflow after a few squaring
    // activations. Trained models are implicitly regularized the same way.
    let fan_in = (in_channels * kernel * kernel) as f64;
    ConvWeights {
        out_channels,
        in_channels,
        kernel,
        weights: (0..out_channels * in_channels * kernel * kernel)
            .map(|_| rng.gen_range(-1.0..1.0) / fan_in)
            .collect(),
        bias: (0..out_channels)
            .map(|_| rng.gen_range(-0.05..0.05))
            .collect(),
    }
}

pub(crate) fn random_fc(rng: &mut StdRng, in_dim: usize, out_dim: usize) -> FcWeights {
    FcWeights {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim)
            .map(|_| rng.gen_range(-1.0..1.0) / in_dim as f64)
            .collect(),
        bias: (0..out_dim).map(|_| rng.gen_range(-0.05..0.05)).collect(),
    }
}

fn activation() -> Layer {
    // 0.5 x^2 + 0.5 x: a CHET-style polynomial replacement for ReLU whose
    // output stays in [-1, 1] whenever its input does, keeping untrained
    // networks numerically bounded at any depth.
    Layer::Activation {
        a: 0.5,
        b: 0.5,
        c: 0.0,
    }
}

/// LeNet-5-small: 2 convolutions, 2 fully-connected layers, 4 activations.
pub fn lenet5_small(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv1 = random_conv(&mut rng, 1, 4, 3); // 8x8 -> 6x6
    let conv2 = random_conv(&mut rng, 4, 8, 2); // 3x3 -> 2x2
    let fc1 = random_fc(&mut rng, 8, 16); // after 2x2 pooling -> 8x1x1
    let fc2 = random_fc(&mut rng, 16, 10);
    Network {
        name: "LeNet-5-small".into(),
        input_shape: (1, 8, 8),
        layers: vec![
            Layer::Conv(conv1),
            activation(),
            Layer::AvgPool { window: 2 },
            Layer::Conv(conv2),
            activation(),
            Layer::AvgPool { window: 2 },
            Layer::FullyConnected(fc1),
            activation(),
            Layer::FullyConnected(fc2),
            activation(),
        ],
    }
}

/// LeNet-5-medium: same structure as small with more channels and a larger image.
pub fn lenet5_medium(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv1 = random_conv(&mut rng, 1, 6, 3); // 16x16 -> 14x14
    let conv2 = random_conv(&mut rng, 6, 12, 3); // 7x7 -> 5x5
    let fc1 = random_fc(&mut rng, 12 * 2 * 2, 32);
    let fc2 = random_fc(&mut rng, 32, 10);
    Network {
        name: "LeNet-5-medium".into(),
        input_shape: (1, 16, 16),
        layers: vec![
            Layer::Conv(conv1),
            activation(),
            Layer::AvgPool { window: 2 },
            Layer::Conv(conv2),
            activation(),
            Layer::AvgPool { window: 2 },
            Layer::FullyConnected(fc1),
            activation(),
            Layer::FullyConnected(fc2),
            activation(),
        ],
    }
}

/// LeNet-5-large: same structure again with the largest channel counts.
pub fn lenet5_large(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv1 = random_conv(&mut rng, 1, 8, 3); // 16x16 -> 14x14
    let conv2 = random_conv(&mut rng, 8, 16, 3); // 7x7 -> 5x5
    let fc1 = random_fc(&mut rng, 16 * 2 * 2, 64);
    let fc2 = random_fc(&mut rng, 64, 10);
    Network {
        name: "LeNet-5-large".into(),
        input_shape: (1, 16, 16),
        layers: vec![
            Layer::Conv(conv1),
            activation(),
            Layer::AvgPool { window: 2 },
            Layer::Conv(conv2),
            activation(),
            Layer::AvgPool { window: 2 },
            Layer::FullyConnected(fc1),
            activation(),
            Layer::FullyConnected(fc2),
            activation(),
        ],
    }
}

/// Industrial: 5 convolutions, 2 fully-connected layers, 6 activations
/// (binary classifier), evaluated with random weights exactly as in the paper.
pub fn industrial(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers = Vec::new();
    let mut channels = 1;
    // Five 2x2 convolutions shrink an 8x8 image to 3x3.
    for _ in 0..5 {
        let conv = random_conv(&mut rng, channels, 4, 2);
        channels = 4;
        layers.push(Layer::Conv(conv));
        layers.push(activation());
    }
    let fc1 = random_fc(&mut rng, channels * 3 * 3, 16);
    layers.push(Layer::FullyConnected(fc1));
    layers.push(activation());
    let fc2 = random_fc(&mut rng, 16, 2);
    layers.push(Layer::FullyConnected(fc2));
    Network {
        name: "Industrial".into(),
        input_shape: (1, 8, 8),
        layers,
    }
}

/// SqueezeNet-CIFAR: 10 convolutions, no fully-connected layers, 9
/// activations, ending in global average pooling over 10 output channels.
pub fn squeezenet_cifar(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers = Vec::new();
    // Stem convolution: 3x8x8 -> 4x6x6.
    layers.push(Layer::Conv(random_conv(&mut rng, 3, 4, 3)));
    layers.push(activation());
    let mut channels = 4;
    // Four simplified fire modules: squeeze (1x1) then expand (1x1).
    for _ in 0..4 {
        layers.push(Layer::Conv(random_conv(&mut rng, channels, 2, 1)));
        layers.push(activation());
        layers.push(Layer::Conv(random_conv(&mut rng, 2, 4, 1)));
        layers.push(activation());
        channels = 4;
    }
    // Classifier convolution to 10 channels followed by global average pooling.
    layers.push(Layer::Conv(random_conv(&mut rng, channels, 10, 1)));
    layers.push(Layer::AvgPool { window: 6 });
    Network {
        name: "SqueezeNet-CIFAR".into(),
        input_shape: (3, 8, 8),
        layers,
    }
}

/// All five evaluation networks in the order of the paper's tables.
pub fn all_networks(seed: u64) -> Vec<Network> {
    vec![
        lenet5_small(seed),
        lenet5_medium(seed + 1),
        lenet5_large(seed + 2),
        industrial(seed + 3),
        squeezenet_cifar(seed + 4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_match_table_3_structure() {
        assert_eq!(
            lenet5_small(0).layer_counts(),
            LayerCounts {
                conv: 2,
                fc: 2,
                act: 4
            }
        );
        assert_eq!(
            lenet5_medium(0).layer_counts(),
            LayerCounts {
                conv: 2,
                fc: 2,
                act: 4
            }
        );
        assert_eq!(
            lenet5_large(0).layer_counts(),
            LayerCounts {
                conv: 2,
                fc: 2,
                act: 4
            }
        );
        assert_eq!(
            industrial(0).layer_counts(),
            LayerCounts {
                conv: 5,
                fc: 2,
                act: 6
            }
        );
        assert_eq!(
            squeezenet_cifar(0).layer_counts(),
            LayerCounts {
                conv: 10,
                fc: 0,
                act: 9
            }
        );
    }

    #[test]
    fn plain_inference_produces_expected_logit_counts() {
        for network in all_networks(42) {
            let (c, h, w) = network.input_shape;
            let input = Tensor::from_data(c, h, w, vec![0.1; c * h * w]);
            let logits = network.infer_plain(&input);
            let expected = match network.name.as_str() {
                "Industrial" => 2,
                _ => 10,
            };
            assert_eq!(logits.len(), expected, "{}", network.name);
            assert!(logits.iter().all(|v| v.is_finite()), "{}", network.name);
            assert_eq!(network.output_count(), expected);
        }
    }

    #[test]
    fn flop_counts_increase_with_network_size() {
        let small = lenet5_small(1).flop_count();
        let medium = lenet5_medium(1).flop_count();
        let large = lenet5_large(1).flop_count();
        assert!(small < medium && medium < large);
        assert!(small > 1000);
    }

    #[test]
    fn networks_are_deterministic_per_seed() {
        let a = lenet5_small(7);
        let b = lenet5_small(7);
        let input = Tensor::from_data(1, 8, 8, (0..64).map(|i| i as f64 / 64.0).collect());
        assert_eq!(a.infer_plain(&input), b.infer_plain(&input));
    }
}
