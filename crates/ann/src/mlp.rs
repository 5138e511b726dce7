//! The multilayer perceptron itself.

use crate::{sigmoid, Topology};
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fully-connected sigmoid multilayer perceptron.
///
/// Every computing neuron (hidden and output) performs a weighted sum of its
/// inputs plus a bias, then applies the sigmoid — the exact dataflow the
/// paper's NPU implements (Section 6.1). All values are expected to be
/// normalized to `[0, 1]`; see [`crate::Normalizer`].
///
/// Weights for layer `l` are stored row-major per neuron:
/// `[w_0, w_1, ..., w_{n_in-1}, bias]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    topology: Topology,
    /// One weight matrix per layer transition, each of shape
    /// `layers[l+1] x (layers[l] + 1)`.
    weights: Vec<Vec<f32>>,
}

impl Mlp {
    /// Creates a network with all weights zero (useful for deserialization
    /// targets and tests).
    pub fn zeroed(topology: Topology) -> Self {
        let weights = topology
            .layers()
            .windows(2)
            .map(|w| vec![0.0; (w[0] + 1) * w[1]])
            .collect();
        Mlp { topology, weights }
    }

    /// Creates a network with small random initial weights from a seed.
    ///
    /// Initialization draws uniformly from `[-r, r]` with
    /// `r = 1 / sqrt(fan_in)`, the classic heuristic that keeps initial
    /// weighted sums in the sigmoid's linear region.
    pub fn seeded(topology: Topology, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::zeroed(topology);
        for l in 0..mlp.weights.len() {
            let fan_in = mlp.topology.layers()[l] as f32;
            let r = 1.0 / fan_in.sqrt();
            for w in &mut mlp.weights[l] {
                *w = rng.gen_range(-r..=r);
            }
        }
        mlp
    }

    /// Creates a network from explicit weight matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes do not match the topology.
    pub fn from_weights(topology: Topology, weights: Vec<Vec<f32>>) -> Self {
        let expected: Vec<usize> = topology
            .layers()
            .windows(2)
            .map(|w| (w[0] + 1) * w[1])
            .collect();
        let actual: Vec<usize> = weights.iter().map(Vec::len).collect();
        assert_eq!(expected, actual, "weight matrix shapes mismatch topology");
        Mlp { topology, weights }
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The weight (or bias, when `src == fan_in`) feeding neuron `neuron`
    /// of computing layer `layer` (0 = first hidden layer).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn weight(&self, layer: usize, neuron: usize, src: usize) -> f32 {
        let n_in = self.topology.layers()[layer];
        self.weights[layer][neuron * (n_in + 1) + src]
    }

    /// Mutable access used by the naive reference kernels in the
    /// scratch-buffer bit-exactness tests.
    #[cfg(test)]
    pub(crate) fn weight_mut(&mut self, layer: usize, neuron: usize, src: usize) -> &mut f32 {
        let n_in = self.topology.layers()[layer];
        &mut self.weights[layer][neuron * (n_in + 1) + src]
    }

    /// Raw weight matrices (layer transitions in order).
    pub fn weight_matrices(&self) -> &[Vec<f32>] {
        &self.weights
    }

    /// Mutable raw weight matrices, used by the scratch-buffer trainer for
    /// row-slice updates (shapes must not change).
    pub(crate) fn weight_matrices_mut(&mut self) -> &mut [Vec<f32>] {
        &mut self.weights
    }

    /// Evaluates the network on a normalized input vector with the exact
    /// sigmoid: the last layer of [`activations`](Self::activations).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer size.
    pub fn feed_forward(&self, input: &[f32]) -> Vec<f32> {
        self.activations(input, sigmoid)
            .pop()
            .expect("a topology has an output layer")
    }

    /// Evaluates the network and returns the activations of **every** layer
    /// (input layer first), applying `act` (`ann::sigmoid`, or
    /// `|x| lut.eval(x)` for the NPU's table) to each neuron's weighted sum.
    ///
    /// This is the naive reference: one allocation per layer, one neuron at
    /// a time. The allocation-free kernel ([`crate::Scratch`]) must match
    /// it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer size.
    pub fn activations(&self, input: &[f32], act: impl Fn(f32) -> f32) -> Vec<Vec<f32>> {
        assert_eq!(
            input.len(),
            self.topology.inputs(),
            "input vector size mismatch"
        );
        let mut acts = Vec::with_capacity(self.topology.layers().len());
        acts.push(input.to_vec());
        for (l, matrix) in self.weights.iter().enumerate() {
            let n_in = self.topology.layers()[l];
            let n_out = self.topology.layers()[l + 1];
            let prev = &acts[l];
            let mut next = Vec::with_capacity(n_out);
            for neuron in 0..n_out {
                let row = &matrix[neuron * (n_in + 1)..(neuron + 1) * (n_in + 1)];
                let mut sum = row[n_in]; // bias
                for (w, x) in row[..n_in].iter().zip(prev) {
                    sum += w * x;
                }
                next.push(act(sum));
            }
            acts.push(next);
        }
        acts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Mlp {
        // 2 -> 2 -> 1 with hand-picked weights.
        let t = Topology::new(vec![2, 2, 1]).unwrap();
        Mlp::from_weights(
            t,
            vec![
                // hidden: neuron0 = s(1*a + 0*b + 0), neuron1 = s(0*a + 1*b + 0)
                vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                // output = s(h0 + h1 - 1)
                vec![1.0, 1.0, -1.0],
            ],
        )
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mlp = tiny();
        let out = mlp.feed_forward(&[0.0, 0.0]);
        // hidden = (0.5, 0.5); output = sigmoid(0.5 + 0.5 - 1) = 0.5
        assert!((out[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn activations_include_all_layers() {
        let mlp = tiny();
        let acts = mlp.activations(&[1.0, 0.0], sigmoid);
        assert_eq!(acts.len(), 3);
        assert_eq!(acts[0], vec![1.0, 0.0]);
        assert_eq!(acts[2].len(), 1);
        // Last activation equals feed_forward output.
        assert_eq!(acts[2], mlp.feed_forward(&[1.0, 0.0]));
    }

    #[test]
    fn lut_forward_close_to_exact() {
        let t = Topology::new(vec![3, 8, 2]).unwrap();
        let mlp = Mlp::seeded(t, 7);
        let lut = crate::SigmoidLut::default();
        let input = [0.2, 0.9, 0.4];
        let exact = mlp.feed_forward(&input);
        let quant = mlp.activations(&input, |x| lut.eval(x)).pop().unwrap();
        for (a, b) in exact.iter().zip(&quant) {
            assert!((a - b).abs() < 5e-3);
        }
    }

    #[test]
    fn seeded_is_deterministic() {
        let t = Topology::new(vec![4, 8, 1]).unwrap();
        let a = Mlp::seeded(t.clone(), 99);
        let b = Mlp::seeded(t, 99);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input vector size mismatch")]
    fn forward_rejects_wrong_input_size() {
        tiny().feed_forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "shapes mismatch")]
    fn from_weights_validates_shapes() {
        let t = Topology::new(vec![2, 1]).unwrap();
        let _ = Mlp::from_weights(t, vec![vec![0.0; 5]]);
    }
}
