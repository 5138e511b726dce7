//! The batched lane width and the minibatch weight-update rule.
//!
//! [`Scratch<LANES>`](crate::Scratch) ([`BatchScratch`]) runs the shared
//! forward walk and delta pass for [`LANES`] samples per weight-matrix
//! walk. Minibatch backprop ([`Scratch::accumulate_block`] +
//! [`Scratch::apply_update`]) is *gradient-equivalent*, not
//! weight-trajectory-identical, to per-sample SGD: it accumulates each
//! weight's gradient over the minibatch **in sample order** (lane order
//! within a block, block order across the batch), so the accumulated
//! gradient is bit-identical to an in-order scalar accumulation at fixed
//! weights; the momentum update `v = µ·v − lr·G; w += v` is then applied
//! once per minibatch.

use crate::{sigmoid, Mlp, Scratch};

/// Samples processed per weight-matrix walk by the batched kernel. Sixteen
/// f32 lanes give the MAC loop four independent SSE2 (or two AVX2)
/// accumulator chains — measured faster than 8 lanes on the reference
/// workload because the extra chains hide the FP-add latency. The
/// remainder tail runs the same code with idle lanes zeroed on load and
/// skipped on store and accumulation.
pub const LANES: usize = 16;

/// The batched instantiation of the one forward/backward kernel.
pub type BatchScratch = Scratch<LANES>;

impl<const W: usize> Scratch<W> {
    /// Zeroes the accumulated gradient to start a new minibatch.
    pub fn begin_batch(&mut self, mlp: &Mlp) {
        self.ensure_bound(mlp);
        self.grads.fill(0.0);
    }

    /// Forward+backward over one block of up to `W` samples at fixed
    /// weights, adding each weight's per-sample gradients to the minibatch
    /// accumulator in lane (= sample) order.
    ///
    /// # Panics
    ///
    /// Panics if the block is larger than `W` or a sample's shape
    /// mismatches the network.
    pub fn accumulate_block(&mut self, mlp: &Mlp, inputs: &[&[f32]], targets: &[&[f32]]) {
        assert!(inputs.len() <= W, "block larger than the lane count");
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        self.ensure_bound(mlp);
        let n_layers = self.layers.len();
        for input in inputs {
            assert_eq!(input.len(), self.layers[0], "input vector size mismatch");
        }
        for target in targets {
            assert_eq!(
                target.len(),
                self.layers[n_layers - 1],
                "target vector size mismatch"
            );
        }
        let n = inputs.len();
        self.load_inputs(inputs);
        self.forward_loaded(mlp, sigmoid);
        self.backward_deltas(mlp, targets);

        // Gradient accumulation, restricted to live lanes and summed in
        // lane (= sample) order so the minibatch total is bit-identical to
        // an in-order scalar accumulation.
        for l in 0..n_layers - 1 {
            let n_in = self.layers[l];
            let acts_here = &self.acts[self.act_off[l] * W..self.act_off[l + 1] * W];
            let deltas_here = &self.deltas[self.delta_off[l] * W..self.delta_off[l + 1] * W];
            let grads = &mut self.grads[self.vel_off[l]..self.vel_off[l + 1]];
            for (grow, d_blk) in grads
                .chunks_exact_mut(n_in + 1)
                .zip(deltas_here.chunks_exact(W))
            {
                let (gb, gs) = grow.split_last_mut().expect("row holds bias");
                for (g, a_blk) in gs.iter_mut().zip(acts_here.chunks_exact(W)) {
                    for lane in 0..n {
                        *g += d_blk[lane] * a_blk[lane];
                    }
                }
                for &d in d_blk.iter().take(n) {
                    *gb += d;
                }
            }
        }
    }

    /// Applies the accumulated minibatch gradient with momentum —
    /// `v = µ·v − lr·G; w += v`, weight-then-bias per row exactly like the
    /// per-sample kernel — and clears the accumulator. `G` is the gradient
    /// *sum* over the minibatch (not the mean); callers scale `lr` if they
    /// want mean semantics.
    pub fn apply_update(&mut self, mlp: &mut Mlp, lr: f32, mu: f32) {
        self.ensure_bound(mlp);
        for (l, matrix) in mlp.weight_matrices_mut().iter_mut().enumerate() {
            let vel = &mut self.velocity[self.vel_off[l]..self.vel_off[l + 1]];
            let grads = &self.grads[self.vel_off[l]..self.vel_off[l + 1]];
            for ((w, v), &g) in matrix.iter_mut().zip(vel.iter_mut()).zip(grads) {
                *v = mu * *v - lr * g;
                *w += *v;
            }
        }
        self.grads.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::tests::{dataset_for, small_topology};
    use crate::{mse_with, sigmoid_derivative, Dataset, SigmoidLut, Topology};
    use proptest::prelude::*;

    /// In-order scalar gradient accumulation at fixed weights: the
    /// reference the batched minibatch kernel must match bit-for-bit.
    fn scalar_batch_grads(
        mlp: &Mlp,
        data: &Dataset,
        range: std::ops::Range<usize>,
    ) -> Vec<Vec<f32>> {
        let mut grads: Vec<Vec<f32>> = mlp
            .weight_matrices()
            .iter()
            .map(|m| vec![0.0; m.len()])
            .collect();
        for idx in range {
            let input = data.input(idx);
            let target = data.output(idx);
            let acts = mlp.activations(input, sigmoid);
            let n_layers = acts.len();
            let mut deltas: Vec<Vec<f32>> = Vec::with_capacity(n_layers - 1);
            let out = &acts[n_layers - 1];
            deltas.push(
                out.iter()
                    .zip(target)
                    .map(|(&y, &t)| (y - t) * sigmoid_derivative(y))
                    .collect(),
            );
            for l in (1..n_layers - 1).rev() {
                let next_delta = deltas.last().unwrap();
                let n_here = acts[l].len();
                let n_next = acts[l + 1].len();
                let mut delta = vec![0.0f32; n_here];
                for (j, d) in delta.iter_mut().enumerate() {
                    let mut sum = 0.0;
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..n_next {
                        sum += mlp.weight(l, k, j) * next_delta[k];
                    }
                    *d = sum * sigmoid_derivative(acts[l][j]);
                }
                deltas.push(delta);
            }
            deltas.reverse();
            for l in 0..n_layers - 1 {
                let n_in = acts[l].len();
                for (neuron, &d) in deltas[l].iter().enumerate() {
                    let row = neuron * (n_in + 1);
                    for (src, &a) in acts[l].iter().enumerate() {
                        grads[l][row + src] += d * a;
                    }
                    grads[l][row + n_in] += d;
                }
            }
        }
        grads
    }

    #[test]
    fn batched_forward_matches_scalar_bitwise() {
        let t = Topology::new(vec![9, 8, 1]).unwrap();
        let mlp = Mlp::seeded(t.clone(), 7);
        let data = dataset_for(&t, 21, 3); // 2 full blocks + tail of 5
        let mut batch = BatchScratch::new();
        let mut scratch = Scratch::<1>::new();
        let inputs: Vec<&[f32]> = (0..data.len()).map(|i| data.input(i)).collect();
        let mut out = vec![0.0f32; LANES];
        let mut reference = [0.0f32; 1];
        for chunk in inputs.chunks(LANES) {
            batch.forward_block(&mlp, chunk, &mut out, sigmoid);
            for (lane, input) in chunk.iter().enumerate() {
                scratch.forward_block(&mlp, &[input], &mut reference, sigmoid);
                assert_eq!(out[lane].to_bits(), reference[0].to_bits());
            }
        }
    }

    #[test]
    fn batched_lut_forward_matches_feed_forward_lut() {
        let t = Topology::new(vec![6, 8, 4, 1]).unwrap();
        let mlp = Mlp::seeded(t.clone(), 11);
        let lut = SigmoidLut::default();
        let data = dataset_for(&t, 13, 5);
        let mut batch = BatchScratch::new();
        let inputs: Vec<&[f32]> = (0..data.len()).map(|i| data.input(i)).collect();
        for chunk in inputs.chunks(LANES) {
            let mut out = vec![0.0f32; chunk.len()];
            batch.forward_block(&mlp, chunk, &mut out, |x| lut.eval(x));
            for (lane, input) in chunk.iter().enumerate() {
                // The naive forward with the LUT as its activation.
                let reference = mlp.activations(input, |x| lut.eval(x)).pop().unwrap();
                assert_eq!(out[lane].to_bits(), reference[0].to_bits());
            }
        }
    }

    proptest! {
        /// Batched forward is bit-exact per sample against the scalar
        /// `Scratch<1>` walk for every batch size, including remainder tails.
        #[test]
        fn batched_forward_is_bit_exact(
            topology in small_topology(),
            seed in 0u64..500,
            n_samples in 1usize..20,
        ) {
            let mlp = Mlp::seeded(topology.clone(), seed);
            let data = dataset_for(&topology, n_samples, seed);
            let mut batch = BatchScratch::new();
            let mut scratch = Scratch::<1>::for_topology(&topology);
            let n_out = topology.outputs();
            let inputs: Vec<&[f32]> = (0..data.len()).map(|i| data.input(i)).collect();
            let mut out = vec![0.0f32; LANES * n_out];
            let mut reference = vec![0.0f32; n_out];
            for chunk in inputs.chunks(LANES) {
                batch.forward_block(&mlp, chunk, &mut out, sigmoid);
                for (lane, input) in chunk.iter().enumerate() {
                    scratch.forward_block(&mlp, &[input], &mut reference, sigmoid);
                    prop_assert_eq!(
                        out[lane * n_out..(lane + 1) * n_out].iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
                        reference.iter().map(|y| y.to_bits()).collect::<Vec<_>>()
                    );
                }
            }
        }

        /// Batched MSE is bit-exact against the per-sample `mse_with` for
        /// every dataset size (tails included).
        #[test]
        fn batched_mse_is_bit_exact(
            topology in small_topology(),
            seed in 0u64..500,
            n_samples in 1usize..28,
        ) {
            let mlp = Mlp::seeded(topology.clone(), seed);
            let data = dataset_for(&topology, n_samples, seed);
            let mut batch = BatchScratch::new();
            let mut scratch = Scratch::<1>::new();
            let a = mse_with(&mlp, &data, &mut scratch);
            let b = mse_with(&mlp, &data, &mut batch);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        /// The accumulated minibatch gradient is bit-exact against an
        /// in-order scalar accumulation at fixed weights, over random
        /// topologies, seeds, and batch shapes.
        #[test]
        fn batched_gradient_accumulation_is_bit_exact(
            topology in small_topology(),
            seed in 0u64..500,
            n_samples in 1usize..20,
        ) {
            let mlp = Mlp::seeded(topology.clone(), seed);
            let data = dataset_for(&topology, n_samples, seed);
            let mut batch = BatchScratch::for_topology(&topology);
            batch.begin_batch(&mlp);
            let idx: Vec<usize> = (0..data.len()).collect();
            for chunk in idx.chunks(LANES) {
                let ins: Vec<&[f32]> = chunk.iter().map(|&i| data.input(i)).collect();
                let tgts: Vec<&[f32]> = chunk.iter().map(|&i| data.output(i)).collect();
                batch.accumulate_block(&mlp, &ins, &tgts);
            }
            let reference = scalar_batch_grads(&mlp, &data, 0..data.len());
            let mut off = 0;
            for m in reference {
                for (i, g) in m.iter().enumerate() {
                    prop_assert_eq!(batch.grads[off + i].to_bits(), g.to_bits());
                }
                off += m.len();
            }
        }

        /// A batch scratch reused across topologies (the worker-thread
        /// pattern) never contaminates results.
        #[test]
        fn batch_scratch_reuse_across_topologies_is_clean(
            t1 in small_topology(),
            t2 in small_topology(),
            seed in 0u64..200,
        ) {
            let d1 = dataset_for(&t1, 9, seed);
            let d2 = dataset_for(&t2, 9, seed.wrapping_add(1));
            let m1 = Mlp::seeded(t1.clone(), seed);
            let m2 = Mlp::seeded(t2.clone(), seed);
            let mut shared = BatchScratch::new();
            let _ = mse_with(&m1, &d1, &mut shared);
            let via_shared = mse_with(&m2, &d2, &mut shared);
            let mut fresh = BatchScratch::new();
            let via_fresh = mse_with(&m2, &d2, &mut fresh);
            prop_assert_eq!(via_shared.to_bits(), via_fresh.to_bits());
        }
    }

    /// Momentum across minibatches: two apply_update calls must equal the
    /// closed-form two-step momentum recurrence on the accumulated grads.
    #[test]
    fn apply_update_carries_momentum() {
        let t = crate::Topology::new(vec![2, 2, 1]).unwrap();
        let mlp0 = Mlp::seeded(t.clone(), 1);
        let data = dataset_for(&t, 6, 9);
        let (lr, mu) = (0.05f32, 0.9f32);

        let mut batched = mlp0.clone();
        let mut batch = BatchScratch::for_topology(&t);
        // Batch 1: samples 0..3; batch 2: samples 3..6.
        for range in [0..3usize, 3..6] {
            batch.begin_batch(&batched);
            let ins: Vec<&[f32]> = range.clone().map(|i| data.input(i)).collect();
            let tgts: Vec<&[f32]> = range.clone().map(|i| data.output(i)).collect();
            batch.accumulate_block(&batched, &ins, &tgts);
            batch.apply_update(&mut batched, lr, mu);
        }

        // Reference: same recurrence with scalar-accumulated gradients.
        let mut reference = mlp0.clone();
        let mut velocity: Vec<Vec<f32>> = reference
            .weight_matrices()
            .iter()
            .map(|m| vec![0.0; m.len()])
            .collect();
        for range in [0..3usize, 3..6] {
            let grads = scalar_batch_grads(&reference, &data, range);
            for (l, g) in grads.iter().enumerate() {
                for (i, &gi) in g.iter().enumerate() {
                    velocity[l][i] = mu * velocity[l][i] - lr * gi;
                }
            }
            for (l, v) in velocity.iter().enumerate() {
                let matrix = &mut reference.weight_matrices_mut()[l];
                for (w, &vi) in matrix.iter_mut().zip(v) {
                    *w += vi;
                }
            }
        }
        assert_eq!(batched, reference);
    }
}
