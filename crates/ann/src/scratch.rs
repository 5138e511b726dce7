//! The MLP evaluation kernel: one lane-generic forward walk and one
//! backward delta pass over reusable, allocation-free scratch buffers.
//!
//! The topology search trains 30 candidate networks, so these kernels run
//! hundreds of millions of times per sweep. [`Scratch<W>`] owns flat
//! activation, delta, gradient and velocity buffers sized once per
//! topology and reused across samples, epochs and candidates, and walks
//! each weight matrix once per `W` samples. Activations are stored
//! *lane-major* (`[layer][neuron][lane]`, one contiguous `[f32; W]` block
//! per neuron), so the inner loops are fixed-width lane arrays the stable
//! compiler autovectorizes — no nightly `std::simd`. `Scratch<1>` is the
//! per-sample kernel (its layout is the plain concatenation of the layer
//! activations) and `Scratch<LANES>` ([`crate::BatchScratch`]) the
//! batched one; both are this one piece of code.
//!
//! **Bit-exactness contract:** every lane performs the identical scalar
//! operation sequence as the naive reference ([`Mlp::activations`]): each
//! neuron's sum starts from the bias and accumulates inputs in index
//! order, with no horizontal reassociation, and hidden deltas accumulate
//! over the next layer in neuron order. A sample's outputs, MSE
//! contribution and deltas are therefore bit-identical at every width,
//! batch size and tail position. Trained weights must stay byte-identical
//! — the harness artifact cache and every golden test depend on it.
//!
//! The forward walk and the delta pass are shared; the two weight-update
//! rules are not, because they round differently:
//! * per-sample SGD ([`Scratch::backprop_one`], `W = 1`) applies
//!   `v = µ·v − lr·δ·a; w += v` after every sample;
//! * minibatch training ([`Scratch::accumulate_block`] +
//!   [`Scratch::apply_update`], in `batch.rs`) sums `δ·a` over the
//!   minibatch in sample order, then applies `v = µ·v − lr·G; w += v`.
//!
//! Folding one rule into the other would change which products get
//! rounded, and with them every trained weight.

use crate::{sigmoid, sigmoid_derivative, Dataset, Mlp, Topology};

/// Flat, reusable lane-major buffers for forward evaluation and
/// backpropagation of up to `W` samples per weight-matrix walk.
///
/// A scratch binds lazily to a topology on first use and rebinds (cheaply
/// when shapes match) whenever it is handed a network of a different
/// shape, so one instance per worker thread serves an entire topology
/// search.
#[derive(Debug, Clone, Default)]
pub struct Scratch<const W: usize = 1> {
    /// Layer sizes this scratch is currently bound to (empty = unbound).
    pub(crate) layers: Vec<usize>,
    /// Lane-major activations: neuron `j` of layer `l` occupies
    /// `acts[(act_off[l] + j) * W..][..W]`.
    pub(crate) acts: Vec<f32>,
    /// Neuron offsets per layer (multiply by `W` for buffer offsets).
    pub(crate) act_off: Vec<usize>,
    /// Lane-major `dE/dnet` per computing layer.
    pub(crate) deltas: Vec<f32>,
    /// Neuron offsets per computing layer (0 = first hidden).
    pub(crate) delta_off: Vec<usize>,
    /// Accumulated minibatch gradient, one entry per weight, laid out
    /// exactly like the concatenated weight matrices.
    pub(crate) grads: Vec<f32>,
    /// Momentum state, same layout as `grads`.
    pub(crate) velocity: Vec<f32>,
    /// `grads`/`velocity` offsets per weight matrix.
    pub(crate) vel_off: Vec<usize>,
}

impl<const W: usize> Scratch<W> {
    /// Creates an unbound scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for `topology`.
    pub fn for_topology(topology: &Topology) -> Self {
        let mut s = Self::new();
        s.bind(topology);
        s
    }

    /// (Re)binds the buffers to `topology`, zeroing the gradient and
    /// velocity state. A no-op shape-wise when already bound to the same
    /// layer sizes, but the reset always happens — each training run
    /// starts from zero momentum, exactly like a freshly allocated
    /// velocity vector.
    pub fn bind(&mut self, topology: &Topology) {
        if self.layers != topology.layers() {
            self.layers.clear();
            self.layers.extend_from_slice(topology.layers());
            self.act_off.clear();
            self.act_off.push(0);
            for &n in &self.layers {
                self.act_off.push(self.act_off.last().unwrap() + n);
            }
            self.delta_off.clear();
            self.delta_off.push(0);
            for &n in &self.layers[1..] {
                self.delta_off.push(self.delta_off.last().unwrap() + n);
            }
            self.vel_off.clear();
            self.vel_off.push(0);
            for w in self.layers.windows(2) {
                self.vel_off
                    .push(self.vel_off.last().unwrap() + (w[0] + 1) * w[1]);
            }
            self.acts.resize(self.act_off.last().unwrap() * W, 0.0);
            self.deltas.resize(self.delta_off.last().unwrap() * W, 0.0);
            self.grads.resize(*self.vel_off.last().unwrap(), 0.0);
            self.velocity.resize(*self.vel_off.last().unwrap(), 0.0);
        }
        self.grads.fill(0.0);
        self.velocity.fill(0.0);
    }

    /// Binds to `mlp`'s topology unless already bound to it. Unlike
    /// [`bind`](Self::bind) this keeps the momentum state, which the
    /// trainer relies on when it samples the MSE mid-training.
    pub(crate) fn ensure_bound(&mut self, mlp: &Mlp) {
        if self.layers != mlp.topology().layers() {
            self.bind(mlp.topology());
        }
    }

    /// Loads up to `W` sample inputs into the lane-major input layer.
    /// A partial block zeroes its idle lanes first: they would otherwise
    /// carry the previous block's values through the walk. They are never
    /// read back, but zeroing keeps every lane's arithmetic finite and the
    /// buffers deterministic.
    pub(crate) fn load_inputs(&mut self, inputs: &[&[f32]]) {
        let n_in = self.layers[0];
        let block = &mut self.acts[..n_in * W];
        if inputs.len() < W {
            block.fill(0.0);
        }
        for (lane, input) in inputs.iter().enumerate() {
            debug_assert_eq!(input.len(), n_in);
            for (j, &x) in input.iter().enumerate() {
                block[j * W + lane] = x;
            }
        }
    }

    /// The forward walk: one pass over each weight matrix computes all
    /// lanes. Per lane the arithmetic is `sum = bias; sum += w_i * x_i` in
    /// index order, then `act(sum)`.
    pub(crate) fn forward_loaded(&mut self, mlp: &Mlp, act: impl Fn(f32) -> f32 + Copy) {
        debug_assert_eq!(self.layers, mlp.topology().layers());
        for (l, matrix) in mlp.weight_matrices().iter().enumerate() {
            let n_in = self.layers[l];
            let n_out = self.layers[l + 1];
            // The next layer's slot starts exactly where the current one
            // ends, so one split gives disjoint read/write views.
            let (prev_all, next_all) = self.acts.split_at_mut(self.act_off[l + 1] * W);
            let prev = &prev_all[self.act_off[l] * W..];
            let next = &mut next_all[..n_out * W];
            for (row, out) in matrix.chunks_exact(n_in + 1).zip(next.chunks_exact_mut(W)) {
                let (bias, ws) = row.split_last().expect("row holds bias");
                let mut sum = [*bias; W];
                for (x_blk, &w) in prev.chunks_exact(W).zip(ws) {
                    for (s, &xv) in sum.iter_mut().zip(x_blk) {
                        *s += w * xv;
                    }
                }
                for (o, &s) in out.iter_mut().zip(&sum) {
                    *o = act(s);
                }
            }
        }
    }

    /// The output layer's lane-major activations: output `k` of lane
    /// `lane` is at `[k * W + lane]`.
    fn output_block(&self) -> &[f32] {
        &self.acts[self.act_off[self.layers.len() - 1] * W..]
    }

    /// Forward-evaluates one block of up to `W` samples with `act` as the
    /// activation (`ann::sigmoid`, or `|x| lut.eval(x)` for the NPU's
    /// table), writing sample-major outputs (`inputs.len() × n_out`) into
    /// `outputs`. Each sample's outputs are bit-identical to the naive
    /// [`Mlp::activations`] with the same activation, at every width.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` holds more than `W` samples, an input has the
    /// wrong width, or `outputs` is shorter than `inputs.len() * n_out`.
    pub fn forward_block(
        &mut self,
        mlp: &Mlp,
        inputs: &[&[f32]],
        outputs: &mut [f32],
        act: impl Fn(f32) -> f32 + Copy,
    ) {
        assert!(inputs.len() <= W, "block larger than the lane count");
        self.ensure_bound(mlp);
        for input in inputs {
            assert_eq!(input.len(), self.layers[0], "input vector size mismatch");
        }
        let n_out = mlp.topology().outputs();
        assert!(
            outputs.len() >= inputs.len() * n_out,
            "output buffer too small"
        );
        self.load_inputs(inputs);
        self.forward_loaded(mlp, act);
        let out_block = self.output_block();
        for lane in 0..inputs.len() {
            for k in 0..n_out {
                outputs[lane * n_out + k] = out_block[k * W + lane];
            }
        }
    }

    /// The backward delta pass over the loaded block: the output deltas
    /// `(y - t)·y·(1 - y)` for the lanes in `targets`, then the hidden
    /// deltas walking backwards, each lane accumulating over the next
    /// layer in neuron order. Idle lanes keep whatever they compute; the
    /// update rules never read them.
    pub(crate) fn backward_deltas(&mut self, mlp: &Mlp, targets: &[&[f32]]) {
        let n_layers = self.layers.len();
        let out_acts = &self.acts[self.act_off[n_layers - 1] * W..];
        let out_deltas = &mut self.deltas[self.delta_off[n_layers - 2] * W..];
        for (k, (d_blk, y_blk)) in out_deltas
            .chunks_exact_mut(W)
            .zip(out_acts.chunks_exact(W))
            .enumerate()
        {
            for (lane, target) in targets.iter().enumerate() {
                let y = y_blk[lane];
                d_blk[lane] = (y - target[k]) * sigmoid_derivative(y);
            }
        }

        // Computing layer `l - 1` feeds computing layer `l`; splitting
        // `deltas` at the boundary yields the current (write) and next
        // (read) slices disjointly.
        for l in (1..n_layers - 1).rev() {
            let n_here = self.layers[l];
            let n_next = self.layers[l + 1];
            let matrix = &mlp.weight_matrices()[l];
            let acts_here = &self.acts[self.act_off[l] * W..self.act_off[l + 1] * W];
            let (cur_all, next_all) = self.deltas.split_at_mut(self.delta_off[l] * W);
            let cur = &mut cur_all[self.delta_off[l - 1] * W..];
            let next_delta = &next_all[..n_next * W];
            for (j, (d_blk, a_blk)) in cur
                .chunks_exact_mut(W)
                .zip(acts_here.chunks_exact(W))
                .enumerate()
            {
                // Row k holds the weights into neuron k of layer l + 1.
                let mut sum = [0.0f32; W];
                for (row, nd_blk) in matrix
                    .chunks_exact(n_here + 1)
                    .zip(next_delta.chunks_exact(W))
                {
                    let w = row[j];
                    for (s, &nd) in sum.iter_mut().zip(nd_blk) {
                        *s += w * nd;
                    }
                }
                for ((d, &s), &a) in d_blk.iter_mut().zip(&sum).zip(a_blk) {
                    *d = s * sigmoid_derivative(a);
                }
            }
        }
    }
}

impl Scratch<1> {
    /// One fused forward+backward SGD step with momentum for a single
    /// sample: `v = µ·v − lr·δ·a; w += v`, weight-then-bias per row. The
    /// scratch's velocity state carries across calls. The caller has bound
    /// the scratch to `mlp` and checked the sample's shape
    /// ([`crate::Trainer`] does both once per dataset).
    pub(crate) fn backprop_one(
        &mut self,
        mlp: &mut Mlp,
        input: &[f32],
        target: &[f32],
        lr: f32,
        mu: f32,
    ) {
        self.load_inputs(&[input]);
        self.forward_loaded(mlp, sigmoid);
        self.backward_deltas(mlp, &[target]);
        for (l, matrix) in mlp.weight_matrices_mut().iter_mut().enumerate() {
            let n_in = self.layers[l];
            let acts_here = &self.acts[self.act_off[l]..self.act_off[l + 1]];
            let deltas_here = &self.deltas[self.delta_off[l]..self.delta_off[l + 1]];
            let vel = &mut self.velocity[self.vel_off[l]..self.vel_off[l + 1]];
            let wrows = matrix.chunks_exact_mut(n_in + 1);
            let vrows = vel.chunks_exact_mut(n_in + 1);
            for ((wrow, vrow), &d) in wrows.zip(vrows).zip(deltas_here) {
                let (wb, ws) = wrow.split_last_mut().expect("row holds bias");
                let (vb, vs) = vrow.split_last_mut().expect("row holds bias");
                for ((v, w), &a) in vs.iter_mut().zip(ws.iter_mut()).zip(acts_here) {
                    *v = mu * *v - lr * d * a;
                    *w += *v;
                }
                *vb = mu * *vb - lr * d;
                *wb += *vb; // bias
            }
        }
    }
}

/// Mean squared error of `mlp` over `data`, `W` samples per forward walk.
/// The squared-error total is accumulated in f64 in sample order, outputs
/// in index order within a sample, so the result is bit-identical at
/// every width. Returns 0 for an empty dataset.
pub fn mse_with<const W: usize>(mlp: &Mlp, data: &Dataset, scratch: &mut Scratch<W>) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    scratch.ensure_bound(mlp);
    assert_eq!(
        data.n_inputs(),
        mlp.topology().inputs(),
        "dataset input dims mismatch network"
    );
    let n_out = mlp.topology().outputs();
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut inputs: [&[f32]; W] = [&[]; W];
    for base in (0..data.len()).step_by(W) {
        let n = W.min(data.len() - base);
        for (lane, slot) in inputs.iter_mut().enumerate().take(n) {
            *slot = data.input(base + lane);
        }
        scratch.load_inputs(&inputs[..n]);
        scratch.forward_loaded(mlp, sigmoid);
        let out_block = scratch.output_block();
        for lane in 0..n {
            for (k, &t) in data.output(base + lane).iter().enumerate().take(n_out) {
                let e = (out_block[k * W + lane] - t) as f64;
                total += e * e;
                count += 1;
            }
        }
    }
    total / count as f64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{SigmoidLut, LANES};
    use proptest::prelude::*;

    /// The pre-scratch backpropagation step, kept verbatim as the bit-exact
    /// reference ([`Mlp::activations`] is the retained naive forward).
    fn naive_backprop_one(
        mlp: &mut Mlp,
        input: &[f32],
        target: &[f32],
        velocity: &mut [Vec<f32>],
        lr: f32,
        mu: f32,
    ) {
        let acts = mlp.activations(input, sigmoid);
        let n_layers = acts.len();
        let mut deltas: Vec<Vec<f32>> = Vec::with_capacity(n_layers - 1);

        let out = &acts[n_layers - 1];
        let out_delta: Vec<f32> = out
            .iter()
            .zip(target)
            .map(|(&y, &t)| (y - t) * sigmoid_derivative(y))
            .collect();
        deltas.push(out_delta);

        for l in (1..n_layers - 1).rev() {
            let next_delta = deltas.last().expect("output delta pushed first");
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
                    let v = &mut velocity[l][row + src];
                    *v = mu * *v - lr * d * a;
                    *mlp.weight_mut(l, neuron, src) += *v;
                }
                let v = &mut velocity[l][row + n_in];
                *v = mu * *v - lr * d;
                *mlp.weight_mut(l, neuron, n_in) += *v;
            }
        }
    }

    /// The naive MSE over the naive forward: the bit-exact reference.
    fn naive_mse(mlp: &Mlp, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (input, target) in data.iter() {
            let out = mlp.feed_forward(input);
            for (&y, &t) in out.iter().zip(target) {
                let e = (y - t) as f64;
                total += e * e;
                count += 1;
            }
        }
        total / count as f64
    }

    pub(crate) fn small_topology() -> impl Strategy<Value = Topology> {
        (
            1usize..6,
            proptest::collection::vec(1usize..9, 0..3),
            1usize..5,
        )
            .prop_map(|(inputs, hidden, outputs)| {
                let mut layers = vec![inputs];
                layers.extend(hidden);
                layers.push(outputs);
                Topology::new(layers).expect("nonzero layers")
            })
    }

    pub(crate) fn dataset_for(topology: &Topology, n: usize, salt: u64) -> Dataset {
        let mut d = Dataset::new(topology.inputs(), topology.outputs());
        for k in 0..n {
            let input: Vec<f32> = (0..topology.inputs())
                .map(|i| ((k as u64 * 31 + i as u64 * 7 + salt) % 97) as f32 / 97.0)
                .collect();
            let output: Vec<f32> = (0..topology.outputs())
                .map(|i| ((k as u64 * 13 + i as u64 * 5 + salt) % 89) as f32 / 89.0)
                .collect();
            d.push(&input, &output).unwrap();
        }
        d
    }

    /// Every sample of `data`, forwarded `W` at a time through `scratch`
    /// with `act`, equals the naive oracle bit for bit.
    fn check_forward<const W: usize>(
        scratch: &mut Scratch<W>,
        mlp: &Mlp,
        data: &Dataset,
        act: impl Fn(f32) -> f32 + Copy,
    ) -> Result<(), TestCaseError> {
        let n_out = mlp.topology().outputs();
        let inputs: Vec<&[f32]> = (0..data.len()).map(|i| data.input(i)).collect();
        let mut out = vec![f32::NAN; W * n_out];
        for chunk in inputs.chunks(W) {
            scratch.forward_block(mlp, chunk, &mut out, act);
            for (lane, input) in chunk.iter().enumerate() {
                let want = mlp.activations(input, act).pop().unwrap();
                let got = &out[lane * n_out..][..n_out];
                prop_assert_eq!(
                    got.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|y| y.to_bits()).collect::<Vec<_>>()
                );
            }
        }
        Ok(())
    }

    /// Forwards one sample through a per-sample scratch.
    fn forward_one(scratch: &mut Scratch<1>, mlp: &Mlp, input: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; mlp.topology().outputs()];
        scratch.forward_block(mlp, &[input], &mut out, sigmoid);
        out
    }

    #[test]
    fn forward_matches_feed_forward_bitwise() {
        let t = Topology::new(vec![9, 8, 4, 1]).unwrap();
        let mlp = Mlp::seeded(t.clone(), 3);
        let mut scratch = Scratch::new();
        for k in 0..20 {
            let input: Vec<f32> = (0..9).map(|i| ((k * 11 + i) % 13) as f32 / 13.0).collect();
            assert_eq!(
                forward_one(&mut scratch, &mlp, &input),
                mlp.feed_forward(&input)
            );
        }
    }

    #[test]
    fn rebinding_to_a_new_topology_resizes() {
        let small = Topology::new(vec![2, 2, 1]).unwrap();
        let big = Topology::new(vec![9, 32, 32, 2]).unwrap();
        let mut scratch = Scratch::for_topology(&small);
        let mlp = Mlp::seeded(big.clone(), 1);
        let input: Vec<f32> = (0..9).map(|i| i as f32 / 9.0).collect();
        assert_eq!(
            forward_one(&mut scratch, &mlp, &input),
            mlp.feed_forward(&input)
        );
        // And back down.
        let mlp2 = Mlp::seeded(small, 2);
        assert_eq!(
            forward_one(&mut scratch, &mlp2, &[0.25, 0.75]),
            mlp2.feed_forward(&[0.25, 0.75])
        );
    }

    proptest! {
        /// The bit-exactness matrix: `Scratch<1>` and `Scratch<LANES>` ×
        /// {exact sigmoid, hardware LUT} × random topology and sample
        /// count (full blocks and every tail position) against the naive
        /// oracle, plus `mse_with` at both widths against the naive MSE.
        /// The scratches are first bound to an unrelated topology, so
        /// every case also rebinds them (up or down in size).
        #[test]
        fn scratch_forward_and_mse_are_bit_exact(
            topology in small_topology(),
            prior in small_topology(),
            seed in 0u64..500,
            n_samples in 1usize..2 * LANES + 4,
        ) {
            let mlp = Mlp::seeded(topology.clone(), seed);
            let data = dataset_for(&topology, n_samples, seed);
            let lut = SigmoidLut::default();
            let mut one = Scratch::<1>::for_topology(&prior);
            let mut wide = Scratch::<LANES>::for_topology(&prior);
            let (prior_mlp, prior_data) = (Mlp::seeded(prior.clone(), seed), dataset_for(&prior, 3, seed));
            let _ = mse_with(&prior_mlp, &prior_data, &mut one);
            let _ = mse_with(&prior_mlp, &prior_data, &mut wide);
            check_forward(&mut one, &mlp, &data, sigmoid)?;
            check_forward(&mut one, &mlp, &data, |x| lut.eval(x))?;
            check_forward(&mut wide, &mlp, &data, sigmoid)?;
            check_forward(&mut wide, &mlp, &data, |x| lut.eval(x))?;
            let want = naive_mse(&mlp, &data).to_bits();
            prop_assert_eq!(mse_with(&mlp, &data, &mut one).to_bits(), want);
            prop_assert_eq!(mse_with(&mlp, &data, &mut wide).to_bits(), want);
        }

        /// Fused scratch backprop is bit-exact against the naive reference
        /// over random topologies, seeds, and datasets — including the
        /// momentum state carried across samples.
        #[test]
        fn scratch_backprop_is_bit_exact(
            topology in small_topology(),
            seed in 0u64..500,
            n_samples in 1usize..12,
        ) {
            let data = dataset_for(&topology, n_samples, seed);
            let mut naive = Mlp::seeded(topology.clone(), seed);
            let mut fused = naive.clone();
            let mut velocity: Vec<Vec<f32>> = naive
                .weight_matrices()
                .iter()
                .map(|m| vec![0.0; m.len()])
                .collect();
            let mut scratch = Scratch::for_topology(&topology);
            // Two passes over the data so momentum history matters.
            for _ in 0..2 {
                for (input, target) in data.iter() {
                    naive_backprop_one(&mut naive, input, target, &mut velocity, 0.01, 0.9);
                    scratch.backprop_one(&mut fused, input, target, 0.01, 0.9);
                }
            }
            prop_assert_eq!(naive, fused);
        }

        /// A scratch reused across different topologies (the worker-thread
        /// pattern in the topology search) never contaminates results.
        #[test]
        fn scratch_reuse_across_topologies_is_clean(
            t1 in small_topology(),
            t2 in small_topology(),
            seed in 0u64..200,
        ) {
            let d1 = dataset_for(&t1, 5, seed);
            let d2 = dataset_for(&t2, 5, seed.wrapping_add(1));
            let mut shared = Scratch::new();

            let mut m1_shared = Mlp::seeded(t1.clone(), seed);
            let mut m2_shared = Mlp::seeded(t2.clone(), seed);
            shared.bind(&t1);
            for (i, t) in d1.iter() {
                shared.backprop_one(&mut m1_shared, i, t, 0.01, 0.9);
            }
            shared.bind(&t2);
            for (i, t) in d2.iter() {
                shared.backprop_one(&mut m2_shared, i, t, 0.01, 0.9);
            }

            let mut m2_fresh = Mlp::seeded(t2, seed);
            let mut fresh = Scratch::new();
            fresh.bind(m2_fresh.topology());
            for (i, t) in d2.iter() {
                fresh.backprop_one(&mut m2_fresh, i, t, 0.01, 0.9);
            }
            prop_assert_eq!(m2_shared, m2_fresh);
            // And the first network matches a naive run.
            let mut m1_naive = Mlp::seeded(t1, seed);
            let mut velocity: Vec<Vec<f32>> = m1_naive
                .weight_matrices()
                .iter()
                .map(|m| vec![0.0; m.len()])
                .collect();
            for (i, t) in d1.iter() {
                naive_backprop_one(&mut m1_naive, i, t, &mut velocity, 0.01, 0.9);
            }
            prop_assert_eq!(m1_shared, m1_naive);
        }
    }
}
