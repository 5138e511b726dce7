//! Batched functional invocation replay.
//!
//! Sweeps and quality experiments evaluate the same [`NpuConfig`] over
//! thousands of recorded invocations. Doing that one invocation at a time
//! through [`NpuConfig::evaluate`] leaves the SIMD width of the batched
//! forward kernel ([`ann::BatchScratch`]) on the table. [`BatchEvaluator`]
//! replays invocations [`ann::LANES`] at a time: normalize → batched
//! LUT-sigmoid forward → denormalize, bit-identical per invocation to
//! [`NpuConfig::evaluate`].

use crate::NpuConfig;
use ann::{BatchScratch, Scratch, SigmoidLut, LANES};

/// Below this many occupied lanes a block runs through the scalar kernel
/// instead. The batched kernel always computes all [`LANES`] lanes, so a
/// nearly empty block pays full-width arithmetic for a handful of results;
/// one scalar sample costs roughly two full-occupancy batched samples, so
/// the break-even sits near half occupancy.
const SCALAR_CUTOVER: usize = LANES / 2;

/// Reusable batched evaluator for NPU invocation replay.
///
/// Holds the batch scratch, a scalar scratch for low-occupancy blocks, the
/// hardware-default sigmoid LUT, and a normalization staging buffer, so
/// steady-state replay performs no heap allocation. One evaluator can
/// serve configs of any topology — the scratches rebind on topology
/// change.
#[derive(Debug, Default)]
pub struct BatchEvaluator {
    batch: BatchScratch,
    scalar: Scratch,
    lut: SigmoidLut,
    /// Normalized inputs for the current block, `n_inputs` per lane.
    norm: Vec<f32>,
    /// Blocks routed through the scalar kernel (occupancy below
    /// [`SCALAR_CUTOVER`]).
    scalar_blocks: u64,
    /// Blocks routed through the full-width batched kernel.
    batched_blocks: u64,
}

impl BatchEvaluator {
    /// Creates an evaluator with the hardware-default sigmoid LUT.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates one batch of invocations: `inputs` holds one raw
    /// application-value slice per invocation; `outputs` is cleared and
    /// filled invocation-major (invocation `i`'s outputs at
    /// `outputs[i * n_outputs..][..n_outputs]`).
    ///
    /// Each invocation's result is bit-identical to
    /// [`NpuConfig::evaluate`] on the same input, for any batch size.
    ///
    /// # Panics
    ///
    /// Panics if any input slice length differs from the config's input
    /// dimensionality.
    pub fn run(&mut self, config: &NpuConfig, inputs: &[&[f32]], outputs: &mut Vec<f32>) {
        let n_in = config.topology().inputs();
        let n_out = config.topology().outputs();
        outputs.clear();
        outputs.resize(inputs.len() * n_out, 0.0);
        for (block_idx, block) in inputs.chunks(LANES).enumerate() {
            self.norm.clear();
            for inv in block {
                assert_eq!(inv.len(), n_in, "invocation input size mismatch");
                self.norm.extend_from_slice(inv);
            }
            let out_chunk = &mut outputs[block_idx * LANES * n_out..][..block.len() * n_out];
            self.eval_block(config, block.len(), out_chunk);
        }
    }

    /// Evaluates invocations packed back-to-back in one flat slice
    /// (`flat.len()` must be a multiple of the input dimensionality), as
    /// the functional runtime's input FIFO stores them — no per-invocation
    /// slice vector needed.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of the config's input
    /// dimensionality.
    pub fn run_flat(&mut self, config: &NpuConfig, flat: &[f32], outputs: &mut Vec<f32>) {
        let n_in = config.topology().inputs();
        let n_out = config.topology().outputs();
        assert_eq!(flat.len() % n_in, 0, "flat input length mismatch");
        let n_inv = flat.len() / n_in;
        outputs.clear();
        outputs.resize(n_inv * n_out, 0.0);
        for (block_idx, block) in flat.chunks(LANES * n_in).enumerate() {
            let lanes = block.len() / n_in;
            self.norm.clear();
            self.norm.extend_from_slice(block);
            let out_chunk = &mut outputs[block_idx * LANES * n_out..][..lanes * n_out];
            self.eval_block(config, lanes, out_chunk);
        }
    }

    /// Evaluates the `lanes` normalized-staging rows currently in
    /// `self.norm` (raw values on entry; normalized in place) into
    /// `out_chunk`, choosing the batched or scalar kernel by occupancy.
    /// Both kernels are bit-identical to [`NpuConfig::evaluate`] per
    /// sample, so the choice is invisible in the results.
    fn eval_block(&mut self, config: &NpuConfig, lanes: usize, out_chunk: &mut [f32]) {
        let n_in = config.topology().inputs();
        let n_out = config.topology().outputs();
        for row in self.norm.chunks_mut(n_in) {
            config.input_norm().normalize(row);
        }
        if lanes < SCALAR_CUTOVER {
            self.scalar_blocks += 1;
            for (lane, row) in self.norm.chunks(n_in).enumerate() {
                let out = self.scalar.forward_lut(config.mlp(), row, &self.lut);
                out_chunk[lane * n_out..][..n_out].copy_from_slice(out);
            }
        } else {
            self.batched_blocks += 1;
            let mut refs: [&[f32]; LANES] = [&[]; LANES];
            for (lane, row) in self.norm.chunks(n_in).enumerate() {
                refs[lane] = row;
            }
            self.batch
                .forward_block_lut(config.mlp(), &refs[..lanes], out_chunk, &self.lut);
        }
        for row in out_chunk.chunks_mut(n_out) {
            config.output_norm().denormalize(row);
        }
    }

    /// Convenience wrapper allocating the output vector.
    pub fn evaluate(&mut self, config: &NpuConfig, inputs: &[&[f32]]) -> Vec<f32> {
        let mut out = Vec::new();
        self.run(config, inputs, &mut out);
        out
    }

    /// `(scalar, batched)` block counts since construction: how many
    /// blocks each kernel served. The split is pure bookkeeping — both
    /// kernels are bit-identical to [`NpuConfig::evaluate`] — but a
    /// batching *server* drives flush sizes from queue occupancy, so the
    /// counters make the documented cutover observable (and testable)
    /// instead of silently drifting.
    pub fn path_counts(&self) -> (u64, u64) {
        (self.scalar_blocks, self.batched_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Mlp, Normalizer, Topology};

    /// Table 1's six benchmark topologies.
    fn paper_topologies() -> Vec<Vec<usize>> {
        vec![
            vec![1, 4, 4, 2],   // fft
            vec![2, 8, 2],      // inversek2j
            vec![18, 32, 8, 2], // jmeint
            vec![64, 16, 64],   // jpeg
            vec![6, 8, 4, 1],   // kmeans
            vec![9, 8, 1],      // sobel
        ]
    }

    fn config_for(layers: Vec<usize>, seed: u64) -> NpuConfig {
        let t = Topology::new(layers).unwrap();
        let n_in = t.inputs();
        let n_out = t.outputs();
        let in_ranges: Vec<(f32, f32)> = (0..n_in)
            .map(|d| (-1.0 - d as f32, 2.0 + d as f32))
            .collect();
        let out_ranges: Vec<(f32, f32)> = (0..n_out).map(|d| (0.0, 10.0 + d as f32)).collect();
        NpuConfig::new(
            Mlp::seeded(t, seed),
            Normalizer::new(in_ranges),
            Normalizer::new(out_ranges),
        )
    }

    #[test]
    fn batched_replay_is_bit_exact_with_scalar_evaluate() {
        for (k, layers) in paper_topologies().into_iter().enumerate() {
            let config = config_for(layers, 100 + k as u64);
            let n_in = config.topology().inputs();
            let n_out = config.topology().outputs();
            // Enough invocations for full blocks plus a ragged tail.
            let n_inv = 2 * LANES + 3;
            let flat: Vec<f32> = (0..n_inv * n_in)
                .map(|i| ((i * 13 + k) % 101) as f32 / 101.0 * 3.0 - 1.0)
                .collect();
            let inputs: Vec<&[f32]> = flat.chunks(n_in).collect();
            let mut eval = BatchEvaluator::new();
            let got = eval.evaluate(&config, &inputs);
            for (i, inv) in inputs.iter().enumerate() {
                let want = config.evaluate(inv);
                assert_eq!(
                    &got[i * n_out..][..n_out],
                    want.as_slice(),
                    "invocation {i} of topology {k} diverged"
                );
            }
        }
    }

    /// Flushes of `n_inv` invocations through a fresh evaluator, returning
    /// the evaluator for path-count inspection after asserting bit-identity
    /// of every invocation against [`NpuConfig::evaluate`].
    fn flush_and_check(config: &NpuConfig, n_inv: usize) -> BatchEvaluator {
        let n_in = config.topology().inputs();
        let n_out = config.topology().outputs();
        let flat: Vec<f32> = (0..n_inv * n_in)
            .map(|i| ((i * 17 + 5) % 97) as f32 / 97.0 * 2.0 - 0.5)
            .collect();
        let inputs: Vec<&[f32]> = flat.chunks(n_in).collect();
        let mut eval = BatchEvaluator::new();
        let got = eval.evaluate(config, &inputs);
        for (i, inv) in inputs.iter().enumerate() {
            assert_eq!(
                &got[i * n_out..][..n_out],
                config.evaluate(inv).as_slice(),
                "invocation {i} of a {n_inv}-invocation flush diverged"
            );
        }
        eval
    }

    /// The documented cutover: a lone invocation is cheaper through the
    /// scalar kernel, and the half-block boundary (`LANES / 2` occupied
    /// lanes, where one scalar sample costs about two batched samples)
    /// belongs to the batched kernel. A server flushing queue-driven
    /// batch sizes relies on these exact boundaries staying put.
    #[test]
    fn flush_occupancy_picks_the_documented_kernel() {
        let config = config_for(vec![9, 8, 1], 42);
        // Single invocation: scalar path.
        assert_eq!(flush_and_check(&config, 1).path_counts(), (1, 0));
        // One below the cutover: still scalar.
        assert_eq!(
            flush_and_check(&config, SCALAR_CUTOVER - 1).path_counts(),
            (1, 0)
        );
        // Exactly half a block: batched (the break-even tie goes to the
        // batched kernel — `lanes < SCALAR_CUTOVER` is strict).
        assert_eq!(SCALAR_CUTOVER, LANES / 2, "cutover is half occupancy");
        assert_eq!(
            flush_and_check(&config, SCALAR_CUTOVER).path_counts(),
            (0, 1)
        );
        // Full block: batched.
        assert_eq!(flush_and_check(&config, LANES).path_counts(), (0, 1));
        // Full block plus a small tail: one batched block, one scalar.
        assert_eq!(flush_and_check(&config, LANES + 2).path_counts(), (1, 1));
        // Full block plus a half-block tail: two batched blocks.
        assert_eq!(
            flush_and_check(&config, LANES + SCALAR_CUTOVER).path_counts(),
            (0, 2)
        );
    }

    /// Both sides of the cutover stay bit-identical to the scalar oracle
    /// for every occupancy from one invocation to two full blocks (the
    /// threshold choice must be invisible in the results, whichever way
    /// a server-driven flush lands).
    #[test]
    fn every_flush_occupancy_is_bit_exact() {
        for (k, layers) in paper_topologies().into_iter().enumerate() {
            let config = config_for(layers, 900 + k as u64);
            for n_inv in 1..=2 * LANES {
                flush_and_check(&config, n_inv);
            }
        }
    }

    #[test]
    fn evaluator_rebinds_across_topologies() {
        let a = config_for(vec![2, 4, 1], 1);
        let b = config_for(vec![9, 8, 1], 2);
        let mut eval = BatchEvaluator::new();
        let xa = [0.25_f32, 0.5];
        let xb = [0.1_f32; 9];
        let got_a = eval.evaluate(&a, &[&xa]);
        let got_b = eval.evaluate(&b, &[&xb]);
        let got_a2 = eval.evaluate(&a, &[&xa]);
        assert_eq!(got_a, a.evaluate(&xa));
        assert_eq!(got_b, b.evaluate(&xb));
        assert_eq!(got_a, got_a2);
    }
}
