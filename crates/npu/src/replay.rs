//! Batched functional invocation replay.
//!
//! Sweeps, quality experiments and the serving daemon evaluate the same
//! [`NpuConfig`] over thousands of invocations. [`BatchEvaluator`] replays
//! them [`LANES`] at a time through [`NpuConfig::evaluate_block`] (normalize
//! → forward → denormalize) on a [`ann::BatchScratch`], bit-identical per
//! invocation to [`NpuConfig::evaluate`], which runs the same block method
//! one lane wide.

use crate::NpuConfig;
use ann::{BatchScratch, Scratch, SigmoidLut, LANES};

/// Below this many occupied lanes a block runs through the one-lane
/// instantiation of the kernel instead. The `LANES`-wide kernel always
/// computes all lanes, so a nearly empty block pays full-width arithmetic
/// for a handful of results; one sample through the one-lane kernel costs
/// roughly two full-occupancy batched samples, so the break-even sits near
/// half occupancy.
///
/// Measured (DESIGN.md §13): `W = 1` time / `W = 16` time for one block of
/// `n` invocations, range over two runs on a shared 2-vCPU Xeon VM; below
/// 1 the one-lane path is faster.
///
/// | topology   | n = 4     | 7         | 8         | 9         | 10        |
/// |------------|-----------|-----------|-----------|-----------|-----------|
/// | fft        | 0.49–0.50 | 0.76–0.85 | 0.90–0.94 | 1.04–1.05 | 1.17–1.25 |
/// | inversek2j | 0.36–0.53 | 0.79–0.81 | 0.95–1.05 | 0.90–0.97 | 1.01–1.09 |
/// | jmeint     | 0.51      | 0.89–0.99 | 0.93–0.95 | 1.08–1.09 | 1.22–1.30 |
/// | jpeg       | 0.54–0.55 | 0.90–0.93 | 1.02–1.04 | 1.11–1.12 | 1.24–1.26 |
/// | kmeans     | 0.49      | 0.83–0.84 | 0.94      | 1.02–1.04 | 1.00–1.24 |
/// | sobel      | 0.52–0.55 | 0.87–0.94 | 0.94–0.97 | 1.05–1.07 | 1.13–1.16 |
///
/// Break-even falls at 8–10 lanes, and at 8 the two widths are within 10%
/// with the sign varying by topology and run, so the constant stays.
const SCALAR_CUTOVER: usize = LANES / 2;

/// Reusable batched evaluator for NPU invocation replay.
///
/// Holds a `LANES`-wide scratch, a one-lane scratch for low-occupancy
/// blocks, and a normalization staging buffer, so steady-state replay
/// performs no heap allocation. One evaluator can serve configs of any
/// topology — the scratches rebind on topology change.
#[derive(Debug, Default)]
pub struct BatchEvaluator {
    batch: BatchScratch,
    scalar: Scratch<1>,
    /// Raw, then normalized, inputs of the current block.
    norm: Vec<f32>,
    /// Blocks routed through the one-lane kernel (occupancy below
    /// [`SCALAR_CUTOVER`]).
    scalar_blocks: u64,
    /// Blocks routed through the `LANES`-wide kernel.
    batched_blocks: u64,
}

impl BatchEvaluator {
    /// Creates an evaluator; it uses the hardware-default sigmoid LUT.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates invocations packed back-to-back in one flat slice
    /// (`flat.len()` must be a multiple of the input dimensionality), as
    /// the functional runtime's input FIFO stores them. `outputs` is
    /// cleared and filled invocation-major (invocation `i`'s outputs at
    /// `outputs[i * n_outputs..][..n_outputs]`).
    ///
    /// Each invocation's result is bit-identical to
    /// [`NpuConfig::evaluate`] on the same input, for any batch size.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of the config's input
    /// dimensionality.
    pub fn run_flat(&mut self, config: &NpuConfig, flat: &[f32], outputs: &mut Vec<f32>) {
        let n_in = config.topology().inputs();
        let n_out = config.topology().outputs();
        let n_inv = flat.len() / n_in;
        assert_eq!(n_inv * n_in, flat.len(), "flat input length mismatch");
        outputs.clear();
        outputs.resize(n_inv * n_out, 0.0);
        let lut = SigmoidLut::hardware();
        for base in (0..n_inv).step_by(LANES) {
            let lanes = LANES.min(n_inv - base);
            self.norm.clear();
            self.norm
                .extend_from_slice(&flat[base * n_in..][..lanes * n_in]);
            let out = &mut outputs[base * n_out..][..lanes * n_out];
            if lanes < SCALAR_CUTOVER {
                self.scalar_blocks += 1;
                for lane in 0..lanes {
                    let x = &mut self.norm[lane * n_in..][..n_in];
                    let y = &mut out[lane * n_out..][..n_out];
                    config.evaluate_block(&mut self.scalar, x, y, lut);
                }
            } else {
                self.batched_blocks += 1;
                config.evaluate_block(&mut self.batch, &mut self.norm, out, lut);
            }
        }
    }

    /// `(scalar, batched)` block counts since construction: how many
    /// blocks each kernel width served. The split is pure bookkeeping —
    /// both widths are bit-identical to [`NpuConfig::evaluate`] — but a
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
            let mut eval = BatchEvaluator::new();
            let mut got = Vec::new();
            eval.run_flat(&config, &flat, &mut got);
            for (i, inv) in flat.chunks(n_in).enumerate() {
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
        let mut eval = BatchEvaluator::new();
        let mut got = Vec::new();
        eval.run_flat(config, &flat, &mut got);
        for (i, inv) in flat.chunks(n_in).enumerate() {
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
        let (mut got_a, mut got_b, mut got_a2) = (Vec::new(), Vec::new(), Vec::new());
        eval.run_flat(&a, &xa, &mut got_a);
        eval.run_flat(&b, &xb, &mut got_b);
        eval.run_flat(&a, &xa, &mut got_a2);
        assert_eq!(got_a, a.evaluate(&xa));
        assert_eq!(got_b, b.evaluate(&xb));
        assert_eq!(got_a, got_a2);
    }
}
