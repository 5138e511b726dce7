//! The batched lane width.
//!
//! [`Scratch<LANES>`](crate::Scratch) ([`BatchScratch`]) runs the shared
//! forward walk for [`LANES`] samples per weight-matrix walk: the
//! trainer's full-dataset MSE evaluations and the NPU's batched replay.

use crate::Scratch;

/// Samples processed per weight-matrix walk by the batched kernel. Sixteen
/// f32 lanes give the MAC loop four independent SSE2 (or two AVX2)
/// accumulator chains — measured faster than 8 lanes on the reference
/// workload because the extra chains hide the FP-add latency. The
/// remainder tail runs the same code with idle lanes zeroed on load and
/// skipped on store and accumulation.
pub const LANES: usize = 16;

/// The batched instantiation of the one forward/backward kernel.
pub type BatchScratch = Scratch<LANES>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::tests::{dataset_for, small_topology};
    use crate::{mse_with, sigmoid, Mlp, SigmoidLut, Topology};
    use proptest::prelude::*;

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
}
