//! Property-based tests for the learning substrate.

use ann::{Dataset, Mlp, Normalizer, Scratch, SigmoidLut, Topology, TrainParams, Trainer};
use proptest::prelude::*;

fn small_topology() -> impl Strategy<Value = Topology> {
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

proptest! {
    /// Normalize/denormalize round-trips for values inside the range.
    #[test]
    fn normalizer_round_trips(
        lo in -100.0f32..100.0,
        width in 0.001f32..200.0,
        t in 0.0f32..1.0,
    ) {
        let hi = lo + width;
        let norm = Normalizer::new(vec![(lo, hi)]);
        let original = lo + t * width;
        let mut v = [original];
        norm.normalize(&mut v);
        prop_assert!((0.0..=1.0).contains(&v[0]));
        norm.denormalize(&mut v);
        // Relative tolerance: f32 normalize/denormalize loses a few ulps.
        let tol = (width * 1e-5).max(1e-5);
        prop_assert!((v[0] - original).abs() <= tol, "{} vs {}", v[0], original);
    }

    /// The sigmoid LUT never strays far from the exact sigmoid and stays
    /// within [0, 1].
    #[test]
    fn sigmoid_lut_bounded_error(x in -50.0f32..50.0) {
        let lut = SigmoidLut::default();
        let y = lut.eval(x);
        prop_assert!((0.0..=1.0).contains(&y));
        prop_assert!((y - ann::sigmoid(x)).abs() < 5e-3);
    }

    /// Feed-forward output size always equals the output layer size, and
    /// sigmoid outputs stay in (0, 1).
    #[test]
    fn forward_shape_and_range(topology in small_topology(), seed in 0u64..1000) {
        let mlp = Mlp::seeded(topology.clone(), seed);
        let inputs: Vec<f32> = (0..topology.inputs()).map(|i| (i as f32 * 0.37) % 1.0).collect();
        let out = mlp.feed_forward(&inputs);
        prop_assert_eq!(out.len(), topology.outputs());
        prop_assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    /// Weight counts equal the sum over layer transitions, and seeded
    /// construction is deterministic.
    #[test]
    fn topology_weight_count_consistent(topology in small_topology()) {
        let by_hand: usize = topology
            .layers()
            .windows(2)
            .map(|w| (w[0] + 1) * w[1])
            .sum();
        prop_assert_eq!(topology.weight_count(), by_hand);
        let a = Mlp::seeded(topology.clone(), 7);
        let b = Mlp::seeded(topology, 7);
        prop_assert_eq!(a, b);
    }

    /// Dataset split is an exact partition at any fraction and seed.
    #[test]
    fn dataset_split_partitions(
        n in 1usize..60,
        fraction in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let mut d = Dataset::new(1, 1);
        for i in 0..n {
            d.push(&[i as f32], &[2.0 * i as f32]).unwrap();
        }
        let (a, b) = d.split(fraction, seed);
        prop_assert_eq!(a.len() + b.len(), n);
        let mut seen: Vec<i64> = a
            .iter()
            .chain(b.iter())
            .map(|(i, _)| i[0] as i64)
            .collect();
        seen.sort_unstable();
        let expected: Vec<i64> = (0..n as i64).collect();
        prop_assert_eq!(seen, expected);
    }

    /// `train` (fresh scratch per call) and `train_with` (reused,
    /// pre-dirtied scratch — the search-worker pattern) produce
    /// bit-identical networks and reports, and repeated training is
    /// deterministic.
    #[test]
    fn train_and_train_with_are_bit_identical(
        topology in small_topology(),
        seed in 0u64..300,
        epochs in 1usize..8,
    ) {
        let mut data = Dataset::new(topology.inputs(), topology.outputs());
        for k in 0..10usize {
            let input: Vec<f32> = (0..topology.inputs())
                .map(|i| ((k * 17 + i * 3) % 31) as f32 / 31.0)
                .collect();
            let output: Vec<f32> = (0..topology.outputs())
                .map(|i| ((k * 5 + i * 11) % 23) as f32 / 23.0)
                .collect();
            data.push(&input, &output).unwrap();
        }
        let trainer = Trainer::new(TrainParams { epochs, ..TrainParams::default() });

        let mut a = Mlp::seeded(topology.clone(), seed);
        let report_a = trainer.train(&mut a, &data);

        // Dirty the scratch on an unrelated topology first, as a reused
        // worker scratch would be.
        let mut scratch = Scratch::for_topology(&Topology::new(vec![3, 2, 2]).unwrap());
        let mut warmup = Mlp::seeded(Topology::new(vec![3, 2, 2]).unwrap(), 1);
        trainer.train_with(&mut warmup, &{
            let mut d = Dataset::new(3, 2);
            d.push(&[0.1, 0.2, 0.3], &[0.4, 0.5]).unwrap();
            d
        }, &mut scratch);

        let mut b = Mlp::seeded(topology, seed);
        let report_b = trainer.train_with(&mut b, &data, &mut scratch);

        prop_assert_eq!(a, b);
        prop_assert_eq!(report_a.initial_mse.to_bits(), report_b.initial_mse.to_bits());
        prop_assert_eq!(report_a.final_mse.to_bits(), report_b.final_mse.to_bits());
    }

    /// LUT forward pass stays close to the exact forward pass for any
    /// seeded network.
    #[test]
    fn lut_forward_tracks_exact(topology in small_topology(), seed in 0u64..100) {
        let mlp = Mlp::seeded(topology.clone(), seed);
        let lut = SigmoidLut::default();
        let inputs: Vec<f32> = (0..topology.inputs()).map(|i| (i as f32 * 0.21) % 1.0).collect();
        let exact = mlp.feed_forward(&inputs);
        let mut quant = vec![0.0; topology.outputs()];
        Scratch::<1>::new().forward_block(&mlp, &[&inputs], &mut quant, |x| lut.eval(x));
        for (e, q) in exact.iter().zip(&quant) {
            prop_assert!((e - q).abs() < 2e-2, "{e} vs {q}");
        }
    }
}
