//! Backpropagation training (paper Section 4.2).

use crate::{mse_with, BatchScratch, Dataset, Mlp, Scratch};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for backpropagation.
///
/// The paper fixes a small learning rate ("larger steps can cause
/// oscillation in the training and prevent convergence") and a fixed epoch
/// count chosen to balance generalization against accuracy. The OCR of the
/// paper drops the exact digits; defaults here are 0.01 and 500 and both are
/// plain fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainParams {
    /// Gradient-descent step size.
    pub learning_rate: f32,
    /// Classical momentum coefficient (0 disables momentum; FANN-style
    /// backpropagation uses momentum to speed convergence at small
    /// learning rates).
    pub momentum: f32,
    /// Complete passes over the training data.
    pub epochs: usize,
    /// Seed for per-epoch sample shuffling.
    pub shuffle_seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            learning_rate: 0.01,
            momentum: 0.9,
            epochs: 500,
            shuffle_seed: 0x5eed,
        }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean squared error over the training set before any update.
    pub initial_mse: f64,
    /// Mean squared error over the training set after the final epoch.
    pub final_mse: f64,
    /// Epochs actually executed.
    pub epochs_run: usize,
}

/// Stochastic-gradient-descent backpropagation trainer.
///
/// # Example
///
/// ```
/// use ann::{Dataset, Mlp, Topology, TrainParams, Trainer};
///
/// let mut data = Dataset::new(1, 1);
/// for i in 0..50 {
///     let x = i as f32 / 49.0;
///     data.push(&[x], &[1.0 - x]).unwrap();
/// }
/// let mut mlp = Mlp::seeded(Topology::new(vec![1, 2, 1]).unwrap(), 3);
/// let report = Trainer::new(TrainParams::default()).train(&mut mlp, &data);
/// assert!(report.final_mse <= report.initial_mse);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    params: TrainParams,
}

impl Trainer {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(params: TrainParams) -> Self {
        Trainer { params }
    }

    /// The trainer's hyperparameters.
    pub fn params(&self) -> &TrainParams {
        &self.params
    }

    /// Trains `mlp` in place on `data`, returning a summary.
    ///
    /// # Panics
    ///
    /// Panics if the dataset dimensions do not match the network topology.
    pub fn train(&self, mlp: &mut Mlp, data: &Dataset) -> TrainReport {
        let mut scratch = Scratch::for_topology(mlp.topology());
        self.train_with(mlp, data, &mut scratch)
    }

    /// Like [`train`](Self::train), but reusing caller-owned scratch
    /// buffers — the topology-search workers hold one [`Scratch`] per
    /// thread and reuse it across all their candidates, so the steady-state
    /// training loop performs no heap allocation. Results are bit-identical
    /// to [`train`](Self::train).
    ///
    /// # Panics
    ///
    /// Panics if the dataset dimensions do not match the network topology.
    pub fn train_with(&self, mlp: &mut Mlp, data: &Dataset, scratch: &mut Scratch) -> TrainReport {
        let mut batch = BatchScratch::for_topology(mlp.topology());
        self.train_with_scratches(mlp, data, scratch, &mut batch)
    }

    /// Like [`train_with`](Self::train_with), but also reusing a
    /// caller-owned [`BatchScratch`]. All full-dataset MSE evaluations
    /// (initial, final, and the debug learning curve) run `LANES` samples
    /// per walk through the batch scratch (bit-exact at every width); the
    /// per-epoch update loop is per-sample SGD.
    ///
    /// # Panics
    ///
    /// Panics if the dataset dimensions do not match the network topology.
    pub fn train_with_scratches(
        &self,
        mlp: &mut Mlp,
        data: &Dataset,
        scratch: &mut Scratch,
        batch: &mut BatchScratch,
    ) -> TrainReport {
        assert_eq!(
            data.n_inputs(),
            mlp.topology().inputs(),
            "dataset input dims mismatch network"
        );
        assert_eq!(
            data.n_outputs(),
            mlp.topology().outputs(),
            "dataset output dims mismatch network"
        );
        // Binding zeroes the velocity (momentum) state, exactly like the
        // fresh velocity vectors the pre-scratch trainer allocated.
        scratch.bind(mlp.topology());
        batch.bind(mlp.topology());
        let initial_mse = mse_with(mlp, data, batch);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.params.shuffle_seed);
        let lr = self.params.learning_rate;
        let mu = self.params.momentum;
        let step = Scratch::sgd_step(mlp.topology());
        // The MSE learning curve costs a full-dataset evaluation per
        // sample, so it is taken (at ~8 points) only when debug tracing
        // is on; the training loop itself is unchanged otherwise.
        let curve = telemetry::enabled(telemetry::Level::Debug);
        let stride = (self.params.epochs / 8).max(1);
        for epoch in 0..self.params.epochs {
            let epoch_start = std::time::Instant::now();
            order.shuffle(&mut rng);
            for &i in &order {
                step(scratch, mlp, data.input(i), data.output(i), lr, mu);
            }
            // Wall-clock epoch time goes to the global sample registry
            // (sweep-level report only): one lock per epoch, negligible
            // next to a full-dataset backprop pass.
            let elapsed = epoch_start.elapsed();
            telemetry::record_sample("ann.train.epoch_us", elapsed.as_micros() as f64);
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 && !data.is_empty() {
                telemetry::record_sample("ann.train.samples_per_s", data.len() as f64 / secs);
            }
            if curve && (epoch + 1) % stride == 0 {
                let sample = mse_with(mlp, data, batch);
                telemetry::emit(telemetry::Level::Debug, "ann::train", || {
                    telemetry::EventKind::TrainEpoch {
                        epoch: (epoch + 1) as u64,
                        mse: sample,
                    }
                });
            }
        }
        TrainReport {
            initial_mse,
            final_mse: mse_with(mlp, data, batch),
            epochs_run: self.params.epochs,
        }
    }

    /// One fused forward+backward SGD step on a single sample, using the
    /// trainer's hyperparameters and `scratch`'s momentum state. Exposed
    /// for microbenchmarks and incremental-training experiments; the kernel
    /// [`Trainer::train_with`] runs per sample.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` or `target.len()` does not match the
    /// network's input or output layer.
    pub fn step(&self, mlp: &mut Mlp, input: &[f32], target: &[f32], scratch: &mut Scratch) {
        scratch.ensure_bound(mlp);
        assert_eq!(
            input.len(),
            mlp.topology().inputs(),
            "input vector size mismatch"
        );
        assert_eq!(
            target.len(),
            mlp.topology().outputs(),
            "target vector size mismatch"
        );
        Scratch::sgd_step(mlp.topology())(
            scratch,
            mlp,
            input,
            target,
            self.params.learning_rate,
            self.params.momentum,
        );
    }
}

/// Mean squared error of `mlp` over `data` (averaged over samples and
/// output dimensions). Returns 0 for an empty dataset.
///
/// Allocates one [`BatchScratch`] per call; hot paths evaluating many
/// networks should hold their own scratch and call [`mse_with`].
pub fn mse(mlp: &Mlp, data: &Dataset) -> f64 {
    mse_with(mlp, data, &mut BatchScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn xor_data() -> Dataset {
        let mut d = Dataset::new(2, 1);
        for (a, b, y) in [
            (0.0, 0.0, 0.0),
            (0.0, 1.0, 1.0),
            (1.0, 0.0, 1.0),
            (1.0, 1.0, 0.0),
        ] {
            d.push(&[a, b], &[y]).unwrap();
        }
        d
    }

    #[test]
    fn learns_xor() {
        let mut mlp = Mlp::seeded(Topology::new(vec![2, 4, 1]).unwrap(), 11);
        let params = TrainParams {
            learning_rate: 0.5, // XOR on 4 samples needs a big step to converge fast
            momentum: 0.0,
            epochs: 4000,
            shuffle_seed: 1,
        };
        let report = Trainer::new(params).train(&mut mlp, &xor_data());
        assert!(report.final_mse < 0.02, "XOR did not converge: {report:?}");
        assert!(mlp.feed_forward(&[0.0, 1.0])[0] > 0.8);
        assert!(mlp.feed_forward(&[1.0, 1.0])[0] < 0.2);
    }

    #[test]
    fn training_reduces_mse_on_smooth_function() {
        let mut data = Dataset::new(1, 1);
        for i in 0..100 {
            let x = i as f32 / 99.0;
            data.push(&[x], &[0.5 + 0.4 * (3.0 * x).sin()]).unwrap();
        }
        let mut mlp = Mlp::seeded(Topology::new(vec![1, 8, 1]).unwrap(), 5);
        let report = Trainer::new(TrainParams {
            epochs: 300,
            learning_rate: 0.2,
            momentum: 0.0,
            shuffle_seed: 2,
        })
        .train(&mut mlp, &data);
        assert!(report.final_mse < report.initial_mse * 0.5);
    }

    #[test]
    fn training_is_deterministic() {
        let data = xor_data();
        let t = Topology::new(vec![2, 4, 1]).unwrap();
        let params = TrainParams {
            epochs: 50,
            ..TrainParams::default()
        };
        let mut a = Mlp::seeded(t.clone(), 1);
        let mut b = Mlp::seeded(t, 1);
        Trainer::new(params).train(&mut a, &data);
        Trainer::new(params).train(&mut b, &data);
        assert_eq!(a, b);
    }

    #[test]
    fn mse_of_empty_dataset_is_zero() {
        let mlp = Mlp::zeroed(Topology::new(vec![2, 1]).unwrap());
        assert_eq!(mse(&mlp, &Dataset::new(2, 1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "dataset input dims mismatch")]
    fn train_rejects_mismatched_data() {
        let mut mlp = Mlp::zeroed(Topology::new(vec![3, 1]).unwrap());
        let mut d = Dataset::new(2, 1);
        d.push(&[0.0, 0.0], &[0.0]).unwrap();
        Trainer::new(TrainParams::default()).train(&mut mlp, &d);
    }
}
