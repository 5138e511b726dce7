//! Cross-validated topology search (paper Section 4.2).

use crate::{
    mse_with, AnnError, BatchScratch, Dataset, Mlp, Scratch, Topology, TrainParams, Trainer,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Configuration of the topology search space and selection policy.
///
/// The paper restricts the search "to neural networks with at most two
/// hidden layers" with "the number of neurons per hidden layer \[limited\]
/// to powers of two up to 32", yielding 30 candidate topologies (5 single
/// hidden layer + 25 two hidden layers). Both limits are user options, as in
/// the paper ("compilation options and can be specified by the user").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Maximum number of hidden layers (paper default: 2).
    pub max_hidden_layers: usize,
    /// Largest allowed hidden-layer size; candidates use powers of two from
    /// 2 up to this value (paper default: 32).
    pub max_hidden_neurons: usize,
    /// Fraction of observed data used for training; the rest tests
    /// generalization (paper: 0.7).
    pub train_fraction: f64,
    /// Root seed for every random choice the search makes: the train/test
    /// split, each candidate's weight initialization, and each candidate's
    /// per-epoch shuffle order. Child seeds are derived per consumer with
    /// [`crate::seed::mix`], keyed by the candidate's *topology* (not its
    /// position in the candidate list), so results are independent of
    /// enumeration order, hardware filtering, and thread count.
    pub seed: u64,
    /// Backpropagation hyperparameters applied to every candidate.
    pub train: TrainParams,
    /// Candidates whose test MSE is within this multiplicative slack of the
    /// best are considered accuracy ties, broken by lowest NPU latency
    /// ("prioritizing accuracy").
    pub accuracy_slack: f64,
    /// Absolute MSE window that also counts as a tie (see
    /// `accuracy_slack`); keeps topology choice latency-driven when every
    /// candidate is already near-perfect. Default 0.
    pub accuracy_abs_slack: f64,
    /// Optional per-candidate training compute budget in floating-point
    /// operations. When set, each candidate's epoch count is
    /// `budget / (samples × weights × 4)` clamped to `[30, train.epochs]`,
    /// so large candidates train fewer epochs instead of dominating
    /// compilation time. `None` trains every candidate for `train.epochs`.
    pub epoch_flops_budget: Option<u64>,
    /// Number of worker threads for parallel candidate training ("the
    /// candidate topologies can be trained in parallel"). 0 means one
    /// thread per available CPU.
    pub threads: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            max_hidden_layers: 2,
            max_hidden_neurons: 32,
            train_fraction: 0.7,
            seed: 0xdead_beef,
            train: TrainParams::default(),
            accuracy_slack: 1.05,
            accuracy_abs_slack: 0.0,
            epoch_flops_budget: None,
            threads: 0,
        }
    }
}

/// One evaluated candidate from the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyCandidate {
    /// The candidate's layer structure.
    pub topology: Topology,
    /// Mean squared error on the held-out test split.
    pub test_mse: f64,
    /// Mean squared error on the training split.
    pub train_mse: f64,
    /// Estimated NPU evaluation latency in cycles (from the caller's cost
    /// model).
    pub npu_latency: u64,
}

/// The outcome of a full topology search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The selected network's candidate record.
    pub best: TopologyCandidate,
    /// The trained network for the selected topology.
    pub mlp: Mlp,
    /// Every candidate evaluated, sorted by test MSE ascending.
    pub all_candidates: Vec<TopologyCandidate>,
}

impl SearchOutcome {
    /// Exports the search's summary into `registry` under `prefix`
    /// (e.g. `ann.search`): the candidate count, the selected network's
    /// errors and latency, and per-candidate MSE/latency histograms.
    pub fn export_metrics(&self, registry: &mut telemetry::MetricsRegistry, prefix: &str) {
        registry.add(
            &format!("{prefix}.candidates"),
            self.all_candidates.len() as u64,
        );
        registry.set_gauge(&format!("{prefix}.best_test_mse"), self.best.test_mse);
        registry.set_gauge(&format!("{prefix}.best_train_mse"), self.best.train_mse);
        registry.set_gauge(
            &format!("{prefix}.best_npu_latency"),
            self.best.npu_latency as f64,
        );
        for candidate in &self.all_candidates {
            registry.observe(&format!("{prefix}.test_mse"), candidate.test_mse);
            registry.observe(
                &format!("{prefix}.npu_latency"),
                candidate.npu_latency as f64,
            );
        }
    }
}

/// Salt for the train/test split seed (see [`SearchParams::seed`]).
const SPLIT_SALT: u64 = 1;
/// Salt for per-candidate weight-initialization seeds.
const INIT_SALT: u64 = 2;
/// Salt for per-candidate epoch-shuffle seeds.
const SHUFFLE_SALT: u64 = 3;

/// Enumerates, trains, and ranks candidate topologies.
#[derive(Debug, Clone)]
pub struct TopologySearch {
    params: SearchParams,
}

impl TopologySearch {
    /// Creates a search with the given parameters.
    pub fn new(params: SearchParams) -> Self {
        TopologySearch { params }
    }

    /// The search parameters.
    pub fn params(&self) -> &SearchParams {
        &self.params
    }

    /// The hidden-layer sizes the search considers (powers of two).
    pub fn hidden_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut s = 2usize;
        while s <= self.params.max_hidden_neurons {
            sizes.push(s);
            s *= 2;
        }
        sizes
    }

    /// Enumerates every candidate topology for a region with the given
    /// input/output counts.
    pub fn candidate_topologies(&self, n_inputs: usize, n_outputs: usize) -> Vec<Topology> {
        let sizes = self.hidden_sizes();
        let mut out = Vec::new();
        if self.params.max_hidden_layers == 0 {
            out.push(Topology::new(vec![n_inputs, n_outputs]).expect("nonzero layers"));
            return out;
        }
        for &h1 in &sizes {
            out.push(Topology::new(vec![n_inputs, h1, n_outputs]).expect("nonzero layers"));
        }
        if self.params.max_hidden_layers >= 2 {
            for &h1 in &sizes {
                for &h2 in &sizes {
                    out.push(
                        Topology::new(vec![n_inputs, h1, h2, n_outputs]).expect("nonzero layers"),
                    );
                }
            }
        }
        out
    }

    /// Runs the full search: split the data 70/30, train every candidate on
    /// the training split, score on the test split, and select the most
    /// accurate candidate (ties within `accuracy_slack` broken by lowest
    /// `npu_latency`).
    ///
    /// `npu_latency` is a caller-supplied cost model (the NPU crate provides
    /// one); keeping it a callback avoids a dependency cycle and lets tests
    /// use synthetic costs. Returning `None` excludes a candidate — e.g.
    /// when it does not fit the target NPU's structures — before any
    /// training effort is spent on it.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::EmptyDataset`] if `data` is empty, and
    /// [`AnnError::InvalidTopology`] if the cost model excludes every
    /// candidate.
    pub fn run(
        &self,
        data: &Dataset,
        npu_latency: &(dyn Fn(&Topology) -> Option<u64> + Sync),
    ) -> Result<SearchOutcome, AnnError> {
        let candidates = self.candidate_topologies(data.n_inputs(), data.n_outputs());
        self.run_with_candidates(data, candidates, npu_latency)
    }

    /// Like [`run`](Self::run) but over an explicit candidate list (e.g.
    /// a single known-good topology, skipping enumeration).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_candidates(
        &self,
        data: &Dataset,
        candidates: Vec<Topology>,
        npu_latency: &(dyn Fn(&Topology) -> Option<u64> + Sync),
    ) -> Result<SearchOutcome, AnnError> {
        if data.is_empty() {
            return Err(AnnError::EmptyDataset);
        }
        let (train_set, test_set) = data.split(
            self.params.train_fraction,
            crate::seed::mix(self.params.seed, SPLIT_SALT),
        );
        // With very small datasets the 30% split can round to zero samples;
        // fall back to testing on the training data.
        let test_ref = if test_set.is_empty() {
            &train_set
        } else {
            &test_set
        };

        // Exclude candidates the target hardware cannot host before
        // spending any training time on them.
        let topologies: Vec<(Topology, u64)> = candidates
            .into_iter()
            .filter_map(|t| npu_latency(&t).map(|lat| (t, lat)))
            .collect();
        if topologies.is_empty() {
            return Err(AnnError::InvalidTopology(
                "no candidate topology fits the target npu".into(),
            ));
        }
        let results: Mutex<Vec<(TopologyCandidate, Mlp)>> =
            Mutex::new(Vec::with_capacity(topologies.len()));
        let next: Mutex<usize> = Mutex::new(0);

        let n_threads = if self.params.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(topologies.len().max(1))
        } else {
            self.params.threads
        };

        // A worker's panic propagates out of the scope when it joins.
        std::thread::scope(|scope| {
            for _ in 0..n_threads {
                // One per-sample scratch and one batch scratch per worker,
                // reused across every candidate it trains: the
                // steady-state training loop never allocates, and all
                // full-dataset MSE evaluations walk `LANES` samples at a
                // time (bit-exact at every width).
                scope.spawn(|| {
                    let mut scratch = Scratch::new();
                    let mut batch = BatchScratch::new();
                    loop {
                        let idx = {
                            let mut guard = next.lock();
                            let idx = *guard;
                            if idx >= topologies.len() {
                                return;
                            }
                            *guard += 1;
                            idx
                        };
                        let (topology, latency) = topologies[idx].clone();
                        // Seeds are keyed by topology content, not list index,
                        // so the outcome is identical whatever subset of
                        // candidates the hardware filter admits and however
                        // work is distributed over threads.
                        let topo_label = topology.to_string();
                        let init_seed = crate::seed::mix_str(
                            crate::seed::mix(self.params.seed, INIT_SALT),
                            &topo_label,
                        );
                        let mut mlp = Mlp::seeded(topology.clone(), init_seed);
                        let mut train_params = self.params.train;
                        train_params.shuffle_seed = crate::seed::mix_str(
                            crate::seed::mix(self.params.seed, SHUFFLE_SALT),
                            &topo_label,
                        );
                        if let Some(budget) = self.params.epoch_flops_budget {
                            let per_epoch =
                                (train_set.len() * topology.weight_count() * 4).max(1) as u64;
                            train_params.epochs = ((budget / per_epoch) as usize)
                                .clamp(30, self.params.train.epochs.max(30));
                        }
                        let report = Trainer::new(train_params).train_with_scratches(
                            &mut mlp,
                            &train_set,
                            &mut scratch,
                            &mut batch,
                        );
                        let candidate = TopologyCandidate {
                            npu_latency: latency,
                            test_mse: mse_with(&mlp, test_ref, &mut batch),
                            train_mse: report.final_mse,
                            topology,
                        };
                        if telemetry::enabled(telemetry::Level::Debug) {
                            telemetry::emit(telemetry::Level::Debug, "ann::search", || {
                                telemetry::EventKind::CandidateTrained {
                                    topology: candidate.topology.to_string(),
                                    test_mse: candidate.test_mse,
                                    train_mse: candidate.train_mse,
                                    epochs: report.epochs_run as u64,
                                    npu_latency: candidate.npu_latency,
                                }
                            });
                        }
                        results.lock().push((candidate, mlp));
                    }
                });
            }
        });

        let mut scored = results.into_inner();
        scored.sort_by(|a, b| {
            a.0.test_mse
                .total_cmp(&b.0.test_mse)
                .then(a.0.npu_latency.cmp(&b.0.npu_latency))
        });
        let best_mse = scored[0].0.test_mse;
        // A candidate ties with the best when its MSE is within the
        // relative slack *or* within the absolute window — the absolute
        // term lets already-tiny MSEs (where relative differences are
        // noise) resolve toward cheaper topologies without letting
        // hard-to-learn regions trade away real accuracy.
        let threshold = best_mse
            + (best_mse * (self.params.accuracy_slack - 1.0)).max(self.params.accuracy_abs_slack);
        let (best_idx, _) = scored
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| c.test_mse <= threshold)
            .min_by_key(|(_, (c, _))| c.npu_latency)
            .expect("at least one candidate");
        let (best, mlp) = scored[best_idx].clone();
        let all_candidates = scored.into_iter().map(|(c, _)| c).collect();
        Ok(SearchOutcome {
            best,
            mlp,
            all_candidates,
        })
    }
}

impl Default for TopologySearch {
    fn default() -> Self {
        TopologySearch::new(SearchParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_search_space_has_30_topologies() {
        let search = TopologySearch::default();
        assert_eq!(search.hidden_sizes(), vec![2, 4, 8, 16, 32]);
        assert_eq!(search.candidate_topologies(9, 1).len(), 30);
    }

    #[test]
    fn restricted_search_space() {
        let params = SearchParams {
            max_hidden_layers: 1,
            max_hidden_neurons: 8,
            ..SearchParams::default()
        };
        let search = TopologySearch::new(params);
        assert_eq!(search.candidate_topologies(4, 2).len(), 3); // 2, 4, 8
    }

    #[test]
    fn zero_hidden_layers_gives_direct_topology() {
        let params = SearchParams {
            max_hidden_layers: 0,
            ..SearchParams::default()
        };
        let tops = TopologySearch::new(params).candidate_topologies(3, 2);
        assert_eq!(tops, vec![Topology::new(vec![3, 2]).unwrap()]);
    }

    #[test]
    fn search_rejects_empty_data() {
        let search = TopologySearch::default();
        let err = search.run(&Dataset::new(1, 1), &|_| Some(1)).unwrap_err();
        assert_eq!(err, AnnError::EmptyDataset);
    }

    fn linear_data() -> Dataset {
        let mut d = Dataset::new(1, 1);
        for i in 0..120 {
            let x = i as f32 / 119.0;
            d.push(&[x], &[0.2 + 0.6 * x]).unwrap();
        }
        d
    }

    fn fast_params() -> SearchParams {
        SearchParams {
            max_hidden_layers: 1,
            max_hidden_neurons: 4,
            train: TrainParams {
                epochs: 60,
                learning_rate: 0.3,
                ..TrainParams::default()
            },
            ..SearchParams::default()
        }
    }

    #[test]
    fn search_learns_a_simple_function() {
        let outcome = TopologySearch::new(fast_params())
            .run(&linear_data(), &|t| Some(t.weight_count() as u64))
            .unwrap();
        assert!(outcome.best.test_mse < 0.01, "{:?}", outcome.best);
        assert_eq!(outcome.all_candidates.len(), 2);
        let y = outcome.mlp.feed_forward(&[0.5]);
        assert!((y[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn ties_break_toward_lower_latency() {
        // With generous slack, the cheaper topology must win even if it is
        // marginally less accurate.
        let params = SearchParams {
            accuracy_slack: 1e9,
            ..fast_params()
        };
        let outcome = TopologySearch::new(params)
            .run(&linear_data(), &|t| Some(t.weight_count() as u64))
            .unwrap();
        let min_latency = outcome
            .all_candidates
            .iter()
            .map(|c| c.npu_latency)
            .min()
            .unwrap();
        assert_eq!(outcome.best.npu_latency, min_latency);
    }

    #[test]
    fn seeding_is_independent_of_candidate_filtering() {
        // The same topology must train to the same network whether or not
        // other candidates were filtered out before it (seeds are keyed by
        // topology content, not list position).
        let data = linear_data();
        let all = TopologySearch::new(fast_params())
            .run(&data, &|t| Some(t.weight_count() as u64))
            .unwrap();
        let only_h4 = TopologySearch::new(fast_params())
            .run(&data, &|t| {
                (t.layers() == [1, 4, 1]).then(|| t.weight_count() as u64)
            })
            .unwrap();
        let h4_in_all = all
            .all_candidates
            .iter()
            .find(|c| c.topology.layers() == [1, 4, 1])
            .expect("1-4-1 candidate trained");
        assert_eq!(h4_in_all.test_mse, only_h4.best.test_mse);
        assert_eq!(h4_in_all.train_mse, only_h4.best.train_mse);
    }

    #[test]
    fn distinct_root_seeds_change_the_outcome_deterministically() {
        let data = linear_data();
        let a = TopologySearch::new(SearchParams {
            seed: 1,
            ..fast_params()
        })
        .run(&data, &|_| Some(1))
        .unwrap();
        let a2 = TopologySearch::new(SearchParams {
            seed: 1,
            ..fast_params()
        })
        .run(&data, &|_| Some(1))
        .unwrap();
        let b = TopologySearch::new(SearchParams {
            seed: 2,
            ..fast_params()
        })
        .run(&data, &|_| Some(1))
        .unwrap();
        assert_eq!(a.mlp, a2.mlp);
        assert_ne!(a.mlp, b.mlp, "root seed must reach weight init");
    }

    #[test]
    fn search_is_deterministic_across_thread_counts() {
        let data = linear_data();
        let mut single = fast_params();
        single.threads = 1;
        let mut multi = fast_params();
        multi.threads = 4;
        let a = TopologySearch::new(single)
            .run(&data, &|_| Some(1))
            .unwrap();
        let b = TopologySearch::new(multi).run(&data, &|_| Some(1)).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.mlp, b.mlp);
    }
}
