//! Parallel experiment orchestration for the Parrot pipeline.
//!
//! Every experiment is a node in a dependency-aware job DAG
//! (`observe(bench)` → `train(bench, topology)` → `sim_cpu` / `sim_npu`
//! → `energy` → `report`), executed by a fixed pool of worker threads
//! sized by `available_parallelism` (overridable with `--jobs N`) that
//! drain one locked ready queue. Job inputs — region IR hash, dataset
//! digest, training config, µarch/NPU config, root seed — form
//! content-addressed cache keys; artifacts persist under a cache
//! directory so re-running a sweep with unchanged inputs is a set of
//! cache hits and an interrupted sweep resumes where it stopped.
//!
//! Determinism contract: per-job seeds derive from the root seed and the
//! job's identity, and job bodies are pure functions of their
//! dependencies' artifacts, so a `--jobs 8` run is bit-identical to a
//! `--jobs 1` run — parallelism changes wall-clock, never results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod dag;
pub mod exec;
pub mod hash;
pub mod pipeline;
pub mod sweep;

pub use artifact::{Artifact, CountsArtifact, EnergyArtifact, TimingArtifact, TrainArtifact};
pub use cache::{ArtifactCache, CacheStats};
pub use dag::{Job, JobDag, JobFn, JobId};
pub use exec::{execute, ExecOptions, ExecStats, JobResult};
pub use hash::KeyHasher;
pub use pipeline::PIPELINE_VERSION;
pub use sweep::{
    run_sweep, Experiment, JobFailure, StagePlan, SweepResult, SweepSpec, DEFAULT_LINK_LATENCIES,
    DEFAULT_PE_COUNTS, DEFAULT_ROOT_SEED,
};
