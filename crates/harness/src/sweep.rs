//! Sweep assembly: which experiments to run, over which benchmarks, and
//! the collected result.
//!
//! A [`SweepSpec`] is declarative — experiments, benchmarks, scale,
//! compile parameters, root seed, worker count, cache directory.
//! [`run_sweep`] expands it into one [`crate::dag::JobDag`], executes it
//! on the [`crate::exec`] worker pool, and folds the per-job results into a
//! [`SweepResult`] the presentation layer (row builders, report writers)
//! consumes.

use crate::artifact::Artifact;
use crate::cache::ArtifactCache;
use crate::dag::JobDag;
use crate::exec::{self, ExecStats, JobResult};
use crate::pipeline;
use benchmarks::{all_benchmarks, benchmark_by_name, Scale};
use energy::EnergyParams;
use parrot::{CompileParams, CompiledRegion};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use telemetry::{RunReport, SchedulerSummary};

/// Root seed every per-benchmark, per-purpose seed is derived from when
/// the caller does not override it (the ann crate's historical default).
pub const DEFAULT_ROOT_SEED: u64 = 0xdead_beef;

/// NPU link-latency sweep points (Figure 10).
pub const DEFAULT_LINK_LATENCIES: &[u64] = &[1, 2, 4, 8, 16];

/// PE-count sweep points (Figure 11).
pub const DEFAULT_PE_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32];

/// One experiment the harness knows how to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: per-benchmark application error.
    Table1,
    /// Figure 6: CDF of per-element error.
    Fig6,
    /// Figure 7: dynamic instruction subsumption.
    Fig7,
    /// Figure 8: whole-application speedup and energy reduction.
    Fig8,
    /// Figure 9: software-NN slowdown (why hardware is needed).
    Fig9,
    /// Figure 10: sensitivity to core–NPU link latency.
    Fig10,
    /// Figure 11: sensitivity to the number of PEs.
    Fig11,
    /// Per-benchmark machine-readable run reports.
    Report,
    /// Train only (compile artifacts for ablation studies).
    Train,
}

impl Experiment {
    /// Every paper experiment plus reports (what `parrot-run` runs when no
    /// experiment is named). `Train` is excluded: it is subsumed by
    /// anything that needs a network.
    pub fn all() -> Vec<Experiment> {
        vec![
            Experiment::Table1,
            Experiment::Fig6,
            Experiment::Fig7,
            Experiment::Fig8,
            Experiment::Fig9,
            Experiment::Fig10,
            Experiment::Fig11,
            Experiment::Report,
        ]
    }

    /// Parses a CLI experiment name (`table1`, `fig8`/`fig08`, `report`,
    /// `train`).
    pub fn parse(s: &str) -> Option<Experiment> {
        match s.to_ascii_lowercase().as_str() {
            "table1" => Some(Experiment::Table1),
            "fig6" | "fig06" => Some(Experiment::Fig6),
            "fig7" | "fig07" => Some(Experiment::Fig7),
            "fig8" | "fig08" => Some(Experiment::Fig8),
            "fig9" | "fig09" => Some(Experiment::Fig9),
            "fig10" => Some(Experiment::Fig10),
            "fig11" => Some(Experiment::Fig11),
            "report" => Some(Experiment::Report),
            "train" => Some(Experiment::Train),
            _ => None,
        }
    }

    /// Canonical name (inverse of [`Experiment::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Report => "report",
            Experiment::Train => "train",
        }
    }
}

/// Which pipeline stages a set of experiments requires.
#[derive(Debug, Clone, Default)]
pub struct StagePlan {
    /// `observe` + `train` (any experiment that needs a network).
    pub train: bool,
    /// Functional output runs (Table 1, Figure 6, and the report's
    /// output-error distribution).
    pub outputs: bool,
    /// Instruction-counting runs (Figure 7).
    pub counts: bool,
    /// Baseline cycle-level run.
    pub sim_cpu: bool,
    /// NPU cycle-level run.
    pub sim_npu: bool,
    /// Ideal-NPU cycle-level run (Figure 8's upper bound).
    pub sim_ideal: bool,
    /// Software-NN cycle-level run (Figure 9).
    pub sim_soft: bool,
    /// Energy model evaluation (Figure 8b).
    pub energy: bool,
    /// Per-benchmark run reports.
    pub report: bool,
    /// Link-latency sweep points, empty unless Figure 10 is requested.
    pub link_latencies: Vec<u64>,
    /// PE-count sweep points, empty unless Figure 11 is requested.
    pub pe_counts: Vec<usize>,
}

impl StagePlan {
    /// Derives the stage set for `experiments` (sweep points are taken
    /// from `link_latencies` / `pe_counts` when the matching figure is
    /// requested).
    pub fn from_experiments(
        experiments: &[Experiment],
        link_latencies: &[u64],
        pe_counts: &[usize],
    ) -> StagePlan {
        let has = |e: Experiment| experiments.contains(&e);
        let mut plan = StagePlan {
            outputs: has(Experiment::Table1) || has(Experiment::Fig6) || has(Experiment::Report),
            counts: has(Experiment::Fig7),
            sim_cpu: has(Experiment::Fig8)
                || has(Experiment::Fig9)
                || has(Experiment::Fig10)
                || has(Experiment::Fig11)
                || has(Experiment::Report),
            sim_npu: has(Experiment::Fig8) || has(Experiment::Report),
            sim_ideal: has(Experiment::Fig8),
            sim_soft: has(Experiment::Fig9),
            energy: has(Experiment::Fig8),
            report: has(Experiment::Report),
            link_latencies: if has(Experiment::Fig10) {
                link_latencies.to_vec()
            } else {
                Vec::new()
            },
            pe_counts: if has(Experiment::Fig11) {
                pe_counts.to_vec()
            } else {
                Vec::new()
            },
            train: false,
        };
        plan.train = has(Experiment::Train)
            || plan.outputs
            || plan.counts
            || plan.sim_npu
            || plan.sim_ideal
            || plan.sim_soft
            || plan.report
            || !plan.link_latencies.is_empty()
            || !plan.pe_counts.is_empty();
        plan
    }
}

/// Declarative description of one sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Suite name stamped into reports (e.g. `parrot-run`).
    pub suite: String,
    /// Run mode stamped into reports (`fast` or `paper`).
    pub mode: String,
    /// Input scale for every benchmark.
    pub scale: Scale,
    /// Compilation parameters; the per-benchmark search seed is derived
    /// from [`SweepSpec::root_seed`], overriding `compile.search.seed`.
    pub compile: CompileParams,
    /// Root seed all per-benchmark seeds derive from.
    pub root_seed: u64,
    /// Worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Counter-sampling interval in microseconds (`None` disables the
    /// sampler thread; queue depth, cache traffic, and the trace-buffer
    /// high-water mark are then absent from traces).
    pub sample_interval_us: Option<u64>,
    /// Artifact-cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Benchmarks to run (empty = all, in canonical order).
    pub benches: Vec<String>,
    /// Experiments to schedule.
    pub experiments: Vec<Experiment>,
    /// Figure 10 sweep points.
    pub link_latencies: Vec<u64>,
    /// Figure 11 sweep points.
    pub pe_counts: Vec<usize>,
    /// Energy-model parameters (Figure 8b).
    pub energy: EnergyParams,
}

impl SweepSpec {
    /// A spec with every experiment, all benchmarks, default seeds and
    /// sweep points, no cache, and one worker per core.
    pub fn new(suite: &str, mode: &str, scale: Scale, compile: CompileParams) -> SweepSpec {
        SweepSpec {
            suite: suite.to_string(),
            mode: mode.to_string(),
            scale,
            compile,
            root_seed: DEFAULT_ROOT_SEED,
            jobs: 0,
            sample_interval_us: None,
            cache_dir: None,
            benches: Vec::new(),
            experiments: Experiment::all(),
            link_latencies: DEFAULT_LINK_LATENCIES.to_vec(),
            pe_counts: DEFAULT_PE_COUNTS.to_vec(),
            energy: EnergyParams::default(),
        }
    }
}

/// One failed job.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark the job belonged to.
    pub bench: String,
    /// Pipeline stage that failed.
    pub stage: String,
    /// The body's error message.
    pub error: String,
}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepResult {
    /// Benchmarks the sweep covered, in run order.
    pub benches: Vec<String>,
    /// NPU sizing the sweep compiled for (needed to reassemble compiled
    /// regions from train artifacts).
    pub npu_params: npu::NpuParams,
    /// Failed jobs, in DAG order.
    pub failures: Vec<JobFailure>,
    /// `(bench, stage)` of jobs skipped because an upstream failed.
    pub skipped: Vec<(String, String)>,
    /// Scheduler and cache accounting for the whole sweep.
    pub scheduler: SchedulerSummary,
    /// Per-stage job-duration distributions in microseconds.
    pub stage_job_us: BTreeMap<String, telemetry::Histogram>,
    /// Wall-clock sample distributions drained from the global registry
    /// (`ann.train.epoch_us`, `harness.cache.lookup_us`, …) — timing-
    /// dependent, so they surface only in the sweep-level report.
    pub samples: telemetry::MetricsRegistry,
    artifacts: BTreeMap<(String, String), Arc<Artifact>>,
}

impl SweepResult {
    /// The artifact `bench`'s `stage` job produced, if it succeeded.
    pub fn artifact(&self, bench: &str, stage: &str) -> Option<&Artifact> {
        self.artifacts
            .get(&(bench.to_string(), stage.to_string()))
            .map(Arc::as_ref)
    }

    /// Whether every job succeeded.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Per-benchmark run reports, in benchmark order (only benchmarks
    /// whose report job succeeded).
    pub fn reports(&self) -> Vec<&RunReport> {
        self.benches
            .iter()
            .filter_map(|b| self.artifact(b, "report"))
            .filter_map(|a| a.as_report().ok())
            .collect()
    }

    /// Reassembles `bench`'s compiled region from its train artifact
    /// (used by the ablation studies, which replay compiled regions under
    /// modified conditions).
    ///
    /// # Errors
    ///
    /// Fails when the train job did not succeed or reassembly fails.
    pub fn compiled(&self, bench: &str) -> Result<CompiledRegion, String> {
        let train = self
            .artifact(bench, "train")
            .ok_or_else(|| format!("{bench}: no train artifact in sweep"))?
            .as_train()?;
        let b = benchmark_by_name(bench).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
        CompiledRegion::assemble(
            &b.region(),
            train.outcome.clone(),
            train.input_norm.clone(),
            train.output_norm.clone(),
            self.npu_params.clone(),
        )
        .map_err(|e| format!("{bench}: assemble failed: {e}"))
    }

    /// A one-line-per-failure human summary (empty string when clean).
    pub fn failure_summary(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            out.push_str(&format!("  {}/{}: {}\n", f.bench, f.stage, f.error));
        }
        for (bench, stage) in &self.skipped {
            out.push_str(&format!("  {bench}/{stage}: skipped (upstream failed)\n"));
        }
        out
    }

    /// The sweep-level report: benchmark `"sweep"`, real wall clock, and
    /// the scheduler/cache section filled in (this is where the
    /// timing-dependent numbers live; per-benchmark reports stay
    /// deterministic).
    pub fn sweep_report(&self, suite: &str, mode: &str) -> RunReport {
        let mut report = RunReport::new(suite, "sweep", mode);
        report.wall_clock_us = self.scheduler.wall_clock_us;
        report.scheduler = self.scheduler.clone();
        self.scheduler.export(&mut report.metrics, "scheduler");
        for (stage, hist) in &self.stage_job_us {
            report.push_distribution(&format!("sched.job_us.{stage}"), hist);
        }
        for (name, hist) in self.samples.histograms() {
            report.push_distribution(name, hist);
        }
        report
    }
}

fn scheduler_summary(
    stats: &ExecStats,
    cache: Option<&ArtifactCache>,
    jobs_total: usize,
) -> SchedulerSummary {
    let (cache_hits, cache_misses, cache_writes) =
        cache.map(|c| c.stats().snapshot()).unwrap_or((0, 0, 0));
    SchedulerSummary {
        workers: stats.workers as u64,
        jobs_total: jobs_total as u64,
        jobs_executed: stats.executed,
        jobs_from_cache: stats.from_cache,
        jobs_failed: stats.failed,
        jobs_skipped: stats.skipped,
        cache_hits,
        cache_misses,
        cache_writes,
        max_queue_depth: stats.max_queue_depth,
        wall_clock_us: stats.wall_clock_us,
        stage_wall_us: stats.stage_wall_us.clone(),
    }
}

/// Expands `spec` into a job DAG and executes it.
///
/// Failures of individual jobs do *not* fail the sweep — they are
/// collected in [`SweepResult::failures`] so one broken benchmark cannot
/// hide the others' results. Only malformed specs (unknown benchmark
/// names) error out up front.
///
/// # Errors
///
/// Fails when `spec.benches` names an unknown benchmark.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResult, String> {
    let _span = telemetry::span("harness::sweep", &spec.suite);

    let benches: Vec<String> = if spec.benches.is_empty() {
        all_benchmarks()
            .iter()
            .map(|b| b.name().to_string())
            .collect()
    } else {
        for name in &spec.benches {
            benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
        }
        spec.benches.clone()
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if spec.jobs == 0 { cores } else { spec.jobs };
    let plan =
        StagePlan::from_experiments(&spec.experiments, &spec.link_latencies, &spec.pe_counts);

    let mut dag = JobDag::new();
    for name in &benches {
        let mut params = spec.compile.clone();
        // Root-seed derivation: each benchmark's topology search gets an
        // independent stream, so adding or removing benchmarks from a
        // sweep never shifts another benchmark's randomness.
        params.search.seed = ann::seed::mix_str(spec.root_seed, &format!("search/{name}"));
        // Training parallelism nests inside job parallelism: keep the
        // total thread count near the core count.
        params.search.threads = (cores / workers).max(1);
        pipeline::add_benchmark_jobs(
            &mut dag,
            pipeline::BenchJobs {
                name,
                scale: spec.scale,
                params: Arc::new(params),
                energy: spec.energy,
                suite: &spec.suite,
                mode: &spec.mode,
            },
            &plan,
        )?;
    }

    let cache = spec.cache_dir.as_ref().map(ArtifactCache::new);
    // Drain stale wall-clock samples (an earlier sweep in this process)
    // so this sweep's report only carries its own distributions.
    let _ = telemetry::take_samples();
    let opts = exec::ExecOptions {
        workers,
        sample_interval: spec
            .sample_interval_us
            .map(std::time::Duration::from_micros),
    };
    let (results, stats) = exec::execute(&dag, cache.as_ref(), &opts);

    let mut artifacts = BTreeMap::new();
    let mut failures = Vec::new();
    let mut skipped = Vec::new();
    for (job, result) in dag.jobs().iter().zip(&results) {
        match result {
            JobResult::Done { artifact, .. } => {
                artifacts.insert((job.bench.clone(), job.stage.clone()), Arc::clone(artifact));
            }
            JobResult::Failed(error) => failures.push(JobFailure {
                bench: job.bench.clone(),
                stage: job.stage.clone(),
                error: error.clone(),
            }),
            JobResult::Skipped => skipped.push((job.bench.clone(), job.stage.clone())),
        }
    }

    let scheduler = scheduler_summary(&stats, cache.as_ref(), dag.len());
    Ok(SweepResult {
        benches,
        npu_params: spec.compile.npu.clone(),
        failures,
        skipped,
        scheduler,
        stage_job_us: stats.stage_job_us,
        samples: telemetry::take_samples(),
        artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_plan_covers_each_experiment() {
        let plan = StagePlan::from_experiments(&[Experiment::Table1], &[1], &[2]);
        assert!(plan.train && plan.outputs);
        assert!(!plan.sim_cpu && !plan.counts && plan.link_latencies.is_empty());

        let plan = StagePlan::from_experiments(&[Experiment::Fig8], &[1], &[2]);
        assert!(plan.train && plan.sim_cpu && plan.sim_npu && plan.sim_ideal && plan.energy);

        let plan = StagePlan::from_experiments(&[Experiment::Fig10], &[1, 4], &[2]);
        assert_eq!(plan.link_latencies, vec![1, 4]);
        assert!(plan.sim_cpu && plan.train && plan.pe_counts.is_empty());

        let plan = StagePlan::from_experiments(&[Experiment::Train], &[], &[]);
        assert!(plan.train && !plan.sim_cpu && !plan.outputs && !plan.report);

        let plan = StagePlan::from_experiments(&[Experiment::Fig7], &[], &[]);
        assert!(plan.counts && plan.train && !plan.outputs);
    }

    #[test]
    fn experiment_names_round_trip() {
        for e in Experiment::all() {
            assert_eq!(Experiment::parse(e.name()), Some(e));
        }
        assert_eq!(Experiment::parse("fig08"), Some(Experiment::Fig8));
        assert_eq!(Experiment::parse("nope"), None);
    }
}
