//! Building one benchmark's job pipeline inside the sweep DAG.
//!
//! The canonical chain is
//!
//! ```text
//! observe ──► train ──► run(measure, target) for every target that
//!                       evaluates the network
//!                       run(measure, Cpu)    (no training needed)
//! energy  ◄── sim_cpu + sim_npu + sim_ideal
//! report  ◄── train + sim_cpu + sim_npu + outputs_base + outputs_npu
//! ```
//!
//! Every measurement is one [`Run`]: what is measured, on which target,
//! under which core configuration. One builder turns a run into a job
//! and hashes only the run description and its upstream key, so two
//! stage names asking for the same run (Figure 10's 1-cycle link is
//! `sim_npu`'s core) get one job through [`JobDag::add`]'s key merge.
//!
//! Cache keys are Merkle-style: every downstream key folds in its
//! upstream keys, so changing a training hyperparameter re-keys `train`
//! and everything after it while `observe` (whose key holds only the
//! program, the scale, and the dataset digest) and the CPU runs still hit.

use crate::artifact::{Artifact, CountsArtifact, EnergyArtifact, TimingArtifact, TrainArtifact};
use crate::dag::{JobDag, JobFn, JobId};
use crate::hash::KeyHasher;
use crate::sweep::StagePlan;
use benchmarks::{benchmark_by_name, runner, AppVariant, Benchmark, Scale};
use energy::{EnergyModel, EnergyParams};
use npu::NpuParams;
use parrot::{CompileParams, CompiledRegion};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use uarch::{CoreConfig, NpuAttachment};

/// Bumped whenever simulator, application-glue, or artifact semantics
/// change in a way the other key inputs cannot see; folded into every
/// cache key so stale artifacts from older pipeline versions never hit.
///
/// v2: `TimingArtifact` gained `npu_invocation_cycles` and the report
/// schema moved to v4 (distributions section).
///
/// v3: the report schema moved to v6 (serving section), changing the
/// serialized `Report` artifact layout.
pub const PIPELINE_VERSION: u64 = 3;

/// What a run job measures.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Measure {
    /// The application's output elements (Table 1, Figure 6, reports).
    Outputs,
    /// Dynamic instruction counts (Figure 7).
    Counts,
    /// Cycle-level timing on a core with this configuration.
    Timing(Box<CoreConfig>),
}

/// What evaluates the approximable region in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Target {
    /// The original code on the core; needs no network.
    Cpu,
    /// The trained network on the NPU.
    Npu {
        /// Processing engines of the cycle-level NPU (timing runs).
        n_pes: usize,
    },
    /// The trained network on a zero-cycle NPU (Figure 8's bound).
    IdealNpu,
    /// The trained network evaluated in software on the core (Figure 9).
    SoftwareNn,
}

/// One measurement job: the stage name it answers to and what it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Stage name (`sim_npu`, `sim_link_4`, …).
    pub stage: String,
    /// What is measured.
    pub measure: Measure,
    /// What evaluates the region.
    pub target: Target,
}

impl Run {
    /// A run named `stage`.
    pub fn new(stage: impl Into<String>, measure: Measure, target: Target) -> Run {
        Run {
            stage: stage.into(),
            measure,
            target,
        }
    }
}

fn base_hasher(tag: &str) -> KeyHasher {
    let mut h = KeyHasher::new(tag);
    h.update_u64(PIPELINE_VERSION);
    h
}

/// Canonical search parameters for hashing: the thread count steers only
/// the parallelism of candidate training (results are thread-count
/// independent), so it is zeroed to keep keys identical across `--jobs`
/// settings and machines.
fn canonical_search(params: &CompileParams) -> ann::SearchParams {
    let mut search = params.search.clone();
    search.threads = 0;
    search
}

fn lookup(name: &str) -> Result<Box<dyn Benchmark>, String> {
    benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
}

fn assemble(
    bench: &dyn Benchmark,
    train: &TrainArtifact,
    params: &CompileParams,
) -> Result<CompiledRegion, String> {
    CompiledRegion::assemble(
        &bench.region(),
        train.outcome.clone(),
        train.input_norm.clone(),
        train.output_norm.clone(),
        params.npu.clone(),
    )
    .map_err(|e| format!("{}: assemble failed: {e}", bench.name()))
}

/// The job body of `run`: a `Cpu` run has no dependencies, every other
/// target takes the train artifact.
fn run_body(name: String, scale: Scale, params: Arc<CompileParams>, run: Run) -> JobFn {
    Box::new(move |deps| {
        let bench = lookup(&name)?;
        let compiled = match deps.first() {
            Some(train) => Some(assemble(bench.as_ref(), train.as_train()?, &params)?),
            None => None,
        };
        let variant = match (run.target, &compiled) {
            (Target::Cpu, _) => AppVariant::Precise,
            (Target::SoftwareNn, Some(c)) => AppVariant::SoftwareNn(c),
            (_, Some(c)) => AppVariant::Npu(c),
            (_, None) => return Err(format!("{name}: {} has no network", run.stage)),
        };
        let app = bench.build_app(&variant, &scale);
        let failed = |e| format!("{name}: {} run failed: {e}", run.stage);
        Ok(match &run.measure {
            Measure::Outputs => {
                let out = runner::run_functional(&app, &variant).map_err(failed)?;
                Artifact::Outputs(bench.extract_outputs(&out.memory, &scale))
            }
            Measure::Counts => {
                let (_, counts) = runner::run_counting(&app, &variant).map_err(failed)?;
                Artifact::Counts(CountsArtifact {
                    total: counts.total,
                    npu_queue: counts.npu_queue,
                })
            }
            Measure::Timing(cfg) => {
                let npu = match (run.target, &compiled) {
                    (Target::Npu { n_pes }, Some(c)) => {
                        let sized = NpuParams {
                            n_pes,
                            ..c.npu_params().clone()
                        };
                        let sim = c
                            .make_npu_with(&sized.unbounded())
                            .map_err(|e| format!("{name}: npu sizing failed: {e}"))?;
                        NpuAttachment::Cycle(Box::new(sim))
                    }
                    (Target::IdealNpu, Some(c)) => {
                        let t = c.config().topology();
                        NpuAttachment::ideal(t.inputs(), t.outputs())
                    }
                    _ => NpuAttachment::None,
                };
                let (_, stats, npu) =
                    runner::run_timed_with(&app, &variant, (**cfg).clone(), npu).map_err(failed)?;
                let (npu, npu_invocation_cycles) = match npu {
                    Some(n) => (Some(n.stats), Some(n.invocation_cycles)),
                    None => (None, None),
                };
                Artifact::Timing(TimingArtifact {
                    stats,
                    npu,
                    npu_invocation_cycles,
                })
            }
        })
    })
}

/// The per-benchmark inputs of [`add_benchmark_jobs`].
pub struct BenchJobs<'a> {
    /// Benchmark name.
    pub name: &'a str,
    /// Input scale.
    pub scale: Scale,
    /// Compile parameters carrying the benchmark's derived search seed.
    pub params: Arc<CompileParams>,
    /// Suite name stamped into the run report.
    pub suite: &'a str,
    /// Run mode stamped into the run report.
    pub mode: &'a str,
}

/// Adds every job `plan` requires for `spec.name` to `dag`.
pub fn add_benchmark_jobs(
    dag: &mut JobDag,
    spec: BenchJobs<'_>,
    plan: &StagePlan,
) -> Result<(), String> {
    let BenchJobs {
        name,
        scale,
        params,
        suite,
        mode,
    } = spec;
    let bench = lookup(name)?;

    // The program under test: what every CPU run and the observation
    // start from.
    let program_key = {
        let mut h = base_hasher("program");
        h.update_str(name);
        h.update_str(&bench.region().program().to_string());
        h.update_json(&scale);
        h.digest()
    };

    // ---- observe ----------------------------------------------------
    let observe_key = {
        let mut h = base_hasher("observe");
        h.update_str(&program_key);
        // Dataset digest: the exact training inputs, bit for bit.
        let training = bench.training_inputs(&scale);
        h.update_u64(training.len() as u64);
        for row in &training {
            h.update_f32s(row);
        }
        h.digest()
    };
    let observe_id = if plan.train {
        let job_name = name.to_string();
        Some(dag.add(
            "observe",
            name,
            Some(observe_key.clone()),
            vec![],
            Box::new(move |_| {
                let bench = lookup(&job_name)?;
                let region = bench.region();
                region
                    .verify()
                    .map_err(|e| format!("{job_name}: region rejected: {e}"))?;
                let training = bench.training_inputs(&scale);
                let obs = parrot::observe(&region, &training)
                    .map_err(|e| format!("{job_name}: observation failed: {e}"))?;
                Ok(Artifact::Observe(obs))
            }),
        ))
    } else {
        None
    };

    // ---- train ------------------------------------------------------
    let train_key = {
        let mut h = base_hasher("train");
        h.update_str(&observe_key);
        h.update_json(&canonical_search(&params));
        h.update_u64(params.max_training_samples as u64);
        h.update_json(&params.npu);
        h.digest()
    };
    let train_id = observe_id.map(|obs_id| {
        let job_name = name.to_string();
        let params = Arc::clone(&params);
        dag.add(
            "train",
            name,
            Some(train_key.clone()),
            vec![obs_id],
            Box::new(move |deps| {
                let obs = deps[0].as_observe()?;
                let data = obs.normalized().subsample(
                    params.max_training_samples,
                    parrot::subsample_seed(params.search.seed),
                );
                let npu_params = params.npu.clone();
                let cost = |t: &ann::Topology| npu::try_estimate_latency(t, &npu_params).ok();
                let outcome = ann::TopologySearch::new(params.search.clone())
                    .run(&data, &cost)
                    .map_err(|e| format!("{job_name}: training failed: {e}"))?;
                Ok(Artifact::Train(TrainArtifact {
                    outcome,
                    input_norm: obs.input_norm.clone(),
                    output_norm: obs.output_norm.clone(),
                }))
            }),
        )
    });

    // ---- measurement runs (Table 1, Figures 6-11, report) -----------
    // The key holds the run description and its upstream: the program
    // for CPU runs, the trained network otherwise. A cycle NPU is sized
    // `NpuParams { n_pes, ..compiled }.unbounded()`, so only `n_pes` is
    // hashed: the rest of the compiled sizing is already in `train_key`,
    // and `strict_capacity` only gates the scheduler's capacity check,
    // never a cycle. Every run first assembles the region, which schedules
    // the network strictly under the compiled sizing, so relaxing the
    // check cannot admit a network the compiled NPU would reject. That
    // makes Figure 11's point at the compiled PE count the `sim_npu` run.
    let mut runs: BTreeMap<&str, (JobId, String)> = BTreeMap::new();
    for run in &plan.runs {
        let (upstream, deps) = match run.target {
            Target::Cpu => (&program_key, vec![]),
            _ => (
                &train_key,
                vec![train_id.ok_or_else(|| format!("{} requires train", run.stage))?],
            ),
        };
        let key = {
            let mut h = base_hasher("run");
            h.update_str(upstream);
            h.update_json(&run.measure);
            h.update_json(&run.target);
            h.digest()
        };
        let body = run_body(name.to_string(), scale, Arc::clone(&params), run.clone());
        let id = dag.add(run.stage.clone(), name, Some(key.clone()), deps, body);
        runs.insert(&run.stage, (id, key));
    }
    let run = |stage: &str| {
        runs.get(stage)
            .cloned()
            .ok_or_else(|| format!("{name}: the plan has no {stage} run"))
    };

    // ---- energy (Figure 8b) -----------------------------------------
    if plan.energy {
        let (cpu, npu, ideal) = (run("sim_cpu")?, run("sim_npu")?, run("sim_ideal")?);
        let energy = EnergyParams::default();
        let key = {
            let mut h = base_hasher("energy");
            h.update_str(&cpu.1);
            h.update_str(&npu.1);
            h.update_str(&ideal.1);
            h.update_json(&energy);
            h.digest()
        };
        dag.add(
            "energy",
            name,
            Some(key),
            vec![cpu.0, npu.0, ideal.0],
            Box::new(move |deps| {
                let base = deps[0].as_timing()?;
                let with_npu = deps[1].as_timing()?;
                let ideal = deps[2].as_timing()?;
                let model = EnergyModel::new(energy);
                Ok(Artifact::Energy(EnergyArtifact {
                    baseline_pj: model.core_energy(&base.stats).total_pj(),
                    npu_pj: model
                        .system_energy(&with_npu.stats, with_npu.npu.as_ref())
                        .total_pj(),
                    ideal_pj: model.core_energy(&ideal.stats).total_pj(),
                }))
            }),
        );
    }

    // ---- per-benchmark run report -----------------------------------
    if plan.report {
        let inputs = [
            run("sim_cpu")?,
            run("sim_npu")?,
            run("outputs_base")?,
            run("outputs_npu")?,
        ];
        let key = {
            let mut h = base_hasher("report");
            h.update_str(suite);
            h.update_str(mode);
            h.update_str(&train_key);
            for (_, key) in &inputs {
                h.update_str(key);
            }
            h.digest()
        };
        let mut deps = vec![train_id.ok_or("report requires train")?];
        deps.extend(inputs.iter().map(|(id, _)| *id));
        let job_name = name.to_string();
        let (suite, mode) = (suite.to_string(), mode.to_string());
        dag.add(
            "report",
            name,
            Some(key),
            deps,
            Box::new(move |deps| {
                let train = deps[0].as_train()?;
                let base = deps[1].as_timing()?;
                let with_npu = deps[2].as_timing()?;
                let out_base = deps[3].as_outputs()?;
                let out_npu = deps[4].as_outputs()?;
                let bench = lookup(&job_name)?;
                let region = bench.region();
                let verify = region
                    .verify()
                    .map_err(|e| format!("{job_name}: region rejected: {e}"))?;

                // Deterministic by construction: no wall-clock, no phase
                // timings, a zeroed scheduler section. Anything timing-
                // dependent lives in the sweep-level report instead, so
                // this report is byte-identical across `--jobs` settings
                // and across warm/cold runs.
                let mut report = telemetry::RunReport::new(&suite, &job_name, &mode);
                let mut lint = telemetry::LintSummary::default();
                for d in verify.diagnostics() {
                    lint.record(&d.severity.to_string(), d.lint.name());
                }
                lint.export(&mut report.metrics, "lint");
                report.lint = lint;
                // Both derive from the region's static IR alone, so they
                // are as deterministic as the lint section.
                report.precision = region.precision_summary();
                if let Some(bits) = report.precision.datapath_int_bits {
                    report
                        .metrics
                        .add("precision.datapath_int_bits", bits as u64);
                }
                if let Some(bits) = report.precision.datapath_frac_bits {
                    report
                        .metrics
                        .add("precision.datapath_frac_bits", bits as u64);
                }
                base.stats.export(&mut report.metrics, "uarch.baseline");
                with_npu.stats.export(&mut report.metrics, "uarch.npu");
                if let Some(unit) = &with_npu.npu {
                    unit.export(&mut report.metrics, "npu");
                }
                train
                    .outcome
                    .export_metrics(&mut report.metrics, "ann.search");
                if with_npu.stats.cycles > 0 {
                    report.metrics.set_gauge(
                        "speedup",
                        base.stats.cycles as f64 / with_npu.stats.cycles as f64,
                    );
                }
                // Distributions: both are functions of the simulated trace
                // and the functional outputs — deterministic, so safe in
                // this bit-identical-across-`--jobs` report.
                if let Some(hist) = &with_npu.npu_invocation_cycles {
                    report.push_distribution("npu.invocation_cycles", hist);
                }
                let mut err = telemetry::Histogram::default();
                for e in bench.element_errors(out_base, out_npu) {
                    err.observe(e);
                }
                report.push_distribution("region.output_error", &err);
                Ok(Artifact::Report(report))
            }),
        );
    }

    Ok(())
}
