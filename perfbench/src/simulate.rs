//! `simulate`: cycle-level timed runs of the six apps at the `--fast`
//! scale, in the three variants Figure 8 needs.
//!
//! One op is one (app, variant) timed run: `runner::run_timed` for the
//! CPU and NPU variants, `runner::run_timed_ideal` for the ideal NPU.
//! The regions are compiled during set-up, each with its paper
//! Table-1 topology. A rotation is every app in every variant; runs
//! hold whole rotations only.

use crate::stats::{digest_f32, geomean, median, ms_since, Metrics};
use crate::trace::Tracer;
use crate::{common_metrics, reference, timed_rotations, Config, Outcome, FAST_SCALE};
use benchmarks::{all_benchmarks, runner, App, AppVariant, Benchmark};
use energy::{EnergyModel, EnergyParams};
use parrot::{CompiledRegion, ParrotCompiler};
use std::time::Instant;
use uarch::{CoreConfig, SimStats};

/// The three timed variants, in rotation order.
const VARIANTS: [&str; 3] = ["cpu", "ideal", "npu"];

/// Per-layer metrics this workload measures (besides the common ones).
pub const LAYERS: [&str; 16] = [
    "nn_test_mse_mean",
    "sim_minst_per_s",
    "sim_speedup_geomean",
    "sim_energy_reduction_geomean",
    "app_error_mean",
    "uarch.core.self_ms",
    "uarch.core.minst_per_s",
    "npu.sim.self_ms",
    "ir.interp.minst_per_s",
    "npu.replay.invocations_per_s",
    "energy.model.self_us",
    "uarch.cycles",
    "uarch.committed",
    "uarch.l1d_miss_rate",
    "uarch.bp_mispredict_rate",
    "npu.invocations",
];

/// One app with its compiled region and both program variants.
struct Case {
    bench: Box<dyn Benchmark>,
    compiled: CompiledRegion,
    precise: App,
    transformed: App,
}

/// The result of one timed op.
struct Timed {
    outputs: Vec<f32>,
    stats: SimStats,
    npu: Option<npu::NpuStats>,
}

fn timed_op(case: &Case, variant: &str) -> Result<Timed, String> {
    let cfg = CoreConfig::penryn_like();
    let npu_variant = AppVariant::Npu(&case.compiled);
    let (out, stats, npu) = match variant {
        "cpu" => runner::run_timed(&case.precise, &AppVariant::Precise, cfg),
        "ideal" => {
            let t = case.compiled.config().topology();
            runner::run_timed_ideal(
                &case.transformed,
                &npu_variant,
                cfg,
                t.inputs(),
                t.outputs(),
            )
            .map(|(out, stats)| (out, stats, None))
        }
        _ => runner::run_timed(&case.transformed, &npu_variant, cfg),
    }
    .map_err(|e| format!("{}.{variant}: timed run failed: {e}", case.bench.name()))?;
    Ok(Timed {
        outputs: case.bench.extract_outputs(&out.memory, &FAST_SCALE),
        stats,
        npu: npu.map(|n| n.stats),
    })
}

/// Canonical text of every exact value an op produces.
fn exact_value(t: &Timed) -> String {
    let s = &t.stats;
    let mut v = format!(
        "cycles={} committed={} ops={}/{}/{}/{}/{}/{} mem={}/{}/{} npuq={} bp={}/{} l1d={}/{} l2={}/{} dram={} stalls={}/{}/{}",
        s.cycles, s.committed, s.int_ops, s.fp_add_ops, s.fp_mul_ops, s.fp_div_ops, s.fp_sqrt_ops,
        s.fp_trig_ops, s.loads, s.stores, s.branches, s.npu_queue_ops, s.bp_lookups,
        s.bp_mispredicts, s.l1d_hits, s.l1d_misses, s.l2_hits, s.l2_misses, s.mem_accesses,
        s.rob_full_stalls, s.iq_full_stalls, s.lsq_full_stalls
    );
    if let Some(n) = &t.npu {
        v += &format!(
            " npu={}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
            n.macs,
            n.sigmoids,
            n.weight_reads,
            n.bus_transfers,
            n.input_reads,
            n.outputs_produced,
            n.config_words,
            n.invocations,
            n.squashed_invocations,
            n.faults_injected,
            n.active_cycles,
            n.total_cycles
        );
    }
    v + &format!(" out={:#018x}", digest_f32(&t.outputs))
}

/// Exact values of one rotation plus the figures derived from them.
#[derive(Default)]
struct RotationExact {
    items: Vec<reference::Item>,
    speedups: Vec<f64>,
    energy_reductions: Vec<f64>,
    app_errors: Vec<f64>,
    cycles: u64,
    committed: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    bp_lookups: u64,
    bp_mispredicts: u64,
    invocations: u64,
}

/// Per-app wall times of one traced rotation, in ms.
#[derive(Default, Clone, Copy)]
struct AppTimes {
    interp: f64,
    replay: f64,
    ops: [f64; 3],
    executed_precise: u64,
    committed: u64,
    invocations: u64,
}

#[derive(Default)]
struct TracedRotation {
    apps: Vec<AppTimes>,
    energy_us: f64,
}

struct Rotation<'a> {
    cases: &'a [Case],
    model: EnergyModel,
}

impl Rotation<'_> {
    /// Runs one rotation. Traced rotations also time the functional
    /// precise and NPU-variant runs of each app and the energy model,
    /// outside the ops.
    fn run(
        &self,
        index: usize,
        mut tracer: Option<&mut Tracer>,
        op_ms: &mut Vec<f64>,
        failures: &mut Vec<String>,
    ) -> (RotationExact, Option<TracedRotation>) {
        let mut exact = RotationExact::default();
        let mut traced = tracer.is_some().then(TracedRotation::default);
        for (a, case) in self.cases.iter().enumerate() {
            let op_base = ((index * self.cases.len() + a) * VARIANTS.len()) as u64;
            let mut times = AppTimes::default();
            if let Some(t) = tracer.as_deref_mut() {
                match functional_times(case, t, op_base) {
                    Ok((interp, replay, executed)) => {
                        times.interp = interp;
                        times.replay = replay;
                        times.executed_precise = executed;
                    }
                    Err(e) => failures.push(e),
                }
            }
            let mut results = Vec::new();
            for (v, variant) in VARIANTS.iter().enumerate() {
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("sim.op", op_base + v as u64));
                let start = Instant::now();
                let res = timed_op(case, variant);
                let ms = ms_since(start);
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                    t.end(id);
                }
                op_ms.push(ms);
                times.ops[v] = ms;
                match res {
                    Ok(r) => {
                        let name = format!("{}.{variant}", case.bench.name());
                        exact.items.push((name, exact_value(&r)));
                        let s = &r.stats;
                        exact.cycles += s.cycles;
                        exact.committed += s.committed;
                        times.committed += s.committed;
                        exact.l1d_hits += s.l1d_hits;
                        exact.l1d_misses += s.l1d_misses;
                        exact.bp_lookups += s.bp_lookups;
                        exact.bp_mispredicts += s.bp_mispredicts;
                        let inv = r.npu.map_or(0, |n| n.invocations);
                        exact.invocations += inv;
                        times.invocations += inv;
                        results.push(r);
                    }
                    Err(e) => failures.push(e),
                }
            }
            if let [cpu, _ideal, npu] = &results[..] {
                exact
                    .speedups
                    .push(cpu.stats.cycles as f64 / npu.stats.cycles as f64);
                exact
                    .app_errors
                    .push(case.bench.app_error(&cpu.outputs, &npu.outputs));
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("energy.model", op_base));
                let start = Instant::now();
                let base = self.model.core_energy(&cpu.stats).total_pj();
                let with_npu = self
                    .model
                    .system_energy(&npu.stats, npu.npu.as_ref())
                    .total_pj();
                let us = ms_since(start) * 1e3;
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                    t.end(id);
                }
                exact.energy_reductions.push(base / with_npu);
                if let Some(tr) = traced.as_mut() {
                    tr.energy_us += us;
                }
            }
            if let Some(tr) = traced.as_mut() {
                tr.apps.push(times);
            }
        }
        (exact, traced)
    }
}

/// Times the functional precise run (the interpreter alone) and the
/// functional NPU-variant run (interpreter plus batched replay) of one
/// app; returns their ms and the precise run's executed instructions.
fn functional_times(case: &Case, tracer: &mut Tracer, op: u64) -> Result<(f64, f64, u64), String> {
    let id = tracer.begin("ir.interp", op);
    let start = Instant::now();
    let precise = runner::run_functional(&case.precise, &AppVariant::Precise);
    let interp = ms_since(start);
    tracer.end(id);
    let id = tracer.begin("npu.replay", op);
    let start = Instant::now();
    let transformed = runner::run_functional(&case.transformed, &AppVariant::Npu(&case.compiled));
    let replay = ms_since(start);
    tracer.end(id);
    let executed = precise
        .map_err(|e| format!("{}: functional run failed: {e}", case.bench.name()))?
        .executed;
    transformed.map_err(|e| format!("{}: functional npu run failed: {e}", case.bench.name()))?;
    Ok((interp, replay, executed))
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when set-up fails (no timed result is produced then).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let ((cases, baseline), setup_s) = crate::stats::repeated_setup(|| {
        let mut cases = Vec::new();
        for bench in all_benchmarks() {
            // The paper's Table-1 topology, not a searched one: the seed
            // then changes the trained weights but not the NPU's work,
            // so op times do not depend on which topology a seed picks.
            let params = crate::compile::params_for(cfg.seed, bench.name());
            let topology = ann::Topology::new(bench.paper_topology())
                .map_err(|e| format!("{}: paper topology: {e}", bench.name()))?;
            let compiled = ParrotCompiler::new(params)
                .compile_with_topology(
                    &bench.region(),
                    &bench.training_inputs(&FAST_SCALE),
                    topology,
                )
                .map_err(|e| format!("{}: compile failed: {e}", bench.name()))?;
            let precise = bench.build_app(&AppVariant::Precise, &FAST_SCALE);
            let transformed = bench.build_app(&AppVariant::Npu(&compiled), &FAST_SCALE);
            cases.push(Case {
                bench,
                compiled,
                precise,
                transformed,
            });
        }
        let rot = Rotation {
            cases: &cases,
            model: EnergyModel::new(EnergyParams::default()),
        };
        let mut failures = Vec::new();
        let (warm, _) = rot.run(0, None, &mut Vec::new(), &mut failures);
        if let Some(e) = failures.first() {
            return Err(format!("warm-up: {e}"));
        }
        Ok((cases, warm))
    })?;
    if cfg.print_reference {
        reference::print(cfg.seed, "simulate", &baseline.items);
        return Ok(Outcome::default());
    }

    let mut problems = Vec::new();
    if let Err(e) = reference::check_stored(cfg.seed, "simulate", &baseline.items) {
        problems.push(e);
    }
    let rot = Rotation {
        cases: &cases,
        model: EnergyModel::new(EnergyParams::default()),
    };
    let mut tracer = Tracer::default();
    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut untraced_s = 0.0;
    let mut untraced_committed = 0u64;
    let mut failures = Vec::new();
    let mut traced_rotations = Vec::new();
    let mut mismatch = None;
    let (rotations, elapsed_s) = timed_rotations(cfg, |i| {
        let traced = cfg.trace && i % 2 == 0;
        let start = Instant::now();
        let mut ms = Vec::new();
        let (exact, tr) = rot.run(i, traced.then_some(&mut tracer), &mut ms, &mut failures);
        if !traced {
            untraced_s += start.elapsed().as_secs_f64();
            untraced_committed += exact.committed;
        }
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .extend_from_slice(&ms);
        op_ms.extend(ms);
        traced_rotations.extend(tr);
        if mismatch.is_none() {
            if let Err(e) = reference::compare("the first rotation", &baseline.items, &exact.items)
            {
                mismatch = Some(format!("rotation {i}: {e}"));
            }
        }
    });
    problems.extend(mismatch);

    let n_ops = cases.len() * VARIANTS.len();
    let attempted = (rotations * n_ops) as u64;
    let failed = failures.len() as u64;
    problems.extend(failures);
    let mut metrics = Metrics::default();
    common_metrics(&mut metrics, setup_s, &op_ms, attempted as f64 / elapsed_s);
    metrics.set("failed_frac", failed as f64 / attempted as f64);
    exact_metrics(&mut metrics, &baseline, &cases);
    if untraced_s > 0.0 {
        metrics.set(
            "sim_minst_per_s",
            untraced_committed as f64 / 1e6 / untraced_s,
        );
    }
    if cfg.trace {
        layer_metrics(&traced_rotations, &mut metrics);
        metrics.set(
            "trace.op_p50_ratio",
            median(&traced_ms) / median(&untraced_ms),
        );
        crate::write_spans("simulate", &tracer);
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

fn exact_metrics(metrics: &mut Metrics, e: &RotationExact, cases: &[Case]) {
    metrics.set("sim_speedup_geomean", geomean(&e.speedups));
    metrics.set(
        "sim_energy_reduction_geomean",
        geomean(&e.energy_reductions),
    );
    let n = e.app_errors.len().max(1) as f64;
    metrics.set("app_error_mean", e.app_errors.iter().sum::<f64>() / n);
    let mse: f64 = cases.iter().map(|c| c.compiled.nn_mse()).sum();
    metrics.set("nn_test_mse_mean", mse / cases.len() as f64);
    metrics.set("uarch.cycles", e.cycles as f64);
    metrics.set("uarch.committed", e.committed as f64);
    metrics.set(
        "uarch.l1d_miss_rate",
        e.l1d_misses as f64 / (e.l1d_hits + e.l1d_misses).max(1) as f64,
    );
    metrics.set(
        "uarch.bp_mispredict_rate",
        e.bp_mispredicts as f64 / e.bp_lookups.max(1) as f64,
    );
    metrics.set("npu.invocations", e.invocations as f64);
}

/// Splits each traced op into layers by differencing separately timed
/// runs of the same app: the CPU op is the interpreter (functional
/// precise run) plus the core model; the ideal op is the functional
/// NPU-variant run plus the core model; the NPU op is the ideal op plus
/// the NPU cycle simulation (NPU run minus ideal run). Medians over
/// traced rotations of per-rotation totals.
fn layer_metrics(rotations: &[TracedRotation], metrics: &mut Metrics) {
    let mut core_ms = Vec::new();
    let mut npu_sim_ms = Vec::new();
    let mut core_rate = Vec::new();
    let mut interp_rate = Vec::new();
    let mut replay_rate = Vec::new();
    let mut energy_us = Vec::new();
    let (mut layers, mut ops) = (0.0, 0.0);
    for r in rotations {
        let (mut core, mut npu_sim, mut interp, mut replay) = (0.0, 0.0, 0.0, 0.0);
        let (mut committed, mut executed, mut invocations) = (0u64, 0u64, 0u64);
        for a in &r.apps {
            let [cpu, ideal, with_npu] = a.ops;
            let parts = [
                a.interp,
                (cpu - a.interp).max(0.0),
                a.replay,
                (ideal - a.replay).max(0.0),
                a.replay,
                (ideal - a.replay).max(0.0),
                (with_npu - ideal).max(0.0),
            ];
            layers += parts.iter().sum::<f64>();
            ops += cpu + ideal + with_npu;
            core += parts[1] + parts[3] + parts[5];
            npu_sim += parts[6];
            interp += a.interp;
            replay += a.replay;
            committed += a.committed;
            executed += a.executed_precise;
            invocations += a.invocations;
        }
        core_ms.push(core);
        npu_sim_ms.push(npu_sim);
        core_rate.push(committed as f64 / 1e3 / core);
        interp_rate.push(executed as f64 / 1e3 / interp);
        replay_rate.push(invocations as f64 * 1e3 / replay);
        energy_us.push(r.energy_us);
    }
    metrics.set("uarch.core.self_ms", median(&core_ms));
    metrics.set("uarch.core.minst_per_s", median(&core_rate));
    metrics.set("npu.sim.self_ms", median(&npu_sim_ms));
    metrics.set("ir.interp.minst_per_s", median(&interp_rate));
    metrics.set("npu.replay.invocations_per_s", median(&replay_rate));
    metrics.set("energy.model.self_us", median(&energy_us));
    if ops > 0.0 {
        metrics.set("trace.accounted_frac", layers / ops);
    }
}
