//! `compile`: the cold Parrot compile of the six Table-1 regions.
//!
//! One op is one region through the harness pipeline's call chain,
//! `RegionSpec::verify` → `parrot::observe` → `TopologySearch::run` →
//! `CompiledRegion::assemble`, with `CompileParams::fast()`, training
//! inputs at the `--fast` scale and one search thread. A rotation is
//! all six regions; runs hold whole rotations only.

use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use crate::{common_metrics, reference, timed_rotations, Config, Outcome, FAST_SCALE};
use benchmarks::all_benchmarks;
use parrot::{CompileParams, CompiledRegion, RegionSpec};
use std::time::Instant;

/// Topology-search worker threads. Fixed (never 0 = one per CPU) so the
/// op's cost does not depend on the machine's core count.
pub const SEARCH_THREADS: usize = 1;

/// Per-layer metrics this workload measures (besides the common ones).
pub const LAYERS: [&str; 8] = [
    "nn_test_mse_mean",
    "ann.search.self_ms",
    "ann.train.ksample_epochs_per_s",
    "ann.search.candidates",
    "core.observe.self_ms",
    "core.observe.samples",
    "ir.verify.self_ms",
    "core.assemble.self_ms",
];

/// One region ready to compile: its spec, training inputs and params.
struct Region {
    name: &'static str,
    spec: RegionSpec,
    training: Vec<Vec<f32>>,
    params: CompileParams,
}

/// Compile parameters for `name` under workload seed `seed`: the search
/// root seed is derived as the harness derives it from `--seed`.
pub fn params_for(seed: u64, name: &str) -> CompileParams {
    let mut params = CompileParams::fast();
    params.search.threads = SEARCH_THREADS;
    params.search.seed = ann::seed::mix_str(seed, &format!("search/{name}"));
    params
}

/// The exact outcome of one compiled region, as a reference item.
pub fn exact_item(name: &str, compiled: &CompiledRegion) -> reference::Item {
    let best = &compiled.search_outcome().best;
    let topology: Vec<String> = best
        .topology
        .layers()
        .iter()
        .map(ToString::to_string)
        .collect();
    (
        name.to_string(),
        format!(
            "topology={} test_mse={:#018x} train_mse={:#018x}",
            topology.join("-"),
            best.test_mse.to_bits(),
            best.train_mse.to_bits()
        ),
    )
}

/// What one op produced besides its wall time.
struct OpResult {
    item: reference::Item,
    test_mse: f64,
    candidates: u64,
    samples: u64,
    sample_epochs: u64,
}

/// Runs `f` inside a span named `name` when tracing.
fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let id = t.begin(name, op);
            let out = f();
            t.end(id);
            out
        }
        None => f(),
    }
}

/// One op: compiles `r` through the harness call chain.
fn compile_op(r: &Region, op: u64, mut tracer: Option<&mut Tracer>) -> Result<OpResult, String> {
    let root = tracer.as_mut().map(|t| t.begin("compile.op", op));
    let result = (|| {
        span(&mut tracer, "ir.verify", op, || r.spec.verify())
            .map_err(|e| format!("{}: region rejected: {e}", r.name))?;
        let (obs, data) = span(&mut tracer, "core.observe", op, || {
            let obs = parrot::observe(&r.spec, &r.training)?;
            let data = obs.normalized().subsample(
                r.params.max_training_samples,
                parrot::subsample_seed(r.params.search.seed),
            );
            Ok::<_, parrot::ParrotError>((obs, data))
        })
        .map_err(|e| format!("{}: observation failed: {e}", r.name))?;
        let npu_params = r.params.npu.clone();
        let cost = |t: &ann::Topology| npu::try_estimate_latency(t, &npu_params).ok();
        let outcome = span(&mut tracer, "ann.search", op, || {
            ann::TopologySearch::new(r.params.search.clone()).run(&data, &cost)
        })
        .map_err(|e| format!("{}: training failed: {e}", r.name))?;
        let candidates = outcome.all_candidates.len() as u64;
        let train_len = ((data.len() as f64) * r.params.search.train_fraction).round() as u64;
        let sample_epochs: u64 = outcome
            .all_candidates
            .iter()
            .map(|c| train_len * epochs_for(&r.params.search, train_len, &c.topology))
            .sum();
        let compiled = span(&mut tracer, "core.assemble", op, || {
            CompiledRegion::assemble(
                &r.spec,
                outcome,
                obs.input_norm.clone(),
                obs.output_norm.clone(),
                r.params.npu.clone(),
            )
        })
        .map_err(|e| format!("{}: assemble failed: {e}", r.name))?;
        Ok(OpResult {
            item: exact_item(r.name, &compiled),
            test_mse: compiled.search_outcome().best.test_mse,
            candidates,
            samples: obs.data.len() as u64,
            sample_epochs,
        })
    })();
    if let (Some(t), Some(id)) = (tracer, root) {
        t.end(id);
    }
    result
}

/// Epochs the search trains `topology` for (mirrors the search's
/// flops-budget rule; `CompileParams::fast()` sets no budget).
fn epochs_for(search: &ann::SearchParams, train_len: u64, topology: &ann::Topology) -> u64 {
    match search.epoch_flops_budget {
        Some(budget) => {
            let per_epoch = (train_len * topology.weight_count() as u64 * 4).max(1);
            ((budget / per_epoch) as usize).clamp(30, search.train.epochs.max(30)) as u64
        }
        None => search.train.epochs as u64,
    }
}

/// Per-rotation exact summary.
#[derive(Default)]
struct RotationExact {
    items: Vec<reference::Item>,
    test_mse_sum: f64,
    candidates: u64,
    samples: u64,
    sample_epochs: u64,
}

fn rotation(
    regions: &[Region],
    first_op: u64,
    mut tracer: Option<&mut Tracer>,
    op_ms: &mut Vec<f64>,
    failures: &mut Vec<String>,
) -> RotationExact {
    let mut exact = RotationExact::default();
    for (i, r) in regions.iter().enumerate() {
        let t = Instant::now();
        let res = compile_op(r, first_op + i as u64, tracer.as_deref_mut());
        op_ms.push(crate::stats::ms_since(t));
        match res {
            Ok(o) => {
                exact.items.push(o.item);
                exact.test_mse_sum += o.test_mse;
                exact.candidates += o.candidates;
                exact.samples += o.samples;
                exact.sample_epochs += o.sample_epochs;
            }
            Err(e) => failures.push(e),
        }
    }
    exact
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when set-up fails (no timed result is produced then).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let n_regions = all_benchmarks().len();
    let ((regions, baseline), setup_s) = crate::stats::repeated_setup(|| {
        let regions: Vec<Region> = all_benchmarks()
            .into_iter()
            .map(|b| Region {
                name: b.name(),
                spec: b.region(),
                training: b.training_inputs(&FAST_SCALE),
                params: params_for(cfg.seed, b.name()),
            })
            .collect();
        // Untimed warm-up rotation; its exact values are the baseline
        // every timed rotation must reproduce.
        let mut failures = Vec::new();
        let warm = rotation(&regions, 0, None, &mut Vec::new(), &mut failures);
        if let Some(e) = failures.first() {
            return Err(format!("warm-up: {e}"));
        }
        Ok((regions, warm))
    })?;
    if cfg.print_reference {
        reference::print(cfg.seed, "compile", &baseline.items);
        return Ok(Outcome::default());
    }

    let mut problems = Vec::new();
    if let Err(e) = reference::check_stored(cfg.seed, "compile", &baseline.items) {
        problems.push(e);
    }
    let mut tracer = Tracer::default();
    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut failures = Vec::new();
    let mut mismatch = None;
    let (rotations, elapsed_s) = timed_rotations(cfg, |i| {
        let traced = cfg.trace && i % 2 == 0;
        let mut ms = Vec::new();
        let exact = rotation(
            &regions,
            (i * n_regions) as u64,
            traced.then_some(&mut tracer),
            &mut ms,
            &mut failures,
        );
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .extend_from_slice(&ms);
        op_ms.extend(ms);
        if mismatch.is_none() {
            if let Err(e) = reference::compare("the first rotation", &baseline.items, &exact.items)
            {
                mismatch = Some(format!("rotation {i}: {e}"));
            }
        }
    });
    problems.extend(mismatch);

    let attempted = (rotations * n_regions) as u64;
    let failed = failures.len() as u64;
    problems.extend(failures);
    let mut metrics = Metrics::default();
    common_metrics(&mut metrics, setup_s, &op_ms, attempted as f64 / elapsed_s);
    metrics.set("failed_frac", failed as f64 / attempted as f64);
    metrics.set("nn_test_mse_mean", baseline.test_mse_sum / n_regions as f64);
    metrics.set("ann.search.candidates", baseline.candidates as f64);
    metrics.set("core.observe.samples", baseline.samples as f64);
    if cfg.trace {
        layer_metrics(&tracer, &mut metrics, baseline.sample_epochs);
        metrics.set(
            "trace.op_p50_ratio",
            median(&traced_ms) / median(&untraced_ms),
        );
        crate::write_spans("compile", &tracer);
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// Per-layer self times from the traced rotations: medians over
/// rotations of each layer's per-rotation total.
fn layer_metrics(tracer: &Tracer, metrics: &mut Metrics, sample_epochs: u64) {
    const LAYERS: [(&str, &str); 4] = [
        ("ir.verify", "ir.verify.self_ms"),
        ("core.observe", "core.observe.self_ms"),
        ("ann.search", "ann.search.self_ms"),
        ("core.assemble", "core.assemble.self_ms"),
    ];
    let n_regions = all_benchmarks().len() as u64;
    let self_ns = tracer.self_ns();
    // rotation index → per-layer totals (ns) and op total.
    let mut per_rot: std::collections::BTreeMap<u64, ([u64; 4], u64)> = Default::default();
    for (s, own) in tracer.spans().iter().zip(&self_ns) {
        let entry = per_rot.entry(s.op / n_regions).or_default();
        if s.name == "compile.op" {
            entry.1 += s.dur_ns();
        } else if let Some(k) = LAYERS.iter().position(|(n, _)| *n == s.name) {
            entry.0[k] += own;
        }
    }
    let rots: Vec<&([u64; 4], u64)> = per_rot.values().collect();
    for (k, (_, metric)) in LAYERS.iter().enumerate() {
        let per: Vec<f64> = rots.iter().map(|r| r.0[k] as f64 / 1e6).collect();
        metrics.set(metric, median(&per));
    }
    let search_s: Vec<f64> = rots.iter().map(|r| r.0[2] as f64 / 1e9).collect();
    metrics.set(
        "ann.train.ksample_epochs_per_s",
        sample_epochs as f64 / 1e3 / median(&search_s),
    );
    let layers: u64 = rots.iter().map(|r| r.0.iter().sum::<u64>()).sum();
    let ops: u64 = rots.iter().map(|r| r.1).sum();
    metrics.set("trace.accounted_frac", layers as f64 / ops as f64);
}
