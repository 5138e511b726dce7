//! The repository benchmark: end-to-end and per-layer metrics of the
//! Parrot compile, cycle-level simulation and serving paths.
//!
//! ```text
//! perfbench --workload <compile|simulate|serve-batched|serve-paced>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (inputs, compiled regions or daemon, and an untimed warm-up)
//! runs [`stats::SETUP_REPS`] times and `setup_s` reports the median.
//! The timed phase then runs whole rotations until `--seconds` have
//! passed (`--seconds 0`: one rotation, two when traced). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics from a
//! traced run (`--trace 1`), each with its unit. Output checks and
//! problems go to stderr. See `perfbench/README.md`.

mod compile;
mod reference;
mod serving;
mod simulate;
mod stats;
mod trace;

use benchmarks::Scale;
use stats::{median, quantile, Metrics};
use std::path::PathBuf;
use std::time::Instant;

/// The `--fast` evaluation scale of the experiment binaries.
pub const FAST_SCALE: Scale = Scale {
    image_dim: 96,
    fft_points: 1024,
    ik_pairs: 2_000,
    tri_pairs: 2_000,
    kmeans_iters: 1,
    kmeans_k: 6,
};

/// Workload names. `BENCHMARK.json` lists `compile` and `simulate`; the
/// serve workloads run but fail their output checks until the daemon
/// stops losing replies.
pub const WORKLOADS: [&str; 4] = ["compile", "simulate", "serve-batched", "serve-paced"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`) of the workloads `BENCHMARK.json`
/// lists, with units. A workload must measure [`COMMON_LAYERS`] and the
/// layers it declares it exercises ([`exercised`]); the others read 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("op_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
    ("trace.op_p50_ratio", "ratio"),
    ("nn_test_mse_mean", "mse"),
    ("ann.search.self_ms", "ms"),
    ("ann.train.ksample_epochs_per_s", "ksample-ep/s"),
    ("ann.search.candidates", "count"),
    ("core.observe.self_ms", "ms"),
    ("core.observe.samples", "count"),
    ("ir.verify.self_ms", "ms"),
    ("core.assemble.self_ms", "ms"),
    ("sim_minst_per_s", "Minst/s"),
    ("sim_speedup_geomean", "x"),
    ("sim_energy_reduction_geomean", "x"),
    ("app_error_mean", "ratio"),
    ("uarch.core.self_ms", "ms"),
    ("uarch.core.minst_per_s", "Minst/s"),
    ("npu.sim.self_ms", "ms"),
    ("ir.interp.minst_per_s", "Minst/s"),
    ("npu.replay.invocations_per_s", "1/s"),
    ("energy.model.self_us", "us"),
    ("uarch.cycles", "count"),
    ("uarch.committed", "count"),
    ("uarch.l1d_miss_rate", "ratio"),
    ("uarch.bp_mispredict_rate", "ratio"),
    ("npu.invocations", "count"),
];

/// Per-layer metrics only the serve workloads report, after
/// [`PER_LAYER`]. `BENCHMARK.json` lists neither these nor the serve
/// workloads: the daemon loses replies (see `perfbench/README.md`).
pub const SERVE_PER_LAYER: [(&str, &str); 13] = [
    ("serve.queue_wait.p50_us", "us"),
    ("serve.queue_wait.p99_us", "us"),
    ("serve.rtt.p50_us", "us"),
    ("serve.wire.p50_us", "us"),
    ("serve.batch_occupancy.mean", "count"),
    ("serve.client.encode_ns", "ns"),
    ("serve.client.decode_ns", "ns"),
    ("npu.replay.batch16_us", "us"),
    ("serve.rejected", "count"),
    ("serve.timed_out", "count"),
    ("serve.mismatched", "count"),
    ("serve.lost", "count"),
    ("gen.late.p99_ms", "ms"),
];

/// The per-layer metrics a traced run of `workload` reports.
pub fn per_layer(workload: &str) -> Vec<(&'static str, &'static str)> {
    let serve: &[(&str, &str)] = if workload.starts_with("serve-") {
        &SERVE_PER_LAYER
    } else {
        &[]
    };
    PER_LAYER.iter().chain(serve).copied().collect()
}

/// Per-layer metrics every workload measures.
pub const COMMON_LAYERS: [&str; 4] = [
    "op_p99_ms",
    "failed_frac",
    "trace.accounted_frac",
    "trace.op_p50_ratio",
];

/// The per-layer metrics `workload` measures besides [`COMMON_LAYERS`].
pub fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "compile" => &compile::LAYERS,
        "simulate" => &simulate::LAYERS,
        "serve-batched" => serving::Shape::Batched.layers(),
        _ => serving::Shape::Paced.layers(),
    }
}

/// Largest allowed gap between the per-layer self times of the traced
/// ops and the ops' own wall time, as a share of op time.
pub const ACCOUNTING_TOLERANCE: f64 = 0.03;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed: search root seed, fleet seed, request inputs and
    /// arrival schedule all derive from it.
    pub seed: u64,
    /// Timed-phase length; 0 runs the fewest rotations.
    pub seconds: u64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// Print the exact values of the warm-up rotation in
    /// `reference.txt` format and stop.
    pub print_reference: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed (errors, rejections, timeouts, mismatches).
    pub failed: u64,
    /// Every metric the workload measured.
    pub metrics: Metrics,
    /// Human-readable check failures.
    pub problems: Vec<String>,
}

/// Runs whole rotations until `cfg.seconds` have passed, and at least
/// one, or two in a traced run, which alternates traced and untraced
/// rotations. Returns the number of rotations and their total wall
/// seconds.
pub fn timed_rotations(cfg: &Config, mut rotation: impl FnMut(usize)) -> (usize, f64) {
    let min_rotations = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut rotations = 0;
    loop {
        rotation(rotations);
        rotations += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if rotations >= min_rotations && elapsed >= cfg.seconds as f64 {
            return (rotations, elapsed);
        }
    }
}

/// Fills the metrics every workload reports the same way.
pub fn common_metrics(metrics: &mut Metrics, setup_s: f64, op_ms: &[f64], ops_per_s: f64) {
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", stats::peak_rss_mb());
    metrics.set("op_p50_ms", median(op_ms));
    metrics.set("op_p99_ms", quantile(op_ms, 0.99));
    metrics.set("ops_per_s", ops_per_s);
}

/// Writes a traced run's spans to `perfbench/out/spans-<workload>.jsonl`,
/// reporting (not failing on) I/O errors.
pub fn write_spans(workload: &str, tracer: &trace::Tracer) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--print-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        print_reference: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-reference" {
            cfg.print_reference = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, not {value:?}")))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = num(),
            "--seconds" => cfg.seconds = num(),
            "--trace" => {
                cfg.trace = match num() {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        usage(&format!("unknown workload {:?}", cfg.workload));
    }
    cfg
}

/// Renders the result line: the declared metrics for the run's mode.
/// Fails when a metric the workload must measure is missing, or when it
/// measured a layer it declares as not exercised.
fn result_json(cfg: &Config, outcome: &Outcome) -> Result<String, String> {
    let declared = if cfg.trace {
        per_layer(&cfg.workload)
    } else {
        END_TO_END.to_vec()
    };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let required =
            !cfg.trace || COMMON_LAYERS.contains(&name) || exercised(&cfg.workload).contains(&name);
        let value = match (outcome.metrics.get(name), required) {
            (Some(v), true) => v,
            // A layer this workload does not exercise did no work.
            (None, false) => 0.0,
            (None, true) => return Err(format!("workload did not measure {name}")),
            (Some(_), false) => {
                return Err(format!(
                    "{name} was measured but is not declared as exercised"
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() {
    let cfg = parse_args();
    let result = match cfg.workload.as_str() {
        "compile" => compile::run(&cfg),
        "simulate" => simulate::run(&cfg),
        "serve-batched" => serving::run(&cfg, serving::Shape::Batched),
        _ => serving::run(&cfg, serving::Shape::Paced),
    };
    let mut outcome = result.unwrap_or_else(|e| {
        eprintln!("perfbench {}: {e}", cfg.workload);
        std::process::exit(1);
    });
    if let Some(frac) = outcome.metrics.get("trace.accounted_frac") {
        if (frac - 1.0).abs() > ACCOUNTING_TOLERANCE {
            outcome.correct = false;
            outcome.problems.push(format!(
                "layer self times account for {frac:.4} of op time, outside 1 ± {ACCOUNTING_TOLERANCE}"
            ));
        }
    }
    if cfg.print_reference {
        return;
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    for m in &outcome.metrics.0 {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&SERVE_PER_LAYER)
            .find_map(|&(name, unit)| (name == m.name).then_some(unit))
            .unwrap_or("?");
        eprintln!("{:<34} {:>16.6} {unit}", m.name, m.value);
    }
    match result_json(&cfg, &outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exercised_layers_are_declared_and_cover_every_per_layer_metric() {
        let declared: Vec<&str> = PER_LAYER
            .iter()
            .chain(&SERVE_PER_LAYER)
            .map(|&(name, _)| name)
            .collect();
        let mut covered: Vec<&str> = COMMON_LAYERS.to_vec();
        for workload in WORKLOADS {
            let reported = per_layer(workload);
            for &name in exercised(workload) {
                assert!(
                    reported.iter().any(|&(n, _)| n == name),
                    "{workload}: {name} is not declared"
                );
                assert!(
                    !COMMON_LAYERS.contains(&name),
                    "{workload}: {name} is common"
                );
                covered.push(name);
            }
        }
        for name in declared {
            assert!(covered.contains(&name), "no workload measures {name}");
        }
    }
}
