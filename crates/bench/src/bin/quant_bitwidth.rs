//! Error-vs-bitwidth sweep of the fixed-point NPU inference path.
//!
//! For each benchmark: observe the target region, train its paper
//! topology, then run the int4→int16 quantized datapath
//! ([`npu::QuantizedNpu`]) against the f32 oracle ([`npu::NpuConfig`]'s
//! reference evaluation) over held-out invocations. Per width, the
//! output-range-normalized absolute errors form a CDF whose quantiles —
//! plus saturation rates and the Qm.n formats chosen from the static
//! precision analysis — land in a JSON results file.
//!
//! Usage: `quant_bitwidth [--fast] [--out PATH]` (default output
//! `results/quant_bitwidth_cdf.json`).

use ann::{Dataset, Mlp, QuantScratch, Topology, TrainParams, Trainer};
use benchmarks::{all_benchmarks, Scale};
use npu::{FormatSource, NpuConfig, QuantizedNpu};
use parrot::observe;
use parrot::quality::ErrorCdf;
use serde::Serialize;

/// Weight/activation storage widths to sweep.
const WIDTHS: [u8; 7] = [4, 6, 8, 10, 12, 14, 16];
/// Cap on training samples (tune.rs's middle setting).
const TRAIN_CAP: usize = 2000;
/// Cap on evaluated invocations per width.
const EVAL_CAP: usize = 2000;

#[derive(Serialize)]
struct WidthRow {
    weight_bits: u8,
    /// Accumulator format as "Qm.n" — m integer bits (sign included,
    /// matching the precision analysis's convention), n fractional.
    datapath_format: String,
    /// Where the boundary formats came from: proven interval hulls
    /// ("static") or observed normalizer ranges ("observed").
    format_source: String,
    /// Output-span-normalized absolute error quantiles vs the f32 oracle.
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
    mean: f64,
    /// Fraction of invocations with >= 1 saturated boundary quantization.
    boundary_saturation_rate: f64,
    /// Fraction of invocations with >= 1 saturated datapath accumulation.
    datapath_saturation_rate: f64,
}

#[derive(Serialize)]
struct BenchRows {
    benchmark: String,
    topology: String,
    invocations: usize,
    /// Held-out training quality, for context.
    test_mse: f64,
    widths: Vec<WidthRow>,
}

#[derive(Serialize)]
struct Output {
    schema: &'static str,
    note: &'static str,
    scale: &'static str,
    benchmarks: Vec<BenchRows>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("results/quant_bitwidth_cdf.json")
        .to_string();
    let scale = if fast { Scale::small() } else { Scale::paper() };

    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        let name = bench.name().to_string();
        let region = bench.region();
        let precision = region.precision();
        eprintln!(
            "[quant-bitwidth] {name}: precision analysis {}",
            if precision.is_some() {
                "proven"
            } else {
                "unavailable"
            }
        );

        // Observe the region over its training inputs (raw values).
        let inputs = bench.training_inputs(&scale);
        let obs = observe(&region, &inputs).expect("observation must succeed");

        // Train the paper topology on normalized data, exactly like the
        // compiler (tune.rs's calibrated middle setting).
        let mut norm_data = Dataset::new(obs.data.n_inputs(), obs.data.n_outputs());
        for (i, o) in obs.data.iter() {
            let mut iv = i.to_vec();
            let mut ov = o.to_vec();
            obs.input_norm.normalize(&mut iv);
            obs.output_norm.normalize(&mut ov);
            norm_data.push(&iv, &ov).unwrap();
        }
        let capped = norm_data.subsample(TRAIN_CAP, 7);
        let (train, test) = capped.split(0.7, 3);
        let topology = Topology::new(bench.paper_topology()).unwrap();
        let mut mlp = Mlp::seeded(topology.clone(), 42);
        let report = Trainer::new(TrainParams {
            epochs: if fast { 60 } else { 300 },
            learning_rate: 0.05,
            momentum: 0.9,
            ..TrainParams::default()
        })
        .train(&mut mlp, &train);
        let test_mse = ann::mse(&mlp, &test);
        eprintln!(
            "[quant-bitwidth] {name}: trained {topology}, train mse {:.6}, test mse {test_mse:.6}",
            report.final_mse
        );

        let config = NpuConfig::new(mlp, obs.input_norm.clone(), obs.output_norm.clone());

        // Held-out raw invocations: every observed input, capped.
        let eval_inputs: Vec<Vec<f32>> = obs
            .data
            .iter()
            .take(EVAL_CAP)
            .map(|(i, _)| i.to_vec())
            .collect();

        // Output span for normalizing errors across benchmarks.
        let spans: Vec<f32> = obs
            .output_norm
            .ranges()
            .iter()
            .map(|&(lo, hi)| if hi > lo { hi - lo } else { 1.0 })
            .collect();

        let mut widths = Vec::new();
        for &bits in &WIDTHS {
            let quant = QuantizedNpu::new(&config, precision.as_ref(), bits);
            let mut scratch = QuantScratch::new();
            let mut errors = Vec::new();
            let mut boundary_sat = 0usize;
            let mut datapath_sat = 0usize;
            for raw in &eval_inputs {
                let oracle = config.evaluate(raw);
                let inv = quant.evaluate_with(raw, &mut scratch);
                for ((q, f), span) in inv.outputs.iter().zip(&oracle).zip(&spans) {
                    errors.push(((q - f).abs() / span) as f64);
                }
                if inv.boundary_saturated > 0 {
                    boundary_sat += 1;
                }
                if inv.datapath.saturated > 0 {
                    datapath_sat += 1;
                }
            }
            let n = eval_inputs.len().max(1) as f64;
            let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
            let cdf = ErrorCdf::from_errors(errors);
            let dp = quant.datapath();
            widths.push(WidthRow {
                weight_bits: bits,
                datapath_format: format!("Q{}.{}", dp.int_bits(), dp.frac_bits()),
                format_source: match quant.source() {
                    FormatSource::Static => "static".into(),
                    FormatSource::Observed => "observed".into(),
                },
                p50: cdf.quantile(0.5),
                p90: cdf.quantile(0.9),
                p99: cdf.quantile(0.99),
                max: cdf.quantile(1.0),
                mean,
                boundary_saturation_rate: boundary_sat as f64 / n,
                datapath_saturation_rate: datapath_sat as f64 / n,
            });
            let last = widths.last().unwrap();
            eprintln!(
                "[quant-bitwidth] {name}: int{bits:<2} {} ({}) p50 {:.2e} p99 {:.2e} max {:.2e}",
                last.datapath_format, last.format_source, last.p50, last.p99, last.max
            );
        }
        rows.push(BenchRows {
            benchmark: name,
            topology: topology.to_string(),
            invocations: eval_inputs.len(),
            test_mse,
            widths,
        });
    }

    let output = Output {
        schema: "quant-bitwidth-cdf/v1",
        note: "Output-span-normalized |quantized - f32 oracle| error quantiles per \
               weight/activation storage width. The datapath accumulator format and \
               boundary I/O formats come from the static precision analysis where the \
               region's hull is proven (format_source=static), else from observed \
               normalizer ranges (format_source=observed).",
        scale: if fast { "small" } else { "paper" },
        benchmarks: rows,
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out_path, serde::json::to_string_pretty(&output)).expect("write results");
    eprintln!("[quant-bitwidth] wrote {out_path}");
}
