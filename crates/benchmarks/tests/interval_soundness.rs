//! Interval-analysis soundness on the real Table 1 regions.
//!
//! For every benchmark region, [`run_checked`] executes real training
//! inputs on the production interpreter while asserting each concrete
//! register value lies inside the interval the static analysis
//! inferred — under the region's *declared* input range where one exists
//! (jpeg's 8-bit pixels, sobel's normalized window), under ⊤ floats
//! otherwise. The observed outputs must equal an unobserved run's bit
//! for bit, so observing cannot change what it checks.

use approx_ir::analysis::{run_checked, AbsValue, FloatInterval};
use approx_ir::{Interpreter, Value};
use benchmarks::{all_benchmarks, Scale};

const BUDGET: u64 = 2_000_000;
const INPUTS_PER_REGION: usize = 12;

#[test]
fn concrete_region_values_stay_inside_inferred_intervals() {
    let scale = Scale::small();
    for b in all_benchmarks() {
        let region = b.region();
        let params: Vec<AbsValue> = match region.input_range() {
            Some((lo, hi)) => {
                vec![AbsValue::float(FloatInterval { lo, hi, nan: false }); region.n_inputs()]
            }
            None => vec![AbsValue::top_float(); region.n_inputs()],
        };
        for input in b.training_inputs(&scale).iter().take(INPUTS_PER_REGION) {
            let args: Vec<Value> = input.iter().map(|&v| Value::F(v)).collect();
            let checked = run_checked(
                region.program(),
                region.entry(),
                &args,
                region.scratch_words(),
                BUDGET,
                &params,
            );
            let real = Interpreter::new(region.program())
                .with_memory(region.scratch_words())
                .with_budget(BUDGET)
                .run(region.entry(), &args);
            assert_eq!(checked, real, "{}: observing changed the run", b.name());
            assert!(
                checked.is_ok(),
                "{}: region faulted on a training input",
                b.name()
            );
        }
    }
}

#[test]
fn declared_input_ranges_cover_the_training_data() {
    // The `with_input_range` declarations are contracts on the caller;
    // this pins that the actual training corpora respect them (the
    // premise of every proof the analysis emits).
    let scale = Scale::small();
    for b in all_benchmarks() {
        let region = b.region();
        let Some((lo, hi)) = region.input_range() else {
            continue;
        };
        for input in b.training_inputs(&scale) {
            for v in input {
                assert!(
                    v.is_finite() && lo <= v && v <= hi,
                    "{}: training input {v} escapes declared [{lo}, {hi}]",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn precision_reports_bound_what_the_analysis_can_bound() {
    // Declared input ranges must at least bound every input row; full
    // datapath bounds additionally require the body to avoid unbounded
    // accumulation (jpeg's DCT loops legitimately widen to ±∞).
    for b in all_benchmarks() {
        let region = b.region();
        let Some(report) = region.precision() else {
            panic!("{}: entry function missing", b.name());
        };
        if region.input_range().is_some() {
            let is_input = |name: &str| {
                name.strip_prefix("in")
                    .is_some_and(|k| !k.is_empty() && k.bytes().all(|c| c.is_ascii_digit()))
            };
            for row in report.values.iter().filter(|v| is_input(&v.name)) {
                assert!(
                    row.bounded(),
                    "{}: declared ranges but unbounded input row {row:?}",
                    b.name()
                );
            }
        }
        let summary = region.precision_summary();
        assert_eq!(summary.bounded, report.bounded());
        assert_eq!(summary.datapath_int_bits, report.datapath_int_bits());
        assert_eq!(summary.datapath_frac_bits, report.datapath_frac_bits());
        assert_eq!(summary.values.len(), report.values.len());
    }
}

#[test]
fn sobel_datapath_is_fully_bounded() {
    // Sobel is loop-free with a declared [0, 1] window, so every value —
    // inputs, gradient intermediates, the clamped output — gets a finite
    // fixed-point requirement. Pinned: the datapath fits Q7.23.
    let region = benchmarks::benchmark_by_name("sobel")
        .expect("sobel exists")
        .region();
    let report = region.precision().unwrap();
    assert!(report.bounded(), "{report:?}");
    assert_eq!(report.datapath_int_bits(), Some(7));
    assert_eq!(report.datapath_frac_bits(), Some(23));
}
