//! Golden-file test: a checked-in v6 run report must keep parsing, and
//! re-serializing it must preserve every value. This pins the external
//! JSON schema — if this test breaks, bump `SCHEMA_VERSION`, regenerate
//! the golden (`cargo run -p telemetry --example gen_golden_v6`), and
//! update the diff documentation instead of silently changing the layout.
//!
//! Schema history: v1 → v2 added the required `lint` section (region
//! safety-verifier findings); v2 → v3 added the required `scheduler`
//! section (experiment-harness job/cache accounting); v3 → v4 added the
//! required `distributions` section (percentile summaries) and bucket
//! state inside every serialized histogram; v4 → v5 added the required
//! `notes` lint counter and the `precision` section (static fixed-point
//! bit-width requirements); v5 → v6 added the required `serving` section
//! (the `parrot-serve` invocation server's request/batching/fairness
//! accounting). Reports of any other version are rejected, even when
//! every field parses.

use telemetry::RunReport;

const GOLDEN: &str = include_str!("data/run_report_v6.json");

#[test]
fn golden_report_parses_back() {
    let report = RunReport::from_json(GOLDEN).expect("golden v6 report must parse");
    assert_eq!(report.schema_version, telemetry::SCHEMA_VERSION);
    assert_eq!(report.suite, "parrot-run");
    assert_eq!(report.benchmark, "sweep");
    assert_eq!(report.mode, "fast");
    assert_eq!(report.wall_clock_us, 123_456);

    assert_eq!(report.phases.len(), 4);
    assert_eq!(report.phases[0].name, "verify");
    assert_eq!(report.phases[1].name, "observe");
    assert_eq!(report.phases[2].elapsed_us, 100_000);
    assert_eq!(report.phase_total_us(), 102_570);

    assert_eq!(report.lint.errors, 0);
    assert_eq!(report.lint.warnings, 1);
    assert_eq!(report.lint.infos, 2);
    assert_eq!(report.lint.notes, 3);
    assert_eq!(report.lint.by_lint["unproven-scratch-bounds"], 2);
    assert_eq!(report.lint.by_lint["proven-scratch-bounds"], 2);
    assert_eq!(report.lint.by_lint["proven-loop-bounds"], 1);

    assert!(report.precision.bounded);
    assert_eq!(report.precision.datapath_int_bits, Some(9));
    assert_eq!(report.precision.datapath_frac_bits, Some(23));
    assert_eq!(report.precision.values.len(), 3);
    assert_eq!(report.precision.values[0].name, "in0");
    assert_eq!(report.precision.values[0].lo, Some(0.0));
    assert_eq!(report.precision.values[0].hi, Some(255.0));
    assert!(!report.precision.values[0].may_be_nan);
    assert_eq!(report.precision.values[2].name, "intermediates");
    assert_eq!(report.precision.values[2].frac_bits, Some(23));

    assert_eq!(report.scheduler.workers, 4);
    assert_eq!(report.scheduler.jobs_total, 12);
    assert_eq!(report.scheduler.jobs_executed, 9);
    assert_eq!(report.scheduler.jobs_from_cache, 3);
    assert_eq!(report.scheduler.cache_hits, 3);
    assert_eq!(report.scheduler.cache_misses, 9);
    assert_eq!(report.scheduler.max_queue_depth, 6);
    assert!((report.scheduler.hit_rate() - 0.25).abs() < 1e-12);
    assert_eq!(report.scheduler.stage_wall_us["train"], 100_000);
    assert_eq!(report.scheduler.stage_wall_us.len(), 5);

    assert_eq!(report.distributions.len(), 2);
    let cycles = &report.distributions["npu.invocation_cycles"];
    assert_eq!(cycles.count, 10);
    assert_eq!(cycles.min, 60.0);
    assert_eq!(cycles.max, 250.0);
    assert!(cycles.p50 <= cycles.p90 && cycles.p90 <= cycles.p99 && cycles.p99 <= cycles.p999);
    assert_eq!(cycles.p999, 250.0);
    // The embedded histogram is live: re-querying reproduces the flat
    // percentile fields exactly.
    assert_eq!(cycles.hist.p99(), cycles.p99);
    assert_eq!(cycles.hist.buckets().values().sum::<u64>(), 10);
    let err = &report.distributions["region.output_error"];
    assert_eq!(err.count, 5);
    assert_eq!(err.hist.nonpositive(), 1, "exact-zero error underflows");

    assert_eq!(report.serving.requests_total, 1_000);
    assert_eq!(report.serving.completed, 990);
    assert_eq!(report.serving.npu_served, 900);
    assert_eq!(report.serving.precise_served, 90);
    assert_eq!(report.serving.rejected, 8);
    assert_eq!(report.serving.timed_out, 2);
    assert_eq!(report.serving.protocol_errors, 0);
    assert_eq!(report.serving.batches, 70);
    assert!(report.serving.batch_occupancy_mean > 14.0);
    assert_eq!(report.serving.context_switches, 35);
    assert_eq!(report.serving.invocations_per_s, 125_000.0);
    assert!((report.serving.fairness_index - 0.998).abs() < 1e-12);
    assert!((report.serving.npu_fraction() - 900.0 / 990.0).abs() < 1e-12);
    assert_eq!(report.serving.tenants.len(), 2);
    let alpha = &report.serving.tenants["alpha"];
    assert_eq!((alpha.weight, alpha.completed), (2, 660));
    assert!(alpha.p50_us <= alpha.p99_us && alpha.p99_us <= alpha.p999_us);
    // Weighted-fair shares: alpha (weight 2) completed twice beta's count.
    assert_eq!(
        alpha.completed,
        2 * report.serving.tenants["beta"].completed
    );

    assert_eq!(report.metrics.counter("uarch.baseline.cycles"), 900_000);
    assert_eq!(report.metrics.counter("npu.macs"), 5_120);
    assert_eq!(report.metrics.counter("lint.warnings"), 1);
    assert_eq!(report.metrics.counter("scheduler.jobs_from_cache"), 3);
    assert_eq!(report.metrics.gauge("uarch.baseline.ipc"), Some(1.5));
    assert_eq!(report.metrics.gauge("scheduler.cache_hit_rate"), Some(0.25));
    let mse = report.metrics.histogram("ann.search.test_mse").unwrap();
    assert_eq!(mse.count, 2);
    assert_eq!(mse.min, 0.1);
    assert_eq!(mse.max, 0.4);
}

#[test]
fn golden_report_round_trips_unchanged() {
    let report = RunReport::from_json(GOLDEN).unwrap();
    let back = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
}

#[test]
fn older_schema_versions_are_rejected() {
    let current = format!("\"schema_version\": {},", telemetry::SCHEMA_VERSION);
    assert!(GOLDEN.contains(&current));
    for version in 1..telemetry::SCHEMA_VERSION {
        let old = GOLDEN.replacen(&current, &format!("\"schema_version\": {version},"), 1);
        let err = RunReport::from_json(&old).unwrap_err();
        assert!(
            err.to_string().contains("schema version"),
            "v{version}: unexpected rejection reason: {err}"
        );
    }
}

#[test]
fn missing_field_is_an_error_not_a_default() {
    let truncated = GOLDEN.replace("\"wall_clock_us\": 123456,\n  \"phases\"", "\"phases\"");
    assert!(
        truncated.len() < GOLDEN.len(),
        "replacement must actually strip the field"
    );
    assert!(RunReport::from_json(&truncated).is_err());
}
