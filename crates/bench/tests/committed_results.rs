//! The per-benchmark run reports committed under `results/` must be
//! readable by the current `RunReport` schema, and must be exactly what
//! the current writer produces from the values they hold. CI's
//! `results-drift` job reruns the `--fast` sweep and byte-diffs these
//! files; this test keeps them parseable between such runs.

use telemetry::RunReport;

const BENCHMARKS: [&str; 6] = ["fft", "inversek2j", "jmeint", "jpeg", "kmeans", "sobel"];

fn committed(benchmark: &str) -> String {
    let path = format!(
        "{}/../../results/{benchmark}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_reports_parse_under_the_current_schema() {
    for benchmark in BENCHMARKS {
        let text = committed(benchmark);
        let report =
            RunReport::from_json(&text).unwrap_or_else(|e| panic!("results/{benchmark}.json: {e}"));
        assert_eq!(report.benchmark, benchmark);
        assert_eq!(
            (report.suite.as_str(), report.mode.as_str()),
            ("parrot-run", "fast")
        );
        // Per-benchmark reports carry no wall-clock data, so a rerun
        // reproduces them byte for byte.
        assert_eq!(report.wall_clock_us, 0, "{benchmark}");
        assert!(report.phases.is_empty(), "{benchmark}");
        assert!(
            report.metrics.gauge("speedup").is_some(),
            "{benchmark}: no speedup gauge"
        );
        assert_eq!(report.to_json(), text, "{benchmark}: not writer output");
    }
}
