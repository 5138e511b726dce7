//! JSON run reports: the machine-readable summary every experiment
//! binary can emit alongside its human-readable tables.

use crate::{Histogram, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version of the [`RunReport`] JSON layout. Bump on breaking changes so
/// downstream diff tooling can refuse mismatched files.
///
/// History: v1 — initial layout; v2 — added the `lint` section
/// ([`LintSummary`], the region safety verifier's findings); v3 — added
/// the `scheduler` section ([`SchedulerSummary`], the experiment
/// harness's job/cache accounting); v4 — added the `distributions`
/// section ([`Distribution`] percentile summaries backed by log-bucketed
/// histograms) and bucket state inside every serialized [`Histogram`];
/// v5 — added `notes` to [`LintSummary`] (proof-artifact findings from
/// the interval analysis) and the `precision` section
/// ([`PrecisionSummary`], static fixed-point bit-width requirements);
/// v6 — added the `serving` section ([`ServingSummary`], the
/// `parrot-serve` invocation server's request/batching/fairness
/// accounting).
pub const SCHEMA_VERSION: u64 = 6;

/// Percentile summary of one sampled quantity, added in schema v4.
///
/// Carries the full log-bucketed [`Histogram`] next to the extracted
/// percentiles so downstream tooling can re-merge or re-query shards,
/// while diff scripts only need the flat p50/p99 fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// The backing histogram (mergeable, re-queryable).
    pub hist: Histogram,
}

impl Distribution {
    /// Summarizes `hist` into its percentile snapshot.
    pub fn from_histogram(hist: &Histogram) -> Distribution {
        Distribution {
            count: hist.count,
            mean: hist.mean(),
            min: hist.min,
            max: hist.max,
            p50: hist.p50(),
            p90: hist.p90(),
            p99: hist.p99(),
            p999: hist.p999(),
            hist: hist.clone(),
        }
    }
}

/// Wall-clock duration of one named pipeline phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (`observe`, `topology_search`, `timing.baseline`, …).
    pub name: String,
    /// Duration in microseconds.
    pub elapsed_us: u64,
}

/// Aggregated findings from the region safety verifier (`parrot-lint`),
/// keyed per severity and per lint name.
///
/// The verifier itself lives in `approx-ir`; this type only carries the
/// counts, so telemetry stays dependency-free. Severity strings are the
/// verifier's `error` / `warning` / `info` / `note` (notes, added in
/// schema v5, are positive proof artifacts, not problems).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LintSummary {
    /// Error-severity findings (a region with any of these is rejected
    /// before observation/training).
    pub errors: u64,
    /// Warning-severity findings (suspicious but executable).
    pub warnings: u64,
    /// Info-severity findings (statically unprovable, checked at runtime).
    pub infos: u64,
    /// Note-severity findings (properties the static analysis *proved*:
    /// in-bounds scratch accesses, terminating loops).
    pub notes: u64,
    /// Finding counts keyed by lint name (`uninit-read`,
    /// `proven-scratch-bounds`, …).
    pub by_lint: BTreeMap<String, u64>,
}

impl LintSummary {
    /// Records one finding of `lint` at `severity` (`"error"`,
    /// `"warning"`, `"info"`, or `"note"`; anything else counts only
    /// under [`by_lint`](Self::by_lint)).
    pub fn record(&mut self, severity: &str, lint: &str) {
        match severity {
            "error" => self.errors += 1,
            "warning" => self.warnings += 1,
            "info" => self.infos += 1,
            "note" => self.notes += 1,
            _ => {}
        }
        *self.by_lint.entry(lint.to_string()).or_insert(0) += 1;
    }

    /// Total findings across severities, notes included.
    pub fn total(&self) -> u64 {
        self.errors + self.warnings + self.infos + self.notes
    }

    /// Whether nothing above note severity was recorded (notes are
    /// proofs, not problems).
    pub fn is_clean(&self) -> bool {
        self.errors + self.warnings + self.infos == 0
    }

    /// Exports the summary into `metrics` under `prefix`: per-severity
    /// counters (`<prefix>.errors`, …) and one `<prefix>.by.<lint>`
    /// counter per lint that fired.
    pub fn export(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        metrics.add(&format!("{prefix}.errors"), self.errors);
        metrics.add(&format!("{prefix}.warnings"), self.warnings);
        metrics.add(&format!("{prefix}.infos"), self.infos);
        metrics.add(&format!("{prefix}.notes"), self.notes);
        for (lint, n) in &self.by_lint {
            metrics.add(&format!("{prefix}.by.{lint}"), *n);
        }
    }
}

/// One value row of the static precision analysis, added in schema v5.
///
/// Bounds are `None` when the interval analysis could not bound the
/// value (the JSON carries `null`; ±∞ is deliberately never serialized).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionRow {
    /// `in<k>` for region inputs, `out<k>` for outputs, `intermediates`
    /// for the hull over float-typed definitions.
    pub name: String,
    /// Inferred lower bound, when finite.
    pub lo: Option<f32>,
    /// Inferred upper bound, when finite.
    pub hi: Option<f32>,
    /// Whether the value may be NaN.
    pub may_be_nan: bool,
    /// Sign + integer-part bits, `None` when unbounded.
    pub int_bits: Option<u8>,
    /// Fraction bits to f32-ulp resolution, `None` when unbounded.
    pub frac_bits: Option<u8>,
}

/// Static fixed-point precision requirements for the benchmark's region
/// (the analysis lives in `approx-ir`; this type only carries the
/// derived numbers). Added in schema v5.
///
/// Mirrors the NPU's fixed-point datapath sizing question: how many
/// integer and fraction bits each region value needs, given the region's
/// declared input ranges.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrecisionSummary {
    /// Whether every tracked value has a finite requirement.
    pub bounded: bool,
    /// Widest integer-bit requirement across rows, `None` when any row
    /// is unbounded.
    pub datapath_int_bits: Option<u8>,
    /// Widest fraction-bit requirement across rows, `None` when any row
    /// is unbounded.
    pub datapath_frac_bits: Option<u8>,
    /// Per-value rows (inputs, outputs, intermediate hull, in order).
    pub values: Vec<PrecisionRow>,
}

/// Job-scheduler and artifact-cache accounting from the experiment
/// harness (`crates/harness`), added in schema v3.
///
/// Per-benchmark reports carry an all-zero summary (their content must be
/// byte-identical across `--jobs` settings, while scheduling is
/// inherently timing-dependent); the sweep-level report carries the real
/// numbers. The harness defines the semantics; telemetry only carries the
/// counts, mirroring how [`LintSummary`] stays verifier-free.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerSummary {
    /// Worker threads the sweep ran with (`--jobs`).
    pub workers: u64,
    /// Nodes in the job DAG.
    pub jobs_total: u64,
    /// Jobs whose body actually executed (cache misses).
    pub jobs_executed: u64,
    /// Jobs served from the content-addressed artifact cache.
    pub jobs_from_cache: u64,
    /// Jobs whose body returned an error.
    pub jobs_failed: u64,
    /// Jobs skipped because an upstream dependency failed.
    pub jobs_skipped: u64,
    /// Artifact-cache lookups that hit.
    pub cache_hits: u64,
    /// Artifact-cache lookups that missed.
    pub cache_misses: u64,
    /// Artifacts written back to the cache.
    pub cache_writes: u64,
    /// High-water mark of the ready queue (jobs runnable but not yet
    /// claimed by a worker).
    pub max_queue_depth: u64,
    /// Whole-sweep wall-clock time in microseconds.
    pub wall_clock_us: u64,
    /// Wall-clock microseconds spent executing each pipeline stage,
    /// summed over jobs (cache hits contribute their load time).
    pub stage_wall_us: BTreeMap<String, u64>,
}

impl SchedulerSummary {
    /// Cache hit rate over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Whether every job was served from the cache (a fully warm sweep).
    pub fn fully_warm(&self) -> bool {
        self.jobs_total > 0 && self.jobs_from_cache == self.jobs_total
    }

    /// Exports the summary into `metrics` under `prefix`
    /// (e.g. `scheduler`): per-field counters, the hit-rate gauge, and
    /// one `<prefix>.stage.<name>_us` counter per stage.
    pub fn export(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        metrics.add(&format!("{prefix}.workers"), self.workers);
        metrics.add(&format!("{prefix}.jobs_total"), self.jobs_total);
        metrics.add(&format!("{prefix}.jobs_executed"), self.jobs_executed);
        metrics.add(&format!("{prefix}.jobs_from_cache"), self.jobs_from_cache);
        metrics.add(&format!("{prefix}.jobs_failed"), self.jobs_failed);
        metrics.add(&format!("{prefix}.jobs_skipped"), self.jobs_skipped);
        metrics.add(&format!("{prefix}.cache_hits"), self.cache_hits);
        metrics.add(&format!("{prefix}.cache_misses"), self.cache_misses);
        metrics.add(&format!("{prefix}.cache_writes"), self.cache_writes);
        metrics.add(&format!("{prefix}.max_queue_depth"), self.max_queue_depth);
        metrics.set_gauge(&format!("{prefix}.cache_hit_rate"), self.hit_rate());
        for (stage, us) in &self.stage_wall_us {
            metrics.add(&format!("{prefix}.stage.{stage}_us"), *us);
        }
    }
}

/// Per-tenant accounting from one `parrot-serve` run, added in schema v6.
///
/// Latency percentiles are end-to-end (submit to completion) in
/// microseconds, re-queryable from the `serve.latency_us.<tenant>` entry
/// of [`RunReport::distributions`] when present.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantServing {
    /// Scheduling weight (deficit round-robin credits per round).
    pub weight: u64,
    /// Requests answered (NPU or precise path).
    pub completed: u64,
    /// Requests answered by the batched NPU path.
    pub npu_served: u64,
    /// Requests answered by the precise CPU path (explicit region
    /// offloads plus quality-budget degradation).
    pub precise_served: u64,
    /// Requests rejected with backpressure (`retry-after`).
    pub rejected: u64,
    /// Requests that missed their deadline and got a timeout reply.
    pub timed_out: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile end-to-end latency, microseconds.
    pub p999_us: f64,
}

/// Invocation-server accounting from `parrot-serve` /
/// `parrot-serve-bench` (`crates/serve`), added in schema v6.
///
/// All-default outside serving runs, mirroring how [`SchedulerSummary`]
/// stays all-zero outside harness sweeps. The serve crate defines the
/// semantics; telemetry only carries the numbers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingSummary {
    /// Requests received (accepted + rejected + malformed).
    pub requests_total: u64,
    /// Requests answered with outputs (NPU or precise path).
    pub completed: u64,
    /// Requests answered by the batched NPU path.
    pub npu_served: u64,
    /// Requests answered by the precise CPU path.
    pub precise_served: u64,
    /// Requests rejected with backpressure (bounded queue full).
    pub rejected: u64,
    /// Requests that missed their deadline.
    pub timed_out: u64,
    /// Frames that failed to decode or carried an invalid body.
    pub protocol_errors: u64,
    /// Batches flushed through the NPU evaluator.
    pub batches: u64,
    /// Mean invocations per flushed batch (0 when no batch flushed).
    pub batch_occupancy_mean: f64,
    /// Simulated NPU context switches (tenant config reloads).
    pub context_switches: u64,
    /// Simulated cycles spent saving/restoring configs across switches.
    pub context_switch_cycles: u64,
    /// Completed invocations per wall-clock second.
    pub invocations_per_s: f64,
    /// Jain fairness index over weight-normalized per-tenant completed
    /// throughput (1.0 = perfectly weighted-fair; 0 when no tenant
    /// completed anything).
    pub fairness_index: f64,
    /// Per-tenant breakdown, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantServing>,
}

impl ServingSummary {
    /// Fraction of completed requests served by the NPU path.
    pub fn npu_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.npu_served as f64 / self.completed as f64
        }
    }

    /// Exports the summary into `metrics` under `prefix`
    /// (e.g. `serving`): per-field counters and gauges, plus per-tenant
    /// `<prefix>.tenant.<name>.completed` counters.
    pub fn export(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        metrics.add(&format!("{prefix}.requests_total"), self.requests_total);
        metrics.add(&format!("{prefix}.completed"), self.completed);
        metrics.add(&format!("{prefix}.npu_served"), self.npu_served);
        metrics.add(&format!("{prefix}.precise_served"), self.precise_served);
        metrics.add(&format!("{prefix}.rejected"), self.rejected);
        metrics.add(&format!("{prefix}.timed_out"), self.timed_out);
        metrics.add(&format!("{prefix}.protocol_errors"), self.protocol_errors);
        metrics.add(&format!("{prefix}.batches"), self.batches);
        metrics.add(&format!("{prefix}.context_switches"), self.context_switches);
        metrics.add(
            &format!("{prefix}.context_switch_cycles"),
            self.context_switch_cycles,
        );
        metrics.set_gauge(
            &format!("{prefix}.batch_occupancy_mean"),
            self.batch_occupancy_mean,
        );
        metrics.set_gauge(
            &format!("{prefix}.invocations_per_s"),
            self.invocations_per_s,
        );
        metrics.set_gauge(&format!("{prefix}.fairness_index"), self.fairness_index);
        metrics.set_gauge(&format!("{prefix}.npu_fraction"), self.npu_fraction());
        for (name, t) in &self.tenants {
            metrics.add(&format!("{prefix}.tenant.{name}.completed"), t.completed);
        }
    }
}

/// Machine-readable record of one benchmark run.
///
/// Serialized (pretty JSON) into `results/<benchmark>.json` by the bench
/// binaries when `--json-out` is given. Two reports from different
/// commits can be diffed key-by-key: phase timings show where compile or
/// simulation time moved, and the metrics registry carries every unified
/// counter (core `SimStats`, NPU event counts, training statistics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The suite or binary that produced the report (e.g. `parrot-run`).
    pub suite: String,
    /// Benchmark name (`fft`, `sobel`, …).
    pub benchmark: String,
    /// Run mode: `fast` or `paper`.
    pub mode: String,
    /// Whole-run wall-clock time in microseconds.
    pub wall_clock_us: u64,
    /// Per-phase wall-clock timings, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Region safety-verifier findings for the benchmark's region.
    pub lint: LintSummary,
    /// Static fixed-point precision requirements for the benchmark's
    /// region (all-default when no precision analysis ran; see
    /// [`PrecisionSummary`]). Added in schema v5.
    pub precision: PrecisionSummary,
    /// Experiment-harness scheduler and artifact-cache accounting
    /// (all-zero outside harness-driven sweeps; see [`SchedulerSummary`]).
    pub scheduler: SchedulerSummary,
    /// Invocation-server accounting (all-default outside `parrot-serve`
    /// runs; see [`ServingSummary`]). Added in schema v6.
    pub serving: ServingSummary,
    /// Percentile summaries keyed by quantity name
    /// (`npu.invocation_cycles`, `region.output_error`, …), added in
    /// schema v4. Per-benchmark entries are deterministic (simulated
    /// cycles, output error); wall-clock distributions appear only in the
    /// sweep-level report.
    pub distributions: BTreeMap<String, Distribution>,
    /// Unified counters/gauges/histograms gathered from every subsystem.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// An empty report for `benchmark` produced by `suite` in `mode`.
    pub fn new(suite: &str, benchmark: &str, mode: &str) -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            suite: suite.to_string(),
            benchmark: benchmark.to_string(),
            mode: mode.to_string(),
            wall_clock_us: 0,
            phases: Vec::new(),
            lint: LintSummary::default(),
            precision: PrecisionSummary::default(),
            scheduler: SchedulerSummary::default(),
            serving: ServingSummary::default(),
            distributions: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Appends one phase timing.
    pub fn push_phase(&mut self, timing: PhaseTiming) {
        self.phases.push(timing);
    }

    /// Records the percentile summary of `hist` under `name` (skipping
    /// empty histograms, which carry no information).
    pub fn push_distribution(&mut self, name: &str, hist: &Histogram) {
        if hist.count > 0 {
            self.distributions
                .insert(name.to_string(), Distribution::from_histogram(hist));
        }
    }

    /// Total time across recorded phases, in microseconds.
    pub fn phase_total_us(&self) -> u64 {
        self.phases.iter().map(|p| p.elapsed_us).sum()
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a missing field, or a schema version this
    /// build does not understand.
    pub fn from_json(s: &str) -> Result<RunReport, serde::DeError> {
        let report: RunReport = serde::json::from_str(s)?;
        if report.schema_version != SCHEMA_VERSION {
            return Err(serde::DeError::msg(format!(
                "unsupported run-report schema version {} (this build reads {})",
                report.schema_version, SCHEMA_VERSION
            )));
        }
        Ok(report)
    }

    /// Writes the report as `<dir>/<benchmark>.json`, creating `dir` if
    /// needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or the file written.
    pub fn write_into(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.benchmark));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut report = RunReport::new("run_all", "fft", "fast");
        report.wall_clock_us = 42_000;
        report.push_phase(PhaseTiming {
            name: "observe".into(),
            elapsed_us: 1_000,
        });
        report.push_phase(PhaseTiming {
            name: "train".into(),
            elapsed_us: 41_000,
        });
        report.metrics.add("uarch.baseline.cycles", 123);
        report.metrics.set_gauge("uarch.baseline.ipc", 2.5);
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.phase_total_us(), 42_000);
    }

    #[test]
    fn lint_summary_records_and_exports() {
        let mut lint = LintSummary::default();
        assert!(lint.is_clean());
        lint.record("error", "uninit-read");
        lint.record("warning", "dead-store");
        lint.record("warning", "dead-store");
        lint.record("info", "unproven-scratch-bounds");
        lint.record("note", "proven-scratch-bounds");
        assert_eq!(lint.errors, 1);
        assert_eq!(lint.warnings, 2);
        assert_eq!(lint.infos, 1);
        assert_eq!(lint.notes, 1);
        assert_eq!(lint.total(), 5);
        assert_eq!(lint.by_lint["dead-store"], 2);

        let mut metrics = MetricsRegistry::new();
        lint.export(&mut metrics, "lint");
        assert_eq!(metrics.counter("lint.errors"), 1);
        assert_eq!(metrics.counter("lint.warnings"), 2);
        assert_eq!(metrics.counter("lint.notes"), 1);
        assert_eq!(metrics.counter("lint.by.dead-store"), 2);
        assert_eq!(metrics.counter("lint.by.uninit-read"), 1);
    }

    #[test]
    fn notes_do_not_make_a_report_dirty() {
        let mut lint = LintSummary::default();
        lint.record("note", "proven-loop-bounds");
        assert!(lint.is_clean(), "proofs are not problems");
        lint.record("info", "unproven-scratch-bounds");
        assert!(!lint.is_clean());
    }

    #[test]
    fn precision_section_survives_the_json_round_trip() {
        let mut report = RunReport::new("run_all", "jpeg", "fast");
        report.precision.bounded = false;
        report.precision.values = vec![PrecisionRow {
            name: "intermediates".into(),
            lo: None, // unbounded below: serialized as null, not -inf
            hi: Some(255.0),
            may_be_nan: true,
            int_bits: None,
            frac_bits: None,
        }];
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.precision.values[0].lo, None);
        assert_eq!(back.precision.values[0].hi, Some(255.0));
    }

    #[test]
    fn lint_section_survives_the_json_round_trip() {
        let mut report = RunReport::new("run_all", "sobel", "fast");
        report.lint.record("warning", "unbounded-loop");
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.lint.warnings, 1);
        assert_eq!(back, report);
    }

    #[test]
    fn distributions_survive_the_json_round_trip() {
        let mut hist = Histogram::default();
        for i in 1..=100 {
            hist.observe(i as f64 * 10.0);
        }
        let mut report = RunReport::new("run_all", "fft", "fast");
        report.push_distribution("npu.invocation_cycles", &hist);
        let empty = Histogram::default();
        report.push_distribution("ignored.empty", &empty);
        assert!(!report.distributions.contains_key("ignored.empty"));

        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        let dist = &back.distributions["npu.invocation_cycles"];
        assert_eq!(dist.count, 100);
        assert!(dist.p50 <= dist.p90 && dist.p90 <= dist.p99 && dist.p99 <= dist.p999);
        assert_eq!(dist.hist.quantile(0.99), dist.p99, "hist must re-query");
    }

    #[test]
    fn serving_section_survives_the_json_round_trip() {
        let mut report = RunReport::new("parrot-serve-bench", "serve", "fast");
        report.serving.requests_total = 1_000;
        report.serving.completed = 990;
        report.serving.npu_served = 900;
        report.serving.precise_served = 90;
        report.serving.rejected = 8;
        report.serving.timed_out = 2;
        report.serving.batches = 70;
        report.serving.batch_occupancy_mean = 14.1;
        report.serving.invocations_per_s = 125_000.0;
        report.serving.fairness_index = 0.99;
        report.serving.tenants.insert(
            "t0".into(),
            TenantServing {
                weight: 2,
                completed: 500,
                npu_served: 500,
                p50_us: 120.0,
                p99_us: 900.0,
                p999_us: 2_400.0,
                ..TenantServing::default()
            },
        );
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!((back.serving.npu_fraction() - 900.0 / 990.0).abs() < 1e-12);

        let mut metrics = MetricsRegistry::new();
        back.serving.export(&mut metrics, "serving");
        assert_eq!(metrics.counter("serving.completed"), 990);
        assert_eq!(metrics.counter("serving.tenant.t0.completed"), 500);
        assert_eq!(metrics.gauge("serving.fairness_index"), Some(0.99));
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let mut report = RunReport::new("run_all", "fft", "fast");
        report.schema_version = SCHEMA_VERSION + 1;
        let err = RunReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn write_into_creates_dir_and_file() {
        let dir = std::env::temp_dir().join(format!("telemetry-report-{}", std::process::id()));
        let report = RunReport::new("table1", "sobel", "paper");
        let path = report.write_into(&dir).unwrap();
        assert!(path.ends_with("sobel.json"));
        let back = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
