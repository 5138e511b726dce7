//! The sweep driver behind `parrot-run`: options → [`SweepSpec`] → sweep
//! → printed artifacts, JSON reports, scheduler accounting, exit code.
//! The ablation binaries reuse its [`spec`].

use crate::cli::Options;
use crate::experiments;
use crate::present;
use crate::suite::compile_params;
use harness::{
    run_sweep, Experiment, SweepResult, SweepSpec, DEFAULT_LINK_LATENCIES, DEFAULT_PE_COUNTS,
};

/// Builds the sweep specification the options describe.
pub fn spec(suite_name: &str, opts: &Options) -> SweepSpec {
    let mut spec = SweepSpec::new(
        suite_name,
        opts.mode(),
        opts.scale(),
        compile_params(opts.fast),
    );
    if let Some(name) = &opts.only {
        spec.benches = vec![name.clone()];
    }
    spec.jobs = opts.jobs;
    spec.cache_dir = opts.cache_dir.clone();
    spec.root_seed = opts.seed;
    // Counter time-series only make sense when someone is recording them.
    if opts.trace_out.is_some() {
        spec.sample_interval_us = Some(opts.trace_sample_us);
    }
    spec
}

/// Resolves the positional experiment names, falling back to
/// [`Experiment::all`] when none were given.
///
/// # Errors
///
/// Fails on an unknown experiment name.
pub fn requested_experiments(opts: &Options) -> Result<Vec<Experiment>, String> {
    if opts.experiments.is_empty() {
        return Ok(Experiment::all());
    }
    opts.experiments
        .iter()
        .map(|s| Experiment::parse(s).ok_or_else(|| format!("unknown experiment `{s}`")))
        .collect()
}

/// Prints every requested experiment's table/figure from the sweep's
/// artifacts, in paper order.
pub fn print_requested(result: &SweepResult, requested: &[Experiment], spec: &SweepSpec) {
    let has = |e: Experiment| requested.contains(&e);
    if has(Experiment::Table1) {
        present::print_table1(&experiments::table1_rows(result, &spec.scale));
    }
    if has(Experiment::Fig6) {
        present::print_fig6(&experiments::fig6_rows(result));
    }
    if has(Experiment::Fig7) {
        present::print_fig7(&experiments::fig7_rows(result));
    }
    if has(Experiment::Fig8) {
        let rows = experiments::fig8_rows(result);
        present::print_fig8a(&rows);
        present::print_fig8b(&rows);
    }
    if has(Experiment::Fig9) {
        present::print_fig9(&experiments::fig9_rows(result));
    }
    if has(Experiment::Fig10) {
        present::print_fig10(
            &experiments::fig10_rows(result, DEFAULT_LINK_LATENCIES),
            DEFAULT_LINK_LATENCIES,
        );
    }
    if has(Experiment::Fig11) {
        present::print_fig11(
            &experiments::fig11_result(result, DEFAULT_PE_COUNTS),
            DEFAULT_PE_COUNTS,
        );
    }
}

/// Runs the full `parrot-run` driver: sweep, print, JSON reports, failure
/// summary. Returns the process exit code (0 clean, 1 on job failures or
/// a failed `--require-warm` check, 2 on a malformed invocation).
pub fn run(opts: &Options) -> i32 {
    let suite_name = "parrot-run";
    let requested = match requested_experiments(opts) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let t0 = std::time::Instant::now();
    let mut spec = spec(suite_name, opts);
    spec.experiments = requested.clone();
    // Streaming check: the cycle-level jobs feed trace events straight into
    // the core, so the largest buffer any core holds is bounded by its feed
    // back-pressure threshold, not by trace length. Measure it per sweep.
    uarch::reset_peak_trace_buffer();
    let result = match run_sweep(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let peak_trace_buffer = uarch::peak_trace_buffer();

    print_requested(&result, &requested, &spec);

    // Machine-readable reports: one per benchmark (deterministic) plus
    // the sweep-level report carrying the scheduler/cache section.
    if let Some(dir) = &opts.json_out {
        for report in result.reports() {
            match report.write_into(dir) {
                Ok(path) => eprintln!("[{suite_name}] wrote {}", path.display()),
                Err(e) => eprintln!("[{suite_name}] failed to write report: {e}"),
            }
        }
        let mut sweep_report = result.sweep_report(suite_name, opts.mode());
        sweep_report
            .metrics
            .add("scheduler.peak_trace_buffer_events", peak_trace_buffer);
        match sweep_report.write_into(dir) {
            Ok(path) => eprintln!("[{suite_name}] wrote {}", path.display()),
            Err(e) => eprintln!("[{suite_name}] failed to write sweep report: {e}"),
        }
    }

    present::print_scheduler(&result.scheduler);
    present::print_peak_trace_buffer(peak_trace_buffer);

    // Trace epilogue: snapshot every distribution the sweep produced into
    // the event stream (the Chrome sink folds them into the trace file's
    // `parrotHistograms` footer), then flush — the global sink registry
    // is never dropped, so the footer is only written here.
    let snapshot = |name: &str, hist: &telemetry::Histogram| {
        telemetry::emit(telemetry::Level::Info, "bench::drive", || {
            telemetry::EventKind::HistogramSnapshot {
                name: name.to_string(),
                hist: hist.clone(),
            }
        });
    };
    for (stage, hist) in &result.stage_job_us {
        snapshot(&format!("sched.job_us.{stage}"), hist);
    }
    for (name, hist) in result.samples.histograms() {
        snapshot(name, hist);
    }
    for report in result.reports() {
        for (name, dist) in &report.distributions {
            snapshot(&format!("{}.{name}", report.benchmark), &dist.hist);
        }
    }
    telemetry::flush_sinks();

    // One broken benchmark must not hide the others' results — everything
    // above still ran and printed — but the process has to say so.
    if !result.ok() {
        eprintln!(
            "[{suite_name}] FAILED: {} job(s) failed, {} skipped downstream:",
            result.failures.len(),
            result.skipped.len()
        );
        eprint!("{}", result.failure_summary());
        return 1;
    }
    if opts.require_warm && !result.scheduler.fully_warm() {
        eprintln!(
            "[{suite_name}] --require-warm: only {}/{} jobs came from the cache",
            result.scheduler.jobs_from_cache, result.scheduler.jobs_total
        );
        return 1;
    }
    eprintln!("[{suite_name}] completed in {:.1?}", t0.elapsed());
    0
}
