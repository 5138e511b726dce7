//! Printing: rendering experiment rows and scheduler accounting to
//! stdout for `parrot-run` (one section per requested experiment).

use crate::experiments::{Fig10Row, Fig11Result, Fig6Row, Fig7Row, Fig8Row, Fig9Row, Table1Row};
use crate::format::{geomean, render_table};
use telemetry::SchedulerSummary;

/// Prints Table 1.
pub fn print_table1(rows: &[Table1Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.domain.clone(),
                r.calls.to_string(),
                r.loops.to_string(),
                r.ifs.to_string(),
                r.instructions.to_string(),
                r.training_samples.to_string(),
                r.topology.clone(),
                format!("{:.5}", r.nn_mse),
                r.error_metric.clone(),
                format!("{:.2}%", 100.0 * r.app_error),
            ]
        })
        .collect();
    println!("\nTable 1: benchmarks, transformed-function characterization, and Parrot results");
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "domain",
                "#calls",
                "#loops",
                "#ifs",
                "#insts",
                "#train",
                "NN topology",
                "NN MSE",
                "error metric",
                "error",
            ],
            &table
        )
    );
}

/// Prints Figure 6 (error CDF).
pub fn print_fig6(rows: &[Fig6Row]) {
    let mut header: Vec<String> = vec!["benchmark".into()];
    if let Some(first) = rows.first() {
        for (x, _) in &first.points {
            header.push(format!("<={:.0}%", 100.0 * x));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            row.extend(r.points.iter().map(|(_, y)| format!("{:.1}%", 100.0 * y)));
            row
        })
        .collect();
    println!("\nFigure 6: cumulative distribution of output-element error");
    println!("{}", render_table(&header_refs, &table));
}

/// Prints Figure 7 (normalized dynamic instructions).
pub fn print_fig7(rows: &[Fig7Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.baseline.to_string(),
                format!("{:.3}", r.npu_other as f64 / r.baseline as f64),
                format!("{:.3}", r.npu_queue as f64 / r.baseline as f64),
                format!("{:.3}", r.normalized_total()),
            ]
        })
        .collect();
    println!("\nFigure 7: normalized dynamic instructions after the Parrot transformation");
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "baseline insts",
                "other (norm)",
                "queue (norm)",
                "total (norm)"
            ],
            &table
        )
    );
}

/// Prints Figure 8a (speedup).
pub fn print_fig8a(rows: &[Fig8Row]) {
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.baseline_cycles.to_string(),
                r.npu_cycles.to_string(),
                format!("{:.2}x", r.speedup),
                format!("{:.2}x", r.ideal_speedup),
            ]
        })
        .collect();
    if rows.len() > 1 {
        let s: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
        let i: Vec<f64> = rows.iter().map(|r| r.ideal_speedup).collect();
        table.push(vec![
            "geomean".into(),
            String::new(),
            String::new(),
            format!("{:.2}x", geomean(&s)),
            format!("{:.2}x", geomean(&i)),
        ]);
    }
    println!("\nFigure 8a: total application speedup with 8-PE NPU");
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "baseline cycles",
                "npu cycles",
                "Core+NPU",
                "Core+Ideal NPU"
            ],
            &table
        )
    );
}

/// Prints Figure 8b (energy reduction).
pub fn print_fig8b(rows: &[Fig8Row]) {
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}x", r.energy_reduction),
                format!("{:.2}x", r.ideal_energy_reduction),
            ]
        })
        .collect();
    if rows.len() > 1 {
        let e: Vec<f64> = rows.iter().map(|r| r.energy_reduction).collect();
        let i: Vec<f64> = rows.iter().map(|r| r.ideal_energy_reduction).collect();
        table.push(vec![
            "geomean".into(),
            format!("{:.2}x", geomean(&e)),
            format!("{:.2}x", geomean(&i)),
        ]);
    }
    println!("\nFigure 8b: total application energy reduction with 8-PE NPU");
    println!(
        "{}",
        render_table(&["benchmark", "Core+NPU", "Core+Ideal NPU"], &table)
    );
}

/// Prints Figure 9 (software-NN slowdown).
pub fn print_fig9(rows: &[Fig9Row]) {
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.name.clone(), format!("{:.2}x", r.slowdown)])
        .collect();
    if rows.len() > 1 {
        let s: Vec<f64> = rows.iter().map(|r| r.slowdown).collect();
        table.push(vec!["geomean".into(), format!("{:.2}x", geomean(&s))]);
    }
    println!("\nFigure 9: slowdown with software neural network execution");
    println!("{}", render_table(&["benchmark", "slowdown"], &table));
}

/// Prints Figure 10 (link-latency sensitivity).
pub fn print_fig10(rows: &[Fig10Row], latencies: &[u64]) {
    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(latencies.iter().map(|l| format!("{l} cycle(s)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            row.extend(r.speedups.iter().map(|(_, s)| format!("{s:.2}x")));
            row
        })
        .collect();
    println!("\nFigure 10: speedup sensitivity to NPU communication latency");
    println!("{}", render_table(&header_refs, &table));
}

/// Prints Figure 11 (PE-count sensitivity).
pub fn print_fig11(result: &Fig11Result, pe_counts: &[usize]) {
    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(pe_counts.iter().map(|p| format!("{p} PEs")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table: Vec<Vec<String>> = result
        .per_bench
        .iter()
        .map(|(name, series)| {
            let mut row = vec![name.clone()];
            row.extend(series.iter().map(|(_, s)| format!("{s:.2}x")));
            row
        })
        .collect();
    if !result.geomean.is_empty() {
        let mut geo = vec!["geomean".to_string()];
        geo.extend(result.geomean.iter().map(|(_, s)| format!("{s:.2}x")));
        table.push(geo);
    }
    println!("\nFigure 11: speedup at each PE count");
    println!("{}", render_table(&header_refs, &table));

    println!("Geometric-mean speedup gain per doubling:");
    for (label, gain) in &result.doubling_gains {
        println!("  {label:<12} {:+.1}%", 100.0 * gain);
    }
}

/// Prints the scheduler/cache accounting of a sweep to stderr (it is
/// operational telemetry, not experiment output).
pub fn print_scheduler(s: &SchedulerSummary) {
    eprintln!(
        "[scheduler] {} workers, {} jobs: {} executed, {} from cache, {} failed, {} skipped",
        s.workers, s.jobs_total, s.jobs_executed, s.jobs_from_cache, s.jobs_failed, s.jobs_skipped
    );
    eprintln!(
        "[scheduler] cache: {} hits / {} misses ({:.0}% hit rate), {} writes; max queue depth {}",
        s.cache_hits,
        s.cache_misses,
        100.0 * s.hit_rate(),
        s.cache_writes,
        s.max_queue_depth
    );
    for (stage, us) in &s.stage_wall_us {
        eprintln!("[scheduler]   {stage:<14} {:>10.1} ms", *us as f64 / 1000.0);
    }
    eprintln!(
        "[scheduler] wall clock {:.1} ms",
        s.wall_clock_us as f64 / 1000.0
    );
}

/// Prints the peak streaming trace-buffer occupancy measured across the
/// sweep's cycle-level simulations (0 when the sweep ran entirely from the
/// artifact cache, since no core then processed a trace).
pub fn print_peak_trace_buffer(events: u64) {
    eprintln!("[scheduler] peak trace buffer {events} events");
}
