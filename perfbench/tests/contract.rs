//! The benchmark's own checks: declared names are well formed, every
//! listed workload emits every declared metric with its unit, a minimal
//! run of each workload passes its output checks, and the exact model
//! metrics repeat bit for bit across runs.

use serde::Content;
use std::process::Command;

fn manifest() -> Content {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde::json::parse(&text).expect("BENCHMARK.json parses")
}

fn seq<'a>(c: &'a Content, key: &str) -> &'a [Content] {
    match c.get(key) {
        Some(Content::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn string<'a>(c: &'a Content, key: &str) -> &'a str {
    match c.get(key) {
        Some(Content::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn names(list: &[Content]) -> Vec<&str> {
    list.iter().map(|m| string(m, "name")).collect()
}

/// (name, unit) of every metric declared for `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let m = manifest();
    seq(&m, section)
        .iter()
        .map(|x| (string(x, "name").to_string(), string(x, "unit").to_string()))
        .collect()
}

fn workloads() -> Vec<String> {
    names(seq(&manifest(), "workloads"))
        .into_iter()
        .map(String::from)
        .collect()
}

/// The parsed result line of one minimal run.
struct Run {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, String, String)>,
}

impl Run {
    fn value(&self, name: &str) -> &str {
        &self
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }
}

/// Runs the benchmark as the gated command does, with the given
/// rotation budget.
fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let result = serde::json::parse(line).expect("the result line is JSON");
    let metrics = match result.get("metrics") {
        Some(Content::Map(entries)) => entries
            .iter()
            .map(|(name, m)| {
                // Keep the value's text: exact metrics compare bit for bit.
                let text = line
                    .split(&format!("\"{name}\": {{\"value\": "))
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .expect("value text")
                    .to_string();
                (name.clone(), text, string(m, "unit").to_string())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    let correct = matches!(result.get("correct"), Some(Content::Bool(true)));
    assert!(
        correct,
        "{workload} (seed {seed}) failed its output checks: {stderr}"
    );
    Run {
        correct,
        failed: result
            .get("failed")
            .and_then(Content::as_u64)
            .expect("failed"),
        metrics,
    }
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_name_is_well_formed_and_unique() {
    let m = manifest();
    let mut all = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in names(seq(&m, section)) {
            assert!(well_formed(name), "bad name {name:?} in {section}");
            assert!(!all.contains(&name), "{name} declared twice");
            all.push(name);
        }
    }
    let setup = seq(&m, "end_to_end")
        .iter()
        .find(|x| string(x, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(string(setup, "unit"), "s");
    assert_eq!(string(setup, "better"), "lower");
}

#[test]
fn minimal_runs_emit_every_metric_and_pass_their_checks() {
    for workload in workloads() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(&workload, 3, 0, trace);
            assert!(r.correct);
            assert_eq!(r.failed, 0, "{workload}: failed ops");
            let emitted: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(emitted, declared(section), "{workload} --trace {trace}");
            if !trace {
                for (name, value, _) in &r.metrics {
                    let v: f64 = value.parse().expect("numeric value");
                    assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn exact_metrics_repeat_bit_for_bit() {
    const EXACT: [&str; 11] = [
        "nn_test_mse_mean",
        "ann.search.candidates",
        "core.observe.samples",
        "sim_speedup_geomean",
        "sim_energy_reduction_geomean",
        "app_error_mean",
        "uarch.cycles",
        "uarch.committed",
        "uarch.l1d_miss_rate",
        "uarch.bp_mispredict_rate",
        "npu.invocations",
    ];
    for workload in ["compile", "simulate"] {
        // Several rotations in the second run: each must equal its
        // first rotation, and both runs must agree.
        let a = run(workload, 11, 0, true);
        let b = run(workload, 11, 1, true);
        for name in EXACT {
            assert_eq!(a.value(name), b.value(name), "{workload}: {name}");
        }
    }
}
