//! Cache semantics: a warm re-run does zero work, and invalidation is
//! exactly as wide as the Merkle key chain implies.

mod common;

use harness::{run_sweep, Experiment};

#[test]
fn warm_run_hits_everything_and_hyperparameter_change_invalidates_downstream_only() {
    let dir = common::temp_dir("invalidation");
    let mut spec = common::tiny_spec(&["sobel"]);
    spec.jobs = 2;
    spec.cache_dir = Some(dir.clone());

    // Cold: every job executes and is written back.
    // The Report experiment schedules observe, train, sim_cpu, sim_npu,
    // outputs_base, outputs_npu, and report — seven jobs.
    let cold = run_sweep(&spec).expect("cold sweep runs");
    assert!(cold.ok(), "cold failures:\n{}", cold.failure_summary());
    assert_eq!(cold.scheduler.jobs_total, 7);
    assert_eq!(cold.scheduler.jobs_executed, 7);
    assert_eq!(cold.scheduler.jobs_from_cache, 0);
    assert_eq!(cold.scheduler.cache_writes, 7);

    // Warm: identical spec, zero bodies run, reports byte-identical.
    let warm = run_sweep(&spec).expect("warm sweep runs");
    assert!(warm.ok(), "warm failures:\n{}", warm.failure_summary());
    assert!(warm.scheduler.fully_warm(), "{:?}", warm.scheduler);
    assert_eq!(warm.scheduler.jobs_executed, 0);
    assert_eq!(warm.scheduler.cache_hits, 7);
    assert!((warm.scheduler.hit_rate() - 1.0).abs() < 1e-12);
    assert_eq!(
        cold.reports()[0].to_json(),
        warm.reports()[0].to_json(),
        "warm report must match the cold one byte for byte"
    );

    // Change one training hyperparameter: observe's key holds only the
    // region IR, dataset digest, and scale, and sim_cpu's / outputs_base's
    // keys have no training input at all — all three must still hit.
    // train, sim_npu, outputs_npu, and report sit downstream of the
    // changed config and must re-run.
    let mut changed = spec.clone();
    changed.compile.search.train.epochs += 1;
    let partial = run_sweep(&changed).expect("partial sweep runs");
    assert!(
        partial.ok(),
        "partial failures:\n{}",
        partial.failure_summary()
    );
    assert_eq!(
        partial.scheduler.jobs_from_cache, 3,
        "observe, sim_cpu, and outputs_base must hit: {:?}",
        partial.scheduler
    );
    assert_eq!(
        partial.scheduler.jobs_executed, 4,
        "train, sim_npu, outputs_npu, report must re-run: {:?}",
        partial.scheduler
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn equal_runs_merge_into_one_job_and_rerun_warm() {
    let dir = common::temp_dir("merge");
    let mut spec = common::tiny_spec(&["sobel"]);
    spec.jobs = 2;
    spec.cache_dir = Some(dir.clone());
    spec.experiments = vec![Experiment::Fig8, Experiment::Fig10, Experiment::Fig11];

    // observe, train, sim_cpu, sim_npu, sim_ideal, energy, four link
    // latencies and five PE counts: `sim_link_1` (the default core) and
    // `sim_pes_8` (the compiled NPU) are `sim_npu`'s job.
    let cold = run_sweep(&spec).expect("cold sweep runs");
    assert!(cold.ok(), "cold failures:\n{}", cold.failure_summary());
    assert_eq!(cold.scheduler.jobs_total, 15);
    assert_eq!(cold.scheduler.jobs_executed, 15);
    let json = |stage: &str| {
        let artifact = cold.artifact("sobel", stage);
        serde::json::to_string(artifact.unwrap_or_else(|| panic!("no {stage} artifact")))
    };
    assert_eq!(json("sim_link_1"), json("sim_npu"));
    assert_eq!(json("sim_pes_8"), json("sim_npu"));
    assert_ne!(json("sim_link_2"), json("sim_npu"));
    assert_ne!(json("sim_pes_1"), json("sim_npu"));

    let warm = run_sweep(&spec).expect("warm sweep runs");
    assert!(warm.ok(), "warm failures:\n{}", warm.failure_summary());
    assert!(warm.scheduler.fully_warm(), "{:?}", warm.scheduler);
    assert_eq!(warm.scheduler.cache_hits, 15);

    let _ = std::fs::remove_dir_all(&dir);
}
