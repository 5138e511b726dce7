//! The job executor: a fixed set of worker threads drains one locked
//! ready queue.
//!
//! All scheduling state — the ready queue, each job's count of unfinished
//! dependencies, the terminal records, the jobs still to finish — sits
//! behind one [`Mutex`], and one [`Condvar`] wakes idle workers (and the
//! optional counter sampler). A job finishing pushes the dependents it
//! unblocks onto the *front* of the queue, so a benchmark's pipeline runs
//! depth-first while independent roots wait their turn at the back.
//! Because every job body is a pure function of its dependencies'
//! artifacts, execution order and worker count cannot change any result —
//! only the wall clock.
//!
//! Cache interaction is centralized here: before running a body the
//! executor consults the [`ArtifactCache`] under the job's key and skips
//! execution on a hit; after a successful run it stores the
//! artifact back. A body that panics fails its job like one that returns
//! an error, so its worker still records the job and the run ends.
//! Failures propagate: dependents of a failed job are marked skipped
//! without running. [`ExecStats`] is folded from the terminal records in
//! one pass after the run.
//!
//! Tracing: the submitting thread captures one [`telemetry::Handoff`]
//! per job inside the sweep-level span, and the worker adopts it before
//! opening the job's own span — so every worker-side span is parented to
//! the sweep span that enqueued it (with a flow arrow in Perfetto), no
//! matter which thread runs the job. Each terminal state also emits a
//! [`telemetry::EventKind::JobDone`] instant carrying the DAG edge list,
//! which is what `parrot-trace` replays to recover the critical path.

use crate::artifact::Artifact;
use crate::cache::ArtifactCache;
use crate::dag::{Job, JobDag, JobId};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Terminal state of one job.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// The job produced (or loaded) its artifact.
    Done {
        /// The artifact.
        artifact: Arc<Artifact>,
        /// Whether it came from the cache instead of running the body.
        from_cache: bool,
    },
    /// The body returned an error or panicked.
    Failed(String),
    /// An upstream dependency failed, so the body never ran.
    Skipped,
}

/// Aggregate counters from one executor run.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs whose body ran.
    pub executed: u64,
    /// Jobs served from the cache.
    pub from_cache: u64,
    /// Jobs whose body failed.
    pub failed: u64,
    /// Jobs skipped due to upstream failure.
    pub skipped: u64,
    /// High-water mark of simultaneously-ready jobs.
    pub max_queue_depth: u64,
    /// Wall clock of the whole run, microseconds.
    pub wall_clock_us: u64,
    /// Per-stage wall clock, microseconds, summed over jobs (cache hits
    /// contribute their load time).
    pub stage_wall_us: BTreeMap<String, u64>,
    /// Per-stage job-duration distributions in microseconds (same
    /// samples the `stage_wall_us` sums are built from).
    pub stage_job_us: BTreeMap<String, telemetry::Histogram>,
}

/// Execution knobs beyond the DAG itself.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// When set, a sampler thread emits [`telemetry::EventKind::CounterSample`]
    /// events (queue depth, cache traffic, trace-buffer high-water mark)
    /// at this interval for the duration of the run.
    pub sample_interval: Option<Duration>,
}

/// Everything the workers share, behind one lock.
struct State {
    /// Jobs whose dependencies have all finished, next to run at the front.
    ready: VecDeque<JobId>,
    /// Per job: dependencies not yet in a terminal state.
    pending: Vec<usize>,
    /// Per job: the terminal state and its wall time in microseconds
    /// (cache hits: load time; skipped jobs: 0).
    done: Vec<Option<(JobResult, u64)>>,
    /// Jobs not yet in a terminal state; 0 ends the run.
    remaining: usize,
    /// High-water mark of `ready.len()`.
    max_ready: usize,
}

struct Shared<'d> {
    dag: &'d JobDag,
    cache: Option<&'d ArtifactCache>,
    /// One handoff token per job, captured on the submitting thread so
    /// worker-side job spans parent to the sweep-level span.
    handoffs: Vec<telemetry::Handoff>,
    dependents: Vec<Vec<JobId>>,
    state: Mutex<State>,
    wake: Condvar,
}

impl Shared<'_> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scheduler lock")
    }

    fn worker_loop(&self, worker: usize) {
        let mut state = self.lock();
        loop {
            let Some(job) = state.ready.pop_front() else {
                if state.remaining == 0 {
                    return;
                }
                state = self.wake.wait(state).expect("scheduler lock");
                continue;
            };
            // Every dependency is terminal here; any non-success skips
            // this job without running it.
            let deps: Option<Vec<Arc<Artifact>>> = self.dag.jobs()[job]
                .deps
                .iter()
                .map(|&d| match &state.done[d] {
                    Some((JobResult::Done { artifact, .. }, _)) => Some(Arc::clone(artifact)),
                    Some(_) => None,
                    None => unreachable!("dependency finished before its dependent became ready"),
                })
                .collect();
            drop(state);
            let record = match deps {
                Some(deps) => self.run_job(worker, job, &deps),
                None => {
                    self.emit_job_done(job, worker, "skipped", 0, 0);
                    (JobResult::Skipped, 0)
                }
            };
            state = self.lock();
            self.finish(&mut state, job, record);
        }
    }

    /// Records `job`'s terminal state and queues the dependents it
    /// unblocks at the front (the last unblocked runs first).
    fn finish(&self, state: &mut State, job: JobId, record: (JobResult, u64)) {
        state.done[job] = Some(record);
        state.remaining -= 1;
        let mut unblocked = 0;
        for &dep in &self.dependents[job] {
            state.pending[dep] -= 1;
            if state.pending[dep] == 0 {
                state.ready.push_front(dep);
                unblocked += 1;
            }
        }
        state.max_ready = state.max_ready.max(state.ready.len());
        if unblocked > 0 || state.remaining == 0 {
            self.wake.notify_all();
        }
    }

    fn emit_job_done(&self, job: JobId, worker: usize, outcome: &str, span: u64, elapsed_us: u64) {
        let node = &self.dag.jobs()[job];
        telemetry::emit(telemetry::Level::Info, "harness::exec", || {
            telemetry::EventKind::JobDone {
                job: job as u64,
                bench: node.bench.clone(),
                stage: node.stage.clone(),
                deps: node.deps.iter().map(|&d| d as u64).collect(),
                worker: worker as u64,
                outcome: outcome.to_string(),
                span,
                elapsed_us,
            }
        });
    }

    /// Serves `job` from the cache or runs its body; returns the terminal
    /// state and its wall time.
    fn run_job(&self, worker: usize, job: JobId, deps: &[Arc<Artifact>]) -> (JobResult, u64) {
        let node = &self.dag.jobs()[job];
        // Adopt the submit-side handoff: the job span below parents to
        // the sweep-level span (with a flow arrow in the trace viewer)
        // even though it runs on a worker thread.
        let _ctx = self.handoffs[job].adopt("harness::exec");
        let span = telemetry::span("harness::exec", &format!("{}.{}", node.stage, node.bench));
        let span_id = span.id();
        let t0 = Instant::now();
        let cache = self.cache.zip(node.key.as_deref());

        // Warm path: serve from the cache without running the body.
        let result = match cache.and_then(|(cache, key)| cache.load(key)) {
            Some(artifact) => Ok((artifact, true)),
            None => run_body(node, deps).map(|artifact| {
                if let Some((cache, key)) = cache {
                    if let Err(e) = cache.store(key, &artifact) {
                        eprintln!(
                            "[harness] warning: failed to cache {}/{key}: {e}",
                            node.stage
                        );
                    }
                }
                (artifact, false)
            }),
        };
        let elapsed_us = t0.elapsed().as_micros() as u64;
        drop(span);
        let (result, outcome) = match result {
            Ok((artifact, from_cache)) => {
                let outcome = if from_cache { "cached" } else { "done" };
                let artifact = Arc::new(artifact);
                (
                    JobResult::Done {
                        artifact,
                        from_cache,
                    },
                    outcome,
                )
            }
            Err(e) => (JobResult::Failed(e), "failed"),
        };
        self.emit_job_done(job, worker, outcome, span_id, elapsed_us);
        (result, elapsed_us)
    }

    /// Emits counter samples every `interval` until the run ends, then
    /// one final round so short runs still get a data point per counter.
    fn sampler_loop(&self, interval: Duration) {
        let mut state = self.lock();
        loop {
            let (depth, remaining) = (state.ready.len(), state.remaining);
            drop(state);
            self.sample_counters(depth, remaining);
            if remaining == 0 {
                return;
            }
            state = self
                .wake
                .wait_timeout_while(self.lock(), interval, |s| s.remaining > 0)
                .expect("scheduler lock")
                .0;
        }
    }

    /// Emits one round of counter samples (queue depth, cache traffic, the
    /// uarch trace-buffer high-water mark).
    fn sample_counters(&self, queue_depth: usize, remaining: usize) {
        let emit = |name: &str, value: f64| {
            telemetry::emit(telemetry::Level::Info, "harness::exec", || {
                telemetry::EventKind::CounterSample {
                    name: name.to_string(),
                    value,
                }
            });
        };
        emit("sched.queue_depth", queue_depth as f64);
        emit("sched.jobs_remaining", remaining as f64);
        if let Some(cache) = self.cache {
            let (hits, misses, _) = cache.stats().snapshot();
            emit("cache.hits", hits as f64);
            emit("cache.misses", misses as f64);
            if hits + misses > 0 {
                emit("cache.hit_rate", hits as f64 / (hits + misses) as f64);
            }
        }
        emit(
            "scheduler.peak_trace_buffer_events",
            uarch::peak_trace_buffer() as f64,
        );
    }
}

/// Runs `node`'s body, turning a panic into an error that carries the
/// panic message.
fn run_body(node: &Job, deps: &[Arc<Artifact>]) -> Result<Artifact, String> {
    catch_unwind(AssertUnwindSafe(|| (node.run)(deps))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs every job of `dag` on `opts.workers` threads (clamped to at least
/// 1 and at most the job count) and returns per-job results plus
/// aggregate statistics.
pub fn execute(
    dag: &JobDag,
    cache: Option<&ArtifactCache>,
    opts: &ExecOptions,
) -> (Vec<JobResult>, ExecStats) {
    let n = dag.len();
    let workers = opts.workers.max(1).min(n.max(1));
    let t0 = Instant::now();

    let mut dependents = vec![Vec::new(); n];
    for (id, job) in dag.jobs().iter().enumerate() {
        for &d in &job.deps {
            dependents[d].push(id);
        }
    }
    let ready: VecDeque<JobId> = (0..n).filter(|&j| dag.jobs()[j].deps.is_empty()).collect();
    let shared = Shared {
        dag,
        cache,
        // Captured here, on the submitting thread, so each token's parent
        // is the caller's current span (the sweep span).
        handoffs: (0..n)
            .map(|_| telemetry::handoff("harness::exec"))
            .collect(),
        dependents,
        state: Mutex::new(State {
            max_ready: ready.len(),
            ready,
            pending: dag.jobs().iter().map(|j| j.deps.len()).collect(),
            done: vec![None; n],
            remaining: n,
        }),
        wake: Condvar::new(),
    };

    if n > 0 {
        std::thread::scope(|scope| {
            let shared = &shared;
            for worker in 0..workers {
                scope.spawn(move || shared.worker_loop(worker));
            }
            if let Some(interval) = opts.sample_interval {
                scope.spawn(move || shared.sampler_loop(interval));
            }
        });
    }

    let state = shared.state.into_inner().expect("scheduler lock");
    let mut stats = ExecStats {
        workers,
        max_queue_depth: state.max_ready as u64,
        wall_clock_us: t0.elapsed().as_micros() as u64,
        ..ExecStats::default()
    };
    let mut results = Vec::with_capacity(n);
    for (job, record) in dag.jobs().iter().zip(state.done) {
        let (result, elapsed_us) = record.expect("every job reaches a terminal state");
        match &result {
            JobResult::Done {
                from_cache: true, ..
            } => stats.from_cache += 1,
            JobResult::Done { .. } => stats.executed += 1,
            JobResult::Failed(_) => stats.failed += 1,
            JobResult::Skipped => stats.skipped += 1,
        }
        if !matches!(result, JobResult::Skipped) {
            *stats.stage_wall_us.entry(job.stage.clone()).or_insert(0) += elapsed_us;
            stats
                .stage_job_us
                .entry(job.stage.clone())
                .or_default()
                .observe(elapsed_us as f64);
        }
        results.push(result);
    }
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc::RecvTimeoutError;

    fn out(v: f32) -> Artifact {
        Artifact::Outputs(vec![v])
    }

    fn first(deps: &[Arc<Artifact>]) -> f32 {
        deps[0].as_outputs().unwrap()[0]
    }

    fn run(
        dag: &JobDag,
        cache: Option<&ArtifactCache>,
        workers: usize,
    ) -> (Vec<JobResult>, ExecStats) {
        let opts = ExecOptions {
            workers,
            sample_interval: None,
        };
        execute(dag, cache, &opts)
    }

    #[test]
    fn diamond_dag_runs_in_dependency_order() {
        // a → (b, c) → d; d sums b and c.
        let mut dag = JobDag::new();
        let a = dag.add("s", "t", None, vec![], Box::new(|_| Ok(out(1.0))));
        let b = dag.add(
            "s",
            "t",
            None,
            vec![a],
            Box::new(|d: &[Arc<Artifact>]| Ok(out(first(d) + 10.0))),
        );
        let c = dag.add(
            "s",
            "t",
            None,
            vec![a],
            Box::new(|d: &[Arc<Artifact>]| Ok(out(first(d) + 100.0))),
        );
        let d = dag.add(
            "s",
            "t",
            None,
            vec![b, c],
            Box::new(|d: &[Arc<Artifact>]| Ok(out(first(d) + d[1].as_outputs().unwrap()[0]))),
        );
        for workers in [1, 4] {
            let (results, stats) = run(&dag, None, workers);
            match &results[d] {
                JobResult::Done { artifact, .. } => {
                    assert_eq!(artifact.as_outputs().unwrap(), &[112.0]);
                }
                other => panic!("unexpected result: {other:?}"),
            }
            assert_eq!(stats.executed, 4);
            assert_eq!(stats.failed + stats.skipped, 0);
        }
    }

    #[test]
    fn failure_skips_all_transitive_dependents() {
        // fail → mid → leaf, plus an independent job that must still run.
        let mut dag = JobDag::new();
        let f = dag.add("s", "t", None, vec![], Box::new(|_| Err("boom".into())));
        let mid = dag.add("s", "t", None, vec![f], Box::new(|_| Ok(out(0.0))));
        let leaf = dag.add("s", "t", None, vec![mid], Box::new(|_| Ok(out(0.0))));
        let solo = dag.add("s", "t", None, vec![], Box::new(|_| Ok(out(7.0))));
        let (results, stats) = run(&dag, None, 2);
        assert!(matches!(&results[f], JobResult::Failed(e) if e == "boom"));
        assert!(matches!(results[mid], JobResult::Skipped));
        assert!(matches!(results[leaf], JobResult::Skipped));
        assert!(matches!(results[solo], JobResult::Done { .. }));
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.executed, 1);
    }

    /// Runs `execute` on its own thread and waits at most 60 s for it, so
    /// an executor that hangs fails the test instead of hanging the suite.
    fn run_or_time_out(
        build: impl FnOnce() -> JobDag + Send + 'static,
        workers: usize,
    ) -> (Vec<JobResult>, ExecStats) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run(&build(), None, workers));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(run) => run,
            Err(RecvTimeoutError::Timeout) => panic!("execute hung at {workers} workers"),
            Err(RecvTimeoutError::Disconnected) => panic!("execute panicked at {workers} workers"),
        }
    }

    #[test]
    fn panicking_body_fails_its_job_and_skips_only_its_dependents() {
        // boom → mid → leaf and boom → joint ← solo; solo → after.
        for workers in [1, 2, 4] {
            let (results, stats) = run_or_time_out(
                || {
                    let mut dag = JobDag::new();
                    let boom = dag.add("s", "t", None, vec![], Box::new(|_| panic!("kaboom")));
                    let mid = dag.add("s", "t", None, vec![boom], Box::new(|_| Ok(out(0.0))));
                    dag.add("s", "t", None, vec![mid], Box::new(|_| Ok(out(0.0))));
                    let solo = dag.add("s", "t", None, vec![], Box::new(|_| Ok(out(7.0))));
                    dag.add("s", "t", None, vec![boom, solo], Box::new(|_| Ok(out(0.0))));
                    dag.add("s", "t", None, vec![solo], Box::new(|_| Ok(out(1.0))));
                    dag
                },
                workers,
            );
            let outcome: Vec<&str> = results
                .iter()
                .map(|r| match r {
                    JobResult::Done { .. } => "done",
                    JobResult::Failed(e) if e == "panicked: kaboom" => "panicked",
                    JobResult::Failed(_) => "failed",
                    JobResult::Skipped => "skipped",
                })
                .collect();
            assert_eq!(
                outcome,
                ["panicked", "skipped", "skipped", "done", "skipped", "done"],
                "workers {workers}"
            );
            assert_eq!((stats.executed, stats.failed, stats.skipped), (2, 1, 3));
        }
    }

    #[test]
    fn cache_hit_skips_the_body() {
        let dir = std::env::temp_dir().join(format!("harness-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(&dir);
        let mut dag = JobDag::new();
        dag.add(
            "stage",
            "t",
            Some("deadbeef".into()),
            vec![],
            Box::new(|_| Ok(out(3.0))),
        );
        let (_, cold) = run(&dag, Some(&cache), 1);
        assert_eq!((cold.executed, cold.from_cache), (1, 0));
        let (results, warm) = run(&dag, Some(&cache), 1);
        assert_eq!((warm.executed, warm.from_cache), (0, 1));
        match &results[0] {
            JobResult::Done {
                artifact,
                from_cache,
            } => {
                assert!(from_cache);
                assert_eq!(artifact.as_outputs().unwrap(), &[3.0]);
            }
            other => panic!("unexpected result: {other:?}"),
        }
        assert_eq!(cache.stats().snapshot(), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wide_fanout_saturates_queue_depth() {
        let mut dag = JobDag::new();
        let root = dag.add("s", "t", None, vec![], Box::new(|_| Ok(out(0.0))));
        for _ in 0..16 {
            dag.add("s", "t", None, vec![root], Box::new(|_| Ok(out(1.0))));
        }
        let (results, stats) = run(&dag, None, 4);
        assert_eq!(results.len(), 17);
        assert!(results.iter().all(|r| matches!(r, JobResult::Done { .. })));
        assert!(
            stats.max_queue_depth >= 4,
            "depth {}",
            stats.max_queue_depth
        );
    }

    /// Per-job probes shared with the job bodies.
    #[derive(Default)]
    struct Probe {
        /// Ticket clock: every body takes one ticket at start and one at end.
        clock: AtomicUsize,
        runs: Vec<AtomicUsize>,
        started: Vec<AtomicUsize>,
        ended: Vec<AtomicUsize>,
        /// Wall time each body measured for itself, microseconds.
        body_us: Vec<AtomicU64>,
    }

    /// Job `j` of a generated DAG: a dependency mask over the 32 ids
    /// below it (each picked with probability 1/4), a fate roll and a
    /// stage index.
    type GenJob = (u64, u8, u8);

    /// What a body does on `roll`: fail (5/32), panic (3/32) or succeed.
    fn fate(roll: u8) -> &'static str {
        match roll {
            0..=39 => "failed",
            40..=63 => "panicked",
            _ => "done",
        }
    }

    fn deps_of(j: usize, mask: u64) -> Vec<JobId> {
        (j.saturating_sub(32)..j)
            .filter(|&d| (mask >> (2 * (d % 32))) & 3 == 0)
            .collect()
    }

    fn random_dag(spec: &[GenJob], probe: &Arc<Probe>) -> JobDag {
        let mut dag = JobDag::new();
        for (j, &(mask, roll, stage)) in spec.iter().enumerate() {
            let probe = Arc::clone(probe);
            let fate = fate(roll);
            dag.add(
                format!("stage{stage}"),
                "t",
                None,
                deps_of(j, mask),
                Box::new(move |_: &[Arc<Artifact>]| {
                    let t0 = Instant::now();
                    let start = probe.clock.fetch_add(1, Ordering::SeqCst);
                    probe.started[j].store(start, Ordering::SeqCst);
                    probe.runs[j].fetch_add(1, Ordering::SeqCst);
                    let end = probe.clock.fetch_add(1, Ordering::SeqCst);
                    probe.ended[j].store(end, Ordering::SeqCst);
                    probe.body_us[j].store(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
                    match fate {
                        "failed" => Err(format!("job {j} failed")),
                        "panicked" => panic!("job {j} panicked"),
                        _ => Ok(out(j as f32)),
                    }
                }),
            );
        }
        dag
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_dags_keep_the_executor_contract(
            spec in proptest::collection::vec((any::<u64>(), any::<u8>(), 0u8..3), 1..40),
        ) {
            let n = spec.len();
            // The reference outcome, in id order: a job is skipped when a
            // dependency did not succeed, else its roll decides.
            let mut expected = Vec::with_capacity(n);
            for (j, &(mask, roll, _)) in spec.iter().enumerate() {
                let upstream_ok = deps_of(j, mask).iter().all(|&d| expected[d] == "done");
                expected.push(if upstream_ok { fate(roll) } else { "skipped" });
            }
            for workers in [1, 2, 4] {
                let probe = Arc::new(Probe {
                    runs: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                    started: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                    ended: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                    body_us: (0..n).map(|_| AtomicU64::new(0)).collect(),
                    ..Probe::default()
                });
                let dag = random_dag(&spec, &probe);
                let (results, stats) = run(&dag, None, workers);

                let outcome: Vec<&str> = results
                    .iter()
                    .map(|r| match r {
                        JobResult::Done { from_cache: false, .. } => "done",
                        JobResult::Done { .. } => "cached",
                        JobResult::Failed(e) if e.starts_with("panicked: ") => "panicked",
                        JobResult::Failed(_) => "failed",
                        JobResult::Skipped => "skipped",
                    })
                    .collect();
                prop_assert_eq!(&outcome, &expected, "workers {}", workers);
                let count = |o: &str| expected.iter().filter(|&&e| e == o).count() as u64;
                prop_assert_eq!(
                    (stats.executed, stats.from_cache, stats.failed, stats.skipped),
                    (count("done"), 0, count("failed") + count("panicked"), count("skipped"))
                );
                prop_assert_eq!(
                    stats.executed + stats.from_cache + stats.failed + stats.skipped,
                    n as u64
                );

                let mut body_sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
                for (j, job) in dag.jobs().iter().enumerate() {
                    let runs = probe.runs[j].load(Ordering::SeqCst);
                    prop_assert_eq!(runs, usize::from(expected[j] != "skipped"), "job {}", j);
                    if runs == 0 {
                        continue;
                    }
                    let start = probe.started[j].load(Ordering::SeqCst);
                    for &d in &job.deps {
                        let dep_end = probe.ended[d].load(Ordering::SeqCst);
                        prop_assert!(dep_end < start, "job {} started before dep {} ended", j, d);
                    }
                    let sums = body_sums.entry(job.stage.clone()).or_default();
                    sums.0 += 1;
                    sums.1 += probe.body_us[j].load(Ordering::SeqCst);
                }
                // One histogram sample per job that reached its body; the
                // wall sums are those samples' totals and cover the
                // bodies' own measured time.
                let stages: Vec<&String> = body_sums.keys().collect();
                prop_assert_eq!(stats.stage_wall_us.keys().collect::<Vec<_>>(), stages.clone());
                prop_assert_eq!(stats.stage_job_us.keys().collect::<Vec<_>>(), stages);
                for (stage, &(jobs, body_us)) in &body_sums {
                    let wall = stats.stage_wall_us[stage];
                    let hist = &stats.stage_job_us[stage];
                    prop_assert_eq!(hist.count, jobs);
                    prop_assert_eq!(hist.sum, wall as f64);
                    prop_assert!(wall >= body_us, "{}: wall {} < bodies {}", stage, wall, body_us);
                }
            }
        }
    }
}
