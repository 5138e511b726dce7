//! The job DAG: every experiment step is a node with explicit data
//! dependencies, a content-addressed cache key, and a pure body.
//!
//! A body receives its dependencies' artifacts (in declaration order) and
//! returns its own artifact. Bodies must be deterministic functions of
//! those inputs — that is what makes the cache key sound and parallel
//! execution bit-identical to serial execution. It also means two jobs
//! with equal keys compute the same artifact, so [`JobDag::add`] merges
//! them: the second request becomes an alias of the first job.

use crate::artifact::Artifact;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a job within its DAG.
pub type JobId = usize;

/// A job body: dependencies' artifacts in, own artifact out.
pub type JobFn = Box<dyn Fn(&[Arc<Artifact>]) -> Result<Artifact, String> + Send + Sync>;

/// One node of the DAG.
pub struct Job {
    /// Pipeline stage name (`observe`, `train`, `sim_npu`, …) of the
    /// first request — the per-stage wall-clock bucket and trace label.
    pub stage: String,
    /// Stage names of later requests with the same key, which this job
    /// answers too.
    pub aliases: Vec<String>,
    /// The benchmark this job belongs to (or a pseudo-name for shared
    /// jobs).
    pub bench: String,
    /// Content-addressed cache key (32 hex digits); `None` disables
    /// caching for this job.
    pub key: Option<String>,
    /// Jobs whose artifacts this body consumes, in the order the body
    /// expects them.
    pub deps: Vec<JobId>,
    /// The body.
    pub run: JobFn,
}

impl Job {
    /// Every stage name this job answers to: its own, then its aliases.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.stage.as_str()).chain(self.aliases.iter().map(String::as_str))
    }
}

/// A dependency-ordered set of jobs under construction.
#[derive(Default)]
pub struct JobDag {
    jobs: Vec<Job>,
    by_key: HashMap<String, JobId>,
}

impl JobDag {
    /// An empty DAG.
    pub fn new() -> JobDag {
        JobDag::default()
    }

    /// Adds a job and returns its id. Dependencies must already be in the
    /// DAG (ids are handed out in insertion order), which makes cycles
    /// unrepresentable.
    ///
    /// A job whose key is already present is not added again: `stage`
    /// becomes an alias of the existing job, whose id is returned, and
    /// `run` is dropped.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is out of range, or if a job with an
    /// equal key belongs to another benchmark or has other dependencies
    /// (both harness bugs: every key folds in its bench and its upstream
    /// keys).
    pub fn add(
        &mut self,
        stage: impl Into<String>,
        bench: impl Into<String>,
        key: Option<String>,
        deps: Vec<JobId>,
        run: JobFn,
    ) -> JobId {
        let (stage, bench) = (stage.into(), bench.into());
        if let Some(k) = &key {
            if let Some(&id) = self.by_key.get(k) {
                let job = &mut self.jobs[id];
                assert!(
                    job.bench == bench && job.deps == deps,
                    "{bench}/{stage} shares key {k} with {}/{} but not its inputs",
                    job.bench,
                    job.stage
                );
                if job.stage != stage && !job.aliases.contains(&stage) {
                    job.aliases.push(stage);
                }
                return id;
            }
        }
        let id = self.jobs.len();
        for &d in &deps {
            assert!(d < id, "job dependency {d} not yet added (adding {id})");
        }
        if let Some(k) = &key {
            self.by_key.insert(k.clone(), id);
        }
        self.jobs.push(Job {
            stage,
            aliases: Vec::new(),
            bench,
            key,
            deps,
            run,
        });
        id
    }

    /// The jobs, indexed by id.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_insertion_ordered() {
        let mut dag = JobDag::new();
        let a = dag.add(
            "s",
            "b",
            None,
            vec![],
            Box::new(|_| Ok(Artifact::Outputs(vec![]))),
        );
        let b = dag.add(
            "s",
            "b",
            None,
            vec![a],
            Box::new(|_| Ok(Artifact::Outputs(vec![]))),
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.jobs()[b].deps, vec![a]);
    }

    #[test]
    fn equal_keys_merge_into_one_job() {
        let mut dag = JobDag::new();
        let body = || -> JobFn { Box::new(|_| Ok(Artifact::Outputs(vec![]))) };
        let a = dag.add("sim_npu", "b", Some("k".into()), vec![], body());
        let b = dag.add("sim_link_1", "b", Some("k".into()), vec![], body());
        let c = dag.add("sim_link_2", "b", Some("k2".into()), vec![], body());
        let unkeyed = dag.add("sim_npu", "b", None, vec![], body());
        assert_eq!(b, a, "an equal key returns the existing job");
        assert_eq!((c, unkeyed), (1, 2), "other keys get new ids");
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.jobs()[a].stage, "sim_npu");
        assert_eq!(dag.jobs()[a].aliases, vec!["sim_link_1".to_string()]);
        assert!(dag.jobs()[c].aliases.is_empty());
        // Re-requesting under a known name records nothing new.
        dag.add("sim_link_1", "b", Some("k".into()), vec![], body());
        assert_eq!(dag.jobs()[a].aliases.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not its inputs")]
    fn equal_keys_with_other_dependencies_are_rejected() {
        let mut dag = JobDag::new();
        let body = || -> JobFn { Box::new(|_| Ok(Artifact::Outputs(vec![]))) };
        let root = dag.add("s", "b", None, vec![], body());
        dag.add("x", "b", Some("k".into()), vec![], body());
        dag.add("y", "b", Some("k".into()), vec![root], body());
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependencies_are_rejected() {
        let mut dag = JobDag::new();
        dag.add(
            "s",
            "b",
            None,
            vec![5],
            Box::new(|_| Ok(Artifact::Outputs(vec![]))),
        );
    }
}
