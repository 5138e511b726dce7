//! Event records: severity levels, the typed event taxonomy, and the
//! envelope that carries them to sinks.

use crate::Histogram;

/// Event severity, ordered from silent to most verbose.
///
/// The global collector drops events above its configured level before
/// they are constructed, so tracing left in hot loops costs one relaxed
/// atomic load when disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No events at all (the default).
    Off,
    /// Unrecoverable problems.
    Error,
    /// Suspicious conditions that do not stop a run.
    Warn,
    /// Phase boundaries and run summaries.
    Info,
    /// Per-candidate / per-invocation detail.
    Debug,
    /// Per-event simulator detail (squashes, mispredicts).
    Trace,
}

impl Level {
    /// Parses the usual lowercase names (`off`, `error`, `warn`, `info`,
    /// `debug`, `trace`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Off,
        }
    }
}

/// What happened. One variant per event class the pipeline and the
/// simulators report; fields carry the class-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A named phase began (compilation step, timing run, …).
    PhaseStart {
        /// Phase name, e.g. `observe` or `topology_search`.
        phase: String,
        /// Span id of the phase timer (unique within a process, never 0).
        span: u64,
        /// Span id of the enclosing phase on the same logical context
        /// stack (0 = a root span).
        parent: u64,
    },
    /// A named phase finished.
    PhaseEnd {
        /// Phase name matching the corresponding [`EventKind::PhaseStart`].
        phase: String,
        /// Wall-clock duration of the phase in microseconds.
        elapsed_us: u64,
        /// Span id matching the `PhaseStart`.
        span: u64,
        /// Parent span id matching the `PhaseStart`.
        parent: u64,
        /// Whether the span ended during a panic unwind instead of a
        /// normal finish/drop.
        aborted: bool,
    },
    /// A causality edge begins: a handoff token was created inside the
    /// emitting context (e.g. the sweep enqueued a job).
    FlowBegin {
        /// Process-unique flow id tying this to the matching
        /// [`EventKind::FlowEnd`].
        flow: u64,
    },
    /// A causality edge ends: the handoff token was adopted by another
    /// context (e.g. a worker started the enqueued job).
    FlowEnd {
        /// Flow id matching the [`EventKind::FlowBegin`].
        flow: u64,
    },
    /// One sample of a monitored counter (queue depth, cache hit rate,
    /// …) — a point on a time-series, rendered as a counter track by the
    /// trace exporter.
    CounterSample {
        /// Counter name (`sched.queue_depth`, `cache.hit_rate`, …).
        name: String,
        /// Sampled value.
        value: f64,
    },
    /// A harness job reached a terminal state. Carries the DAG structure
    /// (job id + dependency ids) so trace tooling can recover the
    /// critical path without the original DAG.
    JobDone {
        /// Job id within the sweep's DAG.
        job: u64,
        /// Benchmark the job belonged to.
        bench: String,
        /// Pipeline stage (`observe`, `train`, `sim_npu`, …).
        stage: String,
        /// DAG ids of the job's dependencies.
        deps: Vec<u64>,
        /// Worker thread index that ran (or skipped) the job.
        worker: u64,
        /// Terminal state: `done`, `cached`, `failed`, or `skipped`.
        outcome: String,
        /// Span id of the job's execution span (0 for skipped jobs).
        span: u64,
        /// Job wall-clock in microseconds (0 for skipped jobs).
        elapsed_us: u64,
    },
    /// A snapshot of a named histogram, emitted at end of run so trace
    /// files carry the full distributions next to the span data.
    HistogramSnapshot {
        /// Histogram name (`npu.invocation_cycles`, …).
        name: String,
        /// The histogram state at snapshot time.
        hist: Histogram,
    },
    /// The topology search finished training one candidate network.
    CandidateTrained {
        /// The candidate's layer structure, e.g. `9->8->1`.
        topology: String,
        /// Mean squared error on the held-out test split.
        test_mse: f64,
        /// Mean squared error on the training split.
        train_mse: f64,
        /// Epochs actually executed.
        epochs: u64,
        /// Estimated NPU evaluation latency in cycles.
        npu_latency: u64,
    },
    /// A mid-training accuracy sample (the MSE learning curve).
    TrainEpoch {
        /// Epoch index the sample was taken after.
        epoch: u64,
        /// Training-set mean squared error at that point.
        mse: f64,
    },
    /// A core timing simulation finished.
    SimDone {
        /// Total cycles simulated.
        cycles: u64,
        /// Instructions committed.
        committed: u64,
    },
    /// The core resolved a mispredicted branch.
    BranchMispredict {
        /// Cycle at which the branch resolved.
        cycle: u64,
    },
    /// The NPU rolled back speculative FIFO traffic.
    NpuSquash {
        /// Speculative `enq.d` pushes undone.
        enq: u64,
        /// Speculative `deq.d` pops undone.
        deq: u64,
    },
    /// The NPU completed one invocation.
    NpuInvocation {
        /// Cycles from the invocation starting to its last output.
        cycles: u64,
    },
    /// Free-form text.
    Message {
        /// The message.
        text: String,
    },
}

/// One recorded event: an [`EventKind`] plus envelope metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number, unique within a process.
    pub seq: u64,
    /// Microseconds since the collector first recorded an event.
    pub elapsed_us: u64,
    /// Small dense ordinal of the emitting thread (assigned in first-use
    /// order, stable for the thread's lifetime).
    pub thread: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem that emitted the event (crate or module path).
    pub target: String,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// A one-line human rendering (the stderr sink's format).
    pub fn render(&self) -> String {
        format!(
            "[{:>10.3}ms {:<5} {}] {}",
            self.elapsed_us as f64 / 1e3,
            self.level.as_str(),
            self.target,
            render_kind(&self.kind),
        )
    }
}

fn render_kind(kind: &EventKind) -> String {
    match kind {
        EventKind::PhaseStart { phase, .. } => format!("phase {phase} started"),
        EventKind::PhaseEnd {
            phase,
            elapsed_us,
            aborted,
            ..
        } => {
            let tag = if *aborted { " (aborted)" } else { "" };
            format!(
                "phase {phase} finished in {:.3}ms{tag}",
                *elapsed_us as f64 / 1e3
            )
        }
        EventKind::FlowBegin { flow } => format!("flow {flow} begins"),
        EventKind::FlowEnd { flow } => format!("flow {flow} ends"),
        EventKind::CounterSample { name, value } => format!("counter {name} = {value}"),
        EventKind::JobDone {
            job,
            bench,
            stage,
            outcome,
            elapsed_us,
            ..
        } => format!(
            "job {job} {stage}.{bench}: {outcome} in {:.3}ms",
            *elapsed_us as f64 / 1e3
        ),
        EventKind::HistogramSnapshot { name, hist } => {
            format!("histogram {name}: {} samples", hist.count)
        }
        EventKind::CandidateTrained {
            topology,
            test_mse,
            train_mse,
            epochs,
            npu_latency,
        } => format!(
            "candidate {topology}: test mse {test_mse:.6}, train mse {train_mse:.6}, \
             {epochs} epochs, {npu_latency} cycles"
        ),
        EventKind::TrainEpoch { epoch, mse } => format!("epoch {epoch}: train mse {mse:.6}"),
        EventKind::SimDone { cycles, committed } => {
            format!("simulation done: {cycles} cycles, {committed} committed")
        }
        EventKind::BranchMispredict { cycle } => format!("branch mispredict at cycle {cycle}"),
        EventKind::NpuSquash { enq, deq } => format!("npu squash: {enq} enq, {deq} deq undone"),
        EventKind::NpuInvocation { cycles } => format!("npu invocation done in {cycles} cycles"),
        EventKind::Message { text } => text.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_round_trips() {
        for l in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Error);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn aborted_phase_end_renders_the_tag() {
        let rendered = render_kind(&EventKind::PhaseEnd {
            phase: "train".into(),
            elapsed_us: 1000,
            span: 1,
            parent: 0,
            aborted: true,
        });
        assert!(rendered.contains("(aborted)"), "{rendered}");
    }
}
