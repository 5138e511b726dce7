//! Chrome trace-event export: serializes the event stream into a JSON
//! file loadable in Perfetto (or `chrome://tracing`).
//!
//! Mapping:
//!
//! * `PhaseEnd` → one `"X"` (complete) event per span, with `ts` backdated
//!   by the measured duration so nesting renders correctly; span/parent
//!   ids and the `aborted` flag ride in `args`.
//! * `CounterSample` → `"C"` counter events (one track per counter name).
//! * `FlowBegin`/`FlowEnd` → `"s"`/`"f"` flow events drawing causality
//!   arrows from the enqueuing span to the worker that ran the job.
//! * `JobDone`, `TrainEpoch`, `NpuInvocation`, and everything else →
//!   `"i"` instant events with the payload in `args`.
//! * `HistogramSnapshot` → collected and written at flush time into a
//!   top-level `parrotHistograms` object next to `traceEvents` (the
//!   trace-event spec tolerates extra top-level keys).
//!
//! The file is streamed: each event appends one array element, and
//! [`ChromeTraceSink::flush`] (via [`crate::flush_sinks`]) writes the
//! footer exactly once.

use crate::{lock, Event, EventKind, Histogram, Sink};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// The process id written into every event. The trace describes one
/// process; Perfetto groups tracks under it.
const PID: u64 = 1;

struct Inner {
    out: BufWriter<std::fs::File>,
    any_event: bool,
    finished: bool,
    histograms: BTreeMap<String, Histogram>,
}

/// A [`Sink`] writing Chrome trace-event JSON to a file.
pub struct ChromeTraceSink {
    inner: Mutex<Inner>,
}

impl ChromeTraceSink {
    /// Creates (or truncates) `path` and writes the trace header.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created or the header not written.
    pub fn create(path: &Path) -> std::io::Result<ChromeTraceSink> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        Ok(ChromeTraceSink {
            inner: Mutex::new(Inner {
                out,
                any_event: false,
                finished: false,
                histograms: BTreeMap::new(),
            }),
        })
    }

    fn append(inner: &mut Inner, element: &str) {
        if inner.finished {
            return;
        }
        let sep = if inner.any_event { "," } else { "" };
        inner.any_event = true;
        // Best effort: a full disk should not bring the run down.
        let _ = write!(inner.out, "{sep}\n{element}");
    }
}

/// A JSON string literal (quoted, escaped) for `s`.
fn quoted(s: &str) -> String {
    serde::json::to_string(&s.to_string())
}

fn serialize(event: &Event) -> Option<String> {
    let ts = event.elapsed_us;
    let tid = event.thread;
    let cat = quoted(&event.target);
    match &event.kind {
        EventKind::PhaseEnd {
            phase,
            elapsed_us,
            span,
            parent,
            aborted,
        } => {
            let start = ts.saturating_sub(*elapsed_us);
            Some(format!(
                "{{\"ph\":\"X\",\"name\":{},\"cat\":{cat},\"pid\":{PID},\"tid\":{tid},\
                 \"ts\":{start},\"dur\":{elapsed_us},\
                 \"args\":{{\"span\":{span},\"parent\":{parent},\"aborted\":{aborted}}}}}",
                quoted(phase),
            ))
        }
        // The matching PhaseEnd carries the whole interval; an extra "B"
        // event would double-draw the span.
        EventKind::PhaseStart { .. } => None,
        EventKind::CounterSample { name, value } => Some(format!(
            "{{\"ph\":\"C\",\"name\":{},\"pid\":{PID},\"ts\":{ts},\
             \"args\":{{\"value\":{value}}}}}",
            quoted(name),
        )),
        EventKind::FlowBegin { flow } => Some(format!(
            "{{\"ph\":\"s\",\"name\":\"handoff\",\"cat\":{cat},\"id\":{flow},\
             \"pid\":{PID},\"tid\":{tid},\"ts\":{ts}}}"
        )),
        EventKind::FlowEnd { flow } => Some(format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"handoff\",\"cat\":{cat},\"id\":{flow},\
             \"pid\":{PID},\"tid\":{tid},\"ts\":{ts}}}"
        )),
        EventKind::JobDone {
            job,
            bench,
            stage,
            deps,
            worker,
            outcome,
            span,
            elapsed_us,
        } => {
            let deps = deps
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",");
            Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"cat\":\"job\",\
                 \"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\
                 \"args\":{{\"job\":{job},\"bench\":{},\"stage\":{},\"deps\":[{deps}],\
                 \"worker\":{worker},\"outcome\":{},\"span\":{span},\
                 \"elapsed_us\":{elapsed_us}}}}}",
                quoted(&format!("{stage}.{bench}")),
                quoted(bench),
                quoted(stage),
                quoted(outcome),
            ))
        }
        // Snapshots go into the parrotHistograms footer, not the stream.
        EventKind::HistogramSnapshot { .. } => None,
        other => {
            let name = match other {
                EventKind::TrainEpoch { .. } => "train_epoch",
                EventKind::CandidateTrained { .. } => "candidate_trained",
                EventKind::SimDone { .. } => "sim_done",
                EventKind::BranchMispredict { .. } => "branch_mispredict",
                EventKind::NpuSquash { .. } => "npu_squash",
                EventKind::NpuInvocation { .. } => "npu_invocation",
                _ => "message",
            };
            Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"cat\":{cat},\
                 \"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\
                 \"args\":{{\"detail\":{}}}}}",
                quoted(&event.render()),
            ))
        }
    }
}

impl Sink for ChromeTraceSink {
    fn record(&self, event: &Event) {
        let mut inner = lock(&self.inner);
        if let EventKind::HistogramSnapshot { name, hist } = &event.kind {
            // Later snapshots of the same name win — they are cumulative.
            inner.histograms.insert(name.clone(), hist.clone());
            return;
        }
        if let Some(element) = serialize(event) {
            Self::append(&mut inner, &element);
        }
    }

    fn flush(&self) {
        let mut inner = lock(&self.inner);
        if inner.finished {
            return;
        }
        inner.finished = true;
        let hists = serde::json::to_string(&inner.histograms);
        let _ = write!(
            inner.out,
            "\n],\n\"displayTimeUnit\":\"ms\",\n\"parrotHistograms\":{hists}\n}}\n"
        );
        let _ = inner.out.flush();
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        // Finalize even if flush_sinks was never called (e.g. the
        // collector was reset): a truncated trace is useless.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn event(seq: u64, elapsed_us: u64, thread: u64, kind: EventKind) -> Event {
        Event {
            seq,
            elapsed_us,
            thread,
            level: Level::Info,
            target: "trace::test".into(),
            kind,
        }
    }

    #[test]
    fn trace_file_is_valid_json_with_expected_phases() {
        let path =
            std::env::temp_dir().join(format!("telemetry-trace-{}.json", std::process::id()));
        let sink = ChromeTraceSink::create(&path).unwrap();
        sink.record(&event(
            1,
            10,
            0,
            EventKind::PhaseStart {
                phase: "sweep".into(),
                span: 5,
                parent: 0,
            },
        ));
        sink.record(&event(2, 12, 0, EventKind::FlowBegin { flow: 9 }));
        sink.record(&event(3, 20, 1, EventKind::FlowEnd { flow: 9 }));
        sink.record(&event(
            4,
            900,
            1,
            EventKind::PhaseEnd {
                phase: "train.fft".into(),
                elapsed_us: 880,
                span: 6,
                parent: 5,
                aborted: false,
            },
        ));
        sink.record(&event(
            5,
            905,
            1,
            EventKind::JobDone {
                job: 3,
                bench: "fft".into(),
                stage: "train".into(),
                deps: vec![1, 2],
                worker: 1,
                outcome: "done".into(),
                span: 6,
                elapsed_us: 880,
            },
        ));
        sink.record(&event(
            6,
            950,
            0,
            EventKind::CounterSample {
                name: "sched.queue_depth".into(),
                value: 4.0,
            },
        ));
        let mut hist = Histogram::default();
        hist.observe(10.0);
        hist.observe(20.0);
        sink.record(&event(
            7,
            990,
            0,
            EventKind::HistogramSnapshot {
                name: "npu.invocation_cycles".into(),
                hist,
            },
        ));
        sink.flush();
        sink.flush(); // idempotent

        let text = std::fs::read_to_string(&path).unwrap();
        let root = serde::json::parse(&text).expect("trace must be valid JSON");
        let serde::Content::Seq(items) = root.get("traceEvents").expect("traceEvents key") else {
            panic!("traceEvents must be an array");
        };
        // PhaseStart and HistogramSnapshot don't serialize as events.
        assert_eq!(items.len(), 5);
        let phs: Vec<&str> = items
            .iter()
            .map(|item| match item.get("ph").expect("ph field") {
                serde::Content::Str(s) => s.as_str(),
                other => panic!("ph must be a string, got {other:?}"),
            })
            .collect();
        assert_eq!(phs, ["s", "f", "X", "i", "C"]);
        let hists = root.get("parrotHistograms").expect("histogram footer");
        assert_eq!(
            hists
                .get("npu.invocation_cycles")
                .and_then(|h| h.get("count"))
                .and_then(|c| c.as_u64()),
            Some(2)
        );
        // The X event backdates its start by the duration.
        assert!(text.contains("\"ts\":20,\"dur\":880"));
        let _ = std::fs::remove_file(&path);
    }
}
