//! Event destinations: stderr pretty-printing, JSONL files, and an
//! in-memory capture for tests.

use crate::{lock, Event};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A destination for recorded events. Sinks receive every event the
/// collector's level admits, in emission order.
pub trait Sink: Send {
    /// Handles one event. Called under the collector lock — keep it quick.
    fn record(&self, event: &Event);

    /// Finalizes any buffered output (file footers, etc.). Called by
    /// [`crate::flush_sinks`] before process exit; the default does
    /// nothing.
    fn flush(&self) {}
}

/// Accepts and discards every event — for measuring collector overhead
/// without I/O.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Renders each event as one human-readable line on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        eprintln!("{}", event.render());
    }
}

/// Appends each event as one JSON object per line (JSON Lines).
pub struct JsonlSink {
    file: Mutex<std::fs::File>,
}

impl JsonlSink {
    /// Creates (or truncates) `path` and writes events to it.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            file: Mutex::new(std::fs::File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = serde::json::to_string(event);
        let mut file = lock(&self.file);
        // Best effort: a full disk should not bring the simulation down.
        let _ = writeln!(file, "{line}");
    }
}

/// Stores events in memory; cloneable handle for test assertions.
#[derive(Clone, Default)]
pub struct CaptureSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl CaptureSink {
    /// An empty capture.
    pub fn new() -> CaptureSink {
        CaptureSink::default()
    }

    /// A copy of everything captured so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// Discards captured events.
    pub fn clear(&self) {
        lock(&self.events).clear();
    }
}

impl Sink for CaptureSink {
    fn record(&self, event: &Event) {
        lock(&self.events).push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Level};

    fn sample() -> Event {
        Event {
            seq: 1,
            elapsed_us: 42,
            thread: 0,
            level: Level::Debug,
            target: "sink::test".into(),
            kind: EventKind::Message {
                text: "hello".into(),
            },
        }
    }

    #[test]
    fn capture_sink_keeps_order() {
        let cap = CaptureSink::new();
        cap.record(&sample());
        let mut second = sample();
        second.seq = 2;
        cap.record(&second);
        let got = cap.events();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("telemetry-jsonl-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&sample());
        sink.record(&sample());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let back: Event = serde::json::from_str(line).unwrap();
            assert_eq!(back, sample());
        }
        let _ = std::fs::remove_file(&path);
    }
}
