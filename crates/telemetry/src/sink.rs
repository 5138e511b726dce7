//! Event destinations: stderr pretty-printing and an in-memory capture
//! for tests. The Chrome trace-event export lives in `trace.rs`.

use crate::{lock, Event};
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

/// Renders each event as one human-readable line on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        eprintln!("{}", event.render());
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
}
