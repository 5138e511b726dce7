//! Workspace-wide observability: structured causal tracing, a unified
//! metrics registry, and JSON run reports.
//!
//! Three layers, usable independently:
//!
//! 1. **Events** — typed records ([`EventKind`]) emitted through a global
//!    collector to pluggable [`Sink`]s (stderr pretty-printer, Chrome
//!    trace-event export, in-memory capture). Emission is gated on a
//!    single relaxed atomic load, so instrumentation left in simulator hot
//!    loops is effectively free while the level is [`Level::Off`] (the
//!    default). Every event carries a dense per-thread ordinal, and
//!    [`Span`]s carry process-unique span/parent ids propagated through a
//!    thread-local context stack — across threads via [`Handoff`] tokens
//!    — so a multi-worker sweep serializes into a causally linked trace.
//! 2. **Metrics** — a [`MetricsRegistry`] of namespaced counters, gauges,
//!    and log-bucketed [`Histogram`]s (p50/p90/p99/p99.9) that every
//!    subsystem (core simulator, NPU, trainer) exports into under its own
//!    prefix, with merge and serde support. A process-global sample
//!    registry ([`record_sample`]/[`take_samples`]) collects wall-clock
//!    distributions (training epoch time, cache lookup time) that belong
//!    only in the sweep-level report, never in deterministic per-job
//!    artifacts.
//! 3. **Reports** — a [`RunReport`] JSON schema combining wall-clock,
//!    per-phase timings, a metrics registry, and percentile
//!    [`Distribution`]s; the bench binaries write one per benchmark under
//!    `results/`.
//!
//! # Emitting
//!
//! ```
//! use telemetry::{EventKind, Level};
//!
//! let capture = telemetry::capture();
//! telemetry::set_level(Level::Info);
//! {
//!     let _span = telemetry::span("example", "setup");
//!     telemetry::emit(Level::Info, "example", || EventKind::Message {
//!         text: "ready".into(),
//!     });
//! } // span emits PhaseEnd here
//! assert_eq!(capture.events().len(), 3);
//! telemetry::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod report;
mod sink;
mod span;
mod trace;

pub use event::{Event, EventKind, Level};
pub use metrics::{Histogram, MetricsRegistry};
pub use report::{
    Distribution, LintSummary, PhaseTiming, PrecisionRow, PrecisionSummary, RunReport,
    SchedulerSummary, ServingSummary, TenantServing, SCHEMA_VERSION,
};
pub use sink::{CaptureSink, Sink, StderrSink};
pub use span::{ContextGuard, Handoff, Span};
pub use trace::ChromeTraceSink;

/// Locks `mutex`, recovering the guard if a holder panicked. Every
/// telemetry update leaves its data valid between steps (a counter, a
/// pushed event, a written line), so a panic elsewhere, in a sink or in
/// a test holding the test lock, must not disable telemetry for the rest
/// of the process.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) mod collector {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// Collector verbosity; `0` = off. Relaxed ordering suffices: the
    /// check is a pure fast-path filter and sinks synchronize via the
    /// state lock.
    static LEVEL: AtomicU8 = AtomicU8::new(0);

    static STATE: Mutex<Option<State>> = Mutex::new(None);

    /// Wall-clock sample registry, separate from the event path so
    /// subsystems can record timing distributions without any sink
    /// installed. Drained by [`take_samples`].
    static SAMPLES: Mutex<Option<MetricsRegistry>> = Mutex::new(None);

    /// Next dense thread ordinal. `std::thread::ThreadId` integers are
    /// unstable, so we hand out our own in first-emission order.
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static THREAD_ORDINAL: Cell<Option<u64>> = const { Cell::new(None) };
    }

    pub(crate) fn thread_ordinal() -> u64 {
        THREAD_ORDINAL.with(|slot| match slot.get() {
            Some(id) => id,
            None => {
                let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                slot.set(Some(id));
                id
            }
        })
    }

    pub(crate) struct State {
        sinks: Vec<Box<dyn Sink>>,
        seq: u64,
        epoch: Instant,
    }

    impl State {
        fn new() -> State {
            State {
                sinks: Vec::new(),
                seq: 0,
                epoch: Instant::now(),
            }
        }
    }

    fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
        let mut guard = lock(&STATE);
        f(guard.get_or_insert_with(State::new))
    }

    pub(crate) fn set_level(level: Level) {
        LEVEL.store(level as u8, Ordering::Relaxed);
    }

    pub(crate) fn level() -> Level {
        Level::from_u8(LEVEL.load(Ordering::Relaxed))
    }

    #[inline]
    pub(crate) fn enabled(level: Level) -> bool {
        level as u8 <= LEVEL.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn emit(level: Level, target: &str, build: impl FnOnce() -> EventKind) {
        if !enabled(level) {
            return;
        }
        let kind = build();
        let thread = thread_ordinal();
        with_state(|state| {
            state.seq += 1;
            let event = Event {
                seq: state.seq,
                elapsed_us: state.epoch.elapsed().as_micros() as u64,
                thread,
                level,
                target: target.to_string(),
                kind,
            };
            for sink in &state.sinks {
                sink.record(&event);
            }
        });
    }

    pub(crate) fn add_sink(sink: Box<dyn Sink>) {
        with_state(|state| state.sinks.push(sink));
    }

    pub(crate) fn flush_sinks() {
        with_state(|state| {
            for sink in &state.sinks {
                sink.flush();
            }
        });
    }

    pub(crate) fn record_sample(key: &str, value: f64) {
        lock(&SAMPLES)
            .get_or_insert_with(MetricsRegistry::new)
            .observe(key, value);
    }

    pub(crate) fn take_samples() -> MetricsRegistry {
        lock(&SAMPLES).take().unwrap_or_default()
    }

    pub(crate) fn reset() {
        LEVEL.store(0, Ordering::Relaxed);
        *lock(&STATE) = None;
        *lock(&SAMPLES) = None;
    }
}

/// Sets the global collector level. Events above it are dropped before
/// construction.
pub fn set_level(level: Level) {
    collector::set_level(level);
}

/// The current collector level.
pub fn level() -> Level {
    collector::level()
}

/// Whether events at `level` would currently be recorded. One relaxed
/// atomic load — safe to call in simulator hot loops.
#[inline]
pub fn enabled(level: Level) -> bool {
    collector::enabled(level)
}

/// Records an event if `level` is enabled. `build` runs only when the
/// event will actually be recorded, so payload construction (formatting,
/// cloning) costs nothing while tracing is off.
#[inline]
pub fn emit(level: Level, target: &str, build: impl FnOnce() -> EventKind) {
    collector::emit(level, target, build);
}

/// Starts a phase timer that emits `PhaseStart` now and `PhaseEnd` when
/// finished or dropped. The span measures time regardless of the level,
/// so run reports get phase timings even with tracing off. The new span
/// nests under the innermost span open on this thread (or adopted via
/// [`Handoff`]).
pub fn span(target: &'static str, phase: &str) -> Span {
    Span::start(target, phase)
}

/// The id of the innermost span open on the calling thread, or 0.
pub fn current_span() -> u64 {
    span::current_span()
}

/// Captures the current span context into a [`Handoff`] token (emitting
/// `FlowBegin`) for adoption on another thread.
pub fn handoff(target: &'static str) -> Handoff {
    Handoff::capture(target)
}

/// The dense ordinal of the calling thread, assigned on first use.
pub fn thread_ordinal() -> u64 {
    collector::thread_ordinal()
}

/// Records one wall-clock sample into the process-global sample registry
/// under `key`. Use for timing distributions (epoch time, cache lookup
/// time) that must stay out of deterministic per-job artifacts.
pub fn record_sample(key: &str, value: f64) {
    collector::record_sample(key, value);
}

/// Drains and returns the process-global sample registry.
pub fn take_samples() -> MetricsRegistry {
    collector::take_samples()
}

/// Registers a sink receiving every admitted event from now on.
pub fn add_sink(sink: Box<dyn Sink>) {
    collector::add_sink(sink);
}

/// Flushes every installed sink (finalizing file formats that need a
/// footer, like the Chrome trace export). Call once before process exit.
pub fn flush_sinks() {
    collector::flush_sinks();
}

/// Installs the stderr pretty-printing sink.
pub fn install_stderr_sink() {
    add_sink(Box::new(StderrSink));
}

/// Installs a Chrome trace-event sink writing to `path` (open the file in
/// Perfetto or `chrome://tracing`). Call [`flush_sinks`] before exit to
/// finalize the JSON.
///
/// # Errors
///
/// Fails if the file cannot be created.
pub fn install_trace_sink(path: &std::path::Path) -> std::io::Result<()> {
    add_sink(Box::new(ChromeTraceSink::create(path)?));
    Ok(())
}

/// Installs an in-memory capture sink and returns a handle to read it —
/// the test-facing sink.
pub fn capture() -> CaptureSink {
    let sink = CaptureSink::new();
    add_sink(Box::new(sink.clone()));
    sink
}

/// Returns the collector to its initial state: level off, no sinks, empty
/// samples. Intended for tests that must not observe each other.
pub fn reset() {
    collector::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global and `cargo test` runs tests
    // concurrently, so the tests below share one exclusive lock.
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_level_drops_events_without_building_them() {
        let _g = lock(&GUARD);
        reset();
        let cap = capture();
        let mut built = false;
        emit(Level::Info, "test", || {
            built = true;
            EventKind::Message { text: "x".into() }
        });
        assert!(!built, "payload must not be built while level is off");
        assert!(cap.events().is_empty());
        reset();
    }

    #[test]
    fn events_reach_sinks_and_ring_in_order() {
        let _g = lock(&GUARD);
        reset();
        set_level(Level::Debug);
        let cap = capture();
        emit(Level::Info, "a", || EventKind::Message { text: "1".into() });
        emit(Level::Trace, "a", || EventKind::Message {
            text: "no".into(),
        });
        emit(Level::Debug, "b", || EventKind::Message {
            text: "2".into(),
        });
        let got = cap.events();
        assert_eq!(got.len(), 2, "trace event must be filtered at debug level");
        assert!(got[0].seq < got[1].seq);
        reset();
    }

    #[test]
    fn span_emits_phase_pair_and_reports_timing() {
        let _g = lock(&GUARD);
        reset();
        set_level(Level::Info);
        let cap = capture();
        let timing = span("test", "work").finish();
        assert_eq!(timing.name, "work");
        let got = cap.events();
        assert_eq!(got.len(), 2);
        match (&got[0].kind, &got[1].kind) {
            (
                EventKind::PhaseStart {
                    span: s0,
                    parent: p0,
                    ..
                },
                EventKind::PhaseEnd {
                    phase,
                    span: s1,
                    parent: p1,
                    aborted,
                    ..
                },
            ) => {
                assert_eq!(phase, "work");
                assert_eq!(s0, s1, "start/end must share the span id");
                assert_ne!(*s0, 0);
                assert_eq!(p0, p1);
                assert!(!aborted);
            }
            other => panic!("expected PhaseStart + PhaseEnd, got {other:?}"),
        }
        reset();
    }

    #[test]
    fn spans_measure_time_even_when_tracing_is_off() {
        let _g = lock(&GUARD);
        reset();
        let span = span("test", "quiet");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let timing = span.finish();
        assert!(
            timing.elapsed_us >= 1_000,
            "elapsed = {}",
            timing.elapsed_us
        );
        reset();
    }

    #[test]
    fn span_dropped_during_unwind_emits_aborted_end_once() {
        let _g = lock(&GUARD);
        reset();
        set_level(Level::Info);
        let cap = capture();
        let result = std::panic::catch_unwind(|| {
            let _span = span("test", "doomed");
            panic!("job body exploded");
        });
        assert!(result.is_err());
        let ends: Vec<_> = cap
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::PhaseEnd { phase, aborted, .. } => Some((phase, aborted)),
                _ => None,
            })
            .collect();
        assert_eq!(ends.len(), 1, "PhaseEnd must be emitted exactly once");
        assert_eq!(ends[0].0, "doomed");
        assert!(ends[0].1, "an unwound span must be marked aborted");
        assert_eq!(current_span(), 0, "context stack must be unwound");
        reset();
    }

    #[test]
    fn handoff_emits_flow_pair_and_links_parents() {
        let _g = lock(&GUARD);
        reset();
        set_level(Level::Info);
        let cap = capture();
        let sweep = span("test", "sweep");
        let sweep_id = sweep.id();
        let token = handoff("test");
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ctx = token.adopt("test");
                let job = span("test", "job");
                assert_eq!(job.parent(), sweep_id);
                job.finish();
            });
        });
        sweep.finish();
        let events = cap.events();
        let flow_begin = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::FlowBegin { .. }))
            .expect("FlowBegin");
        let flow_end = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::FlowEnd { .. }))
            .expect("FlowEnd");
        assert_ne!(
            flow_begin.thread, flow_end.thread,
            "flow must cross threads"
        );
        let job_end = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::PhaseEnd { phase, parent, .. } if phase == "job" => Some(*parent),
                _ => None,
            })
            .expect("job PhaseEnd");
        assert_eq!(job_end, sweep_id, "worker-side span must link to sweep");
        reset();
    }

    #[test]
    fn samples_registry_accumulates_and_drains() {
        let _g = lock(&GUARD);
        reset();
        record_sample("ann.train.epoch_us", 100.0);
        record_sample("ann.train.epoch_us", 300.0);
        let reg = take_samples();
        let h = reg.histogram("ann.train.epoch_us").unwrap();
        assert_eq!(h.count, 2);
        assert!(take_samples().is_empty(), "take must drain");
        reset();
    }
}
