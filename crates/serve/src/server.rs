//! The `parrot-serve` daemon: sockets and threads around [`Engine`].
//!
//! Thread layout:
//!
//! - the **accept loop** (the thread that called [`Server::run`]) takes
//!   connections and spawns one reader per connection;
//! - **readers** decode frames, answer control requests inline, and
//!   enqueue invocations into the engine (immediate replies for
//!   rejections and validation errors — backpressure must not wait for
//!   a batch);
//! - the **batcher** sleeps on a condvar until some tenant fills a
//!   whole batch or the oldest queued request ages past the batch
//!   window, then flushes the engine and writes the replies;
//! - the **reaper** wakes periodically, expires past-deadline requests,
//!   and writes their timeout replies, so a stalled client load can
//!   never wedge queued work forever.
//!
//! All scheduling decisions live in [`Engine`]; this layer only decides
//! *when* to call it (window/full-batch/shutdown-drain) and shuttles
//! bytes. Time is the daemon's monotonic clock mapped to microseconds
//! since server start, so engine behaviour under the daemon matches the
//! virtual-clock tests in `tests/engine_determinism.rs`.

use crate::engine::{drain, Completion, CompletionKind, Engine, SubmitOutcome};
use crate::proto::{read_frame, write_frame, ErrorCode, ProtoError, Reply, Request};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use telemetry::ServingSummary;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// Unix domain socket at the given path.
    Unix(PathBuf),
    /// TCP at `host:port` (port 0 picks a free port).
    Tcp(String),
}

impl Listen {
    /// Parses `unix:/path/to.sock` or `tcp:host:port`.
    ///
    /// # Errors
    ///
    /// Returns a description when the scheme prefix is missing.
    pub fn parse(s: &str) -> Result<Listen, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Listen::Tcp(addr.to_string()))
        } else {
            Err(format!("listen address {s:?} needs a unix: or tcp: prefix"))
        }
    }
}

/// A connected stream of either family.
pub enum AnyStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl AnyStream {
    /// Connects to a parsed [`Listen`] address.
    ///
    /// # Errors
    ///
    /// Propagates the underlying connect error.
    pub fn connect(addr: &Listen) -> io::Result<AnyStream> {
        match addr {
            Listen::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                // Request/reply frames are small; Nagle + delayed ACK
                // would add tens of milliseconds per round trip.
                s.set_nodelay(true)?;
                Ok(AnyStream::Tcp(s))
            }
            Listen::Unix(p) => Ok(AnyStream::Unix(UnixStream::connect(p)?)),
        }
    }

    fn try_clone(&self) -> io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => Ok(AnyStream::Tcp(s.try_clone()?)),
            AnyStream::Unix(s) => Ok(AnyStream::Unix(s.try_clone()?)),
        }
    }

    /// Applies a read timeout (used by polling clients; `read_frame`
    /// retries timeouts mid-frame so framing stays intact).
    ///
    /// # Errors
    ///
    /// Propagates the socket option error.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(dur),
            AnyStream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

enum AnyListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl AnyListener {
    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(AnyStream::Tcp(s))
            }
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

/// Daemon knobs beyond the engine's own configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address.
    pub listen: Listen,
    /// Oldest queued request may age this long before a non-full batch
    /// flushes anyway (the batching latency/throughput dial).
    pub batch_window_us: u64,
    /// Reaper wake period.
    pub reap_period_us: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: Listen::Tcp("127.0.0.1:7411".to_string()),
            batch_window_us: 2_000,
            reap_period_us: 5_000,
        }
    }
}

type SharedWriter = Arc<Mutex<AnyStream>>;

struct Inner {
    engine: Mutex<Engine>,
    /// Signalled on submit and shutdown; the batcher waits on it.
    work: Condvar,
    shutdown: AtomicBool,
    epoch: Instant,
    batch_window_us: u64,
    reap_period_us: u64,
    /// Completion token → the submitting connection's write half.
    router: Mutex<HashMap<u64, SharedWriter>>,
    /// Resolved listen address, used to self-connect on shutdown so the
    /// blocking accept loop wakes up.
    local: Listen,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking connection thread must not take the daemon down with
    // a poison cascade; the engine's state is all plain counters/queues.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Writes `reply` on `writer`, ignoring failures (a vanished client
    /// only loses its own reply).
    fn send(&self, writer: &SharedWriter, reply: &Reply) {
        let mut payload = Vec::new();
        reply.encode(&mut payload);
        let mut w = lock(writer);
        let _ = write_frame(&mut *w, &payload);
    }

    /// Routes engine completions back to their submitters.
    fn deliver(&self, completions: Vec<Completion>) {
        if completions.is_empty() {
            return;
        }
        // Resolve all writers under one router lock, then write with
        // the lock released (a slow client must not block routing).
        let resolved: Vec<(SharedWriter, Reply)> = {
            let mut router = lock(&self.router);
            completions
                .into_iter()
                .filter_map(|c| {
                    let writer = router.remove(&c.token)?;
                    let reply = match c.kind {
                        CompletionKind::Done {
                            outputs,
                            precise,
                            queued_us,
                        } => Reply::Outputs {
                            request_id: c.request_id,
                            precise,
                            queued_us,
                            outputs,
                        },
                        CompletionKind::TimedOut => Reply::TimedOut {
                            request_id: c.request_id,
                        },
                        CompletionKind::Failed { code, message } => Reply::Error {
                            request_id: c.request_id,
                            code,
                            message,
                        },
                    };
                    Some((writer, reply))
                })
                .collect()
        };
        for (writer, reply) in resolved {
            self.send(&writer, &reply);
        }
    }

    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.work.notify_all();
        // Unblock the accept loop.
        let _ = AnyStream::connect(&self.local);
    }
}

/// Everything [`Server::run`] hands back at shutdown: the wire-level
/// serving summary plus the engine's internal histograms, so the daemon
/// can export queue-depth / wait / occupancy distributions into its run
/// report.
pub struct RunStats {
    /// Final serving accounting.
    pub summary: ServingSummary,
    /// Queue-depth samples (one per accepted submit).
    pub queue_depth: telemetry::Histogram,
    /// Time-in-queue samples for served invocations, microseconds.
    pub queue_wait_us: telemetry::Histogram,
    /// NPU invocations per flushed batch.
    pub batch_occupancy: telemetry::Histogram,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    inner: Arc<Inner>,
    listener: AnyListener,
}

impl Server {
    /// Binds the listen address and wraps `engine`. For `tcp:…:0` the
    /// actual port is resolved, so tests can bind an ephemeral port and
    /// read it back via [`local`](Self::local).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(opts: &ServeOptions, engine: Engine) -> io::Result<Server> {
        let (listener, local) = match &opts.listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let resolved = Listen::Tcp(l.local_addr()?.to_string());
                (AnyListener::Tcp(l), resolved)
            }
            Listen::Unix(path) => {
                // A stale socket file from a crashed daemon blocks bind.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (AnyListener::Unix(l), Listen::Unix(path.clone()))
            }
        };
        Ok(Server {
            inner: Arc::new(Inner {
                engine: Mutex::new(engine),
                work: Condvar::new(),
                shutdown: AtomicBool::new(false),
                epoch: Instant::now(),
                batch_window_us: opts.batch_window_us,
                reap_period_us: opts.reap_period_us,
                router: Mutex::new(HashMap::new()),
                local,
            }),
            listener,
        })
    }

    /// The resolved listen address (ephemeral TCP ports filled in).
    pub fn local(&self) -> Listen {
        self.inner.local.clone()
    }

    /// Serves until a client sends [`Request::Shutdown`], then drains
    /// every queue (all pending requests still get replies) and returns
    /// the final serving summary.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors.
    pub fn run(self) -> io::Result<RunStats> {
        let batcher = {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || batcher_loop(&inner))?
        };
        let reaper = {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("serve-reaper".into())
                .spawn(move || reaper_loop(&inner))?
        };

        while !self.inner.shutdown.load(Ordering::SeqCst) {
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.inner.begin_shutdown();
                    let _ = batcher.join();
                    let _ = reaper.join();
                    return Err(e);
                }
            };
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let inner = Arc::clone(&self.inner);
            let _ = std::thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || connection_loop(&inner, stream));
        }

        let _ = batcher.join();
        let _ = reaper.join();
        if let Listen::Unix(path) = &self.inner.local {
            let _ = std::fs::remove_file(path);
        }
        let wall = self.inner.now_us();
        let engine = lock(&self.inner.engine);
        Ok(RunStats {
            summary: engine.summary(wall),
            queue_depth: engine.queue_depth_hist().clone(),
            queue_wait_us: engine.queue_wait_hist().clone(),
            batch_occupancy: engine.batch_occupancy_hist().clone(),
        })
    }
}

/// One connection: read frames until EOF, malformed input, or shutdown.
fn connection_loop(inner: &Arc<Inner>, stream: AnyStream) {
    // The periodic read timeout lets the loop observe shutdown even on
    // an idle connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue, // idle poll
            Err(_) => {
                // Framing is broken (oversized length, EOF mid-frame):
                // the stream cannot be resynchronized, drop it.
                lock(&inner.engine).record_protocol_error();
                return;
            }
        };
        match Request::decode(&payload) {
            Ok(req) => {
                if !handle_request(inner, &writer, req) {
                    return;
                }
            }
            Err(e) => {
                lock(&inner.engine).record_protocol_error();
                inner.send(
                    &writer,
                    &Reply::Error {
                        request_id: 0,
                        code: ErrorCode::Malformed,
                        message: proto_error_text(&e),
                    },
                );
                return;
            }
        }
    }
}

fn proto_error_text(e: &ProtoError) -> String {
    format!("undecodable frame: {e}")
}

/// Handles one decoded request; returns `false` when the connection
/// should close.
fn handle_request(inner: &Arc<Inner>, writer: &SharedWriter, req: Request) -> bool {
    match req {
        Request::Invoke {
            tenant,
            request_id,
            deadline_us,
            mode,
            inputs,
        } => {
            let now = inner.now_us();
            // The route must exist before a flush can complete the
            // request, so it is inserted under the router lock taken
            // before the engine lock. `deliver` and the reaper never take
            // the router lock while holding the engine lock, so this
            // order cannot deadlock.
            let mut router = lock(&inner.router);
            let outcome =
                lock(&inner.engine).submit(&tenant, request_id, deadline_us, mode, inputs, now);
            if let SubmitOutcome::Enqueued { token } = outcome {
                router.insert(token, Arc::clone(writer));
            }
            drop(router);
            match outcome {
                SubmitOutcome::Enqueued { .. } => inner.work.notify_all(),
                SubmitOutcome::Rejected { retry_after_us } => {
                    inner.send(
                        writer,
                        &Reply::Rejected {
                            request_id,
                            retry_after_us,
                        },
                    );
                }
                SubmitOutcome::UnknownTenant => inner.send(
                    writer,
                    &Reply::Error {
                        request_id,
                        code: ErrorCode::UnknownTenant,
                        message: format!("no tenant {tenant:?}"),
                    },
                ),
                SubmitOutcome::BadDimensions { expected, got } => inner.send(
                    writer,
                    &Reply::Error {
                        request_id,
                        code: ErrorCode::BadDimensions,
                        message: format!("expected {expected} inputs, got {got}"),
                    },
                ),
                SubmitOutcome::NoPrecisePath => inner.send(
                    writer,
                    &Reply::Error {
                        request_id,
                        code: ErrorCode::NoPrecisePath,
                        message: format!("tenant {tenant:?} has no precise region"),
                    },
                ),
            }
            true
        }
        Request::Ping => {
            inner.send(writer, &Reply::Pong);
            true
        }
        Request::Stats => {
            let wall = inner.now_us();
            let summary = lock(&inner.engine).summary(wall);
            let json = serde::json::to_string_pretty(&summary);
            inner.send(writer, &Reply::Stats { json });
            true
        }
        Request::Shutdown => {
            inner.send(writer, &Reply::ShutdownAck);
            inner.begin_shutdown();
            false
        }
    }
}

/// Flush policy: full batch → now; else oldest request may wait out the
/// batch window; shutdown → drain everything.
fn batcher_loop(inner: &Arc<Inner>) {
    let mut completions = Vec::new();
    loop {
        let mut engine = lock(&inner.engine);
        loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                let _span = telemetry::span("serve", "drain");
                let now = inner.now_us();
                drain(&mut engine, now, &mut completions);
                drop(engine);
                inner.deliver(std::mem::take(&mut completions));
                return;
            }
            let now = inner.now_us();
            if engine.has_full_batch() {
                break;
            }
            match engine.oldest_enqueued_us() {
                Some(oldest) if now.saturating_sub(oldest) >= inner.batch_window_us => break,
                Some(oldest) => {
                    let remaining = (oldest + inner.batch_window_us).saturating_sub(now);
                    let (g, _) = inner
                        .work
                        .wait_timeout(engine, Duration::from_micros(remaining.max(1)))
                        .unwrap_or_else(|e| e.into_inner());
                    engine = g;
                }
                None => {
                    let (g, _) = inner
                        .work
                        .wait_timeout(engine, Duration::from_millis(50))
                        .unwrap_or_else(|e| e.into_inner());
                    engine = g;
                }
            }
        }
        {
            let _span = telemetry::span("serve", "flush");
            let now = inner.now_us();
            engine.flush(now, &mut completions);
        }
        telemetry::record_sample("serve.pending", engine.pending_total() as f64);
        drop(engine);
        inner.deliver(std::mem::take(&mut completions));
    }
}

/// Periodically expires past-deadline requests so their clients get
/// timeout replies even when no flush is due.
fn reaper_loop(inner: &Arc<Inner>) {
    let mut completions = Vec::new();
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(inner.reap_period_us.max(100)));
        let now = inner.now_us();
        {
            let mut engine = lock(&inner.engine);
            engine.expire(now, &mut completions);
        }
        inner.deliver(std::mem::take(&mut completions));
    }
}
