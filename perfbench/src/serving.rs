//! `serve-batched` and `serve-paced`: load on an in-process
//! `parrot-serve` daemon over loopback TCP, from one generator thread.
//!
//! Both drive the default 4-tenant 8→16→4 fleet round-robin, with a
//! request-input stream and (paced) arrival schedule derived from the
//! workload seed. Every reply is compared bit for bit with a local
//! `NpuConfig::evaluate` on the same derived fleet.
//!
//! - `serve-batched`: closed loop, one connection, [`WINDOW`] requests
//!   outstanding, so every flush can be a full 16-lane batch.
//! - `serve-paced`: open loop at [`PACED_RATE`] requests/s with
//!   exponential gaps; latency is timed from each request's scheduled
//!   send time, and partial batches wait out the batch window.

use crate::stats::{median, quantile, Metrics, Samples};
use crate::trace::Tracer;
use crate::{common_metrics, timed_rotations, Config, Outcome};
use serve::engine::{Engine, EngineConfig};
use serve::fleet::{derive_fleet, request_inputs, FleetOptions};
use serve::proto::{InvokeMode, Reply, Request};
use serve::server::{Listen, RunStats, ServeOptions, Server};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::ServingSummary;

/// Outstanding requests in the closed loop: 16 per tenant, so each
/// tenant's queue fills a whole 16-lane batch.
pub const WINDOW: usize = 64;
/// Closed-loop requests per rotation.
const BATCHED_BLOCK: u64 = 4096;
/// Open-loop arrival rate, requests per second.
pub const PACED_RATE: f64 = 2000.0;
/// Open-loop requests per rotation (0.1 s of schedule).
const PACED_BLOCK: u64 = 200;
/// Distinct request inputs per tenant; the stream cycles through them.
const POOL: u64 = 1024;
/// Request-id bits naming the in-flight slot.
const SLOT_BITS: u32 = 10;
/// In-flight slots (the open loop may queue more than [`WINDOW`]).
const SLOTS: usize = 1 << SLOT_BITS;
/// Every how many traced requests one has its spans kept.
const SPAN_SAMPLE: u64 = 16;
/// A request still unanswered this long after it was sent counts as
/// lost. The daemon answers every request (outputs, rejection or
/// timeout) within its 1 s default deadline plus a reaper period.
const LOST_AFTER: Duration = Duration::from_secs(2);
/// Longest blocking read, so lost replies are noticed.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Which loop shape to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop with [`WINDOW`] outstanding.
    Batched,
    /// Open loop at [`PACED_RATE`].
    Paced,
}

/// Per-layer metrics the serve workloads measure (besides the common
/// ones); the last, `gen.late.p99_ms`, only `serve-paced`.
const LAYERS: [&str; 13] = [
    "serve.queue_wait.p50_us",
    "serve.queue_wait.p99_us",
    "serve.rtt.p50_us",
    "serve.wire.p50_us",
    "serve.batch_occupancy.mean",
    "serve.client.encode_ns",
    "serve.client.decode_ns",
    "npu.replay.batch16_us",
    "serve.rejected",
    "serve.timed_out",
    "serve.mismatched",
    "serve.lost",
    "gen.late.p99_ms",
];

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Batched => "serve-batched",
            Shape::Paced => "serve-paced",
        }
    }

    /// The per-layer metrics this shape measures.
    pub fn layers(self) -> &'static [&'static str] {
        match self {
            Shape::Batched => &LAYERS[..LAYERS.len() - 1],
            Shape::Paced => &LAYERS,
        }
    }
}

/// The daemon's engine settings: defaults, except a DRR quantum of one
/// full batch, so a tenant with 16 queued requests is served in one
/// flush instead of four.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        quantum: ann::LANES as u64,
        ..EngineConfig::default()
    }
}

/// The fleet both sides derive from the workload seed.
pub fn fleet_options(seed: u64) -> FleetOptions {
    FleetOptions {
        seed: ann::seed::mix_str(seed, "fleet"),
        ..FleetOptions::default()
    }
}

/// A request's tenant and input-pool index from its sequence number.
fn route(seq: u64, tenants: usize) -> (usize, u64) {
    let t = tenants as u64;
    ((seq % t) as usize, (seq / t) % POOL)
}

/// Precomputed request stream: tenant names, inputs, and the bits a
/// local `NpuConfig::evaluate` gives for each.
struct Stream {
    names: Vec<String>,
    inputs: Vec<Vec<Vec<f32>>>,
    expected: Vec<Vec<Vec<u32>>>,
    configs: Vec<npu::NpuConfig>,
}

impl Stream {
    fn new(opts: &FleetOptions) -> Stream {
        let fleet = derive_fleet(opts);
        let mut s = Stream {
            names: Vec::new(),
            inputs: Vec::new(),
            expected: Vec::new(),
            configs: Vec::new(),
        };
        for (t, tenant) in fleet.into_iter().enumerate() {
            let n_in = tenant.config.topology().inputs();
            let inputs: Vec<Vec<f32>> = (0..POOL)
                .map(|r| request_inputs(opts.seed, t, r, n_in))
                .collect();
            let expected = inputs
                .iter()
                .map(|x| {
                    tenant
                        .config
                        .evaluate(x)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect();
            s.names.push(tenant.name);
            s.inputs.push(inputs);
            s.expected.push(expected);
            s.configs.push(tenant.config);
        }
        s
    }
}

/// A request on the wire.
#[derive(Clone, Copy)]
struct InFlight {
    seq: u64,
    due: Instant,
    sent: Instant,
    encode_ns: u64,
    traced: bool,
}

/// Per-run tallies. Per-request values are sampled, so the generator's
/// memory does not grow with throughput.
#[derive(Default)]
struct Tally {
    sent: u64,
    completed: u64,
    rejected: u64,
    timed_out: u64,
    errors: u64,
    mismatched: u64,
    /// Requests whose reply never arrived.
    lost: u64,
    /// Latency of completed requests, ms (from due time), sent in
    /// untraced (`[0]`) and traced (`[1]`) rotations.
    latency_ms: [Samples; 2],
    rtt_us: Samples,
    queue_us: Samples,
    wire_us: Samples,
    late_ms: Samples,
    encode_ns: Samples,
    decode_ns: Samples,
    /// Traced requests: (sum of layer times, request time) in ns, for
    /// the accounting check.
    accounted: (f64, f64),
}

impl Tally {
    fn failed(&self) -> u64 {
        self.rejected + self.timed_out + self.errors + self.mismatched + self.lost
    }
}

/// One connection plus the generator's bookkeeping.
struct Generator {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    slots: Vec<Option<InFlight>>,
    free: Vec<usize>,
    next_seq: u64,
    requests: Stream,
    tally: Tally,
    recording: bool,
    tracing: bool,
    tracer: Tracer,
}

impl Generator {
    fn connect(addr: &str, requests: Stream) -> io::Result<Generator> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Generator {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
            outbuf: Vec::with_capacity(256),
            slots: vec![None; SLOTS],
            free: (0..SLOTS).rev().collect(),
            next_seq: 0,
            requests,
            tally: Tally::default(),
            recording: false,
            tracing: false,
            tracer: Tracer::default(),
        })
    }

    fn outstanding(&self) -> usize {
        SLOTS - self.free.len()
    }

    /// Writes one frame: length prefix and payload in a single write.
    fn write_frame_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.outbuf.clear();
        self.outbuf.extend_from_slice(&[0; 4]);
        fill(&mut self.outbuf);
        let len = (self.outbuf.len() - 4) as u32;
        self.outbuf[..4].copy_from_slice(&len.to_le_bytes());
        let mut written = 0;
        while written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends the next request of the stream, due at `due`.
    fn send_next(&mut self, due: Instant) -> io::Result<()> {
        let Some(slot) = self.free.pop() else {
            return Err(io::Error::other("no free in-flight slot"));
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let (tenant, r) = route(seq, self.requests.names.len());
        let req = Request::Invoke {
            tenant: self.requests.names[tenant].clone(),
            request_id: (seq << SLOT_BITS) | slot as u64,
            deadline_us: 0,
            mode: InvokeMode::Npu,
            inputs: self.requests.inputs[tenant][r as usize].clone(),
        };
        let sent = Instant::now();
        let tracing = self.tracing;
        let mut encode_ns = 0;
        self.write_frame_with(|buf| {
            if tracing {
                let t = Instant::now();
                req.encode(buf);
                encode_ns = t.elapsed().as_nanos() as u64;
            } else {
                req.encode(buf);
            }
        })?;
        if self.recording {
            self.tally.sent += 1;
            self.tally
                .late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        self.slots[slot] = Some(InFlight {
            seq,
            due,
            sent,
            encode_ns,
            traced: tracing,
        });
        Ok(())
    }

    /// Reads what the socket has (blocking or not, per the stream's
    /// mode) and handles every complete reply frame. Returns the number
    /// of requests settled: invocation replies handled, or requests
    /// found lost when nothing arrived.
    fn pump(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 1 << 14];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if is_idle(&e) => return Ok(self.reap_lost()),
            Err(e) => return Err(e),
        }
        let arrived = Instant::now();
        let mut handled = 0;
        let mut pos = 0;
        while self.inbuf.len() - pos >= 4 {
            let len =
                u32::from_le_bytes(self.inbuf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if self.inbuf.len() - pos - 4 < len {
                break;
            }
            let payload = &self.inbuf[pos + 4..pos + 4 + len];
            let (reply, decode_ns) = if self.tracing {
                let t = Instant::now();
                let reply = Reply::decode(payload);
                (reply, Some(t.elapsed().as_nanos() as u64))
            } else {
                (Reply::decode(payload), None)
            };
            pos += 4 + len;
            match reply {
                Ok(reply) => {
                    handled += usize::from(self.on_reply(reply, arrived, decode_ns));
                }
                Err(_) => self.tally.errors += 1,
            }
        }
        self.inbuf.drain(..pos);
        Ok(handled)
    }

    /// Handles one reply; `true` for an invocation reply. `decode_ns`
    /// is its decode time when the reply arrived in a traced block.
    fn on_reply(&mut self, reply: Reply, arrived: Instant, decode_ns: Option<u64>) -> bool {
        let (request_id, outcome) = match reply {
            Reply::Outputs {
                request_id,
                queued_us,
                outputs,
                precise,
            } => (request_id, Some((queued_us, outputs, precise))),
            Reply::Rejected { request_id, .. } => {
                self.tally.rejected += 1;
                (request_id, None)
            }
            Reply::TimedOut { request_id } => {
                self.tally.timed_out += 1;
                (request_id, None)
            }
            Reply::Error { request_id, .. } => {
                self.tally.errors += 1;
                (request_id, None)
            }
            _ => {
                self.tally.errors += 1;
                return false;
            }
        };
        let slot = (request_id & ((1 << SLOT_BITS) - 1)) as usize;
        let Some(fl) = self.slots[slot].filter(|f| f.seq == request_id >> SLOT_BITS) else {
            self.tally.errors += 1;
            return false;
        };
        self.slots[slot] = None;
        self.free.push(slot);
        let Some((queued_us, outputs, precise)) = outcome else {
            return true;
        };
        let (tenant, r) = route(fl.seq, self.requests.names.len());
        let bits: Vec<u32> = outputs.iter().map(|v| v.to_bits()).collect();
        if precise || bits != self.requests.expected[tenant][r as usize] {
            self.tally.mismatched += 1;
        }
        if !self.recording {
            return true;
        }
        let t = &mut self.tally;
        t.completed += 1;
        let rtt_us = arrived.saturating_duration_since(fl.sent).as_secs_f64() * 1e6;
        t.latency_ms[usize::from(fl.traced)]
            .push(arrived.saturating_duration_since(fl.due).as_secs_f64() * 1e3);
        t.rtt_us.push(rtt_us);
        t.queue_us.push(queued_us as f64);
        t.wire_us.push(rtt_us - queued_us as f64);
        if let (true, Some(decode_ns)) = (fl.traced, decode_ns) {
            t.encode_ns.push(fl.encode_ns as f64);
            t.decode_ns.push(decode_ns as f64);
            let parts = fl.encode_ns as f64 + decode_ns as f64 + queued_us as f64 * 1e3;
            let request_ns = rtt_us * 1e3 + decode_ns as f64;
            // The wire is the request's remainder, so the layers sum to
            // the request unless the measured parts overrun it.
            t.accounted.0 += parts.max(request_ns);
            t.accounted.1 += request_ns;
            if fl.seq % SPAN_SAMPLE == 0 {
                self.record_spans(&fl, arrived, decode_ns, queued_us);
            }
        }
        true
    }

    /// Keeps one request's spans: the request (whose self time is the
    /// wire: sockets, frames and thread hops), its encode and decode,
    /// and the server-reported queue wait placed just before the reply.
    fn record_spans(&mut self, fl: &InFlight, arrived: Instant, decode_ns: u64, queued_us: u64) {
        let tr = &mut self.tracer;
        let start = tr.clock_ns(fl.sent);
        let end_reply = tr.clock_ns(arrived);
        let id = tr.record("serve.request", fl.seq, start, end_reply + decode_ns, None);
        tr.record(
            "serve.client.encode",
            fl.seq,
            start,
            start + fl.encode_ns,
            Some(id),
        );
        let queue_start = end_reply
            .saturating_sub(queued_us * 1000)
            .max(start + fl.encode_ns);
        tr.record("serve.queue_wait", fl.seq, queue_start, end_reply, Some(id));
        tr.record(
            "serve.client.decode",
            fl.seq,
            end_reply,
            end_reply + decode_ns,
            Some(id),
        );
    }

    /// Sends a control request once nothing is outstanding and returns
    /// its reply.
    fn control(&mut self, req: &Request) -> io::Result<Reply> {
        self.write_frame_with(|buf| req.encode(buf))?;
        loop {
            if self.inbuf.len() >= 4 {
                let len = u32::from_le_bytes(self.inbuf[..4].try_into().expect("4 bytes")) as usize;
                if self.inbuf.len() >= 4 + len {
                    let reply = Reply::decode(&self.inbuf[4..4 + len])
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    self.inbuf.drain(..4 + len);
                    return Ok(reply);
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if is_idle(&e) => std::thread::sleep(Duration::from_micros(50)),
                Err(e) => return Err(e),
            }
        }
    }

    fn stats(&mut self) -> Result<ServingSummary, String> {
        match self
            .control(&Request::Stats)
            .map_err(|e| format!("stats: {e}"))?
        {
            Reply::Stats { json } => {
                serde::json::from_str(&json).map_err(|e| format!("stats reply: {e:?}"))
            }
            other => Err(format!("stats: unexpected reply {other:?}")),
        }
    }

    /// Frees the slots of requests older than [`LOST_AFTER`], counting
    /// them lost; returns how many.
    fn reap_lost(&mut self) -> usize {
        let now = Instant::now();
        let mut lost = 0;
        for (slot, fl) in self.slots.iter_mut().enumerate() {
            if fl.is_some_and(|f| now.saturating_duration_since(f.sent) > LOST_AFTER) {
                *fl = None;
                self.free.push(slot);
                lost += 1;
            }
        }
        self.tally.lost += lost as u64;
        lost
    }

    /// Waits until every outstanding request has its reply or is lost.
    fn drain(&mut self) -> Result<(), String> {
        while self.outstanding() > 0 {
            if self.pump().map_err(|e| format!("drain: {e}"))? == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Ok(())
    }

    /// Closed loop: keeps [`WINDOW`] outstanding until `n` more
    /// invocation replies have arrived.
    fn closed_loop(&mut self, n: u64) -> io::Result<()> {
        let mut done = 0;
        while self.outstanding() < WINDOW {
            self.send_next(Instant::now())?;
        }
        while done < n {
            done += self.pump()? as u64;
            while self.outstanding() < WINDOW {
                self.send_next(Instant::now())?;
            }
        }
        Ok(())
    }

    /// Open loop: sends `n` requests at the times `schedule` gives,
    /// handling replies in between.
    fn open_loop(&mut self, n: u64, schedule: &mut Schedule) -> io::Result<()> {
        let mut sent = 0;
        while sent < n {
            let now = Instant::now();
            while sent < n && schedule.next_due <= now {
                let due = schedule.next_due;
                self.send_next(due)?;
                schedule.advance();
                sent += 1;
            }
            if self.pump()? == 0 && sent < n {
                let wait = schedule.next_due.saturating_duration_since(Instant::now());
                std::thread::sleep(wait.min(Duration::from_micros(100)));
            }
        }
        Ok(())
    }
}

/// A read that found nothing to read (timeout, non-blocking, signal).
fn is_idle(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Seeded Poisson arrival schedule at [`PACED_RATE`].
struct Schedule {
    next_due: Instant,
    state: u64,
}

impl Schedule {
    fn new(seed: u64, start: Instant) -> Schedule {
        let mut s = Schedule {
            next_due: start,
            state: ann::seed::mix_str(seed, "arrivals"),
        };
        s.advance();
        s
    }

    /// Moves to the next arrival: an exponential gap with mean
    /// 1/[`PACED_RATE`], from a splitmix64 stream.
    fn advance(&mut self) {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        self.next_due += Duration::from_secs_f64(-u.ln() / PACED_RATE);
    }
}

/// A running in-process daemon and the generator connected to it.
struct Session {
    generator: Generator,
    daemon: Option<JoinHandle<io::Result<RunStats>>>,
}

impl Session {
    fn start(seed: u64) -> Result<Session, String> {
        let opts = fleet_options(seed);
        let engine = Engine::new(engine_config(), derive_fleet(&opts));
        let serve_opts = ServeOptions {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        };
        let server = Server::bind(&serve_opts, engine).map_err(|e| format!("bind: {e}"))?;
        let Listen::Tcp(addr) = server.local() else {
            return Err("daemon did not bind tcp".into());
        };
        let daemon = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut session = Session {
            generator: Generator::connect(&addr, Stream::new(&opts))
                .map_err(|e| format!("connect: {e}"))?,
            daemon: Some(daemon),
        };
        match session.generator.control(&Request::Ping) {
            Ok(Reply::Pong) => Ok(session),
            other => {
                session.shutdown().ok();
                Err(format!("daemon did not answer ping: {other:?}"))
            }
        }
    }

    /// Stops the daemon and waits for its thread.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        self.generator.stream.set_nonblocking(false).ok();
        let ack = self.generator.control(&Request::Shutdown);
        let joined = daemon.join();
        match (ack, joined) {
            (Ok(Reply::ShutdownAck), Ok(Ok(_))) => Ok(()),
            (ack, joined) => Err(format!(
                "daemon shutdown: ack {:?}, exit {:?}",
                ack.map(|_| ()),
                joined.map(|r| r.map(|_| ()))
            )),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Requests in the untimed warm-up.
const WARMUP_REQUESTS: u64 = 2 * BATCHED_BLOCK;

/// Runs one of the serve workloads.
///
/// # Errors
///
/// Fails when the daemon cannot be started or the connection breaks.
pub fn run(cfg: &Config, shape: Shape) -> Result<Outcome, String> {
    let (mut session, setup_s) = crate::stats::repeated_setup(|| {
        let mut s = Session::start(cfg.seed)?;
        let g = &mut s.generator;
        match shape {
            Shape::Batched => g.closed_loop(WARMUP_REQUESTS),
            Shape::Paced => {
                g.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                let mut warm = Schedule::new(cfg.seed ^ 1, Instant::now());
                g.open_loop(PACED_BLOCK, &mut warm)
            }
        }
        .map_err(|e| format!("warm-up: {e}"))?;
        g.drain()?;
        Ok(s)
    })?;
    if cfg.print_reference {
        return Ok(Outcome::default());
    }
    let g = &mut session.generator;
    let before = g.stats()?;
    let warm_failed = g.tally.failed();

    let batch16_us = if cfg.trace {
        batch16_us(&g.requests)
    } else {
        0.0
    };
    g.recording = true;
    let mut schedule = Schedule::new(cfg.seed, Instant::now());
    let mut error = None;
    let (_, elapsed_s) = timed_rotations(cfg, |i| {
        if error.is_some() {
            return;
        }
        g.tracing = cfg.trace && i % 2 == 0;
        let res = match shape {
            Shape::Batched => g.closed_loop(BATCHED_BLOCK),
            Shape::Paced => g.open_loop(PACED_BLOCK, &mut schedule),
        };
        if let Err(e) = res {
            error = Some(format!("load: {e}"));
        }
    });
    let completed_in_window = g.tally.completed;
    g.tracing = false;
    if let Some(e) = error {
        return Err(e);
    }
    let mut problems = Vec::new();
    if let Err(e) = g.drain() {
        problems.push(e);
    }
    let after = g.stats()?;
    if cfg.trace {
        crate::write_spans(shape.name(), &g.tracer);
    }
    session.shutdown()?;
    let t = &session.generator.tally;

    let attempted = t.sent;
    let failed = t.failed() - warm_failed;
    if t.failed() > 0 {
        problems.push(format!(
            "{} rejected, {} timed out, {} errors, {} mismatched, {} replies never arrived \
             ({warm_failed} of these in the warm-up)",
            t.rejected, t.timed_out, t.errors, t.mismatched, t.lost
        ));
    }
    let mut metrics = Metrics::default();
    common_metrics(
        &mut metrics,
        setup_s,
        &[t.latency_ms[0].values(), t.latency_ms[1].values()].concat(),
        completed_in_window as f64 / elapsed_s,
    );
    metrics.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    metrics.set("serve.queue_wait.p50_us", median(t.queue_us.values()));
    metrics.set(
        "serve.queue_wait.p99_us",
        quantile(t.queue_us.values(), 0.99),
    );
    metrics.set("serve.rtt.p50_us", median(t.rtt_us.values()));
    metrics.set("serve.wire.p50_us", median(t.wire_us.values()));
    let batches = after.batches.saturating_sub(before.batches);
    let served = after.batch_occupancy_mean * after.batches as f64
        - before.batch_occupancy_mean * before.batches as f64;
    metrics.set("serve.batch_occupancy.mean", served / batches.max(1) as f64);
    metrics.set("serve.rejected", t.rejected as f64);
    metrics.set("serve.timed_out", t.timed_out as f64);
    metrics.set("serve.mismatched", t.mismatched as f64);
    metrics.set("serve.lost", t.lost as f64);
    if shape == Shape::Paced {
        metrics.set("gen.late.p99_ms", quantile(t.late_ms.values(), 0.99));
    }
    if cfg.trace {
        metrics.set("serve.client.encode_ns", median(t.encode_ns.values()));
        metrics.set("serve.client.decode_ns", median(t.decode_ns.values()));
        metrics.set("npu.replay.batch16_us", batch16_us);
        metrics.set("trace.accounted_frac", t.accounted.0 / t.accounted.1);
        metrics.set(
            "trace.op_p50_ratio",
            median(t.latency_ms[1].values()) / median(t.latency_ms[0].values()),
        );
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// Median µs of `BatchEvaluator::run_flat` on one full 16-lane batch of
/// the first tenant, outside the timed phase.
fn batch16_us(requests: &Stream) -> f64 {
    let config = &requests.configs[0];
    let flat: Vec<f32> = requests.inputs[0][..ann::LANES].concat();
    let mut eval = npu::BatchEvaluator::new();
    let mut out = Vec::new();
    let mut times = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        eval.run_flat(config, std::hint::black_box(&flat), &mut out);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    std::hint::black_box(&out);
    median(&times)
}
