//! The out-of-order pipeline model.

use crate::cache::MemoryHierarchy;
use crate::npu_iface::NpuAttachment;
use crate::predictor::BranchPredictor;
use crate::{CoreConfig, SimStats};
use approx_ir::{OpClass, TraceEvent, TraceSink};
use npu::NpuSim;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

const FETCH_BUFFER_CAP: usize = 64;
const FEED_HIGH_WATER: usize = 4096;
const STALL_GUARD: u64 = 1_000_000;
/// "No producer". Absolute ROB indices start at 1, so this reads as an
/// instruction that committed before the simulation began.
const NONE: u64 = 0;
/// `Slot::done_at` of an instruction that has not issued yet.
const NOT_ISSUED: u64 = u64::MAX;

/// Process-wide high-water mark of any core's streaming input buffer, in
/// trace events. The sweep driver resets it before a run and reports it in
/// the run report, substantiating that cycle-level simulation never
/// materialises a full trace ([`FEED_HIGH_WATER`] bounds it by design).
static PEAK_TRACE_BUFFER: AtomicU64 = AtomicU64::new(0);

/// The largest streaming input buffer any [`Core`] reached (in events)
/// since the last [`reset_peak_trace_buffer`]. Folded in at
/// [`Core::finish`] time.
pub fn peak_trace_buffer() -> u64 {
    PEAK_TRACE_BUFFER.load(Ordering::Relaxed)
}

/// Resets the process-wide peak trace-buffer high-water mark.
pub fn reset_peak_trace_buffer() {
    PEAK_TRACE_BUFFER.store(0, Ordering::Relaxed);
}

/// Multiplicative hasher for the store map's word-address keys: one
/// multiply, then the well-mixed high half folded into the low bits the
/// table indexes with, so power-of-two strides do not collide.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the store map hashes only u64 keys")
    }

    fn write_u64(&mut self, word: u64) {
        let h = word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    class: OpClass,
    /// Load forwarded from an in-flight store (skips the cache).
    forwarded: bool,
    /// Byte address of a load or store.
    mem_addr: u64,
    /// Producer slots (absolute ROB indices, or [`NONE`]) this instruction
    /// waits on: up to three register sources, plus one for store-to-load
    /// or NPU serialization dependences.
    deps: [u64; 4],
    /// Cycle the result is produced ([`NOT_ISSUED`] until issue). The slot
    /// counts as done, for its consumers and for commit, once this is
    /// `<= now`.
    done_at: u64,
    /// Head of the list of waiting instructions whose first unissued
    /// producer is this one ([`NONE`] when empty), linked through their
    /// `next_waiter`. Drained when this instruction issues.
    waiters: u64,
    /// The next instruction on the waiter list this one sits on.
    next_waiter: u64,
}

const EMPTY_SLOT: Slot = Slot {
    class: OpClass::IntAlu,
    forwarded: false,
    mem_addr: 0,
    deps: [NONE; 4],
    done_at: NOT_ISSUED,
    waiters: NONE,
    next_waiter: NONE,
};

/// Per-cycle stall counters: `rob_full_stalls`, `iq_full_stalls`,
/// `lsq_full_stalls`.
type Stalls = [u64; 3];

/// The trace-driven out-of-order core.
///
/// Feed it dynamic instructions (it implements
/// [`TraceSink`](approx_ir::TraceSink), so it can be passed straight to
/// `Interpreter::run_traced`), then call [`finish`](Core::finish) to drain
/// the pipeline and read the final [`SimStats`].
///
/// The clock is event driven: the pipeline stages run only in cycles in
/// which one of them can act. The cycles in between are accounted exactly
/// as if every stage had run in each.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    stats: SimStats,
    hierarchy: MemoryHierarchy,
    predictor: BranchPredictor,
    npu: NpuAttachment,
    /// Core-side cycle each not-yet-dequeued ideal-NPU output becomes
    /// visible.
    ideal_outputs: VecDeque<u64>,

    cycle: u64,
    /// Events fed but not yet dispatched. The first `fetch_ready.len()`
    /// have been fetched; the rest are the streaming input buffer.
    input: VecDeque<TraceEvent>,
    /// Dispatch-ready cycle of each fetched event at the front of `input`
    /// (the fetch buffer).
    fetch_ready: VecDeque<u64>,
    /// In-flight window as a power-of-two ring: absolute index `abs` lives
    /// at `rob[abs & rob_mask]`; `rob_base` is the oldest in-flight index
    /// and `rob_len` the occupancy.
    rob: Vec<Slot>,
    rob_mask: u64,
    rob_base: u64,
    rob_len: usize,
    /// Issue-queue occupancy: in-flight instructions not yet issued. Each
    /// sits in exactly one of three places: on the waiter list of its
    /// first unissued producer, in `due` (every producer has issued, an
    /// operand is still in flight) or in `ready`.
    iq_len: usize,
    /// `(cycle every operand is available, absolute index)` of waiting
    /// instructions whose producers have all issued but whose operands
    /// come later than the next issue walk, earliest first.
    due: BinaryHeap<Reverse<(u64, u64)>>,
    /// One bit per ROB ring slot: the instruction there has its operands
    /// by the next issue walk and waits only for a unit. Walked from
    /// `rob_base`'s slot, which is age order.
    ready: Vec<u64>,
    /// The copy of `ready` an issue walk reads.
    walk: Vec<u64>,
    /// Last writer (absolute index, or [`NONE`]) of each register number.
    reg_producer: Vec<u64>,
    /// Youngest in-flight store per word address.
    store_map: HashMap<u64, u64, BuildHasherDefault<WordHasher>>,
    /// Serialization chain for NPU queue instructions.
    last_npu: u64,
    /// In-flight load/store queue occupancy.
    lq_used: usize,
    sq_used: usize,
    /// Fetch redirect state.
    fetch_stalled_until: u64,
    fetch_blocked_on: Option<u64>,
    /// Non-pipelined FP unit reservations.
    fp_unit_busy: Vec<u64>,
    last_commit_cycle: u64,
    /// High-water mark of the unfetched part of `input`.
    input_peak: usize,
    /// If no stage acted in the last cycle the stages ran: the stall
    /// counts that cycle added, which every cycle up to the next wake-up
    /// adds again.
    idle_stalls: Option<Stalls>,
}

impl Core {
    /// Creates a core with no NPU attached.
    pub fn new(cfg: CoreConfig) -> Self {
        Core::with_attachment(cfg, NpuAttachment::None)
    }

    /// Creates a core with a pre-configured cycle-accurate NPU. The NPU
    /// runs at the core's clock; `enq.d` values travel the link in
    /// `cfg.npu_link_latency` cycles each way.
    pub fn with_npu(cfg: CoreConfig, npu: NpuSim) -> Self {
        Core::with_attachment(cfg, NpuAttachment::Cycle(Box::new(npu)))
    }

    /// Creates a core attached to a hypothetical zero-cycle NPU for a
    /// region with `n_inputs`/`n_outputs` (Figure 8's "Core + Ideal NPU").
    pub fn with_ideal_npu(cfg: CoreConfig, n_inputs: usize, n_outputs: usize) -> Self {
        Core::with_attachment(cfg, NpuAttachment::ideal(n_inputs, n_outputs))
    }

    /// Creates a core with an explicit attachment.
    pub fn with_attachment(cfg: CoreConfig, npu: NpuAttachment) -> Self {
        let ring = cfg.rob_entries.next_power_of_two();
        Core {
            hierarchy: MemoryHierarchy::new(cfg.l1d, cfg.l2, cfg.mem_latency),
            predictor: BranchPredictor::new(cfg.gshare_bits, cfg.btb_entries, cfg.ras_entries),
            npu,
            ideal_outputs: VecDeque::new(),
            stats: SimStats::default(),
            cycle: 0,
            // Sized once for the most it ever holds, so it never regrows.
            input: VecDeque::with_capacity(FEED_HIGH_WATER + FETCH_BUFFER_CAP),
            fetch_ready: VecDeque::with_capacity(FETCH_BUFFER_CAP),
            rob: vec![EMPTY_SLOT; ring],
            rob_mask: ring as u64 - 1,
            rob_base: NONE + 1,
            rob_len: 0,
            iq_len: 0,
            due: BinaryHeap::with_capacity(cfg.iq_entries),
            ready: vec![0; ring.div_ceil(64)],
            walk: Vec::new(),
            reg_producer: Vec::new(),
            store_map: HashMap::default(),
            last_npu: NONE,
            lq_used: 0,
            sq_used: 0,
            fetch_stalled_until: 0,
            fetch_blocked_on: None,
            fp_unit_busy: vec![0; cfg.fp_units],
            last_commit_cycle: 0,
            input_peak: 0,
            idle_stalls: None,
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far (final values only after [`finish`](Core::finish)).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The attached NPU's statistics, if a cycle-accurate NPU is attached.
    pub fn npu_stats(&self) -> Option<npu::NpuStats> {
        match &self.npu {
            NpuAttachment::Cycle(sim) => Some(sim.stats()),
            _ => None,
        }
    }

    /// The attached NPU's per-invocation latency distribution (simulated
    /// cycles), if a cycle-accurate NPU is attached.
    pub fn npu_invocation_cycles(&self) -> Option<telemetry::Histogram> {
        match &self.npu {
            NpuAttachment::Cycle(sim) => Some(sim.invocation_cycles().clone()),
            _ => None,
        }
    }

    /// Feeds one dynamically executed instruction. The core advances its
    /// pipeline as needed to keep its internal buffers bounded, so memory
    /// use stays constant for arbitrarily long traces.
    pub fn feed(&mut self, ev: TraceEvent) {
        self.input.push_back(ev);
        self.input_peak = self.input_peak.max(self.unfetched());
        while self.unfetched() >= FEED_HIGH_WATER {
            self.step_guarded();
        }
    }

    /// High-water mark of this core's streaming input buffer (events fed
    /// but not yet fetched). Bounded by the feed back-pressure threshold
    /// regardless of trace length.
    pub fn input_buffer_peak(&self) -> usize {
        self.input_peak
    }

    /// Drains the pipeline and returns the final statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no commit for a very long time) —
    /// that indicates a protocol bug, e.g. a `deq.d` with no matching NPU
    /// output.
    pub fn finish(&mut self) -> SimStats {
        while !self.input.is_empty() || self.rob_len > 0 {
            self.step_guarded();
        }
        if let NpuAttachment::Cycle(sim) = &mut self.npu {
            sim.advance_to(self.cycle);
        }
        self.stats.cycles = self.cycle;
        self.stats.bp_lookups = self.predictor.lookups();
        self.stats.bp_mispredicts = self.predictor.mispredicts();
        self.stats.l1d_hits = self.hierarchy.l1d().hits();
        self.stats.l1d_misses = self.hierarchy.l1d().misses();
        self.stats.l2_hits = self.hierarchy.l2().hits();
        self.stats.l2_misses = self.hierarchy.l2().misses();
        self.stats.mem_accesses = self.hierarchy.mem_accesses();
        PEAK_TRACE_BUFFER.fetch_max(self.input_peak as u64, Ordering::Relaxed);
        telemetry::emit(telemetry::Level::Info, "uarch::core", || {
            telemetry::EventKind::SimDone {
                cycles: self.stats.cycles,
                committed: self.stats.committed,
            }
        });
        self.stats
    }

    // ------------------------------------------------------------------

    /// The slot of an in-flight absolute index.
    fn slot(&self, abs: u64) -> &Slot {
        &self.rob[(abs & self.rob_mask) as usize]
    }

    fn slot_mut(&mut self, abs: u64) -> &mut Slot {
        &mut self.rob[(abs & self.rob_mask) as usize]
    }

    /// Events fed but not yet fetched.
    fn unfetched(&self) -> usize {
        self.input.len() - self.fetch_ready.len()
    }

    /// [`step`](Self::step), failing loudly instead of spinning forever
    /// when nothing has committed for [`STALL_GUARD`] cycles.
    fn step_guarded(&mut self) {
        self.step();
        assert!(
            self.cycle - self.last_commit_cycle < STALL_GUARD,
            "pipeline deadlock at cycle {}: rob={} iq={} head={:?}",
            self.cycle,
            self.rob_len,
            self.iq_len,
            (self.rob_len > 0).then(|| self.slot(self.rob_base)),
        );
    }

    /// Advances to the next cycle in which a stage can act and runs the
    /// stages in it. A cycle in which no stage acts is idle: only the
    /// dispatch stall counters moved, and the next step skips ahead.
    fn step(&mut self) {
        self.advance();
        let now = self.cycle;
        let before = self.stalls();
        // Every stage runs (no short-circuit); each reports whether it
        // changed the pipeline.
        let acted = self.writeback(now)
            | self.commit(now)
            | self.issue(now)
            | self.dispatch(now)
            | self.fetch(now);
        self.idle_stalls = (!acted).then(|| {
            let after = self.stalls();
            [0, 1, 2].map(|i| after[i] - before[i])
        });
    }

    fn stalls(&self) -> Stalls {
        [
            self.stats.rob_full_stalls,
            self.stats.iq_full_stalls,
            self.stats.lsq_full_stalls,
        ]
    }

    /// Moves the clock to the next cycle in which a stage can act: after a
    /// busy cycle the next one, after an idle cycle the core's state is
    /// frozen until [`wake`](Self::wake) (or the deadlock guard's cycle).
    fn advance(&mut self) {
        let Some(stalls) = self.idle_stalls else {
            self.cycle += 1;
            return;
        };
        let wake = self
            .wake(self.cycle)
            .min(self.last_commit_cycle + STALL_GUARD);
        // Each skipped cycle adds the idle cycle's stall counts.
        let skipped = wake - self.cycle - 1;
        self.stats.rob_full_stalls += stalls[0] * skipped;
        self.stats.iq_full_stalls += stalls[1] * skipped;
        self.stats.lsq_full_stalls += stalls[2] * skipped;
        self.cycle = wake;
    }

    /// The earliest cycle after an idle cycle `now` in which a stage can
    /// act: a waiting instruction's operands (the earliest `due` entry) or
    /// the ROB head become ready, the branch fetch waits on resolves, an
    /// unpipelined FP unit frees, an NPU output becomes visible, an NPU
    /// invocation frees entries of a full input FIFO, the fetch-buffer
    /// head becomes dispatchable, or a fetch redirect ends. Every other
    /// condition a stage waits on changes only when some stage acts.
    fn wake(&self, now: u64) -> u64 {
        let head = (self.rob_len > 0).then(|| self.slot(self.rob_base).done_at);
        let branch = self
            .fetch_blocked_on
            .filter(|&b| b < self.rob_base + self.rob_len as u64)
            .map(|b| self.slot(b).done_at);
        self.due
            .peek()
            .map(|&Reverse((at, _))| at)
            .into_iter()
            .chain(head)
            .chain(branch)
            .chain(self.fp_unit_busy.iter().copied())
            .chain(self.npu_wakes().into_iter().flatten())
            .chain(self.fetch_ready.front().copied())
            .chain([self.fetch_stalled_until])
            .filter(|&at| at > now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// A resolving mispredicted branch un-blocks fetch after the front-end
    /// refill penalty. Results need no other writeback: consumers and
    /// commit read `done_at` directly. The branch is seen here in the very
    /// cycle its result is produced, before it can commit.
    fn writeback(&mut self, now: u64) -> bool {
        let Some(branch) = self.fetch_blocked_on else {
            return false;
        };
        let dispatched = branch < self.rob_base + self.rob_len as u64;
        if !dispatched || self.slot(branch).done_at > now {
            return false;
        }
        self.fetch_blocked_on = None;
        self.fetch_stalled_until = now + self.cfg.mispredict_refill;
        if telemetry::enabled(telemetry::Level::Trace) {
            telemetry::emit(telemetry::Level::Trace, "uarch::core", || {
                telemetry::EventKind::BranchMispredict { cycle: now }
            });
        }
        true
    }

    fn commit(&mut self, now: u64) -> bool {
        let base = self.rob_base;
        for _ in 0..self.cfg.commit_width {
            if self.rob_len == 0 || self.slot(self.rob_base).done_at > now {
                break;
            }
            let slot = *self.slot(self.rob_base);
            let abs = self.rob_base;
            self.rob_base += 1;
            self.rob_len -= 1;
            self.last_commit_cycle = now;
            self.stats.committed += 1;
            match slot.class {
                OpClass::IntAlu => self.stats.int_ops += 1,
                OpClass::FpAdd => self.stats.fp_add_ops += 1,
                OpClass::FpMul => self.stats.fp_mul_ops += 1,
                OpClass::FpDiv => self.stats.fp_div_ops += 1,
                OpClass::FpSqrt => self.stats.fp_sqrt_ops += 1,
                OpClass::FpTrig => self.stats.fp_trig_ops += 1,
                OpClass::Load => self.stats.loads += 1,
                OpClass::Store => self.stats.stores += 1,
                OpClass::Branch | OpClass::Jump | OpClass::Call | OpClass::Ret => {
                    self.stats.branches += 1
                }
                OpClass::NpuEnqD | OpClass::NpuDeqD | OpClass::NpuEnqC | OpClass::NpuDeqC => {
                    self.stats.npu_queue_ops += 1
                }
            }
            match slot.class {
                OpClass::Load => self.lq_used -= 1,
                OpClass::Store => {
                    self.sq_used -= 1;
                    // The store drains from the store queue to the cache at
                    // commit (write-buffer semantics: latency is hidden).
                    self.hierarchy.access(slot.mem_addr);
                    // Drop the disambiguation entry unless a younger
                    // in-flight store to the same word replaced it.
                    if let Entry::Occupied(entry) = self.store_map.entry(slot.mem_addr / 4) {
                        if *entry.get() == abs {
                            entry.remove();
                        }
                    }
                }
                _ => {}
            }
        }
        self.rob_base != base
    }

    /// The cycle every operand of `abs` is available, or `Err` with the
    /// first in-flight producer that has not issued yet. A producer that
    /// has committed (or is [`NONE`]) is available.
    fn operands_ready_at(&self, abs: u64) -> Result<u64, u64> {
        let mut ready_at = 0;
        for &dep in &self.slot(abs).deps {
            if dep >= self.rob_base {
                let done_at = self.slot(dep).done_at;
                if done_at == NOT_ISSUED {
                    return Err(dep);
                }
                ready_at = ready_at.max(done_at);
            }
        }
        Ok(ready_at)
    }

    /// Files waiting instruction `abs` by its operands at cycle `now`: on
    /// the waiter list of its first unissued producer, in `due` until its
    /// last operand arrives, or in the ready mask.
    fn schedule(&mut self, abs: u64, now: u64) {
        match self.operands_ready_at(abs) {
            Err(producer) => {
                let next = std::mem::replace(&mut self.slot_mut(producer).waiters, abs);
                self.slot_mut(abs).next_waiter = next;
            }
            // Dispatch runs after issue, and an issuing producer's result
            // comes at `now + 1` at the earliest: either way the next issue
            // walk, which reads the mask, is at `now + 1` or later.
            Ok(at) if at <= now + 1 => self.mark_ready(abs),
            Ok(at) => self.due.push(Reverse((at, abs))),
        }
    }

    fn mark_ready(&mut self, abs: u64) {
        let slot = (abs & self.rob_mask) as usize;
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    /// Issues ready instructions oldest first, at most `issue_width` of
    /// them, each on a free unit of its class. A producer's `done_at` is
    /// at least `now + 1`, so nothing it wakes is ready in this cycle: the
    /// walk sees exactly the instructions a scan of the whole issue queue
    /// in age order would find ready.
    fn issue(&mut self, now: u64) -> bool {
        while let Some(&Reverse((at, abs))) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            self.mark_ready(abs);
        }
        let mut int_tokens = self.cfg.int_alus;
        let mut fp_tokens = self.cfg.fp_units;
        let mut load_tokens = self.cfg.load_units;
        let mut store_tokens = self.cfg.store_units;
        let mut budget = self.cfg.issue_width;
        let lat = self.cfg.latencies;

        // The walk reads a copy of the mask, so an instruction woken during
        // it waits for the next cycle. Age order is ring order from the
        // oldest slot: its word from that bit up, the words after it, the
        // words before it, then its word below that bit.
        let mut walk = std::mem::take(&mut self.walk);
        walk.clone_from(&self.ready);
        let head = (self.rob_base & self.rob_mask) as usize;
        let (first, below) = (head / 64, (1u64 << (head % 64)) - 1);
        'walk: for k in 0..=walk.len() {
            let word = (first + k) % walk.len();
            let mut bits = match k {
                0 => walk[word] & !below,
                _ if k == walk.len() => walk[word] & below,
                _ => walk[word],
            };
            while bits != 0 {
                if budget == 0 {
                    break 'walk;
                }
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let class = self.rob[slot].class;
                // Functional unit / structural checks. The integer ALUs also
                // resolve branches and execute the NPU queue instructions.
                let tokens = match class {
                    OpClass::FpAdd
                    | OpClass::FpMul
                    | OpClass::FpDiv
                    | OpClass::FpSqrt
                    | OpClass::FpTrig => &mut fp_tokens,
                    OpClass::Load => &mut load_tokens,
                    OpClass::Store => &mut store_tokens,
                    _ => &mut int_tokens,
                };
                if *tokens == 0 {
                    continue;
                }
                let latency = match class {
                    OpClass::IntAlu => lat.int_alu,
                    OpClass::FpAdd => lat.fp_add,
                    OpClass::FpMul => lat.fp_mul,
                    OpClass::FpDiv | OpClass::FpSqrt | OpClass::FpTrig => {
                        let latency = match class {
                            OpClass::FpDiv => lat.fp_div,
                            OpClass::FpSqrt => lat.fp_sqrt,
                            _ => lat.fp_trig,
                        };
                        // Unpipelined: needs a unit whose divider is free.
                        let Some(unit) = self
                            .fp_unit_busy
                            .iter()
                            .position(|&busy_until| busy_until <= now)
                        else {
                            continue;
                        };
                        self.fp_unit_busy[unit] = now + latency;
                        latency
                    }
                    OpClass::Load if self.rob[slot].forwarded => 1, // store-to-load forwarding
                    OpClass::Load => self.hierarchy.access(self.rob[slot].mem_addr),
                    OpClass::Store => 1, // address/data into the store queue
                    OpClass::Branch | OpClass::Jump | OpClass::Call | OpClass::Ret => lat.branch,
                    OpClass::NpuEnqD => {
                        if !self.npu_enq(now) {
                            continue;
                        }
                        lat.npu_queue
                    }
                    OpClass::NpuDeqD => {
                        if !self.npu_deq(now) {
                            continue;
                        }
                        lat.npu_queue
                    }
                    // Non-speculative configuration traffic: one word per
                    // cycle through the config FIFO.
                    OpClass::NpuEnqC | OpClass::NpuDeqC => lat.npu_queue,
                };
                *tokens -= 1;
                budget -= 1;
                self.iq_len -= 1;
                self.ready[slot / 64] &= !(1 << (slot % 64));
                // A zero latency still produces its result at the next cycle's
                // writeback, never within the cycle it issues.
                self.rob[slot].done_at = now + latency.max(1);
                // File the consumers waiting on this result again.
                let mut waiter = std::mem::replace(&mut self.rob[slot].waiters, NONE);
                while waiter != NONE {
                    let next = self.slot(waiter).next_waiter;
                    self.schedule(waiter, now);
                    waiter = next;
                }
            }
        }
        self.walk = walk;
        budget != self.cfg.issue_width
    }

    /// Issues an `enq.d` if the input FIFO has room, counting the values
    /// still on the CPU→NPU link. Returns whether it issued.
    fn npu_enq(&mut self, now: u64) -> bool {
        let link = self.cfg.npu_link_latency;
        match &mut self.npu {
            NpuAttachment::None => {}
            NpuAttachment::Cycle(sim) => {
                sim.advance_to(now);
                if !sim.input_has_space() {
                    return false;
                }
                // Timing only: the values come from the interpreter's
                // functional NPU port. The value lands after the link
                // latency, and never within the cycle it is sent.
                sim.enqueue_input_at(now + link.max(1));
                sim.commit_inputs(1);
            }
            NpuAttachment::Ideal {
                n_inputs,
                n_outputs,
                pending_inputs,
            } => {
                *pending_inputs += 1;
                if *pending_inputs == *n_inputs {
                    *pending_inputs = 0;
                    for _ in 0..*n_outputs {
                        // Zero compute cycles; only the link round trip.
                        self.ideal_outputs.push_back(now + 2 * link);
                    }
                }
            }
        }
        true
    }

    /// When the NPU next changes what issue reads from it, once the NPU
    /// has timed it: the core-side cycle the oldest unread output becomes
    /// visible, and, while the input FIFO is full, the cycle an invocation
    /// completes and frees entries.
    fn npu_wakes(&self) -> [Option<u64>; 2] {
        let link = self.cfg.npu_link_latency;
        match &self.npu {
            NpuAttachment::Cycle(sim) => {
                [sim.next_output_cycle().map(|at| at + link), sim.next_room()]
            }
            _ => [self.ideal_outputs.front().copied(), None],
        }
    }

    /// Issues a `deq.d` if an NPU output is visible (always, with no NPU
    /// attached). Returns whether it issued.
    fn npu_deq(&mut self, now: u64) -> bool {
        let visible = self.npu_wakes()[0].is_some_and(|at| at <= now);
        match &mut self.npu {
            NpuAttachment::None => {}
            _ if !visible => return false,
            NpuAttachment::Cycle(sim) => {
                sim.advance_to(now);
                sim.dequeue_output();
                sim.commit_outputs(1);
            }
            NpuAttachment::Ideal { .. } => drop(self.ideal_outputs.pop_front()),
        }
        true
    }

    fn dispatch(&mut self, now: u64) -> bool {
        let mut dispatched = false;
        for _ in 0..self.cfg.dispatch_width {
            let Some(&ready_at) = self.fetch_ready.front() else {
                break;
            };
            if ready_at > now {
                break;
            }
            if self.rob_len >= self.cfg.rob_entries {
                self.stats.rob_full_stalls += 1;
                break;
            }
            if self.iq_len >= self.cfg.iq_entries {
                self.stats.iq_full_stalls += 1;
                break;
            }
            match self.input[0].class {
                OpClass::Load if self.lq_used >= self.cfg.lq_entries => {
                    self.stats.lsq_full_stalls += 1;
                    break;
                }
                OpClass::Store if self.sq_used >= self.cfg.sq_entries => {
                    self.stats.lsq_full_stalls += 1;
                    break;
                }
                _ => {}
            }
            self.fetch_ready.pop_front();
            let ev = self.input.pop_front().expect("a fetched event");
            dispatched = true;
            let abs = self.rob_base + self.rob_len as u64;

            // A producer that has since committed reads as ready, so the
            // last writer is recorded whether or not it is still in flight.
            let mut deps = [NONE; 4];
            for (dep, src) in deps.iter_mut().zip(ev.srcs) {
                if let Some(reg) = src {
                    *dep = self.reg_producer.get(reg as usize).copied().unwrap_or(NONE);
                }
            }
            let mut forwarded = false;
            let mem_addr = ev.mem.map_or(0, |m| m.addr);
            match ev.class {
                OpClass::Load => {
                    self.lq_used += 1;
                    let addr = ev.mem.expect("load has mem info").addr;
                    if let Some(&store) = self.store_map.get(&(addr / 4)) {
                        if store >= self.rob_base {
                            deps[3] = store;
                            forwarded = true;
                        }
                    }
                }
                OpClass::Store => {
                    self.sq_used += 1;
                    let addr = ev.mem.expect("store has mem info").addr;
                    self.store_map.insert(addr / 4, abs);
                }
                c if c.is_npu_queue() => {
                    // "The renaming logic implicitly considers every NPU
                    // instruction to read and write a designated dummy
                    // architectural register" — total order among them.
                    deps[3] = self.last_npu;
                    self.last_npu = abs;
                }
                _ => {}
            }
            if let Some(dst) = ev.dst {
                let reg = dst as usize;
                if reg >= self.reg_producer.len() {
                    self.reg_producer.resize(reg + 1, NONE);
                }
                self.reg_producer[reg] = abs;
            }
            self.rob[(abs & self.rob_mask) as usize] = Slot {
                class: ev.class,
                forwarded,
                mem_addr,
                deps,
                ..EMPTY_SLOT
            };
            self.rob_len += 1;
            self.iq_len += 1;
            self.schedule(abs, now);
        }
        dispatched
    }

    fn fetch(&mut self, now: u64) -> bool {
        if self.fetch_blocked_on.is_some() || self.fetch_stalled_until > now {
            return false;
        }
        let mut fetched = false;
        for _ in 0..self.cfg.fetch_width {
            let fetched_count = self.fetch_ready.len();
            if fetched_count >= FETCH_BUFFER_CAP {
                break;
            }
            let Some(ev) = self.input.get(fetched_count) else {
                break;
            };
            self.fetch_ready.push_back(now + self.cfg.frontend_depth);
            fetched = true;
            let Some(info) = ev.branch else {
                continue;
            };
            let prediction = self.predictor.predict_and_train(
                ev.pc,
                &info,
                ev.class == OpClass::Call,
                ev.class == OpClass::Ret,
            );
            if !prediction.correct {
                // Block fetch until this branch resolves.
                self.fetch_blocked_on =
                    Some(self.rob_base + self.rob_len as u64 + fetched_count as u64);
                break;
            }
            if info.taken {
                // Correctly predicted taken: redirect still ends the
                // fetch group.
                break;
            }
        }
        fetched
    }
}

impl TraceSink for Core {
    fn event(&mut self, ev: &TraceEvent) {
        self.feed(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_ir::{BranchInfo, MemAccess};

    fn alu(pc: u64, srcs: [Option<u16>; 3], dst: Option<u16>) -> TraceEvent {
        TraceEvent::simple(pc, OpClass::IntAlu, srcs, dst)
    }

    fn run(events: Vec<TraceEvent>) -> SimStats {
        let mut core = Core::new(CoreConfig::penryn_like());
        for ev in events {
            core.feed(ev);
        }
        core.finish()
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let events: Vec<TraceEvent> = (0..4000)
            .map(|i| alu(i % 64, [None; 3], Some((i % 50 + 10) as u16)))
            .collect();
        let stats = run(events);
        assert_eq!(stats.committed, 4000);
        // Bound by 3 integer ALUs but also fetch width 4; expect ~3 IPC.
        assert!(stats.ipc() > 2.0, "ipc = {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_is_serial() {
        // Each op reads the previous op's destination.
        let events: Vec<TraceEvent> = (0..2000)
            .map(|i| alu(i % 64, [Some(5), None, None], Some(5)))
            .collect();
        let stats = run(events);
        // 1-cycle ALU chain: IPC can approach but not exceed ~1.
        assert!(stats.ipc() < 1.2, "ipc = {}", stats.ipc());
    }

    #[test]
    fn fp_chain_is_slower_than_int_chain() {
        let fp: Vec<TraceEvent> = (0..1000)
            .map(|i| TraceEvent::simple(i % 64, OpClass::FpMul, [Some(5), None, None], Some(5)))
            .collect();
        let int: Vec<TraceEvent> = (0..1000)
            .map(|i| alu(i % 64, [Some(5), None, None], Some(5)))
            .collect();
        let fp_stats = run(fp);
        let int_stats = run(int);
        assert!(
            fp_stats.cycles > 4 * int_stats.cycles,
            "fp {} vs int {}",
            fp_stats.cycles,
            int_stats.cycles
        );
    }

    #[test]
    fn cold_loads_pay_memory_latency() {
        // Strided loads, each touching a fresh line, no reuse.
        let events: Vec<TraceEvent> = (0..500)
            .map(|i| TraceEvent {
                pc: i % 16,
                class: OpClass::Load,
                srcs: [Some(1), None, None],
                dst: Some(2),
                mem: Some(MemAccess {
                    addr: i * 64,
                    is_store: false,
                }),
                branch: None,
            })
            .collect();
        let stats = run(events);
        assert_eq!(stats.loads, 500);
        assert!(stats.l1d_misses >= 499, "misses = {}", stats.l1d_misses);
        assert!(stats.mem_accesses >= 499);
    }

    #[test]
    fn cached_loads_are_fast() {
        let events: Vec<TraceEvent> = (0..2000)
            .map(|i| TraceEvent {
                pc: i % 16,
                class: OpClass::Load,
                srcs: [Some(1), None, None],
                dst: Some((i % 40 + 8) as u16),
                mem: Some(MemAccess {
                    addr: (i % 8) * 64,
                    is_store: false,
                }),
                branch: None,
            })
            .collect();
        let stats = run(events);
        assert!(stats.l1d_miss_rate() < 0.02);
        assert!(stats.ipc() > 1.5, "ipc = {}", stats.ipc());
    }

    #[test]
    fn store_to_load_forwarding_creates_dependence() {
        // store to X; load from X; repeat. The load must wait for the
        // store but forwards quickly.
        let mut events = Vec::new();
        for i in 0..500u64 {
            events.push(TraceEvent {
                pc: 0,
                class: OpClass::Store,
                srcs: [Some(1), Some(2), None],
                dst: None,
                mem: Some(MemAccess {
                    addr: 512,
                    is_store: true,
                }),
                branch: None,
            });
            events.push(TraceEvent {
                pc: 1,
                class: OpClass::Load,
                srcs: [Some(2), None, None],
                dst: Some(3),
                mem: Some(MemAccess {
                    addr: 512,
                    is_store: false,
                }),
                branch: None,
            });
            events.push(alu(2 + (i % 4), [Some(3), None, None], Some(1)));
        }
        let stats = run(events);
        assert_eq!(stats.committed, 1500);
        // Forwarded loads never touch the cache: only the stores do.
        assert_eq!(stats.l1d_hits + stats.l1d_misses, 500);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // A data-dependent pseudo-random branch direction stresses the
        // predictor; compare against an always-taken loop branch.
        let mut x = 99u64;
        let mut random = Vec::new();
        let mut biased = Vec::new();
        for i in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rand_taken = (x >> 62) & 1 == 1;
            random.push(TraceEvent {
                pc: 7,
                class: OpClass::Branch,
                srcs: [Some(1), None, None],
                dst: None,
                mem: None,
                branch: Some(BranchInfo {
                    taken: rand_taken,
                    conditional: true,
                    target: 2,
                }),
            });
            random.push(alu(8 + (i % 8), [None; 3], Some(4)));
            biased.push(TraceEvent {
                pc: 7,
                class: OpClass::Branch,
                srcs: [Some(1), None, None],
                dst: None,
                mem: None,
                branch: Some(BranchInfo {
                    taken: false,
                    conditional: true,
                    target: 2,
                }),
            });
            biased.push(alu(8 + (i % 8), [None; 3], Some(4)));
        }
        let r = run(random);
        let b = run(biased);
        assert!(r.bp_mispredicts > 500, "mispredicts = {}", r.bp_mispredicts);
        assert!(
            r.cycles > b.cycles * 2,
            "random {} vs biased {}",
            r.cycles,
            b.cycles
        );
    }

    #[test]
    #[should_panic(expected = "pipeline deadlock")]
    fn feed_fails_on_a_deadlocked_pipeline() {
        // A configured NPU that never receives an input can never satisfy
        // the leading deq.d, so nothing commits. Once the ROB and fetch
        // buffer are full, feeding more events must fail instead of
        // ticking forever.
        let t = ann::Topology::new(vec![2, 2, 1]).unwrap();
        let config = npu::NpuConfig::new(
            ann::Mlp::zeroed(t),
            ann::Normalizer::identity(2),
            ann::Normalizer::identity(1),
        );
        let mut sim = NpuSim::new(npu::NpuParams::default());
        sim.configure(&config).unwrap();
        let mut core = Core::with_npu(CoreConfig::penryn_like(), sim);
        core.feed(TraceEvent::simple(0, OpClass::NpuDeqD, [None; 3], Some(1)));
        for i in 0..2 * FEED_HIGH_WATER as u64 {
            core.feed(alu(i % 64, [None; 3], Some(2)));
        }
    }

    #[test]
    fn npu_instructions_serialize_in_order() {
        // enq.d x4 with no NPU attached still execute one per cycle in
        // order (dummy-register serialization).
        let events: Vec<TraceEvent> = (0..100)
            .map(|i| TraceEvent::simple(i % 8, OpClass::NpuEnqD, [Some(1), None, None], None))
            .collect();
        let stats = run(events);
        assert_eq!(stats.npu_queue_ops, 100);
        // Serialized at 1/cycle: at least ~100 cycles.
        assert!(stats.cycles >= 100);
    }

    #[test]
    fn blocked_fp_divide_keeps_its_place_in_age_order() {
        let cfg = CoreConfig {
            rob_entries: 8,
            fp_units: 1,
            ..CoreConfig::penryn_like()
        };
        let div = cfg.latencies.fp_div;
        let mut core = Core::new(cfg);
        for i in 0..5 {
            core.feed(alu(i, [None; 3], Some(1)));
        }
        for i in 0..3 {
            core.feed(TraceEvent::simple(
                5 + i,
                OpClass::FpDiv,
                [None; 3],
                Some(2),
            ));
        }
        // The divides are absolute indices 6, 7 and 8, in ring slots 6, 7
        // and 0: the two younger ones wait for the one unit across the
        // ring's wrap.
        let (a, b, c) = (6, 7, 8);
        while core.slot(a).done_at == NOT_ISSUED {
            core.step();
        }
        assert_eq!(core.slot(b).done_at, NOT_ISSUED);
        assert_eq!(core.slot(c).done_at, NOT_ISSUED);
        assert_eq!(core.ready[0], 1 << 7 | 1 << 0, "both stay ready");
        core.finish();
        // The older one issues the cycle the unit frees, the younger one
        // the next time it frees.
        assert_eq!(core.slot(b).done_at, core.slot(a).done_at + div);
        assert_eq!(core.slot(c).done_at, core.slot(b).done_at + div);
    }

    #[test]
    fn stats_accumulate_by_class() {
        let events = vec![
            alu(0, [None; 3], Some(1)),
            TraceEvent::simple(1, OpClass::FpDiv, [Some(1), None, None], Some(2)),
            TraceEvent::simple(2, OpClass::FpSqrt, [Some(2), None, None], Some(3)),
            TraceEvent::simple(3, OpClass::FpTrig, [Some(3), None, None], Some(4)),
        ];
        let stats = run(events);
        assert_eq!(stats.int_ops, 1);
        assert_eq!(stats.fp_div_ops, 1);
        assert_eq!(stats.fp_sqrt_ops, 1);
        assert_eq!(stats.fp_trig_ops, 1);
        assert_eq!(stats.committed, 4);
    }
}
