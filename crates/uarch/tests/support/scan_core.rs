//! The scan-based issue stage the core model used before its waiter lists
//! and ready mask, kept as the reference for `tests/issue_oracle.rs`.
//!
//! `ScanCore` is the whole pipeline of that core, built on the crate's
//! public pieces (`MemoryHierarchy`, `BranchPredictor`, `NpuAttachment`):
//! every pipeline step, `issue` walks the entire issue queue in age order
//! and recomputes each entry's operand readiness from a cached
//! `{ready_at, wait}` pair, and the idle-cycle skip takes the earliest
//! cached `ready_at` as a wake-up candidate. Telemetry and the trace-buffer
//! high-water mark are left out; neither affects timing.

use approx_ir::{OpClass, TraceEvent};
use npu::NpuSim;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use uarch::{BranchPredictor, CoreConfig, MemoryHierarchy, NpuAttachment, SimStats};

const FETCH_BUFFER_CAP: usize = 64;
const FEED_HIGH_WATER: usize = 4096;
const STALL_GUARD: u64 = 1_000_000;
const NONE: u64 = 0;
const NOT_ISSUED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    class: OpClass,
    forwarded: bool,
    mem_addr: u64,
    deps: [u64; 4],
    done_at: u64,
}

const EMPTY_SLOT: Slot = Slot {
    class: OpClass::IntAlu,
    forwarded: false,
    mem_addr: 0,
    deps: [NONE; 4],
    done_at: NOT_ISSUED,
};

/// An issue-queue entry with its operand readiness cached.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    abs: u64,
    /// Cycle every operand is available, once every producer has issued
    /// ([`NOT_ISSUED`] until then).
    ready_at: u64,
    /// The producer the entry was last seen waiting on.
    wait: u64,
}

type Stalls = [u64; 3];

/// The reference core: same constructors, `feed` and `finish` as
/// `uarch::Core`.
pub struct ScanCore {
    cfg: CoreConfig,
    stats: SimStats,
    hierarchy: MemoryHierarchy,
    predictor: BranchPredictor,
    npu: NpuAttachment,
    ideal_outputs: VecDeque<u64>,
    cycle: u64,
    input: VecDeque<TraceEvent>,
    fetch_ready: VecDeque<u64>,
    rob: Vec<Slot>,
    rob_mask: u64,
    rob_base: u64,
    rob_len: usize,
    iq: Vec<IqEntry>,
    reg_producer: Vec<u64>,
    store_map: HashMap<u64, u64>,
    last_npu: u64,
    lq_used: usize,
    sq_used: usize,
    fetch_stalled_until: u64,
    fetch_blocked_on: Option<u64>,
    fp_unit_busy: Vec<u64>,
    last_commit_cycle: u64,
    idle_stalls: Option<Stalls>,
}

impl ScanCore {
    pub fn new(cfg: CoreConfig) -> Self {
        ScanCore::with_attachment(cfg, NpuAttachment::None)
    }

    pub fn with_npu(cfg: CoreConfig, npu: NpuSim) -> Self {
        ScanCore::with_attachment(cfg, NpuAttachment::Cycle(Box::new(npu)))
    }

    pub fn with_ideal_npu(cfg: CoreConfig, n_inputs: usize, n_outputs: usize) -> Self {
        ScanCore::with_attachment(cfg, NpuAttachment::ideal(n_inputs, n_outputs))
    }

    fn with_attachment(cfg: CoreConfig, npu: NpuAttachment) -> Self {
        let ring = cfg.rob_entries.next_power_of_two();
        ScanCore {
            hierarchy: MemoryHierarchy::new(cfg.l1d, cfg.l2, cfg.mem_latency),
            predictor: BranchPredictor::new(cfg.gshare_bits, cfg.btb_entries, cfg.ras_entries),
            npu,
            ideal_outputs: VecDeque::new(),
            stats: SimStats::default(),
            cycle: 0,
            input: VecDeque::new(),
            fetch_ready: VecDeque::new(),
            rob: vec![EMPTY_SLOT; ring],
            rob_mask: ring as u64 - 1,
            rob_base: NONE + 1,
            rob_len: 0,
            iq: Vec::new(),
            reg_producer: Vec::new(),
            store_map: HashMap::new(),
            last_npu: NONE,
            lq_used: 0,
            sq_used: 0,
            fetch_stalled_until: 0,
            fetch_blocked_on: None,
            fp_unit_busy: vec![0; cfg.fp_units],
            last_commit_cycle: 0,
            idle_stalls: None,
            cfg,
        }
    }

    pub fn npu_stats(&self) -> Option<npu::NpuStats> {
        match &self.npu {
            NpuAttachment::Cycle(sim) => Some(sim.stats()),
            _ => None,
        }
    }

    pub fn feed(&mut self, ev: TraceEvent) {
        self.input.push_back(ev);
        while self.unfetched() >= FEED_HIGH_WATER {
            self.step_guarded();
        }
    }

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
        self.stats
    }

    fn slot(&self, abs: u64) -> &Slot {
        &self.rob[(abs & self.rob_mask) as usize]
    }

    fn unfetched(&self) -> usize {
        self.input.len() - self.fetch_ready.len()
    }

    fn step_guarded(&mut self) {
        self.step();
        assert!(
            self.cycle - self.last_commit_cycle < STALL_GUARD,
            "pipeline deadlock at cycle {}",
            self.cycle
        );
    }

    fn step(&mut self) {
        self.advance();
        let now = self.cycle;
        let before = self.stalls();
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

    fn advance(&mut self) {
        let Some(stalls) = self.idle_stalls else {
            self.cycle += 1;
            return;
        };
        let wake = self
            .wake(self.cycle)
            .min(self.last_commit_cycle + STALL_GUARD);
        let skipped = wake - self.cycle - 1;
        self.stats.rob_full_stalls += stalls[0] * skipped;
        self.stats.iq_full_stalls += stalls[1] * skipped;
        self.stats.lsq_full_stalls += stalls[2] * skipped;
        self.cycle = wake;
    }

    fn wake(&self, now: u64) -> u64 {
        let head = (self.rob_len > 0).then(|| self.slot(self.rob_base).done_at);
        let branch = self
            .fetch_blocked_on
            .filter(|&b| b < self.rob_base + self.rob_len as u64)
            .map(|b| self.slot(b).done_at);
        self.iq
            .iter()
            .map(|e| e.ready_at)
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
                    self.hierarchy.access(slot.mem_addr);
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

    fn issue(&mut self, now: u64) -> bool {
        let mut int_tokens = self.cfg.int_alus;
        let mut fp_tokens = self.cfg.fp_units;
        let mut load_tokens = self.cfg.load_units;
        let mut store_tokens = self.cfg.store_units;
        let mut budget = self.cfg.issue_width;
        let lat = self.cfg.latencies;

        let mut iq = std::mem::take(&mut self.iq);
        let waiting = iq.len();
        iq.retain_mut(|e| {
            if budget == 0 {
                return true;
            }
            if e.ready_at == NOT_ISSUED {
                if e.wait >= self.rob_base && self.slot(e.wait).done_at == NOT_ISSUED {
                    return true;
                }
                match self.operands_ready_at(e.abs) {
                    Ok(at) => e.ready_at = at,
                    Err(producer) => {
                        e.wait = producer;
                        return true;
                    }
                }
            }
            if e.ready_at > now {
                return true;
            }
            let slot = (e.abs & self.rob_mask) as usize;
            let class = self.rob[slot].class;
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
                return true;
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
                    let Some(unit) = self
                        .fp_unit_busy
                        .iter()
                        .position(|&busy_until| busy_until <= now)
                    else {
                        return true;
                    };
                    self.fp_unit_busy[unit] = now + latency;
                    latency
                }
                OpClass::Load if self.rob[slot].forwarded => 1,
                OpClass::Load => self.hierarchy.access(self.rob[slot].mem_addr),
                OpClass::Store => 1,
                OpClass::Branch | OpClass::Jump | OpClass::Call | OpClass::Ret => lat.branch,
                OpClass::NpuEnqD => {
                    if !self.npu_enq(now) {
                        return true;
                    }
                    lat.npu_queue
                }
                OpClass::NpuDeqD => {
                    if !self.npu_deq(now) {
                        return true;
                    }
                    lat.npu_queue
                }
                OpClass::NpuEnqC | OpClass::NpuDeqC => lat.npu_queue,
            };
            *tokens -= 1;
            self.rob[slot].done_at = now + latency.max(1);
            budget -= 1;
            false
        });
        let issued = iq.len() != waiting;
        self.iq = iq;
        issued
    }

    fn npu_enq(&mut self, now: u64) -> bool {
        let link = self.cfg.npu_link_latency;
        match &mut self.npu {
            NpuAttachment::None => {}
            NpuAttachment::Cycle(sim) => {
                sim.advance_to(now);
                if !sim.input_has_space() {
                    return false;
                }
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
                        self.ideal_outputs.push_back(now + 2 * link);
                    }
                }
            }
        }
        true
    }

    fn npu_wakes(&self) -> [Option<u64>; 2] {
        let link = self.cfg.npu_link_latency;
        match &self.npu {
            NpuAttachment::Cycle(sim) => {
                [sim.next_output_cycle().map(|at| at + link), sim.next_room()]
            }
            _ => [self.ideal_outputs.front().copied(), None],
        }
    }

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
            if self.iq.len() >= self.cfg.iq_entries {
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
                done_at: NOT_ISSUED,
            };
            self.rob_len += 1;
            self.iq.push(IqEntry {
                abs,
                ready_at: NOT_ISSUED,
                wait: NONE,
            });
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
                self.fetch_blocked_on =
                    Some(self.rob_base + self.rob_len as u64 + fetched_count as u64);
                break;
            }
            if info.taken {
                break;
            }
        }
        fetched
    }
}
