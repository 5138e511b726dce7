//! A deterministic mixed trace that drives every scheduling path of the
//! out-of-order core model: every `OpClass`, contention for the unpipelined
//! FP units, store-to-load forwarding, dependent chains, mispredicted
//! branches, BTB-cold jumps, call/ret and empty-RAS returns, ROB-, IQ- and
//! LSQ-full stalls, and NPU invocations of `NPU_INPUTS` `enq.d` followed by
//! `NPU_OUTPUTS` `deq.d`.
//!
//! Shared by `tests/golden_stats.rs` (which pins the exact statistics) and
//! the `core_sim_mixed` microbenchmark (which times the replay).

use approx_ir::{BranchInfo, MemAccess, OpClass, TraceEvent};

/// Events in the golden trace (the generator stops at the first whole
/// block at or past this length).
const GOLDEN_EVENTS: usize = 20_000;
/// Inputs per NPU invocation in the trace (a 9→8→1 network).
pub const NPU_INPUTS: usize = 9;
/// Outputs per NPU invocation in the trace.
pub const NPU_OUTPUTS: usize = 1;

/// Architectural registers the generator draws from: few enough that
/// random sources often hit an in-flight producer.
const REGS: u64 = 24;

struct Gen {
    state: u64,
    pc: u64,
    /// Next never-touched cache line, for guaranteed-cold loads.
    cold_line: u64,
    /// Position of the L2-resident stream.
    stream_line: u64,
    events: Vec<TraceEvent>,
}

impl Gen {
    fn rand(&mut self, n: u64) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) % n
    }

    fn reg(&mut self) -> u16 {
        self.rand(REGS) as u16
    }

    fn maybe_reg(&mut self) -> Option<u16> {
        (self.rand(3) != 0).then(|| self.reg())
    }

    fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
        self.pc = (self.pc + 1) % 2048;
    }

    fn op(&mut self, class: OpClass, srcs: [Option<u16>; 3], dst: Option<u16>) {
        self.push(TraceEvent::simple(self.pc, class, srcs, dst));
    }

    fn mem(&mut self, class: OpClass, addr: u64, srcs: [Option<u16>; 3], dst: Option<u16>) {
        let is_store = class == OpClass::Store;
        self.push(TraceEvent {
            pc: self.pc,
            class,
            srcs,
            dst,
            mem: Some(MemAccess { addr, is_store }),
            branch: None,
        });
    }

    fn control(&mut self, pc: u64, class: OpClass, taken: bool, target: u64) {
        let src = self.reg();
        self.events.push(TraceEvent {
            pc,
            class,
            srcs: [Some(src), None, None],
            dst: None,
            mem: None,
            branch: Some(BranchInfo {
                taken,
                conditional: class == OpClass::Branch,
                target,
            }),
        });
        if taken {
            self.pc = target % 2048;
        } else {
            self.pc = (pc + 1) % 2048;
        }
    }

    /// A load from a line no earlier access touched: misses to memory.
    fn cold_load(&mut self, dst: u16) {
        let addr = 0x4000_0000 + self.cold_line * 64;
        self.cold_line += 1;
        self.mem(OpClass::Load, addr, [None; 3], Some(dst));
    }

    fn block(&mut self) {
        match self.rand(12) {
            // Random arithmetic over the small register set.
            0..=2 => {
                for _ in 0..8 {
                    let class = match self.rand(10) {
                        0..=4 => OpClass::IntAlu,
                        5..=6 => OpClass::FpAdd,
                        7..=8 => OpClass::FpMul,
                        _ => OpClass::FpDiv,
                    };
                    let srcs = [self.maybe_reg(), self.maybe_reg(), None];
                    let dst = Some(self.reg());
                    self.op(class, srcs, dst);
                }
            }
            // Independent unpipelined ops: more than there are FP units.
            3 => {
                for k in 0..5 {
                    let class = [OpClass::FpDiv, OpClass::FpSqrt, OpClass::FpTrig][k % 3];
                    let dst = Some(self.reg());
                    self.op(class, [None; 3], dst);
                }
            }
            // Store then load of the same word: forwarded.
            4 => {
                let addr = self.rand(256) * 4;
                let (a, b) = (self.reg(), self.reg());
                self.mem(OpClass::Store, addr, [Some(a), Some(b), None], None);
                if self.rand(2) == 0 {
                    self.op(OpClass::IntAlu, [Some(a), None, None], Some(b));
                }
                let dst = self.reg();
                self.mem(OpClass::Load, addr, [Some(a), None, None], Some(dst));
                self.op(OpClass::FpAdd, [Some(dst), None, None], Some(dst));
            }
            // A dependent chain through one register.
            5 => {
                let r = self.reg();
                for k in 0..12 {
                    let class = if k % 4 == 3 {
                        OpClass::FpMul
                    } else {
                        OpClass::IntAlu
                    };
                    self.op(class, [Some(r), None, None], Some(r));
                }
            }
            // Loads and stores streaming cyclically over 640 lines, more
            // than the L1 holds: after the first pass every access misses
            // the L1 and hits the L2.
            6 => {
                for _ in 0..10 {
                    let addr = 0x80_0000 + self.stream_line % 640 * 64;
                    self.stream_line += 1;
                    let class = if self.rand(4) == 0 {
                        OpClass::Store
                    } else {
                        OpClass::Load
                    };
                    let src = self.reg();
                    let dst = (class == OpClass::Load).then(|| self.reg());
                    self.mem(class, addr, [Some(src), None, None], dst);
                }
            }
            // Control flow: a random conditional branch, a BTB-cold jump,
            // a call/return pair, and now and then a return with an empty
            // return-address stack.
            7 => {
                let pc = self.pc;
                let taken = self.rand(2) == 0;
                self.control(pc, OpClass::Branch, taken, pc + 17);
                self.op(OpClass::IntAlu, [None; 3], Some(1));
                let pc = self.pc;
                let target = self.rand(1 << 20);
                self.control(pc, OpClass::Jump, true, target);
                let pc = self.pc;
                let callee = 3000 + self.rand(4) * 64;
                self.control(pc, OpClass::Call, true, callee);
                for _ in 0..3 {
                    let srcs = [self.maybe_reg(), None, None];
                    let dst = Some(self.reg());
                    self.op(OpClass::IntAlu, srcs, dst);
                }
                let pc = self.pc;
                self.control(pc, OpClass::Ret, true, pc + 1);
                if self.rand(3) == 0 {
                    let pc = self.pc;
                    self.control(pc, OpClass::Ret, true, 100);
                }
            }
            // One NPU invocation, with glue work between the enqueues and
            // occasional configuration-queue traffic.
            8 => {
                if self.rand(4) == 0 {
                    self.op(OpClass::NpuEnqC, [Some(2), None, None], None);
                    self.op(OpClass::NpuDeqC, [None; 3], Some(3));
                }
                for k in 0..NPU_INPUTS {
                    let src = self.reg();
                    self.op(OpClass::NpuEnqD, [Some(src), None, None], None);
                    if k % 4 == 1 {
                        self.op(OpClass::IntAlu, [Some(src), None, None], Some(src));
                    }
                }
                for _ in 0..NPU_OUTPUTS {
                    let dst = self.reg();
                    self.op(OpClass::NpuDeqD, [None; 3], Some(dst));
                    self.op(OpClass::FpMul, [Some(dst), None, None], Some(dst));
                }
            }
            // A cold load, then enough independent work to fill the ROB.
            9 => {
                self.cold_load(4);
                for k in 0..110 {
                    self.op(OpClass::IntAlu, [None; 3], Some(8 + (k % 12) as u16));
                }
            }
            // A cold load, then dependents of it that fill the issue queue.
            10 => {
                self.cold_load(5);
                for k in 0..40 {
                    self.op(
                        OpClass::IntAlu,
                        [Some(5), None, None],
                        Some(6 + (k % 3) as u16),
                    );
                }
            }
            // A cold load, then more stores or loads than the LSQ holds.
            _ => {
                self.cold_load(7);
                let stores = self.rand(2) == 0;
                for k in 0..56u64 {
                    let addr = 0x10_0000 + k * 64;
                    if stores {
                        self.mem(OpClass::Store, addr, [Some(9), None, None], None);
                    } else {
                        let dst = Some(10 + (k % 8) as u16);
                        self.mem(OpClass::Load, addr, [None; 3], dst);
                    }
                }
            }
        }
    }
}

/// The golden trace: about 20,000 events from a fixed LCG.
pub fn golden_trace() -> Vec<TraceEvent> {
    let mut g = Gen {
        state: 0x9e37_79b9_7f4a_7c15,
        pc: 0,
        cold_line: 0,
        stream_line: 0,
        events: Vec::with_capacity(GOLDEN_EVENTS + 128),
    };
    while g.events.len() < GOLDEN_EVENTS {
        g.block();
    }
    g.events
}
