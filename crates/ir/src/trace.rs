//! Dynamic execution traces: the interface between the interpreter and the
//! cycle-level core model.

use serde::{Deserialize, Serialize};

use crate::Value;

/// Coarse operation classes, used by the core model to pick functional
/// units and latencies, and by the energy model to price events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer ALU work (arithmetic, compares, moves, conversions).
    IntAlu,
    /// Floating-point add/sub/compare/min/max.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Floating-point square root.
    FpSqrt,
    /// Trigonometric libm stand-ins (`sin`, `cos`).
    FpTrig,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Function call (unconditional transfer, pushes return address).
    Call,
    /// Function return (unconditional transfer, pops return address).
    Ret,
    /// `enq.d` NPU input enqueue.
    NpuEnqD,
    /// `deq.d` NPU output dequeue.
    NpuDeqD,
    /// `enq.c` NPU config enqueue.
    NpuEnqC,
    /// `deq.c` NPU config dequeue.
    NpuDeqC,
}

impl OpClass {
    /// Whether this is one of the four NPU queue instructions.
    pub fn is_npu_queue(self) -> bool {
        matches!(
            self,
            OpClass::NpuEnqD | OpClass::NpuDeqD | OpClass::NpuEnqC | OpClass::NpuDeqC
        )
    }

    /// Whether the instruction redirects the fetch stream.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            OpClass::Branch | OpClass::Jump | OpClass::Call | OpClass::Ret
        )
    }

    /// Whether the op executes on the floating-point units.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt | OpClass::FpTrig
        )
    }
}

/// Memory behaviour of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// `true` for stores.
    pub is_store: bool,
}

/// Control behaviour of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Whether the branch was taken in this execution.
    pub taken: bool,
    /// Whether the instruction is a *conditional* branch (predictable both
    /// ways) as opposed to a jump/call/return.
    pub conditional: bool,
    /// The dynamic target program counter (for BTB modelling).
    pub target: u64,
}

/// One dynamically executed instruction.
///
/// Register identifiers are the IR's virtual register indices; the core
/// model's renaming stage maps them to physical registers. `srcs` lists up
/// to three source registers (unused slots are `None`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Static program counter: `(function id << 32) | instruction index`.
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Source registers.
    pub srcs: [Option<u16>; 3],
    /// Destination register, if the instruction writes one.
    pub dst: Option<u16>,
    /// Memory access, for loads/stores.
    pub mem: Option<MemAccess>,
    /// Branch outcome, for control instructions.
    pub branch: Option<BranchInfo>,
}

impl TraceEvent {
    /// A plain ALU-style event with no memory or control side effects.
    pub fn simple(pc: u64, class: OpClass, srcs: [Option<u16>; 3], dst: Option<u16>) -> Self {
        TraceEvent {
            pc,
            class,
            srcs,
            dst,
            mem: None,
            branch: None,
        }
    }
}

/// Consumes trace events as the interpreter produces them.
///
/// The `uarch` crate's core model implements this to simulate timing while
/// the program runs; lightweight sinks below support counting and capture.
///
/// The two instruction hooks let an observer read register values around
/// each instruction (the interval soundness checker does). They receive
/// the static `pc` (same encoding as [`TraceEvent::pc`]), the frame
/// `depth` (0 for the entry function) and that frame's register file;
/// they cannot change execution. Their default bodies are empty, so
/// every sink that only needs [`event`](Self::event) compiles them away.
pub trait TraceSink {
    /// Receives the next dynamically executed instruction.
    fn event(&mut self, ev: &TraceEvent);

    /// Runs before the instruction at `pc` executes.
    fn before_inst(&mut self, _pc: u64, _depth: usize, _regs: &[Value]) {}

    /// Runs after the instruction at `pc` completed; for a call, after the
    /// callee returned and its results were written. A faulting
    /// instruction or a `ret` never gets here.
    fn after_inst(&mut self, _pc: u64, _depth: usize, _regs: &[Value]) {}
}

/// A sink that discards everything (functional-only execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// Counts dynamic instructions by class.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Total events seen.
    pub total: u64,
    /// NPU queue instructions (`enq.d`/`deq.d`/`enq.c`/`deq.c`).
    pub npu_queue: u64,
    /// Loads + stores.
    pub memory: u64,
    /// Control-flow instructions.
    pub control: u64,
    /// Floating-point instructions.
    pub fp: u64,
}

impl TraceSink for CountingSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.total += 1;
        if ev.class.is_npu_queue() {
            self.npu_queue += 1;
        }
        if matches!(ev.class, OpClass::Load | OpClass::Store) {
            self.memory += 1;
        }
        if ev.class.is_control() {
            self.control += 1;
        }
        if ev.class.is_fp() {
            self.fp += 1;
        }
    }
}

/// Captures every event into a vector (tests and small traces only).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The captured events in execution order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn event(&mut self, ev: &TraceEvent) {
        (**self).event(ev);
    }

    fn before_inst(&mut self, pc: u64, depth: usize, regs: &[Value]) {
        (**self).before_inst(pc, depth, regs);
    }

    fn after_inst(&mut self, pc: u64, depth: usize, regs: &[Value]) {
        (**self).after_inst(pc, depth, regs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(OpClass::NpuEnqD.is_npu_queue());
        assert!(!OpClass::Load.is_npu_queue());
        assert!(OpClass::Branch.is_control());
        assert!(OpClass::Call.is_control());
        assert!(OpClass::FpSqrt.is_fp());
        assert!(!OpClass::IntAlu.is_fp());
    }

    #[test]
    fn counting_sink_classifies() {
        let mut sink = CountingSink::default();
        sink.event(&TraceEvent::simple(0, OpClass::FpMul, [None; 3], Some(1)));
        sink.event(&TraceEvent {
            pc: 1,
            class: OpClass::Load,
            srcs: [Some(0), None, None],
            dst: Some(2),
            mem: Some(MemAccess {
                addr: 64,
                is_store: false,
            }),
            branch: None,
        });
        sink.event(&TraceEvent::simple(
            2,
            OpClass::NpuEnqD,
            [Some(2), None, None],
            None,
        ));
        assert_eq!(sink.total, 3);
        assert_eq!(sink.npu_queue, 1);
        assert_eq!(sink.memory, 1);
        assert_eq!(sink.fp, 1);
    }
}
