//! The tracing interpreter.

use crate::trace::{BranchInfo, MemAccess, NullSink, OpClass, TraceEvent, TraceSink};
use crate::{FBinOp, FUnOp, FuncId, IBinOp, Inst, IrError, Program, Reg};
use serde::{Deserialize, Serialize};

/// A dynamically typed register value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 32-bit float.
    F(f32),
    /// 32-bit integer.
    I(i32),
}

impl Value {
    /// The value as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TypeMismatch`] if the value is an integer.
    pub fn as_f32(self) -> Result<f32, IrError> {
        match self {
            Value::F(v) => Ok(v),
            Value::I(_) => Err(IrError::TypeMismatch {
                expected: "f32",
                at: 0,
            }),
        }
    }

    /// The value as `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TypeMismatch`] if the value is a float.
    pub fn as_i32(self) -> Result<i32, IrError> {
        match self {
            Value::I(v) => Ok(v),
            Value::F(_) => Err(IrError::TypeMismatch {
                expected: "i32",
                at: 0,
            }),
        }
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I(v)
    }
}

/// The CPU-side view of the NPU queues (paper Section 5.1).
///
/// The interpreter routes `enq.c`/`deq.c`/`enq.d`/`deq.d` through this
/// trait; the `npu` crate's simulator implements it, and tests can provide
/// stubs.
pub trait NpuPort {
    /// `enq.c`: push one configuration word.
    fn enq_config(&mut self, word: u32);
    /// `deq.c`: pop one configuration word (context-switch save path).
    fn deq_config(&mut self) -> u32;
    /// `enq.d`: push one input value; the NPU starts evaluation once all
    /// inputs of an invocation have arrived.
    fn enq_data(&mut self, value: f32);
    /// `deq.d`: pop one output value.
    fn deq_data(&mut self) -> f32;
}

/// Result of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The function's declared return values.
    pub outputs: Vec<Value>,
    /// Dynamic instructions executed.
    pub executed: u64,
}

/// Executes IR programs, optionally emitting a dynamic trace and talking to
/// an attached NPU.
///
/// The interpreter owns a flat f32 data memory (word addressed in the IR,
/// byte addresses ×4 in the trace). Preload it with
/// [`memory_mut`](Self::memory_mut) before running.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    memory: Vec<f32>,
    budget: u64,
    max_depth: usize,
    /// Recycled register/argument buffers: each frame pops one on entry and
    /// pushes it back on return, so steady-state execution (including the
    /// per-invocation loops in the benchmark sweep) allocates nothing.
    value_pool: Vec<Vec<Value>>,
}

const DEFAULT_BUDGET: u64 = u64::MAX;
const MAX_DEPTH: usize = 64;

impl<'p> Interpreter<'p> {
    /// Creates an interpreter for `program` with an empty data memory.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            memory: Vec::new(),
            budget: DEFAULT_BUDGET,
            max_depth: MAX_DEPTH,
            value_pool: Vec::new(),
        }
    }

    /// Sets the data memory size in f32 words (zero filled), returning
    /// `self` for chaining.
    pub fn with_memory(mut self, words: usize) -> Self {
        self.memory = vec![0.0; words];
        self
    }

    /// Caps the number of dynamic instructions (guards runaway loops).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Read access to the data memory.
    pub fn memory(&self) -> &[f32] {
        &self.memory
    }

    /// Mutable access to the data memory (for preloading inputs).
    pub fn memory_mut(&mut self) -> &mut Vec<f32> {
        &mut self.memory
    }

    /// Runs `func` functionally (no trace, no NPU).
    ///
    /// # Errors
    ///
    /// Propagates any runtime [`IrError`]; NPU queue instructions fail with
    /// [`IrError::NoNpuAttached`].
    pub fn run(&mut self, func: FuncId, args: &[Value]) -> Result<Vec<Value>, IrError> {
        // Monomorphized on `NullSink`: the compiler sees `event` is a no-op
        // and elides trace-event construction entirely on this path.
        let mut executed = 0u64;
        let mut npu: Option<&mut dyn NpuPort> = None;
        self.exec_frame(func, args, &mut NullSink, &mut npu, &mut executed, 0)
    }

    /// Runs `func` while emitting the dynamic trace into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_traced<S: TraceSink + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        sink: &mut S,
    ) -> Result<RunOutcome, IrError> {
        self.run_full(func, args, sink, None)
    }

    /// Runs `func` with both a trace sink and an attached NPU port.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run), except NPU instructions now succeed.
    pub fn run_full<S: TraceSink + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        sink: &mut S,
        mut npu: Option<&mut dyn NpuPort>,
    ) -> Result<RunOutcome, IrError> {
        let mut executed = 0u64;
        let outputs = self.exec_frame(func, args, sink, &mut npu, &mut executed, 0)?;
        Ok(RunOutcome { outputs, executed })
    }

    #[allow(clippy::too_many_lines)]
    fn exec_frame<S: TraceSink + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        sink: &mut S,
        npu: &mut Option<&mut dyn NpuPort>,
        executed: &mut u64,
        depth: usize,
    ) -> Result<Vec<Value>, IrError> {
        if depth > self.max_depth {
            return Err(IrError::StackOverflow);
        }
        // `self.program` is `&'p Program`, so this borrow is independent of
        // `&mut self` and recursion below stays legal without cloning.
        let f: &'p crate::Function = self
            .program
            .function_by_index(func.0)
            .ok_or(IrError::UnknownFunction(func.0))?;
        if args.len() != f.n_params() {
            return Err(IrError::ArityMismatch {
                expected: f.n_params(),
                actual: args.len(),
            });
        }
        // Frames recycle buffers through `value_pool`; buffers held across
        // an early `?` return are simply dropped, which only shrinks the
        // pool on (rare, run-terminating) error paths.
        let mut regs = self.value_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(f.n_regs(), Value::I(0));
        regs[..args.len()].copy_from_slice(args);

        let base_pc = (func.0 as u64) << 32;
        let mut pc = 0usize;
        let insts = f.insts();
        loop {
            if pc >= insts.len() {
                return Err(IrError::MissingReturn(f.name().to_string()));
            }
            if *executed >= self.budget {
                return Err(IrError::BudgetExhausted);
            }
            *executed += 1;
            let cur_pc = base_pc | pc as u64;
            sink.before_inst(cur_pc, depth, &regs);
            let inst = &insts[pc];
            pc += 1;
            match inst {
                Inst::ConstF { dst, value } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [None; 3],
                        Some(dst.0),
                    ));
                    regs[dst.0 as usize] = Value::F(*value);
                }
                Inst::ConstI { dst, value } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [None; 3],
                        Some(dst.0),
                    ));
                    regs[dst.0 as usize] = Value::I(*value);
                }
                Inst::Mov { dst, src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(src.0), None, None],
                        Some(dst.0),
                    ));
                    regs[dst.0 as usize] = regs[src.0 as usize];
                }
                Inst::FBin { op, dst, a, b } => {
                    let class = match op {
                        FBinOp::Mul => OpClass::FpMul,
                        FBinOp::Div => OpClass::FpDiv,
                        FBinOp::Atan2 => OpClass::FpTrig,
                        _ => OpClass::FpAdd,
                    };
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        class,
                        [Some(a.0), Some(b.0), None],
                        Some(dst.0),
                    ));
                    let x = self.reg_f32(&regs, *a, pc)?;
                    let y = self.reg_f32(&regs, *b, pc)?;
                    let r = match op {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                        FBinOp::Min => x.min(y),
                        FBinOp::Max => x.max(y),
                        FBinOp::Atan2 => x.atan2(y),
                    };
                    regs[dst.0 as usize] = Value::F(r);
                }
                Inst::FUn { op, dst, a } => {
                    let class = match op {
                        FUnOp::Sqrt => OpClass::FpSqrt,
                        FUnOp::Sin
                        | FUnOp::Cos
                        | FUnOp::Exp
                        | FUnOp::Acos
                        | FUnOp::Asin
                        | FUnOp::Atan => OpClass::FpTrig,
                        _ => OpClass::FpAdd,
                    };
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        class,
                        [Some(a.0), None, None],
                        Some(dst.0),
                    ));
                    let x = self.reg_f32(&regs, *a, pc)?;
                    let r = match op {
                        FUnOp::Neg => -x,
                        FUnOp::Abs => x.abs(),
                        FUnOp::Sqrt => x.sqrt(),
                        FUnOp::Sin => x.sin(),
                        FUnOp::Cos => x.cos(),
                        FUnOp::Floor => x.floor(),
                        FUnOp::Exp => x.exp(),
                        FUnOp::Acos => x.acos(),
                        FUnOp::Asin => x.asin(),
                        FUnOp::Atan => x.atan(),
                    };
                    regs[dst.0 as usize] = Value::F(r);
                }
                Inst::IBin { op, dst, a, b } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(a.0), Some(b.0), None],
                        Some(dst.0),
                    ));
                    let x = self.reg_i32(&regs, *a, pc)?;
                    let y = self.reg_i32(&regs, *b, pc)?;
                    let r = match op {
                        IBinOp::Add => x.wrapping_add(y),
                        IBinOp::Sub => x.wrapping_sub(y),
                        IBinOp::Mul => x.wrapping_mul(y),
                        IBinOp::Shl => x.wrapping_shl(y as u32),
                        IBinOp::Shr => x.wrapping_shr(y as u32),
                        IBinOp::And => x & y,
                        IBinOp::Or => x | y,
                        IBinOp::Rem => {
                            if y == 0 {
                                0
                            } else {
                                x.wrapping_rem(y)
                            }
                        }
                    };
                    regs[dst.0 as usize] = Value::I(r);
                }
                Inst::CmpF { op, dst, a, b } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::FpAdd,
                        [Some(a.0), Some(b.0), None],
                        Some(dst.0),
                    ));
                    let x = self.reg_f32(&regs, *a, pc)?;
                    let y = self.reg_f32(&regs, *b, pc)?;
                    regs[dst.0 as usize] = Value::I(op.eval_f32(x, y) as i32);
                }
                Inst::CmpI { op, dst, a, b } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(a.0), Some(b.0), None],
                        Some(dst.0),
                    ));
                    let x = self.reg_i32(&regs, *a, pc)?;
                    let y = self.reg_i32(&regs, *b, pc)?;
                    regs[dst.0 as usize] = Value::I(op.eval_i32(x, y) as i32);
                }
                Inst::IToF { dst, src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(src.0), None, None],
                        Some(dst.0),
                    ));
                    let v = self.reg_i32(&regs, *src, pc)?;
                    regs[dst.0 as usize] = Value::F(v as f32);
                }
                Inst::FToI { dst, src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(src.0), None, None],
                        Some(dst.0),
                    ));
                    let v = self.reg_f32(&regs, *src, pc)?;
                    regs[dst.0 as usize] = Value::I(v as i32);
                }
                Inst::BitsToF { dst, src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(src.0), None, None],
                        Some(dst.0),
                    ));
                    let v = self.reg_i32(&regs, *src, pc)?;
                    regs[dst.0 as usize] = Value::F(f32::from_bits(v as u32));
                }
                Inst::FToBits { dst, src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::IntAlu,
                        [Some(src.0), None, None],
                        Some(dst.0),
                    ));
                    let v = self.reg_f32(&regs, *src, pc)?;
                    regs[dst.0 as usize] = Value::I(v.to_bits() as i32);
                }
                Inst::Load { dst, base, offset } => {
                    let addr = self.reg_i32(&regs, *base, pc)? as i64 + *offset as i64;
                    let idx = self.check_addr(addr)?;
                    sink.event(&TraceEvent {
                        pc: cur_pc,
                        class: OpClass::Load,
                        srcs: [Some(base.0), None, None],
                        dst: Some(dst.0),
                        mem: Some(MemAccess {
                            addr: (idx as u64) * 4,
                            is_store: false,
                        }),
                        branch: None,
                    });
                    regs[dst.0 as usize] = Value::F(self.memory[idx]);
                }
                Inst::Store { src, base, offset } => {
                    let addr = self.reg_i32(&regs, *base, pc)? as i64 + *offset as i64;
                    let idx = self.check_addr(addr)?;
                    sink.event(&TraceEvent {
                        pc: cur_pc,
                        class: OpClass::Store,
                        srcs: [Some(src.0), Some(base.0), None],
                        dst: None,
                        mem: Some(MemAccess {
                            addr: (idx as u64) * 4,
                            is_store: true,
                        }),
                        branch: None,
                    });
                    self.memory[idx] = self.reg_f32(&regs, *src, pc)?;
                }
                Inst::Branch { cond, target } => {
                    let taken = self.reg_i32(&regs, *cond, pc)? != 0;
                    let target_idx = target.0 as usize;
                    sink.event(&TraceEvent {
                        pc: cur_pc,
                        class: OpClass::Branch,
                        srcs: [Some(cond.0), None, None],
                        dst: None,
                        mem: None,
                        branch: Some(BranchInfo {
                            taken,
                            conditional: true,
                            target: base_pc | target_idx as u64,
                        }),
                    });
                    if taken {
                        pc = target_idx;
                    }
                }
                Inst::Jump { target } => {
                    let target_idx = target.0 as usize;
                    sink.event(&TraceEvent {
                        pc: cur_pc,
                        class: OpClass::Jump,
                        srcs: [None; 3],
                        dst: None,
                        mem: None,
                        branch: Some(BranchInfo {
                            taken: true,
                            conditional: false,
                            target: base_pc | target_idx as u64,
                        }),
                    });
                    pc = target_idx;
                }
                Inst::Call {
                    func: callee,
                    args: arg_regs,
                    rets,
                } => {
                    sink.event(&TraceEvent {
                        pc: cur_pc,
                        class: OpClass::Call,
                        srcs: [None; 3],
                        dst: None,
                        mem: None,
                        branch: Some(BranchInfo {
                            taken: true,
                            conditional: false,
                            target: (*callee as u64) << 32,
                        }),
                    });
                    let mut arg_vals = self.value_pool.pop().unwrap_or_default();
                    arg_vals.clear();
                    arg_vals.extend(arg_regs.iter().map(|r| regs[r.0 as usize]));
                    let results = self.exec_frame(
                        FuncId(*callee),
                        &arg_vals,
                        sink,
                        npu,
                        executed,
                        depth + 1,
                    )?;
                    self.value_pool.push(arg_vals);
                    for (dst, &v) in rets.iter().zip(&results) {
                        regs[dst.0 as usize] = v;
                    }
                    self.value_pool.push(results);
                }
                Inst::Ret { vals } => {
                    sink.event(&TraceEvent {
                        pc: cur_pc,
                        class: OpClass::Ret,
                        srcs: [None; 3],
                        dst: None,
                        mem: None,
                        branch: Some(BranchInfo {
                            taken: true,
                            conditional: false,
                            target: 0,
                        }),
                    });
                    let mut out = self.value_pool.pop().unwrap_or_default();
                    out.clear();
                    out.extend(vals.iter().map(|r| regs[r.0 as usize]));
                    self.value_pool.push(regs);
                    return Ok(out);
                }
                Inst::EnqD { src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::NpuEnqD,
                        [Some(src.0), None, None],
                        None,
                    ));
                    let v = self.reg_f32(&regs, *src, pc)?;
                    match npu {
                        Some(port) => port.enq_data(v),
                        None => return Err(IrError::NoNpuAttached),
                    }
                }
                Inst::DeqD { dst } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::NpuDeqD,
                        [None; 3],
                        Some(dst.0),
                    ));
                    match npu {
                        Some(port) => regs[dst.0 as usize] = Value::F(port.deq_data()),
                        None => return Err(IrError::NoNpuAttached),
                    }
                }
                Inst::EnqC { src } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::NpuEnqC,
                        [Some(src.0), None, None],
                        None,
                    ));
                    let v = self.reg_i32(&regs, *src, pc)?;
                    match npu {
                        Some(port) => port.enq_config(v as u32),
                        None => return Err(IrError::NoNpuAttached),
                    }
                }
                Inst::DeqC { dst } => {
                    sink.event(&TraceEvent::simple(
                        cur_pc,
                        OpClass::NpuDeqC,
                        [None; 3],
                        Some(dst.0),
                    ));
                    match npu {
                        Some(port) => regs[dst.0 as usize] = Value::I(port.deq_config() as i32),
                        None => return Err(IrError::NoNpuAttached),
                    }
                }
            }
            // `ret` and faults have returned by now, so only completed
            // instructions reach the after-hook.
            sink.after_inst(cur_pc, depth, &regs);
        }
    }

    fn reg_f32(&self, regs: &[Value], r: Reg, at: usize) -> Result<f32, IrError> {
        match regs[r.0 as usize] {
            Value::F(v) => Ok(v),
            Value::I(_) => Err(IrError::TypeMismatch {
                expected: "f32",
                at: at.saturating_sub(1),
            }),
        }
    }

    fn reg_i32(&self, regs: &[Value], r: Reg, at: usize) -> Result<i32, IrError> {
        match regs[r.0 as usize] {
            Value::I(v) => Ok(v),
            Value::F(_) => Err(IrError::TypeMismatch {
                expected: "i32",
                at: at.saturating_sub(1),
            }),
        }
    }

    fn check_addr(&self, addr: i64) -> Result<usize, IrError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(IrError::OutOfBoundsMemory {
                addr,
                size: self.memory.len(),
            });
        }
        Ok(addr as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, CountingSink, FunctionBuilder, VecSink};

    fn single(program_fn: Function) -> (Program, FuncId) {
        let mut p = Program::new();
        let id = p.add_function(program_fn);
        (p, id)
    }
    use crate::Function;

    #[test]
    fn arithmetic_and_return() {
        let mut b = FunctionBuilder::new("f", 2);
        let (x, y) = (b.param(0), b.param(1));
        let s = b.fadd(x, y);
        let d = b.fsub(x, y);
        let p = b.fmul(s, d); // (x+y)(x-y) = x^2 - y^2
        b.ret(&[p]);
        let (program, f) = single(b.build().unwrap());
        let out = Interpreter::new(&program)
            .run(f, &[Value::F(5.0), Value::F(3.0)])
            .unwrap();
        assert_eq!(out[0].as_f32().unwrap(), 16.0);
    }

    #[test]
    fn loop_sums_integers() {
        // sum 1..=n
        let mut b = FunctionBuilder::new("sum", 1);
        let n = b.param(0);
        let acc = b.consti(0);
        let i = b.consti(0);
        let one = b.consti(1);
        let top = b.new_label();
        let exit = b.new_label();
        b.bind(top);
        let done = b.cmpi(CmpOp::Ge, i, n);
        b.branch_if(done, exit);
        b.iadd_into(i, one);
        b.iadd_into(acc, i);
        b.jump(top);
        b.bind(exit);
        b.ret(&[acc]);
        let (program, f) = single(b.build().unwrap());
        let out = Interpreter::new(&program).run(f, &[Value::I(10)]).unwrap();
        assert_eq!(out[0].as_i32().unwrap(), 55);
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut b = FunctionBuilder::new("memrt", 1);
        let addr = b.param(0);
        let v = b.constf(2.5);
        b.store(v, addr, 1);
        let r = b.load(addr, 1);
        let doubled = b.fadd(r, r);
        b.ret(&[doubled]);
        let (program, f) = single(b.build().unwrap());
        let out = Interpreter::new(&program)
            .with_memory(16)
            .run(f, &[Value::I(4)])
            .unwrap();
        assert_eq!(out[0].as_f32().unwrap(), 5.0);
    }

    #[test]
    fn out_of_bounds_memory_is_reported() {
        let mut b = FunctionBuilder::new("oob", 1);
        let addr = b.param(0);
        let r = b.load(addr, 0);
        b.ret(&[r]);
        let (program, f) = single(b.build().unwrap());
        let err = Interpreter::new(&program)
            .with_memory(8)
            .run(f, &[Value::I(9)])
            .unwrap_err();
        assert!(matches!(
            err,
            IrError::OutOfBoundsMemory { addr: 9, size: 8 }
        ));
    }

    #[test]
    fn calls_pass_args_and_returns() {
        let mut callee = FunctionBuilder::new("square", 1);
        let x = callee.param(0);
        let xx = callee.fmul(x, x);
        callee.ret(&[xx]);

        let mut program = Program::new();
        let sq = program.add_function(callee.build().unwrap());

        let mut caller = FunctionBuilder::new("main", 1);
        let a = caller.param(0);
        let r = caller.call(sq, &[a], 1);
        let two = caller.constf(2.0);
        let out = caller.fmul(r[0], two);
        caller.ret(&[out]);
        let main = program.add_function(caller.build().unwrap());

        let result = Interpreter::new(&program)
            .run(main, &[Value::F(3.0)])
            .unwrap();
        assert_eq!(result[0].as_f32().unwrap(), 18.0);
    }

    #[test]
    fn trace_counts_and_branch_info() {
        let mut b = FunctionBuilder::new("b", 1);
        let x = b.param(0);
        let zero = b.constf(0.0);
        let neg = b.cmpf(CmpOp::Lt, x, zero);
        let skip = b.new_label();
        b.branch_if(neg, skip);
        let y = b.fadd(x, x);
        b.ret(&[y]);
        b.bind(skip);
        let z = b.fneg(x);
        b.ret(&[z]);
        let (program, f) = single(b.build().unwrap());

        let mut sink = VecSink::default();
        let mut interp = Interpreter::new(&program);
        let outcome = interp.run_traced(f, &[Value::F(-2.0)], &mut sink).unwrap();
        assert_eq!(outcome.outputs[0].as_f32().unwrap(), 2.0);
        let branch_ev = sink
            .events
            .iter()
            .find(|e| e.class == OpClass::Branch)
            .unwrap();
        assert!(branch_ev.branch.unwrap().taken);

        // Not-taken path
        let mut sink2 = CountingSink::default();
        let outcome2 = interp.run_traced(f, &[Value::F(2.0)], &mut sink2).unwrap();
        assert_eq!(outcome2.outputs[0].as_f32().unwrap(), 4.0);
        assert_eq!(sink2.control, 2); // branch + ret
    }

    #[test]
    fn npu_instructions_require_port() {
        let mut b = FunctionBuilder::new("npu", 1);
        let x = b.param(0);
        b.enq_d(x);
        let y = b.deq_d();
        b.ret(&[y]);
        let (program, f) = single(b.build().unwrap());
        let err = Interpreter::new(&program)
            .run(f, &[Value::F(1.0)])
            .unwrap_err();
        assert_eq!(err, IrError::NoNpuAttached);
    }

    #[test]
    fn npu_port_echo() {
        struct Echo(Vec<f32>);
        impl NpuPort for Echo {
            fn enq_config(&mut self, _w: u32) {}
            fn deq_config(&mut self) -> u32 {
                0
            }
            fn enq_data(&mut self, v: f32) {
                self.0.push(v);
            }
            fn deq_data(&mut self) -> f32 {
                self.0.remove(0) * 10.0
            }
        }
        let mut b = FunctionBuilder::new("npu", 2);
        let (x, y) = (b.param(0), b.param(1));
        b.enq_d(x);
        b.enq_d(y);
        let a = b.deq_d();
        let c = b.deq_d();
        let s = b.fadd(a, c);
        b.ret(&[s]);
        let (program, f) = single(b.build().unwrap());
        let mut echo = Echo(Vec::new());
        let mut sink = NullSink;
        let out = Interpreter::new(&program)
            .run_full(
                f,
                &[Value::F(1.0), Value::F(2.0)],
                &mut sink,
                Some(&mut echo),
            )
            .unwrap();
        assert_eq!(out.outputs[0].as_f32().unwrap(), 30.0);
    }

    #[test]
    fn budget_stops_infinite_loops() {
        let mut b = FunctionBuilder::new("spin", 0);
        let top = b.new_label();
        b.bind(top);
        b.jump(top);
        let (program, f) = single(b.build().unwrap());
        let err = Interpreter::new(&program)
            .with_budget(1000)
            .run(f, &[])
            .unwrap_err();
        assert_eq!(err, IrError::BudgetExhausted);
    }

    #[test]
    fn type_mismatch_detected() {
        let mut b = FunctionBuilder::new("t", 1);
        let x = b.param(0); // will receive an i32
        let y = b.fadd(x, x); // fp op on i32
        b.ret(&[y]);
        let (program, f) = single(b.build().unwrap());
        let err = Interpreter::new(&program)
            .run(f, &[Value::I(3)])
            .unwrap_err();
        assert!(matches!(
            err,
            IrError::TypeMismatch {
                expected: "f32",
                ..
            }
        ));
    }

    #[test]
    fn arity_checked() {
        let mut b = FunctionBuilder::new("two", 2);
        b.ret(&[]);
        let (program, f) = single(b.build().unwrap());
        let err = Interpreter::new(&program)
            .run(f, &[Value::F(0.0)])
            .unwrap_err();
        assert!(matches!(
            err,
            IrError::ArityMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }
}
