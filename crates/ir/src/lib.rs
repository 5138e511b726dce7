//! An imperative register IR and tracing interpreter for approximable code.
//!
//! The MICRO 2012 Parrot paper transforms regions of *C* code, compiled with
//! GCC and executed on the MARSSx86 cycle-accurate simulator. This crate is
//! the reproduction's substitute for that toolchain: candidate regions (and
//! the application glue around them) are written in a small register-based
//! imperative IR whose operation classes map one-to-one onto the x86-64
//! instruction mix the paper counts. `sin`, `cos`, and `sqrt` are single IR
//! operations standing in for libm calls, which matches the paper's note
//! that its instruction statistics "do not include the statistics of the
//! standard library functions".
//!
//! The [`Interpreter`] executes a [`Program`] and simultaneously emits a
//! dynamic instruction [`trace`](TraceEvent) consumed by the `uarch`
//! cycle-level core model, so functional results and timing derive from the
//! same execution.
//!
//! # Example
//!
//! ```
//! use approx_ir::{FunctionBuilder, Program, Interpreter, Value};
//!
//! // f(a, b) = sqrt(a*a + b*b)
//! let mut b = FunctionBuilder::new("hypot", 2);
//! let (a, x) = (b.param(0), b.param(1));
//! let aa = b.fmul(a, a);
//! let xx = b.fmul(x, x);
//! let sum = b.fadd(aa, xx);
//! let r = b.fsqrt(sum);
//! b.ret(&[r]);
//!
//! let mut program = Program::new();
//! let f = program.add_function(b.build()?);
//! let out = Interpreter::new(&program).run(f, &[Value::F(3.0), Value::F(4.0)])?;
//! assert_eq!(out[0].as_f32()?, 5.0);
//! # Ok::<(), approx_ir::IrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod builder;
mod counts;
mod display;
mod error;
mod func;
mod inst;
mod interp;
mod program;
mod trace;

pub use builder::FunctionBuilder;
pub use counts::{static_counts, StaticCounts};
pub use error::IrError;
pub use func::Function;
pub use inst::{CmpOp, FBinOp, FUnOp, IBinOp, Inst, Label, Reg};
pub use interp::{Interpreter, NpuPort, RunOutcome, Value};
pub use program::{FuncId, Program};
pub use trace::{
    BranchInfo, CountingSink, MemAccess, NullSink, OpClass, TraceEvent, TraceSink, VecSink,
};
