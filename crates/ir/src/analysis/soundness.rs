//! Checked execution: an observer on the production [`Interpreter`] that
//! asserts, at every register read and write, that the concrete value
//! lies inside the interval inferred by [`IntervalAnalysis`].
//!
//! This is the executable form of the analysis soundness theorem —
//!
//! > for every program point and register, the set of values the
//! > concrete interpreter can observe there is a subset of the inferred
//! > abstract value
//!
//! — and it is what the `interval_soundness` proptests drive across the
//! six Table 1 benchmark regions and randomly generated programs. The
//! checker is a [`TraceSink`] using the interpreter's instruction hooks:
//! before each instruction it checks reachability and the registers the
//! instruction reads, after it the registers it wrote. The semantics
//! checked are therefore exactly the ones `compile` and `simulate` run.
//!
//! The depth-0 frame is checked against an *entry* analysis (caller-
//! supplied parameter intervals plus the zero-initialized scratch
//! model); every deeper frame — including recursive re-entries of the
//! entry function itself, for which the zeroed-memory assumption would
//! be unsound — is checked against a generic analysis of its function
//! with ⊤ parameters and no memory model.

use super::defuse::{defs_of, uses_of};
use super::interval::{AbsValue, IntervalAnalysis};
use crate::{FuncId, Function, Interpreter, IrError, Program, TraceEvent, TraceSink, Value};

/// Runs `func` like `Interpreter::run` (zero-filled `memory_words` of
/// scratch, instruction `budget`, no NPU port), panicking if any value
/// the execution observes escapes its inferred interval.
///
/// `entry_params` are the abstract parameter values the depth-0 frame is
/// analyzed under; every `args[i]` must be contained in `entry_params[i]`
/// (that containment is asserted — a violated premise is a caller bug,
/// not an analysis bug).
///
/// # Errors
///
/// Exactly the `IrError`s the interpreter produces.
///
/// # Panics
///
/// On any soundness violation: a concrete value outside its interval, or
/// execution reaching an instruction the analysis proved unreachable.
pub fn run_checked(
    program: &Program,
    func: FuncId,
    args: &[Value],
    memory_words: usize,
    budget: u64,
    entry_params: &[AbsValue],
) -> Result<Vec<Value>, IrError> {
    for (i, &a) in args.iter().enumerate() {
        let p = entry_params.get(i).copied().unwrap_or(AbsValue::Any);
        assert!(
            p.contains(a),
            "premise violation: arg {i} = {a:?} outside declared {p:?}"
        );
    }
    let entry = match program.function_by_index(func.0) {
        Some(f) => IntervalAnalysis::of_region(program, f, entry_params, memory_words),
        None => return Err(IrError::UnknownFunction(func.0)),
    };
    Checker::new(program, entry).run(func, args, memory_words, budget)
}

/// The soundness observer: one analysis for the entry frame, one generic
/// analysis per function for every deeper frame.
struct Checker<'p> {
    program: &'p Program,
    entry: IntervalAnalysis,
    generic: Vec<IntervalAnalysis>,
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program, entry: IntervalAnalysis) -> Self {
        let generic = program
            .functions()
            .iter()
            .map(|f| IntervalAnalysis::of_function(f, &vec![AbsValue::Any; f.n_params()]))
            .collect();
        Checker {
            program,
            entry,
            generic,
        }
    }

    fn run(
        mut self,
        func: FuncId,
        args: &[Value],
        memory_words: usize,
        budget: u64,
    ) -> Result<Vec<Value>, IrError> {
        Interpreter::new(self.program)
            .with_memory(memory_words)
            .with_budget(budget)
            .run_traced(func, args, &mut self)
            .map(|outcome| outcome.outputs)
    }

    /// The function, instruction index and analysis for static `pc`
    /// executing at `depth`.
    fn frame(&self, pc: u64, depth: usize) -> (&'p Function, usize, &IntervalAnalysis) {
        let func = (pc >> 32) as u32;
        let f = self
            .program
            .function_by_index(func)
            .expect("the interpreter only executes functions of its program");
        let analysis = if depth == 0 {
            &self.entry
        } else {
            &self.generic[func as usize]
        };
        (f, pc as u32 as usize, analysis)
    }
}

impl TraceSink for Checker<'_> {
    fn event(&mut self, _ev: &TraceEvent) {}

    fn before_inst(&mut self, pc: u64, depth: usize, regs: &[Value]) {
        let (f, i, analysis) = self.frame(pc, depth);
        let (name, inst) = (f.name(), &f.insts()[i]);
        assert!(
            analysis.reachable(i),
            "soundness violation in {name}: executed instruction {i} ({inst:?}) \
             that the analysis proved unreachable"
        );
        for r in uses_of(inst) {
            let abs = analysis.value_before(i, r);
            let v = regs[r.0 as usize];
            assert!(
                abs.contains(v),
                "soundness violation in {name} at {i} ({inst:?}): \
                 read {r:?} = {v:?} outside {abs:?}"
            );
        }
    }

    fn after_inst(&mut self, pc: u64, depth: usize, regs: &[Value]) {
        let (f, i, analysis) = self.frame(pc, depth);
        let (name, inst) = (f.name(), &f.insts()[i]);
        for r in defs_of(inst) {
            let abs = analysis.value_after(i, r);
            let v = regs[r.0 as usize];
            assert!(
                abs.contains(v),
                "soundness violation in {name} at {i} ({inst:?}): \
                 wrote {r:?} = {v:?} outside {abs:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::interval::{FloatInterval, IntInterval};
    use super::*;
    use crate::FunctionBuilder;

    fn single(b: FunctionBuilder) -> (Program, FuncId) {
        let mut p = Program::new();
        let f = p.add_function(b.build().unwrap());
        (p, f)
    }

    /// Observing a run must not change it: same outputs, same faults.
    fn observed_matches_unobserved(program: &Program, f: FuncId, args: &[Value], words: usize) {
        let params: Vec<AbsValue> = args
            .iter()
            .map(|&a| match a {
                Value::F(_) => AbsValue::top_float(),
                Value::I(_) => AbsValue::Any,
            })
            .collect();
        let checked = run_checked(program, f, args, words, 100_000, &params);
        let plain = Interpreter::new(program)
            .with_memory(words)
            .with_budget(100_000)
            .run(f, args);
        assert_eq!(checked, plain);
    }

    #[test]
    fn observing_leaves_loads_and_stores_unchanged() {
        let mut b = FunctionBuilder::new("acc", 1);
        let x = b.param(0);
        let addr = b.consti(3);
        b.store(x, addr, 0);
        let r = b.load(addr, 0);
        let y = b.fmul(r, r);
        b.ret(&[y]);
        let (p, f) = single(b);
        observed_matches_unobserved(&p, f, &[Value::F(1.5)], 8);
    }

    #[test]
    fn observing_leaves_faults_unchanged() {
        // An out-of-bounds store faults the same way with or without
        // the checker attached.
        let mut b = FunctionBuilder::new("oob", 1);
        let x = b.param(0);
        let addr = b.ftoi(x);
        b.store(x, addr, 0);
        b.ret(&[x]);
        let (p, f) = single(b);
        observed_matches_unobserved(&p, f, &[Value::F(99.0)], 8);
    }

    #[test]
    fn recursion_is_checked_with_generic_frames() {
        // f(n) = n <= 0 ? 0 : f(n - 1); exercises depth > 0 frames of
        // the entry function itself.
        let mut b = FunctionBuilder::new("rec", 1);
        let n = b.param(0);
        let zero = b.consti(0);
        let one = b.consti(1);
        let base = b.new_label();
        let c = b.cmpi(crate::CmpOp::Le, n, zero);
        b.branch_if(c, base);
        let m = b.isub(n, one);
        let r = b.call(FuncId(0), &[m], 1);
        b.ret(&[r[0]]);
        b.bind(base);
        b.ret(&[zero]);
        let (p, f) = single(b);
        let out = run_checked(
            &p,
            f,
            &[Value::I(5)],
            4,
            100_000,
            &[AbsValue::Int(IntInterval { lo: 0, hi: 10 })],
        )
        .unwrap();
        assert_eq!(out, vec![Value::I(0)]);
    }

    // The tests below hand the checker a deliberately wrong analysis and
    // expect it to object. Each program is built so that exactly one
    // hook can see the violation.

    #[test]
    #[should_panic(expected = "soundness violation")]
    fn a_read_outside_its_interval_is_caught() {
        // `ret x` only reads, so only the before-hook can object. The
        // analysis assumes x ∈ [0, 1]; the run passes 5.
        let mut b = FunctionBuilder::new("id", 1);
        let x = b.param(0);
        b.ret(&[x]);
        let (p, f) = single(b);
        let unit = AbsValue::float(FloatInterval {
            lo: 0.0,
            hi: 1.0,
            nan: false,
        });
        let wrong = IntervalAnalysis::of_function(&p.functions()[0], &[unit]);
        let _ = Checker::new(&p, wrong).run(f, &[Value::F(5.0)], 0, 100);
    }

    #[test]
    #[should_panic(expected = "soundness violation")]
    fn a_write_outside_its_interval_is_caught() {
        // The run writes 2.0 into a register nothing reads afterwards, so
        // only the after-hook can object; the analysis comes from the
        // same shape writing 1.0.
        let shape = |value: f32| {
            let mut b = FunctionBuilder::new("k", 0);
            let _ = b.constf(value);
            b.ret(&[]);
            single(b)
        };
        let (analyzed, _) = shape(1.0);
        let (p, f) = shape(2.0);
        let wrong = IntervalAnalysis::of_function(&analyzed.functions()[0], &[]);
        let _ = Checker::new(&p, wrong).run(f, &[], 0, 100);
    }

    #[test]
    #[should_panic(expected = "soundness violation")]
    fn executing_an_unreachable_instruction_is_caught() {
        // `jump L; ret; L: ret`, analyzed with L after the first `ret`
        // (so that `ret` is dead) and run with L before it. No register
        // is read or written, so only the reachability check can object.
        let shape = |skip_first_ret: bool| {
            let mut b = FunctionBuilder::new("j", 0);
            let first = b.new_label();
            let second = b.new_label();
            b.jump(if skip_first_ret { second } else { first });
            b.bind(first);
            b.ret(&[]);
            b.bind(second);
            b.ret(&[]);
            single(b)
        };
        let (analyzed, _) = shape(true);
        let (p, f) = shape(false);
        let wrong = IntervalAnalysis::of_function(&analyzed.functions()[0], &[]);
        let _ = Checker::new(&p, wrong).run(f, &[], 0, 100);
    }
}
