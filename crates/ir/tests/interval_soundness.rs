//! Executable soundness of the interval analysis on random programs.
//!
//! [`run_checked`] runs the production `Interpreter` with an observer
//! that asserts, at every register read and write, that the concrete
//! value lies inside the interval the analysis inferred for that program
//! point — the soundness theorem as a runtime check. Driving it with
//! randomly generated (frequently malformed) programs shows the analysis
//! never excludes a value the interpreter can produce; comparing the
//! result with an unobserved run shows that observing changes nothing
//! (including faults).
//!
//! Programs are assembled from raw instruction lists (bypassing the
//! builder's invariants) so uninitialized reads, wild branches, and
//! type-confused arithmetic are all exercised.

use approx_ir::analysis::{run_checked, AbsValue, FloatInterval};
use approx_ir::{
    CmpOp, FBinOp, FUnOp, FuncId, Function, IBinOp, Inst, Interpreter, Label, Program, Reg, Value,
};
use proptest::prelude::*;

const N_REGS: u16 = 6;
const N_PARAMS: usize = 2;
const SCRATCH_WORDS: usize = 8;
const BUDGET: u64 = 20_000;

fn reg() -> impl Strategy<Value = Reg> {
    (0..N_REGS).prop_map(Reg)
}

/// One random instruction. Mirrors the opcode mix of the verifier
/// proptests, with subtraction and multiplication added so widening at
/// loop heads sees both growth directions.
fn arb_inst() -> impl Strategy<Value = Inst> {
    (0i32..18, (reg(), reg(), reg()), -4.0f32..4.0, -4i32..12).prop_map(
        |(opcode, (r0, r1, r2), fimm, iimm)| {
            let target = Label(iimm.unsigned_abs() % 16);
            match opcode {
                0 => Inst::ConstF {
                    dst: r0,
                    value: fimm,
                },
                1 => Inst::ConstI {
                    dst: r0,
                    value: iimm,
                },
                2 => Inst::Mov { dst: r0, src: r1 },
                3 => Inst::FBin {
                    op: FBinOp::Add,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                4 => Inst::FBin {
                    op: FBinOp::Mul,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                5 => Inst::FUn {
                    op: FUnOp::Neg,
                    dst: r0,
                    a: r1,
                },
                6 => Inst::IBin {
                    op: IBinOp::Add,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                7 => Inst::IBin {
                    op: IBinOp::Sub,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                8 => Inst::IBin {
                    op: IBinOp::Mul,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                9 => Inst::CmpF {
                    op: CmpOp::Lt,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                10 => Inst::CmpI {
                    op: CmpOp::Lt,
                    dst: r0,
                    a: r1,
                    b: r2,
                },
                11 => Inst::IToF { dst: r0, src: r1 },
                12 => Inst::FToI { dst: r0, src: r1 },
                13 => Inst::Load {
                    dst: r0,
                    base: r1,
                    offset: iimm,
                },
                14 => Inst::Store {
                    src: r0,
                    base: r1,
                    offset: iimm,
                },
                15 => Inst::Branch { cond: r0, target },
                16 => Inst::Jump { target },
                _ => Inst::Ret { vals: vec![] },
            }
        },
    )
}

/// A one-function program from raw instructions, always ending in `ret`
/// so the empty instruction list is not trivially malformed.
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_inst(), 0..14).prop_map(|mut insts| {
        insts.push(Inst::Ret { vals: vec![] });
        let f = Function::new_unchecked("gen", N_PARAMS, N_REGS as usize, vec![], insts);
        let mut p = Program::new();
        p.add_function(f);
        p
    })
}

fn run_real(p: &Program, args: &[Value]) -> Result<Vec<Value>, approx_ir::IrError> {
    Interpreter::new(p)
        .with_memory(SCRATCH_WORDS)
        .with_budget(BUDGET)
        .run(FuncId(0), args)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// With ⊤-float parameters, every concrete execution — including
    /// faulting ones — stays inside the inferred intervals, and the
    /// observed run returns what an unobserved one does.
    /// `run_checked` panics on any containment violation, so the whole
    /// property is "does not panic, and results match".
    #[test]
    fn random_programs_stay_inside_their_intervals(
        p in arb_program(),
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        let args = [Value::F(a), Value::F(b)];
        let params = vec![AbsValue::top_float(); N_PARAMS];
        let checked = run_checked(&p, FuncId(0), &args, SCRATCH_WORDS, BUDGET, &params);
        prop_assert_eq!(checked, run_real(&p, &args));
    }

    /// Declaring the true input range tightens the analysis but must
    /// never break soundness: the same executions stay inside the
    /// narrower intervals.
    #[test]
    fn declared_input_ranges_stay_sound(
        p in arb_program(),
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        let args = [Value::F(a), Value::F(b)];
        let range = AbsValue::float(FloatInterval {
            lo: -2.0,
            hi: 2.0,
            nan: false,
        });
        let params = vec![range; N_PARAMS];
        let checked = run_checked(&p, FuncId(0), &args, SCRATCH_WORDS, BUDGET, &params);
        prop_assert_eq!(checked, run_real(&p, &args));
    }
}
