//! Instruction-level def/use extraction and per-register chains.
//!
//! These helpers are the single source of truth for "which registers does
//! this instruction read and write" — every dataflow analysis and the
//! verifier build on them, so a new instruction variant only needs to be
//! described once.

use crate::{Function, Inst, Reg};

/// The registers `inst` writes.
///
/// Only `Call` defines more than one register; note that a `Call` whose
/// `rets` list is longer than the callee's return arity leaves the excess
/// registers untouched at runtime — the verifier flags that case, and
/// dataflow callers that know the callee arity should truncate.
pub fn defs_of(inst: &Inst) -> Vec<Reg> {
    match inst {
        Inst::ConstF { dst, .. }
        | Inst::ConstI { dst, .. }
        | Inst::Mov { dst, .. }
        | Inst::FBin { dst, .. }
        | Inst::FUn { dst, .. }
        | Inst::IBin { dst, .. }
        | Inst::CmpF { dst, .. }
        | Inst::CmpI { dst, .. }
        | Inst::IToF { dst, .. }
        | Inst::FToI { dst, .. }
        | Inst::BitsToF { dst, .. }
        | Inst::FToBits { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::DeqD { dst }
        | Inst::DeqC { dst } => vec![*dst],
        Inst::Call { rets, .. } => rets.clone(),
        _ => vec![],
    }
}

/// The single register `inst` writes, if it writes exactly one.
///
/// `Call` returns `None` even when it writes one register — use
/// [`defs_of`] when calls matter.
pub fn def_of(inst: &Inst) -> Option<Reg> {
    match inst {
        Inst::Call { .. } => None,
        _ => {
            let d = defs_of(inst);
            d.first().copied()
        }
    }
}

/// The registers `inst` reads.
pub fn uses_of(inst: &Inst) -> Vec<Reg> {
    match inst {
        Inst::Mov { src, .. }
        | Inst::IToF { src, .. }
        | Inst::FToI { src, .. }
        | Inst::BitsToF { src, .. }
        | Inst::FToBits { src, .. } => vec![*src],
        Inst::FBin { a, b, .. }
        | Inst::IBin { a, b, .. }
        | Inst::CmpF { a, b, .. }
        | Inst::CmpI { a, b, .. } => vec![*a, *b],
        Inst::FUn { a, .. } => vec![*a],
        Inst::Load { base, .. } => vec![*base],
        Inst::Store { src, base, .. } => vec![*src, *base],
        Inst::Branch { cond, .. } => vec![*cond],
        Inst::Call { args, .. } => args.clone(),
        Inst::Ret { vals } => vals.clone(),
        Inst::EnqD { src } | Inst::EnqC { src } => vec![*src],
        _ => vec![],
    }
}

/// Whether `inst` is free of side effects and faults, so a dead definition
/// can be deleted. Loads are excluded: they can fault on a bad address and
/// the conservative passes preserve fault behaviour.
pub fn is_pure(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::ConstF { .. }
            | Inst::ConstI { .. }
            | Inst::Mov { .. }
            | Inst::FBin { .. }
            | Inst::FUn { .. }
            | Inst::IBin { .. }
            | Inst::CmpF { .. }
            | Inst::CmpI { .. }
            | Inst::IToF { .. }
            | Inst::FToI { .. }
            | Inst::BitsToF { .. }
            | Inst::FToBits { .. }
    )
}

/// Def and use sites per register for one function.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// `defs[r]` = instruction indices writing register `r`.
    defs: Vec<Vec<usize>>,
    /// `uses[r]` = instruction indices reading register `r`.
    uses: Vec<Vec<usize>>,
}

impl DefUse {
    /// Collects def/use chains for `f`. Parameters count as a def at a
    /// virtual pre-entry site and are *not* listed in [`defs`](Self::defs).
    /// Registers numbered beyond `n_regs` (malformed IR) are still
    /// indexed, so chains never panic on bad input.
    pub fn build(f: &Function) -> DefUse {
        let mut max_reg = f.n_regs();
        for inst in f.insts() {
            for r in defs_of(inst).into_iter().chain(uses_of(inst)) {
                max_reg = max_reg.max(r.0 as usize + 1);
            }
        }
        let mut du = DefUse {
            defs: vec![Vec::new(); max_reg],
            uses: vec![Vec::new(); max_reg],
        };
        for (i, inst) in f.insts().iter().enumerate() {
            for r in defs_of(inst) {
                du.defs[r.0 as usize].push(i);
            }
            for r in uses_of(inst) {
                du.uses[r.0 as usize].push(i);
            }
        }
        du
    }

    /// Instruction indices writing `r`.
    pub fn defs(&self, r: Reg) -> &[usize] {
        self.defs.get(r.0 as usize).map_or(&[], |v| v)
    }

    /// Instruction indices reading `r`.
    pub fn uses(&self, r: Reg) -> &[usize] {
        self.uses.get(r.0 as usize).map_or(&[], |v| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionBuilder;

    #[test]
    fn chains_cover_defs_and_uses() {
        let mut b = FunctionBuilder::new("du", 1);
        let x = b.param(0);
        let two = b.constf(2.0);
        let y = b.fmul(x, two);
        b.ret(&[y]);
        let f = b.build().unwrap();
        let du = DefUse::build(&f);
        assert_eq!(du.defs(x), &[] as &[usize], "params have no def site");
        assert_eq!(du.uses(x), &[1]);
        assert_eq!(du.defs(two), &[0]);
        assert_eq!(du.defs(y), &[1]);
        assert_eq!(du.uses(y), &[2]);
    }

    #[test]
    fn call_defines_all_ret_registers() {
        use crate::{Inst, Reg};
        let call = Inst::Call {
            func: 0,
            args: vec![Reg(1)],
            rets: vec![Reg(2), Reg(3)],
        };
        assert_eq!(defs_of(&call), vec![Reg(2), Reg(3)]);
        assert_eq!(def_of(&call), None);
        assert_eq!(uses_of(&call), vec![Reg(1)]);
        assert!(!is_pure(&call));
    }
}
