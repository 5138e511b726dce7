//! Per-block live-register analysis (backward may-dataflow).
//!
//! `live_in[b]` = registers whose current value may be read before being
//! overwritten on some path starting at block `b`. The verifier's
//! dead-store lint walks each block backward from `live_out[b]` to find
//! definitions no path ever reads.

use super::cfg::Cfg;
use super::defuse::{defs_of, uses_of};
use super::RegSet;
use crate::Function;

/// Live-in/live-out register sets per basic block.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Runs the backward fixpoint over `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let n_regs = reg_space(f);
        let nb = cfg.len();

        // Per-block gen (upward-exposed uses) and kill (defs) sets.
        let mut gen_set = vec![RegSet::empty(n_regs); nb];
        let mut kill = vec![RegSet::empty(n_regs); nb];
        for (b, blk) in cfg.blocks().iter().enumerate() {
            for i in blk.range() {
                for r in uses_of(&f.insts()[i]) {
                    if !kill[b].contains(r.0) {
                        gen_set[b].insert(r.0);
                    }
                }
                for r in defs_of(&f.insts()[i]) {
                    kill[b].insert(r.0);
                }
            }
        }

        let mut live_in = vec![RegSet::empty(n_regs); nb];
        let mut live_out = vec![RegSet::empty(n_regs); nb];
        // Iterate blocks in postorder (reverse RPO) for fast convergence.
        let order: Vec<usize> = cfg.rpo().iter().rev().copied().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut out = RegSet::empty(n_regs);
                for &s in &cfg.blocks()[b].succs {
                    out.union_with(&live_in[s]);
                }
                // in = gen ∪ (out − kill)
                let mut input = out.clone();
                input.subtract(&kill[b]);
                input.union_with(&gen_set[b]);
                if live_out[b] != out {
                    live_out[b] = out;
                }
                if live_in[b] != input {
                    live_in[b] = input;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to block `b`.
    pub fn live_in(&self, b: usize) -> &RegSet {
        &self.live_in[b]
    }

    /// Registers live on exit from block `b`.
    pub fn live_out(&self, b: usize) -> &RegSet {
        &self.live_out[b]
    }
}

/// The register index space of `f`, widened to cover malformed IR that
/// mentions registers beyond `n_regs`.
pub(crate) fn reg_space(f: &Function) -> usize {
    let mut n = f.n_regs();
    for inst in f.insts() {
        for r in defs_of(inst).into_iter().chain(uses_of(inst)) {
            n = n.max(r.0 as usize + 1);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, FunctionBuilder};

    #[test]
    fn loop_carries_accumulator_live_around_back_edge() {
        let mut b = FunctionBuilder::new("l", 1);
        let n = b.param(0);
        let acc = b.consti(0);
        let i = b.consti(0);
        let one = b.consti(1);
        let top = b.new_label();
        let exit = b.new_label();
        b.bind(top);
        let done = b.cmpi(CmpOp::Ge, i, n);
        b.branch_if(done, exit);
        b.iadd_into(acc, i);
        b.iadd_into(i, one);
        b.jump(top);
        b.bind(exit);
        b.ret(&[acc]);
        let f = b.build().unwrap();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let header = cfg.block_of(4); // the cmpi
                                      // The accumulator is live into the header (read after the loop),
                                      // and so are the loop-carried counter and bound.
        assert!(lv.live_in(header).contains(acc.0));
        assert!(lv.live_in(header).contains(i.0));
        assert!(lv.live_in(header).contains(n.0));
        // `one` is consumed only inside the body; still live at header
        // because the body reads it before any redefinition.
        assert!(lv.live_in(header).contains(one.0));
    }

    #[test]
    fn dead_def_not_live_anywhere() {
        let mut b = FunctionBuilder::new("d", 1);
        let x = b.param(0);
        let dead = b.fmul(x, x);
        let y = b.fadd(x, x);
        b.ret(&[y]);
        let f = b.build().unwrap();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.live_in(0).contains(dead.0));
        assert!(lv.live_in(0).contains(x.0));
        assert!(lv.live_out(0) == &RegSet::empty(f.n_regs()));
    }
}
