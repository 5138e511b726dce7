//! Generic forward abstract interpretation over the CFG.
//!
//! [`solve`] runs any monotone transfer system ([`AbstractDomain`]) to a
//! fixpoint with the classic widening/narrowing discipline:
//!
//! 1. **Ascending phase** — chaotic iteration in reverse postorder with
//!    plain joins. For lattices of unbounded height (intervals), this
//!    alone need not terminate, so after `WIDEN_DELAY` (32)
//!    passes the join is replaced by [`AbstractDomain::widen`] on every
//!    *retreating edge* — an edge whose target sits at an equal or
//!    earlier reverse-postorder position than its source, which covers
//!    irreducible cycles as well as natural loop back edges. Forward
//!    edges into a loop head keep plain joins even after the delay:
//!    their contributions are bounded by earlier-RPO blocks stabilizing
//!    (every cycle contains a retreating edge, so every unbounded chain
//!    still meets a widening point), and joining them keeps
//!    loop-invariant values *exact* — widening a nested loop's head on
//!    its preheader edge would coarsen outer-loop invariants that
//!    narrowing can never recover, because the stale bound re-justifies
//!    itself around the inner cycle.
//! 2. **Descending phase** — a bounded number of narrowing passes
//!    recompute each block's input from its predecessors' outputs and
//!    tighten via [`AbstractDomain::narrow`], clawing back precision the
//!    widening jumps gave up.
//!
//! The delayed widening matters in practice: the benchmark regions' loop
//! counters run to small constant bounds (8 for the jpeg DCT), and a few
//! extra plain-join passes let those intervals converge *exactly* before
//! any widening coarsens them.
//!
//! The solver is deterministic: iteration order is reverse postorder and
//! every operation is a pure function of the domain, so repeated runs
//! produce identical solutions (the RunReport pipeline relies on this).

use super::cfg::Cfg;

/// A monotone abstract domain: per-block transfer plus lattice plumbing.
///
/// `join`/`widen`/`narrow` mutate their first argument in place and report
/// whether it changed. `widen` must subsume the join (`widen(a, b) ⊒
/// a ⊔ b`); `narrow` may shrink its target but must never drop below the
/// greatest lower bound of its arguments, so any fixed number of
/// narrowing passes stays sound.
pub trait AbstractDomain {
    /// The per-block abstract state.
    type State: Clone;

    /// The state on entry to the function (parameters, initial memory).
    fn entry_state(&self) -> Self::State;

    /// The state after executing every instruction of `block`, given the
    /// state at its start.
    fn transfer_block(&self, block: usize, input: &Self::State) -> Self::State;

    /// The state flowing along the edge `block → succ`, given the state
    /// at the end of `block`. This is where conditional-branch refinement
    /// lives; the default is to propagate the block output unchanged.
    fn edge_state(&self, block: usize, succ: usize, output: &Self::State) -> Self::State {
        let _ = (block, succ);
        output.clone()
    }

    /// Whether `state` admits no concrete execution at all (⊥ somewhere
    /// a concrete value must exist). The solver drops infeasible edge
    /// states instead of propagating them, so a branch arm whose
    /// refinement yields a contradiction — a zero-trip loop body, a
    /// constant-false arm — is proven unreachable rather than analyzed
    /// under an impossible premise. The default never prunes.
    fn is_infeasible(&self, state: &Self::State) -> bool {
        let _ = state;
        false
    }

    /// Least upper bound, in place. Returns whether `into` changed.
    fn join(&self, into: &mut Self::State, incoming: &Self::State) -> bool;

    /// Widening: like `join` but guaranteed to converge in finitely many
    /// steps on any ascending chain. Returns whether `into` changed.
    fn widen(&self, into: &mut Self::State, incoming: &Self::State) -> bool;

    /// Narrowing: tightens `into` using a freshly recomputed `incoming`
    /// (which is itself a sound over-approximation). Returns whether
    /// `into` changed.
    fn narrow(&self, into: &mut Self::State, incoming: &Self::State) -> bool;
}

// Iteration knobs, tuned for the benchmark regions: loop bounds there
// are small constants, so a modest widening delay lets them converge
// exactly.

/// Plain-join passes before widening engages on retreating edges.
const WIDEN_DELAY: usize = 32;
/// Descending (narrowing) passes after the ascending fixpoint.
const NARROW_PASSES: usize = 2;
/// Hard cap on ascending passes (backstop against a domain whose
/// widening fails to converge; never hit by a law-abiding domain).
pub(super) const MAX_PASSES: usize = 512;

/// The converged solution: one abstract state per block at block *entry*
/// (`None` for blocks the abstract execution never reaches).
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// State at the start of each block, indexed by block id.
    pub block_in: Vec<Option<S>>,
    /// Ascending passes taken to converge (diagnostic).
    pub passes: usize,
}

/// Runs `domain` to a fixpoint over `cfg`. See the module docs for the
/// iteration strategy.
pub fn solve<D: AbstractDomain>(cfg: &Cfg, domain: &D) -> Solution<D::State> {
    let nb = cfg.len();
    let mut block_in: Vec<Option<D::State>> = (0..nb).map(|_| None).collect();
    if nb == 0 {
        return Solution {
            block_in,
            passes: 0,
        };
    }

    // Reverse-postorder positions; a retreating edge targets a block at
    // an equal or earlier position than its source. Self-loops retreat.
    let mut rpo_pos = vec![usize::MAX; nb];
    for (k, &b) in cfg.rpo().iter().enumerate() {
        rpo_pos[b] = k;
    }

    let entry = cfg.rpo()[0];
    block_in[entry] = Some(domain.entry_state());

    // Ascending phase.
    let mut passes = 0usize;
    loop {
        let mut changed = false;
        for &b in cfg.rpo() {
            let input = match &block_in[b] {
                Some(s) => s,
                None => continue,
            };
            let output = domain.transfer_block(b, input);
            for &s in &cfg.blocks()[b].succs {
                let edge = domain.edge_state(b, s, &output);
                if domain.is_infeasible(&edge) {
                    continue;
                }
                match &mut block_in[s] {
                    None => {
                        block_in[s] = Some(edge);
                        changed = true;
                    }
                    Some(cur) => {
                        let retreating = rpo_pos[s] <= rpo_pos[b];
                        let grew = if passes >= WIDEN_DELAY && retreating {
                            domain.widen(cur, &edge)
                        } else {
                            domain.join(cur, &edge)
                        };
                        changed |= grew;
                    }
                }
            }
        }
        passes += 1;
        if !changed || passes >= MAX_PASSES {
            break;
        }
    }

    // Descending phase: recompute each block input from predecessor
    // outputs and narrow toward it.
    for _ in 0..NARROW_PASSES {
        let outputs: Vec<Option<D::State>> = block_in
            .iter()
            .enumerate()
            .map(|(b, s)| s.as_ref().map(|s| domain.transfer_block(b, s)))
            .collect();
        let mut changed = false;
        for &b in cfg.rpo() {
            let mut fresh: Option<D::State> = if b == entry {
                Some(domain.entry_state())
            } else {
                None
            };
            for &p in &cfg.blocks()[b].preds {
                if let Some(out) = &outputs[p] {
                    let edge = domain.edge_state(p, b, out);
                    if domain.is_infeasible(&edge) {
                        continue;
                    }
                    match &mut fresh {
                        None => fresh = Some(edge),
                        Some(acc) => {
                            domain.join(acc, &edge);
                        }
                    }
                }
            }
            if let (Some(cur), Some(fresh)) = (&mut block_in[b], &fresh) {
                changed |= domain.narrow(cur, fresh);
            }
        }
        if !changed {
            break;
        }
    }

    Solution { block_in, passes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, FunctionBuilder};

    /// A toy domain: tracks only "how many blocks deep" the state has
    /// flowed, capped by widening — enough to exercise solver mechanics
    /// (reachability, widening engagement, narrowing invocation).
    struct Depth {
        widened: std::cell::Cell<bool>,
    }
    impl AbstractDomain for Depth {
        type State = u64;
        fn entry_state(&self) -> u64 {
            0
        }
        fn transfer_block(&self, _b: usize, input: &u64) -> u64 {
            input.saturating_add(1)
        }
        fn join(&self, into: &mut u64, incoming: &u64) -> bool {
            let next = (*into).max(*incoming);
            let changed = next != *into;
            *into = next;
            changed
        }
        fn widen(&self, into: &mut u64, incoming: &u64) -> bool {
            if *incoming > *into {
                self.widened.set(true);
                *into = u64::MAX;
                true
            } else {
                false
            }
        }
        fn narrow(&self, _into: &mut u64, _incoming: &u64) -> bool {
            false
        }
    }

    #[test]
    fn loop_triggers_widening_and_converges() {
        let mut b = FunctionBuilder::new("l", 1);
        let n = b.param(0);
        let i = b.consti(0);
        let one = b.consti(1);
        let top = b.new_label();
        let exit = b.new_label();
        b.bind(top);
        let done = b.cmpi(CmpOp::Ge, i, n);
        b.branch_if(done, exit);
        b.iadd_into(i, one);
        b.jump(top);
        b.bind(exit);
        b.ret(&[i]);
        let f = b.build().unwrap();
        let cfg = Cfg::build(&f);
        let d = Depth {
            widened: std::cell::Cell::new(false),
        };
        let sol = solve(&cfg, &d);
        assert!(d.widened.get(), "loop head must eventually widen");
        assert!(sol.passes < MAX_PASSES, "widening must force convergence");
        // Every reachable block got a state.
        for &b in cfg.rpo() {
            assert!(sol.block_in[b].is_some());
        }
    }

    #[test]
    fn unreachable_blocks_stay_none() {
        use crate::{Inst, Label, Reg};
        let f = crate::Function::new_unchecked(
            "u",
            1,
            2,
            vec![Reg(0)],
            vec![
                Inst::Jump { target: Label(2) },
                Inst::Mov {
                    dst: Reg(1),
                    src: Reg(0),
                }, // unreachable
                Inst::Ret { vals: vec![Reg(0)] },
            ],
        );
        let cfg = Cfg::build(&f);
        let d = Depth {
            widened: std::cell::Cell::new(false),
        };
        let sol = solve(&cfg, &d);
        let dead = (0..cfg.len()).find(|&b| !cfg.is_reachable(b)).unwrap();
        assert!(sol.block_in[dead].is_none());
    }

    #[test]
    fn empty_cfg_yields_empty_solution() {
        let f = crate::Function::new_unchecked("e", 0, 0, vec![], vec![]);
        let cfg = Cfg::build(&f);
        let d = Depth {
            widened: std::cell::Cell::new(false),
        };
        let sol = solve(&cfg, &d);
        assert!(sol.block_in.is_empty());
    }
}
