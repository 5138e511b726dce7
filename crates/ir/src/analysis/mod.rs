//! Static analysis over the register IR.
//!
//! The Parrot transformation only admits candidate regions that are hot,
//! pure, and have well-defined fixed-size inputs and outputs (paper
//! §3.1). Until this module existed those criteria were enforced by
//! nothing: a malformed region surfaced, if at all, as a runtime
//! interpreter error deep inside an observation run. The analyses here
//! give the whole workspace a reusable dataflow stack:
//!
//! * [`cfg`](mod@cfg) — basic blocks and control-flow edges recovered from the
//!   flat label/branch structure, with reverse-postorder iteration;
//! * [`dom`] — immediate dominators (iterative Cooper–Harvey–Kennedy);
//! * [`defuse`] — per-instruction def/use sets and per-register
//!   def-use chains;
//! * [`liveness`] — per-block live-in/live-out via backward dataflow;
//! * [`types`] — int/float type inference per register (union-find over
//!   `mov` copies plus operand constraints);
//! * [`effects`] — side-effect and purity summaries per function and per
//!   call graph;
//! * [`absint`] — a generic forward abstract-interpretation solver
//!   (monotone lattice, widening/narrowing at loop heads);
//! * [`interval`] — the solver instantiated with an int/float interval
//!   domain, including a word-granular scratch-memory model;
//! * [`precision`] — static fixed-point precision requirements (integer
//!   and fraction bits per value) derived from the intervals;
//! * [`soundness`] — an observer on the production interpreter asserting
//!   every concrete value falls inside its inferred interval;
//! * [`verify`] — the region safety verifier (`parrot-lint`): the lint
//!   catalogue mapping the paper's §3.1 criteria onto concrete checks.

pub mod absint;
pub mod cfg;
pub mod defuse;
pub mod dom;
pub mod effects;
pub mod interval;
pub mod liveness;
pub mod precision;
pub mod soundness;
pub mod types;
pub mod verify;

pub use absint::{solve, AbstractDomain, SolverConfig};
pub use cfg::{BasicBlock, Cfg};
pub use defuse::{def_of, defs_of, is_pure, uses_of, DefUse};
pub use dom::Dominators;
pub use effects::{function_effects, region_effects, EffectSummary};
pub use interval::{AbsValue, FloatInterval, InstFacts, IntInterval, IntervalAnalysis};
pub use liveness::Liveness;
pub use precision::{PrecisionReport, ValuePrecision};
pub use soundness::run_checked;
pub use types::{infer_types, RegType, TypeMap};
pub use verify::{
    verify_region, verify_region_with_inputs, Diagnostic, Lint, Severity, VerifyReport,
};

/// A dense bit set over register numbers, used by the must-initialize
/// and liveness dataflow problems (register spaces run into the hundreds
/// for the generated software-NN functions, so `HashSet` churn matters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `n_regs` registers.
    pub fn empty(n_regs: usize) -> RegSet {
        RegSet {
            bits: vec![0; n_regs.div_ceil(64)],
        }
    }

    /// The full set `{0, …, n_regs-1}`.
    pub fn full(n_regs: usize) -> RegSet {
        let mut s = RegSet::empty(n_regs);
        for r in 0..n_regs {
            s.insert(r as u16);
        }
        s
    }

    /// Adds `r`.
    pub fn insert(&mut self, r: u16) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        if w < self.bits.len() {
            self.bits[w] |= 1 << b;
        }
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: u16) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        if w < self.bits.len() {
            self.bits[w] &= !(1 << b);
        }
    }

    /// Whether `r` is present.
    pub fn contains(&self, r: u16) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        w < self.bits.len() && self.bits[w] & (1 << b) != 0
    }

    /// In-place intersection. Returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// In-place union. Returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// In-place difference (`self \ other`). Returns `true` if `self`
    /// changed.
    pub fn subtract(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let next = *a & !b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regset_basic_ops() {
        let mut s = RegSet::empty(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));

        let full = RegSet::full(130);
        assert!(full.contains(129));
        let mut inter = full.clone();
        assert!(inter.intersect_with(&s));
        assert!(inter.contains(0) && !inter.contains(64));

        let mut uni = RegSet::empty(130);
        assert!(uni.union_with(&s));
        assert_eq!(uni, s);
        assert!(!uni.union_with(&s));
    }
}
