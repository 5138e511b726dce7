//! Interval (value-range) analysis: the [`absint`] solver
//! instantiated with a numeric range domain.
//!
//! Every register is tracked as one of four abstract values
//! ([`AbsValue`]): unreachable ⊥, an integer interval, a float interval
//! (with an explicit may-be-NaN flag), or ⊤ (either type, any value).
//! The transfer functions mirror the interpreter exactly — wrapping i32
//! arithmetic (an overflowing interval falls back to the full i32 range),
//! `rem`-by-zero yielding 0, saturating `f2i`, IEEE rounding — so the
//! central soundness invariant holds by construction and is enforced by
//! proptest, checked on the production interpreter
//! ([`run_checked`](super::soundness::run_checked)):
//!
//! > every value the concrete interpreter ever writes to a register lies
//! > inside that register's inferred interval at that program point.
//!
//! Float endpoints are handled with corner evaluation, which is sound for
//! the coordinate-wise monotone operations under round-to-nearest; the
//! libm stand-ins (`exp`, `asin`, `acos`, `atan`, `atan2`) get their
//! endpoints padded outward by a few ulps, and `sin`/`cos` use their
//! global range. Uninitialized registers are *not* ⊥: the interpreter
//! zero-fills its register file, so they start as the exact integer 0 —
//! the analysis stays sound even on programs the must-init lint rejects.
//!
//! When a region's scratch size is known ([`IntervalAnalysis::of_region`])
//! the state additionally models the scratch words themselves
//! (zero-initialized, weak updates on imprecise store addresses), which
//! is what lets the static precision report bound values that round-trip
//! through scratch, like the jpeg DCT coefficients.

use super::absint::{self, AbstractDomain, SolverConfig};
use super::cfg::Cfg;
use super::defuse::{defs_of, uses_of};
use super::effects::region_effects;
use super::liveness::reg_space;
use crate::{CmpOp, FBinOp, FUnOp, Function, IBinOp, Inst, Program, Reg, Value};

/// Largest scratch size (in words) the analysis models word-by-word.
const MEM_MODEL_MAX_WORDS: usize = 4096;

/// Ulps of outward padding applied to libm-backed endpoint evaluations.
const LIBM_PAD_ULPS: u32 = 4;

// ---------------------------------------------------------------------
// Integer intervals
// ---------------------------------------------------------------------

/// A closed integer interval `[lo, hi]` over i32 values, endpoints kept
/// as i64 so arithmetic can detect wrapping (a result escaping the i32
/// range falls back to [`IntInterval::FULL`], matching the interpreter's
/// wrapping semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntInterval {
    /// Inclusive lower bound (≥ `i32::MIN`).
    pub lo: i64,
    /// Inclusive upper bound (≤ `i32::MAX`).
    pub hi: i64,
}

impl IntInterval {
    /// The full i32 range.
    pub const FULL: IntInterval = IntInterval {
        lo: i32::MIN as i64,
        hi: i32::MAX as i64,
    };

    /// The singleton `[v, v]`.
    pub fn exact(v: i32) -> IntInterval {
        IntInterval {
            lo: v as i64,
            hi: v as i64,
        }
    }

    /// An interval from possibly-overflowing bounds: anything escaping
    /// the i32 range may have wrapped, so it degrades to [`Self::FULL`].
    fn wrapping(lo: i64, hi: i64) -> IntInterval {
        if lo < i32::MIN as i64 || hi > i32::MAX as i64 {
            IntInterval::FULL
        } else {
            IntInterval { lo, hi }
        }
    }

    /// Whether `v` lies inside.
    pub fn contains(&self, v: i32) -> bool {
        self.lo <= v as i64 && v as i64 <= self.hi
    }

    /// Whether the interval is the single value `v`.
    pub fn is_exact(&self) -> Option<i32> {
        (self.lo == self.hi).then_some(self.lo as i32)
    }

    /// Convex hull.
    fn join(&self, o: &IntInterval) -> IntInterval {
        IntInterval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Intersection with raw i64 bounds; `None` when empty.
    fn clamp(&self, lo: i64, hi: i64) -> Option<IntInterval> {
        let nlo = self.lo.max(lo);
        let nhi = self.hi.min(hi);
        (nlo <= nhi).then_some(IntInterval { lo: nlo, hi: nhi })
    }

    /// Intersection; `None` when empty.
    fn meet(&self, o: &IntInterval) -> Option<IntInterval> {
        self.clamp(o.lo, o.hi)
    }

    /// Trims an endpoint equal to `v` (interior exclusions are not
    /// representable); `None` when the result is empty.
    fn exclude(&self, v: i64) -> Option<IntInterval> {
        let mut r = *self;
        if r.lo == v {
            r.lo += 1;
        }
        if r.hi == v {
            r.hi -= 1;
        }
        (r.lo <= r.hi).then_some(r)
    }
}

// ---------------------------------------------------------------------
// Float intervals
// ---------------------------------------------------------------------

/// A closed f32 interval `[lo, hi]` (endpoints may be ±∞, never NaN)
/// plus an explicit "may be NaN" flag. The numeric part is empty when
/// `lo > hi` (canonically `[+∞, −∞]`); an interval that is numerically
/// empty *and* NaN-free denotes no value at all and is normalized to
/// [`AbsValue::Bottom`] by [`AbsValue::float`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatInterval {
    /// Inclusive lower bound.
    pub lo: f32,
    /// Inclusive upper bound.
    pub hi: f32,
    /// Whether NaN is a possible value.
    pub nan: bool,
}

impl FloatInterval {
    /// Every f32, NaN included.
    pub const TOP: FloatInterval = FloatInterval {
        lo: f32::NEG_INFINITY,
        hi: f32::INFINITY,
        nan: true,
    };

    /// The singleton `{v}` (NaN-only when `v` is NaN).
    pub fn exact(v: f32) -> FloatInterval {
        if v.is_nan() {
            FloatInterval::NAN_ONLY
        } else {
            FloatInterval {
                lo: v,
                hi: v,
                nan: false,
            }
        }
    }

    /// Only NaN.
    pub const NAN_ONLY: FloatInterval = FloatInterval {
        lo: f32::INFINITY,
        hi: f32::NEG_INFINITY,
        nan: true,
    };

    /// No numeric values (possibly still NaN, per the flag).
    const fn empty_numeric(nan: bool) -> FloatInterval {
        FloatInterval {
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
            nan,
        }
    }

    /// Whether the numeric part is empty.
    pub fn numeric_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether no value at all is possible.
    fn is_empty(&self) -> bool {
        self.numeric_empty() && !self.nan
    }

    /// Whether `v` lies inside.
    pub fn contains(&self, v: f32) -> bool {
        if v.is_nan() {
            self.nan
        } else {
            self.lo <= v && v <= self.hi
        }
    }

    /// Whether the numeric part contains zero.
    fn has_zero(&self) -> bool {
        self.lo <= 0.0 && 0.0 <= self.hi
    }

    /// Whether either infinity is a possible value.
    fn has_inf(&self) -> bool {
        !self.numeric_empty() && (self.lo == f32::NEG_INFINITY || self.hi == f32::INFINITY)
    }

    /// Convex hull of the numeric parts, NaN flags or-ed. Works with
    /// empty numeric parts because they are canonically `[+∞, −∞]`.
    fn join(&self, o: &FloatInterval) -> FloatInterval {
        FloatInterval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
            nan: self.nan || o.nan,
        }
    }

    /// Intersection (numeric parts intersected, NaN flags and-ed).
    fn meet(&self, o: &FloatInterval) -> FloatInterval {
        FloatInterval {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
            nan: self.nan && o.nan,
        }
    }
}

/// The next f32 above `x` (saturating at +∞).
fn next_up(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x == 0.0 {
        1 // smallest positive subnormal (covers -0.0 too)
    } else if bits >> 31 == 0 {
        bits + 1
    } else {
        bits - 1
    };
    f32::from_bits(next)
}

/// The next f32 below `x` (saturating at −∞).
fn next_down(x: f32) -> f32 {
    -next_up(-x)
}

/// Pads a libm-evaluated endpoint upward to absorb rounding slack.
fn pad_up(mut x: f32) -> f32 {
    for _ in 0..LIBM_PAD_ULPS {
        x = next_up(x);
    }
    x
}

/// Pads a libm-evaluated endpoint downward.
fn pad_down(mut x: f32) -> f32 {
    for _ in 0..LIBM_PAD_ULPS {
        x = next_down(x);
    }
    x
}

// ---------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------

/// The abstract value of one register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsValue {
    /// No value: the program point is unreachable (or every path to it
    /// faults first).
    Bottom,
    /// An i32 in the interval.
    Int(IntInterval),
    /// An f32 in the interval (see [`FloatInterval::nan`]).
    Float(FloatInterval),
    /// Either type, any value.
    Any,
}

impl AbsValue {
    /// A float abstract value, normalizing the empty interval to ⊥.
    pub fn float(f: FloatInterval) -> AbsValue {
        if f.is_empty() {
            AbsValue::Bottom
        } else {
            AbsValue::Float(f)
        }
    }

    /// An int abstract value from an optional (possibly empty) interval.
    pub fn int(i: Option<IntInterval>) -> AbsValue {
        match i {
            Some(i) => AbsValue::Int(i),
            None => AbsValue::Bottom,
        }
    }

    /// Any f32 including NaN — the abstract value of a region input.
    pub fn top_float() -> AbsValue {
        AbsValue::Float(FloatInterval::TOP)
    }

    /// The i32 values this abstraction admits (`None` when it admits no
    /// i32 at all: ⊥ or a float-only value).
    pub fn as_int(&self) -> Option<IntInterval> {
        match self {
            AbsValue::Int(i) => Some(*i),
            AbsValue::Any => Some(IntInterval::FULL),
            AbsValue::Bottom | AbsValue::Float(_) => None,
        }
    }

    /// The f32 values this abstraction admits.
    pub fn as_float(&self) -> Option<FloatInterval> {
        match self {
            AbsValue::Float(f) => Some(*f),
            AbsValue::Any => Some(FloatInterval::TOP),
            AbsValue::Bottom | AbsValue::Int(_) => None,
        }
    }

    /// Whether the concrete `v` is admitted.
    pub fn contains(&self, v: Value) -> bool {
        match (self, v) {
            (AbsValue::Bottom, _) => false,
            (AbsValue::Any, _) => true,
            (AbsValue::Int(i), Value::I(x)) => i.contains(x),
            (AbsValue::Float(f), Value::F(x)) => f.contains(x),
            _ => false,
        }
    }

    /// Least upper bound, in place. Returns whether `self` changed.
    fn join_in_place(&mut self, o: &AbsValue) -> bool {
        let next = match (&*self, o) {
            (AbsValue::Bottom, x) => *x,
            (_, AbsValue::Bottom) => *self,
            (AbsValue::Any, _) | (_, AbsValue::Any) => AbsValue::Any,
            (AbsValue::Int(a), AbsValue::Int(b)) => AbsValue::Int(a.join(b)),
            (AbsValue::Float(a), AbsValue::Float(b)) => AbsValue::Float(a.join(b)),
            _ => AbsValue::Any,
        };
        let changed = next != *self;
        *self = next;
        changed
    }

    /// Widening: join, then jump any bound that moved to the next rung
    /// of a fixed threshold ladder, so ascending chains are finite.
    fn widen_in_place(&mut self, o: &AbsValue) -> bool {
        let old = *self;
        if !self.join_in_place(o) {
            return false;
        }
        match (&old, &mut *self) {
            (AbsValue::Int(prev), AbsValue::Int(j)) => {
                if j.lo < prev.lo {
                    j.lo = int_ladder_down(j.lo);
                }
                if j.hi > prev.hi {
                    j.hi = int_ladder_up(j.hi);
                }
            }
            (AbsValue::Float(prev), AbsValue::Float(j)) => {
                if j.lo < prev.lo {
                    j.lo = float_ladder_down(j.lo);
                }
                if j.hi > prev.hi {
                    j.hi = float_ladder_up(j.hi);
                }
            }
            // Kind changes (⊥ → value, Int/Float → Any) are finite.
            _ => {}
        }
        true
    }

    /// Narrowing: plain intersection with the freshly recomputed value
    /// (both sides over-approximate the least fixpoint, so their meet
    /// still does). Returns whether `self` changed.
    fn narrow_in_place(&mut self, o: &AbsValue) -> bool {
        let next = match (&*self, o) {
            (AbsValue::Bottom, _) | (_, AbsValue::Bottom) => AbsValue::Bottom,
            (AbsValue::Any, x) => *x,
            (x, AbsValue::Any) => *x,
            (AbsValue::Int(a), AbsValue::Int(b)) => AbsValue::int(a.meet(b)),
            (AbsValue::Float(a), AbsValue::Float(b)) => AbsValue::float(a.meet(b)),
            _ => AbsValue::Bottom,
        };
        let changed = next != *self;
        *self = next;
        changed
    }
}

const INT_LADDER: [i64; 9] = [0, 1, 7, 15, 63, 255, 1023, 65_535, (1 << 20) - 1];

fn int_ladder_up(v: i64) -> i64 {
    for t in INT_LADDER {
        if v <= t {
            return t;
        }
    }
    IntInterval::FULL.hi
}

fn int_ladder_down(v: i64) -> i64 {
    for t in INT_LADDER {
        if v >= -t {
            return -t;
        }
    }
    IntInterval::FULL.lo
}

const FLOAT_LADDER: [f32; 6] = [0.0, 1.0, 256.0, 65_536.0, 1.8446744e19, f32::MAX];

fn float_ladder_up(v: f32) -> f32 {
    for t in FLOAT_LADDER {
        if v <= t {
            return t;
        }
    }
    f32::INFINITY
}

fn float_ladder_down(v: f32) -> f32 {
    for t in FLOAT_LADDER {
        if v >= -t {
            return -t;
        }
    }
    f32::NEG_INFINITY
}

// ---------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------

fn ibin(op: IBinOp, a: IntInterval, b: IntInterval) -> IntInterval {
    match op {
        IBinOp::Add => IntInterval::wrapping(a.lo + b.lo, a.hi + b.hi),
        IBinOp::Sub => IntInterval::wrapping(a.lo - b.hi, a.hi - b.lo),
        IBinOp::Mul => {
            let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            IntInterval::wrapping(
                c.iter().copied().min().unwrap(),
                c.iter().copied().max().unwrap(),
            )
        }
        IBinOp::Shl => {
            // wrapping_shl masks the shift to 0..=31; only a provably
            // in-range shift keeps a meaningful bound.
            if b.lo < 0 || b.hi > 31 {
                return IntInterval::FULL;
            }
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for s in b.lo..=b.hi {
                for x in [a.lo, a.hi] {
                    let v = x << s;
                    if !(i32::MIN as i64..=i32::MAX as i64).contains(&v) {
                        return IntInterval::FULL;
                    }
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            IntInterval { lo, hi }
        }
        IBinOp::Shr => {
            // Arithmetic shift never overflows; an out-of-range shift
            // amount is masked, so fall back to the hull over all 32.
            let (slo, shi) = if b.lo >= 0 && b.hi <= 31 {
                (b.lo, b.hi)
            } else {
                (0, 31)
            };
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for s in slo..=shi {
                for x in [a.lo, a.hi] {
                    let v = (x as i32) >> (s as u32);
                    lo = lo.min(v as i64);
                    hi = hi.max(v as i64);
                }
            }
            IntInterval { lo, hi }
        }
        IBinOp::And => {
            // x & y with a non-negative operand is within [0, that
            // operand]; both signs unknown admits anything.
            let bound = match (a.lo >= 0, b.lo >= 0) {
                (true, true) => a.hi.min(b.hi),
                (true, false) => a.hi,
                (false, true) => b.hi,
                (false, false) => return IntInterval::FULL,
            };
            IntInterval { lo: 0, hi: bound }
        }
        IBinOp::Or => {
            if a.lo >= 0 && b.lo >= 0 {
                let m = a.hi.max(b.hi);
                let bits = 64 - (m as u64).leading_zeros();
                IntInterval {
                    lo: a.lo.max(b.lo),
                    hi: (1i64 << bits) - 1,
                }
            } else {
                IntInterval::FULL
            }
        }
        IBinOp::Rem => {
            // rem-by-zero yields 0 in this IR; otherwise the result has
            // |r| ≤ min(|x|, max|y| − 1) and the sign of x.
            let m = a_abs_max(b).max(1) - 1;
            let lo = if a.lo >= 0 { 0 } else { a.lo.max(-m) };
            let hi = if a.hi <= 0 { 0 } else { a.hi.min(m) };
            IntInterval { lo, hi }
        }
    }
}

fn a_abs_max(i: IntInterval) -> i64 {
    i.lo.abs().max(i.hi.abs())
}

/// The 0/1 result interval of an integer comparison, `None` when no
/// outcome is possible (empty operands).
fn cmp_i(op: CmpOp, a: IntInterval, b: IntInterval) -> IntInterval {
    let (can_true, can_false) = match op {
        CmpOp::Lt => (a.lo < b.hi, a.hi >= b.lo),
        CmpOp::Le => (a.lo <= b.hi, a.hi > b.lo),
        CmpOp::Gt => (a.hi > b.lo, a.lo <= b.hi),
        CmpOp::Ge => (a.hi >= b.lo, a.lo < b.hi),
        CmpOp::Eq => (a.meet(&b).is_some(), !(a.is_exact().is_some() && a == b)),
        CmpOp::Ne => (!(a.is_exact().is_some() && a == b), a.meet(&b).is_some()),
    };
    IntInterval {
        lo: if can_false { 0 } else { 1 },
        hi: if can_true { 1 } else { 0 },
    }
}

/// The 0/1 result interval of a float comparison (NaN makes the ordered
/// predicates false and `Ne` true).
fn cmp_f(op: CmpOp, a: FloatInterval, b: FloatInterval) -> Option<IntInterval> {
    let nan_possible = a.nan || b.nan;
    let both_numeric = !a.numeric_empty() && !b.numeric_empty();
    let (mut can_true, mut can_false) = (false, false);
    if both_numeric {
        let (t, f) = match op {
            CmpOp::Lt => (a.lo < b.hi, a.hi >= b.lo),
            CmpOp::Le => (a.lo <= b.hi, a.hi > b.lo),
            CmpOp::Gt => (a.hi > b.lo, a.lo <= b.hi),
            CmpOp::Ge => (a.hi >= b.lo, a.lo < b.hi),
            CmpOp::Eq => (
                !a.meet(&b).numeric_empty(),
                !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
            ),
            CmpOp::Ne => (
                !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
                !a.meet(&b).numeric_empty(),
            ),
        };
        can_true |= t;
        can_false |= f;
    }
    if nan_possible {
        if op == CmpOp::Ne {
            can_true = true;
        } else {
            can_false = true;
        }
    }
    (can_true || can_false).then_some(IntInterval {
        lo: if can_false { 0 } else { 1 },
        hi: if can_true { 1 } else { 0 },
    })
}

/// Hull over corner evaluations, treating NaN corners as a NaN
/// possibility rather than a bound.
fn corner_hull(corners: &[f32]) -> FloatInterval {
    let mut r = FloatInterval::empty_numeric(false);
    for &c in corners {
        if c.is_nan() {
            r.nan = true;
        } else {
            r.lo = r.lo.min(c);
            r.hi = r.hi.max(c);
        }
    }
    r
}

#[allow(clippy::similar_names)]
fn fbin(op: FBinOp, a: FloatInterval, b: FloatInterval) -> FloatInterval {
    let both = !a.numeric_empty() && !b.numeric_empty();
    let mut r = match op {
        FBinOp::Add if both => corner_hull_or_full(&[a.lo + b.lo, a.hi + b.hi]),
        FBinOp::Sub if both => corner_hull_or_full(&[a.lo - b.hi, a.hi - b.lo]),
        FBinOp::Mul if both => {
            let mut r = corner_hull_or_full(&[a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]);
            // 0 × ∞ can arise away from the corners.
            if (a.has_zero() && b.has_inf()) || (b.has_zero() && a.has_inf()) {
                r.nan = true;
            }
            r
        }
        FBinOp::Div if both => {
            if b.has_zero() {
                // Divisors arbitrarily close to zero blow past any
                // corner bound; 0/0 is the only NaN case.
                FloatInterval {
                    lo: f32::NEG_INFINITY,
                    hi: f32::INFINITY,
                    nan: a.has_zero(),
                }
            } else {
                let mut r =
                    corner_hull_or_full(&[a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi]);
                if a.has_inf() && b.has_inf() {
                    r.nan = true;
                }
                r
            }
        }
        // min/max pass the non-NaN operand through when one side is NaN,
        // so a NaN-only side contributes the other side's numeric range.
        FBinOp::Min => {
            let mut r = FloatInterval::empty_numeric(a.nan && b.nan);
            if both {
                r = r.join(&FloatInterval {
                    lo: a.lo.min(b.lo),
                    hi: a.hi.min(b.hi),
                    nan: r.nan,
                });
            }
            if a.nan && !b.numeric_empty() {
                r = r.join(&FloatInterval { nan: r.nan, ..b });
            }
            if b.nan && !a.numeric_empty() {
                r = r.join(&FloatInterval { nan: r.nan, ..a });
            }
            return r;
        }
        FBinOp::Max => {
            let mut r = FloatInterval::empty_numeric(a.nan && b.nan);
            if both {
                r = r.join(&FloatInterval {
                    lo: a.lo.max(b.lo),
                    hi: a.hi.max(b.hi),
                    nan: r.nan,
                });
            }
            if a.nan && !b.numeric_empty() {
                r = r.join(&FloatInterval { nan: r.nan, ..b });
            }
            if b.nan && !a.numeric_empty() {
                r = r.join(&FloatInterval { nan: r.nan, ..a });
            }
            return r;
        }
        FBinOp::Atan2 if both => {
            let bound = pad_up(std::f32::consts::PI);
            FloatInterval {
                lo: -bound,
                hi: bound,
                nan: false,
            }
        }
        _ => FloatInterval::empty_numeric(false),
    };
    r.nan |= a.nan || b.nan;
    r
}

/// Corner hull; a NaN corner (∞ − ∞ and friends) admits NaN *and* voids
/// the bounds, since nearby non-corner inputs reach arbitrary values.
fn corner_hull_or_full(corners: &[f32]) -> FloatInterval {
    let r = corner_hull(corners);
    if r.nan {
        FloatInterval::TOP
    } else {
        r
    }
}

fn fun(op: FUnOp, a: FloatInterval) -> FloatInterval {
    let num = !a.numeric_empty();
    let mut r = match op {
        FUnOp::Neg if num => FloatInterval {
            lo: -a.hi,
            hi: -a.lo,
            nan: false,
        },
        FUnOp::Abs if num => {
            if a.lo >= 0.0 {
                FloatInterval { nan: false, ..a }
            } else if a.hi <= 0.0 {
                FloatInterval {
                    lo: -a.hi,
                    hi: -a.lo,
                    nan: false,
                }
            } else {
                FloatInterval {
                    lo: 0.0,
                    hi: (-a.lo).max(a.hi),
                    nan: false,
                }
            }
        }
        FUnOp::Sqrt if num => {
            // Negative inputs yield NaN; sqrt is correctly rounded and
            // monotone, so endpoints are exact.
            if a.hi < 0.0 {
                FloatInterval::empty_numeric(true)
            } else {
                FloatInterval {
                    lo: a.lo.max(0.0).sqrt(),
                    hi: a.hi.sqrt(),
                    nan: a.lo < 0.0,
                }
            }
        }
        FUnOp::Sin | FUnOp::Cos if num => FloatInterval {
            lo: -1.0,
            hi: 1.0,
            nan: a.has_inf(),
        },
        FUnOp::Floor if num => FloatInterval {
            lo: a.lo.floor(),
            hi: a.hi.floor(),
            nan: false,
        },
        FUnOp::Exp if num => FloatInterval {
            lo: pad_down(a.lo.exp()).max(0.0),
            hi: pad_up(a.hi.exp()),
            nan: false,
        },
        FUnOp::Asin if num => {
            let c = a.meet(&FloatInterval {
                lo: -1.0,
                hi: 1.0,
                nan: false,
            });
            let out_of_domain = a.lo < -1.0 || a.hi > 1.0;
            if c.numeric_empty() {
                FloatInterval::empty_numeric(true)
            } else {
                FloatInterval {
                    lo: pad_down(c.lo.asin()),
                    hi: pad_up(c.hi.asin()),
                    nan: out_of_domain,
                }
            }
        }
        FUnOp::Acos if num => {
            let c = a.meet(&FloatInterval {
                lo: -1.0,
                hi: 1.0,
                nan: false,
            });
            let out_of_domain = a.lo < -1.0 || a.hi > 1.0;
            if c.numeric_empty() {
                FloatInterval::empty_numeric(true)
            } else {
                // acos is decreasing.
                FloatInterval {
                    lo: pad_down(c.hi.acos()),
                    hi: pad_up(c.lo.acos()),
                    nan: out_of_domain,
                }
            }
        }
        FUnOp::Atan if num => FloatInterval {
            lo: pad_down(a.lo.atan()),
            hi: pad_up(a.hi.atan()),
            nan: false,
        },
        _ => FloatInterval::empty_numeric(false),
    };
    r.nan |= a.nan;
    r
}

/// `f32 as i32` over an interval: truncating, saturating, NaN → 0.
fn f_to_i(a: FloatInterval) -> Option<IntInterval> {
    let mut r: Option<IntInterval> = None;
    if !a.numeric_empty() {
        // `as` saturates at the type bounds and truncation is monotone.
        r = Some(IntInterval {
            lo: (a.lo as i32) as i64,
            hi: (a.hi as i32) as i64,
        });
    }
    if a.nan {
        let zero = IntInterval::exact(0);
        r = Some(match r {
            Some(i) => i.join(&zero),
            None => zero,
        });
    }
    r
}

// ---------------------------------------------------------------------
// The domain
// ---------------------------------------------------------------------

/// Per-block abstract state: one [`AbsValue`] per register, plus (for
/// region entries) one [`FloatInterval`] per scratch word.
#[derive(Debug, Clone)]
pub struct IntervalState {
    /// Register abstractions, indexed by register number.
    pub regs: Vec<AbsValue>,
    /// Scratch word abstractions; empty when memory is not modeled.
    pub mem: Vec<FloatInterval>,
}

impl IntervalState {
    /// The abstraction of register `r` (⊥ for out-of-range indices).
    pub fn get(&self, r: Reg) -> AbsValue {
        self.regs
            .get(r.0 as usize)
            .copied()
            .unwrap_or(AbsValue::Bottom)
    }

    fn set(&mut self, r: Reg, v: AbsValue) {
        if let Some(slot) = self.regs.get_mut(r.0 as usize) {
            *slot = v;
        }
    }
}

struct IntervalDomain<'a> {
    f: &'a Function,
    cfg: Cfg,
    params: Vec<AbsValue>,
    space: usize,
    /// `Some(words)` enables the word-granular scratch model.
    mem_words: Option<usize>,
    /// Per-instruction: whether a `Call` here may write memory
    /// (transitively). Only populated when memory is modeled.
    call_writes_mem: Vec<bool>,
}

impl IntervalDomain<'_> {
    #[allow(clippy::too_many_lines)]
    fn transfer_inst(&self, st: &mut IntervalState, i: usize) {
        let inst = &self.f.insts()[i];
        match inst {
            Inst::ConstF { dst, value } => {
                st.set(*dst, AbsValue::float(FloatInterval::exact(*value)))
            }
            Inst::ConstI { dst, value } => st.set(*dst, AbsValue::Int(IntInterval::exact(*value))),
            Inst::Mov { dst, src } => {
                let v = st.get(*src);
                st.set(*dst, v);
            }
            Inst::FBin { op, dst, a, b } => {
                let v = match (st.get(*a).as_float(), st.get(*b).as_float()) {
                    (Some(x), Some(y)) => AbsValue::float(fbin(*op, x, y)),
                    _ => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::FUn { op, dst, a } => {
                let v = match st.get(*a).as_float() {
                    Some(x) => AbsValue::float(fun(*op, x)),
                    None => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::IBin { op, dst, a, b } => {
                let v = match (st.get(*a).as_int(), st.get(*b).as_int()) {
                    (Some(x), Some(y)) => AbsValue::Int(ibin(*op, x, y)),
                    _ => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::CmpF { op, dst, a, b } => {
                let v = match (st.get(*a).as_float(), st.get(*b).as_float()) {
                    (Some(x), Some(y)) => AbsValue::int(cmp_f(*op, x, y)),
                    _ => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::CmpI { op, dst, a, b } => {
                let v = match (st.get(*a).as_int(), st.get(*b).as_int()) {
                    (Some(x), Some(y)) => AbsValue::Int(cmp_i(*op, x, y)),
                    _ => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::IToF { dst, src } => {
                let v = match st.get(*src).as_int() {
                    // i32 → f32 rounding is monotone, endpoints suffice.
                    Some(x) => AbsValue::Float(FloatInterval {
                        lo: x.lo as f32,
                        hi: x.hi as f32,
                        nan: false,
                    }),
                    None => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::FToI { dst, src } => {
                let v = match st.get(*src).as_float() {
                    Some(x) => AbsValue::int(f_to_i(x)),
                    None => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::BitsToF { dst, src } => {
                let v = match st.get(*src).as_int() {
                    Some(x) => match x.is_exact() {
                        Some(bits) => {
                            AbsValue::float(FloatInterval::exact(f32::from_bits(bits as u32)))
                        }
                        None => AbsValue::Float(FloatInterval::TOP),
                    },
                    None => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::FToBits { dst, src } => {
                let v = match st.get(*src).as_float() {
                    Some(x) => {
                        if !x.nan && x.lo == x.hi {
                            AbsValue::Int(IntInterval::exact(x.lo.to_bits() as i32))
                        } else {
                            AbsValue::Int(IntInterval::FULL)
                        }
                    }
                    None => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::Load { dst, base, offset } => {
                let v = match st.get(*base).as_int() {
                    Some(b) => self.load_value(st, b, *offset),
                    None => AbsValue::Bottom,
                };
                st.set(*dst, v);
            }
            Inst::Store { src, base, offset } => {
                if self.mem_words.is_some() {
                    if let (Some(b), Some(val)) = (st.get(*base).as_int(), st.get(*src).as_float())
                    {
                        self.store_value(st, b, *offset, val);
                    }
                }
            }
            Inst::Call { rets, .. } => {
                for r in rets {
                    st.set(*r, AbsValue::Any);
                }
                if self.mem_words.is_some() && self.call_writes_mem.get(i).copied().unwrap_or(true)
                {
                    for w in &mut st.mem {
                        *w = FloatInterval::TOP;
                    }
                }
            }
            Inst::DeqD { dst } => st.set(*dst, AbsValue::Float(FloatInterval::TOP)),
            Inst::DeqC { dst } => st.set(*dst, AbsValue::Int(IntInterval::FULL)),
            Inst::Branch { .. }
            | Inst::Jump { .. }
            | Inst::Ret { .. }
            | Inst::EnqD { .. }
            | Inst::EnqC { .. } => {}
        }
    }

    fn load_value(&self, st: &IntervalState, base: IntInterval, offset: i32) -> AbsValue {
        let Some(words) = self.mem_words else {
            return AbsValue::Float(FloatInterval::TOP);
        };
        let lo = (base.lo + offset as i64).max(0);
        let hi = (base.hi + offset as i64).min(words as i64 - 1);
        if lo > hi {
            // Every possible address faults.
            return AbsValue::Bottom;
        }
        let mut v = FloatInterval::empty_numeric(false);
        for w in lo as usize..=hi as usize {
            v = v.join(&st.mem[w]);
        }
        AbsValue::float(v)
    }

    fn store_value(
        &self,
        st: &mut IntervalState,
        base: IntInterval,
        offset: i32,
        val: FloatInterval,
    ) {
        let words = self.mem_words.unwrap_or(0) as i64;
        let alo = base.lo + offset as i64;
        let ahi = base.hi + offset as i64;
        let lo = alo.max(0);
        let hi = ahi.min(words - 1);
        if lo > hi {
            return;
        }
        if alo == ahi {
            // Exactly one possible address: strong update.
            st.mem[alo as usize] = val;
        } else {
            for w in lo as usize..=hi as usize {
                st.mem[w] = st.mem[w].join(&val);
            }
        }
    }

    /// Refines `st` along a branch edge: the condition register itself,
    /// and — when the condition is a compare whose operands are stable
    /// through the rest of the block — the compared registers.
    fn refine_branch(&self, st: &mut IntervalState, block: usize, cond: Reg, taken: bool) {
        let blk = &self.cfg.blocks()[block];
        let last = blk.end - 1;

        // The branch read `cond` as an i32, so a float-only value means
        // this edge is never taken without faulting first.
        match st.get(cond).as_int() {
            None => st.set(cond, AbsValue::Bottom),
            Some(ci) => {
                let refined = if taken {
                    ci.exclude(0)
                } else {
                    ci.meet(&IntInterval::exact(0))
                };
                st.set(cond, AbsValue::int(refined));
            }
        }

        // Find the (lexically last) in-block definition of the condition.
        let Some(def) = blk
            .range()
            .take(last - blk.start)
            .rev()
            .find(|&j| defs_of(&self.f.insts()[j]).contains(&cond))
        else {
            return;
        };
        let stable = |r: Reg| {
            r != cond && !(def + 1..last).any(|j| defs_of(&self.f.insts()[j]).contains(&r))
        };
        match &self.f.insts()[def] {
            Inst::CmpI { op, a, b, .. } if stable(*a) && stable(*b) => {
                let (Some(ai), Some(bi)) = (st.get(*a).as_int(), st.get(*b).as_int()) else {
                    return;
                };
                let effective = if taken { *op } else { negate(*op) };
                let (ra, rb) = refine_int(effective, ai, bi);
                st.set(*a, AbsValue::int(ra));
                st.set(*b, AbsValue::int(rb));
            }
            Inst::CmpF { op, a, b, .. } if stable(*a) && stable(*b) => {
                let (Some(af), Some(bf)) = (st.get(*a).as_float(), st.get(*b).as_float()) else {
                    return;
                };
                if taken {
                    // The predicate held, so both operands were ordered.
                    let (ra, rb) = refine_float(*op, af, bf);
                    st.set(*a, AbsValue::float(ra));
                    st.set(*b, AbsValue::float(rb));
                } else if *op == CmpOp::Ne {
                    // ¬(a ≠ b): `Ne` is true on any NaN operand, so this
                    // edge carries NaN-free, numerically equal values.
                    let (ra, rb) = refine_float(CmpOp::Eq, af, bf);
                    st.set(*a, AbsValue::float(FloatInterval { nan: false, ..ra }));
                    st.set(*b, AbsValue::float(FloatInterval { nan: false, ..rb }));
                } else {
                    // ¬(a ⋈ b) means the negated predicate *or* an
                    // unordered pair. An operand's *numeric* part still
                    // refines — but only when the other operand cannot
                    // be NaN (a NaN there falsifies the predicate with
                    // this operand unconstrained). NaN flags are kept:
                    // a NaN operand flows through the edge untouched.
                    let (ra, rb) = refine_float(negate(*op), af, bf);
                    if !bf.nan {
                        st.set(*a, AbsValue::float(FloatInterval { nan: af.nan, ..ra }));
                    }
                    if !af.nan {
                        st.set(*b, AbsValue::float(FloatInterval { nan: bf.nan, ..rb }));
                    }
                }
            }
            _ => {}
        }
    }
}

fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

/// Refined operand intervals assuming `a ⋈ b` held (integer form).
fn refine_int(
    op: CmpOp,
    a: IntInterval,
    b: IntInterval,
) -> (Option<IntInterval>, Option<IntInterval>) {
    match op {
        CmpOp::Lt => (a.clamp(i64::MIN, b.hi - 1), b.clamp(a.lo + 1, i64::MAX)),
        CmpOp::Le => (a.clamp(i64::MIN, b.hi), b.clamp(a.lo, i64::MAX)),
        CmpOp::Gt => (a.clamp(b.lo + 1, i64::MAX), b.clamp(i64::MIN, a.hi - 1)),
        CmpOp::Ge => (a.clamp(b.lo, i64::MAX), b.clamp(i64::MIN, a.hi)),
        CmpOp::Eq => {
            let m = a.meet(&b);
            (m, m)
        }
        CmpOp::Ne => {
            let ra = match b.is_exact() {
                Some(v) => a.exclude(v as i64),
                None => Some(a),
            };
            let rb = match a.is_exact() {
                Some(v) => b.exclude(v as i64),
                None => Some(b),
            };
            (ra, rb)
        }
    }
}

/// Refined operand intervals assuming `a ⋈ b` held (float form; a held
/// ordered predicate implies both sides are NaN-free).
fn refine_float(op: CmpOp, a: FloatInterval, b: FloatInterval) -> (FloatInterval, FloatInterval) {
    let bound = |lo: f32, hi: f32| FloatInterval { lo, hi, nan: false };
    match op {
        CmpOp::Lt | CmpOp::Le => (
            a.meet(&bound(f32::NEG_INFINITY, b.hi)),
            b.meet(&bound(a.lo, f32::INFINITY)),
        ),
        CmpOp::Gt | CmpOp::Ge => (
            a.meet(&bound(b.lo, f32::INFINITY)),
            b.meet(&bound(f32::NEG_INFINITY, a.hi)),
        ),
        CmpOp::Eq => {
            let m = a.meet(&b);
            (m, m)
        }
        // `a ≠ b` holds for NaN operands too: no refinement.
        CmpOp::Ne => (a, b),
    }
}

impl AbstractDomain for IntervalDomain<'_> {
    type State = IntervalState;

    fn entry_state(&self) -> IntervalState {
        // Non-parameter registers are zero-initialized i32 by the
        // interpreter; scratch memory is zero-filled f32.
        let mut regs = vec![AbsValue::Int(IntInterval::exact(0)); self.space];
        for (p, slot) in regs.iter_mut().enumerate().take(self.f.n_params()) {
            *slot = self.params.get(p).copied().unwrap_or(AbsValue::Any);
        }
        let mem = match self.mem_words {
            Some(w) => vec![FloatInterval::exact(0.0); w],
            None => Vec::new(),
        };
        IntervalState { regs, mem }
    }

    fn transfer_block(&self, block: usize, input: &IntervalState) -> IntervalState {
        let mut st = input.clone();
        for i in self.cfg.blocks()[block].range() {
            self.transfer_inst(&mut st, i);
        }
        st
    }

    fn edge_state(&self, block: usize, succ: usize, output: &IntervalState) -> IntervalState {
        let blk = &self.cfg.blocks()[block];
        let last = blk.end - 1;
        let mut st = output.clone();
        if let Inst::Branch { cond, target } = &self.f.insts()[last] {
            let n = self.f.len();
            let ft = (blk.end < n).then(|| self.cfg.block_of(blk.end));
            let tk = ((target.0 as usize) < n).then(|| self.cfg.block_of(target.0 as usize));
            if ft != tk {
                self.refine_branch(&mut st, block, *cond, tk == Some(succ));
            }
        }
        st
    }

    fn is_infeasible(&self, state: &IntervalState) -> bool {
        // Every register concretely holds *some* value and scratch words
        // always hold some f32, so a ⊥ register or an empty memory word
        // means no concrete execution reaches this edge — typically a
        // branch refinement that contradicted the known range (zero-trip
        // loop bodies, constant-false arms).
        state.regs.iter().any(|r| matches!(r, AbsValue::Bottom))
            || state.mem.iter().any(|m| m.is_empty())
    }

    fn join(&self, into: &mut IntervalState, incoming: &IntervalState) -> bool {
        let mut changed = false;
        for (a, b) in into.regs.iter_mut().zip(&incoming.regs) {
            changed |= a.join_in_place(b);
        }
        for (a, b) in into.mem.iter_mut().zip(&incoming.mem) {
            let next = a.join(b);
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    fn widen(&self, into: &mut IntervalState, incoming: &IntervalState) -> bool {
        let mut changed = false;
        for (a, b) in into.regs.iter_mut().zip(&incoming.regs) {
            changed |= a.widen_in_place(b);
        }
        for (a, b) in into.mem.iter_mut().zip(&incoming.mem) {
            let joined = a.join(b);
            if joined != *a {
                let mut next = joined;
                if next.lo < a.lo {
                    next.lo = float_ladder_down(next.lo);
                }
                if next.hi > a.hi {
                    next.hi = float_ladder_up(next.hi);
                }
                *a = next;
                changed = true;
            }
        }
        changed
    }

    fn narrow(&self, into: &mut IntervalState, incoming: &IntervalState) -> bool {
        let mut changed = false;
        for (a, b) in into.regs.iter_mut().zip(&incoming.regs) {
            changed |= a.narrow_in_place(b);
        }
        for (a, b) in into.mem.iter_mut().zip(&incoming.mem) {
            let next = a.meet(b);
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

// ---------------------------------------------------------------------
// Public analysis results
// ---------------------------------------------------------------------

/// Abstract values observed at one instruction: operand values just
/// before it executes and definition values just after.
#[derive(Debug, Clone, Default)]
pub struct InstFacts {
    /// Whether the abstract execution reaches this instruction at all.
    pub reachable: bool,
    /// `(register, value-before)` for each register the instruction reads.
    pub pre: Vec<(Reg, AbsValue)>,
    /// `(register, value-after)` for each register the instruction writes.
    pub post: Vec<(Reg, AbsValue)>,
}

/// Converged interval facts for one function.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis {
    facts: Vec<InstFacts>,
    passes: usize,
}

impl IntervalAnalysis {
    /// Analyzes `f` in isolation: no scratch model, loads return any
    /// float. `params` gives the abstract values of the parameters
    /// (missing entries default to [`AbsValue::Any`]).
    pub fn of_function(f: &Function, params: &[AbsValue]) -> IntervalAnalysis {
        Self::build(f, params, None, Vec::new())
    }

    /// Analyzes a region entry function: scratch memory starts
    /// zero-filled (the `RegionSpec` evaluation contract) and is modeled
    /// word-by-word up to a size cap. `program` is consulted for which
    /// calls may write memory.
    pub fn of_region(
        program: &Program,
        f: &Function,
        params: &[AbsValue],
        scratch_words: usize,
    ) -> IntervalAnalysis {
        if scratch_words == 0 || scratch_words > MEM_MODEL_MAX_WORDS {
            return Self::build(f, params, None, Vec::new());
        }
        let call_writes_mem = f
            .insts()
            .iter()
            .map(|inst| match inst {
                Inst::Call { func, .. } => {
                    let fx = region_effects(program, *func);
                    fx.writes_memory || fx.calls_unknown
                }
                _ => false,
            })
            .collect();
        Self::build(f, params, Some(scratch_words), call_writes_mem)
    }

    fn build(
        f: &Function,
        params: &[AbsValue],
        mem_words: Option<usize>,
        call_writes_mem: Vec<bool>,
    ) -> IntervalAnalysis {
        let cfg = Cfg::build(f);
        let domain = IntervalDomain {
            f,
            cfg,
            params: params.to_vec(),
            space: reg_space(f),
            mem_words,
            call_writes_mem,
        };
        let sol = absint::solve(&domain.cfg, &domain, &SolverConfig::default());

        // Replay each block once to snapshot per-instruction facts.
        let mut facts = vec![InstFacts::default(); f.len()];
        for (b, blk) in domain.cfg.blocks().iter().enumerate() {
            let Some(input) = &sol.block_in[b] else {
                continue;
            };
            let mut st = input.clone();
            for i in blk.range() {
                let inst = &f.insts()[i];
                let pre = uses_of(inst).into_iter().map(|r| (r, st.get(r))).collect();
                domain.transfer_inst(&mut st, i);
                let post = defs_of(inst).into_iter().map(|r| (r, st.get(r))).collect();
                facts[i] = InstFacts {
                    reachable: true,
                    pre,
                    post,
                };
            }
        }
        IntervalAnalysis {
            facts,
            passes: sol.passes,
        }
    }

    /// Whether the abstract execution reaches instruction `i`.
    pub fn reachable(&self, i: usize) -> bool {
        self.facts.get(i).is_some_and(|f| f.reachable)
    }

    /// The abstract value of `r` just before instruction `i` executes
    /// (recorded for the registers `i` reads; ⊥ otherwise).
    pub fn value_before(&self, i: usize, r: Reg) -> AbsValue {
        self.facts
            .get(i)
            .and_then(|f| f.pre.iter().find(|(reg, _)| *reg == r))
            .map_or(AbsValue::Bottom, |(_, v)| *v)
    }

    /// The abstract value of `r` just after instruction `i` executes
    /// (recorded for the registers `i` writes; ⊥ otherwise).
    pub fn value_after(&self, i: usize, r: Reg) -> AbsValue {
        self.facts
            .get(i)
            .and_then(|f| f.post.iter().find(|(reg, _)| *reg == r))
            .map_or(AbsValue::Bottom, |(_, v)| *v)
    }

    /// The per-instruction facts, indexed by instruction.
    pub fn facts(&self) -> &[InstFacts] {
        &self.facts
    }

    /// Ascending solver passes taken (diagnostic).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// The word-address range a load/store at `i` may touch, from the
    /// base operand's interval plus the constant offset. `None` when `i`
    /// is not a memory access, is unreachable, or the base register
    /// cannot hold an integer (so the access always faults first).
    pub fn addr_range(&self, i: usize, inst: &Inst) -> Option<(i64, i64)> {
        let (base, offset) = match inst {
            Inst::Load { base, offset, .. } | Inst::Store { base, offset, .. } => (*base, *offset),
            _ => return None,
        };
        if !self.reachable(i) {
            return None;
        }
        let b = self.value_before(i, base).as_int()?;
        Some((b.lo + offset as i64, b.hi + offset as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, FunctionBuilder};

    fn top_params(n: usize) -> Vec<AbsValue> {
        vec![AbsValue::top_float(); n]
    }

    #[test]
    fn straight_line_constant_ranges() {
        let mut b = FunctionBuilder::new("c", 0);
        let two = b.consti(2);
        let three = b.consti(3);
        let six = b.imul(two, three);
        let out = b.itof(six);
        b.ret(&[out]);
        let f = b.build().unwrap();
        let ia = IntervalAnalysis::of_function(&f, &[]);
        assert_eq!(ia.value_after(2, six), AbsValue::Int(IntInterval::exact(6)));
        assert_eq!(
            ia.value_after(3, out),
            AbsValue::Float(FloatInterval::exact(6.0))
        );
    }

    #[test]
    fn counting_loop_converges_to_exact_bounds() {
        // for (i = 0; i < 8; i++) {}; return i  — i is [0,8] at exit.
        let mut b = FunctionBuilder::new("loop8", 0);
        let i = b.consti(0);
        let eight = b.consti(8);
        let one = b.consti(1);
        let top = b.new_label();
        let exit = b.new_label();
        b.bind(top);
        let done = b.cmpi(CmpOp::Ge, i, eight);
        b.branch_if(done, exit);
        b.iadd_into(i, one);
        b.jump(top);
        b.bind(exit);
        let out = b.itof(i);
        b.ret(&[out]);
        let f = b.build().unwrap();
        let ia = IntervalAnalysis::of_function(&f, &[]);
        // At the itof, the exit-edge refinement pins i to exactly 8.
        let at_exit = ia.value_before(f.len() - 2, i);
        assert_eq!(at_exit, AbsValue::Int(IntInterval::exact(8)));
        // Inside the body (the iadd at index 5), i is refined to [0,7].
        let body_i = ia.value_before(5, i);
        assert_eq!(body_i, AbsValue::Int(IntInterval { lo: 0, hi: 7 }));
    }

    #[test]
    fn widening_caps_unbounded_loops() {
        // while (true) i++ — must converge (to the full range) rather
        // than iterate forever.
        let mut b = FunctionBuilder::new("unb", 0);
        let i = b.consti(0);
        let one = b.consti(1);
        let top = b.new_label();
        b.bind(top);
        b.iadd_into(i, one);
        b.jump(top);
        let f = b.build().unwrap();
        let ia = IntervalAnalysis::of_function(&f, &[]);
        assert!(ia.passes() < SolverConfig::default().max_passes);
        let v = ia.value_after(2, i).as_int().unwrap();
        assert!(v.hi >= 1, "{v:?}");
    }

    #[test]
    fn scratch_model_bounds_loaded_values() {
        // store 2.5 at word 3, load it back: the load's interval must
        // contain (only) 2.5 and the initial zeros of other words.
        let mut b = FunctionBuilder::new("mem", 0);
        let v = b.constf(2.5);
        let addr = b.consti(3);
        b.store(v, addr, 0);
        let r = b.load(addr, 0);
        b.ret(&[r]);
        let f = b.build().unwrap();
        let p = {
            let mut p = Program::new();
            p.add_function(f.clone());
            p
        };
        let ia = IntervalAnalysis::of_region(&p, &f, &[], 8);
        assert_eq!(
            ia.value_after(3, r),
            AbsValue::Float(FloatInterval::exact(2.5))
        );
    }

    #[test]
    fn float_params_flow_through_arithmetic() {
        let mut b = FunctionBuilder::new("fp", 1);
        let x = b.param(0);
        let y = b.fmul(x, x);
        b.ret(&[y]);
        let f = b.build().unwrap();
        let ia = IntervalAnalysis::of_function(&f, &top_params(1));
        let v = ia.value_after(0, y).as_float().unwrap();
        assert!(v.nan, "NaN input times itself may be NaN");
        // With a bounded input range the square is bounded too.
        let ia = IntervalAnalysis::of_function(
            &f,
            &[AbsValue::Float(FloatInterval {
                lo: 0.0,
                hi: 4.0,
                nan: false,
            })],
        );
        let v = ia.value_after(0, y).as_float().unwrap();
        assert!(!v.nan);
        assert!(v.lo >= 0.0 && v.hi <= 16.0, "{v:?}");
    }

    #[test]
    fn branch_refinement_splits_sign() {
        // if (x < 0) return -x else return x — both arms non-negative…
        // except NaN falls through unchanged.
        let mut b = FunctionBuilder::new("abs", 1);
        let x = b.param(0);
        let zero = b.constf(0.0);
        let c = b.cmpf(CmpOp::Lt, x, zero);
        let neg = b.new_label();
        b.branch_if(c, neg);
        b.ret(&[x]);
        b.bind(neg);
        let nx = b.fneg(x);
        b.ret(&[nx]);
        let f = b.build().unwrap();
        let ia = IntervalAnalysis::of_function(&f, &top_params(1));
        // Taken edge (x < 0): the negation's input is [-inf, 0], output
        // [0, inf], NaN-free.
        let v = ia.value_after(4, nx).as_float().unwrap();
        assert!(v.lo >= 0.0 && !v.nan, "{v:?}");
        // Fall-through (¬(x<0) includes unordered): x keeps its NaN.
        let ret_x = ia.value_before(3, x).as_float().unwrap();
        assert!(ret_x.nan);
        assert!(ret_x.lo >= 0.0, "{ret_x:?}");
    }

    #[test]
    fn division_by_possible_zero_admits_nan_and_inf() {
        let mut b = FunctionBuilder::new("div", 2);
        let (x, y) = (b.param(0), b.param(1));
        let q = b.fdiv(x, y);
        b.ret(&[q]);
        let f = b.build().unwrap();
        let ia = IntervalAnalysis::of_function(
            &f,
            &[
                AbsValue::Float(FloatInterval {
                    lo: 0.0,
                    hi: 1.0,
                    nan: false,
                }),
                AbsValue::Float(FloatInterval {
                    lo: -1.0,
                    hi: 1.0,
                    nan: false,
                }),
            ],
        );
        let v = ia.value_after(0, q).as_float().unwrap();
        assert!(v.nan, "0/0 must be admitted");
        assert_eq!(v.hi, f32::INFINITY);
    }

    #[test]
    fn interval_contains_matches_concrete_ops() {
        // Spot-check ibin soundness on hand-picked corners.
        let a = IntInterval { lo: -3, hi: 5 };
        let b = IntInterval { lo: 2, hi: 4 };
        for x in -3i32..=5 {
            for y in 2i32..=4 {
                assert!(ibin(IBinOp::Add, a, b).contains(x.wrapping_add(y)));
                assert!(ibin(IBinOp::Mul, a, b).contains(x.wrapping_mul(y)));
                assert!(ibin(IBinOp::Rem, a, b).contains(if y == 0 { 0 } else { x % y }));
                assert!(ibin(IBinOp::Shl, a, b).contains(x.wrapping_shl(y as u32)));
                assert!(ibin(IBinOp::Shr, a, b).contains(x.wrapping_shr(y as u32)));
                assert!(ibin(IBinOp::And, a, b).contains(x & y));
                assert!(ibin(IBinOp::Or, a, b).contains(x | y));
            }
        }
    }

    #[test]
    fn overflow_degrades_to_full_range() {
        let big = IntInterval {
            lo: i32::MAX as i64 - 1,
            hi: i32::MAX as i64,
        };
        assert_eq!(
            ibin(IBinOp::Add, big, IntInterval::exact(5)),
            IntInterval::FULL
        );
    }

    #[test]
    fn nan_only_propagates_through_min_max() {
        let nan = FloatInterval::NAN_ONLY;
        let num = FloatInterval {
            lo: 1.0,
            hi: 2.0,
            nan: false,
        };
        // min(NaN, x) = x in Rust/IEEE-754-2008 semantics.
        let r = fbin(FBinOp::Min, nan, num);
        assert!(!r.nan);
        assert_eq!((r.lo, r.hi), (1.0, 2.0));
        let r = fbin(FBinOp::Min, nan, nan);
        assert!(r.nan && r.numeric_empty());
    }
}
