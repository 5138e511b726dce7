//! Fixed-point Qm.n quantization and integer MLP inference — the software
//! model of the NPU's fixed-point datapath.
//!
//! The paper's hardware NPU computes in fixed point, not f32 (§7: "the
//! number representation is fixed point"). This module provides the value
//! grid: [`QFormat`] is a Qm.n format in the convention of the static
//! precision analysis (`crates/ir`'s `precision.rs`: `int_bits` counts the
//! sign bit, `frac_bits` the fractional resolution), [`FixedSigmoidLut`] is
//! the sigmoid unit indexed by integer arithmetic only, and
//! [`QuantizedMlp`] runs a whole network in integer codes: weights and
//! activations stored as `i16` codes on a declared-width grid (int4 →
//! int16), products accumulated exactly in `i64`, and each neuron's sum
//! rescaled and **saturated** onto the datapath accumulator format before
//! the sigmoid — the same clamp-don't-wrap semantics the modeled hardware
//! in `crates/npu` uses.
//!
//! The region-level wiring (boundary formats from the per-region
//! `PrecisionReport`, normalization, the Q7.23 sobel datapath) lives in
//! `crates/npu`'s `quant` module; this module is topology-only.

use crate::{sigmoid, Mlp, Topology};

/// Maximum total bits (`int + frac`) a [`QFormat`] may declare. Codes are
/// held in `i64` and quantization goes through f64 multiplies; 47 bits
/// keeps every representable code exactly expressible in an f64 mantissa.
pub const MAX_TOTAL_BITS: u8 = 47;

/// A signed Qm.n fixed-point format: `int_bits` = 1 sign bit + integer
/// magnitude bits (the precision-analysis convention), `frac_bits` =
/// fractional bits. A value `x` is stored as the integer code
/// `round(x * 2^frac_bits)`, saturated to the `int_bits + frac_bits`-bit
/// two's-complement range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QFormat {
    int_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// Creates a format with the given widths.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= int_bits` and `int_bits + frac_bits <=`
    /// [`MAX_TOTAL_BITS`].
    pub fn new(int_bits: u8, frac_bits: u8) -> QFormat {
        assert!(int_bits >= 1, "a signed format needs the sign bit");
        assert!(
            int_bits as u16 + frac_bits as u16 <= MAX_TOTAL_BITS as u16,
            "Q{int_bits}.{frac_bits} exceeds {MAX_TOTAL_BITS} total bits"
        );
        QFormat {
            int_bits,
            frac_bits,
        }
    }

    /// The narrowest format of `total_bits` total width whose integer part
    /// covers `[lo, hi]`, remaining bits spent on fraction — how per-layer
    /// weight and activation formats are sized for a storage width.
    /// Integer bits follow the precision-analysis convention (sign + one
    /// bit per binary magnitude digit); a degenerate or zero range gets
    /// the minimal 1-bit integer part.
    ///
    /// # Panics
    ///
    /// Panics if `lo`/`hi` are not finite or `total_bits` is 0 or exceeds
    /// [`MAX_TOTAL_BITS`].
    pub fn for_range(lo: f32, hi: f32, total_bits: u8) -> QFormat {
        assert!(lo.is_finite() && hi.is_finite(), "unbounded range");
        assert!(
            (1..=MAX_TOTAL_BITS).contains(&total_bits),
            "bad total width {total_bits}"
        );
        let m = lo.abs().max(hi.abs());
        // ⌊log₂ m⌋ for normal m; tiny/zero magnitudes need no integer bits.
        let int_bits = if m >= 1.0 {
            let e = ((m.to_bits() >> 23) & 0xff) as i32 - 127;
            1 + (e + 1).min(i32::from(MAX_TOTAL_BITS) - 1) as u8
        } else {
            1
        };
        let int_bits = int_bits.min(total_bits.max(1));
        QFormat::new(int_bits, total_bits - int_bits)
    }

    /// Sign + integer-magnitude bits.
    pub fn int_bits(&self) -> u8 {
        self.int_bits
    }

    /// Fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Total storage width in bits.
    pub fn total_bits(&self) -> u8 {
        self.int_bits + self.frac_bits
    }

    /// The value of one least-significant code step, `2^-frac_bits`.
    pub fn step(&self) -> f64 {
        (-f64::from(self.frac_bits)).exp2()
    }

    /// Largest representable code, `2^(total-1) - 1`.
    pub fn max_code(&self) -> i64 {
        (1i64 << (self.total_bits() - 1)) - 1
    }

    /// Smallest representable code, `-2^(total-1)`.
    pub fn min_code(&self) -> i64 {
        -(1i64 << (self.total_bits() - 1))
    }

    /// Quantizes `x` to the nearest code, **saturating** (not wrapping) at
    /// the format's range — the clamp semantics of the modeled hardware.
    /// NaN saturates to 0.
    pub fn quantize(&self, x: f32) -> i64 {
        let scaled = f64::from(x) * f64::from(self.frac_bits).exp2();
        if scaled.is_nan() {
            return 0;
        }
        (scaled.round() as i64).clamp(self.min_code(), self.max_code())
    }

    /// The f32 value of a code.
    pub fn dequantize(&self, code: i64) -> f32 {
        (code as f64 * self.step()) as f32
    }

    /// Quantize-dequantize round trip: `x` snapped onto this grid.
    pub fn snap(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// Rescales a code from `from` fractional bits to `to`, rounding to
/// nearest (ties toward +∞ — the adder-then-truncate rounding a datapath
/// barrel shifter implements).
fn rescale(code: i64, from: u8, to: u8) -> i64 {
    if to >= from {
        code << (to - from)
    } else {
        let s = from - to;
        (code + (1i64 << (s - 1))) >> s
    }
}

/// The NPU's sigmoid unit in fixed point: a table of activation codes
/// indexed from the datapath accumulator code with integer arithmetic
/// only. Mirrors [`SigmoidLut`](crate::SigmoidLut) (same entry count,
/// same `[-bound, bound]` window, nearest-entry lookup with clamping) but
/// never leaves the integer domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedSigmoidLut {
    /// Activation codes (in the output format) per table entry.
    table: Vec<i64>,
    /// Accumulator-format code of the clamp bound.
    bound_code: i64,
}

impl FixedSigmoidLut {
    /// Builds the table: entry `i` holds `sigmoid(x_i)` quantized to
    /// `out_fmt`, where the `x_i` sample points match the f32 LUT's.
    /// `in_fmt` is the datapath accumulator format the unit is indexed by.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2`, `bound` is not strictly positive, or the
    /// index arithmetic could overflow (`bound_code * entries` must fit
    /// comfortably in `i64`).
    pub fn new(entries: usize, bound: f32, in_fmt: QFormat, out_fmt: QFormat) -> FixedSigmoidLut {
        assert!(entries >= 2, "a sigmoid LUT needs at least two entries");
        assert!(bound > 0.0, "LUT bound must be positive");
        let table = (0..entries)
            .map(|i| {
                let x = -bound + 2.0 * bound * (i as f32) / ((entries - 1) as f32);
                out_fmt.quantize(sigmoid(x))
            })
            .collect();
        let bound_code = in_fmt.quantize(bound);
        assert!(
            bound_code > 0 && bound_code.checked_mul(2 * entries as i64).is_some(),
            "LUT bound degenerate or too wide for integer indexing"
        );
        FixedSigmoidLut { table, bound_code }
    }

    /// Nearest-entry lookup from an accumulator code (in the `in_fmt` the
    /// table was built with), clamped at the bounds. Integer-only:
    /// `idx = round((code + B) * (n-1) / 2B)` with `B` the bound code.
    pub fn eval(&self, code: i64) -> i64 {
        let n = self.table.len();
        if code <= -self.bound_code {
            return self.table[0];
        }
        if code >= self.bound_code {
            return self.table[n - 1];
        }
        let num = (code + self.bound_code) * (n as i64 - 1);
        let den = 2 * self.bound_code;
        let idx = (num + den / 2) / den;
        self.table[idx as usize]
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

/// Observations from one quantized forward pass, for soundness checks:
/// whether any accumulator had to saturate onto the datapath grid, and the
/// largest pre-saturation magnitude seen (in value terms).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantTrace {
    /// Accumulators clamped by datapath saturation.
    pub saturated: usize,
    /// Largest `|sum|` before saturation, dequantized.
    pub max_acc_abs: f32,
}

/// Reusable integer activation buffers for [`QuantizedMlp::forward_with`].
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    a: Vec<i64>,
    b: Vec<i64>,
}

impl QuantScratch {
    /// Creates empty buffers; they size themselves on first use.
    pub fn new() -> QuantScratch {
        QuantScratch::default()
    }
}

/// An MLP quantized onto a fixed-point grid: the software model of the
/// NPU's integer datapath at a chosen storage width (int4 → int16).
///
/// * weights and biases: per-layer Qm.n formats sized from each layer's
///   actual coefficient range at `weight_bits` total width, stored as
///   `i16` codes;
/// * activations: sigmoid outputs in `[0, 1]` on a `Q1.(w-1)`-style grid
///   at the same storage width;
/// * accumulation: exact in `i64` at `frac(w) + frac(a)` fractional bits,
///   then rescaled (round-to-nearest) and **saturated** onto the datapath
///   accumulator format before the fixed-point sigmoid LUT.
///
/// The f32 network is the oracle: `forward_with` on the same normalized inputs
/// approximates [`Mlp::feed_forward`], with error set by the storage width
/// and the LUT — the quantity the error-vs-bitwidth experiment sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<usize>,
    /// Weight codes, all layer matrices concatenated, rows laid out like
    /// [`Mlp`] (`n_in` weights then the bias).
    weights: Vec<i16>,
    /// Per-layer weight formats.
    weight_fmts: Vec<QFormat>,
    /// Activation format (also the network input/output format).
    act_fmt: QFormat,
    /// Datapath accumulator format (saturation grid).
    acc_fmt: QFormat,
    lut: FixedSigmoidLut,
    weight_bits: u8,
}

impl QuantizedMlp {
    /// Quantizes `mlp` at `weight_bits` total storage width (4..=16) with
    /// the given datapath accumulator format, using the NPU's 2048-entry
    /// `[-8, 8]` sigmoid window.
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is outside `4..=16`.
    pub fn quantize(mlp: &Mlp, weight_bits: u8, acc_fmt: QFormat) -> QuantizedMlp {
        assert!(
            (4..=16).contains(&weight_bits),
            "storage width {weight_bits} outside int4..int16"
        );
        let layers = mlp.topology().layers().to_vec();
        // Sigmoid outputs live in [0, 1]: sign + 1 integer bit, the rest
        // fraction.
        let act_fmt = QFormat::for_range(0.0, 1.0, weight_bits);
        let mut weights = Vec::new();
        let mut weight_fmts = Vec::new();
        for matrix in mlp.weight_matrices() {
            let (lo, hi) = matrix
                .iter()
                .fold((0.0f32, 0.0f32), |(lo, hi), &w| (lo.min(w), hi.max(w)));
            let fmt = QFormat::for_range(lo, hi, weight_bits);
            weight_fmts.push(fmt);
            weights.extend(matrix.iter().map(|&w| fmt.quantize(w) as i16));
        }
        let lut = FixedSigmoidLut::new(2048, 8.0, acc_fmt, act_fmt);
        QuantizedMlp {
            layers,
            weights,
            weight_fmts,
            act_fmt,
            acc_fmt,
            lut,
            weight_bits,
        }
    }

    /// The storage width this network was quantized at.
    pub fn weight_bits(&self) -> u8 {
        self.weight_bits
    }

    /// Layer sizes, input layer first.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Fixed-point forward pass on normalized (`[0, 1]`-domain) inputs,
    /// reusing `scratch`; outputs are dequantized activation-grid values.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` mismatches the input layer.
    pub fn forward_with(
        &self,
        input: &[f32],
        scratch: &mut QuantScratch,
        output: &mut Vec<f32>,
    ) -> QuantTrace {
        assert_eq!(input.len(), self.layers[0], "input vector size mismatch");
        let mut trace = QuantTrace::default();
        let fa = self.act_fmt.frac_bits();
        scratch.a.clear();
        scratch
            .a
            .extend(input.iter().map(|&x| self.act_fmt.quantize(x)));
        let mut matrix_off = 0usize;
        for (l, &fmt) in self.weight_fmts.iter().enumerate() {
            let n_in = self.layers[l];
            let n_out = self.layers[l + 1];
            let fw = fmt.frac_bits();
            let matrix = &self.weights[matrix_off..matrix_off + (n_in + 1) * n_out];
            matrix_off += matrix.len();
            scratch.b.clear();
            for row in matrix.chunks_exact(n_in + 1) {
                let (bias, ws) = row.split_last().expect("row holds bias");
                // Bias (frac fw) aligned to the product grid (frac fw+fa);
                // products accumulate exactly in i64.
                let mut acc = i64::from(*bias) << fa;
                for (&w, &x) in ws.iter().zip(scratch.a.iter()) {
                    acc += i64::from(w) * x;
                }
                let sum = rescale(acc, fw + fa, self.acc_fmt.frac_bits());
                let sat = sum.clamp(self.acc_fmt.min_code(), self.acc_fmt.max_code());
                if sat != sum {
                    trace.saturated += 1;
                }
                trace.max_acc_abs = trace
                    .max_acc_abs
                    .max(self.acc_fmt.dequantize(sum.abs()).abs());
                scratch.b.push(self.lut.eval(sat));
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        output.clear();
        output.extend(scratch.a.iter().map(|&c| self.act_fmt.dequantize(c)));
        trace
    }

    /// The topology this network was quantized from.
    pub fn topology(&self) -> Topology {
        Topology::new(self.layers.clone()).expect("layers came from a valid topology")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mlp;

    #[test]
    fn quantize_round_trips_within_half_step() {
        let f = QFormat::new(3, 12);
        for i in -400..400 {
            let x = i as f32 / 100.0; // [-4, 4) covers the ±4 range
            let back = f.snap(x);
            if x.abs() < 3.999 {
                assert!(
                    (f64::from(back) - f64::from(x)).abs() <= f.step() / 2.0 + 1e-12,
                    "{x} -> {back}"
                );
            }
        }
    }

    #[test]
    fn quantize_saturates_not_wraps() {
        let f = QFormat::new(2, 6); // range [-2, 2)
        assert_eq!(f.quantize(100.0), f.max_code());
        assert_eq!(f.quantize(-100.0), f.min_code());
        assert!(f.dequantize(f.max_code()) > 1.9);
        assert!(f.dequantize(f.min_code()) <= -2.0 + 1e-6);
        assert_eq!(f.quantize(f32::NAN), 0);
    }

    #[test]
    fn for_range_covers_the_range() {
        for &(lo, hi, bits) in &[
            (0.0f32, 1.0f32, 8u8),
            (-3.7, 2.2, 8),
            (-0.25, 0.25, 16),
            (0.0, 100.0, 16),
            (-1.0, 1.0, 4),
        ] {
            let f = QFormat::for_range(lo, hi, bits);
            assert_eq!(f.total_bits(), bits, "({lo}, {hi}, {bits})");
            for &x in &[lo, hi, 0.0, (lo + hi) / 2.0] {
                let back = f.snap(x);
                assert!(
                    (f64::from(back) - f64::from(x)).abs() <= f.step() * 1.01,
                    "Q{}.{} misses {x} -> {back}",
                    f.int_bits(),
                    f.frac_bits()
                );
            }
        }
    }

    #[test]
    fn sobel_datapath_q7_23_is_constructible() {
        // The precision analysis proves Q7.23 for sobel; the quantized
        // path must accept it unchanged.
        let f = QFormat::new(7, 23);
        assert_eq!(f.total_bits(), 30);
        assert_eq!(f.snap(1.0), 1.0);
        assert!((f64::from(f.snap(0.123_456_7)) - 0.123_456_7).abs() <= f.step());
    }

    #[test]
    fn fixed_lut_tracks_f32_lut() {
        let acc = QFormat::new(7, 23);
        let act = QFormat::for_range(0.0, 1.0, 16);
        let fixed = FixedSigmoidLut::new(2048, 8.0, acc, act);
        let f32_lut = crate::SigmoidLut::new(2048, 8.0);
        for i in -1000..=1000 {
            let x = i as f32 / 100.0; // [-10, 10], past the clamp
            let q = fixed.eval(acc.quantize(x));
            let got = act.dequantize(q);
            let want = f32_lut.eval(x);
            // One activation step plus one LUT input step of slack: the
            // integer index can differ by one entry at bucket boundaries.
            let tol = act.step() as f32 + 8.0 / 2047.0;
            assert!((got - want).abs() <= tol, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn rescale_rounds_to_nearest() {
        assert_eq!(rescale(7, 2, 0), 2); // 1.75 -> 2
        assert_eq!(rescale(5, 2, 0), 1); // 1.25 -> 1
        assert_eq!(rescale(6, 2, 0), 2); // 1.5 -> 2 (ties toward +inf)
        assert_eq!(rescale(-6, 2, 0), -1); // -1.5 -> -1 (ties toward +inf)
        assert_eq!(rescale(3, 0, 2), 12); // widening is exact
    }

    fn probe_inputs(n_in: usize, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|k| {
                (0..n_in)
                    .map(|i| ((k * 31 + i * 7) % 97) as f32 / 97.0)
                    .collect()
            })
            .collect()
    }

    fn rms_error(mlp: &Mlp, q: &QuantizedMlp, inputs: &[Vec<f32>]) -> f64 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        let mut scratch = QuantScratch::new();
        let mut out = Vec::new();
        for input in inputs {
            let oracle = mlp.feed_forward(input);
            q.forward_with(input, &mut scratch, &mut out);
            for (&a, &b) in oracle.iter().zip(out.iter()) {
                total += f64::from(a - b) * f64::from(a - b);
                count += 1;
            }
        }
        (total / count as f64).sqrt()
    }

    #[test]
    fn int16_tracks_the_f32_oracle_closely() {
        let t = Topology::new(vec![9, 8, 1]).unwrap();
        let mlp = Mlp::seeded(t.clone(), 7);
        let q = QuantizedMlp::quantize(&mlp, 16, QFormat::new(7, 23));
        let rms = rms_error(&mlp, &q, &probe_inputs(9, 64));
        // int16 storage + Q7.23 datapath: error is LUT-dominated (the f32
        // oracle uses exact sigmoid; the LUT step is ~2e-3).
        assert!(rms < 0.01, "int16 rms {rms}");
    }

    #[test]
    fn error_shrinks_with_width() {
        let t = Topology::new(vec![6, 8, 4, 1]).unwrap();
        let mlp = Mlp::seeded(t.clone(), 3);
        let inputs = probe_inputs(6, 64);
        let acc = QFormat::new(7, 23);
        let rms4 = rms_error(&mlp, &QuantizedMlp::quantize(&mlp, 4, acc), &inputs);
        let rms8 = rms_error(&mlp, &QuantizedMlp::quantize(&mlp, 8, acc), &inputs);
        let rms16 = rms_error(&mlp, &QuantizedMlp::quantize(&mlp, 16, acc), &inputs);
        assert!(
            rms16 <= rms8 && rms8 <= rms4 * 1.05,
            "widths not improving: {rms4} {rms8} {rms16}"
        );
        assert!(rms4 > rms16, "int4 should be strictly worse than int16");
    }

    #[test]
    fn saturation_is_observed_not_silent() {
        // A tiny datapath (Q2.4: range [-2, 2)) must saturate on a network
        // whose sums exceed it, and the trace must say so.
        let t = Topology::new(vec![4, 3, 1]).unwrap();
        let mut mlp = Mlp::seeded(t.clone(), 1);
        for m in mlp.weight_matrices_mut() {
            for w in m.iter_mut() {
                *w = 3.0; // force sums way past ±2
            }
        }
        let q = QuantizedMlp::quantize(&mlp, 8, QFormat::new(2, 4));
        let mut scratch = QuantScratch::new();
        let mut out = Vec::new();
        let trace = q.forward_with(&[1.0, 1.0, 1.0, 1.0], &mut scratch, &mut out);
        assert!(trace.saturated > 0, "expected saturation: {trace:?}");
        assert!(trace.max_acc_abs > 2.0, "pre-sat magnitude: {trace:?}");
        // Output still sane: saturated sums feed the clamped LUT.
        assert!(out[0] >= 0.0 && out[0] <= 1.0);
    }
}
