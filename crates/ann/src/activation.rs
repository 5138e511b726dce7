//! Sigmoid activation, exact and as the lookup table the hardware NPU uses.

/// The logistic sigmoid `1 / (1 + e^{-x})`.
///
/// Every neuron in the paper's NPU applies this to its weighted sum
/// (Section 6.1: `y = sigmoid(sum(x_i * w_i))`).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of the sigmoid expressed in terms of its *output* `y`:
/// `y * (1 - y)`. Used by backpropagation.
#[inline]
pub fn sigmoid_derivative(y: f32) -> f32 {
    y * (1.0 - y)
}

/// A quantized sigmoid lookup table.
///
/// The digital NPU evaluates the sigmoid with a LUT (Table 2 lists a
/// 2048-entry sigmoid unit per processing engine). The table covers the
/// input range `[-bound, bound]` and clamps outside it, which introduces
/// the same small quantization error a hardware LUT would.
///
/// # Example
///
/// ```
/// let lut = ann::SigmoidLut::new(2048, 8.0);
/// assert!((lut.eval(0.0) - 0.5).abs() < 1e-2);
/// assert!(lut.eval(100.0) > 0.99);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SigmoidLut {
    table: Vec<f32>,
    bound: f32,
    /// `(entries - 1) / (2 * bound)`, hoisted out of [`eval`](Self::eval)
    /// so the hot lookup path is one fma-shaped multiply instead of a
    /// divide. For the configurations the NPU uses (`2 * bound` a power of
    /// two, `entries - 1` exactly representable) the product rounds
    /// identically to the original divide-then-scale expression, so LUT
    /// outputs are bit-for-bit unchanged.
    inv_step: f32,
}

impl SigmoidLut {
    /// Builds a LUT with `entries` sample points over `[-bound, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `bound` is not strictly positive.
    pub fn new(entries: usize, bound: f32) -> Self {
        assert!(entries >= 2, "a sigmoid LUT needs at least two entries");
        assert!(bound > 0.0, "LUT bound must be positive");
        let table = (0..entries)
            .map(|i| {
                let x = -bound + 2.0 * bound * (i as f32) / ((entries - 1) as f32);
                sigmoid(x)
            })
            .collect();
        let inv_step = (entries - 1) as f32 / (2.0 * bound);
        SigmoidLut {
            table,
            bound,
            inv_step,
        }
    }

    /// Number of entries in the table.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Evaluates the quantized sigmoid (nearest-entry lookup, clamped).
    pub fn eval(&self, x: f32) -> f32 {
        let n = self.table.len();
        if x <= -self.bound {
            return self.table[0];
        }
        if x >= self.bound {
            return self.table[n - 1];
        }
        let pos = (x + self.bound) * self.inv_step;
        self.table[pos.round() as usize]
    }

    /// The hardware configuration ([`SigmoidLut::default`]), built once per
    /// process and shared by every NPU evaluation path.
    pub fn hardware() -> &'static SigmoidLut {
        static HARDWARE: std::sync::OnceLock<SigmoidLut> = std::sync::OnceLock::new();
        HARDWARE.get_or_init(SigmoidLut::default)
    }
}

impl Default for SigmoidLut {
    /// The NPU's hardware configuration: 2048 entries over `[-8, 8]`.
    fn default() -> Self {
        SigmoidLut::new(2048, 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint_and_saturation() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(20.0) > 0.999_999);
        assert!(sigmoid(-20.0) < 1e-6);
    }

    #[test]
    fn sigmoid_is_monotone() {
        let mut prev = sigmoid(-10.0);
        for i in -99..=100 {
            let y = sigmoid(i as f32 / 10.0);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let h = 1e-3;
            let numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2.0 * h);
            let analytic = sigmoid_derivative(sigmoid(x));
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "x={x}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn lut_tracks_exact_sigmoid() {
        let lut = SigmoidLut::default();
        for i in -80..=80 {
            let x = i as f32 / 10.0;
            assert!(
                (lut.eval(x) - sigmoid(x)).abs() < 2e-3,
                "LUT diverges at {x}"
            );
        }
    }

    #[test]
    fn lut_clamps_outside_bound() {
        let lut = SigmoidLut::new(16, 4.0);
        assert_eq!(lut.eval(1e6), lut.eval(4.0));
        assert_eq!(lut.eval(-1e6), lut.eval(-4.0));
    }

    #[test]
    #[should_panic(expected = "at least two entries")]
    fn lut_rejects_tiny_tables() {
        let _ = SigmoidLut::new(1, 8.0);
    }

    /// The hoisted `inv_step` multiply must reproduce the original
    /// divide-then-scale index arithmetic bit-for-bit for every LUT
    /// configuration the repo instantiates (bounds 8.0 and 4.0, both with
    /// `2 * bound` a power of two).
    #[test]
    fn hoisted_inv_step_is_bit_identical_to_divide() {
        for (entries, bound) in [(2048usize, 8.0f32), (16, 4.0), (256, 8.0)] {
            let lut = SigmoidLut::new(entries, bound);
            let n = entries;
            // Dense sweep across and beyond the clamped range.
            for i in -4000i32..=4000 {
                let x = i as f32 * bound / 2000.0;
                let old = if x <= -bound {
                    lut.table[0]
                } else if x >= bound {
                    lut.table[n - 1]
                } else {
                    let pos = (x + bound) / (2.0 * bound) * ((n - 1) as f32);
                    lut.table[pos.round() as usize]
                };
                let new = lut.eval(x);
                assert_eq!(
                    old.to_bits(),
                    new.to_bits(),
                    "LUT({entries}, {bound}) diverges at x = {x}"
                );
            }
        }
    }
}
