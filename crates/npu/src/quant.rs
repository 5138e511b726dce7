//! Region-level fixed-point inference: the quantized NPU datapath wired to
//! the static precision analysis.
//!
//! [`QuantizedNpu`] is the int4..int16 counterpart of
//! [`NpuConfig::evaluate`]: the trained network quantized onto a storage
//! grid ([`ann::QuantizedMlp`]), the scaling unit's I/O on *boundary*
//! Qm.n grids, and the accumulator saturating on the *datapath* format —
//! with every format taken from the region's
//! [`PrecisionReport`](approx_ir::analysis::PrecisionReport) when the
//! interval analysis proved the region bounded (sobel's Q7.23 being the
//! pinned example), and from the observed normalizer ranges otherwise.
//!
//! Contract with the static analysis: a precision row `in<k>` / `out<k>`
//! with finite `int_bits`/`frac_bits` becomes the quantization grid the
//! region's raw values cross on their way into and out of the accelerator.
//! Because the scaling-unit normalizers are also built from the proven
//! `[lo, hi]` hulls, every boundary value a well-formed input produces
//! lies inside its declared hull and quantizes without saturating — the
//! property the six-region soundness test in `crates/benchmarks` asserts.

use crate::NpuConfig;
use ann::{Normalizer, QFormat, QuantScratch, QuantTrace, QuantizedMlp, MAX_TOTAL_BITS};
use approx_ir::analysis::{PrecisionReport, ValuePrecision};

/// Boundary-format fallback width when a row is unbounded: a 32-bit word,
/// like the datapath registers.
const FALLBACK_TOTAL_BITS: u8 = 32;

/// How each Qm.n format of a [`QuantizedNpu`] was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatSource {
    /// Proven by the static precision analysis (bounded row).
    Static,
    /// Fallback from the observed normalizer range (unbounded row or no
    /// precision report).
    Observed,
}

/// A fixed-point NPU invocation path for one region: boundary grids for
/// the scaling unit, plus the quantized network between them.
#[derive(Debug, Clone)]
pub struct QuantizedNpu {
    qmlp: QuantizedMlp,
    input_norm: Normalizer,
    output_norm: Normalizer,
    /// Per-input boundary formats (the raw-value grid before scaling).
    input_fmts: Vec<QFormat>,
    /// Per-output boundary formats (the raw-value grid after scaling).
    output_fmts: Vec<QFormat>,
    /// Where the boundary/datapath formats came from.
    source: FormatSource,
    /// Accumulator (datapath) format, e.g. sobel's proven Q7.23.
    datapath: QFormat,
}

/// One traced invocation: the outputs plus everything the soundness test
/// needs to check the static hull was honored.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantInvocation {
    /// Region outputs after the output boundary grid.
    pub outputs: Vec<f32>,
    /// Inputs as seen past the input boundary grid (quantize→dequantize).
    pub boundary_inputs: Vec<f32>,
    /// Network-internal trace (datapath saturation).
    pub datapath: QuantTrace,
    /// Boundary values that had to saturate on their Qm.n grid.
    pub boundary_saturated: usize,
}

/// Clamps a precision row's declared widths onto a constructible
/// [`QFormat`] (the analysis can declare up to 149 fraction bits for
/// subnormal-magnitude hulls; codes live in i64).
fn format_from_row(row: &ValuePrecision) -> Option<QFormat> {
    let (int_bits, frac_bits) = (row.int_bits?, row.frac_bits?);
    let int_bits = int_bits.max(1);
    let frac_bits = frac_bits.min(MAX_TOTAL_BITS - int_bits);
    Some(QFormat::new(int_bits, frac_bits))
}

/// Boundary format from an observed normalizer range (the fallback when
/// the static analysis could not bound a row).
fn format_from_range(lo: f32, hi: f32) -> QFormat {
    if lo.is_finite() && hi.is_finite() {
        QFormat::for_range(lo, hi, FALLBACK_TOTAL_BITS)
    } else {
        QFormat::new(8, 24)
    }
}

impl QuantizedNpu {
    /// Builds the quantized path for `config` at `weight_bits` storage
    /// width, taking every format from `precision` where bounded.
    ///
    /// When `precision` is `None`, or a row (or the datapath hull) is
    /// unbounded, the affected formats fall back to the observed
    /// normalizer ranges and the sobel-class Q7.23 datapath default, and
    /// [`source`](Self::source) reports [`FormatSource::Observed`].
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is outside `4..=16` (the int4..int16
    /// storage sweep).
    pub fn new(config: &NpuConfig, precision: Option<&PrecisionReport>, weight_bits: u8) -> Self {
        let n_in = config.topology().inputs();
        let n_out = config.topology().outputs();

        let row = |name: &str| -> Option<&ValuePrecision> {
            precision.and_then(|p| p.values.iter().find(|v| v.name == name))
        };

        let mut source = FormatSource::Static;
        let mut input_fmts = Vec::with_capacity(n_in);
        for k in 0..n_in {
            let fmt = row(&format!("in{k}")).and_then(format_from_row);
            input_fmts.push(fmt.unwrap_or_else(|| {
                source = FormatSource::Observed;
                let (lo, hi) = config.input_norm().ranges()[k];
                format_from_range(lo, hi)
            }));
        }
        let mut output_fmts = Vec::with_capacity(n_out);
        for k in 0..n_out {
            let fmt = row(&format!("out{k}")).and_then(format_from_row);
            output_fmts.push(fmt.unwrap_or_else(|| {
                source = FormatSource::Observed;
                let (lo, hi) = config.output_norm().ranges()[k];
                format_from_range(lo, hi)
            }));
        }

        // Datapath: the widest proven requirement across the region
        // (sobel: Q7.23). Unbounded regions inherit the Q7.23 default —
        // the widest datapath the paper's 32-bit-word hardware tables.
        let datapath = precision
            .and_then(|p| {
                Some(QFormat::new(
                    p.datapath_int_bits()?,
                    p.datapath_frac_bits()?,
                ))
            })
            .unwrap_or_else(|| {
                source = FormatSource::Observed;
                QFormat::new(7, 23)
            });

        QuantizedNpu {
            qmlp: QuantizedMlp::quantize(config.mlp(), weight_bits, datapath),
            input_norm: config.input_norm().clone(),
            output_norm: config.output_norm().clone(),
            input_fmts,
            output_fmts,
            source,
            datapath,
        }
    }

    /// Like [`new`](Self::new), but with scaling-unit normalizers rebuilt
    /// from the precision report's proven `in<k>`/`out<k>` hulls instead
    /// of observed ranges — the fully statically-derived configuration the
    /// soundness test exercises. Rows the analysis could not bound keep
    /// the observed normalizer range.
    pub fn with_static_scaling(
        config: &NpuConfig,
        precision: &PrecisionReport,
        weight_bits: u8,
    ) -> Self {
        let hull = |name: &str, fallback: (f32, f32)| -> (f32, f32) {
            precision
                .values
                .iter()
                .find(|v| v.name == name && v.bounded())
                .map(|v| (v.lo, v.hi))
                .unwrap_or(fallback)
        };
        let in_ranges: Vec<(f32, f32)> = config
            .input_norm()
            .ranges()
            .iter()
            .enumerate()
            .map(|(k, &r)| hull(&format!("in{k}"), r))
            .collect();
        let out_ranges: Vec<(f32, f32)> = config
            .output_norm()
            .ranges()
            .iter()
            .enumerate()
            .map(|(k, &r)| hull(&format!("out{k}"), r))
            .collect();
        let static_config = NpuConfig::new(
            config.mlp().clone(),
            Normalizer::new(in_ranges),
            Normalizer::new(out_ranges),
        );
        QuantizedNpu::new(&static_config, Some(precision), weight_bits)
    }

    /// The storage width of the quantized network.
    pub fn weight_bits(&self) -> u8 {
        self.qmlp.weight_bits()
    }

    /// The datapath accumulator format.
    pub fn datapath(&self) -> QFormat {
        self.datapath
    }

    /// Per-input boundary formats.
    pub fn input_formats(&self) -> &[QFormat] {
        &self.input_fmts
    }

    /// Per-output boundary formats.
    pub fn output_formats(&self) -> &[QFormat] {
        &self.output_fmts
    }

    /// Whether the formats are statically proven or observed fallbacks.
    pub fn source(&self) -> FormatSource {
        self.source
    }

    /// One fixed-point invocation: raw inputs cross the input boundary
    /// grid, the scaling unit normalizes, the integer network runs, and
    /// the outputs cross the output boundary grid. `scratch` holds the
    /// network's integer activations; the boundary values, the normalized
    /// inputs and the outputs are fresh `Vec`s on every call.
    pub fn evaluate_with(&self, inputs: &[f32], scratch: &mut QuantScratch) -> QuantInvocation {
        assert_eq!(inputs.len(), self.input_fmts.len(), "input arity mismatch");
        let mut boundary_saturated = 0usize;
        let boundary_inputs: Vec<f32> = inputs
            .iter()
            .zip(&self.input_fmts)
            .map(|(&x, fmt)| {
                let code = fmt.quantize(x);
                if code == fmt.min_code() || code == fmt.max_code() {
                    boundary_saturated += 1;
                }
                fmt.dequantize(code)
            })
            .collect();
        let normalized: Vec<f32> = boundary_inputs
            .iter()
            .enumerate()
            .map(|(k, &x)| self.input_norm.normalize_one(k, x))
            .collect();
        let mut net_out = Vec::new();
        let datapath = self.qmlp.forward_with(&normalized, scratch, &mut net_out);
        let outputs: Vec<f32> = net_out
            .iter()
            .enumerate()
            .map(|(k, &y)| {
                let raw = self.output_norm.denormalize_one(k, y);
                let fmt = &self.output_fmts[k];
                let code = fmt.quantize(raw);
                if code == fmt.min_code() || code == fmt.max_code() {
                    boundary_saturated += 1;
                }
                fmt.dequantize(code)
            })
            .collect();
        QuantInvocation {
            outputs,
            boundary_inputs,
            datapath,
            boundary_saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Mlp, Topology};

    fn sobel_like_config() -> NpuConfig {
        let t = Topology::new(vec![9, 8, 1]).unwrap();
        NpuConfig::new(
            Mlp::seeded(t, 5),
            Normalizer::identity(9),
            Normalizer::new(vec![(0.0, 1.0)]),
        )
    }

    #[test]
    fn without_precision_report_uses_observed_fallback() {
        let config = sobel_like_config();
        let q = QuantizedNpu::new(&config, None, 16);
        assert_eq!(q.source(), FormatSource::Observed);
        assert_eq!(q.datapath(), QFormat::new(7, 23));
        assert_eq!(q.input_formats().len(), 9);
        assert_eq!(q.output_formats().len(), 1);
    }

    #[test]
    fn quantized_path_tracks_f32_oracle() {
        let config = sobel_like_config();
        let q = QuantizedNpu::new(&config, None, 16);
        let mut scratch = QuantScratch::new();
        let mut worst = 0.0f32;
        for k in 0..32 {
            let inputs: Vec<f32> = (0..9).map(|i| ((k * 11 + i) % 13) as f32 / 13.0).collect();
            let oracle = config.evaluate(&inputs);
            let inv = q.evaluate_with(&inputs, &mut scratch);
            worst = worst.max((oracle[0] - inv.outputs[0]).abs());
        }
        // int16 + Q7.23: dominated by the (shared) sigmoid LUT grid.
        assert!(worst < 0.01, "int16 worst-case error {worst}");
    }

    #[test]
    fn narrower_widths_degrade_gracefully() {
        let config = sobel_like_config();
        let inputs: Vec<f32> = (0..9).map(|i| i as f32 / 9.0).collect();
        let mut scratch = QuantScratch::new();
        for bits in [4u8, 8, 12, 16] {
            let q = QuantizedNpu::new(&config, None, bits);
            let out = q.evaluate_with(&inputs, &mut scratch).outputs;
            assert!(
                out[0].is_finite() && (-0.001..=1.001).contains(&out[0]),
                "int{bits} output {out:?} escapes the output range"
            );
        }
    }
}
