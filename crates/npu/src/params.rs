//! Hardware parameters of the NPU (paper Table 2, right column).

use serde::{Deserialize, Serialize};

/// Sizing of the NPU's structures.
///
/// Defaults reproduce the paper's Table 2: 8 PEs; 128-entry (32-bit) input
/// and output FIFOs; 8-entry config FIFO; 512-entry bus schedule FIFO; and
/// per PE a 512-entry weight cache, 8-entry input FIFO, 8-entry output
/// register file, and a 2048-entry sigmoid LUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuParams {
    /// Number of processing engines (paper: 8; Figure 11 sweeps 1–32).
    pub n_pes: usize,
    /// CPU→NPU input FIFO capacity in 32-bit entries.
    pub input_fifo: usize,
    /// NPU→CPU output FIFO capacity in 32-bit entries.
    pub output_fifo: usize,
    /// Config FIFO capacity in 32-bit entries.
    pub config_fifo: usize,
    /// Bus scheduling buffer capacity (one entry per scheduled transfer).
    pub bus_schedule: usize,
    /// Per-PE weight cache capacity in weights.
    pub weight_cache: usize,
    /// Per-PE input FIFO capacity.
    pub pe_input_fifo: usize,
    /// Per-PE output register file size (bounds neurons-per-PE per layer).
    pub output_regs: usize,
    /// Sigmoid LUT entries. Like `config_fifo`, this describes the
    /// hardware (Table 2) and does not change the cycle model: the
    /// functional evaluation ([`NpuConfig::evaluate`](crate::NpuConfig::evaluate))
    /// computes the values with the default 2048-entry table.
    pub sigmoid_lut: usize,
    /// When `false`, capacity checks are skipped (used by the PE-count
    /// sensitivity sweep, where one PE would otherwise need oversized
    /// buffers for the largest benchmarks).
    pub strict_capacity: bool,
}

impl Default for NpuParams {
    fn default() -> Self {
        NpuParams {
            n_pes: 8,
            input_fifo: 128,
            output_fifo: 128,
            config_fifo: 8,
            bus_schedule: 512,
            weight_cache: 512,
            pe_input_fifo: 8,
            output_regs: 8,
            sigmoid_lut: 2048,
            strict_capacity: true,
        }
    }
}

impl NpuParams {
    /// The paper's default configuration with a different PE count.
    pub fn with_pes(n_pes: usize) -> Self {
        NpuParams {
            n_pes,
            ..NpuParams::default()
        }
    }

    /// A copy with capacity checks disabled (sensitivity sweeps).
    pub fn unbounded(mut self) -> Self {
        self.strict_capacity = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let p = NpuParams::default();
        assert_eq!(p.n_pes, 8);
        assert_eq!(p.input_fifo, 128);
        assert_eq!(p.output_fifo, 128);
        assert_eq!(p.config_fifo, 8);
        assert_eq!(p.weight_cache, 512);
        assert_eq!(p.sigmoid_lut, 2048);
        assert!(p.strict_capacity);
    }

    #[test]
    fn unbounded_disables_strictness() {
        assert!(!NpuParams::with_pes(1).unbounded().strict_capacity);
    }
}
