//! Event-based 45 nm energy model for the core and the NPU.
//!
//! The paper feeds MARSSx86 event logs into a modified McPAT, models the
//! NPU's memory arrays with CACTI 6.5, and takes multiply-add energies
//! from Galal & Horowitz's FPU study, all at 45 nm / 0.9 V / 2080 MHz.
//! None of those tools is available here, so this crate substitutes fixed
//! per-event energies of the right relative magnitude (documented on each
//! constant). Absolute joules are therefore approximate; the *ratios* —
//! how much power-hungry out-of-order pipeline work one NPU invocation
//! elides — are what drive the Figure 8b energy-reduction shape, and those
//! are preserved.
//!
//! # Example
//!
//! ```
//! use energy::{EnergyModel, EnergyParams};
//! use uarch::SimStats;
//!
//! let stats = SimStats {
//!     cycles: 1000,
//!     committed: 2000,
//!     int_ops: 2000,
//!     ..SimStats::default()
//! };
//! let model = EnergyModel::new(EnergyParams::default());
//! let breakdown = model.system_energy(&stats, None);
//! assert!(breakdown.total_pj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use npu::NpuStats;
use serde::{Deserialize, Serialize};
use uarch::SimStats;

/// Per-event energies in picojoules at 45 nm / 0.9 V.
///
/// Core-side constants approximate a Penryn-class out-of-order x86 core
/// (whole-core ~300–700 pJ of dynamic energy per instruction plus
/// substantial fixed per-cycle clock/leakage power). NPU-side constants
/// approximate a small digital ASIC: a 32-bit FP multiply-add in the
/// 10–20 pJ range (Galal & Horowitz), small-SRAM reads of a few pJ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    // --- core, per committed instruction ---
    /// Fetch + decode + rename + ROB traffic per instruction (the
    /// "power-hungry frontend stages" NPU acceleration elides).
    pub core_frontend_pj: f64,
    /// Issue-queue wakeup/select + register file read/write per
    /// instruction.
    pub core_window_pj: f64,
    /// Integer ALU operation.
    pub core_int_op_pj: f64,
    /// FP add/sub/compare.
    pub core_fp_add_pj: f64,
    /// FP multiply.
    pub core_fp_mul_pj: f64,
    /// FP divide.
    pub core_fp_div_pj: f64,
    /// FP square root.
    pub core_fp_sqrt_pj: f64,
    /// libm trig stand-in — one IR op representing an entire library
    /// call's worth of instructions, so priced like ~40 instructions.
    pub core_fp_trig_pj: f64,
    /// Branch predictor + BTB lookup.
    pub core_branch_pj: f64,
    /// NPU queue instruction (moves one 32-bit value to/from a FIFO).
    pub core_npu_queue_pj: f64,
    // --- memory hierarchy, per access ---
    /// L1D access.
    pub l1d_access_pj: f64,
    /// L2 access (on L1 miss).
    pub l2_access_pj: f64,
    /// DRAM access (on L2 miss).
    pub dram_access_pj: f64,
    // --- fixed core power ---
    /// Clock tree + leakage per cycle (scales energy with runtime, so
    /// speedups also save static energy).
    pub core_static_pj_per_cycle: f64,
    // --- NPU ---
    /// One 32-bit FP multiply-add (Galal & Horowitz-derived).
    pub npu_mac_pj: f64,
    /// One weight-buffer (512-entry SRAM) read.
    pub npu_weight_read_pj: f64,
    /// One sigmoid LUT lookup.
    pub npu_sigmoid_pj: f64,
    /// One bus broadcast.
    pub npu_bus_pj: f64,
    /// One input/output FIFO + scaling-unit pass.
    pub npu_fifo_pj: f64,
    /// One configuration word absorbed.
    pub npu_config_pj: f64,
    /// NPU leakage + clock per (active or idle) cycle — small ASIC.
    pub npu_static_pj_per_cycle: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            core_frontend_pj: 180.0,
            core_window_pj: 90.0,
            core_int_op_pj: 25.0,
            core_fp_add_pj: 60.0,
            core_fp_mul_pj: 90.0,
            core_fp_div_pj: 400.0,
            core_fp_sqrt_pj: 500.0,
            core_fp_trig_pj: 12_000.0,
            core_branch_pj: 35.0,
            core_npu_queue_pj: 25.0,
            l1d_access_pj: 55.0,
            l2_access_pj: 360.0,
            dram_access_pj: 16_000.0,
            core_static_pj_per_cycle: 450.0,
            npu_mac_pj: 16.0,
            npu_weight_read_pj: 5.0,
            npu_sigmoid_pj: 5.0,
            npu_bus_pj: 8.0,
            npu_fifo_pj: 4.0,
            npu_config_pj: 10.0,
            npu_static_pj_per_cycle: 30.0,
        }
    }
}

/// Energy of one run, split by component, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Core dynamic energy.
    pub core_dynamic_pj: f64,
    /// Core static (clock + leakage) energy.
    pub core_static_pj: f64,
    /// Memory hierarchy energy.
    pub memory_pj: f64,
    /// NPU dynamic energy.
    pub npu_dynamic_pj: f64,
    /// NPU static energy.
    pub npu_static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.core_dynamic_pj
            + self.core_static_pj
            + self.memory_pj
            + self.npu_dynamic_pj
            + self.npu_static_pj
    }
}

/// Prices [`SimStats`] and [`NpuStats`] event counts into energy.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates a model with the given per-event energies.
    pub fn new(params: EnergyParams) -> Self {
        EnergyModel { params }
    }

    /// The model's per-event energies.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Core-only energy (dynamic + static + memory hierarchy).
    pub fn core_energy(&self, stats: &SimStats) -> EnergyBreakdown {
        let p = &self.params;
        let per_inst = (p.core_frontend_pj + p.core_window_pj) * stats.committed as f64;
        let fu = p.core_int_op_pj * stats.int_ops as f64
            + p.core_fp_add_pj * stats.fp_add_ops as f64
            + p.core_fp_mul_pj * stats.fp_mul_ops as f64
            + p.core_fp_div_pj * stats.fp_div_ops as f64
            + p.core_fp_sqrt_pj * stats.fp_sqrt_ops as f64
            + p.core_fp_trig_pj * stats.fp_trig_ops as f64
            + p.core_branch_pj * stats.branches as f64
            + p.core_npu_queue_pj * stats.npu_queue_ops as f64;
        let memory = p.l1d_access_pj * (stats.l1d_hits + stats.l1d_misses) as f64
            + p.l2_access_pj * (stats.l2_hits + stats.l2_misses) as f64
            + p.dram_access_pj * stats.mem_accesses as f64;
        EnergyBreakdown {
            core_dynamic_pj: per_inst + fu,
            core_static_pj: p.core_static_pj_per_cycle * stats.cycles as f64,
            memory_pj: memory,
            npu_dynamic_pj: 0.0,
            npu_static_pj: 0.0,
        }
    }

    /// NPU-only energy.
    pub fn npu_energy(&self, stats: &NpuStats) -> EnergyBreakdown {
        let p = &self.params;
        let dynamic = p.npu_mac_pj * stats.macs as f64
            + p.npu_weight_read_pj * stats.weight_reads as f64
            + p.npu_sigmoid_pj * stats.sigmoids as f64
            + p.npu_bus_pj * stats.bus_transfers as f64
            + p.npu_fifo_pj * (stats.input_reads + stats.outputs_produced) as f64
            + p.npu_config_pj * stats.config_words as f64;
        EnergyBreakdown {
            npu_dynamic_pj: dynamic,
            npu_static_pj: p.npu_static_pj_per_cycle * stats.total_cycles as f64,
            ..EnergyBreakdown::default()
        }
    }

    /// Whole-system energy for one run: core plus (optionally) NPU.
    pub fn system_energy(&self, core: &SimStats, npu: Option<&NpuStats>) -> EnergyBreakdown {
        let mut breakdown = self.core_energy(core);
        if let Some(n) = npu {
            let ne = self.npu_energy(n);
            breakdown.npu_dynamic_pj = ne.npu_dynamic_pj;
            breakdown.npu_static_pj = ne.npu_static_pj;
        }
        breakdown
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(EnergyParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(committed: u64, cycles: u64) -> SimStats {
        SimStats {
            committed,
            cycles,
            int_ops: committed,
            ..SimStats::default()
        }
    }

    #[test]
    fn more_instructions_cost_more_energy() {
        let model = EnergyModel::default();
        let small = model.core_energy(&stats(1_000, 500)).total_pj();
        let big = model.core_energy(&stats(10_000, 5_000)).total_pj();
        assert!(big > 9.0 * small);
    }

    #[test]
    fn npu_mac_is_far_cheaper_than_core_instruction() {
        // The premise of the whole paper: an NPU multiply-add costs a tiny
        // fraction of pushing an instruction through an OoO pipeline.
        let p = EnergyParams::default();
        let core_per_inst = p.core_frontend_pj + p.core_window_pj + p.core_int_op_pj;
        let npu_per_mac = p.npu_mac_pj + p.npu_weight_read_pj + p.npu_bus_pj;
        assert!(core_per_inst > 8.0 * npu_per_mac);
    }

    #[test]
    fn static_energy_scales_with_cycles() {
        let model = EnergyModel::default();
        let fast = model.core_energy(&stats(1_000, 1_000));
        let slow = model.core_energy(&stats(1_000, 10_000));
        assert_eq!(fast.core_dynamic_pj, slow.core_dynamic_pj);
        assert!(slow.core_static_pj > 9.0 * fast.core_static_pj);
    }

    #[test]
    fn npu_energy_prices_all_events() {
        let model = EnergyModel::default();
        let n = NpuStats {
            macs: 100,
            weight_reads: 100,
            sigmoids: 10,
            bus_transfers: 50,
            input_reads: 9,
            outputs_produced: 1,
            config_words: 20,
            total_cycles: 200,
            ..NpuStats::default()
        };
        let e = model.npu_energy(&n);
        let p = model.params();
        let expected = 100.0 * p.npu_mac_pj
            + 100.0 * p.npu_weight_read_pj
            + 10.0 * p.npu_sigmoid_pj
            + 50.0 * p.npu_bus_pj
            + 10.0 * p.npu_fifo_pj
            + 20.0 * p.npu_config_pj;
        assert!((e.npu_dynamic_pj - expected).abs() < 1e-9);
        assert!((e.npu_static_pj - 200.0 * p.npu_static_pj_per_cycle).abs() < 1e-9);
    }

    #[test]
    fn system_energy_combines_components() {
        let model = EnergyModel::default();
        let core = stats(1_000, 800);
        let npu_stats = NpuStats {
            macs: 500,
            total_cycles: 800,
            ..NpuStats::default()
        };
        let combined = model.system_energy(&core, Some(&npu_stats));
        let core_only = model.system_energy(&core, None);
        assert!(combined.total_pj() > core_only.total_pj());
        assert_eq!(combined.core_dynamic_pj, core_only.core_dynamic_pj);
    }

    #[test]
    fn trig_stand_in_is_priced_like_a_library_call() {
        // A sin/cos IR op represents ~40-60 x86 instructions of libm code;
        // its energy must dwarf a single FP add.
        let p = EnergyParams::default();
        assert!(p.core_fp_trig_pj > 30.0 * p.core_fp_add_pj);
    }
}
