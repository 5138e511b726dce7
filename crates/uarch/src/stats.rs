//! Simulation statistics consumed by the harness and the energy model.

use serde::{Deserialize, Serialize};

/// Event counts and timing from one core simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed integer ALU class instructions (incl. moves, converts).
    pub int_ops: u64,
    /// Committed FP add/sub/cmp instructions.
    pub fp_add_ops: u64,
    /// Committed FP multiplies.
    pub fp_mul_ops: u64,
    /// Committed FP divides.
    pub fp_div_ops: u64,
    /// Committed FP square roots.
    pub fp_sqrt_ops: u64,
    /// Committed libm trig stand-ins.
    pub fp_trig_ops: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed control-flow instructions.
    pub branches: u64,
    /// Committed NPU queue instructions (`enq.d`+`deq.d`+`enq.c`+`deq.c`).
    pub npu_queue_ops: u64,
    /// Branch predictor lookups.
    pub bp_lookups: u64,
    /// Branch mispredictions (direction or target).
    pub bp_mispredicts: u64,
    /// L1D hits.
    pub l1d_hits: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM accesses.
    pub mem_accesses: u64,
    /// Cycles dispatch stalled on a full ROB.
    pub rob_full_stalls: u64,
    /// Cycles dispatch stalled on a full issue queue.
    pub iq_full_stalls: u64,
    /// Cycles dispatch stalled on full load/store queues.
    pub lsq_full_stalls: u64,
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate over all predictor lookups.
    pub fn mispredict_rate(&self) -> f64 {
        if self.bp_lookups == 0 {
            0.0
        } else {
            self.bp_mispredicts as f64 / self.bp_lookups as f64
        }
    }

    /// L1D miss rate.
    pub fn l1d_miss_rate(&self) -> f64 {
        let total = self.l1d_hits + self.l1d_misses;
        if total == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / total as f64
        }
    }

    /// L1D hit rate (0 when the cache was never accessed).
    pub fn l1d_hit_rate(&self) -> f64 {
        let total = self.l1d_hits + self.l1d_misses;
        if total == 0 {
            0.0
        } else {
            self.l1d_hits as f64 / total as f64
        }
    }

    /// L2 hit rate (0 when the cache was never accessed).
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// Exports every raw counter and the derived rates into `registry`
    /// under `prefix` (e.g. `uarch.baseline`).
    pub fn export(&self, registry: &mut telemetry::MetricsRegistry, prefix: &str) {
        let mut c = |name: &str, value: u64| registry.add(&format!("{prefix}.{name}"), value);
        c("cycles", self.cycles);
        c("committed", self.committed);
        c("int_ops", self.int_ops);
        c("fp_add_ops", self.fp_add_ops);
        c("fp_mul_ops", self.fp_mul_ops);
        c("fp_div_ops", self.fp_div_ops);
        c("fp_sqrt_ops", self.fp_sqrt_ops);
        c("fp_trig_ops", self.fp_trig_ops);
        c("loads", self.loads);
        c("stores", self.stores);
        c("branches", self.branches);
        c("npu_queue_ops", self.npu_queue_ops);
        c("bp_lookups", self.bp_lookups);
        c("bp_mispredicts", self.bp_mispredicts);
        c("l1d_hits", self.l1d_hits);
        c("l1d_misses", self.l1d_misses);
        c("l2_hits", self.l2_hits);
        c("l2_misses", self.l2_misses);
        c("mem_accesses", self.mem_accesses);
        c("rob_full_stalls", self.rob_full_stalls);
        c("iq_full_stalls", self.iq_full_stalls);
        c("lsq_full_stalls", self.lsq_full_stalls);
        registry.set_gauge(&format!("{prefix}.ipc"), self.ipc());
        registry.set_gauge(&format!("{prefix}.mispredict_rate"), self.mispredict_rate());
        registry.set_gauge(&format!("{prefix}.l1d_hit_rate"), self.l1d_hit_rate());
        registry.set_gauge(&format!("{prefix}.l2_hit_rate"), self.l2_hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            bp_lookups: 50,
            bp_mispredicts: 5,
            l1d_hits: 90,
            l1d_misses: 10,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-9);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-9);
        assert!((s.l1d_miss_rate() - 0.1).abs() < 1e-9);
        assert!((s.l1d_hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.l1d_miss_rate(), 0.0);
        assert_eq!(s.l1d_hit_rate(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
    }

    #[test]
    fn export_namespaces_counters_and_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            l1d_hits: 90,
            l1d_misses: 10,
            l2_hits: 6,
            l2_misses: 4,
            ..SimStats::default()
        };
        let mut reg = telemetry::MetricsRegistry::new();
        s.export(&mut reg, "uarch.baseline");
        assert_eq!(reg.counter("uarch.baseline.cycles"), 100);
        assert_eq!(reg.counter("uarch.baseline.l1d_hits"), 90);
        assert_eq!(reg.gauge("uarch.baseline.ipc"), Some(2.5));
        assert_eq!(reg.gauge("uarch.baseline.l2_hit_rate"), Some(0.6));
    }
}
