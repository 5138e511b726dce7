//! Event statistics the energy model consumes.

use serde::{Deserialize, Serialize};

/// Counts of energy-relevant NPU events.
///
/// One record accumulates over a simulation; the `energy` crate prices each
/// event class (MAC, weight-buffer read, bus transfer, FIFO traffic,
/// sigmoid LUT lookup) at 45 nm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NpuStats {
    /// Multiply-accumulate operations executed.
    pub macs: u64,
    /// Sigmoid LUT evaluations.
    pub sigmoids: u64,
    /// Weight-buffer reads (one per MAC).
    pub weight_reads: u64,
    /// Bus transfers performed.
    pub bus_transfers: u64,
    /// Values read from the CPU-facing input FIFO (scaling-unit passes).
    pub input_reads: u64,
    /// Values pushed to the CPU-facing output FIFO (scaling-unit passes).
    pub outputs_produced: u64,
    /// Configuration words absorbed.
    pub config_words: u64,
    /// Completed invocations.
    pub invocations: u64,
    /// Invocations reset by misspeculation squashes.
    pub squashed_invocations: u64,
    /// Weight reads corrupted by injected faults. The timing model injects
    /// none and leaves it 0: faults perturb the functional evaluation
    /// (the `ablation_faults` experiment), which has no cycle cost.
    pub faults_injected: u64,
    /// Cycles with an invocation in flight.
    pub active_cycles: u64,
    /// Total cycles simulated.
    pub total_cycles: u64,
}

impl NpuStats {
    /// Fraction of simulated cycles with an invocation in flight
    /// (0 when no cycles were simulated).
    pub fn occupancy(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.active_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Fraction of started invocations lost to misspeculation squashes
    /// (0 when nothing ran).
    pub fn squash_rate(&self) -> f64 {
        let started = self.invocations + self.squashed_invocations;
        if started == 0 {
            0.0
        } else {
            self.squashed_invocations as f64 / started as f64
        }
    }

    /// Exports every raw counter and the derived rates into `registry`
    /// under `prefix` (e.g. `npu`).
    pub fn export(&self, registry: &mut telemetry::MetricsRegistry, prefix: &str) {
        let mut c = |name: &str, value: u64| registry.add(&format!("{prefix}.{name}"), value);
        c("macs", self.macs);
        c("sigmoids", self.sigmoids);
        c("weight_reads", self.weight_reads);
        c("bus_transfers", self.bus_transfers);
        c("input_reads", self.input_reads);
        c("outputs_produced", self.outputs_produced);
        c("config_words", self.config_words);
        c("invocations", self.invocations);
        c("squashed_invocations", self.squashed_invocations);
        c("faults_injected", self.faults_injected);
        c("active_cycles", self.active_cycles);
        c("total_cycles", self.total_cycles);
        registry.set_gauge(&format!("{prefix}.occupancy"), self.occupancy());
        registry.set_gauge(&format!("{prefix}.squash_rate"), self.squash_rate());
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &NpuStats) {
        self.macs += other.macs;
        self.sigmoids += other.sigmoids;
        self.weight_reads += other.weight_reads;
        self.bus_transfers += other.bus_transfers;
        self.input_reads += other.input_reads;
        self.outputs_produced += other.outputs_produced;
        self.config_words += other.config_words;
        self.invocations += other.invocations;
        self.squashed_invocations += other.squashed_invocations;
        self.faults_injected += other.faults_injected;
        self.active_cycles += other.active_cycles;
        self.total_cycles += other.total_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = NpuStats {
            macs: 5,
            invocations: 1,
            ..NpuStats::default()
        };
        let b = NpuStats {
            macs: 7,
            sigmoids: 3,
            ..NpuStats::default()
        };
        a.merge(&b);
        assert_eq!(a.macs, 12);
        assert_eq!(a.sigmoids, 3);
        assert_eq!(a.invocations, 1);
    }

    #[test]
    fn occupancy_guards_division_by_zero() {
        assert_eq!(NpuStats::default().occupancy(), 0.0);
        assert_eq!(NpuStats::default().squash_rate(), 0.0);
        let s = NpuStats {
            active_cycles: 30,
            total_cycles: 120,
            invocations: 3,
            squashed_invocations: 1,
            ..NpuStats::default()
        };
        assert!((s.occupancy() - 0.25).abs() < 1e-12);
        assert!((s.squash_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn export_namespaces_counters_and_rates() {
        let s = NpuStats {
            macs: 64,
            active_cycles: 10,
            total_cycles: 40,
            ..NpuStats::default()
        };
        let mut reg = telemetry::MetricsRegistry::new();
        s.export(&mut reg, "npu");
        assert_eq!(reg.counter("npu.macs"), 64);
        assert_eq!(reg.gauge("npu.occupancy"), Some(0.25));
    }
}
