//! Cycle-accurate model of the paper's reconfigurable digital NPU.
//!
//! The MICRO 2012 NPU (paper Section 6, Figure 5) is an ASIC containing
//! eight identical processing engines (PEs) and a scaling unit, joined by a
//! single shared bus whose transfers are *statically scheduled* at compile
//! time from the trained network's topology. Each PE holds a weight buffer,
//! a small input FIFO, a multiply-add unit, a sigmoid lookup table, and an
//! output register file. The CPU communicates through three FIFOs — config,
//! input, and output — exposed to the pipeline via the `enq.c`/`deq.c`/
//! `enq.d`/`deq.d` ISA extensions (Section 5).
//!
//! This crate provides:
//!
//! * [`NpuConfig`] — the trained network plus normalization ranges, with a
//!   `u32` wire encoding (what `enq.c` ships and `deq.c` reads back on a
//!   context switch), and [`NpuConfig::evaluate`], the values one
//!   invocation produces;
//! * [`Scheduler`]/[`NpuSchedule`] — the static neuron-to-PE assignment and
//!   bus schedule (Section 6.2);
//! * [`NpuSim`] — the cycle-accurate unit, including the speculative
//!   input/output FIFO protocol of Section 5.2 (`squash`). It models time
//!   only: the bus schedule is static, so no cycle depends on a value;
//! * [`BatchEvaluator`] — [`NpuConfig::evaluate`] over many invocations at
//!   once;
//! * [`estimate_latency`] — per-invocation latency for a topology, used by
//!   the compiler's topology search;
//! * [`NpuStats`] — event counts for the energy model.
//!
//! # Modelling note
//!
//! The real PE writes neuron results into an 8-entry output register file
//! that the bus later reads. We track, per layer, the cycle each neuron's
//! result becomes readable (equivalent to streaming output-layer values
//! straight to the output FIFO and double-buffering between layers), which
//! sidesteps write-after-read hazards on register reuse without changing
//! any transfer count or latency. Capacity checks against the register
//! file size are still enforced per layer.
//!
//! # Example
//!
//! ```
//! use ann::{Mlp, Normalizer, Topology};
//! use npu::{NpuConfig, NpuParams, NpuSim};
//!
//! let topology = Topology::new(vec![2, 4, 1])?;
//! let config = NpuConfig::new(
//!     Mlp::seeded(topology, 1),
//!     Normalizer::identity(2),
//!     Normalizer::identity(1),
//! );
//! let mut sim = NpuSim::new(NpuParams::default());
//! sim.configure(&config)?;
//! // Two `enq.d`s commit; the NPU runs the invocation to completion.
//! sim.enqueue_input();
//! sim.enqueue_input();
//! sim.commit_inputs(2);
//! sim.run_until_idle();
//! assert!(sim.output_available());
//! // 4 hidden neurons x 2 inputs + 1 output neuron x 4 hidden values.
//! assert_eq!(sim.stats().macs, 12);
//! assert_eq!(sim.stats().invocations, 1);
//! // The values come from the functional evaluation.
//! assert_eq!(config.evaluate(&[0.3, 0.7]).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod fifo;
mod params;
mod quant;
mod replay;
mod schedule;
mod sim;
mod stats;

pub use config::NpuConfig;
pub use error::NpuError;
pub use fifo::{InputFifo, OutputFifo};
pub use params::NpuParams;
pub use quant::{FormatSource, QuantInvocation, QuantizedNpu};
pub use replay::BatchEvaluator;
pub use schedule::{BusDest, BusEntry, BusSource, NpuSchedule, Scheduler};
pub use sim::NpuSim;
pub use stats::NpuStats;

/// Estimates the NPU's per-invocation latency (cycles from first input
/// consumed to last output produced) for `topology` under `params`, by
/// running one invocation through the cycle-accurate model.
///
/// The paper's topology search uses this cost to break accuracy ties
/// ("the lowest latency on the NPU").
///
/// # Errors
///
/// Returns the scheduler's [`NpuError`] when the topology does not fit
/// the hardware — such candidates are excluded from the topology search.
pub fn try_estimate_latency(topology: &ann::Topology, params: &NpuParams) -> Result<u64, NpuError> {
    let mlp = ann::Mlp::zeroed(topology.clone());
    let config = NpuConfig::new(
        mlp,
        ann::Normalizer::identity(topology.inputs()),
        ann::Normalizer::identity(topology.outputs()),
    );
    let mut sim = NpuSim::new(params.clone());
    sim.configure(&config)?;
    for _ in 0..topology.inputs() {
        sim.enqueue_input();
    }
    sim.commit_inputs(topology.inputs());
    let start = sim.cycle();
    sim.run_until_idle();
    Ok(sim.cycle() - start)
}

/// Like [`try_estimate_latency`], for topologies known to fit.
///
/// # Panics
///
/// Panics if the topology cannot be scheduled under `params`.
pub fn estimate_latency(topology: &ann::Topology, params: &NpuParams) -> u64 {
    try_estimate_latency(topology, params)
        .expect("topology not schedulable under these NPU parameters")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::Topology;

    #[test]
    fn latency_grows_with_network_size() {
        let params = NpuParams::default();
        let small = estimate_latency(&Topology::new(vec![2, 2, 1]).unwrap(), &params);
        let large = estimate_latency(&Topology::new(vec![18, 32, 8, 2]).unwrap(), &params);
        assert!(large > 3 * small, "small={small} large={large}");
    }

    #[test]
    fn more_pes_reduce_latency_for_wide_layers() {
        let topology = Topology::new(vec![16, 32, 16]).unwrap();
        // One PE needs an oversized bus schedule buffer; the Figure 11
        // sensitivity sweep uses unbounded buffers for exactly this reason.
        let one = estimate_latency(&topology, &NpuParams::with_pes(1).unbounded());
        let eight = estimate_latency(&topology, &NpuParams::with_pes(8));
        assert!(eight < one, "1 PE: {one}, 8 PEs: {eight}");
    }
}
