//! Static compilation of a trained network onto the NPU (Section 6.2).
//!
//! "The static NPU scheduling algorithm first assigns an order to the
//! inputs of the neural network. … Then, the scheduler takes the following
//! steps for each layer: (1) assign each neuron to one of the processing
//! engines; (2) assign an order to the multiply-add operations …; (3)
//! assign an order to the outputs of the layer; (4) produce a bus schedule
//! reflecting the order of operations."

use crate::{NpuConfig, NpuError, NpuParams, NpuStats};
use serde::{Deserialize, Serialize};

/// Where a scheduled bus transfer reads its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusSource {
    /// The `index`-th input of the invocation. The first read of each
    /// index pops the CPU-facing input FIFO (through the scaling unit);
    /// later reads (multi-round layers) reuse the latched value.
    InputFifo {
        /// Input dimension index.
        index: usize,
    },
    /// The output value of a computed neuron.
    Neuron {
        /// Computing layer (0 = first hidden layer).
        layer: usize,
        /// Neuron index within that layer.
        index: usize,
    },
}

/// Where a scheduled bus transfer delivers its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusDest {
    /// Broadcast into the input FIFOs of the PEs set in the mask.
    Pes(u64),
    /// Push into the CPU-facing output FIFO (through the scaling unit).
    OutputFifo,
}

/// One entry of the bus scheduling buffer: a source and a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusEntry {
    /// Value source.
    pub src: BusSource,
    /// Value destination.
    pub dest: BusDest,
}

/// The work one PE performs for one neuron: a bias-seeded multiply-add
/// chain over the inputs in bus-arrival order, then a sigmoid. The PE's
/// weight buffer holds `macs` weights plus the bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuronTask {
    /// Computing layer (0 = first hidden layer).
    pub layer: usize,
    /// Neuron index within the layer.
    pub neuron: usize,
    /// Multiply-adds (one per layer input; the bias seeds the
    /// accumulator without a bus transfer).
    pub macs: usize,
}

/// A complete static schedule: the bus program plus per-PE task lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuSchedule {
    /// PEs the schedule was compiled for.
    pub n_pes: usize,
    /// The bus program, executed in order, at most one entry per cycle.
    pub entries: Vec<BusEntry>,
    /// Per-PE neuron tasks in execution order.
    pub pe_tasks: Vec<Vec<NeuronTask>>,
    /// Layer sizes (including input and output layers).
    pub layer_sizes: Vec<usize>,
}

impl NpuSchedule {
    /// Multiply-add operations per invocation.
    pub fn macs_per_invocation(&self) -> u64 {
        self.pe_tasks.iter().flatten().map(|t| t.macs as u64).sum()
    }

    /// Sigmoid evaluations per invocation.
    pub fn sigmoids_per_invocation(&self) -> u64 {
        self.pe_tasks.iter().map(|t| t.len() as u64).sum()
    }

    /// Bus transfers per invocation.
    pub fn bus_transfers_per_invocation(&self) -> u64 {
        self.entries.len() as u64
    }

    /// The event counts of one complete invocation.
    pub fn stats_per_invocation(&self) -> NpuStats {
        let macs = self.macs_per_invocation();
        NpuStats {
            macs,
            sigmoids: self.sigmoids_per_invocation(),
            weight_reads: macs,
            bus_transfers: self.bus_transfers_per_invocation(),
            input_reads: self.layer_sizes[0] as u64,
            outputs_produced: self.layer_sizes[self.layer_sizes.len() - 1] as u64,
            invocations: 1,
            ..NpuStats::default()
        }
    }

    /// The most multiply-adds one PE does in an invocation.
    pub fn max_pe_macs(&self) -> usize {
        let per_pe = self.pe_tasks.iter().map(|t| t.iter().map(|t| t.macs).sum());
        per_pe.max().unwrap_or(0)
    }

    /// Per computing layer and neuron, the slot of its last multiply-add
    /// in a PE-major layout of one invocation's multiply-adds in which PE
    /// p's start at slot `p * stride + first`.
    pub fn last_mac_slots(&self, stride: usize, first: usize) -> Vec<Vec<usize>> {
        let sizes = &self.layer_sizes[1..];
        let mut last: Vec<Vec<_>> = sizes.iter().map(|&n| vec![0; n]).collect();
        for (pe, tasks) in self.pe_tasks.iter().enumerate() {
            let mut slot = pe * stride + first;
            for task in tasks {
                slot += task.macs;
                last[task.layer][task.neuron] = slot - 1;
            }
        }
        last
    }
}

/// Compiles topologies onto an NPU configuration of `NpuParams`.
#[derive(Debug, Clone)]
pub struct Scheduler {
    params: NpuParams,
}

impl Scheduler {
    /// Creates a scheduler for the given hardware parameters.
    pub fn new(params: NpuParams) -> Self {
        Scheduler { params }
    }

    /// Produces the static schedule for `config`'s network.
    ///
    /// Neurons are assigned to PEs round-robin (`neuron % n_pes`), so a
    /// layer executes in `ceil(n / n_pes)` *rounds*; each round broadcasts
    /// every layer input once to the PEs computing that round's neurons.
    ///
    /// # Errors
    ///
    /// With strict capacity checking, returns
    /// [`NpuError::CapacityExceeded`] when the network needs more weight
    /// cache, bus schedule entries, output registers, or I/O FIFO space
    /// than the hardware provides.
    #[allow(clippy::needless_range_loop)] // pe indexes masks and task lists together
    pub fn schedule(&self, config: &NpuConfig) -> Result<NpuSchedule, NpuError> {
        let p = self.params.n_pes;
        assert!((1..=64).contains(&p), "PE count must be in 1..=64");
        let t = config.topology();
        let layers = t.layers();

        let mut entries = Vec::new();
        let mut pe_tasks: Vec<Vec<NeuronTask>> = vec![Vec::new(); p];
        let mut max_rounds = 0usize;

        for l in 0..layers.len() - 1 {
            let m = layers[l]; // inputs to this computing layer
            let n = layers[l + 1]; // neurons in this computing layer
            let rounds = n.div_ceil(p);
            max_rounds = max_rounds.max(rounds);
            for r in 0..rounds {
                let mut mask = 0u64;
                for pe in 0..p {
                    if r * p + pe < n {
                        mask |= 1 << pe;
                    }
                }
                for i in 0..m {
                    let src = if l == 0 {
                        BusSource::InputFifo { index: i }
                    } else {
                        BusSource::Neuron {
                            layer: l - 1,
                            index: i,
                        }
                    };
                    entries.push(BusEntry {
                        src,
                        dest: BusDest::Pes(mask),
                    });
                }
                for pe in 0..p {
                    let neuron = r * p + pe;
                    if neuron >= n {
                        continue;
                    }
                    pe_tasks[pe].push(NeuronTask {
                        layer: l,
                        neuron,
                        macs: m,
                    });
                }
            }
        }
        // Final layer: drain results to the output FIFO in output order —
        // this ordering "dictates the order in which the program will
        // retrieve the NPU's output using deq.d instructions".
        let last_layer = layers.len() - 2;
        for j in 0..t.outputs() {
            entries.push(BusEntry {
                src: BusSource::Neuron {
                    layer: last_layer,
                    index: j,
                },
                dest: BusDest::OutputFifo,
            });
        }

        let schedule = NpuSchedule {
            n_pes: p,
            entries,
            pe_tasks,
            layer_sizes: layers.to_vec(),
        };
        if self.params.strict_capacity {
            self.check_capacity(&schedule, t.inputs(), t.outputs(), max_rounds)?;
        }
        Ok(schedule)
    }

    fn check_capacity(
        &self,
        schedule: &NpuSchedule,
        n_inputs: usize,
        n_outputs: usize,
        max_rounds: usize,
    ) -> Result<(), NpuError> {
        let check = |structure: &'static str, needed: usize, available: usize| {
            if needed > available {
                Err(NpuError::CapacityExceeded {
                    structure,
                    needed,
                    available,
                })
            } else {
                Ok(())
            }
        };
        check(
            "bus schedule",
            schedule.entries.len(),
            self.params.bus_schedule,
        )?;
        for tasks in &schedule.pe_tasks {
            let weights: usize = tasks.iter().map(|t| t.macs + 1).sum();
            check("weight cache", weights, self.params.weight_cache)?;
        }
        check("output register file", max_rounds, self.params.output_regs)?;
        check("input fifo", n_inputs, self.params.input_fifo)?;
        check("output fifo", n_outputs, self.params.output_fifo)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Mlp, Normalizer, Topology};

    fn config_for(layers: Vec<usize>) -> NpuConfig {
        let t = Topology::new(layers).unwrap();
        let (i, o) = (t.inputs(), t.outputs());
        NpuConfig::new(
            Mlp::seeded(t, 3),
            Normalizer::identity(i),
            Normalizer::identity(o),
        )
    }

    #[test]
    fn sobel_schedule_shape() {
        // 9 -> 8 -> 1 on 8 PEs: layer 1 = 1 round x 9 inputs, layer 2 =
        // 1 round x 8 inputs, plus 1 output drain = 18 entries.
        let config = config_for(vec![9, 8, 1]);
        let s = Scheduler::new(NpuParams::default())
            .schedule(&config)
            .unwrap();
        assert_eq!(s.entries.len(), 9 + 8 + 1);
        assert_eq!(s.macs_per_invocation(), (9 * 8 + 8) as u64);
        assert_eq!(s.sigmoids_per_invocation(), 9);
        // All 9 neurons distributed: PE0 gets hidden neuron 0 and the
        // output neuron.
        assert_eq!(s.pe_tasks[0].len(), 2);
        assert_eq!(s.pe_tasks[7].len(), 1);
    }

    #[test]
    fn multi_round_layer_rebroadcasts_inputs() {
        // 4 -> 16 -> 1 on 8 PEs: hidden layer needs 2 rounds, so the 4
        // inputs are broadcast twice.
        let config = config_for(vec![4, 16, 1]);
        let s = Scheduler::new(NpuParams::default())
            .schedule(&config)
            .unwrap();
        let input_reads = s
            .entries
            .iter()
            .filter(|e| matches!(e.src, BusSource::InputFifo { .. }))
            .count();
        assert_eq!(input_reads, 8); // 4 inputs x 2 rounds
                                    // Round 1 broadcasts to all 8 PEs, round 2 to all 8 again (16 = 2x8).
        let masks: Vec<u64> = s
            .entries
            .iter()
            .filter_map(|e| match e.dest {
                BusDest::Pes(m) => Some(m),
                _ => None,
            })
            .collect();
        assert!(masks.iter().all(|&m| m.count_ones() <= 8));
    }

    #[test]
    fn partial_round_masks_only_live_pes() {
        // 2 -> 3 -> 1 on 8 PEs: hidden layer round 0 uses PEs 0..3 only.
        let config = config_for(vec![2, 3, 1]);
        let s = Scheduler::new(NpuParams::default())
            .schedule(&config)
            .unwrap();
        match s.entries[0].dest {
            BusDest::Pes(mask) => assert_eq!(mask, 0b111),
            BusDest::OutputFifo => panic!("first entry should feed PEs"),
        }
    }

    #[test]
    fn weights_cover_network_exactly_once() {
        let config = config_for(vec![5, 8, 3]);
        let s = Scheduler::new(NpuParams::default())
            .schedule(&config)
            .unwrap();
        let total_weights: usize = s.pe_tasks.iter().flatten().map(|t| t.macs + 1).sum();
        assert_eq!(total_weights, config.topology().weight_count());
        // Each (layer, neuron) appears exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for t in s.pe_tasks.iter().flatten() {
            assert!(seen.insert((t.layer, t.neuron)), "duplicate neuron task");
        }
        assert_eq!(seen.len(), config.topology().computing_neurons());
    }

    #[test]
    fn output_drain_is_in_order() {
        let config = config_for(vec![3, 4, 3]);
        let s = Scheduler::new(NpuParams::default())
            .schedule(&config)
            .unwrap();
        let drains: Vec<usize> = s
            .entries
            .iter()
            .filter_map(|e| match (e.src, e.dest) {
                (BusSource::Neuron { index, .. }, BusDest::OutputFifo) => Some(index),
                _ => None,
            })
            .collect();
        assert_eq!(drains, vec![0, 1, 2]);
    }

    #[test]
    fn oversized_network_is_rejected_when_strict() {
        // One PE must hold every weight of a large network: exceeds the
        // 512-entry weight cache.
        let config = config_for(vec![64, 64, 64]);
        let err = Scheduler::new(NpuParams::with_pes(1))
            .schedule(&config)
            .unwrap_err();
        assert!(matches!(err, NpuError::CapacityExceeded { .. }), "{err:?}");
        // The unbounded variant accepts it (sensitivity sweeps).
        assert!(Scheduler::new(NpuParams::with_pes(1).unbounded())
            .schedule(&config)
            .is_ok());
    }

    #[test]
    fn paper_benchmarks_fit_default_hardware() {
        for layers in [
            vec![1, 4, 4, 2],   // fft
            vec![2, 8, 2],      // inversek2j
            vec![18, 32, 8, 2], // jmeint
            vec![64, 16, 64],   // jpeg
            vec![6, 8, 4, 1],   // kmeans
            vec![9, 8, 1],      // sobel
        ] {
            let config = config_for(layers.clone());
            assert!(
                Scheduler::new(NpuParams::default())
                    .schedule(&config)
                    .is_ok(),
                "{layers:?} should fit the paper's 8-PE NPU"
            );
        }
    }
}
