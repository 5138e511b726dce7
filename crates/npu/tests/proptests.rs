//! Property-based tests: the cycle-accurate NPU does exactly the work its
//! static schedule prescribes, in a data-independent time, the static
//! scheduler conserves work, and the speculative FIFOs never corrupt
//! committed state.

use ann::{Mlp, Normalizer, Topology};
use npu::{
    estimate_latency, BusDest, BusSource, InputFifo, NpuConfig, NpuParams, NpuSim, NpuStats,
    OutputFifo, Scheduler,
};
use proptest::prelude::*;

fn schedulable_topology() -> impl Strategy<Value = Topology> {
    (
        1usize..12,
        proptest::collection::vec(1usize..17, 1..3),
        1usize..8,
    )
        .prop_map(|(inputs, hidden, outputs)| {
            let mut layers = vec![inputs];
            layers.extend(hidden);
            layers.push(outputs);
            Topology::new(layers).expect("nonzero layers")
        })
}

fn config_for(topology: Topology, seed: u64) -> NpuConfig {
    let (i, o) = (topology.inputs(), topology.outputs());
    NpuConfig::new(
        Mlp::seeded(topology, seed),
        Normalizer::identity(i),
        Normalizer::identity(o),
    )
}

/// Runs one invocation through the FIFO protocol (enqueue and commit the
/// inputs, run to idle, dequeue and commit the outputs) and returns the
/// stats it added.
fn invoke(sim: &mut NpuSim, topology: &Topology) -> NpuStats {
    let before = sim.stats();
    for _ in 0..topology.inputs() {
        sim.enqueue_input();
    }
    sim.commit_inputs(topology.inputs());
    sim.run_until_idle();
    for _ in 0..topology.outputs() {
        sim.dequeue_output();
    }
    sim.commit_outputs(topology.outputs());
    let after = sim.stats();
    NpuStats {
        macs: after.macs - before.macs,
        sigmoids: after.sigmoids - before.sigmoids,
        weight_reads: after.weight_reads - before.weight_reads,
        bus_transfers: after.bus_transfers - before.bus_transfers,
        input_reads: after.input_reads - before.input_reads,
        outputs_produced: after.outputs_produced - before.outputs_produced,
        invocations: after.invocations - before.invocations,
        ..NpuStats::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On any PE count, one invocation does exactly the work of the static
    /// schedule, and its latency is what `estimate_latency` reports.
    #[test]
    fn sim_matches_schedule(
        topology in schedulable_topology(),
        n_pes in 1usize..12,
    ) {
        let config = config_for(topology.clone(), 5);
        let params = NpuParams::with_pes(n_pes).unbounded();
        let schedule = Scheduler::new(params.clone()).schedule(&config).unwrap();
        let mut sim = NpuSim::new(params.clone());
        sim.configure(&config).unwrap();
        let added = invoke(&mut sim, &topology);
        prop_assert_eq!(added, NpuStats {
            macs: schedule.macs_per_invocation(),
            sigmoids: schedule.sigmoids_per_invocation(),
            weight_reads: schedule.macs_per_invocation(),
            bus_transfers: schedule.bus_transfers_per_invocation(),
            input_reads: topology.inputs() as u64,
            outputs_produced: topology.outputs() as u64,
            invocations: 1,
            ..NpuStats::default()
        });
        prop_assert_eq!(
            sim.invocation_cycles().max,
            estimate_latency(&topology, &params) as f64
        );
    }

    /// The scheduler assigns every neuron exactly once, keeps masks
    /// within the PE count, and ends with the output drain in order.
    #[test]
    fn scheduler_conserves_work(
        topology in schedulable_topology(),
        n_pes in 1usize..12,
    ) {
        let config = config_for(topology.clone(), 3);
        let params = NpuParams::with_pes(n_pes).unbounded();
        let schedule = Scheduler::new(params).schedule(&config).unwrap();
        // Total MACs = weights (minus biases, which seed accumulators).
        let macs: usize = schedule
            .pe_tasks
            .iter()
            .flatten()
            .map(|t| t.macs)
            .sum();
        let biases: usize = schedule.pe_tasks.iter().flatten().count();
        prop_assert_eq!(macs + biases, topology.weight_count());
        prop_assert_eq!(biases, topology.computing_neurons());
        // Masks never address PEs beyond the configured count.
        for entry in &schedule.entries {
            if let BusDest::Pes(mask) = entry.dest {
                prop_assert_eq!(mask >> n_pes, 0, "mask {:b} exceeds {} PEs", mask, n_pes);
            }
        }
        // The final entries drain outputs 0..n in order.
        let drains: Vec<usize> = schedule
            .entries
            .iter()
            .filter_map(|e| match (e.src, e.dest) {
                (BusSource::Neuron { index, .. }, BusDest::OutputFifo) => Some(index),
                _ => None,
            })
            .collect();
        let expected: Vec<usize> = (0..topology.outputs()).collect();
        prop_assert_eq!(drains, expected);
    }

    /// Config wire encoding round-trips for arbitrary networks.
    #[test]
    fn config_encoding_round_trips(topology in schedulable_topology(), seed in 0u64..1000) {
        let config = config_for(topology, seed);
        let decoded = NpuConfig::decode(&config.encode()).unwrap();
        prop_assert_eq!(decoded, config);
    }

    /// Input FIFO: any sequence of push/commit/read with a final squash of
    /// the speculative suffix leaves committed entries intact and
    /// re-readable.
    #[test]
    fn input_fifo_squash_preserves_committed(
        n_push in 1usize..20,
        n_commit in 0usize..20,
        n_read in 0usize..20,
    ) {
        let mut fifo = InputFifo::new(32);
        for _ in 0..n_push {
            fifo.push_spec().unwrap();
        }
        let n_commit = n_commit.min(n_push);
        for _ in 0..n_commit {
            fifo.commit_push();
        }
        let n_read = n_read.min(n_push);
        for _ in 0..n_read {
            prop_assert!(fifo.read_next());
        }
        // Squash the whole speculative suffix.
        let overrun = fifo.squash_pushes(n_push - n_commit);
        prop_assert_eq!(overrun as usize, n_read.saturating_sub(n_commit));
        // Rewind and re-read: the committed prefix must be intact.
        fifo.rewind_to(0);
        for _ in 0..n_commit {
            prop_assert!(fifo.read_next());
        }
        prop_assert!(!fifo.read_next());
        prop_assert_eq!(fifo.len(), n_commit);
    }

    /// Output FIFO: speculative pops always replay after a squash,
    /// regardless of interleaving.
    #[test]
    fn output_fifo_replay_is_exact(
        n_push in 1usize..16,
        n_pop in 1usize..16,
    ) {
        let mut fifo = OutputFifo::new(32);
        for _ in 0..n_push {
            fifo.push().unwrap();
        }
        let n_pop = n_pop.min(n_push);
        for _ in 0..n_pop {
            prop_assert!(fifo.pop_spec());
        }
        fifo.squash_pops(n_pop);
        for _ in 0..n_pop {
            prop_assert!(fifo.pop_spec());
        }
        prop_assert_eq!(fifo.available(), n_pop < n_push);
        prop_assert_eq!(fifo.len(), n_push);
    }

    /// Back-to-back invocations through one sim are independent: each
    /// adds the same events and takes the same cycles, so no state leaks
    /// between invocations.
    #[test]
    fn repeated_invocations_are_independent(
        topology in schedulable_topology(),
        seed in 0u64..200,
    ) {
        let config = config_for(topology.clone(), seed);
        let mut sim = NpuSim::new(NpuParams::default());
        sim.configure(&config).unwrap();
        let first = invoke(&mut sim, &topology);
        for _ in 0..2 {
            prop_assert_eq!(invoke(&mut sim, &topology), first);
        }
        let hist = sim.invocation_cycles();
        prop_assert_eq!(hist.count, 3);
        prop_assert_eq!(hist.min, hist.max);
    }

    /// Squashing an invocation's speculative inputs at any cycle of its
    /// run (paper Section 5.2) leaves the NPU able to run the correct-path
    /// invocation in exactly its nominal latency.
    #[test]
    fn squash_at_any_cycle_leaves_clean_timing(
        topology in schedulable_topology(),
        cycles in 0u64..40,
    ) {
        let config = config_for(topology.clone(), 1);
        let params = NpuParams::default();
        let mut sim = NpuSim::new(params.clone());
        sim.configure(&config).unwrap();
        for _ in 0..topology.inputs() {
            sim.enqueue_input();
        }
        sim.advance_to(cycles);
        let completed = sim.stats().invocations;
        sim.squash(topology.inputs(), 0);
        prop_assert!(!sim.output_available());
        prop_assert_eq!(
            sim.stats().squashed_invocations,
            u64::from(completed > 0 || sim.stats().input_reads > 0)
        );
        let added = invoke(&mut sim, &topology);
        prop_assert_eq!(added.invocations, 1);
        prop_assert_eq!(added.outputs_produced, topology.outputs() as u64);
        prop_assert_eq!(
            sim.invocation_cycles().max,
            estimate_latency(&topology, &params) as f64
        );
    }
}
