//! The cycle-accurate NPU model.
//!
//! The model tracks *when* things happen, never the values: the bus
//! schedule is fixed at compile time (paper Section 6.2), so no cycle
//! count depends on data. PE input FIFOs hold operand counts, computed
//! neurons hold the cycle their result became readable, and the
//! CPU-facing FIFOs are position counters. The values of an invocation
//! come from [`NpuConfig::evaluate`] (or the batched
//! [`BatchEvaluator`](crate::BatchEvaluator)).

use crate::fifo::{InputFifo, OutputFifo};
use crate::schedule::{BusDest, BusSource, NpuSchedule, Scheduler};
use crate::{NpuConfig, NpuError, NpuParams, NpuStats};
use std::collections::VecDeque;

/// A sigmoid evaluation in flight inside a PE.
#[derive(Debug, Clone, Copy)]
struct PendingSigmoid {
    layer: usize,
    neuron: usize,
    ready_at: u64,
}

/// Per-PE execution state within one invocation.
#[derive(Debug, Clone, Default)]
struct PeRun {
    /// Operands waiting in the PE's input FIFO.
    queued: usize,
    task_idx: usize,
    /// Multiply-adds done on the current task.
    mac_idx: usize,
    pending: Option<PendingSigmoid>,
}

/// One in-flight network evaluation.
#[derive(Debug, Clone)]
struct Invocation {
    bus_pc: usize,
    /// Cycle at which the invocation started (for latency accounting).
    start_cycle: u64,
    /// Absolute input-FIFO position where this invocation started reading.
    input_start: u64,
    /// Inputs read from the input FIFO and latched by the scaling unit
    /// (multi-round layers re-read latched inputs instead of re-popping
    /// the FIFO).
    latched_inputs: usize,
    /// Per computing layer, the cycle each neuron's result became
    /// readable on the bus.
    neuron_ready: Vec<Vec<Option<u64>>>,
    outputs_pushed: usize,
    pes: Vec<PeRun>,
}

/// A completed invocation whose inputs may still be speculative; kept so a
/// later squash can invalidate its outputs.
#[derive(Debug, Clone, Copy)]
struct CompletedRecord {
    /// Absolute input-FIFO position one past this invocation's last input.
    input_end: u64,
    /// Outputs it pushed.
    outputs: usize,
}

#[derive(Debug, Clone)]
struct Configured {
    schedule: NpuSchedule,
    inv: Option<Invocation>,
    history: VecDeque<CompletedRecord>,
}

/// The cycle-accurate NPU: eight (configurable) PEs, a statically
/// scheduled bus, a scaling unit, and the three CPU-facing FIFOs.
///
/// Drive it with [`tick`](Self::tick) (one cycle), feed it through the
/// FIFO methods, and roll back misspeculation with [`squash`](Self::squash).
/// It models timing and event counts only; [`NpuConfig::evaluate`] gives
/// the values an invocation produces.
#[derive(Debug)]
pub struct NpuSim {
    params: NpuParams,
    state: Option<Configured>,
    input_fifo: InputFifo,
    output_fifo: OutputFifo,
    cycle: u64,
    stats: NpuStats,
    /// Per-invocation latency distribution in simulated cycles (squashed
    /// invocations are excluded — they never complete architecturally).
    invocation_hist: telemetry::Histogram,
}

impl NpuSim {
    /// Creates an unconfigured NPU.
    pub fn new(params: NpuParams) -> Self {
        NpuSim {
            input_fifo: InputFifo::new(params.input_fifo),
            output_fifo: OutputFifo::new(params.output_fifo),
            state: None,
            cycle: 0,
            stats: NpuStats::default(),
            invocation_hist: telemetry::Histogram::default(),
            params,
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated event statistics.
    pub fn stats(&self) -> &NpuStats {
        &self.stats
    }

    /// Per-invocation latency distribution in simulated cycles.
    pub fn invocation_cycles(&self) -> &telemetry::Histogram {
        &self.invocation_hist
    }

    /// Whether a configuration is loaded.
    pub fn configured(&self) -> bool {
        self.state.is_some()
    }

    /// Whether an invocation is in flight.
    pub fn busy(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.inv.is_some()) || self.input_fifo.readable()
    }

    /// Loads a configuration, charging the `enq.c` words that ship it to
    /// [`NpuStats::config_words`]. The ISA word path itself (accumulate,
    /// decode, readback on a context switch) is the functional runtime's.
    ///
    /// # Errors
    ///
    /// Returns a scheduling error if the network does not fit the hardware.
    pub fn configure(&mut self, config: &NpuConfig) -> Result<(), NpuError> {
        let schedule = Scheduler::new(self.params.clone()).schedule(config)?;
        self.stats.config_words += config.encoded_len() as u64;
        self.state = Some(Configured {
            schedule,
            inv: None,
            history: VecDeque::new(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data path (CPU side)
    // ------------------------------------------------------------------

    /// Whether an `enq.d` can execute (input FIFO not full).
    pub fn input_has_space(&self) -> bool {
        self.input_fifo.has_space()
    }

    /// Current input FIFO occupancy (issue logic accounts values still in
    /// flight on the CPU→NPU link against the remaining space).
    pub fn input_fifo_len(&self) -> usize {
        self.input_fifo.len()
    }

    /// Input FIFO capacity.
    pub fn input_fifo_capacity(&self) -> usize {
        self.params.input_fifo
    }

    /// Speculatively enqueues an input (at `enq.d` execute).
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — the issue logic must check
    /// [`input_has_space`](Self::input_has_space) first.
    pub fn enqueue_input(&mut self) {
        self.input_fifo
            .push_spec()
            .expect("enq.d issued with full input fifo");
    }

    /// Notifies the NPU that `n` `enq.d` instructions committed.
    pub fn commit_inputs(&mut self, n: usize) {
        for _ in 0..n {
            self.input_fifo.commit_push();
        }
        self.retire_history();
    }

    /// Whether a `deq.d` can execute (an unread output exists).
    pub fn output_available(&self) -> bool {
        self.output_fifo.available()
    }

    /// Speculatively dequeues an output (at `deq.d` issue).
    ///
    /// # Panics
    ///
    /// Panics if no output is available — check
    /// [`output_available`](Self::output_available) first.
    pub fn dequeue_output(&mut self) {
        assert!(
            self.output_fifo.pop_spec(),
            "deq.d issued with empty output fifo"
        );
    }

    /// Notifies the NPU that `n` `deq.d` instructions committed.
    pub fn commit_outputs(&mut self, n: usize) {
        for _ in 0..n {
            self.output_fifo.commit_pop();
        }
    }

    /// Misspeculation rollback (paper Section 5.2): the core reports how
    /// many speculative `enq.d` and `deq.d` instructions were squashed.
    /// The NPU adjusts the input tail, restores the output FIFO's
    /// speculative head, resets any invocation that consumed invalidated
    /// inputs, and invalidates outputs derived from them.
    pub fn squash(&mut self, n_enq: usize, n_deq: usize) {
        if telemetry::enabled(telemetry::Level::Trace) {
            telemetry::emit(telemetry::Level::Trace, "npu::sim", || {
                telemetry::EventKind::NpuSquash {
                    enq: n_enq as u64,
                    deq: n_deq as u64,
                }
            });
        }
        self.output_fifo.squash_pops(n_deq);
        let overrun = self.input_fifo.squash_pushes(n_enq);
        if overrun == 0 {
            return;
        }
        let new_pushed = self.input_fifo.pushed();
        if let Some(state) = &mut self.state {
            // Invalidate completed speculative invocations that lost inputs,
            // youngest first.
            while let Some(rec) = state.history.back() {
                if rec.input_end > new_pushed {
                    self.output_fifo.invalidate_tail(rec.outputs);
                    self.stats.squashed_invocations += 1;
                    state.history.pop_back();
                } else {
                    break;
                }
            }
            // Reset the in-flight invocation if it read invalidated inputs.
            if let Some(inv) = &state.inv {
                let inv_end = inv.input_start + inv.latched_inputs as u64;
                if inv_end > new_pushed {
                    self.output_fifo.invalidate_tail(inv.outputs_pushed);
                    self.input_fifo.rewind_to(inv.input_start);
                    self.stats.squashed_invocations += 1;
                    state.inv = None;
                }
            }
        }
    }

    fn retire_history(&mut self) {
        let committed = self.input_fifo.committed();
        if let Some(state) = &mut self.state {
            while let Some(rec) = state.history.front() {
                if rec.input_end <= committed {
                    state.history.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Cycle model
    // ------------------------------------------------------------------

    /// Advances the NPU by one cycle. Returns whether it made progress:
    /// whether anything besides the cycle counters (`cycle`,
    /// `total_cycles`, `active_cycles`) changed.
    ///
    /// Nothing in the model waits on time alone: a sigmoid result is
    /// readable the cycle after its last MAC, and a neuron result stays
    /// readable once produced. So a tick without progress repeats, cycle
    /// for cycle, until an input is enqueued or an output is dequeued;
    /// [`advance_stalled`](Self::advance_stalled) skips such a span.
    pub fn tick(&mut self) -> bool {
        self.cycle += 1;
        self.stats.total_cycles += 1;
        let Some(state) = &mut self.state else {
            return false;
        };
        let mut moved = false;
        // Start a new invocation when input data arrives.
        if state.inv.is_none() && self.input_fifo.readable() {
            moved = true;
            state.inv = Some(Invocation {
                bus_pc: 0,
                start_cycle: self.cycle,
                input_start: self.input_fifo.consumed(),
                latched_inputs: 0,
                neuron_ready: state.schedule.layer_sizes[1..]
                    .iter()
                    .map(|&n| vec![None; n])
                    .collect(),
                outputs_pushed: 0,
                pes: vec![PeRun::default(); state.schedule.n_pes],
            });
        }
        let Some(inv) = &mut state.inv else {
            return false;
        };
        self.stats.active_cycles += 1;
        let now = self.cycle;

        // --- PE phase: resolve sigmoid results, then one MAC per PE. ---
        for (pe, tasks) in inv.pes.iter_mut().zip(&state.schedule.pe_tasks) {
            if let Some(p) = pe.pending {
                if p.ready_at <= now {
                    inv.neuron_ready[p.layer][p.neuron] = Some(now);
                    self.stats.sigmoids += 1;
                    pe.pending = None;
                    moved = true;
                }
            }
            let Some(task) = tasks.get(pe.task_idx) else {
                continue;
            };
            // The single sigmoid unit must be free to accept a new sum.
            let completing = pe.mac_idx + 1 == task.macs;
            if pe.queued == 0 || (completing && pe.pending.is_some()) {
                continue;
            }
            pe.queued -= 1;
            pe.mac_idx += 1;
            moved = true;
            self.stats.macs += 1;
            self.stats.weight_reads += 1;
            if completing {
                pe.pending = Some(PendingSigmoid {
                    layer: task.layer,
                    neuron: task.neuron,
                    ready_at: now + 1,
                });
                pe.task_idx += 1;
                pe.mac_idx = 0;
            }
        }

        // --- Bus phase: at most one scheduled transfer per cycle. ---
        if let Some(&entry) = state.schedule.entries.get(inv.bus_pc) {
            // Destination readiness first (so we never consume a source
            // value and then stall).
            let dest_ready = match entry.dest {
                BusDest::Pes(mask) => inv.pes.iter().enumerate().all(|(pe, run)| {
                    mask & (1 << pe) == 0 || run.queued < self.params.pe_input_fifo
                }),
                BusDest::OutputFifo => self.output_fifo.has_space(),
            };
            let transfers = dest_ready
                && match entry.src {
                    BusSource::InputFifo { index } => {
                        if index < inv.latched_inputs {
                            true
                        } else if self.input_fifo.read_next() {
                            debug_assert_eq!(index, inv.latched_inputs);
                            inv.latched_inputs += 1;
                            self.stats.input_reads += 1;
                            true
                        } else {
                            false
                        }
                    }
                    BusSource::Neuron { layer, index } => {
                        inv.neuron_ready[layer][index].is_some_and(|at| at <= now)
                    }
                };
            if transfers {
                match entry.dest {
                    BusDest::Pes(mask) => {
                        for (pe, run) in inv.pes.iter_mut().enumerate() {
                            if mask & (1 << pe) != 0 {
                                run.queued += 1;
                            }
                        }
                    }
                    BusDest::OutputFifo => {
                        self.output_fifo.push().expect("space checked above");
                        inv.outputs_pushed += 1;
                        self.stats.outputs_produced += 1;
                    }
                }
                inv.bus_pc += 1;
                self.stats.bus_transfers += 1;
                moved = true;
            }
        }

        // --- Completion. ---
        let done = inv.bus_pc == state.schedule.entries.len()
            && inv
                .pes
                .iter()
                .zip(&state.schedule.pe_tasks)
                .all(|(pe, tasks)| pe.task_idx == tasks.len() && pe.pending.is_none());
        if done {
            let latched = inv.latched_inputs;
            let input_end = inv.input_start + latched as u64;
            let outputs = inv.outputs_pushed;
            // Latency in simulated cycles, inclusive of the start cycle —
            // deterministic, so it may feed per-benchmark reports.
            let latency = self.cycle - inv.start_cycle + 1;
            state.inv = None;
            state
                .history
                .push_back(CompletedRecord { input_end, outputs });
            self.input_fifo.mark_processed(latched);
            self.stats.invocations += 1;
            self.invocation_hist.observe(latency as f64);
            if telemetry::enabled(telemetry::Level::Trace) {
                telemetry::emit(telemetry::Level::Trace, "npu::sim", || {
                    telemetry::EventKind::NpuInvocation { cycles: latency }
                });
            }
            self.retire_history();
            moved = true;
        }
        moved
    }

    /// Advances the clock over `k` cycles in which the NPU is known to
    /// make no progress (the last [`tick`](Self::tick) returned `false`
    /// and no FIFO operation happened since): counts them in
    /// `total_cycles`, and in `active_cycles` while an invocation is in
    /// flight, exactly as `k` ticks would.
    pub fn advance_stalled(&mut self, k: u64) {
        self.cycle += k;
        self.stats.total_cycles += k;
        if self.state.as_ref().is_some_and(|s| s.inv.is_some()) {
            self.stats.active_cycles += k;
        }
    }

    /// Runs until the NPU is idle (no in-flight invocation and no readable
    /// input). Useful for latency measurement.
    ///
    /// # Panics
    ///
    /// Panics if a tick makes no progress (e.g. the output FIFO is full
    /// and nobody drains it): with no FIFO operation in between, no later
    /// tick would make progress either.
    pub fn run_until_idle(&mut self) {
        while self.busy() {
            assert!(self.tick(), "npu deadlock: no progress");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Mlp, Normalizer, Topology};

    fn config_for(layers: Vec<usize>, seed: u64) -> NpuConfig {
        let t = Topology::new(layers).unwrap();
        let (i, o) = (t.inputs(), t.outputs());
        NpuConfig::new(
            Mlp::seeded(t, seed),
            Normalizer::identity(i),
            Normalizer::identity(o),
        )
    }

    fn configured(config: &NpuConfig) -> NpuSim {
        let mut sim = NpuSim::new(NpuParams::default());
        sim.configure(config).unwrap();
        sim
    }

    /// One full invocation through the FIFO protocol: enqueue and commit
    /// `config`'s inputs, run to idle, dequeue and commit its outputs.
    fn invoke(sim: &mut NpuSim, config: &NpuConfig) {
        let (n_in, n_out) = (config.topology().inputs(), config.topology().outputs());
        for _ in 0..n_in {
            sim.enqueue_input();
        }
        sim.commit_inputs(n_in);
        sim.run_until_idle();
        for _ in 0..n_out {
            sim.dequeue_output();
        }
        sim.commit_outputs(n_out);
    }

    #[test]
    fn invocation_counts_match_schedule() {
        for layers in [
            vec![2, 4, 1],
            vec![9, 8, 1],
            vec![3, 8, 4, 2],
            vec![6, 8, 4, 1],
            vec![4, 16, 1],
        ] {
            let config = config_for(layers.clone(), 9);
            let schedule = Scheduler::new(NpuParams::default())
                .schedule(&config)
                .unwrap();
            let mut sim = configured(&config);
            invoke(&mut sim, &config);
            let s = sim.stats();
            assert_eq!(s.macs, schedule.macs_per_invocation(), "{layers:?}");
            assert_eq!(s.weight_reads, s.macs, "{layers:?}");
            assert_eq!(s.sigmoids, schedule.sigmoids_per_invocation(), "{layers:?}");
            assert_eq!(
                s.bus_transfers,
                schedule.bus_transfers_per_invocation(),
                "{layers:?}"
            );
            assert_eq!(s.input_reads, config.topology().inputs() as u64);
            assert_eq!(s.outputs_produced, config.topology().outputs() as u64);
            assert_eq!(s.invocations, 1);
        }
    }

    #[test]
    fn back_to_back_invocations_work() {
        let config = config_for(vec![2, 4, 1], 3);
        let mut sim = configured(&config);
        for _ in 0..5 {
            invoke(&mut sim, &config);
        }
        assert_eq!(sim.stats().invocations, 5);
        let hist = sim.invocation_cycles();
        assert_eq!(
            hist.count, 5,
            "every completed invocation must record its latency"
        );
        assert!(hist.min >= 1.0);
        assert_eq!(
            hist.min, hist.max,
            "identical topology must give identical latency"
        );
    }

    #[test]
    fn config_word_stream_configures() {
        let config = config_for(vec![3, 4, 2], 8);
        let mut sim = NpuSim::new(NpuParams::default());
        assert!(!sim.configured());
        sim.configure(&config).unwrap();
        assert!(sim.configured());
        assert_eq!(sim.stats().config_words, config.encoded_len() as u64);
        // A context-switch restore ships the whole stream again.
        sim.configure(&config).unwrap();
        assert_eq!(sim.stats().config_words, 2 * config.encoded_len() as u64);
    }

    #[test]
    fn squash_of_unread_inputs_is_invisible() {
        let config = config_for(vec![2, 2, 1], 6);
        let mut sim = configured(&config);
        // Complete a clean invocation first.
        invoke(&mut sim, &config);
        // Speculatively push an input, then squash it before the NPU runs.
        sim.enqueue_input();
        sim.squash(1, 0);
        // A fresh committed invocation takes exactly as long as the first.
        invoke(&mut sim, &config);
        let s = sim.stats();
        assert_eq!(s.squashed_invocations, 0);
        assert_eq!(s.invocations, 2);
        assert_eq!(s.input_reads, 4);
        let hist = sim.invocation_cycles();
        assert_eq!(hist.min, hist.max);
    }

    #[test]
    fn squash_mid_invocation_resets_and_replays() {
        let config = config_for(vec![2, 2, 1], 6);
        let mut sim = configured(&config);
        // Commit the first input, speculate the second.
        sim.enqueue_input();
        sim.commit_inputs(1);
        sim.enqueue_input();
        // Let the NPU consume both inputs.
        for _ in 0..4 {
            sim.tick();
        }
        assert_eq!(sim.stats().input_reads, 2);
        // Misspeculation: the second enq.d is squashed.
        sim.squash(1, 0);
        assert_eq!(sim.stats().squashed_invocations, 1);
        assert!(!sim.output_available());
        // The correct-path input arrives and commits; the invocation
        // re-reads the surviving first input and completes.
        sim.enqueue_input();
        sim.commit_inputs(1);
        sim.run_until_idle();
        let s = sim.stats();
        assert_eq!(s.input_reads, 4);
        assert_eq!(s.invocations, 1);
        assert_eq!(s.outputs_produced, 1);
        assert!(sim.output_available());
    }

    #[test]
    fn squash_after_speculative_completion_invalidates_outputs() {
        let config = config_for(vec![2, 2, 1], 6);
        let mut sim = configured(&config);
        // Entire invocation runs on speculative inputs.
        sim.enqueue_input();
        sim.enqueue_input();
        sim.run_until_idle();
        assert!(sim.output_available());
        // Both enq.d squashed: the output must disappear.
        sim.squash(2, 0);
        assert!(!sim.output_available());
        assert_eq!(sim.stats().squashed_invocations, 1);
        // Correct path proceeds normally.
        invoke(&mut sim, &config);
        assert_eq!(sim.stats().invocations, 2);
        assert!(!sim.output_available());
    }

    #[test]
    fn speculative_output_read_replay_via_squash() {
        let config = config_for(vec![1, 2, 2], 2);
        let mut sim = configured(&config);
        sim.enqueue_input();
        sim.commit_inputs(1);
        sim.run_until_idle();
        sim.dequeue_output();
        sim.dequeue_output();
        assert!(!sim.output_available());
        // Both deq.d squashed (e.g. older branch mispredicted): the
        // outputs are still there to be read again.
        sim.squash(0, 2);
        assert!(sim.output_available());
        sim.dequeue_output();
        sim.dequeue_output();
        sim.commit_outputs(2);
        assert!(!sim.output_available());
    }

    #[test]
    fn stats_count_events() {
        let config = config_for(vec![9, 8, 1], 1);
        let mut sim = configured(&config);
        invoke(&mut sim, &config);
        let s = sim.stats();
        assert_eq!(s.macs, (9 * 8 + 8) as u64);
        assert_eq!(s.sigmoids, 9);
        assert_eq!(s.bus_transfers, (9 + 8 + 1) as u64);
        assert_eq!(s.input_reads, 9);
        assert_eq!(s.outputs_produced, 1);
        assert_eq!(s.invocations, 1);
        assert_eq!(s.faults_injected, 0);
    }

    #[test]
    fn queued_invocations_run_back_to_back() {
        let config = config_for(vec![3, 8, 2], 4);
        let mut sim = configured(&config);
        for _ in 0..3 * 3 {
            sim.enqueue_input();
        }
        sim.commit_inputs(3 * 3);
        sim.run_until_idle();
        let hist = sim.invocation_cycles();
        assert_eq!(hist.count, 3);
        assert_eq!(hist.min, hist.max);
        // Each invocation starts the cycle after its predecessor ends.
        assert_eq!(sim.stats().active_cycles as f64, 3.0 * hist.max);
    }

    #[test]
    fn speculative_inputs_hold_fifo_space_until_commit() {
        let config = config_for(vec![2, 2, 1], 6);
        let params = NpuParams {
            input_fifo: 2,
            ..NpuParams::default()
        };
        let mut sim = NpuSim::new(params);
        sim.configure(&config).unwrap();
        sim.enqueue_input();
        sim.enqueue_input();
        assert!(!sim.input_has_space());
        // The NPU may compute on speculative inputs, but their entries
        // are recycled only once their enq.d commits.
        sim.run_until_idle();
        assert_eq!(sim.stats().invocations, 1);
        assert_eq!(sim.input_fifo_len(), 2);
        sim.commit_inputs(2);
        assert_eq!(sim.input_fifo_len(), 0);
        assert!(sim.input_has_space());
    }

    #[test]
    fn full_output_fifo_stalls_the_drain_until_dequeued() {
        let config = config_for(vec![2, 2, 1], 6);
        let params = NpuParams {
            output_fifo: 1,
            ..NpuParams::default()
        };
        let mut sim = NpuSim::new(params);
        sim.configure(&config).unwrap();
        for _ in 0..4 {
            sim.enqueue_input();
        }
        sim.commit_inputs(4);
        for _ in 0..1000 {
            sim.tick();
        }
        // The first output fills the FIFO; the second invocation computes
        // but cannot drain its output.
        assert_eq!(sim.stats().invocations, 1);
        assert_eq!(sim.stats().outputs_produced, 1);
        assert!(sim.busy());
        sim.dequeue_output();
        sim.commit_outputs(1);
        sim.run_until_idle();
        assert_eq!(sim.stats().invocations, 2);
        assert!(sim.output_available());
    }

    #[test]
    fn tick_reports_progress_and_stalled_spans_count_cycles() {
        let config = config_for(vec![2, 2, 1], 6);
        let params = NpuParams {
            output_fifo: 1,
            ..NpuParams::default()
        };
        let mut sim = NpuSim::new(params);
        sim.configure(&config).unwrap();
        for _ in 0..4 {
            sim.enqueue_input();
        }
        sim.commit_inputs(4);
        // Run until the second invocation's output finds the FIFO full.
        let mut ticks = 0;
        while sim.tick() {
            ticks += 1;
            assert!(ticks < 1000, "the drain never blocked");
        }
        assert_eq!(sim.stats().outputs_produced, 1);
        assert!(sim.busy());
        // No progress until the output is dequeued, whatever the wait.
        let stalled = *sim.stats();
        for _ in 0..5 {
            assert!(!sim.tick());
        }
        // A stalled span counts as cycles, active while in flight.
        sim.advance_stalled(10);
        let after = sim.stats();
        assert_eq!(after.total_cycles, stalled.total_cycles + 15);
        assert_eq!(after.active_cycles, stalled.active_cycles + 15);
        assert_eq!(sim.cycle(), stalled.total_cycles + 15);
        assert_eq!(
            NpuStats {
                total_cycles: stalled.total_cycles,
                active_cycles: stalled.active_cycles,
                ..*after
            },
            stalled
        );
        sim.dequeue_output();
        sim.commit_outputs(1);
        assert!(sim.tick());
        sim.run_until_idle();
        assert_eq!(sim.stats().invocations, 2);
        // With no invocation in flight only the total advances.
        let idle = *sim.stats();
        sim.advance_stalled(7);
        assert_eq!(sim.stats().total_cycles, idle.total_cycles + 7);
        assert_eq!(sim.stats().active_cycles, idle.active_cycles);
        assert!(!sim.tick());
    }

    #[test]
    fn unconfigured_npu_only_counts_cycles() {
        let mut sim = NpuSim::new(NpuParams::default());
        for _ in 0..10 {
            sim.tick();
        }
        let s = sim.stats();
        assert_eq!((s.total_cycles, s.active_cycles, s.invocations), (10, 0, 0));
        assert!(!sim.busy());
        // A network the hardware cannot hold is refused.
        let big = config_for(vec![2, 4096, 1], 1);
        assert!(matches!(
            sim.configure(&big),
            Err(NpuError::CapacityExceeded { .. })
        ));
        assert!(!sim.configured());
    }
}
