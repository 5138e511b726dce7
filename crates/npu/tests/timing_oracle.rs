//! Equivalence oracle for the NPU timing model. [`NpuSim`] times each
//! invocation with one pass over the static schedule; [`Walk`] below is the
//! cycle-by-cycle walk over the PEs and the bus it replaced, kept here as
//! the reference. Both run the same random FIFO traffic (input gaps, pop
//! delays, commit lags, an optional squash); every cycle they must agree
//! on every event count, on what the CPU side sees of the FIFOs and on
//! whether the cycle made progress, so output pushes and completions land
//! in the same cycles. At the end the latency histograms must match.

use ann::{Mlp, Normalizer, Topology};
use npu::{
    BusDest, BusSource, InputFifo, NpuConfig, NpuParams, NpuSchedule, NpuSim, NpuStats, OutputFifo,
    Scheduler,
};
use proptest::prelude::*;
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
    queued: usize,
    task_idx: usize,
    mac_idx: usize,
    pending: Option<PendingSigmoid>,
}

/// One in-flight invocation of the walk.
#[derive(Debug, Clone)]
struct Invocation {
    bus_pc: usize,
    start_cycle: u64,
    input_start: u64,
    latched_inputs: usize,
    neuron_ready: Vec<Vec<Option<u64>>>,
    outputs_pushed: usize,
    pes: Vec<PeRun>,
}

/// The reference: every cycle, each PE resolves a finished sigmoid and
/// does at most one MAC, then the bus fires at most one scheduled entry.
struct Walk {
    pe_input_fifo: usize,
    schedule: NpuSchedule,
    inv: Option<Invocation>,
    /// Input end positions and output counts of completed invocations
    /// whose inputs may still be squashed.
    history: VecDeque<(u64, usize)>,
    input_fifo: InputFifo,
    output_fifo: OutputFifo,
    cycle: u64,
    stats: NpuStats,
    hist: telemetry::Histogram,
}

impl Walk {
    fn new(params: &NpuParams, config: &NpuConfig) -> Self {
        Walk {
            pe_input_fifo: params.pe_input_fifo,
            schedule: Scheduler::new(params.clone()).schedule(config).unwrap(),
            inv: None,
            history: VecDeque::new(),
            input_fifo: InputFifo::new(params.input_fifo),
            output_fifo: OutputFifo::new(params.output_fifo),
            cycle: 0,
            stats: NpuStats {
                config_words: config.encoded_len() as u64,
                ..NpuStats::default()
            },
            hist: telemetry::Histogram::default(),
        }
    }

    fn commit_inputs(&mut self, n: usize) {
        for _ in 0..n {
            self.input_fifo.commit_push();
        }
        self.retire_history();
    }

    fn commit_outputs(&mut self, n: usize) {
        for _ in 0..n {
            self.output_fifo.commit_pop();
        }
    }

    fn retire_history(&mut self) {
        let committed = self.input_fifo.committed();
        while self
            .history
            .front()
            .is_some_and(|&(end, _)| end <= committed)
        {
            self.history.pop_front();
        }
    }

    fn squash(&mut self, n_enq: usize, n_deq: usize) {
        self.output_fifo.squash_pops(n_deq);
        if self.input_fifo.squash_pushes(n_enq) == 0 {
            return;
        }
        let new_pushed = self.input_fifo.pushed();
        while let Some(&(end, outputs)) = self.history.back() {
            if end <= new_pushed {
                break;
            }
            self.output_fifo.invalidate_tail(outputs);
            self.stats.squashed_invocations += 1;
            self.history.pop_back();
        }
        if let Some(inv) = &self.inv {
            if inv.input_start + inv.latched_inputs as u64 > new_pushed {
                self.output_fifo.invalidate_tail(inv.outputs_pushed);
                self.input_fifo.rewind_to(inv.input_start);
                self.stats.squashed_invocations += 1;
                self.inv = None;
            }
        }
    }

    /// One cycle; returns whether anything besides the cycle counters
    /// changed.
    fn tick(&mut self) -> bool {
        self.cycle += 1;
        self.stats.total_cycles += 1;
        let mut moved = false;
        if self.inv.is_none() && self.input_fifo.readable() {
            moved = true;
            self.inv = Some(Invocation {
                bus_pc: 0,
                start_cycle: self.cycle,
                input_start: self.input_fifo.consumed(),
                latched_inputs: 0,
                neuron_ready: self.schedule.layer_sizes[1..]
                    .iter()
                    .map(|&n| vec![None; n])
                    .collect(),
                outputs_pushed: 0,
                pes: vec![PeRun::default(); self.schedule.n_pes],
            });
        }
        let Some(inv) = &mut self.inv else {
            return false;
        };
        self.stats.active_cycles += 1;
        let now = self.cycle;
        for (pe, tasks) in inv.pes.iter_mut().zip(&self.schedule.pe_tasks) {
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
        if let Some(&entry) = self.schedule.entries.get(inv.bus_pc) {
            let dest_ready = match entry.dest {
                BusDest::Pes(mask) => inv
                    .pes
                    .iter()
                    .enumerate()
                    .all(|(pe, run)| mask & (1 << pe) == 0 || run.queued < self.pe_input_fifo),
                BusDest::OutputFifo => self.output_fifo.has_space(),
            };
            let transfers = dest_ready
                && match entry.src {
                    BusSource::InputFifo { index } => {
                        if index < inv.latched_inputs {
                            true
                        } else if self.input_fifo.read_next() {
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
                        self.output_fifo.push().unwrap();
                        inv.outputs_pushed += 1;
                        self.stats.outputs_produced += 1;
                    }
                }
                inv.bus_pc += 1;
                self.stats.bus_transfers += 1;
                moved = true;
            }
        }
        let done = inv.bus_pc == self.schedule.entries.len()
            && inv
                .pes
                .iter()
                .zip(&self.schedule.pe_tasks)
                .all(|(pe, tasks)| pe.task_idx == tasks.len() && pe.pending.is_none());
        if done {
            let latched = inv.latched_inputs;
            let end = inv.input_start + latched as u64;
            self.history.push_back((end, inv.outputs_pushed));
            self.hist.observe((self.cycle - inv.start_cycle + 1) as f64);
            self.inv = None;
            self.input_fifo.mark_processed(latched);
            self.stats.invocations += 1;
            self.retire_history();
            moved = true;
        }
        moved
    }
}

/// The CPU side: sends `invocations` invocations' inputs with the given
/// gaps, dequeues each output after its delay, and commits each `enq.d`
/// and `deq.d` `commit_lag` cycles after it issues.
#[derive(Debug, Clone)]
struct Traffic {
    invocations: usize,
    input_gaps: Vec<u64>,
    pop_delays: Vec<u64>,
    commit_lag: u64,
    squash_at: Option<u64>,
}

fn traffic() -> impl Strategy<Value = Traffic> {
    (
        1usize..6,
        // Mostly back to back, sometimes a gap of up to 4 cycles.
        proptest::collection::vec((0u64..12).prop_map(|g| g.saturating_sub(8)), 64),
        // Half the outputs are popped at once, the rest after up to 11.
        proptest::collection::vec((0u64..24).prop_map(|d| d.saturating_sub(12)), 64),
        0u64..4,
        // A squash in the first 200 cycles half the time.
        (0u64..400).prop_map(|c| (c < 200).then_some(c)),
    )
        .prop_map(
            |(invocations, input_gaps, pop_delays, commit_lag, squash_at)| Traffic {
                invocations,
                input_gaps,
                pop_delays,
                commit_lag,
                squash_at,
            },
        )
}

fn topology() -> impl Strategy<Value = Topology> {
    (
        1usize..10,
        proptest::collection::vec(1usize..14, 1..3),
        1usize..6,
    )
        .prop_map(|(inputs, hidden, outputs)| {
            let mut layers = vec![inputs];
            layers.extend(hidden);
            layers.push(outputs);
            Topology::new(layers).expect("nonzero layers")
        })
}

/// Drives both models through `traffic`, comparing them every cycle.
fn compare(
    topology: &Topology,
    params: &NpuParams,
    traffic: &Traffic,
) -> Result<(), TestCaseError> {
    let config = NpuConfig::new(
        Mlp::seeded(topology.clone(), 7),
        Normalizer::identity(topology.inputs()),
        Normalizer::identity(topology.outputs()),
    );
    let mut sim = NpuSim::new(params.clone());
    sim.configure(&config).unwrap();
    let mut walk = Walk::new(params, &config);
    let (n_in, n_out) = (topology.inputs(), topology.outputs());
    let (total_in, total_out) = (traffic.invocations * n_in, traffic.invocations * n_out);
    let (mut sent, mut received) = (0usize, 0usize);
    // Issue cycles of the uncommitted enq.d and deq.d, oldest first.
    let (mut enq_pending, mut deq_pending) = (VecDeque::new(), VecDeque::new());
    let (mut next_send, mut visible_since) = (traffic.input_gaps[0], None);
    let mut squash_at = traffic.squash_at;
    for cycle in 0..20_000u64 {
        prop_assert_eq!(sim.stats(), walk.stats, "stats at cycle {}", cycle);
        prop_assert_eq!(sim.output_available(), walk.output_fifo.available());
        prop_assert_eq!(sim.input_has_space(), walk.input_fifo.has_space());
        prop_assert_eq!(sim.input_fifo_len(), walk.input_fifo.len());
        if squash_at == Some(cycle) {
            squash_at = None;
            let (n_enq, n_deq) = (enq_pending.len(), deq_pending.len());
            sim.squash(n_enq, n_deq);
            walk.squash(n_enq, n_deq);
            enq_pending.clear();
            deq_pending.clear();
            sent -= n_enq;
            received -= n_deq;
            visible_since = None;
            prop_assert_eq!(sim.stats(), walk.stats, "stats after squash");
            prop_assert_eq!(sim.output_available(), walk.output_fifo.available());
        }
        let lag = traffic.commit_lag;
        let commits = enq_pending
            .iter()
            .take_while(|&&at| at + lag <= cycle)
            .count();
        enq_pending.drain(..commits);
        sim.commit_inputs(commits);
        walk.commit_inputs(commits);
        let commits = deq_pending
            .iter()
            .take_while(|&&at| at + lag <= cycle)
            .count();
        deq_pending.drain(..commits);
        sim.commit_outputs(commits);
        walk.commit_outputs(commits);
        if sent < total_in && cycle >= next_send && walk.input_fifo.has_space() {
            sim.enqueue_input();
            walk.input_fifo.push_spec().unwrap();
            enq_pending.push_back(cycle);
            next_send = cycle + traffic.input_gaps[sent % traffic.input_gaps.len()];
            sent += 1;
        }
        if walk.output_fifo.available() {
            let since = *visible_since.get_or_insert(cycle);
            if cycle >= since + traffic.pop_delays[received % traffic.pop_delays.len()] {
                sim.dequeue_output();
                prop_assert!(walk.output_fifo.pop_spec());
                deq_pending.push_back(cycle);
                received += 1;
                visible_since = None;
            }
        }
        let done = received == total_out && enq_pending.is_empty() && deq_pending.is_empty();
        if done && walk.inv.is_none() && !walk.input_fifo.readable() {
            prop_assert!(!sim.busy());
            prop_assert_eq!(sim.invocation_cycles(), &walk.hist);
            return Ok(());
        }
        // Progress: any event besides the cycle counters. Reads and output
        // pushes are bus transfers, weight reads MACs.
        let events = |s: NpuStats| [s.macs, s.sigmoids, s.bus_transfers, s.invocations];
        let before = events(sim.stats());
        sim.advance_to(sim.cycle() + 1);
        let progressed = events(sim.stats()) != before;
        prop_assert_eq!(progressed, walk.tick(), "progress in cycle {}", cycle + 1);
    }
    Err(TestCaseError::fail("traffic did not drain in 20000 cycles"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pass_matches_cycle_walk(
        topology in topology(),
        n_pes in 1usize..=8,
        pe_input_fifo in (0usize..3).prop_map(|i| [1, 2, 8][i]),
        output_fifo in (0usize..3).prop_map(|i| [1, 2, 128][i]),
        input_slack in (0usize..3).prop_map(|i| [1, 2, 16][i]),
        traffic in traffic(),
    ) {
        let params = NpuParams {
            n_pes,
            pe_input_fifo,
            output_fifo,
            input_fifo: topology.inputs() * input_slack,
            ..NpuParams::default()
        }
        .unbounded();
        compare(&topology, &params, &traffic)?;
    }
}
