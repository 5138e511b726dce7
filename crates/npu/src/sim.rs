//! The cycle-accurate NPU model.
//!
//! The model tracks *when* things happen, never the values: the bus
//! schedule is fixed at compile time (paper Section 6.2), so no cycle
//! count depends on data, and the CPU-facing FIFOs are position counters.
//! The values of an invocation come from [`NpuConfig::evaluate`] (or the
//! batched [`BatchEvaluator`](crate::BatchEvaluator)).
//!
//! Time is event driven. An invocation's timing depends only on when its
//! inputs arrive and when output-FIFO slots free, so one pass over the
//! static schedule gives every event cycle of it by max-plus recurrences
//! (each event happens at the latest ready cycle among its predecessors
//! plus a fixed latency). With `S` the start, `A` an input's arrival, `B`
//! a bus transfer, `M` a MAC and `P` a committed `deq.d`:
//!
//! * `S = max(D_prev + 1, A_first)`;
//! * bus entry j fires at `B_j = max(B_{j-1} + 1, src, dest)` with
//!   `B_{-1} = S - 1`. The source is ready at `A` on an input's first read
//!   (later reads reuse the latched value) and at a neuron's ready cycle.
//!   A PE that already holds `pe_input_fifo` of the invocation's operands
//!   is ready once the oldest is consumed, `M_p[n - pe_input_fifo]` (a pop
//!   frees its slot the same cycle); the g-th output needs
//!   `P[g - output_fifo] + 1` (a pop is seen the next cycle);
//! * PE p's i-th MAC runs at `M_p[i] = max(M_p[i-1] + 1, B(push i) + 1)`;
//!   the sigmoid unit never stalls a PE, so a neuron is ready the cycle
//!   after its last MAC;
//! * the invocation completes at `D = max(B_last, max_p M_p[last] + 1)`.
//!
//! The pass runs as far as the known arrivals and dequeues allow; the
//! clock ([`NpuSim::advance_to`]) only decides which of those events have
//! happened yet.

use crate::fifo::{InputFifo, OutputFifo};
use crate::schedule::{BusDest, BusSource, NpuSchedule, Scheduler};
use crate::{NpuConfig, NpuError, NpuParams, NpuStats};
use std::collections::VecDeque;

/// [`Span::end`] of an invocation the pass has not finished timing.
const OPEN: u64 = u64::MAX;

/// An invocation the pass has started timing.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    /// Completion cycle, or [`OPEN`].
    end: u64,
    /// Absolute input-FIFO position of its first input.
    input_start: u64,
    /// Absolute output-FIFO position of its first output.
    out_start: u64,
}

/// The cycles the CPU side fixes: when each input arrives and when each
/// output slot is freed.
#[derive(Debug, Default)]
struct Feeds {
    /// Arrival cycle of each input from absolute position `arrivals_base`
    /// up to the FIFO's push count.
    arrivals: VecDeque<u64>,
    arrivals_base: u64,
    /// Cycle of each committed `deq.d` from absolute index `pops_base` on.
    pops: VecDeque<u64>,
    pops_base: u64,
}

impl Feeds {
    fn arrival(&self, position: u64) -> Option<u64> {
        let i = position.checked_sub(self.arrivals_base)?;
        self.arrivals.get(i as usize).copied()
    }

    /// Committed `deq.d`s so far: the output FIFO's absolute head.
    fn popped(&self) -> u64 {
        self.pops_base + self.pops.len() as u64
    }
}

/// The event cycles of one invocation, computed in bus order.
#[derive(Debug, Clone, Default)]
struct Pass {
    /// Bus entries fired, and the cycle of the last one (`S - 1` before
    /// the first).
    fired: usize,
    last_bus: u64,
    /// Inputs read (latched) so far, and the cycle of each output push.
    reads: usize,
    pushes: Vec<u64>,
    /// Per PE, the slot of its next MAC in `macs`.
    next: Vec<usize>,
    /// MAC cycles in [`Configured::block`]s, one per PE: `pe_input_fifo`
    /// zeros, then the PE's MACs in order. The zeros stand for the MAC
    /// `pe_input_fifo` back and the previous MAC before there are any.
    macs: Vec<u64>,
}

impl Pass {
    fn reset(&mut self, start: u64, state: &Configured) {
        self.fired = 0;
        self.last_bus = start - 1;
        self.reads = 0;
        self.pushes.clear();
        let (block, fifo) = (state.block, state.params.pe_input_fifo);
        self.next.clear();
        self.next
            .extend((0..state.schedule.n_pes).map(|pe| pe * block + fifo));
        self.macs.resize(state.schedule.n_pes * block, 0);
    }

    /// Fires bus entries until one fires after `until` or waits on an
    /// input not yet enqueued or an output slot not yet freed. Returns the
    /// completion cycle once every entry has fired.
    fn run(&mut self, state: &Configured, feeds: &Feeds, span: &Span, until: u64) -> Option<u64> {
        let (next, macs) = (&mut self.next[..], &mut self.macs[..]);
        while let Some(entry) = state.schedule.entries.get(self.fired) {
            let mut at = self.last_bus + 1;
            let first_read =
                matches!(entry.src, BusSource::InputFifo { index } if index == self.reads);
            if first_read {
                let position = span.input_start + self.reads as u64;
                at = at.max(feeds.arrival(position)?);
            } else if let BusSource::Neuron { layer, index } = entry.src {
                at = at.max(macs[state.last_mac[layer][index]] + 1);
            }
            let mask = match entry.dest {
                BusDest::Pes(mask) => mask,
                BusDest::OutputFifo => {
                    let output = span.out_start + self.pushes.len() as u64;
                    if let Some(slot) = output.checked_sub(state.params.output_fifo as u64) {
                        let pop = feeds.pops.get((slot - feeds.pops_base) as usize);
                        at = at.max(pop? + 1);
                    }
                    0
                }
            };
            for pe in pes(mask) {
                at = at.max(macs[next[pe] - state.params.pe_input_fifo]);
            }
            if at > until {
                return None;
            }
            self.fired += 1;
            self.last_bus = at;
            self.reads += usize::from(first_read);
            if entry.dest == BusDest::OutputFifo {
                self.pushes.push(at);
            }
            for pe in pes(mask) {
                macs[next[pe]] = macs[next[pe] - 1].max(at) + 1;
                next[pe] += 1;
            }
        }
        Some(
            next.iter()
                .fold(self.last_bus, |d, &i| d.max(macs[i - 1] + 1)),
        )
    }
}

/// The PEs set in a bus destination mask.
fn pes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let pe = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(pe)
    })
}

/// A loaded configuration and the invocations timed under it.
#[derive(Debug)]
struct Configured {
    schedule: NpuSchedule,
    /// Slots in [`Pass::macs`]: one PE's, and each neuron's last MAC.
    block: usize,
    last_mac: Vec<Vec<usize>>,
    per_invocation: NpuStats,
    params: NpuParams,
    /// Timed invocations not complete at the current cycle, oldest first.
    /// The pass is timing the last one while its end is open.
    spans: VecDeque<Span>,
    /// Input-FIFO end positions of completed invocations whose inputs may
    /// still be speculative; kept so a later squash can invalidate their
    /// outputs.
    history: VecDeque<u64>,
}

/// The cycle-accurate NPU: eight (configurable) PEs, a statically
/// scheduled bus, a scaling unit, and the three CPU-facing FIFOs.
///
/// Feed it through the FIFO methods, move its clock with
/// [`advance_to`](Self::advance_to), and roll back misspeculation with
/// [`squash`](Self::squash). Each FIFO operation extends the timeline of
/// the pending invocations as far as it can; the clock only decides which
/// of those events have happened. It models timing and event counts only;
/// [`NpuConfig::evaluate`] gives the values an invocation produces.
#[derive(Debug)]
pub struct NpuSim {
    params: NpuParams,
    state: Option<Configured>,
    /// Its read cursor is the pass's: inputs it has timed, read or not.
    input_fifo: InputFifo,
    output_fifo: OutputFifo,
    feeds: Feeds,
    /// Timing state of the last pending invocation.
    pass: Pass,
    /// Timed push cycle of each output from the committed head on.
    out_at: VecDeque<u64>,
    cycle: u64,
    /// Event counts up to `cycle`, except the invocation in flight.
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
            feeds: Feeds::default(),
            pass: Pass::default(),
            out_at: VecDeque::new(),
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

    /// Event statistics up to the current cycle.
    pub fn stats(&self) -> NpuStats {
        let mut stats = self.stats;
        if let Some((_, events)) = self.in_flight() {
            stats.merge(&events);
        }
        stats
    }

    /// The invocation in flight at the current cycle, with its events so
    /// far (timed again from its start).
    fn in_flight(&self) -> Option<(Span, NpuStats)> {
        let (state, cycle) = (self.state.as_ref()?, self.cycle);
        let span = *state.spans.front().filter(|s| s.start <= cycle)?;
        let mut pass = Pass::default();
        pass.reset(span.start, state);
        pass.run(state, &self.feeds, &span, cycle);
        let first = |pe: usize| pe * state.block + state.params.pe_input_fifo;
        let pes = pass.next.iter().enumerate();
        let macs = pes.flat_map(|(pe, &next)| &pass.macs[first(pe)..next]);
        let macs = macs.filter(|&&m| m <= cycle).count() as u64;
        let timed = |slot: usize| slot < pass.next[slot / state.block] && pass.macs[slot] < cycle;
        let sigmoids = state.last_mac.iter().flatten().filter(|&&slot| timed(slot));
        let events = NpuStats {
            macs,
            weight_reads: macs,
            sigmoids: sigmoids.count() as u64,
            bus_transfers: pass.fired as u64,
            input_reads: pass.reads as u64,
            outputs_produced: pass.pushes.len() as u64,
            active_cycles: cycle - span.start + 1,
            ..NpuStats::default()
        };
        Some((span, events))
    }

    /// Per-invocation latency distribution in simulated cycles.
    pub fn invocation_cycles(&self) -> &telemetry::Histogram {
        &self.invocation_hist
    }

    /// Whether a configuration is loaded.
    pub fn configured(&self) -> bool {
        self.state.is_some()
    }

    /// Whether an invocation is in flight or waiting to start.
    pub fn busy(&self) -> bool {
        self.state.as_ref().is_some_and(|s| !s.spans.is_empty()) || self.input_fifo.readable()
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
        let (fifo, block) = (self.params.pe_input_fifo, schedule.max_pe_macs());
        let block = block + fifo;
        self.pass = Pass::default();
        self.state = Some(Configured {
            block,
            last_mac: schedule.last_mac_slots(block, fifo),
            per_invocation: schedule.stats_per_invocation(),
            schedule,
            params: self.params.clone(),
            spans: VecDeque::new(),
            history: VecDeque::new(),
        });
        self.retime();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data path (CPU side)
    // ------------------------------------------------------------------

    /// Whether an `enq.d` can execute (input FIFO not full).
    pub fn input_has_space(&self) -> bool {
        self.input_fifo.has_space()
    }

    /// Current input FIFO occupancy (entries whose invocation has not
    /// completed or whose `enq.d` has not committed).
    pub fn input_fifo_len(&self) -> usize {
        self.input_fifo.len()
    }

    /// Speculatively enqueues an input (at `enq.d` execute); the NPU can
    /// read it from the next cycle on.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — the issue logic must check
    /// [`input_has_space`](Self::input_has_space) first.
    pub fn enqueue_input(&mut self) {
        self.enqueue_input_at(self.cycle + 1);
    }

    /// Like [`enqueue_input`](Self::enqueue_input) for a value that lands
    /// in the FIFO at cycle `arrival` (after the current one), e.g. at the
    /// end of the CPU→NPU link. Arrivals must not decrease.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full.
    pub fn enqueue_input_at(&mut self, arrival: u64) {
        debug_assert!(arrival > self.cycle, "an input lands after it is sent");
        self.input_fifo
            .push_spec()
            .expect("enq.d issued with full input fifo");
        self.feeds.arrivals.push_back(arrival);
        self.run();
    }

    /// Notifies the NPU that `n` `enq.d` instructions committed.
    pub fn commit_inputs(&mut self, n: usize) {
        for _ in 0..n {
            self.input_fifo.commit_push();
        }
        let committed = self.input_fifo.committed();
        if let Some(state) = &mut self.state {
            state.history.retain(|&end| end > committed);
        }
    }

    /// Whether a `deq.d` can execute (an unread output exists).
    pub fn output_available(&self) -> bool {
        self.output_fifo.available()
    }

    /// The cycle the next unread output is (or will be) pushed, once the
    /// timeline has reached it; it may lie after the current cycle.
    pub fn next_output_cycle(&self) -> Option<u64> {
        let unread = self.output_fifo.uncommitted_reads();
        self.out_at.get(unread).copied()
    }

    /// While the input FIFO is full, the cycle the oldest pending
    /// invocation completes and frees entries, once the timeline has
    /// reached it.
    pub fn next_room(&self) -> Option<u64> {
        let span = self.state.as_ref()?.spans.front()?;
        (!self.input_has_space() && span.end != OPEN).then_some(span.end)
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

    /// Notifies the NPU that `n` `deq.d` instructions committed, freeing
    /// their output slots from the next cycle on.
    pub fn commit_outputs(&mut self, n: usize) {
        let feeds = &mut self.feeds;
        for _ in 0..n {
            self.output_fifo.commit_pop();
            self.out_at.pop_front();
            feeds.pops.push_back(self.cycle);
        }
        // Keep the pops that timing the pending invocations again needs.
        let oldest = self.state.as_ref().and_then(|s| s.spans.front());
        let keep = oldest.map_or(u64::MAX, |s| s.out_start).min(feeds.popped());
        while feeds.pops_base + (self.params.output_fifo as u64) < keep {
            feeds.pops.pop_front();
            feeds.pops_base += 1;
        }
        self.run();
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
        let in_flight = self.in_flight();
        self.input_fifo.squash_pushes(n_enq);
        let pushed = self.input_fifo.pushed();
        let feeds = &mut self.feeds;
        let kept = pushed.saturating_sub(feeds.arrivals_base);
        feeds.arrivals.truncate(kept as usize);
        feeds.arrivals_base = feeds.arrivals_base.min(pushed);
        let Some(state) = &mut self.state else {
            return;
        };
        // Invalidate completed speculative invocations that lost inputs,
        // youngest first.
        while state.history.back().is_some_and(|&end| end > pushed) {
            state.history.pop_back();
            let outputs = state.per_invocation.outputs_produced;
            self.output_fifo.invalidate_tail(outputs as usize);
            self.stats.squashed_invocations += 1;
        }
        state.spans.clear();
        if let Some((span, done)) = in_flight {
            if span.input_start + done.input_reads > pushed {
                // It read invalidated inputs: reset it.
                self.output_fifo
                    .invalidate_tail(done.outputs_produced as usize);
                self.stats.merge(&done);
                self.stats.squashed_invocations += 1;
            } else {
                self.pass.reset(span.start, state);
                state.spans.push_back(Span { end: OPEN, ..span });
            }
        }
        self.retime();
    }

    // ------------------------------------------------------------------
    // Timeline
    // ------------------------------------------------------------------

    /// Drops the timeline after the current cycle, except the invocation
    /// in flight, and times it again.
    fn retime(&mut self) {
        self.input_fifo.rewind_to(self.input_fifo.processed());
        self.out_at.truncate(self.output_fifo.len());
        self.run();
    }

    /// Times the pending invocations as far as the enqueued inputs and the
    /// freed output slots allow, starting the next invocation once its
    /// first input's arrival is known.
    fn run(&mut self) {
        let Some(state) = &mut self.state else {
            return;
        };
        loop {
            let Some(span) = state.spans.back().copied().filter(|s| s.end == OPEN) else {
                let input_start = self.input_fifo.consumed();
                let Some(arrival) = self.feeds.arrival(input_start) else {
                    return;
                };
                let start = state.spans.back().map_or(self.cycle + 1, |s| s.end + 1);
                let start = start.max(arrival);
                self.pass.reset(start, state);
                state.spans.push_back(Span {
                    start,
                    end: OPEN,
                    input_start,
                    out_start: self.feeds.popped() + self.out_at.len() as u64,
                });
                continue;
            };
            let pass = &mut self.pass;
            let end = pass.run(state, &self.feeds, &span, OPEN);
            self.input_fifo
                .rewind_to(span.input_start + pass.reads as u64);
            let timed = self.feeds.popped() + self.out_at.len() as u64;
            let pushes = &pass.pushes[(timed - span.out_start) as usize..];
            self.out_at.extend(pushes);
            let Some(end) = end else {
                return;
            };
            state.spans.back_mut().expect("timed above").end = end;
        }
    }

    /// Moves the clock to `cycle`: the NPU pushes the outputs and
    /// completes the invocations the timeline puts at or before it, and
    /// counts the cycles in [`NpuStats::total_cycles`] (and
    /// [`NpuStats::active_cycles`] while an invocation is in flight).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is before the current cycle.
    pub fn advance_to(&mut self, cycle: u64) {
        assert!(cycle >= self.cycle, "the npu clock cannot go back");
        self.stats.total_cycles += cycle - self.cycle;
        self.cycle = cycle;
        while let Some(&at) = self.out_at.get(self.output_fifo.len()) {
            if at > cycle {
                break;
            }
            self.output_fifo.push().expect("timed after a pop");
        }
        let Some(state) = &mut self.state else {
            return;
        };
        while let Some(span) = state.spans.front().copied().filter(|s| s.end <= cycle) {
            state.spans.pop_front();
            let inputs = state.per_invocation.input_reads;
            self.input_fifo.mark_processed(inputs as usize);
            self.feeds.arrivals.drain(..inputs as usize);
            self.feeds.arrivals_base += inputs;
            // Kept until its inputs commit (`commit_inputs` drops it).
            state.history.push_back(span.input_start + inputs);
            // Latency in simulated cycles, inclusive of the start cycle —
            // deterministic, so it may feed per-benchmark reports.
            let latency = span.end - span.start + 1;
            self.stats.merge(&state.per_invocation);
            self.stats.active_cycles += latency;
            self.invocation_hist.observe(latency as f64);
            if telemetry::enabled(telemetry::Level::Trace) {
                telemetry::emit(telemetry::Level::Trace, "npu::sim", || {
                    telemetry::EventKind::NpuInvocation { cycles: latency }
                });
            }
        }
    }

    /// Runs until the NPU is idle (no in-flight invocation and no unread
    /// input). Useful for latency measurement.
    ///
    /// # Panics
    ///
    /// Panics if an invocation can never complete (e.g. the output FIFO is
    /// full and nobody drains it, or its inputs were never enqueued).
    pub fn run_until_idle(&mut self) {
        let last = self.state.as_ref().and_then(|s| s.spans.back());
        match last.map(|s| s.end) {
            Some(OPEN) => panic!("npu deadlock: no progress"),
            Some(end) => self.advance_to(end),
            None => assert!(!self.input_fifo.readable(), "npu deadlock: no progress"),
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

    /// Advances one cycle; returns whether anything besides the cycle
    /// counters (`cycle`, `total_cycles`, `active_cycles`) changed. Reads
    /// and output pushes are bus transfers, weight reads MACs.
    fn tick(sim: &mut NpuSim) -> bool {
        let events = |s: NpuStats| [s.macs, s.sigmoids, s.bus_transfers, s.invocations];
        let before = events(sim.stats());
        sim.advance_to(sim.cycle() + 1);
        events(sim.stats()) != before
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
        sim.advance_to(sim.cycle() + 4);
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
        sim.advance_to(sim.cycle() + 1000);
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
        while tick(&mut sim) {
            ticks += 1;
            assert!(ticks < 1000, "the drain never blocked");
        }
        assert_eq!(sim.stats().outputs_produced, 1);
        assert!(sim.busy());
        // No progress until the output is dequeued, whatever the wait.
        let stalled = sim.stats();
        for _ in 0..5 {
            assert!(!tick(&mut sim));
        }
        // A stalled span counts as cycles, active while in flight.
        sim.advance_to(sim.cycle() + 10);
        let after = sim.stats();
        assert_eq!(after.total_cycles, stalled.total_cycles + 15);
        assert_eq!(after.active_cycles, stalled.active_cycles + 15);
        assert_eq!(sim.cycle(), stalled.total_cycles + 15);
        assert_eq!(
            NpuStats {
                total_cycles: stalled.total_cycles,
                active_cycles: stalled.active_cycles,
                ..after
            },
            stalled
        );
        sim.dequeue_output();
        sim.commit_outputs(1);
        assert!(tick(&mut sim));
        sim.run_until_idle();
        assert_eq!(sim.stats().invocations, 2);
        // With no invocation in flight only the total advances.
        let idle = sim.stats();
        sim.advance_to(sim.cycle() + 7);
        assert_eq!(sim.stats().total_cycles, idle.total_cycles + 7);
        assert_eq!(sim.stats().active_cycles, idle.active_cycles);
        assert!(!tick(&mut sim));
    }

    #[test]
    fn unconfigured_npu_only_counts_cycles() {
        let mut sim = NpuSim::new(NpuParams::default());
        sim.advance_to(10);
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
