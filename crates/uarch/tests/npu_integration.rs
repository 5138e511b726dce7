//! Core↔NPU integration at the unit level: queue instructions through the
//! pipeline against cycle-accurate and ideal NPU attachments.

use ann::{Mlp, Normalizer, Topology};
use approx_ir::{OpClass, TraceEvent};
use npu::{NpuConfig, NpuParams, NpuSim};
use uarch::{Core, CoreConfig, NpuAttachment};

fn npu_config(layers: Vec<usize>) -> NpuConfig {
    let t = Topology::new(layers).unwrap();
    let (i, o) = (t.inputs(), t.outputs());
    NpuConfig::new(
        Mlp::seeded(t, 3),
        Normalizer::identity(i),
        Normalizer::identity(o),
    )
}

fn enq(pc: u64) -> TraceEvent {
    TraceEvent::simple(pc, OpClass::NpuEnqD, [Some(1), None, None], None)
}

fn deq(pc: u64) -> TraceEvent {
    TraceEvent::simple(pc, OpClass::NpuDeqD, [None; 3], Some(2))
}

fn invocation_trace(n_in: usize, n_out: usize, rounds: usize) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for r in 0..rounds {
        for i in 0..n_in {
            events.push(enq((r * 16 + i) as u64 % 32));
        }
        for o in 0..n_out {
            events.push(deq((r * 16 + 8 + o) as u64 % 32));
        }
        // Some glue work between invocations.
        for g in 0..4 {
            events.push(TraceEvent::simple(
                40 + g,
                OpClass::IntAlu,
                [Some(2), None, None],
                Some(3),
            ));
        }
    }
    events
}

#[test]
fn cycle_npu_completes_every_invocation() {
    let config = npu_config(vec![2, 4, 1]);
    let mut sim = NpuSim::new(NpuParams::default());
    sim.configure(&config).unwrap();
    let mut core = Core::with_npu(CoreConfig::penryn_like(), sim);
    for ev in invocation_trace(2, 1, 50) {
        core.feed(ev);
    }
    let stats = core.finish();
    let npu_stats = core.npu_stats().expect("cycle NPU attached");
    assert_eq!(npu_stats.invocations, 50);
    assert_eq!(stats.npu_queue_ops, 50 * 3);
    assert_eq!(stats.committed, 50 * 7);
}

#[test]
fn npu_latency_shows_up_in_cycles() {
    // A big network per invocation must cost more cycles than a tiny one.
    let run = |layers: Vec<usize>| {
        let config = npu_config(layers);
        let t = config.topology().clone();
        let mut sim = NpuSim::new(NpuParams::default());
        sim.configure(&config).unwrap();
        let mut core = Core::with_npu(CoreConfig::penryn_like(), sim);
        for ev in invocation_trace(t.inputs(), t.outputs(), 30) {
            core.feed(ev);
        }
        core.finish().cycles
    };
    let small = run(vec![2, 2, 1]);
    let large = run(vec![2, 32, 32, 1]);
    assert!(large > 2 * small, "small={small} large={large}");
}

#[test]
fn ideal_npu_is_faster_than_cycle_npu() {
    let config = npu_config(vec![4, 8, 2]);
    let events = invocation_trace(4, 2, 40);
    let mut sim = NpuSim::new(NpuParams::default());
    sim.configure(&config).unwrap();
    let mut real = Core::with_npu(CoreConfig::penryn_like(), sim);
    let mut ideal = Core::with_attachment(CoreConfig::penryn_like(), NpuAttachment::ideal(4, 2));
    for ev in &events {
        real.feed(*ev);
        ideal.feed(*ev);
    }
    let real_cycles = real.finish().cycles;
    let ideal_cycles = ideal.finish().cycles;
    assert!(
        ideal_cycles <= real_cycles,
        "ideal {ideal_cycles} vs real {real_cycles}"
    );
}

#[test]
fn link_latency_slows_queue_round_trips() {
    let run = |latency: u64| {
        let config = npu_config(vec![2, 4, 1]);
        let mut sim = NpuSim::new(NpuParams::default());
        sim.configure(&config).unwrap();
        let mut core = Core::with_npu(CoreConfig::with_npu_link_latency(latency), sim);
        for ev in invocation_trace(2, 1, 40) {
            core.feed(ev);
        }
        core.finish().cycles
    };
    assert!(run(16) > run(1));
}

#[test]
fn queue_instructions_stay_ordered_under_pressure() {
    // Many back-to-back invocations with zero glue: the input FIFO and
    // serialization must keep everything consistent (no deadlock, exact
    // counts).
    let config = npu_config(vec![3, 4, 2]);
    let mut sim = NpuSim::new(NpuParams::default());
    sim.configure(&config).unwrap();
    let mut core = Core::with_npu(CoreConfig::penryn_like(), sim);
    for r in 0..200u64 {
        for i in 0..3 {
            core.feed(enq((r + i) % 16));
        }
        for o in 0..2 {
            core.feed(deq((r + o + 8) % 16));
        }
    }
    let stats = core.finish();
    let npu_stats = core.npu_stats().unwrap();
    assert_eq!(npu_stats.invocations, 200);
    assert_eq!(stats.npu_queue_ops, 200 * 5);
}
