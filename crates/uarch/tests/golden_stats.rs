//! Exact-timing pin for the core model. The golden trace (see
//! `support/golden_trace.rs`) runs on a CPU-only core, a core with an
//! ideal NPU and a core with a cycle-accurate 9→8→1 NPU (at link latency
//! 1 and 16); every `SimStats` field, and every `NpuStats` field of the
//! NPU runs, must equal the literals below. A scheduler change that moves any cycle fails here.

#[path = "support/golden_trace.rs"]
mod golden_trace;

use ann::{Mlp, Normalizer, Topology};
use golden_trace::{golden_trace, NPU_INPUTS, NPU_OUTPUTS};
use npu::{NpuConfig, NpuParams, NpuSim, NpuStats};
use uarch::{Core, CoreConfig, SimStats};

fn replay(mut core: Core) -> (SimStats, Option<NpuStats>) {
    for ev in golden_trace() {
        core.feed(ev);
    }
    let stats = core.finish();
    (stats, core.npu_stats())
}

#[test]
fn golden_trace_covers_every_op_class() {
    let trace = golden_trace();
    assert!(trace.len() >= 20_000);
    let (stats, _) = replay(Core::new(CoreConfig::penryn_like()));
    assert_eq!(stats.committed, trace.len() as u64);
    for count in [
        stats.int_ops,
        stats.fp_add_ops,
        stats.fp_mul_ops,
        stats.fp_div_ops,
        stats.fp_sqrt_ops,
        stats.fp_trig_ops,
        stats.loads,
        stats.stores,
        stats.branches,
        stats.npu_queue_ops,
        stats.bp_mispredicts,
        stats.l2_hits,
        stats.l2_misses,
        stats.rob_full_stalls,
        stats.iq_full_stalls,
        stats.lsq_full_stalls,
    ] {
        assert!(count > 0, "{stats:#?}");
    }
}

#[test]
fn cpu_core_stats_are_pinned() {
    let (stats, npu) = replay(Core::new(CoreConfig::penryn_like()));
    assert_eq!(npu, None);
    assert_eq!(
        stats,
        SimStats {
            cycles: 35463,
            committed: 20003,
            int_ops: 13320,
            fp_add_ops: 367,
            fp_mul_ops: 653,
            fp_div_ops: 313,
            fp_sqrt_ops: 154,
            fp_trig_ops: 77,
            loads: 2414,
            stores: 1802,
            branches: 297,
            npu_queue_ops: 606,
            bp_lookups: 297,
            bp_mispredicts: 195,
            l1d_hits: 3177,
            l1d_misses: 979,
            l2_hits: 63,
            l2_misses: 916,
            mem_accesses: 916,
            rob_full_stalls: 9864,
            iq_full_stalls: 10293,
            lsq_full_stalls: 6704,
        }
    );
}

#[test]
fn ideal_npu_core_stats_are_pinned() {
    let core = Core::with_ideal_npu(CoreConfig::penryn_like(), NPU_INPUTS, NPU_OUTPUTS);
    let (stats, npu) = replay(core);
    assert_eq!(npu, None);
    assert_eq!(
        stats,
        SimStats {
            cycles: 35466,
            committed: 20003,
            int_ops: 13320,
            fp_add_ops: 367,
            fp_mul_ops: 653,
            fp_div_ops: 313,
            fp_sqrt_ops: 154,
            fp_trig_ops: 77,
            loads: 2414,
            stores: 1802,
            branches: 297,
            npu_queue_ops: 606,
            bp_lookups: 297,
            bp_mispredicts: 195,
            l1d_hits: 3177,
            l1d_misses: 979,
            l2_hits: 63,
            l2_misses: 916,
            mem_accesses: 916,
            rob_full_stalls: 9862,
            iq_full_stalls: 10297,
            lsq_full_stalls: 6705,
        }
    );
}

#[test]
fn cycle_npu_core_stats_are_pinned() {
    let t = Topology::new(vec![NPU_INPUTS, 8, NPU_OUTPUTS]).unwrap();
    let config = NpuConfig::new(
        Mlp::seeded(t, 3),
        Normalizer::identity(NPU_INPUTS),
        Normalizer::identity(NPU_OUTPUTS),
    );
    let mut sim = NpuSim::new(NpuParams::default());
    sim.configure(&config).unwrap();
    let (stats, npu) = replay(Core::with_npu(CoreConfig::penryn_like(), sim));
    assert_eq!(
        stats,
        SimStats {
            cycles: 35493,
            committed: 20003,
            int_ops: 13320,
            fp_add_ops: 367,
            fp_mul_ops: 653,
            fp_div_ops: 313,
            fp_sqrt_ops: 154,
            fp_trig_ops: 77,
            loads: 2414,
            stores: 1802,
            branches: 297,
            npu_queue_ops: 606,
            bp_lookups: 297,
            bp_mispredicts: 195,
            l1d_hits: 3177,
            l1d_misses: 979,
            l2_hits: 63,
            l2_misses: 916,
            mem_accesses: 916,
            rob_full_stalls: 9853,
            iq_full_stalls: 10350,
            lsq_full_stalls: 6701,
        }
    );
    assert_eq!(
        npu,
        Some(NpuStats {
            macs: 4560,
            sigmoids: 513,
            weight_reads: 4560,
            bus_transfers: 1026,
            input_reads: 513,
            outputs_produced: 57,
            config_words: 114,
            invocations: 57,
            squashed_invocations: 0,
            faults_injected: 0,
            active_cycles: 2194,
            total_cycles: 35493,
        })
    );
}

/// The cycle-NPU replay with a 16-cycle link each way (Figure 10's
/// longest): enqueues land many cycles after they issue, so the core
/// waits on the link as well as on the NPU.
#[test]
fn cycle_npu_core_stats_at_link_latency_16_are_pinned() {
    let t = Topology::new(vec![NPU_INPUTS, 8, NPU_OUTPUTS]).unwrap();
    let config = NpuConfig::new(
        Mlp::seeded(t, 3),
        Normalizer::identity(NPU_INPUTS),
        Normalizer::identity(NPU_OUTPUTS),
    );
    let mut sim = NpuSim::new(NpuParams::default());
    sim.configure(&config).unwrap();
    let (stats, npu) = replay(Core::with_npu(CoreConfig::with_npu_link_latency(16), sim));
    assert_eq!(
        stats,
        SimStats {
            cycles: 35624,
            committed: 20003,
            int_ops: 13320,
            fp_add_ops: 367,
            fp_mul_ops: 653,
            fp_div_ops: 313,
            fp_sqrt_ops: 154,
            fp_trig_ops: 77,
            loads: 2414,
            stores: 1802,
            branches: 297,
            npu_queue_ops: 606,
            bp_lookups: 297,
            bp_mispredicts: 195,
            l1d_hits: 3177,
            l1d_misses: 979,
            l2_hits: 63,
            l2_misses: 916,
            mem_accesses: 916,
            rob_full_stalls: 9911,
            iq_full_stalls: 10394,
            lsq_full_stalls: 6750,
        }
    );
    assert_eq!(
        npu,
        Some(NpuStats {
            macs: 4560,
            sigmoids: 513,
            weight_reads: 4560,
            bus_transfers: 1026,
            input_reads: 513,
            outputs_produced: 57,
            config_words: 114,
            invocations: 57,
            squashed_invocations: 0,
            faults_injected: 0,
            active_cycles: 2105,
            total_cycles: 35624,
        })
    );
}

/// A 9→8→4→1 NPU on two PEs with 1-entry PE input FIFOs and a 1-entry
/// output FIFO: bus transfers wait on full PE FIFOs and the output drain
/// on a free output slot, which the default-sized NPU above never does.
fn fifo_pressure_npu() -> NpuSim {
    let t = Topology::new(vec![NPU_INPUTS, 8, 4, NPU_OUTPUTS]).unwrap();
    let config = NpuConfig::new(
        Mlp::seeded(t, 3),
        Normalizer::identity(NPU_INPUTS),
        Normalizer::identity(NPU_OUTPUTS),
    );
    let mut sim = NpuSim::new(NpuParams {
        n_pes: 2,
        pe_input_fifo: 1,
        output_fifo: 1,
        ..NpuParams::default()
    });
    sim.configure(&config).unwrap();
    sim
}

#[test]
fn fifo_pressure_npu_core_stats_are_pinned() {
    let (stats, npu) = replay(Core::with_npu(
        CoreConfig::penryn_like(),
        fifo_pressure_npu(),
    ));
    assert_eq!(
        stats,
        SimStats {
            cycles: 35707,
            committed: 20003,
            int_ops: 13320,
            fp_add_ops: 367,
            fp_mul_ops: 653,
            fp_div_ops: 313,
            fp_sqrt_ops: 154,
            fp_trig_ops: 77,
            loads: 2414,
            stores: 1802,
            branches: 297,
            npu_queue_ops: 606,
            bp_lookups: 297,
            bp_mispredicts: 195,
            l1d_hits: 3177,
            l1d_misses: 979,
            l2_hits: 63,
            l2_misses: 916,
            mem_accesses: 916,
            rob_full_stalls: 9943,
            iq_full_stalls: 10406,
            lsq_full_stalls: 6796,
        }
    );
    assert_eq!(
        npu,
        Some(NpuStats {
            macs: 6156,
            sigmoids: 741,
            weight_reads: 6156,
            bus_transfers: 3249,
            input_reads: 513,
            outputs_produced: 57,
            config_words: 147,
            invocations: 57,
            squashed_invocations: 0,
            faults_injected: 0,
            active_cycles: 4255,
            total_cycles: 35707,
        })
    );
}

#[test]
fn fifo_pressure_npu_core_stats_at_link_latency_16_are_pinned() {
    let core = Core::with_npu(CoreConfig::with_npu_link_latency(16), fifo_pressure_npu());
    let (stats, npu) = replay(core);
    assert_eq!(
        stats,
        SimStats {
            cycles: 36169,
            committed: 20003,
            int_ops: 13320,
            fp_add_ops: 367,
            fp_mul_ops: 653,
            fp_div_ops: 313,
            fp_sqrt_ops: 154,
            fp_trig_ops: 77,
            loads: 2414,
            stores: 1802,
            branches: 297,
            npu_queue_ops: 606,
            bp_lookups: 297,
            bp_mispredicts: 195,
            l1d_hits: 3177,
            l1d_misses: 979,
            l2_hits: 63,
            l2_misses: 916,
            mem_accesses: 916,
            rob_full_stalls: 10168,
            iq_full_stalls: 10367,
            lsq_full_stalls: 7006,
        }
    );
    assert_eq!(
        npu,
        Some(NpuStats {
            macs: 6156,
            sigmoids: 741,
            weight_reads: 6156,
            bus_transfers: 3249,
            input_reads: 513,
            outputs_produced: 57,
            config_words: 147,
            invocations: 57,
            squashed_invocations: 0,
            faults_injected: 0,
            active_cycles: 4176,
            total_cycles: 36169,
        })
    );
}
