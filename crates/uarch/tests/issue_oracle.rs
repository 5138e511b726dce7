//! Equivalence oracle for the core's issue stage. [`Core`] files each
//! waiting instruction on its producer's waiter list, in a ready-cycle
//! heap or in an age-ordered ready mask, and issue walks only the mask;
//! [`ScanCore`] (see `support/scan_core.rs`) is the same pipeline with the
//! scan of the whole issue queue it replaced, kept as the reference. Both
//! replay the same random traces under random core configurations, with no
//! NPU, with an ideal NPU and with a cycle-level NPU; every `SimStats`
//! field and the `NpuStats` must match.

#[path = "support/scan_core.rs"]
mod scan_core;

use ann::{Mlp, Normalizer, Topology};
use approx_ir::{BranchInfo, MemAccess, OpClass, TraceEvent};
use npu::{NpuConfig, NpuParams, NpuSim};
use proptest::prelude::*;
use scan_core::ScanCore;
use uarch::{CacheConfig, Core, CoreConfig, NpuAttachment, OpLatencies};

/// Relative weights of the trace generator's block kinds: arithmetic,
/// unpipelined FP, loads, stores, control flow, NPU invocations.
type Mix = [u64; 6];

/// What a random trace is made of.
#[derive(Debug, Clone)]
struct TraceSpec {
    seed: u64,
    blocks: usize,
    /// Architectural registers sources and destinations draw from.
    regs: u64,
    /// Distinct words loads and stores alias on.
    words: u64,
    mix: Mix,
    /// Inputs and outputs per NPU invocation.
    n_in: usize,
    n_out: usize,
}

struct Gen {
    state: u64,
    pc: u64,
    cold_line: u64,
    events: Vec<TraceEvent>,
}

impl Gen {
    fn rand(&mut self, n: u64) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) % n
    }

    fn push(&mut self, class: OpClass, srcs: [Option<u16>; 3], dst: Option<u16>) {
        self.events
            .push(TraceEvent::simple(self.pc, class, srcs, dst));
        self.pc = (self.pc + 1) % 1024;
    }

    fn mem(&mut self, class: OpClass, addr: u64, srcs: [Option<u16>; 3], dst: Option<u16>) {
        self.events.push(TraceEvent {
            pc: self.pc,
            class,
            srcs,
            dst,
            mem: Some(MemAccess {
                addr,
                is_store: class == OpClass::Store,
            }),
            branch: None,
        });
        self.pc = (self.pc + 1) % 1024;
    }

    /// A word from the aliasing pool, or now and then a never-touched line.
    fn addr(&mut self, spec: &TraceSpec) -> u64 {
        if self.rand(8) == 0 {
            self.cold_line += 1;
            0x4000_0000 + self.cold_line * 64
        } else {
            0x1000 + self.rand(spec.words) * 4
        }
    }

    fn block(&mut self, spec: &TraceSpec) {
        let reg = |g: &mut Gen| g.rand(spec.regs) as u16;
        let maybe = |g: &mut Gen| (g.rand(3) != 0).then(|| g.rand(spec.regs) as u16);
        let total: u64 = spec.mix.iter().sum();
        let mut pick = self.rand(total);
        let kind = spec
            .mix
            .iter()
            .position(|&w| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .unwrap();
        match kind {
            0 => {
                let class =
                    [OpClass::IntAlu, OpClass::FpAdd, OpClass::FpMul][self.rand(3) as usize];
                let srcs = [maybe(self), maybe(self), maybe(self)];
                let dst = Some(reg(self));
                self.push(class, srcs, dst);
            }
            1 => {
                let class =
                    [OpClass::FpDiv, OpClass::FpSqrt, OpClass::FpTrig][self.rand(3) as usize];
                let srcs = [maybe(self), None, None];
                let dst = Some(reg(self));
                self.push(class, srcs, dst);
            }
            2 => {
                let addr = self.addr(spec);
                let srcs = [maybe(self), None, None];
                let dst = Some(reg(self));
                self.mem(OpClass::Load, addr, srcs, dst);
            }
            3 => {
                let addr = self.addr(spec);
                let srcs = [maybe(self), maybe(self), None];
                self.mem(OpClass::Store, addr, srcs, None);
            }
            4 => {
                let class = [OpClass::Branch, OpClass::Jump, OpClass::Call, OpClass::Ret]
                    [self.rand(4) as usize];
                let taken = class != OpClass::Branch || self.rand(2) == 0;
                let target = self.rand(1024);
                let src = reg(self);
                self.events.push(TraceEvent {
                    pc: self.pc,
                    class,
                    srcs: [Some(src), None, None],
                    dst: None,
                    mem: None,
                    branch: Some(BranchInfo {
                        taken,
                        conditional: class == OpClass::Branch,
                        target,
                    }),
                });
                self.pc = if taken { target } else { (self.pc + 1) % 1024 };
            }
            _ => {
                if self.rand(4) == 0 {
                    let src = reg(self);
                    self.push(OpClass::NpuEnqC, [Some(src), None, None], None);
                    let dst = reg(self);
                    self.push(OpClass::NpuDeqC, [None; 3], Some(dst));
                }
                for _ in 0..spec.n_in {
                    let src = reg(self);
                    self.push(OpClass::NpuEnqD, [Some(src), None, None], None);
                    if self.rand(3) == 0 {
                        let dst = reg(self);
                        self.push(OpClass::IntAlu, [Some(src), None, None], Some(dst));
                    }
                }
                for _ in 0..spec.n_out {
                    let dst = reg(self);
                    self.push(OpClass::NpuDeqD, [None; 3], Some(dst));
                    if self.rand(2) == 0 {
                        self.push(OpClass::FpMul, [Some(dst), None, None], Some(dst));
                    }
                }
            }
        }
    }
}

fn trace(spec: &TraceSpec) -> Vec<TraceEvent> {
    let mut g = Gen {
        state: spec.seed,
        pc: 0,
        cold_line: 0,
        events: Vec::new(),
    };
    for _ in 0..spec.blocks {
        g.block(spec);
    }
    g.events
}

fn trace_spec() -> impl Strategy<Value = TraceSpec> {
    (
        (any::<u64>(), 1usize..3000),
        2u64..32,
        1u64..64,
        proptest::array::uniform6(0u64..8),
        (1usize..=9, 1usize..=3),
    )
        .prop_map(|((seed, blocks), regs, words, mut mix, (n_in, n_out))| {
            mix[0] += 1;
            TraceSpec {
                seed,
                blocks,
                regs,
                words,
                mix,
                n_in,
                n_out,
            }
        })
}

fn cache(size_kb: usize, ways: usize, hit_latency: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: size_kb * 1024,
        line_bytes: 64,
        ways,
        hit_latency,
    }
}

/// A random core whose ROB ring has 8, 128 or 256 slots.
fn core_config() -> impl Strategy<Value = CoreConfig> {
    // Entries from just above half the ring up to all of it.
    let ring = (0usize..3, any::<usize>()).prop_map(|(i, k)| {
        let ring = [8, 128, 256][i];
        ring - k % (ring / 2)
    });
    let widths = (1usize..=6, 1usize..=6, 1usize..=8, 1usize..=6);
    let queues = (ring, 1usize..=64, 1usize..=48, 1usize..=48);
    let units = (1usize..=4, 1usize..=3, 1usize..=3, 1usize..=3);
    let front = (0u64..=10, 0u64..=6, 1u64..=200, 0u64..=16, 2u32..=14);
    let latencies = (
        (0u64..=3, 0u64..=6, 0u64..=8),
        (1u64..=30, 1u64..=40, 1u64..=70),
        (0u64..=3, 0u64..=3),
        (0usize..3, 1u64..=4, 2u64..=14),
    );
    (widths, queues, units, front, latencies).prop_map(
        |(
            (fetch_width, dispatch_width, issue_width, commit_width),
            (rob_entries, iq_entries, lq_entries, sq_entries),
            (int_alus, fp_units, load_units, store_units),
            (mispredict_refill, frontend_depth, mem_latency, npu_link_latency, gshare_bits),
            ((int_alu, fp_add, fp_mul), (fp_div, fp_sqrt, fp_trig), (branch, npu_queue), caches),
        )| {
            let (l1_kb, l1_hit, l2_hit) = caches;
            CoreConfig {
                fetch_width,
                dispatch_width,
                issue_width,
                commit_width,
                rob_entries,
                iq_entries,
                lq_entries,
                sq_entries,
                int_alus,
                fp_units,
                load_units,
                store_units,
                mispredict_refill,
                frontend_depth,
                gshare_bits,
                btb_entries: 256,
                ras_entries: 8,
                l1d: cache([1, 4, 32][l1_kb], 2, l1_hit),
                l2: cache(256, 8, l2_hit),
                mem_latency,
                npu_link_latency,
                latencies: OpLatencies {
                    int_alu,
                    fp_add,
                    fp_mul,
                    fp_div,
                    fp_sqrt,
                    fp_trig,
                    branch,
                    npu_queue,
                },
                ..CoreConfig::penryn_like()
            }
        },
    )
}

/// The cycle-level NPU's buffer sizes.
#[derive(Debug, Clone)]
struct NpuShape {
    n_pes: usize,
    pe_input_fifo: usize,
    output_fifo: usize,
    hidden: usize,
}

fn npu_shape() -> impl Strategy<Value = NpuShape> {
    (
        1usize..=8,
        (0usize..3).prop_map(|i| [1, 2, 8][i]),
        (0usize..3).prop_map(|i| [1, 2, 128][i]),
        1usize..=8,
    )
        .prop_map(|(n_pes, pe_input_fifo, output_fifo, hidden)| NpuShape {
            n_pes,
            pe_input_fifo,
            output_fifo,
            hidden,
        })
}

fn npu(spec: &TraceSpec, shape: &NpuShape) -> NpuSim {
    let t = Topology::new(vec![spec.n_in, shape.hidden, spec.n_out]).unwrap();
    let config = NpuConfig::new(
        Mlp::seeded(t, 5),
        Normalizer::identity(spec.n_in),
        Normalizer::identity(spec.n_out),
    );
    let mut sim = NpuSim::new(
        NpuParams {
            n_pes: shape.n_pes,
            pe_input_fifo: shape.pe_input_fifo,
            output_fifo: shape.output_fifo,
            input_fifo: 2 * spec.n_in,
            ..NpuParams::default()
        }
        .unbounded(),
    );
    sim.configure(&config).unwrap();
    sim
}

/// Replays `events` on both cores and compares what they report.
fn compare(
    events: &[TraceEvent],
    mut core: Core,
    mut scan: ScanCore,
    attachment: &str,
) -> Result<(), TestCaseError> {
    for &ev in events {
        core.feed(ev);
        scan.feed(ev);
    }
    let (stats, reference) = (core.finish(), scan.finish());
    prop_assert_eq!(stats.committed, events.len() as u64);
    prop_assert_eq!(stats, reference, "SimStats with {}", attachment);
    prop_assert_eq!(
        core.npu_stats(),
        scan.npu_stats(),
        "NpuStats with {}",
        attachment
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ready_mask_issue_matches_queue_scan(
        spec in trace_spec(),
        cfg in core_config(),
        shape in npu_shape(),
    ) {
        let events = trace(&spec);
        compare(
            &events,
            Core::new(cfg.clone()),
            ScanCore::new(cfg.clone()),
            "no NPU",
        )?;
        compare(
            &events,
            Core::with_attachment(cfg.clone(), NpuAttachment::ideal(spec.n_in, spec.n_out)),
            ScanCore::with_attachment(cfg.clone(), NpuAttachment::ideal(spec.n_in, spec.n_out)),
            "an ideal NPU",
        )?;
        compare(
            &events,
            Core::with_npu(cfg.clone(), npu(&spec, &shape)),
            ScanCore::with_npu(cfg, npu(&spec, &shape)),
            "a cycle NPU",
        )?;
    }
}
