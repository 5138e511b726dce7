//! Criterion microbenchmarks for the substrate components: NPU invocation
//! latency per paper topology, backpropagation throughput, core-model
//! simulation rate, and one scaled-down end-to-end figure computation.

use ann::{
    mse_with, BatchScratch, Dataset, Mlp, Normalizer, QFormat, QuantScratch, QuantizedMlp, Scratch,
    SigmoidLut, Topology, TrainParams, Trainer, LANES,
};
use approx_ir::{NpuPort, OpClass, TraceEvent, TraceSink};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use npu::{NpuConfig, NpuParams, NpuSim};
use parrot::NpuRuntime;
use uarch::{Core, CoreConfig, NpuAttachment};

#[path = "../../uarch/tests/support/golden_trace.rs"]
mod golden_trace;

fn paper_topologies() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("fft", vec![1, 4, 4, 2]),
        ("inversek2j", vec![2, 8, 2]),
        ("jmeint", vec![18, 32, 8, 2]),
        ("jpeg", vec![64, 16, 64]),
        ("kmeans", vec![6, 8, 4, 1]),
        ("sobel", vec![9, 8, 1]),
    ]
}

fn config_for(layers: Vec<usize>) -> NpuConfig {
    let t = Topology::new(layers).unwrap();
    let (i, o) = (t.inputs(), t.outputs());
    NpuConfig::new(
        Mlp::seeded(t, 1),
        Normalizer::identity(i),
        Normalizer::identity(o),
    )
}

/// One invocation through the cycle-accurate NPU's FIFO protocol: enqueue
/// and commit the inputs, run to idle, then dequeue and commit the
/// outputs so the output FIFO never fills.
fn npu_invocation(sim: &mut NpuSim, n_in: usize, n_out: usize) -> u64 {
    for _ in 0..n_in {
        sim.enqueue_input();
    }
    sim.commit_inputs(n_in);
    sim.run_until_idle();
    for _ in 0..n_out {
        sim.dequeue_output();
    }
    sim.commit_outputs(n_out);
    sim.cycle()
}

/// Cycle-accurate NPU invocation, per paper topology.
fn bench_npu_invocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("npu_invocation");
    for (name, layers) in paper_topologies() {
        let config = config_for(layers);
        let (n_in, n_out) = (config.topology().inputs(), config.topology().outputs());
        group.bench_function(name, |b| {
            let mut sim = NpuSim::new(NpuParams::default());
            sim.configure(&config).unwrap();
            b.iter(|| npu_invocation(&mut sim, n_in, n_out));
        });
    }
    group.finish();
}

/// One backpropagation epoch over 500 samples: the sobel-sized 9→8→1
/// network, which trains with the const-width one-hidden-layer step, and a
/// 9→8→2→1 network, which keeps the generic step.
fn bench_training_epoch(c: &mut Criterion) {
    let (_, data) = reference_dataset_500x89w();
    for (name, layers) in [
        ("backprop_epoch_500x89w", vec![9, 8, 1]),
        ("backprop_epoch_500x101w_2hidden", vec![9, 8, 2, 1]),
    ] {
        let t = Topology::new(layers).unwrap();
        c.bench_function(name, |b| {
            b.iter_batched(
                || Mlp::seeded(t.clone(), 5),
                |mut mlp| {
                    Trainer::new(TrainParams {
                        epochs: 1,
                        ..TrainParams::default()
                    })
                    .train(&mut mlp, &data)
                },
                BatchSize::SmallInput,
            );
        });
    }
}

/// One fused forward+backward SGD step (sobel-sized network, so the
/// const-width one-hidden-layer step), scratch reused across iterations —
/// the innermost kernel of the topology search.
fn bench_backprop_one(c: &mut Criterion) {
    let t = Topology::new(vec![9, 8, 1]).unwrap();
    let input: Vec<f32> = (0..9).map(|i| (i as f32 * 0.11) % 1.0).collect();
    let target = [0.5f32];
    let trainer = Trainer::new(TrainParams::default());
    c.bench_function("backprop_one", |b| {
        let mut mlp = Mlp::seeded(t.clone(), 5);
        let mut scratch = Scratch::for_topology(&t);
        b.iter(|| trainer.step(&mut mlp, &input, &target, &mut scratch));
    });
}

/// Full-dataset MSE evaluation (500 sobel-sized samples) with a reused
/// scratch — the per-candidate scoring cost in the topology search.
fn bench_mse_eval(c: &mut Criterion) {
    let t = Topology::new(vec![9, 8, 1]).unwrap();
    let mut data = Dataset::new(9, 1);
    for k in 0..500 {
        let input: Vec<f32> = (0..9).map(|i| ((k * 7 + i) % 97) as f32 / 97.0).collect();
        let target = input.iter().sum::<f32>() / 9.0;
        data.push(&input, &[target]).unwrap();
    }
    let mlp = Mlp::seeded(t.clone(), 5);
    c.bench_function("mse_eval_500x89w", |b| {
        let mut scratch = Scratch::<1>::for_topology(&t);
        b.iter(|| mse_with(&mlp, &data, &mut scratch));
    });
}

/// The 500-sample sobel-sized reference dataset used by the batched-vs-
/// scalar A/B groups (identical to `mse_eval_500x89w`'s workload).
fn reference_dataset_500x89w() -> (Topology, Dataset) {
    let t = Topology::new(vec![9, 8, 1]).unwrap();
    let mut data = Dataset::new(9, 1);
    for k in 0..500 {
        let input: Vec<f32> = (0..9).map(|i| ((k * 7 + i) % 97) as f32 / 97.0).collect();
        let target = input.iter().sum::<f32>() / 9.0;
        data.push(&input, &[target]).unwrap();
    }
    (t, data)
}

/// Batched vs. scalar forward/MSE on the 500x89w reference workload: the
/// one kernel at `W = LANES` against its `W = 1` instantiation. The scalar
/// rows run inside the same group so the batched-vs-scalar ratio is an
/// interleaved same-window A/B, immune to the host's non-stationary noise.
/// The `lut` pair is the NPU-datapath variant (sigmoid LUT instead of exact
/// `exp`); its scalar row is the path [`npu::BatchEvaluator`] takes below
/// its occupancy cutover.
fn bench_forward_batch(c: &mut Criterion) {
    let (t, data) = reference_dataset_500x89w();
    let mlp = Mlp::seeded(t.clone(), 5);
    let lut = SigmoidLut::default();
    let act = |x| lut.eval(x);
    let inputs: Vec<&[f32]> = (0..data.len()).map(|i| data.input(i)).collect();

    let mut group = c.benchmark_group("forward_batch");
    group.bench_function("scalar_500x89w", |b| {
        let mut scratch = Scratch::<1>::for_topology(&t);
        b.iter(|| mse_with(&mlp, &data, &mut scratch));
    });
    group.bench_function("batched_500x89w", |b| {
        let mut batch = BatchScratch::for_topology(&t);
        b.iter(|| mse_with(&mlp, &data, &mut batch));
    });
    group.bench_function("scalar_lut_500x89w", |b| {
        let mut scratch = Scratch::<1>::for_topology(&t);
        let mut out = [0.0f32; 1];
        b.iter(|| {
            let mut acc = 0.0f32;
            for input in &inputs {
                scratch.forward_block(&mlp, &[input], &mut out, act);
                acc += out[0];
            }
            acc
        });
    });
    group.bench_function("batched_lut_500x89w", |b| {
        let mut batch = BatchScratch::for_topology(&t);
        let mut out = [0.0f32; LANES];
        b.iter(|| {
            let mut acc = 0.0f32;
            for chunk in inputs.chunks(LANES) {
                batch.forward_block(&mlp, chunk, &mut out, act);
                for &y in &out[..chunk.len()] {
                    acc += y;
                }
            }
            acc
        });
    });
    group.finish();
}

/// Fixed-point inference on the 500x89w reference workload: the int8 and
/// int16 NPU datapath (Q7.23 accumulator, as the precision analysis proves
/// for sobel) next to the f32 oracle running the identical loop.
fn bench_quant_forward(c: &mut Criterion) {
    let (t, data) = reference_dataset_500x89w();
    let mlp = Mlp::seeded(t, 5);
    let acc = QFormat::new(7, 23);
    let mut group = c.benchmark_group("quant_forward");
    for (label, bits) in [("int8_500x89w", 8u8), ("int16_500x89w", 16)] {
        let q = QuantizedMlp::quantize(&mlp, bits, acc);
        group.bench_function(label, |b| {
            let mut scratch = QuantScratch::new();
            let mut out = vec![0.0f32; 1];
            b.iter(|| {
                let mut acc_sum = 0.0f32;
                for i in 0..data.len() {
                    q.forward_with(data.input(i), &mut scratch, &mut out);
                    acc_sum += out[0];
                }
                acc_sum
            });
        });
    }
    group.bench_function("f32_oracle_500x89w", |b| {
        b.iter(|| {
            let mut acc_sum = 0.0f32;
            for i in 0..data.len() {
                acc_sum += mlp.feed_forward(data.input(i))[0];
            }
            acc_sum
        });
    });
    group.finish();
}

/// The interpreter-facing functional NPU port (batched replay kernel,
/// no cycle machinery), per paper topology — the counterpart of
/// `npu_invocation`, which drives the cycle-accurate simulator.
fn bench_npu_functional(c: &mut Criterion) {
    let mut group = c.benchmark_group("npu_functional");
    for (name, layers) in paper_topologies() {
        let config = config_for(layers);
        let n_out = config.topology().outputs();
        let inputs: Vec<f32> = (0..config.topology().inputs())
            .map(|i| 0.1 + 0.8 * (i as f32 / 64.0))
            .collect();
        group.bench_function(name, |b| {
            let mut rt = NpuRuntime::configured(NpuParams::default(), &config).unwrap();
            b.iter(|| {
                for &v in &inputs {
                    rt.enq_data(v);
                }
                let mut acc = 0.0f32;
                for _ in 0..n_out {
                    acc += rt.deq_data();
                }
                acc
            });
        });
    }
    group.finish();
}

/// Streaming trace replay throughput: push a fixed event stream through
/// the core model's `TraceSink` exactly the way the sweep's cycle-level
/// jobs do.
fn bench_trace_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_replay");

    // 10k mixed ALU/FP events through the out-of-order core.
    let core_events: Vec<TraceEvent> = (0..10_000)
        .map(|i| {
            let class = if i % 4 == 0 {
                OpClass::FpAdd
            } else {
                OpClass::IntAlu
            };
            TraceEvent::simple(i % 64, class, [None; 3], Some((i % 50 + 8) as u16))
        })
        .collect();
    group.bench_function("core_10k_events", |b| {
        b.iter(|| {
            let mut core = Core::new(CoreConfig::penryn_like());
            for ev in &core_events {
                core.event(ev);
            }
            core.finish().cycles
        });
    });

    group.finish();
}

/// Core-model throughput: simulate 10k independent ALU instructions.
fn bench_core_throughput(c: &mut Criterion) {
    let events: Vec<TraceEvent> = (0..10_000)
        .map(|i| {
            TraceEvent::simple(
                i % 64,
                OpClass::IntAlu,
                [None; 3],
                Some((i % 50 + 8) as u16),
            )
        })
        .collect();
    c.bench_function("core_sim_10k_alu", |b| {
        b.iter(|| {
            let mut core = Core::new(CoreConfig::penryn_like());
            for ev in &events {
                core.feed(*ev);
            }
            core.finish().cycles
        });
    });
}

/// Core-model throughput on the golden mixed trace (the one
/// `uarch/tests/golden_stats.rs` pins), with an ideal NPU attached: unlike
/// `core_sim_10k_alu` it exercises wakeup of dependent chains, the store
/// map, unpipelined-unit contention, mispredict recovery, full-queue
/// stalls and `deq.d` waits.
fn bench_core_mixed(c: &mut Criterion) {
    use golden_trace::{golden_trace, NPU_INPUTS, NPU_OUTPUTS};
    let events = golden_trace();
    c.bench_function("core_sim_mixed", |b| {
        b.iter(|| {
            let mut core = Core::with_attachment(
                CoreConfig::penryn_like(),
                NpuAttachment::ideal(NPU_INPUTS, NPU_OUTPUTS),
            );
            for ev in &events {
                core.feed(*ev);
            }
            core.finish().cycles
        });
    });
}

/// Core-model throughput while the core mostly waits on a cycle-accurate
/// NPU: 2,000 sobel-sized (9→8→1) invocations, each nine `enq.d`, one
/// `deq.d` and four dependent ALU ops, so most simulated cycles have the
/// core blocked on `deq.d` while only the NPU advances.
fn bench_core_npu_bound(c: &mut Criterion) {
    let config = config_for(vec![9, 8, 1]);
    let mut events = Vec::new();
    for round in 0..2000u64 {
        for i in 0..9 {
            events.push(TraceEvent::simple(
                i,
                OpClass::NpuEnqD,
                [Some((round % 4) as u16), None, None],
                None,
            ));
        }
        events.push(TraceEvent::simple(9, OpClass::NpuDeqD, [None; 3], Some(4)));
        for g in 0..4 {
            events.push(TraceEvent::simple(
                10 + g,
                OpClass::IntAlu,
                [Some(4), None, None],
                Some(g as u16),
            ));
        }
    }
    c.bench_function("core_sim_npu_bound", |b| {
        b.iter(|| {
            let mut sim = NpuSim::new(NpuParams::default());
            sim.configure(&config).unwrap();
            let mut core = Core::with_npu(CoreConfig::penryn_like(), sim);
            for ev in &events {
                core.feed(*ev);
            }
            core.finish().cycles
        });
    });
}

/// MLP forward pass (functional NN evaluation) per paper topology.
fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp_forward");
    for (name, layers) in paper_topologies() {
        let config = config_for(layers);
        let inputs: Vec<f32> = (0..config.topology().inputs())
            .map(|i| i as f32 / 64.0)
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| config.evaluate(&inputs));
        });
    }
    group.finish();
}

/// Telemetry overhead on the simulator hot loops: identical work with
/// the collector off (the default) vs. fully enabled into a black-hole
/// sink. The disabled path must stay within noise (<2%) of the seed's
/// uninstrumented loop — emission sites cost one relaxed atomic load.
/// Also measures the unit costs of the histogram primitives
/// (`hist_record`, `hist_quantile`) and span creation with and without
/// an attached sink.
fn bench_telemetry_overhead(c: &mut Criterion) {
    struct NullSink;
    impl telemetry::Sink for NullSink {
        fn record(&self, event: &telemetry::Event) {
            criterion::black_box(event.seq);
        }
    }

    let config = config_for(vec![9, 8, 1]);
    let events: Vec<TraceEvent> = (0..10_000)
        .map(|i| {
            TraceEvent::simple(
                i % 64,
                OpClass::IntAlu,
                [None; 3],
                Some((i % 50 + 8) as u16),
            )
        })
        .collect();
    let run_core = |events: &[TraceEvent]| {
        let mut core = Core::new(CoreConfig::penryn_like());
        for ev in events {
            core.feed(*ev);
        }
        core.finish().cycles
    };

    let mut group = c.benchmark_group("telemetry_overhead");

    // Histogram primitives: one log-bucketed observation, and one p99
    // query over a well-populated histogram — the unit costs behind every
    // per-invocation latency / per-element error sample the sweep records.
    group.bench_function("hist_record", |b| {
        let mut hist = telemetry::Histogram::default();
        let mut x = 1.0f64;
        b.iter(|| {
            x = (x * 1.0001 + 0.37) % 1.0e9;
            hist.observe(criterion::black_box(x));
            hist.count
        });
    });
    group.bench_function("hist_quantile", |b| {
        let mut hist = telemetry::Histogram::default();
        for i in 0..100_000u32 {
            hist.observe(f64::from(i % 4096) + 0.5);
        }
        b.iter(|| criterion::black_box(&hist).p99());
    });

    telemetry::reset();
    // Span creation with the collector off: the id is still allocated
    // (one relaxed atomic add) but no event is built or sunk.
    group.bench_function("span/disabled", |b| {
        b.iter(|| {
            let span = telemetry::span("bench::microbench", "overhead_probe");
            span.id()
        });
    });
    group.bench_function("npu_hot_loop/disabled", |b| {
        let mut sim = NpuSim::new(NpuParams::default());
        sim.configure(&config).unwrap();
        b.iter(|| npu_invocation(&mut sim, 9, 1));
    });
    group.bench_function("core_sim_10k_alu/disabled", |b| {
        b.iter(|| run_core(&events))
    });

    telemetry::add_sink(Box::new(NullSink));
    telemetry::set_level(telemetry::Level::Trace);
    // Span creation with a sink attached: builds both PhaseStart and
    // PhaseEnd events and pushes them through the sink registry.
    group.bench_function("span/trace_enabled", |b| {
        b.iter(|| {
            let span = telemetry::span("bench::microbench", "overhead_probe");
            span.id()
        });
    });
    group.bench_function("npu_hot_loop/trace_enabled", |b| {
        let mut sim = NpuSim::new(NpuParams::default());
        sim.configure(&config).unwrap();
        b.iter(|| npu_invocation(&mut sim, 9, 1));
    });
    group.bench_function("core_sim_10k_alu/trace_enabled", |b| {
        b.iter(|| run_core(&events))
    });
    telemetry::reset();
    group.finish();
}

/// Static-analysis cost on the region compiler path: the full verifier
/// (CFG, dominators, liveness, interval fixpoint, all lints) and the
/// precision report, each on the heaviest region (jpeg: 456
/// instructions, triple-nested DCT loops) and the lightest interesting
/// one (sobel: loop-free). Every `parrot-run` sweep and every
/// `parrot-lint` invocation pays these once per region, so they must
/// stay compile-time cheap relative to a single training epoch.
fn bench_analysis_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_overhead");
    for name in ["jpeg", "sobel"] {
        let region = benchmarks::benchmark_by_name(name)
            .expect("paper benchmark exists")
            .region();
        group.bench_function(&format!("lint/{name}"), |b| {
            b.iter(|| {
                let report = region.lint();
                criterion::black_box(report.diagnostics().len())
            });
        });
        group.bench_function(&format!("precision/{name}"), |b| {
            b.iter(|| {
                let report = region.precision().expect("entry exists");
                criterion::black_box(report.bounded())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_npu_invocation,
    bench_training_epoch,
    bench_backprop_one,
    bench_mse_eval,
    bench_forward_batch,
    bench_quant_forward,
    bench_npu_functional,
    bench_trace_replay,
    bench_core_throughput,
    bench_core_mixed,
    bench_core_npu_bound,
    bench_forward,
    bench_telemetry_overhead,
    bench_analysis_overhead
);
criterion_main!(benches);
