//! Runtime adapter: answers the IR interpreter's NPU queue instructions
//! with the functional model of the NPU.
//!
//! This is the one implementation of the NPU's ISA-visible behaviour:
//! `enq.c` words accumulate until a configuration decodes, `deq.c` reads
//! the configuration back for a context switch, and `enq.d`/`deq.d`
//! carry the invocation values. Timed runs attach the cycle-accurate
//! [`NpuSim`](npu::NpuSim) to the core as well, but that model tracks
//! only when things happen. The values come from here: invocations are
//! evaluated through the batched SIMD replay kernel ([`BatchEvaluator`]),
//! bit-identical to [`NpuConfig::evaluate`].

use approx_ir::NpuPort;
use npu::{BatchEvaluator, NpuConfig, NpuError, NpuParams, Scheduler};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Record a throughput sample after this many invocations, so long
/// sweeps see the distribution rather than a single end-of-run number.
const THROUGHPUT_WINDOW: u64 = 4096;

#[derive(Debug)]
struct Loaded {
    config: NpuConfig,
    /// The wire encoding, for `deq.c` context-switch readback.
    encoded: Vec<u32>,
    readback_pos: usize,
}

/// A functional NPU runtime backing the interpreter's `enq.*`/`deq.*`
/// instructions.
///
/// `enq.c` words accumulate until a full configuration decodes (which is
/// also validated against the hardware sizing in `params`, exactly like
/// [`NpuSim::configure`](npu::NpuSim::configure)); `deq.c` streams the
/// loaded configuration back out; `enq.d` buffers inputs; `deq.d`
/// evaluates every complete pending invocation through the batched
/// replay kernel and streams the outputs back. Values are bit-identical
/// to [`NpuConfig::evaluate`].
#[derive(Debug)]
pub struct NpuRuntime {
    params: NpuParams,
    state: Option<Loaded>,
    cfg_accum: Vec<u32>,
    /// Committed `enq.d` values not yet consumed by an evaluation.
    pending: Vec<f32>,
    /// Evaluated outputs awaiting `deq.d`.
    out_queue: VecDeque<f32>,
    evaluator: BatchEvaluator,
    out_buf: Vec<f32>,
    /// Lifetime invocation count (architectural, like the sim's stats).
    invocations: u64,
    window_invocations: u64,
    window_busy: Duration,
}

impl NpuRuntime {
    /// Creates an unconfigured runtime (configure via `enq.c` instructions
    /// or [`configure`](Self::configure)).
    pub fn new(params: NpuParams) -> Self {
        NpuRuntime {
            params,
            state: None,
            cfg_accum: Vec::new(),
            pending: Vec::new(),
            out_queue: VecDeque::new(),
            evaluator: BatchEvaluator::new(),
            out_buf: Vec::new(),
            invocations: 0,
            window_invocations: 0,
            window_busy: Duration::ZERO,
        }
    }

    /// Creates a runtime with a configuration pre-loaded.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's error if the network does not fit.
    pub fn configured(params: NpuParams, config: &NpuConfig) -> Result<Self, NpuError> {
        let mut rt = NpuRuntime::new(params);
        rt.configure(config)?;
        Ok(rt)
    }

    /// Loads a configuration.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's error if the network does not fit.
    pub fn configure(&mut self, config: &NpuConfig) -> Result<(), NpuError> {
        // The functional port never walks the bus schedule, but a network
        // the hardware cannot hold must still be rejected here — a
        // functional run that silently accepted it would diverge from
        // every timed run.
        Scheduler::new(self.params.clone()).schedule(config)?;
        self.state = Some(Loaded {
            encoded: config.encode(),
            config: config.clone(),
            readback_pos: 0,
        });
        Ok(())
    }

    /// Whether a configuration is loaded.
    pub fn is_configured(&self) -> bool {
        self.state.is_some()
    }

    /// The loaded configuration, if any.
    pub fn current_config(&self) -> Option<&NpuConfig> {
        self.state.as_ref().map(|s| &s.config)
    }

    /// Completed invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Evaluates every complete invocation sitting in the input buffer
    /// and queues the outputs. Called lazily from `deq_data`, so by the
    /// time an output is demanded, all inputs enqueued before it form the
    /// batch.
    fn flush_pending(&mut self) {
        let state = self
            .state
            .as_ref()
            .expect("npu data access before configuration");
        let n_in = state.config.topology().inputs();
        let complete = self.pending.len() / n_in;
        if complete == 0 {
            return;
        }
        let start = Instant::now();
        self.evaluator.run_flat(
            &state.config,
            &self.pending[..complete * n_in],
            &mut self.out_buf,
        );
        self.out_queue.extend(self.out_buf.iter().copied());
        self.pending.drain(..complete * n_in);
        self.invocations += complete as u64;
        self.window_invocations += complete as u64;
        self.window_busy += start.elapsed();
        if self.window_invocations >= THROUGHPUT_WINDOW {
            self.flush_throughput();
        }
    }

    /// Emits the current window's functional throughput to the global
    /// sample registry (surfaced as a sweep-level distribution in the
    /// run report).
    fn flush_throughput(&mut self) {
        let secs = self.window_busy.as_secs_f64();
        if self.window_invocations > 0 && secs > 0.0 {
            telemetry::record_sample(
                "npu.functional.invocations_per_s",
                self.window_invocations as f64 / secs,
            );
        }
        self.window_invocations = 0;
        self.window_busy = Duration::ZERO;
    }
}

impl Drop for NpuRuntime {
    fn drop(&mut self) {
        self.flush_throughput();
    }
}

impl NpuPort for NpuRuntime {
    fn enq_config(&mut self, word: u32) {
        self.cfg_accum.push(word);
        let expected =
            NpuConfig::stream_len(&self.cfg_accum).expect("invalid configuration word stream");
        if expected == Some(self.cfg_accum.len()) {
            let words = std::mem::take(&mut self.cfg_accum);
            let config = NpuConfig::decode(&words).expect("invalid configuration word stream");
            Scheduler::new(self.params.clone())
                .schedule(&config)
                .expect("configuration does not fit the npu");
            self.state = Some(Loaded {
                config,
                encoded: words,
                readback_pos: 0,
            });
        }
    }

    fn deq_config(&mut self) -> u32 {
        let state = self.state.as_mut().expect("deq.c on an unconfigured npu");
        let word = state.encoded[state.readback_pos];
        state.readback_pos = (state.readback_pos + 1) % state.encoded.len();
        word
    }

    fn enq_data(&mut self, value: f32) {
        self.pending.push(value);
    }

    fn deq_data(&mut self) -> f32 {
        if self.out_queue.is_empty() {
            self.flush_pending();
        }
        self.out_queue
            .pop_front()
            .expect("deq.d but the npu never produced an output")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build_invocation_stub;
    use ann::{Mlp, Normalizer, Topology};
    use approx_ir::{Interpreter, NullSink, Program, Value};

    fn config() -> NpuConfig {
        let t = Topology::new(vec![2, 4, 1]).unwrap();
        NpuConfig::new(
            Mlp::seeded(t, 12),
            Normalizer::identity(2),
            Normalizer::identity(1),
        )
    }

    #[test]
    fn stub_through_runtime_matches_reference_evaluation() {
        let config = config();
        let mut runtime = NpuRuntime::configured(NpuParams::default(), &config).unwrap();
        let mut program = Program::new();
        let stub = program.add_function(build_invocation_stub(2, 1));
        let mut sink = NullSink;
        let out = Interpreter::new(&program)
            .run_full(
                stub,
                &[Value::F(0.25), Value::F(0.75)],
                &mut sink,
                Some(&mut runtime),
            )
            .unwrap();
        let expected = config.evaluate(&[0.25, 0.75]);
        // Bit-identical, not merely close: the functional port and the
        // reference evaluation share one arithmetic path.
        assert_eq!(out.outputs[0].as_f32().unwrap(), expected[0]);
    }

    #[test]
    fn runtime_supports_config_via_enq_c() {
        let config = config();
        let mut runtime = NpuRuntime::new(NpuParams::default());
        let loader = crate::codegen::build_config_loader(&config);
        let mut program = Program::new();
        let f = program.add_function(loader);
        let mut sink = NullSink;
        Interpreter::new(&program)
            .run_full(f, &[], &mut sink, Some(&mut runtime))
            .unwrap();
        assert!(runtime.is_configured());
        assert_eq!(runtime.current_config(), Some(&config));
    }

    #[test]
    fn config_readback_round_trips() {
        let config = config();
        let mut runtime = NpuRuntime::configured(NpuParams::default(), &config).unwrap();
        let words: Vec<u32> = (0..config.encoded_len())
            .map(|_| runtime.deq_config())
            .collect();
        assert_eq!(NpuConfig::decode(&words).unwrap(), config);
        // The read position wraps for the next context switch.
        assert_eq!(runtime.deq_config(), words[0]);
    }

    #[test]
    fn oversized_network_is_rejected() {
        let t = Topology::new(vec![2, 4096, 1]).unwrap();
        let big = NpuConfig::new(
            Mlp::seeded(t, 1),
            Normalizer::identity(2),
            Normalizer::identity(1),
        );
        assert!(NpuRuntime::configured(NpuParams::default(), &big).is_err());
    }

    #[test]
    fn repeated_invocations_stay_consistent() {
        let config = config();
        let mut runtime = NpuRuntime::configured(NpuParams::default(), &config).unwrap();
        let mut program = Program::new();
        let stub = program.add_function(build_invocation_stub(2, 1));
        for k in 0..10 {
            let a = 0.1 * k as f32;
            let mut sink = NullSink;
            let out = Interpreter::new(&program)
                .run_full(
                    stub,
                    &[Value::F(a), Value::F(1.0 - a)],
                    &mut sink,
                    Some(&mut runtime),
                )
                .unwrap();
            let expected = config.evaluate(&[a, 1.0 - a]);
            assert_eq!(out.outputs[0].as_f32().unwrap(), expected[0]);
        }
        assert_eq!(runtime.invocations(), 10);
    }

    #[test]
    fn pipelined_invocations_batch_through_one_flush() {
        // Nothing stops a program from enqueuing several invocations
        // before dequeuing (the hardware FIFOs exist precisely for
        // that); the lazy flush must evaluate them as one batch and
        // stream outputs back in order.
        let config = config();
        let mut runtime = NpuRuntime::configured(NpuParams::default(), &config).unwrap();
        let inputs: Vec<[f32; 2]> = (0..5)
            .map(|k| [0.2 * k as f32, 0.9 - 0.1 * k as f32])
            .collect();
        for inv in &inputs {
            runtime.enq_data(inv[0]);
            runtime.enq_data(inv[1]);
        }
        for inv in &inputs {
            let expected = config.evaluate(inv);
            assert_eq!(runtime.deq_data(), expected[0]);
        }
        assert_eq!(runtime.invocations(), 5);
    }
}
