//! OS-visible NPU state: the configuration is architectural state that a
//! context switch must save (`deq.c`) and restore (`enq.c`) — paper
//! Section 5.2.

use ann::{Mlp, Normalizer, Topology};
use approx_ir::{Interpreter, NpuPort, NullSink, Program, Value};
use npu::{NpuConfig, NpuParams};
use parrot::codegen::{
    build_config_loader, build_config_restorer, build_config_saver, build_invocation_stub,
};
use parrot::NpuRuntime;

fn sample_config(seed: u64) -> NpuConfig {
    let t = Topology::new(vec![3, 8, 2]).unwrap();
    NpuConfig::new(
        Mlp::seeded(t, seed),
        Normalizer::new(vec![(0.0, 1.0), (-1.0, 1.0), (0.0, 4.0)]),
        Normalizer::new(vec![(0.0, 2.0), (-3.0, 3.0)]),
    )
}

/// Full save/restore round trip through the ISA path: process A's config
/// is read out with `deq.c`, process B runs with its own config, then A's
/// is restored with `enq.c` and produces identical results.
#[test]
fn context_switch_preserves_npu_results() {
    let config_a = sample_config(1);
    let config_b = sample_config(2);
    let inputs = [0.3f32, -0.4, 2.5];
    let expected_a = config_a.evaluate(&inputs);
    let expected_b = config_b.evaluate(&inputs);
    assert_ne!(expected_a, expected_b, "processes must differ");

    let invoke = |npu: &mut NpuRuntime| -> Vec<f32> {
        for &v in &inputs {
            npu.enq_data(v);
        }
        (0..2).map(|_| npu.deq_data()).collect()
    };

    let mut npu = NpuRuntime::configured(NpuParams::default(), &config_a).unwrap();
    // Process A computes once.
    assert_eq!(invoke(&mut npu), expected_a);

    // Context switch: OS saves A's configuration word stream.
    let saved: Vec<u32> = (0..config_a.encoded_len())
        .map(|_| npu.deq_config())
        .collect();

    // Process B configures and runs.
    for w in config_b.encode() {
        npu.enq_config(w);
    }
    assert_eq!(npu.current_config(), Some(&config_b));
    assert_eq!(invoke(&mut npu), expected_b);

    // Switch back: restore A from the saved words.
    for w in saved {
        npu.enq_config(w);
    }
    assert_eq!(npu.current_config(), Some(&config_a));
    assert_eq!(
        invoke(&mut npu),
        expected_a,
        "restored config must be identical"
    );
}

/// The same flow driven entirely by IR programs (the loader/saver the
/// compiler emits), through the interpreter's NPU port.
#[test]
fn ir_level_save_and_restore() {
    let config = sample_config(7);
    let n_words = config.encoded_len();

    let mut program = Program::new();
    let loader = program.add_function(build_config_loader(&config));
    let saver = program.add_function(build_config_saver(n_words));
    let stub = program.add_function(build_invocation_stub(3, 2));

    let mut runtime = NpuRuntime::new(NpuParams::default());
    let mut sink = NullSink;

    // Configure via the generated enq.c loader.
    let mut interp = Interpreter::new(&program).with_memory(n_words);
    interp
        .run_full(loader, &[], &mut sink, Some(&mut runtime))
        .unwrap();
    assert!(runtime.is_configured());

    // Invoke once through the stub.
    let args = [Value::F(0.5), Value::F(0.0), Value::F(1.0)];
    let out = interp
        .run_full(stub, &args, &mut sink, Some(&mut runtime))
        .unwrap();
    let want = config.evaluate(&[0.5, 0.0, 1.0]);
    assert!((out.outputs[0].as_f32().unwrap() - want[0]).abs() < 1e-6);

    // Save via the generated deq.c saver: words land in data memory
    // (bit-preserving moves).
    interp
        .run_full(saver, &[], &mut sink, Some(&mut runtime))
        .unwrap();
    let words: Vec<u32> = interp.memory()[..n_words]
        .iter()
        .map(|f| f.to_bits())
        .collect();
    // The saved stream decodes to the original configuration.
    let decoded = NpuConfig::decode(&words).unwrap();
    assert_eq!(decoded, config);

    // And the generated restorer reconfigures a fresh NPU to identical
    // behaviour.
    let restorer = {
        // (built against the same program for id stability)
        build_config_restorer(n_words)
    };
    let mut program2 = Program::new();
    let restore_id = program2.add_function(restorer);
    let stub2 = program2.add_function(build_invocation_stub(3, 2));
    let mut fresh = NpuRuntime::new(NpuParams::default());
    let mut interp2 = Interpreter::new(&program2).with_memory(n_words);
    interp2.memory_mut()[..n_words].copy_from_slice(&interp.memory()[..n_words]);
    interp2
        .run_full(restore_id, &[], &mut sink, Some(&mut fresh))
        .unwrap();
    let out2 = interp2
        .run_full(stub2, &args, &mut sink, Some(&mut fresh))
        .unwrap();
    assert_eq!(out.outputs, out2.outputs, "restored NPU must match");
}
