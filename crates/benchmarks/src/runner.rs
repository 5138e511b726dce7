//! Generic application execution: functional runs, instruction counting,
//! and cycle-level timing.

use crate::{App, AppVariant, Benchmark, Scale};
use approx_ir::{CountingSink, Interpreter, IrError, NullSink, TraceSink, Value};
use parrot::NpuRuntime;
use uarch::{Core, CoreConfig, NpuAttachment, SimStats};

/// NPU-side results of a timed run: the architectural event counters
/// plus the per-invocation latency distribution (simulated cycles — both
/// deterministic for a given trace).
#[derive(Debug, Clone, PartialEq)]
pub struct NpuRunStats {
    /// Architectural event counters.
    pub stats: npu::NpuStats,
    /// Per-invocation latency distribution in simulated cycles.
    pub invocation_cycles: telemetry::Histogram,
}

/// The outcome of one application run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Final data memory (outputs live at benchmark-defined offsets).
    pub memory: Vec<f32>,
    /// Dynamic instructions executed.
    pub executed: u64,
    /// Entry function's return values.
    pub returns: Vec<Value>,
}

/// Runs an application, emitting its trace into `sink`. If the app
/// executes NPU queue instructions, a functional [`NpuRuntime`] built from
/// the variant's compiled region answers them.
///
/// # Errors
///
/// Propagates interpreter errors.
///
/// # Panics
///
/// Panics if `app.needs_npu` but the variant has no compiled region.
pub fn run_app<S: TraceSink + ?Sized>(
    app: &App,
    variant: &AppVariant<'_>,
    sink: &mut S,
) -> Result<RunOutput, IrError> {
    let mut interp = Interpreter::new(&app.program);
    *interp.memory_mut() = app.memory.clone();
    // The app's config loader configures the NPU via enq.c at program
    // start, so the functional runtime starts unconfigured.
    let mut runtime = if app.needs_npu {
        let compiled = variant
            .compiled()
            .expect("npu app without a compiled region");
        Some(NpuRuntime::new(compiled.npu_params().clone()))
    } else {
        None
    };
    let outcome = match &mut runtime {
        Some(rt) => interp.run_full(
            app.entry,
            &app.args,
            sink,
            Some(rt as &mut dyn approx_ir::NpuPort),
        )?,
        None => interp.run_full(app.entry, &app.args, sink, None)?,
    };
    Ok(RunOutput {
        executed: outcome.executed,
        returns: outcome.outputs,
        memory: std::mem::take(interp.memory_mut()),
    })
}

/// Functional-only run (no trace).
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_functional(app: &App, variant: &AppVariant<'_>) -> Result<RunOutput, IrError> {
    let mut sink = NullSink;
    run_app(app, variant, &mut sink)
}

/// Runs and counts dynamic instructions by class (Figure 7's data).
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_counting(
    app: &App,
    variant: &AppVariant<'_>,
) -> Result<(RunOutput, CountingSink), IrError> {
    let mut sink = CountingSink::default();
    let out = run_app(app, variant, &mut sink)?;
    Ok((out, sink))
}

/// Runs the application through the cycle-level core model, returning the
/// run output, final core statistics, and NPU statistics when a
/// cycle-accurate NPU was attached.
///
/// The core attachment is chosen from the variant:
/// * `Precise` / `SoftwareNn` → plain core;
/// * `Npu` → core + configured cycle-accurate NPU (timing side), while
///   the interpreter's functional port computes the actual values.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_timed(
    app: &App,
    variant: &AppVariant<'_>,
    cfg: CoreConfig,
) -> Result<(RunOutput, SimStats, Option<NpuRunStats>), IrError> {
    let npu = match variant {
        AppVariant::Npu(compiled) => {
            let sim = compiled.make_npu().expect("compiled region fits its npu");
            NpuAttachment::Cycle(Box::new(sim))
        }
        _ => NpuAttachment::None,
    };
    run_timed_with(app, variant, cfg, npu)
}

/// Like [`run_timed`] but on a core with an explicit NPU attachment — a
/// cycle NPU sized differently from the one the region was compiled for
/// (the PE-count sweep), or the ideal NPU.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_timed_with(
    app: &App,
    variant: &AppVariant<'_>,
    cfg: CoreConfig,
    npu: NpuAttachment,
) -> Result<(RunOutput, SimStats, Option<NpuRunStats>), IrError> {
    let mut core = Core::with_attachment(cfg, npu);
    let out = run_app(app, variant, &mut core)?;
    // Drain the pipeline first: in-flight invocations complete during
    // finish(), so NPU statistics are only final afterwards.
    let stats = core.finish();
    let npu_stats = npu_run_stats(&core);
    Ok((out, stats, npu_stats))
}

fn npu_run_stats(core: &Core) -> Option<NpuRunStats> {
    Some(NpuRunStats {
        stats: core.npu_stats()?,
        invocation_cycles: core.npu_invocation_cycles()?,
    })
}

/// Runs the transformed application against the hypothetical zero-cycle
/// NPU (Figure 8's "Core + Ideal NPU").
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_timed_ideal(
    app: &App,
    variant: &AppVariant<'_>,
    cfg: CoreConfig,
    n_inputs: usize,
    n_outputs: usize,
) -> Result<(RunOutput, SimStats), IrError> {
    let npu = NpuAttachment::ideal(n_inputs, n_outputs);
    let (out, stats, _) = run_timed_with(app, variant, cfg, npu)?;
    Ok((out, stats))
}

/// Convenience: the precise (baseline) outputs of a benchmark at a scale.
///
/// # Panics
///
/// Panics if the baseline application faults (a bug, not an input
/// condition).
pub fn baseline_outputs(bench: &dyn Benchmark, scale: &Scale) -> Vec<f32> {
    let app = bench.build_app(&AppVariant::Precise, scale);
    let out = run_functional(&app, &AppVariant::Precise).expect("baseline app must run");
    bench.extract_outputs(&out.memory, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_ir::{FunctionBuilder, Program};

    fn trivial_app() -> App {
        let mut b = FunctionBuilder::new("main", 0);
        let v = b.constf(4.0);
        let base = b.consti(0);
        b.store(v, base, 0);
        b.ret(&[]);
        let mut p = Program::new();
        let entry = p.add_function(b.build().unwrap());
        App {
            program: p,
            entry,
            memory: vec![0.0; 4],
            args: vec![],
            needs_npu: false,
        }
    }

    #[test]
    fn functional_run_updates_memory() {
        let app = trivial_app();
        let out = run_functional(&app, &AppVariant::Precise).unwrap();
        assert_eq!(out.memory[0], 4.0);
        assert_eq!(out.executed, 4);
    }

    #[test]
    fn counting_run_reports_classes() {
        let app = trivial_app();
        let (_, counts) = run_counting(&app, &AppVariant::Precise).unwrap();
        assert_eq!(counts.total, 4);
        assert_eq!(counts.memory, 1);
    }

    #[test]
    fn timed_run_produces_cycles() {
        let app = trivial_app();
        let (_, stats, npu) =
            run_timed(&app, &AppVariant::Precise, CoreConfig::penryn_like()).unwrap();
        assert!(stats.cycles > 0);
        assert_eq!(stats.committed, 4);
        assert!(npu.is_none());
    }
}
