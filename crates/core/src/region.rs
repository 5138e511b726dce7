//! Candidate code regions (the paper's `[[PARROT]]`-annotated functions).

use crate::ParrotError;
use approx_ir::analysis::{
    infer_types, verify_region_with_inputs, AbsValue, FloatInterval, PrecisionReport, RegType,
    VerifyReport,
};
use approx_ir::{static_counts, FuncId, Interpreter, Program, StaticCounts, Value};

/// An annotated candidate region: a pure IR function with a fixed number
/// of `f32` inputs and outputs.
///
/// Paper Section 3.1's criteria map to this type's invariants:
/// *well-defined inputs and outputs* (fixed arity, checked against the IR
/// function), *purity* (the IR has no global state; a region gets a
/// private scratch memory whose contents do not persist across calls),
/// and *hot / approximable* (the caller's judgement, as in the paper).
#[derive(Debug, Clone)]
pub struct RegionSpec {
    name: String,
    program: Program,
    entry: FuncId,
    n_inputs: usize,
    n_outputs: usize,
    scratch_words: usize,
    input_range: Option<(f32, f32)>,
}

impl RegionSpec {
    /// Declares a region over `program`'s `entry` function.
    ///
    /// # Errors
    ///
    /// Returns [`ParrotError::InvalidRegion`] if the entry function's
    /// parameter or return arity does not match `n_inputs`/`n_outputs`,
    /// or if any entry parameter is not used as an `f32` value (the
    /// Parrot call convention passes every region input as a float).
    pub fn new(
        name: impl Into<String>,
        program: Program,
        entry: FuncId,
        n_inputs: usize,
        n_outputs: usize,
    ) -> Result<Self, ParrotError> {
        let f = program
            .function_by_index(entry.0)
            .ok_or_else(|| ParrotError::InvalidRegion("entry function missing".into()))?;
        if f.n_params() != n_inputs {
            return Err(ParrotError::InvalidRegion(format!(
                "entry takes {} params but region declares {} inputs",
                f.n_params(),
                n_inputs
            )));
        }
        if f.n_rets() != n_outputs {
            return Err(ParrotError::InvalidRegion(format!(
                "entry returns {} values but region declares {} outputs",
                f.n_rets(),
                n_outputs
            )));
        }
        // Region inputs cross the NPU boundary as floats; a parameter the
        // body consumes as an integer cannot be approximated.
        let types = infer_types(&program);
        let param_types = types[entry.0 as usize].prefix(f.n_params()).to_vec();
        for (i, ty) in param_types.into_iter().enumerate() {
            if matches!(ty, RegType::Int | RegType::Conflict) {
                return Err(ParrotError::InvalidRegion(format!(
                    "entry parameter {i} of '{}' is used as {} but region inputs must be f32",
                    f.name(),
                    if ty == RegType::Int {
                        "an integer"
                    } else {
                        "both integer and float"
                    }
                )));
            }
        }
        Ok(RegionSpec {
            name: name.into(),
            program,
            entry,
            n_inputs,
            n_outputs,
            scratch_words: 0,
            input_range: None,
        })
    }

    /// Gives the region a private scratch memory (f32 words) for regions
    /// whose IR uses loads/stores internally, returning `self`.
    pub fn with_scratch(mut self, words: usize) -> Self {
        self.scratch_words = words;
        self
    }

    /// Declares that every region input lies in `[lo, hi]` (and is never
    /// NaN), returning `self`. The static analyses use this to prove
    /// scratch bounds and loop bounds and to derive finite fixed-point
    /// precision requirements; the declared range is a contract on the
    /// caller, not checked at runtime.
    pub fn with_input_range(mut self, lo: f32, hi: f32) -> Self {
        self.input_range = Some((lo, hi));
        self
    }

    /// Region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of `f32` inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of `f32` outputs.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The region's IR program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The entry function id within [`program`](Self::program).
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Scratch memory size in words.
    pub fn scratch_words(&self) -> usize {
        self.scratch_words
    }

    /// The declared input range, if [`with_input_range`](Self::with_input_range)
    /// set one.
    pub fn input_range(&self) -> Option<(f32, f32)> {
        self.input_range
    }

    fn input_intervals(&self) -> Vec<FloatInterval> {
        match self.input_range {
            Some((lo, hi)) => vec![FloatInterval { lo, hi, nan: false }; self.n_inputs],
            None => Vec::new(),
        }
    }

    /// Executes the *original, precise* region.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn evaluate(&self, inputs: &[f32]) -> Result<Vec<f32>, ParrotError> {
        let args: Vec<Value> = inputs.iter().map(|&v| Value::F(v)).collect();
        let out = Interpreter::new(&self.program)
            .with_memory(self.scratch_words)
            .run(self.entry, &args)?;
        out.into_iter()
            .map(|v| v.as_f32().map_err(ParrotError::from))
            .collect()
    }

    /// Static characterization of the region (Table 1's calls / loops /
    /// ifs / instruction counts).
    pub fn static_counts(&self) -> StaticCounts {
        static_counts(&self.program, self.entry)
    }

    /// Runs the region safety verifier (paper §3.1 admission criteria)
    /// over the entry function and every transitively called function,
    /// returning all findings regardless of severity. A declared input
    /// range tightens the interval analysis behind the proof-carrying
    /// lints.
    pub fn lint(&self) -> VerifyReport {
        verify_region_with_inputs(
            &self.program,
            self.entry.0,
            self.scratch_words,
            &self.input_intervals(),
        )
    }

    /// Static fixed-point precision requirements for the region (per
    /// input, output, and the float intermediate hull), derived from the
    /// interval analysis under the declared input range. Mirrors the NPU
    /// fixed-point datapath sizing question from the paper's §7.
    pub fn precision(&self) -> Option<PrecisionReport> {
        let params: Vec<AbsValue> = self
            .input_intervals()
            .into_iter()
            .map(AbsValue::float)
            .collect();
        PrecisionReport::for_region(
            &self.program,
            self.entry,
            &self.name,
            &params,
            self.scratch_words,
        )
    }

    /// The precision analysis aggregated into a telemetry summary, ready
    /// to embed in a [`telemetry::RunReport`]. Non-finite bounds become
    /// `None` (the JSON schema carries `null`, never ±∞); a missing entry
    /// function yields the all-default (unbounded, empty) summary.
    pub fn precision_summary(&self) -> telemetry::PrecisionSummary {
        let mut summary = telemetry::PrecisionSummary::default();
        let Some(report) = self.precision() else {
            return summary;
        };
        summary.bounded = report.bounded();
        summary.datapath_int_bits = report.datapath_int_bits();
        summary.datapath_frac_bits = report.datapath_frac_bits();
        summary.values = report
            .values
            .iter()
            .map(|v| telemetry::PrecisionRow {
                name: v.name.clone(),
                lo: v.lo.is_finite().then_some(v.lo),
                hi: v.hi.is_finite().then_some(v.hi),
                may_be_nan: v.may_be_nan,
                int_bits: v.int_bits,
                frac_bits: v.frac_bits,
            })
            .collect();
        summary
    }

    /// Verifies the region, failing on error-severity findings — programs
    /// the interpreter would fault on along some path. Warnings and infos
    /// are retained in the returned report. The compiler calls this
    /// before spending any time on observation or training.
    ///
    /// # Errors
    ///
    /// Returns [`ParrotError::InvalidRegion`] listing every
    /// error-severity diagnostic.
    pub fn verify(&self) -> Result<VerifyReport, ParrotError> {
        let report = self.lint();
        if report.has_errors() {
            let msgs: Vec<String> = report.errors().map(|d| d.to_string()).collect();
            return Err(ParrotError::InvalidRegion(format!(
                "region '{}' failed safety verification: {}",
                self.name,
                msgs.join("; ")
            )));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_ir::FunctionBuilder;

    fn square_region() -> RegionSpec {
        let mut b = FunctionBuilder::new("sq", 1);
        let x = b.param(0);
        let y = b.fmul(x, x);
        b.ret(&[y]);
        let mut p = Program::new();
        let f = p.add_function(b.build().unwrap());
        RegionSpec::new("sq", p, f, 1, 1).unwrap()
    }

    #[test]
    fn evaluate_runs_the_region() {
        let r = square_region();
        assert_eq!(r.evaluate(&[3.0]).unwrap(), vec![9.0]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = FunctionBuilder::new("f", 2);
        let x = b.param(0);
        b.ret(&[x]);
        let mut p = Program::new();
        let f = p.add_function(b.build().unwrap());
        // Declared 1 input but function takes 2.
        let err = RegionSpec::new("f", p, f, 1, 1).unwrap_err();
        assert!(matches!(err, ParrotError::InvalidRegion(_)));
    }

    #[test]
    fn counts_are_exposed() {
        let r = square_region();
        let c = r.static_counts();
        assert_eq!(c.instructions, 2);
        assert_eq!(c.function_calls, 0);
    }

    #[test]
    fn integer_typed_params_rejected() {
        // f(x) = x + 1 with integer arithmetic: not a float region.
        let mut b = FunctionBuilder::new("iinc", 1);
        let x = b.param(0);
        let one = b.consti(1);
        let y = b.iadd(x, one);
        b.ret(&[y]);
        let mut p = Program::new();
        let f = p.add_function(b.build().unwrap());
        let err = RegionSpec::new("iinc", p, f, 1, 1).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ParrotError::InvalidRegion(_)));
        assert!(msg.contains("used as an integer"), "msg: {msg}");
    }

    #[test]
    fn clean_region_verifies_with_no_findings() {
        let r = square_region();
        let report = r.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics());
    }

    #[test]
    fn verify_rejects_uninitialized_read() {
        use approx_ir::{Function, Inst, Reg};
        // r1 is read before any write; the builder would refuse this, so
        // assemble the function directly.
        let f = Function::new_unchecked(
            "bad",
            1,
            3,
            vec![Reg(2)],
            vec![
                Inst::FBin {
                    op: approx_ir::FBinOp::Add,
                    dst: Reg(2),
                    a: Reg(0),
                    b: Reg(1),
                },
                Inst::Ret { vals: vec![Reg(2)] },
            ],
        );
        let mut p = Program::new();
        let id = p.add_function(f);
        let r = RegionSpec::new("bad", p, id, 1, 1).unwrap();
        let err = r.verify().unwrap_err();
        assert!(err.to_string().contains("uninit-read"), "{err}");
    }
}
