//! Experiment binaries: regenerate every table and figure of the paper's
//! evaluation (Section 7) on top of the `harness` crate's parallel,
//! cached sweep scheduler.
//!
//! `parrot-run` reproduces any subset of the evaluation; each experiment
//! name selects one artifact (no name: all of them, sharing training and
//! baseline timing in one sweep):
//!
//! | command | artifact |
//! |---|---|
//! | `parrot-run table1` | Table 1 — benchmark characterization & Parrot results |
//! | `parrot-run fig6` | Figure 6 — CDF of per-element output error |
//! | `parrot-run fig7` | Figure 7 — normalized dynamic instructions |
//! | `parrot-run fig8` | Figures 8a/8b — whole-application speedup and energy reduction |
//! | `parrot-run fig9` | Figure 9 — slowdown with software NN execution |
//! | `parrot-run fig10` | Figure 10 — speedup vs. CPU↔NPU link latency |
//! | `parrot-run fig11` | Figure 11 — speedup gain per PE-count doubling |
//! | `parrot-run report` | per-benchmark JSON run reports (with `--json-out`) |
//! | `table2` | Table 2 — simulated microarchitectural configuration |
//!
//! `parrot-run` and the ablation binaries accept `--fast` (reduced input
//! sizes and training budget), `--bench <name>` (restrict to one
//! benchmark), `--jobs N` (scheduler workers), and `--cache-dir <dir>`
//! (content-addressed artifact cache: warm re-runs do no training and no
//! simulation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod drive;
pub mod experiments;
pub mod format;
pub mod present;
pub mod suite;

pub use cli::Options;
pub use suite::compile_params;
