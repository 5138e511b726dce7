//! Small measurement helpers: percentiles, peak memory, digests, and
//! the metric list every workload fills in.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted
/// copy; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over the bit patterns of `values`: a compact fingerprint of
/// application outputs for the exact-repeat checks.
pub fn digest_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One reported metric; its unit is declared in `main.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Accumulates a workload's metrics in the order it measures them.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} recorded twice");
        self.0.push(Metric { name, value });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A uniform sample of at most [`Samples::CAPACITY`] values from a
/// stream (reservoir sampling with a fixed-seed generator), so that
/// memory does not grow with the number of values pushed.
#[derive(Debug, Clone)]
pub struct Samples {
    values: Vec<f64>,
    seen: u64,
    state: u64,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            values: Vec::new(),
            seen: 0,
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Samples {
    /// Most values kept.
    pub const CAPACITY: usize = 1 << 16;

    /// Offers `v`; once full, it replaces a kept value with probability
    /// `CAPACITY / values seen`.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < Self::CAPACITY {
            self.values.push(v);
            return;
        }
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.seen;
        if let Some(slot) = self.values.get_mut(r as usize) {
            *slot = v;
        }
    }

    /// The kept values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Set-ups per run behind `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times and returns the last product with
/// the median wall time of one set-up, in seconds. Later products
/// replace earlier ones, so resources an earlier repetition held (a
/// daemon, say) must be released by dropping or by `setup` itself.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut product = None;
    for _ in 0..SETUP_REPS {
        drop(product.take());
        let t = Instant::now();
        product = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((product.expect("at least one set-up ran"), median(&times)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn samples_stay_bounded_and_uniform() {
        let mut s = Samples::default();
        let n = 4 * Samples::CAPACITY;
        for i in 0..n {
            s.push(i as f64);
        }
        assert_eq!(s.values().len(), Samples::CAPACITY);
        let rel = median(s.values()) / (n as f64 / 2.0);
        assert!((rel - 1.0).abs() < 0.02, "median off by {rel}");
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        assert_eq!(digest_f32(&[1.5, 2.0]), digest_f32(&[1.5, 2.0]));
    }
}
