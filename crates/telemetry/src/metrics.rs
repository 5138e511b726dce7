//! The unified metrics registry: namespaced counters, gauges, and
//! log-bucketed streaming histograms with merge and serde support.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sub-octave resolution: each power-of-two range is split into
/// `2^SUB_BITS` equal-width buckets, bounding relative bucket width (and
/// hence quantile error) to `2^-7` ≈ 0.78%.
const SUB_BITS: u32 = 7;
/// Right-shift applied to a positive f64's bit pattern to obtain its
/// bucket index: drops the 52 mantissa bits except the top `SUB_BITS`.
const BUCKET_SHIFT: u32 = 52 - SUB_BITS;

/// Streaming log-bucketed (HDR-style) histogram.
///
/// Positive samples are binned by exponent plus the top `SUB_BITS`
/// mantissa bits of their IEEE-754 representation — a pure bit shift, no
/// `log2` — so bucket boundaries are bit-exact on every platform and
/// recording is O(1) with no allocation on the hot path once a bucket
/// exists. Non-positive and NaN samples land in a dedicated underflow
/// bucket. Shards recorded on different threads merge by bucket-count
/// addition: `count`, `min`, `max`, and every bucket are exactly equal to
/// whole-stream recording regardless of shard order (`sum` only up to
/// f64 rounding).
///
/// Full sample retention is deliberately avoided: simulator loops observe
/// millions of values, and the registry must stay cheap to merge and
/// serialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Samples that were zero, negative, or NaN (kept out of the
    /// log-spaced buckets, which only cover positive finite values).
    nonpositive: u64,
    /// Sparse log-spaced buckets: index → sample count. `BTreeMap` keeps
    /// iteration (and serialization) in ascending value order.
    buckets: BTreeMap<u32, u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            nonpositive: 0,
            buckets: BTreeMap::new(),
        }
    }
}

impl Histogram {
    /// The bucket index a positive finite `value` falls into. Deterministic
    /// across platforms: a pure bit manipulation of the IEEE-754 encoding.
    pub fn bucket_index(value: f64) -> u32 {
        debug_assert!(value > 0.0 && value.is_finite());
        (value.to_bits() >> BUCKET_SHIFT) as u32
    }

    /// The half-open value range `[lo, hi)` covered by bucket `index`.
    /// `hi` is non-finite for the topmost bucket.
    pub fn bucket_bounds(index: u32) -> (f64, f64) {
        let lo = f64::from_bits(u64::from(index) << BUCKET_SHIFT);
        let hi = f64::from_bits((u64::from(index) + 1) << BUCKET_SHIFT);
        (lo, hi)
    }

    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if value > 0.0 && value.is_finite() {
            *self.buckets.entry(Self::bucket_index(value)).or_insert(0) += 1;
        } else {
            self.nonpositive += 1;
        }
    }

    /// Mean of the observed samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Samples that fell below the positive range (zero, negative, NaN).
    pub fn nonpositive(&self) -> u64 {
        self.nonpositive
    }

    /// The sparse bucket table (index → count), ascending by value.
    pub fn buckets(&self) -> &BTreeMap<u32, u64> {
        &self.buckets
    }

    /// The value at quantile `q` in `[0, 1]`: the representative
    /// (bucket-midpoint) value of the sample at rank `ceil(q·count)`,
    /// clamped to the exact observed `[min, max]`. Returns 0 when empty.
    ///
    /// Monotone in `q`, and within one bucket width (≈0.78% relative) of
    /// the true order statistic for positive samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are the exactly tracked min/max samples.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = self.nonpositive;
        if rank <= seen {
            // All we know about underflow samples is that they are ≤ 0;
            // min is exact when the smallest sample was one of them.
            return self.min.min(0.0);
        }
        for (&idx, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                let (lo, hi) = Self::bucket_bounds(idx);
                let mid = if hi.is_finite() { (lo + hi) / 2.0 } else { lo };
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Folds `other`'s samples into `self` by bucket-count addition.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.nonpositive += other.nonpositive;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }
}

/// Namespaced counters, gauges, and histograms for one run.
///
/// Keys are dot-separated paths (`uarch.l1d.hits`, `npu.macs`,
/// `ann.search.candidates`); exporters prepend their subsystem prefix so
/// one registry can hold a whole run without collisions. Insertion uses
/// `BTreeMap` so serialization and iteration order are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `key` (creating it at 0).
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += n;
    }

    /// Adds 1 to the counter `key`.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// The counter `key`, or 0 if never touched.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets the gauge `key`.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// The gauge `key`, if set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Records one sample into the histogram `key`.
    pub fn observe(&mut self, key: &str, value: f64) {
        self.histograms
            .entry(key.to_string())
            .or_default()
            .observe(value);
    }

    /// The histogram `key`, if any samples were observed.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by key.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, sorted by key.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms combine, and
    /// `other`'s gauges win (last-writer semantics, matching how a later
    /// pipeline stage overrides an earlier snapshot of the same gauge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.incr("a.b");
        reg.add("a.b", 4);
        assert_eq!(reg.counter("a.b"), 5);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::default();
        for v in [2.0, -1.0, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 5.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.nonpositive(), 1);
        assert_eq!(h.buckets().values().sum::<u64>(), 2);
    }

    #[test]
    fn bucket_index_is_a_bit_shift() {
        // 1.0 has biased exponent 1023; its index is the exponent and top
        // 7 mantissa bits.
        assert_eq!(Histogram::bucket_index(1.0), 1023 << SUB_BITS);
        // Doubling a value advances the index by exactly one octave.
        assert_eq!(
            Histogram::bucket_index(2.0),
            Histogram::bucket_index(1.0) + (1 << SUB_BITS)
        );
        // Values inside the same 1/128 octave slice share a bucket; the
        // first slice above 1.0 ends at 1 + 1/128 = 1.0078125.
        assert_eq!(Histogram::bucket_index(1.0), Histogram::bucket_index(1.007));
        assert_ne!(Histogram::bucket_index(1.0), Histogram::bucket_index(1.008));
    }

    #[test]
    fn bucket_bounds_bracket_their_members() {
        for v in [1e-9, 0.37, 1.0, 42.0, 1e12] {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            // Relative width stays within the design bound of 1/128.
            assert!((hi - lo) / lo <= 1.0 / 128.0 + 1e-12);
        }
    }

    #[test]
    fn quantiles_land_near_true_order_statistics() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        for (q, truth) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!(
                (got - truth).abs() / truth < 0.01,
                "q{q}: got {got}, want ≈{truth}"
            );
        }
        assert_eq!(h.quantile(0.0), 1.0, "q0 clamps to min");
        assert_eq!(h.quantile(1.0), 1000.0, "q1 clamps to max");
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        let mut h = Histogram::default();
        h.observe(7.5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.5);
        }
    }

    #[test]
    fn quantile_with_nonpositive_underflow() {
        let mut h = Histogram::default();
        h.observe(-3.0);
        h.observe(-1.0);
        h.observe(10.0);
        h.observe(20.0);
        assert_eq!(h.quantile(0.25), -3.0, "underflow reports min");
        assert!(h.quantile(0.75) > 0.0);
        assert_eq!(h.quantile(1.0), 20.0);
    }

    #[test]
    fn merge_equals_whole_stream_on_bucket_state() {
        let samples: Vec<f64> = (0..200).map(|i| 0.1 + (i as f64) * 3.7).collect();
        let mut whole = Histogram::default();
        for &v in &samples {
            whole.observe(v);
        }
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for (i, &v) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max, whole.max);
        assert_eq!(a.nonpositive, whole.nonpositive);
        assert_eq!(a.buckets, whole.buckets);
        assert!((a.sum - whole.sum).abs() < 1e-6 * whole.sum.abs());
    }

    #[test]
    fn merge_combines_all_three_kinds() {
        let mut a = MetricsRegistry::new();
        a.add("hits", 10);
        a.set_gauge("rate", 0.5);
        a.observe("lat", 1.0);

        let mut b = MetricsRegistry::new();
        b.add("hits", 5);
        b.add("misses", 2);
        b.set_gauge("rate", 0.75);
        b.observe("lat", 3.0);

        a.merge(&b);
        assert_eq!(a.counter("hits"), 15);
        assert_eq!(a.counter("misses"), 2);
        assert_eq!(a.gauge("rate"), Some(0.75), "later gauge must win");
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricsRegistry::new();
        a.add("x", 1);
        a.observe("h", 2.0);
        let before = a.clone();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a, before);
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let mut reg = MetricsRegistry::new();
        reg.add("uarch.cycles", 123_456);
        reg.add("npu.macs", 789);
        reg.set_gauge("uarch.ipc", 1.75);
        reg.observe("phase.us", 10.0);
        reg.observe("phase.us", 30.0);
        reg.observe("phase.us", -2.0);
        let json = serde::json::to_string_pretty(&reg);
        let back: MetricsRegistry = serde::json::from_str(&json).unwrap();
        assert_eq!(back, reg);
    }
}
