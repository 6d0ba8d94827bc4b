//! Counters, gauge time series, and a fixed-bound histogram.

use std::collections::BTreeMap;

/// One gauge's stored samples plus the decimation state that keeps the
/// series bounded: only every `stride`-th observation is stored, and
/// when the store reaches the registry cap every other retained sample
/// is dropped and the stride doubles. The kept samples are always the
/// observations at indices `0, stride, 2*stride, ...` — deterministic
/// regardless of when the cap was hit.
#[derive(Debug, Clone, PartialEq)]
struct GaugeSeries {
    samples: Vec<(f64, f64)>,
    stride: u64,
    seen: u64,
}

impl Default for GaugeSeries {
    fn default() -> Self {
        GaugeSeries {
            samples: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl GaugeSeries {
    fn push(&mut self, time_s: f64, value: f64, cap: Option<usize>) {
        if self.seen % self.stride == 0 {
            self.samples.push((time_s, value));
            if let Some(cap) = cap {
                if self.samples.len() >= cap {
                    let mut keep = 0;
                    let mut i = 0;
                    while i < self.samples.len() {
                        self.samples[keep] = self.samples[i];
                        keep += 1;
                        i += 2;
                    }
                    self.samples.truncate(keep);
                    self.stride *= 2;
                }
            }
        }
        self.seen += 1;
    }
}

/// A registry of run-level metrics.
///
/// *Counters* are monotonic sums ("bus.bytes", "steals"); *gauges* are
/// timestamped series sampled at event boundaries ("queue.GPU" depth over
/// virtual time, "bus.busy_s" occupancy). `BTreeMap` keeps iteration
/// order deterministic, so exports are stable across runs.
///
/// By default gauge series grow without bound (one sample per event).
/// [`MetricsRegistry::with_gauge_cap`] bounds each series: once a series
/// reaches the cap it is stride-decimated (every other sample dropped,
/// sampling stride doubled), so a 10⁵-event run holds at most `cap`
/// samples per gauge while still spanning the whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, GaugeSeries>,
    gauge_cap: Option<usize>,
}

impl MetricsRegistry {
    /// Creates an empty registry with unbounded gauge series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry whose gauge series each hold at most
    /// `cap` samples (stride-decimated once the cap is reached).
    ///
    /// # Panics
    ///
    /// Panics if `cap < 2` — a one-slot series cannot decimate.
    pub fn with_gauge_cap(cap: usize) -> Self {
        assert!(cap >= 2, "gauge cap must be at least 2");
        MetricsRegistry {
            gauge_cap: Some(cap),
            ..Self::default()
        }
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add_counter(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_owned()).or_insert(0.0) += delta;
    }

    /// Appends a `(time_s, value)` sample to the named gauge series.
    ///
    /// With a gauge cap configured the sample may be decimated away; the
    /// series still counts it as seen.
    pub fn push_gauge(&mut self, name: &str, time_s: f64, value: f64) {
        let cap = self.gauge_cap;
        self.gauges
            .entry(name.to_owned())
            .or_default()
            .push(time_s, value, cap);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The stored samples of a gauge series, in recording order.
    pub fn gauge_series(&self, name: &str) -> &[(f64, f64)] {
        self.gauges.get(name).map_or(&[], |g| g.samples.as_slice())
    }

    /// The peak value a gauge series reached, if it has any samples.
    pub fn gauge_peak(&self, name: &str) -> Option<f64> {
        self.gauge_series(name)
            .iter()
            .map(|&(_, v)| v)
            .reduce(f64::max)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauge series in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &[(f64, f64)])> {
        self.gauges
            .iter()
            .map(|(k, v)| (k.as_str(), v.samples.as_slice()))
    }

    /// `true` when no counter or gauge was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Merges another registry into this one (counters add; the other's
    /// stored gauge samples are re-recorded through this registry's own
    /// cap/decimation).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add_counter(name, value);
        }
        for (name, series) in other.gauges() {
            for &(t, v) in series {
                self.push_gauge(name, t, v);
            }
        }
    }
}

/// A histogram over fixed upper bounds, plus an overflow bucket.
///
/// `bucket_counts()[i]` counts samples `<= bounds[i]` (first matching
/// bound wins), and the final entry counts overflows. The histogram is
/// *streaming*: it also tracks the running sum and the exact maximum, so
/// mean and nearest-rank quantiles (to bucket resolution) come without
/// storing samples. Two histograms with identical bounds can be folded
/// together with [`Histogram::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Ten equal-width buckets over `[0, 1]` — utilization fractions.
    pub fn utilization() -> Self {
        Histogram::new(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    }

    /// Log-spaced buckets for latencies: 1 µs to ~150 s at 1.25× growth
    /// (~85 buckets). Quantiles read from this histogram overestimate
    /// the exact nearest-rank value by at most one bucket — a factor of
    /// 1.25 — which is the resolution the serve layer needs.
    pub fn latency_log() -> Self {
        let mut bounds = Vec::new();
        let mut b = 1.0e-6;
        while b < 150.0 {
            bounds.push(b);
            b *= 1.25;
        }
        Histogram::new(&bounds)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        // partition_point finds the first bound with `value <= bound`,
        // matching the linear first-match semantics in O(log n).
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Folds another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms with
    /// different resolutions would silently corrupt quantiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean of the recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// The exact largest sample recorded, if any.
    pub fn max_value(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Nearest-rank quantile at bucket resolution: the upper bound of
    /// the bucket holding the `ceil(q * total)`-th sample (the exact
    /// observed max for the overflow bucket). `None` when empty.
    ///
    /// The result never underestimates the exact nearest-rank value and
    /// overestimates it by at most one bucket width.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(if i < self.bounds.len() {
                    // A bucket's representative is its upper bound, but
                    // never past the exact observed maximum.
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                });
            }
        }
        unreachable!("cumulative counts must reach total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("bus.bytes"), 0.0);
        m.add_counter("bus.bytes", 100.0);
        m.add_counter("bus.bytes", 24.0);
        assert_eq!(m.counter("bus.bytes"), 124.0);
        assert!(!m.is_empty());
    }

    #[test]
    fn gauges_keep_order_and_peak() {
        let mut m = MetricsRegistry::new();
        m.push_gauge("queue.GPU", 0.0, 3.0);
        m.push_gauge("queue.GPU", 0.5, 5.0);
        m.push_gauge("queue.GPU", 1.0, 1.0);
        assert_eq!(m.gauge_series("queue.GPU").len(), 3);
        assert_eq!(m.gauge_series("queue.GPU")[1], (0.5, 5.0));
        assert_eq!(m.gauge_peak("queue.GPU"), Some(5.0));
        assert_eq!(m.gauge_peak("missing"), None);
    }

    #[test]
    fn merge_adds_counters_and_extends_gauges() {
        let mut a = MetricsRegistry::new();
        a.add_counter("steals", 2.0);
        a.push_gauge("queue.CPU", 0.0, 1.0);
        let mut b = MetricsRegistry::new();
        b.add_counter("steals", 3.0);
        b.push_gauge("queue.CPU", 1.0, 2.0);
        a.merge(&b);
        assert_eq!(a.counter("steals"), 5.0);
        assert_eq!(a.gauge_series("queue.CPU").len(), 2);
    }

    #[test]
    fn gauge_cap_decimates_deterministically() {
        let mut m = MetricsRegistry::with_gauge_cap(64);
        for i in 0..100_000u64 {
            m.push_gauge("queue.GPU", i as f64, i as f64);
        }
        let stored = m.gauge_series("queue.GPU").len();
        assert!(stored <= 64, "cap violated: {stored}");
        assert!(stored >= 16, "over-decimated: {stored}");
        assert_eq!(m.gauges["queue.GPU"].seen, 100_000);
        // Stored samples are the observations at multiples of a single
        // power-of-two stride, so timestamps are evenly spaced.
        let s = m.gauge_series("queue.GPU");
        let stride = s[1].0 - s[0].0;
        assert!(stride >= 1.0 && (stride.log2().fract()).abs() < 1e-12);
        for w in s.windows(2) {
            assert_eq!(w[1].0 - w[0].0, stride);
        }
        assert_eq!(s[0], (0.0, 0.0), "first observation always retained");
    }

    #[test]
    fn uncapped_registry_matches_old_behavior() {
        let mut m = MetricsRegistry::new();
        for i in 0..10_000u64 {
            m.push_gauge("g", i as f64, 1.0);
        }
        assert_eq!(m.gauge_series("g").len(), 10_000);
        assert_eq!(m.gauges["g"].seen, 10_000);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn gauge_cap_rejects_tiny_caps() {
        MetricsRegistry::with_gauge_cap(1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.record(0.5);
        h.record(1.0); // inclusive upper bound
        h.record(1.5);
        h.record(9.0); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 12.0);
        assert_eq!(h.max_value(), Some(9.0));
        assert_eq!(h.mean(), Some(3.0));
    }

    #[test]
    fn record_matches_linear_scan_semantics() {
        // partition_point must agree with the old first-match scan,
        // including the inclusive upper bound.
        let bounds = [0.5, 1.0, 2.0, 4.0];
        for value in [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0] {
            let mut h = Histogram::new(&bounds);
            h.record(value);
            let linear = bounds
                .iter()
                .position(|&b| value <= b)
                .unwrap_or(bounds.len());
            assert_eq!(h.bucket_counts()[linear], 1, "value {value}");
        }
    }

    #[test]
    fn merge_folds_counts_sum_and_max() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        a.record(3.0);
        let mut b = Histogram::new(&[1.0, 2.0]);
        b.record(1.5);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert_eq!(a.sum(), 5.0);
        assert_eq!(a.max_value(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        a.merge(&Histogram::new(&[2.0]));
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..50 {
            h.record(0.5); // bucket <=1.0
        }
        for _ in 0..45 {
            h.record(1.5); // bucket <=2.0
        }
        for _ in 0..5 {
            h.record(8.0); // overflow
        }
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.95), Some(2.0));
        assert_eq!(h.quantile(0.99), Some(8.0), "overflow reports exact max");
        assert_eq!(h.quantile(1.0), Some(8.0));
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let mut h = Histogram::latency_log();
        h.record(3.0e-3);
        assert_eq!(h.quantile(0.5), Some(3.0e-3));
    }

    #[test]
    fn latency_log_spans_microseconds_to_minutes() {
        let h = Histogram::latency_log();
        assert!(h.bounds().first().copied().unwrap() <= 1.0e-6);
        assert!(h.bounds().last().copied().unwrap() >= 100.0);
        assert!(h.bounds().len() < 120, "bucket count stays small");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unordered_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }
}
