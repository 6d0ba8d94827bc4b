//! Live, mergeable telemetry: streaming latency histograms plus
//! per-device *online profiles*.
//!
//! The [`Observatory`] is fed span completions (in virtual time), quality
//! observations, and queue depths as requests finish, and answers
//! "how fast is each device right now?" without ever storing raw
//! samples. Latencies go into log-bucketed [`Histogram`]s (p50/p95/p99/
//! p999 at bucket resolution); device behavior goes into EWMA profiles
//! keyed by HLOP kind. Everything is mergeable, so per-worker
//! observatories can fold into one, and everything renders through the
//! [`crate::openmetrics`] exporter.

use std::collections::BTreeMap;

use crate::event::{DeviceId, DEFAULT_DEVICE_NAMES};
use crate::metrics::{Histogram, MetricsRegistry};

/// Default EWMA smoothing factor: each new observation carries 25% of
/// the updated estimate, so profiles converge within ~a dozen requests
/// while still damping single-request noise.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.25;

/// What the observatory currently believes about one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Display name ("GPU", "CPU", "EdgeTPU").
    pub name: String,
    /// Span completions observed (including spans that carried no
    /// throughput information).
    pub spans: u64,
    /// Total busy time across *throughput-bearing* spans (positive busy
    /// time and a nonzero element count), virtual seconds.
    pub busy_s: f64,
    /// Total elements across throughput-bearing spans — the same
    /// inclusion rule as `busy_s` and the EWMAs, so the lifetime mean
    /// and the EWMA agree on which spans count.
    pub elements: u64,
    /// EWMA throughput per HLOP kind, elements per virtual second.
    pub ewma_throughput: BTreeMap<String, f64>,
    /// Throughput-bearing spans folded into each kind's EWMA — the
    /// confidence weight behind `ewma_throughput`.
    pub kind_spans: BTreeMap<String, u64>,
    /// EWMA of observed approximation error (MAPE), if any was reported.
    pub ewma_mape: Option<f64>,
    /// Observations folded into `ewma_mape` — its confidence weight.
    pub mape_observations: u64,
    /// Most recent queue depth reported for this device.
    pub queue_depth: f64,
    /// Whether the health breaker currently holds this device out.
    pub quarantined: bool,
}

impl DeviceProfile {
    fn new(name: &str) -> Self {
        DeviceProfile {
            name: name.to_owned(),
            spans: 0,
            busy_s: 0.0,
            elements: 0,
            ewma_throughput: BTreeMap::new(),
            kind_spans: BTreeMap::new(),
            ewma_mape: None,
            mape_observations: 0,
            queue_depth: 0.0,
            quarantined: false,
        }
    }

    /// Lifetime-average throughput (elements per busy second) across
    /// all kinds, if anything was observed. Covers exactly the spans
    /// that fed the EWMAs.
    pub fn mean_throughput(&self) -> Option<f64> {
        (self.busy_s > 0.0).then(|| self.elements as f64 / self.busy_s)
    }

    /// Confidence weight behind one kind's EWMA throughput.
    fn kind_span_count(&self, kind: &str) -> u64 {
        self.kind_spans.get(kind).copied().unwrap_or(0)
    }
}

fn ewma(prev: Option<f64>, value: f64, alpha: f64) -> f64 {
    match prev {
        None => value,
        Some(p) => alpha * value + (1.0 - alpha) * p,
    }
}

/// Streaming telemetry store: latency histograms, per-device online
/// profiles, and a metrics registry, all updatable live and mergeable.
#[derive(Debug, Clone, PartialEq)]
pub struct Observatory {
    alpha: f64,
    profiles: Vec<DeviceProfile>,
    histograms: BTreeMap<String, Histogram>,
    metrics: MetricsRegistry,
}

impl Default for Observatory {
    fn default() -> Self {
        Self::new()
    }
}

impl Observatory {
    /// An observatory over the default device roster with the default
    /// smoothing factor.
    pub fn new() -> Self {
        Self::with_alpha(DEFAULT_EWMA_ALPHA)
    }

    /// An observatory with a custom EWMA smoothing factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    fn with_alpha(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        Observatory {
            alpha,
            profiles: DEFAULT_DEVICE_NAMES
                .iter()
                .map(|n| DeviceProfile::new(n))
                .collect(),
            histograms: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Grows the roster so `device` is a valid index, synthesizing
    /// names for devices beyond the default roster (e.g. ids that only
    /// exist on a merged shard), and returns the profile.
    fn profile_mut(&mut self, device: DeviceId) -> &mut DeviceProfile {
        while self.profiles.len() <= device {
            let id = self.profiles.len();
            let name = DEFAULT_DEVICE_NAMES
                .get(id)
                .map_or_else(|| format!("device{id}"), |n| (*n).to_owned());
            self.profiles.push(DeviceProfile::new(&name));
        }
        &mut self.profiles[device]
    }

    /// Feeds one span completion: `device` spent `busy_s` virtual
    /// seconds computing `elements` elements of an HLOP of `kind`.
    /// Updates the device's EWMA throughput for that kind. Unknown
    /// device ids grow the roster instead of panicking.
    ///
    /// Spans with no positive busy time or no elements carry no
    /// throughput information; they bump the raw span count but are
    /// excluded from the totals and the EWMA alike.
    pub fn observe_span(&mut self, device: DeviceId, kind: &str, elements: u64, busy_s: f64) {
        let alpha = self.alpha;
        let p = self.profile_mut(device);
        p.spans += 1;
        if busy_s > 0.0 && elements > 0 {
            p.busy_s += busy_s;
            p.elements += elements;
            let inst = elements as f64 / busy_s;
            let prev = p.ewma_throughput.get(kind).copied();
            p.ewma_throughput
                .insert(kind.to_owned(), ewma(prev, inst, alpha));
            *p.kind_spans.entry(kind.to_owned()).or_insert(0) += 1;
        }
    }

    /// Feeds one quality observation (a MAPE estimate attributed to
    /// `device`, typically the approximating NPU). Unknown device ids
    /// grow the roster instead of panicking.
    pub fn observe_mape(&mut self, device: DeviceId, mape: f64) {
        let alpha = self.alpha;
        let p = self.profile_mut(device);
        p.ewma_mape = Some(ewma(p.ewma_mape, mape, alpha));
        p.mape_observations += 1;
    }

    /// Records the latest queue depth for a device. Unknown device ids
    /// grow the roster instead of panicking.
    pub fn set_queue_depth(&mut self, device: DeviceId, depth: f64) {
        self.profile_mut(device).queue_depth = depth;
    }

    /// Records the health breaker's current verdict for a device.
    /// Unknown device ids grow the roster instead of panicking.
    pub fn set_quarantined(&mut self, device: DeviceId, quarantined: bool) {
        self.profile_mut(device).quarantined = quarantined;
    }

    /// Records one latency sample into the named log-bucketed histogram
    /// (created on first use with [`Histogram::latency_log`] bounds).
    pub fn record_latency(&mut self, name: &str, seconds: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(Histogram::latency_log)
            .record(seconds);
    }

    /// The named latency histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All device profiles, in device-id order.
    pub fn profiles(&self) -> &[DeviceProfile] {
        &self.profiles
    }

    /// One device's profile, or `None` for a device id the observatory
    /// has never been told about (reads never grow the roster).
    pub fn profile(&self, device: DeviceId) -> Option<&DeviceProfile> {
        self.profiles.get(device)
    }

    /// The embedded metrics registry (counters and gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the embedded metrics registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Folds an external registry's counters and gauges into this
    /// observatory's metrics.
    pub fn merge_registry(&mut self, registry: &MetricsRegistry) {
        self.metrics.merge(registry);
    }

    /// Folds another observatory into this one: histograms with the
    /// same name merge bucket-wise, metrics merge, and device profiles
    /// combine (totals add; each EWMA averages weighted by *its own*
    /// observation count, so a side that never observed a kind or a
    /// MAPE neither dilutes nor discards the side that did; queue depth
    /// takes the max; quarantine ORs). A shard with more devices grows
    /// this roster.
    ///
    /// # Panics
    ///
    /// Panics if same-named histograms have different bounds.
    pub fn merge(&mut self, other: &Observatory) {
        for (name, hist) in other.histograms() {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.to_owned(), hist.clone());
                }
            }
        }
        self.metrics.merge(&other.metrics);
        if other.profiles.len() > self.profiles.len() {
            self.profile_mut(other.profiles.len() - 1);
        }
        for (mine, theirs) in self.profiles.iter_mut().zip(&other.profiles) {
            // Weighted blend of two estimates by their evidence counts.
            // Both weights zero only for pre-count legacy data: fall
            // back to a plain average rather than dividing by zero.
            let blend = |a: f64, wa: f64, b: f64, wb: f64| {
                if wa + wb > 0.0 {
                    (a * wa + b * wb) / (wa + wb)
                } else {
                    (a + b) / 2.0
                }
            };
            for (kind, &v) in &theirs.ewma_throughput {
                let wo = theirs.kind_span_count(kind) as f64;
                let merged = match mine.ewma_throughput.get(kind).copied() {
                    Some(a) => blend(a, mine.kind_span_count(kind) as f64, v, wo),
                    None => v,
                };
                mine.ewma_throughput.insert(kind.clone(), merged);
            }
            for (kind, &n) in &theirs.kind_spans {
                *mine.kind_spans.entry(kind.clone()).or_insert(0) += n;
            }
            mine.ewma_mape = match (mine.ewma_mape, theirs.ewma_mape) {
                (Some(a), Some(b)) => Some(blend(
                    a,
                    mine.mape_observations as f64,
                    b,
                    theirs.mape_observations as f64,
                )),
                (a, b) => a.or(b),
            };
            mine.mape_observations += theirs.mape_observations;
            mine.spans += theirs.spans;
            mine.busy_s += theirs.busy_s;
            mine.elements += theirs.elements;
            mine.queue_depth = mine.queue_depth.max(theirs.queue_depth);
            mine.quarantined |= theirs.quarantined;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_update_totals_and_ewma() {
        let mut obs = Observatory::new();
        obs.observe_span(0, "Sobel", 1000, 0.001); // 1e6 elem/s
        let p = obs.profile(0).unwrap();
        assert_eq!(p.spans, 1);
        assert_eq!(p.elements, 1000);
        assert_eq!(p.kind_span_count("Sobel"), 1);
        assert_eq!(p.ewma_throughput["Sobel"], 1.0e6, "first sets directly");
        obs.observe_span(0, "Sobel", 1000, 0.002); // 5e5 elem/s
        let t = obs.profile(0).unwrap().ewma_throughput["Sobel"];
        assert!((t - (0.25 * 5.0e5 + 0.75 * 1.0e6)).abs() < 1e-6);
        assert_eq!(
            obs.profile(0).unwrap().mean_throughput(),
            Some(2000.0 / 0.003)
        );
    }

    #[test]
    fn mean_throughput_and_ewma_share_one_inclusion_rule() {
        let mut obs = Observatory::new();
        obs.observe_span(0, "Sobel", 1000, 0.001); // 1e6 elem/s
                                                   // Zero-busy and zero-element spans carry no throughput signal:
                                                   // neither the EWMA nor the lifetime totals may count them.
        obs.observe_span(0, "Sobel", 5000, 0.0);
        obs.observe_span(0, "Sobel", 0, 0.5);
        let p = obs.profile(0).unwrap();
        assert_eq!(p.spans, 3, "raw span count still sees every call");
        assert_eq!(p.elements, 1000);
        assert_eq!(p.busy_s, 0.001);
        assert_eq!(p.kind_span_count("Sobel"), 1);
        assert_eq!(
            p.mean_throughput(),
            Some(1.0e6),
            "lifetime mean must agree with the EWMA on which spans count"
        );
        assert_eq!(p.ewma_throughput["Sobel"], 1.0e6);
    }

    #[test]
    fn unknown_device_ids_grow_the_roster_instead_of_panicking() {
        let mut obs = Observatory::new();
        assert_eq!(obs.profiles.len(), 3);
        obs.observe_span(5, "Sobel", 100, 0.001);
        obs.observe_mape(4, 0.1);
        obs.set_queue_depth(3, 2.0);
        obs.set_quarantined(5, true);
        assert_eq!(obs.profiles.len(), 6);
        assert_eq!(obs.profile(5).unwrap().name, "device5");
        assert_eq!(obs.profile(0).unwrap().name, "GPU");
        assert!(obs.profile(5).unwrap().quarantined);
        assert_eq!(obs.profile(4).unwrap().mape_observations, 1);
        assert!(obs.profile(9).is_none(), "reads never grow the roster");
    }

    #[test]
    fn ewma_converges_to_a_sustained_slowdown() {
        let mut obs = Observatory::new();
        obs.observe_span(0, "Fft", 1000, 0.001); // healthy: 1e6
        for _ in 0..24 {
            obs.observe_span(0, "Fft", 1000, 0.004); // 4x slower: 2.5e5
        }
        let t = obs.profile(0).unwrap().ewma_throughput["Fft"];
        let ratio = t / 1.0e6;
        assert!(
            (ratio - 0.25).abs() < 0.01,
            "EWMA should converge to the slowdown ratio, got {ratio}"
        );
    }

    #[test]
    fn mape_queue_and_quarantine_are_tracked() {
        let mut obs = Observatory::new();
        assert_eq!(obs.profile(2).unwrap().ewma_mape, None);
        obs.observe_mape(2, 0.10);
        obs.observe_mape(2, 0.20);
        let p = obs.profile(2).unwrap();
        let m = p.ewma_mape.unwrap();
        assert!((m - (0.25 * 0.20 + 0.75 * 0.10)).abs() < 1e-12);
        assert_eq!(p.mape_observations, 2);
        obs.set_queue_depth(1, 7.0);
        obs.set_quarantined(2, true);
        assert_eq!(obs.profile(1).unwrap().queue_depth, 7.0);
        assert!(obs.profile(2).unwrap().quarantined);
    }

    #[test]
    fn latency_histograms_stream_quantiles() {
        let mut obs = Observatory::new();
        for i in 1..=100 {
            obs.record_latency("serve.service_seconds", i as f64 * 1.0e-3);
        }
        let h = obs.histogram("serve.service_seconds").unwrap();
        assert_eq!(h.total(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.050..=0.050 * 1.25).contains(&p50), "p50 {p50}");
        let p999 = h.quantile(0.999).unwrap();
        assert!((0.100..=0.100 * 1.25).contains(&p999), "p999 {p999}");
    }

    #[test]
    fn merge_folds_histograms_profiles_and_metrics() {
        let mut a = Observatory::new();
        let mut b = Observatory::new();
        a.record_latency("serve.service_seconds", 0.010);
        b.record_latency("serve.service_seconds", 0.020);
        b.record_latency("serve.queue_wait_seconds", 0.001);
        a.observe_span(0, "Sobel", 100, 0.001);
        b.observe_span(0, "Sobel", 300, 0.001);
        b.set_quarantined(2, true);
        a.metrics_mut().add_counter("serve.completed", 1.0);
        b.metrics_mut().add_counter("serve.completed", 2.0);

        a.merge(&b);
        assert_eq!(a.histogram("serve.service_seconds").unwrap().total(), 2);
        assert_eq!(a.histogram("serve.queue_wait_seconds").unwrap().total(), 1);
        let p = a.profile(0).unwrap();
        assert_eq!(p.spans, 2);
        assert_eq!(p.elements, 400);
        assert_eq!(p.kind_span_count("Sobel"), 2);
        // Equal span weights: blend of 1e5 and 3e5.
        assert!((p.ewma_throughput["Sobel"] - 2.0e5).abs() < 1e-6);
        assert!(a.profile(2).unwrap().quarantined);
        assert_eq!(a.metrics().counter("serve.completed"), 3.0);
    }

    #[test]
    fn merge_preserves_one_sided_ewmas() {
        // `a` has throughput spans but no MAPE; `b` has MAPE but no
        // spans. The merge must keep both estimates intact instead of
        // discarding the populated side or averaging it toward zero.
        let mut a = Observatory::new();
        let mut b = Observatory::new();
        a.observe_span(2, "Sobel", 1000, 0.001);
        b.observe_mape(2, 0.30);
        a.merge(&b);
        let p = a.profile(2).unwrap();
        assert_eq!(p.ewma_throughput["Sobel"], 1.0e6);
        assert_eq!(p.ewma_mape, Some(0.30), "mape-only side must survive");
        assert_eq!(p.mape_observations, 1);

        // One side observed a kind the other never saw: its EWMA passes
        // through unweighted by the other side's unrelated spans.
        let mut c = Observatory::new();
        c.observe_span(2, "Fft", 4000, 0.001); // 4e6 elem/s, Fft only
        a.merge(&c);
        let p = a.profile(2).unwrap();
        assert_eq!(p.ewma_throughput["Fft"], 4.0e6);
        assert_eq!(p.ewma_throughput["Sobel"], 1.0e6, "unseen kind untouched");
    }

    #[test]
    fn merge_mape_weights_use_mape_observations_not_spans() {
        // `a`: many spans, one MAPE observation. `b`: no spans, three
        // MAPE observations. Span counts must not skew the MAPE blend.
        let mut a = Observatory::new();
        let mut b = Observatory::new();
        for _ in 0..9 {
            a.observe_span(2, "Sobel", 1000, 0.001);
        }
        a.observe_mape(2, 0.10);
        for _ in 0..3 {
            b.observe_mape(2, 0.40);
        }
        a.merge(&b);
        let m = a.profile(2).unwrap().ewma_mape.unwrap();
        let expected = (0.10 * 1.0 + 0.40 * 3.0) / 4.0;
        assert!(
            (m - expected).abs() < 1e-12,
            "got {m}, expected {expected} (1:3 by mape observations)"
        );
        assert_eq!(a.profile(2).unwrap().mape_observations, 4);
    }

    #[test]
    fn merge_grows_to_the_larger_roster() {
        let mut a = Observatory::new();
        let mut b = Observatory::new();
        b.observe_span(4, "Sobel", 100, 0.001);
        a.merge(&b);
        assert_eq!(a.profiles.len(), 5);
        assert_eq!(a.profile(4).unwrap().elements, 100);
        assert_eq!(a.profile(4).unwrap().name, "device4");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        Observatory::with_alpha(0.0);
    }
}
