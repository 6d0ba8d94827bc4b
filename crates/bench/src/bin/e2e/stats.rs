//! Order statistics and the per-segment summary the host-time metrics
//! rest on. Pure functions over plain slices, so every rule the README
//! states is unit-tested here.

/// Samples a percentile must leave beyond itself before it is reported
/// (choosing-metrics: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. Returns the
/// value and how many samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Whether `n` samples support reporting percentile `p` under the
/// ten-samples-beyond rule.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) >= MIN_BEYOND
}

/// Sorts a copy ascending (NaN-free inputs; latencies and rates).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 for no values, so an inapplicable per-layer metric reads 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for no values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Quartiles by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses — the driver computes run-to-run
/// spread with it, so the A/A table must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (q, slot) in out.iter_mut().enumerate() {
        let pos = (q + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let m = mean(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt() / m
}

/// One segment of the measured phase: a fixed piece of load between two
/// readings of the yardstick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Segment {
    /// Wall seconds the segment's throughput is taken over.
    pub seconds: f64,
    /// Verified-correct responses counted towards throughput.
    pub ok: usize,
    /// Process CPU seconds (user + system) per ok response.
    pub cpu_s_per_ok: f64,
    /// Latencies, in milliseconds, of the segment's ok responses.
    pub latencies_ms: Vec<f64>,
    /// How much slower than nominal the host ran during the segment
    /// (`calib::slowdown` of the readings around it).
    pub slowdown: f64,
}

/// Host-time metrics of a measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTimes {
    /// Median over the segments of ok responses per second.
    pub throughput_rps: f64,
    /// Median of the pooled latencies, milliseconds.
    pub latency_ms_p50: f64,
    /// Nearest-rank p95 of the pooled latencies, milliseconds.
    pub latency_ms_p95: f64,
    /// Samples beyond the p95.
    pub p95_beyond: usize,
    /// Median over the segments of CPU milliseconds per ok response.
    pub cpu_ms_per_req: f64,
    /// Latency samples pooled.
    pub samples: usize,
}

/// Summarises `segments`. With `normalised`, every time is first divided
/// by its segment's slowdown (and every rate multiplied by it), which
/// states it as it would read on a host running at nominal speed; without,
/// the numbers are as measured. `None` when nothing completed.
///
/// Throughput and CPU time are medians over segments — a segment a burst
/// of interference hit is one outlier among many — while the latency
/// percentiles pool every response, so that the p95 has its ten samples
/// beyond it.
pub fn host_times(segments: &[Segment], normalised: bool) -> Option<HostTimes> {
    let live: Vec<&Segment> = segments.iter().filter(|s| s.ok > 0).collect();
    let scale = |s: &Segment| if normalised { s.slowdown } else { 1.0 };
    let mut lat: Vec<f64> = live
        .iter()
        .flat_map(|s| s.latencies_ms.iter().map(|l| l / scale(s)))
        .collect();
    if lat.is_empty() {
        return None;
    }
    lat.sort_by(f64::total_cmp);
    let rps: Vec<f64> = live
        .iter()
        .map(|s| s.ok as f64 / s.seconds * scale(s))
        .collect();
    let cpu: Vec<f64> = live
        .iter()
        .map(|s| s.cpu_s_per_ok * 1e3 / scale(s))
        .collect();
    let (p50, _) = percentile(&lat, 50.0);
    let (p95, beyond) = percentile(&lat, 95.0);
    Some(HostTimes {
        throughput_rps: median(&rps),
        latency_ms_p50: p50,
        latency_ms_p95: p95,
        p95_beyond: beyond,
        cpu_ms_per_req: median(&cpu),
        samples: lat.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 95.0), (95.0, 5));
        assert_eq!(percentile(&v, 100.0), (100.0, 0));
        assert_eq!(percentile(&[7.0], 95.0), (7.0, 0));
        // 200 samples leave exactly ten beyond the p95; 199 leave nine.
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
        assert!(!supports_percentile(0, 95.0));
        // p99 needs a thousand.
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    /// A synthetic run: ten segments of 100 requests at 10 ms each on a
    /// nominal host, with segments 2, 3 and 7 run while the host (and the
    /// yardstick with it) was 1.6 times slower.
    fn synthetic() -> Vec<Segment> {
        (0..10)
            .map(|i| {
                let slowdown = if matches!(i, 2 | 3 | 7) { 1.6 } else { 1.0 };
                Segment {
                    seconds: 1.0 * slowdown,
                    ok: 100,
                    cpu_s_per_ok: 0.010 * slowdown,
                    latencies_ms: vec![10.0 * slowdown; 100],
                    slowdown,
                }
            })
            .collect()
    }

    #[test]
    fn normalising_takes_the_injected_slow_segments_out() {
        let segments = synthetic();
        let n = host_times(&segments, true).expect("segments completed work");
        assert!((n.throughput_rps - 100.0).abs() < 1e-9);
        assert!((n.latency_ms_p50 - 10.0).abs() < 1e-9);
        assert!((n.latency_ms_p95 - 10.0).abs() < 1e-9);
        assert!((n.cpu_ms_per_req - 10.0).abs() < 1e-9);
        assert_eq!((n.samples, n.p95_beyond), (1000, 50));
        // As measured, the stall shows in the tail.
        let raw = host_times(&segments, false).expect("segments completed work");
        assert!((raw.latency_ms_p95 - 16.0).abs() < 1e-9);
        assert!((raw.latency_ms_p50 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_burst_the_yardstick_missed_is_one_outlier_among_segments() {
        let mut segments = synthetic();
        // Interference inside segment 5 that neither reading saw.
        segments[5].seconds = 2.0;
        segments[5].cpu_s_per_ok = 0.02;
        let n = host_times(&segments, true).expect("segments completed work");
        assert!((n.throughput_rps - 100.0).abs() < 1e-9);
        assert!((n.cpu_ms_per_req - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_segments_do_not_count() {
        let mut segments = synthetic();
        segments[0] = Segment::default();
        let n = host_times(&segments, true).expect("nine segments completed work");
        assert_eq!(n.samples, 900);
        assert!(host_times(&[Segment::default()], true).is_none());
        assert!(host_times(&[], false).is_none());
    }
}
