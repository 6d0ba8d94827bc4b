//! Capture interfaces: where trace records go.

use crate::event::{EventKind, Span, TraceRecord};
use crate::metrics::MetricsRegistry;

/// The capture interface the runtime and simulator thread through every
/// instrumented hook.
///
/// There is exactly one code path: the untraced entry points call the
/// traced ones with a [`NullSink`], so a traced run and an untraced run
/// execute identical logic and produce bit-identical results — the sink
/// only *observes*. Implementations that don't care about metrics keep
/// the default no-op `counter`/`gauge`.
pub trait TraceSink {
    /// `false` when records are discarded — callers may skip building
    /// expensive event payloads.
    fn enabled(&self) -> bool {
        true
    }

    /// Captures one event at virtual time `time_s`.
    fn record(&mut self, time_s: f64, kind: EventKind);

    /// Adds `delta` to a monotonic counter.
    fn counter(&mut self, _name: &str, _delta: f64) {}

    /// Samples a gauge series at virtual time `time_s`.
    fn gauge(&mut self, _name: &str, _time_s: f64, _value: f64) {}
}

/// The zero-cost default sink: drops everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _time_s: f64, _kind: EventKind) {}
}

/// The full-fidelity sink: collects every record plus all metrics, and
/// finalizes into a [`TraceData`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    records: Vec<TraceRecord>,
    metrics: MetricsRegistry,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records captured so far, in arrival order.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finalizes the capture: records are sorted by virtual time (stably,
    /// so simultaneous events keep their emission order) and packaged
    /// with the metrics.
    pub fn finish(mut self) -> TraceData {
        self.records.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        TraceData {
            records: self.records,
            metrics: self.metrics,
            device_names: crate::DEFAULT_DEVICE_NAMES
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        }
    }
}

impl TraceSink for TraceRecorder {
    fn record(&mut self, time_s: f64, kind: EventKind) {
        self.records.push(TraceRecord { time_s, kind });
    }

    fn counter(&mut self, name: &str, delta: f64) {
        self.metrics.add_counter(name, delta);
    }

    fn gauge(&mut self, name: &str, time_s: f64, value: f64) {
        self.metrics.push_gauge(name, time_s, value);
    }
}

/// A finalized trace: time-ordered records, metrics, device names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Events in ascending virtual time.
    pub records: Vec<TraceRecord>,
    /// Counters and gauge series captured alongside the events.
    pub metrics: MetricsRegistry,
    /// Display names indexed by [`crate::DeviceId`].
    pub device_names: Vec<String>,
}

impl TraceData {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Counts records of the named kind (see [`EventKind::name`]).
    pub fn count(&self, kind_name: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.kind.name() == kind_name)
            .count()
    }

    /// Number of distinct event kinds present.
    pub fn distinct_kinds(&self) -> usize {
        let mut names: Vec<&str> = self.records.iter().map(|r| r.kind.name()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// `true` when timestamps never decrease.
    pub fn is_monotonic(&self) -> bool {
        self.records.windows(2).all(|w| w[0].time_s <= w[1].time_s)
    }

    /// Number of steal events.
    pub fn steals(&self) -> usize {
        self.count("Steal")
    }

    /// Pairs `ComputeStart`/`ComputeEnd` into spans, in start order.
    pub fn compute_spans(&self) -> Vec<Span> {
        self.pair_spans(
            |k| match *k {
                EventKind::ComputeStart { hlop, device } => Some((hlop, device, None)),
                _ => None,
            },
            |k| match *k {
                EventKind::ComputeEnd { hlop, device } => Some((hlop, device)),
                _ => None,
            },
        )
    }

    /// Pairs `CastStart`/`CastEnd` into spans, in start order.
    pub fn cast_spans(&self) -> Vec<Span> {
        self.pair_spans(
            |k| match *k {
                EventKind::CastStart { hlop, device } => Some((hlop, device, None)),
                _ => None,
            },
            |k| match *k {
                EventKind::CastEnd { hlop, device } => Some((hlop, device)),
                _ => None,
            },
        )
    }

    /// Pairs `TransferStart`/`TransferEnd` into spans, in start order.
    pub fn transfer_spans(&self) -> Vec<Span> {
        self.pair_spans(
            |k| match *k {
                EventKind::TransferStart {
                    hlop,
                    device,
                    bytes,
                } => Some((hlop, device, Some(bytes))),
                _ => None,
            },
            |k| match *k {
                EventKind::TransferEnd { hlop, device, .. } => Some((hlop, device)),
                _ => None,
            },
        )
    }

    /// Pairs `GuardVerifyStart`/`GuardVerifyEnd` into spans, in start
    /// order.
    pub fn guard_verify_spans(&self) -> Vec<Span> {
        self.pair_spans(
            |k| match *k {
                EventKind::GuardVerifyStart { hlop, device } => Some((hlop, device, None)),
                _ => None,
            },
            |k| match *k {
                EventKind::GuardVerifyEnd { hlop, device } => Some((hlop, device)),
                _ => None,
            },
        )
    }

    /// Pairs `GuardRepairStart`/`GuardRepairEnd` into spans, in start
    /// order.
    pub fn guard_repair_spans(&self) -> Vec<Span> {
        self.pair_spans(
            |k| match *k {
                EventKind::GuardRepairStart { hlop, device } => Some((hlop, device, None)),
                _ => None,
            },
            |k| match *k {
                EventKind::GuardRepairEnd { hlop, device } => Some((hlop, device)),
                _ => None,
            },
        )
    }

    /// Matches starts to the earliest unmatched end with the same
    /// `(hlop, device)` key. A single HLOP can legitimately open several
    /// spans on one device (e.g. the inbound and outbound cast), so
    /// pairing is positional per key.
    fn pair_spans(
        &self,
        start: impl Fn(&EventKind) -> Option<(usize, crate::DeviceId, Option<usize>)>,
        end: impl Fn(&EventKind) -> Option<(usize, crate::DeviceId)>,
    ) -> Vec<Span> {
        let mut open: Vec<(usize, crate::DeviceId, f64, Option<usize>)> = Vec::new();
        let mut spans = Vec::new();
        for r in &self.records {
            if let Some((hlop, device, bytes)) = start(&r.kind) {
                open.push((hlop, device, r.time_s, bytes));
            } else if let Some((hlop, device)) = end(&r.kind) {
                if let Some(pos) = open
                    .iter()
                    .position(|&(h, d, _, _)| h == hlop && d == device)
                {
                    let (h, d, start_s, bytes) = open.remove(pos);
                    spans.push(Span {
                        device: d,
                        hlop: h,
                        start_s,
                        end_s: r.time_s,
                        bytes,
                    });
                }
            }
        }
        spans.sort_by(|a, b| {
            a.start_s
                .partial_cmp(&b.start_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        spans
    }

    /// Total compute-span seconds per device, indexed by
    /// [`crate::DeviceId`] over `device_names` (defaults to 3 entries).
    pub fn busy_per_device(&self) -> Vec<f64> {
        let n = self.device_names.len().max(3);
        let mut busy = vec![0.0; n];
        for s in self.compute_spans() {
            if s.device < n {
                busy[s.device] += s.duration_s();
            }
        }
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_pair(rec: &mut TraceRecorder, hlop: usize, device: usize, t0: f64, t1: f64) {
        rec.record(t0, EventKind::ComputeStart { hlop, device });
        rec.record(t1, EventKind::ComputeEnd { hlop, device });
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(1.0, EventKind::Aggregate { hlop: 0, device: 0 });
        sink.counter("x", 1.0);
        sink.gauge("y", 0.0, 1.0);
        // Nothing observable — NullSink has no state to inspect.
    }

    #[test]
    fn recorder_finish_sorts_by_time() {
        let mut rec = TraceRecorder::new();
        rec.record(2.0, EventKind::Aggregate { hlop: 1, device: 0 });
        rec.record(0.5, EventKind::Dispatch { hlop: 0, device: 0 });
        rec.record(1.0, EventKind::Dispatch { hlop: 1, device: 1 });
        let data = rec.finish();
        assert!(data.is_monotonic());
        assert_eq!(data.records[0].kind.name(), "Dispatch");
        assert_eq!(data.records[2].kind.name(), "Aggregate");
    }

    #[test]
    fn span_pairing_matches_by_hlop_and_device() {
        let mut rec = TraceRecorder::new();
        // Interleaved spans on two devices plus a re-opened span for the
        // same key (two casts for one HLOP).
        rec.record(0.0, EventKind::CastStart { hlop: 5, device: 2 });
        rec.record(0.1, EventKind::CastEnd { hlop: 5, device: 2 });
        rec.record(0.2, EventKind::CastStart { hlop: 5, device: 2 });
        rec.record(0.3, EventKind::CastEnd { hlop: 5, device: 2 });
        compute_pair(&mut rec, 1, 0, 0.0, 0.4);
        compute_pair(&mut rec, 2, 1, 0.1, 0.2);
        let data = rec.finish();
        let casts = data.cast_spans();
        assert_eq!(casts.len(), 2);
        assert!((casts[0].duration_s() - 0.1).abs() < 1e-12);
        let computes = data.compute_spans();
        assert_eq!(computes.len(), 2);
        assert_eq!(computes[0].hlop, 1);
        assert_eq!(computes[1].hlop, 2);
    }

    #[test]
    fn busy_per_device_sums_compute_spans() {
        let mut rec = TraceRecorder::new();
        compute_pair(&mut rec, 0, 0, 0.0, 0.5);
        compute_pair(&mut rec, 1, 0, 0.5, 0.75);
        compute_pair(&mut rec, 2, 2, 0.0, 0.1);
        let data = rec.finish();
        let busy = data.busy_per_device();
        assert!((busy[0] - 0.75).abs() < 1e-12);
        assert_eq!(busy[1], 0.0);
        assert!((busy[2] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trace_metrics_flow_through_recorder() {
        let mut rec = TraceRecorder::new();
        rec.counter("steals", 1.0);
        rec.counter("steals", 1.0);
        rec.gauge("queue.GPU", 0.0, 4.0);
        let data = rec.finish();
        assert_eq!(data.metrics.counter("steals"), 2.0);
        assert_eq!(data.metrics.gauge_series("queue.GPU").len(), 1);
    }

    #[test]
    fn distinct_kind_counting() {
        let mut rec = TraceRecorder::new();
        rec.record(0.0, EventKind::Dispatch { hlop: 0, device: 0 });
        rec.record(0.0, EventKind::Dispatch { hlop: 1, device: 1 });
        rec.record(
            1.0,
            EventKind::Steal {
                hlop: 1,
                from: 1,
                to: 0,
            },
        );
        let data = rec.finish();
        assert_eq!(data.count("Dispatch"), 2);
        assert_eq!(data.distinct_kinds(), 2);
        assert_eq!(data.steals(), 1);
    }
}
