//! `shmt-trace` — structured event tracing and metrics for the SHMT
//! reproduction.
//!
//! The runtime and the platform simulator describe a run in *virtual*
//! time: devices execute HLOPs, the bus moves casts and transfers, queues
//! fill and drain, steals rebalance work. This crate captures that story
//! as typed records without perturbing it:
//!
//! * [`EventKind`]/[`TraceRecord`] — the typed event vocabulary, keyed to
//!   virtual seconds (partitioning, sampling overhead, dispatch, casts,
//!   transfers, compute spans, steals, aggregation).
//! * [`TraceSink`] — the capture interface the runtime threads through
//!   every hook. [`NullSink`] is the zero-cost default (tracing compiled
//!   in, but every hook is a no-op and results are bit-identical to an
//!   untraced build); [`TraceRecorder`] collects everything plus
//!   metrics.
//! * [`MetricsRegistry`] — monotonic counters and timestamped gauge
//!   series (queue depths, bus occupancy), plus a fixed-bound
//!   [`Histogram`].
//! * [`Observatory`] — live, mergeable telemetry: streaming log-bucketed
//!   latency histograms (p50/p95/p99/p999 without storing samples) and
//!   per-device online profiles (EWMA throughput per HLOP kind, observed
//!   MAPE, queue depth, quarantine state).
//! * [`chrome`] — a hand-rolled Chrome trace-event JSON exporter (loadable
//!   in Perfetto / `chrome://tracing`) and a reader for round-trip
//!   validation.
//! * [`openmetrics`] — a hand-rolled OpenMetrics/Prometheus text exporter
//!   and parser for everything an [`Observatory`] holds, with
//!   deterministic byte-stable output.
//! * [`summary`] — a plain-text per-device timeline summary.
//! * [`json`] — the tiny dependency-free JSON value model backing the
//!   exporter and reader.
//!
//! No external dependencies: the crate (like the whole workspace) builds
//! with the standard library alone.
//!
//! # Examples
//!
//! ```
//! use shmt_trace::{EventKind, TraceRecorder, TraceSink};
//!
//! let mut rec = TraceRecorder::new();
//! rec.record(0.0, EventKind::ComputeStart { hlop: 0, device: 0 });
//! rec.record(0.5, EventKind::ComputeEnd { hlop: 0, device: 0 });
//! let data = rec.finish();
//! assert_eq!(data.compute_spans().len(), 1);
//! let json = shmt_trace::chrome::to_chrome_json(&data);
//! let back = shmt_trace::chrome::from_chrome_json(&json).unwrap();
//! assert_eq!(back.complete_events().count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod event;
pub mod json;
mod metrics;
mod observatory;
pub mod openmetrics;
mod sink;
pub mod summary;

pub use event::{DeviceId, EventKind, Span, TraceRecord, DEFAULT_DEVICE_NAMES};
pub use metrics::{Histogram, MetricsRegistry};
pub use observatory::{DeviceProfile, Observatory, DEFAULT_EWMA_ALPHA};
pub use sink::{NullSink, TraceData, TraceRecorder, TraceSink};
