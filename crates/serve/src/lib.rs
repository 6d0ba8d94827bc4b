//! # shmt-serve — concurrent multi-VOP serving for the SHMT runtime
//!
//! The core runtime executes one VOP per [`shmt::ShmtRuntime::execute`]
//! call. This crate turns that into a *serving layer*: a [`Server`] owns a
//! small team of executor threads, accepts many concurrent VOP requests
//! through a **bounded admission queue**, and runs each request through
//! its own `ShmtRuntime` instance. All requests share one persistent host
//! compute pool ([`shmt::pool::ComputePool::global`]), so concurrent runs
//! interleave their tile computations instead of each spinning up private
//! workers — the paper's virtual device (§3.3) multiplexed across users,
//! in the shape PipeSwitch and Clockwork (OSDI '20) established for model
//! serving.
//!
//! The contract, end to end:
//!
//! * **Backpressure, not buffering** — [`Server::submit`] returns
//!   [`SubmitError::Busy`] (handing the request back) the moment the
//!   admission queue is full; [`Server::submit_blocking`] waits for a
//!   slot instead. The queue never grows beyond its configured bound.
//! * **Deadlines, not hangs** — every request carries an optional
//!   deadline (falling back to the server default). A request whose
//!   deadline lapses while queued is failed with
//!   [`ServeError::DeadlineExceeded`] without touching a device, and
//!   [`Ticket::wait_timeout`] bounds the caller's own wait.
//! * **Observability** — per-request queue-wait and service-time samples
//!   flow into [`shmt_trace::MetricsRegistry`] counters and into the
//!   streaming log-bucketed latency histograms (no stored samples) of a
//!   live [`shmt_trace::Observatory`], which also keeps per-device EWMA
//!   throughput profiles, observed MAPE, queue depths and quarantine
//!   state. It is exposed via [`Server::observatory`] and rendered as an
//!   OpenMetrics text exposition by [`Server::export_openmetrics`].
//! * **Flight recording** — every request leaves a compact
//!   [`FlightRecord`] in a bounded ring; anomalies (deadline misses,
//!   quality repairs, quarantines, dropout re-dispatches, failures) dump
//!   the ring as `flight_<seq>.json` when a dump directory is configured
//!   ([`FlightConfig`]), so failures arrive self-explaining.
//! * **Quality SLOs, not silent degradation** — a request may carry
//!   [`Request::with_max_mape`]; the executor then runs the runtime's
//!   quality guard with that budget and fails the request with
//!   [`ServeError::QualityUnattainable`] rather than serve over-budget
//!   output. Every [`Response`] says whether it was produced
//!   [`Response::degraded`].
//! * **Device health** — completed requests feed a per-device circuit
//!   breaker ([`HealthConfig`]): repeated dropouts or guard repairs
//!   quarantine a device, quarantined devices are masked out of incoming
//!   requests (never the last one), and periodic probes reintegrate a
//!   device once it runs clean ([`Server::device_health`]). The state
//!   machine itself is [`Breaker`], public because the cluster router
//!   runs the same one over nodes.
//! * **QoS classes** — every request carries a [`Priority`]
//!   (`Interactive`, `Batch` — the default — or `BestEffort`); the
//!   admission queue is drained by priority-weighted stride scheduling,
//!   so foreground traffic is dequeued ahead of scavenger traffic
//!   without starving it.
//! * **Determinism** — serving changes *when* a VOP runs, never *what* it
//!   computes: a plan depends only on its own request, so outputs are
//!   bit-identical to a sequential `ShmtRuntime::execute` of the same
//!   request.
//!
//! ```
//! use shmt::{Platform, Policy, RuntimeConfig, Vop};
//! use shmt_serve::{Request, Server, ServerConfig};
//! use shmt_kernels::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::new(ServerConfig::default());
//! let b = Benchmark::Sobel;
//! let vop = Vop::from_benchmark(b, b.generate_inputs(64, 64, 1))?;
//! let req = Request::new(vop, Platform::jetson(b), RuntimeConfig::new(Policy::WorkStealing));
//! let ticket = server.submit_blocking(req).expect("server running");
//! let response = ticket.wait()?;
//! println!("served in {:?}", response.service_time);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod breaker;
mod error;
mod flight;
mod health;
mod server;

pub use breaker::{Breaker, HealthConfig, HealthDelta, SlotHealth};
pub use error::{ServeError, SubmitError};
pub use flight::{Anomaly, FlightConfig, FlightRecord, FlightRecorder};
pub use server::{Payload, Priority, Request, Response, Server, ServerConfig, Ticket};
