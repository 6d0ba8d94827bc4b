//! Fleet-scale SHMT serving: a simulated cluster of serving nodes
//! behind a fault-domain router.
//!
//! Each node ([`NodeConfig`]) is a full [`shmt_serve::Server`] — its own
//! virtual devices, per-device circuit breaker, admission queue, and
//! telemetry — wrapped in a wall-clock [`NodeFaultPlan`] that can crash
//! it, flap it down, or delay its deliveries. The [`ClusterRouter`] in front makes the fleet
//! dependable out of undependable parts:
//!
//! - **Scoring dispatch** — load, per-node observed-latency EWMA
//!   profiles, locality affinity, and quality SLOs (nodes with a
//!   quarantined TPU repel accuracy-sensitive traffic) pick the target
//!   ([`ScoreWeights`]).
//! - **Node-level circuit breaking** — availability failures quarantine
//!   a node; a single-flight probe reintegrates it
//!   ([`ClusterConfig::breaker`]) — the serve crate's
//!   [`shmt_serve::Breaker`] with one slot per node and the clock ticking
//!   once per routed request. Quarantine can stall but never stick, and
//!   the fleet never masks its last capable node.
//! - **Budgeted retries** — bounded attempts with capped, deadline-aware
//!   backoff ([`RetryConfig`]), each paid for from a cluster-wide token
//!   bucket ([`RetryBudgetConfig`]) so retries cannot storm a degraded
//!   fleet.
//! - **Tail-latency hedging** — after a delay derived from the observed
//!   p95, a duplicate goes to a second node; first response wins and the
//!   loser is canceled through its request's cancellation token
//!   ([`HedgeConfig`]).
//! - **Graceful degradation** — under overload, admission sheds
//!   BestEffort before Batch before Interactive with a typed
//!   [`ClusterError::Shed`] ([`ShedConfig`]).
//!
//! The [`loadgen`] module lays out seeded open-loop arrival schedules
//! (Poisson, bursty, diurnal) to drive the fleet with. No routed request
//! ever hangs and none is lost — each resolves to a [`ClusterResponse`]
//! or a typed [`ClusterError`].

#![warn(missing_docs)]

mod budget;
mod error;
pub mod loadgen;
mod node;
mod router;

pub use budget::{BudgetStats, RetryBudgetConfig};
pub use error::ClusterError;
pub use node::{NodeConfig, NodeFaultPlan, SlowWindow};
pub use router::{
    ClusterConfig, ClusterResponse, ClusterRouter, HedgeConfig, RetryConfig, RouteOptions,
    ScoreWeights, ShedConfig,
};
