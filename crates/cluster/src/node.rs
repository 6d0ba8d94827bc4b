//! One simulated fleet node: a whole [`Server`] (with its own devices,
//! per-device circuit breaker, and telemetry) behind a wall-clock fault
//! plan that can crash it, take it down in windows, or delay its
//! deliveries — the failure unit the cluster router routes around.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shmt_serve::{Request, Response, ServeError, Server, SubmitError, Ticket};

use crate::error::ClusterError;

/// A window of wall-clock time during which a node's deliveries are
/// delayed by a fixed extra latency (a "slow node": overloaded NIC,
/// failing disk, noisy neighbor). The node still computes; its answers
/// just arrive late — exactly the tail hedging exists to cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Window start, seconds since the cluster epoch.
    pub from_s: f64,
    /// Window end (exclusive), seconds since the cluster epoch.
    pub until_s: f64,
    /// Extra delivery latency added to requests dispatched inside the
    /// window.
    pub extra: Duration,
}

/// Node-level chaos schedule, evaluated lazily against wall-clock time
/// since the cluster epoch — no timer threads, fully deterministic given
/// the same request arrival times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeFaultPlan {
    /// The node crashes at this instant and never comes back. Requests
    /// in flight at the crash observe a lost connection.
    pub crash_at_s: Option<f64>,
    /// Transient down windows `[from_s, until_s)` — a flapping node.
    /// Submissions inside a window are refused; in-flight requests
    /// observe a lost connection.
    pub down_windows: Vec<(f64, f64)>,
    /// Delivery-delay windows (see [`SlowWindow`]).
    pub slow_windows: Vec<SlowWindow>,
}

impl NodeFaultPlan {
    /// A healthy node: no crash, no windows.
    pub fn none() -> Self {
        NodeFaultPlan::default()
    }

    /// Crashes the node `at_s` seconds after the cluster epoch.
    #[must_use]
    pub fn with_crash_at(mut self, at_s: f64) -> Self {
        self.crash_at_s = Some(at_s);
        self
    }

    /// Adds a transient down window `[from_s, until_s)`.
    #[must_use]
    pub fn with_down_window(mut self, from_s: f64, until_s: f64) -> Self {
        self.down_windows.push((from_s, until_s));
        self
    }

    /// Adds a delivery-delay window.
    #[must_use]
    pub fn with_slow_window(mut self, from_s: f64, until_s: f64, extra: Duration) -> Self {
        self.slow_windows.push(SlowWindow {
            from_s,
            until_s,
            extra,
        });
        self
    }

    /// Whether the plan perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.crash_at_s.is_none() && self.down_windows.is_empty() && self.slow_windows.is_empty()
    }

    /// Whether the node is reachable at `t` seconds after the epoch.
    pub fn available_at(&self, t: f64) -> bool {
        if self.crash_at_s.is_some_and(|c| t >= c) {
            return false;
        }
        !self
            .down_windows
            .iter()
            .any(|&(from, until)| t >= from && t < until)
    }

    /// Extra delivery latency for a request dispatched at `t`.
    pub fn slow_extra_at(&self, t: f64) -> Option<Duration> {
        self.slow_windows
            .iter()
            .find(|w| t >= w.from_s && t < w.until_s)
            .map(|w| w.extra)
    }
}

/// Configuration for one cluster node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's serving layer (executors, queue bound, health breaker,
    /// telemetry).
    pub server: shmt_serve::ServerConfig,
    /// The node's chaos schedule.
    pub faults: NodeFaultPlan,
}

impl NodeConfig {
    /// A healthy node around the given server configuration.
    pub fn new(server: shmt_serve::ServerConfig) -> Self {
        NodeConfig {
            server,
            faults: NodeFaultPlan::none(),
        }
    }

    /// Attaches a chaos schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: NodeFaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig::new(shmt_serve::ServerConfig::default())
    }
}

/// How one dispatch to one node failed, before any cluster-level policy
/// (retry, hedging, budget) is applied.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeError {
    /// The node was crashed or down when the dispatch was attempted.
    Unavailable,
    /// The node went away between dispatch and delivery — the canonical
    /// mid-flight crash: the request is *not* lost, the router retries
    /// it elsewhere.
    ConnectionLost,
    /// The node's admission queue was full (overload, not a fault).
    Busy,
    /// The attempt outlived its per-attempt timeout without a response.
    TimedOut,
    /// The node's serving layer returned a typed failure.
    Serve(ServeError),
}

impl NodeError {
    /// Whether this failure counts as breaker evidence against the node
    /// (availability faults do; overload and request-level failures that
    /// any node would produce do not).
    pub(crate) fn strikes_node(&self) -> bool {
        matches!(
            self,
            NodeError::Unavailable | NodeError::ConnectionLost | NodeError::TimedOut
        )
    }

    pub(crate) fn describe(&self) -> String {
        match self {
            NodeError::Unavailable => "node unavailable".into(),
            NodeError::ConnectionLost => "connection lost mid-flight".into(),
            NodeError::Busy => "node admission queue full".into(),
            NodeError::TimedOut => "attempt timed out".into(),
            NodeError::Serve(e) => format!("serve error: {e}"),
        }
    }
}

/// One simulated node: a full serving stack plus its fault plan and
/// in-flight accounting.
pub(crate) struct ClusterNode {
    pub(crate) id: usize,
    server: Server,
    faults: NodeFaultPlan,
    epoch: Instant,
    inflight: AtomicUsize,
    dispatched: AtomicU64,
}

impl ClusterNode {
    pub(crate) fn new(id: usize, config: NodeConfig, epoch: Instant) -> Result<Self, ClusterError> {
        let server = Server::try_new(config.server)
            .map_err(|e| ClusterError::Request(ServeError::Internal(e.to_string())))?;
        Ok(ClusterNode {
            id,
            server,
            faults: config.faults,
            epoch,
            inflight: AtomicUsize::new(0),
            dispatched: AtomicU64::new(0),
        })
    }

    pub(crate) fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Whether the node is reachable right now.
    pub(crate) fn available(&self) -> bool {
        self.faults.available_at(self.now_s())
    }

    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    pub(crate) fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    pub(crate) fn server(&self) -> &Server {
        &self.server
    }

    pub(crate) fn shutdown(&mut self) {
        self.server.shutdown();
    }

    /// Dispatches a request. The returned ticket must be driven to
    /// resolution or abandoned via [`NodeTicket::abandon`]; both settle
    /// the node's in-flight count exactly once.
    pub(crate) fn submit(&self, mut request: Request) -> Result<NodeTicket, NodeError> {
        let t = self.now_s();
        if !self.faults.available_at(t) {
            return Err(NodeError::Unavailable);
        }
        let cancel = Arc::new(AtomicBool::new(false));
        request = request.with_cancel(Arc::clone(&cancel));
        let ticket = self.server.submit(request).map_err(|e| match e {
            SubmitError::Busy { .. } => NodeError::Busy,
            SubmitError::Shutdown(_) => NodeError::Unavailable,
        })?;
        self.inflight.fetch_add(1, Ordering::Relaxed);
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        let deliver_at = self
            .faults
            .slow_extra_at(t)
            .map(|extra| Instant::now() + extra);
        Ok(NodeTicket {
            node: self.id,
            ticket,
            cancel,
            deliver_at,
            held: None,
            finished: false,
        })
    }

    fn settle(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("id", &self.id)
            .field("inflight", &self.inflight())
            .field("faulted", &!self.faults.is_empty())
            .finish()
    }
}

/// An in-flight dispatch to one node: the serve ticket plus the node's
/// delivery model (slow windows, crash/flap at delivery time).
pub(crate) struct NodeTicket {
    pub(crate) node: usize,
    ticket: Ticket,
    cancel: Arc<AtomicBool>,
    deliver_at: Option<Instant>,
    held: Option<Result<Response, ServeError>>,
    finished: bool,
}

impl NodeTicket {
    /// Blocks up to `slice` for the node's serving layer to produce an
    /// outcome; the outcome is held until [`NodeTicket::poll`] clears
    /// delivery (slow windows delay it, crashes void it). When the
    /// outcome is already held but undeliverable (a slow window), the
    /// slice is slept instead — the waiter must never busy-spin a core
    /// the nodes need.
    pub(crate) fn pump(&mut self, slice: Duration) {
        if self.held.is_none() {
            if let Some(outcome) = self.ticket.wait_timeout(slice) {
                self.held = Some(outcome);
            }
        } else {
            let wait = match self.deliver_at {
                Some(at) => at.saturating_duration_since(Instant::now()).min(slice),
                None => Duration::ZERO,
            };
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }

    /// Non-blocking delivery check. `Some` settles the node's in-flight
    /// count; the ticket must not be polled again afterwards.
    pub(crate) fn poll(&mut self, node: &ClusterNode) -> Option<Result<Response, NodeError>> {
        debug_assert_eq!(node.id, self.node);
        if self.finished {
            return None;
        }
        if self.held.is_none() {
            self.held = self.ticket.try_take();
        }
        if !node.available() {
            // The node crashed or flapped down with this dispatch open:
            // whatever it computed, the reply never arrives. Cancel the
            // inner request (it may still be queued) and report the lost
            // connection so the router can retry elsewhere.
            self.cancel.store(true, Ordering::Relaxed);
            self.finished = true;
            node.settle();
            return Some(Err(NodeError::ConnectionLost));
        }
        if let Some(at) = self.deliver_at {
            if Instant::now() < at {
                return None;
            }
        }
        let outcome = self.held.take()?;
        self.finished = true;
        node.settle();
        Some(match outcome {
            Ok(resp) => Ok(resp),
            Err(e) => Err(NodeError::Serve(e)),
        })
    }

    /// Cancels the dispatch (hedging loser, or a timed-out attempt) and
    /// settles the in-flight count. The inner request observes its
    /// cancellation token at the next cancellation point; a response
    /// nobody reads is simply dropped.
    pub(crate) fn abandon(mut self, node: &ClusterNode) {
        debug_assert_eq!(node.id, self.node);
        self.cancel.store(true, Ordering::Relaxed);
        if !self.finished {
            self.finished = true;
            node.settle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_windows_evaluate_against_epoch_time() {
        let plan = NodeFaultPlan::none()
            .with_down_window(1.0, 2.0)
            .with_slow_window(3.0, 4.0, Duration::from_millis(50))
            .with_crash_at(10.0);
        assert!(plan.available_at(0.5));
        assert!(!plan.available_at(1.5));
        assert!(plan.available_at(2.5));
        assert_eq!(plan.slow_extra_at(3.5), Some(Duration::from_millis(50)));
        assert_eq!(plan.slow_extra_at(4.5), None);
        assert!(!plan.available_at(10.0));
        assert!(!plan.available_at(11.0), "a crash is permanent");
        assert!(!plan.is_empty());
        assert!(NodeFaultPlan::none().is_empty());
    }
}
