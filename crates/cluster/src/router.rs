//! The cluster router: dispatch by load/locality/quality-SLO with
//! failover, bounded budgeted retries, tail-latency hedging, and
//! graceful degradation — robust by construction, so no routed request
//! ever hangs and none is silently lost.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use shmt::sched::TPU;
use shmt_serve::{Breaker, HealthConfig, Priority, Request, Response, ServeError, SlotHealth};
use shmt_trace::{MetricsRegistry, Observatory};

use crate::budget::{BudgetStats, RetryBudget, RetryBudgetConfig};
use crate::error::ClusterError;
use crate::node::{ClusterNode, NodeConfig, NodeError, NodeTicket};

/// Granularity of the router's in-flight polling (the wait itself blocks
/// on the serve ticket's condvar, so this costs wakeups, not spin).
const POLL_SLICE: Duration = Duration::from_micros(500);

/// Stand-in horizon for deadline-less requests (routing math only).
const FOREVER: Duration = Duration::from_secs(3600);

/// Tail-latency hedging policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Master switch.
    pub enabled: bool,
    /// Quantile of the observed cluster latency distribution the hedge
    /// delay derives from (0.95 hedges the slowest ~5% of requests).
    pub quantile: f64,
    /// Latency samples required before the derived delay is trusted;
    /// until then the delay is `max_delay` (hedge late, not eagerly).
    pub min_samples: u64,
    /// Clamp floor for the derived delay.
    pub min_delay: Duration,
    /// Clamp ceiling for the derived delay, and the cold-start delay.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            quantile: 0.95,
            min_samples: 64,
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Retry policy: bounded attempts with capped exponential backoff. Every
/// retry additionally needs a token from the cluster-wide
/// [`RetryBudgetConfig`] bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total tries per request (first attempt included).
    pub max_attempts: usize,
    /// Base backoff before the second try; doubles per try.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
        }
    }
}

/// Overload shedding: per-class ceilings on cluster-wide in-flight
/// requests. BestEffort sheds first, then Batch, then Interactive —
/// graceful degradation instead of unbounded queueing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// Master switch.
    pub enabled: bool,
    /// In-flight ceiling for Interactive traffic (the hard cap).
    pub capacity: usize,
    /// Fraction of `capacity` at which Batch sheds.
    pub batch_fraction: f64,
    /// Fraction of `capacity` at which BestEffort sheds.
    pub best_effort_fraction: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            enabled: true,
            capacity: 64,
            batch_fraction: 0.75,
            best_effort_fraction: 0.5,
        }
    }
}

/// Weights of the router's node-scoring terms (lowest score wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreWeights {
    /// Per in-flight request on the node (load balancing).
    pub load: f64,
    /// Penalty scale for nodes observed slower than the fleet's best
    /// (per-node EWMA latency profiles; the penalty is capped at 4x).
    pub perf: f64,
    /// Bonus for the node an affinity key hashes to (cache locality).
    pub locality: f64,
    /// Penalty for routing a quality-SLO request to a node whose TPU is
    /// quarantined (its approximate path is suspect).
    pub quality: f64,
    /// Penalty scale for accumulated breaker strikes short of
    /// quarantine.
    pub pressure: f64,
}

impl Default for ScoreWeights {
    fn default() -> Self {
        ScoreWeights {
            load: 1.0,
            perf: 1.0,
            locality: 0.5,
            quality: 2.0,
            pressure: 2.0,
        }
    }
}

/// Full router configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The fleet: one serving stack + fault plan per node.
    pub nodes: Vec<NodeConfig>,
    /// Node-level circuit breaker: consecutive availability strikes
    /// (unreachable at dispatch, connection lost mid-flight, attempt
    /// timeout) that quarantine a node, and routed requests before one
    /// probes it.
    pub breaker: HealthConfig,
    /// Cluster-wide retry budget.
    pub budget: RetryBudgetConfig,
    /// Tail-latency hedging.
    pub hedge: HedgeConfig,
    /// Bounded backoff retries.
    pub retry: RetryConfig,
    /// Overload shedding.
    pub shed: ShedConfig,
    /// Node-scoring weights.
    pub score: ScoreWeights,
    /// Ceiling on any single dispatch's wait before the router strikes
    /// the node and moves on — the backstop that makes hangs impossible
    /// even with no deadline set.
    pub attempt_timeout: Duration,
}

impl ClusterConfig {
    /// `n` identically configured healthy nodes with default policies.
    pub fn with_nodes(n: usize) -> Self {
        ClusterConfig {
            nodes: (0..n.max(1)).map(|_| NodeConfig::default()).collect(),
            breaker: HealthConfig {
                enabled: true,
                quarantine_after: 2,
                probe_after: 8,
            },
            budget: RetryBudgetConfig::default(),
            hedge: HedgeConfig::default(),
            retry: RetryConfig::default(),
            shed: ShedConfig::default(),
            score: ScoreWeights::default(),
            attempt_timeout: Duration::from_secs(1),
        }
    }
}

/// Routing-level options for one request: QoS class, deadline, locality
/// affinity, and quality SLO.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteOptions {
    /// QoS class: orders both shedding (BestEffort first) and each
    /// node's admission queue.
    pub priority: Priority,
    /// End-to-end deadline across all retries and hedges.
    pub deadline: Option<Duration>,
    /// Locality key: requests sharing a key prefer the same node.
    pub affinity: Option<u64>,
    /// Quality SLO stamped onto the dispatched request; also steers
    /// routing away from nodes with a quarantined TPU.
    pub max_mape: Option<f64>,
}

impl RouteOptions {
    /// Batch-class options (the default).
    pub fn new() -> Self {
        RouteOptions::default()
    }

    /// Sets the QoS class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the end-to-end deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the locality affinity key.
    #[must_use]
    pub fn with_affinity(mut self, key: u64) -> Self {
        self.affinity = Some(key);
        self
    }

    /// Sets the quality SLO.
    #[must_use]
    pub fn with_max_mape(mut self, max_mape: f64) -> Self {
        self.max_mape = Some(max_mape);
        self
    }
}

/// A response served by the cluster, with routing provenance.
#[derive(Debug)]
pub struct ClusterResponse {
    /// The winning node's serve response.
    pub response: Response,
    /// The node that served it.
    pub node: usize,
    /// Dispatch tries the request needed (1 = first try won).
    pub tries: usize,
    /// Whether a hedge duplicate was launched.
    pub hedged: bool,
    /// Whether the hedge (not the primary) produced this response.
    pub hedge_won: bool,
    /// End-to-end routing latency (dispatch decision to delivery).
    pub latency: Duration,
}

/// Router-internal mutable policy state (breaker + budget), one mutex.
struct RouterState {
    breaker: Breaker,
    budget: RetryBudget,
}

/// The fleet front door. All routing policy lives here; the nodes behind
/// it are plain [`shmt_serve::Server`]s.
pub struct ClusterRouter {
    nodes: Vec<ClusterNode>,
    epoch: Instant,
    hedge: HedgeConfig,
    retry: RetryConfig,
    shed: ShedConfig,
    score: ScoreWeights,
    attempt_timeout: Duration,
    /// Lock order: `state`, `metrics`, and `obs` are only ever acquired
    /// alone — never nested (the same discipline the serve layer keeps).
    state: Mutex<RouterState>,
    metrics: Mutex<MetricsRegistry>,
    /// Router-level telemetry: `cluster.*` latency histograms plus
    /// per-node EWMA profiles (device index = node id).
    obs: Mutex<Observatory>,
    inflight: AtomicUsize,
    down: AtomicBool,
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("nodes", &self.nodes.len())
            .field("inflight", &self.inflight.load(Ordering::Relaxed))
            .finish()
    }
}

impl ClusterRouter {
    /// Builds the fleet and its router.
    ///
    /// # Panics
    ///
    /// Panics when a node's executor team cannot be spawned; use
    /// [`ClusterRouter::try_new`] for a typed error.
    pub fn new(config: ClusterConfig) -> Self {
        ClusterRouter::try_new(config).expect("spawn cluster nodes")
    }

    /// [`ClusterRouter::new`] with typed failure.
    pub fn try_new(config: ClusterConfig) -> Result<Self, ClusterError> {
        let epoch = Instant::now();
        let node_configs = if config.nodes.is_empty() {
            vec![NodeConfig::default()]
        } else {
            config.nodes
        };
        let mut nodes = Vec::with_capacity(node_configs.len());
        for (id, nc) in node_configs.into_iter().enumerate() {
            nodes.push(ClusterNode::new(id, nc, epoch)?);
        }
        let breaker = Breaker::new(config.breaker, nodes.len());
        Ok(ClusterRouter {
            nodes,
            epoch,
            hedge: config.hedge,
            retry: config.retry,
            shed: config.shed,
            score: config.score,
            attempt_timeout: config.attempt_timeout.max(Duration::from_millis(1)),
            state: Mutex::new(RouterState {
                breaker,
                budget: RetryBudget::new(config.budget),
            }),
            metrics: Mutex::new(MetricsRegistry::with_gauge_cap(4096)),
            obs: Mutex::new(Observatory::new()),
            inflight: AtomicUsize::new(0),
            down: AtomicBool::new(false),
        })
    }

    /// Number of nodes in the fleet.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Requests currently inside [`ClusterRouter::route`].
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Per-node breaker snapshots, indexed by node id.
    pub fn node_health(&self) -> Vec<SlotHealth> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (0..self.nodes.len())
            .map(|id| state.breaker.health(id))
            .collect()
    }

    /// Retry-budget accounting.
    pub fn budget_stats(&self) -> BudgetStats {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .budget
            .stats()
    }

    /// Snapshot of the router's `cluster.*` counters.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Router telemetry: `cluster.*` latency histograms and per-node
    /// EWMA profiles (device index = node id), merged with the router's
    /// counters.
    pub fn observatory(&self) -> Observatory {
        let mut obs = self
            .obs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let metrics = self.metrics();
        obs.merge_registry(&metrics);
        let health = self.node_health();
        for (id, h) in health.iter().enumerate() {
            obs.set_quarantined(id, h.quarantined);
        }
        obs
    }

    /// The whole fleet's node-level telemetry merged into one view via
    /// the observatory's mergeable histograms and span-weighted
    /// profiles: `serve.*` latency distributions aggregate across
    /// nodes, device profiles aggregate device-wise.
    pub fn fleet_observatory(&self) -> Observatory {
        let mut merged = Observatory::new();
        for node in &self.nodes {
            merged.merge(&node.server().observatory());
        }
        merged
    }

    /// One node's serving metrics.
    pub fn node_metrics(&self, id: usize) -> MetricsRegistry {
        self.nodes[id].server().metrics()
    }

    /// Requests each node has been handed over the router's lifetime.
    pub fn node_dispatched(&self) -> Vec<u64> {
        self.nodes.iter().map(ClusterNode::dispatched).collect()
    }

    /// Seconds since the cluster epoch (the fault plans' time axis).
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Stops admission and shuts every node's serving stack down.
    pub fn shutdown(&mut self) {
        self.down.store(true, Ordering::Relaxed);
        for node in &mut self.nodes {
            node.shutdown();
        }
    }

    /// Routes one request through the fleet and blocks until it resolves
    /// — to a response or a typed error, never a hang: every dispatch is
    /// bounded by `attempt_timeout`, every retry by the deadline and the
    /// retry budget.
    ///
    /// `make` builds a fresh [`Request`] per dispatch (payloads are not
    /// clonable; retries and hedges each need their own). The router
    /// stamps class, quality SLO, and the remaining deadline onto each
    /// built request.
    pub fn route(
        &self,
        opts: RouteOptions,
        make: &dyn Fn() -> Request,
    ) -> Result<ClusterResponse, ClusterError> {
        if self.down.load(Ordering::Relaxed) {
            return Err(ClusterError::Shutdown);
        }
        // Graceful degradation: shed by class before any node sees the
        // request.
        let inflight = self.inflight.load(Ordering::Relaxed);
        let limit = self.class_limit(opts.priority);
        if self.shed.enabled && inflight >= limit {
            let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            metrics.add_counter("cluster.shed", 1.0);
            metrics.add_counter(&format!("cluster.shed.{}", opts.priority.name()), 1.0);
            return Err(ClusterError::Shed {
                priority: opts.priority,
                inflight,
                limit,
            });
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let outcome = self.route_inner(&opts, make, started);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.finish_route(&opts, &outcome, started);
        outcome
    }

    /// Post-resolution bookkeeping: counters and latency telemetry.
    fn finish_route(
        &self,
        opts: &RouteOptions,
        outcome: &Result<ClusterResponse, ClusterError>,
        started: Instant,
    ) {
        let latency = started.elapsed();
        {
            let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            metrics.add_counter("cluster.routed", 1.0);
            match outcome {
                Ok(resp) => {
                    metrics.add_counter("cluster.ok", 1.0);
                    if resp.tries > 1 {
                        metrics.add_counter("cluster.retries", (resp.tries - 1) as f64);
                    }
                    if resp.hedge_won {
                        metrics.add_counter("cluster.hedge_wins", 1.0);
                    }
                }
                Err(ClusterError::DeadlineExceeded { .. }) => {
                    metrics.add_counter("cluster.deadline_exceeded", 1.0);
                }
                Err(ClusterError::RetryBudgetExhausted { .. }) => {
                    metrics.add_counter("cluster.budget_exhausted", 1.0);
                }
                Err(ClusterError::NodesExhausted { .. }) => {
                    metrics.add_counter("cluster.nodes_exhausted", 1.0);
                }
                Err(_) => {
                    metrics.add_counter("cluster.failed", 1.0);
                }
            }
            metrics.push_gauge(
                "cluster.inflight",
                self.now_s(),
                self.inflight.load(Ordering::Relaxed) as f64,
            );
        }
        if let Ok(resp) = outcome {
            let mut obs = self.obs.lock().unwrap_or_else(PoisonError::into_inner);
            obs.record_latency("cluster.latency_seconds", latency.as_secs_f64());
            obs.record_latency(
                &format!("cluster.latency.{}_seconds", opts.priority.name()),
                latency.as_secs_f64(),
            );
            // Per-node EWMA profile over *router-observed* latency (one
            // "element" per request), so delivery-side slowness the node
            // itself cannot see still shows up in its score.
            obs.observe_span(resp.node, "route", 1, resp.latency.as_secs_f64());
        }
    }

    /// Per-class in-flight ceiling (BestEffort lowest, Interactive the
    /// full capacity).
    fn class_limit(&self, priority: Priority) -> usize {
        let cap = self.shed.capacity.max(1);
        let frac = match priority {
            Priority::Interactive => 1.0,
            Priority::Batch => self.shed.batch_fraction,
            Priority::BestEffort => self.shed.best_effort_fraction,
        };
        ((cap as f64 * frac).floor() as usize).max(1)
    }

    /// Remaining time before `deadline`, or the routing horizon for
    /// deadline-less requests. `None` means the deadline has lapsed.
    fn remaining(deadline: Option<Duration>, started: Instant) -> Option<Duration> {
        match deadline {
            None => Some(FOREVER),
            Some(d) => {
                let elapsed = started.elapsed();
                (elapsed < d).then(|| d - elapsed)
            }
        }
    }

    fn build_request(
        &self,
        opts: &RouteOptions,
        make: &dyn Fn() -> Request,
        remaining: Duration,
    ) -> Request {
        let mut request = make();
        request.priority = opts.priority;
        if opts.max_mape.is_some() {
            request.max_mape = opts.max_mape;
        }
        request.deadline = Some(remaining.min(self.attempt_timeout));
        request
    }

    /// Scores and picks the best dispatch target among non-excluded
    /// nodes, committing a probe when one is due (or when quarantine
    /// covers every candidate — the fleet never masks its last capable
    /// node). Returns the node id and whether this dispatch is a probe.
    fn pick_node(
        &self,
        state: &mut RouterState,
        opts: &RouteOptions,
        excluded: &[bool],
        profiles: &[Option<f64>],
        allow_probe: bool,
    ) -> Option<(usize, bool)> {
        let n = self.nodes.len();
        // A due probe takes precedence: reintegration evidence is worth
        // one request's risk (the request keeps its retries).
        if allow_probe {
            if let Some(id) = (0..n).find(|&id| !excluded[id] && state.breaker.probe_ready(id)) {
                state.breaker.begin_probe(id);
                return Some((id, true));
            }
        }
        let best_tp = profiles.iter().flatten().copied().fold(f64::NAN, f64::max);
        let candidate = |routable_only: bool| {
            let mut best: Option<(f64, usize)> = None;
            for id in 0..n {
                if excluded[id] || (routable_only && !state.breaker.routable(id)) {
                    continue;
                }
                let mut score = self.score.load * self.nodes[id].inflight() as f64;
                score += self.score.pressure * state.breaker.pressure(id);
                if let Some(tp) = profiles[id] {
                    if best_tp.is_finite() && tp > 0.0 {
                        score += self.score.perf * ((best_tp / tp) - 1.0).clamp(0.0, 4.0);
                    }
                }
                if let Some(key) = opts.affinity {
                    if (key % n as u64) as usize == id {
                        score -= self.score.locality;
                    }
                }
                if opts.max_mape.is_some()
                    && self.nodes[id].server().device_health()[TPU].quarantined
                {
                    score += self.score.quality;
                }
                if best.map_or(true, |(s, _)| score < s) {
                    best = Some((score, id));
                }
            }
            best.map(|(_, id)| id)
        };
        if let Some(id) = candidate(true) {
            return Some((id, false));
        }
        if !allow_probe {
            return None;
        }
        // Everything left is quarantined: route degraded to the best of
        // them, counted as a probe so a clean response reintegrates.
        let id = candidate(false)?;
        state.breaker.begin_probe(id);
        Some((id, true))
    }

    /// Per-node EWMA throughput snapshot (requests per observed-latency
    /// second), taken outside the state lock per the lock ordering.
    fn profile_snapshot(&self) -> Vec<Option<f64>> {
        let obs = self.obs.lock().unwrap_or_else(PoisonError::into_inner);
        (0..self.nodes.len())
            .map(|id| obs.profile(id).and_then(|p| p.mean_throughput()))
            .collect()
    }

    /// The current hedge delay: the configured quantile of observed
    /// cluster latency, clamped, or the ceiling while cold.
    fn hedge_delay(&self) -> Duration {
        let obs = self.obs.lock().unwrap_or_else(PoisonError::into_inner);
        let derived = obs
            .histogram("cluster.latency_seconds")
            .filter(|h| h.total() >= self.hedge.min_samples)
            .and_then(|h| h.quantile(self.hedge.quantile));
        drop(obs);
        match derived {
            Some(q) if q.is_finite() && q > 0.0 => {
                Duration::from_secs_f64(q).clamp(self.hedge.min_delay, self.hedge.max_delay)
            }
            _ => self.hedge.max_delay,
        }
    }

    /// Records one dispatch outcome against the breaker and the strike
    /// counters. Locks are taken one at a time.
    fn note_outcome(&self, node: usize, ok: bool, was_probe: bool) {
        let delta = self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .breaker
            .record(node, ok, was_probe);
        if delta.strikes > 0 || delta.quarantines > 0 || delta.reintegrations > 0 {
            let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            if delta.strikes > 0 {
                metrics.add_counter("cluster.node_strike", delta.strikes as f64);
            }
            if delta.quarantines > 0 {
                metrics.add_counter("cluster.node_quarantine", delta.quarantines as f64);
            }
            if delta.reintegrations > 0 {
                metrics.add_counter("cluster.node_reintegrate", delta.reintegrations as f64);
            }
        }
    }

    fn count(&self, name: &str) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add_counter(name, 1.0);
    }

    fn route_inner(
        &self,
        opts: &RouteOptions,
        make: &dyn Fn() -> Request,
        started: Instant,
    ) -> Result<ClusterResponse, ClusterError> {
        let deadline = opts.deadline;
        {
            // One deposit and one quarantine-clock tick per routed
            // request.
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.budget.deposit();
            for id in 0..self.nodes.len() {
                state.breaker.tick(id);
            }
        }
        let mut excluded = vec![false; self.nodes.len()];
        let mut tries = 0usize;
        let mut hedged = false;
        let mut last_err: Option<NodeError> = None;
        loop {
            let Some(remaining) = Self::remaining(deadline, started) else {
                return Err(ClusterError::DeadlineExceeded {
                    elapsed: started.elapsed(),
                    deadline: deadline.unwrap_or_default(),
                });
            };
            let profiles = self.profile_snapshot();
            let pick = {
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                self.pick_node(&mut state, opts, &excluded, &profiles, true)
            };
            let Some((node_id, is_probe)) = pick else {
                // Every node failed this pass; pay for another pass or
                // give up.
                self.next_pass(&mut excluded, &mut tries, deadline, started, &last_err)?;
                continue;
            };
            let request = self.build_request(opts, make, remaining);
            match self.nodes[node_id].submit(request) {
                Err(e) => {
                    // Fast dispatch failure: strike (if availability),
                    // exclude, and fall through to the next candidate in
                    // the same pass — no budget charge until the whole
                    // pass fails.
                    if e.strikes_node() {
                        self.note_outcome(node_id, false, is_probe);
                        self.count("cluster.node_unavailable");
                    } else if is_probe {
                        // A probe refused at admission gives no verdict.
                        self.note_outcome(node_id, false, true);
                        self.count("cluster.node_busy");
                    } else {
                        self.count("cluster.node_busy");
                    }
                    excluded[node_id] = true;
                    last_err = Some(e);
                    continue;
                }
                Ok(ticket) => {
                    tries += 1;
                    match self.await_attempt(opts, make, ticket, is_probe, &mut hedged) {
                        AttemptOutcome::Won {
                            response,
                            node,
                            hedge_won,
                        } => {
                            return Ok(ClusterResponse {
                                response: *response,
                                node,
                                tries,
                                hedged,
                                hedge_won,
                                latency: started.elapsed(),
                            });
                        }
                        AttemptOutcome::Terminal(err) => {
                            return Err(ClusterError::Request(err));
                        }
                        AttemptOutcome::Failed { failed, last } => {
                            // Failover: exclude what failed, pay for
                            // another try (attempt cap, budget token,
                            // backoff — deadline-aware), and redispatch.
                            for id in failed {
                                excluded[id] = true;
                            }
                            last_err = Some(last);
                            if tries >= self.retry.max_attempts {
                                return Err(ClusterError::NodesExhausted {
                                    attempts: tries,
                                    last: last_err
                                        .as_ref()
                                        .map(NodeError::describe)
                                        .unwrap_or_default(),
                                });
                            }
                            if !self
                                .state
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .budget
                                .try_withdraw()
                            {
                                return Err(ClusterError::RetryBudgetExhausted { attempts: tries });
                            }
                            self.backoff(tries, deadline, started)?;
                            if excluded.iter().all(|&x| x) {
                                excluded.fill(false);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A full submit pass found no node that would accept the request:
    /// charge the budget, back off, and clear the exclusion set for
    /// another pass — or fail typed.
    fn next_pass(
        &self,
        excluded: &mut [bool],
        tries: &mut usize,
        deadline: Option<Duration>,
        started: Instant,
        last_err: &Option<NodeError>,
    ) -> Result<(), ClusterError> {
        *tries += 1;
        if *tries >= self.retry.max_attempts {
            return Err(ClusterError::NodesExhausted {
                attempts: *tries,
                last: last_err
                    .as_ref()
                    .map(NodeError::describe)
                    .unwrap_or_else(|| "no routable node".into()),
            });
        }
        if !self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .budget
            .try_withdraw()
        {
            return Err(ClusterError::RetryBudgetExhausted { attempts: *tries });
        }
        self.backoff(*tries, deadline, started)?;
        excluded.fill(false);
        Ok(())
    }

    /// Capped exponential backoff before try `tries + 1`. Fails with a
    /// *prompt* `DeadlineExceeded` when the sleep could not fit in the
    /// remaining budget — a request never burns backoff it cannot
    /// afford.
    fn backoff(
        &self,
        tries: usize,
        deadline: Option<Duration>,
        started: Instant,
    ) -> Result<(), ClusterError> {
        let shift = tries.saturating_sub(1).min(16) as u32;
        let sleep = self
            .retry
            .backoff
            .saturating_mul(1u32 << shift.min(16))
            .min(self.retry.backoff_cap);
        if let Some(d) = deadline {
            let elapsed = started.elapsed();
            let remaining = d.saturating_sub(elapsed);
            if sleep >= remaining {
                return Err(ClusterError::DeadlineExceeded {
                    elapsed,
                    deadline: d,
                });
            }
        }
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
        Ok(())
    }

    /// Waits on one dispatched attempt, launching a hedge to a second
    /// node once the p95-derived delay lapses. First response wins; the
    /// loser is canceled through its request's cancellation token.
    fn await_attempt(
        &self,
        opts: &RouteOptions,
        make: &dyn Fn() -> Request,
        primary: NodeTicket,
        primary_probe: bool,
        hedged: &mut bool,
    ) -> AttemptOutcome {
        let attempt_started = Instant::now();
        let attempt_deadline = attempt_started + self.attempt_timeout;
        let hedge_at = (self.hedge.enabled && self.nodes.len() > 1)
            .then(|| attempt_started + self.hedge_delay());
        let mut flights: Vec<(NodeTicket, bool, bool)> = vec![(primary, primary_probe, false)];
        let mut failed: Vec<usize> = Vec::new();
        let mut last = NodeError::TimedOut;
        let mut hedge_spent = *hedged;
        loop {
            let mut i = 0;
            while i < flights.len() {
                let (ticket, is_probe, is_hedge) = &mut flights[i];
                let node_id = ticket.node;
                match ticket.poll(&self.nodes[node_id]) {
                    Some(Ok(response)) => {
                        self.note_outcome(node_id, true, *is_probe);
                        let hedge_won = *is_hedge;
                        // Abandon settles in-flight accounting for the
                        // losers; the winner's ticket already settled in
                        // poll, so abandoning it too is a no-op.
                        for (loser, _, _) in flights.drain(..) {
                            let loser_node = loser.node;
                            loser.abandon(&self.nodes[loser_node]);
                        }
                        return AttemptOutcome::Won {
                            response: Box::new(response),
                            node: node_id,
                            hedge_won,
                        };
                    }
                    Some(Err(e)) => {
                        if e.strikes_node() {
                            self.note_outcome(node_id, false, *is_probe);
                            if matches!(e, NodeError::ConnectionLost) {
                                self.count("cluster.connection_lost");
                            }
                        } else if *is_probe {
                            self.note_outcome(node_id, false, true);
                        }
                        if let NodeError::Serve(ServeError::Runtime(err)) = &e {
                            // A runtime rejection (bad configuration)
                            // fails identically everywhere; don't burn
                            // retries on it.
                            for (loser, _, _) in flights.drain(..) {
                                let loser_node = loser.node;
                                loser.abandon(&self.nodes[loser_node]);
                            }
                            return AttemptOutcome::Terminal(ServeError::Runtime(err.clone()));
                        }
                        failed.push(node_id);
                        last = e;
                        flights.remove(i);
                    }
                    None => {
                        i += 1;
                    }
                }
            }
            if flights.is_empty() {
                return AttemptOutcome::Failed { failed, last };
            }
            let now = Instant::now();
            if now >= attempt_deadline {
                // Nothing answered inside the attempt window: strike and
                // abandon every open flight, then let the retry loop
                // decide whether the deadline or budget allows another.
                for (ticket, is_probe, _) in flights.drain(..) {
                    let node_id = ticket.node;
                    self.note_outcome(node_id, false, is_probe);
                    self.count("cluster.attempt_timeout");
                    failed.push(node_id);
                    ticket.abandon(&self.nodes[node_id]);
                }
                return AttemptOutcome::Failed {
                    failed,
                    last: NodeError::TimedOut,
                };
            }
            if let Some(at) = hedge_at {
                if !hedge_spent && now >= at && flights.len() == 1 {
                    hedge_spent = true;
                    if let Some(flight) =
                        self.launch_hedge(opts, make, &flights, &failed, attempt_deadline, hedged)
                    {
                        flights.push(flight);
                    }
                }
            }
            let mut slice = POLL_SLICE.min(attempt_deadline - now);
            if let Some(at) = hedge_at {
                if !hedge_spent && at > now {
                    slice = slice.min(at - now);
                }
            }
            flights[0].0.pump(slice.max(Duration::from_micros(50)));
        }
    }

    /// Attempts to launch one hedge dispatch: picks a second node
    /// (never a probe — hedges are latency rescues), pays a budget
    /// token, and submits. Any failure simply forgoes the hedge.
    fn launch_hedge(
        &self,
        opts: &RouteOptions,
        make: &dyn Fn() -> Request,
        flights: &[(NodeTicket, bool, bool)],
        failed: &[usize],
        attempt_deadline: Instant,
        hedged: &mut bool,
    ) -> Option<(NodeTicket, bool, bool)> {
        let mut excluded = vec![false; self.nodes.len()];
        for (t, _, _) in flights {
            excluded[t.node] = true;
        }
        for &id in failed {
            excluded[id] = true;
        }
        let profiles = self.profile_snapshot();
        let pick = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if !state.budget.try_withdraw() {
                None
            } else {
                self.pick_node(&mut state, opts, &excluded, &profiles, false)
            }
        };
        let (node_id, _) = pick?;
        let remaining = attempt_deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return None;
        }
        let request = self.build_request(opts, make, remaining);
        match self.nodes[node_id].submit(request) {
            Ok(ticket) => {
                *hedged = true;
                self.count("cluster.hedges");
                Some((ticket, false, true))
            }
            Err(e) => {
                if e.strikes_node() {
                    self.note_outcome(node_id, false, false);
                }
                None
            }
        }
    }
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How one dispatched attempt (primary plus optional hedge) ended.
enum AttemptOutcome {
    Won {
        response: Box<Response>,
        node: usize,
        hedge_won: bool,
    },
    /// Failed in a way no other node can fix.
    Terminal(ServeError),
    Failed {
        failed: Vec<usize>,
        last: NodeError,
    },
}
