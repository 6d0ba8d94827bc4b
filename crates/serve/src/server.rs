//! The serving core: bounded admission queue, executor team, tickets.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shmt::sched::TPU;
use shmt::{
    DagConfig, FaultPlan, GuardConfig, NullSink, Platform, RunReport, RuntimeConfig, ShmtError,
    ShmtRuntime, Tensor, Vop, VopDag,
};
use shmt_trace::{MetricsRegistry, Observatory};

use crate::breaker::{HealthConfig, SlotHealth};
use crate::error::{ServeError, SubmitError};
use crate::flight::{Anomaly, FlightConfig, FlightRecord, FlightRecorder};
use crate::health::DeviceMasks;

/// Number of modeled devices (GPU, CPU, Edge TPU) — the width of every
/// mask the serving layer routes on.
pub(crate) const DEVICES: usize = 3;

/// Number of QoS priority classes ([`Priority`]).
pub(crate) const CLASSES: usize = 3;

/// Per-class stride: the pass-value increment a class pays for each
/// dequeue. Inversely proportional to the class weights (8 : 3 : 1 over
/// a common numerator of 24), so over a contended window Interactive
/// requests are dequeued ~8× as often as BestEffort — weighted fairness
/// rather than starvation-prone strict priority.
const STRIDE: [u64; CLASSES] = [3, 8, 24];

/// Multi-tenant QoS class carried by every [`Request`].
///
/// The admission queue is split per class and drained by stride
/// scheduling: each class carries a *pass* value, the executor always
/// pops from the backlogged class with the smallest pass (ties go to the
/// higher priority), and a dequeue advances that class's pass by its
/// stride. Higher-priority classes have smaller strides, so they are
/// served proportionally more often while lower classes still make
/// progress — deficit-fair sharing, not starvation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground traffic (weight 8).
    Interactive,
    /// Throughput traffic — the default class, so a server receiving
    /// only default requests degenerates to plain FIFO.
    #[default]
    Batch,
    /// Scavenger traffic served from leftover capacity (weight 1).
    BestEffort,
}

impl Priority {
    /// Every class in dequeue-preference order.
    pub const ALL: [Priority; CLASSES] =
        [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Stable queue index (also the tiebreak order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in summaries and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best_effort",
        }
    }
}

/// What an admitted request executes: one VOP, or a whole DAG program.
pub enum Payload {
    /// A single VOP.
    Vop(Vop),
    /// A DAG of VOP stages over one external input, executed with
    /// inter-stage data residency ([`VopDag`]). Per-stage quality
    /// budgets travel on the DAG nodes
    /// ([`shmt::dag::DagNode::with_quality_budget`]); the request's
    /// `max_mape`, when set, additionally guards every stage. The
    /// request deadline applies to the whole pipeline: it is polled
    /// between stages, so a mid-flight DAG stops at the next stage
    /// boundary once the deadline lapses. Fault plans apply to
    /// single-VOP requests only — a DAG submission with a non-empty
    /// fault plan fails typed.
    Program {
        /// The validated DAG.
        dag: VopDag,
        /// The external input fed to the DAG's root stages.
        input: Tensor,
    },
}

impl Payload {
    /// Short display label: the opcode for a VOP, `dag[n]` for an
    /// n-node program (used in flight records and debug output).
    pub fn label(&self) -> String {
        match self {
            Payload::Vop(vop) => vop.opcode().to_string(),
            Payload::Program { dag, .. } => format!("dag[{}]", dag.len()),
        }
    }
}

/// One execution request: what to run, on which modeled platform,
/// under which runtime configuration.
pub struct Request {
    /// What to execute.
    pub payload: Payload,
    /// The modeled platform the runtime plays the schedule on.
    pub platform: Platform,
    /// Runtime configuration (policy, partitions, quality knobs).
    pub config: RuntimeConfig,
    /// Per-request deadline measured from admission; `None` waits as
    /// long as it takes.
    pub deadline: Option<Duration>,
    /// Per-request quality SLO: when set, the executor enables the
    /// runtime's quality guard with this MAPE budget
    /// ([`GuardConfig::enforcing`]), overriding whatever guard settings
    /// the request's [`RuntimeConfig`] carried. A budget the guard cannot
    /// repair down to fails the request with
    /// [`ServeError::QualityUnattainable`].
    pub max_mape: Option<f64>,
    /// Deterministic fault schedule the run is played under;
    /// [`FaultPlan::none`] (the default) leaves execution fault-free and
    /// bit-identical to [`shmt::ShmtRuntime::execute`].
    pub faults: FaultPlan,
    /// QoS class the request is admitted under; [`Priority::Batch`] by
    /// default. Affects only *when* the request is dequeued, never what
    /// it computes.
    pub priority: Priority,
    /// Cooperative cancellation token ([`Request::with_cancel`]). `None`
    /// means the request cannot be canceled by the client.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Request {
    /// A request with no deadline, no quality SLO, and no fault plan.
    pub fn new(vop: Vop, platform: Platform, config: RuntimeConfig) -> Self {
        Request {
            payload: Payload::Vop(vop),
            platform,
            config,
            deadline: None,
            max_mape: None,
            faults: FaultPlan::none(),
            priority: Priority::default(),
            cancel: None,
        }
    }

    /// A DAG-program request: the whole pipeline is one admission unit,
    /// served with inter-stage residency. Stage platforms come from the
    /// DAG's own benchmarks (the request's `platform` field is unused),
    /// per-stage quality budgets from the DAG nodes, and the deadline —
    /// set via [`Request::with_deadline`] — covers the pipeline end to
    /// end.
    pub fn with_program(dag: VopDag, input: Tensor, config: RuntimeConfig) -> Self {
        Request {
            payload: Payload::Program { dag, input },
            platform: Platform::generic(),
            config,
            deadline: None,
            max_mape: None,
            faults: FaultPlan::none(),
            priority: Priority::default(),
            cancel: None,
        }
    }

    /// The single VOP this request executes, when it is not a DAG
    /// program.
    pub fn vop(&self) -> Option<&Vop> {
        match &self.payload {
            Payload::Vop(vop) => Some(vop),
            Payload::Program { .. } => None,
        }
    }

    /// Sets a deadline measured from the moment the request is admitted.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a quality SLO: the served output's estimated MAPE must not
    /// exceed `max_mape`, enforced by the runtime's quality guard.
    #[must_use]
    pub fn with_max_mape(mut self, max_mape: f64) -> Self {
        self.max_mape = Some(max_mape);
        self
    }

    /// Runs the request under a deterministic fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Admits the request under a QoS class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a cooperative cancellation token. Setting the token to
    /// `true` cancels the request at the next cancellation point: before
    /// an executor picks it up (the common case — a hedged duplicate
    /// whose sibling already won), or between DAG stages for a
    /// [`Payload::Program`]. A single VOP already executing runs to
    /// completion; its response is simply never delivered. A canceled
    /// request fails with [`ServeError::Canceled`].
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether the request's cancellation token has been set.
    pub fn canceled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("payload", &self.payload.label())
            .field("policy", &self.config.policy.name())
            .field("deadline", &self.deadline)
            .field("max_mape", &self.max_mape)
            .field("faulted", &!self.faults.is_empty())
            .field("priority", &self.priority)
            .field("cancelable", &self.cancel.is_some())
            .finish()
    }
}

/// A completed request: the runtime report plus the serving-side latency
/// split.
#[derive(Debug)]
pub struct Response {
    /// The runtime's full report (output tensor, makespan, energy, ...).
    pub report: RunReport,
    /// Time the request spent in the admission queue.
    pub queue_wait: Duration,
    /// Time the executor spent running it.
    pub service_time: Duration,
    /// Display name of the scheduling policy that served it.
    pub policy: &'static str,
    /// Whether the response was produced in a degraded configuration:
    /// the run lost a device mid-flight ([`shmt::FaultReport::degraded`])
    /// or device-health quarantine masked devices the request asked for.
    /// The output is still a genuinely computed result — `degraded` tells
    /// the client it came from fewer devices than requested.
    pub degraded: bool,
}

/// Stored samples kept per metrics gauge series
/// ([`MetricsRegistry::with_gauge_cap`]).
const GAUGE_CAP: usize = 4096;

/// Serving-layer tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Executor threads pulling from the admission queue. Each runs one
    /// request at a time; their tile computations all share the global
    /// [`shmt::pool::ComputePool`].
    pub executors: usize,
    /// Admission-queue bound: [`Server::submit`] returns
    /// [`SubmitError::Busy`] once this many requests are waiting.
    pub queue_capacity: usize,
    /// Device-health circuit breaker (strike thresholds, probe cadence).
    pub health: HealthConfig,
    /// Per-request flight recorder; dumps are off until
    /// [`FlightConfig::dump_dir`] is set.
    pub flight: FlightConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            executors: 2,
            queue_capacity: 8,
            health: HealthConfig::default(),
            flight: FlightConfig::default(),
        }
    }
}

/// A queued request together with its completion slot and admission time.
struct Queued {
    request: Request,
    ticket: Arc<TicketState>,
    admitted_at: Instant,
    deadline: Option<Duration>,
}

/// Completion slot shared between an executor and the ticket holder.
struct TicketState {
    slot: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl TicketState {
    fn fulfill(&self, outcome: Result<Response, ServeError>) {
        // Poisoned ticket locks are recovered everywhere in this file:
        // the slot holds a plain Option that is valid at every step, so a
        // waiter's panic must not strand other requests.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// A handle to one admitted request's eventual outcome.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request completes, fails, or is canceled.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits up to `timeout` for the outcome. Returns `None` when the
    /// request is still in flight — the ticket stays valid, so the caller
    /// can keep polling or block with [`Ticket::wait`] later; the serving
    /// side is unaffected either way.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .state
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }

    /// Takes the outcome if it is already available; never blocks.
    pub fn try_take(&self) -> Option<Result<Response, ServeError>> {
        self.state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Admission queues (one per QoS class) plus the flags both sides
/// coordinate on. Dequeue is stride scheduling over the class passes —
/// see [`Priority`].
struct QueueState {
    queues: [VecDeque<Queued>; CLASSES],
    pass: [u64; CLASSES],
    shutdown: bool,
}

impl QueueState {
    fn new() -> Self {
        QueueState {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            pass: [0; CLASSES],
            shutdown: false,
        }
    }

    /// Requests waiting across every class — the capacity bound.
    fn total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Enqueues under the request's class. A class waking from empty
    /// starts at the current minimum pass of the backlogged classes, so
    /// an idle class cannot bank credit and then monopolize the
    /// executors; when everything was idle the passes reset outright.
    fn push(&mut self, queued: Queued) {
        let c = queued.request.priority.index();
        if self.queues[c].is_empty() {
            let floor = (0..CLASSES)
                .filter(|&k| !self.queues[k].is_empty())
                .map(|k| self.pass[k])
                .min();
            match floor {
                Some(f) => self.pass[c] = self.pass[c].max(f),
                None => self.pass = [0; CLASSES],
            }
        }
        self.queues[c].push_back(queued);
    }

    /// Pops from the backlogged class with the smallest pass (ties to
    /// the higher-priority class), charging it its stride.
    fn pop_next(&mut self) -> Option<Queued> {
        let c = (0..CLASSES)
            .filter(|&c| !self.queues[c].is_empty())
            .min_by_key(|&c| (self.pass[c], c))?;
        self.pass[c] += STRIDE[c];
        self.queues[c].pop_front()
    }

    /// Removes and returns every queued request, oldest class-order
    /// first (shutdown cancellation).
    fn drain_all(&mut self) -> Vec<Queued> {
        self.queues.iter_mut().flat_map(|q| q.drain(..)).collect()
    }
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when a slot frees up (submitters wait on this).
    space_ready: Condvar,
    /// Signalled when work arrives or shutdown begins (executors wait).
    work_ready: Condvar,
    capacity: usize,
    metrics: Mutex<MetricsRegistry>,
    /// Device-health circuit breaker. Lock order: `health` is only ever
    /// acquired alone — never while `state` or `metrics` is held.
    health: Mutex<DeviceMasks>,
    /// Live telemetry (latency histograms, device profiles). Same lock
    /// discipline as `health`: only ever acquired alone.
    observatory: Mutex<Observatory>,
    /// Per-request flight recorder. Only ever acquired alone.
    flight: Mutex<FlightRecorder>,
    started_at: Instant,
}

impl Shared {
    /// Seconds since the server started — the time axis for gauges.
    fn now_s(&self) -> f64 {
        self.started_at.elapsed().as_secs_f64()
    }
}

/// A concurrent VOP server: a bounded admission queue drained by a team
/// of executor threads, each running requests through its own
/// [`ShmtRuntime`] on the shared global compute pool.
pub struct Server {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("executors", &self.executors.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl Server {
    /// Starts the executor team (at least one thread, queue capacity at
    /// least one).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn even one executor thread; use
    /// [`Server::try_new`] for a typed error instead.
    pub fn new(config: ServerConfig) -> Self {
        Server::try_new(config).expect("spawn serve executor team")
    }

    /// [`Server::new`] with typed failure: returns
    /// [`ServeError::Internal`] when no executor thread could be spawned.
    /// A partially spawned team (some threads started before the OS ran
    /// out of resources) degrades to the smaller team instead of failing.
    pub fn try_new(config: ServerConfig) -> Result<Self, ServeError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::new()),
            space_ready: Condvar::new(),
            work_ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            metrics: Mutex::new(MetricsRegistry::with_gauge_cap(GAUGE_CAP)),
            health: Mutex::new(DeviceMasks::new(config.health)),
            observatory: Mutex::new(Observatory::new()),
            flight: Mutex::new(FlightRecorder::new(config.flight)),
            started_at: Instant::now(),
        });
        let executors: Vec<JoinHandle<()>> = (0..config.executors.max(1))
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("shmt-serve-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .ok()
            })
            .collect();
        if executors.is_empty() {
            return Err(ServeError::Internal(
                "could not spawn any serve executor thread".into(),
            ));
        }
        Ok(Server { shared, executors })
    }

    /// Admits a request if the queue has room; hands it back as
    /// [`SubmitError::Busy`] otherwise. Never blocks.
    ///
    /// Lock order everywhere in this file: `state` and `metrics` are
    /// never held at the same time, so the serving path cannot deadlock
    /// against the executors' queue-depth gauge.
    // The Err variant carries the whole Request by design: a rejected
    // caller gets its VOP back without a clone, so the Err is as big as
    // the request.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            return Err(SubmitError::Shutdown(request));
        }
        if state.total() >= self.shared.capacity {
            let depth = state.total();
            drop(state);
            self.shared
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .add_counter("serve.rejected_busy", 1.0);
            return Err(SubmitError::Busy {
                request,
                depth,
                capacity: self.shared.capacity,
            });
        }
        let (ticket, depth) = self.admit(&mut state, request);
        drop(state);
        self.record_admission(depth);
        Ok(ticket)
    }

    /// Admits a request, waiting for queue space when necessary. Only
    /// fails when the server shuts down while the caller is waiting.
    #[allow(clippy::result_large_err)] // Shutdown hands the request back
    pub fn submit_blocking(&self, request: Request) -> Result<Ticket, SubmitError> {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.shutdown {
                return Err(SubmitError::Shutdown(request));
            }
            if state.total() < self.shared.capacity {
                let (ticket, depth) = self.admit(&mut state, request);
                drop(state);
                self.record_admission(depth);
                return Ok(ticket);
            }
            state = self
                .shared
                .space_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues under the caller's `state` lock; metrics are recorded by
    /// the caller *after* that lock drops (see the lock-order note on
    /// [`Server::submit`]).
    fn admit(&self, state: &mut QueueState, request: Request) -> (Ticket, usize) {
        let ticket = Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        let deadline = request.deadline;
        state.push(Queued {
            request,
            ticket: Arc::clone(&ticket),
            admitted_at: Instant::now(),
            deadline,
        });
        let depth = state.total();
        self.shared.work_ready.notify_one();
        (Ticket { state: ticket }, depth)
    }

    fn record_admission(&self, depth: usize) {
        let mut metrics = self
            .shared
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        metrics.add_counter("serve.submitted", 1.0);
        metrics.push_gauge("serve.queue_depth", self.shared.now_s(), depth as f64);
    }

    /// Snapshot of the serving counters and gauges
    /// (`serve.submitted`, `serve.completed`, `serve.rejected_busy`,
    /// `serve.deadline_missed`, `serve.failed`, `serve.canceled`,
    /// `serve.degraded`, `serve.quality_unattainable`,
    /// `serve.flight_dumps`, `serve.queue_depth`, plus the
    /// health-breaker counters `health.strike`, `health.quarantine`,
    /// `health.probe`, `health.reintegrate`).
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Live telemetry snapshot: the observatory the executors feed
    /// (latency histograms, per-device EWMA profiles), merged with the
    /// serving counters/gauges and the current quarantine flags. Renders
    /// directly via [`Server::export_openmetrics`].
    pub fn observatory(&self) -> Observatory {
        let mut obs = self
            .shared
            .observatory
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let metrics = self
            .shared
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        obs.merge_registry(&metrics);
        let quarantined = self
            .shared
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .quarantined();
        for (d, &q) in quarantined.iter().enumerate() {
            obs.set_quarantined(d, q);
        }
        obs
    }

    /// The current telemetry as an OpenMetrics text exposition
    /// (terminated by `# EOF`; parseable by
    /// [`shmt_trace::openmetrics::Exposition::parse`]).
    pub fn export_openmetrics(&self) -> String {
        shmt_trace::openmetrics::render(&self.observatory())
    }

    /// The flight recorder's retained recent requests, oldest first.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.shared
            .flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .records()
            .cloned()
            .collect()
    }

    /// Anomaly dumps the flight recorder has written so far.
    pub fn flight_dumps(&self) -> usize {
        self.shared
            .flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dumps_written()
    }

    /// Snapshot of the per-device health breaker state, indexed by the
    /// runtime's device order (GPU, CPU, Edge TPU).
    pub fn device_health(&self) -> [SlotHealth; DEVICES] {
        self.shared
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot()
    }

    /// Stops admission, cancels queued requests, and joins the executor
    /// team. Requests already running finish normally. Called implicitly
    /// on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if state.shutdown && self.executors.is_empty() {
                return;
            }
            state.shutdown = true;
            let canceled: Vec<Queued> = state.drain_all();
            drop(state);
            let mut metrics = self
                .shared
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for q in &canceled {
                q.ticket.fulfill(Err(ServeError::Canceled));
                metrics.add_counter("serve.canceled", 1.0);
            }
        }
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// DAG-run facts the executor publishes as `dag.*` counters (which the
/// [`Server::observatory`] snapshot merges in) once the metrics lock is
/// taken on the completion path.
struct DagStats {
    stages: usize,
    fused: usize,
    edges: usize,
    resident_edges: usize,
    resident_bus_bytes: u64,
}

/// Records a flight entry and bumps the `serve.flight_dumps` counter
/// when it triggered a disk dump. Lock order: `flight`, then `metrics`,
/// each held alone.
fn record_flight(shared: &Shared, record: FlightRecord) {
    let dumped = shared
        .flight
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(record)
        .is_some();
    if dumped {
        shared
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add_counter("serve.flight_dumps", 1.0);
    }
}

fn executor_loop(shared: &Shared) {
    loop {
        let (queued, depth) = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(q) = state.pop_next() {
                    shared.space_ready.notify_one();
                    break (Some(q), state.total());
                }
                if state.shutdown {
                    break (None, 0);
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(queued) = queued else { return };

        let queue_wait = queued.admitted_at.elapsed();
        shared
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_gauge("serve.queue_depth", shared.now_s(), depth as f64);
        if let Some(deadline) = queued.deadline {
            if queue_wait > deadline {
                // The client's deadline lapsed while the request sat in
                // the queue; fail it without burning device time.
                shared
                    .metrics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .add_counter("serve.deadline_missed", 1.0);
                let mut fr = FlightRecord::new(
                    queued.request.config.policy.name(),
                    &queued.request.payload.label(),
                );
                fr.queue_wait_s = queue_wait.as_secs_f64();
                fr.outcome = Anomaly::DeadlineMissed.name().to_owned();
                fr.anomalies.push(Anomaly::DeadlineMissed);
                record_flight(shared, fr);
                queued.ticket.fulfill(Err(ServeError::DeadlineExceeded {
                    waited: queue_wait,
                    deadline,
                }));
                continue;
            }
        }

        if queued.request.canceled() {
            // The client (or a hedging router) gave up on this request
            // while it sat in the queue; fail it typed without touching
            // a device.
            shared
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .add_counter("serve.canceled", 1.0);
            queued.ticket.fulfill(Err(ServeError::Canceled));
            continue;
        }

        let policy = queued.request.config.policy.name();
        let opcode = queued.request.payload.label();

        // Route around quarantined devices (health lock held alone; see
        // the lock-order notes on `Shared`).
        let decision = shared
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .plan(queued.request.config.device_mask);
        let probes = decision.probed.iter().filter(|&&p| p).count();
        if probes > 0 {
            shared
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .add_counter("health.probe", probes as f64);
        }

        let mut config = queued.request.config;
        config.device_mask = decision.mask;
        if let Some(max_mape) = queued.request.max_mape {
            config.guard = GuardConfig::enforcing(max_mape);
        }

        let service_start = Instant::now();
        let mut dag_stats: Option<DagStats> = None;
        let outcome = match &queued.request.payload {
            Payload::Vop(vop) => {
                let runtime = ShmtRuntime::new(queued.request.platform.clone(), config);
                runtime.execute_with_faults(vop, &queued.request.faults)
            }
            Payload::Program { dag, input } => {
                if !queued.request.faults.is_empty() {
                    Err(ShmtError::InvalidConfig(
                        "fault plans apply to single-VOP requests; \
                         DAG submissions run fault-free"
                            .into(),
                    ))
                } else {
                    // The pipeline-level deadline and the request's
                    // cancellation token are both polled between stages;
                    // either surfaces as ShmtError::Canceled and is
                    // disambiguated below (token → Canceled, deadline →
                    // DeadlineExceeded).
                    let dag_config = DagConfig::new(config);
                    let admitted_at = queued.admitted_at;
                    let deadline = queued.deadline;
                    let token = queued.request.cancel.clone();
                    dag.run_with_cancel(input, &dag_config, &mut NullSink, &mut || {
                        token.as_ref().is_some_and(|t| t.load(Ordering::Relaxed))
                            || deadline.is_some_and(|d| admitted_at.elapsed() > d)
                    })
                    .map(|dr| {
                        dag_stats = Some(DagStats {
                            stages: dr.stages.len(),
                            fused: dr.fused,
                            edges: dag.edge_count(),
                            resident_edges: dr.resident_edges,
                            resident_bus_bytes: dr.resident_bus_bytes,
                        });
                        dr.into_run_report()
                    })
                }
            }
        };
        let service_time = service_start.elapsed();

        // Per-device fault attribution: dropouts strike the device that
        // died; guard repairs (and an unattainable quality budget) strike
        // the approximate device whose output missed the budget.
        let struck = match &outcome {
            Ok(report) => {
                let mut s = report.faults.lost;
                if !report.quality.repairs.is_empty() {
                    s[TPU] = true;
                }
                Some(s)
            }
            Err(ShmtError::QualityUnattainable { .. }) => {
                let mut s = [false; DEVICES];
                s[TPU] = true;
                Some(s)
            }
            Err(_) => None,
        };
        let (delta, quarantined) = shared
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(&decision, struck);

        // Continuous telemetry: feed the observatory from the completed
        // report (span completions in virtual time) and leave a flight
        // record. Both locks are taken alone, after execution, so the
        // measured runtime path is untouched.
        {
            let mut obs = shared
                .observatory
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            obs.record_latency("serve.queue_wait_seconds", queue_wait.as_secs_f64());
            if let Ok(report) = &outcome {
                obs.record_latency("serve.service_seconds", service_time.as_secs_f64());
                obs.record_latency("serve.makespan_virtual_seconds", report.makespan_s);
                for (d, (kind, elems)) in report.device_elements().into_iter().enumerate() {
                    let stats = &report.devices[d];
                    debug_assert_eq!(stats.kind, kind);
                    if stats.busy_s > 0.0 && elems > 0 {
                        obs.observe_span(d, &opcode, elems, stats.busy_s);
                    }
                    obs.set_queue_depth(d, stats.max_queue_depth as f64);
                }
                if report.quality.enabled && report.quality.checked_hlops > 0 {
                    // Feed the guard's *measured* post-verification error
                    // for telemetry (`Observatory` MAPE EWMA, OpenMetrics).
                    obs.observe_mape(TPU, report.quality.true_mape);
                }
            }
            for (d, &q) in quarantined.iter().enumerate() {
                obs.set_quarantined(d, q);
            }
        }
        let mut fr = FlightRecord::new(policy, &opcode);
        fr.queue_wait_s = queue_wait.as_secs_f64();
        fr.service_s = service_time.as_secs_f64();
        fr.quarantined = quarantined;
        if delta.quarantines > 0 {
            fr.anomalies.push(Anomaly::DeviceQuarantine);
        }
        match &outcome {
            Ok(report) => {
                fr.makespan_s = report.makespan_s;
                fr.degraded = report.faults.degraded || decision.masked_any;
                fr.repairs = report.quality.repairs.len();
                fr.redispatched = report.faults.redispatched;
                fr.devices_lost = report.faults.lost;
                if fr.repairs > 0 {
                    fr.anomalies.push(Anomaly::QualityRepair);
                }
                if fr.redispatched > 0 || report.faults.degraded {
                    fr.anomalies.push(Anomaly::Redispatch);
                }
            }
            Err(ShmtError::QualityUnattainable { .. }) => {
                fr.outcome = Anomaly::QualityUnattainable.name().to_owned();
                fr.anomalies.push(Anomaly::QualityUnattainable);
            }
            Err(ShmtError::Canceled) => {
                if queued.request.canceled() {
                    // The client canceled mid-pipeline: expected, not an
                    // anomaly.
                    fr.outcome = "canceled".to_owned();
                } else {
                    // A DAG's pipeline deadline lapsed mid-flight.
                    fr.outcome = Anomaly::DeadlineMissed.name().to_owned();
                    fr.anomalies.push(Anomaly::DeadlineMissed);
                }
            }
            Err(_) => {
                fr.outcome = Anomaly::Failure.name().to_owned();
                fr.anomalies.push(Anomaly::Failure);
            }
        }
        record_flight(shared, fr);

        let mut metrics = shared
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if delta.strikes > 0 {
            metrics.add_counter("health.strike", delta.strikes as f64);
        }
        if delta.quarantines > 0 {
            metrics.add_counter("health.quarantine", delta.quarantines as f64);
        }
        if delta.reintegrations > 0 {
            metrics.add_counter("health.reintegrate", delta.reintegrations as f64);
        }
        if let Some(ds) = &dag_stats {
            metrics.add_counter("dag.requests", 1.0);
            metrics.add_counter("dag.stages", ds.stages as f64);
            metrics.add_counter("dag.fused", ds.fused as f64);
            metrics.add_counter("dag.edges", ds.edges as f64);
            metrics.add_counter("dag.resident_edges", ds.resident_edges as f64);
            metrics.add_counter("dag.resident_bus_bytes", ds.resident_bus_bytes as f64);
        }
        match outcome {
            Ok(report) => {
                let degraded = report.faults.degraded || decision.masked_any;
                if degraded {
                    metrics.add_counter("serve.degraded", 1.0);
                }
                metrics.add_counter("serve.completed", 1.0);
                queued.ticket.fulfill(Ok(Response {
                    report,
                    queue_wait,
                    service_time,
                    policy,
                    degraded,
                }));
            }
            Err(ShmtError::Canceled) => {
                if queued.request.canceled() {
                    // The client's token stopped the pipeline between
                    // stages.
                    metrics.add_counter("serve.canceled", 1.0);
                    queued.ticket.fulfill(Err(ServeError::Canceled));
                } else {
                    // A DAG pipeline's deadline lapsed between stages.
                    metrics.add_counter("serve.deadline_missed", 1.0);
                    queued.ticket.fulfill(Err(ServeError::DeadlineExceeded {
                        waited: queued.admitted_at.elapsed(),
                        deadline: queued.deadline.unwrap_or_default(),
                    }));
                }
            }
            Err(e) => {
                let err = ServeError::from(e);
                if matches!(err, ServeError::QualityUnattainable { .. }) {
                    metrics.add_counter("serve.quality_unattainable", 1.0);
                } else {
                    metrics.add_counter("serve.failed", 1.0);
                }
                queued.ticket.fulfill(Err(err));
            }
        }
    }
}
