//! Serving-layer contract tests: backpressure, deadlines, shutdown
//! cancellation, sequential-vs-concurrent bit-identity, device-health
//! quarantine, per-request quality SLOs and QoS priority classes.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use shmt::sched::{GPU, TPU};
use shmt::{FaultPlan, Opcode, Platform, Policy, RuntimeConfig, ShmtRuntime, Tensor, Vop};
use shmt_kernels::{Benchmark, Kernel, KernelShape};
use shmt_serve::{HealthConfig, Priority, Request, ServeError, Server, ServerConfig, SubmitError};
use shmt_tensor::tile::Tile;
use shmt_tensor::TensorViewMut;

fn request(b: Benchmark, n: usize, seed: u64, policy: Policy) -> Request {
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, seed)).expect("valid VOP");
    let mut config = RuntimeConfig::new(policy);
    config.partitions = 8;
    Request::new(vop, Platform::jetson(b), config)
}

/// Holds a single-executor server busy for exactly as long as a test
/// needs. The gate request's kernel marks itself entered, then blocks
/// until the test opens the gate; it runs inline on the executor thread
/// (one partition, `compute_threads = 1`, GPU only), so once
/// [`Gate::wait_entered`] returns, everything submitted afterwards sits
/// in the queue behind it — no wall-clock race decides that. Dropping
/// the handle opens the gate, so declare it after the server: a failing
/// test then unwinds instead of hanging in the server's shutdown join.
struct Gate(Arc<GateState>);

#[derive(Debug, Default)]
struct GateState {
    /// `(entered, open)`.
    flags: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl GateState {
    /// Every update is one flag store, so a poisoned lock still holds
    /// valid flags — and `Gate::drop` must not panic.
    fn flags(&self) -> MutexGuard<'_, (bool, bool)> {
        self.flags.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, flags: MutexGuard<'a, (bool, bool)>) -> MutexGuard<'a, (bool, bool)> {
        self.changed
            .wait(flags)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct GateKernel(Arc<GateState>);

impl Gate {
    fn new() -> Self {
        Gate(Arc::default())
    }

    /// A request whose execution waits on this gate.
    fn request(&self) -> Request {
        let kernel = Box::new(GateKernel(Arc::clone(&self.0)));
        let vop = Vop::new(Opcode::Relu, kernel, vec![Tensor::zeros(16, 16)]).expect("valid VOP");
        let mut config = RuntimeConfig::new(Policy::WorkStealing);
        config.partitions = 1;
        config.compute_threads = 1;
        config.device_mask = [false; 3];
        config.device_mask[GPU] = true;
        Request::new(vop, Platform::generic(), config)
    }

    /// Blocks until the executor is inside the gate request's kernel.
    fn wait_entered(&self) {
        let mut flags = self.0.flags();
        while !flags.0 {
            flags = self.0.wait(flags);
        }
    }

    fn open(&self) {
        self.0.flags().1 = true;
        self.0.changed.notify_all();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.open();
    }
}

impl Kernel for GateKernel {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::elementwise()
    }

    fn run_exact_into(&self, _inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        {
            let mut flags = self.0.flags();
            flags.0 = true;
            self.0.changed.notify_all();
            while !flags.1 {
                flags = self.0.wait(flags);
            }
        }
        for r in tile.row0..tile.row0 + tile.rows {
            out.span_mut(r, tile.col0..tile.col0 + tile.cols).fill(0.0);
        }
    }

    fn work_per_element(&self) -> f64 {
        1.0
    }
}

#[test]
fn submit_returns_busy_at_capacity_and_recovers() {
    // One executor, capacity one: hold the executor on a request, fill
    // the single queue slot, and the next submit must bounce.
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let gate = Gate::new();
    let filler = request(Benchmark::Sobel, 128, 2, Policy::WorkStealing);
    let extra = request(Benchmark::Sobel, 128, 3, Policy::WorkStealing);
    let first = server
        .submit(gate.request())
        .expect("first request admitted");
    gate.wait_entered();
    let second = server.submit(filler).expect("freed slot admits");
    match server.submit(extra) {
        Err(SubmitError::Busy {
            request: returned,
            depth,
            capacity,
        }) => {
            // The request comes back intact for retry elsewhere, with the
            // observed load attached so the caller can size its backoff.
            assert!(returned.deadline.is_none());
            assert_eq!(depth, 1);
            assert_eq!(capacity, 1);
        }
        Ok(_) => panic!("a full queue must reject"),
        Err(SubmitError::Shutdown(_)) => panic!("server is running"),
    }
    assert!(server.metrics().counter("serve.rejected_busy") >= 1.0);
    // Everything admitted still completes.
    gate.open();
    first.wait().expect("blocker completes");
    second.wait().expect("queued request completes");
}

#[test]
fn submit_blocking_waits_instead_of_bouncing() {
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let tickets: Vec<_> = (0..6)
        .map(|seed| {
            server
                .submit_blocking(request(
                    Benchmark::MeanFilter,
                    128,
                    seed,
                    Policy::WorkStealing,
                ))
                .expect("server running")
        })
        .collect();
    for t in tickets {
        t.wait().expect("all blocking submissions complete");
    }
    assert_eq!(server.metrics().counter("serve.completed"), 6.0);
    assert_eq!(server.metrics().counter("serve.rejected_busy"), 0.0);
}

#[test]
fn queued_deadline_produces_typed_error_not_a_hang() {
    // One executor busy on a big request; a zero deadline on the queued
    // request must lapse while it waits.
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let blocker = server
        .submit(request(Benchmark::Sobel, 512, 1, Policy::WorkStealing))
        .expect("admitted");
    let doomed = server
        .submit(
            request(Benchmark::Sobel, 512, 2, Policy::WorkStealing).with_deadline(Duration::ZERO),
        )
        .expect("admitted");
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { waited, deadline }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert!(waited >= deadline);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    blocker.wait().expect("blocker unaffected");
    assert_eq!(server.metrics().counter("serve.deadline_missed"), 1.0);
}

#[test]
fn ticket_wait_timeout_returns_none_while_in_flight() {
    let server = Server::new(ServerConfig::default());
    let ticket = server
        .submit(request(Benchmark::Sobel, 512, 3, Policy::WorkStealing))
        .expect("admitted");
    // Either still in flight (None) or already done (Some(Ok)) — never a
    // hang, never an error.
    match ticket.wait_timeout(Duration::from_micros(1)) {
        None => {
            let outcome = ticket
                .wait_timeout(Duration::from_secs(30))
                .expect("completes well within 30s");
            outcome.expect("request succeeds");
        }
        Some(outcome) => {
            outcome.expect("request succeeds");
        }
    }
}

#[test]
fn shutdown_cancels_queued_requests() {
    let mut server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    let gate = Gate::new();
    let mut tickets = vec![server.submit(gate.request()).expect("admitted")];
    // With the executor held at the gate, the requests below really sit
    // in the queue when shutdown drains it.
    gate.wait_entered();
    for seed in 1..5 {
        let req = request(Benchmark::Sobel, 128, seed, Policy::WorkStealing);
        tickets.push(server.submit(req).expect("admitted"));
    }
    // `shutdown` joins the held executor, so the gate opens from a helper
    // thread once the last queued request has resolved — which only the
    // shutdown drain can do while the executor is held.
    let last = tickets.pop().expect("queued tickets");
    let opener = std::thread::spawn(move || {
        let outcome = last.wait();
        gate.open();
        outcome
    });
    server.shutdown();
    let last = opener.join().expect("gate opener");
    let mut canceled = 0;
    let mut completed = 0;
    for outcome in tickets.into_iter().map(|t| t.wait()).chain([last]) {
        match outcome {
            Ok(_) => completed += 1,
            Err(ServeError::Canceled) => canceled += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(canceled + completed, 5);
    assert!(canceled >= 1, "queued requests are canceled, not leaked");
    // Post-shutdown submission is refused with the request handed back.
    match server.submit(request(Benchmark::Sobel, 128, 9, Policy::WorkStealing)) {
        Err(SubmitError::Shutdown(_)) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
}

#[test]
fn concurrent_serving_is_bit_identical_to_sequential() {
    let cases: Vec<(Benchmark, u64, Policy)> = vec![
        (Benchmark::Sobel, 11, Policy::WorkStealing),
        (Benchmark::MeanFilter, 12, Policy::WorkStealing),
        (Benchmark::Fft, 13, Policy::EvenDistribution),
        (Benchmark::Sobel, 14, Policy::EvenDistribution),
        (Benchmark::MeanFilter, 15, Policy::WorkStealing),
        (Benchmark::Fft, 16, Policy::WorkStealing),
    ];
    // Sequential references, one runtime per case.
    let references: Vec<_> = cases
        .iter()
        .map(|&(b, seed, policy)| {
            let req = request(b, 192, seed, policy);
            ShmtRuntime::new(req.platform.clone(), req.config)
                .execute(req.vop().expect("single-VOP request"))
                .expect("sequential run succeeds")
                .output
        })
        .collect();
    // The same cases through a concurrent server.
    let server = Server::new(ServerConfig {
        executors: 4,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let tickets: Vec<_> = cases
        .iter()
        .map(|&(b, seed, policy)| {
            server
                .submit_blocking(request(b, 192, seed, policy))
                .expect("server running")
        })
        .collect();
    for (ticket, reference) in tickets.into_iter().zip(&references) {
        let response = ticket.wait().expect("served run succeeds");
        assert_eq!(
            response.report.output.as_slice(),
            reference.as_slice(),
            "served output must be bit-identical to sequential execution"
        );
    }
    // The observatory's service histogram holds one sample per request.
    let obs = server.observatory();
    let service = obs
        .histogram("serve.service_seconds")
        .expect("service histogram fed");
    assert_eq!(service.total(), cases.len() as u64);
    assert!(service.quantile(0.5) <= service.quantile(0.99));
    assert!(service.max_value().is_some_and(|m| m > 0.0));
    // The histogram keeps the summed service time too: the serve layer
    // records no second copy of it.
    assert!(service.sum() > 0.0);
}

/// One request run to completion on a single-executor server, so health
/// decisions are strictly sequential and deterministic.
fn serve_one(server: &Server, req: Request) -> Result<shmt_serve::Response, ServeError> {
    server.submit_blocking(req).expect("server running").wait()
}

#[test]
fn repeated_dropouts_quarantine_probe_and_reintegrate() {
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        health: HealthConfig {
            enabled: true,
            quarantine_after: 2,
            probe_after: 1,
        },
        ..ServerConfig::default()
    });
    // The TPU dies at t=0 on the faulted requests: each completes
    // degraded, striking the TPU once.
    let dropout = FaultPlan::none().with_dropout(TPU, 1e-9);
    for _ in 0..2 {
        let resp = serve_one(
            &server,
            request(Benchmark::Sobel, 128, 1, Policy::WorkStealing).with_faults(dropout.clone()),
        )
        .expect("dropout runs still complete");
        assert!(resp.degraded, "a run that lost a device is degraded");
        assert!(resp.report.faults.lost[TPU]);
    }
    let health = server.device_health();
    assert!(health[TPU].quarantined, "two strikes must trip the breaker");
    assert_eq!(health[TPU].total_strikes, 2);

    // Quarantined: the next clean request runs without the TPU and is
    // flagged degraded even though nothing faulted during it.
    let resp = serve_one(
        &server,
        request(Benchmark::Sobel, 128, 2, Policy::WorkStealing),
    )
    .expect("masked run completes");
    assert!(resp.degraded, "health-masked responses are degraded");
    assert!(!resp.report.faults.degraded, "no fault fired in the run");
    assert_eq!(resp.report.tpu_fraction, 0.0, "TPU masked out");

    // The probe clock has ticked once; the next request probes the TPU,
    // runs clean, and reintegrates it.
    let resp = serve_one(
        &server,
        request(Benchmark::Sobel, 128, 3, Policy::WorkStealing),
    )
    .expect("probe run completes");
    assert!(!resp.degraded, "the probe serves with the full mask");
    assert!(resp.report.tpu_fraction > 0.0, "probe re-admits the TPU");
    let health = server.device_health();
    assert!(!health[TPU].quarantined, "clean probe closes the breaker");
    assert_eq!(health[TPU].probes, 1);
    assert_eq!(health[TPU].reintegrations, 1);

    let metrics = server.metrics();
    assert_eq!(metrics.counter("health.strike"), 2.0);
    assert_eq!(metrics.counter("health.quarantine"), 1.0);
    assert_eq!(metrics.counter("health.probe"), 1.0);
    assert_eq!(metrics.counter("health.reintegrate"), 1.0);
    // Two dropout runs plus the masked run served degraded.
    assert_eq!(metrics.counter("serve.degraded"), 3.0);
}

#[test]
fn priority_classes_order_queue_waits() {
    // One executor pinned on a blocker while a backlog of nine equal
    // requests builds, submitted in *reverse* priority order so plain
    // FIFO would favor BestEffort. Stride dequeue must drain the
    // backlog so that mean queue wait orders Interactive < Batch <
    // BestEffort, without starving any class.
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let gate = Gate::new();
    // Build all requests up front so submission is near-instantaneous.
    let backlog: Vec<Request> = [Priority::BestEffort, Priority::Batch, Priority::Interactive]
        .into_iter()
        .flat_map(|class| {
            (0..3).map(move |i| {
                request(Benchmark::Sobel, 128, 70 + i, Policy::WorkStealing).with_priority(class)
            })
        })
        .collect();
    let first = server.submit(gate.request()).expect("blocker admitted");
    gate.wait_entered();
    let tickets: Vec<_> = backlog
        .into_iter()
        .map(|req| {
            let class = req.priority;
            (class, server.submit(req).expect("backlog admitted"))
        })
        .collect();
    gate.open();
    first.wait().expect("blocker completes");
    let mut waits = [(0.0, 0usize); 3];
    for (class, t) in tickets {
        let resp = t.wait().expect("every class completes — no starvation");
        let slot = &mut waits[class.index()];
        slot.0 += resp.queue_wait.as_secs_f64();
        slot.1 += 1;
    }
    let mean = |class: Priority| {
        let (sum, count) = waits[class.index()];
        assert_eq!(count, 3, "{} requests all completed", class.name());
        sum / count as f64
    };
    let (i, b, e) = (
        mean(Priority::Interactive),
        mean(Priority::Batch),
        mean(Priority::BestEffort),
    );
    assert!(
        i < b && b < e,
        "queue waits must order by class: interactive {i:.4}s, batch {b:.4}s, best_effort {e:.4}s"
    );
}

#[test]
fn quality_slo_without_an_exact_device_fails_typed() {
    let server = Server::new(ServerConfig::default());
    // TPU-only mask: every partition is approximate and there is no
    // exact device left to verify or repair with.
    let mut req = request(Benchmark::Sobel, 128, 4, Policy::WorkStealing).with_max_mape(1e-6);
    req.config.device_mask = [false, false, true];
    match serve_one(&server, req) {
        Err(ServeError::QualityUnattainable { budget_mape, .. }) => {
            assert_eq!(budget_mape, 1e-6);
        }
        other => panic!("expected QualityUnattainable, got {other:?}"),
    }
    assert_eq!(server.metrics().counter("serve.quality_unattainable"), 1.0);
    assert_eq!(server.metrics().counter("serve.failed"), 0.0);
}

#[test]
fn quality_slo_repairs_miscalibrated_output_within_budget() {
    let server = Server::new(ServerConfig::default());
    let budget = 0.05;
    let b = Benchmark::Sobel;
    let miscalibrated = || {
        request(b, 128, 5, Policy::WorkStealing)
            .with_faults(FaultPlan::none().with_tpu_miscalibration(1.5, 0.1))
    };
    let reference = shmt::baseline::exact_reference(
        &Vop::from_benchmark(b, b.generate_inputs(128, 128, 5)).expect("valid VOP"),
    );
    // The miscalibration is real: served without the SLO, the same
    // request ships output over the budget.
    let unguarded = serve_one(&server, miscalibrated()).expect("unguarded run serves");
    let unguarded_mape = shmt::quality::mape(&reference, &unguarded.report.output);
    assert!(
        unguarded_mape > budget,
        "unguarded error {unguarded_mape} must exceed the {budget} budget"
    );
    let resp = serve_one(&server, miscalibrated().with_max_mape(budget))
        .expect("guarded run repairs its way under budget");
    let guarded_mape = shmt::quality::mape(&reference, &resp.report.output);
    assert!(
        guarded_mape <= budget,
        "guarded error {guarded_mape} must stay within the {budget} budget"
    );
    let q = &resp.report.quality;
    assert!(q.enabled, "the SLO must have enabled the guard");
    assert!(
        !q.repairs.is_empty(),
        "a 1.5x gain error must exceed a {budget} MAPE budget somewhere"
    );
    assert!(
        q.true_mape <= budget,
        "served quality {} must honor the SLO {budget}",
        q.true_mape
    );
    assert!(!resp.degraded, "no device was lost or masked");
    // Guard repairs are health evidence against the TPU.
    assert_eq!(server.device_health()[TPU].total_strikes, 1);
}

#[test]
fn cancel_token_fails_queued_request_typed() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // One executor pinned on a blocker; a queued request whose token is
    // set must resolve Canceled at pickup without touching a device,
    // while an uncanceled sibling completes normally.
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let gate = Gate::new();
    let token = Arc::new(AtomicBool::new(false));
    let doomed =
        request(Benchmark::Sobel, 128, 21, Policy::WorkStealing).with_cancel(Arc::clone(&token));
    let sibling = request(Benchmark::Sobel, 128, 22, Policy::WorkStealing);
    let first = server.submit(gate.request()).expect("admitted");
    gate.wait_entered();
    let doomed = server.submit(doomed).expect("admitted");
    let sibling = server.submit(sibling).expect("admitted");
    token.store(true, Ordering::Relaxed);
    gate.open();
    match doomed.wait() {
        Err(ServeError::Canceled) => {}
        other => panic!("expected Canceled, got {other:?}"),
    }
    first.wait().expect("blocker unaffected");
    sibling.wait().expect("uncanceled sibling completes");
    assert_eq!(server.metrics().counter("serve.canceled"), 1.0);
    assert_eq!(server.metrics().counter("serve.failed"), 0.0);
}

#[test]
fn probe_racing_shutdown_resolves_typed_without_sticking_quarantine() {
    // Regression for the probe/shutdown race: a request that *would*
    // probe a quarantined device, drained by shutdown before an executor
    // reaches it, must resolve to a typed Canceled — and must not leave
    // the breaker holding a phantom in-flight probe.
    let mut server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        health: HealthConfig {
            enabled: true,
            quarantine_after: 1,
            probe_after: 1,
        },
        ..ServerConfig::default()
    });
    let dropout = FaultPlan::none().with_dropout(TPU, 1e-9);
    serve_one(
        &server,
        request(Benchmark::Sobel, 128, 30, Policy::WorkStealing).with_faults(dropout),
    )
    .expect("dropout run completes degraded");
    assert!(server.device_health()[TPU].quarantined);

    // Pin the executor at the gate, queue the would-be probe, then shut
    // down while it still sits in the queue. The blocker asks for the
    // TPU too, so its plan ticks the probe clock to due (and masks the
    // quarantined TPU: the gate still runs on the GPU alone).
    let gate = Gate::new();
    let mut blocker = gate.request();
    blocker.config.device_mask[TPU] = true;
    let first = server.submit(blocker).expect("admitted");
    gate.wait_entered();
    let probe = request(Benchmark::Sobel, 128, 32, Policy::WorkStealing);
    let probe = server.submit(probe).expect("admitted");
    // `shutdown` joins the held executor: open the gate from a helper
    // thread once the drain has resolved the probe.
    let opener = std::thread::spawn(move || {
        let outcome = probe.wait();
        gate.open();
        outcome
    });
    server.shutdown();
    first.wait().expect("running request finishes normally");
    match opener.join().expect("gate opener") {
        Err(ServeError::Canceled) => {}
        other => panic!("expected Canceled, got {other:?}"),
    }
    let health = server.device_health()[TPU];
    assert!(
        !health.probe_inflight,
        "a drained probe request must not leave the breaker awaiting a verdict"
    );
    assert!(health.quarantined, "the breaker simply stays open");
}

mod dag_serving {
    use super::*;
    use shmt::dag::{DagConfig, DagNode, VopDag};
    use shmt::Tensor;
    use shmt_kernels::primitives::UnaryOp;
    use shmt_tensor::gen;

    fn pipeline() -> (VopDag, Tensor) {
        let dag = VopDag::new(vec![
            DagNode::benchmark(Benchmark::Sobel, 3, vec![]),
            DagNode::unary(UnaryOp::Sqrt, 0),
        ])
        .expect("valid DAG");
        (dag, gen::image8(96, 96, 11))
    }

    fn dag_config() -> RuntimeConfig {
        let mut config = RuntimeConfig::new(Policy::WorkStealing);
        config.partitions = 8;
        config
    }

    #[test]
    fn served_dag_is_bit_identical_to_direct_execution() {
        let (dag, input) = pipeline();
        let reference = dag
            .run(&input, &DagConfig::new(dag_config()))
            .expect("direct DAG run succeeds");
        let server = Server::new(ServerConfig::default());
        let response = server
            .submit_blocking(Request::with_program(dag, input, dag_config()))
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(
            response.report.output.as_slice(),
            reference.output.as_slice()
        );
        assert!(response.report.makespan_s > 0.0);
        // The dag.* counters feed the merged observatory snapshot.
        let metrics = server.observatory().metrics().clone();
        assert_eq!(metrics.counter("dag.requests"), 1.0);
        assert_eq!(metrics.counter("dag.stages"), 2.0);
        assert_eq!(
            metrics.counter("dag.resident_bus_bytes"),
            reference.resident_bus_bytes as f64
        );
        assert_eq!(response.report.bus_bytes, reference.resident_bus_bytes);
    }

    #[test]
    fn dag_with_fault_plan_fails_typed() {
        let (dag, input) = pipeline();
        let server = Server::new(ServerConfig::default());
        let req = Request::with_program(dag, input, dag_config())
            .with_faults(FaultPlan::none().with_dropout(0, 0.0));
        let err = server
            .submit_blocking(req)
            .expect("admitted")
            .wait()
            .expect_err("fault plans are single-VOP only");
        assert!(matches!(err, ServeError::Runtime(_)), "{err}");
    }

    #[test]
    fn lapsed_pipeline_deadline_fails_typed() {
        // The pipeline waits behind a held executor until its deadline has
        // certainly lapsed, so the queue-side check fails it typed. (The
        // between-stage poll that stops a running DAG early surfaces the
        // same error; `dag::tests::canceled_runs_surface_typed_error`
        // covers that hook.)
        let dag = VopDag::new(vec![
            DagNode::benchmark(Benchmark::Sobel, 3, vec![]),
            DagNode::unary(UnaryOp::Sqrt, 0),
        ])
        .expect("valid DAG");
        let server = Server::new(ServerConfig {
            executors: 1,
            ..ServerConfig::default()
        });
        let gate = Gate::new();
        let first = server.submit(gate.request()).expect("admitted");
        gate.wait_entered();
        let deadline = Duration::from_millis(2);
        let req = Request::with_program(dag, gen::image8(512, 512, 11), dag_config())
            .with_deadline(deadline);
        let ticket = server.submit_blocking(req).expect("admitted");
        std::thread::sleep(2 * deadline);
        gate.open();
        first.wait().expect("gate request completes");
        let err = ticket.wait().expect_err("deadline lapsed");
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
        assert_eq!(server.metrics().counter("serve.deadline_missed"), 1.0);
    }
}
