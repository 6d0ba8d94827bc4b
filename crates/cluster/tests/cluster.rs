//! Cluster-routing contract tests: failover around crashed nodes,
//! prompt deadline handling under backoff, retry-budget exhaustion,
//! hedging with loser cancellation, class-ordered shedding, and
//! quarantine/probe reintegration of a flapping node. The common thread:
//! every routed request resolves to a response or a typed error — no
//! hangs, nothing lost.

use std::time::{Duration, Instant};

use shmt_cluster::{
    ClusterConfig, ClusterError, ClusterRouter, HedgeConfig, NodeConfig, NodeFaultPlan,
    RetryBudgetConfig, RetryConfig, RouteOptions, ShedConfig,
};
use shmt_kernels::Benchmark;
use shmt_serve::{Priority, ServerConfig};

use shmt_cluster::loadgen::RequestSpec;

/// A small request spec the virtual devices finish in well under a
/// millisecond of wall time.
fn spec(seed: u64) -> RequestSpec {
    RequestSpec::new(Benchmark::Sobel, 32, seed)
}

/// `n` healthy single-executor nodes.
fn nodes(n: usize) -> Vec<NodeConfig> {
    (0..n)
        .map(|_| {
            NodeConfig::new(ServerConfig {
                executors: 1,
                ..ServerConfig::default()
            })
        })
        .collect()
}

fn config(nodes: Vec<NodeConfig>) -> ClusterConfig {
    ClusterConfig {
        nodes,
        ..ClusterConfig::with_nodes(1)
    }
}

#[test]
fn failover_masks_a_crashed_node_with_zero_lost_requests() {
    let mut cfg = config(nodes(3));
    cfg.nodes[0] = NodeConfig::new(ServerConfig {
        executors: 1,
        ..ServerConfig::default()
    })
    .with_faults(NodeFaultPlan::none().with_crash_at(0.0));
    // One strike quarantines: under light sequential load the scoring
    // pressure penalty would otherwise starve the node of the second
    // strike by steering everything around it.
    cfg.breaker.quarantine_after = 1;
    let router = ClusterRouter::new(cfg);
    for i in 0..20 {
        let s = spec(i);
        let resp = router
            .route(RouteOptions::new(), &|| s.build())
            .expect("failover resolves every request");
        assert_ne!(resp.node, 0, "the crashed node never serves");
    }
    let health = router.node_health();
    assert!(
        health[0].quarantined,
        "repeated unavailability quarantines the crashed node"
    );
    assert!(health[0].total_strikes >= 2);
    assert!(!health[1].quarantined && !health[2].quarantined);
    // Failover happened inside each request's first pass: no retry
    // tokens were spent on submit-level rerouting.
    assert_eq!(router.budget_stats().withdrawn, 0);

    // A correlated dual failure: node 0 crashed and node 1 down for the
    // whole run. The last node standing serves every request.
    let mut cfg = config(nodes(3));
    cfg.nodes[0] = cfg.nodes[0]
        .clone()
        .with_faults(NodeFaultPlan::none().with_crash_at(0.0));
    cfg.nodes[1] = cfg.nodes[1]
        .clone()
        .with_faults(NodeFaultPlan::none().with_down_window(0.0, f64::INFINITY));
    let router = ClusterRouter::new(cfg);
    for i in 0..20 {
        let s = spec(i);
        let resp = router
            .route(RouteOptions::new(), &|| s.build())
            .expect("the surviving node serves every request");
        assert_eq!(resp.node, 2, "only node 2 is up");
    }
}

#[test]
fn all_nodes_down_resolves_typed_instead_of_hanging() {
    let mut cfg = config(nodes(2));
    for node in &mut cfg.nodes {
        *node = node
            .clone()
            .with_faults(NodeFaultPlan::none().with_crash_at(0.0));
    }
    cfg.retry = RetryConfig {
        max_attempts: 3,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(8),
    };
    let router = ClusterRouter::new(cfg);
    let started = Instant::now();
    let s = spec(1);
    let err = router
        .route(RouteOptions::new(), &|| s.build())
        .expect_err("a dead fleet cannot serve");
    assert!(
        matches!(err, ClusterError::NodesExhausted { attempts: 3, .. }),
        "typed exhaustion after bounded attempts, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "resolution is prompt, not a hang"
    );
}

#[test]
fn retries_that_cannot_fit_the_deadline_fail_promptly() {
    // Satellite regression: with every node down and a 60 ms base
    // backoff against an 80 ms deadline, the router must return
    // DeadlineExceeded as soon as the next backoff cannot fit — not
    // sleep through the rest of the schedule.
    let mut cfg = config(nodes(2));
    for node in &mut cfg.nodes {
        *node = node
            .clone()
            .with_faults(NodeFaultPlan::none().with_crash_at(0.0));
    }
    cfg.retry = RetryConfig {
        max_attempts: 10,
        backoff: Duration::from_millis(60),
        backoff_cap: Duration::from_secs(1),
    };
    cfg.budget = RetryBudgetConfig {
        initial: 100.0,
        deposit_per_request: 0.0,
        cap: 100.0,
    };
    let router = ClusterRouter::new(cfg);
    let started = Instant::now();
    let s = spec(1);
    let deadline = Duration::from_millis(80);
    let err = router
        .route(RouteOptions::new().with_deadline(deadline), &|| s.build())
        .expect_err("a dead fleet cannot serve");
    let wall = started.elapsed();
    match err {
        ClusterError::DeadlineExceeded {
            elapsed,
            deadline: d,
        } => {
            assert_eq!(d, deadline);
            assert!(
                elapsed < Duration::from_millis(300),
                "gave up promptly at {elapsed:?}, not after the full backoff schedule"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert!(
        wall < Duration::from_millis(300),
        "{wall:?} should be one backoff step, not ~10 of them"
    );
}

#[test]
fn the_retry_budget_stops_a_retry_storm() {
    let mut cfg = config(nodes(2));
    for node in &mut cfg.nodes {
        *node = node
            .clone()
            .with_faults(NodeFaultPlan::none().with_crash_at(0.0));
    }
    cfg.retry = RetryConfig {
        max_attempts: 50,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
    };
    cfg.budget = RetryBudgetConfig {
        initial: 1.0,
        deposit_per_request: 0.0,
        cap: 10.0,
    };
    let router = ClusterRouter::new(cfg);
    let s = spec(1);
    let err = router
        .route(RouteOptions::new(), &|| s.build())
        .expect_err("a dead fleet cannot serve");
    assert!(
        matches!(err, ClusterError::RetryBudgetExhausted { .. }),
        "the empty bucket surfaces, got {err}"
    );
    let stats = router.budget_stats();
    assert_eq!(stats.withdrawn, 1, "exactly the banked token was spent");
    assert!(stats.denied >= 1);
}

#[test]
fn a_hedge_rescues_a_slow_node_and_the_loser_is_canceled() {
    let mut cfg = config(nodes(2));
    // Node 0 delivers everything 300 ms late for the whole test.
    cfg.nodes[0] = cfg.nodes[0]
        .clone()
        .with_faults(NodeFaultPlan::none().with_slow_window(
            0.0,
            3600.0,
            Duration::from_millis(300),
        ));
    cfg.hedge = HedgeConfig {
        enabled: true,
        quantile: 0.95,
        min_samples: 1_000_000, // stay on the cold-start delay
        min_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(20),
    };
    let router = ClusterRouter::new(cfg);
    // Both nodes idle: the tie-break sends the primary to node 0.
    let s = spec(1);
    let started = Instant::now();
    let resp = router
        .route(RouteOptions::new(), &|| s.build())
        .expect("the hedge resolves the request");
    assert!(resp.hedged, "a hedge was launched");
    assert!(resp.hedge_won, "the hedge beat the slow primary");
    assert_eq!(resp.node, 1, "the healthy node served");
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "hedged latency cuts under the slow node's 300 ms delay"
    );
    let m = router.metrics();
    assert!(m.counter("cluster.hedges") >= 1.0);
    assert!(m.counter("cluster.hedge_wins") >= 1.0);
    // The loser was canceled, its budget token accounted.
    assert_eq!(router.budget_stats().withdrawn, 1);
}

#[test]
fn shedding_drops_best_effort_before_interactive() {
    let mut cfg = config(nodes(1));
    // The single node delivers slowly so in-flight requests pile up.
    cfg.nodes[0] = cfg.nodes[0]
        .clone()
        .with_faults(NodeFaultPlan::none().with_slow_window(
            0.0,
            3600.0,
            Duration::from_millis(400),
        ));
    cfg.hedge.enabled = false;
    cfg.shed = ShedConfig {
        enabled: true,
        capacity: 8,
        batch_fraction: 0.75,
        best_effort_fraction: 0.25,
    };
    let router = ClusterRouter::new(cfg);
    let router = &router;
    std::thread::scope(|scope| {
        // Four batch requests in flight (≥ the BestEffort ceiling of 2).
        let holders: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let s = spec(i);
                    router.route(RouteOptions::new(), &|| s.build())
                })
            })
            .collect();
        while router.inflight() < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = spec(99);
        let be = router.route(
            RouteOptions::new().with_priority(Priority::BestEffort),
            &|| s.build(),
        );
        match be {
            Err(ClusterError::Shed {
                priority, limit, ..
            }) => {
                assert_eq!(priority, Priority::BestEffort);
                assert_eq!(limit, 2);
            }
            other => panic!("BestEffort must shed under load, got {other:?}"),
        }
        let s2 = spec(100);
        let interactive = router.route(
            RouteOptions::new().with_priority(Priority::Interactive),
            &|| s2.build(),
        );
        assert!(
            interactive.is_ok(),
            "Interactive stays admitted at the same load: {interactive:?}"
        );
        for h in holders {
            h.join()
                .expect("holder thread")
                .expect("held batch requests still complete");
        }
    });
    let m = router.metrics();
    assert_eq!(m.counter("cluster.shed.best_effort"), 1.0);
    assert_eq!(m.counter("cluster.shed.interactive"), 0.0);
}

#[test]
fn a_mid_flight_connection_loss_is_retried_elsewhere() {
    let mut cfg = config(nodes(2));
    // Node 0 computes fine but delivers 200 ms late — and drops off the
    // network 50 ms in, with that response still undelivered. The
    // router must observe a lost connection and re-dispatch, not wait
    // out a delivery that will never come.
    cfg.nodes[0] = cfg.nodes[0].clone().with_faults(
        NodeFaultPlan::none()
            .with_slow_window(0.0, 3600.0, Duration::from_millis(200))
            .with_down_window(0.05, 3600.0),
    );
    // No hedge: the cold-start hedge delay (50 ms) would race the down
    // window and resolve the request inside the first attempt.
    cfg.hedge.enabled = false;
    let router = ClusterRouter::new(cfg);
    let s = spec(1);
    let started = Instant::now();
    let resp = router
        .route(RouteOptions::new(), &|| s.build())
        .expect("the retry resolves the request");
    assert_eq!(resp.tries, 2, "one failed dispatch, one retry");
    assert_eq!(resp.node, 1, "the surviving node served");
    let wall = started.elapsed();
    assert!(
        wall > Duration::from_millis(45) && wall < Duration::from_millis(150),
        "resolved right after the 50 ms connection loss, got {wall:?}"
    );
    assert!(router.metrics().counter("cluster.connection_lost") >= 1.0);
    assert_eq!(router.budget_stats().withdrawn, 1, "the retry paid a token");
}

#[test]
fn a_flapping_node_is_quarantined_probed_and_reintegrated() {
    let mut cfg = config(nodes(2));
    // Node 0 is down for the first 250 ms, then healthy again.
    cfg.nodes[0] = cfg.nodes[0]
        .clone()
        .with_faults(NodeFaultPlan::none().with_down_window(0.0, 0.25));
    cfg.breaker.quarantine_after = 1;
    cfg.breaker.probe_after = 2;
    let router = ClusterRouter::new(cfg);
    for i in 0..60 {
        let s = spec(i);
        router
            .route(RouteOptions::new(), &|| s.build())
            .expect("the healthy node covers the flap");
        std::thread::sleep(Duration::from_millis(8));
    }
    let health = router.node_health();
    assert!(health[0].quarantines >= 1, "the flap tripped the breaker");
    assert!(health[0].probes >= 1, "quarantine was probed");
    assert!(
        health[0].reintegrations >= 1,
        "a clean probe reintegrated the node"
    );
    assert!(
        !health[0].quarantined,
        "the recovered node is back in rotation"
    );
    assert!(
        router.node_dispatched()[0] > 0,
        "the reintegrated node serves again"
    );
}
