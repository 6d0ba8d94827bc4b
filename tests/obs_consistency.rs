//! The telemetry layer must observe without perturbing: serving with the
//! full observatory wired stays bit-identical to sequential execution,
//! streaming quantiles stay within one bucket of the exact oracle, the
//! OpenMetrics exposition round-trips through its own parser, the flight
//! recorder dumps context exactly when anomalies happen, and per-device
//! EWMA profiles converge to injected hardware behaviour.

use std::path::PathBuf;

use shmt::calibration::{bench_profile, Calibration};
use shmt::sampling::SamplingMethod;
use shmt::sched::{GPU, TPU};
use shmt::{FaultPlan, Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Vop};
use shmt_kernels::Benchmark;
use shmt_serve::{FlightConfig, HealthConfig, Request, Server, ServerConfig};
use shmt_trace::openmetrics::Exposition;
use shmt_trace::{Histogram, Observatory};

/// A slowed-down platform (compute-dominant at test sizes) so injected
/// slowdowns move elements-per-busy-second instead of drowning in fixed
/// launch overheads.
fn slow_platform(b: Benchmark) -> Platform {
    Platform::with_profiles(
        Calibration {
            gpu_throughput: 1.0e6,
            ..Default::default()
        },
        bench_profile(b),
    )
}

fn qaws() -> Policy {
    Policy::Qaws {
        assignment: QawsAssignment::TopK,
        sampling: SamplingMethod::Striding,
    }
}

fn request(b: Benchmark, n: usize, seed: u64, policy: Policy) -> Request {
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, seed)).expect("valid VOP");
    let mut config = RuntimeConfig::new(policy);
    config.partitions = 8;
    Request::new(vop, Platform::jetson(b), config)
}

fn server() -> Server {
    Server::new(ServerConfig {
        executors: 2,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
}

/// A unique per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shmt_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn telemetry_stays_off_the_data_path() {
    // Full telemetry on (observatory + flight ring, no dump dir) must not
    // change a single output bit versus sequential execution.
    let server = server();
    for (i, b) in [Benchmark::Sobel, Benchmark::MeanFilter, Benchmark::Fft]
        .into_iter()
        .enumerate()
    {
        let req = request(b, 64, 10 + i as u64, qaws());
        let reference = ShmtRuntime::new(req.platform.clone(), req.config)
            .execute(req.vop().expect("single-VOP request"))
            .expect("sequential run succeeds")
            .output;
        let served = server
            .submit_blocking(request(b, 64, 10 + i as u64, qaws()))
            .expect("server running")
            .wait()
            .expect("request succeeds");
        assert_eq!(
            served.report.output.as_slice(),
            reference.as_slice(),
            "{b}: telemetry perturbed the served output"
        );
    }
    // And the observatory did actually watch those runs.
    let obs = server.observatory();
    assert!(obs.profiles().iter().any(|p| p.spans > 0));
    assert!(obs.histogram("serve.service_seconds").is_some());
}

#[test]
fn streaming_quantiles_stay_within_one_bucket_of_the_oracle() {
    // The log-bucketed histogram promises: never below the exact
    // nearest-rank value, never more than one bucket ratio (1.25x) above.
    let mut hist = Histogram::latency_log();
    let mut exact: Vec<f64> = Vec::new();
    let mut x: f64 = 3.0e-6;
    for i in 0..4000 {
        let v = x * (1.0 + (i % 97) as f64 / 97.0);
        hist.record(v);
        exact.push(v);
        x *= 1.0021;
    }
    exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        let got = hist.quantile(q).expect("non-empty histogram");
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let want = exact[rank - 1];
        assert!(
            got >= want && got <= want * 1.25 + 1e-12,
            "q{q}: streaming {got} vs exact {want}"
        );
    }
}

#[test]
fn openmetrics_round_trips_from_a_live_server() {
    let server = server();
    for i in 0..6 {
        server
            .submit_blocking(request(Benchmark::Sobel, 64, 20 + i, qaws()))
            .expect("server running")
            .wait()
            .expect("request succeeds");
    }
    let text = server.export_openmetrics();
    assert!(text.ends_with("# EOF\n"), "exposition must be terminated");
    let parsed = Exposition::parse(&text).expect("own exporter output parses");
    assert_eq!(parsed.render(), text, "re-render must be byte-identical");
    assert_eq!(
        parsed.sample_value("serve_completed_total", &[]),
        Some(6.0),
        "exported counter agrees with the served request count"
    );
    // Per-device families carry one sample per device roster entry.
    let spans = parsed
        .family("shmt_device_spans")
        .expect("device span family");
    assert_eq!(spans.samples.len(), shmt_trace::DEFAULT_DEVICE_NAMES.len());
}

#[test]
fn flight_ring_evicts_and_dumps_on_anomaly() {
    let dir = scratch_dir("flight");
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 8,
        flight: FlightConfig {
            capacity: 4,
            dump_dir: Some(dir.clone()),
            ..FlightConfig::default()
        },
        ..ServerConfig::default()
    });
    // Clean requests first: they fill the ring but never dump.
    for i in 0..6 {
        server
            .submit_blocking(request(Benchmark::Sobel, 64, 30 + i, qaws()))
            .expect("server running")
            .wait()
            .expect("request succeeds");
    }
    assert_eq!(server.flight_dumps(), 0, "clean traffic never dumps");
    let records = server.flight_records();
    assert_eq!(records.len(), 4, "ring is bounded at its capacity");
    assert!(
        records
            .iter()
            .all(|r| r.anomalies.is_empty() && r.outcome == "ok"),
        "clean traffic records no anomalies"
    );

    // A TPU dropout forces a re-dispatch: that is an anomaly, and the
    // dump must carry the ring as context.
    let faulted = request(Benchmark::Sobel, 64, 40, qaws())
        .with_faults(FaultPlan::none().with_dropout(TPU, 1.0e-9));
    server
        .submit_blocking(faulted)
        .expect("server running")
        .wait()
        .expect("degraded request still completes");
    assert!(server.flight_dumps() >= 1, "the anomaly must dump");
    assert_eq!(
        server.metrics().counter("serve.flight_dumps"),
        server.flight_dumps() as f64
    );
    let dump = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a dump file exists");
    let doc = std::fs::read_to_string(&dump).expect("read dump");
    let parsed = shmt_trace::json::JsonValue::parse(&doc).expect("dump is valid JSON");
    let anomalies = parsed
        .get("trigger")
        .and_then(|t| t.get("anomalies"))
        .and_then(shmt_trace::json::JsonValue::as_array)
        .expect("trigger carries its anomalies");
    assert!(!anomalies.is_empty(), "dump names the triggering anomaly");
    let recent = parsed
        .get("recent")
        .and_then(shmt_trace::json::JsonValue::as_array)
        .expect("dump carries ring context");
    assert!(
        recent.len() >= 2,
        "the ring context travels with the anomaly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ewma_profiles_converge_to_an_injected_slowdown() {
    let run = |faults: FaultPlan| -> f64 {
        let server = Server::new(ServerConfig {
            executors: 1,
            queue_capacity: 4,
            health: HealthConfig {
                enabled: false,
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        });
        for i in 0..8 {
            let b = Benchmark::Sobel;
            let vop = Vop::from_benchmark(b, b.generate_inputs(96, 96, 50 + i)).expect("valid VOP");
            let mut config = RuntimeConfig::new(qaws());
            config.partitions = 8;
            let req = Request::new(vop, slow_platform(b), config).with_faults(faults.clone());
            server
                .submit_blocking(req)
                .expect("server running")
                .wait()
                .expect("request succeeds");
        }
        let obs = server.observatory();
        let profile = obs.profile(GPU).expect("GPU profile exists");
        assert_eq!(profile.spans, 8, "every run contributed a GPU span");
        *profile
            .ewma_throughput
            .get("Sobel")
            .expect("GPU Sobel EWMA exists")
    };
    let healthy = run(FaultPlan::none());
    let slowed = run(FaultPlan::none().with_slowdown(GPU, 0.0, 1.0e9, 4.0));
    let ratio = slowed / healthy;
    assert!(
        (0.18..=0.35).contains(&ratio),
        "4x slowdown must converge the EWMA to ~1/4 throughput \
         (healthy {healthy:.0}, slowed {slowed:.0}, ratio {ratio:.3})"
    );
}

#[test]
fn observatory_merge_is_order_insensitive_on_histograms() {
    // Merging two observatories must agree with recording everything into
    // one — the property that makes sharded collection trustworthy.
    let mut a = Observatory::new();
    let mut b = Observatory::new();
    let mut all = Observatory::new();
    for i in 0..500 {
        let v = 1.0e-4 * (1.0 + (i as f64) / 37.0);
        if i % 2 == 0 {
            a.record_latency("serve.service_seconds", v);
        } else {
            b.record_latency("serve.service_seconds", v);
        }
        all.record_latency("serve.service_seconds", v);
    }
    a.merge(&b);
    let merged = a.histogram("serve.service_seconds").expect("merged");
    let oracle = all.histogram("serve.service_seconds").expect("oracle");
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(merged.quantile(q), oracle.quantile(q), "quantile q{q}");
    }
    assert_eq!(merged.sum(), oracle.sum());
}
