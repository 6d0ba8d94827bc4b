//! The trace must agree with the report it rode along with: spans sum to
//! the device accounting, instants match the counters, the export
//! round-trips, and capturing nothing costs nothing.

use shmt::calibration::{bench_profile, Calibration};
use shmt::sampling::SamplingMethod;
use shmt::trace::{chrome, summary, EventKind};
use shmt::{
    FaultPlan, Platform, Policy, QawsAssignment, RunReport, RuntimeConfig, ShmtRuntime,
    TraceRecorder, Vop,
};
use shmt_kernels::Benchmark;

/// A slowed-down platform (compute-dominant at test sizes) so every
/// device participates and steals actually happen.
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

fn traced_run(policy: Policy, b: Benchmark, n: usize) -> RunReport {
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, 7)).unwrap();
    let mut cfg = RuntimeConfig::new(policy);
    cfg.partitions = 16;
    cfg.quality.sampling_rate = 0.01;
    ShmtRuntime::new(slow_platform(b), cfg)
        .execute_with_faults_traced(&vop, &FaultPlan::none())
        .unwrap()
}

#[test]
fn compute_spans_reproduce_device_busy_time() {
    let report = traced_run(qaws(), Benchmark::Sobel, 256);
    let trace = report.trace.as_ref().unwrap();
    let busy = trace.busy_per_device();
    for (d, stats) in report.devices.iter().enumerate() {
        assert!(
            (busy[d] - stats.busy_s).abs() < 1e-9,
            "device {d} ({}): span sum {} vs busy_s {}",
            stats.kind,
            busy[d],
            stats.busy_s
        );
        let span_count = trace
            .compute_spans()
            .iter()
            .filter(|s| s.device == d)
            .count();
        assert_eq!(span_count, stats.hlops, "device {d} span count");
    }
}

#[test]
fn steal_events_match_report_steals() {
    let report = traced_run(Policy::WorkStealing, Benchmark::Fft, 256);
    let trace = report.trace.as_ref().unwrap();
    assert!(
        report.steals > 0,
        "work stealing must steal at this imbalance"
    );
    assert_eq!(trace.steals(), report.steals);
    assert_eq!(trace.metrics.counter("steals"), report.steals as f64);
    // Every steal's thief differs from its victim.
    for r in &trace.records {
        if let EventKind::Steal { from, to, .. } = r.kind {
            assert_ne!(from, to);
        }
    }
}

#[test]
fn qaws_trace_is_rich_and_monotonic() {
    let report = traced_run(qaws(), Benchmark::Sobel, 256);
    let trace = report.trace.as_ref().unwrap();
    assert!(trace.is_monotonic(), "finalized trace must be time-ordered");
    assert!(
        trace.distinct_kinds() >= 6,
        "QAWS should exercise >= 6 event kinds, got {}",
        trace.distinct_kinds()
    );
    for kind in [
        "PartitionStart",
        "PartitionEnd",
        "SampleOverhead",
        "Dispatch",
        "ComputeStart",
        "ComputeEnd",
        "Aggregate",
    ] {
        assert!(trace.count(kind) > 0, "missing {kind}");
    }
    // Sampling overhead tiles the serial scheduling window.
    let sampled: f64 = trace
        .records
        .iter()
        .filter_map(|r| match r.kind {
            EventKind::SampleOverhead { cost_s, .. } => Some(cost_s),
            _ => None,
        })
        .sum();
    assert!(
        (sampled - report.scheduling_overhead_s).abs() < 1e-9,
        "sample costs {} vs overhead {}",
        sampled,
        report.scheduling_overhead_s
    );
    // Aggregation happens once per HLOP.
    assert_eq!(trace.count("Aggregate"), report.records.len());
    assert_eq!(
        trace.metrics.counter("hlops.completed"),
        report.records.len() as f64
    );
    // Bus traffic in the metrics matches the report.
    assert_eq!(trace.metrics.counter("bus.bytes"), report.bus_bytes as f64);
}

#[test]
fn chrome_export_round_trips_and_matches_busy_time() {
    let report = traced_run(qaws(), Benchmark::Sobel, 256);
    let trace = report.trace.as_ref().unwrap();
    let json = chrome::to_chrome_json(trace);
    let parsed = chrome::from_chrome_json(&json).expect("own exporter output must parse");
    for (d, stats) in report.devices.iter().enumerate() {
        assert_eq!(parsed.thread_name(d), Some(stats.kind.name()));
        let busy = parsed.span_seconds(d, "compute");
        // Microsecond serialization costs precision; 1e-6 relative slack.
        assert!(
            (busy - stats.busy_s).abs() <= 1e-6 * stats.busy_s.max(1.0),
            "device {d}: exported busy {busy} vs {}",
            stats.busy_s
        );
    }
    assert!(parsed.instant_events().count() > 0);
    assert!(
        parsed.counter_events().count() > 0,
        "queue gauges become counter tracks"
    );
}

#[test]
fn null_sink_runs_bit_identical_to_untraced() {
    let b = Benchmark::MeanFilter;
    let vop = Vop::from_benchmark(b, b.generate_inputs(256, 256, 7)).unwrap();
    let mut cfg = RuntimeConfig::new(qaws());
    cfg.partitions = 16;
    cfg.quality.sampling_rate = 0.01;
    let runtime = ShmtRuntime::new(slow_platform(b), cfg);

    let plain = runtime.execute(&vop).unwrap();
    let nulled = runtime
        .execute_with_faults_sink(&vop, &FaultPlan::none(), &mut shmt::NullSink)
        .unwrap();
    let traced = runtime
        .execute_with_faults_traced(&vop, &FaultPlan::none())
        .unwrap();

    for other in [&nulled, &traced] {
        assert_eq!(
            plain.output.as_slice(),
            other.output.as_slice(),
            "bit-identical output"
        );
        assert_eq!(plain.makespan_s, other.makespan_s);
        assert_eq!(plain.steals, other.steals);
        assert_eq!(plain.bus_bytes, other.bus_bytes);
        assert_eq!(plain.energy, other.energy);
        assert_eq!(plain.records.len(), other.records.len());
    }
    assert!(plain.trace.is_none());
    assert!(
        nulled.trace.is_none(),
        "external sinks leave the report bare"
    );
    assert!(traced.trace.is_some());
}

#[test]
fn summary_renders_for_a_real_run() {
    let report = traced_run(qaws(), Benchmark::Sobel, 256);
    let trace = report.trace.as_ref().unwrap();
    let text = summary::timeline_summary(trace, report.makespan_s);
    for name in ["GPU", "CPU", "EdgeTPU"] {
        assert!(text.contains(name), "summary must list {name}:\n{text}");
    }
    assert!(text.contains("utilization histogram"));
}

#[test]
fn dag_sink_sees_one_partition_start_per_stage() {
    use shmt::dag::{DagConfig, VopDag};
    let dag = VopDag::linear(&[(Benchmark::MeanFilter, 1), (Benchmark::Sobel, 2)]).unwrap();
    let input = shmt_tensor::gen::image8(128, 128, 3);
    let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
    cfg.partitions = 8;
    let mut recorder = TraceRecorder::new();
    let report = dag
        .run_with_sink(&input, &DagConfig::new(cfg), &mut recorder)
        .unwrap();
    assert_eq!(report.stages.len(), 2);
    let trace = recorder.finish();
    assert_eq!(trace.count("PartitionStart"), report.stages.len());
    assert!(trace.count("ComputeStart") > 0);
}
