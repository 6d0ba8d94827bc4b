//! Regression tests for three scheduler/pipeline correctness fixes:
//!
//! 1. **Stranded HLOP** — the endgame-withdrawal heuristic and the peer
//!    steal filter used inconsistent criteria, and a fault dropout of the
//!    expected thief could leave a withdrawn victim's HLOP pending
//!    forever. Every HLOP must now execute (or the run must fail with the
//!    typed `StrandedHlop` error — never a silent zero-filled tile).
//! 2. **Device-mask quality** — masking a device off redistributed its
//!    HLOPs round-robin, pushing QAWS-critical partitions onto the int8
//!    TPU. Orphans now follow the same accuracy-class rule as dropout
//!    re-dispatch.
//! 3. **Pipeline clone** — a multi-stage run cloned every stage's full
//!    output tensor; the flowing tensor now moves between stages.
//!
//! Plus the static TPU admission input the planner reads.

use hetsim::FaultPlan;
use shmt::calibration::{bench_profile, Calibration};
use shmt::dag::{DagConfig, VopDag};
use shmt::quality::mape;
use shmt::sampling::SamplingMethod;
use shmt::{
    AdaptiveCalibration, Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Vop,
};
use shmt_kernels::Benchmark;
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

fn platform(b: Benchmark, gpu_throughput: f64, cpu_ratio: f64, tpu_ratio: f64) -> Platform {
    let mut profile = bench_profile(b);
    profile.cpu_ratio = cpu_ratio;
    profile.tpu_ratio = tpu_ratio;
    Platform::with_profiles(
        Calibration {
            gpu_throughput,
            ..Default::default()
        },
        profile,
    )
}

fn exact_reference(b: Benchmark, n: usize, seed: u64) -> Tensor {
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, seed)).unwrap();
    let kernel = vop.kernel();
    let inputs: Vec<&Tensor> = vop.inputs().iter().collect();
    let mut out = kernel.shape().allocate_output(n, n);
    let tile = Tile {
        index: 0,
        row0: 0,
        col0: 0,
        rows: n,
        cols: n,
    };
    kernel.run_exact(&inputs, tile, &mut out);
    out
}

/// A deterministic configuration that stranded an HLOP before the fix:
/// the GPU drops out in the endgame right after a slower device withdrew
/// its last item expecting the GPU to come steal it. Pre-fix this tripped
/// the `records.len() == hlops.len()` debug assert (silent zero tile in
/// release); now every HLOP executes.
#[test]
fn endgame_dropout_no_longer_strands_hlops() {
    let b = Benchmark::Sobel;
    let n = 128;
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, 7)).unwrap();
    let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
    cfg.partitions = 4;
    cfg.quality.sampling_rate = 0.01;
    cfg.compute_threads = 1;
    let rt = ShmtRuntime::new(platform(b, 1.0e6, 0.05, 0.31), cfg);

    let base = rt.execute(&vop).expect("fault-free run succeeds");
    let plan = FaultPlan::none().with_dropout(0, 1.63915e-3);
    let report = rt
        .execute_with_faults(&vop, &plan)
        .expect("dropout run completes instead of stranding");
    assert_eq!(
        report.records.len(),
        base.records.len(),
        "every HLOP executes even when the expected thief drops out"
    );
    assert!(report.faults.degraded, "the dropout really fired");
}

/// Sweeps dropout times across devices and adversarial platform shapes:
/// no configuration may strand an HLOP (panic or typed error) and every
/// completed run must carry a record per HLOP.
#[test]
fn dropout_sweep_never_strands() {
    let b = Benchmark::Sobel;
    let n = 128;
    let policies = [
        Policy::WorkStealing,
        Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        },
    ];
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, 7)).unwrap();
    for policy in policies {
        for parts in [4usize, 8] {
            for (cpu_r, tpu_r) in [(0.05, 0.31), (0.5, 0.1)] {
                let mut cfg = RuntimeConfig::new(policy);
                cfg.partitions = parts;
                cfg.quality.sampling_rate = 0.01;
                cfg.compute_threads = 1;
                let rt = ShmtRuntime::new(platform(b, 1.0e6, cpu_r, tpu_r), cfg);
                let base = rt.execute(&vop).expect("fault-free run succeeds");
                for dev in 0..3usize {
                    for step in 0..24 {
                        let at = base.makespan_s * f64::from(step) / 24.0;
                        let plan = FaultPlan::none().with_dropout(dev, at);
                        match rt.execute_with_faults(&vop, &plan) {
                            Ok(r) => assert_eq!(
                                r.records.len(),
                                base.records.len(),
                                "{policy:?} parts={parts} cpu={cpu_r} tpu={tpu_r} \
                                 dev={dev} at={at:e} lost HLOPs"
                            ),
                            Err(e) => panic!(
                                "{policy:?} parts={parts} cpu={cpu_r} tpu={tpu_r} \
                                 dev={dev} at={at:e} failed: {e}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// Disabling the GPU under QAWS must not dump its (critical) partitions
/// onto the int8 TPU.
///
/// The precise property the orphan router guarantees: every tile the TPU
/// executes in the masked run was *planned* for the TPU — QAWS also
/// forbids the TPU stealing, so the TPU can only lose tiles to exact
/// devices, never gain critical ones. (The old round-robin redistribution
/// violated this: roughly half the GPU's critical partitions landed on
/// the TPU queue.) MAPE is compared too, with a small allowance for the
/// legitimate load-shift effect — with the GPU off, the busier CPU steals
/// fewer of the TPU's *own* planned tiles back, which is not a quality
/// violation.
#[test]
fn masked_gpu_keeps_qaws_critical_partitions_off_the_tpu() {
    let b = Benchmark::Sobel;
    let n = 256;
    let reference = exact_reference(b, n, 7);
    let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, 7)).unwrap();
    let policy = Policy::Qaws {
        assignment: QawsAssignment::TopK,
        sampling: SamplingMethod::Striding,
    };
    let gpu_throughput = 1.0e6;
    let mut cfg = RuntimeConfig::new(policy);
    cfg.partitions = 32;
    cfg.quality.sampling_rate = 0.02;

    // The planner's device queues, before any masking.
    let hlops = shmt::partition::partition_vop(&vop, cfg.partitions).unwrap();
    let the_plan = shmt::sched::plan(
        policy,
        &vop,
        &hlops,
        &cfg.quality,
        shmt::sched::PlanContext::new(gpu_throughput),
    );
    let planned_tpu: std::collections::BTreeSet<usize> =
        the_plan.queues[2].iter().map(|h| h.id).collect();

    let mk = |mask: [bool; 3]| {
        let mut cfg = cfg;
        cfg.device_mask = mask;
        ShmtRuntime::new(platform(b, gpu_throughput, 1.0, 3.0), cfg)
            .execute(&vop)
            .unwrap()
    };
    let full = mk([true, true, true]);
    let masked = mk([false, true, true]);
    assert!(
        masked.tpu_fraction > 0.0,
        "the TPU still participates in the masked run"
    );
    assert!(
        masked.device(hetsim::DeviceKind::Gpu).unwrap().hlops == 0,
        "the GPU is really off"
    );
    for record in &masked.records {
        if record.device == hetsim::DeviceKind::EdgeTpu {
            assert!(
                planned_tpu.contains(&record.id),
                "HLOP {} ran on the TPU but was planned for an exact device \
                 — the orphan router leaked it",
                record.id
            );
        }
    }
    let e_full = mape(&reference, &full.output);
    let e_masked = mape(&reference, &masked.output);
    assert!(
        e_masked <= e_full * 1.10,
        "masked-GPU quality degraded beyond the load-shift allowance: \
         masked MAPE {e_masked} vs full {e_full}"
    );
}

/// The TPU-only mask still routes everything to the TPU even though no
/// accuracy-class-eligible target exists (exact devices are disabled) —
/// the fallback path of the orphan router.
#[test]
fn tpu_only_mask_still_runs_on_the_tpu() {
    let b = Benchmark::Histogram;
    let vop = Vop::from_benchmark(b, b.generate_inputs(128, 128, 7)).unwrap();
    let cfg = RuntimeConfig::new(Policy::WorkStealing).tpu_only();
    let r = ShmtRuntime::new(Platform::jetson(b), cfg)
        .execute(&vop)
        .unwrap();
    assert!((r.tpu_fraction - 1.0).abs() < 1e-9);
}

/// Stage outputs move through the pipeline instead of being cloned: the
/// per-stage reports carry a 1x1 placeholder, and the DAG output is
/// still the deterministic chained result.
#[test]
fn pipeline_moves_stage_outputs_without_cloning() {
    let dag = VopDag::linear(&[(Benchmark::MeanFilter, 1), (Benchmark::Sobel, 2)]).unwrap();
    let n = 128;
    let input = Tensor::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 251) as f32);
    let mut rt = RuntimeConfig::new(Policy::WorkStealing);
    rt.partitions = 8;
    let cfg = DagConfig::new(rt);
    let report = dag.run(&input, &cfg).unwrap();
    assert_eq!(report.output.shape(), (n, n), "final output is full-sized");
    for stage in &report.stages {
        assert_eq!(
            stage.report.output.shape(),
            (1, 1),
            "stage outputs are placeholders, not clones"
        );
    }
    // Moving instead of cloning must not change the result.
    let again = dag.run(&input, &cfg).unwrap();
    assert_eq!(report.output.as_slice(), again.output.as_slice());
}

/// The static TPU admission multiplier (`RuntimeConfig::adapt`) scales
/// QAWS planner eligibility: 1.0 is the identity, 0.0 evicts the TPU.
#[test]
fn tpu_admission_scales_planner_eligibility() {
    let b = Benchmark::Sobel;
    // A compute-dominant platform (slow GPU), so fixed launch overheads
    // do not decide the plan.
    let platform = Platform::with_profiles(
        Calibration {
            gpu_throughput: 1.0e6,
            ..Calibration::default()
        },
        bench_profile(b),
    );
    let v = Vop::from_benchmark(b, b.generate_inputs(128, 128, 40)).expect("valid VOP");
    let policy = Policy::Qaws {
        assignment: QawsAssignment::TopK,
        sampling: SamplingMethod::Striding,
    };
    let config = |adapt: AdaptiveCalibration| {
        let mut config = RuntimeConfig::new(policy);
        config.partitions = 16;
        config.adapt = adapt;
        config
    };
    // Admission 1.0 is the identity on the planner.
    let unit = AdaptiveCalibration { tpu_admission: 1.0 };
    let static_report = ShmtRuntime::new(platform.clone(), config(AdaptiveCalibration::neutral()))
        .execute(&v)
        .expect("static run succeeds");
    let unit_report = ShmtRuntime::new(platform.clone(), config(unit))
        .execute(&v)
        .expect("unit-admission run succeeds");
    assert_eq!(
        static_report.output.as_slice(),
        unit_report.output.as_slice(),
        "admission 1.0 must leave plans bit-identical"
    );
    // Admission 0.0 evicts the TPU: everything runs exactly.
    let evict = AdaptiveCalibration { tpu_admission: 0.0 };
    let evicted = ShmtRuntime::new(platform, config(evict))
        .execute(&v)
        .expect("evicted run succeeds");
    assert_eq!(evicted.tpu_fraction, 0.0, "admission 0 evicts the TPU");
    assert!(
        static_report.tpu_fraction > 0.0,
        "the static plan must have used the TPU for the eviction to mean anything"
    );
}
