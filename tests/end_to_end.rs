//! Cross-crate integration tests: every benchmark through every policy on
//! the full stack (generators -> kernels -> partitioner -> scheduler ->
//! virtual platform -> quality metrics).

use shmt::baseline::{exact_reference, gpu_baseline, software_pipelining};
use shmt::calibration::{bench_profile, Calibration};
use shmt::experiments::fig6_policies;
use shmt::quality::{mape, ssim};
use shmt::sampling::SamplingMethod;
use shmt::{Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Vop};
use shmt_kernels::{Benchmark, ALL_BENCHMARKS};

const N: usize = 128;
const PARTS: usize = 8;

/// A slowed platform (compute-bound at test sizes; see Fig 12 — the real
/// prototype is launch-overhead-bound below ~1M elements).
fn slow_platform(b: Benchmark) -> Platform {
    Platform::with_profiles(
        Calibration {
            gpu_throughput: 2.0e6,
            ..Default::default()
        },
        bench_profile(b),
    )
}

fn vop_for(b: Benchmark) -> Vop {
    Vop::from_benchmark(b, b.generate_inputs(N, N, 0xAB)).unwrap()
}

fn run(b: Benchmark, policy: Policy) -> shmt::RunReport {
    let mut cfg = RuntimeConfig::new(policy);
    cfg.partitions = PARTS;
    cfg.quality.sampling_rate = 0.02;
    ShmtRuntime::new(slow_platform(b), cfg)
        .execute(&vop_for(b))
        .unwrap()
}

#[test]
fn every_benchmark_runs_under_every_policy() {
    for b in ALL_BENCHMARKS {
        for policy in fig6_policies() {
            let name = policy.name();
            let report = run(b, policy);
            assert!(report.makespan_s > 0.0, "{b}/{name}");
            assert!(
                report.records.len() >= PARTS / 2,
                "{b}/{name}: only {} HLOPs",
                report.records.len()
            );
            assert!(report.energy.total_j() > 0.0, "{b}/{name}");
        }
    }
}

#[test]
fn outputs_are_faithful_when_tpu_is_disabled() {
    // With only exact devices, SHMT must reproduce the reference bitwise.
    for b in ALL_BENCHMARKS {
        let vop = vop_for(b);
        let reference = exact_reference(&vop);
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
        cfg.partitions = PARTS;
        cfg.device_mask = [true, true, false];
        let report = ShmtRuntime::new(slow_platform(b), cfg)
            .execute(&vop)
            .unwrap();
        assert_eq!(report.tpu_fraction, 0.0, "{b}");
        assert_eq!(report.output.as_slice(), reference.as_slice(), "{b}");
    }
}

#[test]
fn multi_device_runs_beat_single_device_runs() {
    for b in [
        Benchmark::Fft,
        Benchmark::Dct8x8,
        Benchmark::Sobel,
        Benchmark::Srad,
    ] {
        let vop = vop_for(b);
        let platform = slow_platform(b);
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
        cfg.partitions = PARTS;
        let all = ShmtRuntime::new(platform.clone(), cfg)
            .execute(&vop)
            .unwrap();
        let mut gpu_only = cfg;
        gpu_only.device_mask = [true, false, false];
        let solo = ShmtRuntime::new(platform, gpu_only).execute(&vop).unwrap();
        assert!(
            all.makespan_s < solo.makespan_s,
            "{b}: {} vs {}",
            all.makespan_s,
            solo.makespan_s
        );
    }
}

#[test]
fn quality_ordering_tpu_worst_oracle_best() {
    for b in [
        Benchmark::Sobel,
        Benchmark::Laplacian,
        Benchmark::Blackscholes,
    ] {
        let vop = vop_for(b);
        let reference = exact_reference(&vop);
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing).tpu_only();
        cfg.partitions = PARTS;
        let tpu = ShmtRuntime::new(slow_platform(b), cfg)
            .execute(&vop)
            .unwrap();
        let oracle = run(b, Policy::Oracle);
        let e_tpu = mape(&reference, &tpu.output);
        let e_oracle = mape(&reference, &oracle.output);
        assert!(
            e_oracle < e_tpu,
            "{b}: oracle {e_oracle} must beat TPU-only {e_tpu}"
        );
    }
}

#[test]
fn image_benchmarks_maintain_ssim_under_qaws() {
    let policy = Policy::Qaws {
        assignment: QawsAssignment::TopK,
        sampling: SamplingMethod::Striding,
    };
    for b in ALL_BENCHMARKS.iter().filter(|b| b.is_image()) {
        let vop = vop_for(*b);
        let reference = exact_reference(&vop);
        let report = run(*b, policy);
        let s = ssim(&reference, &report.output);
        assert!(s > 0.9, "{b}: SSIM {s}");
    }
}

#[test]
fn baselines_are_exact_and_ordered() {
    for b in [Benchmark::MeanFilter, Benchmark::Fft] {
        let vop = vop_for(b);
        let platform = slow_platform(b);
        let base = gpu_baseline(&platform, &vop, PARTS).unwrap();
        let pipe = software_pipelining(&platform, &vop, PARTS).unwrap();
        assert!(pipe.makespan_s <= base.makespan_s, "{b}");
    }
}

/// `makespan_s`, `energy.total_j()` and `peak_memory_bytes` bits of
/// `gpu_baseline` and then `software_pipelining` for every benchmark at
/// 256², 16 partitions, on the Jetson platform. Every figure divides by
/// these, so a change to the baseline timing, energy or footprint model
/// must be deliberate: re-record the table (the failing test prints it).
const BASELINE_GOLDEN: [(&str, [u64; 6]); 10] = [
    (
        "Blackscholes",
        [
            0x3f2c1762c821416e,
            0x3f4fe403c7a11908,
            0x0000000000086666,
            0x3f44a2cf4d5aa6c1,
            0x3f6855494e20cc08,
            0x0000000000086666,
        ],
    ),
    (
        "DCT8x8",
        [
            0x3f4019f06d6e1e12,
            0x3f628a64ae328a21,
            0x0000000000093333,
            0x3f4d8ef59377e6f5,
            0x3f71644268ef432c,
            0x0000000000093333,
        ],
    ),
    (
        "DWT",
        [
            0x3f18df54fbb92b26,
            0x3f3cbfa49df82b3c,
            0x00000000000a0000,
            0x3f41ac6789f76f20,
            0x3f64ac196181ea94,
            0x00000000000a0000,
        ],
    ),
    (
        "FFT",
        [
            0x3f32b7696d94c974,
            0x3f5553f8678aece6,
            0x00000000000a0000,
            0x3f46cb9272db552b,
            0x3f6ae4382f1d3fe3,
            0x00000000000a0000,
        ],
    ),
    (
        "Histogram",
        [
            0x3f035eeaee69102a,
            0x3f2693a40c2865d8,
            0x0000000000046a66,
            0x3f3fe36d5a558374,
            0x3f629e0ec7af1618,
            0x0000000000046a66,
        ],
    ),
    (
        "Hotspot",
        [
            0x3f144041e889db69,
            0x3f37934da31a4468,
            0x00000000000d9999,
            0x3f413c151c602778,
            0x3f642167fed18c1c,
            0x00000000000d9999,
        ],
    ),
    (
        "Laplacian",
        [
            0x3f1085e1a0e9e08f,
            0x3f331ddb346d961c,
            0x000000000008cccc,
            0x3f40b3c70283c438,
            0x3f6385e25f194ebe,
            0x000000000008cccc,
        ],
    ),
    (
        "MF",
        [
            0x3f122c1805062e81,
            0x3f34e4db2dfe2b3a,
            0x000000000008cccc,
            0x3f40d0d881283717,
            0x3f63acdc0b2e77cc,
            0x000000000008cccc,
        ],
    ),
    (
        "Sobel",
        [
            0x3f190b4ffb7c1def,
            0x3f3c9847d01a5481,
            0x0000000000140000,
            0x3f4179355c3e807f,
            0x3f647c600c280124,
            0x0000000000140000,
        ],
    ),
    (
        "SRAD",
        [
            0x3f3086a9309f31ef,
            0x3f52fae512526e22,
            0x0000000000120000,
            0x3f46393317a68528,
            0x3f6a1cda9d0e28d2,
            0x0000000000120000,
        ],
    ),
];

#[test]
fn baseline_costs_match_recorded_bits() {
    let got: Vec<(String, [u64; 6])> = ALL_BENCHMARKS
        .iter()
        .map(|&b| {
            let vop = Vop::from_benchmark(b, b.generate_inputs(256, 256, 0xB5)).unwrap();
            let platform = Platform::jetson(b);
            let base = gpu_baseline(&platform, &vop, 16).unwrap();
            let pipe = software_pipelining(&platform, &vop, 16).unwrap();
            let bits = [
                base.makespan_s.to_bits(),
                base.energy.total_j().to_bits(),
                base.peak_memory_bytes,
                pipe.makespan_s.to_bits(),
                pipe.energy.total_j().to_bits(),
                pipe.peak_memory_bytes,
            ];
            (b.to_string(), bits)
        })
        .collect();
    let want: Vec<(String, [u64; 6])> = BASELINE_GOLDEN
        .iter()
        .map(|&(n, bits)| (n.to_owned(), bits))
        .collect();
    if got != want {
        for (n, bits) in &got {
            let bits: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
            println!("    ({n:?}, [{}]),", bits.join(", "));
        }
        assert_eq!(got.len(), want.len(), "case count changed");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{}: baseline cost bits changed", g.0);
        }
    }
}

#[test]
fn stealing_restrictions_hold_in_records() {
    // Under QAWS, partitions above the per-window criticality cut must
    // never execute on the Edge TPU.
    let b = Benchmark::Sobel;
    let report = run(
        b,
        Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Reduction,
        },
    );
    let vop = vop_for(b);
    let reference = exact_reference(&vop);
    // Gather TPU-executed partition criticalities vs exact-executed.
    let tpu_count = report
        .records
        .iter()
        .filter(|r| r.device == hetsim::DeviceKind::EdgeTpu)
        .count();
    assert!(
        tpu_count < report.records.len(),
        "exact devices must hold critical work"
    );
    // And the overall result must still be close to the reference.
    assert!(mape(&reference, &report.output) < 0.5);
}

#[test]
fn deterministic_across_repeat_runs() {
    let b = Benchmark::Histogram;
    let a = run(b, Policy::WorkStealing);
    let b2 = run(b, Policy::WorkStealing);
    assert_eq!(a.makespan_s, b2.makespan_s);
    assert_eq!(a.output.as_slice(), b2.output.as_slice());
    assert_eq!(a.steals, b2.steals);
}

#[test]
fn reduction_vops_run_end_to_end() {
    use shmt::Opcode;
    let data = shmt_tensor::gen::uniform(256, 256, -5.0, 10.0, 3);
    let exact_sum: f64 = data.as_slice().iter().map(|&v| v as f64).sum();
    let (exact_min, exact_max) = data.min_max();

    let run_reduce = |opcode| {
        let vop = Vop::reduce(opcode, data.clone()).unwrap();
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
        cfg.partitions = PARTS;
        ShmtRuntime::new(Platform::generic(), cfg)
            .execute(&vop)
            .unwrap()
    };

    let sum = run_reduce(Opcode::ReduceSum);
    assert!(
        (sum.output[(0, 0)] as f64 - exact_sum).abs() < 0.02 * exact_sum.abs().max(1.0),
        "sum {} vs {}",
        sum.output[(0, 0)],
        exact_sum
    );
    let avg = run_reduce(Opcode::ReduceAverage);
    assert!(
        (avg.output[(0, 0)] as f64 - exact_sum / data.len() as f64).abs() < 0.1,
        "avg {}",
        avg.output[(0, 0)]
    );
    assert_eq!(avg.output[(0, 1)], data.len() as f32);
    // Max/min are exact on fp32 devices and within a quantization step on
    // the TPU; extremes can only be under/over-estimated by the snap.
    let max = run_reduce(Opcode::ReduceMax);
    assert!(
        (max.output[(0, 0)] - exact_max).abs() < 0.2,
        "max {}",
        max.output[(0, 0)]
    );
    let min = run_reduce(Opcode::ReduceMin);
    assert!(
        (min.output[(0, 0)] - exact_min).abs() < 0.2,
        "min {}",
        min.output[(0, 0)]
    );

    // Non-reduction opcodes are rejected.
    assert!(Vop::reduce(Opcode::Add, data.clone()).is_err());
}

#[test]
fn gemm_vop_runs_end_to_end() {
    let n = 128;
    let a = shmt_tensor::gen::uniform(n, n, -1.0, 1.0, 1);
    let b = shmt_tensor::gen::uniform(n, n, -1.0, 1.0, 2);
    let vop = Vop::gemm(a.clone(), b.clone()).unwrap();
    let reference = exact_reference(&vop);
    let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
    cfg.partitions = 8;
    let report = ShmtRuntime::new(Platform::generic(), cfg)
        .execute(&vop)
        .unwrap();
    let e = mape(&reference, &report.output);
    assert!(e < 0.2, "GEMM through SHMT should be close: {e}");
    // And the exact reference matches the primitive.
    let expect = shmt_kernels::primitives::gemm(&a, &b);
    for (x, y) in reference.as_slice().iter().zip(expect.as_slice()) {
        assert!((x - y).abs() < 1e-3);
    }
}

#[test]
fn elementwise_vops_run_end_to_end() {
    use shmt_kernels::primitives::{BinaryOp, UnaryOp};
    let data = shmt_tensor::gen::uniform(128, 128, 0.1, 4.0, 11);

    let vop = Vop::unary(UnaryOp::Sqrt, data.clone()).unwrap();
    let reference = exact_reference(&vop);
    let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
    cfg.partitions = 8;
    let report = ShmtRuntime::new(Platform::generic(), cfg)
        .execute(&vop)
        .unwrap();
    assert!(
        mape(&reference, &report.output) < 0.05,
        "sqrt VOP degraded too much"
    );

    let b = shmt_tensor::gen::uniform(128, 128, -1.0, 1.0, 12);
    let vop2 = Vop::binary(BinaryOp::Add, data, b).unwrap();
    let ref2 = exact_reference(&vop2);
    let report2 = ShmtRuntime::new(Platform::generic(), cfg)
        .execute(&vop2)
        .unwrap();
    assert!(
        mape(&ref2, &report2.output) < 0.1,
        "add VOP degraded too much"
    );
    assert_eq!(
        report2.records.len(),
        report2.devices.iter().map(|d| d.hlops).sum::<usize>()
    );
}

#[test]
fn queue_stats_reflect_stealing() {
    // A fast-TPU benchmark under work stealing: somebody's queue must have
    // been stolen from, and depth stats must be populated.
    let r = run(Benchmark::Fft, Policy::WorkStealing);
    let total_stolen: usize = r.devices.iter().map(|d| d.stolen_away).sum();
    assert_eq!(total_stolen, r.steals);
    assert!(r.devices.iter().any(|d| d.max_queue_depth > 0));
}
