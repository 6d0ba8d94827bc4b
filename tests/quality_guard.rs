//! Quality-guard properties, house-style seeded case loop: across random
//! fault plans and budgets a guarded run either honours its MAPE budget
//! over every verified page or fails with the typed
//! `QualityUnattainable`; a disabled guard is inert down to the bit, no
//! matter how its other knobs are set.

use shmt::quality::mape;
use shmt::sched::{GPU, TPU};
use shmt::{
    FaultPlan, GuardConfig, Platform, Policy, QualityBudget, RunReport, RuntimeConfig, ShmtError,
    ShmtRuntime, Vop,
};
use shmt_kernels::Benchmark;
use shmt_tensor::rng::Pcg32;

/// A slowed-down platform (compute-dominant at test sizes) so every
/// device participates; same shape as the fault-recovery tests.
fn slow_platform(b: Benchmark) -> Platform {
    Platform::with_profiles(
        shmt::calibration::Calibration {
            gpu_throughput: 1.0e6,
            ..Default::default()
        },
        shmt::calibration::bench_profile(b),
    )
}

fn runtime(b: Benchmark, cfg: RuntimeConfig) -> ShmtRuntime {
    ShmtRuntime::new(slow_platform(b), cfg)
}

fn base_config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
    cfg.partitions = 16;
    cfg
}

fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(
        a.output.as_slice(),
        b.output.as_slice(),
        "bit-identical output"
    );
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(a.scheduling_overhead_s, b.scheduling_overhead_s);
    assert_eq!(a.steals, b.steals);
    assert_eq!(a.bus_bytes, b.bus_bytes);
    assert_eq!(a.energy, b.energy);
    assert_eq!(a.records, b.records);
    assert_eq!(a.tpu_fraction, b.tpu_fraction);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.quality, b.quality);
}

/// A random fault plan drawn from slowdowns, transfer failures, and TPU
/// miscalibration — every combination leaves the run completable, so a
/// guarded execution must either meet its budget or repair its way there.
fn random_plan(rng: &mut Pcg32, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none().with_seed(seed);
    if rng.next_f64() < 0.3 {
        plan = plan.with_slowdown(GPU, 0.0, rng.gen_range(0.5..2.0), rng.gen_range(2.0..6.0));
    }
    if rng.next_f64() < 0.3 {
        plan = plan.with_transfer_failures(rng.gen_range(0.05..0.3));
    }
    if rng.next_f64() < 0.6 {
        plan = plan.with_tpu_miscalibration(
            1.0 + rng.gen_range(0.05f32..0.8),
            rng.gen_range(0.0f32..0.2),
        );
    }
    if rng.next_f64() < 0.2 {
        plan = plan.with_unavailable(TPU);
    }
    plan
}

#[test]
fn guarded_runs_meet_the_budget_or_repair() {
    let benchmarks = [Benchmark::Sobel, Benchmark::MeanFilter, Benchmark::Fft];
    let mut rng = Pcg32::seed_from_u64(0x5EED_9A7D);
    for case in 0..24u64 {
        let b = benchmarks[rng.gen_range(0..benchmarks.len())];
        let budget = rng.gen_range(0.02..0.4);
        let plan = random_plan(&mut rng, 0xFA_0000 + case);
        let vop = Vop::from_benchmark(b, b.generate_inputs(128, 128, case)).unwrap();

        let mut cfg = base_config();
        cfg.guard = GuardConfig::enforcing(budget);
        let report = runtime(b, cfg)
            .execute_with_faults(&vop, &plan)
            .unwrap_or_else(|e| panic!("case {case} ({b}): guarded run failed: {e}"));

        let q = &report.quality;
        assert!(q.enabled, "case {case}: guard must have run");
        assert_eq!(q.budget_mape, budget);
        assert!(
            q.true_mape <= budget,
            "case {case} ({b}): post-repair verified error {} exceeds budget {budget}",
            q.true_mape
        );
        for r in &q.repairs {
            assert!(
                r.estimated_mape > budget,
                "case {case}: repair of HLOP {} fired below budget ({} <= {budget})",
                r.hlop,
                r.estimated_mape
            );
        }
        if q.page_verifiable && q.approx_hlops > 0 {
            assert_eq!(
                q.checked_hlops, q.approx_hlops,
                "case {case}: full coverage"
            );
            assert!(q.sampled_pages >= q.checked_hlops);
            assert!(q.overhead_s > 0.0, "case {case}: verification is not free");
        }
        if plan.dropouts.iter().any(|d| d.device == TPU) {
            assert_eq!(q.approx_hlops, 0, "case {case}: dead TPU produced output?");
        }

        // Repairs only improve the output: guarded error vs the exact
        // reference never exceeds the unguarded error under the same plan.
        let unguarded = runtime(b, base_config())
            .execute_with_faults(&vop, &plan)
            .unwrap();
        let reference = shmt::baseline::exact_reference(&vop);
        let guarded_err = mape(&reference, &report.output);
        let unguarded_err = mape(&reference, &unguarded.output);
        assert!(
            guarded_err <= unguarded_err + 1e-12,
            "case {case} ({b}): guard worsened output ({guarded_err} > {unguarded_err})"
        );
        if !q.repairs.is_empty() {
            assert!(
                guarded_err < unguarded_err,
                "case {case}: repairs happened but the output did not improve"
            );
            assert!(
                report.makespan_s > unguarded.makespan_s,
                "case {case}: repairs must cost virtual time"
            );
        }
    }
}

#[test]
fn budget_without_an_exact_device_is_a_typed_error() {
    let b = Benchmark::Sobel;
    let vop = Vop::from_benchmark(b, b.generate_inputs(128, 128, 3)).unwrap();
    let mut cfg = base_config();
    cfg.device_mask = [false, false, true];
    cfg.guard = GuardConfig::enforcing(0.05);
    let err = runtime(b, cfg).execute_with_faults(&vop, &FaultPlan::none());
    match err {
        Err(ShmtError::QualityUnattainable {
            estimated_mape,
            budget_mape,
        }) => {
            assert_eq!(budget_mape, 0.05);
            assert!(
                estimated_mape.is_infinite(),
                "never-measured error is unbounded, not a silent pass"
            );
        }
        other => panic!("expected QualityUnattainable, got {other:?}"),
    }
}

#[test]
fn disabled_guard_is_bit_identical_whatever_its_knobs_say() {
    let mut rng = Pcg32::seed_from_u64(0xD15A_B1ED);
    for case in 0..8u64 {
        let b = [Benchmark::Sobel, Benchmark::MeanFilter, Benchmark::Fft][rng.gen_range(0..3usize)];
        let vop = Vop::from_benchmark(b, b.generate_inputs(128, 128, case)).unwrap();
        let plan = random_plan(&mut rng, 0xB17_0000 + case);

        let plain = runtime(b, base_config())
            .execute_with_faults(&vop, &plan)
            .unwrap();
        // Same run with an exotic (zero) budget — but enabled == false.
        // Must be inert down to the bit.
        let mut cfg = base_config();
        cfg.guard = GuardConfig {
            enabled: false,
            budget: QualityBudget { max_mape: 0.0 },
        };
        let disabled = runtime(b, cfg).execute_with_faults(&vop, &plan).unwrap();
        assert_reports_identical(&plain, &disabled);
        assert!(!disabled.quality.enabled);
        assert_eq!(disabled.quality, shmt::QualityReport::disabled());
    }
}
