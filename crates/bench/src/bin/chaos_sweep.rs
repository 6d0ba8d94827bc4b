//! Chaos suite for the quality guard: seeded fault plans × guard on/off
//! × QAWS variants.
//!
//! ```text
//! cargo run --release -p shmt-bench --bin chaos_sweep
//! cargo run --release -p shmt-bench --bin chaos_sweep -- --smoke
//! ```
//!
//! Every scenario is played twice per scheduling policy — once unguarded
//! and once with the guard enforcing a budget derived from the policy's
//! healthy accuracy (`clamp(1.25 · healthy_mape + 0.02, 0.05, 0.35)`) —
//! and the suite asserts the robustness contract the guard exists for:
//!
//! * guarded runs **never** ship output over budget (both the guard's own
//!   verified-page accounting and the true end-to-end MAPE against the
//!   exact reference);
//! * unguarded miscalibrated runs **do** exceed that budget — the chaos
//!   is real, not decorative;
//! * a disabled guard is bit-identical to an unguarded run even with its
//!   other knobs set to exotic values;
//! * verification and repair cost virtual time (`quality.overhead_s > 0`
//!   wherever approximate output was checked);
//! * every guarded run feeds a [`shmt_serve::FlightRecorder`], and the
//!   failing scenarios (repairs, dropouts) must leave
//!   `results/flight_chaos_*.json` anomaly dumps behind — the black box
//!   works under chaos, not just in its unit tests.
//!
//! The default artifact is `results/BENCH_quality.json`; `--smoke` writes
//! a faster configuration to `results/BENCH_quality_smoke.json` (the CI
//! gate). Either file is re-read and validated with the workspace's own
//! JSON parser before the run reports success.

use shmt::quality::mape;
use shmt::sched::{GPU, TPU};
use shmt::{
    FaultPlan, GuardConfig, Platform, Policy, QualityBudget, RuntimeConfig, ShmtRuntime, Vop,
};
use shmt_serve::{Anomaly, FlightConfig, FlightRecord, FlightRecorder};
use shmt_tensor::Tensor;
use shmt_trace::json::{JsonValue, ObjectBuilder};

use shmt_kernels::Benchmark;

struct Opts {
    smoke: bool,
    out: Option<String>,
}

fn parse_opts(args: impl Iterator<Item = String>) -> Opts {
    let mut opts = Opts {
        smoke: false,
        out: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = Some(args.next().unwrap_or_else(|| panic!("--out needs a path")));
            }
            other => panic!("unknown flag {other}; accepted: --smoke --out"),
        }
    }
    opts
}

/// A drifted quantization calibration strong enough that every TPU
/// partition lands far over any budget the sweep derives: the guard must
/// catch and repair all of it, and an unguarded run must fail the budget.
const MISCAL: (f32, f32) = (2.0, 0.5);

/// The chaos schedules. Most combine TPU miscalibration with a second
/// fault so verification and repair run *while* the platform is degraded.
fn scenarios(healthy_makespan_s: f64, seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let miscal = |p: FaultPlan| p.with_tpu_miscalibration(MISCAL.0, MISCAL.1);
    vec![
        ("none", FaultPlan::none()),
        ("tpu_miscal", miscal(FaultPlan::none())),
        (
            "gpu_slowdown_miscal",
            miscal(FaultPlan::none().with_slowdown(GPU, 0.0, 1.0e9, 4.0)),
        ),
        (
            "transfer_faults_miscal",
            miscal(
                FaultPlan::none()
                    .with_seed(seed)
                    .with_transfer_failures(0.25),
            ),
        ),
        (
            "gpu_dropout_miscal",
            miscal(FaultPlan::none().with_dropout(GPU, healthy_makespan_s * 0.25)),
        ),
        ("tpu_dropout", FaultPlan::none().with_unavailable(TPU)),
    ]
}

fn has_miscal(plan: &FaultPlan) -> bool {
    plan.tpu_miscalibration.is_some()
}

struct SweepConfig {
    size: usize,
    partitions: usize,
    seed: u64,
    policies: Vec<Policy>,
}

fn sweep_config(smoke: bool) -> SweepConfig {
    let policies = if smoke {
        // Two variants keep the CI gate fast while still crossing both
        // assignment algorithms.
        Policy::qaws_variants().into_iter().take(2).collect()
    } else {
        Policy::qaws_variants().into_iter().collect()
    };
    SweepConfig {
        size: if smoke { 128 } else { 512 },
        partitions: if smoke { 16 } else { 32 },
        seed: 42,
        policies,
    }
}

fn config(policy: Policy, partitions: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(policy);
    cfg.partitions = partitions;
    cfg
}

#[allow(clippy::too_many_arguments)]
fn scenario_row(
    name: &str,
    budget: f64,
    unguarded: &shmt::RunReport,
    unguarded_mape: f64,
    guarded: &shmt::RunReport,
    guarded_mape: f64,
) -> JsonValue {
    let q = &guarded.quality;
    ObjectBuilder::new()
        .field("name", JsonValue::String(name.into()))
        .field("budget_mape", JsonValue::Number(budget))
        .field(
            "unguarded",
            ObjectBuilder::new()
                .field("makespan_s", JsonValue::Number(unguarded.makespan_s))
                .field("mape", JsonValue::Number(unguarded_mape))
                .field("exceeds_budget", JsonValue::Bool(unguarded_mape > budget))
                .build(),
        )
        .field(
            "guarded",
            ObjectBuilder::new()
                .field("makespan_s", JsonValue::Number(guarded.makespan_s))
                .field("mape", JsonValue::Number(guarded_mape))
                .field("within_budget", JsonValue::Bool(guarded_mape <= budget))
                .field("checked_hlops", JsonValue::Number(q.checked_hlops as f64))
                .field("sampled_pages", JsonValue::Number(q.sampled_pages as f64))
                .field("repaired", JsonValue::Number(q.repairs.len() as f64))
                .field("estimated_mape", JsonValue::Number(q.estimated_mape))
                .field("true_mape", JsonValue::Number(q.true_mape))
                .field("overhead_s", JsonValue::Number(q.overhead_s))
                .build(),
        )
        .build()
}

/// Black-boxes one guarded chaos run into the flight recorder: the same
/// anomaly taxonomy the serving layer records, derived from the report.
fn record_flight(
    recorder: &mut FlightRecorder,
    policy: &str,
    scenario: &str,
    report: &shmt::RunReport,
) {
    let mut record = FlightRecord::new(policy, &format!("Sobel/{scenario}"));
    record.makespan_s = report.makespan_s;
    record.degraded = report.faults.degraded;
    record.repairs = report.quality.repairs.len();
    record.redispatched = report.faults.redispatched;
    record.devices_lost = report.faults.lost;
    if !report.quality.repairs.is_empty() {
        record.anomalies.push(Anomaly::QualityRepair);
    }
    if report.faults.redispatched > 0 || report.faults.degraded {
        record.anomalies.push(Anomaly::Redispatch);
    }
    recorder.record(record);
}

/// One policy's full chaos pass. Panics on any contract violation.
fn run_policy(
    policy: Policy,
    cfg: &SweepConfig,
    vop: &Vop,
    reference: &Tensor,
    recorder: &mut FlightRecorder,
) -> JsonValue {
    let name = policy.name();
    let platform = Platform::jetson(Benchmark::Sobel);
    let unguarded_rt = ShmtRuntime::new(platform.clone(), config(policy, cfg.partitions));

    let healthy = unguarded_rt.execute(vop).expect("healthy run succeeds");
    let healthy_mape = mape(reference, &healthy.output);
    let budget = (healthy_mape * 1.25 + 0.02).clamp(0.05, 0.35);

    let mut guarded_cfg = config(policy, cfg.partitions);
    guarded_cfg.guard = GuardConfig::enforcing(budget);
    let guarded_rt = ShmtRuntime::new(platform.clone(), guarded_cfg);

    // Guard-off bit-identity: exotic knobs behind `enabled: false` must
    // not perturb a single bit of the report.
    let mut off_cfg = config(policy, cfg.partitions);
    off_cfg.guard = GuardConfig {
        enabled: false,
        budget: QualityBudget { max_mape: 0.0 },
        page_rows: 3,
        pages_per_hlop: 7,
    };
    let off_rt = ShmtRuntime::new(platform, off_cfg);

    let mut rows: Vec<JsonValue> = Vec::new();
    let mut bit_identical = true;
    for (scenario, plan) in scenarios(healthy.makespan_s, cfg.seed) {
        let unguarded = unguarded_rt
            .execute_with_faults(vop, &plan)
            .expect("unguarded chaos run succeeds");
        let off = off_rt
            .execute_with_faults(vop, &plan)
            .expect("guard-off chaos run succeeds");
        bit_identical &= off.output.as_slice() == unguarded.output.as_slice()
            && off.makespan_s == unguarded.makespan_s
            && off.records == unguarded.records;
        assert!(
            bit_identical,
            "{name}/{scenario}: a disabled guard perturbed the run"
        );

        let guarded = guarded_rt
            .execute_with_faults(vop, &plan)
            .expect("guarded chaos run succeeds");
        record_flight(recorder, name, scenario, &guarded);
        let unguarded_mape = mape(reference, &unguarded.output);
        let guarded_mape = mape(reference, &guarded.output);

        // The contract, scenario by scenario.
        assert!(
            guarded_mape <= budget,
            "{name}/{scenario}: guarded output ships {guarded_mape} against budget {budget}"
        );
        assert!(
            guarded.quality.true_mape <= budget,
            "{name}/{scenario}: verified-page accounting over budget"
        );
        // Miscalibration only corrupts what the TPU actually produced; a
        // policy that kept everything exact has nothing to break.
        if has_miscal(&plan) && guarded.quality.approx_hlops > 0 {
            assert!(
                unguarded_mape > budget,
                "{name}/{scenario}: miscalibration must break the unguarded run \
                 ({unguarded_mape} <= {budget})"
            );
            assert!(
                !guarded.quality.repairs.is_empty(),
                "{name}/{scenario}: over-budget output must trigger repairs"
            );
        }
        if guarded.quality.checked_hlops > 0 {
            assert!(
                guarded.quality.overhead_s > 0.0,
                "{name}/{scenario}: verification must cost virtual time"
            );
            assert!(
                guarded.makespan_s > unguarded.makespan_s,
                "{name}/{scenario}: guard overhead must show in the makespan"
            );
        }
        if scenario == "tpu_dropout" {
            assert_eq!(
                unguarded_mape, 0.0,
                "{name}: a dead TPU degrades to an all-exact run"
            );
            assert_eq!(guarded.quality.approx_hlops, 0);
        }

        println!(
            "  {:<10} {:<22} budget {:>7.4}  unguarded {:>8.5}  guarded {:>8.5}  \
             repaired {:>2}/{:<2}  overhead {:>8.3} ms",
            name,
            scenario,
            budget,
            unguarded_mape,
            guarded_mape,
            guarded.quality.repairs.len(),
            guarded.quality.checked_hlops,
            guarded.quality.overhead_s * 1e3,
        );
        rows.push(scenario_row(
            scenario,
            budget,
            &unguarded,
            unguarded_mape,
            &guarded,
            guarded_mape,
        ));
    }

    ObjectBuilder::new()
        .field("policy", JsonValue::String(name.to_string()))
        .field("healthy_mape", JsonValue::Number(healthy_mape))
        .field("budget_mape", JsonValue::Number(budget))
        .field("guard_off_bit_identical", JsonValue::Bool(bit_identical))
        .field("scenarios", JsonValue::Array(rows))
        .build()
}

/// Re-reads the written artifact and re-checks the headline invariants
/// through the parser — the file must *say* what the asserts proved.
fn validate(json: &str, policies: usize) {
    let doc = JsonValue::parse(json).expect("chaos artifact must parse");
    let rows = doc
        .get("policies")
        .and_then(JsonValue::as_array)
        .expect("policies array");
    assert_eq!(rows.len(), policies, "one row per policy");
    for row in rows {
        let policy = row.get("policy").and_then(JsonValue::as_str).expect("name");
        assert!(
            matches!(
                row.get("guard_off_bit_identical"),
                Some(JsonValue::Bool(true))
            ),
            "{policy}: bit-identity flag must be recorded true"
        );
        let scenarios = row
            .get("scenarios")
            .and_then(JsonValue::as_array)
            .expect("scenarios array");
        assert_eq!(scenarios.len(), 6, "{policy}: six chaos scenarios");
        for s in scenarios {
            let name = s.get("name").and_then(JsonValue::as_str).expect("name");
            let within = s
                .get("guarded")
                .and_then(|g| g.get("within_budget"))
                .cloned();
            assert!(
                matches!(within, Some(JsonValue::Bool(true))),
                "{policy}/{name}: guarded run recorded over budget"
            );
            let exceeds = s
                .get("unguarded")
                .and_then(|g| g.get("exceeds_budget"))
                .cloned();
            let checked = s
                .get("guarded")
                .and_then(|g| g.get("checked_hlops"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            if name.contains("miscal") && checked > 0.0 {
                assert!(
                    matches!(exceeds, Some(JsonValue::Bool(true))),
                    "{policy}/{name}: unguarded miscalibration must be over budget"
                );
            }
        }
    }
    let dumps = doc
        .get("flight_dumps")
        .and_then(JsonValue::as_f64)
        .expect("flight_dumps field");
    assert!(dumps >= 1.0, "artifact must record flight dumps");
}

fn main() {
    let opts = parse_opts(std::env::args().skip(1));
    let cfg = sweep_config(opts.smoke);
    let benchmark = Benchmark::Sobel;

    println!(
        "chaos sweep: {benchmark} at {0}x{0} with {1} partitions, seed {2}, {3} policies\n",
        cfg.size,
        cfg.partitions,
        cfg.seed,
        cfg.policies.len()
    );
    std::fs::create_dir_all("results").expect("create results dir");

    let inputs = benchmark.generate_inputs(cfg.size, cfg.size, cfg.seed);
    let vop = Vop::from_benchmark(benchmark, inputs).expect("valid VOP");
    let reference: Tensor = shmt::baseline::exact_reference(&vop);

    // Black-box the guarded runs: failing scenarios must leave dumps.
    let dump_prefix = "flight_chaos";
    if let Ok(entries) = std::fs::read_dir("results") {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(dump_prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    let mut recorder = FlightRecorder::new(FlightConfig {
        dump_dir: Some("results".into()),
        file_prefix: dump_prefix.to_owned(),
        ..FlightConfig::default()
    });

    let mut policy_rows: Vec<JsonValue> = Vec::new();
    for &policy in &cfg.policies {
        policy_rows.push(run_policy(policy, &cfg, &vop, &reference, &mut recorder));
        println!();
    }
    let flight_dumps = recorder.dumps_written();
    assert!(
        flight_dumps >= 1,
        "failing chaos scenarios must dump flight context"
    );

    let doc = ObjectBuilder::new()
        .field("benchmark", JsonValue::String(benchmark.name().into()))
        .field("size", JsonValue::Number(cfg.size as f64))
        .field("partitions", JsonValue::Number(cfg.partitions as f64))
        .field("seed", JsonValue::Number(cfg.seed as f64))
        .field("smoke", JsonValue::Bool(opts.smoke))
        .field(
            "miscalibration",
            ObjectBuilder::new()
                .field("gain", JsonValue::Number(MISCAL.0 as f64))
                .field("bias", JsonValue::Number(MISCAL.1 as f64))
                .build(),
        )
        .field("policies", JsonValue::Array(policy_rows))
        .field("flight_dumps", JsonValue::Number(flight_dumps as f64))
        .build()
        .to_string();

    let path = opts.out.unwrap_or_else(|| {
        if opts.smoke {
            "results/BENCH_quality_smoke.json".into()
        } else {
            "results/BENCH_quality.json".into()
        }
    });
    std::fs::write(&path, &doc).expect("write chaos artifact");
    let reread = std::fs::read_to_string(&path).expect("re-read chaos artifact");
    validate(&reread, cfg.policies.len());
    println!("-> {path} (validated)");
}
