//! Dumps one Chrome trace per scheduling policy for a single benchmark.
//!
//! ```text
//! cargo run --release -p shmt-bench --bin trace_run -- --size 1024
//! ```
//!
//! Runs the benchmark once under each policy with full trace capture,
//! writes `results/trace_<policy>.json` for every run (Perfetto-loadable
//! Chrome trace-event JSON), and prints the per-device timeline summary.
//! Every file is validated by re-reading it with the crate's own parser
//! before it is reported as written.

use shmt::sampling::SamplingMethod;
use shmt::trace::{chrome, summary};
use shmt::{FaultPlan, Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Vop};
use shmt_bench::parse_config;
use shmt_kernels::Benchmark;

fn policy_slug(policy: Policy) -> String {
    policy
        .name()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn main() {
    let config = parse_config(std::env::args().skip(1));
    let benchmark = Benchmark::Sobel;
    let policies = [
        Policy::EvenDistribution,
        Policy::WorkStealing,
        Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        },
        Policy::Qaws {
            assignment: QawsAssignment::DeviceLimits,
            sampling: SamplingMethod::UniformRandom,
        },
        Policy::IraSampling,
        Policy::Oracle,
    ];

    println!(
        "tracing {benchmark} at {0}x{0} with {1} partitions\n",
        config.size, config.partitions
    );
    std::fs::create_dir_all("results").expect("create results dir");

    let inputs = benchmark.generate_inputs(config.size, config.size, config.seed);
    let vop = Vop::from_benchmark(benchmark, inputs).expect("valid VOP");

    for policy in policies {
        let mut cfg = RuntimeConfig::new(policy);
        cfg.partitions = config.partitions;
        let runtime = ShmtRuntime::new(Platform::jetson(benchmark), cfg);
        let report = runtime
            .execute_with_faults_traced(&vop, &FaultPlan::none())
            .expect("run succeeds");
        let trace = report.trace.as_ref().expect("traced run carries a trace");

        let json = chrome::to_chrome_json(trace);
        // Smoke-check the export with our own reader before writing.
        let parsed = chrome::from_chrome_json(&json).expect("exporter emits valid JSON");
        assert!(
            parsed.complete_events().count() > 0,
            "{}: trace must contain spans",
            policy.name()
        );

        let path = format!("results/trace_{}.json", policy_slug(policy));
        std::fs::write(&path, &json).expect("write trace file");

        println!(
            "-- {} -- makespan {:.2} ms, {} events, {} steals -> {path}",
            policy.name(),
            report.makespan_s * 1e3,
            trace.len(),
            trace.steals()
        );
        print!("{}", summary::timeline_summary(trace, report.makespan_s));
        println!();
    }
}
