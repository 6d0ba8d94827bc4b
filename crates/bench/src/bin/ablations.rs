//! Partition-granularity ablation (DESIGN.md §7): the §3.4 page-granular
//! tiling vs finer and coarser partitions, under QAWS-TS.
//!
//! ```text
//! cargo run --release -p shmt-bench --bin ablations [--size N]
//! ```

use shmt::baseline::{exact_reference, gpu_baseline};
use shmt::quality::mape;
use shmt::sampling::SamplingMethod;
use shmt::{Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Vop};
use shmt_kernels::Benchmark;

fn main() {
    let config = shmt_bench::parse_config(std::env::args().skip(1));
    for b in [Benchmark::Sobel, Benchmark::Fft] {
        run_benchmark(b, config);
    }
}

fn run_benchmark(b: Benchmark, config: shmt::experiments::ExperimentConfig) {
    println!(
        "Ablations on {b} at {0}x{0} (speedup over GPU baseline / MAPE %)\n",
        config.size
    );
    let vop = Vop::from_benchmark(b, b.generate_inputs(config.size, config.size, config.seed))
        .expect("valid vop");
    let platform = Platform::jetson(b);
    let reference = exact_reference(&vop);
    let baseline = gpu_baseline(&platform, &vop, config.partitions).expect("baseline");

    println!("-- partition granularity (QAWS-TS) --");
    for parts in [4usize, 16, 64, 256] {
        let mut cfg = RuntimeConfig::new(Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        });
        cfg.partitions = parts;
        let r = ShmtRuntime::new(platform.clone(), cfg)
            .execute(&vop)
            .expect("run");
        let s = baseline.makespan_s / r.makespan_s;
        let m = mape(&reference, &r.output) * 100.0;
        println!("  {parts:>4} partitions: {s:5.2}x  MAPE {m:5.2}%");
    }
}
