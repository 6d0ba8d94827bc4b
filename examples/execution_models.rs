//! The paper's Fig 1 in code: the same three-function program under
//! (a) the conventional model — every function on its best single device,
//! and (c) SHMT — every function spread across all processing units.
//!
//! ```text
//! cargo run --release --example execution_models
//! ```

use shmt::dag::{DagConfig, VopDag};
use shmt::sampling::SamplingMethod;
use shmt::{Policy, QawsAssignment, RuntimeConfig};
use shmt_kernels::Benchmark;
use shmt_tensor::gen;

fn main() -> Result<(), shmt::ShmtError> {
    let size = 4096;
    // A denoise -> detect -> summarize program (functions A, B, C of Fig 1).
    let program = VopDag::linear(&[
        (Benchmark::MeanFilter, 1),
        (Benchmark::Sobel, 2),
        (Benchmark::Histogram, 3),
    ])?;
    let frame = gen::image8(size, size, 2024);

    println!("Fig 1 execution models on a {size}x{size} frame, 3-stage program\n");

    // (a) Conventional: each function runs on the single best device.
    let (conventional_s, _) = program.run_conventional(&frame, 64)?;
    println!(
        "(a) conventional (best single device per function): {:7.2} ms",
        conventional_s * 1e3
    );

    // (c) SHMT: every function co-executes on CPU + GPU + Edge TPU.
    let mut cfg = RuntimeConfig::new(Policy::Qaws {
        assignment: QawsAssignment::TopK,
        sampling: SamplingMethod::Striding,
    });
    cfg.partitions = 64;
    let shmt = program.run(&frame, &DagConfig::new(cfg))?;
    println!(
        "(c) SHMT (all devices per function):                {:7.2} ms",
        shmt.total_latency_s * 1e3
    );
    println!(
        "\nend-to-end gain: {:.2}x   energy: {:.3} J",
        conventional_s / shmt.total_latency_s,
        shmt.total_energy_j
    );
    println!("\nper-stage device shares under SHMT:");
    for stage in &shmt.stages {
        let shares: Vec<String> = stage
            .report
            .device_shares()
            .iter()
            .map(|(kind, f)| format!("{kind} {:.0}%", f * 100.0))
            .collect();
        println!("  {:<12} {}", stage.label, shares.join("  "));
    }
    Ok(())
}
