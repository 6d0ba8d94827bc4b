//! Reference executions: the optimized GPU baseline every figure
//! normalizes against, and the software-pipelining variant of Fig 6.

use hetsim::{DeviceTimeline, EnergyMeter, MemoryTracker, SimTime};
use shmt_tensor::Tensor;

use crate::error::Result;
use crate::hlop::Hlop;
use crate::partition::partition_vop;
use crate::platform::Platform;
use crate::report::BaselineReport;
use crate::sched::{CPU, GPU};
use crate::vop::Vop;

/// Runs the VOP entirely on the GPU the way the paper's optimized baseline
/// implementations do: one monolithic kernel over the whole dataset after
/// serial host staging. (`partitions` is accepted for signature symmetry
/// with [`software_pipelining`] but the optimized baselines launch once.)
///
/// # Errors
///
/// Propagates partitioning errors.
pub fn gpu_baseline(platform: &Platform, vop: &Vop, partitions: usize) -> Result<BaselineReport> {
    let _ = partitions;
    run_single_gpu(platform, vop, 1, false)
}

/// The software-pipelining reference (Fig 6): identical GPU work, but each
/// chunk's host staging overlaps the previous chunk's kernel.
///
/// # Errors
///
/// Propagates partitioning errors.
pub fn software_pipelining(
    platform: &Platform,
    vop: &Vop,
    partitions: usize,
) -> Result<BaselineReport> {
    run_single_gpu(platform, vop, partitions, true)
}

fn run_single_gpu(
    platform: &Platform,
    vop: &Vop,
    partitions: usize,
    pipelined: bool,
) -> Result<BaselineReport> {
    let hlops = partition_vop(vop, partitions)?;
    let kernel = vop.kernel();
    let inputs: Vec<&Tensor> = vop.inputs().iter().collect();
    let (rows, cols) = vop.partition_space();

    let profiles = platform.device_profiles();
    let bench = platform.bench_profile();
    let mut gpu = DeviceTimeline::new(profiles[GPU]);
    let work_per_elem = kernel.work_per_element();

    // Host staging per chunk, as a fraction of that chunk's GPU time.
    let mut staging_done = SimTime::ZERO;
    let mut cpu_busy = 0.0f64;
    let mut end = SimTime::ZERO;
    for h in &hlops {
        let work = h.elements() as f64 * work_per_elem;
        let stage = bench.host_staging_frac * work / profiles[GPU].throughput;
        cpu_busy += stage;
        let stage_start = if pipelined {
            // Overlap with whatever the GPU is doing.
            staging_done
        } else {
            // Synchronous: stage only after the previous kernel finished.
            staging_done.max(gpu.free_at())
        };
        staging_done = stage_start + stage;
        end = gpu.execute(staging_done, work);
    }
    // Real compute (exact), fanned out over host threads.
    let tasks: Vec<crate::exec::ComputeTask> = hlops
        .iter()
        .map(|h| crate::exec::ComputeTask {
            tile: h.tile,
            npu: false,
        })
        .collect();
    let mut output = crate::exec::compute_output(
        kernel,
        &inputs,
        &tasks,
        rows,
        cols,
        crate::exec::default_threads(),
    );
    kernel.finalize(&mut output);

    let makespan = end.as_secs();
    let mut meter = EnergyMeter::new(platform.idle_power_w());
    meter.record_busy(
        profiles[GPU].kind,
        gpu.busy_time(),
        profiles[GPU].active_power_w,
    );
    meter.record_busy(profiles[CPU].kind, cpu_busy, profiles[CPU].active_power_w);
    let energy = meter.finish(makespan);

    // Baseline footprint: the optimized monolithic GPU implementations
    // keep whole-dataset intermediate buffers resident (Fig 11).
    let n = (rows * cols) as u64;
    let mut mem = MemoryTracker::new();
    mem.alloc("inputs", 4 * n * vop.inputs().len() as u64);
    mem.alloc("output", 4 * output.len() as u64);
    mem.alloc(
        "gpu-intermediates",
        (bench.gpu_intermediate * (4 * n) as f64) as u64,
    );

    Ok(BaselineReport {
        output,
        makespan_s: makespan,
        energy,
        peak_memory_bytes: mem.peak_bytes(),
    })
}

/// Computes the exact whole-dataset reference output (no timing model) —
/// the ground truth for MAPE/SSIM.
pub fn exact_reference(vop: &Vop) -> Tensor {
    let kernel = vop.kernel();
    let inputs: Vec<&Tensor> = vop.inputs().iter().collect();
    let (rows, cols) = vop.partition_space();
    crate::exec::compute_exact_parallel(kernel, &inputs, rows, cols, crate::exec::default_threads())
}

/// Total kernel work of a VOP in work units (for cost sanity checks).
pub fn total_work(vop: &Vop, partitions: usize) -> Result<f64> {
    let hlops = partition_vop(vop, partitions)?;
    Ok(hlops.iter().map(Hlop::elements).sum::<usize>() as f64 * vop.kernel().work_per_element())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::mape;
    use shmt_kernels::Benchmark;

    fn vop(b: Benchmark, n: usize) -> Vop {
        Vop::from_benchmark(b, b.generate_inputs(n, n, 5)).unwrap()
    }

    #[test]
    fn baseline_output_is_exact() {
        let v = vop(Benchmark::Laplacian, 128);
        let b = gpu_baseline(&Platform::jetson(Benchmark::Laplacian), &v, 8).unwrap();
        let reference = exact_reference(&v);
        assert_eq!(mape(&reference, &b.output), 0.0);
    }

    #[test]
    fn pipelining_is_faster_than_sync_baseline() {
        let b = Benchmark::Sobel; // staging fraction 0.25
        let v = vop(b, 256);
        // Slow virtual platform so compute (not launch overhead) dominates
        // at test-sized datasets, as it does at the paper's 8192x8192.
        let p = Platform::with_profiles(
            crate::calibration::Calibration {
                gpu_throughput: 1.0e6,
                ..Default::default()
            },
            crate::calibration::bench_profile(b),
        );
        let base = gpu_baseline(&p, &v, 16).unwrap();
        let pipe = software_pipelining(&p, &v, 16).unwrap();
        assert!(pipe.makespan_s < base.makespan_s);
        // The gain is bounded by the staging fraction.
        let speedup = base.makespan_s / pipe.makespan_s;
        assert!(speedup < 1.35, "speedup = {speedup}");
        assert!(speedup > 1.05, "speedup = {speedup}");
    }

    #[test]
    fn baseline_energy_uses_gpu_power() {
        let b = Benchmark::Fft;
        let v = vop(b, 128);
        let r = gpu_baseline(&Platform::jetson(b), &v, 8).unwrap();
        assert!(r.energy.active_j > 0.0);
        assert!(r.edp() > 0.0);
    }

    #[test]
    fn total_work_scales_with_elements() {
        let v64 = vop(Benchmark::MeanFilter, 64);
        let v128 = vop(Benchmark::MeanFilter, 128);
        let w64 = total_work(&v64, 4).unwrap();
        let w128 = total_work(&v128, 4).unwrap();
        assert!((w128 / w64 - 4.0).abs() < 1e-9);
    }
}
