//! # SHMT — Simultaneous and Heterogeneous Multithreading
//!
//! A reproduction of the runtime from *"Simultaneous and Heterogenous
//! Multithreading"* (Hsu & Tseng, MICRO '23): a programming and execution
//! model that co-executes a **single compute kernel** across heterogeneous
//! processing units — CPU, GPU, and an int8 Edge TPU — at the same time,
//! with quality control over the precision mismatch.
//!
//! The moving parts, mirroring the paper's §3:
//!
//! * [`vop`] — virtual operations (VOPs), the hardware-independent command
//!   set of the SHMT virtual device (Table 1).
//! * [`hlop`] — high-level operations (HLOPs), the device-sized partitions
//!   of a VOP that form the unit of scheduling.
//! * [`partition`] — the page-granularity partitioner (§3.4).
//! * [`sampling`] / [`criticality`] — Algorithms 3–5 and the range+stddev
//!   criticality metric (§3.5).
//! * [`sched`] — even distribution, work stealing, the six QAWS variants
//!   (Algorithms 1–2 × 3 sampling methods), IRA, and the oracle.
//! * [`runtime`] — the virtual-device driver that plays a schedule out on
//!   the modeled platform in virtual time while *really computing* every
//!   partition (exact fp32 on CPU/GPU, int8 NPU path on the Edge TPU).
//! * [`platform`] / [`calibration`] — the modeled Jetson-Nano-class
//!   hardware, with per-benchmark device ratios taken from the paper's
//!   Fig 2.
//! * [`baseline`] — the GPU baseline and software-pipelining references.
//! * [`dag`] — multi-VOP programs: [`VopDag`], a validated DAG of VOP
//!   stages with element-wise fusion and inter-stage Edge-TPU residency.
//!   A linear chain is the degenerate case ([`VopDag::linear`]), and
//!   [`VopDag::run_conventional`] is the paper's Fig 1a
//!   one-device-per-function reference for the same graph.
//! * [`exec`] — host-side parallel execution of the HLOP computations.
//! * [`arena`] — pooled tensor pages and per-run bookkeeping spines, so
//!   warm repeated executions allocate nothing.
//! * [`quality`] — MAPE and SSIM.
//! * [`experiments`] — drivers that regenerate every figure and table of
//!   the paper's evaluation.
//! * fault tolerance — [`runtime::ShmtRuntime::execute_with_faults`]
//!   runs a VOP under a seeded, deterministic [`FaultPlan`] (slowdown
//!   windows, transient transfer failures retried with capped backoff,
//!   device dropout with accuracy-ordered re-dispatch, TPU output
//!   miscalibration); the report's [`FaultReport`] says what fired.
//! * [`guard`] — output-side quality control (§3.6): a configurable
//!   [`GuardConfig`] samples pages of every approximate partition after
//!   aggregation, recomputes them exactly in virtual time, and re-executes
//!   partitions whose estimated error exceeds the [`QualityBudget`]; the
//!   report's [`QualityReport`] says what was checked and repaired.
//! * [`trace`] (re-exported `shmt-trace`) — structured event tracing:
//!   [`runtime::ShmtRuntime::execute_traced`] captures every dispatch,
//!   cast, transfer, compute span, steal, and aggregation in virtual time,
//!   exportable as Chrome trace-event JSON for Perfetto.
//!
//! # Quickstart
//!
//! ```
//! use shmt::{Platform, Policy, RuntimeConfig, ShmtRuntime, Vop};
//! use shmt_kernels::Benchmark;
//!
//! # fn main() -> Result<(), shmt::ShmtError> {
//! let benchmark = Benchmark::Sobel;
//! let inputs = benchmark.generate_inputs(256, 256, 42);
//! let vop = Vop::from_benchmark(benchmark, inputs)?;
//!
//! let runtime = ShmtRuntime::new(
//!     Platform::jetson(benchmark),
//!     RuntimeConfig::new(Policy::WorkStealing),
//! );
//! let report = runtime.execute(&vop)?;
//! println!("makespan: {:.3} ms", report.makespan_s * 1e3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod baseline;
pub mod calibration;
pub mod criticality;
pub mod dag;
mod error;
pub mod exec;
pub mod experiments;
pub mod guard;
pub mod hlop;
pub mod partition;
pub mod platform;
pub mod pool;
pub mod quality;
pub mod report;
pub mod runtime;
pub mod sampling;
pub mod sched;
pub mod vop;

pub use calibration::AdaptiveCalibration;
pub use dag::{DagConfig, DagNode, DagReport, DagStageReport, NodeId, NodeOp, VopDag};
pub use error::{Result, ShmtError};
pub use guard::{GuardConfig, QualityBudget, QualityReport, RepairRecord};
pub use hetsim::{FaultInjector, FaultPlan, FaultReport, TpuMiscalibration};
pub use platform::Platform;
pub use report::{BaselineReport, RunReport};
pub use runtime::{RuntimeConfig, ShmtRuntime};
pub use sched::{Policy, QawsAssignment, QualityConfig};
pub use shmt_tensor::Tensor;
pub use shmt_trace as trace;
pub use shmt_trace::{NullSink, RingBufferSink, TraceData, TraceRecorder, TraceSink};
pub use vop::{Opcode, ParallelModel, Vop};
