//! Benchmark kernels for the SHMT reproduction.
//!
//! The paper evaluates SHMT on ten applications (Table 2): Blackscholes,
//! DCT8x8, DWT (9/7), FFT, Histogram, Hotspot, Laplacian, Mean Filter,
//! Sobel, and SRAD. Each kernel here has two device paths:
//!
//! * **exact** — the reference `f32` implementation. This is what the
//!   virtual CPU and GPU devices execute (their silicon computes fp32
//!   exactly; only their *speed* differs, which the platform simulator
//!   models).
//! * **NPU** — the Edge TPU path. The paper runs pre-trained int8 NN
//!   approximations of each kernel on the Edge TPU (§4.2); we model that as
//!   the exact kernel evaluated on inputs snapped to an int8 grid with the
//!   outputs snapped to an int8 grid, optionally coarsened by a per-kernel
//!   fidelity factor representing residual NN-approximation error. The
//!   result is a genuinely computed, genuinely degraded output whose error
//!   grows with the value range of the partition — the exact property
//!   QAWS's criticality sampling exploits (§3.5).
//!
//! Kernels compute one *output tile* at a time given access to the whole
//! input tensor(s), writing it in place through a destination view of
//! that tile alone; stencil kernels therefore read their halos from the
//! global input with clamped boundaries, matching an HLOP whose input
//! partition includes the halo (§3.3.2).
//!
//! # Examples
//!
//! ```
//! use shmt_kernels::{Benchmark, Kernel};
//! use shmt_tensor::tile::Tile;
//!
//! let bench = Benchmark::Sobel;
//! let kernel = bench.kernel();
//! let inputs = bench.generate_inputs(64, 64, 1);
//! let refs: Vec<_> = inputs.iter().collect();
//! let mut out = kernel.shape().allocate_output(64, 64);
//! let tile = Tile { index: 0, row0: 0, col0: 0, rows: 64, cols: 64 };
//! kernel.run_exact(&refs, tile, &mut out);
//! assert_eq!(out.shape(), (64, 64));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blackscholes;
pub mod conv;
pub mod dct8x8;
pub mod dwt;
pub mod fft;
pub mod gemm;
pub mod histogram;
pub mod hotspot;
mod kernel;
pub mod laplacian;
pub mod mean_filter;
pub mod npu;
pub mod primitives;
pub mod reductions;
pub mod reference;
pub mod sobel;
pub mod srad;
mod stencil;

pub use kernel::{Aggregation, Benchmark, Kernel, KernelShape, ReduceOp, ALL_BENCHMARKS};
