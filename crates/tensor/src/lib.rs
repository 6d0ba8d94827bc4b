//! Dense 2-D tensor substrate for the SHMT reproduction.
//!
//! The SHMT runtime ("Simultaneous and Heterogenous Multithreading",
//! MICRO '23) moves page-granular partitions of flat 2-D floating-point
//! datasets between a shared main memory and per-device memories, casting
//! them to the precision each device supports. This crate provides the
//! data-plane pieces that the runtime, the kernels, and the platform
//! simulator all share:
//!
//! * [`Tensor`] — an owned, row-major 2-D `f32` array with checked views.
//! * [`TensorView`]/[`TensorViewMut`] — borrowed rectangular windows; the
//!   mutable one is the tile destination every kernel writes through.
//! * [`copy2d`] — a `cudaMemcpy2D`-style strided rectangle copy
//!   (paper §3.3.2 builds its data-distribution memory operations on
//!   exactly this primitive).
//! * [`quant`] — affine int8 quantization used to model the Edge TPU's
//!   INT8-only data path (paper §2.1, §3.3.2).
//! * [`tile`] — partition geometry: how a dataset is divided into
//!   page-granular partitions (paper §3.4).
//! * [`gen`] — seeded synthetic workload generators matching the paper's
//!   randomly generated datasets (§5.1), with spatially varying dispersion
//!   so that partitions genuinely differ in criticality.
//! * [`rng`] — the dependency-free seeded PCG32 behind every random choice
//!   in the workspace (dataset generation, sampling, SGD shuffling).
//!
//! # Examples
//!
//! ```
//! use shmt_tensor::{Tensor, tile::TileSpec};
//!
//! let t = Tensor::from_fn(64, 64, |r, c| (r + c) as f32);
//! let grid = TileSpec::new(32, 32).grid_for(t.rows(), t.cols());
//! assert_eq!(grid.len(), 4);
//! for tile in grid.iter() {
//!     let view = t.view(tile.row0, tile.col0, tile.rows, tile.cols);
//!     assert_eq!(view.rows(), 32);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
mod copy;
mod error;
pub mod gen;
pub mod quant;
pub mod rng;
mod tensor;
pub mod tile;

pub use copy::{copy2d, Rect};
pub use error::TensorError;
pub use tensor::{Tensor, TensorView, TensorViewMut};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
