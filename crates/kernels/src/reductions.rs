//! Whole-dataset reduction VOPs from Table 1: `reduce_sum`,
//! `reduce_average`, `reduce_max`, `reduce_min`.
//!
//! Each HLOP reduces its partition into a tiny private buffer; the runtime
//! folds the buffers with the reduction's operation. `reduce_average`
//! carries `(sum, count)` partials and divides in [`Kernel::finalize`].

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Aggregation, Kernel, KernelShape, ReduceOp};

fn reduce_shape(cols: usize, op: ReduceOp) -> KernelShape {
    KernelShape {
        aggregation: Aggregation::Reduce { rows: 1, cols, op },
        ..KernelShape::elementwise()
    }
}

fn fold_tile(input: &Tensor, tile: Tile, init: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut acc = init;
    for r in tile.row0..tile.row0 + tile.rows {
        for &v in &input.row(r)[tile.col0..tile.col0 + tile.cols] {
            acc = f(acc, v);
        }
    }
    acc
}

/// `reduce_sum`: the output buffer is `1x1` holding the dataset sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceSum;

impl Kernel for ReduceSum {
    fn name(&self) -> &'static str {
        "reduce_sum"
    }

    fn shape(&self) -> KernelShape {
        reduce_shape(1, ReduceOp::Sum)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        out[(0, 0)] = fold_tile(inputs[0], tile, 0.0, |a, v| a + v);
    }

    fn work_per_element(&self) -> f64 {
        1.0
    }
}

/// `reduce_max`: the output buffer is `1x1` holding the dataset maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceMax;

impl Kernel for ReduceMax {
    fn name(&self) -> &'static str {
        "reduce_max"
    }

    fn shape(&self) -> KernelShape {
        reduce_shape(1, ReduceOp::Max)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        out[(0, 0)] = fold_tile(inputs[0], tile, f32::NEG_INFINITY, f32::max);
    }

    fn work_per_element(&self) -> f64 {
        1.0
    }
}

/// `reduce_min`: the output buffer is `1x1` holding the dataset minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceMin;

impl Kernel for ReduceMin {
    fn name(&self) -> &'static str {
        "reduce_min"
    }

    fn shape(&self) -> KernelShape {
        reduce_shape(1, ReduceOp::Min)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        out[(0, 0)] = fold_tile(inputs[0], tile, f32::INFINITY, f32::min);
    }

    fn work_per_element(&self) -> f64 {
        1.0
    }
}

/// `reduce_average`: partials are `(sum, count)` pairs; [`Kernel::finalize`]
/// turns the pair into `(average, count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceAverage;

impl Kernel for ReduceAverage {
    fn name(&self) -> &'static str {
        "reduce_average"
    }

    fn shape(&self) -> KernelShape {
        reduce_shape(2, ReduceOp::Sum)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        out[(0, 0)] = fold_tile(inputs[0], tile, 0.0, |a, v| a + v);
        out[(0, 1)] = tile.len() as f32;
    }

    fn finalize(&self, out: &mut Tensor) {
        let count = out[(0, 1)];
        if count > 0.0 {
            out[(0, 0)] /= count;
        }
    }

    fn work_per_element(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Tensor {
        Tensor::from_fn(8, 8, |r, c| (r * 8 + c) as f32)
    }

    fn run_partitioned(kernel: &dyn Kernel) -> Tensor {
        let t = input();
        let shape = kernel.shape();
        let mut out = shape.allocate_output(8, 8);
        for (i, r0) in [0usize, 4].iter().enumerate() {
            let tile = Tile {
                index: i,
                row0: *r0,
                col0: 0,
                rows: 4,
                cols: 8,
            };
            kernel.run_exact(&[&t], tile, &mut out);
        }
        kernel.finalize(&mut out);
        out
    }

    #[test]
    fn sum_matches_arithmetic_series() {
        let out = run_partitioned(&ReduceSum);
        assert_eq!(out[(0, 0)], (63 * 64 / 2) as f32);
    }

    #[test]
    fn max_and_min_find_extremes() {
        assert_eq!(run_partitioned(&ReduceMax)[(0, 0)], 63.0);
        assert_eq!(run_partitioned(&ReduceMin)[(0, 0)], 0.0);
    }

    #[test]
    fn average_divides_by_count() {
        let out = run_partitioned(&ReduceAverage);
        assert_eq!(out[(0, 0)], 31.5);
        assert_eq!(out[(0, 1)], 64.0);
    }

    #[test]
    fn reduce_identities_compose() {
        // Folding an identity-initialized buffer with partials must equal
        // the direct reduction.
        assert_eq!(ReduceOp::Max.combine(ReduceOp::Max.identity(), -5.0), -5.0);
        assert_eq!(ReduceOp::Min.combine(ReduceOp::Min.identity(), 5.0), 5.0);
        assert_eq!(ReduceOp::Sum.combine(ReduceOp::Sum.identity(), 5.0), 5.0);
    }

    #[test]
    fn npu_path_reduces_approximately() {
        let t = input();
        let kernel = ReduceSum;
        let mut out = kernel.shape().allocate_output(8, 8);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        kernel.run_npu(&[&t], tile, &mut out);
        let exact = (63 * 64 / 2) as f32;
        assert!(
            (out[(0, 0)] - exact).abs() < 0.02 * exact,
            "{}",
            out[(0, 0)]
        );
    }
}
