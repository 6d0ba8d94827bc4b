//! 256-bin histogram (OpenCV baseline; the `reduce_hist256` VOP).
//!
//! Each HLOP accumulates a private 1x256 count buffer over its partition;
//! the runtime sums the buffers ([`Aggregation::Reduce`]). Values are binned
//! over the image range `[0, 256)` with clamping.

use shmt_tensor::arena::Stash;
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Aggregation, Kernel, KernelShape, ReduceOp};

/// Number of bins.
pub const BINS: usize = 256;

/// 256-bin histogram reduction kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram256;

impl Kernel for Histogram256 {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn shape(&self) -> KernelShape {
        KernelShape {
            aggregation: Aggregation::Reduce {
                rows: 1,
                cols: BINS,
                op: ReduceOp::Sum,
            },
            ..KernelShape::elementwise()
        }
    }

    /// Writes the counts of the tile's elements into `out`, the HLOP's
    /// private 1x256 buffer; the runtime sums the buffers.
    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        assert_eq!(
            (out.rows(), out.cols()),
            (1, BINS),
            "histogram output is 1x256"
        );
        // A fixed-size array lets the count update compile without a
        // per-element bounds check.
        let mut counts = [0.0f32; BINS];
        for r in tile.row0..tile.row0 + tile.rows {
            for &v in &input.row(r)[tile.col0..tile.col0 + tile.cols] {
                let bin = (v.clamp(0.0, (BINS - 1) as f32)) as usize;
                counts[bin & (BINS - 1)] += 1.0;
            }
        }
        out.row_mut(0).copy_from_slice(&counts);
    }

    fn run_npu_into(
        &self,
        inputs: &[&Tensor],
        tile: Tile,
        out: &mut TensorViewMut<'_>,
        _stash: &mut Stash,
    ) {
        // The NPU histogram regresses the 256 bin counts through an int8
        // output layer: per-HLOP counts are exact in aggregate but each
        // bin is reported on an int8 grid spanning the HLOP's count range.
        self.run_exact_into(inputs, tile, out);
        let params = shmt_tensor::quant::QuantParams::from_slice(out.row(0));
        for v in out.row_mut(0) {
            *v = params.snap(*v).max(0.0);
        }
    }

    fn npu_native_u8(&self) -> bool {
        true
    }

    fn work_per_element(&self) -> f64 {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_elements() {
        let input = Tensor::from_fn(8, 8, |r, c| ((r * 8 + c) % 256) as f32);
        let mut out = Tensor::zeros(1, BINS);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        Histogram256.run_exact(&[&input], tile, &mut out);
        let total: f32 = out.as_slice().iter().sum();
        assert_eq!(total, 64.0);
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_bins() {
        let input = Tensor::from_vec(1, 4, vec![-5.0, 0.0, 255.0, 999.0]).unwrap();
        let mut out = Tensor::zeros(1, BINS);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 1,
            cols: 4,
        };
        Histogram256.run_exact(&[&input], tile, &mut out);
        assert_eq!(out[(0, 0)], 2.0);
        assert_eq!(out[(0, 255)], 2.0);
    }

    #[test]
    fn partition_sums_match_whole() {
        let input = Tensor::from_fn(16, 16, |r, c| ((r * 37 + c * 11) % 256) as f32);
        let mut whole = Tensor::zeros(1, BINS);
        Histogram256.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 16,
                cols: 16,
            },
            &mut whole,
        );
        let mut parts = Tensor::zeros(1, BINS);
        for (i, r0) in [0usize, 8].iter().enumerate() {
            Histogram256.run_exact(
                &[&input],
                Tile {
                    index: i,
                    row0: *r0,
                    col0: 0,
                    rows: 8,
                    cols: 16,
                },
                &mut parts,
            );
        }
        assert_eq!(whole.as_slice(), parts.as_slice());
    }
}
