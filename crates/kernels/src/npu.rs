//! The Edge TPU / NPU execution path.
//!
//! The paper's Edge TPU HLOPs are pre-trained int8 neural networks that
//! approximate each kernel (§4.2, following the NPU line of work). We model
//! that data path faithfully at the precision level:
//!
//! 1. The runtime casts the HLOP's input partition (plus halo) to int8 with
//!    an affine quantization derived from the partition's own range
//!    (§3.3.2's "data type casting through the desired quantization
//!    method").
//! 2. The device computes the kernel on the dequantized values.
//! 3. The result is emitted through the int8 output grid; a per-kernel
//!    *fidelity* factor (>= 1) coarsens that grid to stand in for the
//!    residual approximation error of the NN itself.
//!
//! Because both grids derive from the *partition's* value range, partitions
//! with wide ranges lose more absolute precision — the property QAWS's
//! criticality sampling (range + standard deviation, §3.5) is designed to
//! detect and route away from the NPU.

use std::ops::Range;

use shmt_tensor::arena::Stash;
use shmt_tensor::quant::{self, QuantParams, RangeScan};
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Aggregation, Kernel};

/// How the NPU's int8 output grid is organized.
///
/// Edge TPU models use *per-channel* quantization where a layer's channels
/// have very different dynamic ranges; our transform kernels exploit the
/// same freedom: a DCT model quantizes each of the 64 coefficient
/// positions on its own grid (the DC term would otherwise drown the AC
/// terms), and a DWT model quantizes each subband separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputQuant {
    /// One grid derived from the whole output tile's range.
    PerTile,
    /// One grid per position within an `edge x edge` block (DCT8x8).
    BlockChannels {
        /// Block edge (8 for DCT8x8).
        edge: usize,
    },
    /// One grid per quadrant subband of an `edge x edge` block (DWT).
    Subbands {
        /// Block edge (32 for the blocked DWT).
        edge: usize,
    },
}

/// Runs `kernel` on `tile` through the modeled NPU path, writing the
/// degraded result into `out` (see [`Kernel::run_npu_into`]).
///
/// `fidelity` coarsens the output grid: `1.0` is pure int8; larger values
/// model an NN whose approximation error exceeds a quantization step;
/// `quant` organizes the grid. The device buffers — one per input, each
/// the size of the tile's [`extended_region`] — are built in `stash` and
/// given back to it. The kernel computes on them straight into `out`, and
/// the output grid then snaps the tile where it was written.
///
/// # Panics
///
/// Panics if `inputs` does not match the kernel's arity, if the tile is out
/// of bounds, or if `fidelity < 1.0`.
pub fn run_via_npu_into<K: Kernel + ?Sized>(
    kernel: &K,
    inputs: &[&Tensor],
    tile: Tile,
    out: &mut TensorViewMut<'_>,
    fidelity: f32,
    quant: OutputQuant,
    stash: &mut Stash,
) {
    assert!(fidelity >= 1.0, "fidelity must be >= 1.0, got {fidelity}");
    let shape = kernel.shape();
    assert_eq!(
        inputs.len(),
        shape.num_inputs,
        "kernel {} arity",
        kernel.name()
    );
    let (rows, cols) = inputs[0].shape();

    // Extract the partition plus halo, aligned down to the block edge so
    // block transforms keep their phase, spanning full rows if required.
    let ext = extended_region(
        tile,
        shape.halo,
        shape.block_align,
        shape.full_rows,
        rows,
        cols,
    );

    // Quantize-snap each input region: this is the int8 device buffer.
    // Kernels with native uint8 models take integer 8-bit image data
    // losslessly; everything else goes through the affine int8 cast. The
    // extraction is fused with the range scan — each transferred page is
    // touched once for both the copy and the cast-parameter derivation,
    // then once more for the snap itself.
    let native_u8 = kernel.npu_native_u8();
    assert!(inputs.len() <= MAX_ARITY, "kernel arity above MAX_ARITY");
    let mut snapped: [Option<Tensor>; MAX_ARITY] = [None, None, None, None];
    for (slot, t) in snapped.iter_mut().zip(inputs) {
        let view = t.view(ext.row0, ext.col0, ext.rows, ext.cols);
        let (mut local, range) = view.to_tensor_with_min_max_in(stash.take(view.len()));
        // `None` means every element was NaN; either cast leaves such a
        // buffer as it is.
        let (lo, hi) = range.unwrap_or((0.0, 1.0));
        if native_u8 && lo >= 0.0 && hi <= 255.0 {
            quant::round_slice(local.as_mut_slice());
        } else {
            QuantParams::from_range(lo, hi).snap_slice(local.as_mut_slice());
        }
        *slot = Some(local);
    }
    let mut snapped_refs: [&Tensor; MAX_ARITY] = [inputs[0]; MAX_ARITY];
    for (r, s) in snapped_refs.iter_mut().zip(&snapped) {
        if let Some(s) = s {
            *r = s;
        }
    }
    let snapped_refs = &snapped_refs[..inputs.len()];

    // Run the exact kernel on the snapped local data, in local coordinates.
    let local_tile = Tile {
        index: tile.index,
        row0: tile.row0 - ext.row0,
        col0: tile.col0 - ext.col0,
        rows: tile.rows,
        cols: tile.cols,
    };
    match shape.aggregation {
        Aggregation::Tile => {
            // The tile lands where it belongs: the destination, rebased
            // onto the extract's origin, is addressed in the same local
            // coordinates. The (possibly coarsened) int8 output grid then
            // snaps it in place, one more read and write per element.
            kernel.run_exact_into(
                snapped_refs,
                local_tile,
                &mut out.rebased(ext.row0, ext.col0),
            );
            match quant {
                OutputQuant::PerTile => snap_tile(out, tile, fidelity),
                OutputQuant::BlockChannels { edge } => {
                    snap_block_channels(out, tile, fidelity, edge);
                }
                OutputQuant::Subbands { edge } => snap_subbands(out, tile, fidelity, edge),
            }
        }
        // A reduction writes its whole partial buffer, unsnapped.
        Aggregation::Reduce { .. } => kernel.run_exact_into(snapped_refs, local_tile, out),
    }
    for local in snapped.into_iter().flatten() {
        stash.put(local.into_vec());
    }
}

/// Maximum kernel arity the NPU path supports (enough for every paper
/// benchmark); lets the snapped input buffers live in fixed stack arrays.
const MAX_ARITY: usize = 4;

/// The tile expanded by its halo, aligned and clamped; `(row0, col0)` is the
/// region origin in dataset coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First dataset row of the region.
    pub row0: usize,
    /// First dataset column of the region.
    pub col0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

/// Expands `tile` by `halo`, aligns it down to `block_align`, optionally
/// widens it to full rows, and clamps it to the `rows x cols` dataset.
///
/// This is the exact input footprint a (non-`global_inputs`) kernel may
/// read while computing `tile`, and the region the NPU path casts into its
/// device buffers.
///
/// # Panics
///
/// Panics if the tile exceeds the dataset bounds.
pub fn extended_region(
    tile: Tile,
    halo: usize,
    block_align: usize,
    full_rows: bool,
    rows: usize,
    cols: usize,
) -> Region {
    assert!(
        tile.row0 + tile.rows <= rows && tile.col0 + tile.cols <= cols,
        "tile out of dataset bounds"
    );
    let align_down = |v: usize| (v / block_align) * block_align;
    let row0 = align_down(tile.row0.saturating_sub(halo));
    let row_end = (tile.row0 + tile.rows + halo).min(rows);
    let (col0, col_end) = if full_rows {
        (0, cols)
    } else {
        (
            align_down(tile.col0.saturating_sub(halo)),
            (tile.col0 + tile.cols + halo).min(cols),
        )
    };
    Region {
        row0,
        col0,
        rows: row_end - row0,
        cols: col_end - col0,
    }
}

/// Most channels any output-grid organization uses (DCT8x8's 64 block
/// positions); lets per-channel ranges and grids live on the stack.
const MAX_CHANNELS: usize = 64;

/// The int8 output grid for an observed `[lo, hi]`, its step coarsened by
/// pretending the range is `fidelity` times wider; the unit grid for a
/// channel that saw no value.
fn output_grid(range: Option<(f32, f32)>, fidelity: f32) -> QuantParams {
    match range {
        Some((lo, hi)) => {
            let mid = 0.5 * (lo + hi);
            let half = 0.5 * (hi - lo) * fidelity;
            QuantParams::from_range(mid - half, mid + half)
        }
        None => QuantParams::from_range(0.0, 1.0),
    }
}

/// The dataset rows and columns of `tile`.
fn tile_ranges(tile: Tile) -> (Range<usize>, Range<usize>) {
    (
        tile.row0..tile.row0 + tile.rows,
        tile.col0..tile.col0 + tile.cols,
    )
}

/// Snaps `tile` of `out` in place to an int8 grid derived from the
/// tile's own range (step coarsened by `fidelity`).
fn snap_tile(out: &mut TensorViewMut<'_>, tile: Tile, fidelity: f32) {
    let (rows, cols) = tile_ranges(tile);
    let mut range = RangeScan::new();
    for r in rows.clone() {
        range.scan(out.span(r, cols.clone()));
    }
    let params = output_grid(Some(range.finish().unwrap_or((0.0, 0.0))), fidelity);
    for r in rows {
        params.snap_in_place(out.span_mut(r, cols.clone()));
    }
}

/// Walks the columns of `tile` in runs that stay on one side of the phases
/// `split` and `edge` within their `edge`-wide block, calling `f(offset
/// from the tile's first column, length, phase of the run's first column)`.
fn for_each_run(tile: Tile, edge: usize, split: usize, mut f: impl FnMut(usize, usize, usize)) {
    let mut j = 0;
    while j < tile.cols {
        let phase = (tile.col0 + j) % edge;
        let stop = if phase < split { split } else { edge };
        let len = (stop - phase).min(tile.cols - j);
        f(j, len, phase);
        j += len;
    }
}

/// [`snap_tile`] with one grid per position within an `edge x edge`
/// block, each derived from that position's range within the tile.
/// Positions come from dataset coordinates, where the blocks are. A block
/// row's positions are adjacent channels, so ranges and snaps run
/// lane-wise over each block row.
fn snap_block_channels(out: &mut TensorViewMut<'_>, tile: Tile, fidelity: f32, edge: usize) {
    let channels = edge * edge;
    assert!(channels <= MAX_CHANNELS, "too many quantization channels");
    let (rows, cols) = tile_ranges(tile);
    let mut lo = [f32::INFINITY; MAX_CHANNELS];
    let mut hi = [f32::NEG_INFINITY; MAX_CHANNELS];
    for r in rows.clone() {
        let base = (r % edge) * edge;
        let row = out.span(r, cols.clone());
        for_each_run(tile, edge, 0, |j, len, phase| {
            let ch = base + phase;
            quant::fold_lanes(
                &mut lo[ch..ch + len],
                &mut hi[ch..ch + len],
                &row[j..j + len],
            );
        });
    }
    let mut params = [output_grid(None, fidelity); MAX_CHANNELS];
    for ((p, &lo), &hi) in params.iter_mut().zip(&lo).zip(&hi).take(channels) {
        *p = output_grid((lo <= hi).then_some((lo, hi)), fidelity);
    }
    for r in rows {
        let base = (r % edge) * edge;
        let row = out.span_mut(r, cols.clone());
        for_each_run(tile, edge, 0, |j, len, phase| {
            let ch = base + phase;
            quant::snap_lanes(&params[ch..ch + len], &mut row[j..j + len]);
        });
    }
}

/// [`snap_tile`] with one grid per quadrant subband of an `edge x edge`
/// block: a row crosses two subbands in alternating runs of half a block.
fn snap_subbands(out: &mut TensorViewMut<'_>, tile: Tile, fidelity: f32, edge: usize) {
    let half = edge / 2;
    let band =
        |r: usize, phase: usize| usize::from(r % edge >= half) * 2 + usize::from(phase >= half);
    let (rows, cols) = tile_ranges(tile);
    let mut ranges = [RangeScan::new(); 4];
    for r in rows.clone() {
        let row = out.span(r, cols.clone());
        for_each_run(tile, edge, half, |j, len, phase| {
            ranges[band(r, phase)].scan(&row[j..j + len]);
        });
    }
    let params = ranges.map(|range| output_grid(range.finish(), fidelity));
    for r in rows {
        let row = out.span_mut(r, cols.clone());
        for_each_run(tile, edge, half, |j, len, phase| {
            params[band(r, phase)].snap_in_place(&mut row[j..j + len]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn extended_region_clamps_at_edges() {
        let t = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 4,
            cols: 4,
        };
        let r = extended_region(t, 2, 1, false, 16, 16);
        assert_eq!((r.row0, r.col0, r.rows, r.cols), (0, 0, 6, 6));
    }

    #[test]
    fn extended_region_aligns_to_blocks() {
        let t = Tile {
            index: 0,
            row0: 8,
            col0: 16,
            rows: 8,
            cols: 8,
        };
        let r = extended_region(t, 0, 8, false, 64, 64);
        assert_eq!((r.row0, r.col0), (8, 16));
        let t2 = Tile {
            index: 0,
            row0: 9,
            col0: 17,
            rows: 7,
            cols: 7,
        };
        let r2 = extended_region(t2, 1, 8, false, 64, 64);
        assert_eq!(r2.row0 % 8, 0);
        assert_eq!(r2.col0 % 8, 0);
    }

    #[test]
    fn extended_region_full_rows_spans_width() {
        let t = Tile {
            index: 0,
            row0: 4,
            col0: 8,
            rows: 2,
            cols: 8,
        };
        let r = extended_region(t, 0, 1, true, 16, 32);
        assert_eq!((r.col0, r.cols), (0, 32));
    }

    #[test]
    fn npu_output_close_but_not_exact() {
        let bench = Benchmark::Sobel;
        let kernel = bench.kernel();
        let inputs = bench.generate_inputs(64, 64, 3);
        let refs: Vec<_> = inputs.iter().collect();
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 64,
            cols: 64,
        };

        let mut exact = Tensor::zeros(64, 64);
        kernel.run_exact(&refs, tile, &mut exact);
        let mut npu = Tensor::zeros(64, 64);
        kernel.run_npu(&refs, tile, &mut npu);

        let (lo, hi) = exact.min_max();
        let range = hi - lo;
        let mut max_err = 0.0f32;
        let mut any_diff = false;
        for (a, b) in exact.as_slice().iter().zip(npu.as_slice()) {
            let e = (a - b).abs();
            max_err = max_err.max(e);
            any_diff |= e > 0.0;
        }
        assert!(any_diff, "NPU path should differ from exact");
        assert!(
            max_err < 0.2 * range,
            "NPU error should be bounded: {max_err} vs range {range}"
        );
    }

    #[test]
    fn npu_wide_range_partition_has_larger_absolute_error() {
        // Two synthetic partitions: one narrow, one wide. The wide one must
        // show larger absolute error after the NPU path — the mechanism
        // QAWS depends on.
        let bench = Benchmark::MeanFilter;
        let kernel = bench.kernel();
        let narrow = Tensor::from_fn(32, 32, |r, c| 100.0 + ((r * 31 + c * 17) % 10) as f32 * 0.1);
        let wide = Tensor::from_fn(32, 32, |r, c| ((r * 31 + c * 17) % 100) as f32 * 25.0);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 32,
            cols: 32,
        };

        let mean_abs_err = |input: &Tensor| {
            let refs = vec![input];
            let mut exact = Tensor::zeros(32, 32);
            kernel.run_exact(&refs, tile, &mut exact);
            let mut npu = Tensor::zeros(32, 32);
            kernel.run_npu(&refs, tile, &mut npu);
            exact
                .as_slice()
                .iter()
                .zip(npu.as_slice())
                .map(|(a, b)| (a - b).abs() as f64)
                .sum::<f64>()
                / 1024.0
        };
        assert!(mean_abs_err(&wide) > 10.0 * mean_abs_err(&narrow));
    }

    /// The int8 grid in the scalar forms the vector loops replaced: libm
    /// `round`, sequential `f32::min`/`max` folds, the output snap through
    /// an actual `i8`.
    #[derive(Clone, Copy)]
    struct RefGrid {
        lo: f32,
        scale: f32,
    }

    impl RefGrid {
        fn from_range(lo: f32, hi: f32) -> Self {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let (lo, hi) = if (hi - lo).abs() < f32::EPSILON {
                (lo - 0.5, hi + 0.5)
            } else {
                (lo, hi)
            };
            RefGrid {
                lo,
                scale: (hi - lo) / 255.0,
            }
        }

        fn coarsened(lo: f32, hi: f32, fidelity: f32) -> Self {
            let mid = 0.5 * (lo + hi);
            let half = 0.5 * (hi - lo) * fidelity;
            Self::from_range(mid - half, mid + half)
        }

        fn steps(&self, x: f32) -> f32 {
            ((x - self.lo) / self.scale).round().clamp(0.0, 255.0)
        }

        fn snap_input(&self, x: f32) -> f32 {
            self.lo + self.steps(x) * self.scale
        }

        fn snap_output(&self, x: f32) -> f32 {
            let code = (self.steps(x) - 128.0) as i8;
            self.lo + (f32::from(code) + 128.0) * self.scale
        }
    }

    /// Sequential NaN-filtered range; `None` if every value is NaN.
    fn ref_range(values: impl Iterator<Item = f32>) -> Option<(f32, f32)> {
        let mut it = values.filter(|v| !v.is_nan());
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }

    /// The pre-fusion, pre-vectorisation NPU pipeline, kept as the
    /// reference the production path must match bit-for-bit: separate
    /// copy / min-max / parameter passes on the way in, an in-place
    /// per-element snap followed by a copy pass on the way out, a
    /// `channel_of` closure with two `%` per element.
    fn two_pass_reference<K: Kernel + ?Sized>(
        kernel: &K,
        inputs: &[&Tensor],
        tile: Tile,
        out: &mut Tensor,
        fidelity: f32,
        quant: OutputQuant,
    ) {
        let shape = kernel.shape();
        let (rows, cols) = inputs[0].shape();
        let ext = extended_region(
            tile,
            shape.halo,
            shape.block_align,
            shape.full_rows,
            rows,
            cols,
        );
        let native_u8 = kernel.npu_native_u8();
        let snapped: Vec<Tensor> = inputs
            .iter()
            .map(|t| {
                let view = t.view(ext.row0, ext.col0, ext.rows, ext.cols);
                let mut local = view.to_tensor();
                let range = ref_range(local.as_slice().iter().copied());
                let (lo, hi) = range.unwrap_or((0.0, 0.0));
                if native_u8 && lo >= 0.0 && hi <= 255.0 {
                    local.map_inplace(|v| v.round());
                } else {
                    let (lo, hi) = range.unwrap_or((0.0, 1.0));
                    let grid = RefGrid::from_range(lo, hi);
                    local.map_inplace(|v| grid.snap_input(v));
                }
                local
            })
            .collect();
        let snapped_refs: Vec<&Tensor> = snapped.iter().collect();
        let local_tile = Tile {
            index: tile.index,
            row0: tile.row0 - ext.row0,
            col0: tile.col0 - ext.col0,
            rows: tile.rows,
            cols: tile.cols,
        };
        let tile_rows = local_tile.row0..local_tile.row0 + local_tile.rows;
        let tile_cols = local_tile.col0..local_tile.col0 + local_tile.cols;
        match shape.aggregation {
            Aggregation::Tile => {
                let mut local_out = Tensor::zeros(ext.rows, ext.cols);
                kernel.run_exact(&snapped_refs, local_tile, &mut local_out);
                let snap_channels =
                    |t: &mut Tensor, channel_of: &dyn Fn(usize, usize) -> usize, channels| {
                        let mut lo = vec![f32::INFINITY; channels];
                        let mut hi = vec![f32::NEG_INFINITY; channels];
                        for r in tile_rows.clone() {
                            for c in tile_cols.clone() {
                                let ch = channel_of(r, c);
                                let v = t[(r, c)];
                                lo[ch] = lo[ch].min(v);
                                hi[ch] = hi[ch].max(v);
                            }
                        }
                        let grids: Vec<RefGrid> = (0..channels)
                            .map(|ch| {
                                if lo[ch] > hi[ch] {
                                    RefGrid::from_range(0.0, 1.0)
                                } else {
                                    RefGrid::coarsened(lo[ch], hi[ch], fidelity)
                                }
                            })
                            .collect();
                        for r in tile_rows.clone() {
                            for c in tile_cols.clone() {
                                t[(r, c)] = grids[channel_of(r, c)].snap_output(t[(r, c)]);
                            }
                        }
                    };
                match quant {
                    OutputQuant::PerTile => {
                        let values = tile_rows
                            .clone()
                            .flat_map(|r| tile_cols.clone().map(move |c| (r, c)))
                            .map(|rc| local_out[rc]);
                        let (lo, hi) = ref_range(values).unwrap_or((0.0, 0.0));
                        let grid = RefGrid::coarsened(lo, hi, fidelity);
                        for r in tile_rows.clone() {
                            for v in &mut local_out.row_mut(r)[tile_cols.clone()] {
                                *v = grid.snap_output(*v);
                            }
                        }
                    }
                    OutputQuant::BlockChannels { edge } => snap_channels(
                        &mut local_out,
                        &|r, c| (r % edge) * edge + c % edge,
                        edge * edge,
                    ),
                    OutputQuant::Subbands { edge } => snap_channels(
                        &mut local_out,
                        &|r, c| {
                            let half = edge / 2;
                            usize::from(r % edge >= half) * 2 + usize::from(c % edge >= half)
                        },
                        4,
                    ),
                }
                for r in 0..tile.rows {
                    let src = local_out.view(local_tile.row0 + r, local_tile.col0, 1, tile.cols);
                    out.try_view_mut(tile.row0 + r, tile.col0, 1, tile.cols)
                        .unwrap()
                        .copy_from(&src)
                        .unwrap();
                }
            }
            Aggregation::Reduce {
                rows: srows,
                cols: scols,
                op,
            } => {
                let mut local_out = kernel.shape().allocate_output(srows, scols);
                kernel.run_exact(&snapped_refs, local_tile, &mut local_out);
                for r in 0..srows {
                    let dst = out.row_mut(r);
                    for (d, s) in dst.iter_mut().zip(local_out.row(r)) {
                        *d = op.combine(*d, *s);
                    }
                }
            }
        }
    }

    /// The whole `rows x cols` dataset as one tile.
    fn full(rows: usize, cols: usize) -> Tile {
        Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows,
            cols,
        }
    }

    /// First row band, last row band and an off-origin interior tile of a
    /// `rows x cols` dataset, on the kernel's alignment.
    fn probe_tiles(shape: crate::KernelShape, rows: usize, cols: usize) -> Vec<Tile> {
        let a = shape.block_align;
        let thirds = |n: usize| {
            let first = a * (n / 3 / a).max(1);
            (first, (a * (2 * n / 3 / a)).max(first + a))
        };
        let (r1, r2) = thirds(rows);
        let (c1, c2) = if shape.full_rows {
            (0, cols)
        } else {
            thirds(cols)
        };
        let tile = |index, row0, col0, rows, cols| Tile {
            index,
            row0,
            col0,
            rows,
            cols,
        };
        vec![
            tile(0, 0, 0, r1, cols),
            tile(1, r2, 0, rows - r2, cols),
            tile(2, r1, c1, r2 - r1, c2 - c1),
        ]
    }

    #[test]
    fn fused_path_bit_identical_to_two_pass_reference() {
        // Every benchmark on its own fidelity and output grid; a dataset
        // on the block edges and one that is a multiple of neither 8 nor
        // 32 (FFT keeps a power-of-two row); tiles on the first and last
        // row band and off-origin in the interior; generated inputs, a
        // constant input (degenerate range on both sides) and one with
        // NaNs in the tile and in its halo. Exact equality of the bits.
        for bench in crate::ALL_BENCHMARKS {
            // The production kernel for its NPU facts; the generic path
            // under test is `run_via_npu_into` itself, which Histogram's
            // own `run_npu_into` does not use.
            let kernel = bench.kernel();
            let shape = kernel.shape();
            let (fidelity, quant) = (kernel.npu_fidelity(), kernel.npu_output_quant());
            for (rows, cols) in [(96usize, 96usize), (67, 101)] {
                let cols = if bench == Benchmark::Fft {
                    cols.next_power_of_two()
                } else {
                    cols
                };
                let generated = bench.generate_inputs(rows, cols, 11);
                let constant: Vec<Tensor> = generated
                    .iter()
                    .map(|_| Tensor::filled(rows, cols, 7.0))
                    .collect();
                let mut with_nan = bench.generate_inputs(rows, cols, 12);
                for t in &mut with_nan {
                    for (r, c) in [(0, 0), (rows / 2, cols / 2), (rows / 3, cols / 3)] {
                        t[(r, c)] = f32::NAN;
                    }
                }
                for (label, inputs) in [
                    ("generated", &generated),
                    ("constant", &constant),
                    ("with NaN", &with_nan),
                ] {
                    let refs: Vec<&Tensor> = inputs.iter().collect();
                    for tile in probe_tiles(shape, rows, cols) {
                        let (or, oc, dst) = match shape.aggregation {
                            Aggregation::Tile => (rows, cols, tile),
                            Aggregation::Reduce { rows, cols, .. } => {
                                (rows, cols, full(rows, cols))
                            }
                        };
                        let mut fused = shape.allocate_output(or, oc);
                        run_via_npu_into(
                            kernel.as_ref(),
                            &refs,
                            tile,
                            &mut fused.view_mut(dst.row0, dst.col0, dst.rows, dst.cols),
                            fidelity,
                            quant,
                            &mut Stash::default(),
                        );
                        let mut reference = shape.allocate_output(or, oc);
                        two_pass_reference(
                            kernel.as_ref(),
                            &refs,
                            tile,
                            &mut reference,
                            fidelity,
                            quant,
                        );
                        let same = fused
                            .as_slice()
                            .iter()
                            .zip(reference.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                        assert!(
                            same,
                            "{bench} {rows}x{cols} {label} inputs, tile {tile:?}: \
                             output must be bit-identical to the scalar reference"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_sized_destination_gets_the_in_place_tile() {
        // What a claimant relies on: the tile computed into a destination
        // of its own size, prefilled with NaN, with the device buffers
        // built in a stash that already holds pages, is the tile `run_npu`
        // writes in place — for the default path and for a kernel with a
        // path of its own.
        let mut cases: Vec<(Box<dyn Kernel>, Vec<Tensor>)> =
            [Benchmark::Hotspot, Benchmark::Dct8x8, Benchmark::Dwt]
                .map(|b| (b.kernel(), b.generate_inputs(96, 96, 5)))
                .into();
        cases.push((
            Box::new(crate::gemm::Gemm),
            vec![
                shmt_tensor::gen::image8(96, 96, 5),
                shmt_tensor::gen::image8(96, 96, 6),
            ],
        ));
        for (kernel, inputs) in &cases {
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let tile = probe_tiles(kernel.shape(), 96, 96)[2];
            let mut in_place = Tensor::zeros(96, 96);
            kernel.run_npu(&refs, tile, &mut in_place);
            let mut own = Tensor::filled(tile.rows, tile.cols, f32::NAN);
            let mut stash = Stash::with_pages(3, 96 * 96);
            let mut dst = TensorViewMut::over(own.as_mut_slice(), tile);
            kernel.run_npu_into(&refs, tile, &mut dst, &mut stash);
            assert_eq!(
                own,
                in_place
                    .view(tile.row0, tile.col0, tile.rows, tile.cols)
                    .to_tensor(),
                "{}",
                kernel.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "fidelity")]
    fn rejects_sub_unit_fidelity() {
        let bench = Benchmark::Sobel;
        let kernel = bench.kernel();
        let inputs = bench.generate_inputs(16, 16, 1);
        let refs: Vec<_> = inputs.iter().collect();
        let mut out = Tensor::zeros(16, 16);
        run_via_npu_into(
            kernel.as_ref(),
            &refs,
            full(16, 16),
            &mut out.view_mut(0, 0, 16, 16),
            0.5,
            OutputQuant::PerTile,
            &mut Stash::default(),
        );
    }
}
