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

use shmt_tensor::arena::Stash;
use shmt_tensor::quant::{self, QuantParams, RangeScan};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

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
/// degraded result into `out`.
///
/// `fidelity` coarsens the output grid: `1.0` is pure int8; larger values
/// model an NN whose approximation error exceeds a quantization step.
///
/// # Panics
///
/// Panics if `inputs` does not match the kernel's arity, if the tile is out
/// of bounds, or if `fidelity < 1.0`.
pub fn run_via_npu<K: Kernel + ?Sized>(
    kernel: &K,
    inputs: &[&Tensor],
    tile: Tile,
    out: &mut Tensor,
    fidelity: f32,
) {
    run_via_npu_quant(kernel, inputs, tile, out, fidelity, OutputQuant::PerTile);
}

/// [`run_via_npu`] with an explicit output-grid organization.
///
/// # Panics
///
/// As [`run_via_npu`].
pub fn run_via_npu_quant<K: Kernel + ?Sized>(
    kernel: &K,
    inputs: &[&Tensor],
    tile: Tile,
    out: &mut Tensor,
    fidelity: f32,
    quant: OutputQuant,
) {
    let origin = (tile.row0, tile.col0);
    let stash = &mut Stash::default();
    run_via_npu_at(kernel, inputs, tile, out, origin, fidelity, quant, stash);
}

/// [`run_via_npu_quant`] publishing the tile with its top-left corner at
/// `origin` of `out` instead of at the tile's dataset position, so an
/// executor can collect a tile in a tile-sized buffer. Reduction kernels
/// fold into all of `out` and ignore `origin`. The device buffers — one
/// per input and one for the output, each the size of the tile's
/// [`extended_region`] — are built in `stash` and given back to it.
///
/// # Panics
///
/// As [`run_via_npu`], or if the tile does not fit `out` at `origin`.
#[allow(clippy::too_many_arguments)]
pub fn run_via_npu_at<K: Kernel + ?Sized>(
    kernel: &K,
    inputs: &[&Tensor],
    tile: Tile,
    out: &mut Tensor,
    origin: (usize, usize),
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

    // Run the exact kernel on the snapped local data.
    let local_tile = Tile {
        index: tile.index,
        row0: tile.row0 - ext.row0,
        col0: tile.col0 - ext.col0,
        rows: tile.rows,
        cols: tile.cols,
    };
    match shape.aggregation {
        Aggregation::Tile => {
            let page = stash.take(ext.rows * ext.cols);
            let mut local_out = Tensor::zeros_in(ext.rows, ext.cols, page);
            kernel.run_exact(snapped_refs, local_tile, &mut local_out);
            // Re-quantize the produced tile through the (possibly coarsened)
            // int8 output grid *while publishing* it: each produced value is
            // read once more after the range scan and the snapped result
            // goes straight to its final location.
            match quant {
                OutputQuant::PerTile => {
                    publish_snapped_tile(&local_out, local_tile, out, origin, fidelity);
                }
                OutputQuant::BlockChannels { edge } => {
                    publish_block_channels(&local_out, local_tile, out, origin, fidelity, edge);
                }
                OutputQuant::Subbands { edge } => {
                    publish_subbands(&local_out, local_tile, out, origin, fidelity, edge);
                }
            }
            stash.put(local_out.into_vec());
        }
        Aggregation::Reduce {
            rows: srows,
            cols: scols,
            op,
        } => {
            // Reduction kernels accumulate into the shared buffer; partial
            // buffers fold with the reduction's own operation.
            let mut local_out = shape.allocate_output(srows, scols);
            kernel.run_exact(snapped_refs, local_tile, &mut local_out);
            for r in 0..srows {
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(local_out.row(r)) {
                    *d = op.combine(*d, *s);
                }
            }
        }
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
/// read while computing `tile`; executors use it to hand workers tile-local
/// extracts instead of whole tensors.
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

/// The tile's row `r` in `local`, and where it is published in `out`.
fn publish_rows<'a>(
    local: &'a Tensor,
    local_tile: Tile,
    out: &'a mut Tensor,
    origin: (usize, usize),
    r: usize,
) -> (&'a [f32], &'a mut [f32]) {
    let src = &local.row(local_tile.row0 + r)[local_tile.col0..][..local_tile.cols];
    let dst = &mut out.row_mut(origin.0 + r)[origin.1..][..local_tile.cols];
    (src, dst)
}

/// Snaps the `local_tile` region of `local` to an int8 grid derived from
/// that region's range (step coarsened by `fidelity`) and writes the
/// result into `out` at `origin` in one pass.
fn publish_snapped_tile(
    local: &Tensor,
    local_tile: Tile,
    out: &mut Tensor,
    origin: (usize, usize),
    fidelity: f32,
) {
    let view = local.view(
        local_tile.row0,
        local_tile.col0,
        local_tile.rows,
        local_tile.cols,
    );
    let params = output_grid(Some(view.min_max()), fidelity);
    for r in 0..local_tile.rows {
        let (src, dst) = publish_rows(local, local_tile, out, origin, r);
        params.snap_into(src, dst);
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

/// [`publish_snapped_tile`] with one grid per position within an
/// `edge x edge` block, each derived from that position's range within
/// the tile. Positions come from *local* coordinates, which share the
/// global block phase because the extraction region is block-aligned. A
/// block row's positions are adjacent channels, so ranges and snaps run
/// lane-wise over each block row.
fn publish_block_channels(
    local: &Tensor,
    local_tile: Tile,
    out: &mut Tensor,
    origin: (usize, usize),
    fidelity: f32,
    edge: usize,
) {
    let channels = edge * edge;
    assert!(channels <= MAX_CHANNELS, "too many quantization channels");
    let mut lo = [f32::INFINITY; MAX_CHANNELS];
    let mut hi = [f32::NEG_INFINITY; MAX_CHANNELS];
    for r in 0..local_tile.rows {
        let base = ((local_tile.row0 + r) % edge) * edge;
        let row = &local.row(local_tile.row0 + r)[local_tile.col0..][..local_tile.cols];
        for_each_run(local_tile, edge, 0, |j, len, phase| {
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
    for r in 0..local_tile.rows {
        let base = ((local_tile.row0 + r) % edge) * edge;
        let (src, dst) = publish_rows(local, local_tile, out, origin, r);
        for_each_run(local_tile, edge, 0, |j, len, phase| {
            let ch = base + phase;
            quant::snap_lanes_into(
                &params[ch..ch + len],
                &src[j..j + len],
                &mut dst[j..j + len],
            );
        });
    }
}

/// [`publish_snapped_tile`] with one grid per quadrant subband of an
/// `edge x edge` block: a row crosses two subbands in alternating runs of
/// half a block.
fn publish_subbands(
    local: &Tensor,
    local_tile: Tile,
    out: &mut Tensor,
    origin: (usize, usize),
    fidelity: f32,
    edge: usize,
) {
    let half = edge / 2;
    let band =
        |r: usize, phase: usize| usize::from(r % edge >= half) * 2 + usize::from(phase >= half);
    let mut ranges = [RangeScan::new(); 4];
    for r in 0..local_tile.rows {
        let lr = local_tile.row0 + r;
        let row = &local.row(lr)[local_tile.col0..][..local_tile.cols];
        for_each_run(local_tile, edge, half, |j, len, phase| {
            ranges[band(lr, phase)].scan(&row[j..j + len]);
        });
    }
    let params = ranges.map(|range| output_grid(range.finish(), fidelity));
    for r in 0..local_tile.rows {
        let lr = local_tile.row0 + r;
        let (src, dst) = publish_rows(local, local_tile, out, origin, r);
        for_each_run(local_tile, edge, half, |j, len, phase| {
            params[band(lr, phase)].snap_into(&src[j..j + len], &mut dst[j..j + len]);
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
            // under test is `run_via_npu_quant` itself, which Histogram's
            // own `run_npu` does not use.
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
                        let (or, oc) = match shape.aggregation {
                            Aggregation::Tile => (rows, cols),
                            Aggregation::Reduce { rows, cols, .. } => (rows, cols),
                        };
                        let mut fused = shape.allocate_output(or, oc);
                        run_via_npu_quant(
                            kernel.as_ref(),
                            &refs,
                            tile,
                            &mut fused,
                            fidelity,
                            quant,
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
    fn publishing_at_an_origin_moves_the_tile_and_nothing_else() {
        // What the pool executor relies on: the tile published into a
        // tile-sized buffer, with the device buffers built in a stash that
        // already holds pages, is the tile `run_npu` writes in place —
        // for the default path and for a kernel with a path of its own.
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
            let mut moved = Tensor::filled(tile.rows + 1, tile.cols + 1, -7.0);
            let mut stash = Stash::with_pages(3, 96 * 96);
            kernel.run_npu_at(&refs, tile, &mut moved, (1, 1), &mut stash);
            assert_eq!(
                moved.view(1, 1, tile.rows, tile.cols).to_tensor(),
                in_place
                    .view(tile.row0, tile.col0, tile.rows, tile.cols)
                    .to_tensor(),
                "{}",
                kernel.name()
            );
            assert!(
                moved.row(0).iter().all(|&v| v == -7.0)
                    && (0..moved.rows()).all(|r| moved.row(r)[0] == -7.0),
                "{}: wrote outside the tile",
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
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 16,
            cols: 16,
        };
        run_via_npu(kernel.as_ref(), &refs, tile, &mut out, 0.5);
    }
}
