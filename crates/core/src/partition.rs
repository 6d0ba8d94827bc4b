//! The VOP partitioner (paper §3.4): divides a VOP's data into
//! page-granular partitions, honoring each kernel's alignment rules.
//!
//! Tile-wise and element-wise VOPs are partitioned into square-ish matrix
//! tiles (the paper's default partitions are 1024x1024 tiles); spatial
//! locality matters because each Edge TPU HLOP quantizes over its own
//! partition's value range, so compact tiles isolate wide-distribution
//! regions. Row-wise kernels (FFT) get bands of full rows instead. Every
//! partition holds at least one 4 KB page of `f32` elements whenever the
//! dataset does ("larger than and ... multiples of the main memory page
//! size whenever possible").

use shmt_kernels::KernelShape;
use shmt_tensor::arena::VecPool;
use shmt_tensor::tile::{Tile, MIN_VECTOR_ELEMS};

use crate::error::{Result, ShmtError};
use crate::hlop::Hlop;
use crate::vop::Vop;

/// Pooled tile-list spines: partitioning runs once per request, so its
/// scratch recycles like everything else on the serve path.
static TILES: VecPool<Tile> = VecPool::new();

/// Pooled axis-cut spines for [`axis_cuts_into`].
static STARTS: VecPool<usize> = VecPool::new();

/// Pooled segment lists (start, length) for the grid/band builders.
static CUTS: VecPool<(usize, usize)> = VecPool::new();

/// Splits `vop` into roughly `want` page-granular HLOP partitions.
///
/// The returned vector's spine comes from the runtime arena; callers
/// that are done with it may hand it to [`crate::arena`]'s HLOP pool
/// (the runtime does) or just drop it.
///
/// # Errors
///
/// Returns [`ShmtError::InvalidConfig`] if `want` is zero.
pub fn partition_vop(vop: &Vop, want: usize) -> Result<Vec<Hlop>> {
    if want == 0 {
        return Err(ShmtError::InvalidConfig(
            "partition count must be positive".into(),
        ));
    }
    let (rows, cols) = vop.partition_space();
    let shape = vop.kernel().shape();
    let mut tiles = TILES.take();
    partition_tiles_into(rows, cols, want, &shape, &mut tiles);
    let mut hlops = crate::arena::HLOPS.take();
    hlops.extend(tiles.iter().map(|t| Hlop::new(t.index, vop.opcode(), *t)));
    TILES.put(tiles);
    Ok(hlops)
}

/// Computes the tile partitioning of a `rows x cols` space under a
/// kernel's constraints.
pub fn partition_tiles(rows: usize, cols: usize, want: usize, shape: &KernelShape) -> Vec<Tile> {
    let mut tiles = Vec::new();
    partition_tiles_into(rows, cols, want, shape, &mut tiles);
    tiles
}

/// [`partition_tiles`] into a caller-supplied (typically pooled) vector,
/// which is cleared first.
fn partition_tiles_into(
    rows: usize,
    cols: usize,
    want: usize,
    shape: &KernelShape,
    tiles: &mut Vec<Tile>,
) {
    assert!(
        rows > 0 && cols > 0 && want > 0,
        "degenerate partition request"
    );
    tiles.clear();
    if shape.full_rows {
        band_tiles(rows, cols, want, shape, tiles);
    } else {
        grid_tiles(rows, cols, want, shape, tiles);
    }
}

/// Splits `total` into at most `parts` near-equal segments whose starts
/// are multiples of `align`, appended to `segs` (cleared first). Unlike
/// naive fixed-size tiling, near-equal cuts never leave a sub-page
/// remainder segment at the edge.
fn axis_cuts_into(total: usize, parts: usize, align: usize, segs: &mut Vec<(usize, usize)>) {
    segs.clear();
    let align = align.max(1);
    let parts = parts.clamp(1, total.div_ceil(align));
    let mut starts = STARTS.take();
    starts.extend((0..parts).map(|i| (i * total / parts) / align * align));
    starts.dedup();
    for (i, &start) in starts.iter().enumerate() {
        let end = if i + 1 < starts.len() {
            starts[i + 1]
        } else {
            total
        };
        if end > start {
            segs.push((start, end - start));
        }
    }
    STARTS.put(starts);
}

/// Square-ish matrix tiles: a near-equal grid of roughly `want` tiles,
/// grown until each holds at least one page when the dataset does.
fn grid_tiles(rows: usize, cols: usize, want: usize, shape: &KernelShape, tiles: &mut Vec<Tile>) {
    let align = shape.block_align.max(1);
    let target = ((rows * cols) as f64 / want as f64).sqrt().max(1.0);
    let mut n_r = ((rows as f64 / target).round() as usize).clamp(1, rows);
    let mut n_c = ((cols as f64 / target).round() as usize).clamp(1, cols);
    // Page rule (§3.4): shrink the grid until the *smallest* tile is at
    // least one page, conservatively accounting for alignment rounding.
    let min_tile = |n_r: usize, n_c: usize| {
        (rows / n_r).saturating_sub(align - 1).max(1)
            * (cols / n_c).saturating_sub(align - 1).max(1)
    };
    while n_r * n_c > 1 && min_tile(n_r, n_c) < MIN_VECTOR_ELEMS {
        if n_r >= n_c && n_r > 1 {
            n_r -= 1;
        } else if n_c > 1 {
            n_c -= 1;
        } else {
            n_r -= 1;
        }
    }
    let mut row_cuts = CUTS.take();
    let mut col_cuts = CUTS.take();
    axis_cuts_into(rows, n_r, align, &mut row_cuts);
    axis_cuts_into(cols, n_c, align, &mut col_cuts);
    let mut index = 0;
    for &(row0, h) in row_cuts.iter() {
        for &(col0, w) in col_cuts.iter() {
            tiles.push(Tile {
                index,
                row0,
                col0,
                rows: h,
                cols: w,
            });
            index += 1;
        }
    }
    CUTS.put(row_cuts);
    CUTS.put(col_cuts);
}

/// Bands of full rows for row-wise kernels, band starts aligned to the
/// block edge, each band page-sized when the dataset allows.
fn band_tiles(rows: usize, cols: usize, want: usize, shape: &KernelShape, tiles: &mut Vec<Tile>) {
    let align = shape.block_align.max(1);
    let min_rows_for_page = MIN_VECTOR_ELEMS.div_ceil(cols);
    let n = want.min((rows / min_rows_for_page.max(1)).max(1));
    let mut cuts = CUTS.take();
    axis_cuts_into(rows, n, align, &mut cuts);
    tiles.extend(cuts.iter().enumerate().map(|(index, &(row0, h))| Tile {
        index,
        row0,
        col0: 0,
        rows: h,
        cols,
    }));
    CUTS.put(cuts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vop::Vop;
    use shmt_kernels::Benchmark;

    fn shape_for(b: Benchmark) -> KernelShape {
        b.kernel().shape()
    }

    #[test]
    fn grid_covers_space_without_overlap() {
        let tiles = partition_tiles(1000, 512, 7, &shape_for(Benchmark::Sobel));
        let total: usize = tiles.iter().map(Tile::len).sum();
        assert_eq!(total, 1000 * 512);
        let mut covered = vec![false; 0];
        covered.resize(1000 * 512, false);
        for t in &tiles {
            for r in t.row0..t.row0 + t.rows {
                for c in t.col0..t.col0 + t.cols {
                    assert!(!covered[r * 512 + c]);
                    covered[r * 512 + c] = true;
                }
            }
        }
    }

    #[test]
    fn grid_tiles_are_squareish_and_local() {
        let tiles = partition_tiles(1024, 1024, 16, &shape_for(Benchmark::Sobel));
        // Interior tiles should be near 256x256.
        let t = &tiles[0];
        assert!(t.rows >= 128 && t.rows <= 512, "tile rows {}", t.rows);
        assert!(t.cols >= 128 && t.cols <= 512, "tile cols {}", t.cols);
        assert!(t.cols < 1024, "tiles must not span the full width");
    }

    #[test]
    fn tiles_meet_page_rule_when_dataset_allows() {
        let tiles = partition_tiles(512, 512, 64, &shape_for(Benchmark::Sobel));
        for t in &tiles {
            assert!(t.len() >= MIN_VECTOR_ELEMS, "tile of {} elems", t.len());
        }
    }

    #[test]
    fn blocked_kernels_get_aligned_tiles() {
        let tiles = partition_tiles(256, 256, 5, &shape_for(Benchmark::Dct8x8));
        for t in &tiles {
            assert_eq!(t.row0 % 8, 0, "tile start must align to the DCT block");
            assert_eq!(t.col0 % 8, 0);
        }
        let dwt = partition_tiles(256, 256, 5, &shape_for(Benchmark::Dwt));
        for t in &dwt {
            assert_eq!(t.row0 % 32, 0);
            assert_eq!(t.col0 % 32, 0);
        }
    }

    #[test]
    fn fft_gets_full_row_bands() {
        let tiles = partition_tiles(256, 128, 8, &shape_for(Benchmark::Fft));
        for t in &tiles {
            assert_eq!(t.col0, 0);
            assert_eq!(t.cols, 128);
        }
        let total: usize = tiles.iter().map(Tile::len).sum();
        assert_eq!(total, 256 * 128);
    }

    #[test]
    fn tiny_dataset_is_single_partition() {
        let tiles = partition_tiles(8, 8, 16, &shape_for(Benchmark::Sobel));
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].len(), 64);
    }

    #[test]
    fn partition_vop_validates_and_uses_kernel_shape() {
        let vop =
            Vop::from_benchmark(Benchmark::Fft, Benchmark::Fft.generate_inputs(64, 64, 1)).unwrap();
        let hlops = partition_vop(&vop, 4).unwrap();
        for h in &hlops {
            assert_eq!(h.tile.cols, 64, "FFT partitions must span full rows");
        }
        assert!(partition_vop(&vop, 0).is_err());
    }

    #[test]
    fn indices_are_sequential() {
        let tiles = partition_tiles(300, 300, 6, &shape_for(Benchmark::MeanFilter));
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(t.index, i);
        }
    }

    #[test]
    fn partition_count_is_near_request() {
        let tiles = partition_tiles(2048, 2048, 64, &shape_for(Benchmark::Laplacian));
        assert!(
            tiles.len() >= 32 && tiles.len() <= 128,
            "{} tiles",
            tiles.len()
        );
    }
}
