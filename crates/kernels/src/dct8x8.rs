//! 8x8 block discrete cosine transform (CUDA Examples baseline).
//!
//! The classic JPEG-style DCT-II applied independently to each 8x8 block of
//! the image. Blocks are addressed in *dataset* coordinates, so tiles must
//! start on multiples of 8 ([`KernelShape::block_align`]); blocks that
//! straddle the dataset edge are padded by clamping.
//!
//! Each coefficient is the seed's 64-term sum, added in the seed's order,
//! but the eight coefficients of a block row are computed together on
//! vector lanes (see `transform_block`), so the output is bit for bit the
//! scalar loop's (`reference::dct8x8` keeps that loop as the oracle).

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

const N: usize = 8;

/// Output rows of a block accumulated together: each row's eight lanes form
/// one dependent chain of 64 adds, so several rows in flight keep the adder
/// busy instead of waiting on one chain.
const ROWS_AT_ONCE: usize = 4;

/// 8x8 blockwise 2-D DCT-II with orthonormal scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dct8x8;

/// DCT basis value `c(u) * cos((2x+1) u pi / 16)`.
pub(crate) fn basis(u: usize, x: usize) -> f32 {
    let cu = if u == 0 {
        (1.0f32 / N as f32).sqrt()
    } else {
        (2.0f32 / N as f32).sqrt()
    };
    cu * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / (2.0 * N as f32)).cos()
}

/// The full `basis(u, x)` table, built once per transform so the hot loop
/// never calls `cos`. Entries are the exact values `basis` returns.
fn basis_table() -> [[f32; N]; N] {
    let mut tbl = [[0.0f32; N]; N];
    for (u, row) in tbl.iter_mut().enumerate() {
        for (x, v) in row.iter_mut().enumerate() {
            *v = basis(u, x);
        }
    }
    tbl
}

/// The basis table and its transpose, `tt[y][v] == tbl[v][y]`: a row of
/// the transpose holds one term's factor for all eight output columns.
struct Bases {
    tbl: [[f32; N]; N],
    tt: [[f32; N]; N],
}

impl Bases {
    fn new() -> Self {
        let tbl = basis_table();
        let mut tt = [[0.0f32; N]; N];
        for (y, row) in tt.iter_mut().enumerate() {
            for (v, t) in row.iter_mut().enumerate() {
                *t = tbl[v][y];
            }
        }
        Bases { tbl, tt }
    }
}

/// The part of `[start, start + N)` inside `[lo, hi)`, as offsets from
/// `start`.
fn clip(start: usize, lo: usize, hi: usize) -> std::ops::Range<usize> {
    let a = lo.saturating_sub(start).min(N);
    let b = hi.saturating_sub(start).min(N);
    a..b.max(a)
}

/// Transforms one 8x8 block anchored at `(br, bc)` in dataset coordinates,
/// reading clamped input and writing only coordinates inside `tile`.
///
/// Coefficient `(u, v)` is `sum_x sum_y (blk[x][y] * tbl[u][x]) *
/// tbl[v][y]`, summed from `0.0` with `x` outer and `y` inner. The left
/// factor does not depend on `v`, so the loops run over lanes: for each
/// `(u, x, y)` it is broadcast against row `y` of the transposed table and
/// added into all eight columns of output row `u` at once. Every lane adds
/// its 64 terms in the scalar order (Rust never fuses the multiply and
/// add), so each coefficient is bit for bit the scalar one. Rows and
/// columns outside `tile` are clipped once per block, not per element.
#[inline(never)]
fn transform_block(
    input: &Tensor,
    br: usize,
    bc: usize,
    tile: Tile,
    out: &mut TensorViewMut<'_>,
    bases: &Bases,
) {
    let (rows, cols) = input.shape();
    // Gather the (edge-clamped) block once; the coefficient loops then
    // read a flat stack buffer instead of clamping per term.
    let mut blk = [[0.0f32; N]; N];
    for (x, brow) in blk.iter_mut().enumerate() {
        let sr = (br + x).min(rows - 1);
        let src = input.row(sr);
        for (y, v) in brow.iter_mut().enumerate() {
            *v = src[(bc + y).min(cols - 1)];
        }
    }
    let us = clip(br, tile.row0, (tile.row0 + tile.rows).min(rows));
    let vs = clip(bc, tile.col0, (tile.col0 + tile.cols).min(cols));
    for u0 in (0..N).step_by(ROWS_AT_ONCE) {
        let mut acc = [[0.0f32; N]; ROWS_AT_ONCE];
        for (x, brow) in blk.iter().enumerate() {
            let bu: [f32; ROWS_AT_ONCE] = std::array::from_fn(|k| bases.tbl[u0 + k][x]);
            for (&b, tt) in brow.iter().zip(&bases.tt) {
                for (row, &bu) in acc.iter_mut().zip(&bu) {
                    let t = b * bu;
                    for (a, &bv) in row.iter_mut().zip(tt) {
                        *a += t * bv;
                    }
                }
            }
        }
        for (u, row) in (u0..).zip(&acc) {
            if us.contains(&u) {
                out.span_mut(br + u, bc + vs.start..bc + vs.end)
                    .copy_from_slice(&row[vs.clone()]);
            }
        }
    }
}

impl Kernel for Dct8x8 {
    fn name(&self) -> &'static str {
        "DCT8x8"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::blocked(N)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let bases = Bases::new();
        let br0 = (tile.row0 / N) * N;
        let bc0 = (tile.col0 / N) * N;
        let mut br = br0;
        while br < tile.row0 + tile.rows {
            let mut bc = bc0;
            while bc < tile.col0 + tile.cols {
                transform_block(input, br, bc, tile, out, &bases);
                bc += N;
            }
            br += N;
        }
    }

    fn npu_output_quant(&self) -> crate::npu::OutputQuant {
        // Edge TPU models quantize per channel; for a DCT model each of
        // the 64 coefficient positions is one channel, so the DC term's
        // huge range does not flatten the near-zero AC terms.
        crate::npu::OutputQuant::BlockChannels { edge: N }
    }

    fn npu_native_u8(&self) -> bool {
        true
    }

    fn work_per_element(&self) -> f64 {
        // 64 multiply-adds per output coefficient.
        128.0
    }
}

/// Inverse 8x8 blockwise DCT, provided for round-trip testing and the image
/// pipeline example.
pub fn idct8x8(coeffs: &Tensor) -> Tensor {
    let (rows, cols) = coeffs.shape();
    let tbl = basis_table();
    let mut out = Tensor::zeros(rows, cols);
    let mut br = 0;
    while br < rows {
        let mut bc = 0;
        while bc < cols {
            for x in 0..N.min(rows - br) {
                for y in 0..N.min(cols - bc) {
                    let mut acc = 0.0f32;
                    for u in 0..N.min(rows - br) {
                        let bu = tbl[u][x];
                        for v in 0..N.min(cols - bc) {
                            acc += coeffs[(br + u, bc + v)] * bu * tbl[v][y];
                        }
                    }
                    out[(br + x, bc + y)] = acc;
                }
            }
            bc += N;
        }
        br += N;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_block_concentrates_in_dc() {
        let input = Tensor::filled(8, 8, 10.0);
        let mut out = Tensor::zeros(8, 8);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        Dct8x8.run_exact(&[&input], tile, &mut out);
        // DC coefficient = 8 * mean = 80 with orthonormal scaling.
        assert!((out[(0, 0)] - 80.0).abs() < 1e-3, "dc = {}", out[(0, 0)]);
        for r in 0..8 {
            for c in 0..8 {
                if (r, c) != (0, 0) {
                    assert!(out[(r, c)].abs() < 1e-3, "ac({r},{c}) = {}", out[(r, c)]);
                }
            }
        }
    }

    #[test]
    fn dct_preserves_energy() {
        let input = Tensor::from_fn(8, 8, |r, c| ((r * 13 + c * 7) % 11) as f32 - 5.0);
        let mut out = Tensor::zeros(8, 8);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        Dct8x8.run_exact(&[&input], tile, &mut out);
        let e_in: f32 = input.as_slice().iter().map(|v| v * v).sum();
        let e_out: f32 = out.as_slice().iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-4, "{e_in} vs {e_out}");
    }

    #[test]
    fn idct_round_trips() {
        let input = Tensor::from_fn(16, 16, |r, c| ((r * 5 + c * 3) % 17) as f32);
        let mut coeffs = Tensor::zeros(16, 16);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 16,
            cols: 16,
        };
        Dct8x8.run_exact(&[&input], tile, &mut coeffs);
        let back = idct8x8(&coeffs);
        for (a, b) in input.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn partial_tile_matches_full_run() {
        let input = Tensor::from_fn(16, 16, |r, c| ((r * 31 + c * 17) % 23) as f32);
        let mut full = Tensor::zeros(16, 16);
        Dct8x8.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 16,
                cols: 16,
            },
            &mut full,
        );
        let mut partial = Tensor::zeros(16, 16);
        Dct8x8.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 8,
                col0: 0,
                rows: 8,
                cols: 16,
            },
            &mut partial,
        );
        for r in 8..16 {
            for c in 0..16 {
                assert_eq!(full[(r, c)], partial[(r, c)]);
            }
        }
        for c in 0..16 {
            assert_eq!(partial[(0, c)], 0.0);
        }
    }
}
