//! Blocked one-level CDF 9/7 discrete wavelet transform (the FDWT97 VOP).
//!
//! The Rodinia DWT baseline computes the Cohen–Daubechies–Feauveau 9/7
//! transform used by JPEG 2000. Here it is applied per 32x32 block (JPEG
//! 2000 "tiles"), which makes blocks independent and lets SHMT partition
//! the dataset without inter-partition dependencies; tiles must align to
//! the 32-element block edge.

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// Block edge of the transform.
pub const BLOCK: usize = 32;

const ALPHA: f32 = -1.586_134_3;
const BETA: f32 = -0.052_980_118;
const GAMMA: f32 = 0.882_911_1;
const DELTA: f32 = 0.443_506_85;
const ZETA: f32 = 1.149_604_4;

/// Blocked CDF 9/7 forward transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dwt97 {
    _private: (),
}

fn mirror(i: isize, n: isize) -> usize {
    // Symmetric (whole-sample) extension: -1 -> 1, n -> n-2.
    let mut i = i;
    if i < 0 {
        i = -i;
    }
    if i >= n {
        i = 2 * n - 2 - i;
    }
    i.clamp(0, n - 1) as usize
}

/// One level of the 9/7 lifting scheme in place, then deinterleaved so the
/// approximation (low-pass) coefficients occupy the first half.
///
/// Works for any length >= 2; length-1 signals pass through unchanged.
pub fn forward_lift97(x: &mut [f32]) {
    let mut scratch = vec![0.0f32; x.len()];
    forward_lift97_with(x, &mut scratch);
}

/// [`forward_lift97`] writing its deinterleave pass through a caller-owned
/// scratch buffer (`scratch.len() >= x.len()`), so the blocked transform
/// does not allocate per row and column.
fn forward_lift97_with(x: &mut [f32], scratch: &mut [f32]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let ni = n as isize;
    let lift = |x: &mut [f32], first: usize, coef: f32| {
        for i in (first..n).step_by(2) {
            let l = x[mirror(i as isize - 1, ni)];
            let r = x[mirror(i as isize + 1, ni)];
            x[i] += coef * (l + r);
        }
    };
    lift(x, 1, ALPHA);
    lift(x, 0, BETA);
    lift(x, 1, GAMMA);
    lift(x, 0, DELTA);
    for (i, v) in x.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v *= ZETA;
        } else {
            *v /= ZETA;
        }
    }
    // Deinterleave: evens (approx) first, odds (detail) second.
    let scratch = &mut scratch[..n];
    scratch.copy_from_slice(x);
    let half = n.div_ceil(2);
    for (v, s) in x[..half].iter_mut().zip(scratch.iter().step_by(2)) {
        *v = *s;
    }
    for (v, s) in x[half..].iter_mut().zip(scratch.iter().skip(1).step_by(2)) {
        *v = *s;
    }
}

/// Inverse of [`forward_lift97`], for round-trip verification.
pub fn inverse_lift97(x: &mut [f32]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let ni = n as isize;
    // Re-interleave.
    let half = n.div_ceil(2);
    let approx = x[..half].to_vec();
    let detail = x[half..].to_vec();
    for (i, v) in approx.iter().enumerate() {
        x[2 * i] = *v;
    }
    for (i, v) in detail.iter().enumerate() {
        x[2 * i + 1] = *v;
    }
    for (i, v) in x.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v /= ZETA;
        } else {
            *v *= ZETA;
        }
    }
    let unlift = |x: &mut [f32], first: usize, coef: f32| {
        for i in (first..n).step_by(2) {
            let l = x[mirror(i as isize - 1, ni)];
            let r = x[mirror(i as isize + 1, ni)];
            x[i] -= coef * (l + r);
        }
    };
    unlift(x, 0, DELTA);
    unlift(x, 1, GAMMA);
    unlift(x, 0, BETA);
    unlift(x, 1, ALPHA);
}

/// Reusable buffers for [`transform_block`], sized for one `BLOCK x BLOCK`
/// block so a whole-tile run performs no per-block allocations.
struct Scratch {
    block: Vec<f32>,
    col: Vec<f32>,
    lift: Vec<f32>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            block: vec![0.0; BLOCK * BLOCK],
            col: vec![0.0; BLOCK],
            lift: vec![0.0; BLOCK],
        }
    }
}

/// Transforms one block anchored at `(br, bc)`, writing coordinates inside
/// `tile` only.
fn transform_block(
    input: &Tensor,
    br: usize,
    bc: usize,
    tile: Tile,
    out: &mut TensorViewMut<'_>,
    s: &mut Scratch,
) {
    let (rows, cols) = input.shape();
    let brows = BLOCK.min(rows - br);
    let bcols = BLOCK.min(cols - bc);
    // Copy the block into a flat row-major buffer, lifting each row as it
    // lands; then run the column pass through the strided gather buffer.
    let block = &mut s.block[..brows * bcols];
    for (r, chunk) in block.chunks_exact_mut(bcols).enumerate() {
        chunk.copy_from_slice(&input.row(br + r)[bc..bc + bcols]);
        forward_lift97_with(chunk, &mut s.lift);
    }
    let col_buf = &mut s.col[..brows];
    for c in 0..bcols {
        for (buf, chunk) in col_buf.iter_mut().zip(block.chunks_exact(bcols)) {
            *buf = chunk[c];
        }
        forward_lift97_with(col_buf, &mut s.lift);
        for (buf, chunk) in col_buf.iter().zip(block.chunks_exact_mut(bcols)) {
            chunk[c] = *buf;
        }
    }
    // Publish the rows that intersect the tile with slice copies.
    let lo = tile.col0.max(bc);
    let hi = (tile.col0 + tile.cols).min(bc + bcols);
    if lo >= hi {
        return;
    }
    for (r, chunk) in block.chunks_exact(bcols).enumerate() {
        let or = br + r;
        if or < tile.row0 || or >= tile.row0 + tile.rows {
            continue;
        }
        out.span_mut(or, lo..hi)
            .copy_from_slice(&chunk[lo - bc..hi - bc]);
    }
}

impl Kernel for Dwt97 {
    fn name(&self) -> &'static str {
        "DWT"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::blocked(BLOCK)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let mut scratch = Scratch::new();
        let br0 = (tile.row0 / BLOCK) * BLOCK;
        let bc0 = (tile.col0 / BLOCK) * BLOCK;
        let mut br = br0;
        while br < tile.row0 + tile.rows {
            let mut bc = bc0;
            while bc < tile.col0 + tile.cols {
                transform_block(input, br, bc, tile, out, &mut scratch);
                bc += BLOCK;
            }
            br += BLOCK;
        }
    }

    fn npu_output_quant(&self) -> crate::npu::OutputQuant {
        // Per-subband quantization: the LL approximation band and the
        // detail bands have very different dynamic ranges (JPEG 2000
        // treats them separately for the same reason).
        crate::npu::OutputQuant::Subbands { edge: BLOCK }
    }

    fn npu_native_u8(&self) -> bool {
        true
    }

    fn work_per_element(&self) -> f64 {
        // Four lifting passes in each direction plus scaling.
        18.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_round_trips() {
        let orig: Vec<f32> = (0..32).map(|i| ((i * 7 + 3) % 13) as f32 - 6.0).collect();
        let mut x = orig.clone();
        forward_lift97(&mut x);
        inverse_lift97(&mut x);
        for (a, b) in orig.iter().zip(&x) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn lift_round_trips_odd_length() {
        let orig: Vec<f32> = (0..15).map(|i| (i as f32).sin()).collect();
        let mut x = orig.clone();
        forward_lift97(&mut x);
        inverse_lift97(&mut x);
        for (a, b) in orig.iter().zip(&x) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_signal_has_no_detail() {
        let mut x = vec![5.0f32; 32];
        forward_lift97(&mut x);
        for &d in &x[16..] {
            assert!(d.abs() < 1e-4, "detail = {d}");
        }
        // The 9/7 low-pass DC gain is sqrt(2).
        for &a in &x[..16] {
            assert!(
                (a - 5.0 * std::f32::consts::SQRT_2).abs() < 1e-3,
                "approx = {a}"
            );
        }
    }

    #[test]
    fn tile_split_matches_full_run() {
        let input = Tensor::from_fn(64, 64, |r, c| ((r * 3 + c * 5) % 29) as f32);
        let full_tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 64,
            cols: 64,
        };
        let mut full = Tensor::zeros(64, 64);
        Dwt97::default().run_exact(&[&input], full_tile, &mut full);

        let mut split = Tensor::zeros(64, 64);
        for (i, r0) in [0usize, 32].iter().enumerate() {
            let t = Tile {
                index: i,
                row0: *r0,
                col0: 0,
                rows: 32,
                cols: 64,
            };
            Dwt97::default().run_exact(&[&input], t, &mut split);
        }
        assert_eq!(full.as_slice(), split.as_slice());
    }

    #[test]
    fn length_one_signal_passes_through() {
        let mut x = vec![3.0f32];
        forward_lift97(&mut x);
        assert_eq!(x, vec![3.0]);
    }
}
