//! Row-wise fast Fourier transform magnitude (CUDA Examples baseline).
//!
//! Each dataset row is one real signal; the kernel emits the magnitude
//! spectrum of its DFT. Rows are independent, so HLOP partitions are bands
//! of full rows ([`KernelShape::full_rows`]). Power-of-two rows use an
//! iterative radix-2 FFT; other lengths fall back to a naive DFT (only used
//! by small tests).
//!
//! The radix-2 path is the textbook scalar loop — a bit-reversal swap pass,
//! then each stage's butterfly groups with the twiddle `(cr, ci)` advanced
//! by one complex multiply per butterfly — rearranged so the butterflies
//! run on vector lanes with every value bit for bit unchanged
//! (`reference::row_fft` keeps the scalar loop as the oracle):
//!
//! * the twiddle restarts at `(1, 0)` in every group and follows the same
//!   recurrence, so its values depend only on the stage and the position
//!   in the group; they are computed by the same f32 operations into a
//!   table, once per row length for the life of the process;
//! * the rows of a band are independent, so `LANES` (eight) of them are
//!   transformed together, one row per vector lane: the complex scratch is
//!   interleaved `[n][LANES]` (element `i` of every row side by side, real
//!   and imaginary parts in two such arrays), every butterfly is one lane
//!   operation with its twiddle broadcast from the table, and each lane
//!   runs exactly the scalar sequence of f32 operations of its row;
//! * a band whose height is not a multiple of `LANES` fills the spare
//!   lanes with copies of its last row and discards their results, so
//!   every band height and every length takes the one path;
//! * the imaginary part is all zero before the permutation, so swapping it
//!   does nothing: each row is instead loaded into its lane through a
//!   bit-reversed gather, and the magnitudes are written back per row.

use std::mem::MaybeUninit;
use std::sync::{Mutex, PoisonError};

use shmt_tensor::arena;
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// Row-wise FFT magnitude kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowFft;

/// Rows transformed together, one per vector lane. Of 4, 8 and 16, eight
/// measured fastest: level with 4 on 1024-point bands, ahead of it on
/// 256-point ones, and ahead of 16 on both.
const LANES: usize = 8;

/// One element position across the [`LANES`] rows of a group.
type Lane = [f32; LANES];

/// Longest row whose lane scratch (`2 n LANES` floats) lives on the stack,
/// so a warm call allocates nothing whichever thread runs it; longer rows
/// take an arena page. Either way the scratch starts unwritten: every
/// group of rows writes all of it before the butterflies read it.
const STACK_LEN: usize = 2048;

/// The tables of the radix-2 path for one row length `n`.
struct Plan {
    /// `rev[i]` is the input element that lands at position `i`: `i` with
    /// its `log2 n` bits reversed.
    rev: Box<[usize]>,
    /// Every stage's twiddles (`n - 1` each): stage `len` (2, 4, .., n)
    /// occupies `[len/2 - 1, len - 1)`, entry `k` of it the `k`-th value of
    /// the recurrence the scalar butterfly loop runs.
    cr: Box<[f32]>,
    ci: Box<[f32]>,
}

impl Plan {
    fn new(n: usize) -> Self {
        let shift = usize::BITS - n.trailing_zeros();
        let rev = (0..n).map(|i| i.reverse_bits() >> shift).collect();
        let (mut cr, mut ci) = (vec![0.0f32; n - 1], vec![0.0f32; n - 1]);
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (wr, wi) = (ang.cos() as f32, ang.sin() as f32);
            let (mut c, mut s) = (1.0f32, 0.0f32);
            let stage = len / 2 - 1..len - 1;
            for (tr, ti) in cr[stage.clone()].iter_mut().zip(&mut ci[stage]) {
                (*tr, *ti) = (c, s);
                let nc = c * wr - s * wi;
                s = c * wi + s * wr;
                c = nc;
            }
            len <<= 1;
        }
        Plan {
            rev,
            cr: cr.into(),
            ci: ci.into(),
        }
    }

    /// The plan for power-of-two length `n`, built on first use and kept
    /// for the life of the process (one per length: at most one per bit of
    /// `usize`).
    fn get(n: usize) -> &'static Plan {
        static PLANS: Mutex<Vec<&'static Plan>> = Mutex::new(Vec::new());
        let mut plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = plans.iter().find(|p| p.rev.len() == n) {
            return plan;
        }
        let plan: &'static Plan = Box::leak(Box::new(Plan::new(n)));
        plans.push(plan);
        plan
    }
}

/// `buf` as the floats written into it.
///
/// # Safety
///
/// Every element of `buf` must have been written.
unsafe fn written(buf: &mut [MaybeUninit<f32>]) -> &mut [f32] {
    // SAFETY: `MaybeUninit<f32>` has the layout of `f32`, and the caller
    // vouches that every element holds a value.
    unsafe { &mut *(buf as *mut [MaybeUninit<f32>] as *mut [f32]) }
}

/// A lane-interleaved scratch array as its [`Lane`]s.
fn lanes(x: &mut [f32]) -> impl Iterator<Item = &mut Lane> {
    x.chunks_exact_mut(LANES)
        .map(|l| l.try_into().expect("LANES-wide chunk"))
}

/// Every radix-2 stage over [`LANES`] bit-reversed complex rows,
/// interleaved `[n][LANES]`: each butterfly runs on every lane, its
/// twiddle from the [`Plan`] table broadcast across them.
#[inline(never)]
fn lane_stages(re: &mut [f32], im: &mut [f32], cr: &[f32], ci: &[f32]) {
    let n = re.len() / LANES;
    let mut half = 1;
    while half < n {
        let stage = half - 1..2 * half - 1;
        let (wr, wi) = (&cr[stage.clone()], &ci[stage]);
        let group = 2 * half * LANES;
        for (gre, gim) in re.chunks_exact_mut(group).zip(im.chunks_exact_mut(group)) {
            let (are, bre) = gre.split_at_mut(half * LANES);
            let (aim, bim) = gim.split_at_mut(half * LANES);
            for (((((ar, br), ai), bi), &c), &s) in lanes(are)
                .zip(lanes(bre))
                .zip(lanes(aim))
                .zip(lanes(bim))
                .zip(wr)
                .zip(wi)
            {
                for l in 0..LANES {
                    let (ur, ui) = (ar[l], ai[l]);
                    let vr = br[l] * c - bi[l] * s;
                    let vi = br[l] * s + bi[l] * c;
                    ar[l] = ur + vr;
                    ai[l] = ui + vi;
                    br[l] = ur - vr;
                    bi[l] = ui - vi;
                }
            }
        }
        half <<= 1;
    }
}

/// Writes the DFT magnitude of `signal` into `out` by the naive sum.
pub(crate) fn dft_magnitude(signal: &[f32], out: &mut [f32]) {
    let n = signal.len();
    for (k, o) in out.iter_mut().enumerate() {
        let mut re = 0.0f64;
        let mut im = 0.0f64;
        for (t, &x) in signal.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            re += x as f64 * ang.cos();
            im += x as f64 * ang.sin();
        }
        *o = ((re * re + im * im).sqrt()) as f32;
    }
}

impl Kernel for RowFft {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn shape(&self) -> KernelShape {
        KernelShape {
            full_rows: true,
            ..KernelShape::elementwise()
        }
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        assert_eq!(tile.col0, 0, "FFT partitions must span full rows");
        assert_eq!(
            tile.cols,
            input.cols(),
            "FFT partitions must span full rows"
        );
        let n = input.cols();
        let rows = tile.row0..tile.row0 + tile.rows;
        if !(n.is_power_of_two() && n >= 2) {
            for r in rows {
                dft_magnitude(input.row(r), out.span_mut(r, 0..n));
            }
            return;
        }
        if rows.is_empty() {
            return;
        }
        let plan = Plan::get(n);
        // One lane-interleaved complex scratch, reused across every group
        // of `LANES` rows of the tile, never filled: each group writes it
        // whole before reading it.
        let mut stack = [MaybeUninit::<f32>::uninit(); 2 * LANES * STACK_LEN];
        let mut page = Vec::new();
        let buf = if n <= STACK_LEN {
            &mut stack[..2 * LANES * n]
        } else {
            page = arena::take_f32(2 * LANES * n);
            &mut page.spare_capacity_mut()[..2 * LANES * n]
        };
        let (re, im) = buf.split_at_mut(LANES * n);
        let last = rows.end - 1;
        for r0 in rows.step_by(LANES) {
            // Spare lanes past the band repeat its last row.
            let src: [&[f32]; LANES] = std::array::from_fn(|l| input.row((r0 + l).min(last)));
            for (v, &j) in re.chunks_exact_mut(LANES).zip(&*plan.rev) {
                for (v, s) in v.iter_mut().zip(&src) {
                    v.write(s[j]);
                }
            }
            im.fill(MaybeUninit::new(0.0));
            // SAFETY: the gather wrote every element of `re` (`rev` has
            // `n` entries, one per lane group) and the fill every element
            // of `im`.
            let (re, im) = unsafe { (written(re), written(im)) };
            lane_stages(re, im, &plan.cr, &plan.ci);
            for (vr, vi) in lanes(re).zip(lanes(im)) {
                for (r, &i) in vr.iter_mut().zip(&*vi) {
                    *r = (*r * *r + i * i).sqrt();
                }
            }
            // Back to the band's rows; the spare lanes' results are dropped.
            for (l, r) in (r0..=last.min(r0 + LANES - 1)).enumerate() {
                let dst = out.span_mut(r, 0..n);
                for (d, m) in dst.iter_mut().zip(re.iter().skip(l).step_by(LANES)) {
                    *d = *m;
                }
            }
        }
        arena::put_f32(page);
    }

    fn npu_fidelity(&self) -> f32 {
        // Spectra have huge dynamic range; the int8 NN model captures the
        // dominant bins but loses the floor (paper Fig 7: ~12% MAPE).
        2.0
    }

    fn work_per_element(&self) -> f64 {
        // ~5 log2(n) flops per element; parameterized at the paper's 8K.
        65.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's magnitude spectrum of one signal.
    fn magnitude(signal: &[f32]) -> Vec<f32> {
        let n = signal.len();
        let input = Tensor::from_vec(1, n, signal.to_vec()).unwrap();
        let mut out = Tensor::zeros(1, n);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 1,
            cols: n,
        };
        RowFft.run_exact(&[&input], tile, &mut out);
        out.into_vec()
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0f32; 16];
        signal[0] = 1.0;
        let mag = magnitude(&signal);
        for m in mag {
            assert!((m - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn pure_tone_concentrates_energy() {
        let n = 64;
        let signal: Vec<f32> = (0..n)
            .map(|t| (2.0 * std::f32::consts::PI * 4.0 * t as f32 / n as f32).cos())
            .collect();
        let mag = magnitude(&signal);
        assert!((mag[4] - n as f32 / 2.0).abs() < 1e-2, "bin4 = {}", mag[4]);
        assert!(mag[5] < 1e-2);
    }

    #[test]
    fn radix2_matches_naive_dft() {
        let signal: Vec<f32> = (0..32).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let fast = magnitude(&signal);
        let mut slow = vec![0.0; 32];
        dft_magnitude(&signal, &mut slow);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn non_power_of_two_falls_back() {
        let signal = vec![1.0f32; 12];
        let mag = magnitude(&signal);
        assert!((mag[0] - 12.0).abs() < 1e-3);
        assert!(mag[1].abs() < 1e-3);
    }

    #[test]
    fn kernel_writes_only_tile_rows() {
        let input = Tensor::from_fn(4, 8, |r, c| (r * 8 + c) as f32);
        let mut out = Tensor::zeros(4, 8);
        let tile = Tile {
            index: 0,
            row0: 1,
            col0: 0,
            rows: 2,
            cols: 8,
        };
        RowFft.run_exact(&[&input], tile, &mut out);
        assert!(out.row(0).iter().all(|&v| v == 0.0));
        assert!(out.row(1).iter().any(|&v| v != 0.0));
        assert!(out.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "full rows")]
    fn kernel_rejects_partial_rows() {
        let input = Tensor::zeros(4, 8);
        let mut out = Tensor::zeros(4, 8);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 2,
            cols: 4,
        };
        RowFft.run_exact(&[&input], tile, &mut out);
    }
}
