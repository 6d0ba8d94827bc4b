//! Naive reference implementations of every benchmark kernel.
//!
//! The optimized kernels split tiles into an interior fast path and a
//! clamped halo, block loops for cache, hoist or memoise invariants and
//! run the dense transforms on vector lanes — all under
//! the contract that outputs stay **bit-identical** to the original
//! straight-line loops. This module keeps those original loops alive as
//! golden references: [`Naive`] wraps a production kernel and swaps in the
//! naive `run_exact_into` while delegating every other trait method (shape,
//! fidelity, native-u8 flag, NPU wiring, work estimate) to the wrapped
//! kernel, so the NPU path also exercises the naive exact core.
//!
//! The `tests/golden.rs` suite asserts exact `as_slice()` equality between
//! each production kernel and its reference on both the exact and NPU
//! paths.

use shmt_tensor::arena::Stash;
use shmt_tensor::quant::QuantParams;
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::blackscholes::{cnd, Blackscholes};
use crate::conv::Conv2d;
use crate::dct8x8::{basis, Dct8x8};
use crate::dwt::{forward_lift97, Dwt97, BLOCK};
use crate::fft::{dft_magnitude, RowFft};
use crate::gemm::Gemm;
use crate::histogram::{Histogram256, BINS};
use crate::hotspot::Hotspot;
use crate::laplacian::Laplacian;
use crate::mean_filter::MeanFilter;
use crate::npu::OutputQuant;
use crate::sobel::Sobel;
use crate::srad::Srad;
use crate::{Benchmark, Kernel, KernelShape};

/// The signature of a naive kernel core: same arguments as
/// [`Kernel::run_exact_into`], with the wrapped kernel passed explicitly.
type NaiveRun<K> = fn(&K, &[&Tensor], Tile, &mut TensorViewMut<'_>);

/// A reference kernel: the production kernel `K` with its `run_exact_into`
/// replaced by the original naive loop (and, where the production kernel
/// customizes `run_npu_into`, an equivalent override that routes through
/// the naive exact core).
#[derive(Debug)]
pub struct Naive<K: Kernel> {
    inner: K,
    run: NaiveRun<K>,
    /// Fully custom NPU path (Histogram's per-HLOP snap, GEMM's global
    /// operand quantization) — mirrors the production override but calls
    /// the naive exact core.
    custom_npu: Option<NaiveRun<Naive<K>>>,
}

impl<K: Kernel> Kernel for Naive<K> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn shape(&self) -> KernelShape {
        self.inner.shape()
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        (self.run)(&self.inner, inputs, tile, out)
    }

    fn run_npu_into(
        &self,
        inputs: &[&Tensor],
        tile: Tile,
        out: &mut TensorViewMut<'_>,
        stash: &mut Stash,
    ) {
        match self.custom_npu {
            Some(f) => f(self, inputs, tile, out),
            None => crate::npu::run_via_npu_into(
                self,
                inputs,
                tile,
                out,
                self.npu_fidelity(),
                self.npu_output_quant(),
                stash,
            ),
        }
    }

    fn npu_output_quant(&self) -> OutputQuant {
        self.inner.npu_output_quant()
    }

    fn npu_fidelity(&self) -> f32 {
        self.inner.npu_fidelity()
    }

    fn npu_native_u8(&self) -> bool {
        self.inner.npu_native_u8()
    }

    fn finalize(&self, out: &mut Tensor) {
        self.inner.finalize(out);
    }

    fn work_per_element(&self) -> f64 {
        self.inner.work_per_element()
    }
}

/// The naive reference for a benchmark, mirroring [`Benchmark::kernel`].
pub fn naive_kernel(benchmark: Benchmark) -> Box<dyn Kernel> {
    match benchmark {
        Benchmark::Blackscholes => Box::new(blackscholes(Blackscholes::default())),
        Benchmark::Dct8x8 => Box::new(dct8x8()),
        Benchmark::Dwt => Box::new(dwt97()),
        Benchmark::Fft => Box::new(row_fft()),
        Benchmark::Histogram => Box::new(histogram256()),
        Benchmark::Hotspot => Box::new(hotspot(Hotspot::default())),
        Benchmark::Laplacian => Box::new(laplacian()),
        Benchmark::MeanFilter => Box::new(mean_filter()),
        Benchmark::Sobel => Box::new(sobel()),
        Benchmark::Srad => Box::new(srad(Srad::default())),
    }
}

/// Clamped read used by every naive stencil loop.
fn clamped(input: &Tensor, r: isize, c: isize) -> f32 {
    let (rows, cols) = input.shape();
    let r = r.clamp(0, rows as isize - 1) as usize;
    let c = c.clamp(0, cols as isize - 1) as usize;
    input[(r, c)]
}

/// Naive 3x3 mean filter reference.
pub fn mean_filter() -> Naive<MeanFilter> {
    fn run(_: &MeanFilter, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        for r in tile.row0..tile.row0 + tile.rows {
            for c in tile.col0..tile.col0 + tile.cols {
                let (ri, ci) = (r as isize, c as isize);
                let mut acc = 0.0f32;
                for dr in -1..=1 {
                    for dc in -1..=1 {
                        acc += clamped(input, ri + dr, ci + dc);
                    }
                }
                out[(r, c)] = acc / 9.0;
            }
        }
    }
    Naive {
        inner: MeanFilter,
        run,
        custom_npu: None,
    }
}

/// Naive Sobel gradient-magnitude reference.
pub fn sobel() -> Naive<Sobel> {
    fn run(_: &Sobel, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let at = |r, c| clamped(input, r, c);
        for r in tile.row0..tile.row0 + tile.rows {
            for c in tile.col0..tile.col0 + tile.cols {
                let (ri, ci) = (r as isize, c as isize);
                let gx = at(ri - 1, ci + 1) + 2.0 * at(ri, ci + 1) + at(ri + 1, ci + 1)
                    - at(ri - 1, ci - 1)
                    - 2.0 * at(ri, ci - 1)
                    - at(ri + 1, ci - 1);
                let gy = at(ri + 1, ci - 1) + 2.0 * at(ri + 1, ci) + at(ri + 1, ci + 1)
                    - at(ri - 1, ci - 1)
                    - 2.0 * at(ri - 1, ci)
                    - at(ri - 1, ci + 1);
                out[(r, c)] = (gx * gx + gy * gy).sqrt();
            }
        }
    }
    Naive {
        inner: Sobel,
        run,
        custom_npu: None,
    }
}

/// Naive 3x3 Laplacian reference.
pub fn laplacian() -> Naive<Laplacian> {
    fn run(_: &Laplacian, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let at = |r, c| clamped(input, r, c);
        for r in tile.row0..tile.row0 + tile.rows {
            for c in tile.col0..tile.col0 + tile.cols {
                let (ri, ci) = (r as isize, c as isize);
                out[(r, c)] = at(ri - 1, ci) + at(ri + 1, ci) + at(ri, ci - 1) + at(ri, ci + 1)
                    - 4.0 * input[(r, c)];
            }
        }
    }
    Naive {
        inner: Laplacian,
        run,
        custom_npu: None,
    }
}

/// Naive Hotspot time-step reference.
pub fn hotspot(k: Hotspot) -> Naive<Hotspot> {
    fn run(k: &Hotspot, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let temp = inputs[0];
        let power = inputs[1];
        assert_eq!(
            temp.shape(),
            power.shape(),
            "temperature and power grids must match"
        );
        let at = |r, c| clamped(temp, r, c);
        for r in tile.row0..tile.row0 + tile.rows {
            for c in tile.col0..tile.col0 + tile.cols {
                let (ri, ci) = (r as isize, c as isize);
                let t = temp[(r, c)];
                let delta = power[(r, c)]
                    + (at(ri - 1, ci) + at(ri + 1, ci) - 2.0 * t) / k.ry
                    + (at(ri, ci - 1) + at(ri, ci + 1) - 2.0 * t) / k.rx
                    + (k.ambient - t) / k.rz;
                out[(r, c)] = t + k.step * delta;
            }
        }
    }
    Naive {
        inner: k,
        run,
        custom_npu: None,
    }
}

/// Naive SRAD diffusion coefficient from the clamped 4-neighborhood.
fn srad_coefficient(k: &Srad, input: &Tensor, r: isize, c: isize) -> f32 {
    let j = clamped(input, r, c).max(1e-6);
    let dn = clamped(input, r - 1, c) - j;
    let ds = clamped(input, r + 1, c) - j;
    let dw = clamped(input, r, c - 1) - j;
    let de = clamped(input, r, c + 1) - j;
    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (j * j);
    let l = (dn + ds + dw + de) / j;
    let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
    let den = (1.0 + 0.25 * l) * (1.0 + 0.25 * l);
    let q2 = (num / den.max(1e-6)).max(0.0);
    let q02 = k.q0 * k.q0;
    let c = 1.0 / (1.0 + (q2 - q02) / (q02 * (1.0 + q02)));
    c.clamp(0.0, 1.0)
}

/// Naive SRAD iteration reference.
pub fn srad(k: Srad) -> Naive<Srad> {
    fn run(k: &Srad, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let at = |r, c| clamped(input, r, c);
        for r in tile.row0..tile.row0 + tile.rows {
            for c in tile.col0..tile.col0 + tile.cols {
                let (ri, ci) = (r as isize, c as isize);
                let j = input[(r, c)];
                let cc = srad_coefficient(k, input, ri, ci);
                let cs = srad_coefficient(k, input, ri + 1, ci);
                let ce = srad_coefficient(k, input, ri, ci + 1);
                let d = cc * (at(ri - 1, ci) - j)
                    + cs * (at(ri + 1, ci) - j)
                    + cc * (at(ri, ci - 1) - j)
                    + ce * (at(ri, ci + 1) - j);
                out[(r, c)] = j + 0.25 * k.lambda * d;
            }
        }
    }
    Naive {
        inner: k,
        run,
        custom_npu: None,
    }
}

/// Naive same-size convolution reference (clamped boundaries).
pub fn conv2d(k: Conv2d) -> Naive<Conv2d> {
    fn run(k: &Conv2d, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let (rows, cols) = input.shape();
        let filter = k.filter();
        let (fr, fc) = filter.shape();
        let (hr, hc) = ((fr / 2) as isize, (fc / 2) as isize);
        for r in tile.row0..tile.row0 + tile.rows {
            for c in tile.col0..tile.col0 + tile.cols {
                let mut acc = 0.0f32;
                for i in 0..fr {
                    for j in 0..fc {
                        let rr =
                            (r as isize + i as isize - hr).clamp(0, rows as isize - 1) as usize;
                        let cc =
                            (c as isize + j as isize - hc).clamp(0, cols as isize - 1) as usize;
                        acc += input[(rr, cc)] * filter[(i, j)];
                    }
                }
                out[(r, c)] = acc;
            }
        }
    }
    Naive {
        inner: k,
        run,
        custom_npu: None,
    }
}

const N8: usize = 8;

/// Naive 8x8 DCT reference: per-coefficient basis evaluation with clamped
/// per-term reads, exactly as the seed implementation.
pub fn dct8x8() -> Naive<Dct8x8> {
    fn block(input: &Tensor, br: usize, bc: usize, tile: Tile, out: &mut TensorViewMut<'_>) {
        let (rows, cols) = input.shape();
        let read = |r: usize, c: usize| -> f32 { input[(r.min(rows - 1), c.min(cols - 1))] };
        for u in 0..N8 {
            let or = br + u;
            if or < tile.row0 || or >= tile.row0 + tile.rows || or >= rows {
                continue;
            }
            for v in 0..N8 {
                let oc = bc + v;
                if oc < tile.col0 || oc >= tile.col0 + tile.cols || oc >= cols {
                    continue;
                }
                let mut acc = 0.0f32;
                for x in 0..N8 {
                    let bu = basis(u, x);
                    for y in 0..N8 {
                        acc += read(br + x, bc + y) * bu * basis(v, y);
                    }
                }
                out[(or, oc)] = acc;
            }
        }
    }
    fn run(_: &Dct8x8, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let br0 = (tile.row0 / N8) * N8;
        let bc0 = (tile.col0 / N8) * N8;
        let mut br = br0;
        while br < tile.row0 + tile.rows {
            let mut bc = bc0;
            while bc < tile.col0 + tile.cols {
                block(input, br, bc, tile, out);
                bc += N8;
            }
            br += N8;
        }
    }
    Naive {
        inner: Dct8x8,
        run,
        custom_npu: None,
    }
}

/// Naive blocked DWT 9/7 reference: nested-`Vec` block copy, row lifts,
/// strided column lifts through a scratch column.
pub fn dwt97() -> Naive<Dwt97> {
    fn block(input: &Tensor, br: usize, bc: usize, tile: Tile, out: &mut TensorViewMut<'_>) {
        let (rows, cols) = input.shape();
        let brows = BLOCK.min(rows - br);
        let bcols = BLOCK.min(cols - bc);
        let mut block: Vec<Vec<f32>> = (0..brows)
            .map(|r| input.row(br + r)[bc..bc + bcols].to_vec())
            .collect();
        for row in &mut block {
            forward_lift97(row);
        }
        let mut col_buf = vec![0.0f32; brows];
        // The column stride crosses rows, so the index form is natural.
        #[allow(clippy::needless_range_loop)]
        for c in 0..bcols {
            for (r, buf) in col_buf.iter_mut().enumerate() {
                *buf = block[r][c];
            }
            forward_lift97(&mut col_buf);
            for (r, buf) in col_buf.iter().enumerate() {
                block[r][c] = *buf;
            }
        }
        for (r, row) in block.iter().enumerate() {
            let or = br + r;
            if or < tile.row0 || or >= tile.row0 + tile.rows {
                continue;
            }
            for (c, &v) in row.iter().enumerate() {
                let oc = bc + c;
                if oc >= tile.col0 && oc < tile.col0 + tile.cols {
                    out[(or, oc)] = v;
                }
            }
        }
    }
    fn run(_: &Dwt97, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let br0 = (tile.row0 / BLOCK) * BLOCK;
        let bc0 = (tile.col0 / BLOCK) * BLOCK;
        let mut br = br0;
        while br < tile.row0 + tile.rows {
            let mut bc = bc0;
            while bc < tile.col0 + tile.cols {
                block(input, br, bc, tile, out);
                bc += BLOCK;
            }
            br += BLOCK;
        }
    }
    Naive {
        inner: Dwt97::default(),
        run,
        custom_npu: None,
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT, exactly as the seed
/// implementation: a bit-reversal swap pass, then per butterfly group a
/// twiddle restarted at `(1, 0)` and advanced by one complex multiply per
/// butterfly.
fn fft_radix2(re: &mut [f32], im: &mut [f32]) {
    let n = re.len();
    assert!(
        n.is_power_of_two(),
        "radix-2 FFT requires power-of-two length"
    );
    assert_eq!(n, im.len(), "real and imaginary parts must match");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos() as f32, ang.sin() as f32);
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f32, 0.0f32);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + len / 2] * cr - im[i + k + len / 2] * ci,
                    re[i + k + len / 2] * ci + im[i + k + len / 2] * cr,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Naive row-FFT reference: fresh scratch per row, the seed's scalar
/// radix-2 loop (`fft_radix2`) for power-of-two rows, the naive DFT
/// otherwise.
pub fn row_fft() -> Naive<RowFft> {
    fn run(_: &RowFft, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        assert_eq!(tile.col0, 0, "FFT partitions must span full rows");
        assert_eq!(
            tile.cols,
            input.cols(),
            "FFT partitions must span full rows"
        );
        let n = tile.cols;
        for r in tile.row0..tile.row0 + tile.rows {
            let signal = input.row(r);
            let dst = out.span_mut(r, 0..n);
            if n.is_power_of_two() && n >= 2 {
                let mut re: Vec<f32> = signal.to_vec();
                let mut im = vec![0.0f32; n];
                fft_radix2(&mut re, &mut im);
                for ((d, r), i) in dst.iter_mut().zip(&re).zip(&im) {
                    *d = (r * r + i * i).sqrt();
                }
            } else {
                dft_magnitude(signal, dst);
            }
        }
    }
    Naive {
        inner: RowFft,
        run,
        custom_npu: None,
    }
}

/// Naive histogram reference with the production per-HLOP NPU snap.
pub fn histogram256() -> Naive<Histogram256> {
    fn run(_: &Histogram256, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        assert_eq!(
            (out.rows(), out.cols()),
            (1, BINS),
            "histogram output is 1x256"
        );
        out.row_mut(0).fill(0.0);
        for r in tile.row0..tile.row0 + tile.rows {
            for &v in &input.row(r)[tile.col0..tile.col0 + tile.cols] {
                let bin = (v.clamp(0.0, (BINS - 1) as f32)) as usize;
                out[(0, bin)] += 1.0;
            }
        }
    }
    fn npu(
        this: &Naive<Histogram256>,
        inputs: &[&Tensor],
        tile: Tile,
        out: &mut TensorViewMut<'_>,
    ) {
        let mut local = Tensor::zeros(1, BINS);
        this.run_exact(inputs, tile, &mut local);
        let params = QuantParams::from_slice(local.as_slice());
        for (d, &s) in out.row_mut(0).iter_mut().zip(local.row(0)) {
            *d = params.snap(s).max(0.0);
        }
    }
    Naive {
        inner: Histogram256,
        run,
        custom_npu: Some(npu),
    }
}

/// Naive GEMM reference (unblocked i-k-j) with the production global
/// operand quantization on the NPU path.
pub fn gemm() -> Naive<Gemm> {
    fn run(_: &Gemm, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let (a, b) = (inputs[0], inputs[1]);
        assert_eq!(
            a.shape(),
            b.shape(),
            "GEMM VOP multiplies equal-shaped squares"
        );
        let (n, m) = a.shape();
        assert_eq!(n, m, "GEMM VOP requires square inputs");
        for r in tile.row0..tile.row0 + tile.rows {
            let arow = a.row(r);
            let dst = out.span_mut(r, tile.col0..tile.col0 + tile.cols);
            dst.fill(0.0);
            for (k, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.row(k)[tile.col0..tile.col0 + tile.cols];
                for (d, &bv) in dst.iter_mut().zip(brow) {
                    *d += av * bv;
                }
            }
        }
    }
    fn npu(this: &Naive<Gemm>, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let qa = QuantParams::from_slice(inputs[0].as_slice());
        let qb = QuantParams::from_slice(inputs[1].as_slice());
        let a = inputs[0].map(|v| qa.snap(v));
        let b = inputs[1].map(|v| qb.snap(v));
        // The naive core writes the tile at its dataset position.
        let (n, m) = a.shape();
        let mut product = Tensor::zeros(n, m);
        this.run_exact(&[&a, &b], tile, &mut product);
        let view = product.view(tile.row0, tile.col0, tile.rows, tile.cols);
        let (lo, hi) = view.min_max();
        let q = QuantParams::from_range(lo, hi);
        for r in 0..tile.rows {
            let dst = out.span_mut(tile.row0 + r, tile.col0..tile.col0 + tile.cols);
            for (d, &s) in dst.iter_mut().zip(view.row(r)) {
                *d = q.snap(s);
            }
        }
    }
    Naive {
        inner: Gemm,
        run,
        custom_npu: Some(npu),
    }
}

/// Naive Black-Scholes reference: the full pricing formula re-evaluated
/// per element, nothing hoisted or memoised.
pub fn blackscholes(k: Blackscholes) -> Naive<Blackscholes> {
    fn run(k: &Blackscholes, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        for r in tile.row0..tile.row0 + tile.rows {
            let src = &input.row(r)[tile.col0..tile.col0 + tile.cols];
            let dst = out.span_mut(r, tile.col0..tile.col0 + tile.cols);
            for (d, &spot) in dst.iter_mut().zip(src) {
                let s = spot.max(1e-6);
                let strike = s * k.strike_ratio;
                let sqrt_t = k.expiry.sqrt();
                let d1 = ((s / strike).ln()
                    + (k.rate + 0.5 * k.volatility * k.volatility) * k.expiry)
                    / (k.volatility * sqrt_t);
                let d2 = d1 - k.volatility * sqrt_t;
                *d = s * cnd(d1) - strike * (-k.rate * k.expiry).exp() * cnd(d2);
            }
        }
    }
    Naive {
        inner: k,
        run,
        custom_npu: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_BENCHMARKS;

    #[test]
    fn reference_shapes_match_production() {
        for b in ALL_BENCHMARKS {
            let naive = naive_kernel(b);
            let prod = b.kernel();
            assert_eq!(naive.shape(), prod.shape(), "{b:?}");
            assert_eq!(naive.npu_fidelity(), prod.npu_fidelity(), "{b:?}");
            assert_eq!(naive.npu_native_u8(), prod.npu_native_u8(), "{b:?}");
        }
    }

    #[test]
    fn naive_conv_matches_primitive() {
        let input = Tensor::from_fn(12, 12, |r, c| ((r * 7 + c * 3) % 19) as f32);
        let k = conv2d(Conv2d::gaussian3x3());
        let mut out = Tensor::zeros(12, 12);
        k.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 12,
                cols: 12,
            },
            &mut out,
        );
        let expect = crate::primitives::conv2d(&input, Conv2d::gaussian3x3().filter());
        assert_eq!(out.as_slice(), expect.as_slice());
    }
}
