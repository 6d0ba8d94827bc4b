//! Affine int8 quantization modeling the Edge TPU data path.
//!
//! The early Edge TPU supports only INT8 arithmetic (paper §2.1). When the
//! SHMT runtime schedules an HLOP onto the Edge TPU it "perform\[s\] data type
//! casting through the desired quantization method before distributing the
//! input data" and restores the application precision on completion
//! (§3.3.2). [`QuantParams`] captures the affine mapping used for that
//! round-trip, and [`quantize_tensor`]/[`dequantize_tensor`] apply it.
//!
//! The quality loss SHMT's QAWS policy manages comes precisely from this
//! round-trip: partitions with wide value ranges lose more absolute
//! precision per int8 step, which is why criticality is defined over the
//! sampled range and standard deviation (§3.5).

use crate::Tensor;

/// 2^23: every `f32` of at least this magnitude is an integer, and adding
/// it to a smaller non-negative value rounds the fraction bits away.
const INT_MAGIC: f32 = 8_388_608.0;

/// `x.round()` — nearest integer, ties away from zero — as branch-free
/// `f32` arithmetic the vectoriser accepts, where `f32::round` is a
/// `roundf` libcall per element on the default x86-64 target. Equal to
/// `x.round()` for every one of the 2^32 bit patterns, the sign of zero
/// included; a NaN stays a NaN.
#[inline(always)]
pub(crate) fn round_half_away(x: f32) -> f32 {
    let a = x.abs();
    // Nearest-even integer of `a`; an exact tie that went down goes up.
    let t = (a + INT_MAGIC) - INT_MAGIC;
    let r = if a - t >= 0.5 { t + 1.0 } else { t };
    // Already integral (or infinite, or NaN) from 2^23 on.
    let r = if a < INT_MAGIC { r } else { a };
    r.copysign(x)
}

/// Rounds every element to the nearest integer in place, ties away from
/// zero — the lossless cast of 8-bit image data onto a native `u8` device
/// grid. Bit-identical to `f32::round` per element.
pub fn round_slice(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = round_half_away(*v);
    }
}

/// A running NaN-ignoring minimum and maximum over slices — the range
/// scan that derives cast parameters.
///
/// The extrema are kept lane-wise with plain `<` / `>` selects and folded
/// once in [`RangeScan::finish`], so the scan compiles to packed
/// `minps`/`maxps`. The result equals the sequential `f32::min`/`max`
/// fold in value; when zeros of both signs tie for an extremum, which of
/// them is reported is unspecified (as it is for `f32::min`), and the
/// sign of a zero bound cannot reach a value snapped with the derived
/// parameters.
#[derive(Debug, Clone, Copy)]
pub struct RangeScan {
    lo: [f32; RangeScan::LANES],
    hi: [f32; RangeScan::LANES],
}

impl RangeScan {
    const LANES: usize = 8;

    /// An empty scan.
    pub fn new() -> Self {
        RangeScan {
            lo: [f32::INFINITY; Self::LANES],
            hi: [f32::NEG_INFINITY; Self::LANES],
        }
    }

    /// Folds `values` into the running range.
    #[inline]
    pub fn scan(&mut self, values: &[f32]) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        let mut chunks = values.chunks_exact(Self::LANES);
        for chunk in &mut chunks {
            fold_lanes(&mut lo, &mut hi, chunk);
        }
        fold_lanes(&mut lo, &mut hi, chunks.remainder());
        (self.lo, self.hi) = (lo, hi);
    }

    /// The `(min, max)` of every non-NaN element scanned so far, `None`
    /// if there was none.
    pub fn finish(&self) -> Option<(f32, f32)> {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for (&l, &h) in self.lo.iter().zip(&self.hi) {
            lo = if l < lo { l } else { lo };
            hi = if h > hi { h } else { hi };
        }
        (lo <= hi).then_some((lo, hi))
    }
}

impl Default for RangeScan {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds `values[i]` into the running extrema `lo[i]` / `hi[i]`, lane by
/// lane (up to the shortest slice). A NaN fails both comparisons and
/// leaves its lane untouched, so lanes initialised to `+inf` / `-inf`
/// end with `lo > hi` exactly when they saw no non-NaN value.
#[inline(always)]
pub fn fold_lanes(lo: &mut [f32], hi: &mut [f32], values: &[f32]) {
    for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(values) {
        *l = if v < *l { v } else { *l };
        *h = if v > *h { v } else { *h };
    }
}

/// Affine quantization parameters mapping `f32` values onto `i8` codes.
///
/// A real value `x` maps to `round(x / scale) + zero_point`, clamped to
/// `[-128, 127]`.
///
/// # Examples
///
/// ```
/// use shmt_tensor::quant::QuantParams;
///
/// let qp = QuantParams::from_range(-1.0, 1.0);
/// let code = qp.quantize(0.5);
/// let back = qp.dequantize(code);
/// assert!((back - 0.5).abs() <= qp.scale());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    lo: f32,
}

impl QuantParams {
    /// Derives parameters covering the closed interval `[lo, hi]`.
    ///
    /// Degenerate inputs are widened to a tiny symmetric interval so the
    /// mapping is always invertible: if `lo > hi` they are swapped, and if
    /// the interval has zero width it is inflated around its midpoint.
    pub fn from_range(lo: f32, hi: f32) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (lo, hi) = if (hi - lo).abs() < f32::EPSILON {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        // `lo` maps to code -128 and `hi` to 127. Anchoring the mapping at
        // `lo` (rather than at a zero point) keeps it exact for ranges far
        // from zero, where an integer zero point would overflow or lose
        // float precision.
        let scale = (hi - lo) / 255.0;
        QuantParams { scale, lo }
    }

    /// Derives parameters from the observed range of a tensor.
    fn from_tensor(t: &Tensor) -> Self {
        let (lo, hi) = t.min_max();
        Self::from_range(lo, hi)
    }

    /// Derives parameters from the observed range of a slice.
    ///
    /// NaN elements are ignored; an empty or all-NaN slice yields the unit
    /// interval `[0, 1]`.
    pub fn from_slice(values: &[f32]) -> Self {
        let mut range = RangeScan::new();
        range.scan(values);
        let (lo, hi) = range.finish().unwrap_or((0.0, 1.0));
        Self::from_range(lo, hi)
    }

    /// The real-value width of one int8 step.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// How many steps above `lo` the value `x` rounds to, clamped to the
    /// 256-point grid. A NaN stays NaN and a step count in `(-0.5, -0.0]`
    /// stays `-0.0` (`f32::clamp` returns it unchanged).
    #[inline(always)]
    fn steps(&self, x: f32) -> f32 {
        round_half_away((x - self.lo) / self.scale).clamp(0.0, 255.0)
    }

    /// [`QuantParams::steps`] as seen through the `i8` code: NaN takes
    /// code 0 (128 steps, the float-to-int cast's saturation) and `-0.0`
    /// becomes `+0.0`.
    #[inline(always)]
    fn code_steps(&self, x: f32) -> f32 {
        let q = self.steps(x);
        // `-0.0 + 0.0` is `+0.0`; every other step count is unchanged.
        if q.is_nan() {
            128.0
        } else {
            q + 0.0
        }
    }

    /// Quantizes a single value.
    pub fn quantize(&self, x: f32) -> i8 {
        (self.steps(x) - 128.0) as i8
    }

    /// Dequantizes a single code.
    pub fn dequantize(&self, code: i8) -> f32 {
        self.lo + (f32::from(code) + 128.0) * self.scale
    }

    /// Rounds a value to the nearest representable point of this grid:
    /// bit-identical to `dequantize(quantize(x))` without the trip through
    /// `i8`, so NaN lands on code 0's point `lo + 128 * scale`.
    #[inline]
    pub fn snap(&self, x: f32) -> f32 {
        self.lo + self.code_steps(x) * self.scale
    }

    /// Quantizes a contiguous slice into `dst` — the bulk form of the Edge
    /// TPU input cast, with the affine parameters hoisted out of the loop.
    ///
    /// Produces exactly the same codes as calling [`QuantParams::quantize`]
    /// per element.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    #[inline(never)] // scripts/check_simd.sh reads this body's packed ops
    fn quantize_slice(&self, src: &[f32], dst: &mut [i8]) {
        assert_eq!(src.len(), dst.len(), "quantize_slice length mismatch");
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = self.quantize(x);
        }
    }

    /// Dequantizes a contiguous slice of codes into `dst` — the bulk form
    /// of restoring application precision after an Edge TPU HLOP.
    ///
    /// Produces exactly the same values as calling
    /// [`QuantParams::dequantize`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `codes` and `dst` have different lengths.
    #[inline(never)] // scripts/check_simd.sh reads this body's packed ops
    fn dequantize_slice(&self, codes: &[i8], dst: &mut [f32]) {
        assert_eq!(codes.len(), dst.len(), "dequantize_slice length mismatch");
        for (d, &code) in dst.iter_mut().zip(codes) {
            *d = self.dequantize(code);
        }
    }

    /// Snaps every element of a slice to this grid in place — the bulk
    /// form of [`QuantParams::snap`], bit-identical to the per-element
    /// calls; the Edge TPU output side (re-quantize the tile where the
    /// kernel wrote it).
    pub fn snap_in_place(&self, values: &mut [f32]) {
        for v in values.iter_mut() {
            *v = self.snap(*v);
        }
    }

    /// Snaps every element of a slice to this grid in place as the device
    /// buffer holds it — the Edge TPU input side. Differs from
    /// [`QuantParams::snap`] where no `i8` code is involved: a NaN stays
    /// NaN (`snap` sends it to code 0's point) and a step count of `-0.0`
    /// keeps its sign (it matters only when `lo` is `-0.0` too).
    pub fn snap_slice(&self, values: &mut [f32]) {
        for v in values.iter_mut() {
            *v = self.lo + self.steps(*v) * self.scale;
        }
    }
}

/// Snaps `values[i]` with `params[i]` in place — [`QuantParams::snap`]
/// across per-channel grids whose channels are adjacent lanes (the 64
/// coefficient positions of a DCT block row by row).
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn snap_lanes(params: &[QuantParams], values: &mut [f32]) {
    assert_eq!(params.len(), values.len(), "snap_lanes length mismatch");
    for (v, p) in values.iter_mut().zip(params) {
        *v = p.snap(*v);
    }
}

/// An owned 2-D array of int8 codes plus the parameters that produced it —
/// what an Edge TPU HLOP receives as its input buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    params: QuantParams,
}

impl QuantTensor {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization parameters in effect.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Byte size of the device buffer (1 byte per element).
    pub fn byte_len(&self) -> usize {
        self.codes.len()
    }
}

/// Quantizes a whole tensor with parameters derived from its own range.
///
/// # Examples
///
/// ```
/// use shmt_tensor::{quant, Tensor};
///
/// let t = Tensor::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// let q = quant::quantize_tensor(&t);
/// let back = quant::dequantize_tensor(&q);
/// for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
///     assert!((a - b).abs() <= q.params().scale());
/// }
/// ```
pub fn quantize_tensor(t: &Tensor) -> QuantTensor {
    let params = QuantParams::from_tensor(t);
    let mut codes = vec![0i8; t.len()];
    params.quantize_slice(t.as_slice(), &mut codes);
    QuantTensor {
        rows: t.rows(),
        cols: t.cols(),
        codes,
        params,
    }
}

/// Restores a quantized tensor to `f32` ("restoring the result to the data
/// precision that the application desires", §3.3.2).
///
/// The output page comes from the arena unfilled ([`Tensor::stale`]): every
/// element is assigned from its code.
pub fn dequantize_tensor(q: &QuantTensor) -> Tensor {
    let mut out = Tensor::stale(q.rows, q.cols);
    q.params.dequantize_slice(&q.codes, out.as_mut_slice());
    out
}

/// Snaps every element of a slice to the int8 grid derived from the slice's
/// own range — the one-line model of "send through the TPU input path".
pub fn snap_slice(values: &mut [f32]) {
    QuantParams::from_slice(values).snap_slice(values);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_scale() {
        let qp = QuantParams::from_range(-10.0, 30.0);
        for i in 0..=100 {
            let x = -10.0 + 40.0 * (i as f32) / 100.0;
            let err = (qp.snap(x) - x).abs();
            assert!(err <= qp.scale() * 0.5 + 1e-5, "x={x} err={err}");
        }
    }

    #[test]
    fn endpoints_map_to_extreme_codes() {
        let qp = QuantParams::from_range(0.0, 255.0);
        assert_eq!(qp.quantize(0.0), -128);
        assert_eq!(qp.quantize(255.0), 127);
    }

    #[test]
    fn narrow_range_far_from_zero_round_trips() {
        // Regression: an integer zero point would overflow for this range.
        let qp = QuantParams::from_range(100.2, 100.7);
        let x = 100.45f32;
        assert!((qp.snap(x) - x).abs() <= qp.scale(), "snap={}", qp.snap(x));
    }

    #[test]
    fn degenerate_range_is_widened() {
        let qp = QuantParams::from_range(5.0, 5.0);
        assert!(qp.scale() > 0.0);
        assert!((qp.snap(5.0) - 5.0).abs() <= qp.scale());
    }

    #[test]
    fn swapped_range_is_normalized() {
        let a = QuantParams::from_range(1.0, -1.0);
        let b = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn wider_range_means_coarser_grid() {
        let narrow = QuantParams::from_range(0.0, 1.0);
        let wide = QuantParams::from_range(0.0, 1000.0);
        assert!(wide.scale() > narrow.scale() * 500.0);
    }

    #[test]
    fn tensor_round_trip_preserves_shape() {
        let t = Tensor::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.25);
        let q = quantize_tensor(&t);
        assert_eq!(q.byte_len(), 15);
        let back = dequantize_tensor(&q);
        assert_eq!(back.shape(), t.shape());
    }

    #[test]
    fn from_slice_ignores_nan_and_handles_empty() {
        let qp = QuantParams::from_slice(&[f32::NAN, 1.0, 3.0]);
        assert!((qp.snap(2.0) - 2.0).abs() <= qp.scale());
        let empty = QuantParams::from_slice(&[]);
        assert!(empty.scale() > 0.0);
    }

    #[test]
    fn round_trip_far_from_zero() {
        // A one-unit range six orders of magnitude from the origin: the
        // lo-anchored mapping must keep the per-step error at `scale()`,
        // where a zero-point formulation would lose all precision.
        let qp = QuantParams::from_range(1e6, 1e6 + 1.0);
        for i in 0..=64 {
            let x = 1e6 + i as f32 / 64.0;
            let err = (qp.dequantize(qp.quantize(x)) - x).abs();
            assert!(err <= qp.scale(), "x={x} err={err} scale={}", qp.scale());
        }
    }

    #[test]
    fn round_trip_negative_only_range() {
        let qp = QuantParams::from_range(-40.0, -8.0);
        for i in 0..=100 {
            let x = -40.0 + 32.0 * (i as f32) / 100.0;
            let err = (qp.dequantize(qp.quantize(x)) - x).abs();
            assert!(err <= qp.scale(), "x={x} err={err}");
        }
    }

    #[test]
    fn from_slice_with_leading_nans_round_trips() {
        let values = [f32::NAN, f32::NAN, -2.5, 7.0, 0.25];
        let qp = QuantParams::from_slice(&values);
        for &x in values.iter().filter(|v| !v.is_nan()) {
            let err = (qp.dequantize(qp.quantize(x)) - x).abs();
            assert!(err <= qp.scale(), "x={x} err={err}");
        }
        // NaN itself saturates to code 0 (Rust float-to-int cast), not a
        // poisoned buffer.
        assert_eq!(qp.quantize(f32::NAN), 0);
    }

    /// The scalar libm forms the vector loops replaced, kept as the
    /// references they must match bit for bit.
    fn steps_reference(qp: &QuantParams, x: f32) -> f32 {
        ((x - qp.lo) / qp.scale).round().clamp(0.0, 255.0)
    }

    fn snap_reference(qp: &QuantParams, x: f32) -> f32 {
        let code = (steps_reference(qp, x) - 128.0) as i8;
        qp.lo + (f32::from(code) + 128.0) * qp.scale
    }

    fn snap_slice_reference(qp: &QuantParams, x: f32) -> f32 {
        qp.lo + steps_reference(qp, x) * qp.scale
    }

    /// Bitwise equality that also accepts two NaNs (Rust leaves NaN
    /// payloads unspecified; the device buffer only needs "still NaN").
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// What one step count must satisfy: the new rounding equals
    /// `f32::round`, the clamped form equals the input-side reference,
    /// and the code form equals the trip through `i8`.
    fn check_step_count(q: f32) {
        // lo = 0, scale = 1: the step count is `q` itself.
        let unit = QuantParams {
            scale: 1.0,
            lo: 0.0,
        };
        assert!(
            same(round_half_away(q), q.round()),
            "round {q:e} ({:#x})",
            q.to_bits()
        );
        assert!(
            same(unit.steps(q), q.round().clamp(0.0, 255.0)),
            "steps {q:e} ({:#x})",
            q.to_bits()
        );
        let via_i8 = f32::from((q.round().clamp(0.0, 255.0) - 128.0) as i8) + 128.0;
        assert!(
            same(unit.code_steps(q), via_i8),
            "code steps {q:e} ({:#x})",
            q.to_bits()
        );
    }

    #[test]
    fn rounding_matches_libm_at_every_tie_and_edge() {
        let next = |x: f32, up: bool| {
            let step = if (x > 0.0) == up { 1 } else { -1i32 };
            f32::from_bits((x.to_bits() as i32 + step) as u32)
        };
        for k in -2..=257 {
            for half in [-0.5f32, 0.0, 0.5] {
                let x = k as f32 + half;
                check_step_count(x);
                if x != 0.0 {
                    check_step_count(next(x, true));
                    check_step_count(next(x, false));
                }
            }
        }
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            0.49999997,
            -0.49999997,
            INT_MAGIC - 0.5,
            INT_MAGIC,
            INT_MAGIC + 1.0,
            -INT_MAGIC + 0.5,
            -INT_MAGIC - 1.0,
            1.0e30,
            -1.0e30,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for x in specials {
            check_step_count(x);
        }
    }

    /// All 2^32 bit patterns; ~30 s in release, so `scripts/ci.sh` runs it
    /// there (`cargo test --release -p shmt-tensor -- --ignored`).
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run in release by scripts/ci.sh"]
    fn rounding_matches_libm_for_all_bit_patterns() {
        for bits in 0..=u32::MAX {
            check_step_count(f32::from_bits(bits));
        }
    }

    #[test]
    fn snap_and_snap_slice_differ_only_as_documented() {
        let qp = QuantParams::from_range(-0.0, 255.0);
        assert_eq!(qp.lo.to_bits(), (-0.0f32).to_bits());
        // NaN: code 0's grid point through `snap`, still NaN in the
        // device buffer.
        assert_eq!(qp.snap(f32::NAN), qp.dequantize(0));
        assert_eq!(qp.snap(f32::NAN), 128.0);
        let mut buf = [f32::NAN];
        qp.snap_slice(&mut buf);
        assert!(buf[0].is_nan());
        // A step count of -0.0 below a -0.0 `lo`: `snap` goes through the
        // integer code (+0.0 steps), `snap_slice` keeps the sign.
        let x = -0.25f32;
        assert_eq!(steps_reference(&qp, x).to_bits(), (-0.0f32).to_bits());
        assert_eq!(qp.snap(x).to_bits(), 0.0f32.to_bits());
        let mut buf = [x];
        qp.snap_slice(&mut buf);
        assert_eq!(buf[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn bulk_slice_paths_match_per_element_calls() {
        let mut src: Vec<f32> = (0..257).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let qp = QuantParams::from_slice(&src);
        // Outside what the range was derived from: below `lo`, above `hi`,
        // both zeros, infinities, NaN.
        src.extend([
            -12.5,
            -11.0 - 0.4 * qp.scale(),
            200.0,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        let zero_lo = QuantParams::from_range(-0.0, 3.0);

        for qp in [qp, zero_lo] {
            let mut codes = vec![0i8; src.len()];
            qp.quantize_slice(&src, &mut codes);
            let per_elem: Vec<i8> = src
                .iter()
                .map(|&v| (steps_reference(&qp, v) - 128.0) as i8)
                .collect();
            assert_eq!(codes, per_elem);
            assert_eq!(
                codes,
                src.iter().map(|&v| qp.quantize(v)).collect::<Vec<_>>()
            );

            let mut back = vec![0f32; codes.len()];
            qp.dequantize_slice(&codes, &mut back);
            let back_per_elem: Vec<f32> = codes.iter().map(|&c| qp.dequantize(c)).collect();
            assert_eq!(back, back_per_elem);

            // Output side: `snap_in_place` == `snap` == the trip through i8.
            let mut published = src.clone();
            qp.snap_in_place(&mut published);
            let lanes = vec![qp; src.len()];
            let mut by_lane = src.clone();
            snap_lanes(&lanes, &mut by_lane);
            for (i, &x) in src.iter().enumerate() {
                let want = snap_reference(&qp, x);
                assert_eq!(want.to_bits(), qp.dequantize(qp.quantize(x)).to_bits());
                assert_eq!(qp.snap(x).to_bits(), want.to_bits(), "snap({x})");
                assert_eq!(published[i].to_bits(), want.to_bits(), "snap_in_place({x})");
                assert_eq!(by_lane[i].to_bits(), want.to_bits(), "snap_lanes({x})");
            }

            // Input side: `snap_slice` keeps NaN and the sign of -0.0.
            let mut snapped = src.clone();
            qp.snap_slice(&mut snapped);
            for (&got, &x) in snapped.iter().zip(&src) {
                assert!(
                    same(got, snap_slice_reference(&qp, x)),
                    "snap_slice({x}) = {got}"
                );
            }
        }
    }

    /// The sequential NaN-filtered `f32::min`/`max` fold the lane scan
    /// replaced.
    fn sequential_range(values: &[f32]) -> Option<(f32, f32)> {
        let mut it = values.iter().copied().filter(|v| !v.is_nan());
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }

    #[test]
    fn lane_fold_range_equals_sequential_fold() {
        let pool = [
            3.5,
            -2.0,
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-40,
            -7.25,
            255.0,
        ];
        let mut rng = crate::rng::Pcg32::seed_from_u64(0x5ca9);
        for len in 0..=17 {
            for _ in 0..64 {
                let row: Vec<f32> = (0..len)
                    .map(|_| pool[rng.gen_range(0usize..pool.len())])
                    .collect();
                let mut scan = RangeScan::new();
                // Split anywhere: the running lanes carry across calls.
                let cut = rng.gen_range(0usize..len + 1);
                scan.scan(&row[..cut]);
                scan.scan(&row[cut..]);
                // `==` on purpose: which of two tied zeros is reported is
                // unspecified on both sides.
                assert_eq!(scan.finish(), sequential_range(&row), "{row:?}");
            }
        }
        let all_nan = [f32::NAN; 11];
        let mut scan = RangeScan::new();
        scan.scan(&all_nan);
        assert_eq!(scan.finish(), None);
        let mut leading = vec![f32::NAN; 9];
        leading.extend([4.0, -1.0]);
        let mut scan = RangeScan::new();
        scan.scan(&leading);
        assert_eq!(scan.finish(), Some((-1.0, 4.0)));
        let mut scan = RangeScan::new();
        scan.scan(&[f32::INFINITY; 3]);
        assert_eq!(scan.finish(), Some((f32::INFINITY, f32::INFINITY)));
    }

    #[test]
    fn sign_of_a_zero_bound_cannot_reach_a_snapped_value() {
        // The lane fold may report the other of two tied zeros than the
        // sequential fold did. As `lo` of the input cast (no element is
        // below it) and as either bound of the widened output grid, the
        // sign must not change one snapped bit.
        let values = [0.0, -0.0, 0.3, 1.0, 2.5, 3.0, f32::NAN];
        for hi in [3.0f32, 0.0, -0.0] {
            let plus = QuantParams::from_range(0.0, hi);
            let minus = QuantParams::from_range(-0.0, hi);
            assert_eq!(plus.scale.to_bits(), minus.scale.to_bits());
            for &x in &values {
                assert_eq!(plus.snap(x).to_bits(), minus.snap(x).to_bits(), "snap {x}");
                let (mut a, mut b) = ([x], [x]);
                plus.snap_slice(&mut a);
                minus.snap_slice(&mut b);
                assert!(same(a[0], b[0]), "snap_slice {x}");
            }
        }
        // Output side: the grid is `from_range(mid - half, mid + half)`.
        let grid = |lo: f32, hi: f32, fidelity: f32| {
            let mid = 0.5 * (lo + hi);
            let half = 0.5 * (hi - lo) * fidelity;
            QuantParams::from_range(mid - half, mid + half)
        };
        let bits = |p: QuantParams| (p.lo.to_bits(), p.scale.to_bits());
        for fidelity in [1.0f32, 1.8] {
            for other in [4.0f32, -4.0, 0.0, -0.0] {
                let (a, b) = (grid(0.0, other, fidelity), grid(-0.0, other, fidelity));
                assert_eq!(bits(a), bits(b), "zero lo against {other}");
                let (a, b) = (grid(other, 0.0, fidelity), grid(other, -0.0, fidelity));
                assert_eq!(bits(a), bits(b), "zero hi against {other}");
            }
        }
    }

    #[test]
    fn snap_slice_is_idempotent() {
        let mut v = vec![0.1, 0.5, 0.9, -0.3];
        snap_slice(&mut v);
        let first = v.clone();
        snap_slice(&mut v);
        for (a, b) in first.iter().zip(&v) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
