//! Result-quality metrics (paper §5.3): Mean Absolute Percentage Error and
//! the Structural Similarity Index Measure.

use shmt_tensor::{Tensor, TensorView};

/// Mean Absolute Percentage Error between a reference and an approximation,
/// as a fraction (0.05 = 5%).
///
/// MAPE's known weakness on near-zero references (the paper discusses it
/// for the edge-detection outputs, citing Kim & Kim) is handled by flooring
/// each denominator at a small fraction of the reference's mean magnitude;
/// near-zero reference values still contribute large relative errors — as
/// they do in the paper — without dividing by zero. An *all-zero*
/// reference (a blank edge map) has no magnitude of its own to scale by,
/// so the floor falls back to the approximation's mean magnitude, and to
/// an absolute epsilon when both sides are blank — tiny absolute noise
/// then reads as an error on the order of 1, not 10¹².
///
/// # Panics
///
/// Panics if the shapes differ.
///
/// # Examples
///
/// ```
/// use shmt::quality::mape;
/// use shmt_tensor::Tensor;
///
/// let reference = Tensor::filled(2, 2, 10.0);
/// let approx = Tensor::filled(2, 2, 10.5);
/// assert!((mape(&reference, &approx) - 0.05).abs() < 1e-6);
/// ```
pub fn mape(reference: &Tensor, approx: &Tensor) -> f64 {
    assert_eq!(
        reference.shape(),
        approx.shape(),
        "MAPE requires equal shapes"
    );
    let (rows, cols) = reference.shape();
    mape_views(
        reference.view(0, 0, rows, cols),
        approx.view(0, 0, rows, cols),
    )
}

/// [`mape`] between two equal-shaped windows, read in place.
///
/// # Panics
///
/// Panics if the shapes differ.
pub(crate) fn mape_views(reference: TensorView<'_>, approx: TensorView<'_>) -> f64 {
    assert_eq!(
        (reference.rows(), reference.cols()),
        (approx.rows(), approx.cols()),
        "MAPE requires equal shapes"
    );
    // Row by row, but one running sum each: the same additions in the
    // same order as over one flat slice.
    let rows = 0..reference.rows();
    let mean_abs = |t: &TensorView<'_>| -> f64 {
        let mut sum = 0.0f64;
        for r in rows.clone() {
            for &v in t.row(r) {
                sum += v.abs() as f64;
            }
        }
        sum / t.len() as f64
    };
    let ref_mean = mean_abs(&reference);
    let floor = if ref_mean > 0.0 {
        (ref_mean * 1e-2).max(1e-12)
    } else {
        mean_abs(&approx).max(1e-6)
    };
    let mut acc = 0.0f64;
    for r in rows {
        for (&x, &a) in reference.row(r).iter().zip(approx.row(r)) {
            let denom = (x.abs() as f64).max(floor);
            acc += ((x - a).abs() as f64) / denom;
        }
    }
    acc / reference.len() as f64
}

/// Mean SSIM between a reference and an approximation over 8x8 windows,
/// with the standard constants `C1 = (0.01 L)^2`, `C2 = (0.03 L)^2`, where
/// `L` is the reference's dynamic range.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn ssim(reference: &Tensor, approx: &Tensor) -> f64 {
    assert_eq!(
        reference.shape(),
        approx.shape(),
        "SSIM requires equal shapes"
    );
    let (rows, cols) = reference.shape();
    let (lo, hi) = reference.min_max();
    let l = (hi - lo).max(1e-6) as f64;
    let c1 = (0.01 * l).powi(2);
    let c2 = (0.03 * l).powi(2);
    const W: usize = 8;
    let mut total = 0.0f64;
    let mut windows = 0usize;
    let mut r0 = 0;
    while r0 < rows {
        let wr = W.min(rows - r0);
        let mut c0 = 0;
        while c0 < cols {
            let wc = W.min(cols - c0);
            let n = (wr * wc) as f64;
            let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for r in r0..r0 + wr {
                let xr = &reference.row(r)[c0..c0 + wc];
                let yr = &approx.row(r)[c0..c0 + wc];
                for (&x, &y) in xr.iter().zip(yr) {
                    let (x, y) = (x as f64, y as f64);
                    sx += x;
                    sy += y;
                    sxx += x * x;
                    syy += y * y;
                    sxy += x * y;
                }
            }
            let mx = sx / n;
            let my = sy / n;
            let vx = (sxx / n - mx * mx).max(0.0);
            let vy = (syy / n - my * my).max(0.0);
            let cov = sxy / n - mx * my;
            let s = ((2.0 * mx * my + c1) * (2.0 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2));
            total += s;
            windows += 1;
            c0 += W;
        }
        r0 += W;
    }
    total / windows as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_zero_for_identical() {
        let t = Tensor::from_fn(8, 8, |r, c| (r * 8 + c) as f32 + 1.0);
        assert_eq!(mape(&t, &t.clone()), 0.0);
    }

    #[test]
    fn mape_scales_with_relative_error() {
        let r = Tensor::filled(4, 4, 100.0);
        let a = Tensor::filled(4, 4, 90.0);
        assert!((mape(&r, &a) - 0.10).abs() < 1e-9);
    }

    #[test]
    fn mape_all_zero_reference_stays_finite() {
        // Regression: an all-zero edge map with tiny uniform noise used to
        // hit the 1e-12 absolute floor and report a MAPE around 5e11. The
        // approximation's own magnitude now sets the scale, so uniform
        // noise of 0.5 over a blank reference reads as an error of 1.
        let reference = Tensor::zeros(8, 8);
        let noisy = Tensor::filled(8, 8, 0.5);
        let e = mape(&reference, &noisy);
        assert!((e - 1.0).abs() < 1e-9, "blank-reference mape = {e}");
        // Two blank maps agree exactly.
        assert_eq!(mape(&reference, &Tensor::zeros(8, 8)), 0.0);
    }

    #[test]
    fn mape_near_zero_references_inflate_error() {
        // An edge map: mostly zeros, a few strong edges. Small absolute
        // noise on the zeros dominates the MAPE, as the paper observes.
        let reference = Tensor::from_fn(4, 4, |r, c| if r == 0 && c == 0 { 100.0 } else { 0.0 });
        let approx = reference.map(|v| v + 0.5);
        assert!(mape(&reference, &approx) > 0.4);
    }

    #[test]
    fn ssim_is_one_for_identical() {
        let t = Tensor::from_fn(16, 16, |r, c| ((r * 31 + c * 7) % 23) as f32);
        assert!((ssim(&t, &t.clone()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_decreases_with_noise() {
        let r = Tensor::from_fn(32, 32, |i, j| ((i * 13 + j * 29) % 61) as f32);
        let slight = r.map(|v| v + 0.5);
        let heavy = r.map(|v| v * 0.3 + 20.0 * ((v as i32 % 7) as f32));
        let s_slight = ssim(&r, &slight);
        let s_heavy = ssim(&r, &heavy);
        assert!(s_slight > 0.99, "slight noise keeps SSIM high: {s_slight}");
        assert!(s_heavy < s_slight, "{s_heavy} vs {s_slight}");
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn mape_rejects_shape_mismatch() {
        mape(&Tensor::zeros(2, 2), &Tensor::zeros(2, 3));
    }
}
