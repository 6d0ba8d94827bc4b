//! Same-size 2-D convolution (the `conv` VOP of Table 1).
//!
//! A small odd-sized filter applied with clamped boundaries; the filter is
//! a kernel parameter (like the NPU models, each deployed conv HLOP is
//! specialized for one filter).

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// Convolution kernel with a fixed filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    filter: Tensor,
}

impl Conv2d {
    /// Creates a convolution VOP kernel.
    ///
    /// # Panics
    ///
    /// Panics if the filter has even dimensions.
    pub fn new(filter: Tensor) -> Self {
        let (fr, fc) = filter.shape();
        assert!(fr % 2 == 1 && fc % 2 == 1, "filter dimensions must be odd");
        Conv2d { filter }
    }

    /// A 3x3 Gaussian-ish blur.
    pub fn gaussian3x3() -> Self {
        let w = [1.0f32, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0];
        Conv2d::new(Tensor::from_vec(3, 3, w.iter().map(|v| v / 16.0).collect()).expect("3x3"))
    }

    /// The filter in effect.
    pub fn filter(&self) -> &Tensor {
        &self.filter
    }
}

impl Kernel for Conv2d {
    fn name(&self) -> &'static str {
        "conv"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::stencil(self.filter.rows() / 2)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let (rows, cols) = input.shape();
        let (fr, fc) = self.filter.shape();
        let (hr, hc) = (fr / 2, fc / 2);
        let (hri, hci) = (hr as isize, hc as isize);
        let interior = crate::stencil::interior(tile, hr, hc, rows, cols);
        crate::stencil::for_each_halo(tile, interior, |r, c| {
            let mut acc = 0.0f32;
            for i in 0..fr {
                for j in 0..fc {
                    let rr = (r as isize + i as isize - hri).clamp(0, rows as isize - 1) as usize;
                    let cc = (c as isize + j as isize - hci).clamp(0, cols as isize - 1) as usize;
                    acc += input[(rr, cc)] * self.filter[(i, j)];
                }
            }
            out[(r, c)] = acc;
        });
        let Some(it) = interior else { return };
        let filter_rows: Vec<&[f32]> = (0..fr).map(|i| self.filter.row(i)).collect();
        for r in it.r0..it.r1 {
            // The fr input rows this output row reads, clipped to the
            // interior's column footprint.
            let src_rows: Vec<&[f32]> = (0..fr)
                .map(|i| &input.row(r + i - hr)[it.c0 - hc..])
                .collect();
            let dst = out.span_mut(r, it.c0..it.c1);
            for (x, d) in dst.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (src, fil) in src_rows.iter().zip(&filter_rows) {
                    // Same filter-row-major accumulation order as above.
                    for (&v, &w) in src[x..x + fc].iter().zip(*fil) {
                        acc += v * w;
                    }
                }
                *d = acc;
            }
        }
    }

    fn work_per_element(&self) -> f64 {
        (self.filter.len() * 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_primitive_conv2d() {
        let input = Tensor::from_fn(12, 12, |r, c| ((r * 7 + c * 3) % 19) as f32);
        let k = Conv2d::gaussian3x3();
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
        let expect = crate::primitives::conv2d(&input, k.filter());
        for (a, b) in out.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_preserves_flat_regions() {
        let input = Tensor::filled(8, 8, 9.0);
        let k = Conv2d::gaussian3x3();
        let mut out = Tensor::zeros(8, 8);
        k.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 8,
                cols: 8,
            },
            &mut out,
        );
        for &v in out.as_slice() {
            assert!((v - 9.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_filter() {
        Conv2d::new(Tensor::zeros(2, 2));
    }
}
