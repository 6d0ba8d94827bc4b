//! 3x3 Laplacian edge filter (OpenCV baseline).
//!
//! The signed 4-neighbor Laplacian `n + s + e + w - 4c` with clamped
//! boundaries. Flat regions produce near-zero outputs — the property that
//! makes Laplacian's MAPE sensitive to approximation (paper §5.3).

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// 3x3 Laplacian filter kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Laplacian;

impl Kernel for Laplacian {
    fn name(&self) -> &'static str {
        "Laplacian"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::stencil(1)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let (rows, cols) = input.shape();
        let at = |r: isize, c: isize| -> f32 {
            let r = r.clamp(0, rows as isize - 1) as usize;
            let c = c.clamp(0, cols as isize - 1) as usize;
            input[(r, c)]
        };
        let interior = crate::stencil::interior(tile, 1, 1, rows, cols);
        crate::stencil::for_each_halo(tile, interior, |r, c| {
            let (ri, ci) = (r as isize, c as isize);
            out[(r, c)] = at(ri - 1, ci) + at(ri + 1, ci) + at(ri, ci - 1) + at(ri, ci + 1)
                - 4.0 * input[(r, c)];
        });
        let Some(i) = interior else { return };
        for r in i.r0..i.r1 {
            let up = &input.row(r - 1)[i.c0 - 1..i.c1 + 1];
            let mid = &input.row(r)[i.c0 - 1..i.c1 + 1];
            let dn = &input.row(r + 1)[i.c0 - 1..i.c1 + 1];
            let dst = out.span_mut(r, i.c0..i.c1);
            for (((d, u), m), l) in dst
                .iter_mut()
                .zip(up.windows(3))
                .zip(mid.windows(3))
                .zip(dn.windows(3))
            {
                // north + south + west + east - 4*center, as above.
                *d = u[1] + l[1] + m[0] + m[2] - 4.0 * m[1];
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        // Edge-detector outputs are dominated by near-zero values, which the
        // int8 NN reproduces only coarsely (paper Fig 7: 34.5% TPU MAPE).
        2.0
    }

    fn npu_native_u8(&self) -> bool {
        true
    }

    fn work_per_element(&self) -> f64 {
        9.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_gives_zero() {
        let input = Tensor::filled(8, 8, 42.0);
        let mut out = Tensor::filled(8, 8, 99.0);
        Laplacian.run_exact(
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
        assert!(out.as_slice().iter().all(|&v| v.abs() < 1e-5));
    }

    #[test]
    fn point_source_gives_signed_response() {
        let mut input = Tensor::zeros(5, 5);
        input[(2, 2)] = 1.0;
        let mut out = Tensor::zeros(5, 5);
        Laplacian.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 5,
                cols: 5,
            },
            &mut out,
        );
        assert_eq!(out[(2, 2)], -4.0);
        assert_eq!(out[(1, 2)], 1.0);
        assert_eq!(out[(2, 1)], 1.0);
        assert_eq!(out[(0, 0)], 0.0);
    }

    #[test]
    fn linear_ramp_gives_zero_interior() {
        let input = Tensor::from_fn(8, 8, |r, c| (2 * r + 3 * c) as f32);
        let mut out = Tensor::zeros(8, 8);
        Laplacian.run_exact(
            &[&input],
            Tile {
                index: 0,
                row0: 1,
                col0: 1,
                rows: 6,
                cols: 6,
            },
            &mut out,
        );
        for r in 1..7 {
            for c in 1..7 {
                assert!(out[(r, c)].abs() < 1e-4, "({r},{c}) = {}", out[(r, c)]);
            }
        }
    }
}
