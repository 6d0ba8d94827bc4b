//! Sobel gradient-magnitude filter (OpenCV baseline).
//!
//! The standard 3x3 Sobel operator; the output is the Euclidean gradient
//! magnitude `sqrt(gx^2 + gy^2)` with clamped boundaries. Like Laplacian,
//! flat image regions produce near-zero outputs.

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// 3x3 Sobel gradient magnitude kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sobel;

impl Kernel for Sobel {
    fn name(&self) -> &'static str {
        "Sobel"
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
            let gx = at(ri - 1, ci + 1) + 2.0 * at(ri, ci + 1) + at(ri + 1, ci + 1)
                - at(ri - 1, ci - 1)
                - 2.0 * at(ri, ci - 1)
                - at(ri + 1, ci - 1);
            let gy = at(ri + 1, ci - 1) + 2.0 * at(ri + 1, ci) + at(ri + 1, ci + 1)
                - at(ri - 1, ci - 1)
                - 2.0 * at(ri - 1, ci)
                - at(ri - 1, ci + 1);
            out[(r, c)] = (gx * gx + gy * gy).sqrt();
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
                // Identical term order to the clamped path above.
                let gx = u[2] + 2.0 * m[2] + l[2] - u[0] - 2.0 * m[0] - l[0];
                let gy = l[0] + 2.0 * l[1] + l[2] - u[0] - 2.0 * u[1] - u[2];
                *d = (gx * gx + gy * gy).sqrt();
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        // As with Laplacian, near-zero edge maps amplify relative error
        // (paper Fig 7: 45.5% TPU MAPE).
        5.0
    }

    fn npu_native_u8(&self) -> bool {
        true
    }

    fn work_per_element(&self) -> f64 {
        16.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_gives_zero() {
        let input = Tensor::filled(8, 8, 50.0);
        let mut out = Tensor::filled(8, 8, -1.0);
        Sobel.run_exact(
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
    fn vertical_edge_detected() {
        let input = Tensor::from_fn(8, 8, |_, c| if c < 4 { 0.0 } else { 100.0 });
        let mut out = Tensor::zeros(8, 8);
        Sobel.run_exact(
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
        // Strong response at the edge columns, zero far from the edge.
        assert!(out[(4, 3)] > 100.0);
        assert!(out[(4, 4)] > 100.0);
        assert!(out[(4, 0)].abs() < 1e-5);
        assert!(out[(4, 7)].abs() < 1e-5);
    }

    #[test]
    fn output_is_nonnegative() {
        let input = Tensor::from_fn(8, 8, |r, c| ((r * 31 + c * 7) % 19) as f32 - 9.0);
        let mut out = Tensor::zeros(8, 8);
        Sobel.run_exact(
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
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }
}
