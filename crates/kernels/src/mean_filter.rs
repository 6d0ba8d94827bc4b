//! 3x3 mean (box) filter (OpenCV baseline; the `Mean_Filter` VOP).

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// 3x3 box filter kernel with clamped boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeanFilter;

impl Kernel for MeanFilter {
    fn name(&self) -> &'static str {
        "MF"
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
            let mut acc = 0.0f32;
            for dr in -1..=1 {
                for dc in -1..=1 {
                    acc += at(ri + dr, ci + dc);
                }
            }
            out[(r, c)] = acc / 9.0;
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
                // Same accumulation order as the clamped path: top row,
                // middle row, bottom row, left to right.
                *d = (u[0] + u[1] + u[2] + m[0] + m[1] + m[2] + l[0] + l[1] + l[2]) / 9.0;
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        5.0
    }

    fn npu_native_u8(&self) -> bool {
        true
    }

    fn work_per_element(&self) -> f64 {
        10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_is_fixed_point() {
        let input = Tensor::filled(8, 8, 7.0);
        let mut out = Tensor::zeros(8, 8);
        MeanFilter.run_exact(
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
            assert!((v - 7.0).abs() < 1e-5);
        }
    }

    #[test]
    fn point_source_spreads_to_nine_cells() {
        let mut input = Tensor::zeros(5, 5);
        input[(2, 2)] = 9.0;
        let mut out = Tensor::zeros(5, 5);
        MeanFilter.run_exact(
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
        for r in 1..=3 {
            for c in 1..=3 {
                assert!((out[(r, c)] - 1.0).abs() < 1e-5);
            }
        }
        assert_eq!(out[(0, 0)], 0.0);
    }

    #[test]
    fn output_is_bounded_by_input_range() {
        let input = Tensor::from_fn(8, 8, |r, c| ((r * 17 + c * 29) % 97) as f32);
        let mut out = Tensor::zeros(8, 8);
        MeanFilter.run_exact(
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
        let (ilo, ihi) = input.min_max();
        let (olo, ohi) = out.min_max();
        assert!(olo >= ilo && ohi <= ihi);
    }
}
