//! Speckle-reducing anisotropic diffusion (SRAD, Rodinia/CUDA baseline).
//!
//! One explicit iteration of the SRAD PDE used for ultrasound despeckling.
//! The diffusion coefficient of each cell derives from its local gradient
//! and Laplacian relative to a reference speckle statistic `q0`; the update
//! then takes the divergence of coefficient-weighted derivatives, which
//! reads coefficients of south/east neighbors — an effective halo of 2.
//!
//! The Rodinia implementation derives `q0` from a fixed region of interest
//! each iteration; to keep HLOP partitions independent we treat `q0` as a
//! kernel parameter (the value the ROI statistic converges to), which the
//! paper's partitioning implicitly requires as well.

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// One SRAD diffusion iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Srad {
    /// Diffusion time step.
    pub lambda: f32,
    /// Reference speckle statistic (ROI coefficient of variation).
    pub q0: f32,
}

impl Default for Srad {
    fn default() -> Self {
        Srad {
            lambda: 0.25,
            q0: 0.5,
        }
    }
}

impl Srad {
    /// Diffusion coefficient at `(r, c)` computed from the 4-neighborhood.
    fn coefficient(&self, input: &Tensor, r: isize, c: isize) -> f32 {
        let (rows, cols) = input.shape();
        let at = |r: isize, c: isize| -> f32 {
            let r = r.clamp(0, rows as isize - 1) as usize;
            let c = c.clamp(0, cols as isize - 1) as usize;
            input[(r, c)]
        };
        self.coefficient_of(
            at(r, c),
            at(r - 1, c),
            at(r + 1, c),
            at(r, c - 1),
            at(r, c + 1),
        )
    }

    /// The same diffusion coefficient from already-gathered neighbor
    /// values (the interior fast path gathers via row slices).
    #[inline]
    fn coefficient_of(&self, center: f32, up: f32, down: f32, left: f32, right: f32) -> f32 {
        let j = center.max(1e-6);
        let dn = up - j;
        let ds = down - j;
        let dw = left - j;
        let de = right - j;
        let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (j * j);
        let l = (dn + ds + dw + de) / j;
        let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
        let den = (1.0 + 0.25 * l) * (1.0 + 0.25 * l);
        let q2 = (num / den.max(1e-6)).max(0.0);
        let q02 = self.q0 * self.q0;
        let c = 1.0 / (1.0 + (q2 - q02) / (q02 * (1.0 + q02)));
        c.clamp(0.0, 1.0)
    }
}

impl Kernel for Srad {
    fn name(&self) -> &'static str {
        "SRAD"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::stencil(2)
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let (rows, cols) = input.shape();
        let at = |r: isize, c: isize| -> f32 {
            let r = r.clamp(0, rows as isize - 1) as usize;
            let c = c.clamp(0, cols as isize - 1) as usize;
            input[(r, c)]
        };
        let interior = crate::stencil::interior(tile, 2, 2, rows, cols);
        crate::stencil::for_each_halo(tile, interior, |r, c| {
            let (ri, ci) = (r as isize, c as isize);
            let j = input[(r, c)];
            let cc = self.coefficient(input, ri, ci);
            let cs = self.coefficient(input, ri + 1, ci);
            let ce = self.coefficient(input, ri, ci + 1);
            // Divergence of c * grad J on the staggered Rodinia grid.
            let d = cc * (at(ri - 1, ci) - j)
                + cs * (at(ri + 1, ci) - j)
                + cc * (at(ri, ci - 1) - j)
                + ce * (at(ri, ci + 1) - j);
            out[(r, c)] = j + 0.25 * self.lambda * d;
        });
        let Some(i) = interior else { return };
        // Interior cells read rows r-1..=r+2 and columns c-1..=c+2 (the
        // south and east coefficients reach one further); 4-wide windows
        // over four row slices cover exactly that footprint.
        for r in i.r0..i.r1 {
            let rm1 = &input.row(r - 1)[i.c0 - 1..i.c1 + 2];
            let r0 = &input.row(r)[i.c0 - 1..i.c1 + 2];
            let rp1 = &input.row(r + 1)[i.c0 - 1..i.c1 + 2];
            let rp2 = &input.row(r + 2)[i.c0 - 1..i.c1 + 2];
            let dst = out.span_mut(r, i.c0..i.c1);
            for ((((d, um), m), dm), d2) in dst
                .iter_mut()
                .zip(rm1.windows(4))
                .zip(r0.windows(4))
                .zip(rp1.windows(4))
                .zip(rp2.windows(4))
            {
                // Window index 1 is the cell itself; 0/2/3 are c-1/c+1/c+2.
                let j = m[1];
                let cc = self.coefficient_of(m[1], um[1], dm[1], m[0], m[2]);
                let cs = self.coefficient_of(dm[1], m[1], d2[1], dm[0], dm[2]);
                let ce = self.coefficient_of(m[2], um[2], dm[2], m[1], m[3]);
                let div = cc * (um[1] - j) + cs * (dm[1] - j) + cc * (m[0] - j) + ce * (m[2] - j);
                *d = j + 0.25 * self.lambda * div;
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        // The diffusion coefficient's nonlinearity is approximated by the
        // NN with error beyond one int8 step.
        5.0
    }

    fn work_per_element(&self) -> f64 {
        60.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_tile(n: usize) -> Tile {
        Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: n,
            cols: n,
        }
    }

    #[test]
    fn flat_image_is_fixed_point() {
        let input = Tensor::filled(8, 8, 0.5);
        let mut out = Tensor::zeros(8, 8);
        Srad::default().run_exact(&[&input], full_tile(8), &mut out);
        for &v in out.as_slice() {
            assert!((v - 0.5).abs() < 1e-5);
        }
    }

    #[test]
    fn diffusion_smooths_speckle() {
        // A noisy checkerboard should have lower variance after one step.
        let input = Tensor::from_fn(16, 16, |r, c| if (r + c) % 2 == 0 { 0.4 } else { 0.6 });
        let mut out = Tensor::zeros(16, 16);
        Srad::default().run_exact(&[&input], full_tile(16), &mut out);
        let var = |t: &Tensor| {
            let mean: f32 = t.as_slice().iter().sum::<f32>() / t.len() as f32;
            t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32
        };
        assert!(var(&out) < var(&input));
    }

    #[test]
    fn coefficients_stay_in_unit_interval() {
        let input = Tensor::from_fn(8, 8, |r, c| 0.1 + ((r * 13 + c * 7) % 11) as f32 * 0.08);
        let k = Srad::default();
        for r in 0..8 {
            for c in 0..8 {
                let v = k.coefficient(&input, r as isize, c as isize);
                assert!((0.0..=1.0).contains(&v), "c({r},{c}) = {v}");
            }
        }
    }

    #[test]
    fn tile_split_matches_full_run() {
        let input = Tensor::from_fn(16, 16, |r, c| 0.2 + ((r * 5 + c * 3) % 9) as f32 * 0.1);
        let k = Srad::default();
        let mut full = Tensor::zeros(16, 16);
        k.run_exact(&[&input], full_tile(16), &mut full);
        let mut split = Tensor::zeros(16, 16);
        for (i, r0) in [0usize, 8].iter().enumerate() {
            k.run_exact(
                &[&input],
                Tile {
                    index: i,
                    row0: *r0,
                    col0: 0,
                    rows: 8,
                    cols: 16,
                },
                &mut split,
            );
        }
        assert_eq!(full.as_slice(), split.as_slice());
    }
}
