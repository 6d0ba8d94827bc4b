//! Hotspot thermal simulation stencil (Rodinia baseline; the
//! `parabolic_PDE` VOP).
//!
//! One explicit time step of the Rodinia thermal model: the new temperature
//! of a cell depends on its neighbors (a 5-point stencil), the power
//! dissipated in the cell, and the ambient sink. Inputs: temperature grid
//! and power grid.

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// One explicit Hotspot time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Thermal capacitance scaling of the explicit step.
    pub step: f32,
    /// Lateral thermal resistance (x direction).
    pub rx: f32,
    /// Lateral thermal resistance (y direction).
    pub ry: f32,
    /// Vertical resistance to the ambient sink.
    pub rz: f32,
    /// Ambient temperature.
    pub ambient: f32,
}

impl Default for Hotspot {
    fn default() -> Self {
        Hotspot {
            step: 0.1,
            rx: 1.0,
            ry: 1.0,
            rz: 4.0,
            ambient: 300.0,
        }
    }
}

impl Kernel for Hotspot {
    fn name(&self) -> &'static str {
        "Hotspot"
    }

    fn shape(&self) -> KernelShape {
        KernelShape {
            num_inputs: 2,
            ..KernelShape::stencil(1)
        }
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let temp = inputs[0];
        let power = inputs[1];
        assert_eq!(
            temp.shape(),
            power.shape(),
            "temperature and power grids must match"
        );
        let (rows, cols) = temp.shape();
        let at = |r: isize, c: isize| -> f32 {
            let r = r.clamp(0, rows as isize - 1) as usize;
            let c = c.clamp(0, cols as isize - 1) as usize;
            temp[(r, c)]
        };
        let interior = crate::stencil::interior(tile, 1, 1, rows, cols);
        crate::stencil::for_each_halo(tile, interior, |r, c| {
            let (ri, ci) = (r as isize, c as isize);
            let t = temp[(r, c)];
            let delta = power[(r, c)]
                + (at(ri - 1, ci) + at(ri + 1, ci) - 2.0 * t) / self.ry
                + (at(ri, ci - 1) + at(ri, ci + 1) - 2.0 * t) / self.rx
                + (self.ambient - t) / self.rz;
            out[(r, c)] = t + self.step * delta;
        });
        let Some(i) = interior else { return };
        for r in i.r0..i.r1 {
            let up = &temp.row(r - 1)[i.c0 - 1..i.c1 + 1];
            let mid = &temp.row(r)[i.c0 - 1..i.c1 + 1];
            let dn = &temp.row(r + 1)[i.c0 - 1..i.c1 + 1];
            let pw = &power.row(r)[i.c0..i.c1];
            let dst = out.span_mut(r, i.c0..i.c1);
            for ((((d, &p), u), m), l) in dst
                .iter_mut()
                .zip(pw)
                .zip(up.windows(3))
                .zip(mid.windows(3))
                .zip(dn.windows(3))
            {
                // Same term order as the clamped path.
                let t = m[1];
                let delta = p
                    + (u[1] + l[1] - 2.0 * t) / self.ry
                    + (m[0] + m[2] - 2.0 * t) / self.rx
                    + (self.ambient - t) / self.rz;
                *d = t + self.step * delta;
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        // The NN approximates the PDE update itself, not just the values;
        // its residual error spans several int8 steps.
        8.0
    }

    fn work_per_element(&self) -> f64 {
        14.0
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
    fn equilibrium_at_ambient_with_no_power() {
        let k = Hotspot::default();
        let temp = Tensor::filled(8, 8, k.ambient);
        let power = Tensor::zeros(8, 8);
        let mut out = Tensor::zeros(8, 8);
        k.run_exact(&[&temp, &power], full_tile(8), &mut out);
        for &v in out.as_slice() {
            assert!((v - k.ambient).abs() < 1e-3);
        }
    }

    #[test]
    fn powered_cell_heats_up() {
        let k = Hotspot::default();
        let temp = Tensor::filled(8, 8, k.ambient);
        let mut power = Tensor::zeros(8, 8);
        power[(4, 4)] = 10.0;
        let mut out = Tensor::zeros(8, 8);
        k.run_exact(&[&temp, &power], full_tile(8), &mut out);
        assert!(out[(4, 4)] > k.ambient);
        assert!((out[(0, 0)] - k.ambient).abs() < 1e-3);
    }

    #[test]
    fn hot_cell_diffuses_to_neighbors() {
        let k = Hotspot::default();
        let mut temp = Tensor::filled(8, 8, 300.0);
        temp[(4, 4)] = 400.0;
        let power = Tensor::zeros(8, 8);
        let mut out = Tensor::zeros(8, 8);
        k.run_exact(&[&temp, &power], full_tile(8), &mut out);
        assert!(out[(4, 4)] < 400.0, "hot cell cools");
        assert!(out[(4, 3)] > 300.0, "neighbor warms");
        assert!(out[(4, 5)] > 300.0);
    }

    #[test]
    fn tile_split_matches_full_run() {
        let temp = Tensor::from_fn(16, 16, |r, c| 300.0 + ((r * 7 + c * 3) % 40) as f32);
        let power = Tensor::from_fn(16, 16, |r, c| ((r + c) % 3) as f32 * 0.5);
        let k = Hotspot::default();
        let mut full = Tensor::zeros(16, 16);
        k.run_exact(&[&temp, &power], full_tile(16), &mut full);
        let mut split = Tensor::zeros(16, 16);
        for (i, c0) in [0usize, 8].iter().enumerate() {
            let t = Tile {
                index: i,
                row0: 0,
                col0: *c0,
                rows: 16,
                cols: 8,
            };
            k.run_exact(&[&temp, &power], t, &mut split);
        }
        assert_eq!(full.as_slice(), split.as_slice());
    }
}
