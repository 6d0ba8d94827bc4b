//! Row-wise fast Fourier transform magnitude (CUDA Examples baseline).
//!
//! Each dataset row is one real signal; the kernel emits the magnitude
//! spectrum of its DFT. Rows are independent, so HLOP partitions are bands
//! of full rows ([`KernelShape::full_rows`]). Power-of-two rows use an
//! iterative radix-2 FFT; other lengths fall back to a naive DFT (only used
//! by small tests).

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// Row-wise FFT magnitude kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowFft;

/// Computes the DFT magnitude of a real signal.
pub fn fft_magnitude(signal: &[f32]) -> Vec<f32> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() && n >= 2 {
        let mut re: Vec<f32> = signal.to_vec();
        let mut im = vec![0.0f32; n];
        fft_radix2(&mut re, &mut im);
        re.iter()
            .zip(&im)
            .map(|(r, i)| (r * r + i * i).sqrt())
            .collect()
    } else {
        naive_dft_magnitude(signal)
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_radix2(re: &mut [f32], im: &mut [f32]) {
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

fn naive_dft_magnitude(signal: &[f32]) -> Vec<f32> {
    let n = signal.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (t, &x) in signal.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                re += x as f64 * ang.cos();
                im += x as f64 * ang.sin();
            }
            ((re * re + im * im).sqrt()) as f32
        })
        .collect()
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
        if n.is_power_of_two() && n >= 2 {
            // Reuse one complex scratch pair across all rows and write the
            // magnitudes straight into the output row.
            let mut re = vec![0.0f32; n];
            let mut im = vec![0.0f32; n];
            for r in tile.row0..tile.row0 + tile.rows {
                re.copy_from_slice(input.row(r));
                im.fill(0.0);
                fft_radix2(&mut re, &mut im);
                let dst = out.span_mut(r, 0..n);
                for ((d, &rr), &ii) in dst.iter_mut().zip(&re).zip(&im) {
                    *d = (rr * rr + ii * ii).sqrt();
                }
            }
        } else {
            for r in tile.row0..tile.row0 + tile.rows {
                let mag = fft_magnitude(input.row(r));
                out.span_mut(r, 0..n).copy_from_slice(&mag);
            }
        }
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

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0f32; 16];
        signal[0] = 1.0;
        let mag = fft_magnitude(&signal);
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
        let mag = fft_magnitude(&signal);
        assert!((mag[4] - n as f32 / 2.0).abs() < 1e-2, "bin4 = {}", mag[4]);
        assert!(mag[5] < 1e-2);
    }

    #[test]
    fn radix2_matches_naive_dft() {
        let signal: Vec<f32> = (0..32).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let fast = fft_magnitude(&signal);
        let slow = naive_dft_magnitude(&signal);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn non_power_of_two_falls_back() {
        let signal = vec![1.0f32; 12];
        let mag = fft_magnitude(&signal);
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
