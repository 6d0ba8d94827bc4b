//! Calibration of the virtual platform against the paper's measurements.
//!
//! We cannot re-measure the Jetson Nano + Edge TPU silicon, so the
//! per-benchmark *device speed ratios* come from the paper's own Fig 2
//! (solo Edge TPU speedup over the GPU baseline for each benchmark), and a
//! small set of global overhead parameters (casting cost, bus, launch
//! overheads) is tuned once. Quality numbers are **not** calibrated — they
//! come from genuinely computed outputs.
//!
//! CPU ratios are not reported in the paper; they are chosen on
//! microarchitectural grounds (the quad-A57 is relatively strong on
//! memory-bound 3x3 stencils and weak on compute-dense transforms), at
//! magnitudes consistent with the paper's measured work-stealing speedups
//! exceeding `1 + tpu_ratio` for the stencil benchmarks.

//! [`AdaptiveCalibration`] is the one planner input kept beside the
//! tables: a static TPU admission multiplier that `sched::plan` applies.
//! It is set per configuration, never learnt from earlier requests, so a
//! plan depends only on its own request.

use shmt_kernels::Benchmark;

use crate::error::{Result, ShmtError};

/// Global platform calibration constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Sustained GPU throughput in kernel work-units per second.
    pub gpu_throughput: f64,
    /// CPU-side cost of casting one element to/from int8 for the Edge TPU
    /// (seconds per element), §3.3.2's data-type casting.
    pub cast_s_per_elem: f64,
    /// Bytes per element crossing the PCIe bus to the Edge TPU (int8 in).
    pub tpu_bytes_per_elem_in: f64,
    /// Bytes per element returning from the Edge TPU (int8 out).
    pub tpu_bytes_per_elem_out: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            // ~472 GFLOPS peak Maxwell; sustained effective rate on these
            // memory-bound kernels is far lower.
            gpu_throughput: 20.0e9,
            cast_s_per_elem: 0.2e-9,
            tpu_bytes_per_elem_in: 1.0,
            tpu_bytes_per_elem_out: 1.0,
        }
    }
}

/// Per-benchmark calibration: device speed ratios and model factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// Application-dependent fraction of partitions that are generally
    /// critical — the paper's per-VOP Top-K hint "the programmer or the
    /// library composer should provide" (§3.5).
    pub criticality_hint: f64,
    /// Edge TPU sustained speed relative to the GPU for this kernel —
    /// the paper's Fig 2 "edge TPU" bar.
    pub tpu_ratio: f64,
    /// CPU sustained speed relative to the GPU (not reported by the paper;
    /// see module docs).
    pub cpu_ratio: f64,
    /// CPU-side per-chunk staging work in the *baseline* GPU
    /// implementation, as a fraction of GPU kernel time. Serial in the
    /// baseline, overlapped by software pipelining and by SHMT's runtime.
    pub host_staging_frac: f64,
    /// GPU intermediate buffers, in dataset-sized f32 units (Fig 11's
    /// footprint model: Edge TPU HLOPs replace these with on-chip buffers).
    pub gpu_intermediate: f64,
}

/// The calibrated per-benchmark profiles.
pub fn bench_profile(b: Benchmark) -> BenchProfile {
    // tpu_ratio column is Fig 2 of the paper, verbatim.
    match b {
        Benchmark::Blackscholes => BenchProfile {
            criticality_hint: 0.3,
            tpu_ratio: 0.84,
            cpu_ratio: 0.30,
            host_staging_frac: 0.25,
            gpu_intermediate: 0.1,
        },
        Benchmark::Dct8x8 => BenchProfile {
            criticality_hint: 0.4,
            tpu_ratio: 1.99,
            cpu_ratio: 0.20,
            host_staging_frac: 0.10,
            gpu_intermediate: 0.3,
        },
        Benchmark::Dwt => BenchProfile {
            criticality_hint: 0.3,
            tpu_ratio: 0.31,
            cpu_ratio: 0.25,
            host_staging_frac: 0.10,
            gpu_intermediate: 0.5,
        },
        Benchmark::Fft => BenchProfile {
            criticality_hint: 0.3,
            tpu_ratio: 3.22,
            cpu_ratio: 0.20,
            host_staging_frac: 0.20,
            gpu_intermediate: 0.5,
        },
        Benchmark::Histogram => BenchProfile {
            criticality_hint: 0.25,
            tpu_ratio: 1.55,
            cpu_ratio: 0.40,
            host_staging_frac: 0.06,
            gpu_intermediate: 0.1,
        },
        Benchmark::Hotspot => BenchProfile {
            criticality_hint: 0.3,
            tpu_ratio: 0.77,
            cpu_ratio: 0.30,
            host_staging_frac: 0.03,
            gpu_intermediate: 0.4,
        },
        Benchmark::Laplacian => BenchProfile {
            criticality_hint: 0.5,
            tpu_ratio: 0.58,
            cpu_ratio: 0.85,
            host_staging_frac: 0.12,
            gpu_intermediate: 0.2,
        },
        Benchmark::MeanFilter => BenchProfile {
            criticality_hint: 0.35,
            tpu_ratio: 0.31,
            cpu_ratio: 0.65,
            host_staging_frac: 0.20,
            gpu_intermediate: 0.2,
        },
        Benchmark::Sobel => BenchProfile {
            criticality_hint: 0.4,
            tpu_ratio: 0.71,
            cpu_ratio: 0.50,
            host_staging_frac: 0.25,
            gpu_intermediate: 3.0,
        },
        Benchmark::Srad => BenchProfile {
            criticality_hint: 0.35,
            tpu_ratio: 2.30,
            cpu_ratio: 0.20,
            host_staging_frac: 0.13,
            gpu_intermediate: 2.5,
        },
    }
}

/// Profile used for non-benchmark VOPs (the Table 1 vector primitives).
pub fn generic_profile() -> BenchProfile {
    BenchProfile {
        criticality_hint: 0.2,
        tpu_ratio: 1.0,
        cpu_ratio: 0.30,
        host_staging_frac: 0.05,
        gpu_intermediate: 0.1,
    }
}

/// Static planner input carried on [`crate::RuntimeConfig::adapt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveCalibration {
    /// Multiplier on the planner's TPU admission aperture: scales the
    /// QAWS window share left to the TPU and its device limit. 1.0 is
    /// the static planner; 0.0 evicts the TPU from planning.
    pub tpu_admission: f64,
}

impl AdaptiveCalibration {
    /// The identity (admission 1.0).
    pub fn neutral() -> Self {
        AdaptiveCalibration { tpu_admission: 1.0 }
    }

    /// Rejects a non-finite or negative admission before a run.
    pub fn validate(&self) -> Result<()> {
        if !self.tpu_admission.is_finite() || self.tpu_admission < 0.0 {
            return Err(ShmtError::InvalidConfig(format!(
                "TPU admission must be finite and >= 0, got {}",
                self.tpu_admission
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmt_kernels::ALL_BENCHMARKS;

    #[test]
    fn tpu_ratios_match_figure_2() {
        // The headline numbers of the paper's motivation figure.
        assert_eq!(bench_profile(Benchmark::Fft).tpu_ratio, 3.22);
        assert_eq!(bench_profile(Benchmark::Srad).tpu_ratio, 2.30);
        assert_eq!(bench_profile(Benchmark::MeanFilter).tpu_ratio, 0.31);
        // Geometric mean of the solo TPU column is ~0.95 (paper: "5%
        // slower than GPUs on average").
        let gmean = ALL_BENCHMARKS
            .iter()
            .map(|b| bench_profile(*b).tpu_ratio.ln())
            .sum::<f64>()
            .exp()
            .powf(0.1_f64);
        // exp(sum/10) == (exp(sum))^(1/10)
        assert!((gmean - 0.95).abs() < 0.02, "gmean = {gmean}");
    }

    #[test]
    fn all_profiles_are_sane() {
        for b in ALL_BENCHMARKS {
            let p = bench_profile(b);
            assert!(p.tpu_ratio > 0.0 && p.cpu_ratio > 0.0, "{b}");
            assert!((0.0..1.0).contains(&p.host_staging_frac), "{b}");
            assert!((0.0..=1.0).contains(&p.criticality_hint), "{b}");
            assert!(p.gpu_intermediate >= 0.0, "{b}");
        }
        let c = Calibration::default();
        assert!(c.gpu_throughput > 0.0 && c.cast_s_per_elem > 0.0);
    }

    #[test]
    fn validate_rejects_degenerate_calibrations() {
        for tpu_admission in [f64::NAN, f64::INFINITY, -0.5] {
            assert!(AdaptiveCalibration { tpu_admission }.validate().is_err());
        }
        assert!(AdaptiveCalibration::neutral().validate().is_ok());
    }
}
