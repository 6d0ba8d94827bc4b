//! Partition criticality metrics (paper §3.5).
//!
//! SHMT borrows the input-evaluation half of IRA's canary technique: the
//! criticality of a data partition is estimated from its sampled **value
//! range** and **standard deviation** — "critical regions \[are\] data
//! partitions with the widest value distributions". Partitions with wide
//! distributions lose the most absolute precision through the Edge TPU's
//! int8 grid, so they are the ones QAWS keeps on exact hardware.

/// Summary statistics of one partition's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalityStats {
    /// Sampled minimum.
    pub min: f32,
    /// Sampled maximum.
    pub max: f32,
    /// Sampled standard deviation.
    pub stddev: f32,
}

impl CriticalityStats {
    /// Computes statistics from a sample set.
    ///
    /// Empty or all-NaN samples yield all-zero statistics (a partition we
    /// know nothing about is treated as non-critical).
    pub fn from_samples(samples: &[f32]) -> Self {
        // Streamed over the raw slice instead of collecting the finite
        // values first: visits the same values in the same order as the
        // old filtered copy, so every fold is bit-identical — minus one
        // heap allocation per scored partition.
        let finite = || samples.iter().copied().filter(|v| v.is_finite());
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for v in finite() {
            if count == 0 {
                min = v;
                max = v;
            }
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
            count += 1;
        }
        if count == 0 {
            return CriticalityStats {
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let mean = sum / count as f64;
        let var = finite().map(|v| (v as f64 - mean).powi(2)).sum::<f64>() / count as f64;
        CriticalityStats {
            min,
            max,
            stddev: var.sqrt() as f32,
        }
    }

    /// Sampled value range.
    pub fn range(&self) -> f32 {
        self.max - self.min
    }

    /// The scalar criticality score: `range + 2 * stddev`, combining both
    /// of the paper's dispersion signals.
    pub fn score(&self) -> f32 {
        self.range() + 2.0 * self.stddev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computed() {
        let s = CriticalityStats::from_samples(&[1.0, 3.0, 5.0, 7.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.range(), 6.0);
        // Population stddev of {1,3,5,7} = sqrt(5).
        assert!((s.stddev - 5.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn wide_distribution_scores_higher() {
        let narrow = CriticalityStats::from_samples(&[10.0, 10.1, 10.2, 9.9]);
        let wide = CriticalityStats::from_samples(&[0.0, 50.0, -50.0, 10.0]);
        assert!(wide.score() > narrow.score());
    }

    #[test]
    fn degenerate_samples_are_noncritical() {
        let s = CriticalityStats::from_samples(&[]);
        assert_eq!(s.score(), 0.0);
        let nan = CriticalityStats::from_samples(&[f32::NAN, f32::INFINITY]);
        assert_eq!(nan.score(), 0.0);
    }

    #[test]
    fn constant_samples_have_zero_score() {
        let s = CriticalityStats::from_samples(&[4.0; 16]);
        assert_eq!(s.score(), 0.0);
    }
}
