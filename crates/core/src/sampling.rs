//! Input sampling for criticality estimation (paper §3.5, Algorithms 3–5).
//!
//! QAWS determines a partition's criticality from a small sample of its
//! input rather than scanning it ("faithfully scanning through the input
//! region increases the computation overhead"). Three mechanisms are
//! provided, matching the paper's:
//!
//! * **Striding** (Algorithm 3): every `s`-th element of the flattened
//!   partition.
//! * **Uniform random** (Algorithm 4): `n` uniformly random elements.
//! * **Reduction** (Algorithm 5): a regular grid scan stepping `s` in each
//!   dimension — more samples are touched and the multi-dimensional
//!   bookkeeping costs more per sample, which is why the paper finds
//!   reduction "performs the worst due to the relatively higher sampling
//!   overhead".

use shmt_tensor::rng::Pcg32;
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

/// The sampling mechanism used by a QAWS policy (the `S`/`U`/`R` suffix in
/// the paper's policy names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingMethod {
    /// Algorithm 3: fixed-stride sampling.
    Striding,
    /// Algorithm 4: uniform random sampling.
    UniformRandom,
    /// Algorithm 5: grid-reduction sampling.
    Reduction,
}

impl SamplingMethod {
    /// The policy-name suffix used in the paper's figures.
    pub fn suffix(&self) -> &'static str {
        match self {
            SamplingMethod::Striding => "S",
            SamplingMethod::UniformRandom => "U",
            SamplingMethod::Reduction => "R",
        }
    }

    /// CPU cost per collected sample, in seconds. Reduction visits a dense
    /// grid (see [`sample_partition`]), so its total cost dwarfs the other
    /// methods even at the same per-visit price.
    fn cost_per_sample(&self) -> f64 {
        match self {
            SamplingMethod::Striding => 8.0e-9,
            SamplingMethod::UniformRandom => 16.0e-9,
            SamplingMethod::Reduction => 8.0e-9,
        }
    }
}

/// Samples drawn from one partition plus the virtual-time cost of drawing
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    /// The sampled values.
    pub values: Vec<f32>,
    /// Virtual CPU seconds spent sampling.
    pub cost_s: f64,
}

/// Draws samples from the `tile` partition of `input`.
///
/// `rate` is the fraction of elements sampled (the paper sweeps
/// 2⁻²¹ … 2⁻¹⁴ in Fig 9); at least one sample is always drawn. `seed`
/// makes random sampling deterministic per run; the tile index is mixed in
/// so partitions draw distinct sequences.
///
/// # Panics
///
/// Panics if `rate` is not in `(0, 1]` or the tile is out of bounds.
pub fn sample_partition(
    input: &Tensor,
    tile: Tile,
    method: SamplingMethod,
    rate: f64,
    seed: u64,
) -> SampleSet {
    let mut values = Vec::new();
    let cost_s = sample_partition_into(input, tile, method, rate, seed, &mut values);
    SampleSet { values, cost_s }
}

/// Out-param form of [`sample_partition`]: appends the drawn values to
/// `values` (after clearing it) and returns the virtual sampling cost.
/// The planner's warm path reuses one pooled buffer across partitions
/// instead of allocating a fresh `Vec` per draw.
pub fn sample_partition_into(
    input: &Tensor,
    tile: Tile,
    method: SamplingMethod,
    rate: f64,
    seed: u64,
    values: &mut Vec<f32>,
) -> f64 {
    assert!(
        rate > 0.0 && rate <= 1.0,
        "sampling rate must be in (0, 1], got {rate}"
    );
    values.clear();
    let len = tile.len();
    let n = ((len as f64 * rate).round() as usize).clamp(1, len);
    let view = input.view(tile.row0, tile.col0, tile.rows, tile.cols);
    let at_flat = |i: usize| -> f32 {
        let r = i / tile.cols;
        let c = i % tile.cols;
        view.at(r, c)
    };
    match method {
        SamplingMethod::Striding => {
            // Algorithm 3: S[i] = D[i * s]. A stride that divides the row
            // width would pin every sample to one column of the partition;
            // nudging it off the multiple restores 2-D coverage.
            let mut s = (len / n).max(1);
            if s > 1 && s % tile.cols == 0 {
                s += 1;
            }
            // The bump can push tail indices past the end of the
            // partition; wrapping keeps every draw a distinct element
            // instead of collecting the final one repeatedly (which
            // silently biased the criticality std-dev toward it).
            values.extend((0..n).map(|i| at_flat((i * s) % len)));
        }
        SamplingMethod::UniformRandom => {
            // Algorithm 4: S[i] = D[random()].
            let mut rng = Pcg32::seed_from_u64(
                seed ^ (tile.index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            values.extend((0..n).map(|_| at_flat(rng.gen_range(0..len))));
        }
        SamplingMethod::Reduction => {
            // Algorithm 5: nested per-dimension strides with a small, fixed
            // step. Unlike the count-targeted methods above, reduction
            // scans a dense grid of the partition — it is the most
            // accurate criticality estimate and by far the most expensive
            // (the paper: reduction "performs the worst due to the
            // relatively higher sampling overhead" yet its QAWS variants
            // deliver the best quality).
            const STEP: usize = 8;
            let step_r = STEP.min(tile.rows.div_ceil(2)).max(1);
            let step_c = STEP.min(tile.cols.div_ceil(2)).max(1);
            values.reserve((tile.rows / step_r + 1) * (tile.cols / step_c + 1));
            let mut r = 0;
            while r < tile.rows {
                let mut c = 0;
                while c < tile.cols {
                    values.push(view.at(r, c));
                    c += step_c;
                }
                r += step_r;
            }
        }
    }
    values.len() as f64 * method.cost_per_sample()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(rows: usize, cols: usize) -> Tile {
        Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows,
            cols,
        }
    }

    #[test]
    fn striding_draws_requested_count() {
        let t = Tensor::from_fn(32, 32, |r, c| (r * 32 + c) as f32);
        let s = sample_partition(&t, tile(32, 32), SamplingMethod::Striding, 1.0 / 64.0, 1);
        assert_eq!(s.values.len(), 16);
        // Stride of 64 would pin every sample to column 0 of the 32-wide
        // tile; the column-drift correction bumps it to 65.
        assert_eq!(s.values[0], 0.0);
        assert_eq!(s.values[1], 65.0);

        // Overflow regime: an 8-wide tile bumps the stride from 8 to 9,
        // so the tail indices (57*9 = 513, …) pass the 512-element end of
        // the partition. They must wrap to fresh elements, not pile up on
        // the last one.
        let t = Tensor::from_fn(64, 8, |r, c| (r * 8 + c) as f32);
        let s = sample_partition(&t, tile(64, 8), SamplingMethod::Striding, 1.0 / 8.0, 1);
        assert_eq!(s.values.len(), 64);
        let distinct: std::collections::BTreeSet<i64> =
            s.values.iter().map(|&v| v as i64).collect();
        assert_eq!(
            distinct.len(),
            64,
            "every overflow draw is a distinct element"
        );
        let last = (64 * 8 - 1) as f32;
        assert_eq!(
            s.values.iter().filter(|&&v| v == last).count(),
            0,
            "tail draws no longer clamp to the final element"
        );
    }

    #[test]
    fn striding_covers_multiple_columns() {
        // Regression: strides that divide the tile width must not sample a
        // single column.
        let t = Tensor::from_fn(64, 64, |_, c| c as f32);
        let s = sample_partition(&t, tile(64, 64), SamplingMethod::Striding, 8.0 / 4096.0, 1);
        let distinct: std::collections::BTreeSet<i64> =
            s.values.iter().map(|&v| v as i64).collect();
        assert!(distinct.len() > 1, "samples all came from one column");
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        let t = Tensor::from_fn(16, 16, |r, c| (r * 16 + c) as f32);
        let a = sample_partition(&t, tile(16, 16), SamplingMethod::UniformRandom, 0.1, 7);
        let b = sample_partition(&t, tile(16, 16), SamplingMethod::UniformRandom, 0.1, 7);
        let c = sample_partition(&t, tile(16, 16), SamplingMethod::UniformRandom, 0.1, 8);
        assert_eq!(a.values, b.values);
        assert_ne!(a.values, c.values);
    }

    #[test]
    fn reduction_scans_a_dense_grid() {
        let t = Tensor::from_fn(16, 16, |r, c| (r * 16 + c) as f32);
        let s = sample_partition(&t, tile(16, 16), SamplingMethod::Reduction, 16.0 / 256.0, 1);
        // Step-8 grid over 16x16 = 4 visits regardless of the rate.
        assert_eq!(s.values.len(), 4);
        assert_eq!(s.values[0], 0.0);
        assert_eq!(s.values[1], 8.0);
    }

    #[test]
    fn reduction_total_cost_exceeds_striding() {
        let t = Tensor::from_fn(64, 64, |r, c| (r + c) as f32);
        let red = sample_partition(&t, tile(64, 64), SamplingMethod::Reduction, 0.001, 1);
        let stri = sample_partition(&t, tile(64, 64), SamplingMethod::Striding, 0.001, 1);
        assert!(
            red.cost_s > 3.0 * stri.cost_s,
            "{} vs {}",
            red.cost_s,
            stri.cost_s
        );
    }

    #[test]
    fn minimum_one_sample() {
        let t = Tensor::from_fn(64, 64, |_, _| 1.0);
        for m in [
            SamplingMethod::Striding,
            SamplingMethod::UniformRandom,
            SamplingMethod::Reduction,
        ] {
            let s = sample_partition(&t, tile(64, 64), m, 1e-9, 1);
            assert!(!s.values.is_empty(), "{m:?}");
        }
    }

    #[test]
    fn random_costs_more_per_sample_than_striding() {
        assert!(
            SamplingMethod::UniformRandom.cost_per_sample()
                > SamplingMethod::Striding.cost_per_sample()
        );
    }

    #[test]
    fn samples_come_from_the_tile() {
        let t = Tensor::from_fn(8, 8, |r, c| if r >= 4 { 100.0 + (c as f32) } else { 0.0 });
        let bottom = Tile {
            index: 1,
            row0: 4,
            col0: 0,
            rows: 4,
            cols: 8,
        };
        for m in [
            SamplingMethod::Striding,
            SamplingMethod::UniformRandom,
            SamplingMethod::Reduction,
        ] {
            let s = sample_partition(&t, bottom, m, 0.5, 3);
            assert!(
                s.values.iter().all(|&v| v >= 100.0),
                "{m:?}: {:?}",
                s.values
            );
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn zero_rate_rejected() {
        let t = Tensor::zeros(4, 4);
        sample_partition(&t, tile(4, 4), SamplingMethod::Striding, 0.0, 1);
    }
}
