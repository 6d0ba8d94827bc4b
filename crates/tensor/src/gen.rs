//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on "randomly generated floating-point numbers"
//! (§5.1). For the QAWS mechanism to be observable, partitions must differ
//! in criticality (sampled value range / standard deviation, §3.5); real
//! random datasets have that property because different regions happen to
//! draw different extremes, and image/physics datasets have it structurally.
//! The generators here produce deterministic, seeded fields whose per-block
//! dispersion varies (heavy-tailed block scales), so criticality-aware
//! scheduling has genuine signal to work with.

use crate::rng::Pcg32;
use crate::Tensor;

/// Configuration for [`heterogeneous`] fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldConfig {
    /// Additive base level of the field.
    pub base: f32,
    /// Typical half-range of a block's values.
    pub amplitude: f32,
    /// Edge length of the square blocks that share one dispersion scale.
    pub block: usize,
    /// Heavy-tail exponent: each block's scale is `amplitude * u^(-tail)`
    /// for `u ~ U(0,1]`; larger values produce rarer, wilder blocks.
    pub tail: f32,
}

impl Default for FieldConfig {
    fn default() -> Self {
        FieldConfig {
            base: 0.0,
            amplitude: 1.0,
            block: 64,
            tail: 0.75,
        }
    }
}

/// Uniform random field in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi` or either dimension is zero.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(lo < hi, "uniform range must be non-empty");
    let mut rng = Pcg32::seed_from_u64(seed);
    Tensor::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// A field whose per-block dispersion is heavy-tailed: most blocks are
/// tame, a few have wide value ranges. Wide blocks are exactly the
/// "critical data regions" QAWS keeps on the exact device.
///
/// # Examples
///
/// ```
/// use shmt_tensor::gen::{heterogeneous, FieldConfig};
///
/// let t = heterogeneous(128, 128, 42, FieldConfig::default());
/// let (lo, hi) = t.min_max();
/// assert!(hi > lo);
/// // Deterministic for a fixed seed.
/// let t2 = heterogeneous(128, 128, 42, FieldConfig::default());
/// assert_eq!(t.as_slice(), t2.as_slice());
/// ```
///
/// # Panics
///
/// Panics if either dimension or `cfg.block` is zero.
pub fn heterogeneous(rows: usize, cols: usize, seed: u64, cfg: FieldConfig) -> Tensor {
    assert!(cfg.block > 0, "block size must be positive");
    let brows = rows.div_ceil(cfg.block);
    let bcols = cols.div_ceil(cfg.block);
    let mut scale_rng = Pcg32::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let mut offset_rng = Pcg32::seed_from_u64(seed ^ 0x0ff5_e7e5);
    let scales: Vec<f32> = (0..brows * bcols)
        .map(|_| {
            let u: f32 = scale_rng.gen_range(1e-3_f32..1.0);
            cfg.amplitude * u.powf(-cfg.tail).min(50.0)
        })
        .collect();
    let offsets: Vec<f32> = (0..brows * bcols)
        .map(|_| offset_rng.gen_range(-cfg.amplitude..cfg.amplitude))
        .collect();
    let mut rng = Pcg32::seed_from_u64(seed);
    Tensor::from_fn(rows, cols, |r, c| {
        let b = (r / cfg.block) * bcols + c / cfg.block;
        cfg.base + offsets[b] + scales[b] * rng.gen_range(-1.0_f32..1.0)
    })
}

/// An 8-bit-style image: a smooth low-frequency base (bilinear
/// interpolation of a coarse random grid) plus *rare* textured blocks with
/// heavy-tailed amplitude, clamped to `[0, 255]`.
///
/// Like real photographs, most of the image is locally flat — so edge
/// detectors produce "vast amounts of near-zero values" (paper §5.3) —
/// while the occasional textured block forms the wide-distribution
/// critical region that quality-aware scheduling must catch.
pub fn image8(rows: usize, cols: usize, seed: u64) -> Tensor {
    // Feature granularity scales with the image so partition-level
    // heterogeneity is resolution-independent: at any size, a square tile
    // grid of ~64 partitions sees mostly-flat tiles with a critical
    // minority.
    let g = scaled_block(rows, cols);
    let grows = rows.div_ceil(g) + 1;
    let gcols = cols.div_ceil(g) + 1;
    let mut grid_rng = Pcg32::seed_from_u64(seed ^ 0x1111_2222);
    let grid: Vec<f32> = (0..grows * gcols)
        .map(|_| grid_rng.gen_range(70.0..180.0))
        .collect();

    let brows = rows.div_ceil(g);
    let bcols = cols.div_ceil(g);
    let mut amp_rng = Pcg32::seed_from_u64(seed ^ 0x3333_4444);
    let amps: Vec<f32> = (0..brows * bcols)
        .map(|_| {
            // Heavy tail: ~4% of blocks carry strong texture.
            let u: f32 = amp_rng.gen_range(1e-3_f32..1.0);
            let amp = 0.6 * u.powf(-1.1);
            if amp > 15.0 {
                amp.min(90.0)
            } else {
                amp.min(3.0)
            }
        })
        .collect();

    let mut rng = Pcg32::seed_from_u64(seed);
    let mut img = Tensor::from_fn(rows, cols, |r, c| {
        let (gr, gc) = (r / g, c / g);
        let (fr, fc) = ((r % g) as f32 / g as f32, (c % g) as f32 / g as f32);
        let g00 = grid[gr * gcols + gc];
        let g01 = grid[gr * gcols + gc + 1];
        let g10 = grid[(gr + 1) * gcols + gc];
        let g11 = grid[(gr + 1) * gcols + gc + 1];
        let base = g00 * (1.0 - fr) * (1.0 - fc)
            + g01 * (1.0 - fr) * fc
            + g10 * fr * (1.0 - fc)
            + g11 * fr * fc;
        let amp = amps[gr.min(brows - 1) * bcols + gc.min(bcols - 1)];
        base + amp * rng.gen_range(-1.0_f32..1.0)
    });
    // Real image data is 8-bit integral.
    img.map_inplace(|v| crate::quant::round_half_away(v.clamp(0.0, 255.0)));
    img
}

/// Spatial feature size proportional to the dataset (1/16 of the longer
/// edge, at least 8 elements).
pub fn scaled_block(rows: usize, cols: usize) -> usize {
    (rows.max(cols) / 16).max(8)
}

/// Positive price-like data for the Blackscholes benchmark: strictly
/// positive, heavy-tailed per-block volatility.
pub fn prices(rows: usize, cols: usize, seed: u64) -> Tensor {
    let field = heterogeneous(
        rows,
        cols,
        seed,
        FieldConfig {
            base: 0.0,
            amplitude: 0.5,
            block: scaled_block(rows, cols),
            tail: 0.8,
        },
    );
    field.map(|v| 30.0 * (1.0 + v.clamp(-0.95, 20.0)).max(0.05))
}

/// Temperature-like data for the Hotspot benchmark: a warm plate with a few
/// intense hot blocks.
pub fn temperature(rows: usize, cols: usize, seed: u64) -> Tensor {
    let field = heterogeneous(
        rows,
        cols,
        seed,
        FieldConfig {
            base: 324.0,
            amplitude: 6.0,
            block: scaled_block(rows, cols),
            tail: 0.9,
        },
    );
    field.map(|v| v.clamp(300.0, 400.0))
}

/// Speckled reflectivity data for the SRAD benchmark: positive with
/// multiplicative speckle noise.
pub fn speckle(rows: usize, cols: usize, seed: u64) -> Tensor {
    let img = image8(rows, cols, seed);
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xdead_beef);
    img.map(|v| (v / 255.0).max(0.02) * rng.gen_range(0.5_f32..1.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileSpec;

    #[test]
    fn uniform_stays_in_range() {
        let t = uniform(32, 32, -2.0, 3.0, 7);
        let (lo, hi) = t.min_max();
        assert!(lo >= -2.0 && hi < 3.0);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(image8(16, 16, 1).as_slice(), image8(16, 16, 1).as_slice());
        assert_eq!(prices(16, 16, 2).as_slice(), prices(16, 16, 2).as_slice());
        assert_eq!(
            temperature(16, 16, 3).as_slice(),
            temperature(16, 16, 3).as_slice()
        );
        assert_eq!(speckle(16, 16, 4).as_slice(), speckle(16, 16, 4).as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            heterogeneous(16, 16, 1, FieldConfig::default()).as_slice(),
            heterogeneous(16, 16, 2, FieldConfig::default()).as_slice()
        );
    }

    #[test]
    fn heterogeneous_blocks_have_varying_dispersion() {
        let t = heterogeneous(256, 256, 11, FieldConfig::default());
        let grid = TileSpec::new(64, 64).grid_for(256, 256);
        let mut ranges: Vec<f32> = grid
            .iter()
            .map(|tile| {
                let v = t.view(tile.row0, tile.col0, tile.rows, tile.cols);
                let (lo, hi) = v.min_max();
                hi - lo
            })
            .collect();
        ranges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The widest block should be several times wider than the narrowest:
        // that spread is what criticality sampling detects.
        assert!(
            ranges[ranges.len() - 1] > 3.0 * ranges[0],
            "widest {} vs narrowest {}",
            ranges[ranges.len() - 1],
            ranges[0]
        );
    }

    #[test]
    fn image8_is_clamped() {
        let t = image8(64, 64, 5);
        let (lo, hi) = t.min_max();
        assert!(lo >= 0.0 && hi <= 255.0);
    }

    #[test]
    fn prices_are_positive() {
        let t = prices(64, 64, 6);
        assert!(t.min_max().0 > 0.0);
    }

    #[test]
    fn temperature_is_physical() {
        let (lo, hi) = temperature(64, 64, 9).min_max();
        assert!(lo >= 300.0 && hi <= 400.0);
    }
}
