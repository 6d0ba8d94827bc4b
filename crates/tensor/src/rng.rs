//! A small, seeded, dependency-free PRNG (PCG32, Melissa O'Neill's
//! `pcg32_oneseq`).
//!
//! The reproduction only needs *deterministic, well-mixed* randomness for
//! dataset generation, sampling, and SGD shuffling — not cryptographic
//! strength — so a 16-byte PCG replaces the `rand` crate and keeps the
//! workspace buildable with no registry access. Every user seeds
//! explicitly; two generators with the same seed produce the same stream
//! on every platform.

use std::ops::{Range, RangeInclusive};

/// Multiplier of the PCG LCG step (from the PCG reference implementation).
const PCG_MULT: u64 = 6364136223846793005;
/// Default odd stream-selector increment.
const PCG_INC: u64 = 1442695040888963407;

/// A permuted-congruential generator with 64 bits of state and 32-bit
/// output.
///
/// # Examples
///
/// ```
/// use shmt_tensor::rng::Pcg32;
///
/// let mut a = Pcg32::seed_from_u64(7);
/// let mut b = Pcg32::seed_from_u64(7);
/// assert_eq!(a.next_f64(), b.next_f64());
/// let x = a.gen_range(0.0f32..1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
}

impl Pcg32 {
    /// Creates a generator from a 64-bit seed (same shape as
    /// `rand::SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Self {
        // Standard PCG seeding: advance once from zero state, add the
        // seed, advance again so nearby seeds diverge immediately.
        let mut rng = Pcg32 { state: 0 };
        rng.step();
        rng.state = rng.state.wrapping_add(seed);
        rng.step();
        rng
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(PCG_INC);
    }

    /// The next 32 uniformly distributed bits (XSH-RR output permutation).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// A uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (half-open float/integer ranges and
    /// inclusive integer ranges, mirroring `rand`'s `gen_range`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Ranges [`Pcg32::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Pcg32) -> T;
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut Pcg32) -> f32 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + (self.end - self.start) * rng.next_f32();
        // Float rounding can land exactly on `end`; nudge back inside.
        if v < self.end {
            v
        } else {
            f32::from_bits(self.end.to_bits() - 1).max(self.start)
        }
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Pcg32) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + (self.end - self.start) * rng.next_f64();
        if v < self.end {
            v
        } else {
            f64::from_bits(self.end.to_bits() - 1).max(self.start)
        }
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample(self, rng: &mut Pcg32) -> usize {
        assert!(self.start < self.end, "empty range {:?}", self);
        let span = (self.end - self.start) as u128;
        // Widening-multiply range reduction (Lemire); bias is < 2^-64.
        self.start + ((u128::from(rng.next_u64()) * span) >> 64) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample(self, rng: &mut Pcg32) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range {start}..={end}");
        let span = (end - start) as u128 + 1;
        start + ((u128::from(rng.next_u64()) * span) >> 64) as usize
    }
}

impl SampleRange<u64> for Range<u64> {
    fn sample(self, rng: &mut Pcg32) -> u64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let span = u128::from(self.end - self.start);
        self.start + ((u128::from(rng.next_u64()) * span) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        let mut c = Pcg32::seed_from_u64(43);
        let xs: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        let zs: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..10_000 {
            let f = rng.next_f32();
            assert!((0.0..1.0).contains(&f), "{f}");
            let d = rng.next_f64();
            assert!((0.0..1.0).contains(&d), "{d}");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Pcg32::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&x));
            let i = rng.gen_range(5usize..8);
            assert!((5..8).contains(&i));
            let j = rng.gen_range(0usize..=2);
            assert!(j <= 2);
        }
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut rng = Pcg32::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| f64::from(rng.next_f32())).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        Pcg32::seed_from_u64(0).gen_range(3.0f32..3.0);
    }
}
