//! Black-Scholes European option pricing (CUDA Examples baseline).
//!
//! Element-wise: each input element is a spot price; the strike, expiry,
//! rate, and volatility are kernel parameters (the CUDA sample draws them
//! from fixed ranges). The output is the call option price.
//!
//! With the strike a fixed multiple of the spot, `d1` and `d2` depend on
//! the spot only through the rounded ratio `s / k`, and a tile's spots
//! round to a handful of ratios. The kernel therefore evaluates `ln`,
//! `exp` and the normal CDF once per distinct ratio (a small memo keyed on
//! its bits) and per element only `s * c1 - (k * discount) * c2`, in the
//! scalar order — bit for bit the per-element formula that
//! `reference::blackscholes` keeps as the oracle.

use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::{Kernel, KernelShape};

/// Black-Scholes call pricing over a tensor of spot prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blackscholes {
    /// Strike price as a multiple of the spot price.
    pub strike_ratio: f32,
    /// Risk-free rate.
    pub rate: f32,
    /// Volatility.
    pub volatility: f32,
    /// Time to expiry in years.
    pub expiry: f32,
}

impl Default for Blackscholes {
    fn default() -> Self {
        Blackscholes {
            strike_ratio: 1.05,
            rate: 0.02,
            volatility: 0.30,
            expiry: 1.0,
        }
    }
}

/// Spot-independent subexpressions of the pricing formula, computed once
/// per tile instead of once per element. Each field is built by the exact
/// expression the scalar path uses, so hoisting changes no output bit.
struct PriceConsts {
    drift: f32,
    vol_sqrt_t: f32,
    discount: f32,
}

impl Blackscholes {
    /// Prices a single call option at spot `s`.
    pub fn price(&self, s: f32) -> f32 {
        let pc = self.consts();
        self.price_with(&pc, s, |ratio| pc.cnds(ratio))
    }

    fn consts(&self) -> PriceConsts {
        let sqrt_t = self.expiry.sqrt();
        PriceConsts {
            drift: (self.rate + 0.5 * self.volatility * self.volatility) * self.expiry,
            vol_sqrt_t: self.volatility * sqrt_t,
            discount: (-self.rate * self.expiry).exp(),
        }
    }

    /// The call price at spot `s`, with `cnds` giving `(cnd(d1), cnd(d2))`
    /// for the rounded ratio `s / k` — the only way `d1` and `d2` depend
    /// on the spot.
    fn price_with(&self, pc: &PriceConsts, s: f32, cnds: impl FnOnce(f32) -> (f32, f32)) -> f32 {
        let s = s.max(1e-6);
        let k = s * self.strike_ratio;
        let (c1, c2) = cnds(s / k);
        s * c1 - k * pc.discount * c2
    }
}

impl PriceConsts {
    /// `(cnd(d1), cnd(d2))` for the rounded spot-to-strike ratio.
    fn cnds(&self, ratio: f32) -> (f32, f32) {
        let d1 = (ratio.ln() + self.drift) / self.vol_sqrt_t;
        let d2 = d1 - self.vol_sqrt_t;
        (cnd(d1), cnd(d2))
    }
}

/// Slots in the per-call memo of [`PriceConsts::cnds`].
const MEMO: usize = 8;

/// A direct-mapped memo of [`PriceConsts::cnds`], keyed on the ratio's
/// bits (so exact for every input, NaN and infinities included) and
/// indexed by their low bits: the few ratios a tile's spots round to are
/// neighbouring floats, which land in different slots. A miss evaluates
/// the formula and takes the slot.
struct CndMemo<'a> {
    pc: &'a PriceConsts,
    slots: [Option<(u32, (f32, f32))>; MEMO],
}

impl<'a> CndMemo<'a> {
    fn new(pc: &'a PriceConsts) -> Self {
        CndMemo {
            pc,
            slots: [None; MEMO],
        }
    }

    fn get(&mut self, ratio: f32) -> (f32, f32) {
        let bits = ratio.to_bits();
        let slot = &mut self.slots[bits as usize % MEMO];
        match *slot {
            Some((key, cnds)) if key == bits => cnds,
            _ => {
                let cnds = self.pc.cnds(ratio);
                *slot = Some((bits, cnds));
                cnds
            }
        }
    }
}

/// Cumulative standard normal distribution via the Abramowitz–Stegun
/// polynomial approximation used by the CUDA sample.
pub(crate) fn cnd(d: f32) -> f32 {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_255_9;
    const A5: f32 = 1.330_274_5;
    const RSQRT2PI: f32 = 0.398_942_3;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = RSQRT2PI * (-0.5 * d * d).exp() * poly;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

impl Kernel for Blackscholes {
    fn name(&self) -> &'static str {
        "Blackscholes"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::elementwise()
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        let pc = self.consts();
        let mut memo = CndMemo::new(&pc);
        for r in tile.row0..tile.row0 + tile.rows {
            let src = &input.row(r)[tile.col0..tile.col0 + tile.cols];
            let dst = out.span_mut(r, tile.col0..tile.col0 + tile.cols);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = self.price_with(&pc, s, |ratio| memo.get(ratio));
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        // The NN approximation of the strongly nonlinear pricing formula is
        // noticeably worse than raw int8 (paper Fig 7: 42% MAPE TPU-only).
        6.0
    }

    fn work_per_element(&self) -> f64 {
        45.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-3);
        assert!(cnd(5.0) > 0.999);
        assert!(cnd(-5.0) < 0.001);
        assert!((cnd(1.0) + cnd(-1.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn call_price_is_positive_and_below_spot() {
        let k = Blackscholes::default();
        for s in [1.0, 30.0, 100.0, 500.0] {
            let p = k.price(s);
            assert!(p > 0.0, "price({s}) = {p}");
            assert!(p < s);
        }
    }

    #[test]
    fn price_is_monotone_in_spot() {
        let k = Blackscholes::default();
        // With strike proportional to spot, the price scales with the spot.
        assert!(k.price(200.0) > k.price(100.0));
    }

    #[test]
    fn memo_is_exact_through_evictions() {
        let pc = Blackscholes::default().consts();
        let mut memo = CndMemo::new(&pc);
        // Three ratios per slot, then values whose bits are special;
        // visited twice, so every slot is hit, evicted and refilled.
        let base = 0.95f32.to_bits();
        let ratios: Vec<f32> = (0..3 * MEMO as u32)
            .map(|i| f32::from_bits(base + i))
            .chain([f32::NAN, f32::INFINITY, 0.0, -0.0, f32::from_bits(1)])
            .collect();
        for _ in 0..2 {
            for &r in &ratios {
                let (got, want) = (memo.get(r), pc.cnds(r));
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "cnd(d1) at {r}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "cnd(d2) at {r}");
            }
        }
    }

    #[test]
    fn tile_execution_matches_scalar() {
        let k = Blackscholes::default();
        let input = Tensor::from_fn(4, 8, |r, c| 20.0 + (r * 8 + c) as f32);
        let mut out = Tensor::zeros(4, 8);
        let tile = Tile {
            index: 0,
            row0: 1,
            col0: 2,
            rows: 2,
            cols: 4,
        };
        k.run_exact(&[&input], tile, &mut out);
        assert_eq!(out[(1, 2)], k.price(input[(1, 2)]));
        assert_eq!(out[(2, 5)], k.price(input[(2, 5)]));
        assert_eq!(out[(0, 0)], 0.0, "outside the tile is untouched");
    }
}
