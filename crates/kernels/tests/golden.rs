//! Golden bit-exactness suite.
//!
//! The optimized kernels (interior/halo stencil split, blocked GEMM,
//! hoisted constants, the DCT accumulated across a block row's output
//! columns, the FFT's table-twiddle butterflies on vector lanes, the
//! Black-Scholes per-ratio memo, scratch-reusing DWT) promise
//! **bit-identical** outputs to the original naive loops preserved in
//! `shmt_kernels::reference`. This suite enforces that promise with exact
//! equality — no epsilon — for every benchmark on both the exact and NPU
//! paths, over a full-dataset tile and a multi-tile split that exercises
//! the interior fast path and the clamped halo separately.
//!
//! The dataset shape is deliberately awkward: non-square and not a
//! multiple of the 8/32 block edges, so block kernels hit their clamped
//! partial blocks and stencil tiles end mid-row. Further cases pin what a
//! rewrite could get wrong away from the generated data: DCT tiles that end
//! mid-block; FFT bands of every height against the kernel's 8 row lanes,
//! at row lengths from 2 up to past its stack scratch (an arena page), on
//! generated rows and on rows of NaN, infinities, signed zeros, subnormals
//! and near-overflow values; and Black-Scholes spots and strike ratios that
//! reach NaN, infinities, signed zeros and subnormals (compared bit for
//! bit, NaN payloads included).

use shmt_kernels::reference::naive_kernel;
use shmt_kernels::{Benchmark, Kernel, KernelShape, ALL_BENCHMARKS};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

/// Awkward default shape: non-square, not a multiple of 8 or 32.
const ROWS: usize = 67;
const COLS: usize = 101;

fn tile(index: usize, row0: usize, col0: usize, rows: usize, cols: usize) -> Tile {
    Tile {
        index,
        row0,
        col0,
        rows,
        cols,
    }
}

/// The dataset shape each benchmark is checked on. The FFT's radix-2 fast
/// path needs power-of-two row length (its fallback is covered by
/// `fft_non_power_of_two_matches_reference`).
fn dims(b: Benchmark) -> (usize, usize) {
    match b {
        Benchmark::Fft => (ROWS, 128),
        _ => (ROWS, COLS),
    }
}

/// A single tile spanning the whole dataset.
fn full_plan(rows: usize, cols: usize) -> Vec<Tile> {
    vec![tile(0, 0, 0, rows, cols)]
}

/// A split plan honoring the kernel's partitioning constraints, chosen so
/// some tiles sit strictly inside the dataset (pure interior path) while
/// others touch every dataset edge (clamped halo path).
fn split_plan(shape: KernelShape, rows: usize, cols: usize) -> Vec<Tile> {
    if shape.full_rows {
        let r1 = rows / 3;
        let r2 = 2 * rows / 3;
        return vec![
            tile(0, 0, 0, r1, cols),
            tile(1, r1, 0, r2 - r1, cols),
            tile(2, r2, 0, rows - r2, cols),
        ];
    }
    let a = shape.block_align;
    let r1 = (rows / 2 / a) * a;
    let c1 = (cols / 2 / a) * a;
    assert!(r1 > 0 && c1 > 0, "split points degenerate for align {a}");
    vec![
        tile(0, 0, 0, r1, c1),
        tile(1, 0, c1, r1, cols - c1),
        tile(2, r1, 0, rows - r1, c1),
        tile(3, r1, c1, rows - r1, cols - c1),
    ]
}

/// Runs `kernel` over `plan` on a fresh output, via the exact or NPU path.
fn run_plan(kernel: &dyn Kernel, inputs: &[&Tensor], plan: &[Tile], npu: bool) -> Tensor {
    let (rows, cols) = inputs[0].shape();
    let mut out = kernel.shape().allocate_output(rows, cols);
    for t in plan {
        if npu {
            kernel.run_npu(inputs, *t, &mut out);
        } else {
            kernel.run_exact(inputs, *t, &mut out);
        }
    }
    kernel.finalize(&mut out);
    out
}

fn check_benchmark(b: Benchmark) {
    let (rows, cols) = dims(b);
    let inputs = b.generate_inputs(rows, cols, 7);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let optimized = b.kernel();
    let naive = naive_kernel(b);
    let shape = optimized.shape();
    for (label, plan) in [
        ("full", full_plan(rows, cols)),
        ("split", split_plan(shape, rows, cols)),
    ] {
        for npu in [false, true] {
            let got = run_plan(optimized.as_ref(), &refs, &plan, npu);
            let want = run_plan(naive.as_ref(), &refs, &plan, npu);
            let path = if npu { "npu" } else { "exact" };
            assert!(
                got.as_slice() == want.as_slice(),
                "{b:?} {path} {label}: optimized output diverges from naive reference"
            );
        }
    }
}

#[test]
fn all_benchmarks_match_reference_bit_for_bit() {
    for b in ALL_BENCHMARKS {
        check_benchmark(b);
    }
}

#[test]
fn fft_non_power_of_two_matches_reference() {
    let b = Benchmark::Fft;
    let inputs = b.generate_inputs(33, 60, 11);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let optimized = b.kernel();
    let naive = naive_kernel(b);
    for plan in [full_plan(33, 60), split_plan(optimized.shape(), 33, 60)] {
        let got = run_plan(optimized.as_ref(), &refs, &plan, false);
        let want = run_plan(naive.as_ref(), &refs, &plan, false);
        assert!(got.as_slice() == want.as_slice(), "fft fallback diverges");
    }
}

/// Runs `optimized` and `naive` over each plan on both paths and asserts
/// the outputs equal bit for bit (so NaN results must match too).
fn assert_same_bits(
    optimized: &dyn Kernel,
    naive: &dyn Kernel,
    inputs: &[&Tensor],
    plans: &[Vec<Tile>],
    label: &str,
) {
    for plan in plans {
        for npu in [false, true] {
            let got = run_plan(optimized, inputs, plan, npu);
            let want = run_plan(naive, inputs, plan, npu);
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let path = if npu { "npu" } else { "exact" };
            assert!(
                same,
                "{label} {path} {plan:?}: diverges from naive reference"
            );
        }
    }
}

#[test]
fn dct_clips_tiles_that_end_mid_block() {
    // Block-aligned tiles whose last block row and column are cut by the
    // tile inside the dataset, and one whose blocks straddle both dataset
    // edges (67 = 8*8 + 3 rows, 101 = 12*8 + 5 columns).
    let b = Benchmark::Dct8x8;
    let inputs = b.generate_inputs(ROWS, COLS, 5);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let plans = [
        vec![tile(0, 16, 8, 5, 13)],
        vec![tile(0, 8, 0, 1, 1), tile(1, 24, 40, 9, 7)],
        vec![tile(0, 56, 88, ROWS - 56, COLS - 88)],
    ];
    assert_same_bits(
        b.kernel().as_ref(),
        naive_kernel(b).as_ref(),
        &refs,
        &plans,
        "DCT8x8",
    );
}

#[test]
fn fft_long_rows_match_reference() {
    // Rows longer than the 2048 elements the kernel keeps on its stack:
    // the complex scratch comes from an arena page instead.
    let b = Benchmark::Fft;
    let (rows, cols) = (5, 4096);
    let inputs = b.generate_inputs(rows, cols, 13);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let optimized = b.kernel();
    let plans = [
        full_plan(rows, cols),
        split_plan(optimized.shape(), rows, cols),
    ];
    assert_same_bits(
        optimized.as_ref(),
        naive_kernel(b).as_ref(),
        &refs,
        &plans,
        "FFT",
    );
}

/// `input` with each row given one recipe of values the butterflies must
/// carry through unchanged, so clean rows share a band with poisoned ones:
/// NaNs (with payloads, either sign), infinities, signed zeros, subnormals,
/// and values near `f32::MAX` whose sums overflow.
fn fft_adversarial_rows(mut input: Tensor) -> Tensor {
    let cols = input.cols();
    let tiny = [
        f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        -f32::from_bits(0x7f),
    ];
    let huge = [f32::MAX, -f32::MAX, f32::MAX / 2.0, 3.0e38];
    for (r, row) in input.as_mut_slice().chunks_exact_mut(cols).enumerate() {
        match r % 7 {
            0 => {}
            1 => {
                row[0] = f32::from_bits(0x7fc0_1234);
                row[cols - 1] = f32::from_bits(0xffc0_0042);
            }
            2 => {
                row[0] = f32::INFINITY;
                row[cols - 1] = f32::NEG_INFINITY;
            }
            3 => row.fill(-0.0),
            4 => {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = if c % 2 == 0 { tiny[c % 3] } else { -0.0 };
                }
            }
            5 => {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = huge[c % 4];
                }
            }
            _ => row[cols / 2] = -f32::NAN,
        }
    }
    input
}

#[test]
fn fft_bands_of_every_height_match_reference() {
    // Band heights 1 through 17 (every remainder of the kernel's 8 row
    // lanes, one full group, two groups plus one), each band starting at a
    // different row, at the shortest radix-2 rows, the suite's default,
    // the benchmark's, and one long enough for an arena page. NaN results
    // must match bit for bit, payloads included.
    let b = Benchmark::Fft;
    let heights = 1..=17;
    let rows = heights.end() + 2;
    for cols in [2, 4, 8, 128, 1024, 4096] {
        let generated = b.generate_inputs(rows, cols, 17).remove(0);
        let adversarial = fft_adversarial_rows(b.generate_inputs(rows, cols, 19).remove(0));
        let plans: Vec<Vec<Tile>> = heights
            .clone()
            .map(|h| vec![tile(0, h % 3, 0, h, cols)])
            .collect();
        for (label, input) in [("generated", &generated), ("adversarial", &adversarial)] {
            assert_same_bits(
                b.kernel().as_ref(),
                naive_kernel(b).as_ref(),
                &[input],
                &plans,
                &format!("FFT {label} n={cols}"),
            );
        }
    }
}

#[test]
fn blackscholes_matches_reference_on_adversarial_spots() {
    use shmt_kernels::blackscholes::Blackscholes;
    // Spots the pricing formula has to survive, sprinkled over generated
    // prices: NaN, signed zeros, negatives, infinities, subnormals, and
    // values far below and above the 1e-6 floor.
    let odd = [
        f32::NAN,
        0.0,
        -0.0,
        -3.5,
        -1e30,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        1e-7,
        1e-6,
        1e30,
        f32::MAX,
    ];
    let mut input = Benchmark::Blackscholes
        .generate_inputs(ROWS, COLS, 9)
        .remove(0);
    for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = odd[(i / 5) % odd.len()];
        }
    }
    let refs = [&input];
    for strike_ratio in [Blackscholes::default().strike_ratio, 1.0, 0.8, 1.3] {
        let k = Blackscholes {
            strike_ratio,
            ..Blackscholes::default()
        };
        let plans = [full_plan(ROWS, COLS), split_plan(k.shape(), ROWS, COLS)];
        let naive = shmt_kernels::reference::blackscholes(k);
        assert_same_bits(&k, &naive, &refs, &plans, &format!("strike {strike_ratio}"));
    }
}

#[test]
fn blackscholes_memo_evicts_without_changing_a_bit() {
    use shmt_kernels::blackscholes::Blackscholes;
    use std::collections::HashSet;
    // A strike ratio that drives the strike into the subnormals, where
    // `s * ratio` keeps only a few bits: the spot-to-strike ratio then
    // takes far more values in one tile than the kernel's 8-slot memo
    // holds, so slots are evicted and refilled throughout. The ratio is
    // about 1e36; a rate that cancels its log (ln 1e36 ≈ 82.9) keeps `d1`
    // near zero, where neighbouring ratios give different CDF values — so
    // a memo answering for the wrong ratio changes the output.
    let k = Blackscholes {
        strike_ratio: 1e-36,
        rate: -83.5,
        volatility: 1.0,
        expiry: 1.0,
    };
    let input = Tensor::from_fn(ROWS, COLS, |r, c| {
        1e-6 * (1.0 + (r * COLS + c) as f32 * 0.37)
    });
    let ratios: HashSet<u32> = input
        .as_slice()
        .iter()
        .map(|&s| {
            let s = s.max(1e-6);
            (s / (s * k.strike_ratio)).to_bits()
        })
        .collect();
    assert!(ratios.len() >= 64, "only {} distinct ratios", ratios.len());
    let naive = shmt_kernels::reference::blackscholes(k);
    let plans = [full_plan(ROWS, COLS), split_plan(k.shape(), ROWS, COLS)];
    assert_same_bits(&k, &naive, &[&input], &plans, "subnormal strike");
}

#[test]
fn conv_matches_reference_bit_for_bit() {
    use shmt_kernels::conv::Conv2d;
    let input = Tensor::from_fn(ROWS, COLS, |r, c| ((r * 31 + c * 17) % 255) as f32);
    let refs = [&input];
    for filter in [Conv2d::gaussian3x3().filter().clone(), {
        // A 5x3 filter exercises asymmetric halos.
        Tensor::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 - 7.0) * 0.125)
    }] {
        let optimized = Conv2d::new(filter.clone());
        let naive = shmt_kernels::reference::conv2d(Conv2d::new(filter));
        for plan in [
            full_plan(ROWS, COLS),
            split_plan(optimized.shape(), ROWS, COLS),
        ] {
            for npu in [false, true] {
                let got = run_plan(&optimized, &refs, &plan, npu);
                let want = run_plan(&naive, &refs, &plan, npu);
                assert!(got.as_slice() == want.as_slice(), "conv diverges");
            }
        }
    }
}

#[test]
fn gemm_matches_reference_bit_for_bit() {
    use shmt_kernels::gemm::Gemm;
    // GEMM is the programming-model VOP (paper Fig 4) rather than a Table 2
    // benchmark, but the blocked k-panel rewrite carries the same
    // bit-exactness contract. Square, non-multiple-of-8 shape.
    let n = ROWS;
    let a = Tensor::from_fn(n, n, |r, c| (((r * 13 + c * 7) % 9) as f32 - 4.0) * 0.25);
    let b = Tensor::from_fn(n, n, |r, c| (((r * 5 + c * 11) % 13) as f32 - 6.0) * 0.5);
    let refs = [&a, &b];
    let optimized = Gemm;
    let naive = shmt_kernels::reference::gemm();
    for plan in [full_plan(n, n), split_plan(optimized.shape(), n, n)] {
        for npu in [false, true] {
            let got = run_plan(&optimized, &refs, &plan, npu);
            let want = run_plan(&naive, &refs, &plan, npu);
            assert!(got.as_slice() == want.as_slice(), "gemm diverges");
        }
    }
}

#[test]
fn interior_only_tile_matches_reference() {
    // A tile strictly inside the dataset: the optimized stencils take the
    // pure interior path for every element except the tile's rim, which
    // still reads neighbors (not clamps). The naive path clamps nothing
    // here either, so equality proves the window arithmetic itself.
    for b in [
        Benchmark::MeanFilter,
        Benchmark::Sobel,
        Benchmark::Laplacian,
        Benchmark::Hotspot,
        Benchmark::Srad,
    ] {
        let inputs = b.generate_inputs(ROWS, COLS, 3);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let optimized = b.kernel();
        let naive = naive_kernel(b);
        let plan = vec![tile(0, 5, 9, 40, 60)];
        let got = run_plan(optimized.as_ref(), &refs, &plan, false);
        let want = run_plan(naive.as_ref(), &refs, &plan, false);
        assert!(got.as_slice() == want.as_slice(), "{b:?} interior tile");
    }
}
