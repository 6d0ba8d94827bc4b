//! Randomized tests for the kernel contracts the SHMT runtime depends on:
//!
//! * **Partition independence** — computing a dataset tile by tile, in any
//!   split, yields exactly the full-run output (this is what lets HLOPs
//!   execute on different devices and be stitched back together).
//! * **NPU error physics** — the int8 path really differs from the exact
//!   one, its error grows with a partition's value range, and it never
//!   corrupts elements outside its tile.
//! * **Assignment** — a kernel overwrites every element of its
//!   destination and never reads one first, so the runtime may hand it
//!   an unfilled output.
//!
//! Cases are drawn from a seeded [`Pcg32`] stream, so every run explores
//! the same inputs and failures reproduce exactly.

use shmt_kernels::{Aggregation, Benchmark, Kernel, ALL_BENCHMARKS};
use shmt_tensor::arena::Stash;
use shmt_tensor::rng::Pcg32;
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

fn full_tile(rows: usize, cols: usize) -> Tile {
    Tile {
        index: 0,
        row0: 0,
        col0: 0,
        rows,
        cols,
    }
}

/// Splits an `n x n` space into four quadrant tiles at an aligned cut.
fn quad_split(n: usize, cut_r: usize, cut_c: usize) -> Vec<Tile> {
    let mut tiles = Vec::new();
    let mut index = 0;
    for (r0, h) in [(0, cut_r), (cut_r, n - cut_r)] {
        for (c0, w) in [(0, cut_c), (cut_c, n - cut_c)] {
            if h > 0 && w > 0 {
                tiles.push(Tile {
                    index,
                    row0: r0,
                    col0: c0,
                    rows: h,
                    cols: w,
                });
                index += 1;
            }
        }
    }
    tiles
}

/// Any quadrant split reproduces the full run bit-for-bit, for every
/// benchmark kernel (FFT excepted: its partitions must span rows, so it
/// is split row-wise).
#[test]
fn tile_splits_match_full_run() {
    let mut rng = Pcg32::seed_from_u64(0xce11);
    for bench in ALL_BENCHMARKS {
        let cut_sel = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..100);
        let n = 96usize;
        let kernel = bench.kernel();
        let shape = kernel.shape();
        let align = shape.block_align.max(1);
        // Aligned interior cut.
        let cut = (n / 3 * cut_sel) / align * align;
        let cut = cut.clamp(align.min(n), n - align.min(n));

        let inputs = bench.generate_inputs(n, n, seed);
        let refs: Vec<&Tensor> = inputs.iter().collect();

        let mut whole = shape.allocate_output(n, n);
        kernel.run_exact(&refs, full_tile(n, n), &mut whole);

        let tiles = if shape.full_rows {
            vec![
                Tile {
                    index: 0,
                    row0: 0,
                    col0: 0,
                    rows: cut,
                    cols: n,
                },
                Tile {
                    index: 1,
                    row0: cut,
                    col0: 0,
                    rows: n - cut,
                    cols: n,
                },
            ]
        } else {
            quad_split(n, cut, cut)
        };
        let mut split = shape.allocate_output(n, n);
        for t in &tiles {
            kernel.run_exact(&refs, *t, &mut split);
        }
        assert_eq!(
            whole.as_slice(),
            split.as_slice(),
            "{bench} cut {cut} seed {seed}"
        );
    }
}

/// The NPU path writes only inside its tile (tile aggregation) and the
/// result stays within the neighborhood of the exact output.
#[test]
fn npu_stays_inside_its_tile() {
    let mut rng = Pcg32::seed_from_u64(0xab42);
    let benches: Vec<Benchmark> = ALL_BENCHMARKS
        .iter()
        .copied()
        .filter(|b| !matches!(b.kernel().shape().aggregation, Aggregation::Reduce { .. }))
        .collect();
    for bench in benches {
        let seed = rng.gen_range(0u64..50);
        let n = 64usize;
        let kernel = bench.kernel();
        let shape = kernel.shape();
        let align = shape.block_align.max(1);
        let half = (n / 2) / align * align;
        let tile = if shape.full_rows {
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: half,
                cols: n,
            }
        } else {
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: half,
                cols: half,
            }
        };

        let inputs = bench.generate_inputs(n, n, seed);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let sentinel = -12345.0f32;
        let mut out = Tensor::filled(n, n, sentinel);
        kernel.run_npu(&refs, tile, &mut out);
        // Everything outside the tile is untouched.
        for r in 0..n {
            for c in 0..n {
                let inside = r >= tile.row0
                    && r < tile.row0 + tile.rows
                    && c >= tile.col0
                    && c < tile.col0 + tile.cols;
                if !inside {
                    assert_eq!(out[(r, c)], sentinel, "{bench} wrote outside at ({r}, {c})");
                }
            }
        }
    }
}

/// Every benchmark's NPU path is a genuinely different computation from
/// its exact path: the outputs differ somewhere. Timings cannot show this
/// — Histogram's two paths legitimately take the same time.
#[test]
fn npu_output_differs_from_exact_for_every_benchmark() {
    let n = 128usize;
    for bench in ALL_BENCHMARKS {
        let kernel = bench.kernel();
        let shape = kernel.shape();
        let inputs = bench.generate_inputs(n, n, 1);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut exact = shape.allocate_output(n, n);
        kernel.run_exact(&refs, full_tile(n, n), &mut exact);
        let mut npu = shape.allocate_output(n, n);
        kernel.run_npu(&refs, full_tile(n, n), &mut npu);
        assert!(
            exact.as_slice() != npu.as_slice(),
            "{bench}: npu output is identical to exact output"
        );
    }
}

/// Scaling the input range up scales the Blackscholes NPU absolute error
/// up: the quantization-physics property QAWS exploits.
#[test]
fn npu_error_scales_with_range() {
    let mut rng = Pcg32::seed_from_u64(0xb573);
    let bench = Benchmark::Blackscholes;
    let kernel = bench.kernel();
    let n = 32usize;
    let tile = full_tile(n, n);
    let base = Tensor::from_fn(n, n, |r, c| 40.0 + ((r * 13 + c * 7) % 32) as f32 * 0.25);
    let err = |input: &Tensor| {
        let refs = vec![input];
        let mut exact = Tensor::zeros(n, n);
        kernel.run_exact(&refs, tile, &mut exact);
        let mut npu = Tensor::zeros(n, n);
        kernel.run_npu(&refs, tile, &mut npu);
        exact
            .as_slice()
            .iter()
            .zip(npu.as_slice())
            .map(|(a, b)| (a - b).abs() as f64)
            .sum::<f64>()
    };
    let base_err = err(&base);
    for _ in 0..8 {
        let scale = rng.gen_range(4.0f32..64.0);
        let wide = base.map(|v| 40.0 + (v - 40.0) * scale);
        assert!(
            err(&wide) > base_err,
            "wider inputs must hurt more (scale {scale})"
        );
    }
}

#[test]
fn sum_kernels_accumulate_across_tiles() {
    // Histogram's contract: run_exact *adds*, so disjoint tiles compose.
    let b = Benchmark::Histogram;
    let kernel = b.kernel();
    let inputs = b.generate_inputs(64, 64, 9);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let mut whole = kernel.shape().allocate_output(64, 64);
    kernel.run_exact(&refs, full_tile(64, 64), &mut whole);
    let mut split = kernel.shape().allocate_output(64, 64);
    for t in quad_split(64, 32, 32) {
        kernel.run_exact(&refs, t, &mut split);
    }
    assert_eq!(whole.as_slice(), split.as_slice());
}

/// Where `tile`'s result goes in a `n x n` run: the whole output's shape
/// and the window the kernel writes — the tile itself for a
/// tile-aggregated kernel, the whole partial buffer for a reduction.
fn destination(kernel: &dyn Kernel, n: usize, tile: Tile) -> ((usize, usize), Tile) {
    match kernel.shape().aggregation {
        Aggregation::Tile => ((n, n), tile),
        Aggregation::Reduce { rows, cols, .. } => ((rows, cols), full_tile(rows, cols)),
    }
}

/// Runs `kernel` on `tile` into `dst` through the exact or NPU path.
fn run_into(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tile: Tile,
    npu: bool,
    dst: &mut TensorViewMut<'_>,
) {
    if npu {
        kernel.run_npu_into(inputs, tile, dst, &mut Stash::default());
    } else {
        kernel.run_exact_into(inputs, tile, dst);
    }
}

/// Runs both paths of `kernel` on `tile` into two destinations prefilled
/// with NaN — a whole output and a buffer of the window's own size — and
/// asserts each equals the run into a zero-filled output bit for bit.
fn assert_assigns(kernel: &dyn Kernel, inputs: &[&Tensor], n: usize, tile: Tile) {
    let ((rows, cols), win) = destination(kernel, n, tile);
    for npu in [false, true] {
        let into_whole = |fill: f32| {
            let mut out = Tensor::filled(rows, cols, fill);
            let mut dst = out.view_mut(win.row0, win.col0, win.rows, win.cols);
            run_into(kernel, inputs, tile, npu, &mut dst);
            out.view(win.row0, win.col0, win.rows, win.cols).to_tensor()
        };
        let zeroed = into_whole(0.0);
        let mut own = Tensor::filled(win.rows, win.cols, f32::NAN);
        run_into(
            kernel,
            inputs,
            tile,
            npu,
            &mut TensorViewMut::over(own.as_mut_slice(), win),
        );
        let path = if npu { "NPU" } else { "exact" };
        for (label, got) in [
            ("whole output", into_whole(f32::NAN)),
            ("tile-sized buffer", own),
        ] {
            let same = zeroed
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{} {path} path, tile {tile:?}, into a NaN-filled {label}: \
                 must assign its destination, not accumulate into it",
                kernel.name()
            );
        }
    }
}

/// The unfilled runtime output depends on it: every kernel assigns each
/// element of its destination and reads none before writing it — the ten
/// benchmarks, their naive references, GEMM, convolution and the
/// reductions, on both paths, into either kind of destination.
#[test]
fn kernels_assign_their_destination_never_accumulate() {
    use shmt_kernels::conv::Conv2d;
    use shmt_kernels::gemm::Gemm;
    use shmt_kernels::reductions::{ReduceAverage, ReduceMax, ReduceMin, ReduceSum};
    use shmt_kernels::reference;

    let n = 96;
    let tiles_for = |kernel: &dyn Kernel| {
        let shape = kernel.shape();
        let cut = (40 / shape.block_align).max(1) * shape.block_align;
        if shape.full_rows {
            vec![
                Tile {
                    index: 0,
                    row0: 0,
                    col0: 0,
                    rows: cut,
                    cols: n,
                },
                Tile {
                    index: 1,
                    row0: cut,
                    col0: 0,
                    rows: n - cut,
                    cols: n,
                },
            ]
        } else {
            quad_split(n, cut, cut)
        }
    };
    let mut cases: Vec<(Box<dyn Kernel>, Vec<Tensor>)> = Vec::new();
    for b in ALL_BENCHMARKS {
        cases.push((b.kernel(), b.generate_inputs(n, n, 4)));
        cases.push((reference::naive_kernel(b), b.generate_inputs(n, n, 4)));
    }
    let operands = || {
        vec![
            shmt_tensor::gen::image8(n, n, 5),
            shmt_tensor::gen::image8(n, n, 6),
        ]
    };
    cases.push((Box::new(Gemm), operands()));
    cases.push((Box::new(reference::gemm()), operands()));
    let image = || vec![shmt_tensor::gen::image8(n, n, 7)];
    let wide = Tensor::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 - 7.0) * 0.125);
    for filter in [Conv2d::gaussian3x3().filter().clone(), wide] {
        cases.push((Box::new(Conv2d::new(filter.clone())), image()));
        cases.push((Box::new(reference::conv2d(Conv2d::new(filter))), image()));
    }
    let reductions: [Box<dyn Kernel>; 4] = [
        Box::new(ReduceSum),
        Box::new(ReduceMax),
        Box::new(ReduceMin),
        Box::new(ReduceAverage),
    ];
    for k in reductions {
        cases.push((k, image()));
    }
    for (kernel, inputs) in &cases {
        let refs: Vec<&Tensor> = inputs.iter().collect();
        for tile in tiles_for(kernel.as_ref()) {
            assert_assigns(kernel.as_ref(), &refs, n, tile);
        }
    }
}
