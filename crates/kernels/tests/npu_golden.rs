//! Golden digests of the NPU path, recorded on the commit *before* the
//! int8 emulation loops were vectorised (scalar `roundf`, sequential
//! `f32::min`/`max` folds, per-element `snap` through `i8`).
//!
//! `golden.rs` and the in-crate two-pass reference compare the NPU path
//! with other code built from the same primitives; this suite pins the
//! output bits themselves, so a change to the rounding, the range scan or
//! the publish walk that alters one bit of any of the ten kernels fails
//! here even if it alters every path alike. To re-record after a change
//! that is *meant* to move the bits, run with `--nocapture` and copy the
//! table the failure prints.

use shmt_kernels::{Benchmark, KernelShape, ALL_BENCHMARKS};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

const SIZES: [usize; 3] = [96, 256, 512];

/// FNV-1a 64 digests, `ALL_BENCHMARKS` order x `SIZES` order.
const GOLDEN: [[u64; 3]; 10] = [
    // Blackscholes
    [0x15d95e9760321be4, 0xdaf74352b1f29d48, 0x65ebedc5012c5d73],
    // DCT8x8
    [0xd5a164089328bdd5, 0x858e9ecadb8ab0eb, 0x04667eea39750ec6],
    // DWT
    [0x37a17d89b174e57f, 0x03db9ed9c280f9b8, 0x2b18164f7746af5f],
    // FFT
    [0xd4cabf9a1bd93336, 0xff3b71b1ce6d0a94, 0x8a3d64d1f882cf85],
    // Histogram
    [0x124ff8e7a658d07f, 0xe0eaa5de4e7af5d1, 0xa8d3b9cc6e358075],
    // Hotspot
    [0x33f68283c00691ef, 0xc9991309768089f9, 0x3458d699464ebbe4],
    // Laplacian
    [0x0bbb57011aad0fe1, 0xe85e724c10ccd8cb, 0xb410c06bfac77ebf],
    // MF
    [0xe0cfd1e44bb8ed7b, 0xff2d02b0d28ed023, 0x1c1aee11c4399e13],
    // Sobel
    [0x9a8477d8ae3a8e40, 0xf067a11fec522877, 0x564f133b39df7837],
    // SRAD
    [0x91ac6a611553ba61, 0xefa932d4b5ace2e1, 0x2ad8d3f59d33e846],
];

fn fnv1a(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Three row bands for full-row kernels, otherwise a 2x2 split at a
/// block-aligned point off the centre: tiles touch every dataset edge and
/// every tile has a halo side facing another tile.
fn plan(shape: KernelShape, n: usize) -> Vec<Tile> {
    let tile = |index, row0, col0, rows, cols| Tile {
        index,
        row0,
        col0,
        rows,
        cols,
    };
    if shape.full_rows {
        let (r1, r2) = (n / 3, 2 * n / 3);
        return vec![
            tile(0, 0, 0, r1, n),
            tile(1, r1, 0, r2 - r1, n),
            tile(2, r2, 0, n - r2, n),
        ];
    }
    let a = shape.block_align;
    let (r1, c1) = ((n / 3 / a).max(1) * a, (2 * n / 3 / a).max(1) * a);
    vec![
        tile(0, 0, 0, r1, c1),
        tile(1, 0, c1, r1, n - c1),
        tile(2, r1, 0, n - r1, c1),
        tile(3, r1, c1, n - r1, n - c1),
    ]
}

fn digest(b: Benchmark, n: usize) -> u64 {
    let kernel = b.kernel();
    let inputs = b.generate_inputs(n, n, 7);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let mut out = kernel.shape().allocate_output(n, n);
    for t in plan(kernel.shape(), n) {
        kernel.run_npu(&refs, t, &mut out);
    }
    fnv1a(&out)
}

#[test]
fn npu_outputs_match_digests_recorded_before_vectorisation() {
    let got: Vec<[u64; 3]> = ALL_BENCHMARKS
        .iter()
        .map(|&b| SIZES.map(|n| digest(b, n)))
        .collect();
    if got != GOLDEN {
        for (b, row) in ALL_BENCHMARKS.iter().zip(&got) {
            println!(
                "    // {b}\n    [{:#018x}, {:#018x}, {:#018x}],",
                row[0], row[1], row[2]
            );
        }
        for ((b, got), want) in ALL_BENCHMARKS.iter().zip(&got).zip(&GOLDEN) {
            for ((n, g), w) in SIZES.iter().zip(got).zip(want) {
                assert_eq!(g, w, "{b} at {n}x{n}: NPU output bits changed");
            }
        }
    }
}
