use std::fmt;

use shmt_tensor::arena::Stash;
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::npu::OutputQuant;

/// How two partial reduction buffers combine (for reduction VOPs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum of partials (reduce_sum, reduce_hist256).
    Sum,
    /// Element-wise maximum of partials (reduce_max).
    Max,
    /// Element-wise minimum of partials (reduce_min).
    Min,
}

impl ReduceOp {
    /// Combines one partial value into an accumulator.
    pub fn combine(&self, acc: f32, partial: f32) -> f32 {
        match self {
            ReduceOp::Sum => acc + partial,
            ReduceOp::Max => acc.max(partial),
            ReduceOp::Min => acc.min(partial),
        }
    }

    /// The identity element of the operation.
    pub fn identity(&self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
            ReduceOp::Min => f32::INFINITY,
        }
    }
}

/// How the outputs of a kernel's HLOPs combine into the VOP result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Each HLOP writes a disjoint tile of the output; aggregation is a
    /// gather of the tiles (the element-wise and tile-wise models of
    /// paper §3.2.1).
    Tile,
    /// Each HLOP produces a private reduction buffer of the given shape
    /// and the runtime folds the buffers with the operation (Histogram's
    /// `reduce_hist256` sums; `reduce_max`/`reduce_min` take extrema).
    Reduce {
        /// Rows of the reduction buffer.
        rows: usize,
        /// Columns of the reduction buffer.
        cols: usize,
        /// How partial buffers combine.
        op: ReduceOp,
    },
}

/// Static facts the runtime needs to partition a kernel correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelShape {
    /// Stencil halo (elements read outside the tile, clamped at dataset
    /// edges). Zero for element-wise and block kernels.
    pub halo: usize,
    /// Tiles must start on multiples of this edge so block transforms keep
    /// their phase (8 for DCT8x8, 32 for the blocked DWT). 1 = unaligned.
    pub block_align: usize,
    /// Partitions must span entire rows (row-wise FFT).
    pub full_rows: bool,
    /// How HLOP outputs aggregate.
    pub aggregation: Aggregation,
    /// Number of input tensors the kernel consumes.
    pub num_inputs: usize,
    /// `true` if computing any output tile may read input elements far
    /// outside the tile's halo-extended region (GEMM reads entire rows of
    /// `A` and all of `B`). Executors must hand such kernels the full
    /// input tensors rather than per-tile extracts.
    pub global_inputs: bool,
}

impl KernelShape {
    /// An element-wise kernel over one input.
    pub fn elementwise() -> Self {
        KernelShape {
            halo: 0,
            block_align: 1,
            full_rows: false,
            aggregation: Aggregation::Tile,
            num_inputs: 1,
            global_inputs: false,
        }
    }

    /// A stencil kernel with the given halo over one input.
    pub fn stencil(halo: usize) -> Self {
        KernelShape {
            halo,
            ..Self::elementwise()
        }
    }

    /// A block-transform kernel whose tiles must align to `edge`.
    pub fn blocked(edge: usize) -> Self {
        KernelShape {
            block_align: edge,
            ..Self::elementwise()
        }
    }

    /// Allocates the output tensor for a dataset of `rows x cols`,
    /// initialized to the aggregation's identity.
    pub fn allocate_output(&self, rows: usize, cols: usize) -> Tensor {
        match self.aggregation {
            Aggregation::Tile => Tensor::zeros(rows, cols),
            Aggregation::Reduce { rows, cols, op } => Tensor::filled(rows, cols, op.identity()),
        }
    }
}

/// A benchmark compute kernel with an exact (fp32) path and an NPU (int8
/// Edge TPU) path.
///
/// Both paths read the shared, dataset-sized inputs in place and write
/// through a [`TensorViewMut`] destination. For a [`Aggregation::Tile`]
/// kernel the destination covers the tile, in dataset coordinates; for a
/// [`Aggregation::Reduce`] kernel it covers the whole partial buffer.
/// Either way a kernel **assigns every element of its destination and
/// reads none of them before writing it**, so the destination may start
/// with any values at all, and where its elements live — a whole output,
/// a tile-sized buffer, one tile of an output other workers fill at once
/// — is invisible to the kernel. Stencil and block kernels may *read*
/// inputs outside the tile (their HLOP input partitions include the
/// halo).
///
/// For a [`Aggregation::Tile`] kernel an exact tile's values also do not
/// depend on the tile's bounds: every output element's bits are a function
/// of the inputs and its position alone, so computing a region as one tile
/// or as any partition of it into tiles the partitioner may cut (starts on
/// [`KernelShape::block_align`], full rows for
/// [`KernelShape::full_rows`]) writes the same bits. The executor relies
/// on it to run abutting exact tiles as one row band. One exception: which
/// of two different NaNs meeting in one operation survives may follow the
/// tile's width, since a vectorised loop's body and its scalar remainder
/// can order a commutative operation's operands differently (GEMM's
/// accumulation does in a release build). The NPU path keeps no such
/// promise: its int8 grid is derived per tile.
///
/// A kernel implements [`Kernel::run_exact_into`]; the default
/// [`Kernel::run_npu_into`] routes through [`crate::npu::run_via_npu_into`]
/// with the kernel's fidelity, input model and output grid, and a kernel
/// with an NPU path of its own overrides it. [`Kernel::run_exact`] and
/// [`Kernel::run_npu`] are forwarders for callers holding a whole output
/// tensor.
pub trait Kernel: Send + Sync + fmt::Debug {
    /// Stable kernel name (matches the paper's benchmark naming).
    fn name(&self) -> &'static str;

    /// Partitioning facts.
    fn shape(&self) -> KernelShape;

    /// Computes the output tile exactly in `f32` into `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `inputs` does not match
    /// [`KernelShape::num_inputs`] or shapes disagree, and `out` panics on
    /// a write outside its window.
    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>);

    /// Computes the output tile through the int8 NPU path into `out`. The
    /// device buffers (one per input, the size of the tile's input
    /// footprint) are built in `stash`.
    fn run_npu_into(
        &self,
        inputs: &[&Tensor],
        tile: Tile,
        out: &mut TensorViewMut<'_>,
        stash: &mut Stash,
    ) {
        crate::npu::run_via_npu_into(
            self,
            inputs,
            tile,
            out,
            self.npu_fidelity(),
            self.npu_output_quant(),
            stash,
        );
    }

    /// [`Kernel::run_exact_into`] with `out` a whole output: the tile lands
    /// at its dataset position; a reduction's partial folds into `out`.
    fn run_exact(&self, inputs: &[&Tensor], tile: Tile, out: &mut Tensor) {
        write_into(self.shape(), tile, out, |dst| {
            self.run_exact_into(inputs, tile, dst);
        });
    }

    /// [`Kernel::run_npu_into`] with `out` a whole output, as
    /// [`Kernel::run_exact`].
    fn run_npu(&self, inputs: &[&Tensor], tile: Tile, out: &mut Tensor) {
        write_into(self.shape(), tile, out, |dst| {
            self.run_npu_into(inputs, tile, dst, &mut Stash::default());
        });
    }

    /// Residual NN-approximation coarseness: a multiplier on the int8
    /// output grid step. `1.0` = pure int8 quantization error.
    fn npu_fidelity(&self) -> f32 {
        1.0
    }

    /// How the NPU model's int8 output grid is organized.
    fn npu_output_quant(&self) -> OutputQuant {
        OutputQuant::PerTile
    }

    /// `true` for kernels whose NPU model consumes 8-bit image data
    /// natively (uint8 input tensors): integer-valued inputs in
    /// `[0, 255]` then enter the device without quantization loss.
    fn npu_native_u8(&self) -> bool {
        false
    }

    /// Post-aggregation finalization, applied exactly once after all HLOP
    /// partials have been folded (e.g. `reduce_average` divides its sum by
    /// its count). The default does nothing.
    fn finalize(&self, out: &mut Tensor) {
        let _ = out;
    }

    /// Relative arithmetic work per output element, used by the platform
    /// cost model (normalized so a 3x3 stencil is ~9).
    fn work_per_element(&self) -> f64;
}

/// Runs `run` on the destination of `tile` in the whole output `out`: the
/// tile's window for a tile-aggregated kernel; for a reduction, a partial
/// buffer of `out`'s shape that is then folded into `out`.
fn write_into(
    shape: KernelShape,
    tile: Tile,
    out: &mut Tensor,
    run: impl FnOnce(&mut TensorViewMut<'_>),
) {
    match shape.aggregation {
        Aggregation::Tile => run(&mut out.view_mut(tile.row0, tile.col0, tile.rows, tile.cols)),
        Aggregation::Reduce { op, .. } => {
            let (rows, cols) = out.shape();
            // The kernel assigns every element, so the page needs no fill.
            let mut partial = Tensor::stale(rows, cols);
            run(&mut partial.view_mut(0, 0, rows, cols));
            for (d, &s) in out.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                *d = op.combine(*d, s);
            }
        }
    }
}

/// The paper's ten benchmark applications (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// European option pricing (CUDA Examples).
    Blackscholes,
    /// 8x8 block discrete cosine transform (CUDA Examples).
    Dct8x8,
    /// Blocked CDF 9/7 discrete wavelet transform (Rodinia).
    Dwt,
    /// Row-wise fast Fourier transform magnitude (CUDA Examples).
    Fft,
    /// 256-bin histogram (OpenCV).
    Histogram,
    /// Thermal simulation stencil (Rodinia).
    Hotspot,
    /// 3x3 Laplacian edge filter (OpenCV).
    Laplacian,
    /// 3x3 mean filter (OpenCV).
    MeanFilter,
    /// Sobel gradient magnitude (OpenCV).
    Sobel,
    /// Speckle-reducing anisotropic diffusion (CUDA Examples / Rodinia).
    Srad,
}

/// All ten benchmarks in the paper's presentation order.
pub const ALL_BENCHMARKS: [Benchmark; 10] = [
    Benchmark::Blackscholes,
    Benchmark::Dct8x8,
    Benchmark::Dwt,
    Benchmark::Fft,
    Benchmark::Histogram,
    Benchmark::Hotspot,
    Benchmark::Laplacian,
    Benchmark::MeanFilter,
    Benchmark::Sobel,
    Benchmark::Srad,
];

impl Benchmark {
    /// The benchmark's display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "Blackscholes",
            Benchmark::Dct8x8 => "DCT8x8",
            Benchmark::Dwt => "DWT",
            Benchmark::Fft => "FFT",
            Benchmark::Histogram => "Histogram",
            Benchmark::Hotspot => "Hotspot",
            Benchmark::Laplacian => "Laplacian",
            Benchmark::MeanFilter => "MF",
            Benchmark::Sobel => "Sobel",
            Benchmark::Srad => "SRAD",
        }
    }

    /// `true` for the six image-related workloads evaluated with SSIM
    /// (paper §5.3, Fig 8).
    pub fn is_image(&self) -> bool {
        matches!(
            self,
            Benchmark::Dct8x8
                | Benchmark::Dwt
                | Benchmark::Laplacian
                | Benchmark::MeanFilter
                | Benchmark::Sobel
                | Benchmark::Srad
        )
    }

    /// Constructs the kernel implementation.
    pub fn kernel(&self) -> Box<dyn Kernel> {
        match self {
            Benchmark::Blackscholes => Box::new(crate::blackscholes::Blackscholes::default()),
            Benchmark::Dct8x8 => Box::new(crate::dct8x8::Dct8x8),
            Benchmark::Dwt => Box::new(crate::dwt::Dwt97::default()),
            Benchmark::Fft => Box::new(crate::fft::RowFft),
            Benchmark::Histogram => Box::new(crate::histogram::Histogram256),
            Benchmark::Hotspot => Box::new(crate::hotspot::Hotspot::default()),
            Benchmark::Laplacian => Box::new(crate::laplacian::Laplacian),
            Benchmark::MeanFilter => Box::new(crate::mean_filter::MeanFilter),
            Benchmark::Sobel => Box::new(crate::sobel::Sobel),
            Benchmark::Srad => Box::new(crate::srad::Srad::default()),
        }
    }

    /// Generates the benchmark's seeded input tensors at the given shape
    /// (the paper's datasets are synthetic random data, §5.1).
    pub fn generate_inputs(&self, rows: usize, cols: usize, seed: u64) -> Vec<Tensor> {
        use shmt_tensor::gen;
        match self {
            Benchmark::Blackscholes => vec![gen::prices(rows, cols, seed)],
            Benchmark::Dct8x8
            | Benchmark::Dwt
            | Benchmark::Laplacian
            | Benchmark::MeanFilter
            | Benchmark::Sobel => vec![gen::image8(rows, cols, seed)],
            Benchmark::Fft => vec![gen::heterogeneous(
                rows,
                cols,
                seed,
                gen::FieldConfig {
                    base: 0.0,
                    amplitude: 1.0,
                    block: gen::scaled_block(rows, cols),
                    tail: 0.7,
                },
            )],
            Benchmark::Histogram => vec![gen::image8(rows, cols, seed)],
            Benchmark::Hotspot => vec![
                gen::temperature(rows, cols, seed),
                gen::heterogeneous(
                    rows,
                    cols,
                    seed ^ 0x9e37_79b9,
                    gen::FieldConfig {
                        base: 0.5,
                        amplitude: 0.45,
                        block: gen::scaled_block(rows, cols),
                        tail: 0.8,
                    },
                ),
            ],
            Benchmark::Srad => vec![gen::speckle(rows, cols, seed)],
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Benchmark {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ALL_BENCHMARKS
            .iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
            .copied()
            .ok_or_else(|| format!("unknown benchmark `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_distinct_names() {
        let mut names: Vec<_> = ALL_BENCHMARKS.iter().map(Benchmark::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn from_str_round_trips() {
        for b in ALL_BENCHMARKS {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
        }
        assert!("bogus".parse::<Benchmark>().is_err());
    }

    #[test]
    fn six_image_benchmarks() {
        assert_eq!(ALL_BENCHMARKS.iter().filter(|b| b.is_image()).count(), 6);
    }

    #[test]
    fn inputs_match_kernel_arity() {
        for b in ALL_BENCHMARKS {
            let inputs = b.generate_inputs(32, 32, 1);
            assert_eq!(inputs.len(), b.kernel().shape().num_inputs, "{b}");
        }
    }

    #[test]
    fn allocate_output_matches_aggregation() {
        let t = KernelShape::elementwise().allocate_output(4, 6);
        assert_eq!(t.shape(), (4, 6));
        let s = KernelShape {
            aggregation: Aggregation::Reduce {
                rows: 1,
                cols: 256,
                op: ReduceOp::Sum,
            },
            ..KernelShape::elementwise()
        }
        .allocate_output(100, 100);
        assert_eq!(s.shape(), (1, 256));
    }
}
