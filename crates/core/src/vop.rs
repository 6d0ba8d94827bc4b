//! Virtual operations — the hardware-independent command set of the SHMT
//! virtual device (paper §3.2.1, Table 1).

use std::fmt;

use shmt_kernels::primitives::{BinaryOp, UnaryOp};
use shmt_kernels::{Benchmark, Kernel, KernelShape};
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::error::{Result, ShmtError};

/// The parallelization model a VOP admits (paper §3.2.1: "either an
/// element-wise vector processing model or a tile-wise matrix processing
/// model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelModel {
    /// Element-wise vector processing.
    Vector,
    /// Tile-wise matrix processing.
    Tiling,
}

/// The VOP opcodes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Opcode {
    // Vector model.
    Add,
    Log,
    Max,
    Min,
    Multiply,
    ParabolicPde,
    ReduceAverage,
    ReduceHist256,
    ReduceMax,
    ReduceMin,
    ReduceSum,
    Relu,
    Rsqrt,
    Sqrt,
    Sub,
    Tanh,
    Conv,
    // Tiling model.
    Dct8x8,
    Fdwt97,
    Fft,
    Gemm,
    Laplacian,
    MeanFilter,
    Sobel,
    Srad,
    Stencil,
    Blackscholes,
}

impl Opcode {
    /// The parallelization model of the opcode (Table 1's two columns).
    pub fn parallel_model(&self) -> ParallelModel {
        match self {
            Opcode::Add
            | Opcode::Log
            | Opcode::Max
            | Opcode::Min
            | Opcode::Multiply
            | Opcode::ParabolicPde
            | Opcode::ReduceAverage
            | Opcode::ReduceHist256
            | Opcode::ReduceMax
            | Opcode::ReduceMin
            | Opcode::ReduceSum
            | Opcode::Relu
            | Opcode::Rsqrt
            | Opcode::Sqrt
            | Opcode::Sub
            | Opcode::Tanh
            | Opcode::Conv
            | Opcode::Blackscholes => ParallelModel::Vector,
            Opcode::Dct8x8
            | Opcode::Fdwt97
            | Opcode::Fft
            | Opcode::Gemm
            | Opcode::Laplacian
            | Opcode::MeanFilter
            | Opcode::Sobel
            | Opcode::Srad
            | Opcode::Stencil => ParallelModel::Tiling,
        }
    }

    /// The opcode implementing each benchmark application.
    pub fn from_benchmark(b: Benchmark) -> Opcode {
        match b {
            Benchmark::Blackscholes => Opcode::Blackscholes,
            Benchmark::Dct8x8 => Opcode::Dct8x8,
            Benchmark::Dwt => Opcode::Fdwt97,
            Benchmark::Fft => Opcode::Fft,
            Benchmark::Histogram => Opcode::ReduceHist256,
            Benchmark::Hotspot => Opcode::ParabolicPde,
            Benchmark::Laplacian => Opcode::Laplacian,
            Benchmark::MeanFilter => Opcode::MeanFilter,
            Benchmark::Sobel => Opcode::Sobel,
            Benchmark::Srad => Opcode::Srad,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A virtual operation: an opcode, its kernel implementation, and the input
/// tensors it operates on. VOPs make no assumption about data sizes; the
/// runtime partitions them into device-sized HLOPs (§3.2.2).
pub struct Vop {
    opcode: Opcode,
    kernel: Box<dyn Kernel>,
    inputs: Vec<Tensor>,
    criticality_hint: f64,
}

impl fmt::Debug for Vop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vop")
            .field("opcode", &self.opcode)
            .field("kernel", &self.kernel.name())
            .field("inputs", &self.inputs.len())
            .field("criticality_hint", &self.criticality_hint)
            .finish()
    }
}

impl Vop {
    /// Creates a VOP from an opcode, kernel, and inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ShmtError::InvalidVop`] if the input count does not match
    /// the kernel's arity or the inputs' shapes disagree.
    pub fn new(opcode: Opcode, kernel: Box<dyn Kernel>, inputs: Vec<Tensor>) -> Result<Self> {
        let shape = kernel.shape();
        if inputs.len() != shape.num_inputs {
            return Err(ShmtError::InvalidVop(format!(
                "kernel {} expects {} inputs, got {}",
                kernel.name(),
                shape.num_inputs,
                inputs.len()
            )));
        }
        if inputs.is_empty() {
            return Err(ShmtError::InvalidVop("VOP needs at least one input".into()));
        }
        let first = inputs[0].shape();
        if inputs.iter().any(|t| t.shape() != first) {
            return Err(ShmtError::InvalidVop("input shapes must agree".into()));
        }
        Ok(Vop {
            opcode,
            kernel,
            inputs,
            criticality_hint: 0.2,
        })
    }

    /// Creates the VOP for a benchmark application on generated inputs,
    /// carrying the benchmark's application-dependent criticality hint
    /// from the calibration tables.
    ///
    /// # Errors
    ///
    /// Propagates [`Vop::new`]'s validation errors.
    pub fn from_benchmark(benchmark: Benchmark, inputs: Vec<Tensor>) -> Result<Self> {
        let hint = crate::calibration::bench_profile(benchmark).criticality_hint;
        Ok(Vop::new(
            Opcode::from_benchmark(benchmark),
            benchmark.kernel(),
            inputs,
        )?
        .with_criticality_hint(hint))
    }

    /// Convenience: a unary element-wise VOP (Table 1's vector ops).
    ///
    /// # Errors
    ///
    /// Propagates [`Vop::new`]'s validation errors.
    pub fn unary(op: UnaryOp, input: Tensor) -> Result<Self> {
        let opcode = match op {
            UnaryOp::Log => Opcode::Log,
            UnaryOp::Relu => Opcode::Relu,
            UnaryOp::Rsqrt => Opcode::Rsqrt,
            UnaryOp::Sqrt => Opcode::Sqrt,
            UnaryOp::Tanh => Opcode::Tanh,
        };
        Vop::new(opcode, Box::new(UnaryKernel(op)), vec![input])
    }

    /// Convenience: a whole-dataset reduction VOP (`reduce_sum`,
    /// `reduce_average`, `reduce_max`, `reduce_min`).
    ///
    /// The output is the reduction buffer: `1x1` for sum/max/min,
    /// `1x2` (`[average, count]`) for average.
    ///
    /// # Errors
    ///
    /// Propagates [`Vop::new`]'s validation errors.
    pub fn reduce(opcode: Opcode, input: Tensor) -> Result<Self> {
        use shmt_kernels::reductions::{ReduceAverage, ReduceMax, ReduceMin, ReduceSum};
        let kernel: Box<dyn Kernel> = match opcode {
            Opcode::ReduceSum => Box::new(ReduceSum),
            Opcode::ReduceAverage => Box::new(ReduceAverage),
            Opcode::ReduceMax => Box::new(ReduceMax),
            Opcode::ReduceMin => Box::new(ReduceMin),
            other => {
                return Err(ShmtError::InvalidVop(format!(
                    "`{other}` is not a reduction opcode"
                )))
            }
        };
        Vop::new(opcode, kernel, vec![input])
    }

    /// Convenience: a GEMM VOP over two equal-shaped square matrices
    /// (the paper's Fig 4 walkthrough decomposes exactly this operation).
    ///
    /// # Errors
    ///
    /// Propagates [`Vop::new`]'s validation errors.
    pub fn gemm(a: Tensor, b: Tensor) -> Result<Self> {
        Vop::new(Opcode::Gemm, Box::new(shmt_kernels::gemm::Gemm), vec![a, b])
    }

    /// Convenience: a same-size 2-D convolution VOP with a fixed filter.
    ///
    /// # Errors
    ///
    /// Propagates [`Vop::new`]'s validation errors.
    ///
    /// # Panics
    ///
    /// Panics if the filter has even dimensions.
    pub fn conv2d(input: Tensor, filter: Tensor) -> Result<Self> {
        Vop::new(
            Opcode::Conv,
            Box::new(shmt_kernels::conv::Conv2d::new(filter)),
            vec![input],
        )
    }

    /// Convenience: a binary element-wise VOP.
    ///
    /// # Errors
    ///
    /// Propagates [`Vop::new`]'s validation errors.
    pub fn binary(op: BinaryOp, a: Tensor, b: Tensor) -> Result<Self> {
        let opcode = match op {
            BinaryOp::Add => Opcode::Add,
            BinaryOp::Sub => Opcode::Sub,
            BinaryOp::Multiply => Opcode::Multiply,
            BinaryOp::Max => Opcode::Max,
            BinaryOp::Min => Opcode::Min,
        };
        Vop::new(opcode, Box::new(BinaryKernel(op)), vec![a, b])
    }

    /// The VOP's opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The kernel implementation backing the VOP.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Drops the inputs and keeps the kernel (the DAG layer re-times a
    /// stage after its data has moved on).
    pub(crate) fn into_kernel(self) -> Box<dyn Kernel> {
        self.kernel
    }

    /// The input tensors.
    pub fn inputs(&self) -> &[Tensor] {
        &self.inputs
    }

    /// Shape of the space the runtime partitions: the output space for tile
    /// aggregation, the input space for reductions.
    pub fn partition_space(&self) -> (usize, usize) {
        self.inputs[0].shape()
    }

    /// The application-provided fraction of partitions that are generally
    /// critical (the Top-K threshold of §3.5, provided "along with each
    /// VOP" by the programmer or library composer).
    pub fn criticality_hint(&self) -> f64 {
        self.criticality_hint
    }

    /// Overrides the Top-K criticality hint (a fraction in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn with_criticality_hint(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "hint must be a fraction");
        self.criticality_hint = fraction;
        self
    }
}

/// Adapter exposing a unary element-wise primitive as a [`Kernel`].
#[derive(Debug, Clone, Copy)]
struct UnaryKernel(UnaryOp);

impl Kernel for UnaryKernel {
    fn name(&self) -> &'static str {
        match self.0 {
            UnaryOp::Log => "log",
            UnaryOp::Relu => "relu",
            UnaryOp::Rsqrt => "rsqrt",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Tanh => "tanh",
        }
    }

    fn shape(&self) -> KernelShape {
        KernelShape::elementwise()
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        for r in tile.row0..tile.row0 + tile.rows {
            let src = &input.row(r)[tile.col0..tile.col0 + tile.cols];
            let dst = out.span_mut(r, tile.col0..tile.col0 + tile.cols);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = self.0.apply(s);
            }
        }
    }

    fn work_per_element(&self) -> f64 {
        4.0
    }
}

/// Adapter exposing a binary element-wise primitive as a [`Kernel`].
#[derive(Debug, Clone, Copy)]
struct BinaryKernel(BinaryOp);

impl Kernel for BinaryKernel {
    fn name(&self) -> &'static str {
        match self.0 {
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Multiply => "multiply",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        }
    }

    fn shape(&self) -> KernelShape {
        KernelShape {
            num_inputs: 2,
            ..KernelShape::elementwise()
        }
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let (a, b) = (inputs[0], inputs[1]);
        for r in tile.row0..tile.row0 + tile.rows {
            let sa = &a.row(r)[tile.col0..tile.col0 + tile.cols];
            let sb = &b.row(r)[tile.col0..tile.col0 + tile.cols];
            let dst = out.span_mut(r, tile.col0..tile.col0 + tile.cols);
            for ((d, &x), &y) in dst.iter_mut().zip(sa).zip(sb) {
                *d = self.0.apply(x, y);
            }
        }
    }

    fn work_per_element(&self) -> f64 {
        2.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use shmt_tensor::arena::Stash;

    /// Runs both paths of a tile-aggregated `kernel` on `tile` into two
    /// destinations prefilled with NaN — the whole output and a buffer of
    /// the tile's own size — and asserts each equals the run into a
    /// zero-filled output bit for bit: the kernel assigns its destination
    /// and never accumulates into it, which the unfilled runtime output
    /// depends on.
    pub(crate) fn assert_assigns(kernel: &dyn Kernel, inputs: &[&Tensor], tile: Tile) {
        let (rows, cols) = inputs[0].shape();
        let run = |npu: bool, dst: &mut TensorViewMut<'_>| {
            if npu {
                kernel.run_npu_into(inputs, tile, dst, &mut Stash::default());
            } else {
                kernel.run_exact_into(inputs, tile, dst);
            }
        };
        for npu in [false, true] {
            let into_whole = |fill: f32| {
                let mut out = Tensor::filled(rows, cols, fill);
                run(
                    npu,
                    &mut out.view_mut(tile.row0, tile.col0, tile.rows, tile.cols),
                );
                out.view(tile.row0, tile.col0, tile.rows, tile.cols)
                    .to_tensor()
            };
            let mut own = Tensor::filled(tile.rows, tile.cols, f32::NAN);
            run(npu, &mut TensorViewMut::over(own.as_mut_slice(), tile));
            let zeroed = into_whole(0.0);
            for got in [into_whole(f32::NAN), own] {
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&zeroed), bits(&got), "{} npu={npu}", kernel.name());
            }
        }
    }

    #[test]
    fn element_wise_adapters_assign_their_destination() {
        let a = shmt_tensor::gen::image8(40, 24, 1);
        let b = shmt_tensor::gen::image8(40, 24, 2);
        let tile = Tile {
            index: 0,
            row0: 8,
            col0: 5,
            rows: 20,
            cols: 13,
        };
        for op in [UnaryOp::Log, UnaryOp::Relu, UnaryOp::Sqrt, UnaryOp::Tanh] {
            assert_assigns(Vop::unary(op, a.clone()).unwrap().kernel(), &[&a], tile);
        }
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Max] {
            let vop = Vop::binary(op, a.clone(), b.clone()).unwrap();
            assert_assigns(vop.kernel(), &[&a, &b], tile);
        }
    }

    #[test]
    fn every_opcode_has_a_model() {
        // Spot-check both columns of Table 1.
        assert_eq!(Opcode::Add.parallel_model(), ParallelModel::Vector);
        assert_eq!(
            Opcode::ReduceHist256.parallel_model(),
            ParallelModel::Vector
        );
        assert_eq!(Opcode::Gemm.parallel_model(), ParallelModel::Tiling);
        assert_eq!(Opcode::Srad.parallel_model(), ParallelModel::Tiling);
    }

    #[test]
    fn vop_validates_arity() {
        let k = Benchmark::Hotspot.kernel();
        let err = Vop::new(Opcode::ParabolicPde, k, vec![Tensor::zeros(4, 4)]).unwrap_err();
        assert!(matches!(err, ShmtError::InvalidVop(_)));
    }

    #[test]
    fn vop_validates_shapes() {
        let k = Benchmark::Hotspot.kernel();
        let err = Vop::new(
            Opcode::ParabolicPde,
            k,
            vec![Tensor::zeros(4, 4), Tensor::zeros(4, 8)],
        )
        .unwrap_err();
        assert!(matches!(err, ShmtError::InvalidVop(_)));
    }

    #[test]
    fn unary_vop_applies_op() {
        let input = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 4.0, 9.0]).unwrap();
        let vop = Vop::unary(UnaryOp::Relu, input).unwrap();
        let mut out = Tensor::zeros(1, 4);
        let refs: Vec<_> = vop.inputs().iter().collect();
        vop.kernel().run_exact(
            &refs,
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 1,
                cols: 4,
            },
            &mut out,
        );
        assert_eq!(out.as_slice(), &[0.0, 0.0, 4.0, 9.0]);
    }

    #[test]
    fn binary_vop_applies_op() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![4.0, 1.0, 3.0]).unwrap();
        let vop = Vop::binary(BinaryOp::Max, a, b).unwrap();
        let mut out = Tensor::zeros(1, 3);
        let refs: Vec<_> = vop.inputs().iter().collect();
        vop.kernel().run_exact(
            &refs,
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 1,
                cols: 3,
            },
            &mut out,
        );
        assert_eq!(out.as_slice(), &[4.0, 2.0, 3.0]);
    }

    #[test]
    fn gemm_vop_multiplies() {
        let a = Tensor::from_fn(4, 4, |r, c| if r == c { 2.0 } else { 0.0 });
        let b = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let vop = Vop::gemm(a, b.clone()).unwrap();
        let mut out = Tensor::zeros(4, 4);
        let refs: Vec<_> = vop.inputs().iter().collect();
        vop.kernel().run_exact(
            &refs,
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 4,
                cols: 4,
            },
            &mut out,
        );
        for (o, e) in out.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(*o, 2.0 * e);
        }
        assert_eq!(vop.opcode(), Opcode::Gemm);
    }

    #[test]
    fn conv_vop_runs_end_to_end() {
        let input = Tensor::filled(32, 32, 5.0);
        let vop = Vop::conv2d(input, Tensor::from_vec(1, 1, vec![3.0]).unwrap()).unwrap();
        let report = crate::ShmtRuntime::new(
            crate::Platform::generic(),
            crate::RuntimeConfig::new(crate::Policy::WorkStealing),
        )
        .execute(&vop)
        .unwrap();
        assert!(report
            .output
            .as_slice()
            .iter()
            .all(|&v| (v - 15.0).abs() < 0.2));
    }

    #[test]
    fn criticality_hint_is_clamped_by_validation() {
        let vop = Vop::from_benchmark(
            Benchmark::Sobel,
            Benchmark::Sobel.generate_inputs(16, 16, 1),
        )
        .unwrap()
        .with_criticality_hint(0.5);
        assert_eq!(vop.criticality_hint(), 0.5);
    }
}
