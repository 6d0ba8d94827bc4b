//! Element-wise and tiling VOP primitives (paper Table 1).
//!
//! SHMT's VOP list spans two parallelization models: element-wise vector
//! ops (`add`, `log`, `relu`, reductions, ...) and tile-wise matrix ops
//! (`GEMM`, `conv`, `stencil`, plus the benchmark transforms that live in
//! their own modules). These primitives back the vector-model VOPs and are
//! used by the examples and the property-test suite.

use shmt_tensor::Tensor;

/// Unary element-wise VOPs from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Natural logarithm (non-positive inputs yield `-inf`/NaN as in libm).
    Log,
    /// Rectified linear unit.
    Relu,
    /// Reciprocal square root.
    Rsqrt,
    /// Square root.
    Sqrt,
    /// Hyperbolic tangent.
    Tanh,
}

impl UnaryOp {
    /// Applies the operation to one value.
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            UnaryOp::Log => x.ln(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Tanh => x.tanh(),
        }
    }

    /// Applies the operation element-wise to a tensor.
    pub fn map(&self, t: &Tensor) -> Tensor {
        t.map(|v| self.apply(v))
    }
}

/// Binary element-wise VOPs from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Element-wise addition.
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Multiply,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl BinaryOp {
    /// Applies the operation to a pair of values.
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Multiply => a * b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// Applies the operation element-wise across two equal-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.shape(), b.shape(), "binary op requires equal shapes");
        let data: Vec<f32> = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| self.apply(x, y))
            .collect();
        Tensor::from_vec(a.rows(), a.cols(), data).expect("same shape")
    }
}

/// Sum of all elements (`reduce_sum`). Accumulates in `f64` for stability.
pub fn reduce_sum(t: &Tensor) -> f64 {
    t.as_slice().iter().map(|&v| v as f64).sum()
}

/// Mean of all elements (`reduce_average`).
pub fn reduce_average(t: &Tensor) -> f64 {
    reduce_sum(t) / t.len() as f64
}

/// Maximum element (`reduce_max`); NaNs are ignored.
pub fn reduce_max(t: &Tensor) -> f32 {
    t.min_max().1
}

/// Minimum element (`reduce_min`); NaNs are ignored.
pub fn reduce_min(t: &Tensor) -> f32 {
    t.min_max().0
}

/// Dense matrix multiply (`GEMM`): `a (m x k) * b (k x n) -> (m x n)`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn gemm(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "GEMM inner dimensions must agree: {k} vs {k2}");
    let mut out = Tensor::zeros(m, n);
    // Shares the k-blocked i-k-j core with the GEMM VOP kernel; products
    // still accumulate in ascending k order per element.
    let all = shmt_tensor::tile::Tile {
        index: 0,
        row0: 0,
        col0: 0,
        rows: m,
        cols: n,
    };
    crate::gemm::gemm_into(a, b, all, &mut out.view_mut(0, 0, m, n));
    out
}

/// Same-size 2-D convolution (`conv`) with clamped boundaries.
///
/// # Panics
///
/// Panics if the filter has even dimensions.
pub fn conv2d(input: &Tensor, filter: &Tensor) -> Tensor {
    use crate::Kernel;
    let (rows, cols) = input.shape();
    let mut out = Tensor::zeros(rows, cols);
    let tile = shmt_tensor::tile::Tile {
        index: 0,
        row0: 0,
        col0: 0,
        rows,
        cols,
    };
    // Shares the interior/halo-split convolution with the conv VOP kernel.
    crate::conv::Conv2d::new(filter.clone()).run_exact(&[input], tile, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_ops_match_libm() {
        assert_eq!(UnaryOp::Relu.apply(-3.0), 0.0);
        assert_eq!(UnaryOp::Relu.apply(3.0), 3.0);
        assert!((UnaryOp::Sqrt.apply(16.0) - 4.0).abs() < 1e-6);
        assert!((UnaryOp::Rsqrt.apply(4.0) - 0.5).abs() < 1e-6);
        assert!((UnaryOp::Log.apply(std::f32::consts::E) - 1.0).abs() < 1e-6);
        assert!((UnaryOp::Tanh.apply(0.0)).abs() < 1e-9);
    }

    #[test]
    fn binary_ops_zip_elementwise() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 5.0, -2.0]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![4.0, 2.0, -3.0]).unwrap();
        assert_eq!(BinaryOp::Add.zip(&a, &b).as_slice(), &[5.0, 7.0, -5.0]);
        assert_eq!(BinaryOp::Sub.zip(&a, &b).as_slice(), &[-3.0, 3.0, 1.0]);
        assert_eq!(BinaryOp::Multiply.zip(&a, &b).as_slice(), &[4.0, 10.0, 6.0]);
        assert_eq!(BinaryOp::Max.zip(&a, &b).as_slice(), &[4.0, 5.0, -2.0]);
        assert_eq!(BinaryOp::Min.zip(&a, &b).as_slice(), &[1.0, 2.0, -3.0]);
    }

    #[test]
    fn reductions_agree() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(reduce_sum(&t), 10.0);
        assert_eq!(reduce_average(&t), 2.5);
        assert_eq!(reduce_max(&t), 4.0);
        assert_eq!(reduce_min(&t), 1.0);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Tensor::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let id = Tensor::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm(&a, &id).as_slice(), a.as_slice());
    }

    #[test]
    fn gemm_matches_hand_computed() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = gemm(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn conv2d_identity_filter() {
        let input = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let mut filter = Tensor::zeros(3, 3);
        filter[(1, 1)] = 1.0;
        assert_eq!(conv2d(&input, &filter).as_slice(), input.as_slice());
    }

    #[test]
    fn conv2d_box_blur_preserves_mean_of_flat() {
        let input = Tensor::filled(6, 6, 3.0);
        let filter = Tensor::filled(3, 3, 1.0 / 9.0);
        let out = conv2d(&input, &filter);
        for &v in out.as_slice() {
            assert!((v - 3.0).abs() < 1e-5);
        }
    }
}
