use std::marker::PhantomData;
use std::ops::Range;

use crate::quant::RangeScan;
use crate::tile::Tile;
use crate::{Result, TensorError};

/// An owned, row-major, dense 2-D array of `f32`.
///
/// All SHMT datasets in the paper are flat 2-D floating-point arrays held in
/// the system's shared main memory (§4.1); `Tensor` plays that role here.
///
/// Backing storage is pooled: tensors take their buffer from the global
/// page arena ([`crate::arena`]) and return it on drop, so steady-state
/// tensor traffic performs no heap allocation once the arena is warm.
///
/// # Examples
///
/// ```
/// use shmt_tensor::Tensor;
///
/// let mut t = Tensor::zeros(2, 3);
/// t[(1, 2)] = 4.0;
/// assert_eq!(t.get(1, 2), Some(4.0));
/// assert_eq!(t.as_slice().len(), 6);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = crate::arena::take_f32(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        crate::arena::put_f32(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a `rows x cols` tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the element count overflows.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` tensor with every element set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the element count overflows.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self::try_filled(rows, cols, value).expect("valid tensor shape")
    }

    /// Fallible variant of [`Tensor::filled`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if either dimension is zero or
    /// `rows * cols` overflows `usize`.
    fn try_filled(rows: usize, cols: usize, value: f32) -> Result<Self> {
        let len = Self::checked_len(rows, cols)?;
        let mut data = crate::arena::take_f32(len);
        data.resize(len, value);
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a `rows x cols` tensor on an arena page that is not cleared
    /// first: every element is initialised, but holds whatever the page
    /// held last (see [`crate::arena::take_f32_stale`]). For a caller that
    /// overwrites every element, it saves the fill.
    ///
    /// # Panics
    ///
    /// As [`Tensor::zeros`].
    pub fn stale(rows: usize, cols: usize) -> Self {
        let len = Self::checked_len(rows, cols).expect("valid tensor shape");
        Tensor {
            rows,
            cols,
            data: crate::arena::take_f32_stale(len),
        }
    }

    /// Creates a tensor by evaluating `f(row, col)` for every element.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the element count overflows.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let len = Self::checked_len(rows, cols).expect("valid tensor shape");
        let mut data = crate::arena::take_f32(len);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for a degenerate shape and
    /// [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        let len = Self::checked_len(rows, cols)?;
        if data.len() != len {
            return Err(TensorError::ShapeMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    fn checked_len(rows: usize, cols: usize) -> Result<usize> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidShape { rows, cols });
        }
        rows.checked_mul(cols)
            .ok_or(TensorError::InvalidShape { rows, cols })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements. Tensors always hold
    /// at least one element, so this is always `false`; provided for
    /// API completeness alongside [`Tensor::len`].
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the backing storage in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the backing storage in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing storage. The buffer
    /// leaves the arena's custody: it is freed normally unless the
    /// caller hands it back (e.g. via [`Tensor::from_vec`]).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Checked element access.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrows one full row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds for {} rows",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows one full row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrows a rectangular window.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the tensor bounds; use
    /// [`Tensor::try_view`] for a checked variant.
    pub fn view(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> TensorView<'_> {
        self.try_view(row0, col0, rows, cols)
            .expect("view within bounds")
    }

    /// Checked variant of [`Tensor::view`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the window exceeds the tensor.
    pub fn try_view(
        &self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<TensorView<'_>> {
        self.check_window(row0, col0, rows, cols)?;
        Ok(TensorView {
            data: &self.data,
            stride: self.cols,
            row0,
            col0,
            rows,
            cols,
        })
    }

    /// Mutably borrows a rectangular window, addressed in this tensor's
    /// coordinates (see [`TensorViewMut`]).
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the tensor bounds; use
    /// [`Tensor::try_view_mut`] for a checked variant.
    pub fn view_mut(
        &mut self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> TensorViewMut<'_> {
        self.try_view_mut(row0, col0, rows, cols)
            .expect("view within bounds")
    }

    /// Checked variant of [`Tensor::view_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the window exceeds the tensor.
    pub fn try_view_mut(
        &mut self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<TensorViewMut<'_>> {
        self.check_window(row0, col0, rows, cols)?;
        Ok(TensorViewMut {
            origin: self.data.as_mut_ptr().wrapping_add(row0 * self.cols + col0),
            stride: self.cols,
            row0,
            col0,
            rows,
            cols,
            _data: PhantomData,
        })
    }

    fn check_window(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Result<()> {
        let row_end = row0.checked_add(rows);
        let col_end = col0.checked_add(cols);
        match (row_end, col_end) {
            (Some(re), Some(ce)) if re <= self.rows && ce <= self.cols && rows > 0 && cols > 0 => {
                Ok(())
            }
            _ => Err(TensorError::OutOfBounds {
                row: row0.saturating_add(rows.saturating_sub(1)),
                col: col0.saturating_add(cols.saturating_sub(1)),
                bounds: (self.rows, self.cols),
            }),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        let mut data = crate::arena::take_f32(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Minimum and maximum element values.
    ///
    /// NaN elements are ignored; if every element is NaN the result is
    /// `(0.0, 0.0)`.
    pub fn min_max(&self) -> (f32, f32) {
        let mut range = RangeScan::new();
        range.scan(&self.data);
        range.finish().unwrap_or((0.0, 0.0))
    }
}

impl std::ops::Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (row, col): (usize, usize)) -> &f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        &self.data[row * self.cols + col]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        &mut self.data[row * self.cols + col]
    }
}

/// A borrowed rectangular window over a [`Tensor`].
///
/// # Examples
///
/// ```
/// use shmt_tensor::Tensor;
///
/// let t = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
/// let v = t.view(1, 1, 2, 2);
/// assert_eq!(v.at(0, 0), 5.0);
/// assert_eq!(v.to_tensor().as_slice(), &[5.0, 6.0, 9.0, 10.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    data: &'a [f32],
    stride: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
}

impl<'a> TensorView<'a> {
    /// Number of rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the window.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total elements in the window.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Always `false`; windows are non-degenerate by construction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at window-relative coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the window.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of window"
        );
        self.data[(self.row0 + row) * self.stride + self.col0 + col]
    }

    /// Borrows one window row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &'a [f32] {
        assert!(row < self.rows, "row {row} out of window");
        let start = (self.row0 + row) * self.stride + self.col0;
        &self.data[start..start + self.cols]
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).iter().copied())
    }

    /// Copies the window into a new owned [`Tensor`].
    pub fn to_tensor(&self) -> Tensor {
        let mut page = crate::arena::take_f32(self.len());
        for r in 0..self.rows {
            page.extend_from_slice(self.row(r));
        }
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: page,
        }
    }

    /// Copies the window into an owned [`Tensor`] built in `page` (cleared
    /// first) while scanning its NaN-filtered minimum and maximum in the
    /// same pass — the fused form of [`TensorView::to_tensor`] +
    /// [`TensorView::min_max`] used by the Edge TPU transfer step, so each
    /// transferred page is touched once instead of twice.
    ///
    /// Returns `None` for the range when every element is NaN, matching
    /// the `(0.0, 0.0)` convention of [`TensorView::min_max`] at the
    /// call site's discretion. The range is the one a separate
    /// [`TensorView::min_max`] scan reports.
    pub fn to_tensor_with_min_max_in(&self, mut page: Vec<f32>) -> (Tensor, Option<(f32, f32)>) {
        page.clear();
        let mut range = RangeScan::new();
        for r in 0..self.rows {
            let row = self.row(r);
            page.extend_from_slice(row);
            range.scan(row);
        }
        (
            Tensor {
                rows: self.rows,
                cols: self.cols,
                data: page,
            },
            range.finish(),
        )
    }

    /// Minimum and maximum element values within the window.
    ///
    /// NaN elements are ignored; all-NaN windows yield `(0.0, 0.0)`.
    pub fn min_max(&self) -> (f32, f32) {
        let mut range = RangeScan::new();
        for r in 0..self.rows {
            range.scan(self.row(r));
        }
        range.finish().unwrap_or((0.0, 0.0))
    }
}

/// A mutable window over one tile of a dataset, addressed in *dataset*
/// coordinates: element `(r, c)` of the view is dataset element `(r, c)`,
/// for `r` in `row0..row0 + rows` and `c` in `col0..col0 + cols`. Any
/// access outside the window panics.
///
/// Where the window's elements live is the constructor's business, and a
/// kernel writing through the view cannot tell the three apart:
/// - a window of a tensor holding the whole dataset ([`Tensor::view_mut`]);
/// - a buffer of the window's own size ([`TensorViewMut::over`]);
/// - one tile of an output that several workers write at once
///   ([`TensorViewMut::from_raw`]).
///
/// Bounds are checked once per row or span, so row loops over the slices
/// the view hands out carry no per-element checks.
///
/// # Examples
///
/// ```
/// use shmt_tensor::tile::Tile;
/// use shmt_tensor::{Tensor, TensorViewMut};
///
/// let tile = Tile { index: 0, row0: 2, col0: 3, rows: 2, cols: 2 };
/// let mut buf = [0.0f32; 4];
/// let mut view = TensorViewMut::over(&mut buf, tile);
/// view[(3, 4)] = 1.5;
/// view.row_mut(2).fill(9.0);
/// assert_eq!(buf, [9.0, 9.0, 0.0, 1.5]);
///
/// let mut whole = Tensor::zeros(4, 5);
/// whole.view_mut(2, 3, 2, 2).span_mut(3, 4..5)[0] = 1.5;
/// assert_eq!(whole[(3, 4)], 1.5);
/// ```
#[derive(Debug)]
pub struct TensorViewMut<'a> {
    /// Where dataset element `(row0, col0)` lives.
    origin: *mut f32,
    /// Elements from one window row to the next.
    stride: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    _data: PhantomData<&'a mut [f32]>,
}

impl<'a> TensorViewMut<'a> {
    /// The window `tile` over a buffer of exactly its size, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != tile.len()`.
    pub fn over(buf: &'a mut [f32], tile: Tile) -> Self {
        assert_eq!(buf.len(), tile.len(), "buffer size of {tile:?}");
        TensorViewMut {
            origin: buf.as_mut_ptr(),
            stride: tile.cols,
            row0: tile.row0,
            col0: tile.col0,
            rows: tile.rows,
            cols: tile.cols,
            _data: PhantomData,
        }
    }

    /// The window `tile` of a dataset whose element `(tile.row0,
    /// tile.col0)` is at `origin`, with `stride` elements from one row to
    /// the next — one tile of an output that other views write at once.
    ///
    /// # Safety
    ///
    /// For `'a`, every element of the window (`origin + r * stride + c`
    /// for `r < tile.rows`, `c < tile.cols`) must be valid for reads and
    /// writes, lie in one allocation, and be accessed through this view
    /// alone.
    pub unsafe fn from_raw(origin: *mut f32, stride: usize, tile: Tile) -> Self {
        TensorViewMut {
            origin,
            stride,
            row0: tile.row0,
            col0: tile.col0,
            rows: tile.rows,
            cols: tile.cols,
            _data: PhantomData,
        }
    }

    /// Number of rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the window.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The same window addressed relative to dataset element `(row0,
    /// col0)`: for a kernel that runs on an extract of the dataset whose
    /// first element is that one.
    ///
    /// # Panics
    ///
    /// Panics if `(row0, col0)` lies below or right of the window's first
    /// element.
    pub fn rebased(&mut self, row0: usize, col0: usize) -> TensorViewMut<'_> {
        TensorViewMut {
            row0: self
                .row0
                .checked_sub(row0)
                .expect("rebase below the window"),
            col0: self
                .col0
                .checked_sub(col0)
                .expect("rebase right of the window"),
            _data: PhantomData,
            ..*self
        }
    }

    /// The offset from `origin` of dataset row `row`, columns `cols`.
    fn offset(&self, row: usize, cols: &Range<usize>) -> usize {
        assert!(
            (self.row0..self.row0 + self.rows).contains(&row)
                && self.col0 <= cols.start
                && cols.start <= cols.end
                && cols.end <= self.col0 + self.cols,
            "row {row}, columns {cols:?} lie outside the {}x{} window at ({}, {})",
            self.rows,
            self.cols,
            self.row0,
            self.col0
        );
        (row - self.row0) * self.stride + (cols.start - self.col0)
    }

    /// Borrows dataset row `row`, columns `cols`, of the window.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves the window.
    pub fn span(&self, row: usize, cols: Range<usize>) -> &[f32] {
        let at = self.offset(row, &cols);
        // SAFETY: `offset` checked that the span lies inside the window,
        // whose elements every constructor guarantees valid for `'a`;
        // `&self` shares them with readers only.
        unsafe { std::slice::from_raw_parts(self.origin.add(at), cols.len()) }
    }

    /// Mutably borrows dataset row `row`, columns `cols`, of the window.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves the window.
    pub fn span_mut(&mut self, row: usize, cols: Range<usize>) -> &mut [f32] {
        let at = self.offset(row, &cols);
        // SAFETY: as in `span`; `&mut self` makes this borrow the only
        // access to the window while it lives.
        unsafe { std::slice::from_raw_parts_mut(self.origin.add(at), cols.len()) }
    }

    /// Borrows the window's part of dataset row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of the window.
    pub fn row(&self, row: usize) -> &[f32] {
        self.span(row, self.col0..self.col0 + self.cols)
    }

    /// Mutably borrows the window's part of dataset row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of the window.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        self.span_mut(row, self.col0..self.col0 + self.cols)
    }

    /// Overwrites the window with the contents of `src`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RectMismatch`] when shapes differ.
    pub fn copy_from(&mut self, src: &TensorView<'_>) -> Result<()> {
        if (self.rows, self.cols) != (src.rows(), src.cols()) {
            return Err(TensorError::RectMismatch {
                src: (src.rows(), src.cols()),
                dst: (self.rows, self.cols),
            });
        }
        for r in 0..self.rows {
            self.row_mut(self.row0 + r).copy_from_slice(src.row(r));
        }
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for TensorViewMut<'_> {
    type Output = f32;

    /// Dataset element `(row, col)`; panics outside the window.
    fn index(&self, (row, col): (usize, usize)) -> &f32 {
        &self.span(row, col..col + 1)[0]
    }
}

impl std::ops::IndexMut<(usize, usize)> for TensorViewMut<'_> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f32 {
        &mut self.span_mut(row, col..col + 1)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_zero_values() {
        let t = Tensor::zeros(3, 5);
        assert_eq!(t.shape(), (3, 5));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(matches!(
            Tensor::try_filled(0, 4, 1.0),
            Err(TensorError::InvalidShape { rows: 0, cols: 4 })
        ));
        assert!(Tensor::try_filled(usize::MAX, 2, 1.0).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(4, 4);
        t[(2, 3)] = 7.5;
        assert_eq!(t[(2, 3)], 7.5);
        assert_eq!(t.get(2, 3), Some(7.5));
        assert_eq!(t.get(4, 0), None);
    }

    #[test]
    fn view_reads_correct_window() {
        let t = Tensor::from_fn(4, 4, |r, c| (r * 10 + c) as f32);
        let v = t.view(1, 2, 2, 2);
        assert_eq!(v.at(0, 0), 12.0);
        assert_eq!(v.at(1, 1), 23.0);
        assert_eq!(v.row(1), &[22.0, 23.0]);
    }

    #[test]
    fn view_out_of_bounds_errors() {
        let t = Tensor::zeros(4, 4);
        assert!(t.try_view(3, 3, 2, 2).is_err());
        assert!(t.try_view(0, 0, 0, 1).is_err());
        assert!(t.try_view(usize::MAX, 0, 2, 1).is_err());
    }

    #[test]
    fn view_mut_copy_from_writes_window() {
        let src_t = Tensor::filled(2, 2, 9.0);
        let src = src_t.view(0, 0, 2, 2);
        let mut dst = Tensor::zeros(4, 4);
        dst.try_view_mut(1, 1, 2, 2)
            .unwrap()
            .copy_from(&src)
            .unwrap();
        assert_eq!(dst[(1, 1)], 9.0);
        assert_eq!(dst[(2, 2)], 9.0);
        assert_eq!(dst[(0, 0)], 0.0);
        assert_eq!(dst[(3, 3)], 0.0);
    }

    #[test]
    fn view_mut_addresses_the_tile_in_dataset_coordinates() {
        let tile = Tile {
            index: 0,
            row0: 2,
            col0: 1,
            rows: 2,
            cols: 3,
        };
        let mut whole = Tensor::zeros(5, 5);
        let mut buf = Tensor::zeros(2, 3);
        for mut view in [
            whole.view_mut(2, 1, 2, 3),
            TensorViewMut::over(buf.as_mut_slice(), tile),
        ] {
            view[(2, 1)] = 1.0;
            view.span_mut(3, 2..4).copy_from_slice(&[2.0, 3.0]);
            // An extract starting at dataset (1, 1) sees the same element
            // as its own (1, 0).
            view.rebased(1, 1)[(1, 0)] += 10.0;
            assert_eq!(view.row(2), &[11.0, 0.0, 0.0]);
        }
        assert_eq!(buf.as_slice(), &[11.0, 0.0, 0.0, 0.0, 2.0, 3.0]);
        assert_eq!(whole.view(2, 1, 2, 3).to_tensor(), buf);
        assert_eq!(whole.as_slice().iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    fn view_mut_writes_outside_the_tile_panic() {
        let panics = |f: &dyn Fn(&mut TensorViewMut<'_>)| {
            let mut t = Tensor::zeros(6, 6);
            let mut view = t.view_mut(2, 2, 2, 2);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut view))).is_err()
        };
        assert!(!panics(&|v| v[(3, 3)] = 1.0), "inside is fine");
        // A row above and below, a column left and right.
        assert!(panics(&|v| v[(1, 2)] = 1.0));
        assert!(panics(&|v| v.row_mut(4).fill(1.0)));
        assert!(panics(&|v| v[(2, 1)] = 1.0));
        assert!(panics(&|v| v[(2, 4)] = 1.0));
        // A span that starts inside and runs past the tile's edge.
        assert!(panics(&|v| v.span_mut(2, 3..5).fill(1.0)));
        assert!(panics(&|v| v.span_mut(2, 1..3).fill(1.0)));
    }

    #[test]
    fn copy_from_shape_mismatch_errors() {
        let src_t = Tensor::filled(2, 3, 1.0);
        let src = src_t.view(0, 0, 2, 3);
        let mut dst = Tensor::zeros(4, 4);
        let err = dst
            .try_view_mut(0, 0, 2, 2)
            .unwrap()
            .copy_from(&src)
            .unwrap_err();
        assert_eq!(
            err,
            TensorError::RectMismatch {
                src: (2, 3),
                dst: (2, 2)
            }
        );
    }

    #[test]
    fn min_max_ignores_nan() {
        let t = Tensor::from_vec(1, 4, vec![3.0, f32::NAN, -1.0, 2.0]).unwrap();
        assert_eq!(t.min_max(), (-1.0, 3.0));
    }

    #[test]
    fn to_tensor_with_min_max_matches_separate_passes() {
        let t = Tensor::from_fn(5, 7, |r, c| (r as f32) - (c as f32) * 0.5);
        let v = t.view(1, 2, 3, 4);
        let (copy, range) = v.to_tensor_with_min_max_in(Vec::new());
        assert_eq!(copy, v.to_tensor());
        assert_eq!(range, Some(v.min_max()));
    }

    #[test]
    fn to_tensor_with_min_max_all_nan_is_none() {
        let nan = Tensor::from_vec(1, 2, vec![f32::NAN, f32::NAN]).unwrap();
        let (copy, range) = nan.view(0, 0, 1, 2).to_tensor_with_min_max_in(Vec::new());
        assert_eq!(range, None);
        assert!(copy.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn dropped_tensor_buffer_is_recycled() {
        let t = Tensor::filled(32, 32, 1.5);
        let before = crate::arena::stats();
        drop(t);
        let after = crate::arena::stats();
        assert!(after.recycled + after.dropped > before.recycled + before.dropped);
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor::from_fn(2, 2, |r, c| (r + c) as f32);
        let doubled = t.map(|v| v * 2.0);
        assert_eq!(doubled.as_slice(), &[0.0, 2.0, 2.0, 4.0]);
        assert_eq!(doubled.shape(), t.shape());
    }
}
