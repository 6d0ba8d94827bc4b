//! Partition geometry: dividing a dataset into page-granular partitions.
//!
//! SHMT's runtime partitions each VOP's data "larger than and ... multiples
//! of the main memory page size whenever possible" (paper §3.4): with 4 KB
//! pages and `f32` elements, a vector partition holds at least 1,024
//! consecutive elements and a matrix tile is at least 1,024×1,024 when the
//! dataset allows it. This module provides that geometry for both the
//! element-wise vector model and the tile-wise matrix model (§3.2.1).

/// Main-memory page size assumed by the partitioning rules (bytes).
pub const PAGE_SIZE_BYTES: usize = 4096;

/// Minimum elements per vector partition (one 4 KB page of `f32`).
pub const MIN_VECTOR_ELEMS: usize = PAGE_SIZE_BYTES / std::mem::size_of::<f32>();

/// Preferred minimum matrix tile edge, applied when the dataset is at least
/// that large in the corresponding dimension.
pub const MIN_TILE_EDGE: usize = 1024;

/// One rectangular partition of a 2-D dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    /// Index of this tile within its grid (row-major).
    pub index: usize,
    /// First row covered.
    pub row0: usize,
    /// First column covered.
    pub col0: usize,
    /// Rows covered.
    pub rows: usize,
    /// Columns covered.
    pub cols: usize,
}

impl Tile {
    /// Elements covered by the tile.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when the tile covers no elements (never produced by grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes covered assuming `f32` elements.
    pub fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }
}

/// Desired tile extent used to build a [`TileGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileSpec {
    rows: usize,
    cols: usize,
}

impl TileSpec {
    /// Creates a spec with the given tile extent.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile extent must be positive");
        TileSpec { rows, cols }
    }

    /// The page-rule spec for a `rows x cols` dataset: 1,024×1,024 tiles when
    /// the dataset is that large, otherwise the full dataset as one tile
    /// dimension ("whenever possible", §3.4).
    pub fn page_rule(rows: usize, cols: usize) -> Self {
        TileSpec {
            rows: MIN_TILE_EDGE.min(rows.max(1)),
            cols: MIN_TILE_EDGE.min(cols.max(1)),
        }
    }

    /// Tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Covers a `rows x cols` dataset with tiles of this extent; edge tiles
    /// are clipped to the dataset bounds.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has a zero dimension.
    pub fn grid_for(&self, rows: usize, cols: usize) -> TileGrid {
        assert!(rows > 0 && cols > 0, "dataset must be non-empty");
        let mut tiles = Vec::new();
        let mut index = 0;
        let mut row0 = 0;
        while row0 < rows {
            let trows = self.rows.min(rows - row0);
            let mut col0 = 0;
            while col0 < cols {
                let tcols = self.cols.min(cols - col0);
                tiles.push(Tile {
                    index,
                    row0,
                    col0,
                    rows: trows,
                    cols: tcols,
                });
                index += 1;
                col0 += self.cols;
            }
            row0 += self.rows;
        }
        TileGrid {
            tiles,
            dataset: (rows, cols),
        }
    }
}

/// The set of tiles covering one dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    tiles: Vec<Tile>,
    dataset: (usize, usize),
}

impl TileGrid {
    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// `true` when the grid has no tiles (never produced by [`TileSpec`]).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Dataset shape this grid covers, as `(rows, cols)`.
    pub fn dataset(&self) -> (usize, usize) {
        self.dataset
    }

    /// Iterates over the tiles in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tile> {
        self.tiles.iter()
    }

    /// Borrows the tiles.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Looks up a tile by grid index.
    pub fn get(&self, index: usize) -> Option<&Tile> {
        self.tiles.get(index)
    }
}

impl<'a> IntoIterator for &'a TileGrid {
    type Item = &'a Tile;
    type IntoIter = std::slice::Iter<'a, Tile>;

    fn into_iter(self) -> Self::IntoIter {
        self.tiles.iter()
    }
}

/// One contiguous 1-D partition for the element-wise vector model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Index of this segment within its partitioning.
    pub index: usize,
    /// First element covered.
    pub start: usize,
    /// Number of elements covered.
    pub len: usize,
}

impl Segment {
    /// One-past-the-end element index.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Bytes covered assuming `f32` elements.
    pub fn byte_len(&self) -> usize {
        self.len * std::mem::size_of::<f32>()
    }
}

/// Splits `len` elements into roughly `want` page-granular segments.
///
/// Segment lengths are multiples of [`MIN_VECTOR_ELEMS`] whenever
/// `len >= MIN_VECTOR_ELEMS` (the final segment absorbs the remainder);
/// smaller datasets become a single segment, honoring §3.4's "whenever
/// possible" qualifier.
///
/// # Examples
///
/// ```
/// use shmt_tensor::tile::{segment, MIN_VECTOR_ELEMS};
///
/// let segs = segment(10 * MIN_VECTOR_ELEMS + 7, 4);
/// assert!(segs.len() <= 4);
/// assert!(segs[0].len % MIN_VECTOR_ELEMS == 0);
/// let total: usize = segs.iter().map(|s| s.len).sum();
/// assert_eq!(total, 10 * MIN_VECTOR_ELEMS + 7);
/// ```
///
/// # Panics
///
/// Panics if `len` or `want` is zero.
pub fn segment(len: usize, want: usize) -> Vec<Segment> {
    assert!(len > 0, "cannot segment an empty dataset");
    assert!(want > 0, "must request at least one segment");
    if len < MIN_VECTOR_ELEMS {
        return vec![Segment {
            index: 0,
            start: 0,
            len,
        }];
    }
    // Pages available and pages per segment (at least one page each);
    // rounding the pages-per-segment up guarantees at most `want` segments.
    let pages = len / MIN_VECTOR_ELEMS; // >= 1
    let per = pages.div_ceil(want).max(1);
    let chunk = per * MIN_VECTOR_ELEMS;
    let mut segs = Vec::new();
    let mut start = 0;
    let mut index = 0;
    while start < len {
        let remaining = len - start;
        // The final segment absorbs the sub-page remainder.
        let this = if remaining < chunk + MIN_VECTOR_ELEMS {
            remaining
        } else {
            chunk
        };
        segs.push(Segment {
            index,
            start,
            len: this,
        });
        start += this;
        index += 1;
    }
    debug_assert!(segs.len() <= want);
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_dataset_exactly() {
        let grid = TileSpec::new(3, 4).grid_for(7, 10);
        let total: usize = grid.iter().map(Tile::len).sum();
        assert_eq!(total, 70);
        assert_eq!(grid.dataset(), (7, 10));
        // 3 row bands (3,3,1) x 3 col bands (4,4,2)
        assert_eq!(grid.len(), 9);
    }

    #[test]
    fn grid_indices_are_sequential() {
        let grid = TileSpec::new(2, 2).grid_for(4, 4);
        for (i, tile) in grid.iter().enumerate() {
            assert_eq!(tile.index, i);
        }
    }

    #[test]
    fn page_rule_clamps_to_dataset() {
        let spec = TileSpec::page_rule(256, 4096);
        assert_eq!(spec.rows(), 256);
        assert_eq!(spec.cols(), MIN_TILE_EDGE);
        let big = TileSpec::page_rule(4096, 4096);
        assert_eq!((big.rows(), big.cols()), (MIN_TILE_EDGE, MIN_TILE_EDGE));
    }

    #[test]
    fn tiles_do_not_overlap() {
        let grid = TileSpec::new(3, 3).grid_for(8, 8);
        let mut covered = [false; 64];
        for t in &grid {
            for r in t.row0..t.row0 + t.rows {
                for c in t.col0..t.col0 + t.cols {
                    assert!(!covered[r * 8 + c], "tile overlap at ({r},{c})");
                    covered[r * 8 + c] = true;
                }
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn segment_small_dataset_is_single() {
        let segs = segment(100, 8);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 100);
    }

    #[test]
    fn segment_is_page_aligned_and_complete() {
        let len = 23 * MIN_VECTOR_ELEMS + 11;
        let segs = segment(len, 4);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, len);
        for s in &segs[..segs.len() - 1] {
            assert_eq!(
                s.len % MIN_VECTOR_ELEMS,
                0,
                "non-final segment not page aligned"
            );
        }
        // Contiguity.
        for w in segs.windows(2) {
            assert_eq!(w[0].end(), w[1].start);
        }
    }

    #[test]
    fn segment_respects_requested_count_roughly() {
        let segs = segment(64 * MIN_VECTOR_ELEMS, 8);
        assert_eq!(segs.len(), 8);
        for s in &segs {
            assert_eq!(s.len, 8 * MIN_VECTOR_ELEMS);
        }
    }

    #[test]
    fn segment_more_parts_than_pages_caps_at_pages() {
        let segs = segment(3 * MIN_VECTOR_ELEMS, 10);
        assert!(segs.len() <= 3);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 3 * MIN_VECTOR_ELEMS);
    }
}
