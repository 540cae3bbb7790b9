//! Zero-copy batch views: the row-major batch currency of every engine.
//!
//! Every API that takes preprocessed features takes a [`BatchView`]: a
//! borrowed, contiguous, row-major `&[f32]` plus a row width, instead of
//! one heap allocation per row:
//!
//! * **zero-copy** — viewing an existing matrix, or any sub-range of its
//!   rows, costs nothing;
//! * **cache-friendly** — kernels stream one allocation linearly instead of
//!   hopping between per-row heap blocks;
//! * **cheap to slice** — [`BatchView::rows_range`] hands chunked engines a
//!   sub-view without touching the data.
//!
//! [`BatchBuffer`] is the owned companion: a preprocessed matrix, a
//! serving lane's accumulating batch, or rows gathered from `&[Vec<f32>]`
//! raw records.

use crate::{HdcError, Result};

/// A borrowed row-major batch of feature vectors: contiguous data plus a
/// fixed row width.
///
/// # Example
///
/// ```
/// use hdc::BatchView;
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let view = BatchView::new(&data, 3)?;
/// assert_eq!(view.rows(), 2);
/// assert_eq!(view.row(1), &[4.0, 5.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchView<'a> {
    data: &'a [f32],
    width: usize,
}

impl<'a> BatchView<'a> {
    /// Creates a view over `data` interpreted as rows of `width` elements.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `width` is zero and
    /// [`HdcError::DimensionMismatch`] if `data.len()` is not a whole number
    /// of rows.
    pub fn new(data: &'a [f32], width: usize) -> Result<Self> {
        if width == 0 {
            return Err(HdcError::InvalidArgument("batch row width must be non-zero".into()));
        }
        if !data.len().is_multiple_of(width) {
            return Err(HdcError::DimensionMismatch {
                expected: data.len().div_ceil(width) * width,
                actual: data.len(),
            });
        }
        Ok(Self { data, width })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.width
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns `true` when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying contiguous row-major data.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()` (like slice indexing).
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Sub-view over rows `start..end` — zero-copy, the chunking primitive
    /// of the batched engines.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows()` (like slice indexing).
    pub fn rows_range(&self, start: usize, end: usize) -> BatchView<'a> {
        BatchView { data: &self.data[start * self.width..end * self.width], width: self.width }
    }

    /// Iterates over the rows as `&[f32]` slices.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.width)
    }

    /// Iterates over consecutive sub-views of at most `rows_per_chunk` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_chunk` is zero.
    pub fn chunk_rows(&self, rows_per_chunk: usize) -> impl Iterator<Item = BatchView<'a>> {
        let width = self.width;
        self.data.chunks(rows_per_chunk * width).map(move |data| BatchView { data, width })
    }
}

/// An owned row-major batch, viewable as a [`BatchView`].
///
/// Beyond the one-shot flatten constructors, a buffer is **reusable**: the
/// micro-batching serve engine keeps one per tenant and fills it row by row
/// ([`BatchBuffer::push_row`] hands out the next zeroed row to write into),
/// flushes it through the batched kernels, then [`BatchBuffer::clear`]s it —
/// after warm-up the accumulate→flush cycle performs no allocation at all.
///
/// # Example
///
/// ```
/// use hdc::BatchBuffer;
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
/// let buffer = BatchBuffer::from_rows(&rows, 2)?;
/// assert_eq!(buffer.view().rows(), 2);
/// assert_eq!(buffer.view().row(0), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchBuffer {
    data: Vec<f32>,
    width: usize,
}

impl BatchBuffer {
    /// Creates an empty buffer of the given row width.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `width` is zero.
    pub fn with_width(width: usize) -> Result<Self> {
        if width == 0 {
            return Err(HdcError::InvalidArgument("batch row width must be non-zero".into()));
        }
        Ok(Self { data: Vec::new(), width })
    }

    /// Appends one zeroed row and returns it for the caller to fill —
    /// the accumulate half of the reuse cycle (`Preprocessor`-style
    /// `transform_into` writers target this slice directly).
    ///
    /// Only reallocates when the row count exceeds every previous high-water
    /// mark; a [`BatchBuffer::clear`]ed buffer keeps its capacity.
    pub fn push_row(&mut self) -> &mut [f32] {
        let start = self.data.len();
        self.data.resize(start + self.width, 0.0);
        &mut self.data[start..]
    }

    /// Drops the last row (the undo of a [`BatchBuffer::push_row`] whose
    /// fill failed validation).  A no-op on an empty buffer.
    pub fn pop_row(&mut self) {
        let len = self.data.len().saturating_sub(self.width);
        self.data.truncate(len);
    }

    /// Removes every row, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Returns `true` when the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flattens `rows` into one contiguous buffer, validating that every row
    /// has exactly `width` elements.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `width` is zero and
    /// [`HdcError::FeatureMismatch`] on the first row of the wrong length.
    pub fn from_rows(rows: &[Vec<f32>], width: usize) -> Result<Self> {
        if width == 0 {
            return Err(HdcError::InvalidArgument("batch row width must be non-zero".into()));
        }
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(HdcError::FeatureMismatch { expected: width, actual: bad.len() });
        }
        let mut data = Vec::with_capacity(rows.len() * width);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Self { data, width })
    }

    /// Wraps an already-contiguous row-major matrix.
    ///
    /// # Errors
    ///
    /// Same validation as [`BatchView::new`].
    pub fn from_data(data: Vec<f32>, width: usize) -> Result<Self> {
        BatchView::new(&data, width)?;
        Ok(Self { data, width })
    }

    /// Borrows the buffer as a [`BatchView`].
    pub fn view(&self) -> BatchView<'_> {
        BatchView { data: &self.data, width: self.width }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.width
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Consumes the buffer, returning the contiguous data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_construction_validates_shape() {
        let data = [0.0f32; 6];
        assert!(BatchView::new(&data, 0).is_err());
        assert!(BatchView::new(&data, 4).is_err());
        let view = BatchView::new(&data, 3).unwrap();
        assert_eq!(view.rows(), 2);
        assert_eq!(view.width(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.data().len(), 6);
    }

    #[test]
    fn empty_views_are_fine() {
        let view = BatchView::new(&[], 5).unwrap();
        assert_eq!(view.rows(), 0);
        assert!(view.is_empty());
        assert_eq!(view.iter_rows().count(), 0);
    }

    #[test]
    fn rows_and_ranges_index_correctly() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let view = BatchView::new(&data, 4).unwrap();
        assert_eq!(view.row(2), &[8.0, 9.0, 10.0, 11.0]);
        let sub = view.rows_range(1, 3);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), view.row(1));
        let rows: Vec<&[f32]> = view.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], view.row(1));
    }

    #[test]
    fn chunking_covers_all_rows_in_order() {
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let view = BatchView::new(&data, 2).unwrap();
        let chunks: Vec<BatchView<'_>> = view.chunk_rows(2).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].rows(), 2);
        assert_eq!(chunks[2].rows(), 1);
        assert_eq!(chunks[2].row(0), view.row(4));
    }

    #[test]
    fn buffer_flattens_and_validates_rows() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let buffer = BatchBuffer::from_rows(&rows, 2).unwrap();
        assert_eq!(buffer.rows(), 2);
        assert_eq!(buffer.width(), 2);
        assert_eq!(buffer.view().row(1), &[3.0, 4.0]);
        assert_eq!(buffer.clone().into_data(), vec![1.0, 2.0, 3.0, 4.0]);

        let ragged = vec![vec![1.0f32, 2.0], vec![3.0]];
        assert!(matches!(
            BatchBuffer::from_rows(&ragged, 2),
            Err(HdcError::FeatureMismatch { expected: 2, actual: 1 })
        ));
        assert!(BatchBuffer::from_rows(&rows, 0).is_err());
    }

    #[test]
    fn buffer_reuse_cycle_accumulates_and_clears() {
        assert!(BatchBuffer::with_width(0).is_err());
        let mut buffer = BatchBuffer::with_width(3).unwrap();
        assert!(buffer.is_empty());
        assert_eq!(buffer.rows(), 0);

        buffer.push_row().copy_from_slice(&[1.0, 2.0, 3.0]);
        let row = buffer.push_row();
        assert_eq!(row, &[0.0; 3], "fresh rows arrive zeroed");
        row.copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(buffer.rows(), 2);
        assert_eq!(buffer.view().row(1), &[4.0, 5.0, 6.0]);

        // A failed fill is undone without disturbing earlier rows.
        buffer.push_row()[0] = 9.0;
        buffer.pop_row();
        assert_eq!(buffer.rows(), 2);
        assert_eq!(buffer.view().row(0), &[1.0, 2.0, 3.0]);

        buffer.clear();
        assert!(buffer.is_empty());
        // Cleared buffers zero recycled rows.
        assert_eq!(buffer.push_row(), &[0.0; 3]);
        buffer.pop_row();
        buffer.pop_row();
        assert!(buffer.is_empty(), "pop on an empty buffer is a no-op");
    }

    #[test]
    fn buffer_wraps_contiguous_data() {
        let buffer = BatchBuffer::from_data(vec![0.0; 8], 4).unwrap();
        assert_eq!(buffer.rows(), 2);
        assert!(BatchBuffer::from_data(vec![0.0; 7], 4).is_err());
    }
}
