//! Encoders from low-dimensional feature vectors into hyperspace.
//!
//! Step (A) of the CyberHD workflow maps every pre-processed network-flow
//! feature vector (41–78 real-valued features after one-hot expansion and
//! normalization) into a `D`-dimensional hypervector.  Three encoders are
//! provided:
//!
//! * [`RbfEncoder`] — the nonlinear random-Fourier-feature encoder the paper
//!   uses for cyber-security data.  Its per-dimension Gaussian base vectors
//!   are what CyberHD *regenerates* when a dimension is found insignificant.
//! * [`IdLevelEncoder`] — the classic ID–level (position × quantized value)
//!   encoder used by many earlier HDC systems; provided as a static-encoder
//!   baseline and for completeness.
//! * [`RecordEncoder`] — record-based encoding (bind feature-ID hypervectors
//!   with level hypervectors, then bundle), the other widespread static
//!   scheme.
//!
//! All encoders implement the object-safe [`Encoder`] trait so the trainer
//! can be written once and parameterized by encoder.

mod id_level;
mod rbf;
mod record;
mod symbolic;

pub use id_level::IdLevelEncoder;
pub use rbf::RbfEncoder;
pub use record::RecordEncoder;
pub use symbolic::{ItemMemory, NGramEncoder, SymbolRecordEncoder};

use crate::batch::BatchView;
use crate::dense::Hypervector;
use crate::{HdcError, Result};

/// A mapping from feature vectors to hypervectors.
///
/// Implementations must be deterministic: encoding the same features twice
/// (without regeneration in between) yields the same hypervector.
///
/// Every entry point writes into caller-provided buffers, so the hot
/// batched path performs **zero per-sample allocations**.  By default the
/// batch entry points are layered on the single-row
/// [`Encoder::encode_into`]; an encoder with a batched kernel may instead
/// make that kernel its one arithmetic and [`Encoder::encode_into`] its
/// `n = 1` case (the RBF encoder does).  Either way, single-row, batched
/// and sign encodings of the same input are bit-identical.
pub trait Encoder: Send + Sync {
    /// Number of input features expected by [`Encoder::encode`].
    fn input_features(&self) -> usize;

    /// Dimensionality of the produced hypervectors.
    fn output_dim(&self) -> usize;

    /// Encodes one feature vector into the caller-provided buffer `out`
    /// (length [`Encoder::output_dim`]), allocating nothing.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HdcError::FeatureMismatch`] if `features.len()` does
    /// not match [`Encoder::input_features`] and
    /// [`crate::HdcError::DimensionMismatch`] if `out.len()` does not match
    /// [`Encoder::output_dim`].
    fn encode_into(&self, features: &[f32], out: &mut [f32]) -> Result<()>;

    /// Encodes one feature vector into a freshly allocated hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HdcError::FeatureMismatch`] if `features.len()` does
    /// not match [`Encoder::input_features`].
    fn encode(&self, features: &[f32]) -> Result<Hypervector> {
        let mut out = vec![0.0f32; self.output_dim()];
        self.encode_into(features, &mut out)?;
        Ok(Hypervector::from_vec(out))
    }

    /// Encodes a row-major batch view into a row-major `rows × dim` matrix
    /// (`out.len() == batch.rows() * output_dim()`), with zero per-sample
    /// allocation.
    ///
    /// The default implementation maps [`Encoder::encode_into`] over the
    /// rows; encoders with a cache-blocked batched kernel override it (the
    /// overrides must produce bit-identical outputs).
    ///
    /// # Errors
    ///
    /// Returns [`crate::HdcError::DimensionMismatch`] if `out` has the wrong
    /// length and [`crate::HdcError::FeatureMismatch`] if the view's row
    /// width is not [`Encoder::input_features`].
    fn encode_batch_into(&self, batch: BatchView<'_>, out: &mut [f32]) -> Result<()> {
        let dim = self.output_dim();
        check_batch_shape(self.input_features(), dim, batch, out)?;
        for (features, row) in batch.iter_rows().zip(out.chunks_exact_mut(dim)) {
            self.encode_into(features, row)?;
        }
        Ok(())
    }

    /// Encodes a batch view.
    ///
    /// One allocation for the whole batch; see [`Encoder::encode_batch_into`]
    /// for the allocation-free form.
    ///
    /// # Errors
    ///
    /// Returns the first encoding error encountered.
    fn encode_batch(&self, batch: BatchView<'_>) -> Result<Vec<Hypervector>> {
        let dim = self.output_dim();
        let mut matrix = vec![0.0f32; batch.rows() * dim];
        self.encode_batch_into(batch, &mut matrix)?;
        Ok(matrix.chunks_exact(dim).map(|row| Hypervector::from_vec(row.to_vec())).collect())
    }

    /// Encodes a batch straight to packed **1-bit sign vectors**: bit `d` of
    /// row `i` is set iff the encoded value `h_d(x_i) >= 0` — exactly the
    /// level signs of a `BitWidth::B1` quantization of the encoding.
    ///
    /// `words` is a row-major matrix of
    /// `batch.rows() × `[`crate::binary::words_for_dim`]`(output_dim())`
    /// words; `zero_rows[i]` is set iff every encoded value of row `i` was
    /// exactly `0.0` (the serial 1-bit path quantizes such a row to all-zero
    /// levels rather than all-plus signs, and scoring needs to know).
    ///
    /// The default implementation encodes through
    /// [`Encoder::encode_batch_into`] and thresholds, so it is bit-exact
    /// with encode-then-quantize by construction; encoders with a fused
    /// kernel override it and must preserve that bit-exactness.  The RBF
    /// encoder reduces the cosine to a quadrant test, and the symbolic
    /// n-gram and record encoders threshold their bit-sliced bundle
    /// counters against the majority; neither materializes the f32 row.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HdcError::DimensionMismatch`] if `words` or
    /// `zero_rows` has the wrong length and
    /// [`crate::HdcError::FeatureMismatch`] if the view's row width is not
    /// [`Encoder::input_features`].
    fn encode_signs_into(
        &self,
        batch: BatchView<'_>,
        words: &mut [u64],
        zero_rows: &mut [bool],
    ) -> Result<()> {
        let dim = self.output_dim();
        check_sign_batch_shape(self.input_features(), dim, batch, words, zero_rows)?;
        let mut matrix = vec![0.0f32; batch.rows() * dim];
        self.encode_batch_into(batch, &mut matrix)?;
        let words_per_row = crate::binary::words_for_dim(dim);
        for ((row, word_row), zero) in matrix
            .chunks_exact(dim)
            .zip(words.chunks_exact_mut(words_per_row))
            .zip(zero_rows.iter_mut())
        {
            *zero = crate::binary::pack_f32_signs_checked(row, word_row);
        }
        Ok(())
    }
}

/// Validates the shapes of a sign-encoding call: the view's row width is
/// `features`, `words` holds `batch.rows() * words_for_dim(dim)` words and
/// `zero_rows` has one flag per row.
///
/// # Errors
///
/// Returns [`HdcError::DimensionMismatch`] / [`HdcError::FeatureMismatch`]
/// accordingly.
pub(crate) fn check_sign_batch_shape(
    features: usize,
    dim: usize,
    batch: BatchView<'_>,
    words: &[u64],
    zero_rows: &[bool],
) -> Result<()> {
    let expected_words = batch.rows() * crate::binary::words_for_dim(dim);
    if words.len() != expected_words {
        return Err(HdcError::DimensionMismatch { expected: expected_words, actual: words.len() });
    }
    if zero_rows.len() != batch.rows() {
        return Err(HdcError::DimensionMismatch {
            expected: batch.rows(),
            actual: zero_rows.len(),
        });
    }
    if batch.width() != features {
        return Err(HdcError::FeatureMismatch { expected: features, actual: batch.width() });
    }
    Ok(())
}

/// Validates the shapes of a batch-encoding call: the view's row width is
/// `features` and `out` holds exactly `batch.rows() * dim` elements.
///
/// # Errors
///
/// Returns [`HdcError::DimensionMismatch`] / [`HdcError::FeatureMismatch`]
/// accordingly; encoders call this before entering their (infallible)
/// batched kernels.
pub(crate) fn check_batch_shape(
    features: usize,
    dim: usize,
    batch: BatchView<'_>,
    out: &[f32],
) -> Result<()> {
    if out.len() != batch.rows() * dim {
        return Err(HdcError::DimensionMismatch {
            expected: batch.rows() * dim,
            actual: out.len(),
        });
    }
    if batch.width() != features {
        return Err(HdcError::FeatureMismatch { expected: features, actual: batch.width() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_trait_is_object_safe() {
        fn takes_dyn(_e: &dyn Encoder) {}
        let e = RbfEncoder::new(3, 16, 0).unwrap();
        takes_dyn(&e);
    }

    #[test]
    fn default_batch_encoding_matches_single_encoding() {
        // IdLevel uses the default row-by-row batch path: exact equality.
        let e = IdLevelEncoder::new(2, 32, 8, 1).unwrap();
        let data = [0.1f32, 0.2, 0.5, 0.9];
        let batch = BatchView::new(&data, 2).unwrap();
        let encoded = e.encode_batch(batch).unwrap();
        assert_eq!(encoded.len(), 2);
        assert_eq!(encoded[0], e.encode(batch.row(0)).unwrap());
        assert_eq!(encoded[1], e.encode(batch.row(1)).unwrap());

        // The RBF override is the same arithmetic: exact equality too.
        let e = RbfEncoder::new(2, 32, 1).unwrap();
        let data = [0.1f32, 0.2, -0.5, 0.9];
        let batch = BatchView::new(&data, 2).unwrap();
        let encoded = e.encode_batch(batch).unwrap();
        for (row, features) in encoded.iter().zip(batch.iter_rows()) {
            assert_eq!(*row, e.encode(features).unwrap());
        }
    }

    #[test]
    fn single_row_batch_and_sign_encodings_are_bit_identical_for_every_encoder() {
        // 37 rows span several RBF (16-row) and sign (8-row) blocks; the RBF
        // dimensionality spans two output tiles.
        const ROWS: usize = 37;
        let real = |width: usize| -> Vec<f32> {
            (0..ROWS * width)
                .map(|i| if i % 5 == 0 { 0.0 } else { (i as f32 * 0.37).sin() * 1.5 })
                .collect()
        };
        let sequence: Vec<f32> = (0..ROWS * 16).map(|i| ((i * 7 + i / 16) % 8) as f32).collect();
        let table: Vec<f32> = (0..ROWS)
            .flat_map(|r| [(r % 3) as f32, (r * 2 % 5) as f32, (r as f32 * 0.13).fract()])
            .collect();
        let cases: Vec<(Box<dyn Encoder>, Vec<f32>)> = vec![
            (Box::new(RbfEncoder::with_sigma(9, 2100, 1.5, 3).unwrap()), real(9)),
            (Box::new(IdLevelEncoder::new(9, 700, 16, 3).unwrap()), real(9)),
            (Box::new(RecordEncoder::new(9, 700, 3).unwrap()), real(9)),
            (Box::new(NGramEncoder::new(16, 8, 3, 700, 3).unwrap()), sequence),
            (Box::new(SymbolRecordEncoder::new(&[3, 5, 0], 700, 16, 3).unwrap()), table),
        ];
        for (index, (e, data)) in cases.iter().enumerate() {
            let (width, dim) = (e.input_features(), e.output_dim());
            let batch = BatchView::new(data, width).unwrap();
            assert_eq!(batch.rows(), ROWS);
            let mut matrix = vec![f32::NAN; ROWS * dim];
            e.encode_batch_into(batch, &mut matrix).unwrap();
            let words_per_row = crate::binary::words_for_dim(dim);
            let mut words = vec![u64::MAX; ROWS * words_per_row];
            let mut zero_rows = vec![true; ROWS];
            e.encode_signs_into(batch, &mut words, &mut zero_rows).unwrap();
            let mut row = vec![f32::NAN; dim];
            let mut packed = vec![0u64; words_per_row];
            for i in 0..ROWS {
                e.encode_into(batch.row(i), &mut row).unwrap();
                let batched = &matrix[i * dim..(i + 1) * dim];
                for (d, (a, b)) in row.iter().zip(batched).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "encoder {index} row {i} dim {d}");
                }
                let zero = crate::binary::pack_f32_signs_checked(&row, &mut packed);
                assert_eq!(
                    packed.as_slice(),
                    &words[i * words_per_row..(i + 1) * words_per_row],
                    "encoder {index} row {i}"
                );
                assert_eq!(zero, zero_rows[i], "encoder {index} row {i}");
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_for_every_encoder() {
        let encoders: Vec<Box<dyn Encoder>> = vec![
            Box::new(RbfEncoder::new(3, 64, 2).unwrap()),
            Box::new(IdLevelEncoder::new(3, 64, 8, 2).unwrap()),
            Box::new(RecordEncoder::new(3, 64, 2).unwrap()),
        ];
        let x = [0.25, -0.5, 0.75];
        for e in &encoders {
            let fresh = e.encode(&x).unwrap();
            let mut buf = vec![f32::NAN; 64];
            e.encode_into(&x, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), fresh.as_slice());
        }
    }

    #[test]
    fn encode_into_validates_both_shapes() {
        let e = RbfEncoder::new(3, 16, 0).unwrap();
        let mut buf = vec![0.0f32; 16];
        assert!(matches!(
            e.encode_into(&[1.0], &mut buf),
            Err(crate::HdcError::FeatureMismatch { .. })
        ));
        let mut short = vec![0.0f32; 15];
        assert!(matches!(
            e.encode_into(&[1.0, 2.0, 3.0], &mut short),
            Err(crate::HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn encode_batch_into_writes_the_row_major_matrix() {
        let e = RecordEncoder::new(2, 8, 5).unwrap();
        let data = [0.5f32, -1.0, 1.0, 0.0, 0.0, 2.0];
        let batch = BatchView::new(&data, 2).unwrap();
        let mut matrix = vec![f32::NAN; 3 * 8];
        e.encode_batch_into(batch, &mut matrix).unwrap();
        for (i, row) in matrix.chunks_exact(8).enumerate() {
            assert_eq!(row, e.encode(batch.row(i)).unwrap().as_slice());
        }
        // Shape validation happens before any work.
        let mut wrong = vec![0.0f32; 5];
        assert!(e.encode_batch_into(batch, &mut wrong).is_err());
        // A view whose row width is not the encoder arity is rejected.
        let narrow = BatchView::new(&data, 3).unwrap();
        let mut buf = vec![0.0f32; 2 * 8];
        assert!(matches!(
            e.encode_batch_into(narrow, &mut buf),
            Err(crate::HdcError::FeatureMismatch { expected: 2, actual: 3 })
        ));
    }
}
