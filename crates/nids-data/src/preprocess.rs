//! Preprocessing: one-hot expansion and feature scaling.
//!
//! Classifiers (HDC, MLP and SVM alike) consume dense `f32` vectors.  A
//! [`Preprocessor`] is **fit on the training split only** (so no information
//! from the test split leaks into the scaler) and then applied to any split
//! with the same schema:
//!
//! * numeric features are scaled either to `[0, 1]` (min–max) or to zero
//!   mean / unit variance (z-score),
//! * categorical features are expanded into one-hot indicator columns.

use crate::dataset::Dataset;
use crate::schema::{FeatureKind, Schema};
use crate::{DataError, Result};
use hdc::codec::{CodecError, CodecResult, Reader, Writer};
use serde::{Deserialize, Serialize};

/// Scaling strategy for numeric features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Normalization {
    /// Scale each numeric feature to `[0, 1]` using the training split's
    /// minimum and maximum (constant columns map to `0.0`).
    MinMax,
    /// Standardize each numeric feature to zero mean and unit variance
    /// (constant columns map to `0.0`).
    ZScore,
    /// Symbolic passthrough: numeric features are min–max scaled to
    /// `[0, 1]` as in [`Normalization::MinMax`], but categorical features
    /// stay **raw category indices** instead of expanding into one-hot
    /// columns.  This is the input convention of the symbolic encoders
    /// (`hdc::NGramEncoder`, `hdc::SymbolRecordEncoder`), which map each
    /// index onto an item-memory hypervector themselves; one-hot expansion
    /// would destroy the symbol identity they key on.  The output width is
    /// the raw feature count, not the one-hot expanded width.
    Symbolic,
}

/// Per-numeric-feature statistics gathered from the training split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FeatureStats {
    min: f64,
    max: f64,
    mean: f64,
    std: f64,
}

/// A fitted preprocessing pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preprocessor {
    schema: Schema,
    normalization: Normalization,
    /// Statistics per raw feature index; `None` for categorical features.
    stats: Vec<Option<FeatureStats>>,
}

impl Preprocessor {
    /// Fits scaling statistics on (the numeric features of) `train`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidArgument`] if `train` is empty.
    pub fn fit(train: &Dataset, normalization: Normalization) -> Result<Self> {
        if train.is_empty() {
            return Err(DataError::InvalidArgument(
                "cannot fit a preprocessor on an empty dataset".into(),
            ));
        }
        let schema = train.schema().clone();
        let n = schema.num_features();
        let mut stats = vec![None; n];
        for (i, feature) in schema.features().iter().enumerate() {
            if feature.kind.is_categorical() {
                continue;
            }
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut sum = 0.0f64;
            let mut sum_sq = 0.0f64;
            for record in train.records() {
                let v = record[i] as f64;
                min = min.min(v);
                max = max.max(v);
                sum += v;
                sum_sq += v * v;
            }
            let count = train.len() as f64;
            let mean = sum / count;
            let variance = (sum_sq / count - mean * mean).max(0.0);
            stats[i] = Some(FeatureStats { min, max, mean, std: variance.sqrt() });
        }
        Ok(Self { schema, normalization, stats })
    }

    /// The schema this preprocessor was fitted for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The normalization strategy in use.
    pub fn normalization(&self) -> Normalization {
        self.normalization
    }

    /// Width of the produced dense vectors (one-hot expanded, except under
    /// [`Normalization::Symbolic`] where categorical features keep one raw
    /// index column each).
    pub fn output_width(&self) -> usize {
        match self.normalization {
            Normalization::Symbolic => self.schema.num_features(),
            _ => self.schema.encoded_width(),
        }
    }

    /// Transforms a single raw record into a dense feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidRecord`] if the record does not conform to
    /// the schema.
    pub fn transform_record(&self, record: &[f32]) -> Result<Vec<f32>> {
        let mut out = vec![0.0f32; self.output_width()];
        self.transform_record_into(record, &mut out)?;
        Ok(out)
    }

    /// Transforms a single raw record into the caller-provided dense buffer
    /// `out` (length [`Preprocessor::output_width`]), allocating nothing —
    /// the hot path of a deployed detector serving raw flows.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidRecord`] if the record does not conform
    /// to the schema and [`DataError::InvalidArgument`] if `out` has the
    /// wrong length.
    pub fn transform_record_into(&self, record: &[f32], out: &mut [f32]) -> Result<()> {
        self.schema.validate_record(record)?;
        if out.len() != self.output_width() {
            return Err(DataError::InvalidArgument(format!(
                "output buffer holds {} values but the preprocessor produces {}",
                out.len(),
                self.output_width()
            )));
        }
        let mut cursor = 0usize;
        for (i, feature) in self.schema.features().iter().enumerate() {
            match &feature.kind {
                FeatureKind::Numeric { .. } => {
                    let stats = self.stats[i]
                        .as_ref()
                        .expect("numeric features always have fitted statistics");
                    let v = record[i] as f64;
                    let scaled = match self.normalization {
                        Normalization::MinMax | Normalization::Symbolic => {
                            let range = stats.max - stats.min;
                            if range <= 0.0 {
                                0.0
                            } else {
                                ((v - stats.min) / range).clamp(0.0, 1.0)
                            }
                        }
                        Normalization::ZScore => {
                            if stats.std <= 0.0 {
                                0.0
                            } else {
                                (v - stats.mean) / stats.std
                            }
                        }
                    };
                    out[cursor] = scaled as f32;
                    cursor += 1;
                }
                FeatureKind::Categorical { values } => {
                    if self.normalization == Normalization::Symbolic {
                        out[cursor] = record[i];
                        cursor += 1;
                    } else {
                        let index = record[i] as usize;
                        let slots = &mut out[cursor..cursor + values.len()];
                        slots.fill(0.0);
                        slots[index] = 1.0;
                        cursor += values.len();
                    }
                }
            }
        }
        Ok(())
    }

    /// Transforms every record of `dataset` into one contiguous row-major
    /// matrix of width [`Preprocessor::output_width`] — the form the
    /// zero-copy `hdc::BatchView` engines consume directly, with one
    /// allocation for the whole dataset.  Row `i` is the transform of
    /// record `i`, so `dataset.labels()` labels the rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidArgument`] if the dataset's schema differs
    /// from the fitted schema, or [`DataError::InvalidRecord`] for a
    /// malformed record.
    pub fn transform_matrix(&self, dataset: &Dataset) -> Result<Vec<f32>> {
        if dataset.schema() != &self.schema {
            return Err(DataError::InvalidArgument(
                "dataset schema does not match the fitted preprocessor".into(),
            ));
        }
        self.transform_records_matrix(dataset.records())
    }

    /// [`Preprocessor::transform_matrix`] for a plain slice of raw records
    /// (no surrounding [`Dataset`]) — the batched serve path of a deployed
    /// detector.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidRecord`] on the first record that does
    /// not conform to the fitted schema.
    pub fn transform_records_matrix(&self, records: &[Vec<f32>]) -> Result<Vec<f32>> {
        let width = self.output_width();
        let mut matrix = vec![0.0f32; records.len() * width];
        for (record, row) in records.iter().zip(matrix.chunks_exact_mut(width)) {
            self.transform_record_into(record, row)?;
        }
        Ok(matrix)
    }

    /// Persists the fitted pipeline through the artifact codec, bit-exact
    /// (statistics travel as IEEE-754 bit patterns).
    pub fn write_to(&self, w: &mut Writer) {
        self.schema.write_to(w);
        w.u8(match self.normalization {
            Normalization::MinMax => 0,
            Normalization::ZScore => 1,
            Normalization::Symbolic => 2,
        });
        w.usize(self.stats.len());
        for stat in &self.stats {
            match stat {
                None => w.bool(false),
                Some(s) => {
                    w.bool(true);
                    w.f64(s.min);
                    w.f64(s.max);
                    w.f64(s.mean);
                    w.f64(s.std);
                }
            }
        }
    }

    /// Reads a pipeline persisted by [`Preprocessor::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated stream, an unknown
    /// normalization tag, or statistics inconsistent with the schema.
    pub fn read_from(r: &mut Reader<'_>) -> CodecResult<Self> {
        let schema = Schema::read_from(r)?;
        let normalization = match r.u8()? {
            0 => Normalization::MinMax,
            1 => Normalization::ZScore,
            2 => Normalization::Symbolic,
            tag => return Err(CodecError::Invalid(format!("normalization tag {tag}"))),
        };
        let n = r.usize()?;
        if n != schema.num_features() {
            return Err(CodecError::Invalid(format!(
                "{n} feature statistics for a schema with {} features",
                schema.num_features()
            )));
        }
        let mut stats = Vec::with_capacity(n);
        for i in 0..n {
            let present = r.bool()?;
            if present != !schema.features()[i].kind.is_categorical() {
                return Err(CodecError::Invalid(format!(
                    "feature {i} statistics presence does not match its kind"
                )));
            }
            stats.push(if present {
                Some(FeatureStats { min: r.f64()?, max: r.f64()?, mean: r.f64()?, std: r.f64()? })
            } else {
                None
            });
        }
        Ok(Self { schema, normalization, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FeatureKind, FeatureSpec};

    fn dataset() -> Dataset {
        let schema = Schema::new(
            "toy",
            vec![
                FeatureSpec::new("x", FeatureKind::numeric(0.0, 100.0)),
                FeatureSpec::new("proto", FeatureKind::categorical(["tcp", "udp", "icmp"])),
                FeatureSpec::new("constant", FeatureKind::numeric(0.0, 1.0)),
            ],
            vec!["normal".into(), "attack".into()],
        )
        .unwrap();
        Dataset::new(
            schema,
            vec![
                vec![0.0, 0.0, 0.5],
                vec![50.0, 1.0, 0.5],
                vec![100.0, 2.0, 0.5],
                vec![25.0, 0.0, 0.5],
            ],
            vec![0, 1, 1, 0],
        )
        .unwrap()
    }

    /// The transformed dataset, one row per record.
    fn rows(p: &Preprocessor, d: &Dataset) -> Vec<Vec<f32>> {
        let matrix = p.transform_matrix(d).unwrap();
        matrix.chunks_exact(p.output_width()).map(<[f32]>::to_vec).collect()
    }

    #[test]
    fn fit_rejects_empty_datasets() {
        let empty = Dataset::empty(dataset().schema().clone());
        assert!(Preprocessor::fit(&empty, Normalization::MinMax).is_err());
    }

    #[test]
    fn minmax_scales_into_unit_interval_and_one_hot_expands() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::MinMax).unwrap();
        assert_eq!(p.output_width(), 1 + 3 + 1);
        assert_eq!(p.normalization(), Normalization::MinMax);
        let x = rows(&p, &d);
        assert_eq!(x.len(), 4);
        for row in &x {
            assert_eq!(row.len(), 5);
            assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // First record: x = 0 -> 0.0; proto tcp -> [1,0,0]; constant -> 0.
        assert_eq!(x[0], [0.0, 1.0, 0.0, 0.0, 0.0]);
        // Third record: x = 100 -> 1.0; proto icmp -> [0,0,1].
        assert_eq!(x[2], [1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn zscore_standardizes_numeric_features() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::ZScore).unwrap();
        let x = rows(&p, &d);
        let column: Vec<f64> = x.iter().map(|r| r[0] as f64).collect();
        let mean: f64 = column.iter().sum::<f64>() / column.len() as f64;
        let var: f64 = column.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / column.len() as f64;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
        // Constant column maps to exactly zero.
        assert!(x.iter().all(|r| r[4] == 0.0));
    }

    #[test]
    fn symbolic_keeps_raw_category_indices_and_scales_numerics() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::Symbolic).unwrap();
        // Raw feature count, not one-hot expanded width.
        assert_eq!(p.output_width(), 3);
        let x = rows(&p, &d);
        // Record 2: x = 100 -> 1.0 (min-max); proto icmp stays index 2.
        assert_eq!(x[2], [1.0, 2.0, 0.0]);
        // Record 1: x = 50 -> 0.5; proto udp stays index 1.
        assert_eq!(x[1], [0.5, 1.0, 0.0]);
        // Invalid category indices are still rejected by schema validation.
        assert!(p.transform_record(&[1.0, 9.0, 0.5]).is_err());
    }

    #[test]
    fn transform_clamps_out_of_range_test_values() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::MinMax).unwrap();
        let out = p.transform_record(&[1000.0, 0.0, 0.5]).unwrap();
        assert_eq!(out[0], 1.0, "values beyond the training max are clamped");
    }

    #[test]
    fn transform_checks_schema_and_record_validity() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::MinMax).unwrap();
        assert!(p.transform_record(&[1.0, 9.0, 0.5]).is_err());

        let other_schema = Schema::new(
            "other",
            vec![FeatureSpec::new("x", FeatureKind::numeric(0.0, 1.0))],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        let other = Dataset::empty(other_schema);
        assert!(p.transform_matrix(&other).is_err());
    }

    #[test]
    fn transform_with_labels_round_trips_labels() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::MinMax).unwrap();
        let x = rows(&p, &d);
        let y = d.labels();
        assert_eq!(x.len(), y.len());
        assert_eq!(y, [0, 1, 1, 0]);
    }

    #[test]
    fn transform_record_into_matches_transform_record_and_validates_buffer() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::MinMax).unwrap();
        let record = [25.0f32, 2.0, 0.5];
        let fresh = p.transform_record(&record).unwrap();
        let mut buf = vec![f32::NAN; p.output_width()];
        p.transform_record_into(&record, &mut buf).unwrap();
        assert_eq!(buf, fresh);
        // The one-hot slots are fully rewritten even when the buffer is
        // reused across records of different categories.
        p.transform_record_into(&[0.0, 0.0, 0.5], &mut buf).unwrap();
        assert_eq!(buf, p.transform_record(&[0.0, 0.0, 0.5]).unwrap());
        let mut short = vec![0.0f32; p.output_width() - 1];
        assert!(p.transform_record_into(&record, &mut short).is_err());
        assert!(p.transform_record_into(&[1.0, 9.0, 0.5], &mut buf).is_err());
    }

    #[test]
    fn transform_matrix_is_the_flattened_transform() {
        let d = dataset();
        let p = Preprocessor::fit(&d, Normalization::ZScore).unwrap();
        let matrix = p.transform_matrix(&d).unwrap();
        // One row per record, in record order, so the labels line up.
        assert_eq!(matrix.len(), d.labels().len() * p.output_width());
        for (record, flat) in d.records().iter().zip(matrix.chunks_exact(p.output_width())) {
            assert_eq!(p.transform_record(record).unwrap(), flat);
        }
        let other_schema = Schema::new(
            "other",
            vec![FeatureSpec::new("x", FeatureKind::numeric(0.0, 1.0))],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        assert!(p.transform_matrix(&Dataset::empty(other_schema)).is_err());
    }

    #[test]
    fn preprocessor_persistence_round_trips_bit_exactly() {
        let d = dataset();
        for normalization in [Normalization::MinMax, Normalization::ZScore, Normalization::Symbolic]
        {
            let p = Preprocessor::fit(&d, normalization).unwrap();
            let mut w = Writer::new();
            p.write_to(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = Preprocessor::read_from(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(back, p);
            // Transforms are bit-identical, not just approximately equal.
            let record = [33.0f32, 1.0, 0.5];
            assert_eq!(
                back.transform_record(&record).unwrap(),
                p.transform_record(&record).unwrap()
            );
            assert!(Preprocessor::read_from(&mut Reader::new(&bytes[..bytes.len() - 4])).is_err());
        }
    }
}
