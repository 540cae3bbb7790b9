//! Quantized deployment models.
//!
//! Table I of the paper studies CyberHD deployed with hypervector elements at
//! 32 → 1 bits, and Fig. 5 injects random bit flips into exactly those
//! quantized class hypervectors.  [`QuantizedModel`] is the deployment
//! artefact: it keeps the trained encoder at full precision (encoding happens
//! on the feature side) but stores and compares class hypervectors at the
//! chosen bitwidth, with queries quantized on the fly to the same width.

use crate::model::{AnyEncoder, CyberHdModel};
use crate::{CyberHdError, Result};
use eval::metrics::ConfusionMatrix;
use hdc::{BatchView, BitWidth, QuantizedHypervector};
use serde::{Deserialize, Serialize};

/// A CyberHD model whose class hypervectors are stored at a reduced
/// bitwidth.
///
/// # Example
///
/// ```
/// use cyberhd::{CyberHdConfig, CyberHdTrainer};
/// use hdc::{BatchView, BitWidth};
///
/// # fn main() -> Result<(), cyberhd::CyberHdError> {
/// let features = [0.0, 0.0, 1.0, 1.0, 0.1, 0.0, 0.9, 1.0];
/// let labels = vec![0, 1, 0, 1];
/// let config = CyberHdConfig::builder(2, 2).dimension(256).seed(5).build()?;
/// let model = CyberHdTrainer::new(config)?.fit_view(BatchView::new(&features, 2)?, &labels)?;
///
/// let deployed = model.quantize(BitWidth::B1);
/// assert_eq!(deployed.predict(&[0.05, 0.02])?, 0);
/// assert_eq!(deployed.storage_bits(), 2 * 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    encoder: AnyEncoder,
    classes: Vec<QuantizedHypervector>,
    width: BitWidth,
}

/// Summary of a quantized model's storage footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageSummary {
    /// Element bitwidth.
    pub bits_per_element: u32,
    /// Total class-hypervector payload in bits.
    pub total_bits: usize,
    /// Number of classes.
    pub classes: usize,
    /// Hypervector dimensionality.
    pub dimension: usize,
}

impl QuantizedModel {
    /// Quantizes a trained model's class hypervectors at `width`.
    pub fn from_model(model: &CyberHdModel, width: BitWidth) -> Self {
        Self { encoder: model.encoder.clone(), classes: model.memory.quantized(width), width }
    }

    /// Rebuilds a quantized model from persisted parts (the detector
    /// artifact loader).
    pub(crate) fn from_parts(
        encoder: AnyEncoder,
        classes: Vec<QuantizedHypervector>,
        width: BitWidth,
    ) -> Self {
        Self { encoder, classes, width }
    }

    /// Borrow of the full-precision encoder.
    pub fn encoder(&self) -> &AnyEncoder {
        &self.encoder
    }

    /// Element bitwidth of the stored class hypervectors.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dimension(&self) -> usize {
        self.classes.first().map(QuantizedHypervector::dim).unwrap_or(0)
    }

    /// Total class-hypervector storage in bits.
    pub fn storage_bits(&self) -> usize {
        self.classes.iter().map(QuantizedHypervector::storage_bits).sum()
    }

    /// Storage summary for reporting.
    pub fn storage_summary(&self) -> StorageSummary {
        StorageSummary {
            bits_per_element: self.width.bits(),
            total_bits: self.storage_bits(),
            classes: self.num_classes(),
            dimension: self.dimension(),
        }
    }

    /// Shared access to the quantized class hypervectors.
    pub fn classes(&self) -> &[QuantizedHypervector] {
        &self.classes
    }

    /// Mutable access to the quantized class hypervectors.
    ///
    /// Exposed for fault-injection studies (Fig. 5), which flip physical bits
    /// of the deployed model.
    pub fn classes_mut(&mut self) -> &mut [QuantizedHypervector] {
        &mut self.classes
    }

    /// Predicts the class of one feature vector.
    ///
    /// The query is encoded at full precision, quantized to the model's
    /// bitwidth and compared against every quantized class hypervector with
    /// integer cosine similarity.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` has the wrong arity.
    pub fn predict(&self, features: &[f32]) -> Result<usize> {
        Ok(self.predict_with_similarity(features)?.0)
    }

    /// Predicts the class of one feature vector and returns the winning
    /// integer-cosine similarity alongside it (the open-set detector layer
    /// thresholds on it).
    ///
    /// Ties break in favour of the lowest class index, matching the dense
    /// path's argmax convention.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` has the wrong arity.
    pub fn predict_with_similarity(&self, features: &[f32]) -> Result<(usize, f32)> {
        let encoded = self.encoder.encode(features)?;
        let query = QuantizedHypervector::quantize(&encoded, self.width);
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (k, class) in self.classes.iter().enumerate() {
            let sim = query.cosine(class)?;
            if sim > best_sim {
                best_sim = sim;
                best = k;
            }
        }
        Ok((best, best_sim))
    }

    /// Predicts the classes of a batch of feature vectors on the fused
    /// batched engine (the crate-private `inference` module).
    ///
    /// Class norms are computed once per batch instead of once per
    /// query×class.  At 1 bit the pipeline is fully fused: queries are
    /// encoded straight to packed sign words by the encoder's
    /// `encode_signs_into` kernel (for RBF a quadrant test replaces the
    /// cosine and the f32 query matrix is never materialized) and scored
    /// with whole-word XOR + popcount on the runtime-dispatched
    /// [`hdc::kernel`] layer (bit-exact across SIMD paths, so predictions
    /// do not depend on the host ISA).  Predictions and similarities match
    /// mapping [`QuantizedModel::predict_with_similarity`] over the batch
    /// bit for bit, for every encoder.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] if the view's row width does
    /// not match the configured feature arity.
    pub fn predict_batch_view(&self, batch: BatchView<'_>) -> Result<Vec<usize>> {
        Ok(self.predict_batch_view_scored(batch)?.into_iter().map(|(class, _)| class).collect())
    }

    /// [`QuantizedModel::predict_batch_view`] returning the winning
    /// similarity alongside each class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedModel::predict_batch_view`].
    pub fn predict_batch_view_scored(&self, batch: BatchView<'_>) -> Result<Vec<(usize, f32)>> {
        crate::inference::predict_quantized(&self.encoder, &self.classes, self.width, batch)
    }

    /// Evaluates the quantized model on a labelled batch view.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for mismatched input lengths
    /// and propagates prediction errors.
    pub fn evaluate_view(&self, batch: BatchView<'_>, labels: &[usize]) -> Result<ConfusionMatrix> {
        if batch.rows() != labels.len() {
            return Err(CyberHdError::InvalidData(format!(
                "{} feature rows but {} labels",
                batch.rows(),
                labels.len()
            )));
        }
        let predictions = self.predict_batch_view(batch)?;
        ConfusionMatrix::from_predictions(&predictions, labels, self.num_classes())
            .map_err(CyberHdError::from)
    }

    /// Accuracy on a labelled batch view.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedModel::evaluate_view`].
    pub fn accuracy_view(&self, batch: BatchView<'_>, labels: &[usize]) -> Result<f64> {
        Ok(self.evaluate_view(batch, labels)?.accuracy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CyberHdConfig;
    use crate::trainer::CyberHdTrainer;
    use hdc::rng::HdcRng;
    use hdc::BatchBuffer;

    fn trained_model() -> (CyberHdModel, BatchBuffer, Vec<usize>) {
        let mut rng = HdcRng::seed_from(4);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..3usize {
            for _ in 0..40 {
                xs.extend([
                    (c as f64 + rng.normal(0.0, 0.08)) as f32,
                    (2.0 - c as f64 + rng.normal(0.0, 0.08)) as f32,
                    (c as f64 * 0.5 + rng.normal(0.0, 0.08)) as f32,
                    rng.normal(0.0, 0.08) as f32,
                ]);
                ys.push(c);
            }
        }
        let config = CyberHdConfig::builder(4, 3)
            .dimension(512)
            .retrain_epochs(6)
            .regeneration_rate(0.1)
            .seed(21)
            .build()
            .unwrap();
        let xs = BatchBuffer::from_data(xs, 4).unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        (model, xs, ys)
    }

    #[test]
    fn quantized_models_retain_most_accuracy() {
        let (model, xs, ys) = trained_model();
        let full = model.accuracy_view(xs.view(), &ys).unwrap();
        assert!(full > 0.9);
        for width in BitWidth::ALL {
            let q = model.quantize(width);
            let acc = q.accuracy_view(xs.view(), &ys).unwrap();
            assert!(
                acc > full - 0.15,
                "width {width:?}: quantized accuracy {acc} dropped too far below {full}"
            );
            assert_eq!(q.num_classes(), 3);
            assert_eq!(q.dimension(), 512);
            assert_eq!(q.width(), width);
        }
    }

    #[test]
    fn storage_shrinks_with_bitwidth() {
        let (model, _, _) = trained_model();
        let b32 = model.quantize(BitWidth::B32).storage_bits();
        let b8 = model.quantize(BitWidth::B8).storage_bits();
        let b1 = model.quantize(BitWidth::B1).storage_bits();
        assert_eq!(b32, 3 * 512 * 32);
        assert_eq!(b8, 3 * 512 * 8);
        assert_eq!(b1, 3 * 512);
        let summary = model.quantize(BitWidth::B4).storage_summary();
        assert_eq!(summary.bits_per_element, 4);
        assert_eq!(summary.classes, 3);
        assert_eq!(summary.dimension, 512);
        assert_eq!(summary.total_bits, 3 * 512 * 4);
    }

    #[test]
    fn quantized_prediction_validates_arity_and_lengths() {
        let (model, xs, ys) = trained_model();
        let q = model.quantize(BitWidth::B8);
        assert!(q.predict(&[0.0]).is_err());
        assert!(q.evaluate_view(xs.view(), &ys[..10]).is_err());
    }

    #[test]
    fn classes_mut_allows_in_place_perturbation() {
        let (model, xs, ys) = trained_model();
        let mut q = model.quantize(BitWidth::B8);
        let clean = q.accuracy_view(xs.view(), &ys).unwrap();
        // Corrupt every element of every class hypervector heavily.
        for class in q.classes_mut() {
            for i in 0..class.dim() {
                class.flip_bit(i, 7).unwrap();
            }
        }
        let corrupted = q.accuracy_view(xs.view(), &ys).unwrap();
        assert!(
            corrupted <= clean,
            "massive corruption should not improve accuracy ({clean} -> {corrupted})"
        );
    }
}
