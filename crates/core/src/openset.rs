//! Open-set detection: flagging traffic that matches *no* trained class.
//!
//! A deployed NIDS constantly faces attack families it was never trained on
//! ("zero-day" traffic).  A nearest-class HDC model will happily assign such
//! flows to whichever trained class is least dissimilar, which is exactly the
//! wrong behaviour.  [`OpenSetDetector`] adds the standard HDC mitigation:
//! per-class **similarity thresholds** calibrated on the training data — a
//! query whose best cosine similarity falls below the winning class's
//! threshold is reported as [`OpenSetPrediction::Unknown`] instead of being
//! forced into a known class.
//!
//! This is an extension beyond the paper's evaluation (the paper's datasets
//! are closed-set), included because the intro motivates CyberHD with the
//! "constant evolution of cyber attacks".

use crate::model::{AnyEncoder, CyberHdModel};
use crate::{CyberHdError, Result};
use hdc::encoder::Encoder;
use hdc::parallel::{engine_threads, for_each_chunk};
use hdc::{AssociativeMemory, BatchView};
use serde::{Deserialize, Serialize};

/// The outcome of an open-set prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpenSetPrediction {
    /// The query matched a trained class with sufficient similarity.
    Known {
        /// Predicted class index.
        class: usize,
        /// Cosine similarity to that class.
        similarity: f32,
    },
    /// The query was too dissimilar from every trained class — likely a
    /// traffic pattern (or attack family) the model has never seen.
    Unknown {
        /// The closest trained class (for triage).
        nearest_class: usize,
        /// Its (insufficient) cosine similarity.
        similarity: f32,
    },
}

impl OpenSetPrediction {
    /// Returns the predicted class for known traffic, `None` for unknown.
    pub fn class(&self) -> Option<usize> {
        match self {
            OpenSetPrediction::Known { class, .. } => Some(*class),
            OpenSetPrediction::Unknown { .. } => None,
        }
    }

    /// Returns `true` if the flow was flagged as unknown/novel.
    pub fn is_unknown(&self) -> bool {
        matches!(self, OpenSetPrediction::Unknown { .. })
    }
}

/// A CyberHD model wrapped with per-class similarity thresholds.
#[derive(Debug, Clone)]
pub struct OpenSetDetector {
    model: CyberHdModel,
    thresholds: Vec<f32>,
}

impl OpenSetDetector {
    /// Calibrates per-class thresholds from a labelled (training or
    /// validation) batch view.
    ///
    /// For each class the detector collects the cosine similarity of every
    /// sample of that class to its own class hypervector and sets the
    /// threshold at the `quantile`-th percentile (e.g. `0.05` keeps 95% of
    /// in-distribution traffic above the threshold).
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for inconsistent inputs or an
    /// out-of-range quantile, and [`CyberHdError::UncalibratedClass`] when
    /// a class has zero calibration samples — a silent zero threshold would
    /// accept nearly everything as in-distribution for that class, so
    /// manual calibration refuses instead.  (The serving lane's reservoir
    /// recalibration uses the global own-class quantile as its documented
    /// fallback; see `calibrate_thresholds_or_global_parts`.)
    pub fn calibrate_view(
        model: CyberHdModel,
        features: BatchView<'_>,
        labels: &[usize],
        quantile: f64,
    ) -> Result<Self> {
        let thresholds = calibrate_thresholds(&model, features, labels, quantile)?;
        Ok(Self { model, thresholds })
    }

    /// The wrapped model.
    pub fn model(&self) -> &CyberHdModel {
        &self.model
    }

    /// The calibrated per-class thresholds.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// Classifies one flow, rejecting it as unknown when its best similarity
    /// falls below the winning class's threshold.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` has the wrong arity.
    pub fn predict(&self, features: &[f32]) -> Result<OpenSetPrediction> {
        let (class, scores) = self.model.predict_with_scores(features)?;
        Ok(self.classify(class, scores[class]))
    }

    /// Fraction of the rows of `features` flagged as unknown, scored on the
    /// batched engine.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for an empty batch or a row
    /// width that does not match the model.
    pub fn unknown_rate(&self, features: BatchView<'_>) -> Result<f64> {
        if features.is_empty() {
            return Err(CyberHdError::InvalidData("cannot score zero samples".into()));
        }
        let scored = self.model.predict_batch_view_scored(features)?;
        let unknown = scored
            .into_iter()
            .filter(|&(class, similarity)| self.classify(class, similarity).is_unknown())
            .count();
        Ok(unknown as f64 / features.rows() as f64)
    }

    /// Thresholds the winning `(class, similarity)` pair.
    fn classify(&self, class: usize, similarity: f32) -> OpenSetPrediction {
        if similarity >= self.thresholds[class] {
            OpenSetPrediction::Known { class, similarity }
        } else {
            OpenSetPrediction::Unknown { nearest_class: class, similarity }
        }
    }
}

/// Computes the per-class similarity thresholds of the open-set layer on
/// the **batched engine**: the calibration set is encoded in
/// cache-resident chunks with class norms computed once, instead of one
/// serial `predict_with_scores` round trip per sample.
///
/// Shared by [`OpenSetDetector`] and the sealed `Detector` artifact
/// builder.  The batched similarities are bit-identical to the serial
/// path's, so the thresholds are too.
///
/// # Errors
///
/// Returns [`CyberHdError::InvalidData`] for inconsistent inputs or an
/// out-of-range quantile, and [`CyberHdError::UncalibratedClass`] for a
/// class with zero calibration samples.
pub(crate) fn calibrate_thresholds(
    model: &CyberHdModel,
    features: BatchView<'_>,
    labels: &[usize],
    quantile: f64,
) -> Result<Vec<f32>> {
    let per_class =
        own_class_similarities(model.encoder(), model.memory(), features, labels, quantile)?;
    if let Some(class) = per_class.iter().position(Vec::is_empty) {
        return Err(CyberHdError::UncalibratedClass(class));
    }
    Ok(per_class.into_iter().map(|sims| quantile_of(sims, quantile)).collect())
}

/// [`calibrate_thresholds`] with the reservoir-recalibration fallback: a
/// class with zero calibration samples receives the `quantile`-th
/// percentile of the **pooled** own-class similarities (every sample scored
/// against its own class, all classes together) instead of an error.  The
/// adaptive serving lane recalibrates from a bounded reservoir that may
/// transiently miss a quiet class; borrowing the global in-distribution
/// floor keeps that class open-set rather than never-rejecting.  Takes a
/// borrowed encoder + class memory so the streaming learner can
/// recalibrate mid-trip without cloning itself into a
/// [`CyberHdModel`] first.
///
/// # Errors
///
/// Returns [`CyberHdError::InvalidData`] for inconsistent inputs or an
/// out-of-range quantile.
pub(crate) fn calibrate_thresholds_or_global_parts(
    encoder: &AnyEncoder,
    memory: &AssociativeMemory,
    features: BatchView<'_>,
    labels: &[usize],
    quantile: f64,
) -> Result<Vec<f32>> {
    let per_class = own_class_similarities(encoder, memory, features, labels, quantile)?;
    let pooled: Vec<f32> = per_class.iter().flatten().copied().collect();
    let global = quantile_of(pooled, quantile);
    Ok(per_class
        .into_iter()
        .map(|sims| if sims.is_empty() { global } else { quantile_of(sims, quantile) })
        .collect())
}

/// Sorts `sims` and returns its `quantile`-th percentile (nearest-rank with
/// round-half-up, the convention both calibration entry points share).
///
/// # Panics
///
/// Panics on an empty slice — callers guarantee at least one sample.
fn quantile_of(mut sims: Vec<f32>, quantile: f64) -> f32 {
    assert!(!sims.is_empty(), "quantile of zero samples");
    sims.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let index = ((sims.len() as f64 - 1.0) * quantile).round() as usize;
    sims[index.min(sims.len() - 1)]
}

/// The shared scoring core of both calibration entry points: validates the
/// inputs, scores every sample against its own class hypervector on the
/// batched engine, and groups the similarities per class.
fn own_class_similarities(
    encoder: &AnyEncoder,
    memory: &AssociativeMemory,
    features: BatchView<'_>,
    labels: &[usize],
    quantile: f64,
) -> Result<Vec<Vec<f32>>> {
    if features.rows() != labels.len() {
        return Err(CyberHdError::InvalidData(format!(
            "{} feature rows but {} labels",
            features.rows(),
            labels.len()
        )));
    }
    if features.is_empty() {
        return Err(CyberHdError::InvalidData("calibration set is empty".into()));
    }
    if features.width() != encoder.input_features() {
        return Err(CyberHdError::InvalidData(format!(
            "batch rows are {} features wide, expected {}",
            features.width(),
            encoder.input_features()
        )));
    }
    if !(0.0..=1.0).contains(&quantile) || !quantile.is_finite() {
        return Err(CyberHdError::InvalidData(format!(
            "quantile must lie in [0, 1], got {quantile}"
        )));
    }
    let num_classes = memory.num_classes();
    if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
        return Err(CyberHdError::InvalidData(format!(
            "label {bad} out of range for {num_classes} classes"
        )));
    }

    // Batched own-class scoring: chunked zero-allocation encoding, class
    // norms computed once for the whole calibration set.
    let dim = encoder.output_dim();
    let norms = memory.class_norms();
    let mut own = vec![0.0f32; features.rows()];
    for_each_chunk(
        features.rows(),
        crate::inference::CHUNK_ROWS,
        &mut own,
        1,
        engine_threads(),
        |chunk, out| {
            let rows = features.rows_range(chunk.start, chunk.end);
            let mut matrix = vec![0.0f32; rows.rows() * dim];
            let mut scores = vec![0.0f32; num_classes];
            encoder
                .encode_batch_into(rows, &mut matrix)
                .expect("batch shape validated before the fan-out");
            for (local, slot) in out.iter_mut().enumerate() {
                let query = &matrix[local * dim..(local + 1) * dim];
                memory
                    .similarities_into(query, &norms, &mut scores)
                    .expect("shapes validated before the fan-out");
                *slot = scores[labels[chunk.start + local]];
            }
        },
    );

    let mut per_class: Vec<Vec<f32>> = vec![Vec::new(); num_classes];
    for (&similarity, &label) in own.iter().zip(labels) {
        per_class[label].push(similarity);
    }
    Ok(per_class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CyberHdConfig;
    use crate::trainer::CyberHdTrainer;
    use hdc::rng::HdcRng;
    use hdc::BatchBuffer;

    /// Two trained classes near the origin plus a far-away "novel" cluster
    /// that the model never sees during training.
    fn data() -> (BatchBuffer, Vec<usize>, BatchBuffer) {
        let mut rng = HdcRng::seed_from(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..2usize {
            for _ in 0..80 {
                xs.extend([
                    (c as f64 + rng.normal(0.0, 0.08)) as f32,
                    (1.0 - c as f64 + rng.normal(0.0, 0.08)) as f32,
                    rng.normal(0.0, 0.08) as f32,
                ]);
                ys.push(c);
            }
        }
        let novel: Vec<f32> = (0..60)
            .flat_map(|_| {
                [
                    (6.0 + rng.normal(0.0, 0.1)) as f32,
                    (-5.0 + rng.normal(0.0, 0.1)) as f32,
                    (7.0 + rng.normal(0.0, 0.1)) as f32,
                ]
            })
            .collect();
        let buffer = |data| BatchBuffer::from_data(data, 3).unwrap();
        (buffer(xs), ys, buffer(novel))
    }

    fn trained() -> (CyberHdModel, BatchBuffer, Vec<usize>, BatchBuffer) {
        let (xs, ys, novel) = data();
        let config = CyberHdConfig::builder(3, 2)
            .dimension(512)
            .retrain_epochs(5)
            .regeneration_rate(0.1)
            .rbf_sigma(1.5)
            .seed(9)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        (model, xs, ys, novel)
    }

    #[test]
    fn calibration_validates_inputs() {
        let (model, xs, ys, _) = trained();
        let xs = xs.view();
        assert!(OpenSetDetector::calibrate_view(model.clone(), xs, &ys[..1], 0.05).is_err());
        let empty = BatchView::new(&[], 3).unwrap();
        assert!(OpenSetDetector::calibrate_view(model.clone(), empty, &[], 0.05).is_err());
        assert!(OpenSetDetector::calibrate_view(model.clone(), xs, &ys, 1.5).is_err());
        let bad_labels = vec![9; xs.rows()];
        assert!(OpenSetDetector::calibrate_view(model, xs, &bad_labels, 0.05).is_err());
    }

    #[test]
    fn known_traffic_is_accepted_and_novel_traffic_is_rejected() {
        let (model, xs, ys, novel) = trained();
        let detector = OpenSetDetector::calibrate_view(model, xs.view(), &ys, 0.05).unwrap();
        assert_eq!(detector.thresholds().len(), 2);

        // In-distribution flows: mostly accepted and correctly classified.
        let known_unknown_rate = detector.unknown_rate(xs.view()).unwrap();
        assert!(known_unknown_rate < 0.15, "in-distribution rejection rate {known_unknown_rate}");
        let prediction = detector.predict(xs.view().row(0)).unwrap();
        assert_eq!(prediction.class(), Some(ys[0]));
        assert!(!prediction.is_unknown());

        // The far-away novel cluster: mostly rejected.
        let novel_unknown_rate = detector.unknown_rate(novel.view()).unwrap();
        assert!(
            novel_unknown_rate > 0.7,
            "novel-traffic rejection rate {novel_unknown_rate} should be high"
        );
        let novel_prediction = detector.predict(novel.view().row(0)).unwrap();
        if let OpenSetPrediction::Unknown { nearest_class, similarity } = novel_prediction {
            assert!(nearest_class < 2);
            assert!(similarity < detector.thresholds()[nearest_class]);
        }
    }

    #[test]
    fn zero_quantile_accepts_everything_seen_during_calibration() {
        let (model, xs, ys, _) = trained();
        let detector = OpenSetDetector::calibrate_view(model, xs.view(), &ys, 0.0).unwrap();
        // With thresholds at the minimum observed similarity, (almost) no
        // calibration flow can be rejected.
        assert!(detector.unknown_rate(xs.view()).unwrap() <= 0.02);
    }

    #[test]
    fn zero_sample_classes_are_a_typed_error_for_manual_calibration() {
        let (model, xs, _, _) = trained();
        // Every calibration sample labelled 0 leaves class 1 with zero
        // samples: the old behavior silently set its threshold to 0.0
        // (never reject); manual calibration now refuses with a typed
        // error naming the class.
        let lopsided = vec![0usize; xs.rows()];
        match OpenSetDetector::calibrate_view(model, xs.view(), &lopsided, 0.05) {
            Err(CyberHdError::UncalibratedClass(class)) => assert_eq!(class, 1),
            other => panic!("expected UncalibratedClass(1), got {other:?}"),
        }
    }

    #[test]
    fn reservoir_fallback_borrows_the_global_own_class_quantile() {
        let (model, xs, _, _) = trained();
        let lopsided = vec![0usize; xs.rows()];
        let thresholds = calibrate_thresholds_or_global_parts(
            model.encoder(),
            model.memory(),
            xs.view(),
            &lopsided,
            0.05,
        )
        .unwrap();
        assert_eq!(thresholds.len(), 2);
        // The empty class borrows the pooled own-class quantile — here the
        // pool is exactly the class-0-labelled samples, so the two
        // thresholds agree bit for bit, and neither is the silent
        // never-reject 0.0 the old code assigned.
        assert_eq!(thresholds[1].to_bits(), thresholds[0].to_bits());
        assert!(thresholds[1].is_finite());
        assert_ne!(thresholds[1], 0.0);
    }

    #[test]
    fn fallback_matches_strict_calibration_when_every_class_has_samples() {
        let (model, xs, ys, _) = trained();
        let view = xs.view();
        let strict = calibrate_thresholds(&model, view, &ys, 0.05).unwrap();
        let fallback =
            calibrate_thresholds_or_global_parts(model.encoder(), model.memory(), view, &ys, 0.05)
                .unwrap();
        let strict_bits: Vec<u32> = strict.iter().map(|t| t.to_bits()).collect();
        let fallback_bits: Vec<u32> = fallback.iter().map(|t| t.to_bits()).collect();
        assert_eq!(strict_bits, fallback_bits);
    }

    #[test]
    fn unknown_rate_requires_samples() {
        let (model, xs, ys, _) = trained();
        let detector = OpenSetDetector::calibrate_view(model, xs.view(), &ys, 0.05).unwrap();
        assert!(detector.unknown_rate(BatchView::new(&[], 3).unwrap()).is_err());
        assert!(detector.predict(&[0.0]).is_err());
    }
}
