//! Single-pass online (streaming) learning.
//!
//! The paper motivates HDC for NIDS with *real-time* detection on edge
//! devices: network flows arrive continuously and the detector must keep up.
//! [`OnlineLearner`] supports that deployment style — it consumes one sample
//! at a time, predicts first (so prequential "test-then-train" accuracy can
//! be tracked), then updates the class hypervectors with the same adaptive
//! rule the batch trainer uses.  Periodic dimension regeneration can be
//! triggered explicitly with [`OnlineLearner::regenerate`] once enough
//! evidence has accumulated.

use crate::config::CyberHdConfig;
use crate::model::{AnyEncoder, CyberHdModel, TrainingReport};
use crate::regeneration::{RegenerationPlan, RegenerationStats};
use crate::trainer::{adaptive_update, ChunkScratch};
use crate::{CyberHdError, Result};
use hdc::encoder::Encoder;
use hdc::{similarity, AssociativeMemory, BatchView};

/// A streaming CyberHD learner.
///
/// # Example
///
/// ```
/// use cyberhd::{CyberHdConfig, OnlineLearner};
///
/// # fn main() -> Result<(), cyberhd::CyberHdError> {
/// let config = CyberHdConfig::builder(2, 2).dimension(128).seed(3).build()?;
/// let mut learner = OnlineLearner::new(config)?;
/// // Stream a few labelled flows.
/// for i in 0..50 {
///     let (x, y) = if i % 2 == 0 { (vec![0.1, 0.0], 0) } else { (vec![0.9, 1.0], 1) };
///     learner.observe(&x, y)?;
/// }
/// assert_eq!(learner.predict(&[0.05, 0.02])?, 0);
/// assert!(learner.prequential_accuracy() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineLearner {
    config: CyberHdConfig,
    encoder: AnyEncoder,
    memory: AssociativeMemory,
    stats: RegenerationStats,
    seen: usize,
    correct_before_update: usize,
    /// Frozen-snapshot scratch reused by [`OnlineLearner::observe_batch_view`]
    /// (allocated once; the drain re-zeroes only the touched rows).
    batch_scratch: ChunkScratch,
}

impl OnlineLearner {
    /// Creates a learner from a configuration.
    ///
    /// # Errors
    ///
    /// Propagates encoder/memory construction errors.
    pub fn new(config: CyberHdConfig) -> Result<Self> {
        let encoder = AnyEncoder::from_config(&config)?;
        let memory = AssociativeMemory::new(config.num_classes, config.dimension)?;
        Ok(Self {
            batch_scratch: ChunkScratch::new(config.num_classes, config.dimension),
            config,
            encoder,
            memory,
            stats: RegenerationStats::new(),
            seen: 0,
            correct_before_update: 0,
        })
    }

    /// Resumes streaming from a trained model: the learner takes over the
    /// model's encoder and class memory (with its regeneration history) and
    /// keeps applying the adaptive rule to new observations.
    ///
    /// The prequential counters start from zero — they track the *streamed*
    /// phase, not the batch-training phase the model came from.
    pub fn from_model(model: CyberHdModel) -> Self {
        let CyberHdModel { encoder, memory, config, report } = model;
        Self {
            batch_scratch: ChunkScratch::new(config.num_classes, config.dimension),
            config,
            encoder,
            memory,
            stats: report.regeneration,
            seen: 0,
            correct_before_update: 0,
        }
    }

    /// Number of samples observed so far.
    pub fn samples_seen(&self) -> usize {
        self.seen
    }

    /// Samples that were classified correctly *before* their update — the
    /// numerator of [`OnlineLearner::prequential_accuracy`].
    pub(crate) fn prequential_correct(&self) -> usize {
        self.correct_before_update
    }

    /// Restores the prequential counters of a checkpointed learner (the
    /// durable serving lane's recovery path): [`OnlineLearner::from_model`]
    /// deliberately zeroes them, but a lane recovered from a checkpoint
    /// must resume mid-stream so its sealed snapshots stay bit-identical to
    /// the lane that never crashed.
    pub(crate) fn restore_prequential(&mut self, seen: usize, correct: usize) {
        self.seen = seen;
        self.correct_before_update = correct.min(seen);
    }

    /// Prequential ("test-then-train") accuracy: the fraction of observed
    /// samples that were classified correctly *before* the model was updated
    /// with them. Zero before any sample has been seen.
    pub fn prequential_accuracy(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        self.correct_before_update as f64 / self.seen as f64
    }

    /// Predicts the class of one feature vector without updating the model.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` has the wrong arity.
    pub fn predict(&self, features: &[f32]) -> Result<usize> {
        self.predict_scored(features).map(|(class, _similarity)| class)
    }

    /// [`OnlineLearner::predict`] returning `(class, cosine similarity)` —
    /// the scored form the adaptive serving lane builds verdicts (and
    /// open-set novelty flags) from.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` has the wrong arity.
    pub fn predict_scored(&self, features: &[f32]) -> Result<(usize, f32)> {
        let encoded = self.encoder.encode(features)?;
        Ok(self.memory.nearest(&encoded)?)
    }

    /// Observes one labelled sample: predicts it, then updates the model.
    /// Returns the prediction made *before* the update.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for an out-of-range label and
    /// propagates encoder errors.
    pub fn observe(&mut self, features: &[f32], label: usize) -> Result<usize> {
        self.observe_scored(features, label).map(|(class, _similarity)| class)
    }

    /// [`OnlineLearner::observe`] returning `(prediction, similarity)` for
    /// the prediction made *before* the update — identical computation,
    /// identical model update, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for an out-of-range label and
    /// propagates encoder errors.
    pub fn observe_scored(&mut self, features: &[f32], label: usize) -> Result<(usize, f32)> {
        if label >= self.config.num_classes {
            return Err(CyberHdError::InvalidData(format!(
                "label {label} out of range for {} classes",
                self.config.num_classes
            )));
        }
        let encoded = self.encoder.encode(features)?;
        let (prediction, similarity) = self.memory.nearest(&encoded)?;
        let was_correct =
            adaptive_update(&mut self.memory, &encoded, label, self.config.learning_rate);
        self.seen += 1;
        if was_correct {
            self.correct_before_update += 1;
        }
        Ok((prediction, similarity))
    }

    /// Observes one mini-batch of labelled samples: predicts every sample
    /// against the current (frozen) model, then applies all adaptive
    /// updates at once — the streaming twin of the trainer's mini-batch
    /// engine.  Returns the predictions made *before* the update.
    ///
    /// Samples are encoded through the batched kernel and scored against
    /// class norms computed once per call, so a burst of flows costs far
    /// less than the same flows through [`OnlineLearner::observe`]; the
    /// trade-off is that samples within the batch do not see each other's
    /// updates (the encodings themselves are bit-identical to the serial
    /// encode).
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for mismatched lengths or an
    /// out-of-range label, and the encoder's [`CyberHdError::Hdc`] error for
    /// a view whose row width does not match the feature arity — in every
    /// error case the model and its counters are left untouched.
    pub fn observe_batch_view(
        &mut self,
        features: BatchView<'_>,
        labels: &[usize],
    ) -> Result<Vec<usize>> {
        self.observe_batch_view_scored(features, labels)
            .map(|scored| scored.into_iter().map(|(class, _similarity)| class).collect())
    }

    /// [`OnlineLearner::observe_batch_view`] returning `(prediction,
    /// similarity)` per row — identical frozen-snapshot scoring, identical
    /// deferred update, bit for bit.  The batched-feedback serving lane
    /// builds its verdicts (and open-set novelty flags) from the scored
    /// form.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineLearner::observe_batch_view`].
    pub fn observe_batch_view_scored(
        &mut self,
        features: BatchView<'_>,
        labels: &[usize],
    ) -> Result<Vec<(usize, f32)>> {
        if features.rows() != labels.len() {
            return Err(CyberHdError::InvalidData(format!(
                "{} feature rows but {} labels",
                features.rows(),
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= self.config.num_classes) {
            return Err(CyberHdError::InvalidData(format!(
                "label {bad} out of range for {} classes",
                self.config.num_classes
            )));
        }
        let dim = self.memory.dim();
        let mut matrix = vec![0.0f32; features.rows() * dim];
        self.encoder.encode_batch_into(features, &mut matrix)?;

        // Frozen-snapshot scoring + deferred deltas through the trainer's
        // own mini-batch scratch: the whole call is one batch, so the
        // streaming and batch engines share one implementation of the rule.
        let class_norms = self.memory.class_norms();
        let scratch = &mut self.batch_scratch;
        let mut predictions = Vec::with_capacity(features.rows());
        for (row, &label) in matrix.chunks_exact(dim).zip(labels) {
            let scored = scratch.visit_scored(
                &self.memory,
                &class_norms,
                row,
                similarity::norm(row),
                label,
                self.config.learning_rate,
            );
            predictions.push(scored);
        }
        self.seen += features.rows();
        self.correct_before_update += scratch.drain_into(&mut self.memory, |_| {});
        Ok(predictions)
    }

    /// Recalibrates per-class open-set thresholds against the learner's
    /// **current** memory from a set of in-distribution samples (the
    /// adaptive lane's reservoir), borrowing the global own-class quantile
    /// for classes the reservoir is transiently missing — see
    /// `openset::calibrate_thresholds_or_global_parts`.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] for inconsistent inputs or an
    /// out-of-range quantile.
    pub(crate) fn calibrate_thresholds_or_global(
        &self,
        features: BatchView<'_>,
        labels: &[usize],
        quantile: f64,
    ) -> Result<Vec<f32>> {
        crate::openset::calibrate_thresholds_or_global_parts(
            &self.encoder,
            &self.memory,
            features,
            labels,
            quantile,
        )
    }

    /// Runs one regeneration round using the configured regeneration rate.
    ///
    /// Unlike the batch trainer, the streaming learner cannot re-encode past
    /// samples — regenerated dimensions simply start from zero evidence and
    /// are filled by subsequent observations, which is the standard
    /// NeuralHD-style streaming adaptation.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] if the configured encoder
    /// cannot regenerate dimensions.
    pub fn regenerate(&mut self) -> Result<usize> {
        self.regenerate_at(self.config.regeneration_rate)
    }

    /// [`OnlineLearner::regenerate`] with an explicit rate override — the
    /// drift-adaptive serving lane's knob for regenerating more (or less)
    /// aggressively than the training-time configuration when a drift
    /// monitor trips mid-stream.  A non-positive `rate` is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] if the configured encoder
    /// cannot regenerate dimensions.
    pub fn regenerate_at(&mut self, rate: f32) -> Result<usize> {
        if rate <= 0.0 {
            return Ok(0);
        }
        let plan = RegenerationPlan::analyze(&self.memory, rate);
        if plan.drop_count() == 0 {
            return Ok(0);
        }
        let rbf = self.encoder.as_rbf_mut().ok_or_else(|| {
            CyberHdError::InvalidConfig("dimension regeneration requires the RBF encoder".into())
        })?;
        for &d in &plan.drop {
            self.memory.zero_dimension(d)?;
            rbf.regenerate_dimension(d)?;
        }
        self.stats.record_round(&plan);
        Ok(plan.drop_count())
    }

    /// Effective dimensionality accumulated so far.
    pub fn effective_dimension(&self) -> usize {
        self.stats.effective_dimension(self.config.dimension)
    }

    /// Freezes the learner into an immutable [`CyberHdModel`].
    pub fn into_model(self) -> CyberHdModel {
        let report = TrainingReport {
            epoch_accuracy: vec![self.prequential_accuracy()],
            regeneration: self.stats,
            samples: self.seen,
            physical_dimension: self.config.dimension,
        };
        CyberHdModel::from_parts(self.encoder, self.memory, self.config, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::HdcRng;

    fn config(dim: usize, regen: f32) -> CyberHdConfig {
        CyberHdConfig::builder(3, 2)
            .dimension(dim)
            .regeneration_rate(regen)
            .learning_rate(0.08)
            .seed(17)
            .build()
            .unwrap()
    }

    fn stream(n: usize, seed: u64) -> Vec<(Vec<f32>, usize)> {
        let mut rng = HdcRng::seed_from(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let offset = label as f64;
                let x = vec![
                    (offset + rng.normal(0.0, 0.08)) as f32,
                    (1.0 - offset + rng.normal(0.0, 0.08)) as f32,
                    (offset * 0.5 + rng.normal(0.0, 0.08)) as f32,
                ];
                (x, label)
            })
            .collect()
    }

    #[test]
    fn online_learning_converges_on_a_stream() {
        let mut learner = OnlineLearner::new(config(256, 0.0)).unwrap();
        for (x, y) in stream(300, 1) {
            learner.observe(&x, y).unwrap();
        }
        assert_eq!(learner.samples_seen(), 300);
        assert!(learner.prequential_accuracy() > 0.8, "{}", learner.prequential_accuracy());
        // The frozen model keeps predicting correctly.
        let model = learner.into_model();
        assert_eq!(model.predict(&[0.0, 1.0, 0.0]).unwrap(), 0);
        assert_eq!(model.predict(&[1.0, 0.0, 0.5]).unwrap(), 1);
        assert_eq!(model.report().samples, 300);
    }

    #[test]
    fn observe_validates_labels() {
        let mut learner = OnlineLearner::new(config(64, 0.0)).unwrap();
        assert!(learner.observe(&[0.0, 0.0, 0.0], 2).is_err());
        assert!(learner.observe(&[0.0, 0.0], 0).is_err());
    }

    #[test]
    fn prequential_accuracy_starts_at_zero() {
        let learner = OnlineLearner::new(config(64, 0.0)).unwrap();
        assert_eq!(learner.prequential_accuracy(), 0.0);
        assert_eq!(learner.samples_seen(), 0);
    }

    #[test]
    fn regeneration_tracks_effective_dimension() {
        let mut learner = OnlineLearner::new(config(100, 0.1)).unwrap();
        for (x, y) in stream(100, 2) {
            learner.observe(&x, y).unwrap();
        }
        let dropped = learner.regenerate().unwrap();
        assert_eq!(dropped, 10, "10% of 100 dimensions");
        assert_eq!(learner.effective_dimension(), 110);
        // Accuracy should recover as more samples arrive after regeneration.
        for (x, y) in stream(200, 3) {
            learner.observe(&x, y).unwrap();
        }
        assert!(learner.prequential_accuracy() > 0.7);
    }

    #[test]
    fn observe_batch_matches_streaming_semantics() {
        let mut batched = OnlineLearner::new(config(256, 0.0)).unwrap();
        let flows = stream(300, 1);
        for window in flows.chunks(25) {
            let xs: Vec<f32> = window.iter().flat_map(|(x, _)| x.iter().copied()).collect();
            let ys: Vec<usize> = window.iter().map(|&(_, y)| y).collect();
            let predictions = batched.observe_batch_view(BatchView::new(&xs, 3).unwrap(), &ys);
            assert_eq!(predictions.unwrap().len(), window.len());
        }
        assert_eq!(batched.samples_seen(), 300);
        // Mini-batch updates converge like the per-sample stream does.
        assert!(batched.prequential_accuracy() > 0.75, "{}", batched.prequential_accuracy());
        let model = batched.into_model();
        assert_eq!(model.predict(&[0.0, 1.0, 0.0]).unwrap(), 0);
        assert_eq!(model.predict(&[1.0, 0.0, 0.5]).unwrap(), 1);
    }

    #[test]
    fn observe_batch_validates_inputs() {
        let mut learner = OnlineLearner::new(config(64, 0.0)).unwrap();
        let xs = BatchView::new(&[0.0f32; 3], 3).unwrap();
        // Length/label problems are InvalidData; arity problems surface as
        // the encoder's error (the documented contract).
        assert!(matches!(learner.observe_batch_view(xs, &[]), Err(CyberHdError::InvalidData(_))));
        assert!(matches!(learner.observe_batch_view(xs, &[2]), Err(CyberHdError::InvalidData(_))));
        let narrow = BatchView::new(&[0.0f32; 2], 2).unwrap();
        assert!(matches!(learner.observe_batch_view(narrow, &[0]), Err(CyberHdError::Hdc(_))));
        assert_eq!(learner.samples_seen(), 0, "failed batches must not count");
    }

    #[test]
    fn regenerate_is_a_noop_when_disabled() {
        let mut learner = OnlineLearner::new(config(64, 0.0)).unwrap();
        assert_eq!(learner.regenerate().unwrap(), 0);
        assert_eq!(learner.effective_dimension(), 64);
    }

    #[test]
    fn regenerate_at_overrides_the_configured_rate() {
        let mut learner = OnlineLearner::new(config(100, 0.0)).unwrap();
        for (x, y) in stream(80, 11) {
            learner.observe(&x, y).unwrap();
        }
        // The configured rate is zero, but an explicit override still
        // regenerates (the adaptive serving trigger).
        assert_eq!(learner.regenerate_at(0.2).unwrap(), 20);
        assert_eq!(learner.effective_dimension(), 120);
        assert_eq!(learner.regenerate_at(0.0).unwrap(), 0);
        assert_eq!(learner.regenerate_at(-1.0).unwrap(), 0);
    }

    #[test]
    fn scored_forms_match_their_unscored_twins_bit_for_bit() {
        let mut scored = OnlineLearner::new(config(128, 0.0)).unwrap();
        let mut plain = OnlineLearner::new(config(128, 0.0)).unwrap();
        for (x, y) in stream(120, 9) {
            let (class, similarity) = scored.observe_scored(&x, y).unwrap();
            assert_eq!(plain.observe(&x, y).unwrap(), class);
            assert!((-1.0..=1.0).contains(&similarity));
        }
        assert_eq!(scored.samples_seen(), plain.samples_seen());
        assert_eq!(scored.prequential_accuracy(), plain.prequential_accuracy());
        let probe = [0.4f32, 0.6, 0.2];
        let (class, similarity) = scored.predict_scored(&probe).unwrap();
        assert_eq!(plain.predict(&probe).unwrap(), class);
        assert_eq!(
            scored.predict_scored(&probe).unwrap().1.to_bits(),
            similarity.to_bits(),
            "prediction is pure; repeated calls are bit-identical"
        );
        // The two learners hold bit-identical models.
        let a = scored.into_model();
        let b = plain.into_model();
        assert_eq!(a.memory().classes(), b.memory().classes());
    }

    #[test]
    fn from_model_resumes_with_the_trained_memory() {
        let mut warm = OnlineLearner::new(config(256, 0.1)).unwrap();
        for (x, y) in stream(200, 5) {
            warm.observe(&x, y).unwrap();
        }
        warm.regenerate().unwrap();
        let effective = warm.effective_dimension();
        let model = warm.into_model();
        let expected = model.predict(&[0.0, 1.0, 0.0]).unwrap();

        let mut resumed = OnlineLearner::from_model(model);
        // The trained memory is carried over verbatim...
        assert_eq!(resumed.predict(&[0.0, 1.0, 0.0]).unwrap(), expected);
        // ...the regeneration history survives...
        assert_eq!(resumed.effective_dimension(), effective);
        // ...and the prequential counters restart for the streamed phase.
        assert_eq!(resumed.samples_seen(), 0);
        for (x, y) in stream(100, 6) {
            resumed.observe(&x, y).unwrap();
        }
        assert!(resumed.prequential_accuracy() > 0.8, "{}", resumed.prequential_accuracy());
    }
}
