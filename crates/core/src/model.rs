//! The trained CyberHD model and its training report.
//!
//! A [`CyberHdModel`] owns the (possibly regenerated) encoder, the trained
//! class hypervectors and the full training history.  It provides single and
//! batch prediction, evaluation against labelled data, access to the class
//! hypervectors and quantized export for deployment / robustness studies.

use crate::config::{CyberHdConfig, EncoderKind};
use crate::quantized::QuantizedModel;
use crate::regeneration::RegenerationStats;
use crate::{CyberHdError, Result};
use eval::metrics::ConfusionMatrix;
use hdc::codec::{CodecError, CodecResult, Reader, Writer};
use hdc::encoder::{
    Encoder, IdLevelEncoder, NGramEncoder, RbfEncoder, RecordEncoder, SymbolRecordEncoder,
};
use hdc::{AssociativeMemory, BatchView, BitWidth, Hypervector};
use serde::{Deserialize, Serialize};

/// Concrete encoder instance, dispatched by [`EncoderKind`].
///
/// The trainer needs concrete access to the RBF encoder for regeneration, so
/// a plain enum is preferred over a trait object here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyEncoder {
    /// RBF / random-Fourier-feature encoder.
    Rbf(RbfEncoder),
    /// Static ID–level encoder.
    IdLevel(IdLevelEncoder),
    /// Static record-based encoder.
    Record(RecordEncoder),
    /// Bind-permute-bundle n-gram sequence encoder.
    NGram(NGramEncoder),
    /// Symbolic record encoder for mixed categorical/numeric rows.
    SymbolRecord(SymbolRecordEncoder),
}

impl AnyEncoder {
    /// Builds the encoder selected by `config`.
    pub fn from_config(config: &CyberHdConfig) -> Result<Self> {
        Ok(match config.encoder {
            EncoderKind::Rbf => AnyEncoder::Rbf(RbfEncoder::with_sigma(
                config.input_features,
                config.dimension,
                config.rbf_sigma,
                config.seed,
            )?),
            EncoderKind::IdLevel => AnyEncoder::IdLevel(IdLevelEncoder::new(
                config.input_features,
                config.dimension,
                config.id_level_levels,
                config.seed,
            )?),
            EncoderKind::Record => AnyEncoder::Record(RecordEncoder::new(
                config.input_features,
                config.dimension,
                config.seed,
            )?),
            EncoderKind::NGram => AnyEncoder::NGram(NGramEncoder::new(
                config.input_features,
                config.symbol_alphabets[0],
                config.ngram_order,
                config.dimension,
                config.seed,
            )?),
            EncoderKind::SymbolRecord => AnyEncoder::SymbolRecord(SymbolRecordEncoder::new(
                &config.symbol_alphabets,
                config.dimension,
                config.id_level_levels,
                config.seed,
            )?),
        })
    }

    /// Which encoder family this is.
    pub fn kind(&self) -> EncoderKind {
        match self {
            AnyEncoder::Rbf(_) => EncoderKind::Rbf,
            AnyEncoder::IdLevel(_) => EncoderKind::IdLevel,
            AnyEncoder::Record(_) => EncoderKind::Record,
            AnyEncoder::NGram(_) => EncoderKind::NGram,
            AnyEncoder::SymbolRecord(_) => EncoderKind::SymbolRecord,
        }
    }

    /// Encodes one feature vector.
    ///
    /// # Errors
    ///
    /// Propagates the underlying encoder's errors (feature arity mismatch).
    pub fn encode(&self, features: &[f32]) -> Result<Hypervector> {
        let hv = match self {
            AnyEncoder::Rbf(e) => e.encode(features)?,
            AnyEncoder::IdLevel(e) => e.encode(features)?,
            AnyEncoder::Record(e) => e.encode(features)?,
            AnyEncoder::NGram(e) => e.encode(features)?,
            AnyEncoder::SymbolRecord(e) => e.encode(features)?,
        };
        Ok(hv)
    }

    /// Input feature arity.
    pub fn input_features(&self) -> usize {
        Encoder::input_features(self)
    }

    /// Output hypervector dimensionality.
    pub fn output_dim(&self) -> usize {
        Encoder::output_dim(self)
    }

    /// Mutable access to the RBF encoder, if that is what this is.
    pub fn as_rbf_mut(&mut self) -> Option<&mut RbfEncoder> {
        match self {
            AnyEncoder::Rbf(e) => Some(e),
            _ => None,
        }
    }

    /// Shared access to the RBF encoder, if that is what this is.
    pub fn as_rbf(&self) -> Option<&RbfEncoder> {
        match self {
            AnyEncoder::Rbf(e) => Some(e),
            _ => None,
        }
    }

    /// Persists the encoder (variant tag + payload) through the artifact
    /// codec, bit-exact.
    pub fn write_to(&self, w: &mut Writer) {
        match self {
            AnyEncoder::Rbf(e) => {
                w.u8(0);
                e.write_to(w);
            }
            AnyEncoder::IdLevel(e) => {
                w.u8(1);
                e.write_to(w);
            }
            AnyEncoder::Record(e) => {
                w.u8(2);
                e.write_to(w);
            }
            AnyEncoder::NGram(e) => {
                w.u8(3);
                e.write_to(w);
            }
            AnyEncoder::SymbolRecord(e) => {
                w.u8(4);
                e.write_to(w);
            }
        }
    }

    /// Reads an encoder persisted by [`AnyEncoder::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated stream or an unknown variant
    /// tag.
    pub fn read_from(r: &mut Reader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(AnyEncoder::Rbf(RbfEncoder::read_from(r)?)),
            1 => Ok(AnyEncoder::IdLevel(IdLevelEncoder::read_from(r)?)),
            2 => Ok(AnyEncoder::Record(RecordEncoder::read_from(r)?)),
            3 => Ok(AnyEncoder::NGram(NGramEncoder::read_from(r)?)),
            4 => Ok(AnyEncoder::SymbolRecord(SymbolRecordEncoder::read_from(r)?)),
            tag => Err(CodecError::Invalid(format!("encoder tag {tag}"))),
        }
    }
}

/// [`AnyEncoder`] dispatches the whole [`Encoder`] trait to its variant, so
/// the batched inference engine reaches each encoder's cache-blocked
/// `encode_batch_into` kernel through the enum without dynamic dispatch.
impl Encoder for AnyEncoder {
    fn input_features(&self) -> usize {
        match self {
            AnyEncoder::Rbf(e) => e.input_features(),
            AnyEncoder::IdLevel(e) => e.input_features(),
            AnyEncoder::Record(e) => e.input_features(),
            AnyEncoder::NGram(e) => e.input_features(),
            AnyEncoder::SymbolRecord(e) => e.input_features(),
        }
    }

    fn output_dim(&self) -> usize {
        match self {
            AnyEncoder::Rbf(e) => e.output_dim(),
            AnyEncoder::IdLevel(e) => e.output_dim(),
            AnyEncoder::Record(e) => e.output_dim(),
            AnyEncoder::NGram(e) => e.output_dim(),
            AnyEncoder::SymbolRecord(e) => e.output_dim(),
        }
    }

    fn encode_into(&self, features: &[f32], out: &mut [f32]) -> hdc::Result<()> {
        match self {
            AnyEncoder::Rbf(e) => e.encode_into(features, out),
            AnyEncoder::IdLevel(e) => e.encode_into(features, out),
            AnyEncoder::Record(e) => e.encode_into(features, out),
            AnyEncoder::NGram(e) => e.encode_into(features, out),
            AnyEncoder::SymbolRecord(e) => e.encode_into(features, out),
        }
    }

    fn encode_batch_into(&self, batch: BatchView<'_>, out: &mut [f32]) -> hdc::Result<()> {
        match self {
            AnyEncoder::Rbf(e) => e.encode_batch_into(batch, out),
            AnyEncoder::IdLevel(e) => e.encode_batch_into(batch, out),
            AnyEncoder::Record(e) => e.encode_batch_into(batch, out),
            AnyEncoder::NGram(e) => e.encode_batch_into(batch, out),
            AnyEncoder::SymbolRecord(e) => e.encode_batch_into(batch, out),
        }
    }

    fn encode_signs_into(
        &self,
        batch: BatchView<'_>,
        words: &mut [u64],
        zero_rows: &mut [bool],
    ) -> hdc::Result<()> {
        match self {
            AnyEncoder::Rbf(e) => e.encode_signs_into(batch, words, zero_rows),
            AnyEncoder::IdLevel(e) => e.encode_signs_into(batch, words, zero_rows),
            AnyEncoder::Record(e) => e.encode_signs_into(batch, words, zero_rows),
            AnyEncoder::NGram(e) => e.encode_signs_into(batch, words, zero_rows),
            AnyEncoder::SymbolRecord(e) => e.encode_signs_into(batch, words, zero_rows),
        }
    }
}

/// History of one CyberHD training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Training-set accuracy measured after the initial accumulation pass
    /// and after every retraining epoch, in order.
    pub epoch_accuracy: Vec<f64>,
    /// Regeneration statistics accumulated across the run.
    pub regeneration: RegenerationStats,
    /// Number of samples the model was trained on.
    pub samples: usize,
    /// Physical hypervector dimensionality.
    pub physical_dimension: usize,
}

impl TrainingReport {
    /// Final training-set accuracy (after the last epoch), or `0.0` if no
    /// epoch was recorded.
    pub fn final_accuracy(&self) -> f64 {
        self.epoch_accuracy.last().copied().unwrap_or(0.0)
    }

    /// The paper's effective dimensionality
    /// `D* = physical D + Σ regenerated dimensions`.
    pub fn effective_dimension(&self) -> usize {
        self.regeneration.effective_dimension(self.physical_dimension)
    }
}

/// A trained CyberHD classifier.
#[derive(Debug, Clone)]
pub struct CyberHdModel {
    pub(crate) encoder: AnyEncoder,
    pub(crate) memory: AssociativeMemory,
    pub(crate) config: CyberHdConfig,
    pub(crate) report: TrainingReport,
}

impl CyberHdModel {
    /// Creates a model from its parts (used by the trainer and by the
    /// baseline wrapper).
    pub(crate) fn from_parts(
        encoder: AnyEncoder,
        memory: AssociativeMemory,
        config: CyberHdConfig,
        report: TrainingReport,
    ) -> Self {
        Self { encoder, memory, config, report }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &CyberHdConfig {
        &self.config
    }

    /// The training history.
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.memory.num_classes()
    }

    /// Physical hypervector dimensionality.
    pub fn dimension(&self) -> usize {
        self.memory.dim()
    }

    /// The paper's effective dimensionality `D*`.
    pub fn effective_dimension(&self) -> usize {
        self.report.effective_dimension()
    }

    /// Borrow of the trained class hypervectors.
    pub fn class_hypervectors(&self) -> &[Hypervector] {
        self.memory.classes()
    }

    /// Borrow of the (possibly regenerated) encoder.
    pub fn encoder(&self) -> &AnyEncoder {
        &self.encoder
    }

    /// Mutable borrow of the class-hypervector store.
    ///
    /// Exposed so fault-injection studies can perturb a deployed model
    /// in place; normal callers never need this.
    pub fn memory_mut(&mut self) -> &mut AssociativeMemory {
        &mut self.memory
    }

    /// Shared borrow of the class-hypervector store.
    pub fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    /// Encodes a feature vector with the model's encoder.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` does not match the configured arity.
    pub fn encode(&self, features: &[f32]) -> Result<Hypervector> {
        self.encoder.encode(features)
    }

    /// Predicts the class of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` does not match the configured arity.
    pub fn predict(&self, features: &[f32]) -> Result<usize> {
        let encoded = self.encoder.encode(features)?;
        let (class, _similarity) = self.memory.nearest(&encoded)?;
        Ok(class)
    }

    /// Predicts the class of one feature vector and returns the cosine
    /// similarity to every class alongside the winner.
    ///
    /// The winner is derived from the score vector with a single argmax —
    /// the scores are computed exactly once (this method used to score
    /// every class twice, once for the vector and once more inside
    /// `nearest`).
    ///
    /// # Errors
    ///
    /// Returns an error if `features` does not match the configured arity.
    pub fn predict_with_scores(&self, features: &[f32]) -> Result<(usize, Vec<f32>)> {
        let encoded = self.encoder.encode(features)?;
        let scores = self.memory.similarities(&encoded)?;
        let (class, _similarity) =
            hdc::argmax(&scores).expect("memory always has at least one class");
        Ok((class, scores))
    }

    /// Predicts the classes of a zero-copy row-major batch view on the
    /// fused batched engine (the crate-private `inference` module): chunked
    /// zero-allocation encoding, class norms computed once per batch, and
    /// chunk fan-out across [`hdc::parallel::engine_threads`] threads.
    ///
    /// Callers holding contiguous data (a preprocessed matrix, a capture
    /// buffer) pay **zero copies**.
    ///
    /// Predictions match mapping [`CyberHdModel::predict`] over the batch
    /// exactly, for every encoder.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] if the view's row width does
    /// not match the configured feature arity.
    pub fn predict_batch_view(&self, batch: BatchView<'_>) -> Result<Vec<usize>> {
        Ok(crate::inference::predict_dense(&self.encoder, &self.memory, batch)?
            .into_iter()
            .map(|(class, _)| class)
            .collect())
    }

    /// [`CyberHdModel::predict_batch_view`] returning the winner's cosine
    /// similarity alongside each class — the scored form the open-set
    /// detector layer thresholds without a second pass.
    ///
    /// # Errors
    ///
    /// Same as [`CyberHdModel::predict_batch_view`].
    pub fn predict_batch_view_scored(&self, batch: BatchView<'_>) -> Result<Vec<(usize, f32)>> {
        crate::inference::predict_dense(&self.encoder, &self.memory, batch)
    }

    /// Evaluates the model on a labelled batch view, returning the
    /// confusion matrix.
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
    /// Same as [`CyberHdModel::evaluate_view`].
    pub fn accuracy_view(&self, batch: BatchView<'_>, labels: &[usize]) -> Result<f64> {
        Ok(self.evaluate_view(batch, labels)?.accuracy())
    }

    /// Exports a quantized copy of the model at the given element bitwidth.
    pub fn quantize(&self, width: BitWidth) -> QuantizedModel {
        QuantizedModel::from_model(self, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CyberHdConfig;

    fn tiny_config(encoder: EncoderKind) -> CyberHdConfig {
        CyberHdConfig::builder(3, 2)
            .dimension(64)
            .encoder(encoder)
            .regeneration_rate(if encoder == EncoderKind::Rbf { 0.1 } else { 0.0 })
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn any_encoder_dispatches_all_kinds() {
        for kind in [EncoderKind::Rbf, EncoderKind::IdLevel, EncoderKind::Record] {
            let config = tiny_config(kind);
            let encoder = AnyEncoder::from_config(&config).unwrap();
            assert_eq!(encoder.kind(), kind);
            assert_eq!(encoder.input_features(), 3);
            assert_eq!(encoder.output_dim(), 64);
            let hv = encoder.encode(&[0.1, 0.2, 0.3]).unwrap();
            assert_eq!(hv.dim(), 64);
            assert_eq!(encoder.as_rbf().is_some(), kind == EncoderKind::Rbf);
        }
    }

    #[test]
    fn any_encoder_dispatches_the_symbolic_kinds() {
        let ngram_config = CyberHdConfig::builder(6, 2)
            .dimension(64)
            .encoder(EncoderKind::NGram)
            .ngram_order(2)
            .symbol_alphabets(vec![5])
            .regeneration_rate(0.0)
            .seed(2)
            .build()
            .unwrap();
        let encoder = AnyEncoder::from_config(&ngram_config).unwrap();
        assert_eq!(encoder.kind(), EncoderKind::NGram);
        assert_eq!(encoder.input_features(), 6);
        assert_eq!(encoder.output_dim(), 64);
        assert_eq!(encoder.encode(&[0.0, 1.0, 2.0, 3.0, 4.0, 0.0]).unwrap().dim(), 64);
        assert!(encoder.encode(&[0.0, 1.0, 2.0, 3.0, 4.0, 9.0]).is_err(), "symbol range");

        let record_config = CyberHdConfig::builder(3, 2)
            .dimension(64)
            .encoder(EncoderKind::SymbolRecord)
            .symbol_alphabets(vec![4, 0, 2])
            .regeneration_rate(0.0)
            .seed(2)
            .build()
            .unwrap();
        let encoder = AnyEncoder::from_config(&record_config).unwrap();
        assert_eq!(encoder.kind(), EncoderKind::SymbolRecord);
        assert_eq!(encoder.encode(&[3.0, 0.5, 1.0]).unwrap().dim(), 64);

        // Persistence round-trips through the tagged codec.
        for config in [&ngram_config, &record_config] {
            let original = AnyEncoder::from_config(config).unwrap();
            let mut w = Writer::new();
            original.write_to(&mut w);
            let bytes = w.into_bytes();
            let back = AnyEncoder::read_from(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back.kind(), original.kind());
            let mut again = Writer::new();
            back.write_to(&mut again);
            assert_eq!(again.into_bytes(), bytes);
        }
    }

    #[test]
    fn symbolic_configs_validate_their_alphabets() {
        let base =
            || CyberHdConfig::builder(6, 2).encoder(EncoderKind::NGram).regeneration_rate(0.0);
        assert!(base().symbol_alphabets(vec![5]).build().is_ok());
        assert!(base().build().is_err(), "missing alphabet");
        assert!(base().symbol_alphabets(vec![1]).build().is_err(), "degenerate alphabet");
        assert!(base().symbol_alphabets(vec![5, 5]).build().is_err(), "one shared entry only");
        assert!(base().symbol_alphabets(vec![5]).ngram_order(0).build().is_err());
        assert!(base().symbol_alphabets(vec![5]).ngram_order(7).build().is_err(), "order > len");
        assert!(
            base().symbol_alphabets(vec![5]).regeneration_rate(0.1).build().is_err(),
            "symbolic encoders cannot regenerate"
        );
        let record = || {
            CyberHdConfig::builder(3, 2).encoder(EncoderKind::SymbolRecord).regeneration_rate(0.0)
        };
        assert!(record().symbol_alphabets(vec![4, 0, 2]).build().is_ok());
        assert!(record().symbol_alphabets(vec![4, 0]).build().is_err(), "arity mismatch");
        assert!(!EncoderKind::NGram.supports_regeneration());
        assert!(!EncoderKind::SymbolRecord.supports_regeneration());
        assert!(EncoderKind::NGram.is_symbolic() && EncoderKind::SymbolRecord.is_symbolic());
        assert!(!EncoderKind::Rbf.is_symbolic());
    }

    #[test]
    fn any_encoder_rejects_wrong_arity() {
        let config = tiny_config(EncoderKind::Rbf);
        let encoder = AnyEncoder::from_config(&config).unwrap();
        assert!(encoder.encode(&[1.0]).is_err());
    }

    #[test]
    fn training_report_derives_effective_dimension() {
        let mut regeneration = RegenerationStats::new();
        regeneration.total_regenerated = 300;
        regeneration.rounds = 3;
        let report = TrainingReport {
            epoch_accuracy: vec![0.8, 0.9, 0.95],
            regeneration,
            samples: 1000,
            physical_dimension: 512,
        };
        assert_eq!(report.effective_dimension(), 812);
        assert!((report.final_accuracy() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_final_accuracy() {
        let report = TrainingReport {
            epoch_accuracy: vec![],
            regeneration: RegenerationStats::new(),
            samples: 0,
            physical_dimension: 8,
        };
        assert_eq!(report.final_accuracy(), 0.0);
        assert_eq!(report.effective_dimension(), 8);
    }
}
