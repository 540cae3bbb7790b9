//! The sealed, deployable `Detector` artifact: raw flows in, verdicts out.
//!
//! The manual pipeline (generate → split → `Preprocessor::fit` →
//! `transform_matrix` → config builder → trainer → optional quantize /
//! open-set calibration) exposes every internal seam — which is exactly
//! right for experiments and exactly wrong for deployment.  A production
//! NIDS needs *train once, ship the artifact, serve raw traffic*:
//!
//! ```
//! use cyberhd::Detector;
//! use nids_data::synth::SyntheticConfig;
//! use nids_data::DatasetKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(600, 7))?;
//! let detector = Detector::builder().dimension(256).seed(7).train(&dataset)?;
//!
//! // Serve a raw record (schema values, not preprocessed vectors).
//! let verdict = detector.detect(dataset.records()[0].as_slice())?;
//! assert!(verdict.class < dataset.num_classes());
//!
//! // Ship it: the saved bytes reproduce every prediction bit for bit.
//! let bytes = detector.to_bytes();
//! let loaded = Detector::from_bytes(&bytes)?;
//! assert_eq!(
//!     loaded.detect(dataset.records()[0].as_slice())?,
//!     verdict,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! A [`Detector`] bundles the fitted [`Preprocessor`], the trained encoder,
//! the class memory (dense or quantized) and optional open-set thresholds
//! behind four verbs — [`Detector::detect`], [`Detector::detect_batch`],
//! [`Detector::evaluate`] and [`Detector::into_online`] — plus **versioned
//! persistence** ([`Detector::save`] / [`Detector::load`]) through the
//! bit-exact [`hdc::codec`].  Batch work rides the zero-copy
//! [`hdc::BatchView`] engines end to end.
//!
//! Internally one closed engine scores every flow: a dense class memory
//! (optionally with open-set thresholds) or a quantized one, and every
//! verb — single-flow `detect` included — runs the batched kernels.  The
//! sealed state is [`std::sync::Arc`]-shared — cloning a `Detector`
//! costs one reference count, which is what lets the [`crate::serve`]
//! layer pin an artifact per in-flight micro-batch and hot-swap artifacts
//! under live traffic without copying class memories around.

use crate::model::{AnyEncoder, CyberHdModel, TrainingReport};
use crate::online::OnlineLearner;
use crate::quantized::QuantizedModel;
use crate::regeneration::RegenerationStats;
use crate::trainer::CyberHdTrainer;
use crate::{CyberHdConfig, CyberHdConfigBuilder, CyberHdError, EncoderKind, Result};
use eval::metrics::ConfusionMatrix;
use hdc::codec::{CodecError, CodecResult, Reader, Writer};
use hdc::{AssociativeMemory, BatchView, BitWidth, QuantizedHypervector};
use nids_data::preprocess::{Normalization, Preprocessor};
use nids_data::{Dataset, Schema};
use std::fmt;
use std::sync::Arc;

/// Magic tag of a persisted detector artifact.
const MAGIC: &[u8; 4] = b"CYHD";

/// Current artifact format version.  Readers reject any other version with
/// a clear error instead of misinterpreting the payload; bump it whenever
/// the field layout changes.
///
/// Version 2 appended a CRC-32 integrity trailer over everything before it,
/// so silent on-disk corruption of a checkpointed artifact is detected at
/// load instead of deserializing garbage that happens to parse.  Version 3
/// drops the two thread-count words from the sealed config: the worker
/// count belongs to the host, not the model.  Versions 1 and 2 are
/// rejected.
const FORMAT_VERSION: u32 = 3;

/// Rows per streaming burst of the builder's `.online()` single-pass
/// training mode: large enough to amortize the batched kernels, small
/// enough that the model refreshes many times per pass.
const ONLINE_BURST_ROWS: usize = 256;

/// The outcome of classifying one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Best-matching trained class.
    pub class: usize,
    /// Cosine similarity to that class (integer cosine for quantized
    /// engines).
    pub similarity: f32,
    /// `true` when the detector was built with `.open_set(..)` and the
    /// similarity fell below the winning class's calibrated threshold —
    /// the flow looks like traffic the model was never trained on.
    pub novel: bool,
}

impl Verdict {
    /// The predicted class for in-distribution traffic, `None` when the
    /// flow was flagged as novel.
    pub fn known(&self) -> Option<usize> {
        (!self.novel).then_some(self.class)
    }
}

/// The scoring engine behind a sealed [`Detector`]: a full-precision class
/// memory, optionally with calibrated per-class open-set thresholds, or a
/// class memory stored at a reduced bitwidth.  Thresholds are calibrated on
/// the dense cosine scale, so a quantized engine cannot carry them.  The
/// dense model is boxed because it is far larger than the quantized one.
#[derive(Debug, Clone)]
enum Engine {
    Dense { model: Box<CyberHdModel>, thresholds: Option<Vec<f32>> },
    Quantized(QuantizedModel),
}

impl Engine {
    /// A dense engine without thresholds.
    fn dense(model: CyberHdModel) -> Self {
        Self::Dense { model: Box::new(model), thresholds: None }
    }

    /// A dense engine flagging a winner that scores below its class
    /// threshold as [`Verdict::novel`] — the one place a threshold vector is
    /// validated, whether it comes from calibration or from an artifact.
    /// The error is the reason alone; callers wrap it in their own error type.
    fn open_set(model: CyberHdModel, thresholds: Vec<f32>) -> std::result::Result<Self, String> {
        if thresholds.len() != model.num_classes() {
            return Err(format!(
                "{} thresholds for {} classes",
                thresholds.len(),
                model.num_classes()
            ));
        }
        // `similarity < NaN` is always false: a NaN threshold would never
        // flag anything, and an infinite one would flag everything or nothing.
        if let Some(class) = thresholds.iter().position(|t| !t.is_finite()) {
            return Err(format!(
                "open-set threshold of class {class} is {}, not a finite similarity",
                thresholds[class]
            ));
        }
        Ok(Self::Dense { model: Box::new(model), thresholds: Some(thresholds) })
    }
}

/// The Arc-shared sealed state of a [`Detector`].
#[derive(Debug, Clone)]
struct DetectorState {
    preprocessor: Preprocessor,
    config: CyberHdConfig,
    engine: Engine,
}

/// A sealed, deployable intrusion detector (see the [module docs](self)).
///
/// The sealed state is `Arc`-shared: `Clone` costs one reference count,
/// so worker threads, the serve engine's in-flight batches and the
/// registry can all hold the same artifact without copying it.
#[derive(Debug, Clone)]
pub struct Detector {
    state: Arc<DetectorState>,
}

/// Artifact metadata of a sealed [`Detector`] — the admission-check
/// surface of the serving registry (see [`Detector::info`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorInfo {
    /// Name of the raw-record schema the detector consumes.
    pub schema: String,
    /// Raw features per record (pre one-hot expansion).
    pub record_arity: usize,
    /// Preprocessed feature width (post one-hot expansion).
    pub input_width: usize,
    /// Physical hypervector dimensionality.
    pub dimension: usize,
    /// Number of trained classes.
    pub classes: usize,
    /// Encoder family.
    pub encoder: EncoderKind,
    /// Element bitwidth of the class memory; `None` for full precision.
    pub bit_width: Option<BitWidth>,
    /// Artifact format version [`Detector::to_bytes`] writes.
    pub codec_version: u32,
    /// Whether the artifact carries calibrated open-set thresholds.
    pub open_set: bool,
    /// Whether the artifact can be unsealed for streaming
    /// ([`Detector::into_online`]) — dense artifacts only.
    pub online_capable: bool,
}

impl fmt::Display for DetectorInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} raw features -> {} inputs), {:?} encoder, dim {}, {} classes, {}{}{}",
            self.schema,
            self.record_arity,
            self.input_width,
            self.encoder,
            self.dimension,
            self.classes,
            match self.bit_width {
                Some(width) => format!("{width} memory"),
                None => "dense memory".into(),
            },
            if self.open_set { ", open-set" } else { "" },
            if self.online_capable { ", online-capable" } else { "" },
        )
    }
}

/// Builds [`Detector`]s from a labelled [`Dataset`].
///
/// The builder owns both the preprocessing choice and the CyberHD training
/// knobs; [`DetectorBuilder::train`] runs the whole pipeline and seals the
/// result.  Deployment shapes compose as options:
///
/// * [`DetectorBuilder::quantize`] — store the class memory at a reduced
///   bitwidth (the paper's Table I deployment study),
/// * [`DetectorBuilder::open_set`] — calibrate per-class similarity
///   thresholds so zero-day-like traffic is reported as novel,
/// * [`DetectorBuilder::online`] — train with a single streaming pass
///   (prequential mini-bursts) instead of multi-epoch retraining.
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    normalization: Normalization,
    /// The training knobs; [`DetectorBuilder::train`] fills in the shape
    /// (input width, class count, symbol alphabets) from the dataset.
    config: CyberHdConfigBuilder,
    quantize: Option<BitWidth>,
    open_set: Option<f64>,
    online: bool,
}

impl Default for DetectorBuilder {
    fn default() -> Self {
        Self {
            normalization: Normalization::MinMax,
            config: CyberHdConfig::builder(0, 0),
            quantize: None,
            open_set: None,
            online: false,
        }
    }
}

impl DetectorBuilder {
    /// Sets the feature-scaling strategy of the fitted preprocessor.
    pub fn normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Applies one [`CyberHdConfigBuilder`] setter to the training knobs.
    fn knob(mut self, set: impl FnOnce(CyberHdConfigBuilder) -> CyberHdConfigBuilder) -> Self {
        self.config = set(self.config);
        self
    }

    /// Sets the physical hypervector dimensionality `D`.
    pub fn dimension(self, dimension: usize) -> Self {
        self.knob(|c| c.dimension(dimension))
    }

    /// Sets the learning rate `η` of the adaptive update.
    pub fn learning_rate(self, learning_rate: f32) -> Self {
        self.knob(|c| c.learning_rate(learning_rate))
    }

    /// Sets the number of retraining epochs (ignored by
    /// [`DetectorBuilder::online`] training).
    pub fn retrain_epochs(self, retrain_epochs: usize) -> Self {
        self.knob(|c| c.retrain_epochs(retrain_epochs))
    }

    /// Sets the regeneration rate `R` (zero disables regeneration).
    pub fn regeneration_rate(self, regeneration_rate: f32) -> Self {
        self.knob(|c| c.regeneration_rate(regeneration_rate))
    }

    /// Selects the encoder family.
    pub fn encoder(self, encoder: EncoderKind) -> Self {
        self.knob(|c| c.encoder(encoder))
    }

    /// Sets the Gaussian bandwidth of the RBF encoder.
    pub fn rbf_sigma(self, rbf_sigma: f32) -> Self {
        self.knob(|c| c.rbf_sigma(rbf_sigma))
    }

    /// Sets the level count of the ID–level encoder (also the
    /// numeric-column level count of the symbol-record encoder).
    pub fn id_level_levels(self, id_level_levels: usize) -> Self {
        self.knob(|c| c.id_level_levels(id_level_levels))
    }

    /// Sets the n-gram order of the [`EncoderKind::NGram`] encoder.
    pub fn ngram_order(self, ngram_order: usize) -> Self {
        self.knob(|c| c.ngram_order(ngram_order))
    }

    /// Sets the RNG seed (base vectors, shuffling, regeneration).
    pub fn seed(self, seed: u64) -> Self {
        self.knob(|c| c.seed(seed))
    }

    /// Sets the training mini-batch size (`1` = the serial adaptive rule;
    /// see [`CyberHdConfig::batch_size`]).
    pub fn batch_size(self, batch_size: usize) -> Self {
        self.knob(|c| c.batch_size(batch_size))
    }

    /// Deploys the class memory at the given element bitwidth.
    ///
    /// Incompatible with [`DetectorBuilder::open_set`] (thresholds are
    /// calibrated on full-precision scores).
    pub fn quantize(mut self, width: BitWidth) -> Self {
        self.quantize = Some(width);
        self
    }

    /// Calibrates per-class open-set thresholds at the given quantile
    /// (e.g. `0.05` keeps 95% of in-distribution training traffic above the
    /// threshold); flows scoring below their winning class's threshold are
    /// reported with [`Verdict::novel`] set.
    pub fn open_set(mut self, quantile: f64) -> Self {
        self.open_set = Some(quantile);
        self
    }

    /// Trains with a single streaming pass ([`OnlineLearner`] mini-bursts,
    /// prequential test-then-train) instead of multi-epoch retraining —
    /// the edge-deployment mode of the paper's motivation.
    pub fn online(mut self) -> Self {
        self.online = true;
        self
    }

    /// Runs the full pipeline on `dataset`: fit the preprocessor, transform
    /// into one contiguous matrix, train (batch or streaming), optionally
    /// calibrate open-set thresholds, optionally quantize — and seal the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] for incompatible options
    /// (quantize + open-set), [`CyberHdError::Data`] for preprocessing
    /// failures and [`CyberHdError::InvalidData`] for an empty or
    /// inconsistent dataset.
    pub fn train(&self, dataset: &Dataset) -> Result<Detector> {
        if let (Some(width), Some(_)) = (self.quantize, self.open_set) {
            return Err(CyberHdError::InvalidConfig(format!(
                "open-set thresholds are calibrated on full-precision scores and cannot be \
                 combined with {width} quantization; drop one of the two options"
            )));
        }
        // The symbolic encoders consume raw category indices, so they force
        // the symbolic preprocessing mode regardless of what the builder was
        // given — a silent one-hot expansion would destroy the symbol
        // identities the item memories key on.
        let encoder = self.config.encoder;
        let normalization =
            if encoder.is_symbolic() { Normalization::Symbolic } else { self.normalization };
        let symbol_alphabets = derive_symbol_alphabets(encoder, dataset.schema())?;
        let preprocessor = Preprocessor::fit(dataset, normalization)?;
        let matrix = preprocessor.transform_matrix(dataset)?;
        let width = preprocessor.output_width();
        let view = BatchView::new(&matrix, width).map_err(CyberHdError::from)?;
        let labels = dataset.labels();

        let config =
            self.config.clone().shape(width, dataset.num_classes(), symbol_alphabets).build()?;

        let model = if self.online {
            crate::validate_dataset_view(view, labels, width, config.num_classes)?;
            let mut learner = OnlineLearner::new(config)?;
            let mut start = 0usize;
            while start < view.rows() {
                let end = (start + ONLINE_BURST_ROWS).min(view.rows());
                learner.observe_batch_view(view.rows_range(start, end), &labels[start..end])?;
                start = end;
            }
            learner.into_model()
        } else {
            CyberHdTrainer::new(config)?.fit_view(view, labels)?
        };

        // Builder calibration uses the pooled own-class fallback: training
        // corpora for zero-day scenarios structurally omit a class, and an
        // absent class must borrow the global in-distribution floor (so it
        // still rejects) rather than silently never rejecting — or erroring
        // the way manual `OpenSetDetector::calibrate_view` now does.
        let thresholds = match self.open_set {
            Some(quantile) => Some(crate::openset::calibrate_thresholds_or_global_parts(
                model.encoder(),
                model.memory(),
                view,
                labels,
                quantile,
            )?),
            None => None,
        };

        let config = model.config().clone();
        let engine = match (self.quantize, thresholds) {
            (Some(width), _) => Engine::Quantized(model.quantize(width)),
            (None, Some(thresholds)) => {
                Engine::open_set(model, thresholds).map_err(CyberHdError::InvalidData)?
            }
            (None, None) => Engine::dense(model),
        };
        Ok(Detector::from_parts(preprocessor, config, engine))
    }
}

/// Derives the `symbol_alphabets` configuration of the symbolic encoders
/// from a dataset schema: for [`EncoderKind::NGram`] the single shared
/// alphabet (every feature must be categorical with the same cardinality);
/// for [`EncoderKind::SymbolRecord`] one entry per feature (`0` marking
/// numeric columns).  Numeric encoders get an empty vector.
fn derive_symbol_alphabets(encoder: EncoderKind, schema: &Schema) -> Result<Vec<usize>> {
    use nids_data::FeatureKind;
    match encoder {
        EncoderKind::NGram => {
            let mut shared: Option<usize> = None;
            for feature in schema.features() {
                let FeatureKind::Categorical { values } = &feature.kind else {
                    return Err(CyberHdError::InvalidConfig(format!(
                        "the NGram encoder needs an all-categorical sequence schema, but \
                         feature {:?} is numeric",
                        feature.name
                    )));
                };
                match shared {
                    None => shared = Some(values.len()),
                    Some(alphabet) if alphabet != values.len() => {
                        return Err(CyberHdError::InvalidConfig(format!(
                            "the NGram encoder needs one shared alphabet, but feature {:?} \
                             has {} symbols where earlier positions have {alphabet}",
                            feature.name,
                            values.len()
                        )));
                    }
                    Some(_) => {}
                }
            }
            let alphabet = shared.expect("schemas always have at least one feature");
            Ok(vec![alphabet])
        }
        EncoderKind::SymbolRecord => Ok(schema
            .features()
            .iter()
            .map(|feature| match &feature.kind {
                FeatureKind::Categorical { values } => values.len(),
                FeatureKind::Numeric { .. } => 0,
            })
            .collect()),
        _ => Ok(Vec::new()),
    }
}

impl Detector {
    /// Starts building a detector with default options.
    pub fn builder() -> DetectorBuilder {
        DetectorBuilder::default()
    }

    /// Seals preprocessor + engine into a shared artifact.
    fn from_parts(preprocessor: Preprocessor, config: CyberHdConfig, engine: Engine) -> Self {
        Self { state: Arc::new(DetectorState { preprocessor, config, engine }) }
    }

    /// The fitted preprocessing pipeline.
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.state.preprocessor
    }

    /// The schema of the raw records this detector consumes.
    pub fn schema(&self) -> &Schema {
        self.state.preprocessor.schema()
    }

    /// The training configuration the artifact was built with.
    pub fn config(&self) -> &CyberHdConfig {
        &self.state.config
    }

    /// Number of trained classes.
    pub fn num_classes(&self) -> usize {
        match &self.state.engine {
            Engine::Dense { model, .. } => model.num_classes(),
            Engine::Quantized(model) => model.num_classes(),
        }
    }

    /// Element bitwidth of the class memory, `None` for full precision.
    pub fn bit_width(&self) -> Option<BitWidth> {
        self.quantized_model().map(QuantizedModel::width)
    }

    /// The calibrated per-class open-set thresholds, if any.
    pub fn thresholds(&self) -> Option<&[f32]> {
        match &self.state.engine {
            Engine::Dense { thresholds, .. } => thresholds.as_deref(),
            Engine::Quantized(_) => None,
        }
    }

    /// The full-precision model, when this is a dense detector.
    pub fn model(&self) -> Option<&CyberHdModel> {
        match &self.state.engine {
            Engine::Dense { model, .. } => Some(model.as_ref()),
            Engine::Quantized(_) => None,
        }
    }

    /// The quantized deployment model, when this is a quantized detector.
    pub fn quantized_model(&self) -> Option<&QuantizedModel> {
        match &self.state.engine {
            Engine::Dense { .. } => None,
            Engine::Quantized(model) => Some(model),
        }
    }

    /// Reseals this artifact with calibrated per-class open-set thresholds
    /// attached: the preprocessor, config and dense model carry over
    /// verbatim and only the scoring engine gains the thresholds, so the
    /// result persists (and hot-swaps) as an open-set artifact.  The
    /// adaptive lane's publish path uses this to keep a snapshot resealed
    /// after drift regeneration emitting open-set verdicts instead of
    /// silently dropping to closed-set.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] for a quantized artifact
    /// (thresholds are calibrated on the dense cosine scale) and
    /// [`CyberHdError::InvalidData`] when `thresholds.len()` differs from
    /// the number of classes or a threshold is not finite.
    pub fn with_thresholds(&self, thresholds: Vec<f32>) -> Result<Detector> {
        let model = self.model().ok_or_else(|| {
            CyberHdError::InvalidConfig(
                "open-set thresholds require a dense (full-precision) artifact".into(),
            )
        })?;
        Ok(Self::from_parts(
            self.state.preprocessor.clone(),
            self.state.config.clone(),
            Engine::open_set(model.clone(), thresholds).map_err(CyberHdError::InvalidData)?,
        ))
    }

    /// Artifact metadata in one read: what the registry checks before
    /// admitting a hot-swap, and what operators print next to serve stats.
    pub fn info(&self) -> DetectorInfo {
        let dimension = match &self.state.engine {
            Engine::Dense { model, .. } => model.dimension(),
            Engine::Quantized(model) => model.dimension(),
        };
        DetectorInfo {
            schema: self.schema().name().to_string(),
            record_arity: self.schema().num_features(),
            input_width: self.state.preprocessor.output_width(),
            dimension,
            classes: self.num_classes(),
            encoder: self.state.config.encoder,
            bit_width: self.bit_width(),
            codec_version: FORMAT_VERSION,
            open_set: self.thresholds().is_some(),
            online_capable: self.model().is_some(),
        }
    }

    /// Classifies one **raw record** (schema values, not preprocessed
    /// vectors), returning the verdict.
    ///
    /// This is [`Detector::detect_preprocessed`] on a one-row batch, so the
    /// verdict equals the record's verdict from [`Detector::detect_batch`]
    /// bit for bit; score many flows with `detect_batch` instead.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] if the record does not conform to the
    /// schema.
    pub fn detect(&self, record: &[f32]) -> Result<Verdict> {
        let features = self.state.preprocessor.transform_record(record)?;
        let view = BatchView::new(&features, features.len()).map_err(CyberHdError::from)?;
        let mut verdicts = self.detect_preprocessed(view)?;
        Ok(verdicts.pop().expect("one row in, one verdict out"))
    }

    /// Classifies a batch of raw records on the fused batched engine: the
    /// records are preprocessed into one contiguous matrix (a single
    /// allocation) and scored through the zero-copy [`BatchView`] pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] on the first record that does not
    /// conform to the schema.
    pub fn detect_batch(&self, records: &[Vec<f32>]) -> Result<Vec<Verdict>> {
        let width = self.state.preprocessor.output_width();
        let matrix = self.state.preprocessor.transform_records_matrix(records)?;
        let view = BatchView::new(&matrix, width).map_err(CyberHdError::from)?;
        self.detect_preprocessed(view)
    }

    /// Classifies a zero-copy batch of **already preprocessed** feature
    /// rows (width [`Preprocessor::output_width`]) — the flush path of the
    /// serve engine, which preprocesses records one at a time at submit
    /// time into a reusable [`hdc::BatchBuffer`].
    ///
    /// Verdicts are bit-identical to [`Detector::detect_batch`] on the raw
    /// records the rows were transformed from, regardless of how the flows
    /// are split into batches: every kernel on this path scores rows
    /// independently, and the per-batch precomputation (class norms,
    /// packed class words) depends only on the class memory.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] if the view's row width does
    /// not match the preprocessor output width.
    pub fn detect_preprocessed(&self, batch: BatchView<'_>) -> Result<Vec<Verdict>> {
        let (scored, thresholds) = match &self.state.engine {
            Engine::Dense { model, thresholds } => {
                (model.predict_batch_view_scored(batch)?, thresholds.as_deref())
            }
            Engine::Quantized(model) => (model.predict_batch_view_scored(batch)?, None),
        };
        Ok(scored
            .into_iter()
            .map(|(class, similarity)| Verdict {
                class,
                similarity,
                novel: thresholds.is_some_and(|thresholds| similarity < thresholds[class]),
            })
            .collect())
    }

    /// Evaluates the detector on a labelled dataset of raw records,
    /// returning the (closed-set) confusion matrix — novel flags are
    /// ignored, every flow is scored against its nearest class.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] if the dataset does not match the
    /// fitted schema, and propagates prediction errors.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<ConfusionMatrix> {
        let matrix = self.state.preprocessor.transform_matrix(dataset)?;
        let view = BatchView::new(&matrix, self.state.preprocessor.output_width())
            .map_err(CyberHdError::from)?;
        match &self.state.engine {
            Engine::Dense { model, .. } => model.evaluate_view(view, dataset.labels()),
            Engine::Quantized(model) => model.evaluate_view(view, dataset.labels()),
        }
    }

    /// Accuracy on a labelled dataset of raw records.
    ///
    /// # Errors
    ///
    /// Same as [`Detector::evaluate`].
    pub fn accuracy(&self, dataset: &Dataset) -> Result<f64> {
        Ok(self.evaluate(dataset)?.accuracy())
    }

    /// Unseals the detector into a streaming [`OnlineDetector`] that keeps
    /// learning from labelled raw flows (the model continues from the
    /// trained class memory).
    ///
    /// Open-set thresholds are dropped: they were calibrated against the
    /// sealed memory, and a learner that keeps updating would silently
    /// invalidate them.  Re-seal and rebuild with
    /// [`DetectorBuilder::open_set`] to restore them.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] for quantized detectors —
    /// the adaptive rule updates full-precision class hypervectors.
    pub fn into_online(self) -> Result<OnlineDetector> {
        // Sole owner: move the model out without a copy.  Shared (e.g.
        // still registered for serving): clone the sealed state.
        let DetectorState { preprocessor, engine, .. } = Arc::unwrap_or_clone(self.state);
        match engine {
            Engine::Dense { model, .. } => {
                Ok(OnlineDetector { preprocessor, learner: OnlineLearner::from_model(*model) })
            }
            Engine::Quantized(model) => Err(CyberHdError::InvalidConfig(format!(
                "a {} quantized detector cannot continue learning; keep the dense artifact \
                 for streaming and quantize at deployment",
                model.width()
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Versioned persistence
    // ------------------------------------------------------------------

    /// Serializes the full artifact — preprocessor statistics, encoder
    /// seeds/projections, dense or packed class memory, thresholds — into
    /// the versioned binary format.  A load of these bytes reproduces every
    /// prediction **bit for bit** (floats travel as IEEE-754 bit patterns).
    ///
    /// The frame ends with a CRC-32 trailer over every preceding byte;
    /// [`Detector::from_bytes`] verifies it before parsing anything, so
    /// corrupted checkpoints fail loudly instead of loading a silently
    /// wrong model.
    pub fn to_bytes(&self) -> Vec<u8> {
        hdc::codec::seal(MAGIC, FORMAT_VERSION, |w| {
            self.state.preprocessor.write_to(w);
            write_config(w, &self.state.config);
            match &self.state.engine {
                Engine::Dense { model, .. } => {
                    w.u8(0);
                    model.encoder().write_to(w);
                    model.memory().write_to(w);
                    write_report(w, model.report());
                }
                Engine::Quantized(model) => {
                    w.u8(1);
                    model.encoder().write_to(w);
                    w.u8(model.width().bits() as u8);
                    w.usize(model.classes().len());
                    for class in model.classes() {
                        class.write_to(w);
                    }
                }
            }
            match self.thresholds() {
                None => w.bool(false),
                Some(thresholds) => {
                    w.bool(true);
                    w.f32_slice(thresholds);
                }
            }
        })
    }

    /// Deserializes an artifact produced by [`Detector::to_bytes`]; the
    /// CRC-32 trailer is verified before anything is parsed.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Persist`] for a wrong magic tag, an
    /// unsupported format version, a checksum mismatch, a truncated stream
    /// or an internally inconsistent payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        read_detector(bytes).map_err(CyberHdError::from)
    }

    /// Saves the artifact to `path` (see [`Detector::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Persist`] on I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| CyberHdError::Persist(format!("writing {}: {e}", path.display())))
    }

    /// Loads an artifact saved by [`Detector::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Persist`] on I/O failure or a malformed
    /// artifact.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CyberHdError::Persist(format!("reading {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// A streaming detector: the unsealed form of a dense [`Detector`] that
/// keeps applying the adaptive rule to labelled raw flows.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    preprocessor: Preprocessor,
    learner: OnlineLearner,
}

impl OnlineDetector {
    /// Observes one labelled raw record: predicts it, then updates the
    /// model.  Returns the prediction made *before* the update.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] for a record that does not conform to
    /// the schema and [`CyberHdError::InvalidData`] for an out-of-range
    /// label.
    pub fn observe(&mut self, record: &[f32], label: usize) -> Result<usize> {
        let features = self.preprocessor.transform_record(record)?;
        self.learner.observe(&features, label)
    }

    /// [`OnlineDetector::observe`] returning `(prediction, similarity)` for
    /// the prediction made *before* the update — the scored form the
    /// adaptive serving lane builds verdicts from.  Identical computation
    /// and identical model update, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] for a record that does not conform to
    /// the schema and [`CyberHdError::InvalidData`] for an out-of-range
    /// label.
    pub fn observe_scored(&mut self, record: &[f32], label: usize) -> Result<(usize, f32)> {
        let features = self.preprocessor.transform_record(record)?;
        self.learner.observe_scored(&features, label)
    }

    /// Observes one burst of labelled raw records through the mini-batch
    /// streaming engine, returning the predictions made *before* the
    /// update.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] on the first malformed record,
    /// [`CyberHdError::InvalidData`] for mismatched lengths or an
    /// out-of-range label.
    pub fn observe_batch(&mut self, records: &[Vec<f32>], labels: &[usize]) -> Result<Vec<usize>> {
        self.observe_batch_scored(records, labels)
            .map(|scored| scored.into_iter().map(|(class, _similarity)| class).collect())
    }

    /// [`OnlineDetector::observe_batch`] returning `(prediction,
    /// similarity)` per record — identical frozen-snapshot scoring and
    /// identical deferred update, bit for bit.  The batched-feedback
    /// serving lane builds its verdicts (and open-set novelty flags) from
    /// the scored form.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineDetector::observe_batch`].
    pub fn observe_batch_scored(
        &mut self,
        records: &[Vec<f32>],
        labels: &[usize],
    ) -> Result<Vec<(usize, f32)>> {
        if records.len() != labels.len() {
            return Err(CyberHdError::InvalidData(format!(
                "{} records but {} labels",
                records.len(),
                labels.len()
            )));
        }
        let width = self.preprocessor.output_width();
        let matrix = self.preprocessor.transform_records_matrix(records)?;
        self.learner.observe_batch_view_scored(
            BatchView::new(&matrix, width).map_err(CyberHdError::from)?,
            labels,
        )
    }

    /// Recalibrates per-class open-set thresholds against the **current**
    /// (post-regeneration) model from a set of labelled in-distribution raw
    /// records — the adaptive lane's reservoir.  Classes the reservoir is
    /// transiently missing borrow the global own-class quantile instead of
    /// silently never rejecting.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] on the first malformed record and
    /// [`CyberHdError::InvalidData`] for inconsistent inputs or an
    /// out-of-range quantile.
    pub fn recalibrate_thresholds(
        &self,
        records: &[Vec<f32>],
        labels: &[usize],
        quantile: f64,
    ) -> Result<Vec<f32>> {
        let width = self.preprocessor.output_width();
        let matrix = self.preprocessor.transform_records_matrix(records)?;
        self.learner.calibrate_thresholds_or_global(
            BatchView::new(&matrix, width).map_err(CyberHdError::from)?,
            labels,
            quantile,
        )
    }

    /// Predicts one raw record without updating the model.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] for a malformed record.
    pub fn predict(&self, record: &[f32]) -> Result<usize> {
        let features = self.preprocessor.transform_record(record)?;
        self.learner.predict(&features)
    }

    /// [`OnlineDetector::predict`] returning `(class, similarity)`.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::Data`] for a malformed record.
    pub fn predict_scored(&self, record: &[f32]) -> Result<(usize, f32)> {
        let features = self.preprocessor.transform_record(record)?;
        self.learner.predict_scored(&features)
    }

    /// Prequential ("test-then-train") accuracy of the streamed phase.
    pub fn prequential_accuracy(&self) -> f64 {
        self.learner.prequential_accuracy()
    }

    /// Number of flows observed since the detector was unsealed.
    pub fn samples_seen(&self) -> usize {
        self.learner.samples_seen()
    }

    /// Runs one regeneration round (see [`OnlineLearner::regenerate`]).
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] if the configured encoder
    /// cannot regenerate dimensions.
    pub fn regenerate(&mut self) -> Result<usize> {
        self.learner.regenerate()
    }

    /// Runs one regeneration round at an explicit rate (see
    /// [`OnlineLearner::regenerate_at`]).
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] if the configured encoder
    /// cannot regenerate dimensions.
    pub fn regenerate_at(&mut self, rate: f32) -> Result<usize> {
        self.learner.regenerate_at(rate)
    }

    /// The underlying streaming learner.
    pub fn learner(&self) -> &OnlineLearner {
        &self.learner
    }

    /// Restores the prequential counters after a checkpoint reload (see
    /// [`OnlineLearner::restore_prequential`]).
    pub(crate) fn restore_prequential(&mut self, seen: usize, correct: usize) {
        self.learner.restore_prequential(seen, correct);
    }

    /// The fitted preprocessing pipeline the detector was unsealed with.
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.preprocessor
    }

    /// Re-seals the streaming detector into an immutable [`Detector`].
    /// The result is closed-set; recalibrate thresholds and attach them
    /// with [`Detector::with_thresholds`] (the adaptive lane's publish
    /// path) or rebuild with [`DetectorBuilder::open_set`].
    pub fn seal(self) -> Detector {
        let model = self.learner.into_model();
        let config = model.config().clone();
        Detector::from_parts(self.preprocessor, config, Engine::dense(model))
    }

    /// Seals a **snapshot** of the current model into an immutable
    /// [`Detector`] while this streaming detector keeps learning — the
    /// publication step of the drift-adaptive serving loop: the adaptive
    /// lane keeps adapting in place and periodically hands the registry a
    /// sealed copy for the frozen, batch-served tenants.
    ///
    /// The snapshot reproduces the learner's current predictions bit for
    /// bit (the class memory and encoder are cloned verbatim).
    pub fn seal_snapshot(&self) -> Detector {
        let model = self.learner.clone().into_model();
        let config = model.config().clone();
        Detector::from_parts(self.preprocessor.clone(), config, Engine::dense(model))
    }
}

// ----------------------------------------------------------------------
// Codec helpers
// ----------------------------------------------------------------------

fn write_config(w: &mut Writer, config: &CyberHdConfig) {
    w.usize(config.input_features);
    w.usize(config.num_classes);
    w.usize(config.dimension);
    w.f32(config.learning_rate);
    w.usize(config.retrain_epochs);
    w.f32(config.regeneration_rate);
    w.u8(match config.encoder {
        EncoderKind::Rbf => 0,
        EncoderKind::IdLevel => 1,
        EncoderKind::Record => 2,
        EncoderKind::NGram => 3,
        EncoderKind::SymbolRecord => 4,
    });
    // The symbolic fields only exist for tags >= 3, keeping every artifact
    // written before the workload zoo byte-identical.
    if config.encoder.is_symbolic() {
        w.usize(config.ngram_order);
        w.usize(config.symbol_alphabets.len());
        for &alphabet in &config.symbol_alphabets {
            w.usize(alphabet);
        }
    }
    w.f32(config.rbf_sigma);
    w.usize(config.id_level_levels);
    w.u64(config.seed);
    w.usize(config.batch_size);
}

fn read_config(r: &mut Reader<'_>) -> CodecResult<CyberHdConfig> {
    let input_features = r.usize()?;
    let num_classes = r.usize()?;
    let dimension = r.usize()?;
    let learning_rate = r.f32()?;
    let retrain_epochs = r.usize()?;
    let regeneration_rate = r.f32()?;
    let encoder = match r.u8()? {
        0 => EncoderKind::Rbf,
        1 => EncoderKind::IdLevel,
        2 => EncoderKind::Record,
        3 => EncoderKind::NGram,
        4 => EncoderKind::SymbolRecord,
        tag => return Err(CodecError::Invalid(format!("encoder-kind tag {tag}"))),
    };
    let (ngram_order, symbol_alphabets) = if encoder.is_symbolic() {
        let order = r.usize()?;
        let len = r.usize()?;
        let mut alphabets = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            alphabets.push(r.usize()?);
        }
        (order, alphabets)
    } else {
        (3, Vec::new())
    };
    let rbf_sigma = r.f32()?;
    let id_level_levels = r.usize()?;
    let seed = r.u64()?;
    let batch_size = r.usize()?;
    CyberHdConfig::builder(input_features, num_classes)
        .dimension(dimension)
        .learning_rate(learning_rate)
        .retrain_epochs(retrain_epochs)
        .regeneration_rate(regeneration_rate)
        .encoder(encoder)
        .rbf_sigma(rbf_sigma)
        .id_level_levels(id_level_levels)
        .ngram_order(ngram_order)
        .symbol_alphabets(symbol_alphabets)
        .seed(seed)
        .batch_size(batch_size)
        .build()
        .map_err(|e| CodecError::Invalid(format!("config: {e}")))
}

fn write_report(w: &mut Writer, report: &TrainingReport) {
    w.f64_slice(&report.epoch_accuracy);
    w.usize(report.regeneration.rounds);
    w.usize(report.regeneration.total_regenerated);
    w.usize(report.regeneration.per_round.len());
    for &n in &report.regeneration.per_round {
        w.usize(n);
    }
    w.f32_slice(&report.regeneration.mean_variance_per_round);
    w.usize(report.samples);
    w.usize(report.physical_dimension);
}

fn read_report(r: &mut Reader<'_>) -> CodecResult<TrainingReport> {
    let epoch_accuracy = r.f64_vec()?;
    let rounds = r.usize()?;
    let total_regenerated = r.usize()?;
    let per_round_len = r.usize()?;
    let per_round = (0..per_round_len).map(|_| r.usize()).collect::<CodecResult<Vec<_>>>()?;
    let mean_variance_per_round = r.f32_vec()?;
    let samples = r.usize()?;
    let physical_dimension = r.usize()?;
    let regeneration =
        RegenerationStats { rounds, total_regenerated, per_round, mean_variance_per_round };
    Ok(TrainingReport { epoch_accuracy, regeneration, samples, physical_dimension })
}

fn read_detector(bytes: &[u8]) -> CodecResult<Detector> {
    // The CRC-32 trailer is verified before the payload is parsed, so a
    // corrupted artifact fails here instead of parsing garbage.
    let r = &mut hdc::codec::unseal(bytes, "detector artifact", MAGIC, FORMAT_VERSION)?;
    let preprocessor = Preprocessor::read_from(r)?;
    let config = read_config(r)?;
    if config.input_features != preprocessor.output_width() {
        return Err(CodecError::Invalid(format!(
            "config expects {} input features but the preprocessor produces {}",
            config.input_features,
            preprocessor.output_width()
        )));
    }
    let engine = match r.u8()? {
        0 => {
            let encoder = AnyEncoder::read_from(r)?;
            let memory = AssociativeMemory::read_from(r)?;
            let report = read_report(r)?;
            check_encoder_shape(&encoder, &config, memory.dim(), memory.num_classes())?;
            Engine::dense(CyberHdModel::from_parts(encoder, memory, config.clone(), report))
        }
        1 => {
            let encoder = AnyEncoder::read_from(r)?;
            let width = BitWidth::from_bits(r.u8()? as u32)
                .map_err(|e| CodecError::Invalid(e.to_string()))?;
            let num_classes = r.usize()?;
            let mut classes: Vec<QuantizedHypervector> =
                Vec::with_capacity(num_classes.min(r.remaining()));
            for _ in 0..num_classes {
                let class = QuantizedHypervector::read_from(r)?;
                if class.width() != width {
                    return Err(CodecError::Invalid(format!(
                        "class stored at {} inside a {width} artifact",
                        class.width()
                    )));
                }
                classes.push(class);
            }
            let dim = classes.first().map(QuantizedHypervector::dim).unwrap_or(0);
            if classes.iter().any(|c| c.dim() != dim) {
                return Err(CodecError::Invalid("class dimensionalities disagree".into()));
            }
            check_encoder_shape(&encoder, &config, dim, classes.len())?;
            Engine::Quantized(QuantizedModel::from_parts(encoder, classes, width))
        }
        tag => return Err(CodecError::Invalid(format!("engine tag {tag}"))),
    };
    let engine = match (engine, r.bool()?) {
        (engine, false) => engine,
        (Engine::Dense { model, .. }, true) => {
            Engine::open_set(*model, r.f32_vec()?).map_err(CodecError::Invalid)?
        }
        // The builder forbids quantize + open-set, so a quantized engine
        // with a threshold trailer is a stitched artifact.
        (Engine::Quantized(_), true) => {
            return Err(CodecError::Invalid("open-set thresholds on a quantized engine".into()));
        }
    };
    if !r.is_exhausted() {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after the artifact",
            r.remaining()
        )));
    }
    Ok(Detector::from_parts(preprocessor, config, engine))
}

/// Cross-checks a loaded encoder against the config and class-memory
/// shapes, so a stitched-together artifact fails at load rather than at
/// first detect.
fn check_encoder_shape(
    encoder: &AnyEncoder,
    config: &CyberHdConfig,
    memory_dim: usize,
    memory_classes: usize,
) -> CodecResult<()> {
    if encoder.input_features() != config.input_features {
        return Err(CodecError::Invalid(format!(
            "encoder consumes {} features but the config expects {}",
            encoder.input_features(),
            config.input_features
        )));
    }
    if encoder.output_dim() != memory_dim {
        return Err(CodecError::Invalid(format!(
            "encoder produces {}-dimensional hypervectors but the class memory is \
             {memory_dim}-dimensional",
            encoder.output_dim()
        )));
    }
    if memory_classes != config.num_classes {
        return Err(CodecError::Invalid(format!(
            "{memory_classes} stored classes but the config expects {}",
            config.num_classes
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nids_data::synth::SyntheticConfig;
    use nids_data::DatasetKind;

    fn dataset(samples: usize, seed: u64) -> Dataset {
        DatasetKind::NslKdd
            .generate(&SyntheticConfig::new(samples, seed).difficulty(1.2))
            .expect("synthetic generation")
    }

    fn quick_builder() -> DetectorBuilder {
        Detector::builder().dimension(192).retrain_epochs(2).seed(11)
    }

    #[test]
    fn builder_trains_a_working_detector() {
        let data = dataset(600, 3);
        let detector = quick_builder().train(&data).unwrap();
        assert_eq!(detector.num_classes(), data.num_classes());
        assert_eq!(detector.schema().name(), data.schema().name());
        assert!(detector.bit_width().is_none());
        assert!(detector.thresholds().is_none());
        assert!(detector.model().is_some());
        assert!(detector.quantized_model().is_none());
        let accuracy = detector.accuracy(&data).unwrap();
        assert!(accuracy > 0.5, "training-set accuracy {accuracy}");
    }

    #[test]
    fn detect_matches_the_manual_pipeline_bit_for_bit() {
        let data = dataset(500, 5);
        let detector = quick_builder().train(&data).unwrap();
        let model = detector.model().unwrap();
        let preprocessor = detector.preprocessor();
        for record in data.records().iter().take(50) {
            let manual = model.predict(&preprocessor.transform_record(record).unwrap()).unwrap();
            let verdict = detector.detect(record).unwrap();
            assert_eq!(verdict.class, manual);
            assert!(!verdict.novel);
            assert_eq!(verdict.known(), Some(manual));
        }
    }

    #[test]
    fn detect_batch_matches_the_manual_batched_pipeline() {
        let data = dataset(400, 7);
        let detector = quick_builder().train(&data).unwrap();
        let model = detector.model().unwrap();
        let records: Vec<Vec<f32>> = data.records().to_vec();
        let verdicts = detector.detect_batch(&records).unwrap();
        let preprocessor = detector.preprocessor();
        let manual_x = preprocessor.transform_matrix(&data).unwrap();
        let manual_x = BatchView::new(&manual_x, preprocessor.output_width()).unwrap();
        let manual = model.predict_batch_view(manual_x).unwrap();
        assert_eq!(verdicts.len(), manual.len());
        for (verdict, class) in verdicts.iter().zip(manual) {
            assert_eq!(verdict.class, class);
        }
    }

    #[test]
    fn quantized_detector_serves_and_open_set_flags_novel_traffic() {
        let data = dataset(500, 9);
        let quantized = quick_builder().quantize(BitWidth::B1).train(&data).unwrap();
        assert_eq!(quantized.bit_width(), Some(BitWidth::B1));
        assert!(quantized.model().is_none());
        let record = data.records()[0].as_slice();
        let manual = quantized.quantized_model().unwrap();
        let expected =
            manual.predict(&quantized.preprocessor().transform_record(record).unwrap()).unwrap();
        assert_eq!(quantized.detect(record).unwrap().class, expected);

        let open = quick_builder().open_set(0.05).train(&data).unwrap();
        assert_eq!(open.thresholds().unwrap().len(), data.num_classes());
        // In-distribution traffic is mostly accepted.
        let verdicts = open.detect_batch(data.records()).unwrap();
        let novel = verdicts.iter().filter(|v| v.novel).count();
        assert!(
            (novel as f64) < 0.2 * verdicts.len() as f64,
            "{novel}/{} in-distribution flows flagged novel",
            verdicts.len()
        );
    }

    #[test]
    fn with_thresholds_rejects_miscounted_and_non_finite_thresholds() {
        let data = dataset(300, 47);
        let detector = quick_builder().train(&data).unwrap();
        let classes = detector.num_classes();
        // A NaN threshold never flags a flow (`similarity < NaN` is false).
        for bad in [
            vec![0.1; classes - 1],
            vec![f32::NAN; classes],
            vec![f32::INFINITY; classes],
            vec![f32::NEG_INFINITY; classes],
        ] {
            let result = detector.with_thresholds(bad.clone());
            assert!(matches!(result, Err(CyberHdError::InvalidData(_))), "{bad:?}");
        }
        let open = detector.with_thresholds(vec![0.1; classes]).unwrap();
        assert_eq!(open.thresholds(), Some(vec![0.1; classes].as_slice()));
        let quantized = quick_builder().quantize(BitWidth::B1).train(&data).unwrap();
        let result = quantized.with_thresholds(vec![0.1; classes]);
        assert!(matches!(result, Err(CyberHdError::InvalidConfig(_))));
    }

    #[test]
    fn info_reports_artifact_metadata_for_every_shape() {
        let data = dataset(400, 41);
        let dense = quick_builder().train(&data).unwrap();
        let info = dense.info();
        assert_eq!(info.schema, data.schema().name());
        assert_eq!(info.record_arity, data.schema().num_features());
        assert_eq!(info.input_width, dense.preprocessor().output_width());
        assert_eq!(info.dimension, 192);
        assert_eq!(info.classes, data.num_classes());
        assert_eq!(info.encoder, EncoderKind::Rbf);
        assert_eq!(info.bit_width, None);
        assert_eq!(info.codec_version, FORMAT_VERSION);
        assert!(!info.open_set);
        assert!(info.online_capable);
        let shown = info.to_string();
        assert!(shown.contains("dense memory") && shown.contains("online-capable"), "{shown}");

        let quantized = quick_builder().quantize(BitWidth::B1).train(&data).unwrap();
        let info = quantized.info();
        assert_eq!(info.bit_width, Some(BitWidth::B1));
        assert!(!info.online_capable);

        let open = quick_builder().open_set(0.05).train(&data).unwrap();
        assert!(open.info().open_set);
        // A load round trip reports identical metadata.
        let loaded = Detector::from_bytes(&open.to_bytes()).unwrap();
        assert_eq!(loaded.info(), open.info());
    }

    #[test]
    fn clones_share_the_sealed_state() {
        let data = dataset(300, 43);
        let detector = quick_builder().train(&data).unwrap();
        let clone = detector.clone();
        assert!(Arc::ptr_eq(&detector.state, &clone.state), "clone is a reference count bump");
        let record = data.records()[0].as_slice();
        assert_eq!(clone.detect(record).unwrap(), detector.detect(record).unwrap());
        // A shared artifact can still unseal (clone-on-unseal).
        let online = clone.into_online().unwrap();
        assert_eq!(online.samples_seen(), 0);
        assert!(detector.detect(record).is_ok(), "original artifact unaffected");
    }

    #[test]
    fn quantize_and_open_set_do_not_compose() {
        let data = dataset(300, 13);
        let err = quick_builder().quantize(BitWidth::B2).open_set(0.05).train(&data);
        assert!(matches!(err, Err(CyberHdError::InvalidConfig(_))));
    }

    #[test]
    fn online_training_and_streaming_round_trip() {
        let data = dataset(800, 17);
        let detector = quick_builder().online().train(&data).unwrap();
        let accuracy = detector.accuracy(&data).unwrap();
        assert!(accuracy > 0.4, "single-pass accuracy {accuracy}");

        // Unseal, stream more labelled flows, re-seal.
        let mut online = detector.into_online().unwrap();
        assert_eq!(online.samples_seen(), 0);
        let more = dataset(300, 19);
        for (record, &label) in more.records().iter().zip(more.labels()).take(100) {
            online.observe(record, label).unwrap();
        }
        let (burst_records, burst_labels): (Vec<Vec<f32>>, Vec<usize>) = more
            .records()
            .iter()
            .zip(more.labels())
            .skip(100)
            .map(|(record, &label)| (record.clone(), label))
            .unzip();
        online.observe_batch(&burst_records, &burst_labels).unwrap();
        assert_eq!(online.samples_seen(), more.records().len());
        assert!(online.prequential_accuracy() > 0.0);
        let class = online.predict(more.records()[0].as_slice()).unwrap();
        assert!(class < more.num_classes());
        let resealed = online.seal();
        assert!(resealed.thresholds().is_none());
        assert!(resealed.accuracy(&data).unwrap() > 0.4);

        // Quantized artifacts refuse to stream.
        let quantized = quick_builder().quantize(BitWidth::B4).train(&data).unwrap();
        assert!(matches!(quantized.into_online(), Err(CyberHdError::InvalidConfig(_))));
    }

    #[test]
    fn persistence_rejects_foreign_and_corrupt_artifacts() {
        let data = dataset(300, 23);
        let detector = quick_builder().train(&data).unwrap();
        let bytes = detector.to_bytes();

        assert!(matches!(Detector::from_bytes(b"not an artifact"), Err(CyberHdError::Persist(_))));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        let err = Detector::from_bytes(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let truncated = &bytes[..bytes.len() / 2];
        assert!(Detector::from_bytes(truncated).is_err());
        // Any corruption of the frame — including appended garbage, which
        // shifts the CRC trailer — fails the checksum before parsing.
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = Detector::from_bytes(&trailing).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = Detector::from_bytes(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn legacy_v1_artifacts_are_rejected_as_an_unsupported_version() {
        let data = dataset(300, 31);
        let detector = quick_builder().train(&data).unwrap();
        // Exactly the bytes a pre-CRC build would have written: the frame
        // without its trailer, version field patched back to 1.  They carry
        // no checksum, so loading them would be the one way to deserialize
        // unverified bytes.
        let v3 = detector.to_bytes();
        let mut v1 = v3[..v3.len() - 4].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = Detector::from_bytes(&v1).unwrap_err();
        assert!(err.to_string().contains("version 1 is not supported"), "{err}");
        // A version-2 frame (thread words in the config) with a valid
        // trailer is refused by its version, before the payload is read.
        let mut v2 = v3[..v3.len() - 4].to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let crc = hdc::codec::crc32(&v2);
        v2.extend_from_slice(&crc.to_le_bytes());
        let err = Detector::from_bytes(&v2).unwrap_err();
        assert!(matches!(err, CyberHdError::Persist(_)), "{err:?}");
        assert!(err.to_string().contains("version 2 is not supported"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_through_the_filesystem() {
        let data = dataset(300, 29);
        let detector = quick_builder().train(&data).unwrap();
        let path = std::env::temp_dir().join("cyberhd_detector_roundtrip.chd");
        detector.save(&path).unwrap();
        let loaded = Detector::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for record in data.records().iter().take(25) {
            assert_eq!(loaded.detect(record).unwrap(), detector.detect(record).unwrap());
        }
        assert!(Detector::load(std::env::temp_dir().join("cyberhd_missing.chd")).is_err());
    }
}
