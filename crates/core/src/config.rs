//! Configuration of the CyberHD learner.
//!
//! [`CyberHdConfig`] collects every knob of the training pipeline — physical
//! dimensionality, learning rate, number of retraining epochs, regeneration
//! rate, encoder choice and RNG seed — behind a validating builder, so a
//! misconfigured experiment fails loudly at construction time rather than
//! producing silently wrong numbers.

use crate::{CyberHdError, Result};
use serde::{Deserialize, Serialize};

/// Which encoder maps features into hyperspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EncoderKind {
    /// RBF / random-Fourier-feature encoder (the paper's choice for
    /// cyber-security data; required for dimension regeneration).
    Rbf,
    /// Static ID–level encoder (no regeneration support).
    IdLevel,
    /// Static record-based (linear random projection) encoder
    /// (no regeneration support).
    Record,
    /// Bind-permute-bundle n-gram sequence encoder over a symbol alphabet
    /// (the workload-zoo language-ID path; no regeneration support).
    NGram,
    /// Symbolic record encoder for mixed categorical/numeric tabular rows
    /// (no regeneration support).
    SymbolRecord,
}

impl EncoderKind {
    /// Whether this encoder supports per-dimension regeneration.
    pub fn supports_regeneration(self) -> bool {
        matches!(self, EncoderKind::Rbf)
    }

    /// Whether this encoder consumes symbol indices (categorical features
    /// kept as raw indices by `Normalization::Symbolic`) rather than dense
    /// numeric vectors.
    pub fn is_symbolic(self) -> bool {
        matches!(self, EncoderKind::NGram | EncoderKind::SymbolRecord)
    }
}

/// Fully validated CyberHD training configuration.
///
/// Construct it through [`CyberHdConfig::builder`]; all fields are public for
/// reading so experiment harnesses can log them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CyberHdConfig {
    /// Number of input features per sample (after preprocessing).
    pub input_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Physical hypervector dimensionality `D`.
    pub dimension: usize,
    /// Learning rate `η` of the adaptive update.
    pub learning_rate: f32,
    /// Number of retraining epochs after the initial accumulation pass.
    pub retrain_epochs: usize,
    /// Fraction `R ∈ [0, 1)` of dimensions dropped and regenerated after each
    /// retraining epoch. Zero disables regeneration (baseline behaviour).
    pub regeneration_rate: f32,
    /// Encoder used to map features into hyperspace.
    pub encoder: EncoderKind,
    /// Gaussian bandwidth of the RBF encoder (ignored by other encoders).
    pub rbf_sigma: f32,
    /// Number of quantization levels of the ID–level encoder, also used as
    /// the numeric-column level count of the symbol-record encoder (ignored
    /// by other encoders).
    pub id_level_levels: usize,
    /// N-gram order of the [`EncoderKind::NGram`] encoder (ignored by other
    /// encoders).
    pub ngram_order: usize,
    /// Per-column symbol alphabet sizes of the symbolic encoders: for
    /// [`EncoderKind::NGram`] exactly one entry (the shared alphabet of
    /// every sequence position); for [`EncoderKind::SymbolRecord`] one
    /// entry per input feature (`0` marks a numeric column).  Empty for the
    /// numeric encoders.
    pub symbol_alphabets: Vec<usize>,
    /// RNG seed governing base-vector generation, shuffling and
    /// regeneration.
    pub seed: u64,
    /// Samples per training mini-batch (at least 1).
    ///
    /// * `1` (the default) is the classic serial adaptive rule: every
    ///   sample is scored against the model its predecessors updated.
    /// * Larger sizes score every sample of a mini-batch against a frozen
    ///   snapshot of the class memory and apply the merged deltas once per
    ///   batch (OnlineHD-style): a little per-epoch freshness traded for a
    ///   `fit` that fans out across cores.
    ///
    /// Either way a fixed seed gives the same model at every thread count.
    pub batch_size: usize,
}

impl CyberHdConfig {
    /// Starts building a configuration for `input_features`-dimensional
    /// samples and `num_classes` classes.
    pub fn builder(input_features: usize, num_classes: usize) -> CyberHdConfigBuilder {
        CyberHdConfigBuilder::new(input_features, num_classes)
    }

    /// The configuration used by the paper's headline CyberHD results:
    /// physical dimensionality 512 ("0.5k"), 20% regeneration rate and 20
    /// retraining epochs.
    pub fn paper_default(input_features: usize, num_classes: usize) -> Result<Self> {
        Self::builder(input_features, num_classes)
            .dimension(512)
            .learning_rate(0.035)
            .retrain_epochs(20)
            .regeneration_rate(0.2)
            .build()
    }
}

/// Builder for [`CyberHdConfig`].
#[derive(Debug, Clone)]
pub struct CyberHdConfigBuilder {
    input_features: usize,
    num_classes: usize,
    dimension: usize,
    learning_rate: f32,
    retrain_epochs: usize,
    regeneration_rate: f32,
    /// Read by the detector builder, which picks its preprocessing by it.
    pub(crate) encoder: EncoderKind,
    rbf_sigma: f32,
    id_level_levels: usize,
    ngram_order: usize,
    symbol_alphabets: Vec<usize>,
    seed: u64,
    batch_size: usize,
}

impl CyberHdConfigBuilder {
    fn new(input_features: usize, num_classes: usize) -> Self {
        Self {
            input_features,
            num_classes,
            dimension: 512,
            learning_rate: 0.035,
            retrain_epochs: 10,
            regeneration_rate: 0.1,
            encoder: EncoderKind::Rbf,
            rbf_sigma: 1.0,
            id_level_levels: 32,
            ngram_order: 3,
            symbol_alphabets: Vec::new(),
            seed: 0x5EED,
            batch_size: 1,
        }
    }

    /// Sets the data shape — input width, class count and the symbolic
    /// encoders' alphabets — that the detector builder derives from its
    /// dataset.
    pub(crate) fn shape(
        mut self,
        input_features: usize,
        num_classes: usize,
        symbol_alphabets: Vec<usize>,
    ) -> Self {
        self.input_features = input_features;
        self.num_classes = num_classes;
        self.symbol_alphabets = symbol_alphabets;
        self
    }

    /// Sets the physical hypervector dimensionality `D`.
    pub fn dimension(mut self, dimension: usize) -> Self {
        self.dimension = dimension;
        self
    }

    /// Sets the learning rate `η` of the adaptive update.
    pub fn learning_rate(mut self, learning_rate: f32) -> Self {
        self.learning_rate = learning_rate;
        self
    }

    /// Sets the number of retraining epochs.
    pub fn retrain_epochs(mut self, retrain_epochs: usize) -> Self {
        self.retrain_epochs = retrain_epochs;
        self
    }

    /// Sets the regeneration rate `R` (fraction of dimensions dropped per
    /// retraining epoch). Zero disables regeneration.
    pub fn regeneration_rate(mut self, regeneration_rate: f32) -> Self {
        self.regeneration_rate = regeneration_rate;
        self
    }

    /// Selects the encoder.
    pub fn encoder(mut self, encoder: EncoderKind) -> Self {
        self.encoder = encoder;
        self
    }

    /// Sets the Gaussian bandwidth of the RBF encoder.
    pub fn rbf_sigma(mut self, rbf_sigma: f32) -> Self {
        self.rbf_sigma = rbf_sigma;
        self
    }

    /// Sets the number of quantization levels of the ID–level encoder
    /// (also the numeric-column level count of the symbol-record encoder).
    pub fn id_level_levels(mut self, id_level_levels: usize) -> Self {
        self.id_level_levels = id_level_levels;
        self
    }

    /// Sets the n-gram order of the [`EncoderKind::NGram`] encoder.
    pub fn ngram_order(mut self, ngram_order: usize) -> Self {
        self.ngram_order = ngram_order;
        self
    }

    /// Sets the per-column symbol alphabet sizes of the symbolic encoders
    /// (see [`CyberHdConfig::symbol_alphabets`]).
    pub fn symbol_alphabets(mut self, symbol_alphabets: Vec<usize>) -> Self {
        self.symbol_alphabets = symbol_alphabets;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the training mini-batch size (`1` = the serial adaptive rule;
    /// see [`CyberHdConfig::batch_size`]).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Validates the accumulated options and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidConfig`] when any option is outside its
    /// valid range (zero sizes, non-finite or non-positive learning rate,
    /// regeneration rate outside `[0, 1)`, regeneration requested with an
    /// encoder that cannot regenerate, …).
    pub fn build(self) -> Result<CyberHdConfig> {
        if self.input_features == 0 {
            return Err(CyberHdError::InvalidConfig("input_features must be non-zero".into()));
        }
        if self.num_classes < 2 {
            return Err(CyberHdError::InvalidConfig("num_classes must be at least 2".into()));
        }
        if self.dimension == 0 {
            return Err(CyberHdError::InvalidConfig("dimension must be non-zero".into()));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CyberHdError::InvalidConfig(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            )));
        }
        if !(0.0..1.0).contains(&self.regeneration_rate) || !self.regeneration_rate.is_finite() {
            return Err(CyberHdError::InvalidConfig(format!(
                "regeneration_rate must lie in [0, 1), got {}",
                self.regeneration_rate
            )));
        }
        if self.regeneration_rate > 0.0 && !self.encoder.supports_regeneration() {
            return Err(CyberHdError::InvalidConfig(format!(
                "encoder {:?} does not support dimension regeneration; \
                 use EncoderKind::Rbf or set regeneration_rate to 0",
                self.encoder
            )));
        }
        if !(self.rbf_sigma.is_finite() && self.rbf_sigma > 0.0) {
            return Err(CyberHdError::InvalidConfig(format!(
                "rbf_sigma must be positive and finite, got {}",
                self.rbf_sigma
            )));
        }
        if self.id_level_levels < 2 {
            return Err(CyberHdError::InvalidConfig("id_level_levels must be at least 2".into()));
        }
        if self.batch_size == 0 {
            return Err(CyberHdError::InvalidConfig(
                "training batch size must be at least 1".into(),
            ));
        }
        match self.encoder {
            EncoderKind::NGram => {
                if self.ngram_order == 0 || self.ngram_order > self.input_features {
                    return Err(CyberHdError::InvalidConfig(format!(
                        "ngram_order must lie in [1, {}] (the sequence length), got {}",
                        self.input_features, self.ngram_order
                    )));
                }
                if self.symbol_alphabets.len() != 1 || self.symbol_alphabets[0] < 2 {
                    return Err(CyberHdError::InvalidConfig(format!(
                        "the NGram encoder needs exactly one shared alphabet size of at \
                         least 2 in symbol_alphabets, got {:?}",
                        self.symbol_alphabets
                    )));
                }
            }
            EncoderKind::SymbolRecord if self.symbol_alphabets.len() != self.input_features => {
                return Err(CyberHdError::InvalidConfig(format!(
                    "the SymbolRecord encoder needs one alphabet size per input \
                     feature ({} entries), got {}",
                    self.input_features,
                    self.symbol_alphabets.len()
                )));
            }
            _ => {}
        }
        Ok(CyberHdConfig {
            input_features: self.input_features,
            num_classes: self.num_classes,
            dimension: self.dimension,
            learning_rate: self.learning_rate,
            retrain_epochs: self.retrain_epochs,
            regeneration_rate: self.regeneration_rate,
            encoder: self.encoder,
            rbf_sigma: self.rbf_sigma,
            id_level_levels: self.id_level_levels,
            ngram_order: self.ngram_order,
            symbol_alphabets: self.symbol_alphabets,
            seed: self.seed,
            batch_size: self.batch_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let config = CyberHdConfig::builder(41, 5).build().unwrap();
        assert_eq!(config.input_features, 41);
        assert_eq!(config.num_classes, 5);
        assert_eq!(config.dimension, 512);
        assert!(config.regeneration_rate > 0.0);
        assert_eq!(config.encoder, EncoderKind::Rbf);
    }

    #[test]
    fn paper_default_matches_headline_configuration() {
        let config = CyberHdConfig::paper_default(78, 7).unwrap();
        assert_eq!(config.dimension, 512);
        assert_eq!(config.retrain_epochs, 20);
        assert!((config.regeneration_rate - 0.2).abs() < 1e-6);
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        assert!(CyberHdConfig::builder(0, 2).build().is_err());
        assert!(CyberHdConfig::builder(4, 1).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).dimension(0).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).batch_size(0).build().is_err());
    }

    #[test]
    fn batch_size_knob_round_trips() {
        // Default is the serial adaptive rule.
        assert_eq!(CyberHdConfig::builder(4, 2).build().unwrap().batch_size, 1);
        let config = CyberHdConfig::builder(4, 2).batch_size(64).build().unwrap();
        assert_eq!(config.batch_size, 64);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(CyberHdConfig::builder(4, 2).learning_rate(0.0).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).learning_rate(f32::NAN).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).regeneration_rate(1.0).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).regeneration_rate(-0.1).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).rbf_sigma(-1.0).build().is_err());
        assert!(CyberHdConfig::builder(4, 2).id_level_levels(1).build().is_err());
    }

    #[test]
    fn static_encoders_cannot_regenerate() {
        let err = CyberHdConfig::builder(4, 2)
            .encoder(EncoderKind::IdLevel)
            .regeneration_rate(0.1)
            .build();
        assert!(matches!(err, Err(CyberHdError::InvalidConfig(_))));
        // …but they are fine with regeneration disabled.
        assert!(CyberHdConfig::builder(4, 2)
            .encoder(EncoderKind::Record)
            .regeneration_rate(0.0)
            .build()
            .is_ok());
        assert!(EncoderKind::Rbf.supports_regeneration());
        assert!(!EncoderKind::IdLevel.supports_regeneration());
        assert!(!EncoderKind::Record.supports_regeneration());
    }
}
