//! The paper's HDC baseline: a static encoder with no dimension
//! regeneration.
//!
//! Fig. 3 and Fig. 4 of the paper compare CyberHD against "baselineHD", a
//! state-of-the-art HDC classifier whose encoder is generated once and never
//! adapted.  The baseline still uses adaptive (similarity-weighted)
//! retraining — the *only* difference from CyberHD is the missing
//! variance-driven dimension regeneration, so any accuracy gap between the
//! two isolates the contribution of the dynamic encoding.
//!
//! [`BaselineHd`] is a thin wrapper around [`crate::CyberHdTrainer`] that
//! forces `regeneration_rate = 0`; the paper evaluates it at the same
//! physical dimensionality as CyberHD (0.5k) and at CyberHD's effective
//! dimensionality (4k).

use crate::config::{CyberHdConfig, EncoderKind};
use crate::model::CyberHdModel;
use crate::trainer::CyberHdTrainer;
use crate::Result;

/// A trained baseline model is structurally identical to a CyberHD model —
/// only the training procedure differs.
pub type BaselineHdModel = CyberHdModel;

/// Trainer for the static-encoder HDC baseline.
///
/// # Example
///
/// ```
/// use cyberhd::BaselineHd;
///
/// # fn main() -> Result<(), cyberhd::CyberHdError> {
/// let features = vec![vec![0.0, 0.1], vec![0.9, 1.0], vec![0.05, 0.0], vec![1.0, 0.95]];
/// let labels = vec![0, 1, 0, 1];
/// let model = BaselineHd::new(2, 2, 256, 42)?
///     .retrain_epochs(5)
///     .fit(&features, &labels)?;
/// assert_eq!(model.predict(&[0.02, 0.04])?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BaselineHd {
    config: CyberHdConfig,
}

impl BaselineHd {
    /// Creates a baseline trainer with dimensionality `dimension`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CyberHdError::InvalidConfig`] for invalid sizes.
    pub fn new(
        input_features: usize,
        num_classes: usize,
        dimension: usize,
        seed: u64,
    ) -> Result<Self> {
        let config = CyberHdConfig::builder(input_features, num_classes)
            .dimension(dimension)
            .regeneration_rate(0.0)
            .retrain_epochs(20)
            .seed(seed)
            .build()?;
        Ok(Self { config })
    }

    /// Creates a baseline trainer from an existing configuration, forcing the
    /// regeneration rate to zero and keeping every other field.
    ///
    /// # Errors
    ///
    /// Currently infallible: a valid configuration stays valid with
    /// regeneration off.  Kept fallible so the signature survives future
    /// cross-field checks.
    pub fn from_config(mut config: CyberHdConfig) -> Result<Self> {
        config.regeneration_rate = 0.0;
        Ok(Self { config })
    }

    /// Sets the number of retraining epochs (builder style).
    pub fn retrain_epochs(mut self, epochs: usize) -> Self {
        self.config.retrain_epochs = epochs;
        self
    }

    /// Sets the learning rate (builder style).
    pub fn learning_rate(mut self, learning_rate: f32) -> Self {
        self.config.learning_rate = learning_rate;
        self
    }

    /// Selects the (static) encoder used by the baseline.
    pub fn encoder(mut self, encoder: EncoderKind) -> Self {
        self.config.encoder = encoder;
        self
    }

    /// The effective configuration (always has `regeneration_rate == 0`).
    pub fn config(&self) -> &CyberHdConfig {
        &self.config
    }

    /// Trains the baseline on `features` / `labels`.
    ///
    /// # Errors
    ///
    /// Same as [`CyberHdTrainer::fit`].
    pub fn fit(&self, features: &[Vec<f32>], labels: &[usize]) -> Result<BaselineHdModel> {
        CyberHdTrainer::new(self.config.clone())?.fit(features, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::HdcRng;

    fn blobs(seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = HdcRng::seed_from(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..3usize {
            for _ in 0..30 {
                let center = c as f64;
                xs.push(vec![
                    (center + rng.normal(0.0, 0.1)) as f32,
                    (1.0 - center * 0.5 + rng.normal(0.0, 0.1)) as f32,
                    (center * 0.25 + rng.normal(0.0, 0.1)) as f32,
                ]);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn baseline_never_regenerates() {
        let (xs, ys) = blobs(1);
        let model = BaselineHd::new(3, 3, 128, 7).unwrap().retrain_epochs(4).fit(&xs, &ys).unwrap();
        assert_eq!(model.report().regeneration.rounds, 0);
        assert_eq!(model.effective_dimension(), 128);
        assert!(model.accuracy(&xs, &ys).unwrap() > 0.9);
    }

    #[test]
    fn from_config_forces_zero_regeneration() {
        let config =
            CyberHdConfig::builder(3, 3).dimension(64).regeneration_rate(0.3).build().unwrap();
        let baseline = BaselineHd::from_config(config).unwrap();
        assert_eq!(baseline.config().regeneration_rate, 0.0);
        assert_eq!(baseline.config().dimension, 64);
    }

    #[test]
    fn from_config_keeps_every_other_field() {
        let config = CyberHdConfig::builder(8, 3)
            .encoder(EncoderKind::NGram)
            .ngram_order(3)
            .symbol_alphabets(vec![27])
            .batch_size(32)
            .dimension(64)
            .regeneration_rate(0.0)
            .build()
            .unwrap();
        let baseline = BaselineHd::from_config(config.clone()).unwrap();
        // The mini-batch shape and the n-gram fields survive.
        assert_eq!(baseline.config(), &config);
    }

    #[test]
    fn builder_style_setters_apply() {
        let baseline = BaselineHd::new(3, 2, 32, 0)
            .unwrap()
            .retrain_epochs(2)
            .learning_rate(0.1)
            .encoder(EncoderKind::Record);
        assert_eq!(baseline.config().retrain_epochs, 2);
        assert!((baseline.config().learning_rate - 0.1).abs() < 1e-9);
        assert_eq!(baseline.config().encoder, EncoderKind::Record);
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        assert!(BaselineHd::new(0, 2, 64, 0).is_err());
        assert!(BaselineHd::new(3, 1, 64, 0).is_err());
        assert!(BaselineHd::new(3, 2, 0, 0).is_err());
    }
}
