//! # `cyberhd` — dynamic hyperdimensional learning for intrusion detection
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Late Breaking Results: Scalable and Efficient Hyperdimensional Computing
//! for Network Intrusion Detection"* (DAC 2023).  CyberHD is an HDC
//! classifier that reaches the accuracy of a much larger static HDC model at
//! a fraction of the physical dimensionality by **identifying and
//! regenerating insignificant dimensions** during retraining:
//!
//! 1. encode feature vectors with an RBF (random-Fourier-feature) encoder
//!    ([`hdc::RbfEncoder`]),
//! 2. train class hypervectors with **adaptive, similarity-weighted updates**
//!    ([`trainer`]),
//! 3. normalize the model, compute the **per-dimension variance across
//!    classes**, and drop the `R%` of dimensions with the lowest variance
//!    ([`regeneration`]),
//! 4. **regenerate** the dropped dimensions' encoder base vectors from a
//!    fresh Gaussian draw and retrain ([`trainer::CyberHdTrainer`]),
//! 5. optionally quantize the final model to 1–32-bit elements for
//!    deployment ([`quantized`]).
//!
//! The paper's HDC baseline ("baselineHD": static encoder, adaptive
//! retraining only) is the same trainer with `regeneration_rate` set to
//! zero.  The crate also ships a single-pass online learner
//! ([`online::OnlineLearner`]) for streaming edge deployments.
//!
//! # Quick start
//!
//! ```
//! use cyberhd::{CyberHdConfig, CyberHdTrainer};
//! use hdc::BatchView;
//!
//! # fn main() -> Result<(), cyberhd::CyberHdError> {
//! // A toy two-class problem: class 0 near the origin, class 1 offset.
//! // Features are one row-major matrix, 3 values per sample.
//! let mut features = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..60 {
//!     let t = (i % 30) as f32 / 30.0;
//!     if i < 30 {
//!         features.extend_from_slice(&[t * 0.1, 0.1 - t * 0.1, 0.0]);
//!         labels.push(0);
//!     } else {
//!         features.extend_from_slice(&[1.0 + t * 0.1, 1.0, 0.9]);
//!         labels.push(1);
//!     }
//! }
//!
//! let config = CyberHdConfig::builder(3, 2)
//!     .dimension(256)
//!     .retrain_epochs(4)
//!     .regeneration_rate(0.1)
//!     .seed(7)
//!     .build()?;
//! let model = CyberHdTrainer::new(config)?.fit_view(BatchView::new(&features, 3)?, &labels)?;
//! assert_eq!(model.predict(&[0.05, 0.05, 0.0])?, 0);
//! assert_eq!(model.predict(&[1.05, 1.0, 0.9])?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detector;
pub mod durable;
pub(crate) mod inference;
pub mod model;
pub mod online;
pub mod openset;
pub mod quantized;
pub mod regeneration;
pub mod serve;
pub mod trainer;

pub use config::{CyberHdConfig, CyberHdConfigBuilder, EncoderKind};
pub use detector::{Detector, DetectorBuilder, DetectorInfo, OnlineDetector, Verdict};
pub use durable::{DurableConfig, DurableLane, RecoveryReport};
pub use model::{CyberHdModel, TrainingReport};
pub use online::OnlineLearner;
pub use openset::{OpenSetDetector, OpenSetPrediction};
pub use quantized::QuantizedModel;
pub use regeneration::{
    select_lowest_variance, DriftMonitor, DriftMonitorConfig, RegenerationPlan, RegenerationStats,
};
pub use serve::admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, Priority, TenantQuota,
};
pub use serve::shard::{FlusherStats, ShardConfig, ShardedServeEngine};
pub use serve::{
    AdaptiveConfig, AdaptiveLane, AdaptiveStats, DetectorRegistry, ServeConfig, ServeEngine,
    ServeError, ServeStats, Ticket,
};
pub use trainer::CyberHdTrainer;

use std::error::Error;
use std::fmt;

/// Errors produced by the `cyberhd` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CyberHdError {
    /// An invalid configuration value was supplied.
    InvalidConfig(String),
    /// Training data was empty or inconsistent (feature/label length
    /// mismatch, wrong feature arity, label out of range).
    InvalidData(String),
    /// An error bubbled up from the HDC substrate.
    Hdc(hdc::HdcError),
    /// An error bubbled up from the evaluation utilities.
    Eval(eval::EvalError),
    /// An error bubbled up from the dataset / preprocessing layer.
    Data(nids_data::DataError),
    /// A detector artifact could not be saved or loaded (I/O failure,
    /// wrong magic/version, corrupted payload).
    Persist(String),
    /// Open-set calibration saw zero samples for this class, so no
    /// threshold can be derived for it.  (A silent `0.0` threshold would
    /// accept nearly everything as in-distribution for that class.)
    UncalibratedClass(usize),
}

impl fmt::Display for CyberHdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CyberHdError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            CyberHdError::InvalidData(what) => write!(f, "invalid training data: {what}"),
            CyberHdError::Hdc(e) => write!(f, "hdc error: {e}"),
            CyberHdError::Eval(e) => write!(f, "evaluation error: {e}"),
            CyberHdError::Data(e) => write!(f, "data error: {e}"),
            CyberHdError::Persist(what) => write!(f, "persistence error: {what}"),
            CyberHdError::UncalibratedClass(class) => write!(
                f,
                "open-set calibration: class {class} has no calibration samples \
                 (a silent 0.0 threshold would never reject)"
            ),
        }
    }
}

impl Error for CyberHdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CyberHdError::Hdc(e) => Some(e),
            CyberHdError::Eval(e) => Some(e),
            CyberHdError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hdc::HdcError> for CyberHdError {
    fn from(e: hdc::HdcError) -> Self {
        CyberHdError::Hdc(e)
    }
}

impl From<eval::EvalError> for CyberHdError {
    fn from(e: eval::EvalError) -> Self {
        CyberHdError::Eval(e)
    }
}

impl From<nids_data::DataError> for CyberHdError {
    fn from(e: nids_data::DataError) -> Self {
        CyberHdError::Data(e)
    }
}

impl From<hdc::codec::CodecError> for CyberHdError {
    fn from(e: hdc::codec::CodecError) -> Self {
        CyberHdError::Persist(e.to_string())
    }
}

/// Crate-local result alias.
pub type Result<T, E = CyberHdError> = std::result::Result<T, E>;

/// Validates that `features` and `labels` describe a consistent training
/// set for `input_features`-wide rows and `num_classes` classes.  A view
/// cannot be ragged, so the arity check is one width comparison.
///
/// # Errors
///
/// Returns [`CyberHdError::InvalidData`] describing the first inconsistency
/// found.
pub(crate) fn validate_dataset_view(
    features: hdc::BatchView<'_>,
    labels: &[usize],
    input_features: usize,
    num_classes: usize,
) -> Result<()> {
    if features.is_empty() {
        return Err(CyberHdError::InvalidData("training set is empty".into()));
    }
    if features.rows() != labels.len() {
        return Err(CyberHdError::InvalidData(format!(
            "{} feature rows but {} labels",
            features.rows(),
            labels.len()
        )));
    }
    if features.width() != input_features {
        return Err(CyberHdError::InvalidData(format!(
            "batch rows are {} features wide, expected {input_features}",
            features.width()
        )));
    }
    if let Some((i, &bad)) = labels.iter().enumerate().find(|&(_, &l)| l >= num_classes) {
        return Err(CyberHdError::InvalidData(format!(
            "sample {i} has label {bad}, but the model was configured for {num_classes} classes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_convert_and_display() {
        let e: CyberHdError = hdc::HdcError::InvalidArgument("x".into()).into();
        assert!(e.to_string().contains("hdc error"));
        assert!(e.source().is_some());
        let e: CyberHdError = eval::EvalError::InvalidArgument("y".into()).into();
        assert!(e.to_string().contains("evaluation error"));
        let e = CyberHdError::InvalidConfig("dim".into());
        assert!(e.to_string().contains("invalid configuration"));
        assert!(e.source().is_none());
    }

    #[test]
    fn dataset_validation_catches_inconsistencies() {
        let data = [0.0, 1.0, 1.0, 0.0];
        let ok_features = hdc::BatchView::new(&data, 2).unwrap();
        let ok_labels = vec![0, 1];
        assert!(validate_dataset_view(ok_features, &ok_labels, 2, 2).is_ok());

        let empty = hdc::BatchView::new(&[], 2).unwrap();
        assert!(validate_dataset_view(empty, &[], 2, 2).is_err());
        assert!(validate_dataset_view(ok_features, &[0], 2, 2).is_err());
        assert!(validate_dataset_view(ok_features, &ok_labels, 3, 2).is_err());
        assert!(validate_dataset_view(ok_features, &[0, 5], 2, 2).is_err());
    }
}
