//! # `baselines` — the non-HDC comparison models
//!
//! Fig. 3 and Fig. 4 of the CyberHD paper compare against a state-of-the-art
//! DNN (a multilayer perceptron, per the paper's reference 8) and an SVM
//! (reference 9).  This crate implements both from scratch so the whole
//! evaluation is
//! self-contained:
//!
//! * [`matrix::Matrix`] — a small dense row-major matrix with the handful of
//!   BLAS-like kernels backpropagation needs,
//! * [`mlp::Mlp`] — a multilayer perceptron with ReLU hidden layers, a
//!   softmax/cross-entropy head and Adam optimization; its raw weights are
//!   accessible for the bit-flip robustness study (Fig. 5),
//! * [`svm::LinearSvm`] — a one-vs-rest linear SVM trained by SGD on the
//!   L2-regularized hinge loss.
//!
//! Both models share the [`Classifier`] trait so the experiment harnesses can
//! treat every baseline uniformly.
//!
//! # Example
//!
//! ```
//! use baselines::{Classifier, mlp::{Mlp, MlpConfig}};
//! use hdc::BatchView;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let features = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]; // four rows of two
//! let labels = vec![0, 1, 1, 0]; // XOR
//! let config = MlpConfig::new(2, 2).hidden_layers(vec![16]).epochs(400).seed(1);
//! let mut mlp = Mlp::new(config)?;
//! mlp.fit_view(BatchView::new(&features, 2)?, &labels)?;
//! assert_eq!(mlp.predict(&[0.0, 1.0])?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod mlp;
pub mod svm;

pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use svm::{LinearSvm, SvmConfig};

use std::error::Error;
use std::fmt;

/// Errors produced by the `baselines` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BaselineError {
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// Training or inference data was inconsistent with the model.
    InvalidData(String),
    /// A matrix operation was applied to incompatible shapes.
    ShapeMismatch(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            BaselineError::InvalidData(what) => write!(f, "invalid data: {what}"),
            BaselineError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
        }
    }
}

impl Error for BaselineError {}

/// Crate-local result alias.
pub type Result<T, E = BaselineError> = std::result::Result<T, E>;

/// A trainable multi-class classifier over dense feature vectors.
///
/// Implemented by [`mlp::Mlp`] and [`svm::LinearSvm`]; the experiment
/// harnesses use it to time training and inference uniformly across models.
/// Batches are zero-copy row-major [`hdc::BatchView`]s, the same contiguous
/// matrices the HDC engines consume.
pub trait Classifier {
    /// Trains the classifier on a row-major batch view and its labels.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidData`] for empty or inconsistent data.
    fn fit_view(&mut self, features: hdc::BatchView<'_>, labels: &[usize]) -> Result<()>;

    /// Predicts the class of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidData`] if the feature arity is wrong.
    fn predict(&self, features: &[f32]) -> Result<usize>;

    /// Predicts every row of a zero-copy row-major batch view.
    ///
    /// # Errors
    ///
    /// Returns the first prediction error encountered.
    fn predict_batch_view(&self, batch: hdc::BatchView<'_>) -> Result<Vec<usize>> {
        batch.iter_rows().map(|row| self.predict(row)).collect()
    }

    /// Accuracy against ground-truth labels over a zero-copy batch view.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidData`] for mismatched lengths.
    fn accuracy_view(&self, features: hdc::BatchView<'_>, labels: &[usize]) -> Result<f64> {
        if features.rows() != labels.len() {
            return Err(BaselineError::InvalidData(format!(
                "{} feature rows but {} labels",
                features.rows(),
                labels.len()
            )));
        }
        if features.is_empty() {
            return Err(BaselineError::InvalidData("cannot score zero samples".into()));
        }
        let predictions = self.predict_batch_view(features)?;
        let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len() as f64)
    }
}

/// Validates that a training batch is non-empty and consistent with its
/// labels and the model's shape.
pub(crate) fn validate_dataset_view(
    features: hdc::BatchView<'_>,
    labels: &[usize],
    input_features: usize,
    num_classes: usize,
) -> Result<()> {
    if features.is_empty() {
        return Err(BaselineError::InvalidData("training set is empty".into()));
    }
    if features.rows() != labels.len() {
        return Err(BaselineError::InvalidData(format!(
            "{} feature rows but {} labels",
            features.rows(),
            labels.len()
        )));
    }
    if features.width() != input_features {
        return Err(BaselineError::InvalidData(format!(
            "batch rows are {} features wide, expected {input_features}",
            features.width()
        )));
    }
    if let Some((i, &bad)) = labels.iter().enumerate().find(|&(_, &l)| l >= num_classes) {
        return Err(BaselineError::InvalidData(format!(
            "sample {i} has label {bad}, but the model expects {num_classes} classes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(BaselineError::InvalidConfig("x".into()).to_string().contains("configuration"));
        assert!(BaselineError::InvalidData("y".into()).to_string().contains("data"));
        assert!(BaselineError::ShapeMismatch("z".into()).to_string().contains("shape"));
    }

    #[test]
    fn dataset_validation_catches_problems() {
        let data = [0.0, 1.0, 1.0, 0.0];
        let xs = hdc::BatchView::new(&data, 2).unwrap();
        let ys = vec![0, 1];
        let empty = hdc::BatchView::new(&[], 2).unwrap();
        assert!(validate_dataset_view(xs, &ys, 2, 2).is_ok());
        assert!(validate_dataset_view(empty, &[], 2, 2).is_err());
        assert!(validate_dataset_view(xs, &ys[..1], 2, 2).is_err());
        assert!(validate_dataset_view(xs, &ys, 3, 2).is_err());
        assert!(validate_dataset_view(xs, &[0, 9], 2, 2).is_err());
    }
}
