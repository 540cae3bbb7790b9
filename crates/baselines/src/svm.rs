//! Linear one-vs-rest SVM (the paper's "SVM" baseline).
//!
//! A multi-class linear SVM trained with stochastic sub-gradient descent on
//! the L2-regularized hinge loss (Pegasos-style step-size schedule).  One
//! binary separator is trained per class; prediction picks the class with the
//! highest margin.  Linear SVMs trained by SGD are the standard way to make
//! SVM baselines tractable on million-flow NIDS corpora — and their training
//! cost still scales with `epochs × samples × features`, which is exactly the
//! behaviour the paper's Fig. 4 relies on (SVM is the slowest model).

use crate::{validate_dataset_view, BaselineError, Classifier, Result};
use hdc::BatchView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the linear SVM baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Number of input features.
    pub input_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// L2 regularization strength `λ` (the Pegasos step size is `1/(λ·t)`).
    pub lambda: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl SvmConfig {
    /// Creates a configuration with 20 epochs and `λ = 1e-4`.
    pub fn new(input_features: usize, num_classes: usize) -> Self {
        Self { input_features, num_classes, epochs: 20, lambda: 1e-4, seed: 0x5EAF00D }
    }

    /// Sets the number of epochs (builder style).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the regularization strength (builder style).
    pub fn lambda(mut self, lambda: f32) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.input_features == 0 {
            return Err(BaselineError::InvalidConfig("input_features must be non-zero".into()));
        }
        if self.num_classes < 2 {
            return Err(BaselineError::InvalidConfig("num_classes must be at least 2".into()));
        }
        if self.epochs == 0 {
            return Err(BaselineError::InvalidConfig("epochs must be non-zero".into()));
        }
        if !(self.lambda.is_finite() && self.lambda > 0.0) {
            return Err(BaselineError::InvalidConfig(format!(
                "lambda must be positive, got {}",
                self.lambda
            )));
        }
        Ok(())
    }
}

/// One-vs-rest linear SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    config: SvmConfig,
    /// One weight vector per class, each of length `input_features`.
    weights: Vec<Vec<f32>>,
    /// One bias per class.
    biases: Vec<f32>,
    trained: bool,
}

impl LinearSvm {
    /// Creates an untrained SVM with zero weights.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: SvmConfig) -> Result<Self> {
        config.validate()?;
        let weights = vec![vec![0.0; config.input_features]; config.num_classes];
        let biases = vec![0.0; config.num_classes];
        Ok(Self { config, weights, biases, trained: false })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &SvmConfig {
        &self.config
    }

    /// Whether [`Classifier::fit_view`] has completed at least once.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Per-class decision values `w_k · x + b_k`.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidData`] if the feature arity is wrong.
    pub fn decision_values(&self, features: &[f32]) -> Result<Vec<f32>> {
        if features.len() != self.config.input_features {
            return Err(BaselineError::InvalidData(format!(
                "expected {} features, got {}",
                self.config.input_features,
                features.len()
            )));
        }
        Ok(self
            .weights
            .iter()
            .zip(&self.biases)
            .map(|(w, b)| w.iter().zip(features).map(|(wi, xi)| wi * xi).sum::<f32>() + b)
            .collect())
    }

    /// Shared access to the per-class weight vectors.
    pub fn weights(&self) -> &[Vec<f32>] {
        &self.weights
    }

    /// Mutable access to the per-class weight vectors (fault injection).
    pub fn weights_mut(&mut self) -> &mut [Vec<f32>] {
        &mut self.weights
    }
}

impl Classifier for LinearSvm {
    fn fit_view(&mut self, features: BatchView<'_>, labels: &[usize]) -> Result<()> {
        let config = self.config.clone();
        validate_dataset_view(features, labels, config.input_features, config.num_classes)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = features.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let lambda = config.lambda;
        let mut t = 0usize;

        for _epoch in 0..config.epochs {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &i in &order {
                t += 1;
                // Pegasos schedule, capped so the first steps (and the
                // unregularized bias) stay numerically sane for small λ.
                let eta = (1.0 / (lambda * t as f32)).min(1.0);
                let x = features.row(i);
                let y = labels[i];
                for class in 0..config.num_classes {
                    let target: f32 = if class == y { 1.0 } else { -1.0 };
                    let margin: f32 =
                        self.weights[class].iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>()
                            + self.biases[class];
                    let w = &mut self.weights[class];
                    // Pegasos: shrink, then step on violations.
                    let shrink = 1.0 - eta * lambda;
                    for wi in w.iter_mut() {
                        *wi *= shrink;
                    }
                    if target * margin < 1.0 {
                        for (wi, &xi) in w.iter_mut().zip(x) {
                            *wi += eta * target * xi;
                        }
                        self.biases[class] += eta * target;
                    }
                }
            }
        }
        self.trained = true;
        Ok(())
    }

    fn predict(&self, features: &[f32]) -> Result<usize> {
        let scores = self.decision_values(features)?;
        Ok(scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::BatchBuffer;

    /// One-vs-rest linear SVMs need every class to be linearly separable from
    /// the union of the others, so the test blobs use (noisy) one-hot class
    /// centres rather than collinear ones.
    fn blobs(classes: usize, per_class: usize, seed: u64) -> (BatchBuffer, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..classes {
            for _ in 0..per_class {
                xs.extend((0..4).map(|j| {
                    let center = if j == c % 4 { 2.0 } else { 0.0 };
                    center + rng.gen::<f32>() * 0.3
                }));
                ys.push(c);
            }
        }
        (BatchBuffer::from_data(xs, 4).unwrap(), ys)
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(LinearSvm::new(SvmConfig::new(0, 2)).is_err());
        assert!(LinearSvm::new(SvmConfig::new(3, 1)).is_err());
        assert!(LinearSvm::new(SvmConfig::new(3, 2).epochs(0)).is_err());
        assert!(LinearSvm::new(SvmConfig::new(3, 2).lambda(0.0)).is_err());
        assert!(LinearSvm::new(SvmConfig::new(3, 2)).is_ok());
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (xs, ys) = blobs(4, 50, 1);
        let mut svm = LinearSvm::new(SvmConfig::new(4, 4).epochs(30).seed(2)).unwrap();
        svm.fit_view(xs.view(), &ys).unwrap();
        assert!(svm.is_trained());
        let accuracy = svm.accuracy_view(xs.view(), &ys).unwrap();
        assert!(accuracy > 0.9, "accuracy {accuracy}");
    }

    #[test]
    fn decision_values_have_one_entry_per_class() {
        let svm = LinearSvm::new(SvmConfig::new(3, 5)).unwrap();
        let scores = svm.decision_values(&[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(scores.len(), 5);
        assert!(svm.decision_values(&[1.0]).is_err());
    }

    #[test]
    fn fit_validates_the_dataset() {
        let mut svm = LinearSvm::new(SvmConfig::new(3, 2)).unwrap();
        let view = |data: &'static [f32], width| BatchView::new(data, width).unwrap();
        assert!(svm.fit_view(view(&[], 3), &[]).is_err());
        assert!(svm.fit_view(view(&[0.0; 3], 3), &[0, 1]).is_err());
        assert!(svm.fit_view(view(&[0.0; 2], 2), &[0]).is_err());
        assert!(svm.fit_view(view(&[0.0; 3], 3), &[4]).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (xs, ys) = blobs(3, 30, 3);
        let train = |seed| {
            let mut svm = LinearSvm::new(SvmConfig::new(4, 3).epochs(10).seed(seed)).unwrap();
            svm.fit_view(xs.view(), &ys).unwrap();
            svm
        };
        assert_eq!(train(7), train(7));
        assert_ne!(train(7).weights(), train(8).weights());
    }

    #[test]
    fn weights_mut_allows_perturbation() {
        let (xs, ys) = blobs(2, 40, 5);
        let mut svm = LinearSvm::new(SvmConfig::new(4, 2).epochs(20).seed(6)).unwrap();
        svm.fit_view(xs.view(), &ys).unwrap();
        let clean = svm.accuracy_view(xs.view(), &ys).unwrap();
        for w in svm.weights_mut() {
            for v in w.iter_mut() {
                *v = -*v;
            }
        }
        let flipped = svm.accuracy_view(xs.view(), &ys).unwrap();
        assert!(flipped < clean, "sign-flipping every weight must hurt accuracy");
    }

    #[test]
    fn predict_batch_and_accuracy_helpers_work() {
        let (xs, ys) = blobs(2, 25, 9);
        let mut svm = LinearSvm::new(SvmConfig::new(4, 2).epochs(15).seed(10)).unwrap();
        svm.fit_view(xs.view(), &ys).unwrap();
        let predictions = svm.predict_batch_view(xs.view()).unwrap();
        assert_eq!(predictions.len(), xs.rows());
        assert!(svm.accuracy_view(xs.view(), &ys[..10]).is_err());
        assert!(svm.accuracy_view(BatchView::new(&[], 4).unwrap(), &[]).is_err());
    }
}
