//! Multilayer perceptron (the paper's "DNN" baseline).
//!
//! A standard fully connected network: ReLU hidden layers, a softmax /
//! cross-entropy head and mini-batch Adam.  The architecture defaults to two
//! hidden layers of 256 units, which is representative of the MLP-class
//! models the paper's reference 8 covers for tabular NIDS data.
//!
//! The trained weights are reachable through [`Mlp::layers_mut`] so the
//! fault-injection study (Fig. 5) can flip bits of the deployed model
//! in place.

use crate::matrix::Matrix;
use crate::{validate_dataset_view, BaselineError, Classifier, Result};
use hdc::BatchView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fully connected layer (`weights` is `inputs × outputs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Weight matrix, `inputs × outputs`.
    pub weights: Matrix,
    /// Bias vector, one entry per output unit.
    pub bias: Vec<f32>,
}

impl DenseLayer {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU networks.
        let scale = (2.0 / inputs as f64).sqrt();
        let weights = Matrix::from_fn(inputs, outputs, |_, _| {
            // Box–Muller standard normal.
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (z * scale) as f32
        });
        Self { weights, bias: vec![0.0; outputs] }
    }

    /// Number of trainable parameters in this layer.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// Configuration of the MLP baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Number of input features.
    pub input_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Hidden layer widths (empty = softmax regression).
    pub hidden_layers: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl MlpConfig {
    /// Creates a configuration with the default architecture (2 × 256 ReLU
    /// hidden layers, Adam at 1e-3, 30 epochs, batch size 64).
    pub fn new(input_features: usize, num_classes: usize) -> Self {
        Self {
            input_features,
            num_classes,
            hidden_layers: vec![256, 256],
            learning_rate: 1e-3,
            epochs: 30,
            batch_size: 64,
            weight_decay: 1e-5,
            seed: 0xD1CE,
        }
    }

    /// Sets the hidden layer widths (builder style).
    pub fn hidden_layers(mut self, hidden_layers: Vec<usize>) -> Self {
        self.hidden_layers = hidden_layers;
        self
    }

    /// Sets the number of epochs (builder style).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the learning rate (builder style).
    pub fn learning_rate(mut self, learning_rate: f32) -> Self {
        self.learning_rate = learning_rate;
        self
    }

    /// Sets the mini-batch size (builder style).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
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
        if self.hidden_layers.contains(&0) {
            return Err(BaselineError::InvalidConfig(
                "hidden layer widths must be non-zero".into(),
            ));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(BaselineError::InvalidConfig(format!(
                "learning_rate must be positive, got {}",
                self.learning_rate
            )));
        }
        if self.batch_size == 0 {
            return Err(BaselineError::InvalidConfig("batch_size must be non-zero".into()));
        }
        if !(self.weight_decay.is_finite() && self.weight_decay >= 0.0) {
            return Err(BaselineError::InvalidConfig(format!(
                "weight_decay must be non-negative, got {}",
                self.weight_decay
            )));
        }
        Ok(())
    }
}

/// Adam state for one parameter tensor.
#[derive(Debug, Clone)]
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamState {
    fn new(len: usize) -> Self {
        Self { m: vec![0.0; len], v: vec![0.0; len] }
    }

    fn update(&mut self, params: &mut [f32], grads: &[f32], lr: f32, step: usize) {
        const BETA1: f32 = 0.9;
        const BETA2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let t = step as i32;
        let bias1 = 1.0 - BETA1.powi(t);
        let bias2 = 1.0 - BETA2.powi(t);
        for ((p, &g), (m, v)) in
            params.iter_mut().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// The multilayer-perceptron baseline.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<DenseLayer>,
    adam_weights: Vec<AdamState>,
    adam_bias: Vec<AdamState>,
    step: usize,
    trained: bool,
}

impl Mlp {
    /// Creates an untrained MLP with randomly initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: MlpConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes = vec![config.input_features];
        sizes.extend_from_slice(&config.hidden_layers);
        sizes.push(config.num_classes);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for window in sizes.windows(2) {
            layers.push(DenseLayer::new(window[0], window[1], &mut rng));
        }
        let adam_weights = layers.iter().map(|l| AdamState::new(l.weights.len())).collect();
        let adam_bias = layers.iter().map(|l| AdamState::new(l.bias.len())).collect();
        Ok(Self { config, layers, adam_weights, adam_bias, step: 0, trained: false })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(DenseLayer::parameter_count).sum()
    }

    /// Shared access to the layers.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the fault injector).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Whether [`Classifier::fit_view`] has completed at least once.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Forward pass for a batch; returns pre-softmax activations of every
    /// layer (`activations[0]` is the input batch itself).
    fn forward(&self, batch: &Matrix) -> Result<Vec<Matrix>> {
        let mut activations = vec![batch.clone()];
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = activations.last().expect("non-empty").matmul(&layer.weights)?;
            for r in 0..z.rows() {
                for (value, bias) in z.row_mut(r).iter_mut().zip(&layer.bias) {
                    *value += bias;
                }
            }
            if i + 1 < self.layers.len() {
                z.map_in_place(|v| v.max(0.0));
            }
            activations.push(z);
        }
        Ok(activations)
    }

    /// Softmax over the rows of `logits`, in place.
    fn softmax_rows(logits: &mut Matrix) {
        for r in 0..logits.rows() {
            let row = logits.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// Class probabilities for one sample.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidData`] if the feature arity is wrong.
    pub fn predict_proba(&self, features: &[f32]) -> Result<Vec<f32>> {
        if features.len() != self.config.input_features {
            return Err(BaselineError::InvalidData(format!(
                "expected {} features, got {}",
                self.config.input_features,
                features.len()
            )));
        }
        let batch = Matrix::from_fn(1, features.len(), |_, c| features[c]);
        let mut logits = self.forward(&batch)?.pop().expect("at least the input activation");
        Self::softmax_rows(&mut logits);
        Ok(logits.row(0).to_vec())
    }
}

impl Classifier for Mlp {
    fn fit_view(&mut self, features: BatchView<'_>, labels: &[usize]) -> Result<()> {
        let config = self.config.clone();
        validate_dataset_view(features, labels, config.input_features, config.num_classes)?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x00C0_FFEE);
        let n = features.rows();
        let mut order: Vec<usize> = (0..n).collect();

        for _epoch in 0..config.epochs {
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(config.batch_size) {
                let batch = Matrix::from_fn(chunk.len(), features.width(), |r, c| {
                    features.row(chunk[r])[c]
                });
                let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                self.train_batch(&batch, &batch_labels)?;
            }
        }
        self.trained = true;
        Ok(())
    }

    fn predict(&self, features: &[f32]) -> Result<usize> {
        let probabilities = self.predict_proba(features)?;
        Ok(probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }
}

impl Mlp {
    /// One Adam step on a mini-batch.
    fn train_batch(&mut self, batch: &Matrix, labels: &[usize]) -> Result<()> {
        let activations = self.forward(batch)?;
        let batch_size = batch.rows() as f32;

        // Softmax + cross-entropy gradient at the output: p - one_hot(y).
        let mut delta = activations.last().expect("output activation").clone();
        Self::softmax_rows(&mut delta);
        for (r, &label) in labels.iter().enumerate() {
            let row = delta.row_mut(r);
            row[label] -= 1.0;
            for v in row.iter_mut() {
                *v /= batch_size;
            }
        }

        self.step += 1;
        // Backpropagate layer by layer (from last to first).
        for layer_index in (0..self.layers.len()).rev() {
            let input_activation = &activations[layer_index];
            // Gradients for this layer.
            let weight_grad = input_activation.transpose_matmul(&delta)?;
            let bias_grad = delta.column_sums();

            // Propagate delta to the previous layer before updating weights.
            let next_delta = if layer_index > 0 {
                let mut upstream = delta.matmul_transpose(&self.layers[layer_index].weights)?;
                // ReLU derivative of the previous activation.
                let previous = &activations[layer_index];
                for r in 0..upstream.rows() {
                    let act_row = previous.row(r).to_vec();
                    for (value, act) in upstream.row_mut(r).iter_mut().zip(act_row) {
                        if act <= 0.0 {
                            *value = 0.0;
                        }
                    }
                }
                Some(upstream)
            } else {
                None
            };

            // Weight decay.
            let mut weight_grad = weight_grad;
            if self.config.weight_decay > 0.0 {
                weight_grad.add_scaled_in_place(
                    &self.layers[layer_index].weights,
                    self.config.weight_decay,
                )?;
            }

            let layer = &mut self.layers[layer_index];
            self.adam_weights[layer_index].update(
                layer.weights.as_mut_slice(),
                weight_grad.as_slice(),
                self.config.learning_rate,
                self.step,
            );
            self.adam_bias[layer_index].update(
                &mut layer.bias,
                &bias_grad,
                self.config.learning_rate,
                self.step,
            );

            if let Some(d) = next_delta {
                delta = d;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::BatchBuffer;

    fn blobs(classes: usize, per_class: usize, seed: u64) -> (BatchBuffer, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..classes {
            for _ in 0..per_class {
                let base = c as f32;
                xs.extend([
                    base + rng.gen::<f32>() * 0.2,
                    1.0 - base * 0.5 + rng.gen::<f32>() * 0.2,
                    base * 0.3 + rng.gen::<f32>() * 0.2,
                ]);
                ys.push(c);
            }
        }
        (BatchBuffer::from_data(xs, 3).unwrap(), ys)
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(Mlp::new(MlpConfig::new(0, 2)).is_err());
        assert!(Mlp::new(MlpConfig::new(4, 1)).is_err());
        assert!(Mlp::new(MlpConfig::new(4, 2).hidden_layers(vec![0])).is_err());
        assert!(Mlp::new(MlpConfig::new(4, 2).learning_rate(0.0)).is_err());
        assert!(Mlp::new(MlpConfig::new(4, 2).batch_size(0)).is_err());
        assert!(Mlp::new(MlpConfig::new(4, 2)).is_ok());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mlp = Mlp::new(MlpConfig::new(10, 3).hidden_layers(vec![8])).unwrap();
        // 10*8 + 8 + 8*3 + 3
        assert_eq!(mlp.parameter_count(), 80 + 8 + 24 + 3);
        assert_eq!(mlp.layers().len(), 2);
        assert!(!mlp.is_trained());
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (xs, ys) = blobs(3, 60, 1);
        let config = MlpConfig::new(3, 3).hidden_layers(vec![32]).epochs(60).seed(2);
        let mut mlp = Mlp::new(config).unwrap();
        mlp.fit_view(xs.view(), &ys).unwrap();
        assert!(mlp.is_trained());
        let accuracy = mlp.accuracy_view(xs.view(), &ys).unwrap();
        assert!(accuracy > 0.95, "accuracy {accuracy}");
    }

    #[test]
    fn learns_xor_with_a_hidden_layer() {
        let data = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let xs = BatchView::new(&data, 2).unwrap();
        let ys = vec![0, 1, 1, 0];
        let config = MlpConfig::new(2, 2).hidden_layers(vec![16]).epochs(500).batch_size(4).seed(3);
        let mut mlp = Mlp::new(config).unwrap();
        mlp.fit_view(xs, &ys).unwrap();
        assert_eq!(mlp.predict_batch_view(xs).unwrap(), ys);
    }

    #[test]
    fn predict_proba_is_a_distribution() {
        let (xs, ys) = blobs(2, 30, 4);
        let config = MlpConfig::new(3, 2).hidden_layers(vec![8]).epochs(20).seed(5);
        let mut mlp = Mlp::new(config).unwrap();
        mlp.fit_view(xs.view(), &ys).unwrap();
        let p = mlp.predict_proba(xs.view().row(0)).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn prediction_validates_arity_and_fit_validates_data() {
        let mut mlp = Mlp::new(MlpConfig::new(3, 2)).unwrap();
        assert!(mlp.predict(&[1.0]).is_err());
        assert!(mlp.fit_view(BatchView::new(&[], 3).unwrap(), &[]).is_err());
        assert!(mlp.fit_view(BatchView::new(&[0.0; 3], 3).unwrap(), &[5]).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (xs, ys) = blobs(2, 20, 6);
        let make = || {
            let config = MlpConfig::new(3, 2).hidden_layers(vec![8]).epochs(5).seed(9);
            let mut mlp = Mlp::new(config).unwrap();
            mlp.fit_view(xs.view(), &ys).unwrap();
            mlp
        };
        let a = make();
        let b = make();
        assert_eq!(a.layers()[0].weights, b.layers()[0].weights);
    }

    #[test]
    fn layers_mut_exposes_weights_for_fault_injection() {
        let (xs, ys) = blobs(2, 30, 7);
        let config = MlpConfig::new(3, 2).hidden_layers(vec![8]).epochs(30).seed(11);
        let mut mlp = Mlp::new(config).unwrap();
        mlp.fit_view(xs.view(), &ys).unwrap();
        let clean = mlp.accuracy_view(xs.view(), &ys).unwrap();
        // Zero out the first layer entirely: accuracy should collapse.
        for layer in mlp.layers_mut().iter_mut().take(1) {
            layer.weights.map_in_place(|_| 0.0);
        }
        let corrupted = mlp.accuracy_view(xs.view(), &ys).unwrap();
        assert!(corrupted <= clean);
    }
}
