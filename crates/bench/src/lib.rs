//! # `bench` — experiment harness for every table and figure of the paper
//!
//! Each binary in `src/bin` regenerates one result of the CyberHD paper on
//! the synthetic dataset stand-ins:
//!
//! | target | paper result | what it prints |
//! |--------|--------------|----------------|
//! | `fig3` | Fig. 3 (accuracy) | accuracy of DNN, SVM, baselineHD (0.5k and 4k) and CyberHD on all four datasets |
//! | `fig4` | Fig. 4 (efficiency) | training time and inference latency of DNN, SVM, baselineHD (4k) and CyberHD (0.5k) |
//! | `table1` | Table I (bitwidth) | accuracy-matched effective dimensionality per bitwidth plus modelled CPU/FPGA energy efficiency |
//! | `fig5` | Fig. 5 (robustness) | accuracy loss of the DNN and of CyberHD (1/2/4/8-bit) under random bit flips |
//! | `ablation` | (supporting) | regeneration-rate sweep and variance-guided vs. random dimension dropping |
//!
//! The library part of the crate holds the shared plumbing: dataset
//! preparation (generate → split → preprocess) and uniformly timed
//! train/evaluate wrappers for every model, plus the seeded harnesses the
//! integration suites share ([`crash`], [`scenario`], [`zipf`]).
//! Experiment scale is controlled by [`ExperimentScale`] so the default
//! `cargo run -p bench --bin figN --release` finishes in minutes on a
//! laptop; set `CYBERHD_SCALE=paper` for larger corpora.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod scenario;
pub mod zipf;

use baselines::mlp::{Mlp, MlpConfig};
use baselines::svm::{LinearSvm, SvmConfig};
use baselines::Classifier;
use cyberhd::{CyberHdConfig, CyberHdModel, CyberHdTrainer};
use eval::timing::ThroughputReport;
use hdc::BatchBuffer;
use nids_data::preprocess::{Normalization, Preprocessor};
use nids_data::split::train_test_split;
use nids_data::synth::SyntheticConfig;
use nids_data::DatasetKind;

/// How large the experiment corpora are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// A few thousand flows per dataset — finishes in minutes, shapes hold.
    Quick,
    /// Tens of thousands of flows per dataset — closer to the paper's
    /// relative numbers, correspondingly slower.
    Paper,
}

impl ExperimentScale {
    /// Reads the scale from the `CYBERHD_SCALE` environment variable
    /// (`quick` default, `paper` for the large runs).
    pub fn from_env() -> Self {
        match std::env::var("CYBERHD_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") | Ok("full") => ExperimentScale::Paper,
            _ => ExperimentScale::Quick,
        }
    }

    /// Number of synthetic flows generated per dataset.
    pub fn samples(self) -> usize {
        match self {
            ExperimentScale::Quick => 6_000,
            ExperimentScale::Paper => 40_000,
        }
    }

    /// Retraining epochs used by the HDC models.
    pub fn hdc_epochs(self) -> usize {
        match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Paper => 20,
        }
    }

    /// Training epochs used by the MLP baseline.
    pub fn mlp_epochs(self) -> usize {
        match self {
            ExperimentScale::Quick => 15,
            ExperimentScale::Paper => 30,
        }
    }

    /// Training epochs used by the SVM baseline.
    pub fn svm_epochs(self) -> usize {
        match self {
            ExperimentScale::Quick => 15,
            ExperimentScale::Paper => 30,
        }
    }
}

/// The paper's headline hyper-parameters.
pub mod paper {
    /// CyberHD physical dimensionality ("D = 0.5k").
    pub const CYBERHD_DIMENSION: usize = 512;
    /// BaselineHD effective dimensionality ("D* = 4k").
    pub const BASELINE_LARGE_DIMENSION: usize = 4096;
    /// CyberHD regeneration rate per retraining epoch.
    pub const REGENERATION_RATE: f32 = 0.2;
    /// Bit-flip rates of the robustness study (Fig. 5).
    pub const ERROR_RATES: [f64; 5] = [0.01, 0.02, 0.05, 0.10, 0.15];
    /// Bitwidths of Table I, in paper column order.
    pub const BITWIDTHS: [u32; 6] = [32, 16, 8, 4, 2, 1];
}

/// A dataset that has been generated, split and preprocessed into the
/// row-major feature matrices every classifier consumes.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// Dataset display name (as used in the paper's figures).
    pub name: String,
    /// Training features, one row per flow.
    pub train_x: BatchBuffer,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test features, one row per flow.
    pub test_x: BatchBuffer,
    /// Test labels.
    pub test_y: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Width of the dense feature vectors.
    pub input_width: usize,
}

/// Generates, splits (75/25) and min–max preprocesses one dataset.
///
/// # Errors
///
/// Propagates generation/preprocessing errors as a boxed error so the
/// experiment binaries can simply `?` them from `main`.
pub fn prepare_dataset(
    kind: DatasetKind,
    samples: usize,
    seed: u64,
) -> Result<PreparedData, Box<dyn std::error::Error>> {
    // difficulty > 1 widens the class-conditional distributions so the
    // synthetic stand-ins are not trivially separable; 2.4 puts the models in
    // the low/mid-90s accuracy band where dimensionality and encoder quality
    // matter, which is the regime the paper's comparisons live in.
    let dataset =
        kind.generate(&SyntheticConfig::new(samples, seed).difficulty(2.4).label_noise(0.01))?;
    let (train, test) = train_test_split(&dataset, 0.25, seed ^ 0x51EE7)?;
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax)?;
    let input_width = preprocessor.output_width();
    let train_x = BatchBuffer::from_data(preprocessor.transform_matrix(&train)?, input_width)?;
    let test_x = BatchBuffer::from_data(preprocessor.transform_matrix(&test)?, input_width)?;
    Ok(PreparedData {
        name: kind.name().to_string(),
        train_x,
        train_y: train.labels().to_vec(),
        test_x,
        test_y: test.labels().to_vec(),
        num_classes: dataset.num_classes(),
        input_width,
    })
}

/// Reads a `usize` scale knob from the environment, falling back to
/// `default` on absent or unparseable values — the shared convention of
/// every `CYBERHD_*` bench knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Accuracy plus timed training/inference of one model on one dataset.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Model display name.
    pub model: String,
    /// Test-set accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Training wall-clock / sample count.
    pub training: ThroughputReport,
    /// Inference wall-clock / sample count on the test split.
    pub inference: ThroughputReport,
}

/// Builds the CyberHD configuration used throughout the experiments.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn cyberhd_config(
    data: &PreparedData,
    dimension: usize,
    regeneration_rate: f32,
    epochs: usize,
    seed: u64,
) -> Result<CyberHdConfig, cyberhd::CyberHdError> {
    CyberHdConfig::builder(data.input_width, data.num_classes)
        .dimension(dimension)
        .retrain_epochs(epochs)
        .regeneration_rate(regeneration_rate)
        .learning_rate(0.05)
        .seed(seed)
        .build()
}

/// Trains and evaluates CyberHD (or, with `regeneration_rate == 0`, the
/// baselineHD configuration) and returns the run plus the trained model.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run_cyberhd(
    data: &PreparedData,
    dimension: usize,
    regeneration_rate: f32,
    epochs: usize,
    label: &str,
    seed: u64,
) -> Result<(ModelRun, CyberHdModel), Box<dyn std::error::Error>> {
    let config = cyberhd_config(data, dimension, regeneration_rate, epochs, seed)?;
    let trainer = CyberHdTrainer::new(config)?;
    let (model, training) = ThroughputReport::measure(data.train_x.rows(), || {
        trainer.fit_view(data.train_x.view(), &data.train_y)
    });
    let model = model?;
    let (predictions, inference) = ThroughputReport::measure(data.test_x.rows(), || {
        model.predict_batch_view(data.test_x.view())
    });
    let predictions = predictions?;
    let accuracy = eval::metrics::accuracy(&predictions, &data.test_y)?;
    Ok((ModelRun { model: label.to_string(), accuracy, training, inference }, model))
}

/// Trains and evaluates the MLP (DNN) baseline, returning the run and model.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run_mlp(
    data: &PreparedData,
    epochs: usize,
    seed: u64,
) -> Result<(ModelRun, Mlp), Box<dyn std::error::Error>> {
    let config = MlpConfig::new(data.input_width, data.num_classes)
        .hidden_layers(vec![256, 256])
        .epochs(epochs)
        .seed(seed);
    let mut mlp = Mlp::new(config)?;
    let (fit, training) = ThroughputReport::measure(data.train_x.rows(), || {
        mlp.fit_view(data.train_x.view(), &data.train_y)
    });
    fit?;
    let (predictions, inference) = ThroughputReport::measure(data.test_x.rows(), || {
        mlp.predict_batch_view(data.test_x.view())
    });
    let predictions = predictions?;
    let accuracy = eval::metrics::accuracy(&predictions, &data.test_y)?;
    Ok((ModelRun { model: "DNN (MLP 2x256)".to_string(), accuracy, training, inference }, mlp))
}

/// Trains and evaluates the linear SVM baseline, returning the run and model.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run_svm(
    data: &PreparedData,
    epochs: usize,
    seed: u64,
) -> Result<(ModelRun, LinearSvm), Box<dyn std::error::Error>> {
    let config = SvmConfig::new(data.input_width, data.num_classes).epochs(epochs).seed(seed);
    let mut svm = LinearSvm::new(config)?;
    let (fit, training) = ThroughputReport::measure(data.train_x.rows(), || {
        svm.fit_view(data.train_x.view(), &data.train_y)
    });
    fit?;
    let (predictions, inference) = ThroughputReport::measure(data.test_x.rows(), || {
        svm.predict_batch_view(data.test_x.view())
    });
    let predictions = predictions?;
    let accuracy = eval::metrics::accuracy(&predictions, &data.test_y)?;
    Ok((ModelRun { model: "SVM (linear, OvR)".to_string(), accuracy, training, inference }, svm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_from_env_convention() {
        // Default (unset or unknown) is Quick.
        assert_eq!(ExperimentScale::Quick.samples(), 6_000);
        assert!(ExperimentScale::Paper.samples() > ExperimentScale::Quick.samples());
        assert!(ExperimentScale::Paper.hdc_epochs() >= ExperimentScale::Quick.hdc_epochs());
        assert!(ExperimentScale::Paper.mlp_epochs() >= ExperimentScale::Quick.mlp_epochs());
        assert!(ExperimentScale::Paper.svm_epochs() >= ExperimentScale::Quick.svm_epochs());
    }

    #[test]
    fn prepare_dataset_produces_consistent_splits() {
        let data = prepare_dataset(DatasetKind::NslKdd, 1200, 7).unwrap();
        assert_eq!(data.name, "NSL-KDD");
        assert_eq!(data.train_x.rows(), data.train_y.len());
        assert_eq!(data.test_x.rows(), data.test_y.len());
        assert_eq!(data.train_x.rows() + data.test_x.rows(), 1200);
        assert_eq!(data.train_x.width(), data.input_width);
        assert_eq!(data.num_classes, 5);
        // Min-max preprocessing keeps features in [0, 1].
        assert!(data.train_x.view().data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn small_end_to_end_runs_produce_sane_model_runs() {
        let data = prepare_dataset(DatasetKind::NslKdd, 900, 3).unwrap();
        let (cyber, model) = run_cyberhd(&data, 128, 0.2, 3, "CyberHD", 1).unwrap();
        assert!(cyber.accuracy > 0.5, "CyberHD accuracy {}", cyber.accuracy);
        assert!(model.effective_dimension() >= 128);
        assert!(cyber.training.seconds > 0.0);
        assert!(cyber.inference.seconds > 0.0);

        let (baseline, _) = run_cyberhd(&data, 128, 0.0, 3, "BaselineHD", 1).unwrap();
        assert!(baseline.accuracy > 0.4);

        let (svm, _) = run_svm(&data, 5, 1).unwrap();
        assert!(svm.accuracy > 0.4);

        let (mlp, _) = run_mlp(&data, 3, 1).unwrap();
        assert!(mlp.accuracy > 0.4);
    }
}
