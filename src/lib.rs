//! # `cyberhd-suite` — facade crate for the CyberHD reproduction
//!
//! This crate re-exports every sub-crate of the workspace under one roof so
//! the runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`) have a single dependency, and so downstream users can depend on
//! one crate and pick the pieces they need:
//!
//! * [`hdc`] — hypervector algebra, encoders, quantization, associative
//!   memory,
//! * [`cyberhd`] — the CyberHD learner (adaptive training + dimension
//!   regeneration; with regeneration off, the static baselineHD), the
//!   streaming learner, the sealed `Detector` artifact and the
//!   `cyberhd::serve` micro-batching serving engine (multi-tenant registry,
//!   hot-swap, tickets, and the sharded many-tenant engine with
//!   deadline-sleeping flushers and admission control),
//! * [`nids_data`] — NSL-KDD / UNSW-NB15 / CIC-IDS-2017 / CIC-IDS-2018
//!   schemas, synthetic traffic generators, CSV loaders, preprocessing and
//!   splitting,
//! * [`baselines`] — the MLP (DNN) and linear SVM comparison models,
//! * [`eval`] — metrics, timing and report tables,
//! * [`hw_model`] — first-order CPU/FPGA energy models (Table I),
//! * [`fault_inject`] — bit-flip fault injection (Fig. 5).
//!
//! See the repository `README.md` for the quick start and the repository's
//! `EXPERIMENTS.md` for the map from every paper table and figure to the
//! bench binary or test suite that reproduces it.
//!
//! # Example
//!
//! The one-object deployment path: a sealed [`cyberhd::Detector`] takes a
//! raw [`nids_data::Dataset`], trains end to end, and serves raw records.
//!
//! ```
//! use cyberhd_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small NSL-KDD-shaped corpus and split it.
//! let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(800, 1))?;
//! let (train, test) = train_test_split(&dataset, 0.25, 1)?;
//!
//! // Train once, seal the artifact, serve raw flows.
//! let detector = Detector::builder().dimension(256).retrain_epochs(3).seed(7).train(&train)?;
//! let verdict = detector.detect(test.records()[0].as_slice())?;
//! assert!(verdict.class < dataset.num_classes());
//! assert!(detector.accuracy(&test)? > 0.5);
//!
//! // Ship it: a saved artifact reproduces predictions bit for bit.
//! let loaded = Detector::from_bytes(&detector.to_bytes())?;
//! assert_eq!(loaded.detect(test.records()[0].as_slice())?, verdict);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use cyberhd;
pub use eval;
pub use fault_inject;
pub use hdc;
pub use hw_model;
pub use nids_data;

/// The most commonly used items from every sub-crate, importable in one line.
pub mod prelude {
    pub use baselines::mlp::{Mlp, MlpConfig};
    pub use baselines::svm::{LinearSvm, SvmConfig};
    pub use baselines::Classifier;
    pub use cyberhd::{
        AdaptiveConfig, AdaptiveLane, AdaptiveStats, AdmissionConfig, AdmissionController,
        AdmissionStats, CyberHdConfig, CyberHdModel, CyberHdTrainer, Detector, DetectorBuilder,
        DetectorInfo, DetectorRegistry, DriftMonitor, DriftMonitorConfig, DurableConfig,
        DurableLane, EncoderKind, FlusherStats, OnlineDetector, OnlineLearner, OpenSetDetector,
        OpenSetPrediction, Priority, QuantizedModel, RecoveryReport, ServeConfig, ServeEngine,
        ServeError, ServeStats, ShardConfig, ShardedServeEngine, TenantQuota, Ticket, Verdict,
    };
    pub use eval::detection::{DetectionCounts, RocCurve};
    pub use eval::metrics::{accuracy, ConfusionMatrix};
    pub use eval::timing::{LatencyHistogram, Stopwatch, ThroughputReport};
    pub use fault_inject::{BitFlipInjector, DiskFault, DiskFaultInjector};
    pub use hdc::encoder::{Encoder, ItemMemory, NGramEncoder, RbfEncoder, SymbolRecordEncoder};
    pub use hdc::{
        AssociativeMemory, BatchBuffer, BatchView, BitWidth, Hypervector, QuantizedHypervector,
    };
    pub use hw_model::{CpuModel, FpgaModel, HdcWorkload};
    pub use nids_data::datasets::{language_id, tabular_zoo};
    pub use nids_data::drift::{DriftPhase, DriftStream};
    pub use nids_data::preprocess::{Normalization, Preprocessor};
    pub use nids_data::split::{stratified_k_fold, train_test_split};
    pub use nids_data::synth::SyntheticConfig;
    pub use nids_data::{Dataset, DatasetKind};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_re_exports_compile_and_are_usable() {
        use crate::prelude::*;
        let hv = Hypervector::zeros(8);
        assert_eq!(hv.dim(), 8);
        assert_eq!(DatasetKind::ALL.len(), 4);
        assert_eq!(BitWidth::B1.bits(), 1);
    }
}
