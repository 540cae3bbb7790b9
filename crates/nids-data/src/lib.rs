//! # `nids-data` — intrusion-detection datasets for the CyberHD evaluation
//!
//! The paper evaluates CyberHD on four public intrusion-detection corpora:
//! NSL-KDD, UNSW-NB15, CIC-IDS-2017 and CIC-IDS-2018.  Those corpora cannot
//! be redistributed with this repository, so this crate provides
//!
//! * the exact **feature schemas** of all four datasets
//!   ([`datasets`]) — feature names, numeric vs. categorical kinds and the
//!   attack-class taxonomies,
//! * **synthetic class-conditional traffic generators** ([`synth`],
//!   [`traffic`]) that produce labelled flow records with the same schema,
//!   class imbalance and controllable class overlap, so every experiment in
//!   the paper can be reproduced end-to-end on a laptop,
//! * **CSV loaders** ([`loader`]) so the real corpora can be dropped in
//!   without code changes,
//! * **preprocessing** ([`preprocess`]) — one-hot expansion of categorical
//!   features and min-max / z-score normalization — and **stratified
//!   splitting** ([`split`]), which together turn raw records into the dense
//!   feature vectors consumed by the classifiers.
//!
//! # Quick start
//!
//! ```
//! use nids_data::datasets::DatasetKind;
//! use nids_data::synth::SyntheticConfig;
//! use nids_data::preprocess::{Normalization, Preprocessor};
//! use nids_data::split::train_test_split;
//!
//! # fn main() -> Result<(), nids_data::DataError> {
//! // 1. Generate a small NSL-KDD-shaped corpus.
//! let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(600, 7))?;
//! assert_eq!(dataset.num_classes(), 5);
//!
//! // 2. Split and preprocess.
//! let (train, test) = train_test_split(&dataset, 0.25, 42)?;
//! let preprocessor = Preprocessor::fit(&train, Normalization::MinMax)?;
//! let train_x = preprocessor.transform_matrix(&train)?;
//! assert_eq!(train_x.len(), train.len() * preprocessor.output_width());
//! assert!(!test.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod datasets;
pub mod drift;
pub mod loader;
pub mod preprocess;
pub mod schema;
pub mod split;
pub mod synth;
pub mod traffic;

pub use dataset::Dataset;
pub use datasets::DatasetKind;
pub use drift::{DriftPhase, DriftStream};
pub use preprocess::{Normalization, Preprocessor};
pub use schema::{FeatureKind, FeatureSpec, Schema};
pub use synth::SyntheticConfig;

use std::error::Error;
use std::fmt;

/// Errors produced by the `nids-data` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataError {
    /// A schema was structurally invalid (no features, a categorical feature
    /// with no values, duplicate feature names, …).
    InvalidSchema(String),
    /// A record did not conform to its schema (wrong arity, categorical
    /// index out of range, non-finite numeric value).
    InvalidRecord(String),
    /// A generator or splitter argument was invalid.
    InvalidArgument(String),
    /// A CSV line could not be parsed.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidSchema(what) => write!(f, "invalid schema: {what}"),
            DataError::InvalidRecord(what) => write!(f, "invalid record: {what}"),
            DataError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            DataError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for DataError {}

/// Crate-local result alias.
pub type Result<T, E = DataError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(DataError::InvalidSchema("x".into()).to_string().contains("schema"));
        assert!(DataError::InvalidRecord("y".into()).to_string().contains("record"));
        assert!(DataError::InvalidArgument("z".into()).to_string().contains("argument"));
        let e = DataError::Parse { line: 12, message: "bad float".into() };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
