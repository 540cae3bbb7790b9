//! # `hdc` — hyperdimensional computing substrate
//!
//! This crate provides the hyperdimensional-computing (HDC) building blocks
//! used by the [CyberHD](https://arxiv.org/abs/2304.06728) reproduction:
//!
//! * [`dense::Hypervector`] — dense real-valued hypervectors with the classic
//!   HDC algebra (bundling, binding, permutation, normalization).
//! * [`binary::BinaryHypervector`] — bit-packed binary hypervectors with XOR
//!   binding, majority bundling and Hamming similarity (the 1-bit mode of the
//!   paper's quantization study).
//! * [`quant`] — linear quantization of hypervectors to 1/2/4/8/16/32-bit
//!   elements (Table I and Fig. 5 of the paper).
//! * [`encoder`] — encoders from low-dimensional feature vectors into
//!   hyperspace, most importantly the RBF / random-Fourier-feature encoder
//!   whose per-dimension base vectors can be *regenerated* (the core of
//!   CyberHD's dynamic encoding), plus ID–level and record-based encoders.
//! * [`memory::AssociativeMemory`] — the class-hypervector store used during
//!   training and nearest-class inference.
//! * [`similarity`] — cosine, dot and Hamming similarity kernels.
//! * [`kernel`] — the runtime-dispatched SIMD layer (AVX2/AVX-512 on
//!   x86_64, NEON on aarch64, scalar fallback) every hot loop above funnels
//!   through; `CYBERHD_FORCE_SCALAR=1` pins the portable path.
//! * [`batch`] — zero-copy row-major [`batch::BatchView`]s, the batch
//!   currency of every engine entry point.
//! * [`codec`] — the bit-exact little-endian codec trained artifacts are
//!   persisted with (the vendored `serde` is a marker stub).
//! * [`parallel`] — the chunked fork-join primitive of the batched
//!   inference engine (scoped threads, sized by `CYBERHD_THREADS`).
//! * [`rng`] — deterministic, seedable random sources (Gaussian via
//!   Box–Muller) used for base-vector generation.
//! * [`wal`] — an append-only, CRC-checksummed write-ahead log with
//!   torn-tail repair, backing the durable adaptive serving lane.
//!
//! # Example
//!
//! ```
//! use hdc::encoder::{Encoder, RbfEncoder};
//! use hdc::memory::AssociativeMemory;
//!
//! # fn main() -> Result<(), hdc::HdcError> {
//! // Encode 4-dimensional features into 256-dimensional hyperspace.
//! let encoder = RbfEncoder::new(4, 256, 7)?;
//! let h = encoder.encode(&[0.2, -0.4, 1.0, 0.3])?;
//! assert_eq!(h.dim(), 256);
//!
//! // Accumulate it into a class memory and query it back.
//! let mut memory = AssociativeMemory::new(2, 256)?;
//! memory.accumulate(0, &h)?;
//! let (winner, _similarity) = memory.nearest(&h)?;
//! assert_eq!(winner, 0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `kernel` module scopes an explicit
// `allow(unsafe_code)` for its `std::arch` intrinsics (runtime-dispatched
// SIMD); everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod binary;
pub mod codec;
pub mod dense;
pub mod encoder;
pub mod kernel;
pub mod memory;
pub mod parallel;
pub mod quant;
pub mod rng;
pub mod similarity;
pub mod wal;

pub use batch::{BatchBuffer, BatchView};
pub use binary::BinaryHypervector;
pub use dense::Hypervector;
pub use encoder::{
    Encoder, IdLevelEncoder, ItemMemory, NGramEncoder, RbfEncoder, RecordEncoder,
    SymbolRecordEncoder,
};
pub use kernel::Kernels;
pub use memory::AssociativeMemory;
pub use quant::{BitWidth, QuantizedHypervector};
pub use similarity::{argmax, cosine, dot, hamming_distance, normalized_hamming_similarity};

use std::error::Error;
use std::fmt;

/// Errors produced by the `hdc` crate.
///
/// Every fallible public operation in this crate returns [`HdcError`]; the
/// variants carry enough context to diagnose shape and argument mismatches
/// without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HdcError {
    /// Two hypervectors (or a hypervector and a memory/encoder) disagree on
    /// dimensionality.
    DimensionMismatch {
        /// Dimensionality expected by the receiver.
        expected: usize,
        /// Dimensionality actually supplied.
        actual: usize,
    },
    /// A feature vector did not match the encoder's input arity.
    FeatureMismatch {
        /// Input feature count expected by the encoder.
        expected: usize,
        /// Feature count actually supplied.
        actual: usize,
    },
    /// A dimension, class or level index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Exclusive upper bound for valid indices.
        bound: usize,
    },
    /// A constructor argument was invalid (zero dimensionality, zero classes,
    /// non-finite parameter, …). The string names the argument.
    InvalidArgument(String),
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdcError::DimensionMismatch { expected, actual } => {
                write!(f, "hypervector dimension mismatch: expected {expected}, got {actual}")
            }
            HdcError::FeatureMismatch { expected, actual } => {
                write!(f, "feature count mismatch: encoder expects {expected}, got {actual}")
            }
            HdcError::IndexOutOfRange { index, bound } => {
                write!(f, "index {index} out of range for bound {bound}")
            }
            HdcError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl Error for HdcError {}

/// Crate-local result alias.
pub type Result<T, E = HdcError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = HdcError::DimensionMismatch { expected: 8, actual: 4 };
        assert!(e.to_string().contains("expected 8"));
        let e = HdcError::FeatureMismatch { expected: 41, actual: 40 };
        assert!(e.to_string().contains("41"));
        let e = HdcError::IndexOutOfRange { index: 10, bound: 10 };
        assert!(e.to_string().contains("out of range"));
        let e = HdcError::InvalidArgument("dim must be non-zero".into());
        assert!(e.to_string().contains("dim must be non-zero"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
    }
}
