//! # `fault-inject` — bit-flip fault injection
//!
//! Fig. 5 of the CyberHD paper compares how a DNN and CyberHD degrade when a
//! fraction of the bits holding their deployed model is flipped at random
//! (memory upsets, voltage-scaling errors, radiation effects).  This crate
//! provides the injector used by that study:
//!
//! * [`BitFlipInjector`] flips each bit of a parameter block independently
//!   with probability `rate` (the paper's "hardware error" percentage),
//! * helpers target the three deployment artefacts of this repository:
//!   raw `f32` parameter slices (MLP/SVM weights), quantized hypervectors
//!   (CyberHD class memory at 1–32 bits) and bit-packed binary hypervectors,
//! * [`disk::DiskFaultInjector`] models **storage** faults — truncation,
//!   byte flips and torn writes against persisted artifacts (write-ahead
//!   logs, checkpoints, sealed detectors) — for the crash/recovery matrix.
//!
//! Every injector run is seeded, so a robustness curve is re-generated
//! bit-for-bit.
//!
//! # Example
//!
//! ```
//! use fault_inject::BitFlipInjector;
//!
//! # fn main() -> Result<(), fault_inject::FaultError> {
//! let mut weights = vec![1.0f32; 1024];
//! let mut injector = BitFlipInjector::new(0.05, 42)?;
//! let flipped = injector.flip_f32_slice(&mut weights);
//! assert!(flipped > 0);
//! assert!(weights.iter().any(|&w| w != 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;

pub use disk::{DiskFault, DiskFaultInjector};

use baselines::mlp::Mlp;
use baselines::svm::LinearSvm;
use hdc::{BinaryHypervector, QuantizedHypervector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Errors produced by the fault injector.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// The flip rate was outside `[0, 1]` or not finite.
    InvalidRate(f64),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidRate(rate) => {
                write!(f, "bit-flip rate must lie in [0, 1], got {rate}")
            }
        }
    }
}

impl Error for FaultError {}

/// Crate-local result alias.
pub type Result<T, E = FaultError> = std::result::Result<T, E>;

/// A seeded random bit-flip injector.
///
/// Each bit of the targeted storage is flipped independently with probability
/// `rate`, matching the uniform memory-upset model of the paper's robustness
/// study.
#[derive(Debug, Clone)]
pub struct BitFlipInjector {
    rate: f64,
    rng: StdRng,
    flipped: u64,
}

impl BitFlipInjector {
    /// Creates an injector flipping each bit with probability `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidRate`] if `rate` is not in `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Result<Self> {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(FaultError::InvalidRate(rate));
        }
        Ok(Self { rate, rng: StdRng::seed_from_u64(seed), flipped: 0 })
    }

    /// The configured per-bit flip probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Total number of bits flipped by this injector so far.
    pub fn total_flipped(&self) -> u64 {
        self.flipped
    }

    /// Draws how many of `bits` storage bits get flipped.
    ///
    /// For efficiency the binomial draw is approximated by a normal when the
    /// expected count is large; for small expectations each bit is considered
    /// individually.
    fn draw_flip_count(&mut self, bits: u64) -> u64 {
        if self.rate <= 0.0 || bits == 0 {
            return 0;
        }
        if self.rate >= 1.0 {
            return bits;
        }
        let expectation = self.rate * bits as f64;
        if expectation < 32.0 {
            let mut count = 0;
            for _ in 0..bits {
                if self.rng.gen::<f64>() < self.rate {
                    count += 1;
                }
            }
            count
        } else {
            // Normal approximation to Binomial(bits, rate).
            let std = (expectation * (1.0 - self.rate)).sqrt();
            let u1: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = self.rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (expectation + std * z).round().clamp(0.0, bits as f64) as u64
        }
    }

    /// Flips bits in a raw `f32` parameter slice (32 bits per element).
    /// Returns the number of flipped bits.
    pub fn flip_f32_slice(&mut self, values: &mut [f32]) -> u64 {
        let total_bits = values.len() as u64 * 32;
        let flips = self.draw_flip_count(total_bits);
        for _ in 0..flips {
            let index = self.rng.gen_range(0..values.len());
            let bit = self.rng.gen_range(0..32u32);
            let raw = values[index].to_bits() ^ (1u32 << bit);
            values[index] = f32::from_bits(raw);
        }
        self.flipped += flips;
        flips
    }

    /// Flips bits in a quantized hypervector (its physical storage width per
    /// element).  Returns the number of flipped bits.
    pub fn flip_quantized(&mut self, hv: &mut QuantizedHypervector) -> u64 {
        let bits_per_element = hv.width().bits();
        let total_bits = hv.fault_sites() as u64;
        let flips = self.draw_flip_count(total_bits);
        for _ in 0..flips {
            let element = self.rng.gen_range(0..hv.dim());
            let bit = self.rng.gen_range(0..bits_per_element);
            hv.flip_bit(element, bit).expect("element and bit indices are in range");
        }
        self.flipped += flips;
        flips
    }

    /// Flips bits across a whole set of quantized class hypervectors.
    /// Returns the number of flipped bits.
    pub fn flip_quantized_set(&mut self, hvs: &mut [QuantizedHypervector]) -> u64 {
        hvs.iter_mut().map(|hv| self.flip_quantized(hv)).sum()
    }

    /// Flips bits in a bit-packed binary hypervector.
    /// Returns the number of flipped bits.
    pub fn flip_binary(&mut self, hv: &mut BinaryHypervector) -> u64 {
        let total_bits = hv.dim() as u64;
        let flips = self.draw_flip_count(total_bits);
        for _ in 0..flips {
            let index = self.rng.gen_range(0..hv.dim());
            hv.flip(index);
        }
        self.flipped += flips;
        flips
    }

    /// Flips bits in every weight matrix and bias vector of a trained MLP
    /// (the paper's DNN robustness scenario).  Returns the number of flipped
    /// bits.
    pub fn flip_mlp(&mut self, mlp: &mut Mlp) -> u64 {
        let mut flips = 0;
        for layer in mlp.layers_mut() {
            flips += self.flip_f32_slice(layer.weights.as_mut_slice());
            flips += self.flip_f32_slice(&mut layer.bias);
        }
        flips
    }

    /// Flips bits in every weight vector of a trained linear SVM.
    /// Returns the number of flipped bits.
    pub fn flip_svm(&mut self, svm: &mut LinearSvm) -> u64 {
        let mut flips = 0;
        for weights in svm.weights_mut() {
            flips += self.flip_f32_slice(weights);
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::{BitWidth, Hypervector};

    #[test]
    fn rate_is_validated() {
        assert!(BitFlipInjector::new(-0.1, 0).is_err());
        assert!(BitFlipInjector::new(1.1, 0).is_err());
        assert!(BitFlipInjector::new(f64::NAN, 0).is_err());
        assert!(BitFlipInjector::new(0.0, 0).is_ok());
        assert!(BitFlipInjector::new(1.0, 0).is_ok());
        assert_eq!(BitFlipInjector::new(0.25, 0).unwrap().rate(), 0.25);
    }

    #[test]
    fn zero_rate_flips_nothing() {
        let mut injector = BitFlipInjector::new(0.0, 1).unwrap();
        let mut weights = vec![1.0f32; 100];
        assert_eq!(injector.flip_f32_slice(&mut weights), 0);
        assert!(weights.iter().all(|&w| w == 1.0));
        assert_eq!(injector.total_flipped(), 0);
    }

    #[test]
    fn full_rate_flips_every_bit_count() {
        let mut injector = BitFlipInjector::new(1.0, 2).unwrap();
        let mut weights = vec![0.0f32; 8];
        let flips = injector.flip_f32_slice(&mut weights);
        assert_eq!(flips, 8 * 32);
    }

    #[test]
    fn flip_count_tracks_the_requested_rate() {
        let mut injector = BitFlipInjector::new(0.05, 3).unwrap();
        let mut weights = vec![1.0f32; 10_000];
        let flips = injector.flip_f32_slice(&mut weights) as f64;
        let expected = 0.05 * 10_000.0 * 32.0;
        assert!(
            (flips - expected).abs() < expected * 0.1,
            "flips {flips} should be close to expectation {expected}"
        );
        assert_eq!(injector.total_flipped(), flips as u64);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut injector = BitFlipInjector::new(0.02, seed).unwrap();
            let mut weights = vec![1.5f32; 256];
            injector.flip_f32_slice(&mut weights);
            weights
        };
        // Compare bit patterns: exponent flips can produce NaN, and
        // NaN != NaN would fail a value comparison despite determinism.
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        assert_eq!(bits(run(7)), bits(run(7)));
        assert_ne!(bits(run(7)), bits(run(8)));
    }

    #[test]
    fn quantized_hypervectors_are_perturbed_in_place() {
        let hv = Hypervector::from_fn(512, |i| (i as f32 * 0.37).sin());
        for width in BitWidth::ALL {
            let mut q = QuantizedHypervector::quantize(&hv, width);
            let original = q.clone();
            let mut injector = BitFlipInjector::new(0.10, 5).unwrap();
            let flips = injector.flip_quantized(&mut q);
            assert!(flips > 0, "width {width:?}");
            assert_ne!(q, original, "width {width:?}");
        }
    }

    #[test]
    fn quantized_set_flipping_spreads_over_all_classes() {
        let hv = Hypervector::from_fn(256, |i| (i as f32 * 0.11).cos());
        let mut classes: Vec<_> =
            (0..4).map(|_| QuantizedHypervector::quantize(&hv, BitWidth::B8)).collect();
        let originals = classes.clone();
        let mut injector = BitFlipInjector::new(0.2, 9).unwrap();
        let flips = injector.flip_quantized_set(&mut classes);
        assert!(flips > 100);
        let changed = classes.iter().zip(&originals).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 4, "every class hypervector should be perturbed at 20%");
    }

    #[test]
    fn binary_hypervector_flipping_changes_about_rate_bits() {
        let mut rng = hdc::rng::HdcRng::seed_from(11);
        let original = BinaryHypervector::random(10_000, &mut rng);
        let mut corrupted = original.clone();
        let mut injector = BitFlipInjector::new(0.10, 13).unwrap();
        injector.flip_binary(&mut corrupted);
        let distance = original.hamming_distance(&corrupted).unwrap();
        // Some flips may hit the same bit twice, so allow slack around 1000.
        assert!((700..=1100).contains(&distance), "distance {distance}");
    }

    #[test]
    fn mlp_and_svm_weights_are_reachable() {
        use baselines::mlp::MlpConfig;
        use baselines::svm::SvmConfig;
        use baselines::Classifier;

        let data = [0.0, 0.0, 1.0, 1.0, 0.1, 0.0, 0.9, 1.0];
        let xs = hdc::BatchView::new(&data, 2).unwrap();
        let ys = vec![0, 1, 0, 1];

        let mut mlp =
            Mlp::new(MlpConfig::new(2, 2).hidden_layers(vec![8]).epochs(10).seed(1)).unwrap();
        mlp.fit_view(xs, &ys).unwrap();
        let before = mlp.layers()[0].weights.clone();
        let mut injector = BitFlipInjector::new(0.3, 17).unwrap();
        assert!(injector.flip_mlp(&mut mlp) > 0);
        assert_ne!(mlp.layers()[0].weights, before);

        let mut svm = LinearSvm::new(SvmConfig::new(2, 2).epochs(5).seed(2)).unwrap();
        svm.fit_view(xs, &ys).unwrap();
        let before = svm.weights().to_vec();
        assert!(injector.flip_svm(&mut svm) > 0);
        assert_ne!(svm.weights(), before.as_slice());
    }
}
