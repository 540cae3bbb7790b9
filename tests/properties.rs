//! Property-style tests over the cross-crate invariants: hypervector
//! algebra, encoder locality, quantization bounds, preprocessing ranges,
//! dataset generation and metric identities hold for many randomly drawn
//! (bounded) inputs, not just hand-picked unit-test cases.
//!
//! The original version of this file used the `proptest` crate; the build
//! environment is offline, so the same properties are now exercised with
//! seeded random case generation driven by [`hdc::rng::HdcRng`] — fully
//! deterministic, and each failure message carries the case seed.

use cyberhd_suite::prelude::*;
use hdc::encoder::{IdLevelEncoder, RecordEncoder};
use hdc::rng::HdcRng;

/// Number of random cases per fast property.
const CASES: u64 = 64;
/// Number of random cases per slow (dataset-scale) property.
const SLOW_CASES: u64 = 12;

fn finite_vec(len: usize, rng: &mut HdcRng) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-100.0, 100.0) as f32).collect()
}

#[test]
fn bundling_is_commutative_and_binding_commutes() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x1000 + case);
        let ha = Hypervector::from_vec(finite_vec(64, &mut rng));
        let hb = Hypervector::from_vec(finite_vec(64, &mut rng));
        assert_eq!(ha.bundle(&hb).unwrap(), hb.bundle(&ha).unwrap(), "case {case}");
        assert_eq!(ha.bind(&hb).unwrap(), hb.bind(&ha).unwrap(), "case {case}");
    }
}

#[test]
fn cosine_similarity_stays_in_range_and_is_symmetric() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x2000 + case);
        let ha = Hypervector::from_vec(finite_vec(32, &mut rng));
        let hb = Hypervector::from_vec(finite_vec(32, &mut rng));
        let ab = ha.cosine(&hb).unwrap();
        let ba = hb.cosine(&ha).unwrap();
        assert!((-1.0..=1.0).contains(&ab), "case {case}: {ab}");
        assert!((ab - ba).abs() < 1e-5, "case {case}: {ab} vs {ba}");
    }
}

#[test]
fn normalization_yields_unit_norm_for_nonzero_vectors() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x3000 + case);
        let hv = Hypervector::from_vec(finite_vec(48, &mut rng));
        if hv.norm() <= 1e-3 {
            continue;
        }
        let normalized = hv.normalized();
        assert!((normalized.norm() - 1.0).abs() < 1e-4, "case {case}");
        // Direction is preserved.
        assert!(hv.cosine(&normalized).unwrap() > 0.999, "case {case}");
    }
}

#[test]
fn permutation_preserves_norm_and_round_trips() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x4000 + case);
        let hv = Hypervector::from_vec(finite_vec(40, &mut rng));
        let shift = rng.index(200);
        let permuted = hv.permute(shift);
        assert!((hv.norm() - permuted.norm()).abs() < 1e-4, "case {case}");
        let back = permuted.permute(40 - (shift % 40));
        assert_eq!(back, hv, "case {case}");
    }
}

#[test]
fn quantization_error_is_bounded_by_the_step_size() {
    let widths = [BitWidth::B16, BitWidth::B8, BitWidth::B4, BitWidth::B2, BitWidth::B1];
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x5000 + case);
        let width = widths[rng.index(widths.len())];
        let hv = Hypervector::from_vec(finite_vec(64, &mut rng));
        let q = QuantizedHypervector::quantize(&hv, width);
        let back = q.dequantize();
        // Worst-case absolute error per element is one quantization step
        // (half a step for rounding, but 1-bit keeps only the sign so bound
        // by the max magnitude instead).
        let bound = if width == BitWidth::B1 {
            2.0 * hv.max_abs()
        } else {
            hv.max_abs() / width.max_level() as f32 + 1e-5
        };
        for (a, b) in hv.iter().zip(back.iter()) {
            assert!(
                (a - b).abs() <= bound,
                "case {case}: error {} exceeds bound {bound}",
                (a - b).abs()
            );
        }
        assert_eq!(q.storage_bits(), 64 * width.bits() as usize, "case {case}");
    }
}

#[test]
fn rbf_encoding_is_bounded_and_deterministic() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x6000 + case);
        let features = finite_vec(12, &mut rng);
        let seed = rng.index(1000) as u64;
        let encoder = RbfEncoder::new(12, 128, seed).unwrap();
        let a = encoder.encode(&features).unwrap();
        let b = encoder.encode(&features).unwrap();
        assert_eq!(&a, &b, "case {case}");
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)), "case {case}");
    }
}

#[test]
fn static_encoders_accept_any_bounded_input() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x7000 + case);
        let features = finite_vec(10, &mut rng);
        let seed = rng.index(1000) as u64;
        let id_level = IdLevelEncoder::with_range(10, 64, 8, -100.0, 100.0, seed).unwrap();
        let record = RecordEncoder::new(10, 64, seed).unwrap();
        assert_eq!(id_level.encode(&features).unwrap().dim(), 64, "case {case}");
        assert_eq!(record.encode(&features).unwrap().dim(), 64, "case {case}");
    }
}

#[test]
fn associative_memory_returns_valid_classes() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x8000 + case);
        let queries: Vec<Vec<f32>> =
            (0..1 + rng.index(7)).map(|_| finite_vec(32, &mut rng)).collect();
        let mut memory = AssociativeMemory::new(4, 32).unwrap();
        for (i, q) in queries.iter().enumerate() {
            memory.accumulate(i % 4, &Hypervector::from_vec(q.clone())).unwrap();
        }
        for q in &queries {
            let (class, similarity) = memory.nearest(&Hypervector::from_vec(q.clone())).unwrap();
            assert!(class < 4, "case {case}");
            assert!((-1.0..=1.0).contains(&similarity), "case {case}");
        }
    }
}

#[test]
fn confusion_matrix_accuracy_matches_direct_count() {
    for case in 0..CASES {
        let mut rng = HdcRng::seed_from(0x9000 + case);
        let n = 1 + rng.index(99);
        let predictions: Vec<usize> = (0..n).map(|_| rng.index(5)).collect();
        let labels: Vec<usize> = (0..n).map(|_| rng.index(5)).collect();
        let cm = ConfusionMatrix::from_predictions(&predictions, &labels, 5).unwrap();
        let direct = accuracy(&predictions, &labels).unwrap();
        assert!((cm.accuracy() - direct).abs() < 1e-12, "case {case}");
        assert_eq!(cm.total() as usize, n, "case {case}");
    }
}

#[test]
fn generated_corpora_conform_to_their_schema() {
    for case in 0..SLOW_CASES {
        let mut rng = HdcRng::seed_from(0xA000 + case);
        let seed = rng.index(500) as u64;
        let samples = 50 + rng.index(250);
        let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(samples, seed)).unwrap();
        assert_eq!(dataset.len(), samples, "case {case}");
        for record in dataset.records() {
            assert!(dataset.schema().validate_record(record).is_ok(), "case {case}");
        }
        assert!(dataset.labels().iter().all(|&l| l < dataset.num_classes()), "case {case}");
    }
}

#[test]
fn minmax_preprocessing_maps_training_data_into_unit_interval() {
    for case in 0..SLOW_CASES {
        let mut rng = HdcRng::seed_from(0xB000 + case);
        let seed = rng.index(500) as u64;
        let dataset = DatasetKind::UnswNb15.generate(&SyntheticConfig::new(300, seed)).unwrap();
        let preprocessor = Preprocessor::fit(&dataset, Normalization::MinMax).unwrap();
        let transformed = preprocessor.transform_matrix(&dataset).unwrap();
        assert!(
            transformed.iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()),
            "case {case}"
        );
        assert_eq!(transformed.len(), dataset.len() * preprocessor.output_width(), "case {case}");
    }
}

#[test]
fn stratified_split_preserves_every_record_exactly_once() {
    for case in 0..SLOW_CASES {
        let mut rng = HdcRng::seed_from(0xC000 + case);
        let seed = rng.index(500) as u64;
        let dataset = DatasetKind::CicIds2018.generate(&SyntheticConfig::new(400, seed)).unwrap();
        let (train, test) = train_test_split(&dataset, 0.3, seed).unwrap();
        assert_eq!(train.len() + test.len(), dataset.len(), "case {case}");
        // Class totals are preserved.
        let total: Vec<usize> = dataset.class_counts();
        let recombined: Vec<usize> =
            train.class_counts().iter().zip(test.class_counts()).map(|(a, b)| a + b).collect();
        assert_eq!(total, recombined, "case {case}");
    }
}
