//! The deployable `Detector` artifact: parity against the manual expert
//! pipeline and bit-exact versioned persistence.
//!
//! Two contracts are pinned at integration scale:
//!
//! 1. **Pipeline parity** — on every `DatasetKind`, a sealed detector's
//!    raw-flow verdicts equal the manual pipeline (fit preprocessor →
//!    transform_matrix → trainer → model) prediction for prediction, bit for
//!    bit.
//! 2. **Persistence round trip** — `to_bytes` → `from_bytes` reproduces
//!    every prediction and score bit for bit, for dense, B1- and
//!    B2-quantized class memories, and for calibrated open-set thresholds.
//! 3. **Single flow = batch** — `detect` equals `detect_batch` verdict for
//!    verdict, similarity bits included.

use cyberhd_suite::prelude::*;

/// One small labelled corpus per schema.
fn corpus(kind: DatasetKind, samples: usize, seed: u64) -> Dataset {
    kind.generate(&SyntheticConfig::new(samples, seed).difficulty(1.2)).expect("generation")
}

fn builder() -> DetectorBuilder {
    Detector::builder().dimension(192).retrain_epochs(2).learning_rate(0.05).seed(31)
}

#[test]
fn detector_matches_the_manual_pipeline_on_every_dataset_kind() {
    for kind in DatasetKind::ALL {
        let data = corpus(kind, 700, 41);
        let detector = builder().train(&data).unwrap();

        // The manual expert pipeline, configured identically.
        let preprocessor = Preprocessor::fit(&data, Normalization::MinMax).unwrap();
        let matrix = preprocessor.transform_matrix(&data).unwrap();
        let x = BatchView::new(&matrix, preprocessor.output_width()).unwrap();
        let y = data.labels();
        let config = CyberHdConfig::builder(preprocessor.output_width(), data.num_classes())
            .dimension(192)
            .retrain_epochs(2)
            .learning_rate(0.05)
            .seed(31)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(x, y).unwrap();

        // Single-flow raw path vs manual serial prediction: bit-exact.
        for (i, record) in data.records().iter().take(60).enumerate() {
            assert_eq!(
                detector.detect(record).unwrap().class,
                model.predict(x.row(i)).unwrap(),
                "{kind:?} flow {i}"
            );
        }
        // Raw batch path vs manual batched prediction: bit-exact.
        let verdicts = detector.detect_batch(data.records()).unwrap();
        let manual = model.predict_batch_view(x).unwrap();
        for (i, (verdict, class)) in verdicts.iter().zip(&manual).enumerate() {
            assert_eq!(verdict.class, *class, "{kind:?} batched flow {i}");
        }
        // And the artifact's evaluate agrees with the manual confusion
        // matrix accuracy.
        let manual_accuracy = model.accuracy_view(x, y).unwrap();
        assert!((detector.accuracy(&data).unwrap() - manual_accuracy).abs() < 1e-12, "{kind:?}");
    }
}

#[test]
fn view_batch_path_equals_row_batch_path() {
    let data = corpus(DatasetKind::UnswNb15, 600, 43);
    let detector = builder().train(&data).unwrap();
    let model = detector.model().unwrap();
    let preprocessor = detector.preprocessor();
    let matrix = preprocessor.transform_matrix(&data).unwrap();
    let view = BatchView::new(&matrix, preprocessor.output_width()).unwrap();
    let rows: Vec<usize> = view.iter_rows().map(|row| model.predict(row).unwrap()).collect();
    assert_eq!(
        model.predict_batch_view(view).unwrap(),
        rows,
        "the zero-copy batch path and the one-row path must agree exactly"
    );
    let quantized = model.quantize(BitWidth::B1);
    let rows: Vec<usize> = view.iter_rows().map(|row| quantized.predict(row).unwrap()).collect();
    assert_eq!(quantized.predict_batch_view(view).unwrap(), rows);
}

#[test]
fn detect_matches_detect_batch_bit_for_bit() {
    // Single-flow and batched verdicts share one encode arithmetic, so they
    // agree to the last bit — with regeneration on, so the trainer's
    // patched columns are part of the model being checked.
    let data = corpus(DatasetKind::NslKdd, 800, 71);
    for dim in [512, 2048] {
        for width in [None, Some(BitWidth::B1), Some(BitWidth::B4)] {
            let builder = Detector::builder()
                .dimension(dim)
                .retrain_epochs(2)
                .learning_rate(0.05)
                .regeneration_rate(0.2)
                .seed(73);
            let builder = match width {
                Some(width) => builder.quantize(width),
                None => builder,
            };
            let detector = builder.train(&data).unwrap();
            let label = format!("D={dim} {width:?}");
            let batched = detector.detect_batch(data.records()).unwrap();
            for (i, (record, expected)) in data.records().iter().zip(&batched).enumerate() {
                let single = detector.detect(record).unwrap();
                assert_eq!(single.class, expected.class, "{label} flow {i}");
                assert_eq!(
                    single.similarity.to_bits(),
                    expected.similarity.to_bits(),
                    "{label} flow {i}: {} vs {}",
                    single.similarity,
                    expected.similarity
                );
                assert_eq!(single.novel, expected.novel, "{label} flow {i}");
            }
        }
    }
}

/// Asserts a saved→loaded artifact reproduces verdicts (class, similarity
/// bits, novel flag) exactly.
fn assert_bit_exact_round_trip(detector: &Detector, data: &Dataset, label: &str) {
    let bytes = detector.to_bytes();
    let loaded = Detector::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.bit_width(), detector.bit_width(), "{label}");
    assert_eq!(loaded.thresholds().is_some(), detector.thresholds().is_some(), "{label}");
    if let (Some(a), Some(b)) = (loaded.thresholds(), detector.thresholds()) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: thresholds must round-trip bit-exactly");
        }
    }
    // Single-flow path: class, similarity bits and novelty all equal.
    for (i, record) in data.records().iter().take(80).enumerate() {
        let original = detector.detect(record).unwrap();
        let reloaded = loaded.detect(record).unwrap();
        assert_eq!(reloaded.class, original.class, "{label} flow {i}");
        assert_eq!(
            reloaded.similarity.to_bits(),
            original.similarity.to_bits(),
            "{label} flow {i}: similarity must be bit-exact"
        );
        assert_eq!(reloaded.novel, original.novel, "{label} flow {i}");
    }
    // Batched path too.
    let original = detector.detect_batch(data.records()).unwrap();
    let reloaded = loaded.detect_batch(data.records()).unwrap();
    assert_eq!(original.len(), reloaded.len(), "{label}");
    for (i, (a, b)) in original.iter().zip(&reloaded).enumerate() {
        assert_eq!(a.class, b.class, "{label} batched flow {i}");
        assert_eq!(a.similarity.to_bits(), b.similarity.to_bits(), "{label} batched flow {i}");
        assert_eq!(a.novel, b.novel, "{label} batched flow {i}");
    }
    // The loaded artifact serializes back to the identical byte stream.
    assert_eq!(loaded.to_bytes(), bytes, "{label}: canonical re-serialization");
}

#[test]
fn dense_artifact_round_trips_bit_exactly() {
    let data = corpus(DatasetKind::NslKdd, 700, 47);
    let detector = builder().regeneration_rate(0.2).train(&data).unwrap();
    assert!(detector.model().unwrap().effective_dimension() >= 192);
    assert_bit_exact_round_trip(&detector, &data, "dense");
}

#[test]
fn quantized_artifacts_round_trip_bit_exactly() {
    let data = corpus(DatasetKind::CicIds2017, 700, 53);
    for width in [BitWidth::B1, BitWidth::B2] {
        let detector = builder().quantize(width).train(&data).unwrap();
        assert_eq!(detector.bit_width(), Some(width));
        assert_bit_exact_round_trip(&detector, &data, &format!("{width}"));
    }
}

#[test]
fn open_set_artifact_round_trips_thresholds_bit_exactly() {
    let data = corpus(DatasetKind::CicIds2018, 700, 59);
    let detector = builder().open_set(0.05).train(&data).unwrap();
    assert_eq!(detector.thresholds().unwrap().len(), data.num_classes());
    assert_bit_exact_round_trip(&detector, &data, "open-set");
}

#[test]
fn online_trained_artifact_round_trips_and_streams_on() {
    let data = corpus(DatasetKind::UnswNb15, 900, 61);
    let detector = builder().online().train(&data).unwrap();
    assert_bit_exact_round_trip(&detector, &data, "online");

    // A loaded artifact can be unsealed and keep learning.
    let loaded = Detector::from_bytes(&detector.to_bytes()).unwrap();
    let mut online = loaded.into_online().unwrap();
    let more = corpus(DatasetKind::UnswNb15, 200, 67);
    for (record, &label) in more.records().iter().zip(more.labels()) {
        online.observe(record, label).unwrap();
    }
    assert_eq!(online.samples_seen(), more.records().len());
    let resealed = online.seal();
    assert!(resealed.accuracy(&data).unwrap() > 0.3);
}
