//! Batch/serial parity properties of the fused inference engine.
//!
//! The engine's contract: for every encoder and for the quantized
//! deployment path, `predict_batch_view` produces **identical predictions** to
//! the per-sample loop, and batched scores are **bit-identical** to the
//! serial scoring path (every encoder's single-row encode is its batch
//! arithmetic at `n = 1`).  Cases are generated deterministically from
//! seeds, so every run checks the same (many) inputs.
//!
//! The whole suite runs twice in CI — once at the engine's default thread
//! count (chunk fan-out across scoped threads) and once under
//! `CYBERHD_THREADS=1` (serial chunk loop) — which is what makes these
//! properties cover both engine shapes.

use cyberhd_suite::prelude::*;
use hdc::rng::HdcRng;
use nids_data::DatasetKind;

/// Builds an NSL-KDD-shaped train/test pair.
fn traffic(samples: usize, seed: u64) -> (BatchBuffer, Vec<usize>, BatchBuffer) {
    let dataset = DatasetKind::NslKdd
        .generate(&SyntheticConfig::new(samples, seed).difficulty(1.8))
        .expect("generation succeeds");
    let (train, test) = train_test_split(&dataset, 0.4, seed).expect("split succeeds");
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax).expect("fit succeeds");
    let matrix = |d: &Dataset| {
        let data = preprocessor.transform_matrix(d).expect("transform");
        BatchBuffer::from_data(data, preprocessor.output_width()).expect("matrix")
    };
    (matrix(&train), train.labels().to_vec(), matrix(&test))
}

fn train(
    train_x: &BatchBuffer,
    train_y: &[usize],
    encoder: EncoderKind,
    dimension: usize,
    seed: u64,
) -> CyberHdModel {
    let width = train_x.width();
    let classes = train_y.iter().max().unwrap() + 1;
    let config = CyberHdConfig::builder(width, classes)
        .dimension(dimension)
        .encoder(encoder)
        .regeneration_rate(if encoder == EncoderKind::Rbf { 0.15 } else { 0.0 })
        .retrain_epochs(3)
        .seed(seed)
        .build()
        .expect("valid config");
    CyberHdTrainer::new(config)
        .expect("trainer")
        .fit_view(train_x.view(), train_y)
        .expect("training")
}

#[test]
fn dense_predictions_are_identical_for_every_encoder() {
    let (train_x, train_y, test_x) = traffic(700, 11);
    for encoder in [EncoderKind::Rbf, EncoderKind::IdLevel, EncoderKind::Record] {
        let model = train(&train_x, &train_y, encoder, 384, 3);
        let batched = model.predict_batch_view(test_x.view()).expect("batched prediction");
        for (i, x) in test_x.view().iter_rows().enumerate() {
            let serial = model.predict(x).expect("serial prediction");
            assert_eq!(batched[i], serial, "{encoder:?} sample {i}");
        }
    }
}

#[test]
fn batched_scores_match_serial_scores_within_1e6() {
    let (train_x, train_y, test_x) = traffic(600, 13);
    for encoder in [EncoderKind::Rbf, EncoderKind::IdLevel, EncoderKind::Record] {
        let model = train(&train_x, &train_y, encoder, 320, 7);
        let memory = model.memory();
        let dim = model.dimension();
        // Batched path: encode the whole batch into one matrix, score it
        // with per-batch class norms.
        let mut matrix = vec![0.0f32; test_x.rows() * dim];
        model.encoder().encode_batch_into(test_x.view(), &mut matrix).expect("batch encode");
        let mut scores = vec![0.0f32; test_x.rows() * memory.num_classes()];
        memory.similarities_batch(&matrix, &mut scores).expect("batch scoring");
        // Serial path: per-sample encode + per-query class norms.
        for (i, x) in test_x.view().iter_rows().enumerate() {
            let encoded = model.encode(x).expect("serial encode");
            let serial = memory.similarities(&encoded).expect("serial scoring");
            let row = &scores[i * memory.num_classes()..(i + 1) * memory.num_classes()];
            for (k, (a, b)) in row.iter().zip(&serial).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{encoder:?} sample {i} class {k}: batched {a} vs serial {b}"
                );
            }
        }
    }
}

#[test]
fn predict_with_scores_winner_is_the_scores_argmax() {
    let (train_x, train_y, test_x) = traffic(500, 17);
    let model = train(&train_x, &train_y, EncoderKind::Rbf, 256, 9);
    for x in test_x.view().iter_rows().take(100) {
        let (winner, scores) = model.predict_with_scores(x).expect("prediction");
        let argmax =
            scores.iter().enumerate().fold((0usize, f32::NEG_INFINITY), |best, (i, &s)| {
                if s > best.1 {
                    (i, s)
                } else {
                    best
                }
            });
        assert_eq!(winner, argmax.0);
        assert_eq!(winner, model.predict(x).expect("prediction"));
        assert_eq!(scores.len(), model.num_classes());
    }
}

#[test]
fn quantized_predictions_are_identical_at_every_bitwidth() {
    let (train_x, train_y, mut test_x) = traffic(500, 19);
    // Degenerate all-zero flow: the serial path scores it 0.0 against every
    // class; the packed 1-bit kernel must agree instead of sign-packing
    // zeros to +1.
    test_x.push_row();
    let model = train(&train_x, &train_y, EncoderKind::Rbf, 320, 21);
    let view = test_x.view();
    for width in BitWidth::ALL {
        let deployed = model.quantize(width);
        let batched = deployed.predict_batch_view(view).expect("batched prediction");
        let scored = deployed.predict_batch_view_scored(view).expect("batched scores");
        for (i, x) in view.iter_rows().enumerate() {
            let serial = deployed.predict(x).expect("serial prediction");
            assert_eq!(batched[i], serial, "{width:?} sample {i}");
            // The serial integer cosine is the independent oracle for the
            // packed/batched scores, similarity bits included.
            let (class, similarity) = deployed.predict_with_similarity(x).expect("serial score");
            assert_eq!(scored[i].0, class, "{width:?} sample {i}");
            assert_eq!(
                scored[i].1.to_bits(),
                similarity.to_bits(),
                "{width:?} sample {i}: {} vs {similarity}",
                scored[i].1
            );
        }
    }
}

#[test]
fn packed_one_bit_scores_match_integer_cosine_within_1e6() {
    // The packed u64 kernel's score formula ((dim - 2h) / (√na·√nb))
    // against the serial integer cosine of the quantized hypervectors.
    let mut rng = HdcRng::seed_from(23);
    let dim = 777; // deliberately not a multiple of 64
    for case in 0..32 {
        let a = Hypervector::from_fn(dim, |_| rng.standard_normal() as f32);
        let b = Hypervector::from_fn(dim, |_| rng.standard_normal() as f32);
        let qa = QuantizedHypervector::quantize(&a, BitWidth::B1);
        let qb = QuantizedHypervector::quantize(&b, BitWidth::B1);
        let serial = qa.cosine(&qb).expect("integer cosine");

        let pa = hdc::BinaryHypervector::from_level_signs(qa.levels());
        let pb = hdc::BinaryHypervector::from_level_signs(qb.levels());
        let h = hdc::hamming_distance(pa.as_words(), pb.as_words());
        let packed = (dim as f64 - 2.0 * h as f64) / ((dim as f64).sqrt() * (dim as f64).sqrt());
        assert!(
            (serial - packed as f32).abs() < 1e-6,
            "case {case}: serial {serial} vs packed {packed}"
        );
    }
}

#[test]
fn nearest_batch_agrees_with_serial_nearest_on_random_memories() {
    for case in 0..8u64 {
        let mut rng = HdcRng::seed_from(0xBA7C4 + case);
        let (classes, dim, rows) = (2 + rng.index(5), 16 + rng.index(64), 1 + rng.index(40));
        let mut memory = AssociativeMemory::new(classes, dim).expect("memory");
        for c in 0..classes {
            let hv = Hypervector::from_fn(dim, |_| rng.standard_normal() as f32);
            memory.accumulate(c, &hv).expect("accumulate");
        }
        let queries: Vec<f32> = (0..rows * dim).map(|_| rng.standard_normal() as f32).collect();
        let batched = memory.nearest_batch(&queries).expect("batched nearest");
        for row in 0..rows {
            let q = Hypervector::from_vec(queries[row * dim..(row + 1) * dim].to_vec());
            assert_eq!(batched[row], memory.nearest(&q).expect("serial nearest"), "case {case}");
        }
    }
}
