//! Parity and determinism properties of the mini-batch training engine and
//! the fused 1-bit sign-encode path.
//!
//! Three contracts:
//!
//! 1. `batch_size = 1` training is **bit-exact** with the serial adaptive
//!    rule (checked here against an [`OnlineLearner`] stream applying the
//!    same rule sample by sample, and internally by the trainer's own unit
//!    suite against the serial epoch scorer).
//! 2. Mini-batch training keeps detection accuracy in the serial rule's
//!    band.  Its determinism at every thread count is pinned by the
//!    trainer's unit suite, which owns the worker-count argument.
//! 3. Fused sign-encode predictions are **bit-exact** against the
//!    encode-then-quantize 1-bit pipeline on all three encoders.
//!
//! Like `batch_parity.rs`, the suite runs in CI both at the engine's
//! default thread count and under `CYBERHD_THREADS=1`.

use cyberhd::model::AnyEncoder;
use cyberhd::QuantizedModel;
use cyberhd_suite::prelude::*;
use hdc::binary::{pack_f32_signs_into, words_for_dim, BinaryHypervector};
use hdc::encoder::Encoder;
use hdc::parallel::{engine_threads, for_each_chunk};
use hdc::rng::HdcRng;
use hdc::BatchView;
use nids_data::DatasetKind;

/// Builds an NSL-KDD-shaped train/test pair.
fn traffic(samples: usize, seed: u64) -> (BatchBuffer, Vec<usize>, BatchBuffer, usize, usize) {
    let dataset = DatasetKind::NslKdd
        .generate(&SyntheticConfig::new(samples, seed).difficulty(1.8))
        .expect("generation succeeds");
    let (train, test) = train_test_split(&dataset, 0.4, seed).expect("split succeeds");
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax).expect("fit succeeds");
    let width = preprocessor.output_width();
    let matrix = |d: &Dataset| {
        BatchBuffer::from_data(preprocessor.transform_matrix(d).expect("transform"), width)
            .expect("matrix")
    };
    let classes = dataset.num_classes();
    (matrix(&train), train.labels().to_vec(), matrix(&test), width, classes)
}

#[test]
fn batch_size_one_training_is_bit_exact_with_the_streaming_serial_rule() {
    // Record encoder: its batched kernel is the row-by-row serial path, so
    // the trainer's cached encodings are bit-identical to the per-sample
    // encodings of the streaming learner, and a single natural-order pass
    // (`retrain_epochs = 0`) of `fit` must reproduce the stream exactly.
    let (train_x, train_y, _, width, classes) = traffic(600, 3);
    let config = CyberHdConfig::builder(width, classes)
        .dimension(192)
        .encoder(EncoderKind::Record)
        .regeneration_rate(0.0)
        .retrain_epochs(0)
        .learning_rate(0.05)
        .batch_size(1)
        .seed(7)
        .build()
        .unwrap();

    let model =
        CyberHdTrainer::new(config.clone()).unwrap().fit_view(train_x.view(), &train_y).unwrap();

    let mut learner = OnlineLearner::new(config).unwrap();
    for (x, &y) in train_x.view().iter_rows().zip(&train_y) {
        learner.observe(x, y).unwrap();
    }
    let streamed = learner.into_model();

    assert_eq!(
        model.class_hypervectors(),
        streamed.class_hypervectors(),
        "batch_size = 1 fit must apply exactly the serial adaptive rule"
    );
}

#[test]
fn minibatch_training_keeps_detection_accuracy() {
    // The documented trade-off of batch_size > 1 is bounded staleness, not
    // broken learning: mini-batch models stay in the same accuracy band as
    // the serial rule on the same data.
    let (train_x, train_y, _, width, classes) = traffic(1_400, 17);
    let accuracy_with = |batch_size: usize| {
        let config = CyberHdConfig::builder(width, classes)
            .dimension(256)
            .retrain_epochs(5)
            .regeneration_rate(0.2)
            .learning_rate(0.05)
            .batch_size(batch_size)
            .seed(19)
            .build()
            .unwrap();
        let model =
            CyberHdTrainer::new(config).unwrap().fit_view(train_x.view(), &train_y).unwrap();
        model.accuracy_view(train_x.view(), &train_y).unwrap()
    };
    let serial = accuracy_with(1);
    let minibatch = accuracy_with(64);
    assert!(
        minibatch > serial - 0.05,
        "mini-batch accuracy {minibatch} fell too far below the serial rule's {serial}"
    );
}

/// The 1-bit encode-then-quantize pipeline the batched predict ran before
/// the fused sign-encode kernel: batched f32 encode into a chunk
/// matrix, per-row sign packing, packed-word Hamming scoring with the
/// engine's cosine convention.
///
/// # Panics
///
/// Panics if the view's row width does not match the encoder's feature
/// arity or the deployed model is not 1-bit-compatible (callers
/// validate).
fn predict_b1_encode_then_quantize(
    encoder: &AnyEncoder,
    deployed: &QuantizedModel,
    batch: BatchView<'_>,
) -> Vec<usize> {
    let dim = deployed.dimension();
    let packed: Vec<BinaryHypervector> = deployed
        .classes()
        .iter()
        .map(|c| BinaryHypervector::from_level_signs(c.levels()))
        .collect();
    let class_norms: Vec<f64> = deployed
        .classes()
        .iter()
        .map(|c| c.levels().iter().map(|&l| (l as f64) * (l as f64)).sum::<f64>().sqrt())
        .collect();
    let mut predictions = vec![0usize; batch.rows()];
    for_each_chunk(batch.rows(), 64, &mut predictions, 1, engine_threads(), |chunk, out| {
        let rows = batch.rows_range(chunk.start, chunk.end);
        let mut matrix = vec![0.0f32; rows.rows() * dim];
        encoder.encode_batch_into(rows, &mut matrix).expect("shapes validated by the caller");
        let mut words = vec![0u64; words_for_dim(dim)];
        let mut scores = vec![0.0f32; packed.len()];
        let qn = (dim as f64).sqrt();
        for (local, slot) in out.iter_mut().enumerate() {
            let query = &matrix[local * dim..(local + 1) * dim];
            if query.iter().all(|&v| v == 0.0) {
                scores.fill(0.0);
            } else {
                pack_f32_signs_into(query, &mut words);
                for ((score, class), cn) in scores.iter_mut().zip(&packed).zip(&class_norms) {
                    let h = hdc::hamming_distance(&words, class.as_words());
                    let dot = dim as f64 - 2.0 * h as f64;
                    *score = if qn == 0.0 || *cn == 0.0 {
                        0.0
                    } else {
                        (dot / (qn * *cn)).clamp(-1.0, 1.0) as f32
                    };
                }
            }
            *slot = hdc::argmax(&scores).expect("at least one class").0;
        }
    });
    predictions
}

/// Runs [`predict_b1_encode_then_quantize`] over a batch with the model's
/// own encoder and its 1-bit deployment.
fn b1_reference(model: &CyberHdModel, batch: BatchView<'_>) -> Vec<usize> {
    predict_b1_encode_then_quantize(model.encoder(), &model.quantize(BitWidth::B1), batch)
}

#[test]
fn fused_sign_encode_is_bit_exact_on_every_encoder() {
    let (train_x, train_y, mut test_x, width, classes) = traffic(900, 23);
    // An all-zero flow exercises the zero-row convention (Record maps it to
    // the zero hypervector; the serial path sends it to class 0).
    test_x.push_row();
    for kind in [EncoderKind::Rbf, EncoderKind::IdLevel, EncoderKind::Record] {
        let config = CyberHdConfig::builder(width, classes)
            .dimension(320)
            .encoder(kind)
            .regeneration_rate(if kind == EncoderKind::Rbf { 0.2 } else { 0.0 })
            .retrain_epochs(3)
            .seed(29)
            .build()
            .unwrap();
        let model =
            CyberHdTrainer::new(config).unwrap().fit_view(train_x.view(), &train_y).unwrap();
        let deployed = model.quantize(BitWidth::B1);
        let fused = deployed.predict_batch_view(test_x.view()).unwrap();
        let reference = b1_reference(&model, test_x.view());
        assert_eq!(fused, reference, "{kind:?}: fused B1 predictions diverged");
        // The serial per-sample path agrees bit for bit as well.
        for (i, x) in test_x.view().iter_rows().enumerate() {
            assert_eq!(fused[i], deployed.predict(x).unwrap(), "{kind:?} sample {i}");
        }
    }
}

#[test]
fn fused_sign_encode_parity_survives_randomized_feature_sweeps() {
    // Random feature vectors across a wide dynamic range (many 2π wraps of
    // the RBF projection) — the regime where a sloppy quadrant test would
    // diverge from the polynomial sign.
    let mut rng = HdcRng::seed_from(31);
    let width = 24;
    let mut train_x = BatchBuffer::with_width(width).unwrap();
    let train_y: Vec<usize> = (0..240).map(|i| i % 3).collect();
    for &class in &train_y {
        for x in train_x.push_row() {
            *x = (class as f64 + rng.normal(0.0, 0.4)) as f32;
        }
    }
    let config = CyberHdConfig::builder(width, 3)
        .dimension(512)
        .rbf_sigma(2.0)
        .regeneration_rate(0.1)
        .retrain_epochs(2)
        .seed(37)
        .build()
        .unwrap();
    let model = CyberHdTrainer::new(config).unwrap().fit_view(train_x.view(), &train_y).unwrap();
    let deployed = model.quantize(BitWidth::B1);
    let queries: Vec<f32> = (0..400 * width).map(|_| rng.normal(0.0, 3.0) as f32).collect();
    let queries = BatchView::new(&queries, width).unwrap();
    let fused = deployed.predict_batch_view(queries).unwrap();
    let reference = b1_reference(&model, queries);
    assert_eq!(fused, reference);
}
