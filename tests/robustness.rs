//! Integration tests for the robustness study (Fig. 5): HDC models degrade
//! gracefully under random bit flips, far more gracefully than the DNN, and
//! lower-precision HDC deployments are the most robust.

use cyberhd_suite::prelude::*;

fn prepared() -> (BatchBuffer, Vec<usize>, BatchBuffer, Vec<usize>, usize, usize) {
    let dataset = DatasetKind::NslKdd
        .generate(&SyntheticConfig::new(2_000, 13).difficulty(1.3))
        .expect("generation succeeds");
    let (train, test) = train_test_split(&dataset, 0.25, 13).expect("split succeeds");
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax).expect("fit succeeds");
    let width = preprocessor.output_width();
    let matrix = |d: &Dataset| {
        BatchBuffer::from_data(preprocessor.transform_matrix(d).expect("transform"), width)
            .expect("matrix")
    };
    let (train_x, test_x) = (matrix(&train), matrix(&test));
    (train_x, train.labels().to_vec(), test_x, test.labels().to_vec(), width, dataset.num_classes())
}

fn mean_corrupted_accuracy(
    deployed: &QuantizedModel,
    test_x: &BatchBuffer,
    test_y: &[usize],
    rate: f64,
) -> f64 {
    let mut total = 0.0;
    for trial in 0..3u64 {
        let mut corrupted = deployed.clone();
        let mut injector = BitFlipInjector::new(rate, 40 + trial).unwrap();
        injector.flip_quantized_set(corrupted.classes_mut());
        total += corrupted.accuracy_view(test_x.view(), test_y).unwrap();
    }
    total / 3.0
}

#[test]
fn one_bit_cyberhd_survives_heavy_bit_flips() {
    let (train_x, train_y, test_x, test_y, width, classes) = prepared();
    let config = CyberHdConfig::builder(width, classes)
        .dimension(512)
        .retrain_epochs(5)
        .regeneration_rate(0.2)
        .seed(3)
        .build()
        .unwrap();
    let model = CyberHdTrainer::new(config).unwrap().fit_view(train_x.view(), &train_y).unwrap();

    let deployed = model.quantize(BitWidth::B1);
    let clean = deployed.accuracy_view(test_x.view(), &test_y).unwrap();
    let corrupted = mean_corrupted_accuracy(&deployed, &test_x, &test_y, 0.10);
    let loss = clean - corrupted;
    assert!(
        loss < 0.10,
        "a 1-bit HDC model should lose only a few accuracy points at a 10% flip rate, lost {loss}"
    );
}

#[test]
fn hdc_is_more_robust_than_the_dnn_at_matching_flip_rates() {
    let (train_x, train_y, test_x, test_y, width, classes) = prepared();

    // CyberHD deployed at 1 bit.
    let config = CyberHdConfig::builder(width, classes)
        .dimension(512)
        .retrain_epochs(5)
        .regeneration_rate(0.2)
        .seed(5)
        .build()
        .unwrap();
    let model = CyberHdTrainer::new(config).unwrap().fit_view(train_x.view(), &train_y).unwrap();
    let deployed = model.quantize(BitWidth::B1);
    let hdc_clean = deployed.accuracy_view(test_x.view(), &test_y).unwrap();
    let hdc_corrupted = mean_corrupted_accuracy(&deployed, &test_x, &test_y, 0.10);
    let hdc_loss = (hdc_clean - hdc_corrupted).max(0.0);

    // The DNN with bit flips in its f32 weights.
    let mut mlp =
        Mlp::new(MlpConfig::new(width, classes).hidden_layers(vec![128, 128]).epochs(10).seed(5))
            .unwrap();
    mlp.fit_view(train_x.view(), &train_y).unwrap();
    let dnn_clean = mlp.accuracy_view(test_x.view(), &test_y).unwrap();
    let mut dnn_corrupted_total = 0.0;
    for trial in 0..3u64 {
        let mut corrupted = mlp.clone();
        let mut injector = BitFlipInjector::new(0.10, 80 + trial).unwrap();
        injector.flip_mlp(&mut corrupted);
        dnn_corrupted_total +=
            eval::metrics::accuracy(&corrupted.predict_batch_view(test_x.view()).unwrap(), &test_y)
                .unwrap();
    }
    let dnn_loss = (dnn_clean - dnn_corrupted_total / 3.0).max(0.0);

    assert!(
        hdc_loss < dnn_loss,
        "1-bit CyberHD (loss {hdc_loss:.3}) should degrade less than the DNN (loss {dnn_loss:.3}) \
         at a 10% flip rate"
    );
}

#[test]
fn robustness_decreases_as_hdc_precision_grows() {
    let (train_x, train_y, test_x, test_y, width, classes) = prepared();
    let config = CyberHdConfig::builder(width, classes)
        .dimension(512)
        .retrain_epochs(5)
        .regeneration_rate(0.2)
        .seed(7)
        .build()
        .unwrap();
    let model = CyberHdTrainer::new(config).unwrap().fit_view(train_x.view(), &train_y).unwrap();

    let loss_at = |bits: BitWidth| {
        let deployed = model.quantize(bits);
        let clean = deployed.accuracy_view(test_x.view(), &test_y).unwrap();
        (clean - mean_corrupted_accuracy(&deployed, &test_x, &test_y, 0.15)).max(0.0)
    };
    let loss_1 = loss_at(BitWidth::B1);
    let loss_8 = loss_at(BitWidth::B8);
    assert!(
        loss_1 <= loss_8 + 0.02,
        "1-bit deployment (loss {loss_1:.3}) should be at least as robust as 8-bit ({loss_8:.3})"
    );
}
