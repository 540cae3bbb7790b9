//! Integration tests for the NIDS-operational extensions: binary
//! detection metrics on top of the multi-class models, open-set rejection of
//! unseen attack families, and streaming adaptation under concept drift.

use cyberhd_suite::prelude::*;

fn prepare_nsl_kdd(
    samples: usize,
    seed: u64,
) -> (BatchBuffer, Vec<usize>, BatchBuffer, Vec<usize>, Preprocessor, usize) {
    let dataset = DatasetKind::NslKdd
        .generate(&SyntheticConfig::new(samples, seed).difficulty(1.6))
        .expect("generation succeeds");
    let (train, test) = train_test_split(&dataset, 0.25, seed).expect("split succeeds");
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax).expect("fit succeeds");
    let matrix = |d: &Dataset| {
        let data = preprocessor.transform_matrix(d).expect("transform");
        BatchBuffer::from_data(data, preprocessor.output_width()).expect("matrix")
    };
    let (train_x, test_x) = (matrix(&train), matrix(&test));
    let (train_y, test_y) = (train.labels().to_vec(), test.labels().to_vec());
    (train_x, train_y, test_x, test_y, preprocessor, dataset.num_classes())
}

fn train(
    train_x: BatchView<'_>,
    train_y: &[usize],
    width: usize,
    classes: usize,
    seed: u64,
) -> CyberHdModel {
    let config = CyberHdConfig::builder(width, classes)
        .dimension(256)
        .retrain_epochs(5)
        .regeneration_rate(0.2)
        .learning_rate(0.05)
        .seed(seed)
        .build()
        .expect("valid config");
    CyberHdTrainer::new(config).expect("trainer").fit_view(train_x, train_y).expect("training")
}

#[test]
fn detection_metrics_show_high_detection_and_low_false_alarms() {
    let (train_x, train_y, test_x, test_y, preprocessor, classes) = prepare_nsl_kdd(2_000, 3);
    let model = train(train_x.view(), &train_y, preprocessor.output_width(), classes, 1);
    let predictions = model.predict_batch_view(test_x.view()).unwrap();

    // Class 0 is benign in every schema of this repository.
    let counts = DetectionCounts::from_multiclass(&predictions, &test_y, 0).unwrap();
    assert!(counts.detection_rate() > 0.85, "detection rate {}", counts.detection_rate());
    assert!(counts.false_alarm_rate() < 0.15, "false alarm rate {}", counts.false_alarm_rate());
    assert!(counts.f1() > 0.8);

    // ROC from a continuous attack score: 1 - similarity-to-benign margin.
    let mut scores = Vec::new();
    let mut is_attack = Vec::new();
    for (features, &label) in test_x.view().iter_rows().zip(&test_y) {
        let (_, class_scores) = model.predict_with_scores(features).unwrap();
        let best_attack =
            class_scores[1..].iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        scores.push(best_attack - class_scores[0] as f64);
        is_attack.push(label != 0);
    }
    let roc = RocCurve::from_scores(&scores, &is_attack).unwrap();
    assert!(roc.auc() > 0.9, "AUC {}", roc.auc());
    assert!(roc.detection_rate_at_false_alarm(0.1) > 0.7);
}

#[test]
fn open_set_detector_flags_a_held_out_attack_family() {
    let (train_x, train_y, test_x, test_y, preprocessor, classes) = prepare_nsl_kdd(2_500, 9);

    // Hold out the "probe" family (class 2) entirely during training.
    let held_out = 2usize;
    let mut known_x = BatchBuffer::with_width(train_x.width()).unwrap();
    let mut known_y = Vec::new();
    for (x, &y) in train_x.view().iter_rows().zip(&train_y) {
        if y != held_out {
            known_x.push_row().copy_from_slice(x);
            // Remap labels above the held-out class down by one.
            known_y.push(if y > held_out { y - 1 } else { y });
        }
    }
    let model = train(known_x.view(), &known_y, preprocessor.output_width(), classes - 1, 5);
    let detector = OpenSetDetector::calibrate_view(model, known_x.view(), &known_y, 0.08).unwrap();

    let mut novel_flagged = 0usize;
    let mut novel_total = 0usize;
    let mut known_flagged = 0usize;
    let mut known_total = 0usize;
    for (x, &y) in test_x.view().iter_rows().zip(&test_y) {
        let prediction = detector.predict(x).unwrap();
        if y == held_out {
            novel_total += 1;
            if prediction.is_unknown() {
                novel_flagged += 1;
            }
        } else {
            known_total += 1;
            if prediction.is_unknown() {
                known_flagged += 1;
            }
        }
    }
    assert!(novel_total > 0 && known_total > 0);
    let novel_rate = novel_flagged as f64 / novel_total as f64;
    let known_rate = known_flagged as f64 / known_total as f64;
    assert!(
        novel_rate > known_rate,
        "the held-out attack family should be flagged as unknown more often \
         (novel {novel_rate:.2} vs known {known_rate:.2})"
    );
    assert!(known_rate < 0.35, "known traffic should mostly be accepted, got {known_rate:.2}");
}

#[test]
fn online_learner_recovers_from_an_attack_surge() {
    let kind = DatasetKind::NslKdd;
    let schema = kind.schema();
    let profiles = kind.profiles();
    let phases = vec![
        DriftPhase::stationary(1_200, profiles.len()),
        // A DoS campaign: class 1 surges 25x for a while.
        DriftPhase::surge(1_200, profiles.len(), 1, 25.0),
        DriftPhase::stationary(600, profiles.len()),
    ];
    let stream = DriftStream::generate(&schema, &profiles, &phases, 17).unwrap();
    assert_eq!(stream.num_phases(), 3);

    // Fit the preprocessor on the first (stationary) phase only.
    let phase0 = stream.dataset().subset(&(0..1_200).collect::<Vec<_>>()).unwrap();
    let preprocessor = Preprocessor::fit(&phase0, Normalization::MinMax).unwrap();

    let config = CyberHdConfig::builder(preprocessor.output_width(), schema.num_classes())
        .dimension(256)
        .learning_rate(0.06)
        .regeneration_rate(0.1)
        .seed(23)
        .build()
        .unwrap();
    let mut learner = OnlineLearner::new(config).unwrap();

    let mut per_phase_correct = [0usize; 3];
    let mut per_phase_total = [0usize; 3];
    for (record, label, phase) in stream.iter() {
        let dense = preprocessor.transform_record(record).unwrap();
        let prediction = learner.observe(&dense, label).unwrap();
        per_phase_total[phase] += 1;
        if prediction == label {
            per_phase_correct[phase] += 1;
        }
    }
    let accuracy_of =
        |phase: usize| per_phase_correct[phase] as f64 / per_phase_total[phase] as f64;
    // The learner keeps working through the surge and after it.
    assert!(accuracy_of(1) > 0.7, "accuracy during the surge {}", accuracy_of(1));
    assert!(accuracy_of(2) > 0.7, "accuracy after the surge {}", accuracy_of(2));
    assert_eq!(learner.samples_seen(), 3_000);
}
