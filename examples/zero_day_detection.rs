//! Zero-day awareness: open-set rejection plus detection-oriented metrics.
//!
//! Trains CyberHD with one attack family deliberately *held out* (simulating
//! an attack that did not exist at training time), calibrates per-class
//! similarity thresholds, and then measures
//!
//! * how often the unseen family is flagged as "unknown traffic",
//! * the detection rate / false-alarm rate of the closed-set part,
//! * the ROC curve of the binary benign-vs-attack decision.
//!
//! ```text
//! cargo run --example zero_day_detection --release
//! ```

use cyberhd_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = DatasetKind::UnswNb15;
    let dataset = kind.generate(&SyntheticConfig::new(6_000, 31).difficulty(1.6))?;
    let schema = dataset.schema().clone();
    let (train, test) = train_test_split(&dataset, 0.3, 31)?;
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax)?;
    let width = preprocessor.output_width();
    let train_x = BatchBuffer::from_data(preprocessor.transform_matrix(&train)?, width)?;
    let test_x = BatchBuffer::from_data(preprocessor.transform_matrix(&test)?, width)?;

    // Hold out the "Fuzzers" family (class 3) from training entirely.
    let held_out = 3usize;
    let held_out_name = schema.classes()[held_out].clone();
    let mut known_x = BatchBuffer::with_width(width)?;
    let mut known_y = Vec::new();
    for (x, &y) in train_x.view().iter_rows().zip(train.labels()) {
        if y != held_out {
            known_x.push_row().copy_from_slice(x);
            known_y.push(if y > held_out { y - 1 } else { y });
        }
    }
    println!(
        "training on {} flows covering {} of {} classes (held out: {held_out_name})",
        known_x.rows(),
        schema.num_classes() - 1,
        schema.num_classes()
    );

    let config = CyberHdConfig::builder(width, schema.num_classes() - 1)
        .dimension(512)
        .retrain_epochs(8)
        .regeneration_rate(0.2)
        .seed(2)
        .build()?;
    let model = CyberHdTrainer::new(config)?.fit_view(known_x.view(), &known_y)?;
    let detector = OpenSetDetector::calibrate_view(model, known_x.view(), &known_y, 0.08)?;

    // Closed-set quality on the known classes + open-set rate on the held-out family.
    let mut predictions = Vec::new();
    let mut labels_binary = Vec::new();
    let mut attack_scores = Vec::new();
    let mut novel_flagged = 0usize;
    let mut novel_total = 0usize;
    let mut known_flagged = 0usize;
    let mut known_total = 0usize;
    for (x, &y) in test_x.view().iter_rows().zip(test.labels()) {
        let prediction = detector.predict(x)?;
        if y == held_out {
            novel_total += 1;
            if prediction.is_unknown() {
                novel_flagged += 1;
            }
            continue;
        }
        known_total += 1;
        if prediction.is_unknown() {
            known_flagged += 1;
        }
        let remapped = if y > held_out { y - 1 } else { y };
        // Binary benign-vs-attack view (class 0 is benign everywhere).
        let predicted_class = prediction.class().unwrap_or(1);
        predictions.push(usize::from(predicted_class != 0));
        labels_binary.push(usize::from(remapped != 0));
        // Attack score: margin of the best attack class over the benign class.
        let (_, scores) = detector.model().predict_with_scores(x)?;
        let best_attack = scores[1..].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        attack_scores.push((best_attack - scores[0]) as f64);
    }

    println!(
        "\nopen-set behaviour: {:.1}% of unseen '{held_out_name}' flows flagged as unknown, \
         {:.1}% of known traffic rejected",
        100.0 * novel_flagged as f64 / novel_total.max(1) as f64,
        100.0 * known_flagged as f64 / known_total.max(1) as f64
    );

    let counts = DetectionCounts::from_multiclass(&predictions, &labels_binary, 0)?;
    println!("\nclosed-set detection quality (benign vs. attack):");
    println!("  detection rate:   {:.2}%", counts.detection_rate() * 100.0);
    println!("  false-alarm rate: {:.2}%", counts.false_alarm_rate() * 100.0);
    println!("  attack-class F1:  {:.3}", counts.f1());

    let actual_attack: Vec<bool> = labels_binary.iter().map(|&l| l != 0).collect();
    let roc = RocCurve::from_scores(&attack_scores, &actual_attack)?;
    println!("  ROC AUC:          {:.3}", roc.auc());
    println!(
        "  detection rate at ≤1% false alarms: {:.2}%",
        roc.detection_rate_at_false_alarm(0.01) * 100.0
    );
    Ok(())
}
