//! Compare CyberHD against the DNN, SVM and static-HDC baselines on one
//! dataset — a miniature version of the paper's Fig. 3/4 on a single corpus.
//!
//! ```text
//! cargo run --example nids_comparison --release
//! ```

use cyberhd_suite::prelude::*;
use eval::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset =
        DatasetKind::CicIds2017.generate(&SyntheticConfig::new(5_000, 11).difficulty(1.4))?;
    let (train, test) = train_test_split(&dataset, 0.25, 11)?;
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax)?;
    let width = preprocessor.output_width();
    let train_x = BatchBuffer::from_data(preprocessor.transform_matrix(&train)?, width)?;
    let test_x = BatchBuffer::from_data(preprocessor.transform_matrix(&test)?, width)?;
    let (train_y, test_y) = (train.labels(), test.labels());
    let classes = dataset.num_classes();
    println!(
        "CIC-IDS-2017 stand-in: {} train / {} test flows, {classes} classes\n",
        train.len(),
        test.len()
    );

    let mut table = Table::new(vec![
        "model".into(),
        "accuracy (%)".into(),
        "train time (s)".into(),
        "inference latency (ms/flow)".into(),
    ]);

    // CyberHD (0.5k physical dimensions + regeneration).
    let config = CyberHdConfig::builder(width, classes)
        .dimension(512)
        .retrain_epochs(10)
        .regeneration_rate(0.2)
        .learning_rate(0.05)
        .seed(1)
        .build()?;
    let (model, train_time) =
        Stopwatch::time(|| CyberHdTrainer::new(config)?.fit_view(train_x.view(), train_y));
    let model = model?;
    let (predictions, infer_time) = Stopwatch::time(|| model.predict_batch_view(test_x.view()));
    let cyber_accuracy = accuracy(&predictions?, test_y)?;
    table.add_row(vec![
        format!("CyberHD (D=0.5k, D*={})", model.effective_dimension()),
        format!("{:.2}", cyber_accuracy * 100.0),
        format!("{:.2}", train_time.as_secs_f64()),
        format!("{:.3}", infer_time.as_secs_f64() * 1e3 / test_x.rows() as f64),
    ]);

    // Static baselineHD at 4k dimensions: the same trainer, regeneration off.
    let config = CyberHdConfig::builder(width, classes)
        .dimension(4096)
        .retrain_epochs(10)
        .regeneration_rate(0.0)
        .learning_rate(0.05)
        .seed(1)
        .build()?;
    let (baseline_model, train_time) =
        Stopwatch::time(|| CyberHdTrainer::new(config)?.fit_view(train_x.view(), train_y));
    let baseline_model = baseline_model?;
    let (predictions, infer_time) =
        Stopwatch::time(|| baseline_model.predict_batch_view(test_x.view()));
    table.add_row(vec![
        "Baseline HDC (D=4k, static)".into(),
        format!("{:.2}", accuracy(&predictions?, test_y)? * 100.0),
        format!("{:.2}", train_time.as_secs_f64()),
        format!("{:.3}", infer_time.as_secs_f64() * 1e3 / test_x.rows() as f64),
    ]);

    // DNN (MLP 2x256).
    let mut mlp =
        Mlp::new(MlpConfig::new(width, classes).hidden_layers(vec![256, 256]).epochs(15).seed(1))?;
    let (fit, train_time) = Stopwatch::time(|| mlp.fit_view(train_x.view(), train_y));
    fit?;
    let (predictions, infer_time) = Stopwatch::time(|| mlp.predict_batch_view(test_x.view()));
    table.add_row(vec![
        "DNN (MLP 2x256)".into(),
        format!("{:.2}", accuracy(&predictions?, test_y)? * 100.0),
        format!("{:.2}", train_time.as_secs_f64()),
        format!("{:.3}", infer_time.as_secs_f64() * 1e3 / test_x.rows() as f64),
    ]);

    // Linear SVM.
    let mut svm = LinearSvm::new(SvmConfig::new(width, classes).epochs(15).seed(1))?;
    let (fit, train_time) = Stopwatch::time(|| svm.fit_view(train_x.view(), train_y));
    fit?;
    let (predictions, infer_time) = Stopwatch::time(|| svm.predict_batch_view(test_x.view()));
    table.add_row(vec![
        "SVM (linear, OvR)".into(),
        format!("{:.2}", accuracy(&predictions?, test_y)? * 100.0),
        format!("{:.2}", train_time.as_secs_f64()),
        format!("{:.3}", infer_time.as_secs_f64() * 1e3 / test_x.rows() as f64),
    ]);

    println!("{table}");
    println!("expected shape (paper Fig. 3/4): CyberHD ≈ DNN ≈ baselineHD(4k) in accuracy,");
    println!("while training and classifying markedly faster than both larger models.");
    Ok(())
}
