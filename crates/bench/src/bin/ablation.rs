//! Supporting ablations (not a paper figure).
//!
//! Three studies that isolate CyberHD's design choices:
//!
//! 1. **Regeneration-rate sweep** — accuracy and effective dimensionality as
//!    the per-epoch drop rate R varies (R = 0 is baselineHD).
//! 2. **Encoder comparison** — the nonlinear RBF encoder vs. the static
//!    ID–level and record (linear projection) encoders at the same
//!    dimensionality.
//! 3. **Dimensionality sweep** — baselineHD accuracy as a function of its
//!    physical dimensionality, against CyberHD fixed at 0.5k, illustrating
//!    the "8x lower physical dimensionality" claim.
//!
//! Run with `cargo run -p bench --bin ablation --release`.

use bench::{paper, prepare_dataset, run_cyberhd, ExperimentScale};
use cyberhd::{CyberHdConfig, CyberHdTrainer, EncoderKind};
use eval::Table;
use nids_data::DatasetKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    let samples = scale.samples().min(8_000);
    let epochs = scale.hdc_epochs();
    println!("== Ablation studies (supporting; not a paper figure) ==");
    println!("dataset: CIC-IDS-2017 stand-in, {samples} flows\n");
    let data = prepare_dataset(DatasetKind::CicIds2017, samples, 777)?;

    // 1. Regeneration-rate sweep.
    let mut sweep = Table::new(vec![
        "regeneration rate".into(),
        "test accuracy (%)".into(),
        "effective D*".into(),
        "regenerated dims".into(),
    ]);
    for &rate in &[0.0f32, 0.05, 0.1, 0.2, 0.3, 0.4] {
        let (run, model) =
            run_cyberhd(&data, paper::CYBERHD_DIMENSION, rate, epochs, "CyberHD", 42)?;
        sweep.add_row(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{:.2}", run.accuracy * 100.0),
            format!("{}", model.effective_dimension()),
            format!("{}", model.report().regeneration.total_regenerated),
        ]);
    }
    println!("-- 1. regeneration-rate sweep (CyberHD, D = 0.5k) --");
    println!("{sweep}");

    // 2. Encoder comparison at the same dimensionality (no regeneration so
    //    the static encoders are comparable).
    let mut encoders = Table::new(vec!["encoder".into(), "test accuracy (%)".into()]);
    for (label, kind) in [
        ("RBF (nonlinear random features)", EncoderKind::Rbf),
        ("ID-level (static)", EncoderKind::IdLevel),
        ("Record / linear projection (static)", EncoderKind::Record),
    ] {
        let config = CyberHdConfig::builder(data.input_width, data.num_classes)
            .dimension(paper::CYBERHD_DIMENSION)
            .encoder(kind)
            .regeneration_rate(0.0)
            .retrain_epochs(epochs)
            .learning_rate(0.05)
            .seed(43)
            .build()?;
        let model = CyberHdTrainer::new(config)?.fit_view(data.train_x.view(), &data.train_y)?;
        let accuracy = model.accuracy_view(data.test_x.view(), &data.test_y)?;
        encoders.add_row(vec![label.to_string(), format!("{:.2}", accuracy * 100.0)]);
    }
    println!("-- 2. encoder comparison (D = 0.5k, no regeneration) --");
    println!("{encoders}");

    // 3. BaselineHD dimensionality sweep vs. CyberHD at 0.5k.
    let (cyber_run, cyber_model) = run_cyberhd(
        &data,
        paper::CYBERHD_DIMENSION,
        paper::REGENERATION_RATE,
        epochs,
        "CyberHD",
        44,
    )?;
    let mut dims =
        Table::new(vec!["model".into(), "physical D".into(), "test accuracy (%)".into()]);
    for &dimension in &[256usize, 512, 1024, 2048, 4096] {
        let (run, _) = run_cyberhd(&data, dimension, 0.0, epochs, "baselineHD", 44)?;
        dims.add_row(vec![
            "Baseline HDC".into(),
            format!("{dimension}"),
            format!("{:.2}", run.accuracy * 100.0),
        ]);
    }
    dims.add_row(vec![
        "CyberHD".into(),
        format!("{} (D* = {})", paper::CYBERHD_DIMENSION, cyber_model.effective_dimension()),
        format!("{:.2}", cyber_run.accuracy * 100.0),
    ]);
    println!("-- 3. baselineHD dimensionality sweep vs. CyberHD at 0.5k --");
    println!("{dims}");
    Ok(())
}
