//! Fig. 4 reproduction — training time and inference latency.
//!
//! The paper compares the efficiency of the models that reach comparable
//! accuracy in Fig. 3: the DNN, the SVM, baselineHD at its effective
//! dimensionality (4k) and CyberHD at its physical dimensionality (0.5k).
//! This binary measures wall-clock training time and inference latency for
//! the same four models on all four (synthetic) datasets and prints both the
//! per-dataset numbers and the aggregate speed-ups.  A fifth row, CyberHD
//! with the regeneration rate set to zero, isolates what regeneration adds
//! to CyberHD's training time.
//!
//! Run with `cargo run -p bench --bin fig4 --release`.

use bench::{paper, prepare_dataset, run_cyberhd, run_mlp, run_svm, ExperimentScale};
use eval::report::{series_table, Series};
use eval::timing::geometric_mean;
use nids_data::DatasetKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("== Fig. 4: training time and inference latency (log-scale in the paper) ==");
    println!("scale: {scale:?} ({} synthetic flows per dataset)\n", scale.samples());

    let model_names =
        ["DNN", "SVM", "Baseline HDC (D=4k)", "CyberHD, R = 0", "CyberHD (this work)"];
    let mut train_series: Vec<Series> = model_names.iter().map(|n| Series::new(*n)).collect();
    let mut infer_series: Vec<Series> = model_names.iter().map(|n| Series::new(*n)).collect();
    let mut train_speedup_vs_dnn = Vec::new();
    let mut train_speedup_vs_baseline = Vec::new();
    let mut infer_speedup_vs_baseline = Vec::new();
    let mut regeneration_share = Vec::new();

    for (i, kind) in DatasetKind::ALL.iter().enumerate() {
        let seed = 200 + i as u64;
        eprintln!("[fig4] preparing {kind} ...");
        let data = prepare_dataset(*kind, scale.samples(), seed)?;

        eprintln!("[fig4] {kind}: DNN ...");
        let (mlp_run, _) = run_mlp(&data, scale.mlp_epochs(), seed)?;
        eprintln!("[fig4] {kind}: SVM ...");
        let (svm_run, _) = run_svm(&data, scale.svm_epochs(), seed)?;
        eprintln!("[fig4] {kind}: baselineHD (4k) ...");
        let (bh_large, _) = run_cyberhd(
            &data,
            paper::BASELINE_LARGE_DIMENSION,
            0.0,
            scale.hdc_epochs(),
            "Baseline HDC (D=4k)",
            seed,
        )?;
        eprintln!("[fig4] {kind}: CyberHD (0.5k, R = 0) ...");
        let (no_regeneration, _) = run_cyberhd(
            &data,
            paper::CYBERHD_DIMENSION,
            0.0,
            scale.hdc_epochs(),
            "CyberHD, R = 0",
            seed,
        )?;
        eprintln!("[fig4] {kind}: CyberHD (0.5k) ...");
        let (cyber, _) = run_cyberhd(
            &data,
            paper::CYBERHD_DIMENSION,
            paper::REGENERATION_RATE,
            scale.hdc_epochs(),
            "CyberHD",
            seed,
        )?;

        let name = kind.name();
        let runs = [&mlp_run, &svm_run, &bh_large, &no_regeneration, &cyber];
        for (series, run) in train_series.iter_mut().zip(&runs) {
            series.push(name, run.training.seconds);
        }
        for (series, run) in infer_series.iter_mut().zip(&runs) {
            series.push(name, run.inference.seconds);
        }
        train_speedup_vs_dnn.push(cyber.training.speedup_over(&mlp_run.training));
        train_speedup_vs_baseline.push(cyber.training.speedup_over(&bh_large.training));
        infer_speedup_vs_baseline.push(cyber.inference.speedup_over(&bh_large.inference));
        regeneration_share.push(
            (cyber.training.seconds - no_regeneration.training.seconds) / cyber.training.seconds,
        );
    }

    let labels: Vec<String> = DatasetKind::ALL.iter().map(|k| k.name().to_string()).collect();
    println!("-- training time (seconds) --");
    println!("{}", series_table("model", &labels, &train_series));
    println!("-- inference latency on the test split (seconds) --");
    println!("{}", series_table("model", &labels, &infer_series));

    println!("-- aggregate speed-ups (geometric mean over datasets) --");
    println!(
        "CyberHD training vs. DNN:             {:5.2}x  (paper: 2.47x)",
        geometric_mean(&train_speedup_vs_dnn).unwrap_or(0.0)
    );
    println!(
        "CyberHD training vs. baselineHD(4k):  {:5.2}x  (paper: 1.85x)",
        geometric_mean(&train_speedup_vs_baseline).unwrap_or(0.0)
    );
    println!(
        "CyberHD inference vs. baselineHD(4k): {:5.2}x  (paper: 15.29x)",
        geometric_mean(&infer_speedup_vs_baseline).unwrap_or(0.0)
    );
    println!(
        "Regeneration share of CyberHD training: {:5.1}%  (1 - R = 0 time / CyberHD time, mean \
         over datasets)",
        100.0 * regeneration_share.iter().sum::<f64>() / regeneration_share.len() as f64
    );
    println!(
        "\nNote: the paper's SVM numbers come from kernel SVMs on million-sample corpora,\n\
         where training and inference are orders of magnitude slower than every other model;\n\
         the linear-SGD SVM used here keeps the ordering but compresses that gap."
    );
    Ok(())
}
