//! Fig. 3 reproduction — accuracy comparison.
//!
//! Trains the DNN (MLP), the linear SVM, baselineHD at the CyberHD physical
//! dimensionality (0.5k) and at the CyberHD effective dimensionality (4k),
//! and CyberHD itself (0.5k physical + regeneration) on synthetic stand-ins
//! of all four datasets, then prints the accuracy table and the aggregate
//! gaps the paper reports (CyberHD vs. SVM, vs. baselineHD(0.5k), vs.
//! baselineHD(4k)).
//!
//! Run with `cargo run -p bench --bin fig3 --release`
//! (set `CYBERHD_SCALE=paper` for the larger corpora).

use bench::{paper, prepare_dataset, run_cyberhd, run_mlp, run_svm, ExperimentScale};
use eval::report::{series_table, Series};
use nids_data::DatasetKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("== Fig. 3: accuracy of CyberHD vs. state-of-the-art ==");
    println!("scale: {scale:?} ({} synthetic flows per dataset)\n", scale.samples());

    let mut dnn = Series::new("DNN");
    let mut svm = Series::new("SVM");
    let mut baseline_small = Series::new("Baseline HDC (D=0.5k)");
    let mut baseline_large = Series::new("Baseline HDC (D=4k)");
    let mut cyberhd = Series::new("CyberHD (this work)");
    let mut effective_dims = Series::new("CyberHD effective D*");

    for (i, kind) in DatasetKind::ALL.iter().enumerate() {
        let seed = 100 + i as u64;
        eprintln!("[fig3] preparing {kind} ...");
        let data = prepare_dataset(*kind, scale.samples(), seed)?;

        eprintln!("[fig3] {kind}: training DNN ...");
        let (mlp_run, _) = run_mlp(&data, scale.mlp_epochs(), seed)?;
        eprintln!("[fig3] {kind}: training SVM ...");
        let (svm_run, _) = run_svm(&data, scale.svm_epochs(), seed)?;
        eprintln!("[fig3] {kind}: training baselineHD (0.5k) ...");
        let (bh_small, _) = run_cyberhd(
            &data,
            paper::CYBERHD_DIMENSION,
            0.0,
            scale.hdc_epochs(),
            "Baseline HDC (D=0.5k)",
            seed,
        )?;
        eprintln!("[fig3] {kind}: training baselineHD (4k) ...");
        let (bh_large, _) = run_cyberhd(
            &data,
            paper::BASELINE_LARGE_DIMENSION,
            0.0,
            scale.hdc_epochs(),
            "Baseline HDC (D=4k)",
            seed,
        )?;
        eprintln!("[fig3] {kind}: training CyberHD ...");
        let (cyber, cyber_model) = run_cyberhd(
            &data,
            paper::CYBERHD_DIMENSION,
            paper::REGENERATION_RATE,
            scale.hdc_epochs(),
            "CyberHD",
            seed,
        )?;

        let name = kind.name();
        dnn.push(name, mlp_run.accuracy * 100.0);
        svm.push(name, svm_run.accuracy * 100.0);
        baseline_small.push(name, bh_small.accuracy * 100.0);
        baseline_large.push(name, bh_large.accuracy * 100.0);
        cyberhd.push(name, cyber.accuracy * 100.0);
        effective_dims.push(name, cyber_model.effective_dimension() as f64);
    }

    let labels: Vec<String> = DatasetKind::ALL.iter().map(|k| k.name().to_string()).collect();
    let series =
        [dnn.clone(), svm.clone(), baseline_small.clone(), baseline_large.clone(), cyberhd.clone()];
    println!("{}", series_table("accuracy (%)", &labels, &series));
    println!("{}", series_table("effective dimensionality", &labels, &[effective_dims]));

    println!("-- aggregate comparison (averages over the four datasets) --");
    println!("CyberHD mean accuracy:            {:6.2}%", cyberhd.mean());
    println!("DNN mean accuracy:                {:6.2}%", dnn.mean());
    println!(
        "CyberHD - SVM:                    {:+6.2}%  (paper: +1.63%)",
        cyberhd.mean() - svm.mean()
    );
    println!(
        "CyberHD - baselineHD(0.5k):       {:+6.2}%  (paper: +4.28%)",
        cyberhd.mean() - baseline_small.mean()
    );
    println!(
        "CyberHD - baselineHD(4k):         {:+6.2}%  (paper: comparable, CyberHD uses 8x lower physical D)",
        cyberhd.mean() - baseline_large.mean()
    );
    Ok(())
}
