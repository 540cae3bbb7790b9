//! Fig. 5 reproduction — robustness against random bit flips.
//!
//! Trains the DNN and CyberHD on an NSL-KDD stand-in, deploys CyberHD at
//! 1/2/4/8-bit precision, then flips a fraction of the stored model bits
//! (1%, 2%, 5%, 10%, 15%) and reports the resulting *accuracy loss* relative
//! to the clean model — the exact quantity of Fig. 5.  Every cell is averaged
//! over several independent injection seeds.
//!
//! Run with `cargo run -p bench --bin fig5 --release`.

use baselines::Classifier;
use bench::{paper, prepare_dataset, run_cyberhd, run_mlp, ExperimentScale};
use eval::Table;
use fault_inject::BitFlipInjector;
use hdc::BitWidth;
use nids_data::DatasetKind;

const TRIALS: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("== Fig. 5: robustness of CyberHD vs. the DNN under random bit flips ==");
    println!(
        "dataset: NSL-KDD stand-in, {} flows, {TRIALS} injection trials per cell\n",
        scale.samples()
    );

    let data = prepare_dataset(DatasetKind::NslKdd, scale.samples(), 555)?;

    eprintln!("[fig5] training DNN ...");
    let (mlp_run, mlp) = run_mlp(&data, scale.mlp_epochs(), 1)?;
    eprintln!("[fig5] training CyberHD ...");
    let (cyber_run, cyber) = run_cyberhd(
        &data,
        paper::CYBERHD_DIMENSION,
        paper::REGENERATION_RATE,
        scale.hdc_epochs(),
        "CyberHD",
        1,
    )?;
    println!(
        "clean accuracy: DNN {:.2}%, CyberHD (full precision) {:.2}%\n",
        mlp_run.accuracy * 100.0,
        cyber_run.accuracy * 100.0
    );

    let mut table = Table::new(vec![
        "model / precision".into(),
        "1.0%".into(),
        "2.0%".into(),
        "5.0%".into(),
        "10.0%".into(),
        "15.0%".into(),
    ]);

    // DNN row: flip bits of the trained f32 weights.
    let mut dnn_row = vec!["DNN (f32 weights)".to_string()];
    for &rate in &paper::ERROR_RATES {
        let mut losses = Vec::new();
        for trial in 0..TRIALS {
            let mut corrupted = mlp.clone();
            let mut injector = BitFlipInjector::new(rate, 7_000 + trial)?;
            injector.flip_mlp(&mut corrupted);
            let predictions = corrupted.predict_batch_view(data.test_x.view())?;
            let accuracy = eval::metrics::accuracy(&predictions, &data.test_y)?;
            losses.push((mlp_run.accuracy - accuracy).max(0.0) * 100.0);
        }
        dnn_row.push(format!("{:.1}%", losses.iter().sum::<f64>() / losses.len() as f64));
    }
    table.add_row(dnn_row);

    // CyberHD rows: flip bits of the quantized class hypervectors.
    for width in [BitWidth::B1, BitWidth::B2, BitWidth::B4, BitWidth::B8] {
        let deployed = cyber.quantize(width);
        let clean_accuracy = deployed.accuracy_view(data.test_x.view(), &data.test_y)?;
        let mut row = vec![format!("CyberHD ({width})")];
        for &rate in &paper::ERROR_RATES {
            let mut losses = Vec::new();
            for trial in 0..TRIALS {
                let mut corrupted = deployed.clone();
                let mut injector =
                    BitFlipInjector::new(rate, 9_000 + trial * 31 + u64::from(width.bits()))?;
                injector.flip_quantized_set(corrupted.classes_mut());
                let accuracy = corrupted.accuracy_view(data.test_x.view(), &data.test_y)?;
                losses.push((clean_accuracy - accuracy).max(0.0) * 100.0);
            }
            row.push(format!("{:.1}%", losses.iter().sum::<f64>() / losses.len() as f64));
        }
        table.add_row(row);
        eprintln!(
            "[fig5] CyberHD at {width}: clean quantized accuracy {:.2}%",
            clean_accuracy * 100.0
        );
    }

    println!("-- accuracy LOSS under random bit flips (lower is better) --");
    println!("{table}");
    println!(
        "paper reference: DNN loses 3.9/10.7/17.8/32.1/41.2%; CyberHD at 1 bit loses\n\
         0.0/0.0/1.0/3.1/4.1%, and the loss grows with precision (8-bit worst among HDC rows)."
    );
    Ok(())
}
