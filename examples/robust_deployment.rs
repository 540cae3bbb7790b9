//! Robust, quantized edge deployment — a miniature of Table I and Fig. 5.
//!
//! Trains CyberHD once, deploys it at every bitwidth from 32 down to 1 bit,
//! prices each deployment with the CPU/FPGA energy models, and then measures
//! how gracefully each deployment degrades when 5% of its model bits are
//! flipped.
//!
//! ```text
//! cargo run --example robust_deployment --release
//! ```

use cyberhd_suite::prelude::*;
use eval::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(4_000, 9).difficulty(1.4))?;
    let (train, test) = train_test_split(&dataset, 0.25, 9)?;
    let preprocessor = Preprocessor::fit(&train, Normalization::MinMax)?;
    let width = preprocessor.output_width();
    let train_x = BatchBuffer::from_data(preprocessor.transform_matrix(&train)?, width)?;
    let test_x = BatchBuffer::from_data(preprocessor.transform_matrix(&test)?, width)?;
    let (train_y, test_y) = (train.labels(), test.labels());

    let config = CyberHdConfig::builder(width, dataset.num_classes())
        .dimension(512)
        .retrain_epochs(10)
        .regeneration_rate(0.2)
        .seed(5)
        .build()?;
    let model = CyberHdTrainer::new(config)?.fit_view(train_x.view(), train_y)?;
    let full_accuracy = model.accuracy_view(test_x.view(), test_y)?;
    println!("full-precision CyberHD accuracy: {:.2}%\n", full_accuracy * 100.0);

    let cpu = CpuModel::default();
    let fpga = FpgaModel::default();
    let mut table = Table::new(vec![
        "deployment".into(),
        "clean accuracy (%)".into(),
        "accuracy after 5% bit flips (%)".into(),
        "model size (bits)".into(),
        "FPGA vs CPU energy (x)".into(),
    ]);

    for width in
        [BitWidth::B32, BitWidth::B16, BitWidth::B8, BitWidth::B4, BitWidth::B2, BitWidth::B1]
    {
        let deployed = model.quantize(width);
        let clean = deployed.accuracy_view(test_x.view(), test_y)?;

        // Flip 5% of the stored model bits (averaged over three seeds).
        let mut corrupted_accuracy = 0.0;
        for trial in 0..3u64 {
            let mut corrupted = deployed.clone();
            let mut injector = BitFlipInjector::new(0.05, 100 + trial)?;
            injector.flip_quantized_set(corrupted.classes_mut());
            corrupted_accuracy += corrupted.accuracy_view(test_x.view(), test_y)?;
        }
        corrupted_accuracy /= 3.0;

        // Price one training run of this configuration on both platforms.
        let workload = HdcWorkload::new(
            model.dimension(),
            width.bits(),
            model.num_classes(),
            preprocessor.output_width(),
            train_x.rows(),
            10,
        )?;
        let fpga_vs_cpu =
            fpga.training_cost(&workload).efficiency_over(&cpu.training_cost(&workload));

        table.add_row(vec![
            format!("CyberHD @ {width}"),
            format!("{:.2}", clean * 100.0),
            format!("{:.2}", corrupted_accuracy * 100.0),
            format!("{}", deployed.storage_bits()),
            format!("{:.1}", fpga_vs_cpu),
        ]);
    }
    println!("{table}");
    println!("expected shape: low-bit deployments shrink the model by up to 32x, keep accuracy");
    println!("within a few points, degrade most gracefully under bit flips (1-bit best), and");
    println!("benefit the most from the FPGA's narrow-datapath parallelism.");
    Ok(())
}
