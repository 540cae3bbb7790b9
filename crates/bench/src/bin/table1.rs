//! Table I reproduction — bitwidth vs. effective dimensionality and
//! CPU/FPGA energy efficiency.
//!
//! Two parts:
//!
//! 1. **Accuracy-matched effective dimensionality.** For every element
//!    bitwidth (32 → 1), the harness grows the HDC dimensionality along a
//!    ladder until the *quantized* model matches the full-precision reference
//!    accuracy, reproducing the paper's "Effective D" row (narrower elements
//!    need more dimensions).
//! 2. **Energy efficiency.** The measured (and, for comparison, the paper's
//!    published) effective dimensionalities are fed into the analytical CPU
//!    and FPGA models of `hw-model`; all numbers are normalized to the 1-bit
//!    CPU configuration, exactly like Table I.
//!
//! Run with `cargo run -p bench --bin table1 --release`.

use bench::{paper, prepare_dataset, ExperimentScale};
use cyberhd::{CyberHdConfig, CyberHdTrainer};
use eval::Table;
use hdc::BitWidth;
use hw_model::{CpuModel, FpgaModel, HdcWorkload};
use nids_data::DatasetKind;

/// Dimension ladder searched for each bitwidth.
const DIMENSION_LADDER: [usize; 10] = [256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    // The accuracy-matching sweep retrains many models, so it uses a reduced
    // corpus regardless of scale; the energy model uses the paper's workload
    // sizes.
    let sweep_samples = match scale {
        ExperimentScale::Quick => 3_000,
        ExperimentScale::Paper => 8_000,
    };
    println!("== Table I: impact of bitwidth on effective dimensionality and energy efficiency ==");
    println!("sweep corpus: UNSW-NB15 stand-in, {sweep_samples} flows\n");

    let data = prepare_dataset(DatasetKind::UnswNb15, sweep_samples, 321)?;
    let epochs = 6;

    // Full-precision reference: CyberHD at the paper's physical dimension.
    let reference_accuracy = {
        let config = bench::cyberhd_config(
            &data,
            paper::CYBERHD_DIMENSION,
            paper::REGENERATION_RATE,
            epochs,
            99,
        )?;
        let model = CyberHdTrainer::new(config)?.fit_view(data.train_x.view(), &data.train_y)?;
        model.accuracy_view(data.test_x.view(), &data.test_y)?
    };
    println!(
        "full-precision reference accuracy (CyberHD, D=0.5k): {:.2}%\n",
        reference_accuracy * 100.0
    );
    // Allow a small slack below the reference when accuracy-matching.
    let target = reference_accuracy - 0.005;

    let mut measured_effective = Vec::new();
    for &bits in &paper::BITWIDTHS {
        let width = BitWidth::from_bits(bits)?;
        let mut chosen = *DIMENSION_LADDER.last().expect("ladder is non-empty");
        let mut chosen_accuracy = 0.0;
        for &dimension in &DIMENSION_LADDER {
            let config: CyberHdConfig =
                bench::cyberhd_config(&data, dimension, 0.0, epochs, 1_000 + dimension as u64)?;
            let model =
                CyberHdTrainer::new(config)?.fit_view(data.train_x.view(), &data.train_y)?;
            let quantized = model.quantize(width);
            let accuracy = quantized.accuracy_view(data.test_x.view(), &data.test_y)?;
            if accuracy >= target {
                chosen = dimension;
                chosen_accuracy = accuracy;
                break;
            }
            chosen = dimension;
            chosen_accuracy = accuracy;
        }
        eprintln!(
            "[table1] {bits:>2}-bit: effective D = {chosen} (quantized accuracy {:.2}%)",
            chosen_accuracy * 100.0
        );
        measured_effective.push((bits, chosen));
    }

    // Energy-efficiency table from the measured effective dimensionalities.
    let cpu = CpuModel::default();
    let fpga = FpgaModel::default();
    let workload_for = |dimension: usize, bits: u32| {
        HdcWorkload::new(dimension, bits, data.num_classes, data.input_width, 1_000_000, 20)
            .expect("workload parameters are valid")
    };

    let print_table = |title: &str, effective: &[(u32, usize)]| {
        let reference_dim = effective
            .iter()
            .find(|(bits, _)| *bits == 1)
            .map(|&(_, d)| d)
            .unwrap_or(paper::CYBERHD_DIMENSION);
        let reference_cost = cpu.training_cost(&workload_for(reference_dim, 1));
        let mut table = Table::new(vec![
            "metric".into(),
            "32 bits".into(),
            "16 bits".into(),
            "8 bits".into(),
            "4 bits".into(),
            "2 bits".into(),
            "1 bit".into(),
        ]);
        let mut effective_row = vec!["Effective D".to_string()];
        let mut cpu_row = vec!["CPU (normalized energy efficiency)".to_string()];
        let mut fpga_row = vec!["FPGA (normalized energy efficiency)".to_string()];
        for &(bits, dimension) in effective {
            let workload = workload_for(dimension, bits);
            effective_row.push(format!("{:.1}k", dimension as f64 / 1000.0));
            cpu_row.push(format!(
                "{:.1}x",
                cpu.training_cost(&workload).efficiency_over(&reference_cost)
            ));
            fpga_row.push(format!(
                "{:.0}x",
                fpga.training_cost(&workload).efficiency_over(&reference_cost)
            ));
        }
        table.add_row(effective_row);
        table.add_row(cpu_row);
        table.add_row(fpga_row);
        println!("-- {title} --");
        println!("{table}");
    };

    print_table("Table I from the MEASURED effective dimensionalities", &measured_effective);
    let paper_effective: Vec<(u32, usize)> =
        vec![(32, 1200), (16, 2100), (8, 3600), (4, 5600), (2, 7500), (1, 8800)];
    print_table(
        "Table I from the PAPER's published effective dimensionalities (hardware model only)",
        &paper_effective,
    );
    println!(
        "paper reference row:     Effective D 1.2k/2.1k/3.6k/5.6k/7.5k/8.8k,\n\
         CPU 6.6/4.0/2.4/1.5/1.2/1.0x, FPGA 16/24/34/31/28/26x (normalized to 1-bit CPU)."
    );
    println!(
        "\nFPGA accelerator model: 200 MHz, {:.0} W busy power (paper: < 20 W at 200 MHz).",
        fpga.busy_power_w
    );
    Ok(())
}
