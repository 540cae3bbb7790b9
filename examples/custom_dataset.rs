//! Bring your own data: define a custom schema, load flows from CSV text and
//! train CyberHD on them — the **expert path** that wires the preprocessor,
//! config builder and trainer by hand instead of going through the sealed
//! `Detector` artifact (see `examples/quickstart.rs` for that).  Use this
//! path when an experiment needs access to the internal seams: custom
//! transforms, per-epoch reports, encoder surgery.
//!
//! The same `loader::parse_csv` path accepts the real NSL-KDD / UNSW-NB15 /
//! CIC-IDS CSV files when pointed at their schemas; here a small IoT-gateway
//! style schema is defined inline so the example is self-contained.
//!
//! ```text
//! cargo run --example custom_dataset --release
//! ```

use cyberhd_suite::prelude::*;
use nids_data::loader::{parse_csv, CsvOptions};
use nids_data::schema::{FeatureKind, FeatureSpec, Schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the columns of the custom corpus.
    let schema = Schema::new(
        "iot-gateway",
        vec![
            FeatureSpec::new("flow_duration_s", FeatureKind::numeric(0.0, 600.0)),
            FeatureSpec::new("protocol", FeatureKind::categorical(["tcp", "udp", "mqtt", "coap"])),
            FeatureSpec::new("packets", FeatureKind::numeric(0.0, 10_000.0)),
            FeatureSpec::new("bytes", FeatureKind::numeric(0.0, 1.0e7)),
            FeatureSpec::new("distinct_ports", FeatureKind::numeric(0.0, 1024.0)),
            FeatureSpec::new("failed_handshake_rate", FeatureKind::numeric(0.0, 1.0)),
        ],
        vec!["benign".into(), "scan".into(), "flood".into()],
    )?;

    // 2. Load flows from CSV (in a real deployment this comes from a file via
    //    `loader::load_csv_file`).
    let csv = "\
flow_duration_s,protocol,packets,bytes,distinct_ports,failed_handshake_rate,label
12.0,mqtt,40,5200,1,0.00,benign
300.5,tcp,910,120000,2,0.01,benign
0.8,tcp,25,1400,310,0.92,scan
1.1,tcp,30,1600,422,0.88,scan
4.0,udp,8800,9800000,1,0.05,flood
3.2,udp,9400,9900000,1,0.02,flood
15.0,coap,55,6100,1,0.00,benign
0.9,tcp,22,1300,275,0.95,scan
2.8,udp,9100,9700000,2,0.03,flood
180.0,tcp,600,88000,3,0.00,benign
";
    let mut dataset = parse_csv(&schema, csv, CsvOptions::default())?;
    println!("loaded {} labelled flows with schema {:?}", dataset.len(), dataset.schema().name());

    // 3. Augment the tiny corpus with synthetic flows built from the same
    //    schema, so there is enough data to train on.
    let profiles = nids_data::traffic::profiles_for(
        &schema,
        &[
            ("benign", nids_data::traffic::AttackKind::Normal, 6.0),
            ("scan", nids_data::traffic::AttackKind::PortScan, 2.0),
            ("flood", nids_data::traffic::AttackKind::Ddos, 2.0),
        ],
        0xB0B,
    );
    let synthetic =
        nids_data::synth::generate(&schema, &profiles, &SyntheticConfig::new(2_000, 4))?;
    dataset.extend_from(&synthetic)?;
    println!(
        "after synthetic augmentation: {} flows, class counts {:?}",
        dataset.len(),
        dataset.class_counts()
    );

    // 4. Standard pipeline: split, preprocess, train, evaluate.
    let (train, test) = train_test_split(&dataset, 0.3, 4)?;
    let preprocessor = Preprocessor::fit(&train, Normalization::ZScore)?;
    let width = preprocessor.output_width();
    let train_x = BatchBuffer::from_data(preprocessor.transform_matrix(&train)?, width)?;
    let test_x = BatchBuffer::from_data(preprocessor.transform_matrix(&test)?, width)?;

    let config = CyberHdConfig::builder(width, schema.num_classes())
        .dimension(256)
        .retrain_epochs(8)
        .regeneration_rate(0.15)
        .seed(12)
        .build()?;
    let model = CyberHdTrainer::new(config)?.fit_view(train_x.view(), train.labels())?;
    let report = model.evaluate_view(test_x.view(), test.labels())?.report();
    println!("\nheld-out performance on the custom corpus:\n{report}");

    // 5. Classify the CSV rows themselves.
    for (record, &label) in dataset.records().iter().take(5).zip(dataset.labels()) {
        let dense = preprocessor.transform_record(record)?;
        let predicted = model.predict(&dense)?;
        println!(
            "flow {:?} -> predicted {:<6} (true {})",
            &record[..3],
            schema.classes()[predicted],
            schema.classes()[label]
        );
    }
    Ok(())
}
