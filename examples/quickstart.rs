//! Quickstart: train a sealed `Detector` on a synthetic NSL-KDD stand-in,
//! serve raw flows, and ship the artifact.
//!
//! This is the deployment path the suite is built around: one builder call
//! runs preprocess → train → seal, and the resulting artifact consumes
//! **raw records** (schema values) directly — no manual preprocessing at
//! serve time.  See `examples/custom_dataset.rs` for the expert path that
//! wires the preprocessor, config and trainer by hand.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use cyberhd_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a labelled corpus with the NSL-KDD schema (41 features,
    //    5 traffic categories) and split it 75/25.
    let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(4_000, 42).difficulty(1.4))?;
    let (train, test) = train_test_split(&dataset, 0.25, 42)?;
    println!(
        "dataset: {} ({} train / {} test flows, {} classes)",
        dataset.schema().name(),
        train.len(),
        test.len(),
        dataset.num_classes()
    );

    // 2. Train the sealed artifact: preprocessing (one-hot + min-max) is
    //    fitted on the training split, CyberHD trains with 512 physical
    //    dimensions and 20% regeneration per retraining epoch.
    let (detector, elapsed) = Stopwatch::time(|| {
        Detector::builder()
            .dimension(512)
            .retrain_epochs(10)
            .regeneration_rate(0.2)
            .learning_rate(0.05)
            .seed(7)
            .train(&train)
    });
    let detector = detector?;
    let model = detector.model().expect("dense detector");
    println!(
        "trained in {:.2} s: physical D = {}, effective D* = {} ({} dimensions regenerated)",
        elapsed.as_secs_f64(),
        model.dimension(),
        model.effective_dimension(),
        model.report().regeneration.total_regenerated
    );

    // 3. Evaluate on the held-out flows — raw records in, no manual
    //    transform step.
    let report = detector.evaluate(&test)?.report();
    println!("\ntest-set performance:\n{report}");

    // 4. Classify one raw flow.
    let record = test.records()[0].as_slice();
    let verdict = detector.detect(record)?;
    println!(
        "first test flow -> class {} ({}), similarity {:.3}",
        verdict.class,
        dataset.schema().classes()[verdict.class],
        verdict.similarity
    );

    // 5. Ship the artifact: save, reload, and verify the loaded detector
    //    reproduces the verdict bit for bit.
    let path = std::env::temp_dir().join("cyberhd_quickstart.chd");
    detector.save(&path)?;
    let loaded = Detector::load(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.detect(record)?, verdict, "loaded artifact must be bit-exact");
    println!("\nartifact: {bytes} bytes on disk, loaded copy is bit-exact");
    Ok(())
}
