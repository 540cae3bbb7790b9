//! Benchmarks of the non-HDC baselines (MLP and linear SVM) on the same
//! corpus sizes as the HDC training benchmarks, so the relative training
//! costs behind Fig. 4 can be read directly from `cargo bench` output.

use baselines::mlp::{Mlp, MlpConfig};
use baselines::svm::{LinearSvm, SvmConfig};
use baselines::Classifier;
use bench::prepare_dataset;
use criterion::{criterion_group, criterion_main, Criterion};
use nids_data::DatasetKind;
use std::hint::black_box;

fn bench_baseline_training(c: &mut Criterion) {
    let data = prepare_dataset(DatasetKind::NslKdd, 1_500, 31).expect("dataset generation");

    let mut group = c.benchmark_group("baseline_training_1500_flows");
    group.sample_size(10);
    group.bench_function("mlp_2x256_3_epochs", |bencher| {
        bencher.iter(|| {
            let config = MlpConfig::new(data.input_width, data.num_classes)
                .hidden_layers(vec![256, 256])
                .epochs(3)
                .seed(1);
            let mut mlp = Mlp::new(config).unwrap();
            mlp.fit_view(data.train_x.view(), &data.train_y).unwrap();
            black_box(mlp)
        })
    });
    group.bench_function("svm_linear_5_epochs", |bencher| {
        bencher.iter(|| {
            let config = SvmConfig::new(data.input_width, data.num_classes).epochs(5).seed(1);
            let mut svm = LinearSvm::new(config).unwrap();
            svm.fit_view(data.train_x.view(), &data.train_y).unwrap();
            black_box(svm)
        })
    });
    group.finish();

    // Per-flow inference.
    let query = data.test_x.view().row(0).to_vec();
    let mut mlp = Mlp::new(
        MlpConfig::new(data.input_width, data.num_classes).hidden_layers(vec![256, 256]).epochs(3),
    )
    .unwrap();
    mlp.fit_view(data.train_x.view(), &data.train_y).unwrap();
    let mut svm =
        LinearSvm::new(SvmConfig::new(data.input_width, data.num_classes).epochs(5)).unwrap();
    svm.fit_view(data.train_x.view(), &data.train_y).unwrap();
    c.bench_function("mlp_single_flow_inference", |bencher| {
        bencher.iter(|| black_box(mlp.predict(&query).unwrap()))
    });
    c.bench_function("svm_single_flow_inference", |bencher| {
        bencher.iter(|| black_box(svm.predict(&query).unwrap()))
    });
}

criterion_group!(benches, bench_baseline_training);
criterion_main!(benches);
