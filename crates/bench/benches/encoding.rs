//! Micro-benchmarks of the encoders: RBF vs. ID-level vs. record encoding of
//! NIDS-sized feature vectors, plus the cost of single-dimension
//! regeneration and of re-encoding a block of regenerated dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc::encoder::{Encoder, IdLevelEncoder, RbfEncoder, RecordEncoder};
use hdc::BatchView;
use std::hint::black_box;

/// A feature vector shaped like a preprocessed NSL-KDD record (~120 dense
/// columns after one-hot expansion).
fn features(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.137).sin().abs()).collect()
}

fn bench_encoders(c: &mut Criterion) {
    let input = features(120);
    let mut group = c.benchmark_group("encode_120_features");
    for &dim in &[512usize, 4096] {
        let rbf = RbfEncoder::new(120, dim, 1).unwrap();
        let id_level = IdLevelEncoder::new(120, dim, 32, 2).unwrap();
        let record = RecordEncoder::new(120, dim, 3).unwrap();
        group.bench_with_input(BenchmarkId::new("rbf", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(rbf.encode(&input).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("id_level", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(id_level.encode(&input).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("record", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(record.encode(&input).unwrap()))
        });
    }
    group.finish();
}

fn bench_regeneration(c: &mut Criterion) {
    c.bench_function("rbf_regenerate_dimension_512", |bencher| {
        let mut encoder = RbfEncoder::new(120, 512, 4).unwrap();
        let mut dim = 0usize;
        bencher.iter(|| {
            dim = (dim + 1) % 512;
            encoder.regenerate_dimension(dim).unwrap();
        })
    });
    // One regeneration round's re-encode at the paper's shape: R = 0.2 of
    // D = 512 is 102 dims, over a 512-row slice of the training matrix.
    c.bench_function("rbf_encode_dimensions_block", |bencher| {
        let encoder = RbfEncoder::new(120, 512, 5).unwrap();
        let rows = features(512 * 120);
        let batch = BatchView::new(&rows, 120).unwrap();
        let dims: Vec<usize> = (0..102).map(|i| (i * 5) % 512).collect();
        let mut block = vec![0.0f32; 512 * dims.len()];
        bencher.iter(|| {
            encoder.encode_dimensions_batch(batch, &dims, &mut block).unwrap();
            black_box(&block);
        })
    });
}

criterion_group!(benches, bench_encoders, bench_regeneration);
criterion_main!(benches);
