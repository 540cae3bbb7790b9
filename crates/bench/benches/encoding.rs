//! Micro-benchmarks of the encoders: RBF vs. ID-level vs. record encoding of
//! NIDS-sized feature vectors, the symbolic n-gram encoder's dense and 1-bit
//! paths, plus the cost of single-dimension regeneration and of re-encoding
//! a block of regenerated dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc::encoder::{Encoder, IdLevelEncoder, RbfEncoder, RecordEncoder};
use hdc::{BatchView, NGramEncoder};
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

/// The language-identification shape: 64-symbol records over a 27-letter
/// alphabet, trigrams, D = 2048.  The dense arm builds the f32 count
/// profile; the sign arm packs its 1-bit majority profile.
fn bench_ngram(c: &mut Criterion) {
    const DIM: usize = 2048;
    let encoder = NGramEncoder::new(64, 27, 3, DIM, 6).unwrap();
    let sequence: Vec<f32> = (0..64).map(|i| ((i * 11 + i / 7) % 27) as f32).collect();
    let batch = BatchView::new(&sequence, 64).unwrap();
    let mut group = c.benchmark_group("ngram_encode");
    let mut profile = vec![0.0f32; DIM];
    group.bench_function("dense", |bencher| {
        bencher.iter(|| {
            encoder.encode_into(&sequence, &mut profile).unwrap();
            black_box(&profile);
        })
    });
    let mut words = vec![0u64; DIM / 64];
    let mut zero_rows = [false];
    group.bench_function("signs", |bencher| {
        bencher.iter(|| {
            encoder.encode_signs_into(batch, &mut words, &mut zero_rows).unwrap();
            black_box(&words);
        })
    });
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

criterion_group!(benches, bench_encoders, bench_ngram, bench_regeneration);
criterion_main!(benches);
