//! The fused batched inference engine.
//!
//! The serial hot path of the original reproduction
//! (`CyberHdModel::predict` in a loop) paid four avoidable costs per sample:
//! a fresh `Hypervector` allocation, a fresh score vector allocation, one
//! full pass over the encoder's base matrix per sample, and a recomputation
//! of every class norm per query.  This module fuses the encode→score
//! pipeline over contiguous chunks of the batch instead:
//!
//! 1. the batch arrives as a zero-copy row-major [`hdc::BatchView`], is
//!    split into [`CHUNK_ROWS`]-row sub-views (no data movement), and fanned
//!    out across scoped threads ([`hdc::parallel`], sized by
//!    `CYBERHD_THREADS`);
//! 2. each chunk is encoded into one reusable chunk-local `rows × dim`
//!    buffer with the encoder's cache-blocked batch kernel (**zero
//!    per-sample allocations**, base matrix streamed once per sample block
//!    instead of once per sample);
//! 3. each encoded row is scored against all classes with class norms that
//!    were computed **once per batch** ([`AssociativeMemory::class_norms`]);
//! 4. the 1-bit deployment path packs class hypervectors into `u64` words
//!    once per batch, encodes queries straight to packed sign bits with the
//!    encoder's fused sign kernel (`Encoder::encode_signs_into` — the RBF
//!    encoder reduces each phase to a quadrant test and never materializes
//!    the f32 matrix), and scores whole word slices with XOR + popcount
//!    through the runtime-dispatched [`hdc::kernel`] layer (AVX2/AVX-512 on
//!    x86_64, NEON on aarch64, scalar fallback — bit-exact on every path,
//!    so the parity contract below is unaffected by the selected ISA).
//!
//! Every entry point returns `(winner, similarity)` pairs so the open-set
//! detector layer can threshold without a second scoring pass.
//!
//! **Parity contract** (asserted by the `tests/batch_parity.rs` suite and
//! `tests/detector.rs`): for every encoder and every quantized width the
//! batched engine evaluates the same expressions as the serial path — the
//! RBF encoder's single-row encode *is* its batch kernel at `n = 1` — so
//! batched predictions and scores match the serial ones bit for bit.

use crate::model::AnyEncoder;
use crate::{CyberHdError, Result};
use hdc::encoder::Encoder;
use hdc::parallel::{engine_threads, for_each_chunk};
use hdc::quant::quantize_into_with_scratch;
use hdc::similarity::argmax;
use hdc::{binary, AssociativeMemory, BatchView, BitWidth, QuantizedHypervector};

/// Rows per engine chunk: one chunk's encode buffer (`CHUNK_ROWS × dim`
/// f32) stays L2-resident at the paper's dimensionalities while leaving
/// enough chunks to keep every worker thread busy.
pub(crate) const CHUNK_ROWS: usize = 64;

/// Validates that the view's row width matches the encoder arity.
fn check_width(batch: BatchView<'_>, features: usize) -> Result<()> {
    if batch.width() != features {
        return Err(CyberHdError::InvalidData(format!(
            "batch rows are {} features wide, expected {features}",
            batch.width()
        )));
    }
    Ok(())
}

/// Fused batched prediction against a dense [`AssociativeMemory`],
/// returning `(winner, cosine similarity)` per row of `batch`.
///
/// Winners and similarities are identical to calling the serial `encode` →
/// `nearest` pair per sample.
pub(crate) fn predict_dense(
    encoder: &AnyEncoder,
    memory: &AssociativeMemory,
    batch: BatchView<'_>,
) -> Result<Vec<(usize, f32)>> {
    check_width(batch, encoder.input_features())?;
    let dim = encoder.output_dim();
    debug_assert_eq!(dim, memory.dim(), "trainer guarantees encoder/memory agreement");
    let classes = memory.num_classes();
    let norms = memory.class_norms();
    let mut predictions = vec![(0usize, 0.0f32); batch.rows()];
    for_each_chunk(
        batch.rows(),
        CHUNK_ROWS,
        &mut predictions,
        1,
        engine_threads(),
        |chunk, out| {
            let rows = batch.rows_range(chunk.start, chunk.end);
            let mut matrix = vec![0.0f32; rows.rows() * dim];
            let mut scores = vec![0.0f32; classes];
            encoder
                .encode_batch_into(rows, &mut matrix)
                .expect("batch shape validated before the fan-out");
            for (local, slot) in out.iter_mut().enumerate() {
                let query = &matrix[local * dim..(local + 1) * dim];
                memory
                    .similarities_into(query, &norms, &mut scores)
                    .expect("shapes validated before the fan-out");
                *slot = argmax(&scores).expect("at least one class");
            }
        },
    );
    Ok(predictions)
}

/// Fused batched prediction against quantized class hypervectors, returning
/// `(winner, cosine similarity)` per row of `batch`.
///
/// Class norms are computed once per batch; at 1 bit the classes are packed
/// into `u64` words once, queries are sign-encoded straight into packed
/// words by the encoder's fused kernel (bit-exact with encode-then-quantize
/// by the `Encoder::encode_signs_into` contract), and each query is scored
/// with whole-word XOR + popcount instead of a `dim`-element integer dot
/// product.  The score is the serial [`QuantizedHypervector::cosine`]'s
/// expression — exact integer dot product and norms in f64, the same
/// division, clamp and f32 rounding — and the levels come from the same
/// encoding, so scores match the serial path bit for bit.
pub(crate) fn predict_quantized(
    encoder: &AnyEncoder,
    classes: &[QuantizedHypervector],
    width: BitWidth,
    batch: BatchView<'_>,
) -> Result<Vec<(usize, f32)>> {
    check_width(batch, encoder.input_features())?;
    let dim = encoder.output_dim();
    let num_classes = classes.len();
    debug_assert!(num_classes > 0, "quantized models always carry at least one class");
    debug_assert!(classes.iter().all(|c| c.dim() == dim));

    // Per-batch precomputation: integer class norms, and the packed word
    // form of every class for the 1-bit kernel.
    let class_norms: Vec<f64> = classes
        .iter()
        .map(|c| c.levels().iter().map(|&l| (l as f64) * (l as f64)).sum::<f64>().sqrt())
        .collect();
    let packed: Option<Vec<hdc::BinaryHypervector>> = (width == BitWidth::B1).then(|| {
        classes.iter().map(|c| binary::BinaryHypervector::from_level_signs(c.levels())).collect()
    });

    let mut predictions = vec![(0usize, 0.0f32); batch.rows()];
    for_each_chunk(
        batch.rows(),
        CHUNK_ROWS,
        &mut predictions,
        1,
        engine_threads(),
        |chunk, out| {
            let rows = batch.rows_range(chunk.start, chunk.end);
            let mut scores = vec![0.0f32; num_classes];
            if let Some(packed_classes) = &packed {
                // Fused 1-bit kernel: the encoder packs quadrant-test sign bits
                // straight into u64 words (`Encoder::encode_signs_into`) — the
                // f32 chunk matrix, the cosine pass and the per-row quantize +
                // pack passes never happen — then each query scores whole word
                // slices with XOR + popcount.
                let words_per_row = binary::words_for_dim(dim);
                let mut query_words = vec![0u64; rows.rows() * words_per_row];
                let mut zero_rows = vec![false; rows.rows()];
                encoder
                    .encode_signs_into(rows, &mut query_words, &mut zero_rows)
                    .expect("batch shape validated before the fan-out");
                // ±1 levels: every query norm is exactly sqrt(dim).
                let qn = (dim as f64).sqrt();
                for (local, slot) in out.iter_mut().enumerate() {
                    // An all-zero encoding quantizes to all-zero levels on the
                    // serial path (zero norm → every score 0.0, class 0 wins);
                    // the sign encoder flags those rows rather than packing the
                    // zeros to +1.
                    if zero_rows[local] {
                        scores.fill(0.0);
                    } else {
                        let query =
                            &query_words[local * words_per_row..(local + 1) * words_per_row];
                        for ((score, class), cn) in
                            scores.iter_mut().zip(packed_classes).zip(&class_norms)
                        {
                            let h = hdc::hamming_distance(query, class.as_words());
                            let dot = dim as f64 - 2.0 * h as f64;
                            *score = quantized_cosine(dot, qn, *cn);
                        }
                    }
                    *slot = argmax(&scores).expect("at least one class");
                }
            } else {
                let mut matrix = vec![0.0f32; rows.rows() * dim];
                encoder
                    .encode_batch_into(rows, &mut matrix)
                    .expect("batch shape validated before the fan-out");
                let mut levels = vec![0i32; dim];
                let mut magnitudes = Vec::new();
                for (local, slot) in out.iter_mut().enumerate() {
                    let query = &matrix[local * dim..(local + 1) * dim];
                    quantize_into_with_scratch(query, width, &mut levels, &mut magnitudes);
                    let qn = levels.iter().map(|&l| (l as f64) * (l as f64)).sum::<f64>().sqrt();
                    for ((score, class), cn) in scores.iter_mut().zip(classes).zip(&class_norms) {
                        let dot = levels
                            .iter()
                            .zip(class.levels())
                            .map(|(&a, &b)| a as f64 * b as f64)
                            .sum::<f64>();
                        *score = quantized_cosine(dot, qn, *cn);
                    }
                    *slot = argmax(&scores).expect("at least one class");
                }
            }
        },
    );
    Ok(predictions)
}

/// The cosine convention of [`QuantizedHypervector::cosine`]: zero norms
/// score `0.0`, everything else is clamped into `[-1, 1]`.
pub(crate) fn quantized_cosine(dot: f64, qn: f64, cn: f64) -> f32 {
    if qn == 0.0 || cn == 0.0 {
        return 0.0;
    }
    (dot / (qn * cn)).clamp(-1.0, 1.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CyberHdConfig, EncoderKind};
    use crate::trainer::CyberHdTrainer;
    use hdc::rng::HdcRng;
    use hdc::BatchBuffer;

    fn toy_problem(seed: u64) -> (BatchBuffer, Vec<usize>) {
        let mut rng = HdcRng::seed_from(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..3usize {
            for _ in 0..25 {
                xs.extend(
                    (0..5).map(|f| (c as f64 * 0.8 + f as f64 * 0.1 + rng.normal(0.0, 0.1)) as f32),
                );
                ys.push(c);
            }
        }
        (BatchBuffer::from_data(xs, 5).unwrap(), ys)
    }

    fn trained(encoder: EncoderKind) -> (crate::CyberHdModel, BatchBuffer) {
        let (xs, ys) = toy_problem(31);
        let config = CyberHdConfig::builder(5, 3)
            .dimension(160)
            .encoder(encoder)
            .regeneration_rate(if encoder == EncoderKind::Rbf { 0.1 } else { 0.0 })
            .retrain_epochs(3)
            .seed(5)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        (model, xs)
    }

    #[test]
    fn fused_dense_predictions_match_the_serial_path() {
        for kind in [EncoderKind::Rbf, EncoderKind::IdLevel, EncoderKind::Record] {
            let (model, xs) = trained(kind);
            let batched = predict_dense(model.encoder(), model.memory(), xs.view()).unwrap();
            for (i, x) in xs.view().iter_rows().enumerate() {
                assert_eq!(batched[i].0, model.predict(x).unwrap(), "{kind:?} sample {i}");
                // The winner similarity is the serial score of the winner.
                let (_, scores) = model.predict_with_scores(x).unwrap();
                assert!((batched[i].1 - scores[batched[i].0]).abs() < 2e-6);
            }
        }
    }

    #[test]
    fn fused_quantized_predictions_match_the_serial_path() {
        let (model, xs) = trained(EncoderKind::Rbf);
        for width in BitWidth::ALL {
            let deployed = model.quantize(width);
            let batched =
                predict_quantized(model.encoder(), deployed.classes(), width, xs.view()).unwrap();
            for (i, x) in xs.view().iter_rows().enumerate() {
                assert_eq!(batched[i].0, deployed.predict(x).unwrap(), "{width:?} sample {i}");
            }
        }
    }

    #[test]
    fn zero_encoding_scores_zero_on_the_packed_path_like_the_serial_path() {
        // A Record encoder maps the all-zero feature vector to the zero
        // hypervector; the serial 1-bit path quantizes that to all-zero
        // levels (every score 0.0 → class 0).  The packed kernel must not
        // sign-pack zeros into +1 bits instead.
        let (model, mut xs) = trained(EncoderKind::Record);
        xs.push_row();
        let deployed = model.quantize(BitWidth::B1);
        let batched =
            predict_quantized(model.encoder(), deployed.classes(), BitWidth::B1, xs.view())
                .unwrap();
        let zero_row = xs.rows() - 1;
        assert_eq!(batched[zero_row].0, deployed.predict(xs.view().row(zero_row)).unwrap());
        assert_eq!(batched[zero_row].0, 0, "all-zero query falls back to class 0");
        assert_eq!(batched[zero_row].1, 0.0, "all-zero query scores zero");
    }

    #[test]
    fn width_errors_are_reported_before_any_work() {
        let (model, _) = trained(EncoderKind::Rbf);
        let data = [0.0f32; 4];
        let bad = BatchView::new(&data, 4).unwrap();
        assert!(predict_dense(model.encoder(), model.memory(), bad).is_err());
        let deployed = model.quantize(BitWidth::B1);
        assert!(predict_quantized(model.encoder(), deployed.classes(), BitWidth::B1, bad).is_err());
    }

    #[test]
    fn empty_batches_produce_empty_predictions() {
        let (model, _) = trained(EncoderKind::Rbf);
        let empty = BatchView::new(&[], 5).unwrap();
        assert!(predict_dense(model.encoder(), model.memory(), empty).unwrap().is_empty());
    }
}
