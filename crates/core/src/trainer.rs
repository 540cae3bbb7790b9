//! The CyberHD training loop.
//!
//! [`CyberHdTrainer`] wires together the whole workflow of Fig. 2 of the
//! paper:
//!
//! 1. **(A) Encoding** — every training sample is encoded once into
//!    hyperspace (fanned out across [`hdc::parallel::engine_threads`]
//!    workers).
//! 2. **(B) Adaptive learning** — class hypervectors are updated with
//!    similarity-weighted deltas: a sample that is already well represented
//!    (`δ ≈ 1`) barely changes the model, a novel pattern (`δ ≈ 0`) is added
//!    with full weight.
//! 3. **(D)–(G) Variance analysis** — after each retraining epoch the model
//!    is normalized, per-dimension cross-class variances are computed and the
//!    `R%` least-significant dimensions are dropped.
//! 4. **(H) Regeneration** — the dropped dimensions' encoder base vectors are
//!    redrawn from the Gaussian distribution, only the regenerated columns of
//!    the cached encodings are re-encoded (one column block per round,
//!    through [`hdc::encoder::RbfEncoder::encode_dimensions_batch`],
//!    fanned out the same way) and written back in place, and training
//!    continues.
//!
//! Setting `regeneration_rate` to zero turns the same loop into the paper's
//! *baselineHD* (static encoder, adaptive retraining only).
//!
//! # Serial rule vs. mini-batch engine
//!
//! The adaptive update is order-dependent — every mispredict changes the
//! model the next sample is scored against — which pins the classic rule to
//! one thread.  [`CyberHdConfig::batch_size`] trades a bounded amount of
//! that freshness for parallelism: with `batch_size > 1` each mini-batch is
//! scored against a **frozen snapshot** of the class memory, the adaptive
//! deltas are accumulated per row chunk (fanned out through
//! [`hdc::parallel`]), merged in fixed chunk order and applied once per
//! batch, after which exactly the touched class norms are refreshed.  Chunk
//! boundaries and the merge order depend only on the batch size — never on
//! the thread count — so a fixed seed produces bit-identical models at any
//! parallelism.  `batch_size == 1` (the default) runs the untouched serial
//! loop and reproduces the classic rule bit for bit.
//!
//! The worker count is the host's, not the model's: `fit_view` reads
//! [`hdc::parallel::engine_threads`] (`CYBERHD_THREADS`, else the available
//! parallelism) once, and no configuration field or artifact records it.

use crate::config::CyberHdConfig;
use crate::model::{AnyEncoder, CyberHdModel, TrainingReport};
use crate::regeneration::{RegenerationPlan, RegenerationStats};
use crate::{validate_dataset_view, CyberHdError, Result};
use hdc::encoder::Encoder;
use hdc::rng::HdcRng;
use hdc::similarity;
use hdc::{AssociativeMemory, BatchView, Hypervector};

/// The trainer's cache of encoded samples: one row-major `samples × dim`
/// matrix instead of one `Hypervector` allocation per sample.
///
/// Rows are handed to the adaptive update as plain slices, and dimension
/// regeneration overwrites the regenerated columns in place.
#[derive(Debug, Clone)]
pub(crate) struct EncodedMatrix {
    data: Vec<f32>,
    dim: usize,
    /// Cached `similarity::norm` of every row, so the mini-batch engine can
    /// score without re-deriving the query norm per visit.  Only built when
    /// that engine will run (empty otherwise — the serial scorer derives
    /// norms itself), and refreshed whenever rows are patched
    /// (regeneration).
    row_norms: Vec<f32>,
}

impl EncodedMatrix {
    /// Encodes `features` through the batched engine: chunked over
    /// [`crate::inference::CHUNK_ROWS`]-row tiles, each tile written by the
    /// encoder's cache-blocked batch kernel, fanned out across at most
    /// `threads` workers.  `cache_row_norms` builds the per-row norm cache
    /// the mini-batch engine scores with; the serial scorer never reads it,
    /// so `batch_size = 1` runs skip the extra pass.
    fn encode(
        encoder: &AnyEncoder,
        features: BatchView<'_>,
        threads: usize,
        cache_row_norms: bool,
    ) -> Result<Self> {
        let dim = encoder.output_dim();
        if features.width() != encoder.input_features() {
            return Err(CyberHdError::Hdc(hdc::HdcError::FeatureMismatch {
                expected: encoder.input_features(),
                actual: features.width(),
            }));
        }
        let mut data = vec![0.0f32; features.rows() * dim];
        hdc::parallel::for_each_chunk(
            features.rows(),
            crate::inference::CHUNK_ROWS,
            &mut data,
            dim,
            threads.max(1),
            |chunk, tile| {
                encoder
                    .encode_batch_into(features.rows_range(chunk.start, chunk.end), tile)
                    .expect("shapes validated before the fan-out");
            },
        );
        let row_norms = if cache_row_norms {
            data.chunks_exact(dim).map(similarity::norm).collect()
        } else {
            Vec::new()
        };
        Ok(Self { data, dim, row_norms })
    }

    fn rows(&self) -> usize {
        self.data.len() / self.dim
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Cached `similarity::norm` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix was encoded without `cache_row_norms` — only
    /// the mini-batch engine calls this, and `fit` builds the cache exactly
    /// when that engine will run.
    fn row_norm(&self, i: usize) -> f32 {
        self.row_norms[i]
    }

    /// Writes a row-major `rows × dims.len()` block into columns `dims`.
    fn scatter_columns(&mut self, dims: &[usize], block: &[f32]) {
        for (row, values) in
            self.data.chunks_exact_mut(self.dim).zip(block.chunks_exact(dims.len()))
        {
            for (&d, &value) in dims.iter().zip(values) {
                row[d] = value;
            }
        }
    }

    /// Recomputes every cached row norm (after regeneration overwrote
    /// columns in place); a no-op when the cache was not requested.
    fn refresh_row_norms(&mut self) {
        for (norm, row) in self.row_norms.iter_mut().zip(self.data.chunks_exact(self.dim)) {
            *norm = similarity::norm(row);
        }
    }
}

/// Trains [`CyberHdModel`]s from labelled feature vectors.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct CyberHdTrainer {
    config: CyberHdConfig,
}

impl CyberHdTrainer {
    /// Creates a trainer from a validated configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible for a [`CyberHdConfig`] built through its
    /// builder, but kept fallible so future cross-field checks do not
    /// break the API.
    pub fn new(config: CyberHdConfig) -> Result<Self> {
        Ok(Self { config })
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &CyberHdConfig {
        &self.config
    }

    /// Trains a model on a row-major batch view of preprocessed features
    /// (one row per sample) and their labels.  Callers holding contiguous
    /// data (a preprocessed matrix) pay no copies.  Encoding, regeneration
    /// and the mini-batch engine fan out across
    /// [`hdc::parallel::engine_threads`] workers; the model is the same at
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CyberHdError::InvalidData`] if the dataset is empty or
    /// inconsistent with the configuration, and propagates encoder errors.
    pub fn fit_view(&self, features: BatchView<'_>, labels: &[usize]) -> Result<CyberHdModel> {
        self.fit_on(features, labels, hdc::parallel::engine_threads())
    }

    /// [`CyberHdTrainer::fit_view`] on an explicit worker count.
    pub(crate) fn fit_on(
        &self,
        features: BatchView<'_>,
        labels: &[usize],
        threads: usize,
    ) -> Result<CyberHdModel> {
        let config = &self.config;
        validate_dataset_view(features, labels, config.input_features, config.num_classes)?;

        let mut encoder = AnyEncoder::from_config(config)?;
        let mut encoded =
            EncodedMatrix::encode(&encoder, features, threads, config.batch_size > 1)?;
        let mut memory = AssociativeMemory::new(config.num_classes, config.dimension)?;
        let mut rng = HdcRng::seed_from(config.seed ^ 0xA5A5_A5A5_DEAD_BEEF);
        let mut stats = RegenerationStats::new();
        let mut epoch_accuracy = Vec::with_capacity(config.retrain_epochs + 1);

        // Per-epoch update state: the serial scorer (batch size 1, the
        // classic rule) or the parallel mini-batch engine, both maintaining
        // cached class norms incrementally instead of recomputing every
        // norm per sample.
        let mut updater = Updater::new(&memory, config.batch_size, threads, encoded.rows());

        // Initial adaptive pass over the data in its natural order.
        let initial_correct =
            updater.epoch(&mut memory, &encoded, labels, None, config.learning_rate);
        epoch_accuracy.push(initial_correct as f64 / labels.len() as f64);

        for epoch in 0..config.retrain_epochs {
            // Regenerate *before* each retraining epoch except the first, so
            // the final epoch always trains on the final encoder (the paper
            // retrains after updating the base vectors).
            if config.regeneration_rate > 0.0 && epoch > 0 {
                let plan = RegenerationPlan::analyze(&memory, config.regeneration_rate);
                if plan.drop_count() > 0 {
                    apply_regeneration(
                        &mut encoder,
                        &mut memory,
                        &mut encoded,
                        features,
                        &plan,
                        threads,
                    )?;
                    stats.record_round(&plan);
                    // Zeroed dimensions invalidate every cached class norm.
                    updater.refresh(&memory);
                }
            }

            let order = rng.permutation(encoded.rows());
            let correct =
                updater.epoch(&mut memory, &encoded, labels, Some(&order), config.learning_rate);
            epoch_accuracy.push(correct as f64 / labels.len() as f64);
        }

        let report = TrainingReport {
            epoch_accuracy,
            regeneration: stats,
            samples: labels.len(),
            physical_dimension: config.dimension,
        };
        Ok(CyberHdModel::from_parts(encoder, memory, config.clone(), report))
    }
}

/// Reusable scoring state for the trainer's per-epoch loop: cached class
/// norms plus one scratch score vector.
///
/// The adaptive update is order-dependent (each mispredict changes the
/// model the next sample is scored against), so the epoch itself stays
/// serial; the batching win here is eliminating the per-sample allocation
/// and the per-sample recomputation of every class norm that
/// `AssociativeMemory::similarities` performs.
pub(crate) struct EpochScorer {
    class_norms: Vec<f32>,
    scores: Vec<f32>,
}

impl EpochScorer {
    pub(crate) fn new(memory: &AssociativeMemory) -> Self {
        Self { class_norms: memory.class_norms(), scores: vec![0.0; memory.num_classes()] }
    }

    /// Recomputes every cached class norm (after regeneration zeroed
    /// dimensions behind the cache's back).
    pub(crate) fn refresh(&mut self, memory: &AssociativeMemory) {
        self.class_norms = memory.class_norms();
    }

    /// Runs one adaptive epoch visiting samples in `order` (or natural
    /// order), returning how many were already classified correctly.
    fn adaptive_epoch_ordered(
        &mut self,
        memory: &mut AssociativeMemory,
        encoded: &EncodedMatrix,
        labels: &[usize],
        order: Option<&[usize]>,
        learning_rate: f32,
    ) -> usize {
        let mut correct = 0usize;
        let mut visit = |i: usize| {
            if self.adaptive_update_slice(memory, encoded.row(i), labels[i], learning_rate) {
                correct += 1;
            }
        };
        match order {
            Some(order) => order.iter().copied().for_each(&mut visit),
            None => (0..encoded.rows()).for_each(&mut visit),
        }
        correct
    }

    /// One adaptive update against a raw encoded row, reusing the cached
    /// class norms and scratch scores.
    ///
    /// Returns `true` if the sample was already classified correctly (in
    /// which case the model is left untouched, matching the paper's
    /// mispredict-driven update rule).
    pub(crate) fn adaptive_update_slice(
        &mut self,
        memory: &mut AssociativeMemory,
        encoded: &[f32],
        label: usize,
        learning_rate: f32,
    ) -> bool {
        memory
            .similarities_into(encoded, &self.class_norms, &mut self.scores)
            .expect("encoded sample dimensionality is validated before training");
        let (predicted, _) =
            similarity::argmax(&self.scores).expect("memory always has at least one class");
        if predicted == label {
            return true;
        }
        // Pull the true class towards the sample, push the confused class
        // away, both scaled by how *novel* the sample is to that class
        // (1 - δ).
        let pull = learning_rate * (1.0 - self.scores[label]);
        let push = learning_rate * (1.0 - self.scores[predicted]);
        memory
            .add_scaled_slice(label, encoded, pull)
            .expect("label index validated before training");
        memory
            .add_scaled_slice(predicted, encoded, -push)
            .expect("predicted index comes from the memory itself");
        // Only the two touched classes changed; re-norm exactly those.
        for class in [label, predicted] {
            self.class_norms[class] =
                similarity::norm(memory.class(class).expect("index in range").as_slice());
        }
        false
    }
}

/// The trainer's per-epoch update strategy, dispatched by
/// [`CyberHdConfig::batch_size`]: the classic serial rule at size 1, the
/// parallel mini-batch engine otherwise.
enum Updater {
    Serial(EpochScorer),
    MiniBatch(MiniBatchEngine),
}

impl Updater {
    fn new(memory: &AssociativeMemory, batch_size: usize, threads: usize, rows: usize) -> Self {
        if batch_size <= 1 {
            Updater::Serial(EpochScorer::new(memory))
        } else {
            Updater::MiniBatch(MiniBatchEngine::new(memory, batch_size, threads, rows))
        }
    }

    fn epoch(
        &mut self,
        memory: &mut AssociativeMemory,
        encoded: &EncodedMatrix,
        labels: &[usize],
        order: Option<&[usize]>,
        learning_rate: f32,
    ) -> usize {
        match self {
            Updater::Serial(scorer) => {
                scorer.adaptive_epoch_ordered(memory, encoded, labels, order, learning_rate)
            }
            Updater::MiniBatch(engine) => {
                engine.epoch(memory, encoded, labels, order, learning_rate)
            }
        }
    }

    fn refresh(&mut self, memory: &AssociativeMemory) {
        match self {
            Updater::Serial(scorer) => scorer.refresh(memory),
            Updater::MiniBatch(engine) => engine.refresh(memory),
        }
    }
}

/// Rows per parallel scoring chunk of the mini-batch engine.
///
/// Chunk boundaries depend only on this constant and the batch size — never
/// on the worker-thread count — which is what makes mini-batch training
/// bit-identical at every parallelism for a fixed seed.
const TRAIN_CHUNK_ROWS: usize = 32;

/// Frozen-snapshot scratch of the mini-batch rule: a dense `classes × dim`
/// delta accumulator plus per-class touch flags, reused across batches (the
/// merge re-zeroes exactly the rows it consumed).
///
/// The mini-batch engine runs one per parallel chunk;
/// [`crate::OnlineLearner::observe_batch`] runs a single one over its whole
/// burst — both apply the identical deferred adaptive rule.
#[derive(Debug, Clone)]
pub(crate) struct ChunkScratch {
    delta: Vec<f32>,
    touched: Vec<bool>,
    correct: usize,
    scores: Vec<f32>,
}

impl ChunkScratch {
    pub(crate) fn new(classes: usize, dim: usize) -> Self {
        Self {
            delta: vec![0.0; classes * dim],
            touched: vec![false; classes],
            correct: 0,
            scores: vec![0.0; classes],
        }
    }

    /// Scores one encoded row against the frozen snapshot and accumulates
    /// the adaptive delta on a mispredict — the same pull/push expressions
    /// as [`EpochScorer::adaptive_update_slice`], deferred into the chunk's
    /// delta rows instead of applied to the live memory.  Returns the
    /// predicted class.  The row norm is caller-supplied (the engine's
    /// [`EncodedMatrix`] cache, bit-identical to recomputing it), saving one
    /// `dim`-length pass per visit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn visit(
        &mut self,
        frozen: &AssociativeMemory,
        class_norms: &[f32],
        row: &[f32],
        row_norm: f32,
        label: usize,
        learning_rate: f32,
    ) -> usize {
        self.visit_scored(frozen, class_norms, row, row_norm, label, learning_rate).0
    }

    /// [`ChunkScratch::visit`] also returning the winner's frozen-snapshot
    /// cosine similarity — identical scoring and identical deferred delta,
    /// bit for bit.  The batched-feedback serving lane builds its verdicts
    /// (and open-set novelty flags) from this score.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn visit_scored(
        &mut self,
        frozen: &AssociativeMemory,
        class_norms: &[f32],
        row: &[f32],
        row_norm: f32,
        label: usize,
        learning_rate: f32,
    ) -> (usize, f32) {
        frozen
            .similarities_with_query_norm(row, row_norm, class_norms, &mut self.scores)
            .expect("encoded sample dimensionality is validated before training");
        let (predicted, best) =
            similarity::argmax(&self.scores).expect("memory always has at least one class");
        if predicted == label {
            self.correct += 1;
            return (predicted, best);
        }
        let pull = learning_rate * (1.0 - self.scores[label]);
        let push = learning_rate * (1.0 - self.scores[predicted]);
        self.accumulate(label, row, pull);
        self.accumulate(predicted, row, -push);
        (predicted, best)
    }

    fn accumulate(&mut self, class: usize, row: &[f32], weight: f32) {
        self.touched[class] = true;
        let dim = row.len();
        for (slot, &v) in self.delta[class * dim..(class + 1) * dim].iter_mut().zip(row) {
            *slot += weight * v;
        }
    }

    /// Merges every touched delta row into `memory` (classes in index
    /// order), re-zeroing the consumed rows and flags, invoking `on_merged`
    /// per merged class, and returning the chunk's reset correct count.
    pub(crate) fn drain_into(
        &mut self,
        memory: &mut AssociativeMemory,
        mut on_merged: impl FnMut(usize),
    ) -> usize {
        let dim = memory.dim();
        for class in 0..self.touched.len() {
            if !self.touched[class] {
                continue;
            }
            self.touched[class] = false;
            let delta = &mut self.delta[class * dim..(class + 1) * dim];
            memory
                .add_scaled_slice(class, delta, 1.0)
                .expect("class index comes from the memory itself");
            delta.fill(0.0);
            on_merged(class);
        }
        std::mem::take(&mut self.correct)
    }
}

/// The parallel mini-batch training engine (see the module docs).
///
/// Owns the cached class norms, one [`ChunkScratch`] per possible chunk and
/// the merge bookkeeping, all allocated once per `fit` and reused for every
/// batch of every epoch.
pub(crate) struct MiniBatchEngine {
    batch_size: usize,
    threads: usize,
    class_norms: Vec<f32>,
    chunks: Vec<ChunkScratch>,
    dirty: Vec<bool>,
}

impl MiniBatchEngine {
    /// An engine for `batch_size`-sample mini-batches over `rows` samples,
    /// fanning each batch out across at most `threads` workers.
    pub(crate) fn new(
        memory: &AssociativeMemory,
        batch_size: usize,
        threads: usize,
        rows: usize,
    ) -> Self {
        let classes = memory.num_classes();
        let dim = memory.dim();
        let batch_size = batch_size.max(1).min(rows.max(1));
        let chunk_count = batch_size.div_ceil(TRAIN_CHUNK_ROWS);
        Self {
            batch_size,
            threads,
            class_norms: memory.class_norms(),
            chunks: (0..chunk_count).map(|_| ChunkScratch::new(classes, dim)).collect(),
            dirty: vec![false; classes],
        }
    }

    /// Recomputes every cached class norm (after regeneration zeroed
    /// dimensions behind the cache's back).
    pub(crate) fn refresh(&mut self, memory: &AssociativeMemory) {
        self.class_norms = memory.class_norms();
    }

    /// Runs one epoch visiting samples in `order` (or natural order) in
    /// consecutive mini-batches, returning how many samples were classified
    /// correctly against their batch's snapshot.
    pub(crate) fn epoch(
        &mut self,
        memory: &mut AssociativeMemory,
        encoded: &EncodedMatrix,
        labels: &[usize],
        order: Option<&[usize]>,
        learning_rate: f32,
    ) -> usize {
        let rows = encoded.rows();
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < rows {
            let end = (start + self.batch_size).min(rows);
            correct += self.run_batch(memory, encoded, labels, order, start, end, learning_rate);
            start = end;
        }
        correct
    }

    /// One mini-batch: parallel frozen-snapshot scoring + delta
    /// accumulation, then the deterministic in-order merge.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &mut self,
        memory: &mut AssociativeMemory,
        encoded: &EncodedMatrix,
        labels: &[usize],
        order: Option<&[usize]>,
        start: usize,
        end: usize,
        learning_rate: f32,
    ) -> usize {
        let chunk_count = (end - start).div_ceil(TRAIN_CHUNK_ROWS);
        {
            let frozen: &AssociativeMemory = memory;
            let class_norms = &self.class_norms;
            let scratch = &mut self.chunks[..chunk_count];
            let kernel = |chunk: hdc::parallel::RowChunk, slot: &mut [ChunkScratch]| {
                let scratch = &mut slot[0];
                let lo = start + chunk.start * TRAIN_CHUNK_ROWS;
                let hi = (lo + TRAIN_CHUNK_ROWS).min(end);
                for visit in lo..hi {
                    let sample = order.map_or(visit, |o| o[visit]);
                    scratch.visit(
                        frozen,
                        class_norms,
                        encoded.row(sample),
                        encoded.row_norm(sample),
                        labels[sample],
                        learning_rate,
                    );
                }
            };
            if chunk_count == 1 {
                // Single chunk: no reason to stand up the fan-out.
                kernel(hdc::parallel::RowChunk { start: 0, end: 1 }, &mut scratch[..1]);
            } else {
                hdc::parallel::for_each_chunk(chunk_count, 1, scratch, 1, self.threads, kernel);
            }
        }

        // Deterministic merge: chunks in index order, classes in index
        // order, one slice addition per touched (chunk, class) pair (the
        // drained delta rows are re-zeroed so the scratch is clean for the
        // next batch).
        self.dirty.fill(false);
        let mut correct = 0usize;
        let dirty = &mut self.dirty;
        for scratch in &mut self.chunks[..chunk_count] {
            correct += scratch.drain_into(memory, |class| dirty[class] = true);
        }
        // Only the classes something pulled or pushed need a new norm.
        for (class, dirty) in self.dirty.iter().enumerate() {
            if *dirty {
                self.class_norms[class] =
                    similarity::norm(memory.class(class).expect("index in range").as_slice());
            }
        }
        correct
    }
}

/// Performs one adaptive update for a single encoded sample.
///
/// Returns `true` if the sample was already classified correctly (in which
/// case the model is left untouched, matching the paper's mispredict-driven
/// update rule).
///
/// This is the single-sample convenience form used by the streaming
/// [`crate::OnlineLearner`]; the trainer's epoch loop goes through
/// [`EpochScorer`], which amortizes the class-norm computation this wrapper
/// re-derives per call.
pub(crate) fn adaptive_update(
    memory: &mut AssociativeMemory,
    encoded: &Hypervector,
    label: usize,
    learning_rate: f32,
) -> bool {
    EpochScorer::new(memory).adaptive_update_slice(memory, encoded.as_slice(), label, learning_rate)
}

/// Applies one regeneration plan: zero the dropped dimensions in the model,
/// redraw their base vectors and re-encode just those columns of the cached
/// encodings, fanned out over row chunks like [`EncodedMatrix::encode`].
fn apply_regeneration(
    encoder: &mut AnyEncoder,
    memory: &mut AssociativeMemory,
    encoded: &mut EncodedMatrix,
    features: BatchView<'_>,
    plan: &RegenerationPlan,
    threads: usize,
) -> Result<()> {
    let rbf = encoder.as_rbf_mut().ok_or_else(|| {
        CyberHdError::InvalidConfig("dimension regeneration requires the RBF encoder".into())
    })?;
    for &d in &plan.drop {
        memory.zero_dimension(d)?;
        rbf.regenerate_dimension(d)?;
    }
    let rbf = &*rbf;
    let dims = &plan.drop;
    let mut block = vec![0.0f32; features.rows() * dims.len()];
    hdc::parallel::for_each_chunk(
        features.rows(),
        crate::inference::CHUNK_ROWS,
        &mut block,
        dims.len(),
        threads.max(1),
        |chunk, tile| {
            rbf.encode_dimensions_batch(features.rows_range(chunk.start, chunk.end), dims, tile)
                .expect("the matrix was encoded from these rows and the dims were regenerated");
        },
    );
    encoded.scatter_columns(dims, &block);
    encoded.refresh_row_norms();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderKind;
    use hdc::rng::HdcRng;
    use hdc::BatchBuffer;

    /// Builds a small synthetic multi-class problem of Gaussian blobs.
    fn blobs(
        classes: usize,
        per_class: usize,
        features: usize,
        spread: f64,
        seed: u64,
    ) -> (BatchBuffer, Vec<usize>) {
        let mut rng = HdcRng::seed_from(seed);
        let centers: Vec<Vec<f64>> =
            (0..classes).map(|_| (0..features).map(|_| rng.uniform(-1.0, 1.0)).collect()).collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per_class {
                xs.extend(center.iter().map(|&m| (m + rng.normal(0.0, spread)) as f32));
                ys.push(c);
            }
        }
        (BatchBuffer::from_data(xs, features).unwrap(), ys)
    }

    fn base_config(features: usize, classes: usize) -> CyberHdConfig {
        CyberHdConfig::builder(features, classes)
            .dimension(256)
            .retrain_epochs(5)
            .regeneration_rate(0.1)
            .learning_rate(0.05)
            .seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn fit_rejects_inconsistent_data() {
        let trainer = CyberHdTrainer::new(base_config(4, 3)).unwrap();
        let empty = BatchView::new(&[], 4).unwrap();
        assert!(matches!(trainer.fit_view(empty, &[]), Err(CyberHdError::InvalidData(_))));
        let xs = BatchView::new(&[0.0; 4], 4).unwrap();
        assert!(trainer.fit_view(xs, &[5]).is_err());
        assert!(trainer.fit_view(xs, &[0, 1]).is_err());
        let narrow = BatchView::new(&[0.0; 3], 3).unwrap();
        assert!(trainer.fit_view(narrow, &[0]).is_err());
    }

    #[test]
    fn fit_learns_separable_blobs() {
        let (xs, ys) = blobs(4, 40, 8, 0.05, 11);
        let trainer = CyberHdTrainer::new(base_config(8, 4)).unwrap();
        let model = trainer.fit_view(xs.view(), &ys).unwrap();
        let accuracy = model.accuracy_view(xs.view(), &ys).unwrap();
        assert!(accuracy > 0.9, "training accuracy {accuracy} too low");
        assert_eq!(model.dimension(), 256);
        assert!(model.effective_dimension() >= 256);
    }

    #[test]
    fn regeneration_increases_effective_dimension() {
        let (xs, ys) = blobs(3, 30, 6, 0.1, 5);
        let config = CyberHdConfig::builder(6, 3)
            .dimension(128)
            .retrain_epochs(4)
            .regeneration_rate(0.2)
            .seed(9)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        let report = model.report();
        assert!(report.regeneration.rounds >= 1);
        assert!(model.effective_dimension() > model.dimension());
        // Effective dimension = physical + total regenerated.
        assert_eq!(
            model.effective_dimension(),
            model.dimension() + report.regeneration.total_regenerated
        );
    }

    #[test]
    fn zero_regeneration_rate_never_regenerates() {
        let (xs, ys) = blobs(3, 20, 6, 0.1, 6);
        let config = CyberHdConfig::builder(6, 3)
            .dimension(128)
            .retrain_epochs(3)
            .regeneration_rate(0.0)
            .seed(10)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        assert_eq!(model.report().regeneration.rounds, 0);
        assert_eq!(model.effective_dimension(), model.dimension());
    }

    #[test]
    fn training_is_deterministic_for_a_fixed_seed() {
        let (xs, ys) = blobs(3, 25, 5, 0.1, 7);
        let config = base_config(5, 3);
        let a = CyberHdTrainer::new(config.clone()).unwrap().fit_view(xs.view(), &ys).unwrap();
        let b = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        assert_eq!(a.class_hypervectors(), b.class_hypervectors());
        assert_eq!(a.report().epoch_accuracy, b.report().epoch_accuracy);
    }

    #[test]
    fn parallel_encoding_matches_sequential_encoding() {
        let (xs, _) = blobs(2, 40, 7, 0.2, 8);
        let config = base_config(7, 2);
        let encoder = AnyEncoder::from_config(&config).unwrap();
        let sequential = EncodedMatrix::encode(&encoder, xs.view(), 1, false).unwrap();
        let parallel = EncodedMatrix::encode(&encoder, xs.view(), 4, false).unwrap();
        assert_eq!(sequential.data, parallel.data);
        // The matrix rows are the per-sample encodings, bit for bit.
        for (i, x) in xs.view().iter_rows().enumerate() {
            let reference = encoder.encode(x).unwrap();
            assert_eq!(sequential.row(i), reference.as_slice(), "sample {i}");
        }
        // Width errors surface before the fan-out.
        let narrow = [0.0f32; 3];
        let bad = BatchView::new(&narrow, 3).unwrap();
        assert!(EncodedMatrix::encode(&encoder, bad, 2, false).is_err());
    }

    #[test]
    fn regeneration_patch_equals_a_fresh_encode_bit_for_bit() {
        // A wide, zero-sprinkled input and a multi-tile dimension: the
        // patched columns must be the values the batch kernel would write,
        // serial or fanned out over row chunks, and the mini-batch engine's
        // row-norm cache must follow.
        let (xs, ys) = blobs(3, 30, 11, 0.3, 14);
        let mut data = xs.into_data();
        for (i, x) in data.chunks_exact_mut(11).enumerate() {
            x[i % 11] = 0.0;
        }
        let buffer = BatchBuffer::from_data(data, 11).unwrap();
        for (threads, batch) in [(1, 1), (4, 32)] {
            let config = CyberHdConfig::builder(11, 3)
                .dimension(2100)
                .batch_size(batch)
                .seed(4)
                .build()
                .unwrap();
            let mut encoder = AnyEncoder::from_config(&config).unwrap();
            let cache_norms = config.batch_size > 1;
            let mut encoded =
                EncodedMatrix::encode(&encoder, buffer.view(), threads, cache_norms).unwrap();
            let mut memory = AssociativeMemory::new(3, 2100).unwrap();
            for (i, &y) in ys.iter().enumerate() {
                memory.accumulate(y, &Hypervector::from_vec(encoded.row(i).to_vec())).unwrap();
            }
            let plan = RegenerationPlan::analyze(&memory, 0.2);
            assert!(plan.drop.iter().any(|&d| d >= 2048), "a dropped dim in the second tile");
            apply_regeneration(
                &mut encoder,
                &mut memory,
                &mut encoded,
                buffer.view(),
                &plan,
                threads,
            )
            .unwrap();
            let fresh = EncodedMatrix::encode(&encoder, buffer.view(), 1, cache_norms).unwrap();
            for i in 0..buffer.rows() {
                let (patched, expected) = (encoded.row(i), fresh.row(i));
                for (d, (a, b)) in patched.iter().zip(expected).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads} sample {i} dim {d}");
                }
                if cache_norms {
                    assert_eq!(encoded.row_norm(i).to_bits(), fresh.row_norm(i).to_bits());
                }
            }
        }
    }

    #[test]
    fn adaptive_update_moves_model_towards_novel_samples() {
        let mut memory = AssociativeMemory::new(2, 16).unwrap();
        let sample = Hypervector::from_vec((0..16).map(|i| (i as f32 * 0.3).sin()).collect());
        // Initially everything is zero: the sample is misclassified into
        // class 0 (tie), so class 1 training pulls it in.
        let was_correct = adaptive_update(&mut memory, &sample, 1, 0.5);
        assert!(!was_correct);
        let (winner, _) = memory.nearest(&sample).unwrap();
        assert_eq!(winner, 1, "after the update the true class should win");
        // A second presentation is now correct and leaves the model alone.
        let snapshot = memory.classes().to_vec();
        assert!(adaptive_update(&mut memory, &sample, 1, 0.5));
        assert_eq!(memory.classes(), snapshot.as_slice());
    }

    #[test]
    fn retraining_accuracy_is_monotone_on_easy_data_by_the_end() {
        let (xs, ys) = blobs(4, 30, 8, 0.02, 12);
        let model =
            CyberHdTrainer::new(base_config(8, 4)).unwrap().fit_view(xs.view(), &ys).unwrap();
        let accs = &model.report().epoch_accuracy;
        assert!(accs.len() >= 2);
        assert!(
            accs.last().unwrap() >= accs.first().unwrap(),
            "final accuracy {accs:?} should not be worse than the initial pass"
        );
    }

    /// Shared setup for the mini-batch engine tests: an encoded matrix,
    /// labels and a fresh memory.
    fn engine_fixture(seed: u64) -> (EncodedMatrix, Vec<usize>, AssociativeMemory, Vec<usize>) {
        let (xs, ys) = blobs(3, 30, 6, 0.25, seed);
        let config = base_config(6, 3);
        let encoder = AnyEncoder::from_config(&config).unwrap();
        let encoded = EncodedMatrix::encode(&encoder, xs.view(), 1, true).unwrap();
        let memory = AssociativeMemory::new(3, 256).unwrap();
        let order = HdcRng::seed_from(seed ^ 0x0DDB).permutation(encoded.rows());
        (encoded, ys, memory, order)
    }

    #[test]
    fn minibatch_engine_at_batch_size_one_is_bit_exact_with_the_serial_rule() {
        let (encoded, labels, memory, order) = engine_fixture(41);
        let mut serial_memory = memory.clone();
        let mut batch_memory = memory;
        let mut scorer = EpochScorer::new(&serial_memory);
        let mut engine = MiniBatchEngine::new(&batch_memory, 1, 1, encoded.rows());
        for (epoch, order) in [None, Some(order.as_slice()), None].into_iter().enumerate() {
            let serial_correct =
                scorer.adaptive_epoch_ordered(&mut serial_memory, &encoded, &labels, order, 0.05);
            let batch_correct = engine.epoch(&mut batch_memory, &encoded, &labels, order, 0.05);
            assert_eq!(serial_correct, batch_correct, "epoch {epoch}: correct counts diverge");
            assert_eq!(serial_memory, batch_memory, "epoch {epoch}: class memories diverge");
        }
    }

    #[test]
    fn minibatch_epochs_are_identical_for_every_thread_count() {
        let (encoded, labels, memory, order) = engine_fixture(43);
        let reference: Vec<AssociativeMemory> = {
            let mut m = memory.clone();
            let mut engine = MiniBatchEngine::new(&m, 48, 1, encoded.rows());
            engine.epoch(&mut m, &encoded, &labels, Some(&order), 0.05);
            vec![m]
        };
        for threads in [2, 4, 8] {
            let mut m = memory.clone();
            let mut engine = MiniBatchEngine::new(&m, 48, threads, encoded.rows());
            engine.epoch(&mut m, &encoded, &labels, Some(&order), 0.05);
            assert_eq!(m, reference[0], "{threads} threads diverged from 1 thread");
        }
    }

    #[test]
    fn minibatch_training_still_learns_the_blobs() {
        let (xs, ys) = blobs(4, 40, 8, 0.05, 11);
        let config = CyberHdConfig::builder(8, 4)
            .dimension(256)
            .retrain_epochs(5)
            .regeneration_rate(0.1)
            .learning_rate(0.05)
            .batch_size(32)
            .seed(3)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        let accuracy = model.accuracy_view(xs.view(), &ys).unwrap();
        assert!(accuracy > 0.9, "mini-batch training accuracy {accuracy} too low");
    }

    /// An NSL-KDD-shaped training matrix (min-max scaled) and its labels.
    fn traffic(samples: usize, seed: u64) -> (BatchBuffer, Vec<usize>, usize) {
        use nids_data::preprocess::{Normalization, Preprocessor};
        let dataset = nids_data::DatasetKind::NslKdd
            .generate(&nids_data::synth::SyntheticConfig::new(samples, seed).difficulty(1.8))
            .unwrap();
        let (train, _) = nids_data::split::train_test_split(&dataset, 0.4, seed).unwrap();
        let preprocessor = Preprocessor::fit(&train, Normalization::MinMax).unwrap();
        let width = preprocessor.output_width();
        let matrix = preprocessor.transform_matrix(&train).unwrap();
        (
            BatchBuffer::from_data(matrix, width).unwrap(),
            train.labels().to_vec(),
            dataset.num_classes(),
        )
    }

    #[test]
    fn minibatch_fit_is_deterministic_across_thread_counts_and_regeneration() {
        // Blobs at batch 24, and the full NIDS pipeline (RBF encoder,
        // regeneration, several epochs) at batch 64: 1, 2 and 8 workers and
        // the engine default all produce bit-identical models.
        let (blob_x, blob_y) = blobs(3, 35, 5, 0.1, 19);
        let blob_config = CyberHdConfig::builder(5, 3)
            .dimension(128)
            .retrain_epochs(4)
            .regeneration_rate(0.2)
            .batch_size(24)
            .seed(9)
            .build()
            .unwrap();
        let (traffic_x, traffic_y, classes) = traffic(900, 9);
        let traffic_config = CyberHdConfig::builder(traffic_x.width(), classes)
            .dimension(256)
            .retrain_epochs(4)
            .regeneration_rate(0.2)
            .learning_rate(0.05)
            .batch_size(64)
            .seed(13)
            .build()
            .unwrap();
        for (config, xs, ys) in
            [(blob_config, &blob_x, &blob_y), (traffic_config, &traffic_x, &traffic_y)]
        {
            let trainer = CyberHdTrainer::new(config).unwrap();
            let one = trainer.fit_on(xs.view(), ys, 1).unwrap();
            let runs = [
                ("2 threads", trainer.fit_on(xs.view(), ys, 2).unwrap()),
                ("8 threads", trainer.fit_on(xs.view(), ys, 8).unwrap()),
                ("the engine default", trainer.fit_view(xs.view(), ys).unwrap()),
            ];
            for (run, many) in runs {
                assert_eq!(
                    one.class_hypervectors(),
                    many.class_hypervectors(),
                    "{run} diverged from 1 thread"
                );
                assert_eq!(one.report().epoch_accuracy, many.report().epoch_accuracy);
                assert_eq!(
                    one.report().regeneration.total_regenerated,
                    many.report().regeneration.total_regenerated
                );
            }
        }
    }

    #[test]
    fn id_level_encoder_trains_without_regeneration() {
        let (xs, ys) = blobs(3, 30, 6, 0.05, 13);
        // Scale features into [0, 1] for the level encoder.
        let scaled = xs.into_data().into_iter().map(|x| (x + 2.0) / 4.0).collect();
        let xs = BatchBuffer::from_data(scaled, 6).unwrap();
        let config = CyberHdConfig::builder(6, 3)
            .dimension(512)
            .encoder(EncoderKind::IdLevel)
            .regeneration_rate(0.0)
            .retrain_epochs(5)
            .seed(2)
            .build()
            .unwrap();
        let model = CyberHdTrainer::new(config).unwrap().fit_view(xs.view(), &ys).unwrap();
        assert!(model.accuracy_view(xs.view(), &ys).unwrap() > 0.8);
    }
}
