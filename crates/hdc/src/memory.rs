//! Associative memory: the class-hypervector store.
//!
//! An HDC classifier's "model" is one hypervector per class.  Training
//! accumulates (bundles) encoded samples into their class hypervector;
//! inference returns the class whose hypervector is most similar to the
//! encoded query (step (I)/(J) of the CyberHD workflow).
//!
//! [`AssociativeMemory`] owns the class hypervectors and provides the
//! accumulate / nearest / similarity primitives that both the static baseline
//! HDC and the CyberHD trainer build on.

use crate::dense::Hypervector;
use crate::quant::{BitWidth, QuantizedHypervector};
use crate::similarity;
use crate::{HdcError, Result};
use serde::{Deserialize, Serialize};

/// Rows per fan-out chunk in [`AssociativeMemory::similarities_batch`].
///
/// Large enough that thread spawn cost vanishes, small enough that one
/// chunk's queries stay cache-resident alongside the class hypervectors.
const SCORE_CHUNK_ROWS: usize = 256;

/// A store of one dense hypervector per class.
///
/// # Example
///
/// ```
/// use hdc::{AssociativeMemory, Hypervector};
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let mut memory = AssociativeMemory::new(2, 4)?;
/// memory.accumulate(0, &Hypervector::from_vec(vec![1.0, 0.0, 0.0, 0.0]))?;
/// memory.accumulate(1, &Hypervector::from_vec(vec![0.0, 1.0, 0.0, 0.0]))?;
/// let query = Hypervector::from_vec(vec![0.9, 0.1, 0.0, 0.0]);
/// let (class, similarity) = memory.nearest(&query)?;
/// assert_eq!(class, 0);
/// assert!(similarity > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssociativeMemory {
    classes: Vec<Hypervector>,
    dim: usize,
}

impl AssociativeMemory {
    /// Creates a memory with `num_classes` zero hypervectors of length `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `num_classes` or `dim` is zero.
    pub fn new(num_classes: usize, dim: usize) -> Result<Self> {
        if num_classes == 0 {
            return Err(HdcError::InvalidArgument("num_classes must be non-zero".into()));
        }
        if dim == 0 {
            return Err(HdcError::InvalidArgument("dim must be non-zero".into()));
        }
        Ok(Self { classes: vec![Hypervector::zeros(dim); num_classes], dim })
    }

    /// Builds a memory from pre-existing class hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `classes` is empty and
    /// [`HdcError::DimensionMismatch`] if the hypervectors disagree on
    /// dimensionality.
    pub fn from_class_hypervectors(classes: Vec<Hypervector>) -> Result<Self> {
        let dim = classes
            .first()
            .map(Hypervector::dim)
            .ok_or_else(|| HdcError::InvalidArgument("classes must be non-empty".into()))?;
        for c in &classes {
            if c.dim() != dim {
                return Err(HdcError::DimensionMismatch { expected: dim, actual: c.dim() });
            }
        }
        Ok(Self { classes, dim })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the hypervector of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] for an unknown class.
    pub fn class(&self, class: usize) -> Result<&Hypervector> {
        self.classes
            .get(class)
            .ok_or(HdcError::IndexOutOfRange { index: class, bound: self.classes.len() })
    }

    /// Mutably borrows the hypervector of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] for an unknown class.
    pub fn class_mut(&mut self, class: usize) -> Result<&mut Hypervector> {
        let bound = self.classes.len();
        self.classes.get_mut(class).ok_or(HdcError::IndexOutOfRange { index: class, bound })
    }

    /// Borrows all class hypervectors.
    pub fn classes(&self) -> &[Hypervector] {
        &self.classes
    }

    /// Bundles `sample` into the hypervector of `class` (plain accumulation,
    /// the "single-pass" training of classic HDC).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] for an unknown class or
    /// [`HdcError::DimensionMismatch`] if `sample` has the wrong length.
    pub fn accumulate(&mut self, class: usize, sample: &Hypervector) -> Result<()> {
        self.add_scaled(class, sample, 1.0)
    }

    /// Adds `weight * sample` to the hypervector of `class` — the primitive
    /// behind CyberHD's adaptive update.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] for an unknown class or
    /// [`HdcError::DimensionMismatch`] if `sample` has the wrong length.
    pub fn add_scaled(&mut self, class: usize, sample: &Hypervector, weight: f32) -> Result<()> {
        if sample.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: sample.dim() });
        }
        self.class_mut(class)?.bundle_scaled_in_place(sample, weight)
    }

    /// Cosine similarity of `query` to every class, in class order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query` has the wrong
    /// length.
    pub fn similarities(&self, query: &Hypervector) -> Result<Vec<f32>> {
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: query.dim() });
        }
        let qn = query.norm();
        Ok(self
            .classes
            .iter()
            .map(|c| similarity::cosine_with_norm(query.as_slice(), qn, c.as_slice(), c.norm()))
            .collect())
    }

    /// Returns the most similar class and its cosine similarity.
    ///
    /// Ties are broken in favour of the lowest class index, which keeps
    /// inference deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query` has the wrong
    /// length.
    pub fn nearest(&self, query: &Hypervector) -> Result<(usize, f32)> {
        let sims = self.similarities(query)?;
        Ok(similarity::argmax(&sims).expect("memory always has at least one class"))
    }

    /// L2 norm of every class hypervector, in class order.
    ///
    /// The batched inference engine computes these **once per batch** and
    /// reuses them for every query, instead of the per-query recomputation
    /// of the serial [`AssociativeMemory::similarities`] path.
    pub fn class_norms(&self) -> Vec<f32> {
        self.classes.iter().map(Hypervector::norm).collect()
    }

    /// Writes the cosine similarity of `query` (a raw `dim`-length slice) to
    /// every class into `out`, reusing pre-computed `class_norms`.
    ///
    /// This is the zero-allocation core of both the batched engine and the
    /// trainer's per-epoch scoring loop; it produces bit-identical values to
    /// [`AssociativeMemory::similarities`] because the cached norms are the
    /// same `Hypervector::norm` results the serial path recomputes.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query` is not `dim` long
    /// or if `class_norms`/`out` do not have one entry per class.
    pub fn similarities_into(
        &self,
        query: &[f32],
        class_norms: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        if query.len() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: query.len() });
        }
        if class_norms.len() != self.classes.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.classes.len(),
                actual: class_norms.len(),
            });
        }
        if out.len() != self.classes.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.classes.len(),
                actual: out.len(),
            });
        }
        self.similarities_with_query_norm(query, similarity::norm(query), class_norms, out)
    }

    /// [`AssociativeMemory::similarities_into`] with the query norm supplied
    /// by the caller.
    ///
    /// The mini-batch training engine caches per-row norms of its encoded
    /// matrix (rows only change at regeneration), which removes one full
    /// `dim`-length pass per scored sample; passing the cached
    /// `similarity::norm` value produces bit-identical scores to
    /// [`AssociativeMemory::similarities_into`] recomputing it.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] under the same conditions as
    /// [`AssociativeMemory::similarities_into`].
    pub fn similarities_with_query_norm(
        &self,
        query: &[f32],
        query_norm: f32,
        class_norms: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        if query.len() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: query.len() });
        }
        if class_norms.len() != self.classes.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.classes.len(),
                actual: class_norms.len(),
            });
        }
        if out.len() != self.classes.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.classes.len(),
                actual: out.len(),
            });
        }
        self.class_dots_interleaved(query, out);
        for (slot, &cn) in out.iter_mut().zip(class_norms) {
            // `similarity::cosine_with_norm`'s conventions: zero norms score
            // 0.0, everything else is clamped into [-1, 1].
            *slot = if query_norm == 0.0 || cn == 0.0 {
                0.0
            } else {
                (*slot / (query_norm * cn)).clamp(-1.0, 1.0)
            };
        }
        Ok(())
    }

    /// Interleaved multi-class dot kernel: writes `query · class_k` into
    /// `out[k]` for every class, reading the query **once** for all classes
    /// instead of once per class.
    ///
    /// The query is walked in L1-resident tiles; per tile, every class
    /// accumulates into its own [`crate::kernel::DotBank`] through
    /// `dot_accumulate`, followed by the same [`crate::kernel::DotBank::reduce`]
    /// and serial tail that [`similarity::dot`] uses.  Tile boundaries are
    /// multiples of [`crate::kernel::DOT_BANK_LANES`], so each per-class dot
    /// is **bit-identical to `similarity::dot`** on every dispatch path and
    /// every downstream bit-exactness contract holds.  The win is memory
    /// traffic: at `K` classes the old loop streamed `K` query passes plus
    /// `K` class passes per sample; this kernel streams one query pass
    /// plus the same `K` class passes.
    ///
    /// Shapes are the caller's responsibility (`query.len() == dim`,
    /// `out.len() == num_classes`); the public scoring entry points validate
    /// before calling in.
    fn class_dots_interleaved(&self, query: &[f32], out: &mut [f32]) {
        debug_assert_eq!(query.len(), self.dim);
        debug_assert_eq!(out.len(), self.classes.len());
        use crate::kernel::{DotBank, DOT_BANK_LANES};
        /// Query elements per tile (a 2 KiB slab): small enough to sit in
        /// L1 across all class passes, large enough to amortize the
        /// per-tile class-loop overhead.  Must stay a multiple of
        /// `DOT_BANK_LANES` so tile boundaries never split a bank row
        /// (pinned by a kernel-module test).
        const TILE: usize = 512;
        /// Class banks kept on the stack; realistic NIDS label spaces are
        /// single digits, so the heap fallback is effectively dead code.
        const MAX_STACK_CLASSES: usize = 32;

        let kernels = crate::kernel::active();

        let k = self.classes.len();
        let mut stack = [DotBank::new(); MAX_STACK_CLASSES];
        let mut heap: Vec<DotBank>;
        let banks: &mut [DotBank] = if k <= MAX_STACK_CLASSES {
            &mut stack[..k]
        } else {
            heap = vec![DotBank::new(); k];
            &mut heap
        };

        let main = query.len() - query.len() % DOT_BANK_LANES;
        let mut base = 0usize;
        while base < main {
            let end = (base + TILE).min(main);
            let q_tile = &query[base..end];
            for (class, bank) in self.classes.iter().zip(banks.iter_mut()) {
                kernels.dot_accumulate(bank, q_tile, &class.as_slice()[base..end]);
            }
            base = end;
        }
        for ((slot, class), bank) in out.iter_mut().zip(&self.classes).zip(banks.iter()) {
            let mut dot = bank.reduce();
            let tail = &class.as_slice()[main..];
            for (q, c) in query[main..].iter().zip(tail) {
                dot += q * c;
            }
            *slot = dot;
        }
    }

    /// Scores a row-major `rows × dim` query matrix against every class,
    /// writing a row-major `rows × num_classes` score matrix.
    ///
    /// Class norms are computed **once** and shared by all rows, and the
    /// rows are fanned out across [`crate::parallel::engine_threads`]
    /// scoped threads.
    /// Row `i` of the output equals `self.similarities(query_i)` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `queries` is not a whole
    /// number of `dim`-length rows or `out` is not `rows × num_classes`.
    pub fn similarities_batch(&self, queries: &[f32], out: &mut [f32]) -> Result<()> {
        let rows = self.check_batch_shapes(queries, out.len())?;
        let norms = self.class_norms();
        let classes = self.classes.len();
        crate::parallel::for_each_chunk(
            rows,
            SCORE_CHUNK_ROWS,
            out,
            classes,
            crate::parallel::engine_threads(),
            |chunk, tile| {
                for (local, row) in (chunk.start..chunk.end).enumerate() {
                    let query = &queries[row * self.dim..(row + 1) * self.dim];
                    let scores = &mut tile[local * classes..(local + 1) * classes];
                    self.similarities_into(query, &norms, scores)
                        .expect("shapes validated before the fan-out");
                }
            },
        );
        Ok(())
    }

    /// Predicts the nearest class of every row of a row-major `rows × dim`
    /// query matrix, with class norms computed once for the whole batch.
    ///
    /// Equivalent to calling [`AssociativeMemory::nearest`] per row (same
    /// tie-breaking), at batch cost.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `queries` is not a whole
    /// number of `dim`-length rows.
    pub fn nearest_batch(&self, queries: &[f32]) -> Result<Vec<(usize, f32)>> {
        let classes = self.classes.len();
        let rows = self.check_batch_shapes(queries, queries.len() / self.dim * classes)?;
        let mut scores = vec![0.0f32; rows * classes];
        self.similarities_batch(queries, &mut scores)?;
        Ok(scores
            .chunks_exact(classes)
            .map(|row| similarity::argmax(row).expect("at least one class"))
            .collect())
    }

    /// Validates a `rows × dim` query matrix and an output of `expected_out`
    /// elements, returning the row count.
    fn check_batch_shapes(&self, queries: &[f32], out_len: usize) -> Result<usize> {
        if !queries.len().is_multiple_of(self.dim) {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: queries.len() });
        }
        let rows = queries.len() / self.dim;
        if out_len != rows * self.classes.len() {
            return Err(HdcError::DimensionMismatch {
                expected: rows * self.classes.len(),
                actual: out_len,
            });
        }
        Ok(rows)
    }

    /// Adds `weight * sample` (a raw `dim`-length slice) to the hypervector
    /// of `class` — the slice twin of [`AssociativeMemory::add_scaled`],
    /// used by the trainer's matrix-backed encoding cache.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] for an unknown class or
    /// [`HdcError::DimensionMismatch`] if `sample` has the wrong length.
    pub fn add_scaled_slice(&mut self, class: usize, sample: &[f32], weight: f32) -> Result<()> {
        if sample.len() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: sample.len() });
        }
        let target = self.class_mut(class)?;
        // Kernel axpy: element-wise mul + add, bit-exact on every dispatch
        // path (identical to the plain loop this replaces).
        crate::kernel::active().axpy(target.as_mut_slice(), weight, sample);
        Ok(())
    }

    /// Returns a copy of the memory with every class hypervector normalized
    /// to unit norm (step (D) of the CyberHD workflow).
    pub fn normalized(&self) -> Self {
        Self { classes: self.classes.iter().map(Hypervector::normalized).collect(), dim: self.dim }
    }

    /// Per-dimension variance of the (already provided) class hypervectors.
    ///
    /// For dimension `d`, this is the population variance of
    /// `{C_k[d] | k in classes}`.  Dimensions with near-zero variance carry
    /// the same value for every class and therefore contribute nothing to
    /// discrimination — these are the dimensions CyberHD drops.
    pub fn dimension_variances(&self) -> Vec<f32> {
        let k = self.classes.len() as f32;
        let mut variances = vec![0.0f32; self.dim];
        for (d, var) in variances.iter_mut().enumerate() {
            let mean: f32 = self.classes.iter().map(|c| c[d]).sum::<f32>() / k;
            *var = self.classes.iter().map(|c| (c[d] - mean).powi(2)).sum::<f32>() / k;
        }
        variances
    }

    /// Zeroes dimension `index` in every class hypervector (step (G): drop an
    /// insignificant dimension before regenerating its base vector).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] if `index >= dim()`.
    pub fn zero_dimension(&mut self, index: usize) -> Result<()> {
        if index >= self.dim {
            return Err(HdcError::IndexOutOfRange { index, bound: self.dim });
        }
        for c in &mut self.classes {
            c.zero_dimension(index)?;
        }
        Ok(())
    }

    /// Resets every class hypervector to zero.
    pub fn clear(&mut self) {
        for c in &mut self.classes {
            for v in c.iter_mut() {
                *v = 0.0;
            }
        }
    }

    /// Quantizes every class hypervector at the given bitwidth.
    pub fn quantized(&self, width: BitWidth) -> Vec<QuantizedHypervector> {
        self.classes.iter().map(|c| QuantizedHypervector::quantize(c, width)).collect()
    }

    /// Persists the memory through the artifact codec, bit-exact.
    pub fn write_to(&self, w: &mut crate::codec::Writer) {
        w.usize(self.classes.len());
        for class in &self.classes {
            w.f32_slice(class.as_slice());
        }
    }

    /// Reads a memory persisted by [`AssociativeMemory::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::codec::CodecError`] on a truncated stream, zero
    /// classes, or classes that disagree on dimensionality.
    pub fn read_from(r: &mut crate::codec::Reader<'_>) -> crate::codec::CodecResult<Self> {
        let num_classes = r.usize()?;
        let mut classes = Vec::with_capacity(num_classes.min(r.remaining()));
        for _ in 0..num_classes {
            classes.push(Hypervector::from_vec(r.f32_vec()?));
        }
        Self::from_class_hypervectors(classes)
            .map_err(|e| crate::codec::CodecError::Invalid(format!("class memory: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::HdcRng;

    fn random_hv(dim: usize, rng: &mut HdcRng) -> Hypervector {
        Hypervector::from_fn(dim, |_| rng.standard_normal() as f32)
    }

    #[test]
    fn constructor_validates_arguments() {
        assert!(AssociativeMemory::new(0, 8).is_err());
        assert!(AssociativeMemory::new(2, 0).is_err());
        assert!(AssociativeMemory::new(3, 8).is_ok());
    }

    #[test]
    fn from_class_hypervectors_checks_consistency() {
        assert!(AssociativeMemory::from_class_hypervectors(vec![]).is_err());
        let bad = vec![Hypervector::zeros(4), Hypervector::zeros(5)];
        assert!(AssociativeMemory::from_class_hypervectors(bad).is_err());
        let ok = vec![Hypervector::zeros(4), Hypervector::zeros(4)];
        let m = AssociativeMemory::from_class_hypervectors(ok).unwrap();
        assert_eq!(m.num_classes(), 2);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn accumulate_and_nearest_recover_the_class() {
        let mut rng = HdcRng::seed_from(1);
        let dim = 1024;
        let mut memory = AssociativeMemory::new(3, dim).unwrap();
        let prototypes: Vec<_> = (0..3).map(|_| random_hv(dim, &mut rng)).collect();
        // Accumulate noisy copies of each prototype.
        for (class, proto) in prototypes.iter().enumerate() {
            for _ in 0..20 {
                let noise = random_hv(dim, &mut rng).scaled(0.3);
                let sample = proto.bundle(&noise).unwrap();
                memory.accumulate(class, &sample).unwrap();
            }
        }
        for (class, proto) in prototypes.iter().enumerate() {
            let (winner, sim) = memory.nearest(proto).unwrap();
            assert_eq!(winner, class);
            assert!(sim > 0.5);
        }
    }

    #[test]
    fn similarities_have_one_entry_per_class() {
        let memory = AssociativeMemory::new(5, 16).unwrap();
        let q = Hypervector::zeros(16);
        assert_eq!(memory.similarities(&q).unwrap().len(), 5);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut memory = AssociativeMemory::new(2, 8).unwrap();
        let wrong = Hypervector::zeros(9);
        assert!(matches!(memory.accumulate(0, &wrong), Err(HdcError::DimensionMismatch { .. })));
        assert!(matches!(memory.nearest(&wrong), Err(HdcError::DimensionMismatch { .. })));
    }

    #[test]
    fn unknown_class_is_reported() {
        let mut memory = AssociativeMemory::new(2, 8).unwrap();
        let hv = Hypervector::zeros(8);
        assert!(matches!(memory.accumulate(2, &hv), Err(HdcError::IndexOutOfRange { .. })));
        assert!(memory.class(2).is_err());
    }

    #[test]
    fn normalized_copy_has_unit_norm_classes() {
        let mut rng = HdcRng::seed_from(2);
        let mut memory = AssociativeMemory::new(3, 64).unwrap();
        for c in 0..3 {
            memory.accumulate(c, &random_hv(64, &mut rng)).unwrap();
        }
        let normalized = memory.normalized();
        for c in normalized.classes() {
            assert!((c.norm() - 1.0).abs() < 1e-5);
        }
        // Original is untouched.
        assert!(memory.classes().iter().any(|c| (c.norm() - 1.0).abs() > 1e-3));
    }

    #[test]
    fn dimension_variances_identify_common_dimensions() {
        // Three classes identical in dimension 0 but different in dimension 1.
        let classes = vec![
            Hypervector::from_vec(vec![0.5, 1.0, 0.0]),
            Hypervector::from_vec(vec![0.5, -1.0, 0.0]),
            Hypervector::from_vec(vec![0.5, 0.0, 0.2]),
        ];
        let memory = AssociativeMemory::from_class_hypervectors(classes).unwrap();
        let vars = memory.dimension_variances();
        assert_eq!(vars.len(), 3);
        assert!(vars[0] < 1e-9, "identical dimension has zero variance");
        assert!(vars[1] > vars[2], "most diverse dimension has the largest variance");
    }

    #[test]
    fn zero_dimension_clears_every_class() {
        let mut rng = HdcRng::seed_from(3);
        let mut memory = AssociativeMemory::new(2, 8).unwrap();
        for c in 0..2 {
            memory.accumulate(c, &random_hv(8, &mut rng)).unwrap();
        }
        memory.zero_dimension(4).unwrap();
        for c in memory.classes() {
            assert_eq!(c[4], 0.0);
        }
        assert!(memory.zero_dimension(8).is_err());
    }

    #[test]
    fn clear_resets_all_classes() {
        let mut rng = HdcRng::seed_from(4);
        let mut memory = AssociativeMemory::new(2, 8).unwrap();
        memory.accumulate(0, &random_hv(8, &mut rng)).unwrap();
        memory.clear();
        assert!(memory.classes().iter().all(|c| c.norm() == 0.0));
    }

    #[test]
    fn quantized_export_matches_class_count() {
        let memory = AssociativeMemory::new(4, 32).unwrap();
        let qs = memory.quantized(BitWidth::B4);
        assert_eq!(qs.len(), 4);
        assert!(qs.iter().all(|q| q.dim() == 32));
    }

    #[test]
    fn class_norms_match_per_class_norms() {
        let mut rng = HdcRng::seed_from(5);
        let mut memory = AssociativeMemory::new(3, 32).unwrap();
        for c in 0..3 {
            memory.accumulate(c, &random_hv(32, &mut rng)).unwrap();
        }
        let norms = memory.class_norms();
        for (c, n) in norms.iter().enumerate() {
            assert_eq!(*n, memory.class(c).unwrap().norm());
        }
    }

    #[test]
    fn similarities_into_matches_similarities_exactly() {
        let mut rng = HdcRng::seed_from(6);
        let mut memory = AssociativeMemory::new(4, 64).unwrap();
        for c in 0..4 {
            memory.accumulate(c, &random_hv(64, &mut rng)).unwrap();
        }
        let norms = memory.class_norms();
        let mut scratch = vec![0.0f32; 4];
        for _ in 0..16 {
            let q = random_hv(64, &mut rng);
            memory.similarities_into(q.as_slice(), &norms, &mut scratch).unwrap();
            assert_eq!(scratch, memory.similarities(&q).unwrap());
        }
        // Shape errors.
        assert!(memory.similarities_into(&[0.0; 63], &norms, &mut scratch).is_err());
        assert!(memory.similarities_into(&[0.0; 64], &norms[..3], &mut scratch).is_err());
        assert!(memory.similarities_into(&[0.0; 64], &norms, &mut scratch[..3]).is_err());
    }

    #[test]
    fn cached_query_norm_scoring_is_bit_identical() {
        let mut rng = HdcRng::seed_from(16);
        let mut memory = AssociativeMemory::new(3, 48).unwrap();
        for c in 0..3 {
            memory.accumulate(c, &random_hv(48, &mut rng)).unwrap();
        }
        let norms = memory.class_norms();
        let mut with_cached = vec![0.0f32; 3];
        let mut recomputed = vec![0.0f32; 3];
        for _ in 0..8 {
            let q = random_hv(48, &mut rng);
            let qn = similarity::norm(q.as_slice());
            memory
                .similarities_with_query_norm(q.as_slice(), qn, &norms, &mut with_cached)
                .unwrap();
            memory.similarities_into(q.as_slice(), &norms, &mut recomputed).unwrap();
            assert_eq!(with_cached, recomputed);
        }
        // Shape errors.
        assert!(memory
            .similarities_with_query_norm(&[0.0; 47], 1.0, &norms, &mut with_cached)
            .is_err());
        assert!(memory
            .similarities_with_query_norm(&[0.0; 48], 1.0, &norms[..2], &mut with_cached)
            .is_err());
        assert!(memory
            .similarities_with_query_norm(&[0.0; 48], 1.0, &norms, &mut with_cached[..2])
            .is_err());
    }

    #[test]
    fn interleaved_multi_class_dots_are_bit_identical_to_serial_dots() {
        let mut rng = HdcRng::seed_from(23);
        // Odd dims exercise the serial tail; 40 classes exercise the heap
        // fallback past the stack accumulator banks.
        for (classes, dim) in [(1usize, 4usize), (3, 47), (5, 513), (40, 130), (4, 2051)] {
            let mut memory = AssociativeMemory::new(classes, dim).unwrap();
            for c in 0..classes {
                memory.accumulate(c, &random_hv(dim, &mut rng)).unwrap();
            }
            let norms = memory.class_norms();
            let mut scores = vec![0.0f32; classes];
            for _ in 0..4 {
                let q = random_hv(dim, &mut rng);
                let qn = similarity::norm(q.as_slice());
                memory.similarities_with_query_norm(q.as_slice(), qn, &norms, &mut scores).unwrap();
                for (c, &score) in scores.iter().enumerate() {
                    let class = memory.class(c).unwrap();
                    let serial =
                        similarity::cosine_with_norm(q.as_slice(), qn, class.as_slice(), norms[c]);
                    assert_eq!(score.to_bits(), serial.to_bits(), "class {c} dim {dim}");
                }
            }
        }
    }

    #[test]
    fn batched_scoring_matches_the_serial_path_row_by_row() {
        let mut rng = HdcRng::seed_from(7);
        let (classes, dim, rows) = (3, 48, 300);
        let mut memory = AssociativeMemory::new(classes, dim).unwrap();
        for c in 0..classes {
            memory.accumulate(c, &random_hv(dim, &mut rng)).unwrap();
        }
        let queries: Vec<f32> = (0..rows * dim).map(|_| rng.standard_normal() as f32).collect();
        let mut scores = vec![f32::NAN; rows * classes];
        memory.similarities_batch(&queries, &mut scores).unwrap();
        let winners = memory.nearest_batch(&queries).unwrap();
        assert_eq!(winners.len(), rows);
        for row in 0..rows {
            let q = Hypervector::from_vec(queries[row * dim..(row + 1) * dim].to_vec());
            let serial = memory.similarities(&q).unwrap();
            assert_eq!(&scores[row * classes..(row + 1) * classes], serial.as_slice());
            assert_eq!(winners[row], memory.nearest(&q).unwrap());
        }
    }

    #[test]
    fn batched_scoring_validates_shapes() {
        let memory = AssociativeMemory::new(2, 8).unwrap();
        let mut out = vec![0.0f32; 2];
        // Not a whole number of rows.
        assert!(memory.similarities_batch(&[0.0; 12], &mut out).is_err());
        // Output too small for the row count.
        assert!(memory.similarities_batch(&[0.0; 16], &mut out).is_err());
        assert!(memory.nearest_batch(&[0.0; 12]).is_err());
    }

    #[test]
    fn add_scaled_slice_matches_add_scaled() {
        let mut rng = HdcRng::seed_from(8);
        let sample = random_hv(16, &mut rng);
        let mut a = AssociativeMemory::new(2, 16).unwrap();
        let mut b = a.clone();
        a.add_scaled(1, &sample, 0.35).unwrap();
        b.add_scaled_slice(1, sample.as_slice(), 0.35).unwrap();
        assert_eq!(a, b);
        assert!(b.add_scaled_slice(5, sample.as_slice(), 1.0).is_err());
        assert!(b.add_scaled_slice(0, &[0.0; 15], 1.0).is_err());
    }

    #[test]
    fn nearest_breaks_ties_deterministically() {
        let memory = AssociativeMemory::new(3, 4).unwrap();
        // All classes are zero vectors -> all similarities are 0 -> class 0 wins.
        let q = Hypervector::from_vec(vec![1.0, 0.0, 0.0, 0.0]);
        let (winner, sim) = memory.nearest(&q).unwrap();
        assert_eq!(winner, 0);
        assert_eq!(sim, 0.0);
    }
}
