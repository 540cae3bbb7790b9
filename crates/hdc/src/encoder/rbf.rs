//! RBF (random-Fourier-feature) encoder with per-dimension regeneration.
//!
//! The CyberHD paper uses an encoder "inspired by the Radial Basis Function"
//! (Rahimi & Recht, random features for kernel machines): each hypervector
//! dimension `d` is produced by projecting the feature vector `x` onto a
//! Gaussian base vector `b_d` (plus a uniform phase `φ_d`) and passing the
//! result through a cosine:
//!
//! ```text
//! h_d = cos(b_d · x + φ_d)
//! ```
//!
//! Because each output dimension depends on exactly one base vector, a
//! dimension that turns out to be non-discriminative can be *regenerated* by
//! replacing its `(b_d, φ_d)` pair with a fresh Gaussian/uniform draw — which
//! is precisely step (H) of CyberHD.

use crate::batch::BatchView;
use crate::codec::{CodecError, CodecResult, Reader, Writer};
use crate::encoder::Encoder;
use crate::rng::HdcRng;
use crate::{HdcError, Result};
use serde::{Deserialize, Serialize};

/// Nonlinear random-projection encoder (random Fourier features).
///
/// # Example
///
/// ```
/// use hdc::encoder::{Encoder, RbfEncoder};
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let mut encoder = RbfEncoder::new(3, 64, 42)?;
/// let before = encoder.encode(&[0.1, 0.5, -0.3])?;
///
/// // Regenerating a dimension changes (only) that output coordinate.
/// encoder.regenerate_dimension(7)?;
/// let after = encoder.encode(&[0.1, 0.5, -0.3])?;
/// assert_eq!(before.dim(), after.dim());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RbfEncoder {
    /// The Gaussian base matrix, stored feature-major: `features` rows of
    /// `dim` entries, so column `d` is the base vector of output dimension
    /// `d`.  The batch kernel accumulates projections *vertically* across
    /// output dimensions, which turns the inner loop into a pure
    /// element-wise multiply-add the auto-vectorizer handles far better
    /// than horizontal dot reductions.
    bases_t: LineAligned,
    /// Per-dimension phase offsets, uniform in `[0, 2π)`.
    phases: Vec<f32>,
    features: usize,
    dim: usize,
    /// Standard deviation of the Gaussian base entries (kernel bandwidth).
    sigma: f32,
    /// Construction seed; regeneration draws are derived from it together
    /// with the running regeneration counter, so the whole encoder history is
    /// reproducible and serializable.
    seed: u64,
    /// Total number of regeneration draws performed so far.
    regenerated: usize,
}

impl RbfEncoder {
    /// Creates an encoder for `features`-dimensional inputs producing
    /// `dim`-dimensional hypervectors, with unit kernel bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `features` or `dim` is zero.
    pub fn new(features: usize, dim: usize, seed: u64) -> Result<Self> {
        Self::with_sigma(features, dim, 1.0, seed)
    }

    /// Creates an encoder with an explicit Gaussian bandwidth `sigma`.
    ///
    /// Larger `sigma` makes the random projections more sensitive to small
    /// feature differences (narrower effective kernel).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `features` or `dim` is zero,
    /// or if `sigma` is not strictly positive and finite.
    pub fn with_sigma(features: usize, dim: usize, sigma: f32, seed: u64) -> Result<Self> {
        if features == 0 {
            return Err(HdcError::InvalidArgument("features must be non-zero".into()));
        }
        if dim == 0 {
            return Err(HdcError::InvalidArgument("dim must be non-zero".into()));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(HdcError::InvalidArgument(format!(
                "sigma must be positive and finite, got {sigma}"
            )));
        }
        // Draw base vector by base vector, each into its column of the
        // feature-major matrix: the draw order is the persisted row-major
        // order, which a seed pins.
        let mut rng = HdcRng::seed_from(seed);
        let mut bases_t = LineAligned::zeroed(dim * features);
        let out = bases_t.as_mut_slice();
        for d in 0..dim {
            for f in 0..features {
                out[f * dim + d] = rng.normal(0.0, sigma as f64) as f32;
            }
        }
        let mut phases = vec![0.0f32; dim];
        rng.fill_uniform(&mut phases, 0.0, std::f64::consts::TAU);
        Ok(Self { bases_t, phases, features, dim, sigma, seed, regenerated: 0 })
    }

    /// Kernel bandwidth used for the Gaussian base entries.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Number of base-vector regenerations performed since construction.
    ///
    /// CyberHD's *effective dimensionality* is
    /// `physical dim + regeneration_count()`.
    pub fn regeneration_count(&self) -> usize {
        self.regenerated
    }

    /// Encodes only the output dimensions `dims` of every row of `batch`:
    /// `out` (row-major `rows × dims.len()`) receives column `j` = dimension
    /// `dims[j]`.
    ///
    /// The CyberHD trainer uses this to re-encode just the regenerated
    /// dimensions of its cached training matrix after a regeneration round
    /// instead of re-running the full encoder.  The block is bit-identical
    /// to the matching columns of [`Encoder::encode_batch_into`]: the
    /// selected base columns and phases are gathered into one block that
    /// the same tiled projection + cosine loop runs over.  `dims` may be
    /// unsorted and may repeat; an empty `dims` writes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] if any `d >= output_dim()`,
    /// [`HdcError::FeatureMismatch`] if the batch width is not
    /// `input_features()` and [`HdcError::DimensionMismatch`] if `out` is not
    /// `rows × dims.len()` long.
    pub fn encode_dimensions_batch(
        &self,
        batch: BatchView<'_>,
        dims: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        crate::encoder::check_batch_shape(self.features, dims.len(), batch, out)?;
        if let Some(&d) = dims.iter().find(|&&d| d >= self.dim) {
            return Err(HdcError::IndexOutOfRange { index: d, bound: self.dim });
        }
        if dims.is_empty() {
            return Ok(());
        }
        let mut bases = LineAligned::zeroed(self.features * dims.len());
        for (gathered, row) in bases
            .as_mut_slice()
            .chunks_exact_mut(dims.len())
            .zip(self.bases_t.as_slice().chunks_exact(self.dim))
        {
            for (g, &d) in gathered.iter_mut().zip(dims) {
                *g = row[d];
            }
        }
        let phases: Vec<f32> = dims.iter().map(|&d| self.phases[d]).collect();
        encode_columns(batch, bases.as_slice(), &phases, out);
        Ok(())
    }

    /// Replaces the base vector and phase of dimension `d` with a fresh
    /// Gaussian/uniform draw (step (H) of CyberHD).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] if `d >= output_dim()`.
    pub fn regenerate_dimension(&mut self, d: usize) -> Result<()> {
        if d >= self.dim {
            return Err(HdcError::IndexOutOfRange { index: d, bound: self.dim });
        }
        // Derive an independent stream from (construction seed, draw index,
        // dimension): deterministic, and it keeps the encoder serializable.
        let stream = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((self.regenerated as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(d as u64);
        let mut rng = HdcRng::seed_from(stream);
        let sigma = self.sigma as f64;
        for base in self.bases_t.as_mut_slice().iter_mut().skip(d).step_by(self.dim) {
            *base = rng.normal(0.0, sigma) as f32;
        }
        self.phases[d] = rng.uniform(0.0, std::f64::consts::TAU) as f32;
        self.regenerated += 1;
        Ok(())
    }

    /// Regenerates every dimension in `dims` (duplicates are regenerated
    /// multiple times, matching a caller that passes an explicit drop list).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] on the first out-of-range index;
    /// dimensions before it will already have been regenerated.
    pub fn regenerate_dimensions(&mut self, dims: &[usize]) -> Result<()> {
        for &d in dims {
            self.regenerate_dimension(d)?;
        }
        Ok(())
    }

    /// Persists the encoder through the artifact codec: sizes, `sigma`,
    /// `seed`, regeneration count, the base matrix (row-major, one base
    /// vector per output dimension, as `f32_slice` lays it out) and the
    /// phases.
    pub fn write_to(&self, w: &mut Writer) {
        w.usize(self.features);
        w.usize(self.dim);
        w.f32(self.sigma);
        w.u64(self.seed);
        w.usize(self.regenerated);
        let bases_t = self.bases_t.as_slice();
        w.usize(bases_t.len());
        for d in 0..self.dim {
            for f in 0..self.features {
                w.f32(bases_t[f * self.dim + d]);
            }
        }
        w.f32_slice(&self.phases);
    }

    /// Reads an encoder persisted by [`RbfEncoder::write_to`], bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated stream or inconsistent shapes.
    pub fn read_from(r: &mut Reader<'_>) -> CodecResult<Self> {
        let features = r.usize()?;
        let dim = r.usize()?;
        let sigma = r.f32()?;
        let seed = r.u64()?;
        let regenerated = r.usize()?;
        let bases = r.f32_vec()?;
        let phases = r.f32_vec()?;
        if features == 0 || dim == 0 {
            return Err(CodecError::Invalid("RBF encoder with zero features or dim".into()));
        }
        if bases.len() != dim * features || phases.len() != dim {
            return Err(CodecError::Invalid(format!(
                "RBF encoder shape mismatch: {} bases / {} phases for dim {dim} x features \
                 {features}",
                bases.len(),
                phases.len()
            )));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(CodecError::Invalid(format!("RBF sigma {sigma}")));
        }
        let bases_t = transpose(&bases, dim, features);
        Ok(Self { bases_t, phases, features, dim, sigma, seed, regenerated })
    }
}

/// Number of samples each pass over the base matrix serves in the blocked
/// batch kernel: every transposed base row loaded into cache is reused for
/// the whole block instead of a single sample.
const RBF_SAMPLE_BLOCK: usize = 16;

/// Output-dimension tile width of the blocked batch kernel.  One tile row
/// (`RBF_DIM_TILE` f32 = 8 KiB) stays L1-resident while it is applied to
/// every sample of the block, and the block's projection tiles
/// (`RBF_SAMPLE_BLOCK × 8 KiB`) stay L2-resident across the feature loop.
const RBF_DIM_TILE: usize = 2048;

/// Bytes in a cache line.
const LINE_BYTES: usize = 64;

/// `f32` storage whose first element sits on a cache-line boundary: the
/// transposed base matrix every encode streams (and the column block
/// gathered from it for a regeneration re-encode), and the projection
/// accumulators of both kernels.
///
/// The kernels accumulate in this storage they own, not in the caller's
/// buffer: a heap `Vec<f32>` or a stack array is only 16-byte aligned, and
/// the offset a process happens to get decides whether every 64-byte vector
/// access of the hot loop splits across two lines — 7.6 against 9.2 µs for
/// one single-row encode at D=2048, varying from run to run.
#[derive(Debug)]
struct LineAligned {
    /// Padding up to the boundary, then the elements.
    buf: Vec<f32>,
    start: usize,
}

impl LineAligned {
    /// `f32` elements per cache line.
    const LANES: usize = LINE_BYTES / std::mem::size_of::<f32>();

    /// An empty buffer with room for `len` elements past its first line
    /// boundary, and the index of that boundary.
    fn with_room(len: usize) -> (Vec<f32>, usize) {
        let buf = Vec::<f32>::with_capacity(len + Self::LANES - 1);
        // `align_offset` may decline (usize::MAX); that costs speed only.
        let start = buf.as_ptr().align_offset(LINE_BYTES).min(Self::LANES - 1);
        (buf, start)
    }

    fn zeroed(len: usize) -> Self {
        let (mut buf, start) = Self::with_room(len);
        buf.resize(start + len, 0.0);
        Self { buf, start }
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..]
    }
}

impl Clone for LineAligned {
    /// The copy lives at a new address, so it is aligned afresh.
    fn clone(&self) -> Self {
        let values = self.as_slice();
        let (mut buf, start) = Self::with_room(values.len());
        buf.resize(start, 0.0);
        buf.extend_from_slice(values);
        Self { buf, start }
    }
}

/// Samples per block of the fused sign-encode kernel.
const SIGN_SAMPLE_BLOCK: usize = 8;

/// Output-dimension tile width of the fused sign-encode kernel.  Must be a
/// multiple of 64 so tiles pack into whole `u64` words; the block's
/// projection accumulators (`SIGN_SAMPLE_BLOCK × SIGN_DIM_TILE` f32 =
/// 16 KiB) plus one 2 KiB base tile stay L1-resident across the feature
/// loop, instead of streaming `RBF_SAMPLE_BLOCK × 8 KiB` of partial sums
/// through L2 like the full-precision kernel.
const SIGN_DIM_TILE: usize = 512;

/// Builds the feature-major transpose of a row-major `dim × features`
/// matrix.
fn transpose(bases: &[f32], dim: usize, features: usize) -> LineAligned {
    let mut transposed = LineAligned::zeroed(bases.len());
    let out = transposed.as_mut_slice();
    for d in 0..dim {
        for f in 0..features {
            out[f * dim + d] = bases[d * features + f];
        }
    }
    transposed
}

// Two-step Cody–Waite range reduction of `x` to `r ∈ [-π, π]` (modulo 2π),
// shared by `fast_cos` and the fused sign kernel so both see bit-identical
// reduced arguments.  It lives in `crate::kernel` so the SIMD quadrant
// kernels perform the identical IEEE operation sequence (including
// ties-to-even wrap-count rounding) and stay bit-exact against the scalar
// path.
use crate::kernel::reduce_to_pi;

/// Even Taylor polynomial for `cos(r)` evaluated on `r²`, through `r¹⁶/16!`
/// (max error ~2e-9 at π, below the f32 evaluation noise).
#[inline]
fn cos_poly(r2: f32) -> f32 {
    let mut p = 4.779_477_3e-14f32; // 1/16!
    p = p * r2 - 1.147_074_6e-11; // -1/14!
    p = p * r2 + 2.087_676_e-9; // 1/12!
    p = p * r2 - 2.755_732e-7; // -1/10!
    p = p * r2 + 2.480_158_7e-5; // 1/8!
    p = p * r2 - 1.388_888_9e-3; // -1/6!
    p = p * r2 + 4.166_666_7e-2; // 1/4!
    p = p * r2 - 0.5; // -1/2!
    p * r2 + 1.0
}

/// Branch-free cosine of every RBF encode path: [`reduce_to_pi`] followed
/// by `cos_poly`.
///
/// Every operation (`round`, multiplies, adds) lowers to straight-line SIMD,
/// so the final `cos` pass over an encode tile auto-vectorizes — `libm`'s
/// scalar `cosf` call would be the single largest cost of the encode
/// otherwise.  Absolute error against the exact cosine stays below ~1e-6
/// for the |x| ≲ 100 range RBF projections occupy (‖x‖₂·σ·√features plus a
/// phase).
#[inline]
fn fast_cos(x: f32) -> f32 {
    let r = reduce_to_pi(x);
    cos_poly(r * r)
}

/// Half-width of the guard band around the quadrant boundary `|r| = π/2`
/// inside which the sign kernel falls back to the exact `cos_poly`
/// evaluation.
///
/// Outside the band `|cos r| ≥ sin(1e-3) ≈ 1e-3`, three orders of magnitude
/// above `cos_poly`'s error, so the plain quadrant test `|r| ≤ π/2` is
/// guaranteed to agree with the polynomial's sign — which is what makes the
/// fused kernel's predictions bit-exact against encode-then-quantize.
const QUADRANT_GUARD: f32 = 1e-3;

/// The tiled projection + cosine loop behind every full-precision RBF
/// encode: row `i` of `out` (row-major `rows × phases.len()`) receives
/// `cos(phases[j] + Σ_f x_{i,f} · bases_t[f][j])` for every column `j`.
/// `bases_t` is feature-major (`features` rows of `phases.len()` entries):
/// the whole transposed base matrix for a full encode, or a gathered column
/// block for [`RbfEncoder::encode_dimensions_batch`], so both see the same
/// operations in the same order.  `phases` must be non-empty and the shapes
/// checked by the caller.
fn encode_columns(batch: BatchView<'_>, bases_t: &[f32], phases: &[f32], out: &mut [f32]) {
    let dim = phases.len();
    let kernels = crate::kernel::active();
    let stride = dim.min(RBF_DIM_TILE);
    let mut proj = LineAligned::zeroed(batch.rows().min(RBF_SAMPLE_BLOCK) * stride);
    let proj = proj.as_mut_slice();
    for (block, tile) in
        batch.chunk_rows(RBF_SAMPLE_BLOCK).zip(out.chunks_mut(RBF_SAMPLE_BLOCK * dim))
    {
        for d0 in (0..dim).step_by(RBF_DIM_TILE) {
            let d1 = (d0 + RBF_DIM_TILE).min(dim);
            let width = d1 - d0;
            // proj[s][d] starts at the phase and accumulates the projection.
            for acc in proj.chunks_exact_mut(stride).take(block.rows()) {
                acc[..width].copy_from_slice(&phases[d0..d1]);
            }
            for (f, feature_bases) in bases_t.chunks_exact(dim).enumerate() {
                let base_tile = &feature_bases[d0..d1];
                for (acc, sample) in proj.chunks_exact_mut(stride).zip(block.iter_rows()) {
                    let value = sample[f];
                    if value == 0.0 {
                        continue;
                    }
                    // Kernel axpy (`acc += value * base`): element-wise
                    // mul + add, bit-exact on every dispatch path.
                    kernels.axpy(&mut acc[..width], value, base_tile);
                }
            }
            for (acc, row) in proj.chunks_exact(stride).zip(tile.chunks_exact_mut(dim)) {
                for (v, &p) in row[d0..d1].iter_mut().zip(&acc[..width]) {
                    *v = fast_cos(p);
                }
            }
        }
    }
}

impl Encoder for RbfEncoder {
    fn input_features(&self) -> usize {
        self.features
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    /// The batch kernel at `n = 1`: single-row and batched encodings are
    /// bit-identical by construction.
    fn encode_into(&self, features: &[f32], out: &mut [f32]) -> Result<()> {
        // A wrong `features` length must not be re-read as a multi-row
        // view; a wrong `out` length is reported by the kernel's own shape
        // check as the same `DimensionMismatch { expected: dim, .. }`.
        if features.len() != self.features {
            return Err(HdcError::FeatureMismatch {
                expected: self.features,
                actual: features.len(),
            });
        }
        self.encode_batch_into(BatchView::new(features, self.features)?, out)
    }

    /// Tiled, transposed batch kernel (GEMM-style): projections are
    /// accumulated *vertically* over `RBF_DIM_TILE`-wide output tiles
    /// using the feature-major transpose of the base matrix, so
    ///
    /// * the inner loop is a pure element-wise multiply-add with unit
    ///   stride (the auto-vectorizer's best case, no horizontal
    ///   reductions),
    /// * each transposed base row is loaded into cache once per
    ///   `RBF_SAMPLE_BLOCK`-sample block instead of once per sample.
    ///
    /// This is the encoder's only f32 arithmetic: [`Encoder::encode_into`]
    /// is this kernel at `n = 1` and [`RbfEncoder::encode_dimensions_batch`]
    /// runs the same loop over a gathered column block, so every encode
    /// path agrees bit for bit.  Each element starts at its phase and adds the
    /// `x_f · b_{d,f}` terms in ascending feature order, which also makes
    /// the output independent of how a batch is split into blocks.
    ///
    /// Exactly-zero features are skipped, like in the fused sign kernel:
    /// their products are ±0.0 and the accumulators are never −0.0 (they
    /// start at non-negative phases and IEEE round-to-nearest cancellation
    /// yields +0.0), so the skip is bit-exact — and one-hot-expanded NIDS
    /// features are mostly zeros.
    ///
    /// Projections accumulate in cache-line-aligned storage the kernel owns
    /// and reach `out` once, as cosines, so the cost does not depend on
    /// how the caller's buffer happens to be aligned.
    fn encode_batch_into(&self, batch: BatchView<'_>, out: &mut [f32]) -> Result<()> {
        crate::encoder::check_batch_shape(self.features, self.dim, batch, out)?;
        encode_columns(batch, self.bases_t.as_slice(), &self.phases, out);
        Ok(())
    }

    /// Fused 1-bit sign-encode kernel: accumulates the projections in
    /// L1-resident `SIGN_SAMPLE_BLOCK``×``SIGN_DIM_TILE` register tiles
    /// and reduces each phase straight to its quadrant — for `B1` only the
    /// *sign* of `cos(b_d·x + φ_d)` survives quantization, and
    /// `cos(r) ≥ 0 ⇔ |r| ≤ π/2` after range reduction — packing bits
    /// directly into `u64` words.  The `samples × dim` f32 matrix, the
    /// cosine polynomial and the separate quantize/pack passes of the
    /// encode-then-quantize path are all skipped.
    ///
    /// Projections accumulate features in the same order as
    /// [`Encoder::encode_batch_into`], and elements inside the narrow
    /// `QUADRANT_GUARD` band fall back to the exact `cos_poly` sign, so
    /// the packed bits are **bit-identical** to sign-thresholding the
    /// batched f32 encoding.
    fn encode_signs_into(
        &self,
        batch: BatchView<'_>,
        words: &mut [u64],
        zero_rows: &mut [bool],
    ) -> Result<()> {
        crate::encoder::check_sign_batch_shape(self.features, self.dim, batch, words, zero_rows)?;
        const WORD_BITS: usize = 64;
        let dim = self.dim;
        let kernels = crate::kernel::active();
        let words_per_row = crate::binary::words_for_dim(dim);
        zero_rows.fill(true);
        let mut acc = LineAligned::zeroed(SIGN_SAMPLE_BLOCK * SIGN_DIM_TILE);
        let acc = acc.as_mut_slice();
        for (block_index, block) in batch.chunk_rows(SIGN_SAMPLE_BLOCK).enumerate() {
            let row0 = block_index * SIGN_SAMPLE_BLOCK;
            for d0 in (0..dim).step_by(SIGN_DIM_TILE) {
                let d1 = (d0 + SIGN_DIM_TILE).min(dim);
                let tile_width = d1 - d0;
                // Projections start at the phases and accumulate features in
                // ascending order — the association order of the batched f32
                // kernel, so the sums are bit-identical to it.
                for s in 0..block.rows() {
                    acc[s * SIGN_DIM_TILE..s * SIGN_DIM_TILE + tile_width]
                        .copy_from_slice(&self.phases[d0..d1]);
                }
                for (f, feature_bases) in self.bases_t.as_slice().chunks_exact(dim).enumerate() {
                    let base_tile = &feature_bases[d0..d1];
                    for (s, sample) in block.iter_rows().enumerate() {
                        let value = sample[f];
                        // Zero features contribute exactly nothing: the
                        // products are ±0.0 and the accumulators are never
                        // -0.0 (they start at non-negative phases, and IEEE
                        // round-to-nearest cancellation yields +0.0), so
                        // skipping them is bit-exact — and one-hot-expanded
                        // NIDS features are mostly zeros.
                        if value == 0.0 {
                            continue;
                        }
                        // Kernel axpy, bit-exact with the batched f32 path.
                        kernels.axpy(
                            &mut acc[s * SIGN_DIM_TILE..s * SIGN_DIM_TILE + tile_width],
                            value,
                            base_tile,
                        );
                    }
                }
                // Quadrant test + pack.  SIGN_DIM_TILE is a multiple of 64,
                // so every tile starts on a word boundary and only the final
                // ragged tile can end mid-word (its high bits stay zero, the
                // packing convention).
                let word0 = d0 / WORD_BITS;
                for s in 0..block.rows() {
                    let row_words =
                        &mut words[(row0 + s) * words_per_row..(row0 + s + 1) * words_per_row];
                    let mut row_zero = zero_rows[row0 + s];
                    let tile = &acc[s * SIGN_DIM_TILE..s * SIGN_DIM_TILE + tile_width];
                    for (w, chunk) in tile.chunks(WORD_BITS).enumerate() {
                        // Fused quadrant test via the active kernel path:
                        // bit-exact across paths (identical IEEE range
                        // reduction, ordered compares).
                        let (mut word, band) = kernels.sign_quadrant_word(chunk, QUADRANT_GUARD);
                        // Rare fixup: elements within the guard band of the
                        // quadrant boundary get the exact polynomial sign.
                        let mut band_nonzero_value = false;
                        let mut pending = band;
                        while pending != 0 {
                            let bit = pending.trailing_zeros() as usize;
                            pending &= pending - 1;
                            let r = reduce_to_pi(chunk[bit]);
                            let c = cos_poly(r * r);
                            if c >= 0.0 {
                                word |= 1u64 << bit;
                            } else {
                                word &= !(1u64 << bit);
                            }
                            band_nonzero_value |= c != 0.0;
                        }
                        // Outside the band `fast_cos` is bounded away from
                        // zero, so a row can only be all-`0.0` if every
                        // element sat in the band and evaluated to exactly
                        // zero.
                        let full = if chunk.len() == WORD_BITS {
                            u64::MAX
                        } else {
                            (1u64 << chunk.len()) - 1
                        };
                        if band != full || band_nonzero_value {
                            row_zero = false;
                        }
                        row_words[word0 + w] = word;
                    }
                    zero_rows[row0 + s] = row_zero;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_arguments() {
        assert!(RbfEncoder::new(0, 8, 0).is_err());
        assert!(RbfEncoder::new(4, 0, 0).is_err());
        assert!(RbfEncoder::with_sigma(4, 8, 0.0, 0).is_err());
        assert!(RbfEncoder::with_sigma(4, 8, f32::NAN, 0).is_err());
        assert!(RbfEncoder::new(4, 8, 0).is_ok());
    }

    #[test]
    fn encoding_is_deterministic_and_bounded() {
        let e = RbfEncoder::new(5, 128, 3).unwrap();
        let x = [0.1, -0.2, 0.3, 0.4, -0.5];
        let a = e.encode(&x).unwrap();
        let b = e.encode(&x).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)), "cosine outputs stay in [-1, 1]");
    }

    #[test]
    fn feature_mismatch_is_reported() {
        let e = RbfEncoder::new(5, 16, 0).unwrap();
        assert!(matches!(
            e.encode(&[1.0, 2.0]),
            Err(HdcError::FeatureMismatch { expected: 5, actual: 2 })
        ));
    }

    #[test]
    fn nearby_inputs_encode_to_similar_hypervectors() {
        let e = RbfEncoder::with_sigma(8, 2048, 0.5, 7).unwrap();
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let mut x_near = x.clone();
        x_near[0] += 0.01;
        let mut x_far = x.clone();
        for v in &mut x_far {
            *v += 2.0;
        }
        let hx = e.encode(&x).unwrap();
        let hnear = e.encode(&x_near).unwrap();
        let hfar = e.encode(&x_far).unwrap();
        let sim_near = hx.cosine(&hnear).unwrap();
        let sim_far = hx.cosine(&hfar).unwrap();
        assert!(sim_near > sim_far + 0.1, "locality: near {sim_near} should exceed far {sim_far}");
    }

    #[test]
    fn different_seeds_produce_different_encoders() {
        let a = RbfEncoder::new(4, 256, 1).unwrap();
        let b = RbfEncoder::new(4, 256, 2).unwrap();
        let x = [0.3, 0.1, -0.7, 0.9];
        let ha = a.encode(&x).unwrap();
        let hb = b.encode(&x).unwrap();
        assert!(ha.cosine(&hb).unwrap() < 0.9);
    }

    #[test]
    fn regeneration_changes_only_the_targeted_dimension() {
        let mut e = RbfEncoder::new(6, 64, 9).unwrap();
        let x = [0.2, -0.1, 0.5, 0.7, -0.3, 0.0];
        let before = e.encode(&x).unwrap();
        e.regenerate_dimension(10).unwrap();
        let after = e.encode(&x).unwrap();
        for d in 0..64 {
            if d == 10 {
                continue;
            }
            assert_eq!(before[d], after[d], "dimension {d} should be unchanged");
        }
        assert_eq!(e.regeneration_count(), 1);
    }

    #[test]
    fn regenerate_dimensions_counts_every_draw() {
        let mut e = RbfEncoder::new(3, 32, 11).unwrap();
        e.regenerate_dimensions(&[0, 5, 5, 31]).unwrap();
        assert_eq!(e.regeneration_count(), 4);
        assert!(e.regenerate_dimensions(&[32]).is_err());
    }

    #[test]
    fn encode_dimensions_batch_matches_full_encoding() {
        let dim = RBF_DIM_TILE + 40;
        let mut e = RbfEncoder::with_sigma(9, dim, 1.3, 13).unwrap();
        e.regenerate_dimensions(&[0, 5, RBF_DIM_TILE + 3]).unwrap();
        // A -0.0 phase (only a loaded artifact can carry one) meets leading
        // zero features and all-zero rows.
        e.phases[1] = -0.0;
        // Dims on both sides of the tile, unsorted and repeated, plus every
        // dim in reverse order (a gathered block wider than one tile).
        let picks = [RBF_DIM_TILE + 3, 1, 0, 5, RBF_DIM_TILE - 1, RBF_DIM_TILE, 5, dim - 1];
        let reversed: Vec<usize> = (0..dim).rev().collect();
        for rows in [1usize, 15, 16, 17, 37] {
            // Exact zeros exercise the kernel's zero-feature skip; rows 3
            // and the last one are all zero.
            let data: Vec<f32> = (0..rows * 9)
                .map(|i| {
                    let row = i / 9;
                    if i % 4 == 1 || row == 3 || (rows > 1 && row == rows - 1) {
                        0.0
                    } else {
                        (i as f32 * 0.71).cos() * 2.0
                    }
                })
                .collect();
            let batch = crate::BatchView::new(&data, 9).unwrap();
            let mut matrix = vec![f32::NAN; rows * dim];
            e.encode_batch_into(batch, &mut matrix).unwrap();
            for dims in [&picks[..], &reversed] {
                let mut block = vec![f32::NAN; rows * dims.len()];
                e.encode_dimensions_batch(batch, dims, &mut block).unwrap();
                for (i, (full, columns)) in
                    matrix.chunks_exact(dim).zip(block.chunks_exact(dims.len())).enumerate()
                {
                    for (&d, column) in dims.iter().zip(columns) {
                        assert_eq!(
                            column.to_bits(),
                            full[d].to_bits(),
                            "rows {rows} row {i} dim {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encode_dimensions_batch_validates_its_arguments() {
        let e = RbfEncoder::new(3, 70, 1).unwrap();
        let data = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6];
        let batch = crate::BatchView::new(&data, 3).unwrap();
        assert!(e.encode_dimensions_batch(batch, &[], &mut []).is_ok());
        let mut out = [f32::NAN; 4];
        assert!(matches!(
            e.encode_dimensions_batch(batch, &[3, 70], &mut out),
            Err(HdcError::IndexOutOfRange { index: 70, bound: 70 })
        ));
        assert!(out.iter().all(|v| v.is_nan()), "a rejected call writes nothing");
        let narrow = crate::BatchView::new(&data, 2).unwrap();
        assert!(matches!(
            e.encode_dimensions_batch(narrow, &[3, 4], &mut [0.0; 6]),
            Err(HdcError::FeatureMismatch { expected: 3, actual: 2 })
        ));
        assert!(matches!(
            e.encode_dimensions_batch(batch, &[3, 4], &mut [0.0; 3]),
            Err(HdcError::DimensionMismatch { expected: 4, actual: 3 })
        ));
        assert!(e.encode_dimensions_batch(batch, &[3, 4], &mut out).is_ok());
    }

    #[test]
    fn blocked_batch_kernel_matches_the_serial_path_to_rounding() {
        // A dimensionality above RBF_DIM_TILE plus more samples than one
        // block exercises both tiling axes.
        let dim = RBF_DIM_TILE + 37;
        let e = RbfEncoder::with_sigma(7, dim, 0.8, 17).unwrap();
        let rows = RBF_SAMPLE_BLOCK * 2 + 3;
        // Sprinkle exact zeros between the nonzero values so the dense
        // kernel's zero-feature skip is exercised.
        let data: Vec<f32> =
            (0..rows * 7).map(|i| if i % 3 == 0 { 0.0 } else { (i as f32 * 0.37).sin() }).collect();
        let batch = crate::BatchView::new(&data, 7).unwrap();
        let mut matrix = vec![f32::NAN; rows * dim];
        e.encode_batch_into(batch, &mut matrix).unwrap();
        for (i, row) in matrix.chunks_exact(dim).enumerate() {
            let x = batch.row(i);
            for (d, &a) in row.iter().enumerate() {
                // Accuracy oracle: the exact formula in f64.  f32
                // accumulation rounding plus the ~1e-6 fast_cos error stay
                // within 5e-6 per element.
                let projection = e.phases[d] as f64
                    + e.bases_t
                        .as_slice()
                        .iter()
                        .skip(d)
                        .step_by(dim)
                        .zip(x)
                        .map(|(&b, &v)| b as f64 * v as f64)
                        .sum::<f64>();
                let exact = projection.cos();
                assert!((a as f64 - exact).abs() < 5e-6, "sample {i} dim {d}: {a} vs {exact}");
            }
        }
    }

    #[test]
    fn fused_sign_kernel_matches_encode_then_threshold_bit_for_bit() {
        // Dims straddling tile/word boundaries, blocks beyond one sample
        // block, plus a sigma large enough to push projections through many
        // 2π wraps.
        for (dim, sigma) in [(64usize, 0.8f32), (100, 1.0), (SIGN_DIM_TILE + 96 + 13, 2.5)] {
            let e = RbfEncoder::with_sigma(9, dim, sigma, 29).unwrap();
            // Roughly half the features are exactly zero (one-hot-shaped
            // inputs), exercising the kernel's zero-feature skip.
            let rows = SIGN_SAMPLE_BLOCK * 2 + 5;
            let data: Vec<f32> = (0..rows * 9)
                .map(|i| {
                    let (row, f) = (i / 9, i % 9);
                    if (row + f) % 2 == 0 {
                        0.0
                    } else {
                        ((row * 9 + f) as f32 * 0.61).sin() * 3.0
                    }
                })
                .collect();
            let batch = crate::BatchView::new(&data, 9).unwrap();
            let words_per_row = crate::binary::words_for_dim(dim);
            let mut fused = vec![u64::MAX; rows * words_per_row];
            let mut fused_zero = vec![true; rows];
            e.encode_signs_into(batch, &mut fused, &mut fused_zero).unwrap();

            // Reference: the encode-then-threshold default (batched f32
            // kernel + sign packing).
            let mut matrix = vec![f32::NAN; rows * dim];
            e.encode_batch_into(batch, &mut matrix).unwrap();
            let mut reference = vec![0u64; rows * words_per_row];
            let mut reference_zero = vec![true; rows];
            for (i, row) in matrix.chunks_exact(dim).enumerate() {
                reference_zero[i] = crate::binary::pack_f32_signs_checked(
                    row,
                    &mut reference[i * words_per_row..(i + 1) * words_per_row],
                );
            }
            assert_eq!(fused, reference, "dim {dim}");
            assert_eq!(fused_zero, reference_zero, "dim {dim}");
            assert!(fused_zero.iter().all(|z| !z), "RBF encodings are never all-zero");
        }
    }

    #[test]
    fn fused_sign_kernel_validates_shapes() {
        let e = RbfEncoder::new(3, 70, 1).unwrap();
        let data = [0.1f32, 0.2, 0.3];
        let batch = crate::BatchView::new(&data, 3).unwrap();
        let mut words = vec![0u64; 2];
        let mut zero = vec![false; 1];
        assert!(e.encode_signs_into(batch, &mut words, &mut zero).is_ok());
        let mut short_words = vec![0u64; 1];
        assert!(e.encode_signs_into(batch, &mut short_words, &mut zero).is_err());
        let mut short_zero = vec![];
        assert!(e.encode_signs_into(batch, &mut words, &mut short_zero).is_err());
        let narrow = crate::BatchView::new(&data[..1], 1).unwrap();
        let mut one_word = vec![0u64; 2];
        let mut one_zero = vec![false; 1];
        assert!(e.encode_signs_into(narrow, &mut one_word, &mut one_zero).is_err());
    }

    #[test]
    fn encoder_persistence_round_trips_bit_exactly() {
        let mut e = RbfEncoder::with_sigma(6, 96, 1.7, 99).unwrap();
        e.regenerate_dimensions(&[3, 40, 95]).unwrap();
        let mut w = crate::codec::Writer::new();
        e.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::codec::Reader::new(&bytes);
        let back = RbfEncoder::read_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.sigma(), e.sigma());
        assert_eq!(back.regeneration_count(), 3);
        let x = [0.2f32, -0.4, 0.0, 0.9, 0.5, -0.1];
        assert_eq!(back.encode(&x).unwrap(), e.encode(&x).unwrap());
        // Regeneration continues from the same reproducible stream.
        let mut a = e.clone();
        let mut b = back;
        a.regenerate_dimension(10).unwrap();
        b.regenerate_dimension(10).unwrap();
        assert_eq!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
        // Corrupted shape metadata is rejected.
        let mut w = crate::codec::Writer::new();
        e.write_to(&mut w);
        let mut bad = w.into_bytes();
        bad[0] = 0; // features -> 0
        assert!(RbfEncoder::read_from(&mut crate::codec::Reader::new(&bad)).is_err());
    }

    #[test]
    fn quadrant_guard_band_is_wide_enough_for_the_polynomial_error() {
        // Outside the guard band the quadrant test must agree with the
        // polynomial's sign; sweep densely around the boundary.
        let mut x = std::f32::consts::FRAC_PI_2 - 2.0 * QUADRANT_GUARD;
        while x <= std::f32::consts::FRAC_PI_2 + 2.0 * QUADRANT_GUARD {
            let a = reduce_to_pi(x).abs();
            if (a - std::f32::consts::FRAC_PI_2).abs() >= QUADRANT_GUARD {
                let quadrant = a <= std::f32::consts::FRAC_PI_2;
                let poly = fast_cos(x) >= 0.0;
                assert_eq!(quadrant, poly, "sign mismatch outside the guard band at x = {x}");
            }
            x += 1e-6;
        }
    }

    #[test]
    fn fast_cos_tracks_libm_over_the_projection_range() {
        // Sweep the range RBF projections occupy (|x| up to ~100) plus the
        // reduction boundaries around multiples of TAU.
        let mut worst = 0.0f32;
        let mut x = -100.0f32;
        while x <= 100.0 {
            let err = (fast_cos(x) - (x as f64).cos() as f32).abs();
            worst = worst.max(err);
            x += 0.001;
        }
        assert!(worst < 1e-6, "worst fast_cos error {worst}");
    }

    #[test]
    fn transpose_stays_in_sync_after_regeneration() {
        // Regeneration redraws exactly column `d` of the feature-major
        // matrix, and the persisted row-major base matrix is its transpose.
        let fresh = RbfEncoder::new(5, 48, 23).unwrap();
        let mut e = fresh.clone();
        e.regenerate_dimensions(&[0, 7, 47, 7]).unwrap();
        for d in 0..48 {
            let redrawn = [0, 7, 47].contains(&d);
            for f in 0..5 {
                let (a, b) =
                    (e.bases_t.as_slice()[f * 48 + d], fresh.bases_t.as_slice()[f * 48 + d]);
                assert_eq!(a != b, redrawn, "d={d} f={f}");
            }
        }
        let mut w = crate::codec::Writer::new();
        e.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::codec::Reader::new(&bytes);
        let (_, _, _, _, _) = (r.usize(), r.usize(), r.f32(), r.u64(), r.usize());
        let row_major = r.f32_vec().unwrap();
        for d in 0..48 {
            for f in 0..5 {
                assert_eq!(row_major[d * 5 + f], e.bases_t.as_slice()[f * 48 + d], "d={d} f={f}");
            }
        }
    }

    #[test]
    fn transposed_bases_stay_cache_line_aligned() {
        let mut e = RbfEncoder::new(5, 48, 23).unwrap();
        e.regenerate_dimensions(&[3, 47]).unwrap();
        let mut w = crate::codec::Writer::new();
        e.write_to(&mut w);
        let bytes = w.into_bytes();
        let loaded = RbfEncoder::read_from(&mut crate::codec::Reader::new(&bytes)).unwrap();
        for encoder in [&e, &e.clone(), &loaded] {
            let bases_t = encoder.bases_t.as_slice();
            assert_eq!(bases_t.as_ptr() as usize % LINE_BYTES, 0);
            assert_eq!(bases_t, e.bases_t.as_slice());
        }
    }

    #[test]
    fn base_vector_access_is_bounds_checked() {
        let mut e = RbfEncoder::new(3, 4, 0).unwrap();
        assert_eq!(e.bases_t.as_slice().len(), 3 * 4);
        let batch = crate::BatchView::new(&[0.1, 0.2, 0.3], 3).unwrap();
        assert!(e.encode_dimensions_batch(batch, &[3], &mut [0.0]).is_ok());
        assert!(e.encode_dimensions_batch(batch, &[4], &mut [0.0]).is_err());
        assert!(e.regenerate_dimension(4).is_err());
        assert_eq!(e.regeneration_count(), 0);
    }

    #[test]
    fn base_entries_follow_requested_sigma() {
        let e = RbfEncoder::with_sigma(64, 512, 2.0, 21).unwrap();
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let n = (512 * 64) as f64;
        for &b in e.bases_t.as_slice() {
            sum += b as f64;
            sum_sq += (b as f64) * (b as f64);
        }
        let mean = sum / n;
        let var = sum_sq / n - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "variance {var} should be close to sigma^2 = 4");
    }
}
