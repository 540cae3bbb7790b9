//! Symbolic and sequence encoders: item memories, n-grams, categorical
//! records.
//!
//! The numeric encoders ([`crate::encoder::RbfEncoder`] & friends) map
//! real-valued feature vectors into hyperspace.  This module opens the
//! other half of the classic HDC literature — **symbolic** workloads,
//! where the raw data is a sequence of discrete symbols (characters,
//! tokens, category values) rather than measurements:
//!
//! * [`ItemMemory`] — a deterministic, seeded table assigning every symbol
//!   of an alphabet an independent random [`BinaryHypervector`].  Symbol
//!   `s` always gets the same vector for a given `(dim, seed)`, regardless
//!   of how large the alphabet is, so item memories are stable across runs
//!   and extensible without re-keying.
//! * [`NGramEncoder`] — the classic **bind-permute-bundle** sequence
//!   encoding: each n-gram of symbols becomes
//!   `ρ^{n-1}(V_{s_0}) ⊕ ρ^{n-2}(V_{s_1}) ⊕ … ⊕ V_{s_{n-1}}`
//!   (XOR binding of progressively [permuted](BinaryHypervector::permute)
//!   item vectors), and the n-grams of a sequence are bundled into a
//!   profile hypervector.  Language identification over character streams
//!   is the canonical workload.
//! * [`SymbolRecordEncoder`] — record encoding for categorical tabular
//!   rows: every column gets a random ID vector, every column value (a
//!   category symbol, or a quantized level for numeric columns) a value
//!   vector; a row is the bundle of `ID_j ⊕ V_{value_j}` over its columns.
//!
//! Both encoders implement [`Encoder`] by emitting the **bipolar n-gram /
//! column count profile** as `f32`: output element `d` is the number of
//! bundled vectors with bit `d` set minus the number with it cleared.  The
//! sign threshold of that profile (ties at `0.0` counting as positive — the
//! [`BinaryHypervector::from_dense`] convention) *is* the classic
//! majority-bundled binary profile, so the dense training path and the
//! 1-bit scoring path both consume the textbook encoding.
//!
//! Bundling is **bit-sliced**: a row's bound vectors (its n-gram windows or
//! its record columns) are added into per-bit counters held as
//! `⌈log₂(n + 1)⌉` bit-plane words per packed output word, with a ripple
//! carry, so one word operation counts 64 output bits.  The dense profile is read
//! off the counters as `2·count − n`, exact small integers; the 1-bit path
//! ([`Encoder::encode_signs_into`], overridden by both encoders) compares
//! the planes against `⌈n/2⌉` bit-sliced and never builds an f32 row.
//! Single-row, batched and sign encodings share this one arithmetic, so
//! they are bit-identical by construction.

use crate::batch::BatchView;
use crate::binary::words_for_dim;
use crate::codec::{CodecError, CodecResult, Reader, Writer};
use crate::encoder::{check_batch_shape, check_sign_batch_shape, Encoder};
use crate::rng::HdcRng;
use crate::{BinaryHypervector, HdcError, Result};
use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// Salt decorrelating [`SymbolRecordEncoder`] column streams from
/// [`ItemMemory`] symbol streams built from the same user seed.
const COLUMN_STREAM_SALT: u64 = 0xC01_BEEF;

/// Validates that `value` is an integral symbol index below `bound`,
/// mirroring the schema-level categorical validation so encoders fed
/// un-validated floats fail loudly instead of encoding garbage.
fn symbol_index(value: f32, bound: usize, what: &str) -> Result<usize> {
    if value.fract() != 0.0 || value < 0.0 || (value as usize) >= bound {
        return Err(HdcError::InvalidArgument(format!(
            "{what} symbol {value} is not an integer in [0, {bound})"
        )));
    }
    Ok(value as usize)
}

/// Bits needed to hold every count in `0..=n`.
fn count_bits(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// Bit-sliced bundling counter over packed `dim`-bit vectors.
///
/// Bit `d` of the counter counts how many added vectors have bit `d` set.
/// The counts are stored as bit planes — `planes[b * words + w]` holds bit
/// `b` of the counts of word `w`'s 64 bits — and an addition ripples the
/// added word row through them (`t = plane & carry; plane ^= carry;
/// carry = t`).  One word operation thus counts 64 bits, and every loop
/// runs over a whole row of words, which vectorizes across words.
struct BundleCounter {
    dim: usize,
    words: usize,
    planes: Vec<u64>,
    /// The row the next [`BundleCounter::add_pending`] adds; the ripple
    /// consumes it as its carry.
    pending: Vec<u64>,
    /// Vectors added since the last [`BundleCounter::clear`].
    added: usize,
}

impl BundleCounter {
    /// A counter for `dim`-bit vectors with room for `capacity` additions
    /// between clears.
    fn new(dim: usize, capacity: usize) -> Self {
        let words = words_for_dim(dim);
        Self {
            dim,
            words,
            planes: vec![0; count_bits(capacity) * words],
            pending: vec![0; words],
            added: 0,
        }
    }

    fn clear(&mut self) {
        self.planes.fill(0);
        self.added = 0;
    }

    /// Adds the pending row into the counts (and clobbers it).
    fn add_pending(&mut self) {
        self.added += 1;
        // After `added` additions no count exceeds `added`, so the carry
        // never leaves the low `count_bits(added)` planes.
        let planes = count_bits(self.added);
        debug_assert!(planes * self.words <= self.planes.len(), "counter capacity exceeded");
        for plane in self.planes.chunks_exact_mut(self.words).take(planes) {
            for (bit, carry) in plane.iter_mut().zip(self.pending.iter_mut()) {
                let overflow = *bit & *carry;
                *bit ^= *carry;
                *carry = overflow;
            }
        }
    }

    /// Adds one packed vector into the counts.
    fn add(&mut self, vector: &[u64]) {
        self.pending.copy_from_slice(vector);
        self.add_pending();
    }

    /// Writes the bipolar profile `2·count − added` of every bit into
    /// `out` (length `dim`).  The values are exact small integers, so they
    /// equal, bit for bit, summing `±1.0` per added vector from `+0.0`
    /// (ties are `+0.0`).
    fn write_bipolar(&self, out: &mut [f32]) {
        let planes = count_bits(self.added);
        let added = self.added as i64;
        for (w, values) in out.chunks_mut(WORD_BITS).enumerate() {
            let mut counts = [0u32; WORD_BITS];
            for (b, plane) in self.planes.chunks_exact(self.words).take(planes).enumerate() {
                let word = plane[w];
                for (j, count) in counts.iter_mut().enumerate() {
                    *count |= (((word >> j) & 1) as u32) << b;
                }
            }
            for (value, &count) in values.iter_mut().zip(&counts) {
                *value = (2 * i64::from(count) - added) as f32;
            }
        }
    }

    /// Packs the profile signs (`2·count ≥ added`, ties positive) into
    /// `words` by comparing the planes against `⌈added/2⌉` bit-sliced, and
    /// returns whether every profile value is `0.0`: `added` is even and
    /// every count is exactly `added/2`.  Bits beyond `dim` stay clear.
    fn write_signs(&self, words: &mut [u64]) -> bool {
        let threshold = self.added.div_ceil(2);
        let planes = count_bits(self.added);
        let mut all_ties = self.added.is_multiple_of(2);
        for (w, out) in words.iter_mut().enumerate() {
            // Most significant plane first: `above` marks counts already
            // known to exceed the threshold, `equal` counts that match it
            // on every plane seen so far.
            let (mut above, mut equal) = (0u64, u64::MAX);
            for b in (0..planes).rev() {
                let plane = self.planes[b * self.words + w];
                if (threshold >> b) & 1 == 1 {
                    equal &= plane;
                } else {
                    above |= equal & plane;
                    equal &= !plane;
                }
            }
            let live = self.dim - w * WORD_BITS;
            let mask = if live >= WORD_BITS { u64::MAX } else { (1u64 << live) - 1 };
            *out = (above | equal) & mask;
            all_ties &= equal & mask == mask;
        }
        all_ties
    }
}

/// The row half of a symbolic encoder: validates one input row and adds
/// the packed vectors it bundles into a [`BundleCounter`].  The encode
/// entry points below run every symbolic encoding through it.
trait Bundler: Encoder {
    /// How many vectors one row bundles.
    fn bundled_per_row(&self) -> usize;

    /// Validates `row` and adds its bound vectors into `counter`.
    fn bundle(&self, row: &[f32], counter: &mut BundleCounter) -> Result<()>;
}

/// [`Encoder::encode_into`] of a [`Bundler`]: the batch path at `n = 1`.
fn encode_row<E: Bundler>(encoder: &E, features: &[f32], out: &mut [f32]) -> Result<()> {
    let width = encoder.input_features();
    if features.len() != width {
        return Err(HdcError::FeatureMismatch { expected: width, actual: features.len() });
    }
    encode_rows(encoder, BatchView::new(features, width)?, out)
}

/// [`Encoder::encode_batch_into`] of a [`Bundler`], through one counter.
fn encode_rows<E: Bundler>(encoder: &E, batch: BatchView<'_>, out: &mut [f32]) -> Result<()> {
    let dim = encoder.output_dim();
    check_batch_shape(encoder.input_features(), dim, batch, out)?;
    let mut counter = BundleCounter::new(dim, encoder.bundled_per_row());
    for (row, values) in batch.iter_rows().zip(out.chunks_exact_mut(dim)) {
        counter.clear();
        encoder.bundle(row, &mut counter)?;
        counter.write_bipolar(values);
    }
    Ok(())
}

/// [`Encoder::encode_signs_into`] of a [`Bundler`], through one counter.
fn encode_sign_rows<E: Bundler>(
    encoder: &E,
    batch: BatchView<'_>,
    words: &mut [u64],
    zero_rows: &mut [bool],
) -> Result<()> {
    let dim = encoder.output_dim();
    check_sign_batch_shape(encoder.input_features(), dim, batch, words, zero_rows)?;
    let mut counter = BundleCounter::new(dim, encoder.bundled_per_row());
    let words_per_row = words_for_dim(dim);
    for ((row, row_words), zero) in
        batch.iter_rows().zip(words.chunks_exact_mut(words_per_row)).zip(zero_rows.iter_mut())
    {
        counter.clear();
        encoder.bundle(row, &mut counter)?;
        *zero = counter.write_signs(row_words);
    }
    Ok(())
}

/// A deterministic seeded symbol → hypervector table.
///
/// Symbol `s` maps to an independent uniform random binary hypervector
/// drawn from a decorrelated RNG stream keyed by `(seed, s)`.  Two item
/// memories with the same `(dim, seed)` agree on every shared symbol even
/// if their alphabet sizes differ, which keeps encodings stable when a
/// vocabulary grows.
///
/// # Example
///
/// ```
/// use hdc::ItemMemory;
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let items = ItemMemory::new(27, 256, 7)?;
/// let a = items.get(0)?;
/// let b = items.get(1)?;
/// assert!(a.similarity(b)?.abs() < 0.25, "distinct symbols are near orthogonal");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemMemory {
    dim: usize,
    seed: u64,
    vectors: Vec<BinaryHypervector>,
}

impl ItemMemory {
    /// Creates an item memory for `alphabet` symbols at dimensionality
    /// `dim`, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `alphabet` or `dim` is
    /// zero.
    pub fn new(alphabet: usize, dim: usize, seed: u64) -> Result<Self> {
        if alphabet == 0 {
            return Err(HdcError::InvalidArgument("alphabet must be non-zero".into()));
        }
        if dim == 0 {
            return Err(HdcError::InvalidArgument("dim must be non-zero".into()));
        }
        let vectors = (0..alphabet)
            .map(|s| {
                // A fresh parent per symbol makes vector `s` a pure
                // function of `(seed, s)` — index-stable under alphabet
                // growth.
                let mut stream = HdcRng::seed_from(seed).child(s as u64);
                BinaryHypervector::random(dim, &mut stream)
            })
            .collect();
        Ok(Self { dim, seed, vectors })
    }

    /// Dimensionality of the item vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of symbols in the alphabet.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the memory holds no symbols (never true for a
    /// constructed memory; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The seed the memory was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The item vector of symbol `symbol`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] if `symbol` is outside the
    /// alphabet.
    pub fn get(&self, symbol: usize) -> Result<&BinaryHypervector> {
        self.vectors
            .get(symbol)
            .ok_or(HdcError::IndexOutOfRange { index: symbol, bound: self.vectors.len() })
    }

    /// All item vectors, in symbol order.
    pub fn vectors(&self) -> &[BinaryHypervector] {
        &self.vectors
    }

    /// Persists the memory through the artifact codec.  The packed words
    /// are written explicitly (not regenerated from the seed on load), so
    /// artifacts remain bit-exact even if the RNG ever changes.
    pub fn write_to(&self, w: &mut Writer) {
        w.usize(self.dim);
        w.u64(self.seed);
        w.usize(self.vectors.len());
        for v in &self.vectors {
            w.u64_slice(v.as_words());
        }
    }

    /// Reads a memory persisted by [`ItemMemory::write_to`], bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated stream, degenerate sizes,
    /// word vectors of the wrong length, or set bits beyond `dim` in a
    /// tail word.
    pub fn read_from(r: &mut Reader<'_>) -> CodecResult<Self> {
        let dim = r.usize()?;
        let seed = r.u64()?;
        let alphabet = r.usize()?;
        if dim == 0 || alphabet == 0 {
            return Err(CodecError::Invalid("item memory with degenerate sizes".into()));
        }
        let expected_words = words_for_dim(dim);
        let mut vectors = Vec::with_capacity(alphabet.min(r.remaining()));
        for s in 0..alphabet {
            let words = r.u64_vec()?;
            if words.len() != expected_words {
                return Err(CodecError::Invalid(format!(
                    "item {s} has {} words, dim {dim} needs {expected_words}",
                    words.len()
                )));
            }
            let mut v = BinaryHypervector::zeros(dim);
            v.as_mut_words().copy_from_slice(&words);
            let mut masked = v.clone();
            masked.mask_tail();
            if masked != v {
                return Err(CodecError::Invalid(format!("item {s} has set bits beyond dim {dim}")));
            }
            vectors.push(v);
        }
        Ok(Self { dim, seed, vectors })
    }
}

/// Bind-permute-bundle n-gram sequence encoder.
///
/// A sequence of `sequence_len` symbol indices is encoded as the bundle of
/// its `sequence_len - order + 1` n-grams; each n-gram binds the item
/// vectors of its symbols after permuting symbol `p` (0-based within the
/// window) by `order - 1 - p` rotations, so symbol *position* is encoded
/// by rotation and symbol *identity* by the item vector.  The output is
/// the f32 bipolar count profile (see the module docs); its sign threshold
/// is the classic majority-bundled binary profile.
///
/// The permuted item vectors are precomputed per window position at
/// construction.  A window's bound vector is the XOR of its permuted item
/// rows, and the windows are bundled by the bit-sliced counter of the
/// module docs, so encoding stays in packed words; only the dense profile
/// is expanded to `f32`, once per row.
///
/// # Example
///
/// ```
/// use hdc::encoder::Encoder;
/// use hdc::NGramEncoder;
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// // Trigrams over an 8-symbol alphabet, sequences of 16 symbols.
/// let encoder = NGramEncoder::new(16, 8, 3, 512, 42)?;
/// let sequence: Vec<f32> = (0..16).map(|i| (i % 8) as f32).collect();
/// let profile = encoder.encode(&sequence)?;
/// assert_eq!(profile.dim(), 512);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NGramEncoder {
    items: ItemMemory,
    order: usize,
    sequence_len: usize,
    words_per_item: usize,
    /// Precomputed `ρ^{order-1-p}(V_s)` words, laid out as
    /// `[p][symbol][word]` with stride `words_per_item`.
    permuted: Vec<u64>,
}

impl NGramEncoder {
    /// Creates an n-gram encoder over sequences of `sequence_len` symbols
    /// from an `alphabet`-symbol vocabulary, bundling `order`-grams into
    /// `dim`-dimensional profiles, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `order` is zero, `alphabet`
    /// is smaller than 2, `dim` is zero, or `sequence_len < order`.
    pub fn new(
        sequence_len: usize,
        alphabet: usize,
        order: usize,
        dim: usize,
        seed: u64,
    ) -> Result<Self> {
        if order == 0 {
            return Err(HdcError::InvalidArgument("n-gram order must be non-zero".into()));
        }
        if alphabet < 2 {
            return Err(HdcError::InvalidArgument(format!(
                "n-gram alphabet must have at least 2 symbols, got {alphabet}"
            )));
        }
        if sequence_len < order {
            return Err(HdcError::InvalidArgument(format!(
                "sequence length {sequence_len} is shorter than the n-gram order {order}"
            )));
        }
        let items = ItemMemory::new(alphabet, dim, seed)?;
        Ok(Self::from_items(items, order, sequence_len))
    }

    /// Assembles the encoder from a validated item memory, precomputing
    /// the permuted item table.
    fn from_items(items: ItemMemory, order: usize, sequence_len: usize) -> Self {
        let dim = items.dim();
        let alphabet = items.len();
        let words_per_item = words_for_dim(dim);
        let mut permuted = Vec::with_capacity(order * alphabet * words_per_item);
        for p in 0..order {
            let shift = (order - 1 - p) as isize;
            for v in items.vectors() {
                permuted.extend_from_slice(v.permute(shift).as_words());
            }
        }
        Self { items, order, sequence_len, words_per_item, permuted }
    }

    /// The n-gram order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The symbol alphabet size.
    pub fn alphabet(&self) -> usize {
        self.items.len()
    }

    /// The underlying item memory.
    pub fn items(&self) -> &ItemMemory {
        &self.items
    }

    /// Persists the encoder through the artifact codec.  Only the item
    /// memory travels; the permuted table is rebuilt bit-exactly on load
    /// (rotation is deterministic).
    pub fn write_to(&self, w: &mut Writer) {
        w.usize(self.order);
        w.usize(self.sequence_len);
        self.items.write_to(w);
    }

    /// Reads an encoder persisted by [`NGramEncoder::write_to`],
    /// bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated stream or degenerate /
    /// inconsistent sizes.
    pub fn read_from(r: &mut Reader<'_>) -> CodecResult<Self> {
        let order = r.usize()?;
        let sequence_len = r.usize()?;
        let items = ItemMemory::read_from(r)?;
        if order == 0 || sequence_len < order || items.len() < 2 {
            return Err(CodecError::Invalid(format!(
                "n-gram encoder with degenerate shape: order {order}, sequence {sequence_len}, \
                 alphabet {}",
                items.len()
            )));
        }
        Ok(Self::from_items(items, order, sequence_len))
    }
}

impl Bundler for NGramEncoder {
    fn bundled_per_row(&self) -> usize {
        self.sequence_len - self.order + 1
    }

    fn bundle(&self, sequence: &[f32], counter: &mut BundleCounter) -> Result<()> {
        let alphabet = self.items.len();
        for &v in sequence {
            symbol_index(v, alphabet, "sequence")?;
        }
        let wpi = self.words_per_item;
        let item_row = |p: usize, symbol: f32| {
            let start = (p * alphabet + symbol as usize) * wpi;
            &self.permuted[start..start + wpi]
        };
        for window in sequence.windows(self.order) {
            let bound = &mut counter.pending;
            bound.copy_from_slice(item_row(0, window[0]));
            for (p, &symbol) in window.iter().enumerate().skip(1) {
                for (word, &item) in bound.iter_mut().zip(item_row(p, symbol)) {
                    *word ^= item;
                }
            }
            counter.add_pending();
        }
        Ok(())
    }
}

impl Encoder for NGramEncoder {
    fn input_features(&self) -> usize {
        self.sequence_len
    }

    fn output_dim(&self) -> usize {
        self.items.dim()
    }

    fn encode_into(&self, features: &[f32], out: &mut [f32]) -> Result<()> {
        encode_row(self, features, out)
    }

    fn encode_batch_into(&self, batch: BatchView<'_>, out: &mut [f32]) -> Result<()> {
        encode_rows(self, batch, out)
    }

    fn encode_signs_into(
        &self,
        batch: BatchView<'_>,
        words: &mut [u64],
        zero_rows: &mut [bool],
    ) -> Result<()> {
        encode_sign_rows(self, batch, words, zero_rows)
    }
}

/// One column of a [`SymbolRecordEncoder`]: the pre-bound `ID ⊕ value`
/// vectors, one per category symbol (categorical) or quantization level
/// (numeric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ColumnCoder {
    /// `0` marks a numeric column (whose vectors are the `num_levels`
    /// locality-preserving level vectors); a positive value is the
    /// categorical alphabet size.
    alphabet: usize,
    bound: Vec<BinaryHypervector>,
}

/// Record encoder for mixed categorical / numeric tabular rows.
///
/// Every column `j` gets an independent random ID vector.  Categorical
/// columns (declared with a positive alphabet size) pair it with one
/// random item vector per category; numeric columns (alphabet `0`, values
/// expected in `[0, 1]` — e.g. min-max scaled) pair it with a chain of
/// `num_levels` level vectors built by progressive bit flips, so adjacent
/// levels stay similar.  A row encodes as the bipolar count profile of
/// `{ID_j ⊕ V_{value_j}}` over its columns; the binding is precomputed at
/// construction.
///
/// # Example
///
/// ```
/// use hdc::encoder::Encoder;
/// use hdc::SymbolRecordEncoder;
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// // Two categorical columns (3 and 5 symbols) and one numeric column.
/// let encoder = SymbolRecordEncoder::new(&[3, 5, 0], 256, 16, 9)?;
/// let row = encoder.encode(&[2.0, 0.0, 0.75])?;
/// assert_eq!(row.dim(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SymbolRecordEncoder {
    dim: usize,
    num_levels: usize,
    columns: Vec<ColumnCoder>,
}

impl SymbolRecordEncoder {
    /// Creates a record encoder for rows whose column `j` is categorical
    /// with `alphabets[j]` symbols when positive, or numeric (quantized to
    /// `num_levels` levels over `[0, 1]`, clamping) when zero.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `alphabets` is empty,
    /// `dim` is zero, or `num_levels < 2`.
    pub fn new(alphabets: &[usize], dim: usize, num_levels: usize, seed: u64) -> Result<Self> {
        if alphabets.is_empty() {
            return Err(HdcError::InvalidArgument("record needs at least one column".into()));
        }
        if dim == 0 {
            return Err(HdcError::InvalidArgument("dim must be non-zero".into()));
        }
        if num_levels < 2 {
            return Err(HdcError::InvalidArgument("num_levels must be at least 2".into()));
        }
        let columns = alphabets
            .iter()
            .enumerate()
            .map(|(j, &alphabet)| {
                // One decorrelated stream per column, pure in (seed, j).
                let mut rng = HdcRng::seed_from(seed ^ COLUMN_STREAM_SALT).child(j as u64);
                let id = BinaryHypervector::random(dim, &mut rng);
                let values: Vec<BinaryHypervector> = if alphabet > 0 {
                    (0..alphabet).map(|_| BinaryHypervector::random(dim, &mut rng)).collect()
                } else {
                    // Locality-preserving level chain: flip a disjoint
                    // random slice of positions per step, as in the dense
                    // ID-level encoder.
                    let mut current = BinaryHypervector::random(dim, &mut rng);
                    let flip_order = rng.permutation(dim);
                    let flips_per_level = dim / (num_levels - 1).max(1);
                    let mut chain = Vec::with_capacity(num_levels);
                    chain.push(current.clone());
                    for level in 1..num_levels {
                        let start = (level - 1) * flips_per_level;
                        let end = (start + flips_per_level).min(dim);
                        for &pos in &flip_order[start..end] {
                            current.flip(pos);
                        }
                        chain.push(current.clone());
                    }
                    chain
                };
                let bound = values
                    .iter()
                    .map(|v| id.bind(v).expect("id and value vectors share dim"))
                    .collect();
                ColumnCoder { alphabet, bound }
            })
            .collect();
        Ok(Self { dim, num_levels, columns })
    }

    /// Number of quantization levels used by numeric columns.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Per-column alphabet sizes (`0` = numeric column).
    pub fn alphabets(&self) -> Vec<usize> {
        self.columns.iter().map(|c| c.alphabet).collect()
    }

    /// Maps a numeric value in `[0, 1]` (clamping) onto a level index.
    fn level_of(&self, value: f32) -> usize {
        let t = value.clamp(0.0, 1.0);
        ((t * (self.num_levels - 1) as f32).round() as usize).min(self.num_levels - 1)
    }

    /// Persists the encoder through the artifact codec.
    pub fn write_to(&self, w: &mut Writer) {
        w.usize(self.dim);
        w.usize(self.num_levels);
        w.usize(self.columns.len());
        for column in &self.columns {
            w.usize(column.alphabet);
            for v in &column.bound {
                w.u64_slice(v.as_words());
            }
        }
    }

    /// Reads an encoder persisted by [`SymbolRecordEncoder::write_to`],
    /// bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated stream, degenerate sizes,
    /// word vectors of the wrong length, or set bits beyond `dim`.
    pub fn read_from(r: &mut Reader<'_>) -> CodecResult<Self> {
        let dim = r.usize()?;
        let num_levels = r.usize()?;
        let num_columns = r.usize()?;
        if dim == 0 || num_levels < 2 || num_columns == 0 {
            return Err(CodecError::Invalid("record encoder with degenerate sizes".into()));
        }
        let expected_words = words_for_dim(dim);
        let mut columns = Vec::with_capacity(num_columns.min(r.remaining()));
        for j in 0..num_columns {
            let alphabet = r.usize()?;
            let vector_count = if alphabet > 0 { alphabet } else { num_levels };
            let mut bound = Vec::with_capacity(vector_count.min(r.remaining()));
            for i in 0..vector_count {
                let words = r.u64_vec()?;
                if words.len() != expected_words {
                    return Err(CodecError::Invalid(format!(
                        "column {j} vector {i} has {} words, dim {dim} needs {expected_words}",
                        words.len()
                    )));
                }
                let mut v = BinaryHypervector::zeros(dim);
                v.as_mut_words().copy_from_slice(&words);
                let mut masked = v.clone();
                masked.mask_tail();
                if masked != v {
                    return Err(CodecError::Invalid(format!(
                        "column {j} vector {i} has set bits beyond dim {dim}"
                    )));
                }
                bound.push(v);
            }
            columns.push(ColumnCoder { alphabet, bound });
        }
        Ok(Self { dim, num_levels, columns })
    }
}

impl Bundler for SymbolRecordEncoder {
    fn bundled_per_row(&self) -> usize {
        self.columns.len()
    }

    fn bundle(&self, row: &[f32], counter: &mut BundleCounter) -> Result<()> {
        for (column, &value) in self.columns.iter().zip(row) {
            let index = if column.alphabet > 0 {
                symbol_index(value, column.alphabet, "categorical")?
            } else {
                self.level_of(value)
            };
            counter.add(column.bound[index].as_words());
        }
        Ok(())
    }
}

impl Encoder for SymbolRecordEncoder {
    fn input_features(&self) -> usize {
        self.columns.len()
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn encode_into(&self, features: &[f32], out: &mut [f32]) -> Result<()> {
        encode_row(self, features, out)
    }

    fn encode_batch_into(&self, batch: BatchView<'_>, out: &mut [f32]) -> Result<()> {
        encode_rows(self, batch, out)
    }

    fn encode_signs_into(
        &self,
        batch: BatchView<'_>,
        words: &mut [u64],
        zero_rows: &mut [bool],
    ) -> Result<()> {
        encode_sign_rows(self, batch, words, zero_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_memory_is_deterministic_and_index_stable() {
        let a = ItemMemory::new(12, 200, 5).unwrap();
        let b = ItemMemory::new(12, 200, 5).unwrap();
        assert_eq!(a, b, "same (alphabet, dim, seed) must reproduce the same vectors");
        // Growing the alphabet does not re-key existing symbols.
        let bigger = ItemMemory::new(30, 200, 5).unwrap();
        assert_eq!(&bigger.vectors()[..12], a.vectors());
        // A different seed changes everything.
        let other = ItemMemory::new(12, 200, 6).unwrap();
        assert_ne!(a, other);
        assert_eq!(a.dim(), 200);
        assert_eq!(a.len(), 12);
        assert_eq!(a.seed(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn item_memory_vectors_are_nearly_orthogonal() {
        let items = ItemMemory::new(8, 8192, 11).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let s = items.get(i).unwrap().similarity(items.get(j).unwrap()).unwrap();
                assert!(s.abs() < 0.08, "symbols {i}/{j} similarity {s}");
            }
        }
        assert!(matches!(items.get(8), Err(HdcError::IndexOutOfRange { index: 8, bound: 8 })));
    }

    #[test]
    fn item_memory_constructor_validates() {
        assert!(ItemMemory::new(0, 64, 0).is_err());
        assert!(ItemMemory::new(4, 0, 0).is_err());
    }

    #[test]
    fn item_memory_persistence_round_trips_bit_exactly() {
        let items = ItemMemory::new(9, 130, 77).unwrap();
        let mut w = Writer::new();
        items.write_to(&mut w);
        let bytes = w.into_bytes();
        let back = ItemMemory::read_from(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, items);
        let mut again = Writer::new();
        back.write_to(&mut again);
        assert_eq!(again.into_bytes(), bytes, "reserialization must be byte-identical");
        assert!(ItemMemory::read_from(&mut Reader::new(&bytes[..bytes.len() / 2])).is_err());
        // Set bits beyond dim are rejected, not silently masked.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] |= 0x80;
        assert!(ItemMemory::read_from(&mut Reader::new(&corrupt)).is_err());
    }

    /// Reference n-gram encoding straight from the algebra: bind permuted
    /// item vectors per window, accumulate the bipolar expansions.
    fn naive_ngram(encoder: &NGramEncoder, sequence: &[f32]) -> Vec<f32> {
        let items = encoder.items();
        let dim = items.dim();
        let n = encoder.order();
        let mut out = vec![0.0f32; dim];
        for window in 0..=(sequence.len() - n) {
            let mut bound: Option<BinaryHypervector> = None;
            for p in 0..n {
                let v = items.get(sequence[window + p] as usize).unwrap();
                let rotated = v.permute((n - 1 - p) as isize);
                bound = Some(match bound {
                    None => rotated,
                    Some(acc) => acc.bind(&rotated).unwrap(),
                });
            }
            for (d, value) in bound.unwrap().to_dense().iter().enumerate() {
                out[d] += value;
            }
        }
        out
    }

    /// Encodes `rows` through the single-row, batched and sign entry points
    /// and checks each against the `reference` profiles: dense values equal
    /// bit for bit, sign words and zero flags equal to thresholding them.
    fn assert_bundles_match(
        e: &dyn Encoder,
        rows: &[Vec<f32>],
        reference: &[Vec<f32>],
        what: &str,
    ) {
        let dim = e.output_dim();
        let words_per_row = words_for_dim(dim);
        let flat: Vec<f32> = rows.concat();
        let batch = BatchView::new(&flat, e.input_features()).unwrap();
        let mut matrix = vec![f32::NAN; rows.len() * dim];
        e.encode_batch_into(batch, &mut matrix).unwrap();
        let mut words = vec![u64::MAX; rows.len() * words_per_row];
        let mut zero_rows = vec![false; rows.len()];
        e.encode_signs_into(batch, &mut words, &mut zero_rows).unwrap();
        let mut single = vec![f32::NAN; dim];
        let mut expected_words = vec![0u64; words_per_row];
        for (i, (row, want)) in rows.iter().zip(reference).enumerate() {
            e.encode_into(row, &mut single).unwrap();
            for (d, want) in want.iter().enumerate() {
                assert_eq!(single[d].to_bits(), want.to_bits(), "{what} row {i} single dim {d}");
                assert_eq!(matrix[i * dim + d].to_bits(), want.to_bits(), "{what} row {i} dim {d}");
            }
            let all_zero = crate::binary::pack_f32_signs_checked(want, &mut expected_words);
            assert_eq!(
                &words[i * words_per_row..(i + 1) * words_per_row],
                expected_words.as_slice(),
                "{what} row {i} signs"
            );
            assert_eq!(zero_rows[i], all_zero, "{what} row {i} zero flag");
        }
    }

    #[test]
    fn ngram_counter_matches_the_reference_across_plane_and_word_boundaries() {
        // Window counts on both sides of every plane boundary the counter
        // crosses, at dims with and without a ragged tail word.
        for dim in [64, 100, 2048, 2100] {
            for windows in [1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 128] {
                let (order, alphabet) = (3, 5);
                let len = windows + order - 1;
                let e = NGramEncoder::new(len, alphabet, order, dim, 43).unwrap();
                let rows: Vec<Vec<f32>> = (0..2)
                    .map(|r| (0..len).map(|i| ((i * (r + 2) + i / 3) % alphabet) as f32).collect())
                    .collect();
                let reference: Vec<Vec<f32>> =
                    rows.iter().map(|row| naive_ngram(&e, row)).collect();
                assert_bundles_match(
                    &e,
                    &rows,
                    &reference,
                    &format!("dim {dim} windows {windows}"),
                );
            }
        }
    }

    /// Reference record encoding: the sum of the bound column vectors'
    /// bipolar expansions.
    fn naive_record(encoder: &SymbolRecordEncoder, row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; encoder.dim];
        for (column, &value) in encoder.columns.iter().zip(row) {
            let index = if column.alphabet > 0 { value as usize } else { encoder.level_of(value) };
            for (d, v) in column.bound[index].to_dense().iter().enumerate() {
                out[d] += v;
            }
        }
        out
    }

    #[test]
    fn record_counter_matches_the_reference_for_every_column_count() {
        for dim in [100, 2048] {
            for columns in [1, 2, 63, 64, 65] {
                let alphabets: Vec<usize> = (0..columns).map(|j| [3, 0, 4][j % 3]).collect();
                let e = SymbolRecordEncoder::new(&alphabets, dim, 8, 47).unwrap();
                let rows: Vec<Vec<f32>> = (0..2)
                    .map(|r| {
                        alphabets
                            .iter()
                            .enumerate()
                            .map(|(j, &a)| {
                                if a > 0 {
                                    ((j + r) % a) as f32
                                } else {
                                    ((j * 5 + r) % 11) as f32 / 10.0
                                }
                            })
                            .collect()
                    })
                    .collect();
                let reference: Vec<Vec<f32>> =
                    rows.iter().map(|row| naive_record(&e, row)).collect();
                assert_bundles_match(
                    &e,
                    &rows,
                    &reference,
                    &format!("dim {dim} columns {columns}"),
                );
            }
        }
    }

    #[test]
    fn complementary_bundles_are_zero_rows() {
        // Two complementary vectors tie on every bit: the dense profile is
        // all `+0.0`, the zero-row flag is set and the signs are all plus
        // (ties positive) with the tail word's spare bits clear.
        let dim = 100;
        let a = BinaryHypervector::random(dim, &mut HdcRng::seed_from(53));
        let mut b = a.clone();
        for d in 0..dim {
            b.flip(d);
        }
        let mut w = Writer::new();
        w.usize(1); // order
        w.usize(2); // sequence length
        w.usize(dim);
        w.u64(53);
        w.usize(2); // alphabet
        w.u64_slice(a.as_words());
        w.u64_slice(b.as_words());
        let bytes = w.into_bytes();
        let ngram = NGramEncoder::read_from(&mut Reader::new(&bytes)).unwrap();
        let mut w = Writer::new();
        w.usize(dim);
        w.usize(2); // levels
        w.usize(2); // columns
        for v in [&a, &b] {
            w.usize(1); // a one-symbol categorical column
            w.u64_slice(v.as_words());
        }
        let bytes = w.into_bytes();
        let record = SymbolRecordEncoder::read_from(&mut Reader::new(&bytes)).unwrap();
        let zeros = vec![vec![0.0f32; dim]];
        for (e, row) in [(&ngram as &dyn Encoder, [0.0f32, 1.0]), (&record, [0.0, 0.0])] {
            assert_bundles_match(e, &[row.to_vec()], &zeros, "complementary pair");
            let mut words = vec![0u64; 2];
            let mut zero_rows = [false];
            e.encode_signs_into(BatchView::new(&row, 2).unwrap(), &mut words, &mut zero_rows)
                .unwrap();
            assert!(zero_rows[0]);
            assert_eq!(words, [u64::MAX, (1u64 << (dim - 64)) - 1]);
        }
    }

    #[test]
    fn ngram_profile_matches_the_bind_permute_bundle_reference() {
        for (len, alphabet, order, dim) in [(10, 4, 3, 100), (6, 8, 1, 64), (5, 3, 5, 130)] {
            let e = NGramEncoder::new(len, alphabet, order, dim, 21).unwrap();
            let sequence: Vec<f32> = (0..len).map(|i| ((i * 7 + 3) % alphabet) as f32).collect();
            let got = e.encode(&sequence).unwrap();
            let want = naive_ngram(&e, &sequence);
            assert_eq!(got.as_slice(), want.as_slice(), "len {len} order {order} dim {dim}");
        }
    }

    #[test]
    fn ngram_constructor_validates() {
        assert!(NGramEncoder::new(8, 4, 0, 64, 0).is_err(), "zero order");
        assert!(NGramEncoder::new(8, 1, 3, 64, 0).is_err(), "degenerate alphabet");
        assert!(NGramEncoder::new(2, 4, 3, 64, 0).is_err(), "sequence shorter than order");
        assert!(NGramEncoder::new(8, 4, 3, 0, 0).is_err(), "zero dim");
        let e = NGramEncoder::new(8, 4, 3, 64, 0).unwrap();
        assert_eq!(e.input_features(), 8);
        assert_eq!(e.output_dim(), 64);
        assert_eq!(e.order(), 3);
        assert_eq!(e.alphabet(), 4);
    }

    #[test]
    fn ngram_rejects_invalid_symbols_and_shapes() {
        let e = NGramEncoder::new(4, 5, 2, 64, 3).unwrap();
        let mut out = vec![0.0f32; 64];
        assert!(matches!(
            e.encode_into(&[0.0, 1.0, 2.0], &mut out),
            Err(HdcError::FeatureMismatch { expected: 4, actual: 3 })
        ));
        let mut short = vec![0.0f32; 63];
        assert!(matches!(
            e.encode_into(&[0.0, 1.0, 2.0, 3.0], &mut short),
            Err(HdcError::DimensionMismatch { .. })
        ));
        assert!(e.encode_into(&[0.0, 1.0, 2.5, 3.0], &mut out).is_err(), "fractional symbol");
        assert!(e.encode_into(&[0.0, 1.0, 5.0, 3.0], &mut out).is_err(), "symbol out of range");
        assert!(e.encode_into(&[0.0, 1.0, -1.0, 3.0], &mut out).is_err(), "negative symbol");
    }

    #[test]
    fn ngram_separates_sequence_statistics() {
        // Sequences drawn from the same bigram structure profile closer
        // than sequences from a different structure.
        let e = NGramEncoder::new(64, 6, 2, 4096, 13).unwrap();
        let pattern_a = |offset: usize| -> Vec<f32> {
            (0..64).map(|i| ((i + offset) % 3) as f32).collect() // cycles 0,1,2
        };
        let pattern_b: Vec<f32> = (0..64).map(|i| (3 + (i % 3)) as f32).collect(); // cycles 3,4,5
        let ha = e.encode(&pattern_a(0)).unwrap();
        let ha2 = e.encode(&pattern_a(1)).unwrap();
        let hb = e.encode(&pattern_b).unwrap();
        let same = ha.cosine(&ha2).unwrap();
        let different = ha.cosine(&hb).unwrap();
        assert!(
            same > different + 0.3,
            "same-structure {same} should beat different-structure {different}"
        );
    }

    #[test]
    fn ngram_order_matters() {
        // With order >= 2, symbol order changes the profile; a reversed
        // sequence with the same unigram counts encodes differently.
        let e = NGramEncoder::new(6, 4, 2, 2048, 17).unwrap();
        let forward = [0.0f32, 1.0, 2.0, 3.0, 0.0, 1.0];
        let mut backward = forward;
        backward.reverse();
        let hf = e.encode(&forward).unwrap();
        let hb = e.encode(&backward).unwrap();
        assert!(hf.cosine(&hb).unwrap() < 0.8, "order-2 profiles must be order sensitive");
        // With order = 1 the profile is a bag of symbols: permutation
        // invariant by construction.
        let bag = NGramEncoder::new(6, 4, 1, 2048, 17).unwrap();
        assert_eq!(bag.encode(&forward).unwrap(), bag.encode(&backward).unwrap());
    }

    #[test]
    fn ngram_persistence_round_trips_bit_exactly() {
        let e = NGramEncoder::new(12, 7, 3, 130, 29).unwrap();
        let mut w = Writer::new();
        e.write_to(&mut w);
        let bytes = w.into_bytes();
        let back = NGramEncoder::read_from(&mut Reader::new(&bytes)).unwrap();
        let sequence: Vec<f32> = (0..12).map(|i| (i % 7) as f32).collect();
        assert_eq!(back.encode(&sequence).unwrap(), e.encode(&sequence).unwrap());
        let mut again = Writer::new();
        back.write_to(&mut again);
        assert_eq!(again.into_bytes(), bytes, "reserialization must be byte-identical");
        assert!(NGramEncoder::read_from(&mut Reader::new(&bytes[..20])).is_err());
    }

    #[test]
    fn ngram_sign_path_matches_encode_then_threshold() {
        let e = NGramEncoder::new(10, 5, 3, 150, 31).unwrap();
        let data: Vec<f32> = (0..30).map(|i| ((i * 11 + 2) % 5) as f32).collect();
        let batch = BatchView::new(&data, 10).unwrap();
        let words_per_row = words_for_dim(150);
        let mut words = vec![0u64; 3 * words_per_row];
        let mut zero_rows = vec![false; 3];
        e.encode_signs_into(batch, &mut words, &mut zero_rows).unwrap();
        let mut matrix = vec![0.0f32; 3 * 150];
        e.encode_batch_into(batch, &mut matrix).unwrap();
        for (i, row) in matrix.chunks_exact(150).enumerate() {
            let mut expected = vec![0u64; words_per_row];
            let all_zero = crate::binary::pack_f32_signs_checked(row, &mut expected);
            assert_eq!(
                &words[i * words_per_row..(i + 1) * words_per_row],
                expected.as_slice(),
                "row {i}"
            );
            assert_eq!(zero_rows[i], all_zero, "row {i}");
        }
    }

    #[test]
    fn record_constructor_validates() {
        assert!(SymbolRecordEncoder::new(&[], 64, 8, 0).is_err());
        assert!(SymbolRecordEncoder::new(&[3], 0, 8, 0).is_err());
        assert!(SymbolRecordEncoder::new(&[3], 64, 1, 0).is_err());
        let e = SymbolRecordEncoder::new(&[3, 0, 5], 64, 8, 0).unwrap();
        assert_eq!(e.input_features(), 3);
        assert_eq!(e.output_dim(), 64);
        assert_eq!(e.num_levels(), 8);
        assert_eq!(e.alphabets(), vec![3, 0, 5]);
    }

    #[test]
    fn record_encoding_is_deterministic_and_column_sensitive() {
        let e = SymbolRecordEncoder::new(&[4, 4, 0], 4096, 16, 23).unwrap();
        let row = [1.0f32, 2.0, 0.5];
        assert_eq!(e.encode(&row).unwrap(), e.encode(&row).unwrap());
        // Changing one column moves the profile less than changing all.
        let h = e.encode(&row).unwrap();
        let one_change = e.encode(&[3.0, 2.0, 0.5]).unwrap();
        let all_change = e.encode(&[3.0, 0.0, 0.95]).unwrap();
        let near = h.cosine(&one_change).unwrap();
        let far = h.cosine(&all_change).unwrap();
        assert!(near > far, "near {near} vs far {far}");
        // The same symbol in different columns encodes differently
        // (column IDs bind in).
        let e2 = SymbolRecordEncoder::new(&[4, 4], 4096, 16, 23).unwrap();
        let swapped = e2.encode(&[2.0, 1.0]).unwrap();
        let straight = e2.encode(&[1.0, 2.0]).unwrap();
        assert!(swapped.cosine(&straight).unwrap() < 0.9);
    }

    #[test]
    fn record_numeric_columns_preserve_value_locality() {
        let e = SymbolRecordEncoder::new(&[0], 8192, 32, 3).unwrap();
        let low = e.encode(&[0.0]).unwrap();
        let near = e.encode(&[0.05]).unwrap();
        let high = e.encode(&[1.0]).unwrap();
        let s_near = low.cosine(&near).unwrap();
        let s_far = low.cosine(&high).unwrap();
        assert!(s_near > s_far + 0.3, "near {s_near} vs far {s_far}");
        // Out-of-range numeric values clamp rather than error.
        assert_eq!(e.encode(&[-0.5]).unwrap(), low);
        assert_eq!(e.encode(&[7.0]).unwrap(), high);
    }

    #[test]
    fn record_rejects_invalid_categories_and_shapes() {
        let e = SymbolRecordEncoder::new(&[3, 0], 64, 8, 1).unwrap();
        assert!(matches!(
            e.encode(&[1.0]),
            Err(HdcError::FeatureMismatch { expected: 2, actual: 1 })
        ));
        assert!(e.encode(&[3.0, 0.5]).is_err(), "category index out of range");
        assert!(e.encode(&[0.5, 0.5]).is_err(), "fractional category index");
        assert!(e.encode(&[-1.0, 0.5]).is_err(), "negative category index");
        let mut short = vec![0.0f32; 63];
        assert!(matches!(
            e.encode_into(&[1.0, 0.5], &mut short),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn record_persistence_round_trips_bit_exactly() {
        let e = SymbolRecordEncoder::new(&[3, 0, 7], 130, 6, 41).unwrap();
        let mut w = Writer::new();
        e.write_to(&mut w);
        let bytes = w.into_bytes();
        let back = SymbolRecordEncoder::read_from(&mut Reader::new(&bytes)).unwrap();
        let row = [2.0f32, 0.33, 6.0];
        assert_eq!(back.encode(&row).unwrap(), e.encode(&row).unwrap());
        assert_eq!(back.alphabets(), e.alphabets());
        let mut again = Writer::new();
        back.write_to(&mut again);
        assert_eq!(again.into_bytes(), bytes, "reserialization must be byte-identical");
        assert!(SymbolRecordEncoder::read_from(&mut Reader::new(&bytes[..25])).is_err());
    }
}
