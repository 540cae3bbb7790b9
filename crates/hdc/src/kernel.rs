//! Runtime-dispatched SIMD kernels.
//!
//! Every hot loop in the crate funnels through one of the four kernel
//! families in this module:
//!
//! 1. **XOR + popcount Hamming** over packed `u64` words (and its
//!    `count_ones` sibling) — the 1-bit scoring path,
//! 2. the **tiled dot-product** (`dot_accumulate` + [`DotBank::reduce`] +
//!    [`Kernels::dot`]) behind cosine scoring and the interleaved
//!    multi-class kernel of [`crate::memory::AssociativeMemory`],
//! 3. the element-wise **axpy** (`out[i] += scale * x[i]`) at the heart of
//!    the tiled RBF batch encode and bundling,
//! 4. the fused **sign quadrant test** that packs RBF projections straight
//!    to 1-bit words ([`crate::encoder::Encoder::encode_signs_into`]).
//!
//! # Dispatch
//!
//! [`Kernels::active`] probes the CPU **once per process** (cached in a
//! `OnceLock`): on x86_64 it prefers AVX-512 (F + BW) over AVX2, on
//! aarch64 it uses NEON, and every other machine — or any process started
//! with `CYBERHD_FORCE_SCALAR=1` — runs the portable scalar path.
//! [`Kernels::scalar`] pins the fallback explicitly and
//! [`Kernels::available`] enumerates every path the host can run, which is
//! what the parity suite iterates over.
//!
//! # Determinism contract
//!
//! Every kernel is **bit-exact on every dispatch path**, so a model trained,
//! sealed, checkpointed or recovered on one host is the same bytes on any
//! other:
//!
//! * the integer kernels ([`Kernels::hamming_distance`],
//!   [`Kernels::count_ones`], [`Kernels::sign_pack_word`],
//!   [`Kernels::sign_quadrant_word`]) compute exact integer/bit results;
//! * [`Kernels::axpy`] performs one multiply and one add per element;
//! * [`Kernels::dot`] sums in one order fixed here, not per path: element
//!   `i` goes into lane `i mod DOT_BANK_LANES` of a [`DotBank`] by a multiply
//!   then an add (never a fused multiply-add), [`DotBank::reduce`] collapses
//!   the bank, and the ragged tail is added serially.  The SIMD paths only
//!   decide how many lanes advance per instruction.
//!
//! `tests/kernel_parity.rs` pins the contract on every path the host
//! exposes.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon;

/// Number of scalar `f32` lanes in a [`DotBank`]: element `i` of a dot
/// product is accumulated into lane `i mod DOT_BANK_LANES` on every path.
pub const DOT_BANK_LANES: usize = 32;

/// Partial-sum bank for the tiled dot kernels.
///
/// A bank carries the running lane sums of one dot product across tile
/// boundaries: callers zero-initialize it (via [`DotBank::new`]), feed
/// whole tiles through [`Kernels::dot_accumulate`] and collapse it with
/// [`DotBank::reduce`].  Tile lengths are multiples of [`DOT_BANK_LANES`],
/// so accumulating a stream tile by tile is bit-identical to accumulating
/// it in one call, on any path.
#[derive(Clone, Copy, Debug)]
pub struct DotBank {
    lanes: [f32; DOT_BANK_LANES],
}

impl DotBank {
    /// A zeroed bank, ready to accumulate.
    pub fn new() -> Self {
        Self { lanes: [0.0; DOT_BANK_LANES] }
    }

    /// Collapses the bank: `Σ_l (lanes[l] + lanes[16 + l])` for
    /// `l = 0..16`, summed left to right.  The one reduce of every path.
    pub fn reduce(&self) -> f32 {
        let (low, high) = self.lanes.split_at(DOT_BANK_LANES / 2);
        low.iter().zip(high).fold(0.0, |acc, (x, y)| acc + (x + y))
    }
}

impl Default for DotBank {
    fn default() -> Self {
        Self::new()
    }
}

/// A dispatch table of SIMD kernel implementations for one ISA path.
///
/// Obtained via [`Kernels::active`] (runtime-detected best path),
/// [`Kernels::scalar`] (portable fallback) or [`Kernels::available`]
/// (every path this host can run).  All methods validate their shape
/// preconditions with real assertions, so the table is safe to use with
/// arbitrary slice lengths.
pub struct Kernels {
    isa: &'static str,
    dot_accumulate: fn(&mut [f32; DOT_BANK_LANES], &[f32], &[f32]),
    axpy: fn(&mut [f32], f32, &[f32]),
    hamming: fn(&[u64], &[u64]) -> usize,
    count_ones: fn(&[u64]) -> usize,
    sign_quadrant_word: fn(&[f32], f32) -> (u64, u64),
    sign_pack_word: fn(&[f32]) -> u64,
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

static SCALAR: Kernels = Kernels {
    isa: "scalar",
    dot_accumulate: dot_accumulate_scalar,
    axpy: axpy_scalar,
    hamming: hamming_scalar,
    count_ones: count_ones_scalar,
    sign_quadrant_word: sign_quadrant_word_scalar,
    sign_pack_word: sign_pack_word_scalar,
};

impl Kernels {
    /// The dispatch table selected for this process.
    ///
    /// Detection runs once and is cached; every call returns the same
    /// table, so all kernel users inside one process share one path (which
    /// is what keeps in-process bit-identity contracts — interleaved vs
    /// serial dots, fused vs two-pass sign encode — intact).  Setting
    /// `CYBERHD_FORCE_SCALAR` to anything non-empty other than `0` before
    /// first use pins the scalar fallback.
    pub fn active() -> &'static Kernels {
        ACTIVE.get_or_init(|| {
            if force_scalar(std::env::var("CYBERHD_FORCE_SCALAR").ok().as_deref()) {
                return &SCALAR;
            }
            detect()
        })
    }

    /// The portable scalar table.
    pub fn scalar() -> &'static Kernels {
        &SCALAR
    }

    /// Every dispatch table the current host can execute, scalar first.
    ///
    /// The parity suite iterates this to compare each SIMD path against
    /// scalar on the same machine.
    pub fn available() -> Vec<&'static Kernels> {
        #[allow(unused_mut)]
        let mut paths = vec![&SCALAR];
        #[cfg(target_arch = "x86_64")]
        {
            if x86::avx2_supported() {
                paths.push(&x86::AVX2);
            }
            if x86::avx512_supported() {
                paths.push(&x86::AVX512);
            }
            if x86::avx512_vpopcnt_supported() {
                paths.push(&x86::AVX512_VPOPCNT);
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if neon::supported() {
                paths.push(&neon::NEON);
            }
        }
        paths
    }

    /// Name of this table's ISA path: `"scalar"`, `"avx2"`, `"avx512"`,
    /// `"avx512vpopcnt"` (AVX-512 with native 64-bit lane popcount for the
    /// Hamming/count kernels) or `"neon"`.
    pub fn isa(&self) -> &'static str {
        self.isa
    }

    /// Accumulates `a[i] * b[i]` into lane `i mod DOT_BANK_LANES` of `bank`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the length is not a
    /// multiple of [`DOT_BANK_LANES`].
    pub fn dot_accumulate(&self, bank: &mut DotBank, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "dot_accumulate of slices of different length");
        assert_eq!(
            a.len() % DOT_BANK_LANES,
            0,
            "dot_accumulate length must be a multiple of {DOT_BANK_LANES}"
        );
        (self.dot_accumulate)(&mut bank.lanes, a, b);
    }

    /// Dot product of two equally sized slices: the whole-bank prefix via
    /// [`Kernels::dot_accumulate`] and [`DotBank::reduce`], then a serial
    /// tail.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot product of slices of different length");
        let main = a.len() - a.len() % DOT_BANK_LANES;
        let mut bank = DotBank::new();
        (self.dot_accumulate)(&mut bank.lanes, &a[..main], &b[..main]);
        let mut acc = bank.reduce();
        for i in main..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    /// Element-wise `out[i] += scale * x[i]`.
    ///
    /// Every path performs exactly one multiply and one add per element
    /// (never fused), so the result is bit-exact across paths.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn axpy(&self, out: &mut [f32], scale: f32, x: &[f32]) {
        assert_eq!(out.len(), x.len(), "axpy of slices of different length");
        (self.axpy)(out, scale, x);
    }

    /// Hamming distance between two equally sized `u64` word slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn hamming_distance(&self, a: &[u64], b: &[u64]) -> usize {
        assert_eq!(a.len(), b.len(), "hamming distance of slices of different length");
        (self.hamming)(a, b)
    }

    /// Total set bits across a `u64` word slice.
    pub fn count_ones(&self, words: &[u64]) -> usize {
        (self.count_ones)(words)
    }

    /// Fused quadrant test for one output word of the 1-bit sign encode.
    ///
    /// For each element `v` of `chunk` (up to 64 of them), computes
    /// `a = |reduce_to_pi(v)|` and returns two packed words: bit `i` of the
    /// first is `a <= π/2` (the sign of `cos v` outside the guard band) and
    /// bit `i` of the second flags `| a − π/2 | < guard` (callers re-check
    /// those rare boundary elements with the exact polynomial).  Bits at and
    /// above `chunk.len()` are zero.  Bit-exact across paths: the scalar
    /// and SIMD range reductions perform identical IEEE operations,
    /// including ties-to-even rounding.
    ///
    /// # Panics
    ///
    /// Panics if `chunk.len() > 64`.
    pub fn sign_quadrant_word(&self, chunk: &[f32], guard: f32) -> (u64, u64) {
        assert!(chunk.len() <= 64, "sign_quadrant_word chunk wider than one u64");
        (self.sign_quadrant_word)(chunk, guard)
    }

    /// Packs `chunk[i] >= 0.0` into bit `i` of one `u64` (up to 64
    /// elements; higher bits stay zero).  Bit-exact across paths.
    ///
    /// # Panics
    ///
    /// Panics if `chunk.len() > 64`.
    pub fn sign_pack_word(&self, chunk: &[f32]) -> u64 {
        assert!(chunk.len() <= 64, "sign_pack_word chunk wider than one u64");
        (self.sign_pack_word)(chunk)
    }
}

/// Convenience alias for [`Kernels::active`].
pub fn active() -> &'static Kernels {
    Kernels::active()
}

fn detect() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx512_vpopcnt_supported() {
            return &x86::AVX512_VPOPCNT;
        }
        if x86::avx512_supported() {
            return &x86::AVX512;
        }
        if x86::avx2_supported() {
            return &x86::AVX2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if neon::supported() {
            return &neon::NEON;
        }
    }
    &SCALAR
}

fn force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

// ---------------------------------------------------------------------------
// Range reduction shared by the scalar and SIMD sign kernels (and fast_cos).
// ---------------------------------------------------------------------------

const INV_TAU: f32 = 1.0 / std::f32::consts::TAU;
// TAU split into an exactly representable head and a tail, so `k * C1` is
// exact for the small wrap counts that occur and the reduction error stays
// at f32 rounding level instead of growing with |x|.
const REDUCE_C1: f32 = 6.281_25;
const REDUCE_C2: f32 = 1.935_307_2e-3;

/// Two-step Cody–Waite range reduction of `x` to `r ∈ [-π, π]` (modulo 2π).
///
/// Shared by the RBF encoder's `fast_cos` and the fused sign kernels so
/// both see bit-identical reduced arguments.  The wrap count rounds
/// **ties-to-even** — the mode hardware SIMD round instructions implement —
/// which is what keeps the SIMD quadrant test bit-exact against this
/// scalar form.
#[inline]
pub fn reduce_to_pi(x: f32) -> f32 {
    let k = (x * INV_TAU).round_ties_even();
    (x - k * REDUCE_C1) - k * REDUCE_C2
}

// ---------------------------------------------------------------------------
// Scalar path.
// ---------------------------------------------------------------------------

fn dot_accumulate_scalar(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    // Lane-wise and unfused, so LLVM vectorizes it without reassociating.
    for (qa, qb) in a.chunks_exact(DOT_BANK_LANES).zip(b.chunks_exact(DOT_BANK_LANES)) {
        for l in 0..DOT_BANK_LANES {
            lanes[l] += qa[l] * qb[l];
        }
    }
}

fn axpy_scalar(out: &mut [f32], scale: f32, x: &[f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += scale * v;
    }
}

fn hamming_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
}

fn count_ones_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

fn sign_quadrant_word_scalar(chunk: &[f32], guard: f32) -> (u64, u64) {
    let mut word = 0u64;
    let mut band = 0u64;
    for (bit, &v) in chunk.iter().enumerate() {
        let a = reduce_to_pi(v).abs();
        word |= ((a <= std::f32::consts::FRAC_PI_2) as u64) << bit;
        band |= (((a - std::f32::consts::FRAC_PI_2).abs() < guard) as u64) << bit;
    }
    (word, band)
}

fn sign_pack_word_scalar(chunk: &[f32]) -> u64 {
    let mut word = 0u64;
    for (bit, &v) in chunk.iter().enumerate() {
        word |= ((v >= 0.0) as u64) << bit;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_parses_common_truthy_values() {
        assert!(!force_scalar(None));
        assert!(!force_scalar(Some("")));
        assert!(!force_scalar(Some("0")));
        assert!(force_scalar(Some("1")));
        assert!(force_scalar(Some("true")));
        assert!(force_scalar(Some("yes")));
    }

    #[test]
    fn active_is_cached_and_listed_as_available() {
        let active = Kernels::active();
        assert!(std::ptr::eq(active, Kernels::active()));
        assert!(
            Kernels::available().iter().any(|k| std::ptr::eq(*k, active)),
            "the active path {} must be among the available ones",
            active.isa()
        );
    }

    #[test]
    fn available_starts_with_scalar_and_steps_divide_evenly() {
        assert!(std::ptr::eq(Kernels::available()[0], Kernels::scalar()));
        // Tiled callers rely on their tile sizes (512 in memory.rs) being
        // multiples of the bank width.
        assert_eq!(512 % DOT_BANK_LANES, 0);
    }

    #[test]
    fn scalar_dot_follows_the_one_lane_order() {
        // Reference written out: lane `i mod 32`, multiply then add, the
        // reduce `Σ_l (lanes[l] + lanes[16 + l])` left to right, then the
        // serial tail.
        fn reference_dot(a: &[f32], b: &[f32]) -> f32 {
            let main = a.len() / 32 * 32;
            let mut lanes = [0.0f32; 32];
            for i in 0..main {
                let product = a[i] * b[i];
                lanes[i % 32] += product;
            }
            let mut acc = 0.0f32;
            for l in 0..16 {
                acc += lanes[l] + lanes[16 + l];
            }
            for i in main..a.len() {
                acc += a[i] * b[i];
            }
            acc
        }
        let a: Vec<f32> = (0..1100).map(|i| ((i * 37) as f32 * 0.313).sin() * 3.0).collect();
        let b: Vec<f32> = (0..1100).map(|i| ((i * 61) as f32 * 0.173).cos() * 2.0).collect();
        for len in [0usize, 1, 3, 4, 5, 31, 32, 33, 47, 48, 64, 137, 512, 1024, 1100] {
            assert_eq!(
                Kernels::scalar().dot(&a[..len], &b[..len]).to_bits(),
                reference_dot(&a[..len], &b[..len]).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn split_accumulation_is_bit_identical_to_one_pass() {
        let a: Vec<f32> = (0..1024).map(|i| ((i * 13) as f32 * 0.11).sin()).collect();
        let b: Vec<f32> = (0..1024).map(|i| ((i * 7) as f32 * 0.29).cos()).collect();
        for k in Kernels::available() {
            let mut one = DotBank::new();
            k.dot_accumulate(&mut one, &a, &b);
            let mut split = DotBank::new();
            // Tile at a few bank-aligned boundaries.
            let cuts = [0, 2 * DOT_BANK_LANES, 512, 512 + DOT_BANK_LANES, 1024];
            for w in cuts.windows(2) {
                k.dot_accumulate(&mut split, &a[w[0]..w[1]], &b[w[0]..w[1]]);
            }
            assert_eq!(
                one.reduce().to_bits(),
                split.reduce().to_bits(),
                "{} split accumulation must match one pass",
                k.isa()
            );
        }
    }

    #[test]
    fn dot_accumulate_rejects_ragged_lengths() {
        for k in Kernels::available() {
            let a = vec![1.0f32; DOT_BANK_LANES + 1];
            let result = std::panic::catch_unwind(|| {
                let mut bank = DotBank::new();
                k.dot_accumulate(&mut bank, &a, &a);
            });
            assert!(result.is_err(), "{} must reject ragged accumulate lengths", k.isa());
        }
    }

    #[test]
    fn reduce_to_pi_stays_in_range_and_preserves_cos() {
        let mut x = -50.0f32;
        while x <= 50.0 {
            let r = reduce_to_pi(x);
            assert!(r.abs() <= std::f32::consts::PI + 1e-3, "reduce({x}) = {r}");
            let err = ((r as f64).cos() - (x as f64).cos()).abs();
            assert!(err < 1e-5, "cos mismatch at {x}: {err}");
            x += 0.0173;
        }
    }
}
