//! AVX2 and AVX-512 dispatch tables (x86_64).
//!
//! Safety model: the `unsafe` `#[target_feature]` bodies in this file are
//! reachable only through the tables below, and those tables are handed
//! out exclusively by [`super::Kernels::active`] / [`super::Kernels::available`]
//! after `is_x86_feature_detected!` has confirmed the required features at
//! runtime.  The safe shims encapsulate that invariant; slice-shape
//! preconditions are enforced by the public `Kernels` methods before any
//! table function runs.

use super::{Kernels, DOT_BANK_LANES};
use std::arch::x86_64::*;

pub(super) fn avx2_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

pub(super) fn avx512_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
}

pub(super) fn avx512_vpopcnt_supported() -> bool {
    avx512_supported() && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

pub(super) static AVX2: Kernels = Kernels {
    isa: "avx2",
    dot_accumulate: dot_accumulate_avx2,
    axpy: axpy_avx2,
    hamming: hamming_avx2,
    count_ones: count_ones_avx2,
    sign_quadrant_word: sign_quadrant_word_avx2,
    sign_pack_word: sign_pack_word_avx2,
};

pub(super) static AVX512: Kernels = Kernels {
    isa: "avx512",
    dot_accumulate: dot_accumulate_avx512,
    axpy: axpy_avx512,
    hamming: hamming_avx512,
    count_ones: count_ones_avx512,
    sign_quadrant_word: sign_quadrant_word_avx512,
    sign_pack_word: sign_pack_word_avx512,
};

/// The AVX-512 table with the Hamming/count kernels upgraded to native
/// 64-bit-lane popcount (`vpopcntq`).  The byte-LUT form above stays
/// available for AVX-512 hosts without `avx512vpopcntdq`; both count set
/// bits exactly, so the upgrade is invisible to the bit-exactness
/// contract.
pub(super) static AVX512_VPOPCNT: Kernels = Kernels {
    isa: "avx512vpopcnt",
    dot_accumulate: dot_accumulate_avx512,
    axpy: axpy_avx512,
    hamming: hamming_avx512_vpopcnt,
    count_ones: count_ones_avx512_vpopcnt,
    sign_quadrant_word: sign_quadrant_word_avx512,
    sign_pack_word: sign_pack_word_avx512,
};

// ---------------------------------------------------------------------------
// Dot accumulate (mul + add, never fused, so every path computes the lane
// sums the scalar path does; the reduce is `DotBank::reduce`)
// ---------------------------------------------------------------------------

fn dot_accumulate_avx2(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    // SAFETY: the AVX2 table is only reachable after runtime detection.
    unsafe { dot_accumulate_avx2_impl(lanes, a, b) }
}

/// Four 8-lane accumulators, 32 elements per iteration.  The bank layout
/// is `lanes[j*8 + l]` = vector accumulator `j`, lane `l`.
#[target_feature(enable = "avx2")]
unsafe fn dot_accumulate_avx2_impl(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 32, 0);
    let mut acc0 = _mm256_loadu_ps(lanes.as_ptr());
    let mut acc1 = _mm256_loadu_ps(lanes.as_ptr().add(8));
    let mut acc2 = _mm256_loadu_ps(lanes.as_ptr().add(16));
    let mut acc3 = _mm256_loadu_ps(lanes.as_ptr().add(24));
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    for i in 0..a.len() / 32 {
        let qa = pa.add(i * 32);
        let qb = pb.add(i * 32);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_loadu_ps(qa), _mm256_loadu_ps(qb)));
        acc1 = _mm256_add_ps(
            acc1,
            _mm256_mul_ps(_mm256_loadu_ps(qa.add(8)), _mm256_loadu_ps(qb.add(8))),
        );
        acc2 = _mm256_add_ps(
            acc2,
            _mm256_mul_ps(_mm256_loadu_ps(qa.add(16)), _mm256_loadu_ps(qb.add(16))),
        );
        acc3 = _mm256_add_ps(
            acc3,
            _mm256_mul_ps(_mm256_loadu_ps(qa.add(24)), _mm256_loadu_ps(qb.add(24))),
        );
    }
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc0);
    _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc1);
    _mm256_storeu_ps(lanes.as_mut_ptr().add(16), acc2);
    _mm256_storeu_ps(lanes.as_mut_ptr().add(24), acc3);
}

fn dot_accumulate_avx512(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    // SAFETY: the AVX-512 table is only reachable after runtime detection.
    unsafe { dot_accumulate_avx512_impl(lanes, a, b) }
}

/// Two 16-lane accumulators, 32 elements per iteration.
#[target_feature(enable = "avx512f")]
unsafe fn dot_accumulate_avx512_impl(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 32, 0);
    let mut acc0 = _mm512_loadu_ps(lanes.as_ptr());
    let mut acc1 = _mm512_loadu_ps(lanes.as_ptr().add(16));
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    for i in 0..a.len() / 32 {
        let qa = pa.add(i * 32);
        let qb = pb.add(i * 32);
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_loadu_ps(qa), _mm512_loadu_ps(qb)));
        acc1 = _mm512_add_ps(
            acc1,
            _mm512_mul_ps(_mm512_loadu_ps(qa.add(16)), _mm512_loadu_ps(qb.add(16))),
        );
    }
    _mm512_storeu_ps(lanes.as_mut_ptr(), acc0);
    _mm512_storeu_ps(lanes.as_mut_ptr().add(16), acc1);
}

// ---------------------------------------------------------------------------
// axpy (element-wise, mul + add — deliberately never fused, so the result is
// bit-exact against the scalar path)
// ---------------------------------------------------------------------------

fn axpy_avx2(out: &mut [f32], scale: f32, x: &[f32]) {
    // SAFETY: the AVX2 table is only reachable after runtime detection.
    unsafe { axpy_avx2_impl(out, scale, x) }
}

#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2_impl(out: &mut [f32], scale: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    let s = _mm256_set1_ps(scale);
    let n = out.len();
    let main = n - n % 8;
    let po = out.as_mut_ptr();
    let px = x.as_ptr();
    let mut i = 0usize;
    while i < main {
        let v =
            _mm256_add_ps(_mm256_loadu_ps(po.add(i)), _mm256_mul_ps(s, _mm256_loadu_ps(px.add(i))));
        _mm256_storeu_ps(po.add(i), v);
        i += 8;
    }
    for j in main..n {
        out[j] += scale * x[j];
    }
}

fn axpy_avx512(out: &mut [f32], scale: f32, x: &[f32]) {
    // SAFETY: the AVX-512 table is only reachable after runtime detection.
    unsafe { axpy_avx512_impl(out, scale, x) }
}

#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512_impl(out: &mut [f32], scale: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    let s = _mm512_set1_ps(scale);
    let n = out.len();
    let main = n - n % 16;
    let po = out.as_mut_ptr();
    let px = x.as_ptr();
    let mut i = 0usize;
    while i < main {
        let v =
            _mm512_add_ps(_mm512_loadu_ps(po.add(i)), _mm512_mul_ps(s, _mm512_loadu_ps(px.add(i))));
        _mm512_storeu_ps(po.add(i), v);
        i += 16;
    }
    for j in main..n {
        out[j] += scale * x[j];
    }
}

// ---------------------------------------------------------------------------
// Hamming / count_ones (Mula nibble-LUT popcount + psadbw horizontal sums;
// the host baseline is not guaranteed avx512vpopcntdq, so AVX-512 uses the
// same byte-LUT shape over 512-bit lanes)
// ---------------------------------------------------------------------------

fn hamming_avx2(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: the AVX2 table is only reachable after runtime detection.
    unsafe { hamming_avx2_impl(a, b) }
}

#[target_feature(enable = "avx2")]
unsafe fn hamming_avx2_impl(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let lut =
        _mm256_broadcastsi128_si256(_mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    let low = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let mut total = zero;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let va = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
        let vb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
        let v = _mm256_xor_si256(va, vb);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        total = _mm256_add_epi64(total, _mm256_sad_epu8(cnt, zero));
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, total);
    let mut sum = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as usize;
    for i in chunks * 4..a.len() {
        sum += (a[i] ^ b[i]).count_ones() as usize;
    }
    sum
}

fn count_ones_avx2(words: &[u64]) -> usize {
    // SAFETY: the AVX2 table is only reachable after runtime detection.
    unsafe { count_ones_avx2_impl(words) }
}

#[target_feature(enable = "avx2")]
unsafe fn count_ones_avx2_impl(words: &[u64]) -> usize {
    let lut =
        _mm256_broadcastsi128_si256(_mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    let low = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let mut total = zero;
    let chunks = words.len() / 4;
    for i in 0..chunks {
        let v = _mm256_loadu_si256(words.as_ptr().add(i * 4) as *const __m256i);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        total = _mm256_add_epi64(total, _mm256_sad_epu8(cnt, zero));
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, total);
    let mut sum = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as usize;
    for w in &words[chunks * 4..] {
        sum += w.count_ones() as usize;
    }
    sum
}

fn hamming_avx512(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: the AVX-512 table is only reachable after runtime detection.
    unsafe { hamming_avx512_impl(a, b) }
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn hamming_avx512_impl(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let lut = _mm512_broadcast_i32x4(_mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    let low = _mm512_set1_epi8(0x0f);
    let zero = _mm512_setzero_si512();
    let mut total = zero;
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let va = _mm512_loadu_epi64(a.as_ptr().add(i * 8) as *const i64);
        let vb = _mm512_loadu_epi64(b.as_ptr().add(i * 8) as *const i64);
        let v = _mm512_xor_si512(va, vb);
        let lo = _mm512_and_si512(v, low);
        let hi = _mm512_and_si512(_mm512_srli_epi16::<4>(v), low);
        let cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi));
        total = _mm512_add_epi64(total, _mm512_sad_epu8(cnt, zero));
    }
    let mut sum = _mm512_reduce_add_epi64(total) as usize;
    for i in chunks * 8..a.len() {
        sum += (a[i] ^ b[i]).count_ones() as usize;
    }
    sum
}

fn count_ones_avx512(words: &[u64]) -> usize {
    // SAFETY: the AVX-512 table is only reachable after runtime detection.
    unsafe { count_ones_avx512_impl(words) }
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn count_ones_avx512_impl(words: &[u64]) -> usize {
    let lut = _mm512_broadcast_i32x4(_mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    let low = _mm512_set1_epi8(0x0f);
    let zero = _mm512_setzero_si512();
    let mut total = zero;
    let chunks = words.len() / 8;
    for i in 0..chunks {
        let v = _mm512_loadu_epi64(words.as_ptr().add(i * 8) as *const i64);
        let lo = _mm512_and_si512(v, low);
        let hi = _mm512_and_si512(_mm512_srli_epi16::<4>(v), low);
        let cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi));
        total = _mm512_add_epi64(total, _mm512_sad_epu8(cnt, zero));
    }
    let mut sum = _mm512_reduce_add_epi64(total) as usize;
    for w in &words[chunks * 8..] {
        sum += w.count_ones() as usize;
    }
    sum
}

fn hamming_avx512_vpopcnt(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: the AVX-512-vpopcnt table is only reachable after runtime
    // detection.
    unsafe { hamming_avx512_vpopcnt_impl(a, b) }
}

#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn hamming_avx512_vpopcnt_impl(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut total = _mm512_setzero_si512();
    let chunks = a.len() / 8;
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    for i in 0..chunks {
        let va = _mm512_loadu_epi64(pa.add(i * 8) as *const i64);
        let vb = _mm512_loadu_epi64(pb.add(i * 8) as *const i64);
        total = _mm512_add_epi64(total, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
    }
    let mut sum = _mm512_reduce_add_epi64(total) as usize;
    for i in chunks * 8..a.len() {
        sum += (a[i] ^ b[i]).count_ones() as usize;
    }
    sum
}

fn count_ones_avx512_vpopcnt(words: &[u64]) -> usize {
    // SAFETY: the AVX-512-vpopcnt table is only reachable after runtime
    // detection.
    unsafe { count_ones_avx512_vpopcnt_impl(words) }
}

#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn count_ones_avx512_vpopcnt_impl(words: &[u64]) -> usize {
    let mut total = _mm512_setzero_si512();
    let chunks = words.len() / 8;
    let pw = words.as_ptr();
    for i in 0..chunks {
        let v = _mm512_loadu_epi64(pw.add(i * 8) as *const i64);
        total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
    }
    let mut sum = _mm512_reduce_add_epi64(total) as usize;
    for w in &words[chunks * 8..] {
        sum += w.count_ones() as usize;
    }
    sum
}

// ---------------------------------------------------------------------------
// Sign kernels.  Bit-exact against the scalar forms: identical IEEE mul/sub
// sequence for the range reduction, ties-to-even rounding (the hardware
// vroundps/vrndscaleps mode, matched by `round_ties_even` on the scalar
// side), and ordered compares that treat NaN as false on both sides.
// ---------------------------------------------------------------------------

fn sign_quadrant_word_avx2(chunk: &[f32], guard: f32) -> (u64, u64) {
    // SAFETY: the AVX2 table is only reachable after runtime detection.
    unsafe { sign_quadrant_word_avx2_impl(chunk, guard) }
}

#[target_feature(enable = "avx2")]
unsafe fn sign_quadrant_word_avx2_impl(chunk: &[f32], guard: f32) -> (u64, u64) {
    debug_assert!(chunk.len() <= 64);
    let inv_tau = _mm256_set1_ps(super::INV_TAU);
    let c1 = _mm256_set1_ps(super::REDUCE_C1);
    let c2 = _mm256_set1_ps(super::REDUCE_C2);
    let pi_2 = _mm256_set1_ps(std::f32::consts::FRAC_PI_2);
    let guard_v = _mm256_set1_ps(guard);
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut word = 0u64;
    let mut band = 0u64;
    let groups = chunk.len() / 8;
    for g in 0..groups {
        let v = _mm256_loadu_ps(chunk.as_ptr().add(g * 8));
        let k = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(v, inv_tau),
        );
        let r = _mm256_sub_ps(_mm256_sub_ps(v, _mm256_mul_ps(k, c1)), _mm256_mul_ps(k, c2));
        let a = _mm256_and_ps(r, abs_mask);
        let quadrant = _mm256_cmp_ps::<_CMP_LE_OQ>(a, pi_2);
        let dist = _mm256_and_ps(_mm256_sub_ps(a, pi_2), abs_mask);
        let in_band = _mm256_cmp_ps::<_CMP_LT_OQ>(dist, guard_v);
        word |= (_mm256_movemask_ps(quadrant) as u32 as u64) << (g * 8);
        band |= (_mm256_movemask_ps(in_band) as u32 as u64) << (g * 8);
    }
    for bit in groups * 8..chunk.len() {
        let a = super::reduce_to_pi(chunk[bit]).abs();
        word |= ((a <= std::f32::consts::FRAC_PI_2) as u64) << bit;
        band |= (((a - std::f32::consts::FRAC_PI_2).abs() < guard) as u64) << bit;
    }
    (word, band)
}

fn sign_quadrant_word_avx512(chunk: &[f32], guard: f32) -> (u64, u64) {
    // SAFETY: the AVX-512 table is only reachable after runtime detection.
    unsafe { sign_quadrant_word_avx512_impl(chunk, guard) }
}

#[target_feature(enable = "avx512f")]
unsafe fn sign_quadrant_word_avx512_impl(chunk: &[f32], guard: f32) -> (u64, u64) {
    debug_assert!(chunk.len() <= 64);
    let inv_tau = _mm512_set1_ps(super::INV_TAU);
    let c1 = _mm512_set1_ps(super::REDUCE_C1);
    let c2 = _mm512_set1_ps(super::REDUCE_C2);
    let pi_2 = _mm512_set1_ps(std::f32::consts::FRAC_PI_2);
    let guard_v = _mm512_set1_ps(guard);
    // 512-bit FP bitwise ops are AVX512DQ; stay on F with integer ands.
    let abs_mask = _mm512_set1_epi32(0x7fff_ffff);
    let mut word = 0u64;
    let mut band = 0u64;
    let groups = chunk.len() / 16;
    for g in 0..groups {
        let v = _mm512_loadu_ps(chunk.as_ptr().add(g * 16));
        // imm8 = 0x08: round to integer (zero fraction bits), ties-to-even,
        // suppress precision exceptions — vrndscaleps.
        let k = _mm512_roundscale_ps::<0x08>(_mm512_mul_ps(v, inv_tau));
        let r = _mm512_sub_ps(_mm512_sub_ps(v, _mm512_mul_ps(k, c1)), _mm512_mul_ps(k, c2));
        let a = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(r), abs_mask));
        let quadrant = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(a, pi_2);
        let dist = _mm512_castsi512_ps(_mm512_and_si512(
            _mm512_castps_si512(_mm512_sub_ps(a, pi_2)),
            abs_mask,
        ));
        let in_band = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(dist, guard_v);
        word |= (quadrant as u64) << (g * 16);
        band |= (in_band as u64) << (g * 16);
    }
    for bit in groups * 16..chunk.len() {
        let a = super::reduce_to_pi(chunk[bit]).abs();
        word |= ((a <= std::f32::consts::FRAC_PI_2) as u64) << bit;
        band |= (((a - std::f32::consts::FRAC_PI_2).abs() < guard) as u64) << bit;
    }
    (word, band)
}

fn sign_pack_word_avx2(chunk: &[f32]) -> u64 {
    // SAFETY: the AVX2 table is only reachable after runtime detection.
    unsafe { sign_pack_word_avx2_impl(chunk) }
}

#[target_feature(enable = "avx2")]
unsafe fn sign_pack_word_avx2_impl(chunk: &[f32]) -> u64 {
    debug_assert!(chunk.len() <= 64);
    let zero = _mm256_setzero_ps();
    let mut word = 0u64;
    let groups = chunk.len() / 8;
    for g in 0..groups {
        let v = _mm256_loadu_ps(chunk.as_ptr().add(g * 8));
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero);
        word |= (_mm256_movemask_ps(ge) as u32 as u64) << (g * 8);
    }
    for bit in groups * 8..chunk.len() {
        word |= ((chunk[bit] >= 0.0) as u64) << bit;
    }
    word
}

fn sign_pack_word_avx512(chunk: &[f32]) -> u64 {
    // SAFETY: the AVX-512 table is only reachable after runtime detection.
    unsafe { sign_pack_word_avx512_impl(chunk) }
}

#[target_feature(enable = "avx512f")]
unsafe fn sign_pack_word_avx512_impl(chunk: &[f32]) -> u64 {
    debug_assert!(chunk.len() <= 64);
    let zero = _mm512_setzero_ps();
    let mut word = 0u64;
    let groups = chunk.len() / 16;
    for g in 0..groups {
        let v = _mm512_loadu_ps(chunk.as_ptr().add(g * 16));
        let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, zero);
        word |= (ge as u64) << (g * 16);
    }
    for bit in groups * 16..chunk.len() {
        word |= ((chunk[bit] >= 0.0) as u64) << bit;
    }
    word
}
