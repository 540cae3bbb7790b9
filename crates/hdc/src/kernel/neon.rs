//! NEON dispatch table (aarch64).
//!
//! Safety model mirrors the x86 module: the `unsafe` `#[target_feature]`
//! bodies are reachable only through the table below, which
//! [`super::Kernels::active`] / [`super::Kernels::available`] hand out
//! strictly after `is_aarch64_feature_detected!("neon")` succeeds.
//!
//! The sign kernels stay on the (integer-bit-exact) scalar word builders:
//! their cost is dominated by the packed-bit assembly, and keeping the
//! table small limits the surface that cannot be compile-checked on x86
//! development hosts.

use super::{Kernels, DOT_BANK_LANES};
use std::arch::aarch64::*;

pub(super) fn supported() -> bool {
    std::arch::is_aarch64_feature_detected!("neon")
}

pub(super) static NEON: Kernels = Kernels {
    isa: "neon",
    dot_accumulate: dot_accumulate_neon,
    axpy: axpy_neon,
    hamming: hamming_neon,
    count_ones: count_ones_neon,
    sign_quadrant_word: super::sign_quadrant_word_scalar,
    sign_pack_word: super::sign_pack_word_scalar,
};

fn dot_accumulate_neon(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    // SAFETY: the NEON table is only reachable after runtime detection.
    unsafe { dot_accumulate_neon_impl(lanes, a, b) }
}

/// Eight 4-lane accumulators, 32 elements per iteration, `vmulq` then
/// `vaddq` (never fused), so the lane sums equal the scalar path's.  The bank layout is
/// `lanes[j*4 + l]` = vector accumulator `j`, lane `l`.
#[target_feature(enable = "neon")]
unsafe fn dot_accumulate_neon_impl(lanes: &mut [f32; DOT_BANK_LANES], a: &[f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % DOT_BANK_LANES, 0);
    let mut acc = [vdupq_n_f32(0.0); DOT_BANK_LANES / 4];
    for (j, v) in acc.iter_mut().enumerate() {
        *v = vld1q_f32(lanes.as_ptr().add(j * 4));
    }
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    for i in 0..a.len() / DOT_BANK_LANES {
        let qa = pa.add(i * DOT_BANK_LANES);
        let qb = pb.add(i * DOT_BANK_LANES);
        for (j, v) in acc.iter_mut().enumerate() {
            *v = vaddq_f32(*v, vmulq_f32(vld1q_f32(qa.add(j * 4)), vld1q_f32(qb.add(j * 4))));
        }
    }
    for (j, v) in acc.iter().enumerate() {
        vst1q_f32(lanes.as_mut_ptr().add(j * 4), *v);
    }
}

fn axpy_neon(out: &mut [f32], scale: f32, x: &[f32]) {
    // SAFETY: the NEON table is only reachable after runtime detection.
    unsafe { axpy_neon_impl(out, scale, x) }
}

/// Element-wise mul + add (deliberately not fused, so the result is
/// bit-exact against the scalar path).
#[target_feature(enable = "neon")]
unsafe fn axpy_neon_impl(out: &mut [f32], scale: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    let s = vdupq_n_f32(scale);
    let n = out.len();
    let main = n - n % 4;
    let po = out.as_mut_ptr();
    let px = x.as_ptr();
    let mut i = 0usize;
    while i < main {
        let v = vaddq_f32(vld1q_f32(po.add(i)), vmulq_f32(s, vld1q_f32(px.add(i))));
        vst1q_f32(po.add(i), v);
        i += 4;
    }
    for j in main..n {
        out[j] += scale * x[j];
    }
}

fn hamming_neon(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: the NEON table is only reachable after runtime detection.
    unsafe { hamming_neon_impl(a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn hamming_neon_impl(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = vdupq_n_u64(0);
    let chunks = a.len() / 2;
    for i in 0..chunks {
        let va = vld1q_u64(a.as_ptr().add(i * 2));
        let vb = vld1q_u64(b.as_ptr().add(i * 2));
        let x = veorq_u64(va, vb);
        let cnt = vcntq_u8(vreinterpretq_u8_u64(x));
        acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
    }
    let mut sum = (vgetq_lane_u64::<0>(acc) + vgetq_lane_u64::<1>(acc)) as usize;
    for i in chunks * 2..a.len() {
        sum += (a[i] ^ b[i]).count_ones() as usize;
    }
    sum
}

fn count_ones_neon(words: &[u64]) -> usize {
    // SAFETY: the NEON table is only reachable after runtime detection.
    unsafe { count_ones_neon_impl(words) }
}

#[target_feature(enable = "neon")]
unsafe fn count_ones_neon_impl(words: &[u64]) -> usize {
    let mut acc = vdupq_n_u64(0);
    let chunks = words.len() / 2;
    for i in 0..chunks {
        let v = vld1q_u64(words.as_ptr().add(i * 2));
        let cnt = vcntq_u8(vreinterpretq_u8_u64(v));
        acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
    }
    let mut sum = (vgetq_lane_u64::<0>(acc) + vgetq_lane_u64::<1>(acc)) as usize;
    for w in &words[chunks * 2..] {
        sum += w.count_ones() as usize;
    }
    sum
}
