//! Parity suite for the `hdc::kernel` runtime dispatch layer.
//!
//! Every SIMD path the host can detect is compared against the
//! always-available scalar table under the kernel layer's determinism
//! contract: every kernel is **bit-exact on every path** — the integer
//! kernels (`hamming_distance`, `count_ones`, `sign_pack_word`,
//! `sign_quadrant_word`), `axpy` (mul + add, never fused) and the dot
//! family (32 lanes, mul then add, one reduce, a serial tail).
//!
//! Lengths deliberately include 0, 1, the 47/48 boundary the associative
//! memory's tests probe, and non-multiples of every path's lane width so
//! the tail loops are exercised on each table.

use hdc::rng::HdcRng;
use hdc::Kernels;

/// Word counts covering empty, single, sub-lane, lane-boundary and
/// off-by-one shapes for every path's step (scalar 1, AVX2 4, AVX-512 8).
const WORD_LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33];

/// Float lengths covering empty, single, the 47/48 memory-test boundary
/// and off-by-one shapes around the 32-lane dot bank and the 4/8/16 axpy
/// lane widths.
const FLOAT_LENS: [usize; 14] = [0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, 48, 137];

fn words(len: usize, rng: &mut HdcRng) -> Vec<u64> {
    (0..len).map(|_| rng.next_word()).collect()
}

fn floats(len: usize, rng: &mut HdcRng) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-4.0, 4.0) as f32).collect()
}

#[test]
fn scalar_table_is_always_available_and_first() {
    let available = Kernels::available();
    assert!(!available.is_empty());
    assert_eq!(available[0].isa(), "scalar");
    assert_eq!(Kernels::scalar().isa(), "scalar");
    // The active table is one of the available ones.
    let active = hdc::kernel::active().isa();
    assert!(available.iter().any(|k| k.isa() == active), "active {active} not in available");
}

#[test]
fn hamming_and_count_ones_are_bit_exact_on_every_path() {
    let scalar = Kernels::scalar();
    for (case, &len) in WORD_LENS.iter().enumerate() {
        let mut rng = HdcRng::seed_from(0xA000 + case as u64);
        let a = words(len, &mut rng);
        let b = words(len, &mut rng);
        let expect_h = scalar.hamming_distance(&a, &b);
        let expect_c = scalar.count_ones(&a);
        for path in Kernels::available() {
            assert_eq!(
                path.hamming_distance(&a, &b),
                expect_h,
                "hamming diverged on {} at {len} words",
                path.isa()
            );
            assert_eq!(
                path.count_ones(&a),
                expect_c,
                "count_ones diverged on {} at {len} words",
                path.isa()
            );
        }
    }
    // All-ones / all-zeros extremes.
    for len in [1usize, 7, 16] {
        let ones = vec![u64::MAX; len];
        let zeros = vec![0u64; len];
        for path in Kernels::available() {
            assert_eq!(path.hamming_distance(&ones, &zeros), len * 64, "{}", path.isa());
            assert_eq!(path.count_ones(&ones), len * 64, "{}", path.isa());
            assert_eq!(path.count_ones(&zeros), 0, "{}", path.isa());
        }
    }
}

#[test]
fn sign_kernels_are_bit_exact_on_every_path() {
    use std::f32::consts::FRAC_PI_2;
    let scalar = Kernels::scalar();
    let guard = 1e-3f32;
    // Chunk lengths from empty to a full word, plus band-edge values the
    // quadrant test's guard exists for.
    for chunk_len in [0usize, 1, 7, 31, 32, 33, 63, 64] {
        for case in 0..8u64 {
            let mut rng = HdcRng::seed_from(0xB000 + case * 100 + chunk_len as u64);
            let mut chunk = floats(chunk_len, &mut rng);
            // Salt some positions with exact boundaries: signed zero and
            // phases on / just inside / just outside the guard band.
            let specials = [
                0.0f32,
                -0.0,
                FRAC_PI_2,
                -FRAC_PI_2,
                FRAC_PI_2 - guard / 2.0,
                FRAC_PI_2 + guard / 2.0,
                FRAC_PI_2 - 2.0 * guard,
                FRAC_PI_2 + 2.0 * guard,
            ];
            for (i, s) in specials.iter().enumerate() {
                if let Some(slot) = chunk.get_mut(i * 7 % chunk_len.max(1)) {
                    if chunk_len > 0 {
                        *slot = *s;
                    }
                }
            }
            let expect_pack = scalar.sign_pack_word(&chunk);
            let expect_quadrant = scalar.sign_quadrant_word(&chunk, guard);
            for path in Kernels::available() {
                assert_eq!(
                    path.sign_pack_word(&chunk),
                    expect_pack,
                    "sign_pack_word diverged on {} at len {chunk_len} case {case}",
                    path.isa()
                );
                assert_eq!(
                    path.sign_quadrant_word(&chunk, guard),
                    expect_quadrant,
                    "sign_quadrant_word diverged on {} at len {chunk_len} case {case}",
                    path.isa()
                );
            }
        }
    }
}

#[test]
fn axpy_is_bit_exact_on_every_path() {
    let scalar = Kernels::scalar();
    for (case, &len) in FLOAT_LENS.iter().enumerate() {
        let mut rng = HdcRng::seed_from(0xC000 + case as u64);
        let x = floats(len, &mut rng);
        let base = floats(len, &mut rng);
        for scale in [0.0f32, 1.0, -0.75, 0.05] {
            let mut expect = base.clone();
            scalar.axpy(&mut expect, scale, &x);
            for path in Kernels::available() {
                let mut out = base.clone();
                path.axpy(&mut out, scale, &x);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "axpy diverged on {} at len {len} scale {scale}",
                    path.isa()
                );
            }
        }
    }
}

/// Dot lengths: every length up to 1,100 plus the model widths the
/// workloads use (2,048, 2,100) and long shapes around them.
fn dot_lens() -> impl Iterator<Item = usize> {
    (0..=1100).chain([2047, 2048, 2100, 4096, 10_000])
}

/// Magnitudes of the dot operands: unit-scale, encoded-hypervector scale and
/// accumulated class-hypervector scale.
const DOT_SCALES: [f32; 3] = [1e-3, 4.0, 1e3];

#[test]
fn dot_is_bit_exact_on_every_path() {
    let scalar = Kernels::scalar();
    let paths = Kernels::available();
    let mut rng = HdcRng::seed_from(0xD000);
    let a = floats(10_000, &mut rng);
    let b = floats(10_000, &mut rng);
    for scale in DOT_SCALES {
        let a: Vec<f32> = a.iter().map(|v| v * scale).collect();
        for len in dot_lens() {
            let (a, b) = (&a[..len], &b[..len]);
            let expect = scalar.dot(a, b).to_bits();
            for path in &paths {
                assert_eq!(
                    path.dot(a, b).to_bits(),
                    expect,
                    "dot diverged on {} at len {len} scale {scale}",
                    path.isa()
                );
            }
        }
    }
}

#[test]
fn dot_bank_accumulation_agrees_with_plain_dot_on_every_path() {
    // The associative memory's interleaved scorer tiles queries 512
    // elements at a time through `dot_accumulate`, then collapses the bank
    // with `DotBank::reduce` and adds the serial tail.  That must reproduce
    // the scalar one-shot `dot` bit for bit on each path.
    const TILE: usize = 512;
    let lanes = hdc::kernel::DOT_BANK_LANES;
    let scalar = Kernels::scalar();
    let paths = Kernels::available();
    let mut rng = HdcRng::seed_from(0xE000);
    let a = floats(10_000, &mut rng);
    let b = floats(10_000, &mut rng);
    for scale in DOT_SCALES {
        let a: Vec<f32> = a.iter().map(|v| v * scale).collect();
        for len in dot_lens() {
            let (a, b) = (&a[..len], &b[..len]);
            let expect = scalar.dot(a, b).to_bits();
            let main = len - len % lanes;
            for path in &paths {
                let mut bank = hdc::kernel::DotBank::new();
                for lo in (0..main).step_by(TILE) {
                    let hi = (lo + TILE).min(main);
                    path.dot_accumulate(&mut bank, &a[lo..hi], &b[lo..hi]);
                }
                let mut dot = bank.reduce();
                for (x, y) in a[main..].iter().zip(&b[main..]) {
                    dot += x * y;
                }
                assert_eq!(
                    dot.to_bits(),
                    expect,
                    "tiled accumulation diverged on {} at len {len} scale {scale}",
                    path.isa()
                );
            }
        }
    }
}
