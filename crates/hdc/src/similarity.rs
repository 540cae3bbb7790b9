//! Similarity kernels.
//!
//! CyberHD's learning rule and its inference step are both built on cosine
//! similarity between an encoded query and the class hypervectors; the 1-bit
//! deployment mode replaces cosine with normalized Hamming similarity, which
//! is its exact counterpart for bipolar vectors.  These free functions are the
//! hot kernels of the whole system and are deliberately written over plain
//! slices so every representation (dense, quantized, batched matrix rows) can
//! share them.  They are thin fronts over [`crate::kernel::Kernels::active`],
//! and both [`dot`] and [`hamming_distance`] are bit-exact on every dispatch
//! path, so a score does not depend on the host's instruction set.

/// Dot product of two equally sized slices, via the active
/// [`crate::kernel`] dispatch path.
///
/// Bit-exact on every dispatch path: the summation order is the one
/// [`crate::kernel`] fixes (32 lanes, multiply then add, one reduce, a
/// serial tail), whichever instruction set runs it.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// assert_eq!(hdc::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::kernel::active().dot(a, b)
}

/// Euclidean (L2) norm of a slice.
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity of two equally sized slices, in `[-1, 1]`.
///
/// Returns `0.0` when either operand has zero norm.
///
/// # Example
///
/// ```
/// let c = hdc::cosine(&[1.0, 0.0], &[0.0, 1.0]);
/// assert!(c.abs() < 1e-6);
/// ```
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine similarity when the norm of `b` is already known.
///
/// The CyberHD trainer pre-computes class-hypervector norms once per batch, so
/// the per-sample work reduces to a dot product plus one division.
/// Returns `0.0` when either norm is zero.
pub fn cosine_with_norm(a: &[f32], a_norm: f32, b: &[f32], b_norm: f32) -> f32 {
    if a_norm == 0.0 || b_norm == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (a_norm * b_norm)).clamp(-1.0, 1.0)
}

/// Hamming distance between two equally sized `u64` word slices, via the
/// active [`crate::kernel`] dispatch path (bit-exact on every path).
///
/// The caller is responsible for ensuring that bits beyond the logical
/// dimensionality are zero in both operands (see
/// [`crate::BinaryHypervector::mask_tail`]).
pub fn hamming_distance(a_words: &[u64], b_words: &[u64]) -> usize {
    crate::kernel::active().hamming_distance(a_words, b_words)
}

/// Normalized Hamming similarity in `[-1, 1]` for packed words of logical
/// dimensionality `dim`.
///
/// Equal vectors map to `1.0`, complementary vectors to `-1.0`; a zero `dim`
/// maps to `0.0`.
pub fn normalized_hamming_similarity(a_words: &[u64], b_words: &[u64], dim: usize) -> f32 {
    if dim == 0 {
        return 0.0;
    }
    1.0 - 2.0 * hamming_distance(a_words, b_words) as f32 / dim as f32
}

/// Index and value of the largest score, ties broken in favour of the
/// lowest index (the determinism convention of the whole inference path).
///
/// Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(hdc::similarity::argmax(&[0.1, 0.9, 0.9]), Some((1, 0.9)));
/// assert_eq!(hdc::similarity::argmax(&[]), None);
/// ```
pub fn argmax(scores: &[f32]) -> Option<(usize, f32)> {
    if scores.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_sim = f32::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        if s > best_sim {
            best = i;
            best_sim = s;
        }
    }
    Some((best, best_sim))
}

/// Squared Euclidean distance between two equally sized slices.
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_non_multiple_of_four_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
    }

    #[test]
    fn dot_of_empty_slices_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_matches_hand_computation() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_bounds_and_degenerate_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        let c = cosine(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        assert!((c - 1.0).abs() < 1e-6);
        let c = cosine(&[1.0, 0.0], &[-1.0, 0.0]);
        assert!((c + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_norm_matches_cosine() {
        let a = [0.3, -0.7, 1.2, 0.0, 2.2];
        let b = [1.3, 0.7, -0.2, 0.4, -1.0];
        let reference = cosine(&a, &b);
        let fast = cosine_with_norm(&a, norm(&a), &b, norm(&b));
        assert!((reference - fast).abs() < 1e-6);
    }

    #[test]
    fn hamming_and_normalized_similarity() {
        let a = [0b1010u64];
        let b = [0b0110u64];
        assert_eq!(hamming_distance(&a, &b), 2);
        // dim = 4 bits in use -> similarity 1 - 2*2/4 = 0
        assert_eq!(normalized_hamming_similarity(&a, &b, 4), 0.0);
        assert_eq!(normalized_hamming_similarity(&a, &a, 4), 1.0);
        assert_eq!(normalized_hamming_similarity(&a, &a, 0), 0.0);
    }

    #[test]
    fn squared_euclidean_matches_hand_computation() {
        assert_eq!(squared_euclidean(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
    }

    #[test]
    fn argmax_breaks_ties_towards_the_lowest_index() {
        assert_eq!(argmax(&[0.5, 1.0, 1.0, 0.2]), Some((1, 1.0)));
        assert_eq!(argmax(&[-2.0]), Some((0, -2.0)));
        assert_eq!(argmax(&[]), None);
        // All-NaN keeps the first index, matching the serial `nearest` loop.
        let (i, _) = argmax(&[f32::NAN, f32::NAN]).unwrap();
        assert_eq!(i, 0);
    }
}
