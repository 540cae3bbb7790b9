//! Order statistics used by the benchmark and by `compare`.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `p` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 with at least ten samples
/// beyond it — the tail a sample of `n` can support.  `None` below 20
/// samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of an unsorted sample (mean of the two middle elements for an
/// even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the lower half of an unsorted sample (the `(n + 1) / 2` smallest
/// values): the statistic every timing in a run is reduced with.
///
/// Interference from the host only ever adds time.  On the bench host it
/// comes in phases of several seconds that slow memory-heavy work by a tenth
/// to a third and can cover half of a run, plus freezes of 5-80 ms about once
/// a second; the windows that escaped it are the better estimate of what the
/// program does.  A single quantile of the windows (minimum, lower quartile,
/// median) reads one state or the other and jumps by the whole gap between
/// two runs whose share of slow windows sits on either side of it; the mean
/// of the faster half stays put while up to half the windows are slow and
/// moves gradually beyond that.  Over ten runs of each workload, taking every
/// estimator over the same window samples, it had the smallest run-to-run
/// spread next to the minimum (3.0 % on average; median 4.0 %, mean 6.7 %)
/// without resting on one lucky window.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn lower_half_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "lower_half_mean of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[..sorted.len().div_ceil(2)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) gives them, so `compare` and the driver
/// agree on what a spread is.  `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.50), 50);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);
        // ceil(0.9 * 5) = 5th element; ceil(0.5 * 5) = 3rd.
        let five = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile(&five, 0.9), 50);
        assert_eq!(percentile(&five, 0.5), 30);
        assert_eq!(percentile(&[7u64], 0.99), 7);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
        // The ISSUE's sizing: 100k light-phase samples leave 1 000 beyond p99.
        assert_eq!(samples_beyond(100_000, 0.99), 1_000);
    }

    #[test]
    fn lower_half_mean_averages_the_faster_half() {
        // Eight values: the four smallest, whatever the slow half reads.
        assert_eq!(lower_half_mean(&[800.0, 1.0, 5.0, 3.0, 2.0, 7.0, 4.0, 6.0]), 2.5);
        // An odd count keeps the middle value.
        assert_eq!(lower_half_mean(&[50.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
        assert_eq!(lower_half_mean(&[4.0, 2.0]), 2.0);
        assert_eq!(lower_half_mean(&[9.0]), 9.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
