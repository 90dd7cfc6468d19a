//! Order statistics over the benchmark's latency samples.
//!
//! Every end-to-end timing the benchmark reports is a median or a
//! nearest-rank percentile over many samples taken across one run, never
//! a single sample: on a shared host a single market build or round
//! moves by several percent between runs of identical code, while a
//! median over a handful of samples moves by one or two.

/// Median of `values`: the middle element, or the mean of the two middle
/// elements for an even count. `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `p` (in `[0, 1]`) of all samples is at or below it, i.e. the
/// `ceil(p * n)`-th smallest (rank clamped to `[1, n]`). `None` for an
/// empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The highest of the usual reporting percentiles (99.9, 99, 95, 90,
/// 75, 50) that still has at least `min_beyond` samples ranked above it
/// in a sample of `n`, as a share in `[0, 1]`. A percentile with fewer
/// samples beyond it rests on a handful of observations and moves
/// between runs; `None` when not even the median qualifies.
#[must_use]
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= min_beyond)
}

/// Share of `attempted` requests that completed within `limit`:
/// `latencies` holds the completed ones; every attempted request without
/// a latency (failed, refused, or never answered) counts as a miss.
/// `None` when nothing was attempted.
#[must_use]
pub fn within_limit_ratio(latencies: &[f64], attempted: usize, limit: f64) -> Option<f64> {
    if attempted == 0 {
        return None;
    }
    let within = latencies.iter().filter(|&&l| l <= limit).count();
    Some(within.min(attempted) as f64 / attempted as f64)
}

/// Nearest rank (1-based) of percentile `p` in a sample of `n > 0`.
fn rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        // The rank never drops below the first sample.
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        // ceil(0.99 * 10) = 10: the largest of ten samples, never an
        // interpolated or lower-ranked one.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), Some(10.0));
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990, ten beyond it; p99.9 has one.
        assert_eq!(highest_supported_percentile(1000, 10), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000, 10), Some(0.999));
        // 999 samples: p99 has rank 990 and only nine beyond it.
        assert_eq!(highest_supported_percentile(999, 10), Some(0.95));
        assert_eq!(highest_supported_percentile(200, 10), Some(0.95));
        assert_eq!(highest_supported_percentile(20, 10), Some(0.50));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(0, 10), None);
    }

    #[test]
    fn within_limit_ratio_counts_failures_as_misses() {
        let latencies = [1.0, 20.0, 49.9, 50.0, 51.0];
        assert_eq!(within_limit_ratio(&latencies, 5, 50.0), Some(0.8));
        // Three more attempts that never completed: 4 of 8 within.
        assert_eq!(within_limit_ratio(&latencies, 8, 50.0), Some(0.5));
        assert_eq!(within_limit_ratio(&[], 3, 50.0), Some(0.0));
        assert_eq!(within_limit_ratio(&[], 0, 50.0), None);
    }
}
