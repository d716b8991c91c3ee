//! Order statistics for the benchmark's reports.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, by [`tail`].
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `xs`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    // Nearest rank: the smallest k with k/n >= p/100 (1-based).
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// The highest of p99/p95/p90/p75 that [`percentile`] may report, as
/// `(p, value)`; `None` when even p75 has too few samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile(xs, p).map(|v| (p, v)))
}

/// The smallest of `xs`; `None` when `xs` is empty.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has rank 90 and exactly 10 beyond it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p95 has only 5 beyond it.
        assert_eq!(percentile(&xs, 95.0), None);
        // 99 samples: p90 has rank 90 and only 9 beyond it.
        assert_eq!(percentile(&xs[..99], 90.0), None);
        // 200 samples: p95 has rank 190 and 10 beyond it.
        let ys: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&ys, 95.0), Some(190.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_picks_the_highest_reportable_percentile() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        // p95: rank 114, 6 beyond; p90: rank 108, 12 beyond.
        assert_eq!(tail(&xs), Some((90.0, 108.0)));
        assert_eq!(tail(&xs[..30]), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((99.0, 990.0)));
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[2.5, 0.5, 1.0]), Some(0.5));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(3, 4), 0.75);
    }
}
