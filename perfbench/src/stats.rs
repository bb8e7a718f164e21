//! Order statistics for benchmark samples: medians, the quartiles the
//! acceptance rule is written in, and the tail percentile a sample supports.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the rule the driver's repeat check and
/// `benchmark compare` both use. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread. `None` for fewer than two values or a zero median.
pub fn spread_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The percentiles a tail latency is reported at, highest first, each with
/// the share of samples beyond it in thousandths (kept whole so the count of
/// samples beyond is exact).
const TAIL_LADDER: [(f64, usize); 3] = [(99.9, 1), (99.0, 10), (90.0, 100)];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it in a sample of `count`, with the value there. `None` when even
/// the 90th percentile rests on fewer than ten samples.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&(p, beyond_per_mille)| {
        let beyond = n * beyond_per_mille / 1000;
        (beyond >= 10).then(|| (p, sorted[n - 1 - beyond]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread_share(&values), Some(1.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: the 90th percentile has only 9 beyond it.
        assert_eq!(supported_tail(&sample(99)), None);
        // 100 samples: p90 has exactly 10 beyond (values 90..=99).
        assert_eq!(supported_tail(&sample(100)), Some((90.0, 89.0)));
        // 999 samples: p99 has 9 beyond, so p90 it stays.
        assert_eq!(supported_tail(&sample(999)).unwrap().0, 90.0);
        assert_eq!(supported_tail(&sample(1000)), Some((99.0, 989.0)));
        assert_eq!(supported_tail(&sample(10_000)).unwrap().0, 99.9);
    }
}
