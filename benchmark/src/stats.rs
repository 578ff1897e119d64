//! Order statistics over unit times.

/// 1-based nearest rank of percentile `pct` among `n` samples, computed
/// in tenths of a percent so that e.g. p99.9 of 10 000 is exactly 9 990.
fn rank(n: usize, pct: f64) -> usize {
    let tenths = (pct * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of `sorted`, which must
/// be in ascending order; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly above the nearest-rank percentile `pct` of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest percentile in a fixed ladder with at least ten of `n`
/// samples beyond it (`None` below twenty samples).
pub fn tail_pct(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// Sorts a copy of `xs` and takes its nearest-rank percentile.
pub fn pct_of(xs: &[f64], pct: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(pct_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(tail_pct(19), None);
        assert_eq!(tail_pct(20), Some(50.0));
        assert_eq!(tail_pct(99), Some(75.0));
        assert_eq!(tail_pct(100), Some(90.0));
        assert_eq!(tail_pct(200), Some(95.0));
        assert_eq!(tail_pct(999), Some(95.0));
        assert_eq!(tail_pct(1000), Some(99.0));
        assert_eq!(tail_pct(10_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_pct(n).expect("twenty or more samples have a tail");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }
}
