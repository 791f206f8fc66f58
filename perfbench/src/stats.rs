//! Summary statistics the benchmark reports: medians, the tail
//! percentile rule, and geometric means.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every reported timing has samples.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail percentile a sample set supports: the highest of p99.9, p99,
/// p95 and p90 that leaves at least ten samples beyond it. Returns the
/// percentile (as a fraction) and its nearest-rank value, or `None` when
/// fewer than 100 samples leave ten beyond even p90.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    const CANDIDATES: [f64; 4] = [0.999, 0.99, 0.95, 0.90];
    let n = xs.len();
    let p = CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10)?;
    Some((p, nearest_rank(&sorted(xs), p)))
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` at rank 990 whichever way the
    // product rounds.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values: {xs:?}");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1..=1000: p99 is the 990th value, with 10 samples beyond it;
        // p99.9 would leave only one.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.99, 990.0)));
        // 999 samples cannot support p99 (only 9 beyond): fall to p95.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!(p, 0.95);
        assert_eq!(v, 950.0);
        assert_eq!(xs.len() - xs.iter().filter(|&&x| x <= v).count(), 49);
        // 10_000 samples support p99.9 (10 beyond).
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.999, 9_990.0)));
    }

    #[test]
    fn tail_percentile_needs_a_hundred_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.90, 90.0)));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs), Some((0.99, 990.0)));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }
}
