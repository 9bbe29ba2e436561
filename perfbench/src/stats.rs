//! Order statistics and ratios the benchmark reports.

/// Percentiles the tail rule may choose from, highest last.
const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Nearest-rank `p`-th percentile (`p` in `(0, 100]`) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()).clamp(1, v.len()) - 1])
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples,
/// in exact integer arithmetic on `p` in tenths of a percent.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// The highest percentile of [`TAIL_CANDIDATES`] that leaves at least
/// ten samples beyond it, with its value: `(p, value)`. `None` when
/// fewer than twenty samples exist (even the median has fewer than ten
/// samples above it).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let p = TAIL_CANDIDATES.iter().copied().rev().find(|&p| n - rank(p, n) >= TAIL_MIN_BEYOND)?;
    Some((p, percentile(xs, p)?))
}

/// Geometric mean of positive ratios; `None` when empty or when any
/// ratio is not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| !x.is_finite() || *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// `num / den` as a fraction, 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn geomean_matches_the_definition() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        // Scale-free: the geomean of reciprocals is the reciprocal.
        let speedups = [1.37, 2.11, 0.98, 3.4, 1.02, 1.5];
        let inv: Vec<f64> = speedups.iter().map(|s| 1.0 / s).collect();
        let a = geomean(&speedups).unwrap();
        let b = geomean(&inv).unwrap();
        assert!((a * b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "19 samples leave 9 beyond the median");
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 50.0)), "p90 of 99 leaves 9.9 beyond");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 20.0), Some(1.0));
        assert_eq!(percentile(&xs, 21.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratio_guards_a_zero_denominator() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
