//! Order statistics over the benchmark's samples.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); 0 when
/// there are no samples.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the spread of
/// this benchmark is judged. All three are the single value when there is
/// one, and 0 when there is none.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let at = |k: usize| {
        // Position (n + 1) * k / 4 in 1-based ranks, interpolated, clamped.
        let pos = (n + 1) * k;
        let (idx, rem) = (pos / 4, pos % 4);
        let lo = sorted[idx.clamp(1, n) - 1];
        let hi = sorted[(idx + 1).clamp(1, n) - 1];
        lo + (hi - lo) * rem as f64 / 4.0
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
