//! Order statistics over host-time samples.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile of `values`, by the method
/// of Python's `statistics.quantiles(values, n=4)` (the default,
/// "exclusive" one), so spreads read the same as in any script checking
/// them. Fewer than two values give that value (or NaN) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The tail statistic: the highest percentile with at least ten samples
/// beyond it, as `(value, percentile)`. With fewer than twenty samples no
/// percentile has enough support below it either, so the maximum
/// (`p100`) stands in and the caller prints the sample count with it.
pub fn tail(values: &[f64]) -> (f64, usize) {
    let v = sorted(values);
    let n = v.len();
    if n < 20 {
        return (v.last().copied().unwrap_or(f64::NAN), 100);
    }
    let idx = n - 11;
    (v[idx], 100 * (idx + 1) / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // The two sweeps: 75 ops give p86, 32 ops give p68.
        assert_eq!(tail(&ramp(75)), (65.0, 86));
        assert_eq!(tail(&ramp(32)), (22.0, 68));
        assert_eq!(tail(&ramp(105)), (95.0, 90));
        let v = ramp(20);
        let (t, p) = tail(&v);
        assert_eq!(v.iter().filter(|x| **x > t).count(), 10);
        assert_eq!(p, 50);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_below_twenty_samples() {
        assert_eq!(tail(&ramp(12)), (12.0, 100));
        assert_eq!(tail(&[3.0, 1.0, 2.0, 0.5]), (3.0, 100));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
