//! Order statistics over op timings.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples beyond)`. With ten samples or fewer it
/// is the maximum, with none beyond.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, 0);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64, n - 1 - i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 is the 30th of 40 values: ten lie beyond it.
        assert_eq!(tail(&xs), (30.0, 75.0, 10));
        assert_eq!(tail(&xs[..5]), (5.0, 100.0, 0));
    }
}
