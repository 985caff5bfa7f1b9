//! Sample statistics: median and quartiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the acceptance
//! driver computes on this benchmark's output; `--compare` and the
//! spread printed beside every metric must agree with it digit for digit.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of the finite samples (`None` when there are none).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` returns them. A single sample is
/// its own three quartiles (Python raises there; a benchmark run with one
/// repetition still needs a row).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len == 0 {
        return None;
    }
    if len == 1 {
        return Some([v[0]; 3]);
    }
    let n = 4usize;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Median, quartiles and extremes of the finite samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let [q1, _, q3] = quartiles(&v)?;
    Some(Summary { n: v.len(), q1, median: median(&v)?, q3, min: v[0], max: v[v.len() - 1] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), Some([15.0, 30.0, 45.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_carries_order_statistics() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert_eq!(summarize(&[f64::NAN]), None);
    }
}
