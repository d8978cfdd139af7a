//! Percentile discipline: every latency is reported as a median plus one
//! upper percentile, together with the number of samples that lie beyond
//! that percentile. A percentile with fewer than [`MIN_BEYOND`] samples
//! beyond it says nothing about the tail and is reported as unsupported
//! instead of as a number.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and one upper percentile of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// The requested quantile, in `(0, 1)`.
    pub q: f64,
    /// Nearest-rank value at `q`, or `None` when unsupported.
    pub pq: Option<f64>,
    /// Samples strictly after the nearest-rank position of `q`.
    pub beyond: usize,
}

impl Summary {
    /// Summarises `samples` (any order) at quantile `q`.
    pub fn of(samples: &[f64], q: f64) -> Summary {
        assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                n,
                p50: f64::NAN,
                q,
                pq: None,
                beyond: 0,
            };
        }
        // Nearest rank: the smallest sample with at least q·n samples at or
        // below it.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        Summary {
            n,
            p50: median_sorted(&sorted),
            q,
            pq: (beyond >= MIN_BEYOND).then(|| sorted[rank - 1]),
            beyond,
        }
    }

    /// `"p99=12.3"` or `"p99=unsupported"`, with the support count.
    pub fn describe_tail(&self, scale: f64, unit: &str) -> String {
        let label = format!("p{}", (self.q * 100.0).round());
        match self.pq {
            Some(v) => format!("{label}={:.4} {unit} ({} beyond)", v * scale, self.beyond),
            None => format!(
                "{label}=unsupported ({} beyond, need {MIN_BEYOND})",
                self.beyond
            ),
        }
    }
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (`0` when empty, so an unexercised layer reads 0).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&thousand, 0.99);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.pq, Some(990.0));
        assert_eq!(s.p50, 500.5);

        let fewer: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = Summary::of(&fewer, 0.99);
        assert_eq!(s.beyond, 9);
        assert_eq!(s.pq, None, "9 samples beyond p99 is not a tail estimate");
        assert!(s.describe_tail(1.0, "ms").contains("unsupported"));
    }

    #[test]
    fn small_samples_support_no_upper_percentile() {
        let s = Summary::of(&[5.0; 14], 0.9);
        assert_eq!(s.pq, None);
        assert_eq!(s.p50, 5.0);
        let empty = Summary::of(&[], 0.5);
        assert_eq!((empty.n, empty.pq, empty.beyond), (0, None, 0));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = Summary::of(&v, 0.9);
        v.reverse();
        assert_eq!(Summary::of(&v, 0.9), a);
        assert_eq!(a.pq, Some(179.0));
        assert_eq!(a.beyond, 20);
    }
}
