//! Sample summaries: the median, nearest-rank tail percentiles and the rule for which tail a
//! sample supports. Every median the benchmark reports — `*_p50_*` included — is [`median`].

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value with at least
/// `p` percent of the sample at or below it. Empty samples read 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n >= 1`. The epsilon keeps
/// a product that is an integer in exact arithmetic (99 % of 1000) from rounding up a rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

const TAILS: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of the usual tail percentiles with at least ten samples beyond it, or `None`
/// when the sample cannot even support a median that way.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
    pub mean: f64,
    /// The highest percentile with ≥ 10 samples beyond it, and its value.
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = highest_supported_tail(sorted.len()).unwrap_or(50.0);
        Self {
            n: sorted.len(),
            p50: median_of_sorted(&sorted),
            p75: percentile(&sorted, 75.0),
            p99: percentile(&sorted, 99.0),
            mean: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            },
            tail_p,
            tail: percentile(&sorted, tail_p),
        }
    }

    /// Whether ten samples lie beyond the 99th percentile.
    pub fn supports_p99(&self) -> bool {
        samples_beyond(self.n, 99.0) >= 10
    }
}

/// The usual median (Python's `statistics.median`, which the driver uses): the middle value,
/// or the mean of the two middle values. Empty samples read 0.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_of_sorted(&sorted)
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Five samples: the median is the third, p90 the fifth (ceil(4.5) = 5).
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 90.0), 50.0);
        assert_eq!(percentile(&five, 20.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        // A summary's p50 is that median, not the nearest rank.
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).p50, 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly ten beyond it; of 999 it has nine.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(999), Some(98.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(20), Some(50.0));
        assert_eq!(highest_supported_tail(19), None);
        assert!(Summary::of(&vec![1.0; 1000]).supports_p99());
        assert!(!Summary::of(&vec![1.0; 999]).supports_p99());
    }
}
