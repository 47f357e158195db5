//! Latency summaries: nearest-rank percentiles, and the rule for which tail
//! percentile a sample can support.

/// Percentiles a report may name, lowest first.
const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending); 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding of p (e.g. 99.9) from pushing an
    // exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// above its rank, or `None` when even the median lacks them.
pub fn highest_reportable(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
}

/// A latency sample set (nanoseconds), sorted once.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<u64>,
}

impl Summary {
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn p(&self, p: f64) -> u64 {
        percentile(&self.sorted, p)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    /// The tail value reported as "p99": the 99th percentile when the
    /// sample supports it, otherwise the highest percentile it does
    /// support. Returns `(percentile used, value)`.
    pub fn tail(&self) -> (f64, u64) {
        let p = highest_reportable(self.count()).unwrap_or(50.0).min(99.0);
        (p, self.p(p))
    }
}

/// Median of a small set of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_reportable_keeps_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond it.
        assert_eq!(highest_reportable(1000), Some(99.0));
        // One sample fewer leaves only 9 beyond p99, so p95 is the tail.
        assert_eq!(highest_reportable(999), Some(95.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_falls_back_when_sample_is_small() {
        let s = Summary::new((1..=200).collect());
        assert_eq!(s.tail(), (95.0, 190));
        let big = Summary::new((1..=5000).collect());
        assert_eq!(big.tail(), (99.0, 4950));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
