//! Streaming summaries: mean, variance, percentiles, EWMA.

use serde::{Deserialize, Serialize};

/// An accumulating summary of `f64` observations. Stores the observations
/// (experiments here are bounded), so exact percentiles are available.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    values: Vec<f64>,
    sorted: bool,
}

impl Summary {
    pub fn new() -> Summary {
        Summary::default()
    }

    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "summaries only accept finite values");
        self.values.push(v);
        self.sorted = false;
    }

    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, vs: I) {
        for v in vs {
            self.record(v);
        }
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sum() / self.values.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact percentile via nearest-rank on the sorted data; `p` in `[0,100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.values.len() as f64 - 1.0)).round() as usize;
        self.values[rank]
    }

    /// Coefficient of variation (σ/μ); 0 for degenerate inputs.
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Borrow the raw observations.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Exponentially weighted moving average — the adaptive runtime's estimator
/// for stage durations (the paper re-plans "with adjustable frequency"; an
/// EWMA gives it a stable signal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in `(0, 1]`: weight of the newest observation.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    pub fn record(&mut self, v: f64) {
        self.value = Some(match self.value {
            None => v,
            Some(prev) => self.alpha * v + (1.0 - self.alpha) * prev,
        });
    }

    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_are_exact() {
        let mut s = Summary::new();
        s.record_all([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.count(), 8);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        s.record_all((1..=100).map(|i| i as f64));
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 51.0); // nearest rank on 0-indexed 99 range
        assert_eq!(s.percentile(100.0), 100.0);
    }

    #[test]
    fn percentile_after_more_records_resorts() {
        let mut s = Summary::new();
        s.record_all([3.0, 1.0]);
        assert_eq!(s.percentile(100.0), 3.0);
        s.record(10.0);
        assert_eq!(s.percentile(100.0), 10.0);
    }

    #[test]
    fn empty_summary_is_zeroish() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn cov_normalizes_spread() {
        let mut a = Summary::new();
        a.record_all([10.0, 10.0, 10.0]);
        assert_eq!(a.cov(), 0.0);
        let mut b = Summary::new();
        b.record_all([5.0, 15.0]);
        assert!(b.cov() > 0.4);
    }

    #[test]
    fn ewma_converges_toward_signal() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.record(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.record(20.0);
        assert_eq!(e.value(), Some(15.0));
        for _ in 0..50 {
            e.record(20.0);
        }
        assert!((e.value().unwrap() - 20.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }
}
