//! Exponential age-weighting for historical data.
//!
//! CPI² incorporates prior runs of a job by "multiplying the CPI value from
//! the previous day by about 0.9 before averaging it with the most recent
//! day's data" (§3.1). [`AgeWeighted`] implements exactly that fold.

use serde::{Deserialize, Serialize};

/// Day-over-day age-weighted aggregate of a (mean, stddev, weight) spec.
///
/// Each day's fold discounts all history by `decay` (the paper's ≈0.9) and
/// averages it with the new day's statistics, weighted by sample counts.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, Default)]
pub struct AgeWeighted {
    mean: f64,
    var: f64,
    weight: f64,
}

impl AgeWeighted {
    /// Creates an empty history.
    pub fn new() -> Self {
        AgeWeighted::default()
    }

    /// Folds in one day of data.
    ///
    /// `decay` discounts existing history (0.9 in the paper); `day_weight`
    /// is typically the day's sample count.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `[0, 1]` or `day_weight` is negative.
    pub fn fold_day(&mut self, day_mean: f64, day_stddev: f64, day_weight: f64, decay: f64) {
        assert!((0.0..=1.0).contains(&decay), "decay={decay} out of [0,1]");
        assert!(day_weight >= 0.0, "day_weight must be non-negative");
        let old_w = self.weight * decay;
        let total = old_w + day_weight;
        if total <= 0.0 {
            return;
        }
        let day_var = day_stddev * day_stddev;
        // Weighted pooling of means and (between+within) variance.
        let new_mean = (self.mean * old_w + day_mean * day_weight) / total;
        let new_var = (old_w * (self.var + (self.mean - new_mean).powi(2))
            + day_weight * (day_var + (day_mean - new_mean).powi(2)))
            / total;
        self.mean = new_mean;
        self.var = new_var;
        self.weight = total;
    }

    /// Age-weighted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Age-weighted standard deviation.
    pub fn stddev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Effective weight (discounted sample mass).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// True if no day has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.weight == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_weighted_single_day_identity() {
        let mut a = AgeWeighted::new();
        a.fold_day(1.8, 0.16, 1000.0, 0.9);
        assert!((a.mean() - 1.8).abs() < 1e-12);
        assert!((a.stddev() - 0.16).abs() < 1e-12);
        assert!((a.weight() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn age_weighted_recent_day_dominates_over_time() {
        let mut a = AgeWeighted::new();
        // Ten days at CPI 1.0, then ten at CPI 2.0: estimate should end
        // much closer to 2.0 than the plain average.
        for _ in 0..10 {
            a.fold_day(1.0, 0.1, 100.0, 0.9);
        }
        for _ in 0..10 {
            a.fold_day(2.0, 0.1, 100.0, 0.9);
        }
        assert!(a.mean() > 1.6, "mean={}", a.mean());
    }

    #[test]
    fn age_weighted_equal_days_stable() {
        let mut a = AgeWeighted::new();
        for _ in 0..100 {
            a.fold_day(1.5, 0.2, 50.0, 0.9);
        }
        assert!((a.mean() - 1.5).abs() < 1e-9);
        assert!((a.stddev() - 0.2).abs() < 1e-9);
        // Effective weight converges to day_weight / (1 − decay) = 500.
        assert!((a.weight() - 500.0).abs() < 1.0);
    }

    #[test]
    fn age_weighted_between_day_variance_counts() {
        let mut a = AgeWeighted::new();
        a.fold_day(1.0, 0.0, 100.0, 1.0);
        a.fold_day(3.0, 0.0, 100.0, 1.0);
        // Equal weights, no within-day variance ⇒ var = 1.0 (spread of means).
        assert!((a.mean() - 2.0).abs() < 1e-12);
        assert!((a.stddev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn age_weighted_empty() {
        let a = AgeWeighted::new();
        assert!(a.is_empty());
        assert_eq!(a.mean(), 0.0);
    }
}
