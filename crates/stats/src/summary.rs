//! Streaming summary statistics (Welford's algorithm).
//!
//! The CPI² aggregator computes per-job mean/σ over tens of thousands of
//! samples arriving over hours; Welford's online update keeps that numerically
//! stable in a single pass.

use serde::{Deserialize, Serialize};

/// Online mean / variance / min / max accumulator.
///
/// # Examples
///
/// ```
/// use cpi2_stats::summary::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = RunningStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`/n`); `0.0` for fewer than 2 observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (`/(n−1)`); `0.0` for fewer than 2 observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation (σ/µ); `0.0` when the mean is zero.
    pub fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.stddev() / self.mean().abs()
        }
    }

    /// Smallest observation; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroish() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn known_values() {
        let s = RunningStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn sample_variance_bessel() {
        let s = RunningStats::from_slice(&[1.0, 2.0, 3.0]);
        assert!((s.sample_variance() - 1.0).abs() < 1e-12);
        assert!((s.variance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cv_matches_definition() {
        let s = RunningStats::from_slice(&[9.0, 10.0, 11.0]);
        assert!((s.cv() - s.stddev() / 10.0).abs() < 1e-12);
    }
}
