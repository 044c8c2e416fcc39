//! Property-based tests for the statistics substrate.

use cpi2_stats::correlation::pearson;
use cpi2_stats::distribution::{ContinuousDist, Gamma, Gev, LogNormal, Normal};
use cpi2_stats::ewma::AgeWeighted;
use cpi2_stats::histogram::Ecdf;
use cpi2_stats::rng::SimRng;
use cpi2_stats::summary::RunningStats;
use proptest::prelude::*;

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 2..n)
}

proptest! {
    #[test]
    fn running_stats_bounds(xs in finite_vec(100)) {
        let s = RunningStats::from_slice(&xs);
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn pearson_in_unit_range(xs in finite_vec(50), ys in finite_vec(50)) {
        let n = xs.len().min(ys.len());
        if let Some(r) = pearson(&xs[..n], &ys[..n]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn pearson_affine_invariance(xs in finite_vec(30), a in 0.1..5.0f64, b in -10.0..10.0f64) {
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((r - 1.0).abs() < 1e-6, "r={r}");
        }
    }

    #[test]
    fn normal_cdf_monotone(mean in -10.0..10.0f64, sd in 0.01..10.0f64,
                           a in -50.0..50.0f64, b in -50.0..50.0f64) {
        let d = Normal::new(mean, sd);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
    }

    #[test]
    fn distributions_quantile_roundtrip(p in 0.01..0.99f64) {
        let candidates: Vec<Box<dyn ContinuousDist>> = vec![
            Box::new(Normal::new(1.8, 0.16)),
            Box::new(LogNormal::new(0.5, 0.3)),
            Box::new(Gamma::new(2.0, 1.5)),
            Box::new(Gev::new(1.73, 0.133, -0.0534)),
            Box::new(Gev::new(0.0, 1.0, 0.3)),
        ];
        for d in candidates {
            let x = d.quantile(p);
            prop_assert!((d.cdf(x) - p).abs() < 1e-7, "p={p} x={x}");
        }
    }

    #[test]
    fn ecdf_quantile_monotone(xs in finite_vec(60), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let e = Ecdf::new(xs);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(e.quantile(lo) <= e.quantile(hi) + 1e-12);
    }

    #[test]
    fn ecdf_cdf_range(xs in finite_vec(60), probe in -1e6..1e6f64) {
        let e = Ecdf::new(xs);
        let c = e.cdf(probe);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), n in 1..1000u64) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(n) < n);
        }
    }

    #[test]
    fn rng_gamma_positive(seed in any::<u64>(), shape in 0.05..20.0f64, scale in 0.05..20.0f64) {
        let mut r = SimRng::new(seed);
        for _ in 0..20 {
            prop_assert!(r.gamma(shape, scale) > 0.0);
        }
    }

    #[test]
    fn rng_gev_on_support(seed in any::<u64>(), xi in -0.4..0.4f64) {
        let mut r = SimRng::new(seed);
        for _ in 0..50 {
            let x = r.gev(1.0, 0.5, xi);
            prop_assert!(x.is_finite());
            if xi > 1e-9 {
                prop_assert!(x >= 1.0 - 0.5 / xi - 1e-9);
            } else if xi < -1e-9 {
                prop_assert!(x <= 1.0 - 0.5 / xi + 1e-9);
            }
        }
    }

    #[test]
    fn age_weighted_mean_within_observed(days in prop::collection::vec((0.5..5.0f64, 0.0..1.0f64, 1.0..100.0f64), 1..20)) {
        let mut a = AgeWeighted::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (mean, sd, w) in &days {
            a.fold_day(*mean, *sd, *w, 0.9);
            lo = lo.min(*mean);
            hi = hi.max(*mean);
        }
        prop_assert!(a.mean() >= lo - 1e-9 && a.mean() <= hi + 1e-9);
        prop_assert!(a.stddev() >= 0.0);
    }
}
