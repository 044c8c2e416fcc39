//! Property-based tests for the statistics substrate.

use cpi2_stats::correlation::pearson;
use cpi2_stats::distribution::{ContinuousDist, Gamma, Gev, LogNormal, Normal};
use cpi2_stats::ewma::AgeWeighted;
use cpi2_stats::histogram::Ecdf;
use cpi2_stats::rng::SimRng;
use cpi2_stats::summary::RunningStats;
use cpi2_stats::timeseries::TimeSeries;
use proptest::prelude::*;
use serde::Serialize;

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

    #[test]
    fn timeseries_align_within_tolerance(
        ts_a in prop::collection::vec((0i64..100_000, -10.0..10.0f64), 1..40),
        ts_b in prop::collection::vec((0i64..100_000, -10.0..10.0f64), 1..40),
        tol in 0i64..5_000,
    ) {
        let a = TimeSeries::from_points(ts_a);
        let b = TimeSeries::from_points(ts_b);
        let pairs = a.align(&b, tol);
        prop_assert!(pairs.len() <= a.len());
        // Every emitted pair's values must exist in the inputs.
        for (va, vb) in &pairs {
            prop_assert!(a.points().iter().any(|&(_, v)| v == *va));
            prop_assert!(b.points().iter().any(|&(_, v)| v == *vb));
        }
    }

    #[test]
    fn timeseries_window_subset(pts in prop::collection::vec((0i64..10_000, -5.0..5.0f64), 0..50),
                                start in 0i64..10_000, len in 0i64..10_000) {
        let s = TimeSeries::from_points(pts);
        let w = s.window(start, start + len);
        prop_assert!(w.len() <= s.len());
        for &(t, _) in w.points() {
            prop_assert!(t >= start && t < start + len);
        }
    }
}

/// What a series was before it kept a front offset: a plain vector whose
/// eviction drains its front. Serialises as the derived `TimeSeries` did.
#[derive(Serialize)]
struct PlainSeries {
    points: Vec<(i64, f64)>,
}

/// One generated step: `(kind, n, x)`, read by the test below.
type SeriesOp = (u8, i64, f64);

fn series_ops() -> impl Strategy<Value = Vec<SeriesOp>> {
    prop::collection::vec((0..16u8, 0i64..40, -5.0..5.0f64), 1..200)
}

proptest! {
    #[test]
    fn timeseries_matches_a_plain_vector(
        ops in series_ops(),
        other in prop::collection::vec((0i64..400, -5.0..5.0f64), 0..20),
    ) {
        let other = TimeSeries::from_points(other);
        let mut series = TimeSeries::new();
        let mut model = PlainSeries { points: Vec::new() };
        let mut peak = 0;
        let mut pairs = Vec::new();
        for (kind, n, x) in ops {
            let last = model.points.last().map_or(0, |&(t, _)| t);
            let first = model.points.first().map_or(last, |&(t, _)| t);
            match kind {
                // Monotone pushes, ties included.
                0..=7 => {
                    let t = last + n % 4;
                    series.push(t, x);
                    model.points.push((t, x));
                }
                // Cutoffs inside the series, behind it, and past it.
                8 | 9 => {
                    let cutoff = match kind {
                        8 => first + n % (last - first + 2),
                        _ => if n % 2 == 0 { first - n } else { last + 1 + n },
                    };
                    series.evict_before(cutoff);
                    let lo = model.points.partition_point(|&(t, _)| t < cutoff);
                    model.points.drain(..lo);
                }
                10 => {
                    let (start, end) = (first + n - 5, first + n + (x * 4.0) as i64);
                    let want: Vec<_> = model
                        .points
                        .iter()
                        .copied()
                        .filter(|&(t, _)| start <= t && t < end)
                        .collect();
                    let window = series.window(start, end);
                    prop_assert_eq!(window.points(), &want[..]);
                }
                11 | 12 => {
                    let tolerance = n;
                    let plain = TimeSeries::from_points(model.points.clone());
                    series.align_into(&other, tolerance, &mut pairs);
                    prop_assert_eq!(&pairs, &plain.align(&other, tolerance));
                    other.align_into(&series, tolerance, &mut pairs);
                    prop_assert_eq!(&pairs, &other.align(&plain, tolerance));
                }
                13 => series = series.clone(),
                _ => {
                    let json = serde_json::to_string(&series).unwrap();
                    series = serde_json::from_str(&json).unwrap();
                }
            }
            peak = peak.max(model.points.len());
            prop_assert_eq!(series.points(), &model.points[..]);
            prop_assert_eq!(series.len(), model.points.len());
            prop_assert_eq!(
                serde_json::to_string(&series).unwrap(),
                serde_json::to_string(&model).unwrap()
            );
            prop_assert!(
                series.capacity() <= 4.max(2 * peak),
                "capacity {} for a peak of {} points",
                series.capacity(),
                peak
            );
        }
    }
}
