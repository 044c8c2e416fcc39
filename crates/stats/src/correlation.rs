//! Correlation coefficients and simple linear regression.
//!
//! The paper quotes Pearson correlation coefficients throughout its
//! motivation (Figs. 2–4: r ≈ 0.97 for TPS/IPS and latency/CPI) and for the
//! L3-miss analysis of Fig. 15(c) (r ≈ 0.87); this module computes them.
//! Note the *antagonist* correlation of §4.2 is a different, bespoke score —
//! it lives in `cpi2-core`.

/// Pearson product-moment correlation of two equal-length series.
///
/// Returns `None` if the series have different lengths, fewer than two
/// points, or either has zero variance.
///
/// # Examples
///
/// ```
/// use cpi2_stats::correlation::pearson;
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Autocorrelation of a series at the given lag.
///
/// Returns `None` if the series is shorter than `lag + 2` or has zero
/// variance. Used to check the diurnal period in the Fig. 5 experiment.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    if xs.len() < lag + 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
    if var <= 0.0 {
        return None;
    }
    let cov: f64 = xs
        .windows(lag + 1)
        .map(|w| (w[0] - mean) * (w[lag] - mean))
        .sum();
    Some(cov / var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_lines() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_none() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn pearson_length_mismatch_is_none() {
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson(&[1.0], &[1.0]).is_none());
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        // Orthogonal-ish pattern.
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, -1.0, 1.0, -1.0];
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.5, "r={r}");
    }

    #[test]
    fn autocorrelation_periodic_signal() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 24.0).sin())
            .collect();
        let at_period = autocorrelation(&xs, 24).unwrap();
        let at_half = autocorrelation(&xs, 12).unwrap();
        assert!(at_period > 0.8, "at_period={at_period}");
        assert!(at_half < -0.8, "at_half={at_half}");
    }

    #[test]
    fn autocorrelation_too_short_is_none() {
        assert!(autocorrelation(&[1.0, 2.0], 5).is_none());
    }
}
