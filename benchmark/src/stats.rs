//! Order statistics: nearest-rank percentiles, quartiles, and the
//! median-of-slices estimator every timing in the benchmark goes through.

/// How many equal slices a timed region is cut into.
pub const SLICES: usize = 8;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Spread {
    /// Quartiles by linear interpolation between closest ranks.
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            n: v.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a sample (nearest rank); 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

/// Cuts `items` (in arrival order) into equal runs — [`SLICES`] of them,
/// fewer when that would leave a run under `min_per_slice` — takes
/// `stat` inside each, and returns the spread of those per-slice values:
/// the reported figure is the *median slice*, so one disturbed slice
/// cannot move it. `n` is the number of slices used.
pub fn over_slices<T>(items: &[T], min_per_slice: usize, stat: impl Fn(&[T]) -> f64) -> Spread {
    let slices = (items.len() / min_per_slice.max(1)).clamp(1, SLICES);
    let per = (items.len() / slices).max(1);
    let per_slice: Vec<f64> = items.chunks_exact(per).take(slices).map(stat).collect();
    Spread::of(&per_slice)
}

/// Percentile `q` of `samples`, as a median of slices ([`over_slices`]).
pub fn percentile_of_slices(samples: &[f64], q: f64, min_per_slice: usize) -> Spread {
    over_slices(samples, min_per_slice, |chunk| {
        let mut c = chunk.to_vec();
        c.sort_by(f64::total_cmp);
        percentile(&c, q)
    })
}

/// Completions per second in each of [`SLICES`] equal slices of a
/// `wall_ns` window, given each completion's time since its start.
pub fn rate_of_slices(done_ns: impl Iterator<Item = u64>, wall_ns: u64) -> Spread {
    let slice_ns = (wall_ns / SLICES as u64).max(1);
    let mut counts = [0u64; SLICES];
    for t in done_ns {
        if let Some(c) = counts.get_mut((t / slice_ns) as usize) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / (slice_ns as f64 / 1e9))
        .collect();
    Spread::of(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
        assert!((s.relative_iqr() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn median_slice_ignores_one_disturbed_slice() {
        // Eight slices of 100 samples at 10.0; slice 3 is disturbed.
        let mut samples = vec![10.0; 800];
        for s in &mut samples[300..400] {
            *s = 500.0;
        }
        let p99 = percentile_of_slices(&samples, 0.99, 1);
        assert_eq!(p99.median, 10.0);
        assert_eq!(p99.n, SLICES);
        // The pooled p99 would have been dragged to the disturbance.
        let mut pooled = samples.clone();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(percentile(&pooled, 0.99), 500.0);
    }

    #[test]
    fn slices_shrink_to_keep_enough_samples_each() {
        let samples: Vec<f64> = (0..2400).map(f64::from).collect();
        assert_eq!(percentile_of_slices(&samples, 0.99, 500).n, 4);
        assert_eq!(percentile_of_slices(&samples, 0.99, 1).n, SLICES);
        let few = percentile_of_slices(&[3.0, 1.0, 2.0], 0.5, 500);
        assert_eq!((few.median, few.n), (2.0, 1));
        assert_eq!(percentile_of_slices(&[], 0.5, 1).n, 0);
    }

    #[test]
    fn rates_count_completions_per_slice() {
        // 8 s window, 100 completions in every second but the third.
        let done = (0..8u64)
            .filter(|s| *s != 2)
            .flat_map(|s| (0..100u64).map(move |i| s * 1_000_000_000 + i * 1_000_000));
        let r = rate_of_slices(done, 8_000_000_000);
        assert_eq!(r.median, 100.0);
        assert_eq!(r.n, SLICES);
    }
}
