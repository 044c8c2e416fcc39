//! Metric cells and the cheap handles components hold onto.
//!
//! A component asks [`crate::Telemetry`] for a handle once (at
//! construction) and then updates through it on the hot path. Handles are
//! `Option<Arc<Cell>>` under the hood: with telemetry disabled the option
//! is `None` and every update is a single branch — no allocation, no
//! atomics, no lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log-spaced histogram buckets. Bucket 0 covers `[0, 1)`;
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i)`; the last bucket saturates.
pub const HIST_BUCKETS: usize = 64;

/// Backing cell of a monotonic counter.
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Backing cell of a gauge (an `f64` stored as bits).
#[derive(Debug)]
pub(crate) struct GaugeCell {
    bits: AtomicU64,
}

impl Default for GaugeCell {
    fn default() -> Self {
        GaugeCell {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl GaugeCell {
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Backing cell of a log-bucketed histogram.
///
/// Updates are lock-free: one atomic add on the bucket and a CAS loop
/// folding the observation into the running sum. The observation count is
/// the buckets' total — the one number [`Histo::count`], the quantiles and
/// both exporters report.
#[derive(Debug)]
pub(crate) struct HistoCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_bits: AtomicU64,
}

impl Default for HistoCell {
    fn default() -> Self {
        HistoCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Index of the log bucket holding `v` (negatives and NaN land in 0,
/// `+∞` in the last bucket).
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 1.0 {
        return 0;
    }
    // `log2(+∞) as usize` saturates at `usize::MAX`: clamp before the add.
    (v.log2().floor() as usize).min(HIST_BUCKETS - 2) + 1
}

impl HistoCell {
    pub(crate) fn record(&self, v: f64) {
        // `bucket_index` clamps to the last bucket, but prove it locally:
        // a histogram write must never be able to panic an agent tick.
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        let add = if v.is_finite() { v } else { 0.0 };
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile readout over the log buckets; `None` while empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let (_, [v]) = self.quantiles(&[q]);
        v
    }

    /// `(observations, quantiles)` from one read of the buckets, so one
    /// scrape's figures agree under a concurrent `record`: p50 ≤ p95 ≤
    /// p99, and — the count being the buckets' total — "no quantiles" ⇔
    /// "count 0".
    // lint: hot-path
    pub(crate) fn quantiles<const N: usize>(&self, qs: &[f64; N]) -> (u64, [Option<f64>; N]) {
        // `(lo, hi, count)` rows for `bucket_quantile`: bucket 0 is
        // `[0, 1)`, bucket `i ≥ 1` is `[2^(i-1), 2^i)`.
        let mut rows = [(0.0, 1.0, 0u64); HIST_BUCKETS];
        let mut total = 0u64;
        let (mut lo, mut hi) = (0.0, 1.0);
        for (row, bucket) in rows.iter_mut().zip(&self.buckets) {
            let n = bucket.load(Ordering::Relaxed);
            *row = (lo, hi, n);
            (lo, hi) = (hi, hi * 2.0);
            total += n;
        }
        let quantiles = qs.map(|q| cpi2_stats::histogram::bucket_quantile(&rows, q));
        (total, quantiles)
    }
}

/// A monotonic counter handle. Clone-cheap; all clones share one cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCell>>);

impl Counter {
    /// Whether updates actually land anywhere.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A gauge handle holding the latest `f64` value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// Whether updates actually land anywhere.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.bits.load(Ordering::Relaxed)))
    }
}

/// A log-bucketed histogram handle with p50/p95/p99 readout.
#[derive(Debug, Clone, Default)]
pub struct Histo(pub(crate) Option<Arc<HistoCell>>);

impl Histo {
    /// Whether updates actually land anywhere. Hot paths use this to skip
    /// even the clock read that would feed [`Histo::record`].
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.record(v);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count())
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.sum())
    }

    /// Quantile readout; `None` while empty (or disabled).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.as_ref().and_then(|c| c.quantile(q))
    }

    /// Starts a wall-clock timer that records elapsed microseconds into
    /// this histogram when stopped or dropped. Free when disabled (the
    /// clock is never read).
    pub fn timer(&self) -> HistTimer {
        HistTimer {
            start: self.0.as_ref().map(|_| Instant::now()),
            histo: self.clone(),
        }
    }
}

/// Guard returned by [`Histo::timer`].
#[derive(Debug)]
pub struct HistTimer {
    start: Option<Instant>,
    histo: Histo,
}

impl HistTimer {
    /// Stops the timer now, recording the elapsed microseconds.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(start) = self.start.take() {
            self.histo.record(start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::default();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.enabled());
        let g = Gauge::default();
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = Histo::default();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        h.timer().stop();
    }

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.99), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.99), 1);
        assert_eq!(bucket_index(2.0), 2);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn infinite_observation_saturates_without_moving_the_sum() {
        let cell = HistoCell::default();
        cell.record(3.0);
        cell.record(f64::INFINITY);
        assert_eq!(cell.count(), 2);
        assert_eq!(cell.sum().to_bits(), 3.0f64.to_bits());
        let (total, [p99]) = cell.quantiles(&[0.99]);
        assert_eq!(total, 2);
        // Filed at the top, not under `< 1`: the tail quantile moves up.
        assert!(p99.unwrap() > 4.0, "p99={p99:?}");
    }

    #[test]
    fn histogram_cell_quantiles() {
        let cell = HistoCell::default();
        for _ in 0..100 {
            cell.record(3.0); // bucket [2, 4)
        }
        assert_eq!(cell.count(), 100);
        assert!((cell.sum() - 300.0).abs() < 1e-9);
        let p50 = cell.quantile(0.5).unwrap();
        assert!((2.0..=4.0).contains(&p50), "p50={p50}");
    }
}
