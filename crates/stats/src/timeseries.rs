//! Timestamped series with alignment and windowing.
//!
//! The antagonist-correlation analysis of §4.2 pairs the victim's CPI
//! samples with the suspect's CPU-usage samples over a 10-minute window;
//! [`TimeSeries::align`] produces those time-aligned pairs. The agent
//! keeps a task's two as one history of rows (`cpi2_core::History`),
//! which is held by property to a pair of these series.

use serde::{Deserialize, Error, Serialize, Value};

/// A series of `(timestamp_us, value)` points in non-decreasing time order.
///
/// The live points are `points[start..]`. Eviction advances `start` past
/// the expired front and moves nothing; [`TimeSeries::push`] drops the
/// dead prefix only when the vector is full, just before it would grow, so
/// a series evicted as fast as it is pushed keeps one allocation and never
/// holds more capacity than a plain vector of its live points would have
/// reached. Everything outside this type — [`TimeSeries::points`], `len`,
/// serde, `Debug` — sees the live slice alone.
#[derive(Clone, Default)]
pub struct TimeSeries {
    points: Vec<(i64, f64)>,
    /// Index of the first live point.
    start: usize,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Builds a series from points, sorting by timestamp.
    pub fn from_points(mut points: Vec<(i64, f64)>) -> Self {
        points.sort_by_key(|&(t, _)| t);
        TimeSeries { points, start: 0 }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last timestamp.
    // lint: hot-path
    pub fn push(&mut self, t: i64, v: f64) {
        if let Some(&(last, _)) = self.points().last() {
            assert!(t >= last, "TimeSeries::push: non-monotonic timestamp");
        }
        if self.points.len() == self.points.capacity() && self.start > 0 {
            // Full: reclaim the evicted front instead of growing.
            self.points.drain(..self.start);
            self.start = 0;
        }
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// Points the series holds room for before it must compact or grow.
    pub fn capacity(&self) -> usize {
        self.points.capacity()
    }

    /// All points.
    pub fn points(&self) -> &[(i64, f64)] {
        self.points.get(self.start..).unwrap_or(&[])
    }

    /// Values only.
    pub fn values(&self) -> Vec<f64> {
        self.points().iter().map(|&(_, v)| v).collect()
    }

    /// Points with `t ∈ [start, end)`.
    pub fn window(&self, start: i64, end: i64) -> TimeSeries {
        let points = self.points();
        let lo = points.partition_point(|&(t, _)| t < start);
        let hi = points.partition_point(|&(t, _)| t < end);
        // `lo > hi` only when `start > end`; an empty window is the sane
        // answer there, not a slice panic.
        TimeSeries {
            points: points.get(lo..hi).unwrap_or(&[]).to_vec(),
            start: 0,
        }
    }

    /// Drops points older than `cutoff`, keeping the series bounded: the
    /// front advances past them, and nothing else is touched.
    // lint: hot-path
    pub fn evict_before(&mut self, cutoff: i64) {
        while self
            .points
            .get(self.start)
            .is_some_and(|&(t, _)| t < cutoff)
        {
            self.start += 1;
        }
    }

    /// Pairs this series with `other` by matching timestamps within
    /// `tolerance_us`, returning `(self_value, other_value)` pairs.
    ///
    /// Each point matches at most one point of the other series (nearest
    /// neighbour, two-pointer sweep).
    pub fn align(&self, other: &TimeSeries, tolerance_us: i64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.align_into(other, tolerance_us, &mut out);
        out
    }

    /// [`TimeSeries::align`] into `out`, which is cleared first: a caller
    /// aligning one series against many reuses one buffer. At most
    /// `self.len()` pairs come out, so a buffer of that capacity never
    /// grows.
    // lint: hot-path
    pub fn align_into(&self, other: &TimeSeries, tolerance_us: i64, out: &mut Vec<(f64, f64)>) {
        out.clear();
        let other = other.points();
        let Some(mut cur) = other.first().copied() else {
            return;
        };
        let mut j = 0usize;
        for &(t, v) in self.points() {
            // Advance to the nearest candidate (both series are sorted,
            // so the nearest index is non-decreasing in t). Tracking the
            // current point by value keeps the sweep index-free.
            while let Some(&next) = other.get(j + 1) {
                if (next.0 - t).abs() <= (cur.0 - t).abs() {
                    j += 1;
                    cur = next;
                } else {
                    break;
                }
            }
            let (ot, ov) = cur;
            if (ot - t).abs() <= tolerance_us {
                out.push((v, ov));
            }
        }
    }
}

// By hand, so that the dead prefix is invisible: the JSON is the derived
// `{"points":[...]}` of the live points alone, and a restored series
// starts with none.
impl Serialize for TimeSeries {
    fn to_value(&self) -> Value {
        Value::Object(vec![("points".to_string(), self.points().to_value())])
    }
}

impl Deserialize for TimeSeries {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.as_object().is_none() {
            return Err(Error::custom("expected object for TimeSeries"));
        }
        Ok(TimeSeries {
            points: serde::from_field(v, "points")?,
            start: 0,
        })
    }
}

impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("points", &self.points())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_window() {
        let mut s = TimeSeries::new();
        for t in 0..10 {
            s.push(t * 60, t as f64);
        }
        let w = s.window(120, 300);
        assert_eq!(w.len(), 3);
        assert_eq!(w.points()[0], (120, 2.0));
        assert_eq!(w.points()[2], (240, 4.0));
    }

    #[test]
    #[should_panic]
    fn push_rejects_regression() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn from_points_sorts() {
        let s = TimeSeries::from_points(vec![(30, 3.0), (10, 1.0), (20, 2.0)]);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn evict_before_bounds_memory() {
        let mut s = TimeSeries::from_points((0..100).map(|t| (t, t as f64)).collect());
        s.evict_before(90);
        assert_eq!(s.len(), 10);
        assert_eq!(s.points()[0].0, 90);
    }

    #[test]
    fn align_exact_timestamps() {
        let a = TimeSeries::from_points(vec![(0, 1.0), (60, 2.0), (120, 3.0)]);
        let b = TimeSeries::from_points(vec![(0, 10.0), (60, 20.0), (120, 30.0)]);
        let pairs = a.align(&b, 0);
        assert_eq!(pairs, vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]);
    }

    #[test]
    fn align_with_tolerance_and_gaps() {
        let a = TimeSeries::from_points(vec![(0, 1.0), (60, 2.0), (200, 3.0)]);
        let b = TimeSeries::from_points(vec![(5, 10.0), (63, 20.0)]);
        let pairs = a.align(&b, 10);
        assert_eq!(pairs, vec![(1.0, 10.0), (2.0, 20.0)]);
    }

    #[test]
    fn align_into_replaces_what_the_buffer_held() {
        let a = TimeSeries::from_points(vec![(0, 1.0), (60, 2.0), (200, 3.0)]);
        let b = TimeSeries::from_points(vec![(5, 10.0), (63, 20.0)]);
        let mut out = vec![(9.0, 9.0); 5];
        a.align_into(&b, 10, &mut out);
        assert_eq!(out, a.align(&b, 10));
        a.align_into(&TimeSeries::new(), 10, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn align_rejects_beyond_tolerance() {
        let a = TimeSeries::from_points(vec![(0, 1.0)]);
        let b = TimeSeries::from_points(vec![(100, 9.0)]);
        assert!(a.align(&b, 10).is_empty());
    }
}
