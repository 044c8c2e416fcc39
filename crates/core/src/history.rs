//! A task's sample history: one `(t, cpi, usage)` row per sample.
//!
//! §4.2 pairs a victim's CPI with each suspect's CPU usage over the
//! trailing correlation window, so the agent keeps both for every task.
//! They arrive together, one sample at a time, so they are kept as one
//! series of rows: each timestamp is stored once, one push and one
//! eviction serve both, and detection reads either as a borrowed
//! [`Column`] of it. Its reference is a plain `Vec` of rows
//! (`history_matches_a_plain_vector_of_rows` in the property tests).

use serde::{Error, Serialize, Value};

/// One sample's part of a history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Row {
    /// Sample timestamp, µs.
    t: i64,
    /// The sample's CPI.
    cpi: f64,
    /// The sample's CPU usage, CPU-sec/sec.
    usage: f64,
}

/// Rows in non-decreasing time order.
///
/// The live rows are `rows[start..]`. Eviction advances `start` past the
/// expired front and moves nothing. [`History::push`] into a full vector
/// reclaims the dead prefix once it is an eighth of the rows, and
/// otherwise grows by an eighth (at least four rows), so a history
/// evicted as fast as it is pushed keeps one allocation a few rows larger
/// than its window, and capacity never exceeds `max(4, 2 × peak live)`.
/// Everything outside this type — the columns, `len`, serde — sees the
/// live rows alone.
#[derive(Clone, Default, PartialEq)]
pub struct History {
    rows: Vec<Row>,
    /// Index of the first live row.
    start: usize,
}

/// Which value of a row a [`Column`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Cpi,
    Usage,
}

/// One value of each row of a run of rows, with its timestamp: a
/// borrowed single-value series.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    rows: &'a [Row],
    field: Field,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last timestamp.
    // lint: hot-path
    pub fn push(&mut self, t: i64, cpi: f64, usage: f64) {
        if let Some(last) = self.last_t() {
            assert!(t >= last, "History::push: non-monotonic timestamp");
        }
        let len = self.rows.len();
        if len == self.rows.capacity() {
            if self.start > 0 && self.start >= len / 8 {
                // Reclaim the evicted front instead of growing.
                self.rows.drain(..self.start);
                self.start = 0;
            } else {
                // An eighth more, at least four rows, but at most as many
                // as it holds (two when it holds fewer): capacity stays
                // within max(4, 2 × peak live).
                self.rows.reserve_exact((len / 8).max(4).min(len.max(2)));
            }
        }
        self.rows.push(Row { t, cpi, usage });
    }

    /// Drops rows older than `cutoff`: the front advances past them, and
    /// nothing else is touched.
    // lint: hot-path
    pub fn evict_before(&mut self, cutoff: i64) {
        while self.rows.get(self.start).is_some_and(|r| r.t < cutoff) {
            self.start += 1;
        }
    }

    /// The live rows.
    fn rows(&self) -> &[Row] {
        self.rows.get(self.start..).unwrap_or(&[])
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// True if no row is live.
    pub fn is_empty(&self) -> bool {
        self.rows().is_empty()
    }

    /// Rows the history holds room for before it must compact or grow.
    pub fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// The newest timestamp, if any.
    pub fn last_t(&self) -> Option<i64> {
        self.rows().last().map(|r| r.t)
    }

    /// The CPI of every live row.
    pub fn cpi(&self) -> Column<'_> {
        Column {
            rows: self.rows(),
            field: Field::Cpi,
        }
    }

    /// The CPU usage of every live row.
    pub fn usage(&self) -> Column<'_> {
        Column {
            rows: self.rows(),
            field: Field::Usage,
        }
    }

    /// Rebuilds a history from its two columns' JSON, as [`Column`]
    /// writes them: `[t, value]` pairs with equal timestamps, in
    /// non-decreasing time order.
    ///
    /// # Errors
    ///
    /// Fails when either is not a list of `[t, value]` pairs, or the two
    /// disagree on their timestamps or are out of order.
    pub fn from_column_values(cpi: &Value, usage: &Value) -> Result<History, Error> {
        let pairs =
            |v: &Value| -> Result<Vec<(i64, f64)>, Error> { serde::from_field(v, "points") };
        let (cpi, usage) = (pairs(cpi)?, pairs(usage)?);
        if cpi.len() != usage.len() {
            return Err(Error::custom("cpi and usage histories differ in length"));
        }
        let rows: Vec<Row> = cpi
            .iter()
            .zip(&usage)
            .map(|(&(t, cpi), &(tu, usage))| {
                (t == tu)
                    .then_some(Row { t, cpi, usage })
                    .ok_or_else(|| Error::custom("cpi and usage histories differ in time"))
            })
            .collect::<Result<_, _>>()?;
        if rows.windows(2).any(|w| matches!(w, [a, b] if b.t < a.t)) {
            return Err(Error::custom("history out of time order"));
        }
        Ok(History { rows, start: 0 })
    }
}

impl std::fmt::Debug for History {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("History")
            .field("rows", &self.rows())
            .finish()
    }
}

impl<'a> Column<'a> {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the column has no points.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(t, value)` point of row `r`.
    fn point(&self, r: &Row) -> (i64, f64) {
        match self.field {
            Field::Cpi => (r.t, r.cpi),
            Field::Usage => (r.t, r.usage),
        }
    }

    /// The points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (i64, f64)> + 'a {
        let this = *self;
        self.rows.iter().map(move |r| this.point(r))
    }

    /// Points with `t ∈ [start, end)`, borrowed.
    pub fn window(&self, start: i64, end: i64) -> Column<'a> {
        let lo = self.rows.partition_point(|r| r.t < start);
        let hi = self.rows.partition_point(|r| r.t < end);
        // `lo > hi` only when `start > end`; an empty window is the sane
        // answer there, not a slice panic.
        Column {
            rows: self.rows.get(lo..hi).unwrap_or(&[]),
            field: self.field,
        }
    }

    /// Pairs this column with `other` by matching timestamps within
    /// `tolerance_us`, returning `(self_value, other_value)` pairs.
    ///
    /// Each point matches at most one point of the other column (nearest
    /// neighbour, two-pointer sweep).
    pub fn align(&self, other: Column<'_>, tolerance_us: i64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.align_into(other, tolerance_us, &mut out);
        out
    }

    /// [`Column::align`] into `out`, which is cleared first: a caller
    /// aligning one column against many reuses one buffer. At most
    /// `self.len()` pairs come out, so a buffer of that capacity never
    /// grows.
    // lint: hot-path
    pub fn align_into(&self, other: Column<'_>, tolerance_us: i64, out: &mut Vec<(f64, f64)>) {
        out.clear();
        let Some(first) = other.rows.first() else {
            return;
        };
        let mut cur = other.point(first);
        let mut j = 0usize;
        for r in self.rows {
            let (t, v) = self.point(r);
            // Advance to the nearest candidate (both columns are sorted,
            // so the nearest index is non-decreasing in t). Tracking the
            // current point by value keeps the sweep index-free.
            while let Some(next) = other.rows.get(j + 1) {
                let next = other.point(next);
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

// As a single-value series writes itself: `{"points":[[t, value], …]}`.
impl Serialize for Column<'_> {
    fn to_value(&self) -> Value {
        let points = self
            .points()
            .map(|(t, v)| Value::Array(vec![t.to_value(), v.to_value()]));
        Value::Object(vec![("points".to_string(), Value::Array(points.collect()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(rows: &[(i64, f64, f64)]) -> History {
        let mut h = History::new();
        for &(t, cpi, usage) in rows {
            h.push(t, cpi, usage);
        }
        h
    }

    #[test]
    fn push_window_and_columns() {
        let h = history(
            &(0..10)
                .map(|t| (t * 60, t as f64, -t as f64))
                .collect::<Vec<_>>(),
        );
        let w = h.cpi().window(120, 300);
        assert_eq!(
            w.points().collect::<Vec<_>>(),
            [(120, 2.0), (180, 3.0), (240, 4.0)]
        );
        let w = h.usage().window(120, 300);
        assert_eq!(
            w.points().collect::<Vec<_>>(),
            [(120, -2.0), (180, -3.0), (240, -4.0)]
        );
        assert!(h.cpi().window(300, 120).is_empty());
    }

    #[test]
    #[should_panic]
    fn push_rejects_regression() {
        history(&[(10, 1.0, 1.0), (5, 2.0, 2.0)]);
    }

    #[test]
    fn a_bounded_history_keeps_a_few_rows_beyond_its_window() {
        // Two 10-minute windows of one-minute rows: 21 live, 24 held, and
        // never more than twice the 22 live between a push and its
        // eviction.
        let mut h = History::new();
        for m in 0..200 {
            h.push(m, 1.0, 1.0);
            h.evict_before(m - 20);
            assert!(h.capacity() <= 2 * 22, "minute {m}");
        }
        assert_eq!(h.len(), 21);
        assert_eq!(h.capacity(), 24);
        assert_eq!(h.rows().first().map(|r| r.t), Some(179));
    }

    #[test]
    fn align_with_tolerance_and_gaps() {
        let a = history(&[(0, 1.0, 0.0), (60, 2.0, 0.0), (200, 3.0, 0.0)]);
        let b = history(&[(5, 0.0, 10.0), (63, 0.0, 20.0)]);
        assert_eq!(a.cpi().align(b.usage(), 10), [(1.0, 10.0), (2.0, 20.0)]);
        let mut out = vec![(9.0, 9.0); 5];
        a.cpi().align_into(History::new().usage(), 10, &mut out);
        assert!(out.is_empty());
        assert!(a.cpi().align(b.usage(), 1).is_empty());
    }

    #[test]
    fn columns_round_trip_through_their_json() {
        let mut h = history(&[(0, 1.0, 0.5), (60, 3.0, 6.0), (120, 1.0, 0.0)]);
        h.evict_before(60);
        assert_eq!(
            serde_json::to_string(&h.cpi()).unwrap(),
            r#"{"points":[[60,3.0],[120,1.0]]}"#
        );
        let (cpi, usage) = (h.cpi().to_value(), h.usage().to_value());
        let back = History::from_column_values(&cpi, &usage).unwrap();
        assert_eq!(back.rows(), h.rows());
        assert!(History::from_column_values(&cpi, &cpi).is_ok());
        let other = history(&[(0, 1.0, 1.0)]).cpi().to_value();
        assert!(History::from_column_values(&cpi, &other).is_err());
        let shifted = history(&[(61, 1.0, 1.0), (120, 1.0, 1.0)])
            .usage()
            .to_value();
        assert!(History::from_column_values(&cpi, &shifted).is_err());
    }
}
