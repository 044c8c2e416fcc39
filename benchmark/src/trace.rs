//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call into a layer in one span: name, start,
//! end, the span that caused it, and the tick or request it belongs to.
//! Every span feeds a per-name aggregate (count, total, child-covered
//! time, log-scale histogram); the first [`MAX_RECORDS`] are also kept
//! whole and written out as JSON lines when the run ends. A disabled
//! tracer never reads the clock, so the same driving loop serves as its
//! own untraced control.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Full span records kept per run (aggregates cover every span).
pub const MAX_RECORDS: usize = 100_000;

/// Histogram sub-buckets per power of two (≈19% resolution).
const SUB: u32 = 4;
const BUCKETS: usize = 64 * SUB as usize;

/// Index of a registered span name.
pub type Name = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Registered name index.
    pub name: Name,
    /// Index of the parent record, if any.
    pub parent: Option<usize>,
    /// Tick or request the span belongs to.
    pub id: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

#[derive(Debug, Clone)]
struct Aggregate {
    count: u64,
    total_ns: u64,
    /// Part of `total_ns` covered by child spans.
    child_ns: u64,
    hist: Vec<u64>,
}

/// What the aggregates say about one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part child spans cover, ns.
    pub self_ns: u64,
    /// Median duration from the histogram, ns.
    pub p50_ns: f64,
    /// 99th percentile from the histogram, ns.
    pub p99_ns: f64,
}

/// A span whose end is not yet known; children name it as their parent.
#[derive(Debug)]
pub struct Open {
    name: Name,
    record: Option<usize>,
    start_ns: u64,
}

/// A root span being cut into back-to-back children: each [`Laps::lap`]
/// ends one child where the next begins, so the children tile the root
/// and the clock is read once per boundary.
#[derive(Debug)]
pub struct Laps {
    root: Open,
    id: u64,
    at: u64,
}

impl Laps {
    /// Records the stretch since the last boundary as a child `name`.
    #[inline]
    pub fn lap(&mut self, tracer: &mut Tracer, name: Name) {
        let now = tracer.now();
        tracer.child(&self.root, name, self.id, self.at, now);
        self.at = now;
    }

    /// Moves the boundary to now, leaving the stretch under no child.
    #[inline]
    pub fn skip(&mut self, tracer: &Tracer) {
        self.at = tracer.now();
    }

    /// Closes the root.
    #[inline]
    pub fn close(self, tracer: &mut Tracer) {
        tracer.close(self.root);
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    aggregates: Vec<Aggregate>,
    records: Vec<SpanRecord>,
}

fn bucket_of(ns: u64) -> usize {
    if ns < u64::from(SUB) {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros();
    let frac = (ns >> (top - 2)) & u64::from(SUB - 1);
    (top * SUB) as usize + frac as usize
}

/// Midpoint of a histogram bucket, ns.
fn bucket_mid(bucket: usize) -> f64 {
    // Buckets below 2·SUB hold the exact values 0..SUB (the rest unused).
    if bucket < 2 * SUB as usize {
        return bucket as f64;
    }
    let top = (bucket as u32) / SUB;
    let frac = (bucket as u32) % SUB;
    let lo = (1u64 << top) + (u64::from(frac) << (top - 2));
    lo as f64 + (1u64 << (top - 2)) as f64 / 2.0
}

impl Tracer {
    /// A tracer that records (`on`) or one whose every call is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            aggregates: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Registers a span name (idempotent) and returns its index.
    pub fn register(&mut self, name: &'static str) -> Name {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i;
        }
        self.names.push(name);
        self.aggregates.push(Aggregate {
            count: 0,
            total_ns: 0,
            child_ns: 0,
            hist: vec![0; BUCKETS],
        });
        self.names.len() - 1
    }

    /// Nanoseconds since the epoch; 0 (and no clock read) when off.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a root span for tick/request `id`.
    #[inline]
    pub fn open(&mut self, name: Name, id: u64) -> Open {
        let start_ns = self.now();
        let record = (self.on && self.records.len() < MAX_RECORDS).then(|| {
            self.records.push(SpanRecord {
                name,
                parent: None,
                id,
                start_ns,
                end_ns: start_ns,
            });
            self.records.len() - 1
        });
        Open {
            name,
            record,
            start_ns,
        }
    }

    /// Opens a root span for tick/request `id` to be cut into laps.
    #[inline]
    pub fn laps(&mut self, name: Name, id: u64) -> Laps {
        let root = self.open(name, id);
        Laps {
            at: root.start_ns,
            root,
            id,
        }
    }

    /// Records a finished child span of `parent`.
    #[inline]
    pub fn child(&mut self, parent: &Open, name: Name, id: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let dur = end_ns.saturating_sub(start_ns);
        self.aggregates[parent.name].child_ns += dur;
        self.add(name, dur);
        if parent.record.is_some() && self.records.len() < MAX_RECORDS {
            self.records.push(SpanRecord {
                name,
                parent: parent.record,
                id,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a finished span that has no parent (timestamps are the
    /// caller's, on any common clock).
    pub fn span(&mut self, name: Name, id: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        self.add(name, end_ns.saturating_sub(start_ns));
        if self.records.len() < MAX_RECORDS {
            self.records.push(SpanRecord {
                name,
                parent: None,
                id,
                start_ns,
                end_ns,
            });
        }
    }

    /// Closes a root span at the current time; returns that time.
    #[inline]
    pub fn close(&mut self, open: Open) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now();
        self.add(open.name, end_ns.saturating_sub(open.start_ns));
        if let Some(i) = open.record {
            self.records[i].end_ns = end_ns;
        }
        end_ns
    }

    #[inline]
    fn add(&mut self, name: Name, dur: u64) {
        let a = &mut self.aggregates[name];
        a.count += 1;
        a.total_ns += dur;
        a.hist[bucket_of(dur)] += 1;
    }

    /// The aggregate of one name (zeros if it never fired).
    pub fn summary(&self, name: Name) -> NameSummary {
        let a = &self.aggregates[name];
        let quantile = |q: f64| -> f64 {
            let rank = (q * a.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (b, &n) in a.hist.iter().enumerate() {
                seen += n;
                if n > 0 && seen >= rank {
                    return bucket_mid(b);
                }
            }
            0.0
        };
        NameSummary {
            name: self.names[name],
            count: a.count,
            total_ns: a.total_ns,
            self_ns: a.total_ns.saturating_sub(a.child_ns),
            p50_ns: if a.count == 0 { 0.0 } else { quantile(0.5) },
            p99_ns: if a.count == 0 { 0.0 } else { quantile(0.99) },
        }
    }

    /// Summaries of every registered name, registration order.
    pub fn summaries(&self) -> Vec<NameSummary> {
        (0..self.names.len()).map(|n| self.summary(n)).collect()
    }

    /// The full records kept (at most [`MAX_RECORDS`]).
    #[cfg(test)]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Writes the kept records as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                self.names[r.name], r.id, r.start_ns, r.end_ns, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.register("root");
        let leaf = t.register("leaf");
        assert_eq!(t.register("root"), root);
        let open = t.open(root, 7);
        t.child(&open, leaf, 7, 100, 400);
        t.child(&open, leaf, 7, 400, 500);
        t.close(open);
        let s = t.summary(leaf);
        assert_eq!((s.count, s.total_ns, s.self_ns), (2, 400, 400));
        let r = t.summary(root);
        assert_eq!(r.count, 1);
        assert_eq!(r.self_ns, r.total_ns.saturating_sub(400));
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.records()[1].parent, Some(0));
        assert_eq!(t.records()[1].id, 7);
    }

    #[test]
    fn laps_tile_their_root() {
        let mut t = Tracer::new(true);
        let root = t.register("root");
        let (a, b) = (t.register("a"), t.register("b"));
        let mut laps = t.laps(root, 3);
        laps.lap(&mut t, a);
        laps.skip(&t);
        laps.lap(&mut t, b);
        laps.close(&mut t);
        let r = t.records();
        assert_eq!(r.len(), 3);
        assert_eq!(r[1].start_ns, r[0].start_ns);
        assert!(r[2].start_ns >= r[1].end_ns && r[2].end_ns <= r[0].end_ns);
        assert!(r.iter().all(|x| x.id == 3));
        assert_eq!((r[1].parent, r[2].parent), (Some(0), Some(0)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.register("root");
        let open = t.open(root, 1);
        assert_eq!(t.now(), 0);
        t.child(&open, root, 1, 0, 10);
        t.close(open);
        assert_eq!(t.summary(root).count, 0);
        assert!(t.records().is_empty());
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let mut t = Tracer::new(true);
        let n = t.register("n");
        let open = t.open(n, 0);
        for i in 0..1000u64 {
            let dur = if i < 985 { 1_000 } else { 64_000 };
            t.child(&open, n, i, 0, dur);
        }
        let s = t.summary(n);
        assert!((s.p50_ns / 1_000.0 - 1.0).abs() < 0.25, "{}", s.p50_ns);
        assert!((s.p99_ns / 64_000.0 - 1.0).abs() < 0.25, "{}", s.p99_ns);
        for ns in [0u64, 1, 3, 4, 5, 1023, 1024, u64::MAX] {
            assert!(bucket_of(ns) < BUCKETS);
        }
    }
}
