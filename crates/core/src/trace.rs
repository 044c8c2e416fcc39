//! End-to-end incident tracing: every incident carries a trace ID whose
//! span chain records the full causal path from the first suspicious
//! sample to recovery.
//!
//! The paper's pipeline logs incidents for offline forensics (§5); a
//! resident deployment additionally needs to answer "*why* did CPI² cap
//! that task, and did the victim actually recover?" while the system is
//! running. Each incident therefore gets a deterministic [`TraceId`] and
//! a chain of [`TraceSpan`]s:
//!
//! ```text
//! sample-window → violation → identification → decision
//!                                        └→ amelioration → recovery
//! ```
//!
//! The agent records the detection-side spans as it works
//! ([`crate::Agent::take_trace_spans`]); the deployment harness appends
//! the amelioration span when it actually executes a cap, and the agent
//! closes the chain with a recovery span at the victim's first
//! non-anomalous sample after the incident. Spans carry sim-time
//! microseconds only, so the chain is bit-identical across parallelism
//! levels and with or without an attached control plane.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Deterministic identifier tying an incident to its span chain.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the trace ID for an incident: FNV-1a over the victim
    /// handle and detection timestamp. Stable across runs, parallelism
    /// levels, and checkpoint/restore; zero is reserved for "untraced"
    /// (pre-tracing logs deserialize to it).
    pub fn derive(victim: u64, at_us: i64) -> TraceId {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in victim
            .to_le_bytes()
            .iter()
            .chain(at_us.to_le_bytes().iter())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(PRIME);
        }
        // Reserve 0 for "no trace".
        TraceId(h.max(1))
    }

    /// Parses the canonical 16-hex-digit rendering.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }

    /// Whether this is the reserved "untraced" ID.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The stage of the incident lifecycle a span covers, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceStage {
    /// The victim's sliding sample window accumulating 2σ flags.
    SampleWindow,
    /// The §4.1 anomaly bar was reached (violations within the window).
    Violation,
    /// Correlation / PANDA evidence scoring over co-resident suspects.
    Identification,
    /// The amelioration policy decision (cap target, or why not).
    Decision,
    /// A hard cap actually executed against the antagonist's cgroup.
    Amelioration,
    /// The victim's first non-anomalous sample after the incident.
    Recovery,
}

impl TraceStage {
    /// Stable lowercase name (used in telemetry events and the HTTP API).
    pub fn name(&self) -> &'static str {
        match self {
            TraceStage::SampleWindow => "sample_window",
            TraceStage::Violation => "violation",
            TraceStage::Identification => "identification",
            TraceStage::Decision => "decision",
            TraceStage::Amelioration => "amelioration",
            TraceStage::Recovery => "recovery",
        }
    }

    /// Position in the causal chain (spans sort by this).
    pub fn seq(&self) -> u8 {
        match self {
            TraceStage::SampleWindow => 0,
            TraceStage::Violation => 1,
            TraceStage::Identification => 2,
            TraceStage::Decision => 3,
            TraceStage::Amelioration => 4,
            TraceStage::Recovery => 5,
        }
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One span of an incident's trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Lifecycle stage.
    pub stage: TraceStage,
    /// Span start, sim-time µs.
    pub start_us: i64,
    /// Span end, sim-time µs (== `start_us` for instantaneous stages).
    pub end_us: i64,
    /// Human-readable stage detail (victim, scores, action, …).
    pub detail: String,
}

impl TraceSpan {
    /// One-line rendering used for telemetry trace events.
    pub fn event_line(&self) -> String {
        format!(
            "{} stage={} start={} end={} {}",
            self.trace, self.stage, self.start_us, self.end_us, self.detail
        )
    }
}

/// Bounded, deterministic store of span chains keyed by trace ID.
///
/// Insertion order drives eviction (oldest trace dropped once `cap`
/// distinct traces are held), so the retained set is identical for
/// identical span streams regardless of wall-clock timing.
///
/// A consumer that mirrors the log (the serving snapshot) follows it
/// through a bounded change feed instead of rescanning every retained
/// trace: it keeps the [`recorded`](Self::recorded) count it last saw and
/// asks [`touched_since`](Self::touched_since) which traces grew.
#[derive(Debug, Clone)]
pub struct TraceLog {
    spans: BTreeMap<TraceId, Vec<TraceSpan>>,
    order: VecDeque<TraceId>,
    cap: usize,
    evicted: u64,
    /// Trace of each of the last [`CHANGE_FEED_CAPACITY`] recorded spans.
    touched: VecDeque<TraceId>,
    recorded: u64,
}

/// Default maximum number of distinct traces a [`TraceLog`] retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Recorded spans the change feed reaches back over; a consumer further
/// behind rescans the log.
const CHANGE_FEED_CAPACITY: usize = 1024;

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A log retaining at most `cap` distinct traces.
    pub fn with_capacity(cap: usize) -> TraceLog {
        TraceLog {
            spans: BTreeMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            evicted: 0,
            touched: VecDeque::new(),
            recorded: 0,
        }
    }

    /// Appends a span to its trace's chain, evicting the oldest trace
    /// when the capacity is exceeded. Spans keep arrival order within a
    /// trace (arrival order is causal order for the agent's stream).
    pub fn record(&mut self, span: TraceSpan) {
        let id = span.trace;
        if !self.spans.contains_key(&id) {
            if self.order.len() >= self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.spans.remove(&old);
                    self.evicted += 1;
                }
            }
            self.order.push_back(id);
        }
        // A chain gets a handful of spans in its life and a thousand are
        // kept: grown a span at a time it holds no spare slots, where
        // doubling keeps eight for a complete chain's six.
        let chain = self.spans.entry(id).or_default();
        chain.reserve_exact(1);
        chain.push(span);
        if self.touched.len() == CHANGE_FEED_CAPACITY {
            self.touched.pop_front();
        }
        self.touched.push_back(id);
        self.recorded += 1;
    }

    /// Spans recorded so far: the watermark
    /// [`touched_since`](Self::touched_since) takes.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The trace of every span recorded since the log's
    /// [`recorded`](Self::recorded) count read `mark`, in arrival order
    /// (a trace repeats once per span; evicted ones are included). `None`
    /// when the feed no longer reaches back that far.
    pub fn touched_since(&self, mark: u64) -> Option<impl Iterator<Item = TraceId> + '_> {
        let behind = usize::try_from(self.recorded.checked_sub(mark)?).ok()?;
        let start = self.touched.len().checked_sub(behind)?;
        Some(self.touched.range(start..).copied())
    }

    /// The span chain for a trace, in causal order.
    pub fn get(&self, id: TraceId) -> Option<&[TraceSpan]> {
        self.spans.get(&id).map(Vec::as_slice)
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Traces evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained trace IDs, oldest first.
    pub fn ids(&self) -> impl Iterator<Item = TraceId> + '_ {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: TraceId, stage: TraceStage, at: i64) -> TraceSpan {
        TraceSpan {
            trace,
            stage,
            start_us: at,
            end_us: at,
            detail: String::new(),
        }
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = TraceId::derive(7, 1_000_000);
        let b = TraceId::derive(7, 1_000_000);
        let c = TraceId::derive(8, 1_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_none());
    }

    #[test]
    fn display_parse_round_trip() {
        let id = TraceId::derive(42, 99);
        let s = id.to_string();
        assert_eq!(s.len(), 16);
        assert_eq!(TraceId::parse(&s), Some(id));
        assert_eq!(TraceId::parse("zz"), None);
        assert_eq!(TraceId::parse("00000000000000000"), None);
    }

    #[test]
    fn log_records_in_causal_order_and_evicts_oldest() {
        let mut log = TraceLog::with_capacity(2);
        let t1 = TraceId(1);
        let t2 = TraceId(2);
        let t3 = TraceId(3);
        log.record(span(t1, TraceStage::SampleWindow, 0));
        log.record(span(t1, TraceStage::Violation, 1));
        log.record(span(t2, TraceStage::SampleWindow, 2));
        log.record(span(t3, TraceStage::SampleWindow, 3));
        assert_eq!(log.len(), 2);
        assert_eq!(log.evicted(), 1);
        assert!(log.get(t1).is_none(), "oldest trace evicted");
        assert_eq!(log.get(t3).unwrap().len(), 1);
        let ids: Vec<TraceId> = log.ids().collect();
        assert_eq!(ids, vec![t2, t3]);
    }

    #[test]
    fn change_feed_names_touched_traces_until_it_overflows() {
        let mut log = TraceLog::with_capacity(2);
        fn since(log: &TraceLog, mark: u64) -> Option<Vec<TraceId>> {
            log.touched_since(mark).map(Iterator::collect)
        }
        assert_eq!(since(&log, 0), Some(vec![]));
        log.record(span(TraceId(1), TraceStage::SampleWindow, 0));
        let mark = log.recorded();
        log.record(span(TraceId(2), TraceStage::SampleWindow, 1));
        log.record(span(TraceId(1), TraceStage::Violation, 2));
        log.record(span(TraceId(3), TraceStage::SampleWindow, 3));
        assert_eq!(
            since(&log, mark),
            Some(vec![TraceId(2), TraceId(1), TraceId(3)]),
            "arrival order, evicted trace 1 included"
        );
        assert_eq!(since(&log, log.recorded()), Some(vec![]));
        assert!(log.touched_since(log.recorded() + 1).is_none(), "future");
        for i in 0..CHANGE_FEED_CAPACITY as i64 {
            log.record(span(TraceId(9), TraceStage::Recovery, i));
        }
        assert!(log.touched_since(mark).is_none(), "fell behind the feed");
        let recent = log.recorded() - CHANGE_FEED_CAPACITY as u64;
        assert_eq!(
            log.touched_since(recent).map(Iterator::count),
            Some(CHANGE_FEED_CAPACITY)
        );
    }

    #[test]
    fn stage_seq_matches_causal_order() {
        let stages = [
            TraceStage::SampleWindow,
            TraceStage::Violation,
            TraceStage::Identification,
            TraceStage::Decision,
            TraceStage::Amelioration,
            TraceStage::Recovery,
        ];
        for w in stages.windows(2) {
            assert!(w[0].seq() < w[1].seq());
        }
        assert_eq!(TraceStage::Amelioration.name(), "amelioration");
    }

    #[test]
    fn span_serde_round_trip() {
        let s = span(TraceId::derive(1, 2), TraceStage::Decision, 5);
        let json = serde_json::to_string(&s).unwrap();
        let back: TraceSpan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
