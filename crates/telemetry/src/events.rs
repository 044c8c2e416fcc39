//! Structured event tracing: a bounded ring of recent events plus a span
//! guard that records durations into a histogram on drop.
//!
//! Events are for low-frequency, post-mortem-worthy moments (an incident
//! fired, a spec generation published) — not per-sample noise. The ring
//! keeps the most recent [`DEFAULT_EVENT_CAPACITY`] entries and drops the
//! oldest beyond that, so a long run cannot grow memory without bound.
//! `/debug/events` is the ring's only reader over HTTP; `/metrics.json`
//! carries just [`EventRing::total`], which is read without the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Default number of events retained by the ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the owning registry was created.
    pub at_us: u64,
    /// Short machine-readable kind, e.g. `"incident"` or `"spec_refresh"`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// Bounded ring buffer of recent events.
#[derive(Debug)]
pub(crate) struct EventRing {
    inner: Mutex<RingState>,
    /// Total events ever pushed, including ones the ring has dropped.
    /// Bumped under `inner`'s lock, so a snapshot never holds more events
    /// than it counts; read without it, so a scrape never waits on a push.
    total: AtomicU64,
}

#[derive(Debug)]
struct RingState {
    /// Each event beside its JSON object, rendered once at `push` and
    /// evicted with it: readers share these bytes instead of re-encoding.
    buf: VecDeque<(Event, Arc<str>)>,
    capacity: usize,
}

impl EventRing {
    pub(crate) fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            inner: Mutex::new(RingState {
                buf: VecDeque::with_capacity(capacity),
                capacity,
            }),
            total: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, event: Event) {
        // Encoded before the lock is taken: a reader waits for a push of
        // two pointers, not for an escaper.
        let json = crate::export::event_json(&event);
        let mut state = self.inner.lock();
        if state.buf.len() == state.capacity {
            state.buf.pop_front();
        }
        state.buf.push_back((event, json));
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of retained events, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<Event> {
        let state = self.inner.lock();
        state.buf.iter().map(|(e, _)| e.clone()).collect()
    }

    /// The retained events' JSON objects, oldest first (shared, not copied).
    pub(crate) fn snapshot_json(&self) -> Vec<Arc<str>> {
        let state = self.inner.lock();
        state.buf.iter().map(|(_, json)| Arc::clone(json)).collect()
    }

    /// Total events ever recorded (including evicted ones); lock-free.
    pub(crate) fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &str, n: u64) -> Event {
        Event {
            at_us: n,
            kind: kind.to_string(),
            detail: format!("event {n}"),
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(ev("t", i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].at_us, 2);
        assert_eq!(snap[2].at_us, 4);
        assert_eq!(ring.total(), 5);
    }

    #[test]
    fn encoded_bytes_are_evicted_with_their_event() {
        let ring = EventRing::new(3);
        ring.push(ev("t", 0));
        let first = ring.snapshot_json().remove(0);
        assert_eq!(&*first, r#"{"at_us":0,"kind":"t","detail":"event 0"}"#);
        for i in 1..10 {
            ring.push(ev("t", i));
        }
        assert_eq!(Arc::strong_count(&first), 1, "the ring let go of it");
        let encoded = ring.snapshot_json();
        assert_eq!(encoded.len(), 3);
        for (json, event) in encoded.iter().zip(ring.snapshot()) {
            assert_eq!(*json, crate::export::event_json(&event));
        }
        assert_eq!(ring.snapshot()[0].at_us, 7);
        assert_eq!(ring.total(), 10);
    }

    /// A JSON scrape reads the count without the ring's lock: it finishes
    /// while a push (here, a held guard) is inside the critical section.
    #[test]
    fn json_export_does_not_wait_for_the_ring() {
        let reg = crate::registry::Registry::new();
        reg.events.push(ev("t", 0));
        let held = reg.events.inner.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let reg = &reg;
            s.spawn(move || tx.send(crate::export::json_snapshot(reg)));
            let json = rx.recv_timeout(std::time::Duration::from_secs(5));
            drop(held);
            let json = json.expect("the scrape waited for the ring's lock");
            assert!(json.ends_with(",\"events_total\":1}"), "{json}");
        });
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring = EventRing::new(8);
        assert!(ring.snapshot().is_empty());
        assert!(ring.snapshot_json().is_empty());
        assert_eq!(ring.total(), 0);
    }
}
