//! Versioned CPI spec store and distribution.
//!
//! §3.1/Fig. 6: "The per-job, per-platform aggregated CPI values are then
//! sent back to each machine that is running a task from that job." The
//! store versions every update so per-machine agents can pull just what
//! changed since their last sync.
//!
//! Publication is one snapshot install: [`SpecStore::publish`] builds the
//! next immutable [`SpecSnapshot`] and installs it under the store's one
//! lock. Readers take that lock only to clone an `Arc` and then read
//! without it — an agent mid-pull never observes a half-applied refresh.
//!
//! Each published spec is one shared `Arc<CpiSpec>`: snapshots, pulls and
//! the agents that install them all point at the one copy.

use cpi2_core::{CpiSpec, JobKey};
use cpi2_telemetry::{Counter, Histo, Telemetry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How many past snapshots the store retains for [`SpecStore::lagged_snapshot`]
/// (fault injection serves reads from a bounded distance behind head).
const SNAPSHOT_HISTORY: usize = 8;

/// A thread-safe, versioned store of CPI specs.
#[derive(Debug, Default)]
pub struct SpecStore {
    /// Held by readers only long enough to clone an `Arc`, by the
    /// publisher while it builds and installs the next snapshot (one
    /// publish per refresh period).
    state: Mutex<Versions>,
    /// Snapshot swaps performed by [`SpecStore::publish`].
    swaps_total: Counter,
    /// Version lag observed by [`SpecStore::changed_since`] callers: how
    /// many publishes a reader was behind when it synced.
    reader_staleness: Histo,
}

#[derive(Debug, Default)]
struct Versions {
    current: Arc<Inner>,
    /// The last [`SNAPSHOT_HISTORY`] installed snapshots, newest last —
    /// the stale views [`SpecStore::lagged_snapshot`] serves.
    history: VecDeque<Arc<Inner>>,
}

/// One stored spec with its distribution metadata.
#[derive(Debug, Clone)]
struct SpecEntry {
    /// Store version this entry was installed at.
    version: u64,
    /// Simulated publish time (µs); `i64::MAX` for untimestamped
    /// publishes, which therefore never look stale to agents.
    published_at_us: i64,
    spec: Arc<CpiSpec>,
}

#[derive(Debug, Default)]
struct Inner {
    version: u64,
    // BTreeMap: `changed_since` iterates the spec set, and the deltas
    // it hands to agents must not depend on hash order.
    specs: BTreeMap<JobKey, SpecEntry>,
}

/// An immutable, lock-free view of the store at one version.
///
/// Cheap to clone (an `Arc` bump); every read against the same snapshot
/// is mutually consistent, no matter how many publishes land in between.
#[derive(Debug, Clone)]
pub struct SpecSnapshot {
    inner: Arc<Inner>,
}

impl SpecSnapshot {
    /// The store version this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// The spec for a key at this snapshot, if any.
    pub fn get(&self, key: &JobKey) -> Option<&CpiSpec> {
        self.inner.specs.get(key).map(|e| &*e.spec)
    }

    /// Number of specs in this snapshot.
    pub fn len(&self) -> usize {
        self.inner.specs.len()
    }

    /// True if the snapshot holds no specs.
    pub fn is_empty(&self) -> bool {
        self.inner.specs.is_empty()
    }

    /// The highest per-entry install version in this snapshot. Coherence
    /// invariant: never exceeds [`SpecSnapshot::version`], at any lag.
    pub fn max_entry_version(&self) -> u64 {
        self.inner
            .specs
            .values()
            .map(|e| e.version)
            .max()
            .unwrap_or(0)
    }

    /// All specs changed after `since_version` in this snapshot, shared,
    /// each with its publish time (µs; `i64::MAX` when the publisher
    /// attached none). Sorted by (jobname, platforminfo) — the spec map's
    /// key order — so sync order is deterministic.
    pub fn changed_since_with_age(&self, since_version: u64) -> Vec<(Arc<CpiSpec>, i64)> {
        self.inner
            .specs
            .values()
            .filter(|e| e.version > since_version)
            .map(|e| (Arc::clone(&e.spec), e.published_at_us))
            .collect()
    }
}

impl SpecStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SpecStore::default()
    }

    /// Attaches telemetry: snapshot-swap counts and reader staleness.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.swaps_total = telemetry.counter("cpi_specstore_swaps_total", &[]);
        self.reader_staleness = telemetry.histogram("cpi_specstore_reader_staleness", &[]);
    }

    /// The current snapshot, for lock-free reading.
    pub fn snapshot(&self) -> SpecSnapshot {
        SpecSnapshot {
            inner: Arc::clone(&self.state.lock().current),
        }
    }

    /// Installs a batch of refreshed specs with no publish timestamp
    /// (entries never look stale to agents). Returns the new version.
    ///
    /// The new spec set becomes visible to readers all at once: snapshots
    /// already handed out keep answering from the old one.
    pub fn publish(&self, specs: Vec<CpiSpec>) -> u64 {
        self.publish_at(specs, i64::MAX)
    }

    /// Installs a batch of refreshed specs stamped with the simulated
    /// publish time `now_us`, bumping the store version. Agents use the
    /// stamp to age their cached copies ([`SpecSnapshot::changed_since_with_age`]).
    /// Returns the new version.
    pub fn publish_at(&self, specs: Vec<CpiSpec>, now_us: i64) -> u64 {
        let mut state = self.state.lock();
        let mut next = Inner {
            version: state.current.version + 1,
            specs: state.current.specs.clone(),
        };
        let v = next.version;
        for s in specs {
            next.specs.insert(
                s.key(),
                SpecEntry {
                    version: v,
                    published_at_us: now_us,
                    spec: Arc::new(s),
                },
            );
        }
        let next = Arc::new(next);
        if state.history.len() == SNAPSHOT_HISTORY {
            state.history.pop_front();
        }
        state.history.push_back(Arc::clone(&next));
        state.current = next;
        self.swaps_total.inc();
        v
    }

    /// Current store version (bumps on every publish).
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// The current spec for a key, if any.
    pub fn get(&self, key: &JobKey) -> Option<CpiSpec> {
        self.snapshot().get(key).cloned()
    }

    /// All specs changed after `since_version`, copied out.
    pub fn changed_since(&self, since_version: u64) -> Vec<CpiSpec> {
        self.changed_since_with_age(since_version)
            .into_iter()
            .map(|(s, _)| CpiSpec::clone(&s))
            .collect()
    }

    /// The delta an agent pulls: every spec changed after `since_version`,
    /// shared, with its publish time so the agent can age it.
    pub fn changed_since_with_age(&self, since_version: u64) -> Vec<(Arc<CpiSpec>, i64)> {
        let snap = self.snapshot();
        self.reader_staleness
            .record(snap.version().saturating_sub(since_version) as f64);
        snap.changed_since_with_age(since_version)
    }

    /// What an agent synced to `since_version` pulls through a replica
    /// `lag` publishes behind head (`lag == 0` reads head): that snapshot's
    /// version and its specs changed after `since_version`, empty when the
    /// agent is not behind. Takes the store lock once. A head read that is
    /// behind records its lag as [`SpecStore::changed_since_with_age`] does.
    pub fn pull(&self, since_version: u64, lag: usize) -> (u64, Vec<(Arc<CpiSpec>, i64)>) {
        let snap = self.lagged_snapshot(lag);
        let version = snap.version();
        if version <= since_version {
            return (version, Vec::new());
        }
        if lag == 0 {
            self.reader_staleness
                .record((version - since_version) as f64);
        }
        (version, snap.changed_since_with_age(since_version))
    }

    /// A snapshot `lag` publishes behind the current one (clamped to the
    /// oldest retained; `lag == 0` is the current snapshot). Fault
    /// injection uses this to model a distribution replica serving stale
    /// state; the returned snapshot is internally coherent either way.
    pub fn lagged_snapshot(&self, lag: usize) -> SpecSnapshot {
        let state = self.state.lock();
        let inner = match state.history.len().checked_sub(lag + 1) {
            Some(idx) => &state.history[idx],
            None => state.history.front().unwrap_or(&state.current),
        };
        SpecSnapshot {
            inner: Arc::clone(inner),
        }
    }

    /// Number of stored specs.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True if the store holds no specs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(job: &str, mean: f64) -> CpiSpec {
        CpiSpec {
            jobname: job.into(),
            platforminfo: "p".into(),
            num_samples: 1000,
            cpu_usage_mean: 1.0,
            cpi_mean: mean,
            cpi_stddev: 0.1,
        }
    }

    #[test]
    fn publish_and_get() {
        let store = SpecStore::new();
        store.publish(vec![spec("a", 1.0), spec("b", 2.0)]);
        let got = store.get(&JobKey::new("a", "p")).unwrap();
        assert_eq!(got.cpi_mean, 1.0);
        assert!(store.get(&JobKey::new("c", "p")).is_none());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn versions_monotonic() {
        let store = SpecStore::new();
        let v1 = store.publish(vec![spec("a", 1.0)]);
        let v2 = store.publish(vec![spec("a", 1.1)]);
        assert!(v2 > v1);
        assert_eq!(store.version(), v2);
    }

    #[test]
    fn changed_since_returns_delta() {
        let store = SpecStore::new();
        let v1 = store.publish(vec![spec("a", 1.0), spec("b", 2.0)]);
        assert_eq!(store.changed_since(0).len(), 2);
        store.publish(vec![spec("b", 2.5)]);
        let delta = store.changed_since(v1);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].jobname, "b");
        assert_eq!(delta[0].cpi_mean, 2.5);
        assert!(store.changed_since(store.version()).is_empty());
    }

    #[test]
    fn changed_since_is_sorted_by_job_then_platform() {
        let on = |job: &str, platform: &str| CpiSpec {
            platforminfo: platform.into(),
            ..spec(job, 1.0)
        };
        let store = SpecStore::new();
        // Two publishes, keys reversed and interleaved over two platforms,
        // plus the pair whose concatenations collide ("ab"+"c" vs "a"+"bc").
        let v1 = store.publish(vec![
            on("zeta", "westmere"),
            on("ab", "c"),
            on("maps", "westmere"),
        ]);
        store.publish(vec![
            on("zeta", "sandybridge"),
            on("a", "bc"),
            on("maps", "sandybridge"),
            on("maps", "westmere"),
        ]);
        let keys = |since: u64| -> Vec<(String, String)> {
            store
                .changed_since_with_age(since)
                .into_iter()
                .map(|(s, _)| (s.jobname.clone(), s.platforminfo.clone()))
                .collect()
        };
        for since in [0, v1] {
            let got = keys(since);
            let mut want = got.clone();
            want.sort();
            assert_eq!(got, want, "since version {since}");
        }
        assert_eq!(keys(0).len(), 6);
        assert_eq!(keys(v1).len(), 4);
    }

    #[test]
    fn concurrent_readers() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<SpecStore>();

        let store = Arc::new(SpecStore::new());
        store.publish((0..100).map(|i| spec(&format!("j{i}"), 1.0)).collect());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        assert!(s.get(&JobKey::new(format!("j{i}"), "p")).is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn snapshot_is_stable_across_publishes() {
        let store = SpecStore::new();
        store.publish(vec![spec("a", 1.0)]);
        let snap = store.snapshot();
        store.publish(vec![spec("a", 9.0), spec("b", 2.0)]);
        // The old snapshot still answers from its own version.
        assert_eq!(snap.get(&JobKey::new("a", "p")).unwrap().cpi_mean, 1.0);
        assert!(snap.get(&JobKey::new("b", "p")).is_none());
        assert_eq!(snap.len(), 1);
        // A fresh snapshot sees the whole new batch at once.
        let snap2 = store.snapshot();
        assert_eq!(snap2.get(&JobKey::new("a", "p")).unwrap().cpi_mean, 9.0);
        assert_eq!(snap2.len(), 2);
        assert!(snap2.version() > snap.version());
    }

    #[test]
    fn publish_at_stamps_entries() {
        let store = SpecStore::new();
        store.publish_at(vec![spec("a", 1.0)], 42);
        let aged = store.changed_since_with_age(0);
        assert_eq!(aged.len(), 1);
        assert_eq!(aged[0].1, 42);
        // Untimestamped publishes carry the never-stale sentinel.
        store.publish(vec![spec("b", 2.0)]);
        let aged = store.changed_since_with_age(0);
        let b = aged.iter().find(|(s, _)| s.jobname == "b").unwrap();
        assert_eq!(b.1, i64::MAX);
        // And "a" keeps its original stamp.
        let a = aged.iter().find(|(s, _)| s.jobname == "a").unwrap();
        assert_eq!(a.1, 42);
    }

    #[test]
    fn lagged_snapshot_serves_history() {
        let store = SpecStore::new();
        let key = JobKey::new("a", "p");
        store.publish_at(vec![spec("a", 1.0)], 1);
        store.publish_at(vec![spec("a", 2.0)], 2);
        store.publish_at(vec![spec("a", 3.0)], 3);
        assert_eq!(store.lagged_snapshot(0).get(&key).unwrap().cpi_mean, 3.0);
        assert_eq!(store.lagged_snapshot(1).get(&key).unwrap().cpi_mean, 2.0);
        assert_eq!(store.lagged_snapshot(2).get(&key).unwrap().cpi_mean, 1.0);
        // Beyond retained history: clamps to the oldest.
        assert_eq!(store.lagged_snapshot(99).get(&key).unwrap().cpi_mean, 1.0);
        // Lagged views are coherent and strictly behind head.
        let lagged = store.lagged_snapshot(1);
        assert!(lagged.max_entry_version() <= lagged.version());
        assert!(lagged.version() < store.version());
    }

    #[test]
    fn pull_reads_head_or_a_lagged_replica() {
        let telemetry = Telemetry::enabled();
        let mut store = SpecStore::new();
        store.set_telemetry(&telemetry);
        store.publish_at(vec![spec("a", 1.0)], 1);
        store.publish_at(vec![spec("b", 2.0)], 2);
        // Head, one publish behind: the newer spec with its stamp.
        let (v, changed) = store.pull(1, 0);
        assert_eq!(v, 2);
        let names: Vec<_> = changed.iter().map(|(s, t)| (&*s.jobname, *t)).collect();
        assert_eq!(names, [("b", 2)]);
        // Up to date: nothing to install, and no staleness recorded.
        assert_eq!(store.pull(2, 0), (2, Vec::new()));
        // A replica one publish behind serves version 1's view.
        let (v, changed) = store.pull(0, 1);
        assert_eq!(v, 1);
        assert_eq!(changed.len(), 1);
        // Only the head read that was behind recorded its lag.
        let text = telemetry.prometheus_text().unwrap();
        assert!(
            text.contains("cpi_specstore_reader_staleness_count 1"),
            "{text}"
        );
    }

    #[test]
    fn lagged_snapshot_on_empty_store() {
        let store = SpecStore::new();
        assert_eq!(store.lagged_snapshot(3).len(), 0);
        assert_eq!(store.lagged_snapshot(0).version(), 0);
    }

    #[test]
    fn readers_never_see_a_torn_batch() {
        // Every publish installs ("x", m) and ("y", m) with the same mean;
        // a reader that could observe mid-publish state would catch them
        // disagreeing.
        let store = Arc::new(SpecStore::new());
        store.publish(vec![spec("x", 0.0), spec("y", 0.0)]);
        let writer = {
            let s = Arc::clone(&store);
            std::thread::spawn(move || {
                for m in 1..200 {
                    s.publish(vec![spec("x", m as f64), spec("y", m as f64)]);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let snap = s.snapshot();
                        let x = snap.get(&JobKey::new("x", "p")).unwrap().cpi_mean;
                        let y = snap.get(&JobKey::new("y", "p")).unwrap().cpi_mean;
                        assert_eq!(x, y, "torn read at version {}", snap.version());
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
