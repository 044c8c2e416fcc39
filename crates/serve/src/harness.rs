//! [`ServeHarness`]: the resident deployment — a [`Cpi2Harness`] ticking
//! continuously while the HTTP server reads torn-free snapshots.
//!
//! Serving never perturbs the simulation: after every tick the harness
//! publishes immutable state for the handlers, and operator actions
//! posted over HTTP are drained **at the next tick start**, in FIFO
//! acceptance order — the one deterministic injection point. A run with
//! a server attached (and no actions posted) is therefore bit-identical
//! to the same seed with no server at all; the determinism suite proves
//! it under 32 concurrent clients.
//!
//! # Publishing
//!
//! The harness owns the one persistent [`LiveSnapshot`] and, after every
//! tick, brings it up to that tick and publishes a clone. Machine rows
//! are plain values, exact every tick: all of them are rebuilt in one
//! pass into one allocation, a cost linear in the fleet but with no
//! reference count per machine. A machine's task list is rebuilt only
//! when its tasks or their thread counts differ from the published list;
//! appended incidents and samples, republished specs and the traces the
//! [`TraceLog`] change feed names are edited into
//! [`Chunked`] tails, which copy the chunks an
//! edit writes to and share the rest with the snapshots readers still
//! hold (see [`state`](crate::state)). Readers never rebuild anything,
//! so this is all the work there is: the rows, plus what changed.
//!
//! This module (with [`server`] and
//! [`eventloop`](crate::eventloop)) is the crate's only sanctioned home
//! for wall clocks and `thread::spawn` — wall time here only *paces*
//! ticks and *measures* publish cost, it never feeds sim state.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpi2::core::{CpiSpec, TraceId, TraceLog};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{JobId, SimDuration, TaskId};
use cpi2::telemetry::{Counter, Histo};

use crate::chunked::Chunked;
use crate::routes::Router;
use crate::server::{self, Handler, ServerConfig, ServerHandle};
use crate::state::{
    EncodedIncident, IncidentView, LiveSnapshot, MachineRow, OperatorAction, SharedState, TaskView,
    TraceView, INCIDENT_TAIL, SAMPLE_TAIL,
};

/// The kinds `cpi_serve_publish_changed_total` is labelled with, in the
/// order [`ServeHarness::publish`] counts them.
const CHANGED_KINDS: [&str; 5] = ["machines", "incidents", "samples", "specs", "traces"];

/// The resident CPI² deployment: harness + snapshot publisher + action
/// sink + (optionally) an attached HTTP server.
pub struct ServeHarness {
    inner: Cpi2Harness,
    state: Arc<SharedState>,
    ticks: u64,
    server: Option<ServerHandle>,
    /// The snapshot as last published; each tick edits what changed.
    view: LiveSnapshot,
    /// Machines whose task list a publish found out of date (scratch).
    stale_lists: Vec<usize>,
    /// Incidents already published (watermark into `inner.incidents()`,
    /// which holds nothing older than the last publish's tail).
    incidents_seen: usize,
    /// `TraceLog::recorded()` and `evicted()` as of the last publish.
    trace_cursor: TraceCursor,
    /// Publish cost distribution, µs (wall time; measurement only).
    publish_histo: Histo,
    publish_count: u64,
    /// Summed in ns: µs per publish would drop up to 1 µs each time.
    publish_ns_total: u64,
    /// Elements replaced or appended, per [`CHANGED_KINDS`] entry.
    changed: [Counter; 5],
}

impl ServeHarness {
    /// Wraps a harness; sample retention is turned on so snapshots can
    /// carry a recent-sample tail.
    pub fn new(mut inner: Cpi2Harness) -> ServeHarness {
        inner.record_samples = true;
        let telemetry = inner.telemetry().clone();
        let mut sh = ServeHarness {
            state: SharedState::new(telemetry.clone()),
            inner,
            ticks: 0,
            server: None,
            view: LiveSnapshot::default(),
            stale_lists: Vec::new(),
            incidents_seen: 0,
            trace_cursor: TraceCursor::default(),
            publish_histo: telemetry.histogram("cpi_serve_publish_us", &[]),
            publish_count: 0,
            publish_ns_total: 0,
            changed: CHANGED_KINDS.map(|kind| {
                telemetry.counter("cpi_serve_publish_changed_total", &[("kind", kind)])
            }),
        };
        sh.publish();
        sh
    }

    /// `(publishes, total µs)` spent building/publishing snapshots in
    /// [`tick`](Self::tick) so far — the tick-thread cost the load
    /// benchmark pins down.
    pub fn publish_stats(&self) -> (u64, u64) {
        (self.publish_count, self.publish_ns_total / 1_000)
    }

    /// The state shared with the HTTP router (for tests that drive the
    /// router without a socket).
    pub fn state(&self) -> Arc<SharedState> {
        Arc::clone(&self.state)
    }

    /// Read access to the wrapped harness.
    pub fn inner(&self) -> &Cpi2Harness {
        &self.inner
    }

    /// Mutable access to the wrapped harness, for embedding binaries
    /// that adjust it between ticks (e.g. a forced spec refresh).
    /// Unlike queued operator actions this applies immediately, so only
    /// touch it from the thread driving [`tick`](Self::tick).
    pub fn inner_mut(&mut self) -> &mut Cpi2Harness {
        &mut self.inner
    }

    /// Unwraps the harness (shutting the server down first if attached).
    pub fn into_inner(mut self) -> Cpi2Harness {
        self.shutdown_server();
        self.inner
    }

    /// One tick: apply queued operator actions, step the system, publish.
    pub fn tick(&mut self) {
        self.apply_actions();
        self.inner.step();
        self.ticks += 1;
        let started = Instant::now();
        self.publish();
        self.account_publish(started.elapsed());
    }

    /// Adds one publish's wall time to `publish_stats` and
    /// `cpi_serve_publish_us`.
    fn account_publish(&mut self, spent: Duration) {
        let ns = u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX);
        self.publish_histo.record(ns as f64 / 1e3);
        self.publish_count += 1;
        self.publish_ns_total = self.publish_ns_total.saturating_add(ns);
    }

    /// Runs for a sim duration (whole ticks), as fast as possible.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.inner.cluster.now() + duration;
        while self.inner.cluster.now() < end {
            self.tick();
        }
    }

    /// Attaches an HTTP server at `addr` serving this harness's state.
    /// Returns the bound address (useful with a `:0` port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(&mut self, addr: &str, cfg: ServerConfig) -> io::Result<SocketAddr> {
        self.serve_with_token(addr, cfg, None)
    }

    /// Like [`serve`](Self::serve), with a shared-secret token required
    /// (constant-time compared) on mutating endpoints.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_with_token(
        &mut self,
        addr: &str,
        cfg: ServerConfig,
        auth_token: Option<String>,
    ) -> io::Result<SocketAddr> {
        let router = Router::new(self.state()).with_auth_token(auth_token);
        let handler: Handler = Arc::new(move |req| router.handle(req));
        let handle = server::start(addr, cfg, self.inner.telemetry(), handler)?;
        let bound = handle.addr();
        self.server = Some(handle);
        Ok(bound)
    }

    /// Stops the attached HTTP server, if any.
    pub fn shutdown_server(&mut self) {
        if let Some(h) = self.server.take() {
            h.shutdown();
        }
    }

    /// Resident mode: tick forever (or for `total` sim time when given),
    /// pacing each tick by `pace_ms` of wall time (0 = free-running).
    /// Wall time only paces the loop — it never feeds sim state. Used by
    /// the `cpi2-serve` binary after [`serve`](Self::serve).
    pub fn run_paced(&mut self, pace_ms: u64, total: Option<SimDuration>) {
        let end = total.map(|d| self.inner.cluster.now() + d);
        loop {
            if let Some(end) = end {
                if self.inner.cluster.now() >= end {
                    break;
                }
            }
            self.tick();
            if pace_ms > 0 {
                std::thread::sleep(Duration::from_millis(pace_ms));
            }
        }
    }

    /// Ticks executed through this harness.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Drains the action queue and applies each action against the
    /// cluster, FIFO. Outcomes are recorded as `operator` telemetry
    /// events (visible at `/debug/events`).
    fn apply_actions(&mut self) {
        for action in self.state.actions.drain() {
            let outcome = match action {
                OperatorAction::Cap {
                    job,
                    index,
                    rate,
                    duration_us,
                } => {
                    let task = TaskId {
                        job: JobId(job),
                        index,
                    };
                    let ok = self
                        .inner
                        .operator_cap(task, rate, SimDuration(duration_us));
                    format!("cap job={job} index={index} rate={rate} ok={ok}")
                }
                OperatorAction::Uncap { job, index } => {
                    let task = TaskId {
                        job: JobId(job),
                        index,
                    };
                    let ok = self.inner.cluster.remove_hard_cap(task);
                    format!("uncap job={job} index={index} ok={ok}")
                }
                OperatorAction::KillRestart { job, index } => {
                    let task = TaskId {
                        job: JobId(job),
                        index,
                    };
                    let moved = self.inner.operator_migrate(task);
                    format!("kill-restart job={job} index={index} moved_to={moved:?}")
                }
                OperatorAction::SetProtection(on) => {
                    self.inner.set_protection_enabled(on);
                    format!("protection enabled={on}")
                }
            };
            self.inner.telemetry().event("operator", || outcome.clone());
        }
    }

    /// Brings the persistent snapshot up to the wrapped harness's state
    /// and publishes it, taking the samples the harness recorded since.
    /// [`tick`](Self::tick) calls it after every step; after changing the
    /// harness through [`inner_mut`](Self::inner_mut), call it to serve
    /// the change before the next tick.
    pub fn publish(&mut self) {
        let machines = self.sync_machines();
        let specs = self.sync_specs();
        let logged = self.inner.incidents();
        let unseen = self
            .incidents_seen
            .max(logged.len().saturating_sub(INCIDENT_TAIL));
        let incidents = push_tail(
            &mut self.view.incidents,
            logged
                .get(unseen..)
                .unwrap_or(&[])
                .iter()
                .map(|mi| Arc::new(EncodedIncident::new(IncidentView::of(mi)))),
            INCIDENT_TAIL,
        );
        // Nothing serves an incident older than the tail, so the wrapped
        // log keeps no more: a daemon's memory does not grow with uptime.
        self.inner.forget_incidents_beyond(INCIDENT_TAIL);
        self.incidents_seen = self.inner.incidents().len();
        let samples = push_tail(
            &mut self.view.samples,
            std::mem::take(&mut self.inner.samples).into_iter(),
            SAMPLE_TAIL,
        );
        let traces = sync_traces(
            &mut self.view.traces,
            self.inner.trace_log(),
            &mut self.trace_cursor,
        );
        let changed = [machines, incidents, samples, specs, traces];
        for (counter, n) in self.changed.iter().zip(changed) {
            counter.add(n as u64);
        }
        let cluster = &self.inner.cluster;
        self.view.now_us = cluster.now().as_us();
        self.view.tick_us = cluster.tick_len().as_us();
        self.view.ticks = self.ticks;
        self.view.protection_enabled = self.inner.protection_enabled();
        self.view.caps_applied = self.inner.caps_applied();
        self.view.collector_dropped = self.inner.collector_dropped();
        self.state.live.publish(self.view.clone());
    }

    /// Rebuilds every machine row, exact, in one allocation, and the task
    /// lists that differ from the published ones; returns how many lists.
    fn sync_machines(&mut self) -> usize {
        let machines = self.inner.cluster.machines();
        let stale = &mut self.stale_lists;
        self.view.machines = {
            let mut held = self.view.task_lists.iter();
            let rows = machines.iter().enumerate().map(|(i, m)| {
                if !held.next().is_some_and(|l| TaskView::is_current(l, m)) {
                    stale.push(i);
                }
                MachineRow::of(m)
            });
            rows.collect()
        };
        let lists = &mut self.view.task_lists;
        for &i in stale.iter() {
            let Some(m) = machines.get(i) else { continue };
            let list = TaskView::list(m);
            if i < lists.len() {
                lists.set(i, list);
            } else {
                lists.push(list);
            }
        }
        let rebuilt = stale.len();
        stale.clear();
        rebuilt
    }

    /// Merges specs republished since the last publish into the
    /// (job, platform)-ordered set; returns how many.
    fn sync_specs(&mut self) -> usize {
        let store = self.inner.spec_store.snapshot();
        if store.version() == self.view.spec_version {
            return 0;
        }
        let republished = store.changed_since_with_age(self.view.spec_version);
        self.view.spec_version = store.version();
        let specs = Arc::make_mut(&mut self.view.specs);
        let n = republished.len();
        for (spec, _published_at) in republished {
            match specs.binary_search_by(|held| spec_key(held).cmp(&spec_key(&spec))) {
                Ok(i) => {
                    if let Some(slot) = specs.get_mut(i) {
                        *slot = Arc::new(spec);
                    }
                }
                Err(i) => specs.insert(i, Arc::new(spec)),
            }
        }
        n
    }
}

/// The spec store's order: (job, platform).
fn spec_key(s: &CpiSpec) -> (&str, &str) {
    (&s.jobname, &s.platforminfo)
}

/// Appends `new` to a bounded tail, dropping the oldest beyond `cap`;
/// returns how many were appended. With nothing to append the tail is
/// not touched and stays shared with every published snapshot.
fn push_tail<T: Clone>(
    tail: &mut Chunked<T>,
    new: impl ExactSizeIterator<Item = T>,
    cap: usize,
) -> usize {
    let n = new.len();
    tail.extend(new.skip(n.saturating_sub(cap)));
    tail.drop_front(tail.len().saturating_sub(cap));
    n
}

/// Where the publisher last left a [`TraceLog`].
#[derive(Debug, Clone, Copy, Default)]
struct TraceCursor {
    recorded: u64,
    evicted: u64,
}

/// Makes `traces` mirror `log` — the retained traces, `log.ids()` order —
/// given that it did when `cursor` was taken; returns how many views
/// were built. The log evicts from the front and inserts at the back, so
/// the evicted count says how many to drop, the tail of `log.ids()` is
/// what is new, and the change feed names the survivors that grew. Only
/// a consumer that fell behind the feed rebuilds every view.
fn sync_traces(
    traces: &mut Chunked<Arc<TraceView>>,
    log: &TraceLog,
    cursor: &mut TraceCursor,
) -> usize {
    let since = std::mem::replace(
        cursor,
        TraceCursor {
            recorded: log.recorded(),
            evicted: log.evicted(),
        },
    );
    if since.recorded == cursor.recorded {
        return 0;
    }
    let view = |id| Arc::new(TraceView::of(id, log.get(id).unwrap_or(&[])));
    let evicted = usize::try_from(cursor.evicted - since.evicted).unwrap_or(usize::MAX);
    let mut built = 0;
    match log.touched_since(since.recorded) {
        Some(touched) => {
            traces.drop_front(evicted);
            let kept = traces.len();
            // A trace new since is built whole below; a survivor that grew
            // is rebuilt once, however many spans it gained, and found in
            // one pass over the log's order.
            let fresh: Vec<TraceId> = log.ids().skip(kept).collect();
            let mut grew: Vec<TraceId> = Vec::new();
            for id in touched {
                if !fresh.contains(&id) && !grew.contains(&id) {
                    grew.push(id);
                }
            }
            if !grew.is_empty() {
                for (i, id) in log.ids().take(kept).enumerate() {
                    if grew.contains(&id) && traces.set(i, view(id)) {
                        built += 1;
                    }
                }
            }
            traces.extend(fresh.into_iter().map(view));
            built += traces.len() - kept;
        }
        None => {
            *traces = log.ids().map(view).collect();
            built = traces.len();
        }
    }
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2::core::{Cpi2Config, TraceSpan, TraceStage};
    use cpi2::sim::{Cluster, ClusterConfig, Platform};
    use cpi2::telemetry::Telemetry;

    /// Publish time is summed in ns and converted once: two 1.5 µs
    /// publishes are 3 µs, not the 2 that adding whole µs per publish
    /// reads (up to 1 µs short a publish).
    #[test]
    fn publish_time_is_summed_before_it_is_truncated() {
        let mut cluster = Cluster::new(ClusterConfig {
            telemetry: Telemetry::enabled(),
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), 1);
        let mut sh = ServeHarness::new(Cpi2Harness::new(cluster, Cpi2Config::default()));
        assert_eq!(sh.publish_stats(), (0, 0));
        for _ in 0..2 {
            sh.account_publish(Duration::from_nanos(1_500));
        }
        assert_eq!(sh.publish_stats(), (2, 3));
        assert_eq!(sh.publish_histo.sum(), 3.0, "fractional µs recorded");
    }

    /// `(trace id, span count)` of every served trace, served order.
    fn served(traces: &Chunked<Arc<TraceView>>) -> Vec<(String, usize)> {
        traces
            .iter()
            .map(|t| (t.trace.clone(), t.spans.len()))
            .collect()
    }

    /// The same of every trace the log retains, `ids()` order.
    fn logged(log: &TraceLog) -> Vec<(String, usize)> {
        log.ids()
            .map(|id| (id.to_string(), log.get(id).map_or(0, <[_]>::len)))
            .collect()
    }

    /// The served traces follow the log's evictions, not only its growth:
    /// otherwise `/incidents/{id}/trace` answers for traces the log has
    /// dropped and the served set outgrows the log's capacity.
    #[test]
    fn served_traces_mirror_a_log_that_overflows() {
        let mut log = TraceLog::with_capacity(4);
        let mut traces = Chunked::<Arc<TraceView>>::new();
        let mut cursor = TraceCursor::default();
        let mut newest = 0u64;
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        // Bursts between syncs: none, a few spans, more traces than the
        // log holds, and more spans than the change feed holds.
        for (step, burst) in [0usize, 1, 2, 3, 9, 1, 2000, 5, 0, 40]
            .into_iter()
            .cycle()
            .take(300)
            .enumerate()
        {
            for _ in 0..burst {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mostly recent traces (new, retained, or just evicted and
                // so recorded afresh at the back), sometimes a new one.
                let id = match (lcg >> 33) % 8 {
                    0..=2 => {
                        newest += 1;
                        newest
                    }
                    back => newest.saturating_sub(back).max(1),
                };
                log.record(TraceSpan {
                    trace: TraceId(id),
                    stage: TraceStage::Recovery,
                    start_us: step as i64,
                    end_us: step as i64,
                    detail: String::new(),
                });
            }
            let before = traces.clone();
            let built = sync_traces(&mut traces, &log, &mut cursor);
            assert_eq!(served(&traces), logged(&log), "step {step}, burst {burst}");
            assert!(traces.len() <= 4);
            if burst == 0 {
                assert_eq!(built, 0);
                assert!(Chunked::ptr_eq(&before, &traces), "untouched stays shared");
            }
        }
        assert!(log.evicted() > 100, "the log never overflowed");
    }

    #[test]
    fn tails_stay_bounded_and_shared_when_idle() {
        let mut tail = Chunked::<u32>::new();
        assert_eq!(push_tail(&mut tail, 0..3, 4), 3);
        let before = tail.clone();
        assert_eq!(push_tail(&mut tail, 0..0, 4), 0);
        assert!(Chunked::ptr_eq(&before, &tail));
        assert_eq!(push_tail(&mut tail, 3..6, 4), 3);
        assert_eq!(tail.iter().copied().collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert_eq!(push_tail(&mut tail, 10..20, 4), 10, "longer than the tail");
        assert_eq!(tail.iter().copied().collect::<Vec<_>>(), [16, 17, 18, 19]);
        assert_eq!(before.len(), 3, "a held tail is never written");
    }
}
