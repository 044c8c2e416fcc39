//! Shared state between the ticking harness and the request handlers.
//!
//! The contract mirrors the spec store's snapshot-swap pattern: the
//! harness thread is the only writer. It keeps one persistent
//! [`LiveSnapshot`], edits the elements a tick changed, and swaps the
//! result in under a mutex held for a pointer store; request handlers
//! clone one `Arc` out and read without ever blocking the tick loop,
//! observing a torn view, or rebuilding anything. Operator actions flow
//! the other way through the [`ActionQueue`] and are applied only at the
//! next tick boundary, so a resident server perturbs neither tick
//! ordering nor determinism.
//!
//! Sharing is structural: every collection is an `Arc<Vec<Arc<T>>>`
//! ([`Shared`]). A collection no tick touched is the same allocation in
//! every snapshot since; one that changed is a new vector of pointers
//! whose untouched elements are still the old ones. A reader holding a
//! snapshot from two hundred ticks ago keeps exactly the elements that
//! have since been replaced alive, and nothing it holds is ever written.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cpi2::core::{CpiSample, CpiSpec, IncidentAction, TraceId, TraceSpan};
use cpi2::harness::MachineIncident;
use cpi2::sim::{Machine, SchedClass};
use cpi2::telemetry::Telemetry;
use parking_lot::Mutex;
use serde::Serialize;

/// One resident task, as seen on a machine page.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskView {
    /// Owning job id.
    pub job: u32,
    /// Task index within the job.
    pub index: u32,
    /// Job name (the `jobname` of CPI records).
    pub job_name: String,
    /// Scheduling class (`LatencySensitive` / `Batch` / `BestEffort`).
    pub class: SchedClass,
    /// Runnable threads as of the last tick.
    pub threads: u32,
}

/// One machine's live summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineView {
    /// Machine id.
    pub id: u32,
    /// Resident task count.
    pub tasks: usize,
    /// Total runnable threads.
    pub threads: u64,
    /// CPU utilization, 0..1+.
    pub utilization: f64,
    /// Hard-cap throttle events since boot.
    pub throttle_events: u64,
    /// The resident tasks.
    pub task_list: Vec<TaskView>,
}

/// One ranked suspect of an incident.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SuspectView {
    /// Suspect job name.
    pub jobname: String,
    /// Identifier score: the window's correlation, or PANDA's mean
    /// correlation across incidents.
    pub correlation: f64,
}

/// One incident, flattened for serving and querying.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IncidentView {
    /// End-to-end trace id, 16 hex digits.
    pub trace: String,
    /// Detection time, sim µs.
    pub at_us: i64,
    /// Reporting machine.
    pub machine: u32,
    /// Victim job name.
    pub victim_job: String,
    /// Victim task handle.
    pub victim_task: u64,
    /// Victim CPI at detection.
    pub victim_cpi: f64,
    /// The 2σ outlier threshold in force.
    pub cthreshold: f64,
    /// `"hard_cap"` or `"none"`.
    pub action: String,
    /// Capped job (empty for `none`).
    pub target_job: String,
    /// Cap rate in CPU-sec/sec (0 for `none`).
    pub cpu_rate: f64,
    /// Why nothing was done (empty for `hard_cap`).
    pub reason: String,
    /// Ranked suspects, top first.
    pub suspects: Vec<SuspectView>,
}

/// One span of an incident trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanView {
    /// Lifecycle stage name (`sample_window` … `recovery`).
    pub stage: &'static str,
    /// Span start, sim µs.
    pub start_us: i64,
    /// Span end, sim µs.
    pub end_us: i64,
    /// Human-readable stage detail.
    pub detail: String,
}

/// One complete incident trace: the span chain in causal order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceView {
    /// Trace id, 16 hex digits.
    pub trace: String,
    /// Spans in causal order.
    pub spans: Vec<SpanView>,
}

impl MachineView {
    /// The machine as of now (exact, not quantised).
    pub fn of(m: &Machine) -> MachineView {
        MachineView {
            id: m.id.0,
            tasks: m.task_count(),
            threads: m.thread_count(),
            utilization: m.utilization(),
            throttle_events: m.throttle_events(),
            task_list: m
                .tasks()
                .map(|t| TaskView {
                    job: t.id.job.0,
                    index: t.id.index,
                    job_name: String::from(&*t.job_name),
                    class: t.class,
                    threads: t.threads(),
                })
                .collect(),
        }
    }
}

impl IncidentView {
    /// Flattens one logged incident.
    pub fn of(mi: &MachineIncident) -> IncidentView {
        let inc = &mi.incident;
        let (action, target_job, cpu_rate, reason) = match &inc.action {
            IncidentAction::HardCap {
                target_job,
                cpu_rate,
                ..
            } => ("hard_cap", target_job.clone(), *cpu_rate, String::new()),
            IncidentAction::None { reason } => ("none", String::new(), 0.0, reason.clone()),
        };
        IncidentView {
            trace: inc.trace_id.to_string(),
            at_us: inc.at,
            machine: mi.machine.0,
            victim_job: inc.victim_job.clone(),
            victim_task: inc.victim.0,
            victim_cpi: inc.victim_cpi,
            cthreshold: inc.cthreshold,
            action: action.to_string(),
            target_job,
            cpu_rate,
            reason,
            suspects: inc
                .suspects
                .iter()
                .map(|s| SuspectView {
                    jobname: String::from(&*s.jobname),
                    correlation: s.correlation,
                })
                .collect(),
        }
    }
}

impl TraceView {
    /// One trace's span chain as recorded so far.
    pub fn of(id: TraceId, spans: &[TraceSpan]) -> TraceView {
        TraceView {
            trace: id.to_string(),
            spans: spans
                .iter()
                .map(|sp| SpanView {
                    stage: sp.stage.name(),
                    start_us: sp.start_us,
                    end_us: sp.end_us,
                    detail: sp.detail.clone(),
                })
                .collect(),
        }
    }
}

/// An incident as served: the view, and its JSON rendered once when the
/// publisher appends it. An incident never changes afterwards, so
/// `/incidents` copies these bytes out instead of re-encoding 256
/// incidents per request.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedIncident {
    /// The incident (what `POST /query` reads).
    pub view: IncidentView,
    /// `serde_json::to_string(&view)`.
    pub json: String,
}

impl EncodedIncident {
    /// Renders `view` once.
    pub fn new(view: IncidentView) -> EncodedIncident {
        let json = serde_json::to_string(&view).unwrap_or_else(|_| "null".into());
        EncodedIncident { view, json }
    }
}

impl Serialize for EncodedIncident {
    fn to_value(&self) -> serde_json::Value {
        self.view.to_value()
    }
}

/// Incidents retained per snapshot (oldest dropped beyond it).
pub const INCIDENT_TAIL: usize = 256;
/// CPI samples retained per snapshot.
pub const SAMPLE_TAIL: usize = 512;

/// A structurally shared collection: cloning it is one reference-count
/// bump, and two snapshots share every element neither replaced.
pub type Shared<T> = Arc<Vec<Arc<T>>>;

/// Everything the server reads, as of one tick. Immutable once
/// published; the next tick's snapshot shares what did not change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveSnapshot {
    /// Sim time of the snapshot, µs.
    pub now_us: i64,
    /// Tick length, µs.
    pub tick_us: i64,
    /// Ticks the harness has executed.
    pub ticks: u64,
    /// Spec store version.
    pub spec_version: u64,
    /// Whether cluster-wide CPI protection is on.
    pub protection_enabled: bool,
    /// Hard caps applied so far.
    pub caps_applied: u64,
    /// Sample batches lost to collector back-pressure.
    pub collector_dropped: u64,
    /// Per-machine summaries, machine-id order.
    pub machines: Shared<MachineView>,
    /// Recent incidents, oldest first (bounded tail).
    pub incidents: Shared<EncodedIncident>,
    /// Every published CPI spec, (job, platform) order.
    pub specs: Shared<CpiSpec>,
    /// Recent CPI samples, oldest first (bounded tail).
    pub samples: Shared<CpiSample>,
    /// Retained incident traces, oldest first.
    pub traces: Shared<TraceView>,
}

/// Snapshot-swap cell. The tick thread stores a pointer; a reader clones
/// it. Neither holds the lock for longer than that, and the snapshot the
/// swap displaces is dropped after the lock is released.
#[derive(Debug, Default)]
pub struct LiveState {
    current: Mutex<Arc<LiveSnapshot>>,
}

impl LiveState {
    /// Makes `snap` what every later [`snapshot`](Self::snapshot) returns.
    pub fn publish(&self, snap: LiveSnapshot) {
        let next = Arc::new(snap);
        let _displaced = std::mem::replace(&mut *self.current.lock(), next);
    }

    /// The current snapshot: one `Arc` clone, whatever the tick rate.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.current.lock())
    }

    /// Publishes a reader would have to replay to reach the current
    /// state: always 0, since the publisher applies every tick itself.
    /// Kept because the benchmark's `serve.delta_depth.mean` reads it.
    pub fn delta_depth(&self) -> usize {
        0
    }
}

/// An operator action accepted over HTTP, pending deterministic
/// application at the next tick boundary (§5's operator interface).
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorAction {
    /// Manually hard-cap a task.
    Cap {
        /// Target job id.
        job: u32,
        /// Target task index.
        index: u32,
        /// Cap rate, CPU-sec/sec.
        rate: f64,
        /// Cap lifetime, µs of sim time.
        duration_us: i64,
    },
    /// Lift a task's hard cap.
    Uncap {
        /// Target job id.
        job: u32,
        /// Target task index.
        index: u32,
    },
    /// Kill a persistent offender and restart it elsewhere ("our version
    /// of task migration", §5).
    KillRestart {
        /// Target job id.
        job: u32,
        /// Target task index.
        index: u32,
    },
    /// Turn cluster-wide CPI protection on or off.
    SetProtection(
        /// Desired protection state.
        bool,
    ),
}

/// FIFO queue of operator actions awaiting the next tick.
#[derive(Debug, Default)]
pub struct ActionQueue {
    q: Mutex<VecDeque<OperatorAction>>,
    accepted: AtomicU64,
}

impl ActionQueue {
    /// Enqueues an action; returns its 1-based acceptance sequence number.
    pub fn push(&self, action: OperatorAction) -> u64 {
        self.q.lock().push_back(action);
        self.accepted.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Takes every queued action, FIFO order.
    pub fn drain(&self) -> Vec<OperatorAction> {
        self.q.lock().drain(..).collect()
    }

    /// Actions accepted since boot.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Actions currently awaiting a tick.
    pub fn pending(&self) -> usize {
        self.q.lock().len()
    }
}

/// Everything the router and the harness share.
#[derive(Debug)]
pub struct SharedState {
    /// The per-tick snapshot cell.
    pub live: LiveState,
    /// Operator actions awaiting the next tick.
    pub actions: ActionQueue,
    /// The system's telemetry registry (serves `/metrics`).
    pub telemetry: Telemetry,
}

impl SharedState {
    /// Creates shared state around the system's telemetry handle.
    pub fn new(telemetry: Telemetry) -> Arc<SharedState> {
        Arc::new(SharedState {
            live: LiveState::default(),
            actions: ActionQueue::default(),
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_swap_is_torn_free() {
        let state = LiveState::default();
        assert_eq!(state.snapshot().ticks, 0);
        let held = state.snapshot();
        state.publish(LiveSnapshot {
            ticks: 7,
            now_us: 42,
            ..LiveSnapshot::default()
        });
        // The old snapshot a reader holds is unchanged; new readers see
        // the new one, and the same one until the next publish.
        assert_eq!(held.ticks, 0);
        assert_eq!(state.snapshot().ticks, 7);
        assert_eq!(state.snapshot().now_us, 42);
        assert!(Arc::ptr_eq(&state.snapshot(), &state.snapshot()));
        assert_eq!(state.delta_depth(), 0);
    }

    #[test]
    fn action_queue_is_fifo() {
        let q = ActionQueue::default();
        assert_eq!(q.push(OperatorAction::SetProtection(false)), 1);
        assert_eq!(q.push(OperatorAction::Uncap { job: 1, index: 2 }), 2);
        assert_eq!(q.pending(), 2);
        let drained = q.drain();
        assert_eq!(drained[0], OperatorAction::SetProtection(false));
        assert_eq!(drained[1], OperatorAction::Uncap { job: 1, index: 2 });
        assert_eq!(q.pending(), 0);
        assert_eq!(q.accepted(), 2);
    }
}
