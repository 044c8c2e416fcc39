//! Shared state between the ticking harness and the request handlers.
//!
//! The contract mirrors the spec store's snapshot-swap pattern: the
//! harness thread is the only writer. It keeps one persistent
//! [`LiveSnapshot`], brings it up to each tick, and swaps a clone in
//! under a mutex held for a pointer store; request handlers clone one
//! `Arc` out and read without ever blocking the tick loop, observing a
//! torn view, or rebuilding anything. Operator actions flow the other
//! way through the [`ActionQueue`] and are applied only at the next tick
//! boundary, so a resident server perturbs neither tick ordering nor
//! determinism.
//!
//! Machine rows are plain values, all of them rebuilt every tick into
//! one allocation. Everything else is shared: the tails and the
//! per-machine task lists are [`Chunked`], so a tick that appends or
//! replaces a few elements copies the chunks it wrote to and shares the
//! rest with every snapshot a reader still holds, and nothing a reader
//! holds is ever written.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// Poison is ignored: a holder swaps one pointer or moves whole actions.
use std::sync::{Mutex, PoisonError};

use cpi2::core::{CpiSample, CpiSpec, IncidentAction, Name, NoActionReason, TraceId, TraceSpan};
use cpi2::harness::MachineIncident;
use cpi2::sim::{Machine, SchedClass};
use cpi2::telemetry::Telemetry;
use serde::{Serialize, Value};

use crate::chunked::Chunked;

/// One resident task, as seen on a machine page.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskView {
    /// Owning job id.
    pub job: u32,
    /// Task index within the job.
    pub index: u32,
    /// Job name (the `jobname` of CPI records), shared with the task.
    pub job_name: Name,
    /// Scheduling class (`LatencySensitive` / `Batch` / `BestEffort`).
    pub class: SchedClass,
    /// Runnable threads as of the last tick.
    pub threads: u32,
}

/// One machine's live counters, exact as of the tick it was published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineRow {
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
}

/// One machine as `/machines/{id}` serves it and `POST /query` reads it:
/// its row and its task list, as one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineView<'a> {
    /// The machine's counters.
    pub row: &'a MachineRow,
    /// The resident tasks.
    pub task_list: &'a [TaskView],
}

impl Serialize for MachineView<'_> {
    fn to_value(&self) -> Value {
        let row = self.row;
        Value::Object(vec![
            ("id".into(), row.id.to_value()),
            ("tasks".into(), row.tasks.to_value()),
            ("threads".into(), row.threads.to_value()),
            ("utilization".into(), row.utilization.to_value()),
            ("throttle_events".into(), row.throttle_events.to_value()),
            ("task_list".into(), self.task_list.to_value()),
        ])
    }
}

/// One ranked suspect of an incident.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SuspectView {
    /// Suspect job name, shared with the incident's suspect.
    pub jobname: Name,
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
    /// Victim job name, shared with the incident.
    pub victim_job: Name,
    /// Victim task handle.
    pub victim_task: u64,
    /// Victim CPI at detection.
    pub victim_cpi: f64,
    /// The 2σ outlier threshold in force.
    pub cthreshold: f64,
    /// `"hard_cap"` or `"none"`.
    pub action: &'static str,
    /// Capped job (`None` for `none`, written `""`).
    #[serde(with = "or_empty")]
    pub target_job: Option<Name>,
    /// Cap rate in CPU-sec/sec (0 for `none`).
    pub cpu_rate: f64,
    /// Why nothing was done (`None` for `hard_cap`, written `""`).
    #[serde(with = "or_empty")]
    pub reason: Option<NoActionReason>,
    /// Ranked suspects, top first.
    pub suspects: Vec<SuspectView>,
}

/// An optional string-valued field that writes `""` when absent.
mod or_empty {
    use serde::{Serialize, Value};

    pub fn to_value<T: Serialize>(v: &Option<T>) -> Value {
        v.as_ref()
            .map_or_else(|| Value::String(String::new()), Serialize::to_value)
    }
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

impl MachineRow {
    /// The machine's counters as of now.
    pub fn of(m: &Machine) -> MachineRow {
        MachineRow {
            id: m.id.0,
            tasks: m.task_count(),
            threads: m.thread_count(),
            utilization: m.utilization(),
            throttle_events: m.throttle_events(),
        }
    }
}

impl TaskView {
    /// The machine's resident tasks as of now.
    pub fn list(m: &Machine) -> Arc<[TaskView]> {
        m.tasks()
            .map(|t| TaskView {
                job: t.id.job.0,
                index: t.id.index,
                job_name: Name::clone(&t.job_name),
                class: t.class,
                threads: t.threads(),
            })
            .collect()
    }

    /// Whether `list` is what [`list`](Self::list) would build for `m`
    /// now: the same tasks in the same order with the same thread counts
    /// (a task's job fixes its name and class).
    pub(crate) fn is_current(list: &[TaskView], m: &Machine) -> bool {
        list.len() == m.task_count()
            && list
                .iter()
                .zip(m.tasks())
                .all(|(v, t)| (v.job, v.index, v.threads) == (t.id.job.0, t.id.index, t.threads()))
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
            } => ("hard_cap", Some(Name::clone(target_job)), *cpu_rate, None),
            IncidentAction::None { reason } => ("none", None, 0.0, Some(reason.clone())),
        };
        IncidentView {
            trace: inc.trace_id.to_string(),
            at_us: inc.at,
            machine: mi.machine.0,
            victim_job: Name::clone(&inc.victim_job),
            victim_task: inc.victim.0,
            victim_cpi: inc.victim_cpi,
            cthreshold: inc.cthreshold,
            action,
            target_job,
            cpu_rate,
            reason,
            suspects: inc
                .suspects
                .iter()
                .map(|s| SuspectView {
                    jobname: Name::clone(&s.jobname),
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

/// Everything the server reads, as of one tick. Immutable once
/// published; the next tick's snapshot shares what did not change.
#[derive(Debug, Clone, PartialEq)]
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
    /// Per-machine counters, machine-id order.
    pub machines: Arc<[MachineRow]>,
    /// Per-machine task lists, indexed like `machines`.
    pub task_lists: Chunked<Arc<[TaskView]>>,
    /// Recent incidents, oldest first (bounded tail).
    pub incidents: Chunked<Arc<EncodedIncident>>,
    /// Every published CPI spec, (job, platform) order.
    pub specs: Arc<Vec<Arc<CpiSpec>>>,
    /// Recent CPI samples, oldest first (bounded tail).
    pub samples: Chunked<CpiSample>,
    /// Retained incident traces, oldest first.
    pub traces: Chunked<Arc<TraceView>>,
}

impl Default for LiveSnapshot {
    fn default() -> Self {
        LiveSnapshot {
            now_us: 0,
            tick_us: 0,
            ticks: 0,
            spec_version: 0,
            protection_enabled: false,
            caps_applied: 0,
            collector_dropped: 0,
            machines: Arc::from(Vec::new()),
            task_lists: Chunked::new(),
            incidents: Chunked::new(),
            specs: Arc::default(),
            samples: Chunked::new(),
            traces: Chunked::new(),
        }
    }
}

impl LiveSnapshot {
    /// Machine `i`, machine-id order.
    pub fn machine(&self, i: usize) -> Option<MachineView<'_>> {
        Some(MachineView {
            row: self.machines.get(i)?,
            task_list: self.task_lists.get(i)?,
        })
    }

    /// Every machine, machine-id order.
    pub fn machine_views(&self) -> impl Iterator<Item = MachineView<'_>> {
        let lists = self.task_lists.iter();
        self.machines
            .iter()
            .zip(lists)
            .map(|(row, task_list)| MachineView { row, task_list })
    }
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
        let _displaced = std::mem::replace(
            &mut *self.current.lock().unwrap_or_else(PoisonError::into_inner),
            next,
        );
    }

    /// The current snapshot: one `Arc` clone, whatever the tick rate.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
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
        self.q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(action);
        self.accepted.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Takes every queued action, FIFO order.
    pub fn drain(&self) -> Vec<OperatorAction> {
        let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
        q.drain(..).collect()
    }

    /// Actions accepted since boot.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Actions currently awaiting a tick.
    pub fn pending(&self) -> usize {
        self.q.lock().unwrap_or_else(PoisonError::into_inner).len()
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
