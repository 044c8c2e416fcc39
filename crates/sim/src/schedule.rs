//! Deferred cluster events: a time-ordered queue of scripted actions.
//!
//! Experiments script scenarios — "the batch job lands at minute 40",
//! "the operator kills the task at 2:30 am" — as events executed by the
//! cluster when their time comes.

use crate::cluster::ModelFactory;
use crate::job::{JobSpec, TaskId};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A deferred action on the cluster.
pub enum ClusterEvent {
    /// Submit a job (restart_on_exit, factory).
    SubmitJob {
        /// The job to submit.
        spec: JobSpec,
        /// Whether the cluster respawns exited tasks.
        restart_on_exit: bool,
        /// Model factory for the job's tasks.
        factory: ModelFactory,
    },
    /// Kill a task.
    KillTask(TaskId),
    /// Apply a CPU hard cap.
    HardCap {
        /// Target task.
        task: TaskId,
        /// Cap rate, CPU-sec/sec.
        cpu_rate: f64,
        /// Expiry.
        until: SimTime,
    },
}

impl std::fmt::Debug for ClusterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterEvent::SubmitJob { spec, .. } => f
                .debug_struct("SubmitJob")
                .field("job", &spec.name)
                .finish(),
            ClusterEvent::KillTask(t) => f.debug_tuple("KillTask").field(t).finish(),
            ClusterEvent::HardCap { task, cpu_rate, .. } => f
                .debug_struct("HardCap")
                .field("task", task)
                .field("rate", cpu_rate)
                .finish(),
        }
    }
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    event: ClusterEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, with the
        // submission sequence breaking ties deterministically.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Time-ordered event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event at `at`.
    pub fn schedule(&mut self, at: SimTime, event: ClusterEvent) {
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops every event due at or before `now`, in time order.
    pub fn due(&mut self, now: SimTime) -> Vec<ClusterEvent> {
        let mut out = Vec::new();
        while self.heap.peek().is_some_and(|s| s.at <= now) {
            out.push(self.heap.pop().expect("peeked").event);
        }
        out
    }

    /// Events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    /// A kill of task `index` of job 0: the events are told apart by it.
    fn kill(index: u32) -> ClusterEvent {
        ClusterEvent::KillTask(TaskId {
            job: JobId(0),
            index,
        })
    }

    /// The task indices of `due` events, in order.
    fn indices(due: &[ClusterEvent]) -> Vec<u32> {
        due.iter()
            .map(|e| match e {
                ClusterEvent::KillTask(t) => t.index,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn due_events_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), kill(1));
        q.schedule(SimTime::from_secs(10), kill(0));
        q.schedule(SimTime::from_secs(50), kill(2));
        assert_eq!(indices(&q.due(SimTime::from_secs(30))), vec![0, 1]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn same_time_preserves_submission_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_secs(10), kill(i));
        }
        let due = q.due(SimTime::from_secs(10));
        assert_eq!(indices(&due), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nothing_due_before_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), kill(0));
        assert!(q.due(SimTime::from_secs(9)).is_empty());
        assert!(!q.is_empty());
    }
}
