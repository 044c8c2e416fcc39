//! Simulation event trace.
//!
//! A bounded, append-only record of cluster-level events (placements,
//! exits, kills, caps). The CPI² evaluation harness reads it to align
//! detection decisions with simulator ground truth.

use crate::job::{JobId, TaskId};
use crate::machine::MachineId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Kind of traced event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job was submitted.
    JobSubmitted {
        /// The job.
        job: JobId,
        /// Its name.
        name: String,
    },
    /// A task was placed on a machine.
    TaskPlaced {
        /// The task.
        task: TaskId,
        /// Where.
        machine: MachineId,
    },
    /// A task exited of its own accord.
    TaskExited {
        /// The task.
        task: TaskId,
        /// Where it was running.
        machine: MachineId,
        /// Whether it was hard-capped when it exited.
        capped: bool,
    },
    /// A task was killed by an operator or policy.
    TaskKilled {
        /// The task.
        task: TaskId,
        /// Where it was running.
        machine: MachineId,
    },
    /// A task was migrated (killed and restarted elsewhere).
    TaskMigrated {
        /// The task.
        task: TaskId,
        /// Source machine.
        from: MachineId,
        /// Destination machine.
        to: MachineId,
    },
    /// A CPU hard cap was applied to a task.
    CapApplied {
        /// The capped task.
        task: TaskId,
        /// Cap rate in CPU-sec/sec.
        cpu_rate: f64,
        /// Cap expiry.
        until: SimTime,
    },
    /// A machine crashed and rebooted, killing every resident task.
    MachineCrashed {
        /// The machine that went down.
        machine: MachineId,
        /// How many resident tasks died with it.
        tasks_lost: u32,
    },
}

/// One timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// Bounded in-memory event trace.
#[derive(Debug)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace that retains at most `capacity` entries (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Trace: capacity must be positive");
        Trace {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Appends an event.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry { at, event });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crash of machine `n`: the entries are told apart by it.
    fn crash(n: u32) -> TraceEvent {
        TraceEvent::MachineCrashed {
            machine: MachineId(n),
            tasks_lost: 0,
        }
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::new(10);
        t.record(SimTime::from_secs(1), crash(0));
        t.record(SimTime::from_secs(2), crash(1));
        let v: Vec<_> = t.entries().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut t = Trace::new(2);
        for i in 0..5 {
            t.record(SimTime::from_secs(i), crash(i as u32));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries().next().unwrap().at, SimTime::from_secs(3));
    }

    #[test]
    fn empty_checks() {
        let t = Trace::new(1);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
