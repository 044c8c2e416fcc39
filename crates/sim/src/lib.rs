//! Shared-compute-cluster simulator: the substrate of the CPI² reproduction.
//!
//! This crate reproduces the environment the paper deployed into: machines
//! shared by latency-sensitive and batch tasks (§2), a central scheduler
//! with admission control and batch overcommit, per-task cgroups with CFS
//! bandwidth control (the hard-capping mechanism of §5), and — crucially —
//! the shared-resource interference that CPI² exists to detect: an
//! L3-cache-occupancy + memory-bandwidth contention model that inflates
//! co-runners' CPI ([`interference`]).
//!
//! Layering:
//!
//! * [`time`], [`platform`] — simulated clock and CPU types.
//! * [`cgroup`] — containers, hardware counters, CFS bandwidth control.
//! * [`job`], [`task`] — job/task identity, priorities, behaviour models.
//! * [`interference`] — the contention model.
//! * [`machine`] — per-tick CPU allocation and counter accounting.
//! * [`scheduler`], [`cluster`] — placement, admission control, lifecycle.
//! * [`trace`] — ground-truth event log for the evaluation harness.

#![warn(missing_docs)]

pub mod cgroup;
pub mod cluster;
pub mod fault;
pub mod interference;
pub mod job;
pub mod machine;
pub mod platform;
mod pool;
pub mod schedule;
pub mod scheduler;
pub mod task;
pub mod time;
pub mod trace;

pub use cgroup::{Cgroup, CounterBlock, HardCap};
pub use cluster::{Cluster, ClusterConfig, ModelFactory};
pub use fault::{FaultPlan, FaultProfile, ShipmentFate};
pub use interference::{InterferenceParams, ProfileColumns};
pub use job::{JobId, JobSpec, Priority, SchedClass, TaskId};
pub use machine::{Machine, MachineId, ResidentTask, TaskExit};
pub use platform::Platform;
pub use schedule::{ClusterEvent, EventQueue};
pub use scheduler::{PlacementError, PlacementPolicy, Scheduler};
pub use task::{
    ConstantLoad, ResourceProfile, TaskAction, TaskDemand, TaskInstance, TaskModel, TickOutcome,
};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry, TraceEvent};
