//! Counter-source abstraction: where per-cgroup counters come from.
//!
//! The sampler is backend-independent: it only needs a monotonic
//! [`CounterBlock`] per task plus identity metadata. The bundled backend
//! reads the simulator's cgroups; on real hardware the same trait would
//! wrap `perf_event_open(2)` file descriptors in counting mode, grouped
//! per cgroup (the paper's per-cgroup `CPU_CLK_UNHALTED.REF` +
//! `INSTRUCTIONS_RETIRED` pair).

use cpi2_sim::{CounterBlock, Machine, TaskId};
use cpi2_stats::Name;

/// One task's counter snapshot plus identity.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskCounters {
    /// The task.
    pub task: TaskId,
    /// Owning job's name.
    pub job_name: Name,
    /// Monotonic counters as of the snapshot.
    pub counters: CounterBlock,
}

/// A source of per-cgroup hardware counters for one machine.
pub trait CounterSource {
    /// Stable identifier of this machine (staggers sampling phases).
    fn source_id(&self) -> u32;

    /// Hardware platform string (`platforminfo` in sample records), lent
    /// as the shared handle every reading of this source clones.
    fn platform_name(&self) -> &Name;

    /// Cost of one counter save/restore on an inter-cgroup context
    /// switch, in microseconds.
    fn counter_switch_us(&self) -> f64;

    /// Snapshot of every resident task's counters (each task once).
    fn snapshot(&self) -> Vec<TaskCounters>;

    /// Visits every resident task — id, owning job's name, counters — in
    /// [`CounterSource::snapshot`]'s order. This is what the sampler calls
    /// at a window edge; a backend that can lend these overrides it so an
    /// edge builds no owned snapshot it would only read and drop.
    fn visit_counters(&self, visit: &mut dyn FnMut(TaskId, &Name, &CounterBlock)) {
        for tc in self.snapshot() {
            visit(tc.task, &tc.job_name, &tc.counters);
        }
    }
}

impl CounterSource for Machine {
    fn source_id(&self) -> u32 {
        self.id.0
    }

    fn platform_name(&self) -> &Name {
        &self.platform.name
    }

    fn counter_switch_us(&self) -> f64 {
        self.platform.counter_switch_us
    }

    fn snapshot(&self) -> Vec<TaskCounters> {
        self.tasks()
            .map(|t| TaskCounters {
                task: t.id,
                job_name: Name::clone(&t.job_name),
                counters: *t.cgroup.counters(),
            })
            .collect()
    }

    fn visit_counters(&self, visit: &mut dyn FnMut(TaskId, &Name, &CounterBlock)) {
        for t in self.tasks() {
            visit(t.id, &t.job_name, t.cgroup.counters());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_sim::{
        ConstantLoad, JobId, MachineId, Platform, Priority, ResourceProfile, SchedClass,
        SimDuration, SimTime, TaskInstance,
    };

    #[test]
    fn machine_implements_counter_source() {
        let mut m = Machine::new(MachineId(3), Platform::sandy_bridge(), 1);
        m.add_task(
            TaskInstance {
                id: TaskId {
                    job: JobId(1),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(1.0, 2, ResourceProfile::compute_bound())),
            },
            "svc",
            SchedClass::Batch,
            Priority::NonProduction,
        );
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut Vec::new());
        let src: &dyn CounterSource = &m;
        assert_eq!(src.source_id(), 3);
        assert_eq!(&**src.platform_name(), "sandybridge-2.2GHz");
        assert!(src.counter_switch_us() > 0.0);
        let snap = src.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(&*snap[0].job_name, "svc");
        assert!(snap[0].counters.instructions > 0.0);
    }
}
