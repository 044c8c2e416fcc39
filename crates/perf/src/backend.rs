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

/// A source of per-cgroup hardware counters for one machine.
pub trait CounterSource {
    /// Stable identifier of this machine (staggers sampling phases).
    fn source_id(&self) -> u32;

    /// Hardware platform string (`platforminfo` in sample records), lent
    /// as the shared handle every reading of this source clones.
    fn platform_name(&self) -> &Name;

    /// Visits every resident task once — id, owning job's name, monotonic
    /// counters — in an order that stays put while the tasks do. The
    /// sampler calls it at both edges of a counting window.
    fn visit_counters(&self, visit: &mut dyn FnMut(TaskId, &Name, &CounterBlock));
}

impl CounterSource for Machine {
    fn source_id(&self) -> u32 {
        self.id.0
    }

    fn platform_name(&self) -> &Name {
        &self.platform.name
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
        let mut seen = Vec::new();
        src.visit_counters(&mut |task, job_name, counters| {
            seen.push((task, job_name.to_string(), counters.instructions));
        });
        assert_eq!(seen.len(), 1);
        let (task, job_name, instructions) = &seen[0];
        assert_eq!(task.job, JobId(1));
        assert_eq!(job_name, "svc");
        assert!(*instructions > 0.0);
    }
}
