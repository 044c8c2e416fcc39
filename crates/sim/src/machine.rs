//! A shared machine: CPU allocation, interference, and counter accounting.
//!
//! Each simulated machine runs many tasks from different jobs (Fig. 1 shows
//! the production distribution this reproduces). Every tick the machine
//! gathers task demands, applies cgroup bandwidth control, allocates CPUs
//! with latency-sensitive preference, runs the interference model, and
//! charges hardware counters to each task's cgroup.
//!
//! The cluster ticks its machines in groups (`tick_group`): a tick is
//! split at its interference solve into a prepare half (demand → bandwidth
//! clamp → CPU grant → profile columns) and a finish half (noise →
//! counter charge → `observe` → exits), and the solve passes of a group's
//! machines run side by side between the two. [`Machine::tick`] is the
//! same code over a group of one.

use crate::cgroup::{Cgroup, CounterBlock};
use crate::interference::{self, InterferenceParams, ProfileColumns};
use crate::job::{Priority, SchedClass, TaskId};
use crate::platform::Platform;
use crate::task::{TaskAction, TaskInstance, TaskModel, TickOutcome};
use crate::time::{SimDuration, SimTime};
use cpi2_stats::rng::SimRng;
use cpi2_stats::Name;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique machine identifier within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Context-switch rate per runnable thread per second, used to model the
/// counter save/restore overhead of §3.1.
const CTX_SWITCHES_PER_THREAD_SEC: f64 = 20.0;

/// One task resident on a machine.
pub struct ResidentTask {
    /// Task identity.
    pub id: TaskId,
    /// Owning job's name (the `jobname` of CPI sample records): allocated
    /// once when the task is placed, then shared by every record about it.
    pub job_name: Name,
    /// Scheduling class (drives throttle eligibility).
    pub class: SchedClass,
    /// Priority band.
    pub priority: Priority,
    /// The task's resource container.
    pub cgroup: Cgroup,
    model: Box<dyn TaskModel>,
    last_outcome: Option<TickOutcome>,
    /// Runnable thread count (as of the last tick's demand).
    threads: u32,
    /// Consecutive ticks the task wanted CPU but machine pressure (not a
    /// cap) starved it — the scheduler's batch-preemption signal (§2).
    starved: u32,
}

impl ResidentTask {
    /// Outcome of the most recent tick, if the task has run.
    pub fn last_outcome(&self) -> Option<&TickOutcome> {
        self.last_outcome.as_ref()
    }

    /// Immutable access to the behaviour model (for workload metrics).
    pub fn model(&self) -> &dyn TaskModel {
        self.model.as_ref()
    }

    /// Current runnable thread count (as of the last tick's demand).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Consecutive ticks the task has been starved by machine pressure
    /// (excluding bandwidth-control caps).
    pub fn starved_ticks(&self) -> u32 {
        self.starved
    }
}

impl fmt::Debug for ResidentTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResidentTask")
            .field("id", &self.id)
            .field("job", &self.job_name)
            .field("class", &self.class)
            .finish()
    }
}

/// Record of a task that exited during a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskExit {
    /// Which task exited.
    pub id: TaskId,
    /// When it exited.
    pub at: SimTime,
    /// Whether it was being hard-capped at the time (the §6.2 MapReduce
    /// worker case).
    pub capped: bool,
}

/// Reusable per-machine buffers for the tick, laid out as
/// struct-of-arrays: one contiguous column per per-task quantity, all
/// index-parallel to `Machine::tasks`. All vectors are cleared (not
/// shrunk) at the top of each tick, so once warmed up to the machine's
/// task count the steady-state tick performs no heap allocation. It is
/// also what carries a machine's tick across the grouped solve: `prepare`
/// fills it and `finish` reads it. The scratch travels with the machine
/// when the worker pool moves it between threads, so warm capacity is
/// never lost to resharding.
#[derive(Debug, Default)]
struct TickScratch {
    /// Post-bandwidth-control CPU demand per task.
    wants: Vec<f64>,
    /// Whether bandwidth control clamped the task this tick.
    capped: Vec<bool>,
    /// CPU actually granted per task.
    granted: Vec<f64>,
    /// CPI noise sigma per task (0 = noiseless).
    noise: Vec<f64>,
    /// Whether the task's model chose to exit this tick.
    exited: Vec<bool>,
    /// Interference-model profile inputs, split into columns.
    profiles: ProfileColumns,
    /// Interference-model CPI output column.
    cpi: Vec<f64>,
    /// Interference-model MPKI output column.
    mpki: Vec<f64>,
}

/// A machine hosting tasks from many jobs.
pub struct Machine {
    /// Machine identity.
    pub id: MachineId,
    /// Hardware platform.
    pub platform: Platform,
    tasks: Vec<ResidentTask>,
    rng: SimRng,
    last_utilization: f64,
    /// Cumulative count of task-ticks where the CFS bandwidth model
    /// clamped a task below its demand (cluster telemetry reads deltas).
    throttle_events: u64,
    /// Tick-loop buffers, reused across ticks.
    scratch: TickScratch,
}

impl Machine {
    /// Creates an empty machine.
    pub fn new(id: MachineId, platform: Platform, seed: u64) -> Self {
        Machine {
            id,
            platform,
            tasks: Vec::new(),
            rng: SimRng::derive(seed, id.0 as u64),
            last_utilization: 0.0,
            throttle_events: 0,
            scratch: TickScratch::default(),
        }
    }

    /// Cumulative CFS-bandwidth throttle events on this machine: task-ticks
    /// where the cgroup clamped CPU below what the task wanted.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Places a task on this machine in a fresh, uncapped cgroup.
    ///
    /// `job_name`, `class` and `priority` come from the job spec.
    pub fn add_task(
        &mut self,
        instance: TaskInstance,
        job_name: impl Into<Name>,
        class: SchedClass,
        priority: Priority,
    ) {
        self.tasks.push(ResidentTask {
            id: instance.id,
            job_name: job_name.into(),
            class,
            priority,
            cgroup: Cgroup::new(),
            model: instance.model,
            last_outcome: None,
            threads: 0,
            starved: 0,
        });
    }

    /// Removes a task (kill / migrate away). Returns `true` if it was here.
    pub fn remove_task(&mut self, id: TaskId) -> bool {
        match self.tasks.iter().position(|t| t.id == id) {
            Some(index) => {
                self.tasks.remove(index);
                true
            }
            None => false,
        }
    }

    /// Number of resident tasks (Fig. 1a statistic).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Total runnable threads across tasks (Fig. 1b statistic).
    pub fn thread_count(&self) -> u64 {
        self.tasks.iter().map(|t| t.threads as u64).sum()
    }

    /// Iterates resident tasks.
    pub fn tasks(&self) -> impl Iterator<Item = &ResidentTask> {
        self.tasks.iter()
    }

    /// Looks up a resident task.
    pub fn task(&self, id: TaskId) -> Option<&ResidentTask> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Mutable lookup (used by agents to apply hard caps).
    pub fn task_mut(&mut self, id: TaskId) -> Option<&mut ResidentTask> {
        self.tasks.iter_mut().find(|t| t.id == id)
    }

    /// CPU utilization over the last tick, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.last_utilization
    }

    /// Advances the machine by one tick of length `dt` ending the tick's
    /// accounting at `now + dt`. Tasks that exited during the tick are
    /// *appended* to `exits` (the buffer is not cleared, so callers can
    /// pool one buffer across many machines and ticks).
    ///
    /// This is `tick_group` over a group of one: the cluster's grouped
    /// machine phase and this call run the same prepare → solve → finish
    /// code. Steady state performs no heap allocation: all intermediates
    /// live in the machine's `TickScratch`.
    // lint: hot-path
    pub fn tick(&mut self, now: SimTime, dt: SimDuration, exits: &mut Vec<TaskExit>) {
        tick_group(std::slice::from_mut(self), now, dt, |_, exit| {
            exits.push(exit)
        });
    }

    /// The tick up to the interference solve: demands clamped by bandwidth
    /// control, the CPU grant, and the solve's profile columns, all left
    /// in the scratch.
    // lint: hot-path
    fn prepare(&mut self, now: SimTime, dt: SimDuration) {
        let cores = self.platform.cores as f64;
        let Machine {
            tasks,
            rng,
            last_utilization,
            throttle_events,
            scratch,
            ..
        } = self;
        let TickScratch {
            wants,
            capped,
            granted,
            noise,
            exited,
            profiles,
            ..
        } = scratch;
        wants.clear();
        capped.clear();
        granted.clear();
        noise.clear();
        exited.clear();
        profiles.clear();
        // An empty machine schedules nothing, charges nothing and draws
        // no RNG values; its solve and finish run over empty columns.
        if tasks.is_empty() {
            *last_utilization = 0.0;
            return;
        }

        // 1. Collect demands, clamped by bandwidth control.
        for t in tasks.iter_mut() {
            let d = t.model.demand(now, dt, rng);
            t.threads = d.threads;
            let want = d.cpu_want.max(0.0);
            let allowed = t.cgroup.clamp_cpu(want, now, dt);
            let was_capped = allowed < want - 1e-12;
            *throttle_events += u64::from(was_capped);
            capped.push(was_capped);
            wants.push(allowed);
        }

        // 2. CPU allocation: latency-sensitive first, then batch shares
        //    what remains proportionally.
        let ls_want: f64 = tasks
            .iter()
            .zip(wants.iter())
            .filter(|(t, _)| t.class == SchedClass::LatencySensitive)
            .map(|(_, &w)| w)
            .sum();
        let batch_want: f64 = wants.iter().sum::<f64>() - ls_want;
        let ls_scale = if ls_want > cores {
            cores / ls_want
        } else {
            1.0
        };
        let remaining = (cores - ls_want * ls_scale).max(0.0);
        let batch_scale = if batch_want > remaining {
            if batch_want > 0.0 {
                remaining / batch_want
            } else {
                1.0
            }
        } else {
            1.0
        };
        for (t, &w) in tasks.iter().zip(wants.iter()) {
            granted.push(if t.class == SchedClass::LatencySensitive {
                w * ls_scale
            } else {
                w * batch_scale
            });
        }
        *last_utilization = granted.iter().sum::<f64>() / cores;

        // 3. Interference-model inputs: profile columns, with the grant
        //    column as activity. `profile()` is pure (no RNG, no
        //    mutation), so reading it here draws nothing.
        for t in tasks.iter() {
            let p = t.model.profile();
            profiles.push(&p);
            noise.push(p.cpi_noise);
        }
    }

    /// [`interference::solve_begin`] over this tick's columns.
    // lint: hot-path
    #[inline]
    fn solve_begin(&mut self, params: &InterferenceParams) {
        let s = &mut self.scratch;
        interference::solve_begin(
            &self.platform,
            &s.granted,
            &s.profiles,
            params,
            &mut s.cpi,
            &mut s.mpki,
        );
    }

    /// One [`interference::solve_pass`] over this tick's columns.
    // lint: hot-path
    #[inline]
    fn solve_pass(&mut self, params: &InterferenceParams) {
        let s = &mut self.scratch;
        interference::solve_pass(
            &self.platform,
            &s.granted,
            &s.profiles,
            params,
            &mut s.cpi,
            &s.mpki,
        );
    }

    /// The tick after the solve: CPI noise, counters charged to each
    /// cgroup, models observing their outcome, and exits handed to
    /// `on_exit` in task order, then dropped from the machine.
    // lint: hot-path
    fn finish(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        on_exit: &mut impl FnMut(MachineId, TaskExit),
    ) {
        let dt_sec = dt.as_secs_f64();
        let Machine {
            id,
            platform,
            tasks,
            rng,
            scratch,
            ..
        } = self;
        let TickScratch {
            wants,
            capped,
            granted,
            noise,
            exited,
            cpi,
            mpki,
            ..
        } = scratch;

        // 4. Account counters and let models observe. The scratch columns
        //    are parallel to `tasks` (one push per task in `prepare`), so
        //    lockstep zips replace index arithmetic — no panicking `[…]`.
        let mut any_exit = false;
        let rows = tasks
            .iter_mut()
            .zip(granted.iter().zip(capped.iter()))
            .zip(wants.iter().zip(noise.iter()))
            .zip(cpi.iter().zip(mpki.iter()));
        for (((t, (&g, &was_capped)), (&want, &sigma)), (&eff_cpi, &eff_mpki)) in rows {
            // Starvation: the task wanted meaningful CPU, was not capped,
            // yet machine pressure squeezed it to a trickle.
            if !was_capped && want > 0.25 && g < 0.1 * want {
                t.starved += 1;
            } else {
                t.starved = 0;
            }
            let noise_mult = if sigma > 0.0 {
                rng.lognormal(0.0, sigma)
            } else {
                1.0
            };
            let cpi = eff_cpi * noise_mult;
            let cycles = g * platform.clock_hz * dt_sec;
            let instructions = if cpi > 0.0 { cycles / cpi } else { 0.0 };
            let l3 = instructions * eff_mpki / 1000.0;
            let block = CounterBlock {
                cycles,
                instructions,
                l2_misses: l3 * 2.5,
                l3_misses: l3,
                mem_lines: l3 * 1.1,
                context_switches: (t.threads as f64
                    * CTX_SWITCHES_PER_THREAD_SEC
                    * dt_sec
                    * g.clamp(0.05, 1.0)) as u64,
                cpu_time_us: g * dt.as_us() as f64,
            };
            t.cgroup.charge(&block);
            let outcome = TickOutcome {
                cpu_granted: g,
                capped: was_capped,
                cpi,
                instructions,
                l3_misses: l3,
            };
            t.last_outcome = Some(outcome);
            let is_exit = t.model.observe(now + dt, &outcome) == TaskAction::Exit;
            exited.push(is_exit);
            if is_exit {
                any_exit = true;
                on_exit(
                    *id,
                    TaskExit {
                        id: t.id,
                        at: now + dt,
                        capped: was_capped,
                    },
                );
            }
        }
        // Drop the tasks whose model chose to exit, keeping the rest in order.
        if any_exit {
            let mut gone = exited.iter();
            tasks.retain(|_| !*gone.next().unwrap_or(&false));
        }
    }
}

/// Machines per group of [`tick_group`]. Swept on the benchmark's sparse
/// fleet (400 machines of ≈ 3 tasks; 12 rounds, DESIGN §9): groups of 2,
/// 4, 8 and 16 read 1.27×, 1.40×, 1.51× and 1.29× the machine-ticks/s
/// of ticking one machine at a time.
pub(crate) const GROUP: usize = 8;

/// Ticks `machines` in contiguous groups of [`GROUP`]: every machine of a
/// group is prepared, then each solve pass runs across the whole group
/// before the next pass, then every machine finishes, handing its exits
/// to `on_exit` in machine order (and in task order within a machine).
///
/// The solve of a machine with a few tasks is one serial chain of divides
/// per pass, so on its own the core waits on latency; the chains of
/// different machines are independent (each machine owns its RNG, task
/// models and scratch), so running a group's passes side by side keeps
/// several in flight at once. Every machine still draws its RNG values in
/// the same order and computes the same floating-point operations, so
/// the grouped tick is bit-identical to ticking the machines one by one.
// lint: hot-path
pub(crate) fn tick_group(
    machines: &mut [Machine],
    now: SimTime,
    dt: SimDuration,
    mut on_exit: impl FnMut(MachineId, TaskExit),
) {
    let params = InterferenceParams::default();
    for group in machines.chunks_mut(GROUP) {
        for m in group.iter_mut() {
            m.prepare(now, dt);
        }
        for m in group.iter_mut() {
            m.solve_begin(&params);
        }
        for _ in 0..params.iterations {
            for m in group.iter_mut() {
                m.solve_pass(&params);
            }
        }
        for m in group.iter_mut() {
            m.finish(now, dt, &mut on_exit);
        }
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("id", &self.id)
            .field("platform", &self.platform.name)
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::task::{ConstantLoad, ResourceProfile};

    fn tid(j: u32, i: u32) -> TaskId {
        TaskId {
            job: JobId(j),
            index: i,
        }
    }

    fn add_constant(
        m: &mut Machine,
        id: TaskId,
        name: &str,
        class: SchedClass,
        cpu: f64,
        profile: ResourceProfile,
    ) {
        m.add_task(
            TaskInstance {
                id,
                model: Box::new(ConstantLoad::new(cpu, 4, profile)),
            },
            name,
            class,
            if class == SchedClass::LatencySensitive {
                Priority::Production
            } else {
                Priority::NonProduction
            },
        );
    }

    #[test]
    fn single_task_gets_full_demand() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 1);
        add_constant(
            &mut m,
            tid(1, 0),
            "svc",
            SchedClass::LatencySensitive,
            2.0,
            ResourceProfile::compute_bound(),
        );
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut Vec::new());
        let t = m.task(tid(1, 0)).unwrap();
        let out = t.last_outcome().unwrap();
        assert!((out.cpu_granted - 2.0).abs() < 1e-9);
        assert!(!out.capped);
        assert!(out.cpi > 0.5 && out.cpi < 1.5, "cpi={}", out.cpi);
        assert!((m.utilization() - 2.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn ls_preference_under_overload() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 2);
        add_constant(
            &mut m,
            tid(1, 0),
            "svc",
            SchedClass::LatencySensitive,
            8.0,
            ResourceProfile::compute_bound(),
        );
        add_constant(
            &mut m,
            tid(2, 0),
            "batch",
            SchedClass::Batch,
            10.0,
            ResourceProfile::streaming(),
        );
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut Vec::new());
        let ls = m
            .task(tid(1, 0))
            .unwrap()
            .last_outcome()
            .unwrap()
            .cpu_granted;
        let b = m
            .task(tid(2, 0))
            .unwrap()
            .last_outcome()
            .unwrap()
            .cpu_granted;
        // LS gets its full 8 cores; batch squeezed into the remaining 4.
        assert!((ls - 8.0).abs() < 1e-9, "ls={ls}");
        assert!((b - 4.0).abs() < 1e-9, "batch={b}");
    }

    #[test]
    fn hard_cap_limits_task() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 3);
        add_constant(
            &mut m,
            tid(2, 0),
            "batch",
            SchedClass::Batch,
            5.0,
            ResourceProfile::streaming(),
        );
        m.task_mut(tid(2, 0))
            .unwrap()
            .cgroup
            .apply_hard_cap(0.1, SimTime::from_mins(5));
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut Vec::new());
        let out = *m.task(tid(2, 0)).unwrap().last_outcome().unwrap();
        assert!((out.cpu_granted - 0.1).abs() < 1e-9);
        assert!(out.capped);
    }

    #[test]
    fn capping_antagonist_improves_victim_cpi() {
        // The end-to-end mechanism of the whole paper, at machine scale.
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 4);
        add_constant(
            &mut m,
            tid(1, 0),
            "victim",
            SchedClass::LatencySensitive,
            2.0,
            ResourceProfile::cache_heavy(),
        );
        add_constant(
            &mut m,
            tid(2, 0),
            "antagonist",
            SchedClass::BestEffort,
            8.0,
            ResourceProfile::streaming(),
        );
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        let mut before = 0.0;
        for _ in 0..30 {
            m.tick(now, dt, &mut Vec::new());
            before += m.task(tid(1, 0)).unwrap().last_outcome().unwrap().cpi / 30.0;
            now += dt;
        }
        m.task_mut(tid(2, 0))
            .unwrap()
            .cgroup
            .apply_hard_cap(0.01, now + SimDuration::from_hours(1));
        // Let the cap take effect, then measure.
        let mut after = 0.0;
        for _ in 0..30 {
            m.tick(now, dt, &mut Vec::new());
            after += m.task(tid(1, 0)).unwrap().last_outcome().unwrap().cpi / 30.0;
            now += dt;
        }
        assert!(
            after < before * 0.8,
            "victim CPI before cap {before}, after {after}"
        );
    }

    #[test]
    fn counters_accumulate_consistently() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 5);
        add_constant(
            &mut m,
            tid(1, 0),
            "svc",
            SchedClass::LatencySensitive,
            1.0,
            ResourceProfile::compute_bound(),
        );
        for i in 0..10 {
            m.tick(
                SimTime::from_secs(i),
                SimDuration::from_secs(1),
                &mut Vec::new(),
            );
        }
        let c = m.task(tid(1, 0)).unwrap().cgroup.counters();
        // 10 s at 1 core of a 2.6 GHz machine.
        assert!((c.cycles - 2.6e10).abs() / 2.6e10 < 1e-6);
        assert!(c.instructions > 0.0);
        let cpi = c.cpi().unwrap();
        assert!(cpi > 0.7 && cpi < 1.2, "cpi={cpi}");
        assert!((c.cpu_time_us - 1e7).abs() < 1.0);
        assert!(c.context_switches > 0);
    }

    #[test]
    fn empty_machine_fast_path_is_inert() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 41);
        let mut exits = Vec::new();
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut exits);
        assert!(exits.is_empty());
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.throttle_events(), 0);
        // The fast path must not disturb the RNG stream: a task added
        // after N empty ticks behaves exactly as on a fresh machine.
        for i in 0..100 {
            m.tick(SimTime::from_secs(i), SimDuration::from_secs(1), &mut exits);
        }
        let mut fresh = Machine::new(MachineId(0), Platform::westmere(), 41);
        for machine in [&mut m, &mut fresh] {
            add_constant(
                machine,
                tid(1, 0),
                "svc",
                SchedClass::LatencySensitive,
                2.0,
                ResourceProfile::compute_bound(),
            );
            machine.tick(
                SimTime::from_secs(100),
                SimDuration::from_secs(1),
                &mut exits,
            );
        }
        let a = m.task(tid(1, 0)).unwrap().last_outcome().unwrap().cpi;
        let b = fresh.task(tid(1, 0)).unwrap().last_outcome().unwrap().cpi;
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn exits_buffer_is_appended_not_cleared() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 42);
        let mut exits = vec![TaskExit {
            id: tid(9, 9),
            at: SimTime::ZERO,
            capped: false,
        }];
        add_constant(
            &mut m,
            tid(1, 0),
            "svc",
            SchedClass::Batch,
            1.0,
            ResourceProfile::compute_bound(),
        );
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut exits);
        // Pre-existing contents survive; nothing exited this tick.
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].id, tid(9, 9));
    }

    #[test]
    fn remove_task_works() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 6);
        add_constant(
            &mut m,
            tid(1, 0),
            "a",
            SchedClass::Batch,
            1.0,
            ResourceProfile::compute_bound(),
        );
        assert_eq!(m.task_count(), 1);
        assert!(m.remove_task(tid(1, 0)));
        assert!(!m.remove_task(tid(1, 0)));
        assert_eq!(m.task_count(), 0);
    }

    #[test]
    fn thread_count_tracks_models() {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 7);
        add_constant(
            &mut m,
            tid(1, 0),
            "a",
            SchedClass::Batch,
            1.0,
            ResourceProfile::compute_bound(),
        );
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut Vec::new());
        assert_eq!(m.thread_count(), 4);
    }

    #[test]
    fn exiting_model_is_removed() {
        struct ExitAfter {
            ticks: u32,
        }
        impl TaskModel for ExitAfter {
            fn profile(&self) -> ResourceProfile {
                ResourceProfile::compute_bound()
            }
            fn demand(
                &mut self,
                _now: SimTime,
                _dt: SimDuration,
                _rng: &mut SimRng,
            ) -> crate::task::TaskDemand {
                crate::task::TaskDemand {
                    cpu_want: 1.0,
                    threads: 1,
                }
            }
            fn observe(&mut self, _now: SimTime, _o: &TickOutcome) -> TaskAction {
                if self.ticks == 0 {
                    TaskAction::Exit
                } else {
                    self.ticks -= 1;
                    TaskAction::Continue
                }
            }
        }
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 8);
        // The quitter sits between a latency-sensitive hog that fills all
        // 12 cores (4 threads, never starved) and a batch task that
        // therefore starves every tick (7 threads).
        add_constant(
            &mut m,
            tid(2, 0),
            "hog",
            SchedClass::LatencySensitive,
            12.0,
            ResourceProfile::compute_bound(),
        );
        m.add_task(
            TaskInstance {
                id: tid(1, 0),
                model: Box::new(ExitAfter { ticks: 2 }),
            },
            "quitter",
            SchedClass::Batch,
            Priority::NonProduction,
        );
        m.add_task(
            TaskInstance {
                id: tid(3, 0),
                model: Box::new(ConstantLoad::new(1.0, 7, ResourceProfile::compute_bound())),
            },
            "starved",
            SchedClass::Batch,
            Priority::NonProduction,
        );
        let mut exited = Vec::new();
        for i in 0..5 {
            m.tick(
                SimTime::from_secs(i),
                SimDuration::from_secs(1),
                &mut exited,
            );
        }
        assert_eq!(exited.len(), 1);
        assert_eq!(exited[0].id, tid(1, 0));
        assert_eq!(m.task_count(), 2);
        assert!(m.task(tid(1, 0)).is_none());
        // Each survivor keeps its own scheduler state across the exit.
        let (hog, starved) = (m.task(tid(2, 0)).unwrap(), m.task(tid(3, 0)).unwrap());
        assert_eq!((hog.threads(), hog.starved_ticks()), (4, 0));
        assert_eq!((starved.threads(), starved.starved_ticks()), (7, 5));
        assert_eq!(m.thread_count(), 11);
    }
}
