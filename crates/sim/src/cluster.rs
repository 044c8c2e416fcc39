//! The cluster: machines + scheduler + job lifecycle under one clock.
//!
//! A [`Cluster`] owns a set of heterogeneous machines and the central
//! scheduler, advances them in lock-step ticks, and manages job submission,
//! task exits/restarts, kills and migrations — the substrate every CPI²
//! experiment runs on.

use crate::job::{JobId, JobSpec, TaskId};
use crate::machine::{Machine, MachineId, TaskExit};
use crate::platform::Platform;
use crate::schedule::{ClusterEvent, EventQueue};
use crate::scheduler::{PlacementError, Scheduler};
use crate::task::{TaskInstance, TaskModel};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use cpi2_stats::Name;
use cpi2_telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;

/// Factory producing a fresh behaviour model for task `index` of a job.
///
/// Called at submission for every task, and again when a task is restarted
/// or migrated.
pub type ModelFactory = Box<dyn FnMut(u32) -> Box<dyn TaskModel>>;

/// Event-trace retention: the newest entries a cluster keeps.
const TRACE_CAPACITY: usize = 100_000;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Simulation tick length (default 1 s).
    pub tick: SimDuration,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Batch overcommit factor for the scheduler.
    pub overcommit: f64,
    /// §2's speculative-overcommit correction: when a batch task has been
    /// starved by machine pressure for this many consecutive ticks, the
    /// scheduler preempts it and restarts it on another machine. `None`
    /// disables preemption.
    pub preempt_starved_batch_after: Option<u32>,
    /// Worker threads for the per-machine phase of each tick. `1` runs the
    /// legacy serial path; higher values shard machines across a
    /// persistent worker pool by [`MachineId`] range. Traces and counters
    /// are bit-identical across any setting (see `Cluster::step`).
    /// Defaults to `1`: the pool has not measured a speedup at any fleet
    /// size the benchmark runs.
    pub parallelism: usize,
    /// Telemetry sink for simulator metrics (tick counts, CFS throttle
    /// events, worker-pool utilization). The default is a disabled no-op
    /// handle: metric calls cost one branch and wall clocks are never
    /// read. The tick's wall time is the harness's `sim.step` seam.
    pub telemetry: Telemetry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            tick: SimDuration::from_secs(1),
            seed: 0,
            overcommit: 1.5,
            preempt_starved_batch_after: None,
            parallelism: 1,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Cached telemetry handles for the simulator core.
#[derive(Debug, Clone, Default)]
struct SimMetrics {
    /// Ticks executed (`Cluster::step` calls).
    ticks: Counter,
    /// CFS-bandwidth throttle events: machine ticks where the cgroup
    /// model granted less CPU than tasks wanted.
    throttle_events: Counter,
    /// Worker-pool gauges/histograms, shared with [`crate::pool::TickPool`].
    pool: crate::pool::PoolMetrics,
}

impl SimMetrics {
    fn new(telemetry: &Telemetry) -> SimMetrics {
        SimMetrics {
            ticks: telemetry.counter("cpi_sim_ticks_total", &[]),
            throttle_events: telemetry.counter("cpi_sim_throttle_events_total", &[]),
            pool: crate::pool::PoolMetrics::new(telemetry),
        }
    }
}

struct JobInfo {
    spec: JobSpec,
    /// `spec.name`, allocated once at submit and shared by every task
    /// placed since.
    name: Name,
    factory: ModelFactory,
    restart_on_exit: bool,
    /// task index → (machine, cache footprint the scheduler accounted).
    // BTreeMap: rollback and accounting iterate placements, and the
    // float arithmetic they drive must not depend on hash order.
    placements: BTreeMap<u32, (MachineId, f64)>,
    next_index: u32,
}

/// A simulated shared compute cluster.
///
/// # Examples
///
/// ```
/// use cpi2_sim::{
///     Cluster, ClusterConfig, ConstantLoad, JobSpec, Platform, ResourceProfile, SimDuration,
/// };
///
/// let mut cluster = Cluster::new(ClusterConfig::default());
/// cluster.add_machines(&Platform::westmere(), 2);
/// cluster
///     .submit_job(
///         JobSpec::latency_sensitive("svc", 4, 1.0),
///         true,
///         Box::new(|_| Box::new(ConstantLoad::new(1.0, 4, ResourceProfile::cache_heavy()))),
///     )
///     .unwrap();
/// cluster.run_for(SimDuration::from_mins(1));
/// let tasks: usize = cluster.machines().iter().map(|m| m.task_count()).sum();
/// assert_eq!(tasks, 4);
/// ```
pub struct Cluster {
    config: ClusterConfig,
    machines: Vec<Machine>,
    scheduler: Scheduler,
    jobs: BTreeMap<JobId, JobInfo>,
    next_job: u32,
    now: SimTime,
    trace: Trace,
    events: EventQueue,
    /// Lazily spawned on the first parallel tick; sized to the effective
    /// worker count and respawned if that count changes.
    pool: Option<crate::pool::TickPool>,
    metrics: SimMetrics,
    /// Fleet-wide throttle-event total observed after the previous tick,
    /// so each tick adds only its delta to the counter.
    last_throttle_total: u64,
    /// Reused per-tick exit buffer (drained by the commit phase).
    exit_scratch: Vec<(MachineId, TaskExit)>,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let scheduler = Scheduler::new(config.overcommit, config.seed);
        let trace = Trace::new(TRACE_CAPACITY);
        let metrics = SimMetrics::new(&config.telemetry);
        Cluster {
            config,
            machines: Vec::new(),
            scheduler,
            jobs: BTreeMap::new(),
            next_job: 0,
            now: SimTime::ZERO,
            trace,
            events: EventQueue::new(),
            pool: None,
            metrics,
            last_throttle_total: 0,
            exit_scratch: Vec::new(),
        }
    }

    /// The telemetry handle this cluster reports to (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// Schedules a deferred event (job arrival, scripted kill/cap/migrate)
    /// to execute at simulated time `at`.
    pub fn schedule_event(&mut self, at: SimTime, event: ClusterEvent) {
        self.events.schedule(at, event);
    }

    /// Deferred events still pending.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Adds `count` machines of the given platform; returns their ids.
    pub fn add_machines(&mut self, platform: &Platform, count: u32) -> Vec<MachineId> {
        let mut ids = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = MachineId(self.machines.len() as u32);
            self.machines
                .push(Machine::new(id, platform.clone(), self.config.seed));
            self.scheduler
                .register_machine(id, platform.cores, platform.l3_mb);
            ids.push(id);
        }
        ids
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The tick length.
    pub fn tick_len(&self) -> SimDuration {
        self.config.tick
    }

    /// All machines.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// One machine by id.
    pub fn machine(&self, id: MachineId) -> Option<&Machine> {
        self.machines.get(id.0 as usize)
    }

    /// Mutable machine access (agents apply caps through this).
    pub fn machine_mut(&mut self, id: MachineId) -> Option<&mut Machine> {
        self.machines.get_mut(id.0 as usize)
    }

    /// The scheduler (to add anti-affinity constraints or switch policy).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Read-only scheduler access (reservation inspection).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Records a free-form note in the trace.
    pub fn note(&mut self, text: impl Into<String>) {
        self.trace.record(self.now, TraceEvent::Note(text.into()));
    }

    /// Submits a job, placing all of its tasks. `restart_on_exit` controls
    /// whether the cluster respawns tasks that exit on their own (frameworks
    /// like MapReduce that manage their own workers pass `false`).
    ///
    /// # Errors
    ///
    /// Fails if any task cannot be placed; tasks placed so far are rolled
    /// back, and the trace records none of them.
    pub fn submit_job(
        &mut self,
        spec: JobSpec,
        restart_on_exit: bool,
        factory: ModelFactory,
    ) -> Result<JobId, PlacementError> {
        let job = JobId(self.next_job);
        let task_count = spec.task_count;
        self.jobs.insert(
            job,
            JobInfo {
                name: Name::from(spec.name.as_str()),
                spec,
                factory,
                restart_on_exit,
                placements: BTreeMap::new(),
                next_index: task_count,
            },
        );
        for index in 0..task_count {
            if let Err(e) = self.place_task(TaskId { job, index }, None) {
                // Roll back what was placed (`release_task` forgets each).
                while let Some((&index, &(machine, _))) =
                    self.jobs[&job].placements.first_key_value()
                {
                    let task = TaskId { job, index };
                    self.machines[machine.0 as usize].remove_task(task);
                    self.release_task(task, machine);
                }
                self.jobs.remove(&job);
                return Err(e);
            }
        }
        let info = &self.jobs[&job];
        for (&index, &(machine, _)) in &info.placements {
            let task = TaskId { job, index };
            self.trace
                .record(self.now, TraceEvent::TaskPlaced { task, machine });
        }
        let name = info.spec.name.clone();
        self.trace
            .record(self.now, TraceEvent::JobSubmitted { job, name });
        self.next_job += 1;
        Ok(job)
    }

    /// Places `task` of a submitted job with a fresh model from the job's
    /// factory: the scheduler picks a machine (never `exclude` unless it is
    /// the only one that fits), the machine gets the task, and the
    /// placement map remembers where it went. The caller records the
    /// trace event.
    fn place_task(
        &mut self,
        task: TaskId,
        exclude: Option<MachineId>,
    ) -> Result<MachineId, PlacementError> {
        let info = self.jobs.get_mut(&task.job).expect("job exists");
        // Build the model first: cache-aware placement needs its footprint.
        let model = (info.factory)(task.index);
        let cache_mb = model.profile().cache_mb;
        let spec = &info.spec;
        let machine = self.scheduler.place(
            task.job,
            spec.class,
            spec.cpu_reservation,
            cache_mb,
            exclude,
        )?;
        self.machines[machine.0 as usize].add_task(
            TaskInstance { id: task, model },
            info.name.clone(),
            spec.class,
            spec.priority,
        );
        info.placements.insert(task.index, (machine, cache_mb));
        Ok(machine)
    }

    /// Forgets where `task` ran and returns its reservation on `machine`
    /// to the scheduler. The machine must already be rid of the task.
    fn release_task(&mut self, task: TaskId, machine: MachineId) {
        let Some(info) = self.jobs.get_mut(&task.job) else {
            return;
        };
        let cache_mb = info
            .placements
            .remove(&task.index)
            .map_or(0.0, |(_, cache_mb)| cache_mb);
        let spec = &info.spec;
        self.scheduler.release(
            machine,
            task.job,
            spec.class,
            spec.cpu_reservation,
            cache_mb,
        );
    }

    /// Releases a task that died on `machine` (it exited, or the machine
    /// crashed) and, if its job restarts exited tasks, places it again
    /// under the same index — possibly on the same machine.
    fn respawn(&mut self, task: TaskId, machine: MachineId) {
        let Some(info) = self.jobs.get(&task.job) else {
            return;
        };
        let restart = info.restart_on_exit;
        self.release_task(task, machine);
        if restart {
            if let Ok(machine) = self.place_task(task, None) {
                self.trace
                    .record(self.now, TraceEvent::TaskPlaced { task, machine });
            }
        }
    }

    /// Machine currently hosting a task.
    pub fn locate(&self, task: TaskId) -> Option<MachineId> {
        self.jobs
            .get(&task.job)
            .and_then(|j| j.placements.get(&task.index))
            .map(|&(m, _)| m)
    }

    /// Iterates `(JobId, &JobSpec)` for all submitted jobs.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &JobSpec)> {
        self.jobs.iter().map(|(&id, info)| (id, &info.spec))
    }

    /// Kills a task outright (the operator action of §5). Returns `true`
    /// if the task was running.
    pub fn kill_task(&mut self, task: TaskId) -> bool {
        let Some(machine) = self.locate(task) else {
            return false;
        };
        let removed = self.machines[machine.0 as usize].remove_task(task);
        if removed {
            self.release_task(task, machine);
            self.trace
                .record(self.now, TraceEvent::TaskKilled { task, machine });
        }
        removed
    }

    /// Kills a task and restarts a replacement on a different machine —
    /// the paper's "version of task migration" (§5). Returns the new
    /// machine. The replacement gets a fresh model from the job's factory
    /// and a **new task index** (restarted work loses progress, as the
    /// paper notes).
    ///
    /// # Errors
    ///
    /// Fails if the replacement cannot be placed (the kill still happens).
    pub fn migrate_task(&mut self, task: TaskId) -> Result<MachineId, PlacementError> {
        let Some(from) = self.locate(task) else {
            return Err(PlacementError::NoCapacity);
        };
        if !self.kill_task(task) {
            return Err(PlacementError::NoCapacity);
        }
        let index = self.jobs[&task.job].next_index;
        let to = self.place_task(TaskId { index, ..task }, Some(from))?;
        self.jobs.get_mut(&task.job).expect("job exists").next_index += 1;
        self.trace
            .record(self.now, TraceEvent::TaskMigrated { task, from, to });
        Ok(to)
    }

    /// Applies a CPU hard cap to a task's cgroup, recording it in the trace.
    /// Returns `false` if the task is not running.
    pub fn apply_hard_cap(&mut self, task: TaskId, cpu_rate: f64, until: SimTime) -> bool {
        let Some(machine) = self.locate(task) else {
            return false;
        };
        let Some(t) = self.machines[machine.0 as usize].task_mut(task) else {
            return false;
        };
        t.cgroup.apply_hard_cap(cpu_rate, until);
        self.trace.record(
            self.now,
            TraceEvent::CapApplied {
                task,
                cpu_rate,
                until,
            },
        );
        true
    }

    /// Removes any live hard cap from a task's cgroup (the probe-release
    /// path of active identification schemes). Returns `false` if the task
    /// is not running.
    pub fn remove_hard_cap(&mut self, task: TaskId) -> bool {
        let Some(machine) = self.locate(task) else {
            return false;
        };
        let Some(t) = self.machines[machine.0 as usize].task_mut(task) else {
            return false;
        };
        t.cgroup.remove_hard_cap();
        true
    }

    /// Crashes and reboots a machine: every resident task dies with it and
    /// the machine comes back empty with fresh cgroup/counter state (the
    /// same seed-derived RNG, so replays stay deterministic). Tasks from
    /// `restart_on_exit` jobs are rescheduled immediately — possibly onto
    /// the rebooted machine itself — keeping the same task index, exactly
    /// like an in-place task restart. Returns the number of tasks lost.
    pub fn crash_machine(&mut self, id: MachineId) -> usize {
        let Some(machine) = self.machines.get_mut(id.0 as usize) else {
            return 0;
        };
        let lost: Vec<TaskId> = machine.tasks().map(|t| t.id).collect();
        *machine = Machine::new(id, machine.platform.clone(), self.config.seed);
        self.trace.record(
            self.now,
            TraceEvent::MachineCrashed {
                machine: id,
                tasks_lost: lost.len() as u32,
            },
        );
        for &task in &lost {
            self.respawn(task, id);
        }
        lost.len()
    }

    /// Advances the cluster by one tick.
    pub fn step(&mut self) {
        // Execute scripted events that are due before this tick runs.
        for event in self.events.due(self.now) {
            match event {
                ClusterEvent::SubmitJob {
                    spec,
                    restart_on_exit,
                    factory,
                } => {
                    let _ = self.submit_job(spec, restart_on_exit, factory);
                }
                ClusterEvent::KillTask(t) => {
                    self.kill_task(t);
                }
                ClusterEvent::MigrateTask(t) => {
                    let _ = self.migrate_task(t);
                }
                ClusterEvent::HardCap {
                    task,
                    cpu_rate,
                    until,
                } => {
                    self.apply_hard_cap(task, cpu_rate, until);
                }
                ClusterEvent::Note(s) => self.note(s),
            }
        }

        // Phase 1 — parallel per-machine ticks. Machines are independent
        // within a tick (each owns its RNG, tasks and counters), so they
        // are sharded across a persistent worker pool by contiguous
        // MachineId range. Exits are merged back in machine order, which
        // makes the trace bit-identical to the serial path under the same
        // seed.
        let dt = self.config.tick;
        let now = self.now;
        self.metrics.ticks.inc();
        let workers = self
            .config
            .parallelism
            .max(1)
            .min(self.machines.len().max(1));
        // Exits collect into a buffer pooled across ticks (the commit
        // phase below drains it and hands it back).
        let mut all_exits = std::mem::take(&mut self.exit_scratch);
        if workers <= 1 {
            // Serial path (parallelism = 1): the same grouped machine
            // phase each pool worker runs over its shard.
            crate::machine::tick_group(&mut self.machines, now, dt, |id, exit| {
                all_exits.push((id, exit))
            });
        } else {
            let pool = match &mut self.pool {
                Some(p) if p.workers() == workers => p,
                slot => slot.insert(crate::pool::TickPool::new(workers)),
            };
            pool.tick(
                &mut self.machines,
                now,
                dt,
                &mut all_exits,
                Some(&self.metrics.pool),
            );
        }
        self.now += dt;
        if self.metrics.ticks.enabled() {
            // Telemetry is observational only: the throttle tally reads the
            // machines' own deterministic counters and never feeds back.
            let total: u64 = self.machines.iter().map(Machine::throttle_events).sum();
            self.metrics
                .throttle_events
                .add(total.saturating_sub(self.last_throttle_total));
            self.last_throttle_total = total;
        }

        // Phase 2 — serial commit: everything below mutates shared cluster
        // state (scheduler reservations, placements, trace, event queue)
        // and runs on the caller's thread in deterministic order.

        // Batch preemption: the scheduler guessed wrong, move the task.
        if let Some(limit) = self.config.preempt_starved_batch_after {
            let starved: Vec<TaskId> = self
                .machines
                .iter()
                .flat_map(|m| m.tasks())
                .filter(|t| {
                    t.class != crate::job::SchedClass::LatencySensitive
                        && t.starved_ticks() >= limit
                })
                .map(|t| t.id)
                .collect();
            for task in starved {
                // Best effort: if no machine has room the task stays put
                // (and keeps accruing starvation).
                let _ = self.migrate_task(task);
            }
        }
        for (machine, exit) in all_exits.drain(..) {
            self.trace.record(
                exit.at,
                TraceEvent::TaskExited {
                    task: exit.id,
                    machine,
                    capped: exit.capped,
                },
            );
            self.respawn(exit.id, machine);
        }
        self.exit_scratch = all_exits;
    }

    /// Runs the cluster for a duration (whole ticks).
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            self.step();
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("machines", &self.machines.len())
            .field("jobs", &self.jobs.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ConstantLoad, ResourceProfile};

    fn constant_factory(cpu: f64) -> ModelFactory {
        Box::new(move |_| Box::new(ConstantLoad::new(cpu, 4, ResourceProfile::compute_bound())))
    }

    fn small_cluster() -> Cluster {
        let mut c = Cluster::new(ClusterConfig::default());
        c.add_machines(&Platform::westmere(), 4);
        c
    }

    #[test]
    fn submit_places_all_tasks() {
        let mut c = small_cluster();
        let job = c
            .submit_job(
                JobSpec::latency_sensitive("svc", 8, 1.0),
                true,
                constant_factory(1.0),
            )
            .unwrap();
        let placed: usize = c.machines().iter().map(|m| m.task_count()).sum();
        assert_eq!(placed, 8);
        for i in 0..8 {
            assert!(c.locate(TaskId { job, index: i }).is_some());
        }
    }

    #[test]
    fn submit_rolls_back_on_failure() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.add_machines(&Platform::westmere(), 1); // 12 cores only.
        let err = c.submit_job(
            JobSpec::latency_sensitive("big", 4, 5.0),
            true,
            constant_factory(5.0),
        );
        assert!(err.is_err());
        assert_eq!(c.machines()[0].task_count(), 0);
        // Capacity is fully restored.
        c.submit_job(
            JobSpec::latency_sensitive("ok", 2, 5.0),
            true,
            constant_factory(5.0),
        )
        .unwrap();
    }

    #[test]
    fn failed_submission_leaves_no_placement_in_trace() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.add_machines(&Platform::westmere(), 1); // 12 cores: the 3rd task does not fit.
        let err = c.submit_job(
            JobSpec::latency_sensitive("big", 3, 5.0),
            true,
            constant_factory(5.0),
        );
        assert_eq!(err, Err(PlacementError::NoCapacity));
        assert!(
            !c.trace()
                .entries()
                .any(|e| matches!(e.event, TraceEvent::TaskPlaced { .. })),
            "a rolled-back job must leave no TaskPlaced"
        );
        assert_eq!(c.machines()[0].task_count(), 0);
        assert_eq!(c.scheduler().reservations(MachineId(0)), Some((0.0, 0.0)));
        assert_eq!(c.scheduler().reserved_cache_mb(MachineId(0)), Some(0.0));
    }

    #[test]
    fn step_advances_time_and_runs_tasks() {
        let mut c = small_cluster();
        c.submit_job(JobSpec::batch("b", 2, 1.0), true, constant_factory(1.0))
            .unwrap();
        c.run_for(SimDuration::from_secs(10));
        assert_eq!(c.now(), SimTime::from_secs(10));
        let total_instr: f64 = c
            .machines()
            .iter()
            .flat_map(|m| m.tasks())
            .map(|t| t.cgroup.counters().instructions)
            .sum();
        assert!(total_instr > 0.0);
    }

    #[test]
    fn kill_task_releases_capacity() {
        let mut c = small_cluster();
        let job = c
            .submit_job(JobSpec::batch("b", 1, 1.0), false, constant_factory(1.0))
            .unwrap();
        let id = TaskId { job, index: 0 };
        assert!(c.kill_task(id));
        assert!(c.locate(id).is_none());
        assert!(!c.kill_task(id));
        let placed: usize = c.machines().iter().map(|m| m.task_count()).sum();
        assert_eq!(placed, 0);
    }

    #[test]
    fn migrate_moves_task() {
        let mut c = small_cluster();
        let job = c
            .submit_job(JobSpec::batch("b", 1, 1.0), false, constant_factory(1.0))
            .unwrap();
        let old = TaskId { job, index: 0 };
        let old_machine = c.locate(old).unwrap();
        let new_machine = c.migrate_task(old).unwrap();
        assert!(c.locate(old).is_none());
        // The replacement has a fresh index.
        let replacement = TaskId { job, index: 1 };
        assert_eq!(c.locate(replacement), Some(new_machine));
        let _ = old_machine; // May equal new_machine on a tiny cluster.
    }

    #[test]
    fn hard_cap_via_cluster() {
        let mut c = small_cluster();
        let job = c
            .submit_job(
                JobSpec::best_effort("be", 1, 4.0),
                false,
                constant_factory(4.0),
            )
            .unwrap();
        let id = TaskId { job, index: 0 };
        assert!(c.apply_hard_cap(id, 0.01, SimTime::from_mins(5)));
        c.step();
        let m = c.locate(id).unwrap();
        let out = c
            .machine(m)
            .unwrap()
            .task(id)
            .unwrap()
            .last_outcome()
            .unwrap();
        assert!(out.capped);
        assert!(out.cpu_granted <= 0.011);
    }

    #[test]
    fn restart_on_exit_respawns() {
        struct ExitOnce {
            done: bool,
        }
        impl TaskModel for ExitOnce {
            fn profile(&self) -> ResourceProfile {
                ResourceProfile::compute_bound()
            }
            fn demand(
                &mut self,
                _now: SimTime,
                _dt: SimDuration,
                _rng: &mut cpi2_stats::rng::SimRng,
            ) -> crate::task::TaskDemand {
                crate::task::TaskDemand {
                    cpu_want: 1.0,
                    threads: 1,
                }
            }
            fn observe(
                &mut self,
                _now: SimTime,
                _o: &crate::task::TickOutcome,
            ) -> crate::task::TaskAction {
                if self.done {
                    crate::task::TaskAction::Continue
                } else {
                    self.done = true;
                    crate::task::TaskAction::Exit
                }
            }
        }
        let mut c = small_cluster();
        let mut spawned = 0u32;
        let job = c
            .submit_job(
                JobSpec::latency_sensitive("flaky", 1, 1.0),
                true,
                Box::new(move |_| {
                    spawned += 1;
                    Box::new(ExitOnce { done: spawned > 1 })
                }),
            )
            .unwrap();
        c.step(); // Task exits...
        c.step(); // ...and the replacement runs.
        assert!(c.locate(TaskId { job, index: 0 }).is_some());
        let placed: usize = c.machines().iter().map(|m| m.task_count()).sum();
        assert_eq!(placed, 1);
    }

    #[test]
    fn telemetry_counts_ticks_and_throttles() {
        let telemetry = Telemetry::enabled();
        let mut c = Cluster::new(ClusterConfig {
            telemetry: telemetry.clone(),
            parallelism: 2,
            ..ClusterConfig::default()
        });
        c.add_machines(&Platform::westmere(), 4);
        // Hard-cap a hungry task so the CFS bandwidth model must throttle.
        let job = c
            .submit_job(
                JobSpec::best_effort("hog", 1, 4.0),
                true,
                Box::new(|_| Box::new(ConstantLoad::new(4.0, 8, ResourceProfile::compute_bound()))),
            )
            .unwrap();
        assert!(c.apply_hard_cap(TaskId { job, index: 0 }, 0.1, SimTime::from_mins(5)));
        c.run_for(SimDuration::from_secs(5));
        let text = telemetry.prometheus_text().unwrap();
        assert!(text.contains("cpi_sim_ticks_total 5"), "{text}");
        let throttles: u64 = c.machines().iter().map(Machine::throttle_events).sum();
        assert!(throttles > 0, "oversubscribed fleet must throttle");
        assert!(
            text.contains(&format!("cpi_sim_throttle_events_total {throttles}")),
            "{text}"
        );
    }

    #[test]
    fn telemetry_disabled_reads_no_clock_and_counts_nothing() {
        let mut c = small_cluster();
        c.submit_job(JobSpec::batch("b", 2, 1.0), true, constant_factory(1.0))
            .unwrap();
        c.run_for(SimDuration::from_secs(3));
        assert!(c.telemetry().prometheus_text().is_none());
        assert_eq!(c.last_throttle_total, 0);
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut c = small_cluster();
        let job = c
            .submit_job(JobSpec::batch("b", 1, 1.0), false, constant_factory(1.0))
            .unwrap();
        c.kill_task(TaskId { job, index: 0 });
        let kinds: Vec<_> = c.trace().entries().map(|e| &e.event).collect();
        assert!(kinds
            .iter()
            .any(|e| matches!(e, TraceEvent::JobSubmitted { .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e, TraceEvent::TaskPlaced { .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e, TraceEvent::TaskKilled { .. })));
    }

    #[test]
    fn crash_machine_kills_and_respawns_resident_tasks() {
        let mut c = small_cluster();
        let job = c
            .submit_job(
                JobSpec::latency_sensitive("svc", 8, 1.0),
                true,
                constant_factory(1.0),
            )
            .unwrap();
        c.run_for(SimDuration::from_secs(3));
        let target = c.locate(TaskId { job, index: 0 }).unwrap();
        let resident = c.machine(target).unwrap().task_count();
        assert!(resident > 0);
        let lost = c.crash_machine(target);
        assert_eq!(lost, resident);
        // The machine rebooted empty-or-refilled, and every task of the
        // restart_on_exit job is running again somewhere.
        let placed: usize = c.machines().iter().map(|m| m.task_count()).sum();
        assert_eq!(placed, 8, "all crashed tasks must respawn");
        for i in 0..8 {
            assert!(c.locate(TaskId { job, index: i }).is_some());
        }
        assert!(c.trace().entries().any(
            |e| matches!(e.event, TraceEvent::MachineCrashed { machine, .. } if machine == target)
        ));
        // Scheduler accounting survived: the cluster can keep running.
        c.run_for(SimDuration::from_secs(3));
    }

    #[test]
    fn crash_machine_without_restart_drops_tasks() {
        let mut c = small_cluster();
        let job = c
            .submit_job(JobSpec::batch("b", 4, 1.0), false, constant_factory(1.0))
            .unwrap();
        let target = c.locate(TaskId { job, index: 0 }).unwrap();
        let resident = c.machine(target).unwrap().task_count();
        let lost = c.crash_machine(target);
        assert_eq!(lost, resident);
        let placed: usize = c.machines().iter().map(|m| m.task_count()).sum();
        assert_eq!(placed, 4 - resident);
        assert!(c.locate(TaskId { job, index: 0 }).is_none());
    }

    #[test]
    fn crash_unknown_machine_is_noop() {
        let mut c = small_cluster();
        assert_eq!(c.crash_machine(MachineId(99)), 0);
        assert!(c.trace().is_empty());
    }
}
