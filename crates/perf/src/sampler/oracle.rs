//! The sampler this crate shipped before an idle poll became a compare —
//! a `HashMap` of samplers keyed by source id, the schedule's
//! `rem_euclid` evaluated on every poll, the open window moved out of and
//! back into its `Option`, baselines in a fresh `HashMap` built from an
//! owned snapshot — kept, test-only, as the reference the live samplers
//! must match reading for reading and metric for metric.

// Redundant with the parent's `#[cfg(test)] mod oracle;` for rustc; it is
// what tells `cpi2-lint`, which reads one file at a time, that none of
// this ships.
#![cfg(test)]

use super::*;
use cpi2_sim::{
    Cluster, ClusterConfig, ConstantLoad, JobId, JobSpec, MachineId, Platform, Priority,
    ResourceProfile, SchedClass, TaskInstance,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

/// In-flight counting window.
#[derive(Debug)]
struct OpenWindow {
    started: SimTime,
    baseline: HashMap<TaskId, CounterBlock>,
}

/// The per-machine sampler as it was.
#[derive(Debug)]
struct ReferenceSampler {
    config: SamplerConfig,
    open: Option<OpenWindow>,
    metrics: SamplerMetrics,
}

impl ReferenceSampler {
    fn with_telemetry(config: SamplerConfig, telemetry: &Telemetry) -> Self {
        config.validate();
        ReferenceSampler {
            config,
            open: None,
            metrics: SamplerMetrics::new(telemetry),
        }
    }

    fn in_window(&self, now: SimTime) -> bool {
        let pos = now.as_us().rem_euclid(self.config.period.as_us());
        let start = self.config.phase.as_us();
        pos >= start && pos < start + self.config.window.as_us()
    }

    fn poll(&mut self, source: &dyn CounterSource, now: SimTime) -> Vec<CounterReading> {
        match (self.open.take(), self.in_window(now)) {
            (None, true) => {
                let baseline = source
                    .snapshot()
                    .into_iter()
                    .map(|tc| (tc.task, tc.counters))
                    .collect();
                self.open = Some(OpenWindow {
                    started: now,
                    baseline,
                });
                Vec::new()
            }
            (Some(w), false) => {
                let window = now - w.started;
                if window.as_us() <= 0 {
                    return Vec::new();
                }
                let mut out = Vec::new();
                for tc in source.snapshot() {
                    let Some(base) = w.baseline.get(&tc.task) else {
                        continue;
                    };
                    let d = tc.counters.delta(base);
                    if d.cpu_time_us < 0.0 {
                        continue;
                    }
                    let kinstr = d.instructions / 1000.0;
                    out.push(CounterReading {
                        task: tc.task,
                        job_name: tc.job_name,
                        platform: Name::clone(source.platform_name()),
                        timestamp: now,
                        window,
                        cpu_usage: d.cpu_time_us / window.as_us() as f64,
                        cpi: d.cpi(),
                        instructions: d.instructions,
                        l3_mpki: if kinstr > 0.0 {
                            d.l3_misses / kinstr
                        } else {
                            0.0
                        },
                        l2_mpki: if kinstr > 0.0 {
                            d.l2_misses / kinstr
                        } else {
                            0.0
                        },
                        mem_lines_per_cycle: if d.cycles > 0.0 {
                            d.mem_lines / d.cycles
                        } else {
                            0.0
                        },
                        overhead_us: d.context_switches as f64 * source.counter_switch_us(),
                    });
                }
                self.metrics.windows_total.inc();
                self.metrics.readings_total.add(out.len() as u64);
                self.metrics
                    .duty_cycle_coverage
                    .set(window.as_us() as f64 / self.config.period.as_us() as f64);
                self.metrics.multiplex_occupancy.record(out.len() as f64);
                out
            }
            (open, _) => {
                self.open = open;
                Vec::new()
            }
        }
    }
}

/// The cluster-wide sampler as it was.
struct ReferenceCluster {
    samplers: HashMap<u32, ReferenceSampler>,
    telemetry: Telemetry,
}

impl ReferenceCluster {
    fn poll(&mut self, source: &dyn CounterSource, now: SimTime) -> Vec<CounterReading> {
        let telemetry = &self.telemetry;
        let sampler = self.samplers.entry(source.source_id()).or_insert_with(|| {
            let base = SamplerConfig::default();
            let slots = ((base.period.as_us() - base.window.as_us()) / cpi2_sim::time::US_PER_SEC)
                as u64
                + 1;
            let phase = SimDuration::from_secs((source.source_id() as u64 % slots) as i64);
            ReferenceSampler::with_telemetry(SamplerConfig { phase, ..base }, telemetry)
        });
        sampler.poll(source, now)
    }
}

/// Every field of every reading, floats by bit pattern, in order.
fn bits(readings: &[CounterReading]) -> Vec<(TaskId, String, String, [u64; 9])> {
    readings
        .iter()
        .map(|r| {
            (
                r.task,
                r.job_name.to_string(),
                r.platform.to_string(),
                [
                    r.timestamp.as_us() as u64,
                    r.window.as_us() as u64,
                    r.cpu_usage.to_bits(),
                    r.cpi.map_or(u64::MAX, f64::to_bits),
                    r.instructions.to_bits(),
                    r.l3_mpki.to_bits(),
                    r.l2_mpki.to_bits(),
                    r.mem_lines_per_cycle.to_bits(),
                    r.overhead_us.to_bits(),
                ],
            )
        })
        .collect()
}

/// The `cpi_sampler_*` lines of a Prometheus scrape.
fn sampler_series(telemetry: &Telemetry) -> String {
    telemetry
        .prometheus_text()
        .expect("enabled")
        .lines()
        .filter(|l| l.contains("cpi_sampler_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Both samplers, polled with the same `(source, now)` stream.
struct Pair {
    live: ClusterSampler,
    live_telemetry: Telemetry,
    reference: ReferenceCluster,
    reference_telemetry: Telemetry,
    readings: usize,
}

impl Pair {
    fn new() -> Pair {
        let live_telemetry = Telemetry::enabled();
        let reference_telemetry = Telemetry::enabled();
        Pair {
            live: ClusterSampler::with_telemetry(&live_telemetry),
            live_telemetry,
            reference: ReferenceCluster {
                samplers: HashMap::new(),
                telemetry: reference_telemetry.clone(),
            },
            reference_telemetry,
            readings: 0,
        }
    }

    fn poll_fleet(&mut self, cluster: &Cluster, now: SimTime) -> Result<(), TestCaseError> {
        for machine in cluster.machines() {
            let got = self.live.poll(machine, now);
            let want = self.reference.poll(machine, now);
            prop_assert_eq!(bits(&got), bits(&want), "{} at {}", machine.id, now);
            self.readings += got.len();
        }
        Ok(())
    }
}

/// A constant-load task added behind the scheduler's back (the samplers
/// see only what is resident).
fn add_task(cluster: &mut Cluster, machine: u32, task: TaskId, cpu: f64) {
    if let Some(m) = cluster.machine_mut(MachineId(machine)) {
        m.add_task(
            TaskInstance {
                id: task,
                model: Box::new(ConstantLoad::new(cpu, 3, ResourceProfile::cache_heavy())),
            },
            format!("job{}", task.job.0),
            SchedClass::Batch,
            Priority::NonProduction,
        );
    }
}

/// The `pick`-th resident task of a machine, if it has any.
fn resident(cluster: &Cluster, machine: u32, pick: u32) -> Option<TaskId> {
    let m = cluster.machine(MachineId(machine))?;
    let id = m.tasks().nth(pick as usize % m.task_count().max(1))?.id;
    Some(id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fleet wide enough for every phase (0–50 s, and id 51 wrapping to
    /// 0) under a generated schedule: ticks that do and do not divide the
    /// period, a start that lands some machines mid-window, polls
    /// skipped for longer than a period, repeated at one `now` and made
    /// with a `now` that steps back; tasks arriving mid-window, leaving,
    /// restarting in place with reset counters, and machines replaced
    /// whole by `crash_machine` (a restarting job's tasks land back with
    /// their old ids and zeroed counters).
    #[test]
    fn live_samplers_match_the_reference(
        tick_choice in 0..3usize,
        warmup_ticks in 0..90u32,
        seed in any::<u64>(),
        ops in prop::collection::vec((0..12u8, 0..52u32, 0..8u32), 30..120),
    ) {
        const MACHINES: u32 = 52;
        let tick = [250_000, 1_000_000, 7_000_000][tick_choice];
        let mut cluster = Cluster::new(ClusterConfig {
            tick: SimDuration(tick),
            seed,
            parallelism: 1,
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), MACHINES / 2);
        cluster.add_machines(&Platform::sandy_bridge(), MACHINES - MACHINES / 2);
        cluster
            .submit_job(
                JobSpec::latency_sensitive("svc", 40, 0.5),
                true,
                Box::new(|_| Box::new(ConstantLoad::new(0.5, 4, ResourceProfile::cache_heavy()))),
            )
            .expect("placement");
        for machine in 0..MACHINES {
            add_task(&mut cluster, machine, TaskId { job: JobId(100 + machine), index: 0 }, 0.7);
        }
        // Unsampled time first, so the first poll finds each machine at a
        // different point of its schedule.
        for _ in 0..warmup_ticks {
            cluster.step();
        }

        let mut pair = Pair::new();
        let mut next_job = 1_000;
        for &(kind, machine, arg) in &ops {
            match kind {
                // Task arrives.
                0 => {
                    next_job += 1;
                    add_task(&mut cluster, machine, TaskId { job: JobId(next_job), index: arg }, 0.3);
                }
                // Task leaves.
                1 => {
                    if let Some(task) = resident(&cluster, machine, arg) {
                        cluster.machine_mut(MachineId(machine)).expect("machine").remove_task(task);
                    }
                }
                // Task restarts in place: same id, counters back at zero.
                2 => {
                    if let Some(task) = resident(&cluster, machine, arg) {
                        cluster.machine_mut(MachineId(machine)).expect("machine").remove_task(task);
                        add_task(&mut cluster, machine, task, 0.9);
                    }
                }
                3 => {
                    cluster.crash_machine(MachineId(machine));
                }
                // Polls stop for up to ~1.5 periods (at the 7 s tick) while time runs.
                4 => {
                    for _ in 0..(arg + 1) * 2 {
                        cluster.step();
                    }
                }
                // The same `now` again.
                5 => pair.poll_fleet(&cluster, cluster.now())?,
                // A `now` that steps back, by less or more than a window.
                6 => {
                    let back = SimDuration(i64::from(arg + 1) * 3_100_000);
                    pair.poll_fleet(&cluster, SimTime(cluster.now().as_us() - back.as_us()))?;
                }
                // The ordinary tick: advance, then poll.
                _ => {
                    for _ in 0..=arg {
                        cluster.step();
                        pair.poll_fleet(&cluster, cluster.now())?;
                    }
                }
            }
        }
        // Long enough at the end for every phase to close a window.
        for _ in 0..(130_000_000 / tick) {
            cluster.step();
            pair.poll_fleet(&cluster, cluster.now())?;
        }
        prop_assert!(pair.readings > 0);
        prop_assert_eq!(
            sampler_series(&pair.live_telemetry),
            sampler_series(&pair.reference_telemetry)
        );
    }
}

/// A source that lends nothing: the provided `visit_counters` walks its
/// owned snapshot, and the samplers agree over it too.
struct SnapshotOnly<'a>(&'a cpi2_sim::Machine);

impl CounterSource for SnapshotOnly<'_> {
    fn source_id(&self) -> u32 {
        self.0.source_id()
    }
    fn platform_name(&self) -> &Name {
        self.0.platform_name()
    }
    fn counter_switch_us(&self) -> f64 {
        self.0.counter_switch_us()
    }
    fn snapshot(&self) -> Vec<crate::backend::TaskCounters> {
        self.0.snapshot()
    }
}

#[test]
fn provided_visitor_walks_the_snapshot() {
    let mut cluster = Cluster::new(ClusterConfig {
        parallelism: 1,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 1);
    for i in 0..5 {
        add_task(
            &mut cluster,
            0,
            TaskId {
                job: JobId(i),
                index: 0,
            },
            0.5,
        );
    }
    let mut pair = Pair::new();
    let mut total = 0;
    for _ in 0..150 {
        cluster.step();
        let machine = SnapshotOnly(&cluster.machines()[0]);
        let got = pair.live.poll(&machine, cluster.now());
        let want = pair.reference.poll(&machine, cluster.now());
        assert_eq!(bits(&got), bits(&want));
        total += got.len();
    }
    assert_eq!(total, 15); // Windows close at 10, 70 and 130 s.
}
