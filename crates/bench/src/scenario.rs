//! Case-study scenario construction (§6's testbed machines).
//!
//! Each case study needs the same skeleton: a victim job with a learned
//! spec, a crowd of co-tenants (the paper's machines hosted 28–57), one
//! antagonist co-resident with a victim task, and a timeline recording of
//! victim CPI / antagonist CPU / thread count around the intervention.

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, JobSpec, MachineId, ModelFactory, Platform, ResourceProfile,
    SimDuration, TaskId,
};
use cpi2::workloads::LsService;

/// Parameters of a case-study scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Master seed.
    pub seed: u64,
    /// Machines in the mini-cluster.
    pub machines: u32,
    /// Victim-job task count (≥5 for spec eligibility).
    pub victim_tasks: u32,
    /// Small co-tenant tasks across the cluster (drives per-machine
    /// tenancy toward the paper's 28–57).
    pub tenants: u32,
    /// Spec warm-up length before the antagonist arrives.
    pub warmup: SimDuration,
    /// Whether the agents may cap automatically.
    pub auto_throttle: bool,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 1,
            machines: 6,
            victim_tasks: 6,
            tenants: 120,
            warmup: SimDuration::from_mins(30),
            auto_throttle: false,
        }
    }
}

/// A built scenario: the running system plus the principal actors.
pub struct CaseScenario {
    /// The assembled CPI² system.
    pub system: Cpi2Harness,
    /// The machine where victim and antagonist collide.
    pub machine: MachineId,
    /// The victim task on that machine.
    pub victim: TaskId,
    /// The antagonist task on that machine.
    pub antagonist: TaskId,
}

/// Builds a scenario: victim job + tenants, warm-up, spec refresh, then
/// the antagonist submitted and located. Returns `None` if the scheduler's
/// placement left no victim task next to the antagonist (retry with
/// another seed).
pub fn build_case(
    spec: &ScenarioSpec,
    antagonist: JobSpec,
    antagonist_restart: bool,
    antagonist_factory: ModelFactory,
) -> Option<CaseScenario> {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: spec.seed,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), spec.machines);
    let seed = spec.seed;
    let victim_job = cluster
        .submit_job(
            JobSpec::latency_sensitive("victim-service", spec.victim_tasks, 1.2),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.2,
                    12,
                    seed ^ (i as u64) << 9,
                ))
            }),
        )
        .ok()?;
    if spec.tenants > 0 {
        cluster
            .submit_job(
                JobSpec::latency_sensitive("tenant", spec.tenants, 0.1),
                true,
                Box::new(move |i| {
                    let mut p = ResourceProfile::compute_bound();
                    p.cache_mb = 0.3;
                    p.cache_sensitivity = 0.1;
                    Box::new(LsService::new(p, 0.1, 6, seed ^ 0x7E ^ i as u64))
                }),
            )
            .ok();
    }

    let config = Cpi2Config {
        min_samples_per_task: 5,
        auto_throttle: spec.auto_throttle,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    system.run_for(spec.warmup);
    let specs = system.force_spec_refresh();
    specs.iter().find(|s| s.jobname == "victim-service")?;

    let ant_job = system
        .cluster
        .submit_job(antagonist, antagonist_restart, antagonist_factory)
        .ok()?;
    let ant_task = TaskId {
        job: ant_job,
        index: 0,
    };
    let machine = system.cluster.locate(ant_task)?;
    let victim = system
        .cluster
        .machine(machine)?
        .tasks()
        .find(|t| t.id.job == victim_job)
        .map(|t| t.id)?;
    Some(CaseScenario {
        system,
        machine,
        victim,
        antagonist: ant_task,
    })
}

/// The first seed in `seeds` whose placement co-locates victim and
/// antagonist: `build` is [`build_case`] closed over the case's own
/// tenancy and antagonist. Panics when no seed in the range does — the
/// ranges are pinned, so that is a scheduler change, not bad luck.
pub fn first_colocated(
    seeds: std::ops::Range<u64>,
    build: impl Fn(u64) -> Option<CaseScenario>,
) -> CaseScenario {
    seeds
        .clone()
        .find_map(build)
        .unwrap_or_else(|| panic!("no seed in {seeds:?} co-locates victim and antagonist"))
}

/// A per-bucket timeline of the principals.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    /// Bucket midpoints in minutes from recording start.
    pub minutes: Vec<f64>,
    /// Victim CPI per bucket.
    pub victim_cpi: Vec<f64>,
    /// Antagonist CPU usage (cores) per bucket.
    pub ant_cpu: Vec<f64>,
    /// Antagonist thread count per bucket.
    pub ant_threads: Vec<f64>,
}

impl Timeline {
    /// `(minute, victim_cpi)` series for plotting.
    pub fn victim_series(&self) -> Vec<(f64, f64)> {
        self.minutes
            .iter()
            .copied()
            .zip(self.victim_cpi.iter().copied())
            .collect()
    }

    /// `(minute, antagonist_cpu)` series for plotting.
    pub fn ant_series(&self) -> Vec<(f64, f64)> {
        self.minutes
            .iter()
            .copied()
            .zip(self.ant_cpu.iter().copied())
            .collect()
    }

    /// `(minute, antagonist_threads)` series for plotting.
    pub fn thread_series(&self) -> Vec<(f64, f64)> {
        self.minutes
            .iter()
            .copied()
            .zip(self.ant_threads.iter().copied())
            .collect()
    }

    /// Mean victim CPI over a minute range `[from, to)`.
    pub fn victim_mean(&self, from: f64, to: f64) -> f64 {
        let vals: Vec<f64> = self
            .minutes
            .iter()
            .zip(&self.victim_cpi)
            .filter(|(&m, _)| m >= from && m < to)
            .map(|(_, &v)| v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// Steps the system for `secs` seconds, appending `bucket_secs`-wide means
/// to `timeline`. `start_min` anchors the minute axis.
pub fn record(
    scenario: &mut CaseScenario,
    timeline: &mut Timeline,
    start_min: f64,
    secs: u32,
    bucket_secs: u32,
) {
    let mut acc_cpi = 0.0;
    let mut acc_cpu = 0.0;
    let mut acc_thr = 0.0;
    let mut n = 0u32;
    let mut n_victim = 0u32;
    for s in 0..secs {
        scenario.system.step();
        let m = scenario.system.cluster.machine(scenario.machine);
        if let Some(m) = m {
            if let Some(t) = m.task(scenario.victim) {
                if let Some(o) = t.last_outcome() {
                    acc_cpi += o.cpi;
                    n_victim += 1;
                }
            }
            if let Some(a) = m.task(scenario.antagonist) {
                if let Some(o) = a.last_outcome() {
                    acc_cpu += o.cpu_granted;
                }
                acc_thr += a.threads() as f64;
            }
        }
        n += 1;
        if (s + 1) % bucket_secs == 0 {
            timeline.minutes.push(start_min + (s + 1) as f64 / 60.0);
            timeline.victim_cpi.push(if n_victim > 0 {
                acc_cpi / n_victim as f64
            } else {
                0.0
            });
            timeline.ant_cpu.push(acc_cpu / n as f64);
            timeline.ant_threads.push(acc_thr / n as f64);
            acc_cpi = 0.0;
            acc_cpu = 0.0;
            acc_thr = 0.0;
            n = 0;
            n_victim = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2::sim::ConstantLoad;

    #[test]
    fn build_and_record() {
        let scenario = build_case(
            &ScenarioSpec {
                tenants: 20,
                warmup: SimDuration::from_mins(26),
                ..Default::default()
            },
            JobSpec::best_effort("ant", 1, 1.0),
            true,
            Box::new(|_| Box::new(ConstantLoad::new(6.0, 8, ResourceProfile::streaming()))),
        );
        let mut sc = scenario.expect("scenario builds");
        let mut tl = Timeline::default();
        record(&mut sc, &mut tl, 0.0, 120, 30);
        assert_eq!(tl.minutes.len(), 4);
        assert!(tl.victim_cpi.iter().all(|&c| c > 0.0));
        assert!(tl.ant_cpu.iter().any(|&c| c > 1.0));
        assert!(tl.victim_mean(0.0, 2.0) > 0.0);
    }
}
