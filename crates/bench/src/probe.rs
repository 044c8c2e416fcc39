//! The active-probing baseline CPI² rejected (§4.2).
//!
//! "An active scheme might rank-order a list of suspects based on
//! heuristics like CPU usage ... and temporarily throttle them back one by
//! one to see if the CPI of the victim task improves. Unfortunately, this
//! simple approach may disrupt many innocent tasks." This module
//! implements that scheme so the tradeoff can be measured: identification
//! accuracy vs CPU-time denied to innocents vs time to a verdict.

use cpi2::harness::Cpi2Harness;
use cpi2::sim::{MachineId, SimDuration, TaskId};
use cpi2_stats::summary::RunningStats;

/// Result of one active-probing identification.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// The suspect the probe blamed, if any improvement cleared the margin.
    pub identified: Option<TaskId>,
    /// Suspects probed before the verdict.
    pub probes: u32,
    /// CPU-time denied to *innocent* tasks by the probing itself, in
    /// CPU-seconds (throttled time of every probed task that was not the
    /// ground-truth antagonist).
    pub innocent_disruption_cpu_s: f64,
    /// Wall-clock time spent probing, seconds.
    pub elapsed_s: i64,
}

/// Configuration of the prober.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Cap rate while probing a suspect.
    pub probe_rate: f64,
    /// Length of each probe, seconds.
    pub probe_secs: u32,
    /// Settle time before/after each probe, seconds.
    pub settle_secs: u32,
    /// Improvement margin: a suspect is blamed when victim CPI during the
    /// probe drops below `(1 − margin) ×` the pre-probe level.
    pub margin: f64,
    /// Maximum suspects probed.
    pub max_probes: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            probe_rate: 0.1,
            probe_secs: 180,
            settle_secs: 60,
            margin: 0.1,
            max_probes: 8,
        }
    }
}

fn victim_cpi_over(system: &mut Cpi2Harness, machine: MachineId, victim: TaskId, secs: u32) -> f64 {
    let mut stats = RunningStats::new();
    for _ in 0..secs {
        system.step();
        if let Some(o) = system
            .cluster
            .machine(machine)
            .and_then(|m| m.task(victim))
            .and_then(|t| t.last_outcome())
        {
            stats.push(o.cpi);
        }
    }
    stats.mean()
}

fn throttled_us(system: &Cpi2Harness, machine: MachineId, task: TaskId) -> i64 {
    system
        .cluster
        .machine(machine)
        .and_then(|m| m.task(task))
        .map(|t| t.cgroup.throttled_us())
        .unwrap_or(0)
}

/// Runs the §4.2 active scheme against a degraded victim: rank co-tenants
/// by CPU usage and throttle them one by one until the victim improves.
///
/// `ground_truth` is only used for the disruption accounting (probing the
/// real antagonist is not "innocent" disruption).
pub fn active_identify(
    system: &mut Cpi2Harness,
    machine: MachineId,
    victim: TaskId,
    ground_truth: TaskId,
    config: &ProbeConfig,
) -> ProbeResult {
    let start = system.cluster.now();

    // Rank suspects by current CPU usage, highest first (the paper's
    // stated heuristic).
    let mut suspects: Vec<(TaskId, f64, bool)> = system
        .cluster
        .machine(machine)
        .map(|m| {
            m.tasks()
                .filter(|t| t.id != victim)
                .map(|t| {
                    (
                        t.id,
                        t.last_outcome().map(|o| o.cpu_granted).unwrap_or(0.0),
                        t.class.throttle_eligible(),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    suspects.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite usage"));

    let mut probes = 0;
    let mut innocent_us = 0i64;
    let mut identified = None;
    for (suspect, _, eligible) in suspects {
        if probes >= config.max_probes {
            break;
        }
        if !eligible {
            // Even the active scheme won't throttle latency-sensitive
            // tasks; but note it *considered* them.
            continue;
        }
        probes += 1;
        let before = victim_cpi_over(system, machine, victim, config.settle_secs);
        let throttled_before = throttled_us(system, machine, suspect);
        let until = system.cluster.now() + SimDuration::from_secs(config.probe_secs as i64 + 60);
        system
            .cluster
            .apply_hard_cap(suspect, config.probe_rate, until);
        let during = victim_cpi_over(system, machine, victim, config.probe_secs);
        system.cluster.remove_hard_cap(suspect);
        let denied_us = throttled_us(system, machine, suspect) - throttled_before;
        if suspect != ground_truth {
            innocent_us += denied_us.max(0);
        }
        if before > 0.0 && during < before * (1.0 - config.margin) {
            identified = Some(suspect);
            break;
        }
        // Settle before the next probe.
        victim_cpi_over(system, machine, victim, config.settle_secs);
    }
    ProbeResult {
        identified,
        probes,
        innocent_disruption_cpu_s: innocent_us as f64 / 1e6,
        elapsed_s: (system.cluster.now() - start).as_us() / 1_000_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2::core::Cpi2Config;
    use cpi2::sim::{Cluster, ClusterConfig, ConstantLoad, JobSpec, Platform, ResourceProfile};
    use cpi2::workloads::LsService;

    #[test]
    fn active_probe_finds_steady_antagonist_but_disrupts() {
        let mut cluster = Cluster::new(ClusterConfig {
            seed: 9,
            overcommit: 2.0,
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), 1);
        let victim_job = cluster
            .submit_job(
                JobSpec::latency_sensitive("victim", 1, 1.2),
                true,
                Box::new(|_| Box::new(LsService::new(ResourceProfile::cache_heavy(), 1.2, 12, 5))),
            )
            .unwrap();
        // Three innocent batch tasks with real CPU appetites...
        cluster
            .submit_job(
                JobSpec::batch("innocent", 3, 1.0),
                true,
                Box::new(|i| {
                    let mut p = ResourceProfile::compute_bound();
                    p.cache_mb = 0.2;
                    Box::new(ConstantLoad::new(1.5 + i as f64 * 0.5, 4, p))
                }),
            )
            .unwrap();
        // ...and the true antagonist.
        let ant_job = cluster
            .submit_job(
                JobSpec::batch("antagonist", 1, 1.0),
                true,
                Box::new(|_| Box::new(ConstantLoad::new(5.0, 8, ResourceProfile::streaming()))),
            )
            .unwrap();
        let victim = TaskId {
            job: victim_job,
            index: 0,
        };
        let antagonist = TaskId {
            job: ant_job,
            index: 0,
        };
        let machine = cluster.locate(victim).unwrap();
        let mut system = Cpi2Harness::new(cluster, Cpi2Config::default());
        system.set_protection_enabled(false);
        system.run_for(SimDuration::from_mins(5));

        let result = active_identify(
            &mut system,
            machine,
            victim,
            antagonist,
            &ProbeConfig::default(),
        );
        assert_eq!(result.identified, Some(antagonist), "{result:?}");
        assert!(result.probes >= 1);
        // The defining cost: if innocents were probed first, real CPU was
        // denied to them.
        if result.probes > 1 {
            assert!(result.innocent_disruption_cpu_s > 10.0, "{result:?}");
        }
        assert!(result.elapsed_s >= config_min_elapsed(result.probes));
    }

    fn config_min_elapsed(probes: u32) -> i64 {
        let c = ProbeConfig::default();
        (probes as i64) * (c.probe_secs as i64 + c.settle_secs as i64)
    }
}
