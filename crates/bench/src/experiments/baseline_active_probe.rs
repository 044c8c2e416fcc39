//! Baseline: passive correlation (CPI²) vs active probing (§4.2's
//! rejected alternative).
//!
//! The paper: "we'd rather the antagonist-detection system were not the
//! worst antagonist in the system!" — it chose passive correlation over
//! throttle-one-by-one probing. This experiment quantifies the choice on
//! identical scenarios with ground truth: identification accuracy, time
//! to a verdict, and CPU-time the *identification itself* denies to
//! innocent tasks.

use crate::plot;
use crate::probe::{active_identify, ProbeConfig};
use cpi2::core::Cpi2Config;
use cpi2::harness::{task_for, Cpi2Harness};
use cpi2::sim::{
    Cluster, ClusterConfig, ConstantLoad, JobSpec, Platform, ResourceProfile, SimDuration, TaskId,
};
use cpi2::workloads::{CacheThrasher, LsService};

struct Scenario {
    system: Cpi2Harness,
    machine: cpi2::sim::MachineId,
    victim: TaskId,
    antagonist: TaskId,
}

/// One machine: victim + 4 busy innocents + a bursty antagonist, specs
/// learned cleanly first.
fn build(seed: u64) -> Option<Scenario> {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 6);
    let victim_job = cluster
        .submit_job(
            JobSpec::latency_sensitive("victim", 6, 1.2),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.2,
                    12,
                    seed ^ i as u64,
                ))
            }),
        )
        .ok()?;
    // Busy but innocent batch tasks everywhere (high CPU, tiny footprint):
    // exactly what an activity heuristic would probe first.
    cluster
        .submit_job(
            JobSpec::batch("innocent", 24, 0.8),
            true,
            Box::new(move |i| {
                let mut p = ResourceProfile::compute_bound();
                p.cache_mb = 0.2;
                p.mpki_solo = 0.05;
                Box::new(ConstantLoad::new(2.0 + (i % 3) as f64, 4, p))
            }),
        )
        .ok()?;

    let config = Cpi2Config {
        min_samples_per_task: 5,
        auto_throttle: false,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    system.run_for(SimDuration::from_mins(26));
    system.force_spec_refresh();

    let ant_job = system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 1, 1.0),
            true,
            Box::new(move |_| Box::new(CacheThrasher::new(8.0, 240, 240, seed ^ 0x99))),
        )
        .ok()?;
    let antagonist = TaskId {
        job: ant_job,
        index: 0,
    };
    let machine = system.cluster.locate(antagonist)?;
    let victim = system
        .cluster
        .machine(machine)?
        .tasks()
        .find(|t| t.id.job == victim_job)
        .map(|t| t.id)?;
    Some(Scenario {
        system,
        machine,
        victim,
        antagonist,
    })
}

#[derive(Default)]
struct ArmStats {
    trials: u32,
    correct: u32,
    identified: u32,
    innocent_cpu_s: f64,
    elapsed_s: f64,
}

const TRIALS: u64 = 12;

pub(crate) fn run() {
    let mut passive = ArmStats::default();
    let mut active = ArmStats::default();

    for i in 0..TRIALS {
        let seed = 0xBA5E + i * 101;

        // --- Passive arm: wait for the agent's incident. ----------------
        if let Some(mut sc) = build(seed) {
            passive.trials += 1;
            let start = sc.system.cluster.now();
            let deadline = start + SimDuration::from_mins(45);
            let mut verdict = None;
            while sc.system.cluster.now() < deadline && verdict.is_none() {
                sc.system.step();
                if let Some(mi) = sc.system.incidents().iter().find(|mi| {
                    mi.machine == sc.machine && task_for(mi.incident.victim) == sc.victim
                }) {
                    verdict = mi
                        .incident
                        .suspects
                        .iter()
                        .find(|s| s.class.throttle_eligible() && s.correlation >= 0.35)
                        .map(|s| task_for(s.task));
                }
            }
            passive.elapsed_s += (sc.system.cluster.now() - start).as_us() as f64 / 1e6;
            if let Some(t) = verdict {
                passive.identified += 1;
                if t == sc.antagonist {
                    passive.correct += 1;
                }
            }
            // Passive identification throttles nobody.
        }

        // --- Active arm: probe suspects one by one. ---------------------
        if let Some(mut sc) = build(seed) {
            active.trials += 1;
            // Give the victim time to be visibly degraded first (parity
            // with the passive arm's detection input).
            sc.system.run_for(SimDuration::from_mins(6));
            let r = active_identify(
                &mut sc.system,
                sc.machine,
                sc.victim,
                sc.antagonist,
                &ProbeConfig::default(),
            );
            active.elapsed_s += r.elapsed_s as f64 + 360.0;
            active.innocent_cpu_s += r.innocent_disruption_cpu_s;
            if let Some(t) = r.identified {
                active.identified += 1;
                if t == sc.antagonist {
                    active.correct += 1;
                }
            }
        }
    }

    let row = |name: &str, s: &ArmStats| {
        vec![
            name.to_string(),
            format!("{}/{}", s.correct, s.trials),
            format!("{}/{}", s.identified, s.trials),
            format!("{:.1} min", s.elapsed_s / s.trials.max(1) as f64 / 60.0),
            format!("{:.0} CPU-s", s.innocent_cpu_s / s.trials.max(1) as f64),
        ]
    };
    plot::print_table(
        "Passive correlation (CPI²) vs active probing (§4.2 baseline)",
        &[
            "scheme",
            "correct",
            "identified",
            "mean time to verdict",
            "innocent CPU denied / trial",
        ],
        &[
            row("passive (CPI2)", &passive),
            row("active probing", &active),
        ],
    );

    assert!(passive.trials >= 5, "too few usable trials");
    assert!(
        passive.correct as f64 >= passive.trials as f64 * 0.6,
        "passive accuracy collapsed"
    );
    assert_eq!(
        passive.innocent_cpu_s, 0.0,
        "passive identification must not throttle anyone"
    );
    assert!(
        active.innocent_cpu_s / active.trials.max(1) as f64 > 50.0,
        "active probing should visibly disrupt innocents: {}",
        active.innocent_cpu_s
    );
    println!(
        "\nbaseline_active_probe OK (passive {}/{} correct at zero disruption; active denies {:.0} CPU-s/trial to innocents)",
        passive.correct,
        passive.trials,
        active.innocent_cpu_s / active.trials.max(1) as f64
    );
}
