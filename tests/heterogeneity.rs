//! Per-platform CPI specs: §3.1's "CPI² does separate CPI calculations for
//! each platform a job runs on", exercised across a two-platform cluster.

use cpi2::core::{Cpi2Config, JobKey};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::LsService;

fn two_platform_system(seed: u64) -> Cpi2Harness {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 6);
    cluster.add_machines(&Platform::sandy_bridge(), 6);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("frontend", 12, 1.2),
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
        .expect("placement");
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    Cpi2Harness::new(cluster, config)
}

#[test]
fn one_job_two_platform_specs() {
    let mut system = two_platform_system(1);
    system.run_for(SimDuration::from_mins(40));
    let specs = system.force_spec_refresh();

    // Tasks landed on both platforms (12 tasks over 12 machines).
    let westmere = specs
        .iter()
        .find(|s| s.jobname == "frontend" && s.platforminfo == "westmere-2.6GHz");
    let sandy = specs
        .iter()
        .find(|s| s.jobname == "frontend" && s.platforminfo == "sandybridge-2.2GHz");
    let (Some(w), Some(s)) = (westmere, sandy) else {
        // The spread may have put <5 tasks on one platform; that platform
        // then (correctly) gets no spec. Require at least one.
        assert!(
            westmere.is_some() || sandy.is_some(),
            "no spec built at all: {specs:?}"
        );
        return;
    };

    // The newer platform runs the same binary at a lower CPI
    // (cpi_factor 0.85), and the specs must reflect it.
    assert!(
        s.cpi_mean < w.cpi_mean,
        "sandy bridge {:.2} should beat westmere {:.2}",
        s.cpi_mean,
        w.cpi_mean
    );
    let expected_ratio = 0.85;
    let ratio = s.cpi_mean / w.cpi_mean;
    assert!(
        (ratio - expected_ratio).abs() < 0.12,
        "CPI ratio {ratio:.2} should be near the platform factor {expected_ratio}"
    );
}

#[test]
fn agents_use_their_platforms_spec() {
    let mut system = two_platform_system(2);
    system.run_for(SimDuration::from_mins(40));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_mins(2));

    // Each machine's agent should hold the spec for *its* platform key
    // (agents receive all specs; the lookup key carries the platform).
    for m in system.cluster.machines() {
        if m.task_count() == 0 {
            continue;
        }
        let Some(agent) = system.agent(m.id) else {
            continue;
        };
        let key = JobKey::new("frontend", &*m.platform.name);
        if let Some(spec) = agent.spec(&key) {
            assert_eq!(*spec.platforminfo, *m.platform.name);
        }
    }
}

#[test]
fn cross_platform_outlier_not_misjudged() {
    // A westmere task at its normal CPI (~1.4) would be a huge outlier
    // against a sandy-bridge spec (~1.19): platform-keyed specs prevent
    // exactly this misjudgement. Verify a clean two-platform run raises no
    // incidents.
    let mut system = two_platform_system(3);
    system.run_for(SimDuration::from_mins(40));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_hours(1));
    assert_eq!(
        system.incidents().len(),
        0,
        "clean heterogeneous cluster must not page: {:?}",
        system.incidents().first().map(|mi| &mi.incident.victim_job)
    );
}
