//! The fleet that keeps detecting, shared by `read_path` and
//! `serve_determinism`.

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile};
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{CacheThrasher, LsService};

/// Victims spread over the fleet plus a batch tenant, telemetry on.
pub fn fleet(seed: u64, machines: u32) -> Cpi2Harness {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        telemetry: Telemetry::enabled(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), machines);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("frontend", machines, 1.0),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.0,
                    12,
                    seed ^ u64::from(i),
                ))
            }),
        )
        .expect("placement");
    cpi2::workloads::submit_typical_mix(&mut cluster, 1, seed);
    let config = Cpi2Config {
        min_samples_per_task: 5,
        incident_cooldown_s: 60,
        ..Cpi2Config::default()
    };
    Cpi2Harness::new(cluster, config)
}

/// Publishes the learned specs and lands a thrasher on half of the fleet.
pub fn plant(system: &mut Cpi2Harness, machines: u32) {
    system.force_spec_refresh();
    system
        .cluster
        .submit_job(
            JobSpec::batch("thrasher", machines / 2, 4.0),
            true,
            Box::new(|i| {
                Box::new(CacheThrasher::new(8.0, 240, 240, 99 + u64::from(i)).with_footprint(32.0))
            }),
        )
        .expect("placement");
}
