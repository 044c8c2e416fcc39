//! Ablation: interference-blind vs cache-aware placement.
//!
//! §8 surveys contention-aware scheduling (Zhuravlev et al., Blagodurov
//! et al.) and §9 lists "affinity-based placement" as a valuable
//! complement to throttling. This experiment runs the same workload under
//! the paper-era CPU-load-only scheduler and under a cache-pressure-aware
//! one, and measures what better placement buys *before* CPI² ever has to
//! act: fewer contended victims, fewer incidents, fewer caps.

use crate::{metrics, plot};
use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, JobSpec, PlacementPolicy, Platform, ResourceProfile, SimDuration,
};
use cpi2::workloads::{CacheThrasher, LsService};

struct Outcome {
    mean_cpi: f64,
    p95_cpi: f64,
    incidents: usize,
    caps: u64,
    max_cache_pressure: f64,
}

fn run_policy(policy: PlacementPolicy, seed: u64) -> Outcome {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 12);
    cluster.scheduler_mut().set_policy(policy);

    // Heterogeneous footprints: the interesting placement decisions.
    cluster
        .submit_job(
            JobSpec::latency_sensitive("heavy-serving", 8, 1.2),
            true,
            Box::new(move |i| {
                let mut p = ResourceProfile::cache_heavy();
                p.cache_mb = 8.0;
                Box::new(LsService::new(p, 1.2, 12, seed ^ i as u64))
            }),
        )
        .expect("placement");
    cluster
        .submit_job(
            JobSpec::latency_sensitive("light-serving", 12, 1.0),
            true,
            Box::new(move |i| {
                let mut p = ResourceProfile::compute_bound();
                p.cache_mb = 0.5;
                Box::new(LsService::new(p, 1.0, 8, seed ^ 0x55 ^ i as u64))
            }),
        )
        .expect("placement");
    cluster
        .submit_job(
            JobSpec::best_effort("stream-batch", 4, 1.0),
            true,
            Box::new(move |i| {
                Box::new(
                    CacheThrasher::new(5.0, 400, 500, seed ^ 0xAA ^ i as u64).with_footprint(14.0),
                )
            }),
        )
        .expect("placement");

    let max_cache_pressure = cluster
        .machines()
        .iter()
        .map(|m| cluster.scheduler().reserved_cache_mb(m.id).unwrap_or(0.0) / m.platform.l3_mb)
        .fold(0.0f64, f64::max);

    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();

    // Two hours of operation, sampling the heavy job's CPI each minute.
    let mut cpis = Vec::new();
    for tick in 0..7200 {
        system.step();
        if tick % 60 == 0 {
            if let Some(m) =
                metrics::job_tick(&system.cluster, "heavy-serving", system.cluster.tick_len())
            {
                cpis.push(m.cpi);
            }
        }
    }
    cpis.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Outcome {
        mean_cpi: cpis.iter().sum::<f64>() / cpis.len().max(1) as f64,
        p95_cpi: cpis[((cpis.len() as f64 * 0.95) as usize).min(cpis.len() - 1)],
        incidents: system.incidents().len(),
        caps: system.caps_applied(),
        max_cache_pressure,
    }
}

pub(crate) fn run() {
    let seeds = [3u64, 17, 29];
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (policy, name) in [
        (PlacementPolicy::LeastLoaded, "least-loaded (paper era)"),
        (PlacementPolicy::CacheAware, "cache-aware (§9 direction)"),
    ] {
        let outcomes: Vec<Outcome> = seeds.iter().map(|&s| run_policy(policy, s)).collect();
        let n = outcomes.len() as f64;
        let mean_cpi = outcomes.iter().map(|o| o.mean_cpi).sum::<f64>() / n;
        let p95 = outcomes.iter().map(|o| o.p95_cpi).sum::<f64>() / n;
        let incidents = outcomes.iter().map(|o| o.incidents).sum::<usize>();
        let caps: u64 = outcomes.iter().map(|o| o.caps).sum();
        let pressure = outcomes.iter().map(|o| o.max_cache_pressure).sum::<f64>() / n;
        rows.push(vec![
            name.to_string(),
            plot::f(mean_cpi),
            plot::f(p95),
            format!("{incidents}"),
            format!("{caps}"),
            plot::f(pressure),
        ]);
        summary.push((mean_cpi, incidents));
    }
    plot::print_table(
        "Placement-policy ablation (3 seeds, 2 h each; victim = heavy-serving)",
        &[
            "policy",
            "mean victim CPI",
            "p95 victim CPI",
            "incidents",
            "caps",
            "max cache pressure",
        ],
        &rows,
    );

    let (blind_cpi, blind_incidents) = summary[0];
    let (aware_cpi, aware_incidents) = summary[1];
    assert!(
        aware_cpi <= blind_cpi * 1.02,
        "cache-aware placement must not hurt the victim: {blind_cpi} vs {aware_cpi}"
    );
    assert!(
        aware_incidents <= blind_incidents,
        "cache-aware placement should not create more incidents: {blind_incidents} vs {aware_incidents}"
    );
    println!(
        "\nablation_placement OK (mean CPI {blind_cpi:.2} -> {aware_cpi:.2}, incidents {blind_incidents} -> {aware_incidents})"
    );
}
