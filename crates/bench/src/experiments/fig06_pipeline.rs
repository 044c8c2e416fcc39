//! Figure 6: the CPI² data pipeline, demonstrated end-to-end.
//!
//! The paper's Fig. 6 is an architecture diagram: per-machine agents emit
//! CPI samples → a sample aggregator computes smoothed, averaged CPI specs
//! → specs flow back to every machine running tasks of that job. This
//! binary runs the assembled pipeline and prints the roundtrip evidence:
//! samples collected per stage, specs published, agents synced, and a
//! detection acting on a pushed spec.

use crate::plot;
use cpi2::core::{Cpi2Config, JobKey};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::{CacheThrasher, LsService};

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 6,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 10);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("frontend", 20, 1.2),
            true,
            Box::new(|i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.2,
                    12,
                    i as u64,
                ))
            }),
        )
        .expect("placement");

    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    system.record_samples = true;

    println!("stage 1: agents sample every task 10s/min (counting mode)...");
    system.run_for(SimDuration::from_mins(30));
    let collected = system.samples.len();
    println!("  collected {collected} CPI samples across 10 machines");

    println!("stage 2: aggregator computes per-job x platform CPI specs...");
    let specs = system.force_spec_refresh();
    for s in &specs {
        println!("  published spec: {s}");
    }

    println!("stage 3: specs distributed back to machine agents...");
    system.run_for(SimDuration::from_mins(2));
    let key = JobKey::new("frontend", "westmere-2.6GHz");
    let mut synced = 0;
    for m in system.cluster.machines() {
        if system.agent(m.id).and_then(|a| a.spec(&key)).is_some() {
            synced += 1;
        }
    }
    println!("  {synced}/10 machine agents hold the frontend spec");

    println!("stage 4: local detection acts on the pushed spec...");
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 3, 1.0),
            true,
            Box::new(|i| Box::new(CacheThrasher::new(8.0, 300, 300, 3 + i as u64))),
        )
        .expect("placement");
    system.run_for(SimDuration::from_mins(40));
    println!(
        "  incidents reported: {}, hard caps applied: {}",
        system.incidents().len(),
        system.caps_applied()
    );

    plot::print_table(
        "Fig 6: pipeline roundtrip",
        &["stage", "evidence"],
        &[
            vec![
                "machine agents → samples".into(),
                format!("{collected} samples"),
            ],
            vec![
                "sample aggregator → specs".into(),
                format!("{} specs", specs.len()),
            ],
            vec![
                "specs → machines".into(),
                format!("{synced}/10 agents synced"),
            ],
            vec![
                "local detection → action".into(),
                format!(
                    "{} incidents, {} caps",
                    system.incidents().len(),
                    system.caps_applied()
                ),
            ],
        ],
    );
    assert!(collected > 100);
    assert_eq!(specs.len(), 1);
    assert_eq!(synced, 10);
    assert!(system.caps_applied() >= 1);
    println!("\nfig06 OK");
}
