//! A web-search cluster defended by CPI², end to end.
//!
//! The workload the paper's introduction motivates: latency-sensitive
//! search serving sharing machines with batch work. A cache-thrashing
//! batch job lands mid-run; CPI² learns specs, detects the victims,
//! identifies the thrasher and hard-caps it automatically, and search
//! latency recovers.
//!
//! Run: `cargo run --release --example websearch_interference`

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration};
use cpi2::workloads::{self, CacheThrasher};

/// Mean leaf-node request latency right now, ms.
fn search_latency(system: &Cpi2Harness) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for m in system.cluster.machines() {
        for t in m.tasks() {
            if &*t.job_name != "websearch-leaf" {
                continue;
            }
            if let Some(o) = t.last_outcome() {
                if let Some(l) = t.model().request_latency_ms(o) {
                    sum += l;
                    n += 1;
                }
            }
        }
    }
    sum / n.max(1) as f64
}

fn main() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 77,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 12);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("websearch-leaf", 12, 2.0),
            true,
            workloads::factory("websearch-leaf", 7),
        )
        .expect("placement");

    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);

    println!("phase 1: clean serving, learning CPI specs (40 min)...");
    system.run_for(SimDuration::from_mins(40));
    for spec in system.force_spec_refresh() {
        println!("  spec: {spec}");
    }
    let clean_latency = search_latency(&system);
    println!("  clean mean leaf latency: {clean_latency:.1} ms");

    println!("\nphase 2: batch cache-thrashers land on the cluster...");
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("indexer-batch", 4, 1.0),
            true,
            Box::new(|i| Box::new(CacheThrasher::new(8.0, 300, 300, 7 + i as u64))),
        )
        .expect("placement");
    system.run_for(SimDuration::from_mins(10));
    let degraded_latency = search_latency(&system);
    println!("  degraded mean leaf latency: {degraded_latency:.1} ms");

    println!("\nphase 3: CPI² detects, correlates, and hard-caps (40 min)...");
    system.run_for(SimDuration::from_mins(40));
    println!(
        "  incidents: {}, hard caps applied: {}",
        system.incidents().len(),
        system.caps_applied()
    );
    for mi in system
        .incidents()
        .iter()
        .filter(|m| m.incident.acted())
        .take(3)
    {
        let top = mi.incident.top_suspect().unwrap();
        println!(
            "  {}: victim {} cpi {:.2}, capped '{}' (correlation {:.2})",
            mi.machine,
            mi.incident.victim_job,
            mi.incident.victim_cpi,
            top.jobname,
            top.correlation
        );
    }
    let protected_latency = search_latency(&system);
    println!("  protected mean leaf latency: {protected_latency:.1} ms");

    assert!(
        degraded_latency > clean_latency * 1.1,
        "thrashers should visibly hurt latency ({clean_latency:.1} -> {degraded_latency:.1})"
    );
    assert!(system.caps_applied() >= 1, "CPI2 should have capped");
    println!(
        "\nwebsearch_interference OK (latency {clean_latency:.0} → {degraded_latency:.0} → {protected_latency:.0} ms)"
    );
}
