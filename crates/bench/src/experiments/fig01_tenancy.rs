//! Figure 1: CDFs of tasks per machine and threads per machine.
//!
//! The paper's point: "the vast majority of our machines run multiple
//! tasks" — a cluster populated with a realistic mix should show most
//! machines multi-tenant and a long thread-count tail.

use crate::plot;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::{self, LsService};

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 1,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 40);
    cluster.add_machines(&Platform::sandy_bridge(), 40);

    // The serving + batch mix.
    workloads::submit_typical_mix(&mut cluster, 3, 7);
    // Plus swarms of small tasks (monitoring agents, proxies, log savers)
    // that drive tenancy counts up, as in production.
    for (name, tasks, cpu) in [
        ("logsaver", 160u32, 0.1f64),
        ("monitoring", 160, 0.1),
        ("proxy", 120, 0.2),
        ("config-pusher", 80, 0.1),
    ] {
        let _ = cluster.submit_job(
            JobSpec::latency_sensitive(name, tasks, cpu),
            true,
            Box::new(move |i| {
                let mut p = ResourceProfile::compute_bound();
                p.cache_mb = 0.3;
                Box::new(LsService::new(p, cpu, 30, i as u64 ^ 0xF0))
            }),
        );
    }
    cluster.run_for(SimDuration::from_secs(30));

    let tasks: Vec<f64> = cluster
        .machines()
        .iter()
        .map(|m| m.task_count() as f64)
        .collect();
    let threads: Vec<f64> = cluster
        .machines()
        .iter()
        .map(|m| m.thread_count() as f64)
        .collect();

    plot::cdf("Fig 1a: tasks per machine (CDF)", "tasks", &tasks, 40);
    plot::cdf("Fig 1b: threads per machine (CDF)", "threads", &threads, 40);

    let multi = tasks.iter().filter(|&&t| t >= 2.0).count();
    let mean_tasks = tasks.iter().sum::<f64>() / tasks.len() as f64;
    let mean_threads = threads.iter().sum::<f64>() / threads.len() as f64;
    plot::print_table(
        "Fig 1 summary",
        &["metric", "value", "paper shape"],
        &[
            vec![
                "machines multi-tenant".into(),
                format!("{}/{}", multi, tasks.len()),
                "vast majority".into(),
            ],
            vec![
                "mean tasks/machine".into(),
                plot::f(mean_tasks),
                "10s of tasks".into(),
            ],
            vec![
                "mean threads/machine".into(),
                plot::f(mean_threads),
                "100s-1000s".into(),
            ],
            vec![
                "max threads/machine".into(),
                plot::f(threads.iter().copied().fold(0.0, f64::max)),
                "long tail".into(),
            ],
        ],
    );
    assert!(
        multi as f64 / tasks.len() as f64 > 0.9,
        "multi-tenancy shape"
    );
    println!("\nfig01 OK");
}
