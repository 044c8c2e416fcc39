//! Case 3 (Fig. 10): self-inflicted CPI swings — a false alarm the
//! minimum-usage filter suppresses.
//!
//! Paper narrative: a front-end web service's CPI fluctuated between ~3
//! and ~10 on a 28-tenant machine, but the best suspect correlation was
//! only 0.07, so CPI² took no action. "High CPI corresponds to periods of
//! low CPU usage, and vice versa ... normal for this application. The
//! minimum CPU usage threshold ... was developed to filter out this kind
//! of false alarm."

use crate::plot;
use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::{self, LsService};
use cpi2_stats::correlation::pearson;

fn build(min_cpu_usage: f64) -> Cpi2Harness {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 33,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 4);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("bimodal-frontend", 8, 0.5),
            true,
            workloads::factory("bimodal-frontend", 3),
        )
        .expect("placement");
    // A crowd of ordinary tenants (the paper's machine had 28).
    cluster
        .submit_job(
            JobSpec::latency_sensitive("tenant", 100, 0.1),
            true,
            Box::new(|i| {
                let mut p = ResourceProfile::compute_bound();
                p.cache_mb = 0.3;
                Box::new(LsService::new(p, 0.1, 4, i as u64 ^ 0x33))
            }),
        )
        .expect("placement");
    let config = Cpi2Config {
        min_samples_per_task: 5,
        min_cpu_usage,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    system.record_samples = true;
    system.run_for(SimDuration::from_hours(1));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_hours(2));
    system
}

pub(crate) fn run() {
    // With the paper's 0.25 CPU-sec/sec filter.
    let system = build(0.25);
    let samples: Vec<_> = system
        .samples
        .iter()
        .filter(|s| &*s.jobname == "bimodal-frontend")
        .collect();
    let t0 = samples.first().map(|s| s.timestamp).unwrap_or(0);
    let cpi_series: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| ((s.timestamp - t0) as f64 / 60e6, s.cpi))
        .collect();
    let usage_series: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| ((s.timestamp - t0) as f64 / 60e6, s.cpu_usage * 20.0))
        .collect();
    plot::multi_series(
        "Fig 10: 'victim' CPI and CPU usage (x20) — self-inflicted swings",
        "minute",
        "CPI / usage",
        &[("CPI", &cpi_series), ("CPU usage x20", &usage_series)],
    );

    let cpis: Vec<f64> = samples.iter().map(|s| s.cpi).collect();
    let usages: Vec<f64> = samples.iter().map(|s| s.cpu_usage).collect();
    let r = pearson(&cpis, &usages).unwrap_or(0.0);

    // Ablation: the same scenario with the usage filter disabled.
    let unfiltered = build(0.0);
    let alarms_without_filter = unfiltered
        .incidents()
        .iter()
        .filter(|mi| &*mi.incident.victim_job == "bimodal-frontend")
        .count();
    let low_corr_alarms = unfiltered
        .incidents()
        .iter()
        .filter(|mi| &*mi.incident.victim_job == "bimodal-frontend")
        .filter(|mi| match mi.incident.top_suspect() {
            Some(s) => s.correlation < 0.35,
            None => true,
        })
        .count();

    plot::print_table(
        "Case 3 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "CPI-usage correlation".into(),
                plot::f(r),
                "strongly negative (bimodal)".into(),
            ],
            vec![
                "incidents with 0.25 filter".into(),
                format!(
                    "{}",
                    system
                        .incidents()
                        .iter()
                        .filter(|mi| &*mi.incident.victim_job == "bimodal-frontend")
                        .count()
                ),
                "0 (filtered)".into(),
            ],
            vec![
                "alarms without filter".into(),
                format!("{alarms_without_filter} ({low_corr_alarms} with corr < 0.35)"),
                "would fire; corr ~0.07 ⇒ no action".into(),
            ],
            vec![
                "caps applied".into(),
                format!("{}", system.caps_applied()),
                "none".into(),
            ],
        ],
    );
    assert!(r < -0.5, "CPI and usage must be anti-correlated, r={r}");
    assert_eq!(
        system
            .incidents()
            .iter()
            .filter(|mi| &*mi.incident.victim_job == "bimodal-frontend")
            .count(),
        0,
        "the usage filter must suppress the false alarm"
    );
    assert!(
        alarms_without_filter > 0,
        "without the filter the false alarm should fire"
    );
    assert_eq!(system.caps_applied(), 0);
    println!("\ncase3 OK (r = {r:.2}; filter suppressed {alarms_without_filter} false alarms)");
}
