//! Figure 5: average CPI across web-search leaf tasks over 5 days.
//!
//! The paper shows a diurnal pattern with a coefficient of variation of
//! about 4 % — CPI changes slowly as the executed instruction mix follows
//! daily load. We run 5 simulated days and check both the CV and the
//! 24-hour periodicity (autocorrelation at one day ≫ at half a day).

use crate::{metrics, plot};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform};
use cpi2::workloads;
use cpi2_stats::correlation::autocorrelation;
use cpi2_stats::summary::RunningStats;

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 5,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 25);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("websearch-leaf", 50, 2.0),
            true,
            workloads::factory("websearch-leaf", 17),
        )
        .expect("placement");
    // Batch neighbours whose pressure tracks the serving load: when search
    // demand is high the machines are busier and contention rises — the
    // mechanism behind the paper's diurnal CPI.
    cluster
        .submit_job(
            JobSpec::batch("analytics", 25, 1.0),
            true,
            Box::new(|i| {
                Box::new(cpi2::workloads::LsService::new(
                    cpi2::sim::ResourceProfile::streaming(),
                    2.0,
                    8,
                    i as u64 ^ 21,
                ))
            }),
        )
        .expect("placement");

    let dt = cluster.tick_len();
    // Half-hourly means over 5 days; sample every 60 s.
    let mut per_sample = Vec::new();
    for tick in 0..(5 * 24 * 3600) {
        cluster.step();
        if tick % 60 == 0 {
            if let Some(m) = metrics::job_tick(&cluster, "websearch-leaf", dt) {
                per_sample.push(m.cpi);
            }
        }
    }
    let half_hourly = metrics::bucket_means(&per_sample, 30);
    let series: Vec<(f64, f64)> = half_hourly
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as f64 / 48.0, c))
        .collect();
    plot::scatter(
        "Fig 5: average web-search CPI over 5 days",
        "day",
        "CPI",
        &series,
    );

    let stats = RunningStats::from_slice(&half_hourly);
    let cv = stats.cv();
    let ac_day = autocorrelation(&half_hourly, 48).unwrap_or(0.0);
    let ac_half = autocorrelation(&half_hourly, 24).unwrap_or(0.0);
    plot::print_table(
        "Fig 5 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "CPI coefficient of variation".into(),
                format!("{:.1}%", cv * 100.0),
                "~4%".into(),
            ],
            vec![
                "autocorrelation @24h".into(),
                plot::f(ac_day),
                "high (diurnal)".into(),
            ],
            vec![
                "autocorrelation @12h".into(),
                plot::f(ac_half),
                "low/negative".into(),
            ],
        ],
    );
    assert!(cv > 0.01 && cv < 0.12, "CV {cv} outside plausible band");
    assert!(ac_day > ac_half, "no diurnal period visible");
    println!("\nfig05 OK (CV = {:.1}%)", cv * 100.0);
}
