//! Figure 3: request latency vs CPI for a web-search leaf job over 24 h.
//!
//! The paper plots job-level mean latency (reported by the search job) and
//! CPI (measured by CPI²) over a day and finds r = 0.97. We run a leaf job
//! under time-varying interference for 24 simulated hours and reproduce
//! both panels.

use crate::{metrics, plot};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform};
use cpi2::workloads::{self, CacheThrasher};
use cpi2_stats::correlation::pearson;

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 3,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 30);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("websearch-leaf", 30, 2.0),
            true,
            workloads::factory("websearch-leaf", 11),
        )
        .expect("placement");
    // Slow-period interference so CPI moves meaningfully within the day.
    cluster
        .submit_job(
            JobSpec::best_effort("noise", 15, 1.0),
            true,
            Box::new(|i| Box::new(CacheThrasher::new(7.0, 1800, 2400, i as u64 ^ 5))),
        )
        .expect("placement");

    let dt = cluster.tick_len();
    // Sample job metrics every 30 s to keep memory flat over 24 h.
    let mut cpi = Vec::new();
    let mut latency = Vec::new();
    for tick in 0..(24 * 3600) {
        cluster.step();
        if tick % 30 == 0 {
            if let Some(m) = metrics::job_tick(&cluster, "websearch-leaf", dt) {
                cpi.push(m.cpi);
                latency.push(m.latency_ms);
            }
        }
    }

    // 20-minute means (40 samples of 30 s), normalized to minimum.
    let cpi_b = metrics::normalize_to_min(&metrics::bucket_means(&cpi, 40));
    let lat_b = metrics::normalize_to_min(&metrics::bucket_means(&latency, 40));
    let hours: Vec<f64> = (0..cpi_b.len()).map(|i| i as f64 / 3.0).collect();

    let cpi_series: Vec<(f64, f64)> = hours.iter().copied().zip(cpi_b.iter().copied()).collect();
    let lat_series: Vec<(f64, f64)> = hours.iter().copied().zip(lat_b.iter().copied()).collect();
    plot::multi_series(
        "Fig 3a: normalized latency and CPI vs time (24h)",
        "hour",
        "normalized",
        &[("latency", &lat_series), ("CPI", &cpi_series)],
    );
    let sc: Vec<(f64, f64)> = lat_b.iter().copied().zip(cpi_b.iter().copied()).collect();
    plot::scatter(
        "Fig 3b: normalized CPI vs normalized latency",
        "latency",
        "CPI",
        &sc,
    );

    let r = pearson(&cpi_b, &lat_b).expect("correlation");
    plot::print_table(
        "Fig 3 summary",
        &["metric", "measured", "paper"],
        &[vec![
            "latency-CPI correlation".into(),
            plot::f(r),
            "0.97".into(),
        ]],
    );
    assert!(r > 0.85, "correlation {r} too weak");
    println!("\nfig03 OK (r = {r:.3})");
}
