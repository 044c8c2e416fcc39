//! Figure 2: transactions/sec vs instructions/sec for a batch job.
//!
//! The paper observes the two rates over 2 hours of a 2600-task batch job
//! (10-minute means) and finds a correlation coefficient of 0.97. Here a
//! 200-task transactional batch job runs for 2 simulated hours among
//! interfering neighbours; we plot both normalized series and their
//! scatter, and report the correlation.

use crate::{metrics, plot};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform};
use cpi2::workloads::{BatchTask, CacheThrasher};
use cpi2_stats::correlation::pearson;

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 2,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 40);
    cluster
        .submit_job(
            JobSpec::batch("txn-batch", 200, 1.5),
            true,
            Box::new(|i| Box::new(BatchTask::transactional(i as u64))),
        )
        .expect("placement");
    // Interfering neighbours make IPS (and so TPS) vary over time.
    cluster
        .submit_job(
            JobSpec::best_effort("noise", 30, 1.0),
            true,
            Box::new(|i| Box::new(CacheThrasher::new(6.0, 400, 500, i as u64))),
        )
        .expect("placement");

    let dt = cluster.tick_len();
    let mut tps = Vec::new();
    let mut ips = Vec::new();
    let two_hours = 2 * 3600;
    for _ in 0..two_hours {
        cluster.step();
        if let Some(m) = metrics::job_tick(&cluster, "txn-batch", dt) {
            tps.push(m.tps);
            ips.push(m.ips);
        }
    }

    // 10-minute means, normalized to the observed minimum, as the paper.
    let tps_b = metrics::normalize_to_min(&metrics::bucket_means(&tps, 600));
    let ips_b = metrics::normalize_to_min(&metrics::bucket_means(&ips, 600));
    let minutes: Vec<f64> = (0..tps_b.len()).map(|i| i as f64 * 10.0).collect();

    let tps_series: Vec<(f64, f64)> = minutes.iter().copied().zip(tps_b.iter().copied()).collect();
    let ips_series: Vec<(f64, f64)> = minutes.iter().copied().zip(ips_b.iter().copied()).collect();
    plot::multi_series(
        "Fig 2a: normalized TPS and IPS vs time",
        "minutes",
        "normalized",
        &[("TPS", &tps_series), ("IPS", &ips_series)],
    );
    let scatter: Vec<(f64, f64)> = ips_b.iter().copied().zip(tps_b.iter().copied()).collect();
    plot::scatter(
        "Fig 2b: normalized TPS vs normalized IPS",
        "IPS",
        "TPS",
        &scatter,
    );

    let r = pearson(&ips_b, &tps_b).expect("correlation");
    plot::print_table(
        "Fig 2 summary",
        &["metric", "measured", "paper"],
        &[vec![
            "TPS-IPS correlation".into(),
            plot::f(r),
            "0.97".into(),
        ]],
    );
    assert!(r > 0.9, "correlation {r} too weak");
    println!("\nfig02 OK (r = {r:.3})");
}
