//! Figure 7: the CPI distribution of a web-search job, with a GEV fit.
//!
//! The paper collects >450k CPI samples from thousands of machines over
//! two days (µ = 1.8, σ = 0.16), observes a right-skewed distribution —
//! "bad performance is relatively more common than exceptionally good
//! performance" — and fits normal, log-normal, Gamma and GEV candidates;
//! GEV(1.73, 0.133, −0.0534) fits best.

use crate::plot;
use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration};
use cpi2::workloads::{self, CacheThrasher};
use cpi2_stats::fit::{compare_fits, fit_gev_mle, ks_p_value, ks_statistic, Model};
use cpi2_stats::histogram::Histogram;
use cpi2_stats::summary::RunningStats;

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 7,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 60);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("websearch-leaf", 120, 2.0),
            true,
            workloads::factory("websearch-leaf", 19),
        )
        .expect("placement");
    // A spread of batch neighbours: most machines quiet, some contended —
    // the source of the long right tail.
    cluster
        .submit_job(
            JobSpec::best_effort("noise", 12, 1.0),
            true,
            Box::new(|i| {
                Box::new(
                    CacheThrasher::new(
                        1.5 + (i % 4) as f64 * 0.8,
                        240 + (i % 5) * 120,
                        1800,
                        i as u64 ^ 0xA5,
                    )
                    .with_footprint(6.0 + (i % 3) as f64 * 3.0),
                )
            }),
        )
        .expect("placement");

    // Collect per-task CPI samples through the real sampling pipeline.
    let mut system = Cpi2Harness::new(cluster, Cpi2Config::default());
    system.record_samples = true;
    system.run_for(SimDuration::from_hours(10));
    let cpis: Vec<f64> = system
        .samples
        .iter()
        .filter(|s| &*s.jobname == "websearch-leaf" && s.cpi > 0.0)
        .map(|s| s.cpi)
        .collect();
    println!("collected {} web-search CPI samples", cpis.len());

    let stats = RunningStats::from_slice(&cpis);
    let mut hist = Histogram::new(1.0, 3.0, 60);
    for &c in &cpis {
        hist.push(c);
    }
    let series: Vec<(f64, f64)> = hist.series().map(|(x, f)| (x, f * 100.0)).collect();
    plot::scatter(
        "Fig 7: CPI distribution (web-search leaf)",
        "CPI",
        "% samples",
        &series,
    );

    let cmp = compare_fits(&cpis);
    let rows: Vec<Vec<String>> = cmp
        .fits
        .iter()
        .map(|f| {
            vec![
                f.model.to_string(),
                f.params.clone(),
                plot::f(f.ks),
                format!("{:.1e}", ks_p_value(f.ks, cpis.len())),
                plot::f(f.aic),
            ]
        })
        .collect();
    plot::print_table(
        "Fig 7: distribution fits (sorted by KS; lower is better)",
        &["model", "parameters", "KS", "KS p-value", "AIC"],
        &rows,
    );

    // Maximum-likelihood polish of the winning GEV (the paper quotes a
    // best-fit curve, which an MLE refinement approximates better than raw
    // L-moments).
    let mle = fit_gev_mle(&cpis).expect("GEV fit");
    println!(
        "\nMLE-refined GEV: GEV({:.4}, {:.4}, {:.4})  (paper: GEV(1.73, 0.133, -0.053))  KS={:.4}",
        mle.mu,
        mle.sigma,
        mle.xi,
        ks_statistic(&cpis, &mle),
    );

    // Skewness: right tail longer than left.
    let median = {
        let mut v = cpis.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    plot::print_table(
        "Fig 7 summary",
        &["metric", "measured", "paper"],
        &[
            vec!["mean CPI".into(), plot::f(stats.mean()), "1.8".into()],
            vec!["stddev".into(), plot::f(stats.stddev()), "0.16".into()],
            vec![
                "right-skew (mean > median)".into(),
                format!("{}", stats.mean() > median),
                "true".into(),
            ],
            vec![
                "best-fit family".into(),
                cmp.best().map(|f| f.model.to_string()).unwrap_or_default(),
                "GEV".into(),
            ],
        ],
    );
    assert!(stats.mean() > median, "distribution must be right-skewed");
    assert_eq!(cmp.best().unwrap().model, Model::Gev, "GEV must fit best");
    println!("\nfig07 OK (best fit: {})", cmp.best().unwrap().params);
}
