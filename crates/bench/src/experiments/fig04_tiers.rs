//! Figure 4: per-task latency vs CPI for leaf / intermediate / root
//! web-search jobs on two hardware platforms.
//!
//! Each point is a 5-minute sample of one task. The paper finds strong
//! correlation for the computation-intensive tiers (0.68–0.75) and poor
//! correlation for the root node, "whose request latency is largely
//! determined by the response time of other nodes".

use crate::{metrics, plot};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform};
use cpi2::workloads::{self, CacheThrasher};
use cpi2_stats::correlation::pearson;
use std::collections::BTreeMap;

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 4,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 20);
    cluster.add_machines(&Platform::sandy_bridge(), 20);
    for tier in ["websearch-leaf", "websearch-intermediate", "websearch-root"] {
        cluster
            .submit_job(
                JobSpec::latency_sensitive(tier, 24, 1.5),
                true,
                workloads::factory(tier, 13),
            )
            .expect("placement");
    }
    cluster
        .submit_job(
            JobSpec::best_effort("noise", 20, 1.0),
            true,
            Box::new(|i| Box::new(CacheThrasher::new(6.0, 900, 900, i as u64 ^ 9))),
        )
        .expect("placement");

    // Accumulate per-task 5-minute means of (CPI, latency).
    // key: (job, task index, platform) -> running sums.
    // (Ordered maps: the order of the printed rows is part of the record.)
    let mut acc: BTreeMap<(String, u32, String), (f64, f64, u32)> = BTreeMap::new();
    let mut points: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let total = 4 * 3600;
    for tick in 0..total {
        cluster.step();
        for tier in ["websearch-leaf", "websearch-intermediate", "websearch-root"] {
            for obs in metrics::per_task(&cluster, tier) {
                let key = (tier.to_string(), obs.task.index, obs.platform.clone());
                let e = acc.entry(key).or_insert((0.0, 0.0, 0));
                e.0 += obs.outcome.cpi;
                e.1 += obs.latency_ms.unwrap_or(0.0);
                e.2 += 1;
            }
        }
        if (tick + 1) % 300 == 0 {
            for ((tier, _idx, platform), (cpi, lat, n)) in std::mem::take(&mut acc) {
                if n > 0 {
                    points
                        .entry((tier, platform))
                        .or_default()
                        .push((cpi / n as f64, lat / n as f64));
                }
            }
        }
    }

    let mut rows = Vec::new();
    for (tier, label, paper) in [
        ("websearch-leaf", "Fig 4a leaf", "0.75"),
        ("websearch-intermediate", "Fig 4b intermediate", "0.68"),
        ("websearch-root", "Fig 4c root", "poor (I/O-bound)"),
    ] {
        // Normalize per platform (the paper normalizes within platform and
        // plots both in one panel with different colors).
        let mut all_norm: Vec<(f64, f64)> = Vec::new();
        let mut per_platform: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        for ((t, platform), pts) in &points {
            if t != tier || pts.is_empty() {
                continue;
            }
            let min_c = pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let min_l = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let norm: Vec<(f64, f64)> = pts.iter().map(|&(c, l)| (c / min_c, l / min_l)).collect();
            all_norm.extend(norm.iter().copied());
            per_platform.push((platform.clone(), norm));
        }
        per_platform.sort_by(|a, b| a.0.cmp(&b.0));
        let series: Vec<(&str, &[(f64, f64)])> = per_platform
            .iter()
            .map(|(p, pts)| (p.as_str(), pts.as_slice()))
            .collect();
        plot::multi_series(
            &format!("{label}: normalized latency vs normalized CPI"),
            "normalized CPI",
            "normalized latency",
            &series,
        );
        let xs: Vec<f64> = all_norm.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = all_norm.iter().map(|p| p.1).collect();
        let r = pearson(&xs, &ys).unwrap_or(0.0);
        rows.push(vec![label.to_string(), plot::f(r), paper.to_string()]);
    }
    plot::print_table(
        "Fig 4 summary (latency-CPI correlation)",
        &["tier", "measured r", "paper r"],
        &rows,
    );

    let leaf_r: f64 = rows[0][1].parse().unwrap();
    let root_r: f64 = rows[2][1].parse().unwrap();
    assert!(leaf_r > 0.45, "leaf correlation {leaf_r} too weak");
    assert!(root_r < leaf_r - 0.2, "root should correlate far worse");
    println!("\nfig04 OK (leaf r={leaf_r:.2}, root r={root_r:.2})");
}
