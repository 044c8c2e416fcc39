//! Figure 14: is antagonism correlated with machine load?
//!
//! The paper's answer is no: "it happens fairly uniformly at all
//! utilization levels and the extent of damage to victims is also not
//! related to the utilization." Panel (d) shows CPI-degradation CDFs with
//! and without an identified antagonist, the former with a long tail.

use crate::plot;
use crate::trials::run_batch;
use cpi2_stats::correlation::pearson;

const TRIALS: usize = 200;

pub(crate) fn run() {
    eprintln!("running {TRIALS} trials...");
    let (outcomes, unidentified) = run_batch(TRIALS, true, 0x14);
    eprintln!(
        "{} capped trials, {} unidentified anomalies",
        outcomes.len(),
        unidentified.len()
    );
    assert!(outcomes.len() >= 20, "too few usable trials");

    // (a) correlation vs utilization.
    let a: Vec<(f64, f64)> = outcomes
        .iter()
        .map(|o| (o.utilization * 100.0, o.correlation))
        .collect();
    plot::scatter(
        "Fig 14a: antagonist correlation vs machine CPU utilization",
        "utilization %",
        "correlation",
        &a,
    );
    // (b) CDF of utilization at detection.
    let utils: Vec<f64> = outcomes.iter().map(|o| o.utilization * 100.0).collect();
    plot::cdf(
        "Fig 14b: CDF of machine utilization at detection",
        "utilization %",
        &utils,
        30,
    );
    // (c) degradation vs utilization.
    let c: Vec<(f64, f64)> = outcomes
        .iter()
        .map(|o| (o.utilization * 100.0, o.degradation))
        .collect();
    plot::scatter(
        "Fig 14c: victim CPI degradation vs machine utilization",
        "utilization %",
        "CPI / job mean",
        &c,
    );
    // (d) degradation CDFs: identified vs not.
    let with_ant: Vec<f64> = outcomes.iter().map(|o| o.degradation).collect();
    let without: Vec<f64> = unidentified.iter().map(|u| u.degradation).collect();
    plot::cdf(
        "Fig 14d-1: CPI degradation CDF (antagonist identified)",
        "CPI / job mean",
        &with_ant,
        30,
    );
    if !without.is_empty() {
        plot::cdf(
            "Fig 14d-2: CPI degradation CDF (no antagonist identified)",
            "CPI / job mean",
            &without,
            30,
        );
    }

    let corr_vs_util = pearson(
        &outcomes.iter().map(|o| o.utilization).collect::<Vec<_>>(),
        &outcomes.iter().map(|o| o.correlation).collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let degr_vs_util = pearson(
        &outcomes.iter().map(|o| o.utilization).collect::<Vec<_>>(),
        &outcomes.iter().map(|o| o.degradation).collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let max_degr = with_ant.iter().copied().fold(0.0, f64::max);
    plot::print_table(
        "Fig 14 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "corr(utilization, correlation)".into(),
                plot::f(corr_vs_util),
                "≈ 0 (uncorrelated)".into(),
            ],
            vec![
                "corr(utilization, degradation)".into(),
                plot::f(degr_vs_util),
                "≈ 0 (uncorrelated)".into(),
            ],
            vec![
                "max degradation (long tail)".into(),
                plot::f(max_degr),
                "up to ~12x".into(),
            ],
        ],
    );
    assert!(
        corr_vs_util.abs() < 0.4,
        "antagonism should not track load: r={corr_vs_util}"
    );
    assert!(
        degr_vs_util.abs() < 0.4,
        "damage should not track load: r={degr_vs_util}"
    );
    assert!(max_degr > 1.5, "degradation tail missing");
    println!("\nfig14 OK (r_corr={corr_vs_util:.2}, r_degr={degr_vs_util:.2})");
}
