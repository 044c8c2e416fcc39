//! Figure 15: antagonist-detection accuracy for all jobs.
//!
//! The paper's trial protocol: cap the single most-suspected antagonist
//! for 5 minutes; a *true positive* means the victim's CPI fell by more
//! than the spec stddev, a *false positive* means it rose by the same
//! margin. Key results: production jobs show much better TP rates than
//! non-production; 0.35 is a good correlation threshold; victim CPI drops
//! to 0.52× (production) / 0.82× (non-production) in true positives; and
//! relative L3 misses/instruction track relative CPI with r ≈ 0.87.

use crate::plot;
use crate::trials::{run_batch, TrialOutcome};
use cpi2_stats::correlation::pearson;

fn rates(outcomes: &[&TrialOutcome], threshold: f64) -> (f64, f64, usize) {
    let selected: Vec<_> = outcomes
        .iter()
        .filter(|o| o.correlation >= threshold)
        .collect();
    if selected.is_empty() {
        return (0.0, 0.0, 0);
    }
    let tp = selected.iter().filter(|o| o.true_positive()).count();
    let fp = selected.iter().filter(|o| o.false_positive()).count();
    (
        tp as f64 / selected.len() as f64,
        fp as f64 / selected.len() as f64,
        selected.len(),
    )
}

const TRIALS: usize = 150;

pub(crate) fn run() {
    eprintln!("running {TRIALS} production + {TRIALS} non-production trials...");
    let (prod, _) = run_batch(TRIALS, true, 0x15);
    let (nonprod, _) = run_batch(TRIALS, false, 0x51);
    eprintln!(
        "{} production / {} non-production capped trials",
        prod.len(),
        nonprod.len()
    );
    let prod_refs: Vec<&TrialOutcome> = prod.iter().collect();
    let nonprod_refs: Vec<&TrialOutcome> = nonprod.iter().collect();

    // (a) TP/FP rates vs correlation threshold, split by priority band.
    let mut rows = Vec::new();
    for t in [0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50] {
        let (tp_p, fp_p, n_p) = rates(&prod_refs, t);
        let (tp_n, fp_n, n_n) = rates(&nonprod_refs, t);
        rows.push(vec![
            format!("{t:.2}"),
            format!("{:.0}% / {:.0}% (n={})", tp_p * 100.0, fp_p * 100.0, n_p),
            format!("{:.0}% / {:.0}% (n={})", tp_n * 100.0, fp_n * 100.0, n_n),
        ]);
    }
    plot::print_table(
        "Fig 15a: TP/FP rates vs correlation threshold",
        &["threshold", "production TP/FP", "non-production TP/FP"],
        &rows,
    );

    // (b) relative CPI for true positives vs correlation.
    let b: Vec<(f64, f64)> = prod
        .iter()
        .chain(nonprod.iter())
        .filter(|o| o.true_positive())
        .map(|o| (o.correlation, o.relative_cpi))
        .collect();
    plot::scatter(
        "Fig 15b: relative victim CPI (true positives) vs correlation",
        "correlation",
        "CPI during / before",
        &b,
    );

    // Mean relative CPI at the paper's 0.35 operating point.
    let mean_rel = |set: &[TrialOutcome]| {
        let v: Vec<f64> = set
            .iter()
            .filter(|o| o.correlation >= 0.35 && o.true_positive())
            .map(|o| o.relative_cpi)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let rel_p = mean_rel(&prod);
    let rel_n = mean_rel(&nonprod);

    // (c) relative L3 MPKI vs relative CPI for true positives.
    let c: Vec<(f64, f64)> = prod
        .iter()
        .chain(nonprod.iter())
        .filter(|o| o.true_positive())
        .map(|o| (o.relative_cpi, o.relative_l3))
        .collect();
    plot::scatter(
        "Fig 15c: relative L3 misses/instruction vs relative CPI (TPs)",
        "relative CPI",
        "relative L3 MPI",
        &c,
    );
    let l3_r = pearson(
        &c.iter().map(|p| p.0).collect::<Vec<_>>(),
        &c.iter().map(|p| p.1).collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);

    let (tp35_p, fp35_p, _) = rates(&prod_refs, 0.35);
    let (tp35_n, _, _) = rates(&nonprod_refs, 0.35);
    plot::print_table(
        "Fig 15 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "production TP rate @0.35".into(),
                format!("{:.0}%", tp35_p * 100.0),
                "~70%".into(),
            ],
            vec![
                "non-production TP rate @0.35".into(),
                format!("{:.0}%", tp35_n * 100.0),
                "lower than production".into(),
            ],
            vec![
                "production FP rate @0.35".into(),
                format!("{:.0}%", fp35_p * 100.0),
                "low".into(),
            ],
            vec![
                "relative CPI, production TPs".into(),
                plot::f(rel_p),
                "0.52".into(),
            ],
            vec![
                "relative CPI, non-production TPs".into(),
                plot::f(rel_n),
                "0.82".into(),
            ],
            vec![
                "L3-CPI correlation (TPs)".into(),
                plot::f(l3_r),
                "0.87".into(),
            ],
        ],
    );
    assert!(tp35_p > 0.5, "production TP rate too low: {tp35_p}");
    assert!(
        tp35_p > tp35_n,
        "production must beat non-production: {tp35_p} vs {tp35_n}"
    );
    assert!(fp35_p < 0.3, "production FP rate too high: {fp35_p}");
    assert!(rel_p < rel_n, "production victims should benefit more");
    assert!(l3_r > 0.5, "L3 must track CPI: r={l3_r}");
    println!(
        "\nfig15 OK (prod TP {:.0}%, rel CPI {:.2}/{:.2}, L3 r={:.2})",
        tp35_p * 100.0,
        rel_p,
        rel_n,
        l3_r
    );
}
