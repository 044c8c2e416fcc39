//! Figure 16: detection accuracy and victim benefit for production jobs.
//!
//! Paper results reproduced here: (a) ~70 % true-positive rate for
//! production jobs, roughly independent of the correlation threshold once
//! above 0.35; (b) anomalies are trustworthy once the victim's CPI sits at
//! least ~3 standard deviations above the mean; (c) capping helps across a
//! wide range of degradations; (d) the median victim's relative CPI is
//! ~0.63 when throttling the top suspect (true and false positives
//! together).

use crate::plot;
use crate::trials::{run_batch, TrialOutcome};
use cpi2_stats::Ecdf;

const TRIALS: usize = 200;

pub(crate) fn run() {
    eprintln!("running {TRIALS} production trials...");
    let (outcomes, _) = run_batch(TRIALS, true, 0x16);
    eprintln!("{} capped trials", outcomes.len());
    assert!(outcomes.len() >= 30, "too few usable trials");

    // (a) TP/FP vs threshold, production only, 0.35–0.50.
    let mut rows = Vec::new();
    let mut tp_rates = Vec::new();
    for t in [0.35, 0.40, 0.45, 0.50] {
        let sel: Vec<&TrialOutcome> = outcomes.iter().filter(|o| o.correlation >= t).collect();
        if sel.is_empty() {
            continue;
        }
        let tp = sel.iter().filter(|o| o.true_positive()).count() as f64 / sel.len() as f64;
        let fp = sel.iter().filter(|o| o.false_positive()).count() as f64 / sel.len() as f64;
        tp_rates.push(tp);
        rows.push(vec![
            format!("{t:.2}"),
            format!("{:.0}%", tp * 100.0),
            format!("{:.0}%", fp * 100.0),
            format!("{}", sel.len()),
        ]);
    }
    plot::print_table(
        "Fig 16a: production TP/FP vs correlation threshold",
        &["threshold", "TP", "FP", "n"],
        &rows,
    );

    // (b) TP rate vs CPI increase in standard deviations.
    let mut rows = Vec::new();
    let mut low_sigma_tp = 1.0;
    let mut high_sigma_tp: f64 = 0.0;
    for (lo, hi) in [(2.0, 3.0), (3.0, 5.0), (5.0, 8.0), (8.0, f64::INFINITY)] {
        let sel: Vec<&TrialOutcome> = outcomes
            .iter()
            .filter(|o| o.sigmas_above >= lo && o.sigmas_above < hi)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let tp = sel.iter().filter(|o| o.true_positive()).count() as f64 / sel.len() as f64;
        if lo <= 2.0 {
            low_sigma_tp = tp;
        }
        if lo >= 5.0 {
            high_sigma_tp = high_sigma_tp.max(tp);
        }
        rows.push(vec![
            format!(
                "{lo:.0}-{}",
                if hi.is_finite() {
                    format!("{hi:.0}")
                } else {
                    "up".into()
                }
            ),
            format!("{:.0}%", tp * 100.0),
            format!("{}", sel.len()),
        ]);
    }
    plot::print_table(
        "Fig 16b: TP rate vs CPI increase (in spec stddevs)",
        &["σ above mean", "TP", "n"],
        &rows,
    );

    // (c) relative CPI vs degradation.
    let c: Vec<(f64, f64)> = outcomes
        .iter()
        .map(|o| (o.degradation, o.relative_cpi))
        .collect();
    plot::scatter(
        "Fig 16c: relative victim CPI vs CPI degradation",
        "CPI before / job mean",
        "CPI during / before",
        &c,
    );

    // (d) CDF of relative CPI, all capped production trials.
    let rel: Vec<f64> = outcomes.iter().map(|o| o.relative_cpi).collect();
    plot::cdf(
        "Fig 16d: CDF of victim relative CPI",
        "relative CPI",
        &rel,
        30,
    );
    let median = Ecdf::new(rel.clone()).median();

    let tp35 = tp_rates.first().copied().unwrap_or(0.0);
    plot::print_table(
        "Fig 16 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "TP rate @0.35".into(),
                format!("{:.0}%", tp35 * 100.0),
                "~70%".into(),
            ],
            vec!["median relative CPI".into(), plot::f(median), "0.63".into()],
            vec![
                "relative CPI < 1 for most trials".into(),
                format!(
                    "{:.0}%",
                    100.0 * rel.iter().filter(|&&r| r < 1.0).count() as f64 / rel.len() as f64
                ),
                "large majority".into(),
            ],
        ],
    );
    assert!(tp35 > 0.5, "TP rate too low: {tp35}");
    assert!(median < 0.85, "median relative CPI too high: {median}");
    assert!(
        high_sigma_tp >= low_sigma_tp * 0.8 || high_sigma_tp > 0.7,
        "large CPI excursions should be trustworthy"
    );
    println!(
        "\nfig16 OK (TP@0.35 = {:.0}%, median relative CPI = {median:.2})",
        tp35 * 100.0
    );
}
