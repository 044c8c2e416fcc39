//! Property-based tests for the CPI² core algorithms.

use cpi2_core::correlation::antagonist_correlation;
use cpi2_core::{
    rank_suspects, Cpi2Config, CpiSample, CpiSpec, EvidenceBook, History, OutlierDetector,
    PandaParams, SpecBuilder, SuspectInput, TaskClass, TaskHandle, Verdict,
};
use proptest::prelude::*;
use serde::Serialize;

fn pairs_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.01..20.0f64, 0.0..10.0f64), 0..40)
}

/// One generated minute of (victim CPI, suspect-a, suspect-b, suspect-c usage).
type UsageRow = (f64, f64, f64, f64);

fn sample(task: u64, minute: i64, cpi: f64, usage: f64) -> CpiSample {
    CpiSample {
        task: TaskHandle(task),
        jobname: "j".into(),
        platforminfo: "p".into(),
        timestamp: minute * 60_000_000,
        cpu_usage: usage,
        cpi,
        l3_mpki: 0.0,
        class: TaskClass::latency_sensitive(),
    }
}

fn spec(mean: f64, stddev: f64) -> CpiSpec {
    CpiSpec {
        jobname: "j".into(),
        platforminfo: "p".into(),
        num_samples: 10_000,
        cpu_usage_mean: 1.0,
        cpi_mean: mean,
        cpi_stddev: stddev,
    }
}

proptest! {
    #[test]
    fn correlation_bounded(pairs in pairs_strategy(), cth in 0.1..10.0f64) {
        // Defined scores stay in [-1, 1]; undefined windows (empty,
        // constant CPI, zero usage) yield None rather than a junk score.
        if let Some(c) = antagonist_correlation(&pairs, cth) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c), "c={c}");
        }
    }

    #[test]
    fn correlation_usage_scale_invariant(pairs in pairs_strategy(), k in 0.1..100.0f64, cth in 0.5..5.0f64) {
        // The §4.2 normalization makes the score invariant to scaling the
        // suspect's absolute CPU usage — including whether the window is
        // scorable at all.
        let scaled: Vec<(f64, f64)> = pairs.iter().map(|&(c, u)| (c, u * k)).collect();
        let a = antagonist_correlation(&pairs, cth);
        let b = antagonist_correlation(&scaled, cth);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            (None, None) => {}
            _ => prop_assert!(false, "scorability changed under scaling: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn correlation_sign_matches_concentration(cth in 1.0..3.0f64, hi in 3.1..20.0f64, lo in 0.05..0.9f64) {
        // All suspect usage during above-threshold CPI ⇒ positive score;
        // all during below-threshold ⇒ negative.
        let hi_cpi = cth * hi / 3.0 + cth; // strictly above cth
        let lo_cpi = cth * lo;             // strictly below cth
        let guilty = [(hi_cpi, 1.0), (lo_cpi, 0.0)];
        let innocent = [(hi_cpi, 0.0), (lo_cpi, 1.0)];
        prop_assert!(antagonist_correlation(&guilty, cth).unwrap() > 0.0);
        prop_assert!(antagonist_correlation(&innocent, cth).unwrap() < 0.0);
    }

    #[test]
    fn panda_window_one_unfiltered_ranks_like_paper(
        rows in prop::collection::vec(
            (0.01..10.0f64, 0.0..4.0f64, 0.0..4.0f64, 0.0..4.0f64),
            2..24,
        ),
        cth in 0.5..5.0f64,
        incidents in 1..4usize,
    ) {
        // PANDA with an aggregation window of one incident and filtering
        // disabled must rank identically to the paper correlator — the
        // history contributes nothing and the score, a mean over one
        // window, is the window's correlation.
        let params = PandaParams {
            aggregation_window: 1,
            min_overlap: 0,
            ..PandaParams::default()
        };
        let ts = |f: &dyn Fn(&UsageRow) -> f64| {
            let mut h = History::new();
            for (m, r) in rows.iter().enumerate() {
                h.push(m as i64 * 60_000_000, f(r), f(r));
            }
            h
        };
        let victim = ts(&|r| r.0);
        let (u1, u2, u3) = (ts(&|r| r.1), ts(&|r| r.2), ts(&|r| r.3));
        let [a, b, c]: [cpi2_core::Name; 3] = ["job-a".into(), "job-b".into(), "job-c".into()];
        let suspects = vec![
            SuspectInput { task: TaskHandle(1), jobname: &a, class: TaskClass::batch(), usage: u1.usage() },
            SuspectInput { task: TaskHandle(2), jobname: &b, class: TaskClass::best_effort(), usage: u2.usage() },
            SuspectInput { task: TaskHandle(3), jobname: &c, class: TaskClass::batch(), usage: u3.usage() },
        ];
        let paper = rank_suspects(victim.cpi(), &suspects, cth, 1_000);
        let mut book = EvidenceBook::new();
        for i in 0..incidents {
            // Repeats must not change the verdict either: with window = 1
            // the committed evidence can never feed back into a ranking.
            let (panda, _) = book.rank(
                &params, "victim", victim.cpi(), &suspects, cth, 1_000, i as i64,
            );
            let paper_order: Vec<TaskHandle> = paper.iter().map(|s| s.task).collect();
            let panda_order: Vec<TaskHandle> = panda.iter().map(|s| s.task).collect();
            prop_assert_eq!(&paper_order, &panda_order, "incident {}", i);
            for (p, q) in paper.iter().zip(panda.iter()) {
                prop_assert!((p.correlation - q.correlation).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn detector_never_fires_below_threshold(
        mean in 0.5..3.0f64,
        stddev in 0.01..0.5f64,
        cpis in prop::collection::vec(0.0..1.0f64, 1..50),
    ) {
        // Samples at or below mean + 2σ (scaled into that range) never flag.
        let config = Cpi2Config::default();
        let sp = spec(mean, stddev);
        let threshold = sp.outlier_threshold(config.outlier_sigma);
        let mut d = OutlierDetector::new();
        for (i, &frac) in cpis.iter().enumerate() {
            let v = d.observe(&sample(1, i as i64, frac * threshold, 1.0), threshold, &config);
            prop_assert!(matches!(v, Verdict::Normal | Verdict::SkippedLowUsage));
        }
        prop_assert_eq!(d.flag_count(), 0);
    }

    #[test]
    fn detector_requires_three_violations(
        mean in 0.5..3.0f64,
        stddev in 0.01..0.5f64,
        gap in 1i64..2,
    ) {
        let config = Cpi2Config::default();
        let sp = spec(mean, stddev);
        let threshold = sp.outlier_threshold(config.outlier_sigma);
        let outlier_cpi = threshold * 1.5;
        let mut d = OutlierDetector::new();
        let v1 = d.observe(&sample(1, 0, outlier_cpi, 1.0), threshold, &config);
        let v2 = d.observe(&sample(1, gap, outlier_cpi, 1.0), threshold, &config);
        let v3 = d.observe(&sample(1, 2 * gap, outlier_cpi, 1.0), threshold, &config);
        prop_assert_eq!(v1, Verdict::Flagged);
        prop_assert_eq!(v2, Verdict::Flagged);
        prop_assert_eq!(v3, Verdict::Anomalous);
    }

    #[test]
    fn detector_low_usage_always_skipped(cpi in 0.0..100.0f64, usage in 0.0..0.249f64) {
        let config = Cpi2Config::default();
        let threshold = spec(1.0, 0.1).outlier_threshold(config.outlier_sigma);
        let mut d = OutlierDetector::new();
        let v = d.observe(&sample(1, 0, cpi, usage), threshold, &config);
        prop_assert_eq!(v, Verdict::SkippedLowUsage);
    }

    #[test]
    fn spec_builder_mean_within_sample_range(
        cpis in prop::collection::vec(0.1..10.0f64, 50..200),
    ) {
        let config = Cpi2Config {
            min_tasks: 1,
            min_samples_per_task: 1,
            ..Cpi2Config::default()
        };
        let mut b = SpecBuilder::new(config);
        let lo = cpis.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = cpis.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (i, &c) in cpis.iter().enumerate() {
            let mut s = sample((i % 10) as u64, i as i64, c, 1.0);
            s.cpu_usage = 1.0;
            b.add_sample(&s);
        }
        let specs = b.roll_period();
        prop_assert_eq!(specs.len(), 1);
        let s = &specs[0];
        prop_assert!(s.cpi_mean >= lo - 1e-9 && s.cpi_mean <= hi + 1e-9);
        prop_assert!(s.cpi_stddev >= 0.0);
        prop_assert!(s.cpi_stddev <= (hi - lo) + 1e-9);
        prop_assert_eq!(s.num_samples, cpis.len() as i64);
    }

    #[test]
    fn spec_sigmas_inverse_of_threshold(mean in 0.1..5.0f64, stddev in 0.001..1.0f64, k in -3.0..6.0f64) {
        let s = spec(mean, stddev);
        let cpi = mean + k * stddev;
        prop_assert!((s.sigmas_above(cpi) - k).abs() < 1e-6);
        prop_assert!((s.outlier_threshold(k) - cpi).abs() < 1e-9);
    }
}

/// One generated step: `(kind, n, cpi, usage)`, read by the test below.
type HistoryOp = (u8, i64, f64, f64);

fn history_ops() -> impl Strategy<Value = Vec<HistoryOp>> {
    prop::collection::vec((0..16u8, 0i64..40, -5.0..5.0f64, -5.0..5.0f64), 1..200)
}

/// What a history holds, plainly: its rows, oldest first.
type Rows = Vec<(i64, f64, f64)>;

/// One value of each row with its timestamp: CPI, or with `usage` CPU usage.
fn column(rows: &[(i64, f64, f64)], usage: bool) -> Vec<(i64, f64)> {
    rows.iter()
        .map(|r| (r.0, if usage { r.2 } else { r.1 }))
        .collect()
}

/// Each of `a`'s points paired with the nearest of `b`'s (of two as near,
/// the later) when that one lies within `tolerance`: a linear scan.
fn align(a: &[(i64, f64)], b: &[(i64, f64)], tolerance: i64) -> Vec<(f64, f64)> {
    let nearest = |t: i64| {
        let mut best: Option<(i64, f64)> = None;
        for &p in b {
            let nearer = match best {
                Some(q) => (p.0 - t).abs() <= (q.0 - t).abs(),
                None => true,
            };
            if nearer {
                best = Some(p);
            }
        }
        best
    };
    a.iter()
        .filter_map(|&(t, v)| {
            let q = nearest(t)?;
            ((q.0 - t).abs() <= tolerance).then_some((v, q.1))
        })
        .collect()
}

/// A column as a single-value series writes itself.
#[derive(Serialize)]
struct Points {
    points: Vec<(i64, f64)>,
}

proptest! {
    /// A task's history is a plain vector of `(t, cpi, usage)` rows pushed
    /// at the back and evicted from the front: the same points, windows,
    /// alignments (a linear nearest-row scan, both ways round) and JSON
    /// (each column as a single-value series), in at most
    /// `max(4, 2 × peak live)` rows of room.
    #[test]
    fn history_matches_a_plain_vector_of_rows(
        ops in history_ops(),
        other in prop::collection::vec((0i64..400, -5.0..5.0f64, -5.0..5.0f64), 0..20),
    ) {
        let mut other_rows = other;
        other_rows.sort_by_key(|&(t, _, _)| t);
        let mut other = History::new();
        for &(t, cpi, usage) in &other_rows {
            other.push(t, cpi, usage);
        }
        let mut history = History::new();
        let mut model: Rows = Vec::new();
        let mut peak = 0;
        let mut pairs = Vec::new();
        for (kind, n, x, y) in ops {
            let last = model.last().map_or(0, |r| r.0);
            let first = model.first().map_or(last, |r| r.0);
            match kind {
                // Monotone pushes, ties included.
                0..=7 => {
                    let t = last + n % 4;
                    history.push(t, x, y);
                    model.push((t, x, y));
                }
                // Cutoffs inside the history, behind it, and past it.
                8 | 9 => {
                    let cutoff = match kind {
                        8 => first + n % (last - first + 2),
                        _ => if n % 2 == 0 { first - n } else { last + 1 + n },
                    };
                    history.evict_before(cutoff);
                    model.retain(|r| r.0 >= cutoff);
                }
                10 => {
                    let (start, end) = (first + n - 5, first + n + (x * 4.0) as i64);
                    let window = |c: cpi2_core::Column<'_>| c.window(start, end).points().collect::<Vec<_>>();
                    let want = |usage| {
                        column(&model, usage)
                            .into_iter()
                            .filter(|&(t, _)| start <= t && t < end)
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(window(history.cpi()), want(false));
                    prop_assert_eq!(window(history.usage()), want(true));
                }
                11 | 12 => {
                    // Both ways round: the victim's CPI against a
                    // suspect's usage, as ranking reads them.
                    let tolerance = n;
                    history.cpi().align_into(other.usage(), tolerance, &mut pairs);
                    prop_assert_eq!(&pairs, &align(&column(&model, false), &column(&other_rows, true), tolerance));
                    other.cpi().align_into(history.usage(), tolerance, &mut pairs);
                    prop_assert_eq!(&pairs, &align(&column(&other_rows, false), &column(&model, true), tolerance));
                }
                13 => history = history.clone(),
                _ => {
                    let (c, u) = (history.cpi().to_value(), history.usage().to_value());
                    history = History::from_column_values(&c, &u).unwrap();
                }
            }
            peak = peak.max(model.len());
            let points = |c: cpi2_core::Column<'_>| c.points().collect::<Vec<_>>();
            prop_assert_eq!(points(history.cpi()), column(&model, false));
            prop_assert_eq!(points(history.usage()), column(&model, true));
            prop_assert_eq!(history.len(), model.len());
            let json = |c: cpi2_core::Column<'_>| serde_json::to_string(&c).unwrap();
            let model_json = |usage| serde_json::to_string(&Points { points: column(&model, usage) }).unwrap();
            prop_assert_eq!(
                (json(history.cpi()), json(history.usage())),
                (model_json(false), model_json(true))
            );
            prop_assert!(
                history.capacity() <= 4.max(2 * peak),
                "capacity {} for a peak of {} rows",
                history.capacity(),
                peak
            );
        }
    }
}
