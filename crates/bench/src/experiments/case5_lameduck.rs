//! Case 5 (Fig. 12): an antagonist that tolerates capping via lame-duck
//! mode.
//!
//! Paper narrative: a replayer batch job runs ~8 threads; when hard-capped
//! its thread count "rapidly grows to around 80" (it spawns workers to
//! offload); when the cap stops it drops to 2 threads (a self-induced
//! lame-duck mode) for tens of minutes before reverting to 8. The victim's
//! CPI drops while the antagonist is throttled and for a while afterwards.

use crate::plot;
use crate::scenario::{build_case, first_colocated, record, Timeline};
use cpi2::sim::{JobSpec, SimDuration};
use cpi2::workloads::LameDuckReplayer;

pub(crate) fn run() {
    let mut sc = first_colocated(500..530, |seed| {
        build_case(
            seed,
            150,
            JobSpec::batch("replayer-batch", 1, 1.0),
            true,
            Box::new(move |_| Box::new(LameDuckReplayer::new(5.0, seed))),
        )
    });

    let mut tl = Timeline::default();
    // Normal phase.
    record(&mut sc, &mut tl, 0.0, 20 * 60, 30);
    let normal_threads = *tl.ant_threads.last().unwrap();
    let before = tl.victim_mean(10.0, 20.0);

    // Two capping rounds, as in Fig. 12.
    let mut peak_threads: f64 = 0.0;
    let mut post_cap_threads = f64::MAX;
    for round in 0..2 {
        let t0 = tl.minutes.last().copied().unwrap();
        let until = sc.system.cluster.now() + SimDuration::from_mins(10);
        sc.system.cluster.apply_hard_cap(sc.antagonist, 0.01, until);
        println!("cap round {} applied at minute {t0:.0}", round + 1);
        record(&mut sc, &mut tl, t0, 600, 30);
        peak_threads = peak_threads.max(
            tl.ant_threads
                .iter()
                .rev()
                .take(20)
                .copied()
                .fold(0.0, f64::max),
        );
        // Release + lame-duck observation window.
        let t1 = tl.minutes.last().copied().unwrap();
        record(&mut sc, &mut tl, t1, 900, 30);
        post_cap_threads = post_cap_threads.min(
            tl.ant_threads
                .iter()
                .rev()
                .take(20)
                .copied()
                .fold(f64::MAX, f64::min),
        );
    }
    let during = tl.victim_mean(20.0, 30.0);

    // Long tail: lame duck expires, threads return to normal.
    let t = tl.minutes.last().copied().unwrap();
    record(&mut sc, &mut tl, t, 40 * 60, 60);
    let final_threads = *tl.ant_threads.last().unwrap();

    tl.plot("Fig 12a: victim CPI and antagonist CPU");
    plot::scatter(
        "Fig 12b: antagonist thread count",
        "minute",
        "threads",
        &tl.series(&tl.ant_threads),
    );
    plot::print_table(
        "Case 5 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "threads, normal".into(),
                plot::f(normal_threads),
                "~8".into(),
            ],
            vec![
                "threads, peak under cap".into(),
                plot::f(peak_threads),
                "~80".into(),
            ],
            vec![
                "threads, lame duck".into(),
                plot::f(post_cap_threads),
                "2".into(),
            ],
            vec![
                "threads, after recovery".into(),
                plot::f(final_threads),
                "8".into(),
            ],
            vec![
                "victim CPI before/during".into(),
                format!("{before:.2} / {during:.2}"),
                "drops under cap".into(),
            ],
        ],
    );
    assert!(
        (6.0..=10.0).contains(&normal_threads),
        "normal={normal_threads}"
    );
    assert!(peak_threads > 50.0, "peak={peak_threads}");
    assert!(post_cap_threads < 4.0, "lame duck={post_cap_threads}");
    assert!(
        (6.0..=10.0).contains(&final_threads),
        "final={final_threads}"
    );
    assert!(during < before, "victim should improve under cap");
    println!("\ncase5 OK (threads {normal_threads:.0} -> {peak_threads:.0} -> {post_cap_threads:.0} -> {final_threads:.0})");
}
