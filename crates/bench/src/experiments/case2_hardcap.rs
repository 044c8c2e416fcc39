//! Case 2 (Fig. 9): hard-capping a best-effort batch antagonist restores
//! the victim, and the interference returns when the cap lifts.
//!
//! Paper narrative: one of 354 latency-sensitive tasks consistently
//! exceeded its CPI threshold (1.7) on a 42-tenant machine; the top
//! suspects scored 0.31–0.34 and CPI² picked a best-effort batch job.
//! Capping it for ~15 minutes halved the victim's CPI (2.0 → 1.0); "once
//! the hard-capping stopped ... the victim's CPI rose again."

use crate::plot;
use crate::scenario::{build_case, first_colocated, record, Timeline};
use cpi2::sim::{JobSpec, ResourceProfile, SimDuration};
use cpi2::workloads::LsService;

pub(crate) fn run() {
    let mut sc = first_colocated(100..122, |seed| {
        build_case(
            seed,
            240,
            JobSpec::best_effort("replayer-batch", 1, 1.0),
            true,
            // A steady streaming hog (constant usage, like the paper's
            // modest 0.31–0.34 correlations).
            Box::new(move |_| Box::new(LsService::new(ResourceProfile::streaming(), 5.0, 8, seed))),
        )
    });

    let mut tl = Timeline::default();
    // Phase 1: interference, no action (≈35 min).
    record(&mut sc, &mut tl, 0.0, 35 * 60, 30);
    let before = tl.victim_mean(20.0, 35.0);

    // The §4.2 correlation the agent computed for this pair.
    let spec = sc
        .system
        .spec_store
        .get(&cpi2::core::JobKey::new(
            "victim-service",
            "westmere-2.6GHz",
        ))
        .expect("spec");
    let agent = sc.system.agent(sc.machine).expect("agent");
    let corr = agent
        .correlation_between(
            cpi2::harness::handle_for(sc.victim),
            cpi2::harness::handle_for(sc.antagonist),
            spec.outlier_threshold(2.0),
        )
        .unwrap_or(0.0);
    println!("antagonist correlation = {corr:.2} (paper: 0.31-0.34 band)");

    // Phase 2: operator hard-caps the antagonist for ~14 minutes.
    let cap_start = tl.minutes.last().copied().unwrap();
    let until = sc.system.cluster.now() + SimDuration::from_mins(14);
    sc.system.cluster.apply_hard_cap(sc.antagonist, 0.1, until);
    println!("hard cap 0.1 CPU-sec/sec applied at minute {cap_start:.0} for 14 min");
    record(&mut sc, &mut tl, cap_start, 14 * 60, 30);
    let during = tl.victim_mean(cap_start + 2.0, cap_start + 14.0);

    // Phase 3: cap expires; interference returns (≈25 min).
    let release = tl.minutes.last().copied().unwrap();
    record(&mut sc, &mut tl, release, 25 * 60, 30);
    let after = tl.victim_mean(release + 3.0, f64::MAX);

    tl.plot("Fig 9: victim CPI and antagonist CPU (cap minutes shaded by usage drop)");
    plot::print_table(
        "Case 2 summary",
        &["phase", "victim CPI", "paper"],
        &[
            vec!["before cap".into(), plot::f(before), "~2.0".into()],
            vec!["during cap".into(), plot::f(during), "~1.0".into()],
            vec![
                "after cap expires".into(),
                plot::f(after),
                "rises again".into(),
            ],
        ],
    );
    assert!(
        during < before * 0.75,
        "cap must improve victim: {before} -> {during}"
    );
    assert!(
        after > during * 1.15,
        "interference must return: {during} -> {after}"
    );
    println!("\ncase2 OK (CPI {before:.2} -> {during:.2} under cap -> {after:.2} after)");
}
