//! Case 1 (Fig. 8): a video-processing batch job degrades a
//! latency-sensitive task; CPI² ranks suspects, and the operator kills the
//! culprit.
//!
//! Paper narrative: the victim's CPI climbed from its threshold of 2.0 to
//! 5.0; the machine had 57 tenants; the top-5 suspect list put
//! video-processing (the only non-latency-sensitive suspect) first at
//! correlation 0.46; a system administrator killed it and "the victim's
//! performance returned to normal".

use crate::plot;
use crate::scenario::{build_case, first_colocated, record, ScenarioSpec, Timeline};
use cpi2::harness::task_for;
use cpi2::sim::JobSpec;
use cpi2::workloads::BatchTask;

pub(crate) fn run() {
    let mut sc = first_colocated(1..22, |seed| {
        build_case(
            &ScenarioSpec {
                seed,
                tenants: 300, // ~50+ tenants per machine, as in the paper.
                ..Default::default()
            },
            JobSpec::best_effort("video-processing", 1, 1.0),
            true,
            Box::new(|i| Box::new(BatchTask::video_processing(42 + i as u64))),
        )
    });
    let tenants = sc.system.cluster.machine(sc.machine).unwrap().task_count();
    println!("machine {} has {} tenants (paper: 57)", sc.machine, tenants);

    // Record the degradation phase until an incident names our victim.
    let mut tl = Timeline::default();
    let mut incident = None;
    for chunk in 0..90 {
        record(&mut sc, &mut tl, chunk as f64, 60, 30);
        if let Some(mi) = sc
            .system
            .incidents()
            .iter()
            .find(|mi| mi.machine == sc.machine && task_for(mi.incident.victim) == sc.victim)
        {
            incident = Some(mi.incident.clone());
            break;
        }
    }
    let incident = incident.expect("incident detected");

    // Fig. 8a: the top-5 suspect table.
    let rows: Vec<Vec<String>> = incident
        .suspects
        .iter()
        .take(5)
        .map(|s| {
            vec![
                s.jobname.to_string(),
                if s.class.latency_sensitive {
                    "latency-sensitive".into()
                } else {
                    "batch".into()
                },
                plot::f(s.correlation),
            ]
        })
        .collect();
    plot::print_table(
        "Fig 8a: top antagonist suspects",
        &["job", "type", "correlation"],
        &rows,
    );

    let top_batch = incident
        .suspects
        .iter()
        .find(|s| !s.class.latency_sensitive)
        .expect("a batch suspect");
    assert_eq!(&*top_batch.jobname, "video-processing");
    assert!(
        top_batch.correlation >= 0.35,
        "corr={}",
        top_batch.correlation
    );

    // Operator action: kill the antagonist (the paper's admin did).
    let before = tl.victim_mean(tl.minutes.last().copied().unwrap_or(0.0) - 10.0, f64::MAX);
    let kill_at = tl.minutes.last().copied().unwrap_or(0.0);
    println!(
        "\noperator kills {} at minute {kill_at:.0}",
        top_batch.jobname
    );
    sc.system.cluster.kill_task(task_for(top_batch.task));
    record(&mut sc, &mut tl, kill_at, 1200, 30);
    let after = tl.victim_mean(kill_at + 5.0, f64::MAX);

    plot::multi_series(
        "Fig 8b: victim CPI and antagonist CPU usage",
        "minute",
        "CPI / cores",
        &[
            ("victim CPI", &tl.victim_series()),
            ("antagonist CPU", &tl.ant_series()),
        ],
    );
    plot::print_table(
        "Case 1 summary",
        &["metric", "measured", "paper"],
        &[
            vec![
                "victim CPI before kill".into(),
                plot::f(before),
                "~5.0 (threshold 2.0)".into(),
            ],
            vec![
                "victim CPI after kill".into(),
                plot::f(after),
                "returned to normal".into(),
            ],
            vec![
                "top suspect".into(),
                top_batch.jobname.to_string(),
                "video processing (0.46)".into(),
            ],
        ],
    );
    assert!(
        after < before * 0.75,
        "kill must restore the victim: {before} -> {after}"
    );
    println!("\ncase1 OK (victim {before:.2} -> {after:.2} after kill)");
}
