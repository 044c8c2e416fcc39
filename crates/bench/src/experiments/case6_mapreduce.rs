//! Case 6 (Fig. 13): a MapReduce worker that survives one capping but
//! exits during the second.
//!
//! Paper narrative: "The throttled antagonist is a task from a MapReduce
//! job that survived the first hard-capping (perhaps because it was
//! inactive at the time) but during the second one it either quit or was
//! terminated by the MapReduce master."

use crate::plot;
use crate::scenario::{build_case, first_colocated, record, Timeline};
use cpi2::sim::{JobSpec, SimDuration, TraceEvent};
use cpi2::workloads::MapReduceWorker;

pub(crate) fn run() {
    let mut sc = first_colocated(600..640, |seed| {
        build_case(
            seed,
            150,
            JobSpec::batch("mapreduce", 1, 1.0),
            false, // The MapReduce master, not the cluster, replaces workers.
            Box::new(move |_| {
                // Long idle gaps between shards + tolerance below the
                // 5-minute cap: an *active* worker gives up mid-cap; an
                // idle one rides it out.
                Box::new(
                    MapReduceWorker::new(seed)
                        .with_starvation_limit(200)
                        .with_idle_gap(320),
                )
            }),
        )
    });

    let mut tl = Timeline::default();
    record(&mut sc, &mut tl, 0.0, 15 * 60, 30);

    // First cap: time it to land while the worker idles between shards, so
    // it survives (the paper speculates exactly this).
    let mut capped_while_idle = false;
    for _ in 0..40 {
        let idle_now = sc
            .system
            .cluster
            .machine(sc.machine)
            .and_then(|m| m.task(sc.antagonist))
            .and_then(|t| t.last_outcome())
            .map(|o| o.cpu_granted < 0.2)
            .unwrap_or(false);
        if idle_now {
            capped_while_idle = true;
            break;
        }
        let t = tl.minutes.last().copied().unwrap();
        record(&mut sc, &mut tl, t, 30, 30);
    }
    let t1 = tl.minutes.last().copied().unwrap();
    let until = sc.system.cluster.now() + SimDuration::from_mins(5);
    sc.system.cluster.apply_hard_cap(sc.antagonist, 0.01, until);
    println!("first cap at minute {t1:.0} (worker idle: {capped_while_idle})");
    record(&mut sc, &mut tl, t1, 300, 30);
    let survived_first = sc.system.cluster.locate(sc.antagonist).is_some();
    println!("worker survived first cap: {survived_first}");

    // Let it resume work, then cap again while it is actively processing.
    let t = tl.minutes.last().copied().unwrap();
    record(&mut sc, &mut tl, t, 600, 30);
    // Wait until it is busy.
    for _ in 0..60 {
        let busy = sc
            .system
            .cluster
            .machine(sc.machine)
            .and_then(|m| m.task(sc.antagonist))
            .and_then(|t| t.last_outcome())
            .map(|o| o.cpu_granted > 2.0)
            .unwrap_or(false);
        if busy {
            break;
        }
        let t = tl.minutes.last().copied().unwrap();
        record(&mut sc, &mut tl, t, 30, 30);
    }
    let t2 = tl.minutes.last().copied().unwrap();
    let until = sc.system.cluster.now() + SimDuration::from_mins(5);
    sc.system.cluster.apply_hard_cap(sc.antagonist, 0.01, until);
    println!("second cap at minute {t2:.0} (worker active)");
    record(&mut sc, &mut tl, t2, 360, 30);
    let survived_second = sc.system.cluster.locate(sc.antagonist).is_some();
    println!("worker survived second cap: {survived_second}");

    let exited_capped = sc
        .system
        .cluster
        .trace()
        .entries()
        .any(|e| matches!(e.event, TraceEvent::TaskExited { task, capped: true, .. } if task == sc.antagonist));

    tl.plot("Fig 13: victim CPI and MapReduce worker CPU (worker exits in 2nd cap)");
    plot::print_table(
        "Case 6 summary",
        &["event", "measured", "paper"],
        &[
            vec![
                "survived 1st cap".into(),
                format!("{survived_first}"),
                "yes (inactive)".into(),
            ],
            vec![
                "survived 2nd cap".into(),
                format!("{survived_second}"),
                "no — exited abruptly".into(),
            ],
            vec![
                "exit recorded as capped".into(),
                format!("{exited_capped}"),
                "quit / killed by master".into(),
            ],
        ],
    );
    assert!(survived_first, "worker must survive the idle-time cap");
    assert!(
        !survived_second,
        "worker must exit during the active-time cap"
    );
    assert!(exited_capped, "trace must record a capped exit");
    println!("\ncase6 OK");
}
