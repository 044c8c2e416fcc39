//! Fleet-scale incident rate: §7's headline deployment number.
//!
//! "The measurement part of CPI² has now been rolled out to all of
//! Google's production machines. It is identifying antagonists at an
//! average rate of 0.37 times per machine-day." A fleet is *mostly
//! healthy*: serving tasks spread thin, with occasional short-lived batch
//! antagonists landing and leaving. `fleet_rate` builds that regime —
//! 150 machines, sparse serving load, a Poisson stream of transient
//! thrashers — runs a simulated day, and reports identifications per
//! machine-day.
//!
//! `fleet_rate_lossy` is the resilience experiment: the same day with the
//! `lossy` fault plan armed (shipment loss, delay and duplication,
//! periodic agent restarts — DESIGN.md §7) and the fault counters in the
//! report. It still lands in the paper's band, because detection is local
//! (§4.1) and only spec freshness degrades.

use crate::plot;
use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, FaultPlan, FaultProfile, JobSpec, Platform, SimDuration};
use cpi2::workloads::{self, TraceJob};
use cpi2_stats::rng::SimRng;

const MACHINES: u32 = 150;
/// Seeds the fleet and, for `fleet_rate_lossy`, the fault plan.
const SEED: u64 = 0xF1EE7;

/// Builds the mostly-healthy fleet regime.
fn build_fleet() -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: SEED,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), MACHINES);

    // Sparse serving load: ~0.8 significant tasks per machine, footprints
    // that fit.
    for (name, frac_tasks, cpu) in [
        ("websearch-leaf", 0.25f64, 2.0),
        ("bigtable-tablet", 0.20, 1.2),
        ("storage-server", 0.15, 1.0),
        ("image-frontend", 0.15, 1.0),
    ] {
        let tasks = ((MACHINES as f64 * frac_tasks) as u32).max(6);
        cluster
            .submit_job(
                JobSpec::latency_sensitive(name, tasks, cpu),
                true,
                workloads::factory(name, 0xFEE ^ tasks as u64),
            )
            .expect("placement");
    }
    // Plus the swarm of small tenants every production machine carries
    // (so no machine is empty and transient batch always has neighbours).
    cluster
        .submit_job(
            JobSpec::latency_sensitive("tenant", MACHINES * 2, 0.2),
            true,
            Box::new(|i| {
                let mut p = cpi2::sim::ResourceProfile::compute_bound();
                p.cache_mb = 0.5;
                Box::new(cpi2::workloads::LsService::new(p, 0.2, 6, 0x7E ^ i as u64))
            }),
        )
        .expect("placement");
    cluster
}

pub(crate) fn run() {
    fleet_day(None);
}

pub(crate) fn run_lossy() {
    fleet_day(Some(FaultProfile::lossy()));
}

/// One day of spec learning, then the measured 22 hours — under `faults`
/// when given, which also adds the fault-counter rows to the report.
fn fleet_day(faults: Option<FaultProfile>) {
    let mut cluster = build_fleet();

    // Transient antagonists: a Poisson-ish stream of short-lived thrasher
    // jobs over the measured day (≈ machines/20 arrivals, 60–120 min
    // each), arriving after the full-day spec warm-up.
    let mut rng = SimRng::new(0x0DD5);
    let arrivals = MACHINES / 20;
    let mut trace = Vec::new();
    for i in 0..arrivals {
        trace.push(TraceJob {
            at_s: rng.range_u64(25 * 3_600, 44 * 3_600) as i64,
            name: "cache-thrasher".into(),
            class: "best-effort".into(),
            tasks: 1,
            cpu: 1.0,
            seed: 0xA11 + i as u64,
            duration_s: Some(rng.range_u64(3_600, 7_200) as i64),
        });
    }
    workloads::schedule_trace(&mut cluster, &trace);

    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    let faulty = faults.is_some();
    system.set_fault_plan(faults.map(|profile| FaultPlan::new(SEED, profile)));

    // Learn specs over one clean day: the spec σ must absorb the diurnal
    // swing (the paper refreshes every 24 h).
    system.run_for(SimDuration::from_hours(24));
    system.force_spec_refresh();

    // Measure the next 22 hours (antagonists arrive from hour 25 on).
    system.run_for(SimDuration::from_hours(22));

    let identifications = system
        .incidents()
        .iter()
        .filter(|mi| {
            mi.incident
                .top_suspect()
                .is_some_and(|s| s.class.throttle_eligible() && s.correlation >= 0.35)
        })
        .count();
    let machine_days = MACHINES as f64 * 22.0 / 24.0;
    let rate = identifications as f64 / machine_days;
    let incident_rate = system.incidents().len() as f64 / machine_days;

    let mut rows = vec![
        vec![
            "machines x days".into(),
            format!("{MACHINES} x 0.92"),
            "whole fleet".into(),
        ],
        vec![
            "antagonist arrivals".into(),
            format!("{arrivals} transient thrashers"),
            "(production mix)".into(),
        ],
        vec![
            "identifications / machine-day".into(),
            format!("{rate:.2}"),
            "0.37".into(),
        ],
        vec![
            "all anomalies / machine-day".into(),
            format!("{incident_rate:.2}"),
            "(not reported)".into(),
        ],
        vec![
            "caps applied".into(),
            format!("{}", system.caps_applied()),
            "enforcement was opt-in".into(),
        ],
        vec![
            "collector batches dropped".into(),
            format!("{}", system.collector_dropped()),
            "pipeline is lossy by design".into(),
        ],
    ];
    if faulty {
        rows.push(vec![
            "injected agent restarts / machine crashes".into(),
            format!("{} / {}", system.agent_restarts(), system.machine_crashes()),
            "(fault injection)".into(),
        ]);
        rows.push(vec![
            "injected shipment faults".into(),
            format!("{}", system.shipment_faults()),
            "(fault injection)".into(),
        ]);
    }
    plot::print_table(
        "Fleet incident rate over one simulated day",
        &["metric", "measured", "paper"],
        &rows,
    );
    assert!(
        (0.01..=5.0).contains(&rate),
        "identification rate {rate} outside the paper's order of magnitude"
    );
    println!("\nfleet_rate OK ({rate:.2} identifications per machine-day; paper: 0.37)");
}
