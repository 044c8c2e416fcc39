//! Fault-injection end-to-end tests: the CPI² stack under deterministic
//! injected failures — shipment loss, agent restarts, machine crashes and
//! stale spec syncs — must keep detecting real interference, degrade
//! conservatively, and never corrupt state.
//!
//! The acceptance bar is the paper's own resilience story (§4.1): local
//! detection runs on the machine and survives pipeline degradation, so a
//! lossy collection path costs spec freshness, not protection.

use cpi2::core::{Cpi2Config, CpiSpec, IncidentAction};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, FaultPlan, FaultProfile, JobSpec, Platform, ResourceProfile,
    SimDuration,
};
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{CacheThrasher, LsService};
use std::sync::Arc;

fn test_config() -> Cpi2Config {
    Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    }
}

/// Six machines, one latency-sensitive "frontend" task each (the spec
/// needs ≥5 similar tasks), with telemetry on so degraded-mode decisions
/// are observable.
fn victim_cluster(seed: u64) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        telemetry: Telemetry::enabled(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 6);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("frontend", 6, 1.0),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.0,
                    12,
                    seed ^ i as u64,
                ))
            }),
        )
        .expect("placement");
    cluster
}

fn plant_thrasher(system: &mut Cpi2Harness, seed: u64) {
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 1, 1.0),
            true,
            Box::new(move |_| Box::new(CacheThrasher::new(8.0, 300, 300, seed))),
        )
        .expect("placement");
}

/// The headline acceptance test: 10% shipment loss (plus delays,
/// duplications and hourly agent restarts — the `lossy` profile) must not
/// stop the system from catching a planted antagonist.
#[test]
fn detects_antagonist_under_lossy_pipeline() {
    let mut system = Cpi2Harness::new(victim_cluster(7), test_config());
    system.set_fault_plan(Some(FaultPlan::new(0xFA17, FaultProfile::lossy())));

    // Warm up and learn the spec — already under shipment faults, which
    // the aggregation path must absorb (retry, dedup, delay reordering).
    system.run_for(SimDuration::from_mins(30));
    let specs = system.force_spec_refresh();
    assert!(
        specs.iter().any(|s| s.jobname == "frontend"),
        "lossy warm-up still must produce a frontend spec, got {specs:?}"
    );

    plant_thrasher(&mut system, 99);
    system.run_for(SimDuration::from_mins(90));

    // Faults actually fired (hourly restarts over 2 h; ~10% of batches).
    assert!(system.shipment_faults() > 0, "no shipment faults injected");
    assert!(system.agent_restarts() > 0, "no agent restarts injected");
    assert_eq!(system.machine_crashes(), 0, "lossy profile never crashes");

    // ... and detection still worked: incidents, caps, correct blame.
    assert!(
        !system.incidents().is_empty(),
        "expected incidents despite the lossy pipeline"
    );
    assert!(system.caps_applied() >= 1, "expected at least one hard cap");
    let acted: Vec<_> = system
        .incidents()
        .iter()
        .filter(|mi| mi.incident.acted())
        .collect();
    assert!(!acted.is_empty(), "expected an acted incident");
    for mi in &acted {
        if let IncidentAction::HardCap { target_job, .. } = &mi.incident.action {
            assert_eq!(&**target_job, "thrasher", "wrong antagonist blamed");
        }
        assert_eq!(&*mi.incident.victim_job, "frontend");
    }
}

/// A spec past its TTL flips the agent into conservative detection; every
/// decision taken in that mode is visible in telemetry.
#[test]
fn stale_specs_degrade_conservatively() {
    let config = Cpi2Config {
        spec_ttl_hours: 1,
        ..test_config()
    };
    let mut system = Cpi2Harness::new(victim_cluster(13), config);

    // Learn and publish once (stamped with sim time), then run past the
    // 1 h TTL with no further refresh (the next natural one is at 24 h).
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_mins(100));

    let text = system
        .telemetry()
        .prometheus_text()
        .expect("telemetry enabled");
    let degraded = text
        .lines()
        .find(|l| l.starts_with("cpi_agent_degraded_decisions_total"))
        .unwrap_or_else(|| panic!("no degraded-decision metric in:\n{text}"));
    let count: f64 = degraded
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("metric value");
    assert!(
        count > 0.0,
        "specs aged past the TTL but no decision was marked degraded: {degraded}"
    );
}

/// The heavy profile adds machine crashes: resident tasks die and respawn,
/// the agent's window restarts cleanly, and cluster invariants hold.
#[test]
fn survives_machine_crashes_and_keeps_state_coherent() {
    let mut system = Cpi2Harness::new(victim_cluster(29), test_config());
    system.set_fault_plan(Some(FaultPlan::new(0xC4A5, FaultProfile::heavy())));

    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_mins(60));

    assert!(system.machine_crashes() > 0, "heavy profile must crash");
    assert!(system.agent_restarts() > 0);

    // Post-crash coherence: every resident task is locatable, the
    // restart-on-exit victim job is back to full strength, and no agent
    // is ahead of the spec store.
    let mut frontend_tasks = 0;
    for m in system.cluster.machines() {
        for t in m.tasks() {
            assert_eq!(system.cluster.locate(t.id), Some(m.id));
            if &*t.job_name == "frontend" {
                frontend_tasks += 1;
            }
        }
        if let Some(v) = system.agent_spec_version(m.id) {
            assert!(v <= system.spec_store.version());
        }
    }
    assert_eq!(frontend_tasks, 6, "crashed frontend tasks must respawn");
}

/// Shipment faults shift spec freshness, never correctness: the aggregator
/// dedups duplicated batches and the retry queue bounds its memory.
#[test]
fn pipeline_hardening_bounds_degradation() {
    let mut system = Cpi2Harness::new(victim_cluster(43), test_config());
    system.set_fault_plan(Some(FaultPlan::new(0xDE_D0B, FaultProfile::lossy())));
    system.run_for(SimDuration::from_mins(45));

    // Duplicated shipments were injected and the idempotent ingest caught
    // real replays (dedup is exercised end-to-end, not just in unit tests).
    assert!(system.shipment_faults() > 0);
    assert!(
        system.aggregator.duplicates_dropped() > 0,
        "expected the aggregator to drop at least one replayed batch"
    );
    // Nothing leaked: the retry queue never grows without bound.
    assert!(
        system.shipments_pending_retry() <= 8,
        "retry queue grew unexpectedly: {}",
        system.shipments_pending_retry()
    );
}

/// What a faulted run yields: duplicates dropped, incident lines and the
/// specs the store published, each with its publish time.
type Outcome = (u64, Vec<String>, Vec<(Arc<CpiSpec>, i64)>);

/// A faulted run with a planted thrasher. With `hour`, the aggregator
/// remembers an hour of samples instead of the harness's own horizon (the
/// retry queue's redelivery span).
fn faulted_run(plan: FaultPlan, seed: u64, hour: bool) -> Outcome {
    let mut system = Cpi2Harness::new(victim_cluster(seed), test_config());
    if hour {
        system.aggregator.set_dedup_horizon(Some(3_600_000_000));
    }
    system.set_fault_plan(Some(plan));
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    plant_thrasher(&mut system, 99);
    system.run_for(SimDuration::from_mins(60));
    system.force_spec_refresh();
    (
        system.aggregator.duplicates_dropped(),
        system.incident_lines(),
        system.spec_store.changed_since_with_age(0),
    )
}

fn redelivery_horizon_dedups_as_an_hour_does(plan: FaultPlan, seed: u64) {
    let derived = faulted_run(plan.clone(), seed, false);
    let hour = faulted_run(plan, seed, true);
    assert!(derived.0 > 0, "no duplicate reached the aggregator");
    assert_eq!(derived.0, hour.0, "duplicates dropped");
    assert!(!derived.1.is_empty(), "no incident to compare");
    assert_eq!(derived.1, hour.1, "incident lines");
    assert!(!derived.2.is_empty(), "no spec to compare");
    assert_eq!(derived.2, hour.2, "published specs");
}

/// The harness remembers ingested samples only as long as the retry queue
/// can redeliver a copy; an hour's memory drops no more and changes no
/// incident or spec.
#[test]
fn lossy_pipeline_dedups_as_with_an_hour_of_memory() {
    redelivery_horizon_dedups_as_an_hour_does(FaultPlan::new(0xFA17, FaultProfile::lossy()), 7);
}

#[test]
fn heavy_faults_dedup_as_with_an_hour_of_memory() {
    redelivery_horizon_dedups_as_an_hour_does(FaultPlan::new(0xC4A5, FaultProfile::heavy()), 29);
}
