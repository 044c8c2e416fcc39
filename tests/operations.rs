//! Integration tests for the operator interface (§5) and the automatic
//! antagonist-aware placement of §9's future work.

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, ConstantLoad, JobSpec, Platform, ResourceProfile, SimDuration, TaskId,
    TraceEvent,
};
use cpi2::workloads::{CacheThrasher, LsService};

fn test_config() -> Cpi2Config {
    Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    }
}

fn victim_cluster(seed: u64) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
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

/// Injects a 3-task thrasher job so at least one task lands next to a
/// victim regardless of the scheduler's random spread. Returns the task
/// that is co-resident with a frontend task.
fn inject_thrasher(system: &mut Cpi2Harness, seed: u64) -> TaskId {
    let job = system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 3, 1.0),
            true,
            Box::new(move |i| Box::new(CacheThrasher::new(8.0, 300, 300, seed ^ i as u64))),
        )
        .expect("placement");
    for index in 0..3 {
        let t = TaskId { job, index };
        if let Some(m) = system.cluster.locate(t) {
            let machine = system.cluster.machine(m).unwrap();
            if machine.tasks().any(|r| &*r.job_name == "frontend") {
                return t;
            }
        }
    }
    panic!("no thrasher co-located with a frontend task");
}

#[test]
fn protection_toggle_gates_caps() {
    let mut system = Cpi2Harness::new(victim_cluster(1), test_config());
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    inject_thrasher(&mut system, 5);

    // Protection off: incidents flow, caps do not.
    system.set_protection_enabled(false);
    assert!(!system.protection_enabled());
    system.run_for(SimDuration::from_mins(40));
    assert!(!system.incidents().is_empty(), "detection must continue");
    assert_eq!(system.caps_applied(), 0, "caps must be gated off");

    // Protection back on: the next incident caps.
    system.set_protection_enabled(true);
    system.run_for(SimDuration::from_mins(40));
    assert!(system.caps_applied() >= 1, "caps resume when enabled");
}

#[test]
fn operator_manual_cap_and_migrate() {
    let mut system = Cpi2Harness::new(victim_cluster(2), test_config());
    system.set_protection_enabled(false); // Manual operation only.
    system.run_for(SimDuration::from_mins(26));
    system.force_spec_refresh();
    let thrasher = inject_thrasher(&mut system, 7);
    system.run_for(SimDuration::from_mins(5));

    // Manual cap.
    assert!(system.operator_cap(thrasher, 0.05, SimDuration::from_mins(5)));
    system.run_for(SimDuration::from_mins(1));
    let m = system.cluster.locate(thrasher).unwrap();
    let out = system
        .cluster
        .machine(m)
        .unwrap()
        .task(thrasher)
        .unwrap()
        .last_outcome()
        .copied()
        .unwrap();
    assert!(
        out.cpu_granted <= 0.051,
        "cap must bite: {}",
        out.cpu_granted
    );

    // Manual migration: the old task is gone, a replacement exists with a
    // fresh index (3, since the job submitted tasks 0-2).
    let new_machine = system.operator_migrate(thrasher).expect("migrates");
    assert!(system.cluster.locate(thrasher).is_none());
    let replacement = TaskId {
        job: thrasher.job,
        index: 3,
    };
    assert_eq!(system.cluster.locate(replacement), Some(new_machine));
    // Capping a dead task fails cleanly.
    assert!(!system.operator_cap(thrasher, 0.05, SimDuration::from_mins(5)));
}

#[test]
fn top_antagonists_aggregation() {
    let mut system = Cpi2Harness::new(victim_cluster(3), test_config());
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    inject_thrasher(&mut system, 11);
    system.run_for(SimDuration::from_hours(1));
    let top = system.top_antagonists(5);
    assert!(!top.is_empty(), "expected at least one antagonist row");
    assert_eq!(top[0].0, "thrasher");
    assert!(top[0].1 >= 1);
    assert!(top[0].2 >= 0.35);
}

#[test]
fn placement_feedback_learns_anti_affinity() {
    let mut system = Cpi2Harness::new(victim_cluster(4), test_config());
    system.placement_feedback_after = Some(2);
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    let thrasher = inject_thrasher(&mut system, 13);
    system.run_for(SimDuration::from_hours(2));

    assert!(
        system.migrations_triggered() >= 1,
        "repeat offender should have been migrated"
    );
    let migrated = system
        .cluster
        .trace()
        .entries()
        .any(|e| matches!(e.event, TraceEvent::TaskMigrated { .. }));
    assert!(migrated, "trace should record the migration");

    // After learning, the thrasher's job and the victim job never share a
    // machine again.
    system.run_for(SimDuration::from_mins(30));
    for m in system.cluster.machines() {
        let has_victim = m.tasks().any(|t| &*t.job_name == "frontend");
        let has_thrasher = m.tasks().any(|t| &*t.job_name == "thrasher");
        assert!(
            !(has_victim && has_thrasher),
            "anti-affinity violated on {}",
            m.id
        );
    }
    let _ = thrasher;
}

#[test]
fn placement_feedback_off_by_default() {
    let mut system = Cpi2Harness::new(victim_cluster(5), test_config());
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    inject_thrasher(&mut system, 17);
    system.run_for(SimDuration::from_hours(1));
    assert_eq!(system.migrations_triggered(), 0);
}

#[test]
fn constant_hog_detected_weakly() {
    // A perfectly steady antagonist gives the passive correlation little
    // signal (§4.2's design tradeoff): usage mass is spread across high-
    // and low-CPI windows alike. The system may or may not clear 0.35 —
    // assert only that no *innocent* job is capped.
    let mut system = Cpi2Harness::new(victim_cluster(6), test_config());
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system
        .cluster
        .submit_job(
            JobSpec::batch("steady", 1, 1.0),
            true,
            Box::new(|_| Box::new(ConstantLoad::new(6.0, 8, ResourceProfile::streaming()))),
        )
        .expect("placement");
    system.run_for(SimDuration::from_hours(1));
    for mi in system.incidents() {
        if let cpi2::core::IncidentAction::HardCap { target_job, .. } = &mi.incident.action {
            assert_eq!(
                &**target_job, "steady",
                "only the real antagonist may be capped"
            );
        }
    }
}
