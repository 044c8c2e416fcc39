//! End-to-end integration tests: the full CPI² deployment (simulated
//! cluster + counter sampling + agents + pipeline) detecting and
//! ameliorating real interference.

use cpi2::core::{Cpi2Config, IncidentAction, JobKey};
use cpi2::harness::Cpi2Harness;
use cpi2::pipeline::Query;
use cpi2::sim::ResourceProfile;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration, TaskId, TraceEvent};
use cpi2::workloads::{self, CacheThrasher, LsService, MapReduceWorker};

/// Test config: paper parameters, but spec eligibility relaxed so a short
/// warm-up builds usable specs.
fn test_config() -> Cpi2Config {
    Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    }
}

/// Six machines each hosting one task of a latency-sensitive serving job
/// (spec building needs ≥5 similar tasks; spreading them keeps the learned
/// spec free of self-contention, as in a real cluster).
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

/// Mean CPI of the victim job's tasks over the trailing samples.
fn victim_cpi_now(system: &Cpi2Harness) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for m in system.cluster.machines() {
        for t in m.tasks() {
            if &*t.job_name == "frontend" {
                if let Some(o) = t.last_outcome() {
                    sum += o.cpi;
                    n += 1;
                }
            }
        }
    }
    sum / n.max(1) as f64
}

#[test]
fn detects_caps_and_restores_victim() {
    let mut system = Cpi2Harness::new(victim_cluster(7), test_config());

    // Phase 1: warm up alone and learn the spec.
    system.run_for(SimDuration::from_mins(30));
    let specs = system.force_spec_refresh();
    assert!(
        specs.iter().any(|s| s.jobname == "frontend"),
        "warm-up must produce a frontend spec, got {specs:?}"
    );
    let baseline = victim_cpi_now(&system);

    // Phase 2: a bursty best-effort cache thrasher lands on the machine.
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 1, 1.0),
            true,
            Box::new(|_| Box::new(CacheThrasher::new(8.0, 300, 300, 99))),
        )
        .expect("placement");
    system.run_for(SimDuration::from_mins(40));

    // CPI² must have detected the interference and capped the thrasher.
    assert!(
        !system.incidents().is_empty(),
        "expected incidents to be reported"
    );
    assert!(system.caps_applied() >= 1, "expected at least one hard cap");
    let acted: Vec<_> = system
        .incidents()
        .iter()
        .filter(|mi| mi.incident.acted())
        .collect();
    assert!(!acted.is_empty(), "expected an acted incident");
    for mi in &acted {
        match &mi.incident.action {
            IncidentAction::HardCap {
                target_job,
                cpu_rate,
                ..
            } => {
                assert_eq!(&**target_job, "thrasher", "wrong antagonist blamed");
                // Best-effort jobs get the 0.01 CPU-sec/sec cap (§5).
                assert_eq!(*cpu_rate, 0.01);
            }
            IncidentAction::None { .. } => unreachable!("filtered to acted"),
        }
        assert_eq!(&*mi.incident.victim_job, "frontend");
        let top = mi.incident.top_suspect().expect("suspects listed");
        assert!(top.correlation >= 0.35);
    }

    // While the cap is in force the victim's CPI returns toward baseline.
    let thrasher_task = TaskId {
        job: system
            .cluster
            .jobs()
            .find(|(_, s)| s.name == "thrasher")
            .unwrap()
            .0,
        index: 0,
    };
    let m = system.cluster.locate(thrasher_task).unwrap();
    let capped_now = system
        .cluster
        .machine(m)
        .unwrap()
        .task(thrasher_task)
        .unwrap()
        .cgroup
        .hard_cap(system.cluster.now())
        .is_some();
    if capped_now {
        let during = victim_cpi_now(&system);
        assert!(
            during < baseline * 1.5,
            "victim CPI {during} should be near baseline {baseline} while capped"
        );
    }
}

#[test]
fn specs_propagate_to_agents() {
    let mut system = Cpi2Harness::new(victim_cluster(11), test_config());
    system.run_for(SimDuration::from_mins(20));
    system.force_spec_refresh();
    // Agents sync lazily at their next sample.
    system.run_for(SimDuration::from_mins(2));
    let machine = system.cluster.machines()[0].id;
    let agent = system.agent(machine).expect("agent instantiated");
    let key = JobKey::new("frontend", "westmere-2.6GHz");
    let spec = agent.spec(&key).expect("spec installed on agent");
    assert!(spec.robust());
    assert!(
        spec.cpi_mean > 0.5 && spec.cpi_mean < 4.0,
        "{}",
        spec.cpi_mean
    );
}

#[test]
fn bimodal_service_triggers_no_false_alarm() {
    // Case 3: the victim's CPI swings are self-inflicted and happen at low
    // CPU usage; the min-usage filter must suppress any incident.
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.add_machines(&Platform::westmere(), 1);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("bimodal-frontend", 6, 0.5),
            true,
            workloads::factory("bimodal-frontend", 5),
        )
        .unwrap();
    let mut system = Cpi2Harness::new(cluster, test_config());
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_hours(1));
    assert_eq!(
        system.caps_applied(),
        0,
        "no caps may result from self-inflicted CPI swings"
    );
}

#[test]
fn mapreduce_antagonist_exits_under_capping() {
    // Case 6: the capped antagonist is a MapReduce worker that gives up
    // under prolonged starvation; the cluster trace records a capped exit.
    let mut cluster = victim_cluster(23);
    cluster
        .submit_job(
            JobSpec::batch("mapreduce", 1, 1.0),
            false,
            Box::new(|_| Box::new(MapReduceWorker::new(3).with_starvation_limit(120))),
        )
        .unwrap();
    let mut system = Cpi2Harness::new(cluster, test_config());
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system.run_for(SimDuration::from_hours(2));

    if system.caps_applied() == 0 {
        // The worker may idle through windows on some seeds; the essential
        // assertion is conditional on a cap having been applied.
        eprintln!("note: no cap applied in this run");
        return;
    }
    let exited_capped = system
        .cluster
        .trace()
        .entries()
        .any(|e| matches!(e.event, TraceEvent::TaskExited { capped: true, .. }));
    assert!(
        exited_capped,
        "a capped MapReduce worker should eventually exit"
    );
}

#[test]
fn forensics_queries_run_over_incident_log() {
    let mut system = Cpi2Harness::new(victim_cluster(31), test_config());
    system.run_for(SimDuration::from_mins(20));
    system.force_spec_refresh();
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 1, 1.0),
            true,
            Box::new(|_| Box::new(CacheThrasher::new(8.0, 300, 300, 17))),
        )
        .unwrap();
    system.run_for(SimDuration::from_hours(1));
    assert!(!system.incidents().is_empty());

    // §5: SQL-like forensics over the logged incidents, as `cpi2
    // forensics` answers them.
    let ask = |sql: &str| {
        let incidents = system.incidents().iter().map(|mi| &mi.incident);
        Query::parse(sql).unwrap().scan(incidents)
    };
    let r = ask("SELECT victim_job, count(*) FROM incidents \
         GROUP BY victim_job ORDER BY count(*) DESC LIMIT 5");
    assert_eq!(r.rows[0][0].to_string(), "frontend");
    // Top suspects by correlation.
    let r = ask(
        "SELECT suspects.0.jobname, max(suspects.0.correlation) FROM incidents \
         GROUP BY suspects.0.jobname",
    );
    assert!(!r.rows.is_empty());
}
