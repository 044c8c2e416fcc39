//! Ablation: the detection parameters of Table 2.
//!
//! The paper chose 2σ + 3-violations-in-5-minutes + a 10-minute
//! correlation window "based on the experimental evaluation" (§5). This
//! sweep quantifies the tradeoffs those choices buy:
//!
//! * outlier σ — lower detects faster but false-alarms on clean machines;
//! * violations required — fewer detects faster but trusts noise;
//! * correlation window — shorter identifies faster but mis-ranks
//!   suspects.
//!
//! Three further sweeps cover what the paper fixes without a table:
//! the spec's age-weighting decay, the sampling duty cycle, and (a
//! property of this reproduction's substrate, not of CPI²) how many
//! passes the simulator's bandwidth fixed point needs.

use crate::plot;
use cpi2::core::Cpi2Config;
use cpi2::harness::{task_for, Cpi2Harness};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::{CacheThrasher, LsService};

struct Run {
    /// Minutes from antagonist arrival to first incident; `None` = missed.
    detection_latency_min: Option<f64>,
    /// Incidents during the clean phase (false alarms).
    clean_incidents: usize,
    /// Whether the top suspect of the first incident was the thrasher.
    correct: Option<bool>,
}

fn run_with(config: Cpi2Config, seed: u64) -> Run {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 6);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("victim", 6, 1.2),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.2,
                    12,
                    seed ^ i as u64,
                ))
            }),
        )
        .expect("placement");
    let mut system = Cpi2Harness::new(cluster, config);
    system.run_for(SimDuration::from_mins(26));
    system.force_spec_refresh();

    // Clean phase: an hour with no antagonist.
    system.run_for(SimDuration::from_hours(1));
    let clean_incidents = system.incidents().len();

    // Antagonist arrives.
    let job = system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 3, 1.0),
            true,
            Box::new(move |i| Box::new(CacheThrasher::new(8.0, 300, 300, seed ^ 0x77 ^ i as u64))),
        )
        .expect("placement");
    let arrival = system.cluster.now();
    let deadline = arrival + SimDuration::from_mins(45);
    while system.cluster.now() < deadline {
        system.step();
        if system.incidents().len() > clean_incidents {
            let mi = &system.incidents()[clean_incidents];
            let latency = (system.cluster.now() - arrival).as_secs_f64() / 60.0;
            let correct = mi
                .incident
                .top_suspect()
                .map(|s| task_for(s.task).job == job);
            return Run {
                detection_latency_min: Some(latency),
                clean_incidents,
                correct,
            };
        }
    }
    Run {
        detection_latency_min: None,
        clean_incidents,
        correct: None,
    }
}

fn summarize(name: String, runs: Vec<Run>) -> Vec<String> {
    let n = runs.len() as f64;
    let detected: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.detection_latency_min)
        .collect();
    let latency = if detected.is_empty() {
        "missed".to_string()
    } else {
        format!(
            "{:.1} min",
            detected.iter().sum::<f64>() / detected.len() as f64
        )
    };
    let false_alarms: usize = runs.iter().map(|r| r.clean_incidents).sum();
    let correct = runs.iter().filter(|r| r.correct == Some(true)).count();
    vec![
        name,
        format!("{}/{}", detected.len(), n as usize),
        latency,
        format!("{false_alarms}"),
        format!("{correct}/{}", detected.len()),
    ]
}

pub(crate) fn run() {
    let seeds = [11u64, 23, 47];
    let headers = [
        "configuration",
        "detected",
        "mean latency",
        "false alarms (1h clean)",
        "correct suspect",
    ];

    // Sweeps 1-3 each vary one detection parameter of Table 2.
    let sweep = |title: &str, configs: Vec<(String, Cpi2Config)>| {
        let rows: Vec<Vec<String>> = configs
            .into_iter()
            .map(|(name, c)| summarize(name, seeds.map(|s| run_with(c.clone(), s)).into()))
            .collect();
        plot::print_table(title, &headers, &rows);
    };
    let base = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    sweep(
        "Ablation 1: outlier threshold (paper: 2σ)",
        [1.0, 2.0, 3.0]
            .map(|outlier_sigma| {
                let c = Cpi2Config {
                    outlier_sigma,
                    ..base.clone()
                };
                (format!("outlier σ = {outlier_sigma}"), c)
            })
            .into(),
    );
    sweep(
        "Ablation 2: violation count (paper: 3 in 5 minutes)",
        [1u32, 3, 5]
            .map(|violations_required| {
                let c = Cpi2Config {
                    violations_required,
                    ..base.clone()
                };
                (format!("{violations_required} violations / 5 min"), c)
            })
            .into(),
    );
    sweep(
        "Ablation 3: correlation window (paper: 10 minutes)",
        [5i64, 10, 20]
            .map(|mins| {
                let c = Cpi2Config {
                    correlation_window_s: mins * 60,
                    ..base.clone()
                };
                (format!("{mins}-minute window"), c)
            })
            .into(),
    );

    // Sweep 4: age-weighting decay. A job drifts (new binary release at
    // period 6 halves its CPI); the spec must follow quickly without
    // forgetting history. We report how many refresh periods the spec
    // needs to get within 10 % of the new behaviour.
    let mut rows = Vec::new();
    for decay in [0.0, 0.5, 0.9, 1.0] {
        let cfg = cpi2::core::Cpi2Config {
            min_samples_per_task: 5,
            age_decay: decay,
            ..cpi2::core::Cpi2Config::default()
        };
        let mut builder = cpi2::core::SpecBuilder::new(cfg);
        let feed = |b: &mut cpi2::core::SpecBuilder, cpi: f64| {
            for task in 0..6u64 {
                for m in 0..20 {
                    b.add_sample(&cpi2::core::CpiSample {
                        task: cpi2::core::TaskHandle(task),
                        jobname: "drifting".into(),
                        platforminfo: "p".into(),
                        timestamp: m * 60_000_000,
                        cpu_usage: 1.0,
                        cpi,
                        l3_mpki: 0.0,
                        class: cpi2::core::TaskClass::latency_sensitive(),
                    });
                }
            }
        };
        for _ in 0..6 {
            feed(&mut builder, 2.0);
            builder.roll_period();
        }
        // The release: CPI drops to 1.0.
        let mut periods_to_adapt = None;
        for p in 1..=20 {
            feed(&mut builder, 1.0);
            let specs = builder.roll_period();
            let mean = specs[0].cpi_mean;
            if periods_to_adapt.is_none() && (mean - 1.0).abs() < 0.1 {
                periods_to_adapt = Some(p);
            }
        }
        rows.push(vec![
            format!("decay = {decay}"),
            periods_to_adapt
                .map(|p| format!("{p} periods"))
                .unwrap_or_else(|| "never (>20)".into()),
            match decay {
                0.0 => "no memory: instant but spec jitters day to day".into(),
                1.0 => "full memory: drags old behaviour forever".into(),
                _ => "smooth adaptation".into(),
            },
        ]);
    }
    plot::print_table(
        "Ablation 4: age-weighting decay (paper: ~0.9/day)",
        &[
            "configuration",
            "periods to re-learn after a release",
            "character",
        ],
        &rows,
    );

    // Sweep 5: the sampling duty cycle (Table 2: 10 s counted per
    // 1-minute period, chosen "to give other measurement tools time to
    // use the counters"). Shorter windows are noisier per reading; longer
    // ones monopolize the counters. We measure per-reading CPI dispersion
    // on a steady task.
    use cpi2::perf::ClusterSampler;
    use cpi2::sim::{
        ConstantLoad, JobId as SimJobId, Machine, MachineId, Priority, SchedClass, SimTime,
        TaskId as SimTaskId, TaskInstance,
    };
    use cpi2_stats::summary::RunningStats;
    let mut rows = Vec::new();
    for window_s in [2i64, 10, 30] {
        let mut machine = Machine::new(MachineId(0), Platform::westmere(), 11);
        let mut profile = ResourceProfile::cache_heavy();
        profile.cpi_noise = 0.08; // Per-tick measurement-scale noise.
        machine.add_task(
            TaskInstance {
                id: SimTaskId {
                    job: SimJobId(1),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(2.0, 8, profile)),
            },
            "steady",
            SchedClass::LatencySensitive,
            Priority::Production,
        );
        // Machine 0's stagger is phase 0.
        let mut sampler = ClusterSampler::with_schedule(
            SimDuration::from_secs(window_s),
            SimDuration::from_secs(60),
            &cpi2::telemetry::Telemetry::disabled(),
        );
        let mut cpis = RunningStats::new();
        let dt = SimDuration::from_secs(1);
        for i in 0..(600 * 60) {
            let now = SimTime::from_secs(i);
            machine.tick(now, dt, &mut Vec::new());
            for r in sampler.poll(&machine, now + dt) {
                if let Some(cpi) = r.cpi {
                    cpis.push(cpi);
                }
            }
        }
        rows.push(vec![
            format!("{window_s} s / 60 s"),
            format!("{}", cpis.count()),
            format!("{:.2}%", cpis.cv() * 100.0),
            format!("{:.0}%", window_s as f64 / 60.0 * 100.0),
        ]);
    }
    plot::print_table(
        "Ablation 5: sampling window (paper: 10 s per minute)",
        &[
            "window / period",
            "readings (10 h)",
            "per-reading CPI dispersion",
            "counter occupancy",
        ],
        &rows,
    );

    // Sweep 6: passes of the simulator's damped bandwidth fixed point
    // (`InterferenceParams::iterations`, default 6) on a 30-task machine
    // mixing streaming and cache-heavy profiles: how far each task's CPI
    // is from the default's answer.
    use cpi2::sim::interference::compute_cols;
    use cpi2::sim::{InterferenceParams, ProfileColumns};
    let activity: Vec<f64> = (0..30).map(|i| 0.5 + (i % 5) as f64).collect();
    let mut profiles = ProfileColumns::default();
    for i in 0..30 {
        profiles.push(&if i % 3 == 0 {
            ResourceProfile::streaming()
        } else {
            ResourceProfile::cache_heavy()
        });
    }
    let cpi_at = |iterations: u32| {
        let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
        compute_cols(
            &Platform::westmere(),
            &activity,
            &profiles,
            &InterferenceParams {
                iterations,
                ..InterferenceParams::default()
            },
            &mut cpi,
            &mut mpki,
        );
        cpi
    };
    let converged = cpi_at(6);
    let rows: Vec<Vec<String>> = [1u32, 3]
        .into_iter()
        .map(|iterations| {
            let max_rel_err = cpi_at(iterations)
                .iter()
                .zip(&converged)
                .map(|(a, b)| (a - b).abs() / b)
                .fold(0.0f64, f64::max);
            vec![format!("{iterations}"), format!("{max_rel_err:.6}")]
        })
        .collect();
    plot::print_table(
        "Ablation 6: interference fixed-point passes (default: 6, damped)",
        &["passes", "max relative CPI error vs 6 passes"],
        &rows,
    );

    println!("\nablation_params OK");
}
