//! Property-based tests for the sampler schedule and readings.

use cpi2_perf::{MachineSampler, SamplerConfig};
use cpi2_sim::{
    ConstantLoad, JobId, Machine, MachineId, Platform, Priority, ResourceProfile, SchedClass,
    SimDuration, SimTime, TaskId, TaskInstance,
};
use proptest::prelude::*;

fn machine(task_cpus: &[f64], seed: u64) -> Machine {
    let mut m = Machine::new(MachineId(0), Platform::westmere(), seed);
    for (i, &cpu) in task_cpus.iter().enumerate() {
        m.add_task(
            TaskInstance {
                id: TaskId {
                    job: JobId(i as u32),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(cpu, 2, ResourceProfile::compute_bound())),
            },
            format!("job{i}"),
            SchedClass::Batch,
            Priority::NonProduction,
        );
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn readings_once_per_period(
        cpus in prop::collection::vec(0.1..2.0f64, 1..6),
        window_s in 2..20i64,
        phase_s in 0..30i64,
        seed in any::<u64>(),
    ) {
        let period_s = 60i64;
        prop_assume!(window_s + phase_s <= period_s);
        let mut m = machine(&cpus, seed);
        let mut s = MachineSampler::new(SamplerConfig {
            window: SimDuration::from_secs(window_s),
            period: SimDuration::from_secs(period_s),
            phase: SimDuration::from_secs(phase_s),
        });
        let dt = SimDuration::from_secs(1);
        let mut batches = 0;
        for i in 0..(period_s * 5) {
            let now = SimTime::from_secs(i);
            m.tick(now, dt, &mut Vec::new());
            let r = s.poll(&m, now + dt);
            if !r.is_empty() {
                batches += 1;
                // Each batch covers every resident task exactly once.
                prop_assert_eq!(r.len(), cpus.len());
            }
        }
        // 5 periods → 4-5 closed windows depending on phase alignment.
        prop_assert!((4..=5).contains(&batches), "batches={batches}");
    }

    #[test]
    fn readings_are_physical(
        cpus in prop::collection::vec(0.1..3.0f64, 1..8),
        seed in any::<u64>(),
    ) {
        // Stay below machine capacity so grants equal demands.
        prop_assume!(cpus.iter().sum::<f64>() < 11.0);
        let mut m = machine(&cpus, seed);
        let mut s = MachineSampler::new(SamplerConfig::default());
        let dt = SimDuration::from_secs(1);
        let mut readings = Vec::new();
        for i in 0..180 {
            let now = SimTime::from_secs(i);
            m.tick(now, dt, &mut Vec::new());
            readings.extend(s.poll(&m, now + dt));
        }
        prop_assert!(!readings.is_empty());
        for r in &readings {
            prop_assert!(r.cpu_usage >= 0.0);
            prop_assert!(r.cpu_usage <= Platform::westmere().cores as f64 + 1e-9);
            if let Some(cpi) = r.cpi {
                prop_assert!(cpi > 0.0 && cpi.is_finite());
            }
            prop_assert!(r.l3_mpki >= 0.0);
        }
        // Usage must roughly match the constant demand per task.
        for (i, &cpu) in cpus.iter().enumerate() {
            let mine: Vec<&_> = readings
                .iter()
                .filter(|r| r.task.job == JobId(i as u32))
                .collect();
            prop_assert!(!mine.is_empty());
            for r in mine {
                prop_assert!((r.cpu_usage - cpu).abs() < 0.05 * cpu + 0.02,
                    "task {i}: usage {} vs demand {cpu}", r.cpu_usage);
            }
        }
    }
}
