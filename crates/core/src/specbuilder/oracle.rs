//! The `add_sample` this crate shipped before each task was bound to its
//! key's accumulator — every sample probes the key-ordered period map
//! with its own key and inserts its task into the key's task set —
//! kept, test-only, as the reference the bound path must match period for
//! period.
//!
//! One deliberate departure from that code: the reference drops a sample
//! whose CPU usage is non-finite or negative, as the live path now does,
//! so that streams carrying such samples can be compared too.

// Redundant with the parent's `#[cfg(test)] mod oracle;` for rustc; it is
// what tells `cpi2-lint`, which reads one file at a time, that none of
// this ships.
#![cfg(test)]

use super::*;
use crate::sample::{TaskClass, TaskHandle};
use cpi2_stats::Name;
use proptest::prelude::*;

impl SpecBuilder {
    fn add_sample_reference(&mut self, sample: &CpiSample) {
        if !usable(sample) {
            return;
        }
        let slot = match self.current.get(&sample.key()) {
            Some(&slot) => slot,
            None => {
                self.accums.push(PeriodAccum::default());
                self.current.insert(sample.key(), self.accums.len() - 1);
                self.accums.len() - 1
            }
        };
        let acc = &mut self.accums[slot];
        acc.cpi.push(sample.cpi);
        acc.cpu.push(sample.cpu_usage);
        acc.tasks.insert(sample.task);
    }

    /// Everything the period holds, key by key in key order: samples,
    /// distinct tasks, and both running means and deviations.
    fn period_state(&self) -> String {
        let state: Vec<_> = self
            .current
            .iter()
            .map(|(key, &slot)| {
                let acc = &self.accums[slot];
                (
                    key,
                    acc.cpi.count(),
                    acc.tasks.len(),
                    [acc.cpi.mean(), acc.cpi.stddev()],
                    [acc.cpu.mean(), acc.cpu.stddev()],
                )
            })
            .collect();
        format!("{state:?}")
    }
}

const JOBS: [&str; 3] = ["websearch", "video", "batch"];
const PLATFORMS: [&str; 2] = ["westmere", "sandybridge"];
const HANDLES: usize = 6;

/// One generated step: `(kind, a, b, x, bits)`, read by [`World::step`].
type Op = (u8, u8, u8, f64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..20u8, 0..6u8, 0..6u8, 0.0..4.0f64, any::<u64>()),
        20..200,
    )
}

enum Step {
    Roll,
    Sample(CpiSample),
}

/// Six task handles, each bound to a job × platform whose names are
/// shared the way the simulator shares them.
struct World {
    jobs: Vec<Name>,
    platforms: Vec<Name>,
    bound: [(usize, usize); HANDLES],
    minute: i64,
}

impl World {
    fn new() -> World {
        World {
            jobs: JOBS.iter().map(|&j| Name::from(j)).collect(),
            platforms: PLATFORMS.iter().map(|&p| Name::from(p)).collect(),
            bound: [(0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (2, 1)],
            minute: 0,
        }
    }

    fn step(&mut self, (kind, a, b, x, bits): Op) -> Step {
        let h = a as usize % HANDLES;
        match kind {
            // A period boundary.
            0 => return Step::Roll,
            // The handle reused by another job or platform mid-period.
            1 | 2 => self.bound[h] = (b as usize % JOBS.len(), (bits % 2) as usize),
            _ => {}
        }
        let (job, platform) = self.bound[h];
        // Now and then the same names arrive in allocations of their own.
        let fresh = (bits >> 1) & 7 == 0;
        let name = |shared: &Name| {
            if fresh {
                Name::from(&**shared)
            } else {
                Name::clone(shared)
            }
        };
        let (cpi, cpu_usage) = match (bits >> 4) & 15 {
            0 => (f64::NAN, 1.0),
            1 => (f64::INFINITY, 1.0),
            2 => (-1.0, 1.0),
            3 => (0.0, 1.0),
            4 => (1.5, f64::NAN),
            5 => (1.5, f64::INFINITY),
            6 => (1.5, -0.5),
            7 => (1.5, 0.0),
            _ => (0.5 + x, x / 2.0),
        };
        self.minute += 1;
        Step::Sample(CpiSample {
            task: TaskHandle(h as u64),
            jobname: name(&self.jobs[job]),
            platforminfo: name(&self.platforms[platform]),
            timestamp: self.minute * 60_000_000,
            cpu_usage,
            cpi,
            l3_mpki: 1.0,
            class: TaskClass::batch(),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bound_samples_match_the_string_probe_reference(ops in ops()) {
        let config = Cpi2Config {
            min_tasks: 2,
            min_samples_per_task: 2,
            ..Cpi2Config::default()
        };
        let mut live = SpecBuilder::new(config.clone());
        let mut reference = SpecBuilder::new(config);
        let mut world = World::new();
        for op in ops {
            match world.step(op) {
                Step::Roll => {
                    let (got, want) = (live.roll_period(), reference.roll_period());
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
                Step::Sample(s) => {
                    live.add_sample(&s);
                    reference.add_sample_reference(&s);
                    prop_assert_eq!(
                        live.period_samples(&s.key()),
                        reference.period_samples(&s.key())
                    );
                }
            }
            prop_assert_eq!(live.period_state(), reference.period_state());
        }
        let (got, want) = (live.roll_period(), reference.roll_period());
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
