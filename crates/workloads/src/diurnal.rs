//! Diurnal load patterns.
//!
//! User-facing traffic follows a daily cycle; Fig. 5 shows web-search CPI
//! tracking it with a ~4 % coefficient of variation. [`DiurnalPattern`]
//! produces the load multiplier that drives per-task CPU demand.

use cpi2_sim::SimTime;
use std::cell::Cell;

/// The last `(pattern, t)` → level this thread evaluated.
#[derive(Clone, Copy)]
struct LevelMemo {
    /// `(t µs, base, amplitude, peak_hour)`, the floats by bit pattern.
    key: (i64, u64, u64, u64),
    level: f64,
}

thread_local! {
    /// One entry is enough: within a tick every resident model asks for
    /// the same `now`, and the serving catalog shares one pattern. A memo
    /// of a pure function cannot change a result — only who pays for it —
    /// so it may live on the thread rather than travel with the machine.
    static LEVEL_MEMO: Cell<Option<LevelMemo>> = const { Cell::new(None) };
}

/// A sinusoidal daily load curve with optional weekday modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalPattern {
    /// Mean load level (e.g. cores, or a 0–1 utilization factor).
    pub base: f64,
    /// Peak-to-mean amplitude as a fraction of `base` (0.3 = ±30 %).
    pub amplitude: f64,
    /// Hour of day (0–24) at which load peaks.
    pub peak_hour: f64,
}

impl DiurnalPattern {
    /// A typical serving-load shape: peak at 18:00, ±30 %.
    pub fn serving() -> Self {
        DiurnalPattern {
            base: 1.0,
            amplitude: 0.3,
            peak_hour: 18.0,
        }
    }

    /// A flat pattern (no diurnal variation).
    pub fn flat(base: f64) -> Self {
        DiurnalPattern {
            base,
            amplitude: 0.0,
            peak_hour: 0.0,
        }
    }

    /// The load multiplier at simulated time `t`.
    ///
    /// Pure in `(self, t)`, and asked for once per task per tick with the
    /// same arguments across a machine (and a fleet), so the last answer
    /// is kept per thread and a repeat costs four compares instead of a
    /// `rem_euclid`, two divides and a `cos`.
    // lint: hot-path
    pub fn level(&self, t: SimTime) -> f64 {
        let key = (
            t.as_us(),
            self.base.to_bits(),
            self.amplitude.to_bits(),
            self.peak_hour.to_bits(),
        );
        LEVEL_MEMO.with(|memo| match memo.get() {
            Some(hit) if hit.key == key => hit.level,
            _ => {
                let level = self.evaluate(t);
                memo.set(Some(LevelMemo { key, level }));
                level
            }
        })
    }

    /// The curve itself (what [`DiurnalPattern::level`] memoises).
    fn evaluate(&self, t: SimTime) -> f64 {
        #[cfg(test)]
        tests::EVALUATIONS.with(|n| n.set(n.get() + 1));
        let h = t.hour_of_day();
        let phase = 2.0 * std::f64::consts::PI * (h - self.peak_hour) / 24.0;
        (self.base * (1.0 + self.amplitude * phase.cos())).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::LsService;
    use crate::websearch::{Tier, WebSearchTask};
    use cpi2_sim::{
        JobId, Machine, MachineId, Platform, Priority, ResourceProfile, SchedClass, SimDuration,
        TaskId, TaskInstance, TaskModel,
    };
    use proptest::prelude::*;

    thread_local! {
        /// Times this thread ran the curve's formula body.
        pub(super) static EVALUATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn pattern_strategy() -> impl Strategy<Value = DiurnalPattern> {
        (-1.0..5.0f64, -0.5..2.5f64, -6.0..30.0f64).prop_map(|(base, amplitude, peak_hour)| {
            DiurnalPattern {
                base,
                amplitude,
                peak_hour,
            }
        })
    }

    proptest! {
        /// Two patterns alternating at one `t` evict each other from a
        /// single entry on every call; a pattern repeated at one `t` hits;
        /// `t` walks forward by a microsecond, a tick or a day, stands
        /// still, steps back, and starts below zero. Every answer is the
        /// un-memoised formula's (`evaluate`), bit for bit — on this thread
        /// and on a second one making its own calls at the same time.
        #[test]
        fn memoised_level_is_bit_identical_to_the_formula(
            a in pattern_strategy(),
            b in pattern_strategy(),
            start in -200_000_000_000..200_000_000_000i64,
            steps in prop::collection::vec((0..8usize, 1..4usize, any::<bool>()), 1..60),
        ) {
            const STEPS_US: [i64; 8] =
                [0, 1, 250_000, 1_000_000, 7_000_000, -1_000_000, 86_400_000_000, -3];
            let walk = move || -> Result<(), proptest::test_runner::TestCaseError> {
                let mut t = SimTime(start);
                for &(step, repeats, alternate) in &steps {
                    t += SimDuration(STEPS_US[step]);
                    for _ in 0..repeats {
                        prop_assert_eq!(a.level(t).to_bits(), a.evaluate(t).to_bits());
                        if alternate {
                            prop_assert_eq!(b.level(t).to_bits(), b.evaluate(t).to_bits());
                        }
                    }
                }
                Ok(())
            };
            let other = std::thread::spawn(walk.clone());
            walk()?;
            other.join().expect("second thread")?;
        }
    }

    #[test]
    fn a_repeat_is_a_hit_and_a_new_key_is_a_miss() {
        let p = DiurnalPattern::serving();
        let t = SimTime::from_secs(12_345);
        let runs = || EVALUATIONS.with(Cell::get);
        p.level(t);
        let before = runs();
        p.level(t);
        assert_eq!(runs(), before, "same (pattern, t): a hit");
        // Any field of the key differing is a miss, −0.0 vs 0.0 included.
        DiurnalPattern { base: 2.0, ..p }.level(t);
        DiurnalPattern {
            amplitude: 0.1,
            ..p
        }
        .level(t);
        DiurnalPattern {
            peak_hour: 6.0,
            ..p
        }
        .level(t);
        DiurnalPattern::flat(0.0).level(t);
        DiurnalPattern {
            peak_hour: -0.0,
            ..DiurnalPattern::flat(0.0)
        }
        .level(t);
        p.level(t + SimDuration(1));
        assert_eq!(runs(), before + 6);
    }

    /// A dense machine — 25 serving tasks, web-search roots (which ask
    /// again from `observe`) among them — evaluates the curve once per
    /// tick, not once per task.
    #[test]
    fn a_machine_evaluates_the_curve_once_per_tick() {
        let mut m = Machine::new(MachineId(0), Platform::sandy_bridge(), 7);
        for i in 0..25u32 {
            let model: Box<dyn TaskModel> = match i % 5 {
                0 => Box::new(WebSearchTask::new(Tier::Root, u64::from(i))),
                1 => Box::new(WebSearchTask::new(Tier::Leaf, u64::from(i))),
                _ => Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    0.4,
                    8,
                    u64::from(i),
                )),
            };
            m.add_task(
                TaskInstance {
                    id: TaskId {
                        job: JobId(i),
                        index: 0,
                    },
                    model,
                },
                format!("job{i}"),
                SchedClass::LatencySensitive,
                Priority::Production,
            );
        }
        let dt = SimDuration::from_secs(1);
        let before = EVALUATIONS.with(Cell::get);
        let mut exits = Vec::new();
        for i in 0..1_000 {
            m.tick(SimTime::from_secs(i), dt, &mut exits);
        }
        assert_eq!(m.task_count(), 25);
        let ran = EVALUATIONS.with(Cell::get) - before;
        // One distinct pattern (`serving()`); the roots' `observe` asks at
        // `now + dt`, which is the next tick's `now`.
        assert!(ran <= 1_000 + 1, "formula ran {ran} times in 1000 ticks");
    }

    #[test]
    fn peaks_at_peak_hour() {
        let p = DiurnalPattern::serving();
        let peak = p.level(SimTime::from_hours(18));
        let trough = p.level(SimTime::from_hours(6));
        assert!((peak - 1.3).abs() < 1e-9);
        assert!((trough - 0.7).abs() < 1e-9);
    }

    #[test]
    fn flat_is_constant() {
        let p = DiurnalPattern::flat(2.0);
        for h in 0..24 {
            assert_eq!(p.level(SimTime::from_hours(h)), 2.0);
        }
    }

    #[test]
    fn period_is_one_day() {
        let p = DiurnalPattern::serving();
        let t = SimTime::from_hours(7);
        let t_next = t + SimDuration::from_hours(24);
        assert!((p.level(t) - p.level(t_next)).abs() < 1e-12);
    }

    #[test]
    fn never_negative() {
        let p = DiurnalPattern {
            base: 1.0,
            amplitude: 2.0, // Over-amplified on purpose.
            peak_hour: 12.0,
        };
        for h in 0..24 {
            assert!(p.level(SimTime::from_hours(h)) >= 0.0);
        }
    }
}
