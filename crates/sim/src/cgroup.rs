//! Resource-management containers with CFS bandwidth control.
//!
//! Every task runs inside a cgroup that limits its CPU use (§2). CPU
//! hard-capping is implemented the way the paper does it — Linux CFS
//! bandwidth control ([Turner et al.], §5): a quota of runnable
//! microseconds per enforcement period, e.g. 25 ms per 250 ms window
//! for a cap of 0.1 CPU-sec/sec.
//!
//! [Turner et al.]: https://www.kernel.org/doc/Documentation/scheduler/sched-bwc.txt

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Monotonic hardware-counter block accumulated per cgroup.
///
/// These are the raw counters the `cpi2-perf` sampler reads in counting
/// mode; `CPU_CLK_UNHALTED.REF` maps to [`cycles`](CounterBlock::cycles)
/// and `INSTRUCTIONS_RETIRED` to
/// [`instructions`](CounterBlock::instructions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterBlock {
    /// Reference cycles consumed.
    pub cycles: f64,
    /// Instructions retired.
    pub instructions: f64,
    /// L2 cache misses.
    pub l2_misses: f64,
    /// L3 (last-level) cache misses.
    pub l3_misses: f64,
    /// Memory controller requests (cache lines transferred).
    pub mem_lines: f64,
    /// Inter-cgroup context switches involving this cgroup.
    pub context_switches: u64,
    /// CPU time consumed, in microseconds (CPU-µs, may exceed wall time on
    /// multi-core machines).
    pub cpu_time_us: f64,
}

impl CounterBlock {
    /// Component-wise difference `self − earlier` (for delta reads).
    ///
    /// The float fields go negative when `earlier` is actually later (a
    /// counter reset — e.g. the task's machine crashed and respawned it);
    /// readers use that sign as the reset signal, so the unsigned field
    /// saturates rather than panicking.
    pub fn delta(&self, earlier: &CounterBlock) -> CounterBlock {
        CounterBlock {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            mem_lines: self.mem_lines - earlier.mem_lines,
            context_switches: self
                .context_switches
                .saturating_sub(earlier.context_switches),
            cpu_time_us: self.cpu_time_us - earlier.cpu_time_us,
        }
    }

    /// Cycles per instruction over this block; `None` when no instructions
    /// retired.
    pub fn cpi(&self) -> Option<f64> {
        if self.instructions > 0.0 {
            Some(self.cycles / self.instructions)
        } else {
            None
        }
    }
}

/// State of a CPU hard cap applied to a cgroup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardCap {
    /// Allowed CPU rate while capped, in CPU-sec/sec (e.g. 0.1 or 0.01).
    pub cpu_rate: f64,
    /// When the cap expires.
    pub until: SimTime,
}

/// A resource-management container for one task's process tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cgroup {
    /// CFS enforcement period (the paper's example uses 250 ms).
    period: SimDuration,
    /// Currently active hard cap, if any.
    cap: Option<HardCap>,
    /// Accumulated counters.
    counters: CounterBlock,
    /// Total time the group spent throttled by bandwidth control (µs).
    throttled_us: i64,
}

impl Default for Cgroup {
    fn default() -> Self {
        Cgroup::new()
    }
}

impl Cgroup {
    /// Creates an uncapped cgroup: the task may use up to machine capacity
    /// until a hard cap is applied.
    pub fn new() -> Self {
        Cgroup {
            period: SimDuration(250_000), // 250 ms, as in §5.
            cap: None,
            counters: CounterBlock::default(),
            throttled_us: 0,
        }
    }

    /// The CFS enforcement period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Quota of runnable microseconds per period under the live hard cap;
    /// `None` when uncapped.
    pub fn quota_us(&self, now: SimTime) -> Option<i64> {
        self.effective_rate(now)
            .map(|r| (r * self.period.as_us() as f64) as i64)
    }

    /// Applies a hard cap of `cpu_rate` CPU-sec/sec until `until`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_rate` is not positive.
    pub fn apply_hard_cap(&mut self, cpu_rate: f64, until: SimTime) {
        assert!(cpu_rate > 0.0, "apply_hard_cap: rate must be positive");
        self.cap = Some(HardCap { cpu_rate, until });
    }

    /// Removes any active hard cap.
    pub fn remove_hard_cap(&mut self) {
        self.cap = None;
    }

    /// The active hard cap, if it has not expired by `now`.
    pub fn hard_cap(&self, now: SimTime) -> Option<HardCap> {
        self.cap.filter(|c| c.until > now)
    }

    /// Effective CPU rate limit at `now`: the live hard cap's rate; `None`
    /// when uncapped.
    pub fn effective_rate(&self, now: SimTime) -> Option<f64> {
        self.hard_cap(now).map(|c| c.cpu_rate)
    }

    /// Clamps a CPU request (in cores) to what bandwidth control allows at
    /// `now`, recording throttled time over the tick duration `dt`.
    pub fn clamp_cpu(&mut self, want_cores: f64, now: SimTime, dt: SimDuration) -> f64 {
        match self.effective_rate(now) {
            Some(rate) if want_cores > rate => {
                let denied = want_cores - rate;
                self.throttled_us += (denied * dt.as_us() as f64 / want_cores.max(1e-9)) as i64;
                rate
            }
            _ => want_cores,
        }
    }

    /// Adds a tick's worth of activity to the counters.
    pub fn charge(&mut self, block: &CounterBlock) {
        self.counters.cycles += block.cycles;
        self.counters.instructions += block.instructions;
        self.counters.l2_misses += block.l2_misses;
        self.counters.l3_misses += block.l3_misses;
        self.counters.mem_lines += block.mem_lines;
        self.counters.context_switches += block.context_switches;
        self.counters.cpu_time_us += block.cpu_time_us;
    }

    /// Current monotonic counter values.
    pub fn counters(&self) -> &CounterBlock {
        &self.counters
    }

    /// Total throttled time in microseconds.
    pub fn throttled_us(&self) -> i64 {
        self.throttled_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta() {
        let a = CounterBlock {
            cycles: 100.0,
            instructions: 50.0,
            ..Default::default()
        };
        let b = CounterBlock {
            cycles: 300.0,
            instructions: 150.0,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.cycles, 200.0);
        assert_eq!(d.cpi(), Some(2.0));
    }

    #[test]
    fn cpi_none_without_instructions() {
        assert_eq!(CounterBlock::default().cpi(), None);
    }

    #[test]
    fn uncapped_cgroup_grants_everything() {
        let mut g = Cgroup::new();
        let got = g.clamp_cpu(7.5, SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(got, 7.5);
        assert_eq!(g.throttled_us(), 0);
    }

    #[test]
    fn hard_cap_paper_quota() {
        // A 0.1 CPU-sec/sec cap over a 250 ms period is 25 ms of quota.
        let mut g = Cgroup::new();
        g.apply_hard_cap(0.1, SimTime::from_mins(5));
        assert_eq!(g.quota_us(SimTime::ZERO), Some(25_000));
    }

    #[test]
    fn hard_cap_expires() {
        let mut g = Cgroup::new();
        g.apply_hard_cap(0.1, SimTime::from_secs(10));
        assert!(g.hard_cap(SimTime::from_secs(5)).is_some());
        assert!(g.hard_cap(SimTime::from_secs(10)).is_none());
        let got = g.clamp_cpu(3.0, SimTime::from_secs(11), SimDuration::from_secs(1));
        assert_eq!(got, 3.0);
    }

    #[test]
    fn effective_rate_is_the_live_cap() {
        let mut g = Cgroup::new();
        g.apply_hard_cap(0.1, SimTime::from_secs(100));
        assert_eq!(g.effective_rate(SimTime::ZERO), Some(0.1));
        g.remove_hard_cap();
        assert_eq!(g.effective_rate(SimTime::ZERO), None);
    }

    #[test]
    fn charge_accumulates() {
        let mut g = Cgroup::new();
        let block = CounterBlock {
            cycles: 10.0,
            instructions: 5.0,
            l3_misses: 1.0,
            context_switches: 2,
            cpu_time_us: 100.0,
            ..Default::default()
        };
        g.charge(&block);
        g.charge(&block);
        assert_eq!(g.counters().cycles, 20.0);
        assert_eq!(g.counters().context_switches, 4);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_cap() {
        let mut g = Cgroup::new();
        g.apply_hard_cap(0.0, SimTime::from_secs(1));
    }
}
