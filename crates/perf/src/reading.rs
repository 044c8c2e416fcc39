//! Counter readings produced by the per-machine sampler.

use cpi2_sim::{SimDuration, SimTime, TaskId};
use cpi2_stats::Name;
use serde::{Deserialize, Serialize};

/// One per-task counter reading over a counting window.
///
/// This is the raw material of the CPI² pipeline: the fields mirror the
/// record of §3.1 (`jobname`, `platforminfo`, `timestamp`, `cpu_usage`,
/// `cpi`) plus the auxiliary miss counters used in the paper's Fig. 15(c)
/// analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterReading {
    /// The sampled task.
    pub task: TaskId,
    /// Owning job's name.
    pub job_name: Name,
    /// Hardware platform string (CPU type).
    pub platform: Name,
    /// End of the counting window, µs since epoch.
    pub timestamp: SimTime,
    /// Length of the counting window.
    pub window: SimDuration,
    /// Average CPU usage over the window, CPU-sec/sec.
    pub cpu_usage: f64,
    /// Cycles per instruction over the window; `None` if the task retired
    /// no instructions (it was idle or fully throttled).
    pub cpi: Option<f64>,
    /// Instructions retired in the window.
    pub instructions: f64,
    /// L3 misses per kilo-instruction over the window.
    pub l3_mpki: f64,
    /// L2 misses per kilo-instruction over the window.
    pub l2_mpki: f64,
    /// Memory lines transferred per cycle over the window.
    pub mem_lines_per_cycle: f64,
    /// Counter save/restore overhead attributed to this task over the
    /// window, in µs (the "couple of microseconds" per inter-cgroup
    /// context switch, §3.1).
    pub overhead_us: f64,
}

impl CounterReading {
    /// Fraction of the task's CPU time spent on counter save/restore.
    ///
    /// The paper's budget is "less than 0.1 %".
    pub fn overhead_fraction(&self) -> f64 {
        let cpu_us = self.cpu_usage * self.window.as_us() as f64;
        if cpu_us > 0.0 {
            self.overhead_us / cpu_us
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_sim::JobId;

    fn reading(cpu_usage: f64, overhead_us: f64) -> CounterReading {
        CounterReading {
            task: TaskId {
                job: JobId(1),
                index: 0,
            },
            job_name: "j".into(),
            platform: "p".into(),
            timestamp: SimTime::from_secs(60),
            window: SimDuration::from_secs(10),
            cpu_usage,
            cpi: Some(1.0),
            instructions: 1e9,
            l3_mpki: 1.0,
            l2_mpki: 2.5,
            mem_lines_per_cycle: 0.001,
            overhead_us,
        }
    }

    #[test]
    fn overhead_fraction_math() {
        // 1 CPU-sec/sec over 10 s = 1e7 CPU-µs; 100 µs overhead = 1e-5.
        let r = reading(1.0, 100.0);
        assert!((r.overhead_fraction() - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction_idle_task_zero() {
        let r = reading(0.0, 100.0);
        assert_eq!(r.overhead_fraction(), 0.0);
    }
}
