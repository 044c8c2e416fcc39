//! Counter readings produced by the per-machine sampler.

use cpi2_sim::{SimTime, TaskId};
use cpi2_stats::Name;
use serde::{Deserialize, Serialize};

/// One per-task counter reading over a counting window: the record of
/// §3.1 (`jobname`, `platforminfo`, `timestamp`, `cpu_usage`, `cpi`) for
/// one task, plus the window's L3 misses per kilo-instruction.
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
    /// Average CPU usage over the window, CPU-sec/sec.
    pub cpu_usage: f64,
    /// Cycles per instruction over the window; `None` if the task retired
    /// no instructions (it was idle or fully throttled).
    pub cpi: Option<f64>,
    /// L3 misses per kilo-instruction over the window.
    pub l3_mpki: f64,
}
