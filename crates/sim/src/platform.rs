//! Hardware platform (CPU type) descriptors.
//!
//! The paper stresses that "the CPI is a function of the hardware platform
//! (CPU type)" and that CPI² "does separate CPI calculations for each
//! platform a job runs on" (§3.1). A [`Platform`] captures the parameters
//! the interference model and counter emulation need.

use cpi2_stats::Name;
use serde::{Deserialize, Serialize};

/// Description of one machine hardware platform (CPU type).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Platform name, e.g. `"westmere-2.6GHz"`; the `platforminfo` string
    /// in CPI sample records, shared by every record the machine yields.
    pub name: Name,
    /// Number of hardware contexts (CPUs) on the machine.
    pub cores: u32,
    /// Reference clock in cycles per second (the `CPU_CLK_UNHALTED.REF`
    /// rate).
    pub clock_hz: f64,
    /// Shared last-level (L3) cache capacity in megabytes.
    pub l3_mb: f64,
    /// Memory bandwidth capacity in giga-transactions of cache lines per
    /// second (normalized units used by the interference model).
    pub mem_bw_glines: f64,
    /// Cycles a last-level cache miss stalls the pipeline for, on average.
    pub miss_penalty_cycles: f64,
    /// Multiplier applied to every job's reference CPI on this platform
    /// (different microarchitectures run the same binary at different CPI).
    pub cpi_factor: f64,
    /// Cost of saving/restoring performance counters on an inter-cgroup
    /// context switch, in microseconds ("a couple of microseconds", §3.1).
    pub counter_switch_us: f64,
}

impl Platform {
    /// A mid-2011-era 12-core platform (the "older" CPU type in Fig. 4).
    pub fn westmere() -> Self {
        Platform {
            name: "westmere-2.6GHz".into(),
            cores: 12,
            clock_hz: 2.6e9,
            l3_mb: 12.0,
            mem_bw_glines: 0.4,
            miss_penalty_cycles: 180.0,
            cpi_factor: 1.0,
            counter_switch_us: 2.0,
        }
    }

    /// A newer 16-core platform with a larger cache and faster memory (the
    /// second CPU type in Fig. 4).
    pub fn sandy_bridge() -> Self {
        Platform {
            name: "sandybridge-2.2GHz".into(),
            cores: 16,
            clock_hz: 2.2e9,
            l3_mb: 20.0,
            mem_bw_glines: 0.6,
            miss_penalty_cycles: 160.0,
            cpi_factor: 0.85,
            counter_switch_us: 2.0,
        }
    }

    /// A small 8-core platform, useful for dense-tenancy tests.
    pub fn small_node() -> Self {
        Platform {
            name: "smallnode-2.0GHz".into(),
            cores: 8,
            clock_hz: 2.0e9,
            l3_mb: 8.0,
            mem_bw_glines: 0.3,
            miss_penalty_cycles: 200.0,
            cpi_factor: 1.1,
            counter_switch_us: 2.0,
        }
    }

    /// Instructions retired per second for one core running flat out at the
    /// given CPI.
    pub fn ips_at(&self, cpi: f64) -> f64 {
        assert!(cpi > 0.0, "ips_at: cpi must be positive");
        self.clock_hz / cpi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_platforms_sane() {
        for p in [
            Platform::westmere(),
            Platform::sandy_bridge(),
            Platform::small_node(),
        ] {
            assert!(p.cores > 0);
            assert!(p.clock_hz > 1e9);
            assert!(p.l3_mb > 0.0);
            assert!(p.mem_bw_glines > 0.0);
            assert!(p.cpi_factor > 0.0);
            assert!(!p.name.is_empty());
        }
    }

    #[test]
    fn ips_inverse_in_cpi() {
        let p = Platform::westmere();
        assert!((p.ips_at(1.0) - 2.6e9).abs() < 1.0);
        assert!((p.ips_at(2.0) - 1.3e9).abs() < 1.0);
    }

    #[test]
    fn platform_names_distinct() {
        assert_ne!(Platform::westmere().name, Platform::sandy_bridge().name);
    }
}
