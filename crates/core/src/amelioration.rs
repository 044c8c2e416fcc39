//! Dealing with antagonists (§5): the hard-capping policy.

use crate::config::Cpi2Config;
use crate::sample::TaskClass;
use serde::{Deserialize, Serialize};

/// A concrete capping decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapDecision {
    /// Cap rate, CPU-sec/sec.
    pub cpu_rate: f64,
    /// Cap duration, µs.
    pub duration_us: i64,
}

/// The §5 policy: "we limit the antagonist to 0.01 CPU-sec/sec for
/// low-importance ('best effort') batch jobs and 0.1 CPU-sec/sec for other
/// job types", for 5 minutes at a time; latency-sensitive antagonists are
/// never capped automatically.
pub fn cap_for(antagonist: TaskClass, config: &Cpi2Config) -> Option<CapDecision> {
    if !antagonist.throttle_eligible() {
        return None;
    }
    let cpu_rate = if antagonist.best_effort {
        config.cap_best_effort
    } else {
        config.cap_batch
    };
    Some(CapDecision {
        cpu_rate,
        duration_us: config.cap_duration_s * 1_000_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cap_rates() {
        let cfg = Cpi2Config::default();
        let batch = cap_for(TaskClass::batch(), &cfg).unwrap();
        assert_eq!(batch.cpu_rate, 0.1);
        assert_eq!(batch.duration_us, 300_000_000);
        let be = cap_for(TaskClass::best_effort(), &cfg).unwrap();
        assert_eq!(be.cpu_rate, 0.01);
    }

    #[test]
    fn latency_sensitive_never_capped() {
        let cfg = Cpi2Config::default();
        assert!(cap_for(TaskClass::latency_sensitive(), &cfg).is_none());
    }
}
