//! CPI² configuration: the parameters of Table 2, plus the
//! antagonist-identifier backend selector (not in the paper; see
//! [`crate::panda`]).

use crate::panda::IdentifierKind;
use serde::{Deserialize, Serialize};

/// All tunable parameters of CPI², with the paper's defaults (Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cpi2Config {
    /// Counting-window length in seconds ("Sampling duration: 10 seconds").
    pub sampling_duration_s: i64,
    /// Sampling cadence in seconds ("Sampling frequency: every 1 minute").
    pub sampling_period_s: i64,
    /// How often the predicted CPI spec is recalculated, in hours
    /// ("Predicted CPI recalculated: every 24 hours (goal: 1 hour)").
    pub spec_refresh_hours: i64,
    /// Minimum CPU usage for a sample to be considered, CPU-sec/sec
    /// ("Required CPU usage ≥ 0.25").
    pub min_cpu_usage: f64,
    /// Outlier threshold 1 in standard deviations ("2σ").
    pub outlier_sigma: f64,
    /// Outlier threshold 2: flag count ("3 violations in 5 minutes").
    pub violations_required: u32,
    /// Outlier threshold 2: window in seconds (the 5 minutes).
    pub violation_window_s: i64,
    /// Antagonist correlation threshold (0.35).
    pub correlation_threshold: f64,
    /// Correlation analysis window in seconds (§4.2: "typically ...
    /// 10-minute window").
    pub correlation_window_s: i64,
    /// Minimum time between correlation analyses, in seconds (§4.2: "at
    /// most one of these attempts is performed each second").
    pub analysis_interval_s: i64,
    /// Minimum time between incident reports for the *same victim task*,
    /// in seconds. A chronically degraded victim stays anomalous every
    /// minute; without deduplication it would page once per sample. The
    /// default matches one hard-cap duration plus one analysis window.
    pub incident_cooldown_s: i64,
    /// Hard-cap quota for ordinary batch jobs, CPU-sec/sec ("0.1").
    pub cap_batch: f64,
    /// Hard-cap quota for best-effort jobs, CPU-sec/sec (§5: "0.01 ...
    /// for low-importance ('best effort') batch jobs").
    pub cap_best_effort: f64,
    /// Hard-cap duration in seconds ("5 mins").
    pub cap_duration_s: i64,
    /// Minimum tasks in a job for CPI management (§3.1: "fewer than 5
    /// tasks" are skipped).
    pub min_tasks: u32,
    /// Minimum CPI samples per task for CPI management (§3.1: "fewer than
    /// 100 CPI samples per task" are skipped).
    pub min_samples_per_task: u64,
    /// Day-over-day age-weighting decay (§3.1: "about 0.9").
    pub age_decay: f64,
    /// Whether the agent may apply caps automatically (§5: CPI² hard-caps
    /// automatically when confident and the victim is eligible).
    pub auto_throttle: bool,
    /// Spec staleness TTL in hours. A cached spec whose publish timestamp
    /// is older than this falls back to conservative detection
    /// ([`Cpi2Config::stale_outlier_sigma`]). `0` disables aging. The
    /// default is twice the 24 h refresh period: one missed refresh is
    /// tolerated (the pipeline is lossy by design), two is degraded.
    pub spec_ttl_hours: i64,
    /// Outlier sigma used while a spec is stale: wider than
    /// [`Cpi2Config::outlier_sigma`] so a day-old mean only flags
    /// egregious interference (fewer false incidents from drifted
    /// workloads, per the conservative-fallback degraded mode). Clamped
    /// up to `outlier_sigma` at use sites if configured lower.
    pub stale_outlier_sigma: f64,
    /// Which antagonist-identification backend the agent runs (see
    /// [`crate::panda::IdentifierKind`]). Defaults to the paper-exact
    /// correlator; configs checkpointed before this field existed
    /// deserialize to the default.
    #[serde(default)]
    pub identifier: IdentifierKind,
}

impl Default for Cpi2Config {
    fn default() -> Self {
        Cpi2Config {
            sampling_duration_s: 10,
            sampling_period_s: 60,
            spec_refresh_hours: 24,
            min_cpu_usage: 0.25,
            outlier_sigma: 2.0,
            violations_required: 3,
            violation_window_s: 300,
            correlation_threshold: 0.35,
            correlation_window_s: 600,
            analysis_interval_s: 1,
            incident_cooldown_s: 600,
            cap_batch: 0.1,
            cap_best_effort: 0.01,
            cap_duration_s: 300,
            min_tasks: 5,
            min_samples_per_task: 100,
            age_decay: 0.9,
            auto_throttle: true,
            spec_ttl_hours: 48,
            stale_outlier_sigma: 3.0,
            identifier: IdentifierKind::Paper,
        }
    }
}

impl Cpi2Config {
    /// Renders the Table 2 "parameter / value" rows.
    pub fn table2_rows(&self) -> Vec<(String, String)> {
        vec![
            ("Collection granularity".into(), "task".into()),
            (
                "Sampling duration".into(),
                format!("{} seconds", self.sampling_duration_s),
            ),
            (
                "Sampling frequency".into(),
                format!("every {} minute(s)", self.sampling_period_s / 60),
            ),
            ("Aggregation granularity".into(), "job x CPU type".into()),
            (
                "Predicted CPI recalculated".into(),
                format!("every {} hours", self.spec_refresh_hours),
            ),
            (
                "Required CPU usage".into(),
                format!(">= {} CPU-sec/sec", self.min_cpu_usage),
            ),
            (
                "Outlier threshold 1".into(),
                format!("{} sigma", self.outlier_sigma),
            ),
            (
                "Outlier threshold 2".into(),
                format!(
                    "{} violations in {} minutes",
                    self.violations_required,
                    self.violation_window_s / 60
                ),
            ),
            (
                "Antagonist correlation threshold".into(),
                format!("{}", self.correlation_threshold),
            ),
            (
                "Hard-capping quota".into(),
                format!(
                    "{} CPU-sec/sec ({} for best-effort)",
                    self.cap_batch, self.cap_best_effort
                ),
            ),
            (
                "Hard-capping duration".into(),
                format!("{} mins", self.cap_duration_s / 60),
            ),
        ]
    }

    /// Sanity-checks parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.sampling_duration_s <= 0 || self.sampling_duration_s > self.sampling_period_s {
            return Err("sampling_duration_s must be positive and fit in sampling_period_s".into());
        }
        if self.outlier_sigma <= 0.0 {
            return Err("outlier_sigma must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.age_decay) {
            return Err("age_decay must be in [0,1]".into());
        }
        if !(-1.0..=1.0).contains(&self.correlation_threshold) {
            return Err("correlation_threshold must be in [-1,1]".into());
        }
        if self.cap_best_effort <= 0.0 || self.cap_batch <= 0.0 {
            return Err("cap rates must be positive".into());
        }
        if self.violations_required == 0 {
            return Err("violations_required must be ≥ 1".into());
        }
        if self.violation_window_s <= 0 || self.correlation_window_s <= 0 {
            return Err("windows must be positive".into());
        }
        if self.incident_cooldown_s < 0 {
            return Err("incident_cooldown_s must be non-negative".into());
        }
        if self.spec_ttl_hours < 0 {
            return Err("spec_ttl_hours must be non-negative".into());
        }
        if self.stale_outlier_sigma <= 0.0 {
            return Err("stale_outlier_sigma must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = Cpi2Config::default();
        // Not a Table 2 row: the identifier backend defaults paper-exact.
        assert_eq!(c.identifier, IdentifierKind::Paper);
        assert_eq!(c.sampling_duration_s, 10);
        assert_eq!(c.sampling_period_s, 60);
        assert_eq!(c.spec_refresh_hours, 24);
        assert_eq!(c.min_cpu_usage, 0.25);
        assert_eq!(c.outlier_sigma, 2.0);
        assert_eq!(c.violations_required, 3);
        assert_eq!(c.violation_window_s, 300);
        assert_eq!(c.correlation_threshold, 0.35);
        assert_eq!(c.cap_batch, 0.1);
        assert_eq!(c.cap_best_effort, 0.01);
        assert_eq!(c.cap_duration_s, 300);
        c.validate().unwrap();
    }

    #[test]
    fn table2_rows_complete() {
        let rows = Cpi2Config::default().table2_rows();
        assert_eq!(rows.len(), 11);
        assert!(rows
            .iter()
            .any(|(k, v)| k == "Hard-capping duration" && v == "5 mins"));
    }

    #[test]
    fn validate_catches_bad_values() {
        let c = Cpi2Config {
            outlier_sigma: 0.0,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
        let c = Cpi2Config {
            age_decay: 1.5,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
        let c = Cpi2Config {
            violations_required: 0,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
        let c = Cpi2Config {
            spec_ttl_hours: -1,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
        let c = Cpi2Config {
            stale_outlier_sigma: 0.0,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
        // A counting window longer than its period, or none at all.
        let c = Cpi2Config {
            sampling_duration_s: 120,
            sampling_period_s: 30,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
        let c = Cpi2Config {
            sampling_duration_s: 0,
            ..Cpi2Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn degraded_mode_defaults() {
        let c = Cpi2Config::default();
        assert_eq!(c.spec_ttl_hours, 2 * c.spec_refresh_hours);
        assert!(c.stale_outlier_sigma > c.outlier_sigma);
    }
}
