//! Performance-anomaly detection (§4.1).
//!
//! A CPI measurement is flagged as an *outlier* when it exceeds the 2σ
//! point of the job's predicted CPI distribution, unless the task used
//! less than 0.25 CPU-sec/sec (the filter that suppresses the Case-3
//! bimodal-usage false alarms). A task is *anomalous* only when it is
//! flagged at least 3 times in a 5-minute window.

use crate::config::Cpi2Config;
use crate::sample::CpiSample;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Verdict for one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Sample is consistent with the spec.
    Normal,
    /// Sample was skipped (too little CPU usage to be meaningful).
    SkippedLowUsage,
    /// Sample exceeded the outlier threshold, but the violation count has
    /// not reached the anomaly bar yet.
    Flagged,
    /// The task is suffering anomalous behaviour: the violation count
    /// within the window reached the configured bar.
    Anomalous,
}

/// Sliding-window outlier state for a single task.
///
/// # Examples
///
/// ```
/// use cpi2_core::{Cpi2Config, CpiSample, CpiSpec, OutlierDetector, TaskClass, TaskHandle, Verdict};
///
/// let spec = CpiSpec {
///     jobname: "svc".into(), platforminfo: "p".into(), num_samples: 10_000,
///     cpu_usage_mean: 1.0, cpi_mean: 1.8, cpi_stddev: 0.16,
/// };
/// let config = Cpi2Config::default();
/// let threshold = spec.outlier_threshold(config.outlier_sigma);
/// let mut detector = OutlierDetector::new();
/// let sample = |minute: i64, cpi: f64| CpiSample {
///     task: TaskHandle(1), jobname: "svc".into(), platforminfo: "p".into(),
///     timestamp: minute * 60_000_000, cpu_usage: 1.0, cpi, l3_mpki: 0.0,
///     class: TaskClass::latency_sensitive(),
/// };
/// assert_eq!(detector.observe(&sample(0, 1.8), threshold, &config), Verdict::Normal);
/// assert_eq!(detector.observe(&sample(1, 3.0), threshold, &config), Verdict::Flagged);
/// assert_eq!(detector.observe(&sample(2, 3.0), threshold, &config), Verdict::Flagged);
/// assert_eq!(detector.observe(&sample(3, 3.0), threshold, &config), Verdict::Anomalous);
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct OutlierDetector {
    /// Timestamps (µs) of recent flagged samples.
    flags: VecDeque<i64>,
}

impl OutlierDetector {
    /// Creates a fresh detector.
    pub fn new() -> Self {
        OutlierDetector::default()
    }

    /// Processes one sample against an outlier threshold, the job's
    /// [`CpiSpec::outlier_threshold`](crate::CpiSpec::outlier_threshold)
    /// (the agent keeps it resolved per task, and widens its sigma while
    /// the spec is stale).
    pub fn observe(&mut self, sample: &CpiSample, threshold: f64, config: &Cpi2Config) -> Verdict {
        // Evict flags that left the violation window.
        let window_us = config.violation_window_s * 1_000_000;
        while let Some(&t) = self.flags.front() {
            if t <= sample.timestamp - window_us {
                self.flags.pop_front();
            } else {
                break;
            }
        }
        // §4.1: ignore measurements from tasks using < 0.25 CPU-sec/sec.
        if sample.cpu_usage < config.min_cpu_usage {
            return Verdict::SkippedLowUsage;
        }
        if sample.cpi <= threshold {
            return Verdict::Normal;
        }
        self.flags.push_back(sample.timestamp);
        if self.flags.len() as u32 >= config.violations_required {
            Verdict::Anomalous
        } else {
            Verdict::Flagged
        }
    }

    /// Number of live flags in the current window.
    pub fn flag_count(&self) -> usize {
        self.flags.len()
    }

    /// Timestamp (µs) of the oldest flag still inside the violation
    /// window, i.e. when the task *entered* its current violation streak.
    ///
    /// Telemetry uses this to measure detection latency: the sim-time gap
    /// between the first live violation and the incident that it
    /// eventually triggers.
    pub fn first_flag_at(&self) -> Option<i64> {
        self.flags.front().copied()
    }

    /// Clears all state (e.g. after an incident is resolved).
    pub fn reset(&mut self) {
        self.flags.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{TaskClass, TaskHandle};
    use crate::spec::CpiSpec;

    fn spec() -> CpiSpec {
        CpiSpec {
            jobname: "j".into(),
            platforminfo: "p".into(),
            num_samples: 10_000,
            cpu_usage_mean: 1.0,
            cpi_mean: 1.8,
            cpi_stddev: 0.16,
        }
    }

    /// The spec's threshold at the default 2σ: 2.12.
    fn threshold() -> f64 {
        spec().outlier_threshold(Cpi2Config::default().outlier_sigma)
    }

    fn sample(ts_min: i64, cpi: f64, usage: f64) -> CpiSample {
        CpiSample {
            task: TaskHandle(1),
            jobname: "j".into(),
            platforminfo: "p".into(),
            timestamp: ts_min * 60_000_000,
            cpu_usage: usage,
            cpi,
            l3_mpki: 0.0,
            class: TaskClass::latency_sensitive(),
        }
    }

    #[test]
    fn normal_sample_passes() {
        let mut d = OutlierDetector::new();
        let v = d.observe(&sample(0, 1.8, 1.0), threshold(), &Cpi2Config::default());
        assert_eq!(v, Verdict::Normal);
        assert_eq!(d.flag_count(), 0);
    }

    #[test]
    fn exactly_at_threshold_is_normal() {
        let mut d = OutlierDetector::new();
        // Threshold is 2.12; "larger than" is required.
        let v = d.observe(&sample(0, 2.12, 1.0), threshold(), &Cpi2Config::default());
        assert_eq!(v, Verdict::Normal);
    }

    #[test]
    fn three_violations_in_five_minutes_is_anomalous() {
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        assert_eq!(
            d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg),
            Verdict::Flagged
        );
        assert_eq!(
            d.observe(&sample(1, 2.5, 1.0), threshold(), &cfg),
            Verdict::Flagged
        );
        assert_eq!(
            d.observe(&sample(2, 2.5, 1.0), threshold(), &cfg),
            Verdict::Anomalous
        );
    }

    #[test]
    fn old_flags_age_out() {
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg);
        d.observe(&sample(1, 2.5, 1.0), threshold(), &cfg);
        // 6 minutes later: the first two flags left the 5-minute window.
        let v = d.observe(&sample(7, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(v, Verdict::Flagged);
        assert_eq!(d.flag_count(), 1);
    }

    #[test]
    fn low_usage_skipped_even_with_huge_cpi() {
        // The Case-3 false-alarm filter: CPI 10 at 0.1 CPU-sec/sec.
        let mut d = OutlierDetector::new();
        let v = d.observe(&sample(0, 10.0, 0.1), threshold(), &Cpi2Config::default());
        assert_eq!(v, Verdict::SkippedLowUsage);
        assert_eq!(d.flag_count(), 0);
    }

    #[test]
    fn interleaved_normals_dont_reset_flags() {
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg);
        d.observe(&sample(1, 1.8, 1.0), threshold(), &cfg);
        d.observe(&sample(2, 2.5, 1.0), threshold(), &cfg);
        let v = d.observe(&sample(3, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(v, Verdict::Anomalous);
    }

    #[test]
    fn exactly_three_violations_at_the_window_edge() {
        // Flags at t=0s, 60s; third violation lands exactly at the
        // 5-minute mark. Eviction uses `t <= now - window`, so the t=0
        // flag is evicted at t=300s — only two flags remain live and the
        // verdict stays Flagged, not Anomalous.
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        assert_eq!(cfg.violation_window_s, 300, "test assumes 5-min window");
        assert_eq!(cfg.violations_required, 3, "test assumes 3-violation bar");
        d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg);
        d.observe(&sample(1, 2.5, 1.0), threshold(), &cfg);
        let v = d.observe(&sample(5, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(v, Verdict::Flagged);
        assert_eq!(d.flag_count(), 2);
        // One microsecond inside the window the verdict flips: flags at
        // 1 min and 2 min are both strictly younger than now - 300 s.
        let mut d = OutlierDetector::new();
        d.observe(&sample(1, 2.5, 1.0), threshold(), &cfg);
        d.observe(&sample(2, 2.5, 1.0), threshold(), &cfg);
        let mut s = sample(6, 2.5, 1.0);
        s.timestamp -= 1; // 359.999999 s: the 60 s flag survives (barely)
        assert_eq!(d.observe(&s, threshold(), &cfg), Verdict::Anomalous);
    }

    #[test]
    fn window_eviction_is_oldest_first() {
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg);
        d.observe(&sample(2, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(d.first_flag_at(), Some(0));
        // t=6min evicts t=0 (6 min old) but keeps t=2min (4 min old):
        // the front of the window advances monotonically.
        d.observe(&sample(6, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(d.first_flag_at(), Some(2 * 60_000_000));
        assert_eq!(d.flag_count(), 2);
        // A later eviction never resurrects older entries.
        d.observe(&sample(12, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(d.first_flag_at(), Some(12 * 60_000_000));
        assert_eq!(d.flag_count(), 1);
    }

    #[test]
    fn first_flag_tracks_streak_entry() {
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        assert_eq!(d.first_flag_at(), None);
        d.observe(&sample(3, 2.5, 1.0), threshold(), &cfg);
        assert_eq!(d.first_flag_at(), Some(3 * 60_000_000));
        // Normal samples don't move the streak entry point.
        d.observe(&sample(4, 1.8, 1.0), threshold(), &cfg);
        assert_eq!(d.first_flag_at(), Some(3 * 60_000_000));
        d.reset();
        assert_eq!(d.first_flag_at(), None);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg);
        d.reset();
        assert_eq!(d.flag_count(), 0);
    }

    #[test]
    fn wider_sigma_raises_the_bar() {
        // CPI 2.5 violates 2σ (threshold 2.12) but not 3σ (2.28 + margin:
        // threshold 1.8 + 3·0.16 = 2.28 — still violated; use 5σ = 2.6).
        let mut d = OutlierDetector::new();
        let cfg = Cpi2Config::default();
        let s = sample(0, 2.5, 1.0);
        assert_eq!(
            d.observe(&s, spec().outlier_threshold(5.0), &cfg),
            Verdict::Normal
        );
        assert_eq!(d.flag_count(), 0);
        // The same sample under the normal sigma is flagged.
        assert_eq!(
            d.observe(&s, spec().outlier_threshold(2.0), &cfg),
            Verdict::Flagged
        );
    }

    #[test]
    fn agent_restart_resets_window_cleanly() {
        // Two pre-restart violations, then the agent restarts (a fresh
        // detector, per the fault model: the daemon loses all in-memory
        // state). The first post-restart violation must come back as
        // Flagged — not Anomalous — because the 3-in-5-min rule re-warms
        // from zero.
        let cfg = Cpi2Config::default();
        let mut d = OutlierDetector::new();
        assert_eq!(
            d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg),
            Verdict::Flagged
        );
        assert_eq!(
            d.observe(&sample(1, 2.5, 1.0), threshold(), &cfg),
            Verdict::Flagged
        );
        assert_eq!(d.flag_count(), 2);

        // Simulated restart: state is not carried over.
        let mut d = OutlierDetector::new();
        assert_eq!(d.flag_count(), 0);
        assert_eq!(d.first_flag_at(), None);
        assert_eq!(
            d.observe(&sample(2, 2.5, 1.0), threshold(), &cfg),
            Verdict::Flagged
        );
        assert_eq!(
            d.observe(&sample(3, 2.5, 1.0), threshold(), &cfg),
            Verdict::Flagged
        );
        // Only at the third *post-restart* violation does the anomaly
        // fire: no incident can be blamed on pre-restart violations.
        assert_eq!(
            d.observe(&sample(4, 2.5, 1.0), threshold(), &cfg),
            Verdict::Anomalous
        );
        assert_eq!(d.first_flag_at(), Some(2 * 60_000_000));
    }

    #[test]
    fn restart_mid_streak_delays_detection_not_corrupts_it() {
        // A continuously anomalous task across a restart: detection is
        // delayed by the re-warmup (bounded by violations_required
        // samples), never corrupted into a premature or missed incident.
        let cfg = Cpi2Config::default();
        let mut d = OutlierDetector::new();
        d.observe(&sample(0, 2.5, 1.0), threshold(), &cfg);
        d.observe(&sample(1, 2.5, 1.0), threshold(), &cfg);
        let mut d = OutlierDetector::new(); // restart at t≈1.5 min
        let mut verdicts = Vec::new();
        for m in 2..6 {
            verdicts.push(d.observe(&sample(m, 2.5, 1.0), threshold(), &cfg));
        }
        assert_eq!(
            verdicts,
            vec![
                Verdict::Flagged,
                Verdict::Flagged,
                Verdict::Anomalous,
                Verdict::Anomalous
            ]
        );
    }
}
