//! Building CPI specs from sample streams, with age-weighted history.
//!
//! §3.1: specs are the per-job × platform mean/σ of CPI, recalculated
//! every 24 hours, with the previous day's contribution discounted by
//! about 0.9, and withheld for jobs with fewer than 5 tasks or fewer than
//! 100 samples per task.

use crate::config::Cpi2Config;
use crate::sample::{CpiSample, HandleSet, JobKey, KeyView};
use crate::spec::CpiSpec;
use cpi2_stats::ewma::AgeWeighted;
use cpi2_stats::summary::RunningStats;
use std::collections::BTreeMap;

/// Accumulates one aggregation period ("day") of samples for one key.
#[derive(Debug, Default)]
struct PeriodAccum {
    cpi: RunningStats,
    cpu: RunningStats,
    /// Distinct tasks this period; read only for its `len()`.
    tasks: HandleSet,
}

impl PeriodAccum {
    // lint: hot-path
    fn add(&mut self, sample: &CpiSample) {
        self.cpi.push(sample.cpi);
        self.cpu.push(sample.cpu_usage);
        self.tasks.insert(sample.task);
    }
}

/// Long-lived per-key state across periods.
#[derive(Debug, Default)]
struct KeyHistory {
    cpi: AgeWeighted,
    cpu: AgeWeighted,
    total_samples: i64,
    /// Whether the most recent period met the §3.1 eligibility bar.
    eligible: bool,
}

/// Builds and refreshes CPI specs from the cluster-wide sample stream.
///
/// Feed samples with [`add_sample`](SpecBuilder::add_sample); at each spec
/// refresh boundary call [`roll_period`](SpecBuilder::roll_period) to fold
/// the period into age-weighted history and obtain the refreshed specs.
///
/// # Examples
///
/// ```
/// use cpi2_core::{Cpi2Config, CpiSample, SpecBuilder, TaskClass, TaskHandle};
///
/// let mut config = Cpi2Config::default();
/// config.min_samples_per_task = 10;
/// let mut builder = SpecBuilder::new(config);
/// for task in 0..5u64 {
///     for minute in 0..20 {
///         builder.add_sample(&CpiSample {
///             task: TaskHandle(task),
///             jobname: "websearch".into(),
///             platforminfo: "westmere".into(),
///             timestamp: minute * 60_000_000,
///             cpu_usage: 1.0,
///             cpi: 1.8,
///             l3_mpki: 0.0,
///             class: TaskClass::latency_sensitive(),
///         });
///     }
/// }
/// let specs = builder.roll_period();
/// assert_eq!(specs.len(), 1);
/// assert!((specs[0].cpi_mean - 1.8).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct SpecBuilder {
    config: Cpi2Config,
    // BTreeMap: period rollover and spec extraction iterate these maps,
    // and spec ordering must be stable across processes and hash seeds.
    current: BTreeMap<JobKey, PeriodAccum>,
    history: BTreeMap<JobKey, KeyHistory>,
}

impl SpecBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: Cpi2Config) -> Self {
        SpecBuilder {
            config,
            current: BTreeMap::new(),
            history: BTreeMap::new(),
        }
    }

    /// Adds one sample to the current period.
    ///
    /// Samples below the minimum CPU usage are still *aggregated* (the
    /// usage filter of §4.1 applies to outlier detection, not spec
    /// building), but non-finite CPI values are dropped.
    pub fn add_sample(&mut self, sample: &CpiSample) {
        if !sample.cpi.is_finite() || sample.cpi <= 0.0 {
            return;
        }
        if !Self::add_to_known_key(&mut self.current, sample) {
            // First sample of this key this period: the one place that
            // builds an owned key.
            self.current.entry(sample.key()).or_default().add(sample);
        }
    }

    /// The hit path of [`add_sample`](SpecBuilder::add_sample): one map
    /// walk with a borrowed key, no allocation. `false` when the period
    /// has not seen the sample's key yet.
    // lint: hot-path
    fn add_to_known_key(current: &mut BTreeMap<JobKey, PeriodAccum>, sample: &CpiSample) -> bool {
        match current.get_mut(&sample.key_view() as &dyn KeyView) {
            Some(acc) => {
                acc.add(sample);
                true
            }
            None => false,
        }
    }

    /// Number of samples accumulated in the current period for a key.
    pub fn period_samples(&self, key: &JobKey) -> u64 {
        self.current.get(key).map_or(0, |a| a.cpi.count())
    }

    /// Folds the current period into history (with the configured age
    /// decay) and returns the refreshed spec set.
    ///
    /// Eligibility (§3.1): a spec is only emitted for keys with at least
    /// `min_tasks` distinct tasks this period and at least
    /// `min_samples_per_task × min_tasks` samples overall.
    pub fn roll_period(&mut self) -> Vec<CpiSpec> {
        for (key, acc) in std::mem::take(&mut self.current) {
            let h = self.history.entry(key).or_default();
            if acc.cpi.count() > 0 {
                h.cpi.fold_day(
                    acc.cpi.mean(),
                    acc.cpi.stddev(),
                    acc.cpi.count() as f64,
                    self.config.age_decay,
                );
                h.cpu.fold_day(
                    acc.cpu.mean(),
                    acc.cpu.stddev(),
                    acc.cpu.count() as f64,
                    self.config.age_decay,
                );
                h.total_samples += acc.cpi.count() as i64;
            }
            // Eligibility is judged per period on task count.
            h.eligible = acc.tasks.len() as u32 >= self.config.min_tasks
                && acc.cpi.count()
                    >= self.config.min_samples_per_task * self.config.min_tasks as u64;
        }
        self.specs()
    }

    /// Current spec set from history (only eligible keys).
    ///
    /// Sorted by (job, platform): that is [`JobKey`]'s `Ord`, so the
    /// history map already iterates in output order.
    pub fn specs(&self) -> Vec<CpiSpec> {
        self.history
            .iter()
            .filter(|(_, h)| h.eligible && !h.cpi.is_empty())
            .map(|(k, h)| CpiSpec {
                jobname: k.job.clone(),
                platforminfo: k.platform.clone(),
                num_samples: h.total_samples,
                cpu_usage_mean: h.cpu.mean(),
                cpi_mean: h.cpi.mean(),
                cpi_stddev: h.cpi.stddev(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{TaskClass, TaskHandle};

    fn sample(job: &str, task: u64, cpi: f64) -> CpiSample {
        CpiSample {
            task: TaskHandle(task),
            jobname: job.into(),
            platforminfo: "westmere".into(),
            timestamp: 0,
            cpu_usage: 1.0,
            cpi,
            l3_mpki: 1.0,
            class: TaskClass::latency_sensitive(),
        }
    }

    fn feed(b: &mut SpecBuilder, job: &str, tasks: u64, per_task: u64, cpi: f64) {
        for t in 0..tasks {
            for i in 0..per_task {
                b.add_sample(&sample(job, t, cpi + 0.001 * (i % 7) as f64));
            }
        }
    }

    #[test]
    fn spec_from_one_period() {
        let mut b = SpecBuilder::new(Cpi2Config::default());
        feed(&mut b, "websearch", 10, 100, 1.8);
        let specs = b.roll_period();
        assert_eq!(specs.len(), 1);
        let s = &specs[0];
        assert_eq!(s.jobname, "websearch");
        assert!((s.cpi_mean - 1.803).abs() < 0.01, "mean={}", s.cpi_mean);
        assert_eq!(s.num_samples, 1000);
        assert!(s.robust());
    }

    #[test]
    fn too_few_tasks_not_eligible() {
        let mut b = SpecBuilder::new(Cpi2Config::default());
        feed(&mut b, "tiny", 4, 500, 1.0); // 4 tasks < 5 minimum.
        assert!(b.roll_period().is_empty());
    }

    #[test]
    fn too_few_samples_not_eligible() {
        let mut b = SpecBuilder::new(Cpi2Config::default());
        feed(&mut b, "sparse", 10, 10, 1.0); // 100 samples < 500 needed.
        assert!(b.roll_period().is_empty());
    }

    #[test]
    fn age_weighting_shifts_toward_recent() {
        let cfg = Cpi2Config {
            min_samples_per_task: 10,
            ..Cpi2Config::default()
        };
        let mut b = SpecBuilder::new(cfg);
        for _ in 0..5 {
            feed(&mut b, "j", 5, 20, 1.0);
            b.roll_period();
        }
        for _ in 0..5 {
            feed(&mut b, "j", 5, 20, 2.0);
            b.roll_period();
        }
        let specs = b.specs();
        assert!(specs[0].cpi_mean > 1.55, "mean={}", specs[0].cpi_mean);
    }

    #[test]
    fn separate_specs_per_platform() {
        let cfg = Cpi2Config {
            min_samples_per_task: 10,
            ..Cpi2Config::default()
        };
        let mut b = SpecBuilder::new(cfg);
        for t in 0..5u64 {
            for _ in 0..20 {
                b.add_sample(&sample("j", t, 1.0));
                let mut s2 = sample("j", t + 100, 2.0);
                s2.platforminfo = "sandybridge".into();
                b.add_sample(&s2);
            }
        }
        let specs = b.roll_period();
        assert_eq!(specs.len(), 2);
        let platforms: Vec<_> = specs.iter().map(|s| s.platforminfo.as_str()).collect();
        assert!(platforms.contains(&"westmere"));
        assert!(platforms.contains(&"sandybridge"));
    }

    #[test]
    fn specs_come_out_sorted_by_job_then_platform() {
        let cfg = Cpi2Config {
            min_tasks: 1,
            min_samples_per_task: 1,
            ..Cpi2Config::default()
        };
        let mut b = SpecBuilder::new(cfg);
        // Reverse and interleaved insertion over two platforms, plus the
        // pair whose concatenations collide ("ab"+"c" vs "a"+"bc").
        let keys = [
            ("zeta", "westmere"),
            ("ab", "c"),
            ("maps", "westmere"),
            ("zeta", "sandybridge"),
            ("a", "bc"),
            ("maps", "sandybridge"),
            ("ab", "b"),
        ];
        for (job, platform) in keys {
            let mut s = sample(job, 0, 1.5);
            s.platforminfo = platform.into();
            b.add_sample(&s);
        }
        let got: Vec<(String, String)> = b
            .roll_period()
            .into_iter()
            .map(|s| (s.jobname, s.platforminfo))
            .collect();
        let mut want: Vec<(String, String)> = keys
            .iter()
            .map(|&(j, p)| (j.to_string(), p.to_string()))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn non_finite_cpi_dropped() {
        let mut b = SpecBuilder::new(Cpi2Config::default());
        b.add_sample(&sample("j", 0, f64::NAN));
        b.add_sample(&sample("j", 0, -1.0));
        assert_eq!(b.period_samples(&JobKey::new("j", "westmere")), 0);
    }
}
