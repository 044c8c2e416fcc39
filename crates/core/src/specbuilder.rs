//! Building CPI specs from sample streams, with age-weighted history.
//!
//! §3.1: specs are the per-job × platform mean/σ of CPI, recalculated
//! every 24 hours, with the previous day's contribution discounted by
//! about 0.9, and withheld for jobs with fewer than 5 tasks or fewer than
//! 100 samples per task.

use crate::config::Cpi2Config;
use crate::sample::{CpiSample, HandleMap, HandleSet, JobKey};
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
    }
}

/// Where a task's samples went this period: its key, whose names its
/// samples share, and the slot of that key's accumulator.
#[derive(Debug)]
struct Binding {
    key: JobKey,
    slot: usize,
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
    /// This period's keys, each with its accumulator's slot in `accums`:
    /// the authority on which key a sample belongs to.
    current: BTreeMap<JobKey, usize>,
    /// `current`'s accumulators, by slot.
    accums: Vec<PeriodAccum>,
    history: BTreeMap<JobKey, KeyHistory>,
    /// Each task seen this period, bound to its key's slot. Asked only
    /// "where did this task's samples go?", never iterated.
    bindings: HandleMap<Binding>,
}

impl SpecBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: Cpi2Config) -> Self {
        SpecBuilder {
            config,
            current: BTreeMap::new(),
            accums: Vec::new(),
            history: BTreeMap::new(),
            bindings: HandleMap::default(),
        }
    }

    /// Adds one sample to the current period.
    ///
    /// Samples below the minimum CPU usage are still *aggregated* (the
    /// usage filter of §4.1 applies to outlier detection, not spec
    /// building). A sample is dropped when its CPI is non-finite or not
    /// positive, or its CPU usage non-finite or negative: one such value
    /// would poison its key's age-weighted history for good.
    pub fn add_sample(&mut self, sample: &CpiSample) {
        if !usable(sample) {
            return;
        }
        if !self.add_to_bound_slot(sample) {
            self.bind(sample);
        }
    }

    /// The hit path of [`add_sample`](SpecBuilder::add_sample): the task's
    /// binding, checked against the sample's names (a `Name`'s `==`
    /// compares pointers before bytes, and a task's samples share its
    /// names), then its slot. The task is already in that slot's task set.
    /// `false` when the task has no binding this period or its names
    /// changed.
    // lint: hot-path
    fn add_to_bound_slot(&mut self, sample: &CpiSample) -> bool {
        let Some(b) = self.bindings.get(&sample.task) else {
            return false;
        };
        if b.key.job != sample.jobname || b.key.platform != sample.platforminfo {
            return false;
        }
        match self.accums.get_mut(b.slot) {
            Some(acc) => {
                acc.add(sample);
                true
            }
            None => false,
        }
    }

    /// A task's first sample this period, or its first under new names:
    /// finds (or opens) the key's slot by the key-ordered map, counts the
    /// task there and binds it.
    fn bind(&mut self, sample: &CpiSample) {
        let key = sample.key();
        let slot = match self.current.get(&key) {
            Some(&slot) => slot,
            None => {
                self.accums.push(PeriodAccum::default());
                let slot = self.accums.len() - 1;
                self.current.insert(key.clone(), slot);
                slot
            }
        };
        if let Some(acc) = self.accums.get_mut(slot) {
            acc.tasks.insert(sample.task);
            acc.add(sample);
        }
        self.bindings.insert(sample.task, Binding { key, slot });
    }

    /// Number of samples accumulated in the current period for a key.
    pub fn period_samples(&self, key: &JobKey) -> u64 {
        self.current
            .get(key)
            .and_then(|&slot| self.accums.get(slot))
            .map_or(0, |a| a.cpi.count())
    }

    /// Folds the current period into history (with the configured age
    /// decay) and returns the refreshed spec set.
    ///
    /// Eligibility (§3.1): a spec is only emitted for keys with at least
    /// `min_tasks` distinct tasks this period and at least
    /// `min_samples_per_task × min_tasks` samples overall.
    pub fn roll_period(&mut self) -> Vec<CpiSpec> {
        self.bindings.clear();
        for (key, slot) in std::mem::take(&mut self.current) {
            let Some(acc) = self.accums.get(slot) else {
                continue;
            };
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
        self.accums.clear();
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
                jobname: k.job.to_string(),
                platforminfo: k.platform.to_string(),
                num_samples: h.total_samples,
                cpu_usage_mean: h.cpu.mean(),
                cpi_mean: h.cpi.mean(),
                cpi_stddev: h.cpi.stddev(),
            })
            .collect()
    }
}

/// Whether a sample may enter a spec: finite, positive CPI and finite,
/// non-negative CPU usage.
fn usable(sample: &CpiSample) -> bool {
    sample.cpi.is_finite()
        && sample.cpi > 0.0
        && sample.cpu_usage.is_finite()
        && sample.cpu_usage >= 0.0
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

    #[test]
    fn non_finite_or_negative_usage_dropped() {
        let cfg = Cpi2Config {
            min_samples_per_task: 10,
            ..Cpi2Config::default()
        };
        let mut b = SpecBuilder::new(cfg);
        for usage in [f64::NAN, f64::INFINITY, -1.0] {
            let mut s = sample("j", 0, 1.5);
            s.cpu_usage = usage;
            b.add_sample(&s);
        }
        assert_eq!(b.period_samples(&JobKey::new("j", "westmere")), 0);
        // One such sample used to stay in the age-weighted history for
        // good: the mean read NaN (`null` on the wire) periods later.
        for _ in 0..3 {
            feed(&mut b, "j", 5, 20, 1.5);
            b.roll_period();
        }
        let specs = b.specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].cpu_usage_mean, 1.0);
    }
}
