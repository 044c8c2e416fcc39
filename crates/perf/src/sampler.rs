//! Duty-cycle counter sampling: 10 seconds of counting once a minute.
//!
//! The paper's daemon "gather\[s\] CPI data for a 10 second period once a
//! minute ... to give other measurement tools time to use the counters"
//! (§3.1), using perf_event in *counting* mode per cgroup, with counters
//! saved/restored on inter-cgroup context switches. [`MachineSampler`]
//! reproduces that schedule against a simulated machine's cgroup counters;
//! [`ClusterSampler`] staggers per-machine phases so a cluster's samples
//! don't arrive in lock-step.

use crate::backend::CounterSource;
use crate::reading::CounterReading;
use cpi2_sim::{CounterBlock, SimDuration, SimTime, TaskId};
use cpi2_stats::Name;
use cpi2_telemetry::{Counter, Gauge, Histo, Telemetry};

#[cfg(test)]
mod oracle;

/// Sampling schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Counting-window length (paper: 10 s).
    pub window: SimDuration,
    /// Schedule period (paper: one window per minute).
    pub period: SimDuration,
    /// Phase offset of the window start within the period.
    pub phase: SimDuration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            window: SimDuration::from_secs(10),
            period: SimDuration::from_secs(60),
            phase: SimDuration::ZERO,
        }
    }
}

impl SamplerConfig {
    /// Validates window/period consistency.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit in the period or any span is
    /// non-positive.
    pub fn validate(&self) {
        assert!(self.window.as_us() > 0, "window must be positive");
        assert!(self.period.as_us() > 0, "period must be positive");
        assert!(
            self.window.as_us() + self.phase.as_us() <= self.period.as_us(),
            "window+phase must fit in period"
        );
    }

    /// Whether `now` falls inside the counting window of its period, and
    /// the first later time at which that answer flips.
    fn window_at(&self, now: SimTime) -> (bool, SimTime) {
        let period = self.period.as_us();
        let pos = now.as_us().rem_euclid(period);
        let start = self.phase.as_us();
        let end = start + self.window.as_us();
        let (inside, to_edge) = if pos < start {
            (false, start - pos)
        } else if pos < end {
            (true, end - pos)
        } else {
            (false, period - pos + start)
        };
        (inside, SimTime(now.as_us().saturating_add(to_edge)))
    }
}

/// Cached telemetry handles for duty-cycle samplers.
#[derive(Debug, Clone, Default)]
struct SamplerMetrics {
    /// Counting windows closed.
    windows_total: Counter,
    /// Counter readings produced across all closed windows.
    readings_total: Counter,
    /// Duty-cycle coverage of the last closed window: achieved counting
    /// span over the schedule period (paper target: 10 s / 60 s ≈ 0.167).
    duty_cycle_coverage: Gauge,
    /// Readings per closed window — how many cgroups shared (multiplexed)
    /// the counters within one duty cycle.
    multiplex_occupancy: Histo,
}

impl SamplerMetrics {
    fn new(telemetry: &Telemetry) -> SamplerMetrics {
        SamplerMetrics {
            windows_total: telemetry.counter("cpi_sampler_windows_total", &[]),
            readings_total: telemetry.counter("cpi_sampler_readings_total", &[]),
            duty_cycle_coverage: telemetry.gauge("cpi_sampler_duty_cycle_coverage", &[]),
            multiplex_occupancy: telemetry.histogram("cpi_sampler_multiplex_occupancy", &[]),
        }
    }
}

/// Per-machine duty-cycle sampler.
#[derive(Debug)]
pub struct MachineSampler {
    config: SamplerConfig,
    /// When the in-flight counting window opened, if one is open.
    open: Option<SimTime>,
    /// Each task's counters at that open, in the source's visiting order.
    /// Cleared and refilled per window, so it allocates only while warming
    /// up to the machine's task count.
    baseline: Vec<(TaskId, CounterBlock)>,
    /// `[from, until)`: the span in which a poll can neither open nor
    /// close a window. `from` is the last poll that evaluated the
    /// schedule — which left `open` agreeing with "inside the window at
    /// `from`" — and `until` is the first time after it at which "inside
    /// the window" flips. Empty until the first poll.
    quiet: (SimTime, SimTime),
    metrics: SamplerMetrics,
}

impl MachineSampler {
    /// Creates a sampler with the given schedule (telemetry disabled).
    pub fn new(config: SamplerConfig) -> Self {
        MachineSampler::with_telemetry(config, &Telemetry::disabled())
    }

    /// Creates a sampler reporting window/coverage metrics to `telemetry`.
    pub fn with_telemetry(config: SamplerConfig, telemetry: &Telemetry) -> Self {
        config.validate();
        MachineSampler {
            config,
            open: None,
            baseline: Vec::new(),
            quiet: (SimTime::ZERO, SimTime::ZERO),
            metrics: SamplerMetrics::new(telemetry),
        }
    }

    /// Polls the sampler. Call once per simulation tick, *after* the
    /// counter source has advanced. Opens a counting window when the
    /// schedule says so, and on window close returns one reading per task
    /// that was present at both edges.
    pub fn poll(&mut self, source: &dyn CounterSource, now: SimTime) -> Vec<CounterReading> {
        if self.is_quiet(now) {
            return Vec::new();
        }
        self.poll_edge(source, now)
    }

    /// The sampler counts 10 s of every minute; this is the other 50, and
    /// the nine ticks between a window's two edges. A `now` earlier than
    /// the last evaluated poll is not covered and re-evaluates.
    // lint: hot-path
    fn is_quiet(&self, now: SimTime) -> bool {
        let (from, until) = self.quiet;
        from <= now && now < until
    }

    /// Evaluates the schedule at `now`: opens a window, closes one, or
    /// finds nothing to do, and records how long that stays true.
    fn poll_edge(&mut self, source: &dyn CounterSource, now: SimTime) -> Vec<CounterReading> {
        let (inside, next_edge) = self.config.window_at(now);
        self.quiet = (now, next_edge);
        match (self.open, inside) {
            (None, true) => {
                // Window opens: snapshot baselines.
                self.open = Some(now);
                let baseline = &mut self.baseline;
                baseline.clear();
                source.visit_counters(&mut |task, _, counters| baseline.push((task, *counters)));
                Vec::new()
            }
            (Some(started), false) => {
                // Window closes: produce deltas.
                self.open = None;
                let window = now - started;
                if window.as_us() <= 0 {
                    return Vec::new();
                }
                let out = self.close(source, now, window);
                self.metrics.windows_total.inc();
                self.metrics.readings_total.add(out.len() as u64);
                self.metrics
                    .duty_cycle_coverage
                    .set(window.as_us() as f64 / self.config.period.as_us() as f64);
                self.metrics.multiplex_occupancy.record(out.len() as f64);
                out
            }
            // Mid-window or idle between windows: keep state as-is.
            _ => Vec::new(),
        }
    }

    /// One reading per task the source holds now that was also there at
    /// the window's open, as deltas against its baseline.
    fn close(
        &self,
        source: &dyn CounterSource,
        now: SimTime,
        window: SimDuration,
    ) -> Vec<CounterReading> {
        let baseline = &self.baseline;
        let platform = source.platform_name();
        let mut out = Vec::with_capacity(baseline.len());
        // Tasks mostly sit where they sat at the open, so the baseline is
        // matched by position; a task that is not next in line (its
        // neighbours left, or it restarted and was re-added) is searched
        // for, and the walk resumes after wherever it was found.
        let mut next = 0;
        source.visit_counters(&mut |task, job_name, counters| {
            let found = match baseline.get(next) {
                Some((id, base)) if *id == task => Some((next, base)),
                _ => baseline
                    .iter()
                    .enumerate()
                    .find_map(|(i, (id, base))| (*id == task).then_some((i, base))),
            };
            let Some((at, base)) = found else {
                return; // Task arrived mid-window.
            };
            next = at + 1;
            let d = counters.delta(base);
            if d.cpu_time_us < 0.0 {
                return; // Counter reset (task restarted in place).
            }
            let kinstr = d.instructions / 1000.0;
            out.push(CounterReading {
                task,
                job_name: Name::clone(job_name),
                platform: Name::clone(platform),
                timestamp: now,
                cpu_usage: d.cpu_time_us / window.as_us() as f64,
                cpi: d.cpi(),
                l3_mpki: if kinstr > 0.0 {
                    d.l3_misses / kinstr
                } else {
                    0.0
                },
            });
        });
        out
    }
}

/// Cluster-wide sampler: one [`MachineSampler`] per machine with a phase
/// derived from the machine id, staggering collection across the fleet.
#[derive(Debug, Default)]
pub struct ClusterSampler {
    /// Indexed by [`CounterSource::source_id`] — a cluster numbers its
    /// machines `0..n`, and the hardware backend's one source is id 0.
    samplers: Vec<MachineSampler>,
    /// The schedule every machine follows, before its phase is staggered.
    schedule: SamplerConfig,
    telemetry: Telemetry,
}

impl ClusterSampler {
    /// Creates an empty cluster sampler (telemetry disabled).
    pub fn new() -> Self {
        ClusterSampler::default()
    }

    /// Creates a cluster sampler on the paper's schedule (10 s of every
    /// minute) whose lazily created per-machine samplers all report to
    /// `telemetry`. The per-machine handles share one fleet-wide series
    /// per metric, matching how the paper's daemon reports into a shared
    /// monitoring system.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        ClusterSampler {
            telemetry: telemetry.clone(),
            ..ClusterSampler::default()
        }
    }

    /// As [`ClusterSampler::with_telemetry`], counting `window` of every
    /// `period` (Table 2's sampling duration and frequency).
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit in the period or either span is
    /// non-positive ([`SamplerConfig::validate`]).
    pub fn with_schedule(window: SimDuration, period: SimDuration, telemetry: &Telemetry) -> Self {
        let schedule = SamplerConfig {
            window,
            period,
            phase: SimDuration::ZERO,
        };
        schedule.validate();
        ClusterSampler {
            schedule,
            ..ClusterSampler::with_telemetry(telemetry)
        }
    }

    /// Polls one counter source, lazily creating its sampler with a
    /// staggered phase.
    pub fn poll(&mut self, source: &dyn CounterSource, now: SimTime) -> Vec<CounterReading> {
        let slot = source.source_id() as usize;
        // First sight of this id: samplers up to and including it.
        while self.samplers.len() <= slot {
            let base = self.schedule;
            let slots = ((base.period.as_us() - base.window.as_us()) / cpi2_sim::time::US_PER_SEC)
                as u64
                + 1;
            let phase = SimDuration::from_secs((self.samplers.len() as u64 % slots) as i64);
            self.samplers.push(MachineSampler::with_telemetry(
                SamplerConfig { phase, ..base },
                &self.telemetry,
            ));
        }
        self.samplers
            .get_mut(slot)
            .map_or_else(Vec::new, |sampler| sampler.poll(source, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_sim::{
        ConstantLoad, JobId, Machine, MachineId, Platform, Priority, ResourceProfile, SchedClass,
        TaskInstance,
    };

    fn machine_with_task(cpu: f64) -> Machine {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 1);
        m.add_task(
            TaskInstance {
                id: TaskId {
                    job: JobId(1),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(cpu, 4, ResourceProfile::compute_bound())),
            },
            "svc",
            SchedClass::LatencySensitive,
            Priority::Production,
        );
        m
    }

    /// Drives machine + sampler for `secs` simulated seconds.
    fn drive(m: &mut Machine, s: &mut MachineSampler, secs: i64) -> Vec<CounterReading> {
        let mut out = Vec::new();
        let dt = SimDuration::from_secs(1);
        for i in 0..secs {
            let now = SimTime::from_secs(i);
            m.tick(now, dt, &mut Vec::new());
            out.extend(s.poll(m, now + dt));
        }
        out
    }

    #[test]
    fn one_reading_per_minute() {
        let mut m = machine_with_task(2.0);
        let mut s = MachineSampler::new(SamplerConfig::default());
        let readings = drive(&mut m, &mut s, 300);
        // 5 minutes → 5 windows (the first closes at t=10s).
        assert_eq!(readings.len(), 5);
    }

    #[test]
    fn reading_reflects_usage_and_cpi() {
        let mut m = machine_with_task(2.0);
        let mut s = MachineSampler::new(SamplerConfig::default());
        let readings = drive(&mut m, &mut s, 70);
        let r = &readings[0];
        assert!((r.cpu_usage - 2.0).abs() < 0.01, "usage={}", r.cpu_usage);
        let cpi = r.cpi.unwrap();
        assert!(cpi > 0.7 && cpi < 1.2, "cpi={cpi}");
        assert_eq!(r.timestamp, SimTime::from_secs(10), "stamped at the close");
        assert_eq!(&*r.platform, "westmere-2.6GHz");
        assert_eq!(&*r.job_name, "svc");
    }

    #[test]
    fn overhead_under_budget() {
        // §3.1: saving and restoring the counters on every inter-cgroup
        // context switch costs less than 0.1 % of the tasks' CPU time.
        let mut m = machine_with_task(2.0);
        let mut s = MachineSampler::new(SamplerConfig::default());
        drive(&mut m, &mut s, 300);
        let (mut switches, mut cpu_us) = (0, 0.0);
        m.visit_counters(&mut |_, _, counters| {
            switches += counters.context_switches;
            cpu_us += counters.cpu_time_us;
        });
        assert!(switches > 0, "no context switch to charge");
        let overhead = switches as f64 * m.platform.counter_switch_us / cpu_us;
        assert!(overhead < 0.001, "overhead {overhead}");
    }

    #[test]
    fn task_arriving_mid_window_skipped_once() {
        let mut m = machine_with_task(1.0);
        let mut s = MachineSampler::new(SamplerConfig::default());
        let dt = SimDuration::from_secs(1);
        for i in 0..5 {
            let now = SimTime::from_secs(i);
            m.tick(now, dt, &mut Vec::new());
            s.poll(&m, now + dt);
        }
        // Second task arrives at t=5, inside the first window.
        m.add_task(
            TaskInstance {
                id: TaskId {
                    job: JobId(2),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(1.0, 1, ResourceProfile::compute_bound())),
            },
            "late",
            SchedClass::Batch,
            Priority::NonProduction,
        );
        let mut first_close = Vec::new();
        let mut second_close = Vec::new();
        for i in 5..130 {
            let now = SimTime::from_secs(i);
            m.tick(now, dt, &mut Vec::new());
            let r = s.poll(&m, now + dt);
            if !r.is_empty() {
                if first_close.is_empty() {
                    first_close = r;
                } else if second_close.is_empty() {
                    second_close = r;
                }
            }
        }
        assert_eq!(first_close.len(), 1, "latecomer not in first window");
        assert_eq!(second_close.len(), 2, "latecomer sampled next window");
    }

    #[test]
    fn cluster_sampler_staggers_phases() {
        let mut cs = ClusterSampler::new();
        let mut m0 = machine_with_task(1.0);
        let mut m1 = Machine::new(MachineId(7), Platform::westmere(), 2);
        m1.add_task(
            TaskInstance {
                id: TaskId {
                    job: JobId(3),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(1.0, 1, ResourceProfile::compute_bound())),
            },
            "x",
            SchedClass::Batch,
            Priority::NonProduction,
        );
        let dt = SimDuration::from_secs(1);
        let mut t0 = None;
        let mut t1 = None;
        for i in 0..120 {
            let now = SimTime::from_secs(i);
            m0.tick(now, dt, &mut Vec::new());
            m1.tick(now, dt, &mut Vec::new());
            if !cs.poll(&m0, now + dt).is_empty() && t0.is_none() {
                t0 = Some(i);
            }
            if !cs.poll(&m1, now + dt).is_empty() && t1.is_none() {
                t1 = Some(i);
            }
        }
        assert_ne!(t0.unwrap(), t1.unwrap(), "phases should differ");
    }

    #[test]
    fn telemetry_tracks_windows_coverage_and_occupancy() {
        let telemetry = Telemetry::enabled();
        let mut m = machine_with_task(2.0);
        let mut s = MachineSampler::with_telemetry(SamplerConfig::default(), &telemetry);
        let readings = drive(&mut m, &mut s, 300);
        assert_eq!(readings.len(), 5);
        let text = telemetry.prometheus_text().unwrap();
        assert!(text.contains("cpi_sampler_windows_total 5"), "{text}");
        assert!(text.contains("cpi_sampler_readings_total 5"), "{text}");
        // 10 s window of a 60 s period; the closing poll lands on whole
        // ticks so coverage is near but not exactly 1/6.
        assert!(
            text.contains("cpi_sampler_duty_cycle_coverage 0.16"),
            "{text}"
        );
        assert!(
            text.contains("cpi_sampler_multiplex_occupancy_count 5"),
            "{text}"
        );
    }

    #[test]
    #[should_panic]
    fn config_rejects_oversized_window() {
        MachineSampler::new(SamplerConfig {
            window: SimDuration::from_secs(61),
            period: SimDuration::from_secs(60),
            phase: SimDuration::ZERO,
        });
    }
}
