//! The paper, transcribed once: the agent's detection, identification
//! and capping (§4.1, §4.2, §5) and the spec builder (§3.1), read from
//! DESIGN's paper sections and the Table 2 docs of [`Cpi2Config`], in
//! plain `Vec`s, `String`s and linear scans. It keeps no `History`, no
//! `Column`, no handle slot, no resolved spec and no dedup.
//!
//! The live [`Agent`] and [`SpecBuilder`] are held to it over generated
//! streams: decisions equal, scores within [`NEAR`]. A case whose
//! reference score lies within [`NEAR`] of a threshold is counted from
//! that batch on, not compared, and the count is printed.
//!
//! Where the paper is silent (tie order, summation order, task
//! residency), a doc names the reading of DESIGN §9's "Where the paper
//! is silent" list, (a)–(f), that it follows.

// Redundant with lib.rs's `#[cfg(test)] mod reference;` for rustc; it is
// what tells `cpi2-lint`, which reads one file at a time, that none of
// this ships.
#![cfg(test)]

use crate::{
    Agent, AgentCommand, Cpi2Config, CpiSample, CpiSpec, IdentifierKind, Incident, IncidentAction,
    NoActionReason, SpecBuilder, TaskClass, TaskHandle, TraceId, TraceSpan, TraceStage,
};
use cpi2_stats::Name;
use cpi2_telemetry::Telemetry;
use proptest::prelude::*;
use proptest::test_runner::{Config, TestCaseError, TestRng};
use std::fmt::Debug;

/// How closely a live score must agree with the reference's, and how near
/// a threshold a reference score may lie before its case is counted.
const NEAR: f64 = 1e-9;
const S_US: i64 = 1_000_000;

/// One row of a task's history: `(t, cpi, usage)`.
type Row = (i64, f64, f64);

/// A suspect as ranked: `(task, job, class, score)`.
type Ranked = (u64, String, TaskClass, f64);

/// A co-resident task, as its samples describe it.
struct Task {
    handle: u64,
    /// What its latest sample says it runs (a handle may be reused).
    job: String,
    class: TaskClass,
    /// Every sample that advanced it, oldest first.
    rows: Vec<Row>,
    /// Times of its violations still inside the §4.1 window.
    flags: Vec<i64>,
    last_seen: i64,
    /// When its last incident fired, until a sample is back in spec.
    open_incident: Option<i64>,
}

/// What the agent did at one sample.
enum Event {
    Incident(RefIncident),
    /// A victim with an open incident back within spec.
    Recovery {
        victim: u64,
        job: String,
        incident_at: i64,
        at: i64,
        cpi: f64,
        threshold: f64,
    },
}

struct RefIncident {
    at: i64,
    victim: u64,
    job: String,
    cpi: f64,
    threshold: f64,
    sigma: f64,
    /// The victim's violations inside the §4.1 window, oldest first.
    flags: Vec<i64>,
    /// The listed suspects, best first.
    suspects: Vec<Ranked>,
    action: IncidentAction,
}

/// What the agent counts: samples, violations, decisions at a stale
/// spec, and incidents by action.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    samples: u64,
    violations: u64,
    stale: u64,
    hard_cap: u64,
    none: u64,
}

/// The per-machine agent of §4.1–§5.
struct ReferenceAgent {
    config: Cpi2Config,
    /// How far back from its newest row a task's history reaches; `None`
    /// reaches back to the task's arrival.
    horizon_us: Option<i64>,
    specs: Vec<(CpiSpec, i64)>,
    tasks: Vec<Task>,
    /// `(victim, at)` of every incident, oldest first.
    incidents: Vec<(u64, i64)>,
    /// `(target, until)` of every cap issued.
    caps: Vec<(u64, i64)>,
    /// The newest sample time seen.
    clock: i64,
    counts: Counts,
    /// Set once any score lands within [`NEAR`] of its threshold.
    near_threshold: bool,
}

impl ReferenceAgent {
    fn new(config: Cpi2Config, horizon_us: Option<i64>) -> Self {
        ReferenceAgent {
            config,
            horizon_us,
            specs: Vec::new(),
            tasks: Vec::new(),
            incidents: Vec::new(),
            caps: Vec::new(),
            clock: i64::MIN,
            counts: Counts::default(),
            near_threshold: false,
        }
    }

    /// §3.1: the pipeline's spec for a job × platform replaces the one
    /// the agent held, with the time it was published.
    fn install(&mut self, spec: CpiSpec, published_at: i64) {
        self.specs
            .retain(|(s, _)| (&s.jobname, &s.platforminfo) != (&spec.jobname, &spec.platforminfo));
        self.specs.push((spec, published_at));
    }

    /// §4.1: one machine's samples, analysed locally. The whole batch is
    /// recorded before any sample is judged, so an analysis reads its
    /// co-tenants' rows of the same instant (reading (b)). A sample no
    /// newer than its task's newest row is a replay: recorded and judged
    /// once (reading (c)). A task unseen for two correlation windows has
    /// left the machine, and returns as a new one (reading (c)).
    fn ingest(&mut self, batch: &[CpiSample]) -> Vec<Event> {
        self.counts.samples += batch.len() as u64;
        let mut advanced = Vec::new();
        for s in batch {
            let i = match self.tasks.iter().position(|t| t.handle == s.task.0) {
                Some(i) => i,
                None => {
                    self.tasks.push(Task {
                        handle: s.task.0,
                        job: String::new(),
                        class: s.class,
                        rows: Vec::new(),
                        flags: Vec::new(),
                        last_seen: s.timestamp,
                        open_incident: None,
                    });
                    self.tasks.len() - 1
                }
            };
            let task = &mut self.tasks[i];
            task.job = s.jobname.to_string();
            task.class = s.class;
            task.last_seen = task.last_seen.max(s.timestamp);
            let newer = match task.rows.last() {
                Some(r) => r.0 < s.timestamp,
                None => true,
            };
            if newer {
                task.rows.push((s.timestamp, s.cpi, s.cpu_usage));
            }
            advanced.push(newer);
        }
        let mut events = Vec::new();
        let Some(newest) = batch.iter().map(|s| s.timestamp).max() else {
            return events;
        };
        self.clock = self.clock.max(newest);
        let gone = self.clock - 2 * self.config.correlation_window_s * S_US;
        self.tasks.retain(|t| t.last_seen > gone);
        for (s, advanced) in batch.iter().zip(advanced) {
            if advanced {
                self.judge(s, &mut events);
            }
        }
        events
    }

    /// §4.1: a sample violates its job × platform's spec when its CPI is
    /// above the 2σ point and its task used at least 0.25 CPU-s/s; three
    /// violations within 5 minutes make the task anomalous. A spec is
    /// usable when it has samples behind it, a finite positive mean and a
    /// finite positive σ. One published longer ago than the TTL is stale
    /// and judged at 3σ (DESIGN §7's conservative fallback). An anomalous
    /// victim is reported at most once per cooldown (reading (d)), and §4.2
    /// runs "at most one of these attempts … each second".
    fn judge(&mut self, s: &CpiSample, events: &mut Vec<Event>) {
        let c = &self.config;
        let Some(task) = self.tasks.iter_mut().find(|t| t.handle == s.task.0) else {
            return;
        };
        let Some((spec, published_at)) = self.specs.iter().find(|(spec, _)| {
            (spec.jobname.as_str(), spec.platforminfo.as_str()) == (&*s.jobname, &*s.platforminfo)
        }) else {
            return;
        };
        let usable = spec.num_samples > 0
            && spec.cpi_mean.is_finite()
            && spec.cpi_mean > 0.0
            && spec.cpi_stddev.is_finite()
            && spec.cpi_stddev > 0.0;
        if !usable {
            return;
        }
        let ttl = c.spec_ttl_hours * 3_600 * S_US;
        let stale = ttl > 0 && s.timestamp.saturating_sub(*published_at) > ttl;
        let sigma = if stale {
            self.counts.stale += 1;
            c.stale_outlier_sigma.max(c.outlier_sigma)
        } else {
            c.outlier_sigma
        };
        let threshold = spec.cpi_mean + sigma * spec.cpi_stddev;
        self.near_threshold |= (s.cpi - threshold).abs() <= NEAR;
        task.flags
            .retain(|&t| t > s.timestamp - c.violation_window_s * S_US);
        if s.cpu_usage < c.min_cpu_usage {
            return;
        }
        if s.cpi <= threshold {
            if let Some(incident_at) = task.open_incident.take() {
                events.push(Event::Recovery {
                    victim: task.handle,
                    job: s.jobname.to_string(),
                    incident_at,
                    at: s.timestamp,
                    cpi: s.cpi,
                    threshold,
                });
            }
            return;
        }
        task.flags.push(s.timestamp);
        self.counts.violations += 1;
        if (task.flags.len() as u32) < c.violations_required {
            return;
        }
        let victims_last = self.incidents.iter().rev().find(|(v, _)| *v == s.task.0);
        if victims_last.is_some_and(|&(_, at)| s.timestamp - at < c.incident_cooldown_s * S_US) {
            return;
        }
        let last = self.incidents.last();
        if last.is_some_and(|&(_, at)| s.timestamp - at < c.analysis_interval_s * S_US) {
            return;
        }
        let incident = self.analyze(s, threshold, sigma);
        events.push(Event::Incident(incident));
    }

    /// A task's rows within the horizon of its newest (DESIGN §9: one
    /// correlation window plus half a sampling period).
    fn held<'a>(&self, task: &'a Task) -> &'a [Row] {
        let Some(h) = self.horizon_us else {
            return &task.rows;
        };
        let newest = task.rows.last().map_or(0, |r| r.0);
        let first = task.rows.iter().position(|r| r.0 >= newest - h);
        &task.rows[first.unwrap_or(task.rows.len())..]
    }

    /// §4.2: the victim's CPI over the last 10-minute window, each row
    /// paired with the nearest row of a co-tenant's CPU usage when that
    /// row is no more than half a sampling period away (reading (a)), is
    /// scored against every co-tenant, best first; equal scores rank by
    /// task handle (reading (e)). The ten best are listed, and the best
    /// throttle-eligible one besides when none of the ten is.
    ///
    /// §5: a protected victim's top-ranked throttle-eligible suspect at or
    /// above the 0.35 bar is capped, unless it is capped already, at 0.1
    /// CPU-s/s (0.01 for best effort) for 5 minutes. The agent answers why
    /// not otherwise: no such suspect, an unprotected victim, or capping
    /// switched off, in that order.
    fn analyze(&mut self, s: &CpiSample, threshold: f64, sigma: f64) -> RefIncident {
        let c = &self.config;
        let window_us = c.correlation_window_s * S_US;
        let tolerance = c.sampling_period_s * S_US / 2;
        let Some(victim) = self.tasks.iter().find(|t| t.handle == s.task.0) else {
            unreachable!("a judged task is resident");
        };
        let window: Vec<(i64, f64)> = self
            .held(victim)
            .iter()
            .filter(|r| s.timestamp - window_us <= r.0 && r.0 <= s.timestamp)
            .map(|r| (r.0, r.1))
            .collect();
        let mut ranked: Vec<Ranked> = Vec::new();
        for task in self.tasks.iter().filter(|t| t.handle != victim.handle) {
            let rows = self.held(task);
            let pairs: Vec<(f64, f64)> = window
                .iter()
                .filter_map(|&(t, cpi)| {
                    let r = nearest(rows, t)?;
                    ((r.0 - t).abs() <= tolerance).then_some((cpi, r.2))
                })
                .collect();
            let score = correlation(&pairs, threshold);
            ranked.push((task.handle, task.job.clone(), task.class, score));
        }
        ranked.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(&b.0)));

        let bar = c.correlation_threshold;
        self.near_threshold |= ranked.iter().any(|r| (r.3 - bar).abs() <= NEAR);
        let eligible = |r: &&Ranked| !r.2.latency_sensitive;
        let capped = |r: &&Ranked| {
            self.caps
                .iter()
                .any(|&(t, until)| t == r.0 && until > self.clock)
        };
        let target = ranked
            .iter()
            .find(|r| eligible(r) && r.3 >= bar)
            .filter(|r| !capped(r));
        let none = |reason| IncidentAction::None { reason };
        let action = match target {
            None => none(NoActionReason::NoCorrelatedSuspect { threshold: bar }),
            Some(_) if !s.class.protected => none(NoActionReason::VictimNotProtected),
            Some(_) if !c.auto_throttle => none(NoActionReason::AutoThrottleDisabled),
            Some(r) => IncidentAction::HardCap {
                target: TaskHandle(r.0),
                target_job: r.1.as_str().into(),
                cpu_rate: if r.2.best_effort {
                    c.cap_best_effort
                } else {
                    c.cap_batch
                },
                until: s.timestamp + c.cap_duration_s * S_US,
            },
        };
        let mut listed: Vec<Ranked> = ranked.iter().take(10).cloned().collect();
        if !listed.iter().any(|r| eligible(&r)) {
            listed.extend(ranked.iter().find(eligible).cloned());
        }

        match &action {
            IncidentAction::HardCap { target, until, .. } => {
                self.caps.push((target.0, *until));
                self.counts.hard_cap += 1;
            }
            IncidentAction::None { .. } => self.counts.none += 1,
        }
        self.incidents.push((s.task.0, s.timestamp));
        let victim = self.tasks.iter_mut().find(|t| t.handle == s.task.0);
        let flags = victim.map_or_else(Vec::new, |v| {
            v.open_incident = Some(s.timestamp);
            v.flags.clone()
        });
        RefIncident {
            at: s.timestamp,
            victim: s.task.0,
            job: s.jobname.to_string(),
            cpi: s.cpi,
            threshold,
            sigma,
            flags,
            suspects: listed,
            action,
        }
    }
}

/// The row nearest `t`; of two as near, the later (reading (a)).
fn nearest(rows: &[Row], t: i64) -> Option<&Row> {
    let mut best: Option<&Row> = None;
    for r in rows {
        let nearer = match best {
            Some(b) => (r.0 - t).abs() <= (b.0 - t).abs(),
            None => true,
        };
        if nearer {
            best = Some(r);
        }
    }
    best
}

/// §4.2's correlation over aligned `(victim CPI c, suspect usage u)`
/// pairs, with `u` normalised so that `Σ u = 1`: `u · (1 − cthreshold/c)`
/// for each `c` above `cthreshold`, `u · (c/cthreshold − 1)` for each
/// below, summed oldest first (reading (f)). A window that carries no
/// signal scores 0: no pairs, a non-finite value, a flat victim CPI, or
/// no usage at all (`antagonist_correlation`'s doc, reading (f)).
fn correlation(pairs: &[(f64, f64)], cthreshold: f64) -> f64 {
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let flat = pairs.iter().all(|p| p.0 == pairs[0].0);
    let poisoned = pairs.iter().any(|p| !p.0.is_finite() || !p.1.is_finite());
    if flat || poisoned || total <= 0.0 {
        return 0.0;
    }
    let mut score = 0.0;
    for &(c, u) in pairs {
        let u = u / total;
        if c > cthreshold {
            score += u * (1.0 - cthreshold / c);
        } else if c < cthreshold {
            score += u * (c / cthreshold - 1.0);
        }
    }
    score
}

/// An age-weighted mean and variance.
#[derive(Default)]
struct Weighted {
    mean: f64,
    var: f64,
    weight: f64,
}

impl Weighted {
    /// §3.1: history is "multiplied by about 0.9" and averaged with the
    /// new day's values, weighted by sample count; the variance pools the
    /// two sides' own spread and their means' (`ewma::AgeWeighted`'s doc).
    fn fold(&mut self, xs: &[f64], decay: f64) {
        let n = xs.len() as f64;
        let day_mean = xs.iter().sum::<f64>() / n;
        let day_var = xs.iter().map(|x| (x - day_mean).powi(2)).sum::<f64>() / n;
        let old = self.weight * decay;
        let total = old + n;
        let mean = (self.mean * old + day_mean * n) / total;
        self.var = (old * (self.var + (self.mean - mean).powi(2))
            + n * (day_var + (day_mean - mean).powi(2)))
            / total;
        self.mean = mean;
        self.weight = total;
    }
}

struct KeyHistory {
    job: String,
    platform: String,
    cpi: Weighted,
    usage: Weighted,
    samples: i64,
    eligible: bool,
}

/// §3.1's spec builder: per job × platform, the mean and σ of CPI and
/// the mean CPU usage, refreshed once a period and age-weighted.
#[derive(Default)]
struct ReferenceSpecs {
    config: Cpi2Config,
    /// This period's samples: `(task, job, platform, cpi, usage)`.
    period: Vec<(u64, String, String, f64, f64)>,
    keys: Vec<KeyHistory>,
}

impl ReferenceSpecs {
    /// A sample enters a spec when its CPI is finite and positive and its
    /// CPU usage finite and non-negative (DESIGN §9: "dropped like a bad
    /// CPI"); low usage still counts, as §4.1's filter is detection's.
    fn add(&mut self, s: &CpiSample) {
        let usable =
            s.cpi.is_finite() && s.cpi > 0.0 && s.cpu_usage.is_finite() && s.cpu_usage >= 0.0;
        if usable {
            let (job, platform) = (s.jobname.to_string(), s.platforminfo.to_string());
            self.period
                .push((s.task.0, job, platform, s.cpi, s.cpu_usage));
        }
    }

    fn period_samples(&self, job: &str, platform: &str) -> u64 {
        let of_key =
            |r: &&(u64, String, String, f64, f64)| (r.1.as_str(), r.2.as_str()) == (job, platform);
        self.period.iter().filter(of_key).count() as u64
    }

    /// §3.1: each key seen this period folds the period in. It is published
    /// while its latest period had at least 5 tasks and 100 samples per
    /// task of them (DESIGN §3: "≥5 tasks & ≥100 samples/task", read as
    /// `min_samples_per_task × min_tasks` in all), sorted by job, then
    /// platform.
    fn roll(&mut self) -> Vec<CpiSpec> {
        let c = &self.config;
        let mut seen: Vec<(String, String)> = Vec::new();
        for (_, job, platform, _, _) in &self.period {
            if !seen.iter().any(|k| (&k.0, &k.1) == (job, platform)) {
                seen.push((job.clone(), platform.clone()));
            }
        }
        for (job, platform) in seen {
            let rows: Vec<_> = self
                .period
                .iter()
                .filter(|r| (&r.1, &r.2) == (&job, &platform))
                .collect();
            let mut tasks: Vec<u64> = rows.iter().map(|r| r.0).collect();
            tasks.sort_unstable();
            tasks.dedup();
            let cpi: Vec<f64> = rows.iter().map(|r| r.3).collect();
            let usage: Vec<f64> = rows.iter().map(|r| r.4).collect();
            let i = match self
                .keys
                .iter()
                .position(|k| (&k.job, &k.platform) == (&job, &platform))
            {
                Some(i) => i,
                None => {
                    self.keys.push(KeyHistory {
                        job,
                        platform,
                        cpi: Weighted::default(),
                        usage: Weighted::default(),
                        samples: 0,
                        eligible: false,
                    });
                    self.keys.len() - 1
                }
            };
            let key = &mut self.keys[i];
            key.cpi.fold(&cpi, c.age_decay);
            key.usage.fold(&usage, c.age_decay);
            key.samples += rows.len() as i64;
            key.eligible = tasks.len() as u32 >= c.min_tasks
                && rows.len() as u64 >= c.min_samples_per_task * u64::from(c.min_tasks);
        }
        self.period.clear();
        let mut specs: Vec<CpiSpec> = self
            .keys
            .iter()
            .filter(|k| k.eligible)
            .map(|k| CpiSpec {
                jobname: k.job.clone(),
                platforminfo: k.platform.clone(),
                num_samples: k.samples,
                cpu_usage_mean: k.usage.mean,
                cpi_mean: k.cpi.mean,
                cpi_stddev: k.cpi.var.sqrt(),
            })
            .collect();
        specs.sort_by(|a, b| (&a.jobname, &a.platforminfo).cmp(&(&b.jobname, &b.platforminfo)));
        specs
    }
}

fn close(live: f64, reference: f64) -> bool {
    (live - reference).abs() <= NEAR * (1.0 + reference.abs())
}

/// Runs `property` over `cases` inputs drawn from `strategy`
/// (`PROPTEST_CASES` overrides it, as for `proptest!`), seeded by `name`,
/// and prints how many cases met a score near a threshold.
fn check<S: Strategy>(
    name: &str,
    cases: u32,
    strategy: S,
    property: impl Fn(S::Value) -> Result<bool, TestCaseError>,
) where
    S::Value: Debug,
{
    let cases = Config::with_cases(cases).effective_cases();
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x1_0000_01b3);
    }
    let mut rng = TestRng::from_seed(seed);
    let mut near = 0;
    for case in 0..cases {
        let input = strategy.generate(&mut rng);
        let shown = format!("{input:?}");
        match property(input) {
            Ok(counted) => near += usize::from(counted),
            Err(e) => panic!("{name} failed at case {case}: {e:?}\ninput: {shown}"),
        }
    }
    println!("{name}: {near} of {cases} cases met a score within {NEAR:e} of a threshold (counted, not compared)");
}

/// The agent's worlds: six task handles on one machine, each bound to a
/// job × platform, and a clock in minutes.
mod agents {
    use super::*;

    const JOBS: [&str; 4] = ["victim", "svc", "hog", "batch"];
    const PLATFORMS: [&str; 2] = ["westmere", "sandybridge"];
    const HANDLES: usize = 6;
    const MINUTE_US: i64 = 60_000_000;

    /// One generated step: `(kind, a, b, x, bits)`, read by [`World::step`].
    type Op = (u8, u8, u8, f64, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (0..16u8, 0..6u8, 0..8u8, 0.0..1.0f64, any::<u64>()),
            40..160,
        )
    }

    enum Step {
        Install(CpiSpec, i64),
        Ingest(Vec<CpiSample>),
    }

    struct World {
        now_min: i64,
        bound: [(usize, usize); HANDLES],
        last_batch: Vec<CpiSample>,
        /// Whether a sample may lag its batch's instant by a minute or two.
        lagging: bool,
    }

    impl World {
        fn new() -> World {
            World {
                // Late enough that "published three hours ago" is positive.
                now_min: 600,
                bound: [(0, 0), (2, 0), (1, 0), (3, 0), (0, 1), (2, 1)],
                last_batch: Vec::new(),
                lagging: true,
            }
        }

        /// A world whose every batch carries one timestamp, each no
        /// earlier than the last.
        fn in_time_order() -> World {
            World {
                lagging: false,
                ..World::new()
            }
        }

        fn step(&mut self, (kind, a, b, x, bits): Op) -> Step {
            match kind {
                // A replayed shipment: the previous batch again, clock unmoved.
                9 => Step::Ingest(self.last_batch.clone()),
                // A spec installed, replaced or made non-robust between
                // batches; a job with no spec gaining one.
                10 | 11 => {
                    let (num_samples, cpi_mean, cpi_stddev) = match bits % 5 {
                        0 | 1 => (100_000, 1.0, 0.1),
                        2 => (50_000, 1.1, 0.12),
                        3 => (0, 1.0, 0.1),
                        _ => (100_000, 1.0, 0.0),
                    };
                    let spec = CpiSpec {
                        jobname: JOBS[a as usize % JOBS.len()].into(),
                        platforminfo: PLATFORMS[b as usize % PLATFORMS.len()].into(),
                        num_samples,
                        cpu_usage_mean: 1.0,
                        cpi_mean,
                        cpi_stddev,
                    };
                    let now_us = self.now_min * MINUTE_US;
                    // TTL is one hour: never stale / fresh / crossing the
                    // TTL two minutes from now / already stale.
                    let published_at = match (x * 10.0) as u32 {
                        0..=2 => i64::MAX,
                        3..=5 => now_us,
                        6..=7 => now_us - 58 * MINUTE_US,
                        _ => now_us - 180 * MINUTE_US,
                    };
                    Step::Install(spec, published_at)
                }
                // A task handle reused by a different job or platform.
                12 => {
                    self.bound[a as usize % HANDLES] =
                        (b as usize % JOBS.len(), (bits % 2) as usize);
                    self.batch(bits >> 1)
                }
                // Longer than two correlation windows: whoever sits the
                // next batch out is evicted and returns as a fresh task.
                13 => {
                    self.now_min += 25;
                    self.batch(bits)
                }
                // Longer than the spec TTL.
                14 => {
                    self.now_min += 61;
                    self.batch(bits)
                }
                _ => self.batch(bits),
            }
        }

        /// One sampling instant: a victim job's CPI is high exactly while
        /// the antagonist jobs are busy, so violations correlate and caps
        /// fire.
        fn batch(&mut self, bits: u64) -> Step {
            let antagonist_on = bits & 1 == 1;
            let mut batch = Vec::new();
            for (h, &(job, platform)) in self.bound.iter().enumerate() {
                let dice = bits >> (1 + 8 * h);
                if dice & 3 == 0 {
                    continue; // absent from this batch
                }
                // Most samples carry the batch instant; a few lag it.
                let lag_min = if self.lagging {
                    [0, 0, 0, 1, 2, 0, 0, 0][(dice >> 2) as usize & 7]
                } else {
                    0
                };
                let victim = job < 2;
                let (cpi, cpu_usage) = match (victim, antagonist_on) {
                    // 1.25 sits between the 2σ and the stale 3σ threshold;
                    // usage 0.22 sits just under §4.1's 0.25 filter.
                    (true, true) => (
                        [3.0, 1.25, 2.0, 3.0][(dice >> 5) as usize & 3],
                        if dice & 0x84 == 0x84 { 0.22 } else { 1.0 },
                    ),
                    (true, false) => (1.0, if dice & 4 == 0 { 0.1 } else { 1.0 }),
                    (false, true) => (1.8, 6.0),
                    (false, false) => (1.8, 0.0),
                };
                batch.push(CpiSample {
                    task: TaskHandle(h as u64 + 1),
                    jobname: JOBS[job].into(),
                    platforminfo: PLATFORMS[platform].into(),
                    timestamp: (self.now_min - lag_min) * MINUTE_US,
                    cpu_usage,
                    cpi,
                    l3_mpki: 1.0,
                    class: match job {
                        0 => TaskClass::latency_sensitive(),
                        3 => TaskClass::best_effort(),
                        _ => TaskClass::batch(),
                    },
                });
            }
            self.now_min += 1;
            self.last_batch.clone_from(&batch);
            Step::Ingest(batch)
        }
    }

    fn config() -> Cpi2Config {
        Cpi2Config {
            spec_ttl_hours: 1,
            ..Cpi2Config::default()
        }
    }

    /// The trace spans the agent writes for the reference's events.
    fn spans(events: &[Event]) -> Vec<TraceSpan> {
        let span = |trace, stage, start_us, end_us, detail| TraceSpan {
            trace,
            stage,
            start_us,
            end_us,
            detail,
        };
        let mut out = Vec::new();
        for e in events {
            match e {
                Event::Incident(r) => {
                    let (trace, at) = (TraceId::derive(r.victim, r.at), r.at);
                    let (victim, job, n) = (r.victim, &r.job, r.flags.len());
                    let start = r.flags.first().copied().unwrap_or(at);
                    let detail = format!("victim={victim} job={job} flags={n} in window");
                    out.push(span(trace, TraceStage::SampleWindow, start, at, detail));
                    let detail = format!(
                        "cpi={:.3} threshold={:.3} sigma={:.1}",
                        r.cpi, r.threshold, r.sigma
                    );
                    out.push(span(trace, TraceStage::Violation, at, at, detail));
                    let detail = match r.suspects.first() {
                        Some(top) => format!(
                            "backend=paper suspects={} top={}@{:.3}",
                            r.suspects.len(),
                            top.1,
                            top.3
                        ),
                        None => "backend=paper suspects=0".to_string(),
                    };
                    out.push(span(trace, TraceStage::Identification, at, at, detail));
                    let detail = match &r.action {
                        IncidentAction::HardCap {
                            target_job,
                            cpu_rate,
                            ..
                        } => format!("hard_cap target={target_job} rate={cpu_rate}"),
                        IncidentAction::None { reason } => format!("none reason={reason}"),
                    };
                    out.push(span(trace, TraceStage::Decision, at, at, detail));
                }
                Event::Recovery {
                    victim,
                    job,
                    incident_at,
                    at,
                    cpi,
                    threshold,
                } => {
                    let detail =
                        format!("victim={victim} job={job} cpi={cpi:.3} back under threshold={threshold:.3}");
                    let trace = TraceId::derive(*victim, *incident_at);
                    out.push(span(trace, TraceStage::Recovery, *at, *at, detail));
                }
            }
        }
        out
    }

    /// One batch's live answer against the reference's events.
    fn same_answer(
        commands: &[AgentCommand],
        incidents: &[Incident],
        trace_spans: &[TraceSpan],
        events: &[Event],
    ) -> Result<(), TestCaseError> {
        let expected: Vec<&RefIncident> = events
            .iter()
            .filter_map(|e| match e {
                Event::Incident(r) => Some(r),
                Event::Recovery { .. } => None,
            })
            .collect();
        prop_assert_eq!(incidents.len(), expected.len());
        for (live, r) in incidents.iter().zip(&expected) {
            prop_assert_eq!(
                (live.at, live.victim.0, &*live.victim_job, live.victim_cpi),
                (r.at, r.victim, r.job.as_str(), r.cpi)
            );
            prop_assert!(
                close(live.cthreshold, r.threshold),
                "cthreshold {} vs {}",
                live.cthreshold,
                r.threshold
            );
            prop_assert_eq!(&live.action, &r.action);
            prop_assert_eq!(live.identifier, IdentifierKind::Paper);
            prop_assert_eq!(live.trace_id, TraceId::derive(r.victim, r.at));
            prop_assert_eq!(live.suspects.len(), r.suspects.len());
            for (s, want) in live.suspects.iter().zip(&r.suspects) {
                prop_assert_eq!(
                    (s.task.0, &*s.jobname, s.class),
                    (want.0, want.1.as_str(), want.2)
                );
                prop_assert!(
                    close(s.correlation, want.3) && close(s.confidence, want.3),
                    "suspect {} scored {} ({}), the paper says {}",
                    want.0,
                    s.correlation,
                    s.confidence,
                    want.3
                );
            }
        }
        let caps: Vec<AgentCommand> = expected
            .iter()
            .filter_map(|r| match &r.action {
                IncidentAction::HardCap {
                    target,
                    target_job,
                    cpu_rate,
                    until,
                } => Some(AgentCommand::ApplyHardCap {
                    target: *target,
                    target_job: Name::clone(target_job),
                    cpu_rate: *cpu_rate,
                    until: *until,
                    trace: TraceId::derive(r.victim, r.at),
                }),
                IncidentAction::None { .. } => None,
            })
            .collect();
        prop_assert_eq!(commands, &caps[..]);
        prop_assert_eq!(trace_spans, &spans(events)[..]);
        Ok(())
    }

    /// The live agent against the reference over one drawn stream; `true`
    /// when a score came within [`NEAR`] of a threshold and the rest of
    /// the stream went uncompared.
    fn agent_matches(
        ops: Vec<Op>,
        mut world: World,
        horizon_us: Option<i64>,
    ) -> Result<bool, TestCaseError> {
        let telemetry = Telemetry::enabled();
        let mut live = Agent::new(config());
        live.set_telemetry(&telemetry);
        let mut reference = ReferenceAgent::new(config(), horizon_us);
        for op in ops {
            match world.step(op) {
                Step::Install(spec, published_at) => {
                    live.install_spec_at(spec.clone(), published_at);
                    reference.install(spec, published_at);
                }
                Step::Ingest(batch) => {
                    let commands = live.ingest(&batch);
                    let events = reference.ingest(&batch);
                    if reference.near_threshold {
                        return Ok(true);
                    }
                    let (incidents, trace_spans) = (live.take_incidents(), live.take_trace_spans());
                    same_answer(&commands, &incidents, &trace_spans, &events)?;
                }
            }
            live.assert_detect_specs_resolved();
        }
        let counter = |name: &str, labels: &[(&str, &str)]| telemetry.counter(name, labels).get();
        let live_counts = Counts {
            samples: counter("cpi_agent_samples_total", &[]),
            violations: counter("cpi_agent_outlier_violations_total", &[]),
            stale: counter(
                "cpi_agent_degraded_decisions_total",
                &[("reason", "stale_spec")],
            ),
            hard_cap: counter("cpi_incidents_total", &[("action", "hard_cap")]),
            none: counter("cpi_incidents_total", &[("action", "none")]),
        };
        prop_assert_eq!(live_counts, reference.counts);
        Ok(false)
    }

    #[test]
    fn the_agent_answers_in_order_batches_as_the_paper_does() {
        check(
            "the_agent_answers_in_order_batches_as_the_paper_does",
            256,
            ops(),
            |ops| agent_matches(ops, World::in_time_order(), None),
        );
    }

    #[test]
    fn the_agent_answers_lagging_batches_as_the_paper_does() {
        let c = config();
        let horizon_us = (c.correlation_window_s + c.sampling_period_s / 2) * S_US;
        check(
            "the_agent_answers_lagging_batches_as_the_paper_does",
            256,
            ops(),
            |ops| agent_matches(ops, World::new(), Some(horizon_us)),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn restore_at_any_batch_boundary_continues_identically(ops in ops(), cut in 0..160usize) {
            let mut straight = Agent::new(config());
            let mut restarted = Agent::new(config());
            let mut world = World::new();
            let cut = cut % ops.len();
            for (i, op) in ops.into_iter().enumerate() {
                if i == cut {
                    let blob = restarted.checkpoint().expect("agent state serializes");
                    restarted = Agent::restore(&blob).expect("own checkpoint restores");
                    restarted.assert_detect_specs_resolved();
                }
                match world.step(op) {
                    Step::Install(spec, published_at) => {
                        straight.install_spec_at(spec.clone(), published_at);
                        restarted.install_spec_at(spec, published_at);
                    }
                    Step::Ingest(batch) => {
                        prop_assert_eq!(straight.ingest(&batch), restarted.ingest(&batch));
                        prop_assert_eq!(straight.take_incidents(), restarted.take_incidents());
                        prop_assert_eq!(straight.take_trace_spans(), restarted.take_trace_spans());
                    }
                }
            }
        }
    }
}

/// The spec builder's world: six task handles, each bound to a job ×
/// platform whose names are shared the way the simulator shares them.
mod specs {
    use super::*;

    const JOBS: [&str; 3] = ["websearch", "video", "batch"];
    const PLATFORMS: [&str; 2] = ["westmere", "sandybridge"];
    const HANDLES: usize = 6;

    /// One generated step: `(kind, a, b, x, bits)`, read by [`World::step`].
    type Op = (u8, u8, u8, f64, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (0..20u8, 0..6u8, 0..6u8, 0.0..4.0f64, any::<u64>()),
            20..200,
        )
    }

    enum Step {
        Roll,
        Sample(CpiSample),
    }

    struct World {
        jobs: Vec<Name>,
        platforms: Vec<Name>,
        bound: [(usize, usize); HANDLES],
        minute: i64,
    }

    impl World {
        fn new() -> World {
            World {
                jobs: JOBS.iter().map(|&j| Name::from(j)).collect(),
                platforms: PLATFORMS.iter().map(|&p| Name::from(p)).collect(),
                bound: [(0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (2, 1)],
                minute: 0,
            }
        }

        fn step(&mut self, (kind, a, b, x, bits): Op) -> Step {
            let h = a as usize % HANDLES;
            match kind {
                // A period boundary.
                0 => return Step::Roll,
                // The handle reused by another job or platform mid-period.
                1 | 2 => self.bound[h] = (b as usize % JOBS.len(), (bits % 2) as usize),
                _ => {}
            }
            let (job, platform) = self.bound[h];
            // Now and then the same names arrive in allocations of their own.
            let fresh = (bits >> 1) & 7 == 0;
            let name = |shared: &Name| {
                if fresh {
                    Name::from(&**shared)
                } else {
                    Name::clone(shared)
                }
            };
            let (cpi, cpu_usage) = match (bits >> 4) & 15 {
                0 => (f64::NAN, 1.0),
                1 => (f64::INFINITY, 1.0),
                2 => (-1.0, 1.0),
                3 => (0.0, 1.0),
                4 => (1.5, f64::NAN),
                5 => (1.5, f64::INFINITY),
                6 => (1.5, -0.5),
                7 => (1.5, 0.0),
                _ => (0.5 + x, x / 2.0),
            };
            self.minute += 1;
            Step::Sample(CpiSample {
                task: TaskHandle(h as u64),
                jobname: name(&self.jobs[job]),
                platforminfo: name(&self.platforms[platform]),
                timestamp: self.minute * 60_000_000,
                cpu_usage,
                cpi,
                l3_mpki: 1.0,
                class: TaskClass::batch(),
            })
        }
    }

    fn same_specs(live: &[CpiSpec], reference: &[CpiSpec]) -> Result<(), TestCaseError> {
        prop_assert_eq!(live.len(), reference.len());
        for (l, r) in live.iter().zip(reference) {
            prop_assert_eq!(
                (&l.jobname, &l.platforminfo, l.num_samples),
                (&r.jobname, &r.platforminfo, r.num_samples)
            );
            prop_assert!(
                close(l.cpi_mean, r.cpi_mean)
                    && close(l.cpi_stddev, r.cpi_stddev)
                    && close(l.cpu_usage_mean, r.cpu_usage_mean),
                "{l:?} against the paper's {r:?}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_spec_builder_publishes_as_the_paper_does(ops in ops()) {
            let config = Cpi2Config {
                min_tasks: 2,
                min_samples_per_task: 2,
                ..Cpi2Config::default()
            };
            let mut live = SpecBuilder::new(config.clone());
            let mut reference = ReferenceSpecs { config, ..ReferenceSpecs::default() };
            let mut world = World::new();
            for op in ops {
                match world.step(op) {
                    Step::Roll => same_specs(&live.roll_period(), &reference.roll())?,
                    Step::Sample(s) => {
                        live.add_sample(&s);
                        reference.add(&s);
                        prop_assert_eq!(
                            live.period_samples(&s.key()),
                            reference.period_samples(&s.jobname, &s.platforminfo)
                        );
                    }
                }
            }
            same_specs(&live.roll_period(), &reference.roll())?;
        }
    }
}
