//! The §7 large-scale evaluation machinery.
//!
//! The paper: "we periodically look for recently-reported antagonists and
//! manually cap their CPU rate for 5 minutes, and examine the victim's CPI
//! to see if it improves. We collected data for about 400 such trials."
//!
//! [`run_trial`] reproduces one such trial against the simulator, with
//! ground truth: a victim job with a learned spec, an injected antagonist
//! of a chosen kind, filler load to vary machine utilization, detection
//! with auto-throttle disabled, then a manual 5-minute cap on the top
//! suspect and before/during CPI + L3 measurement.

use cpi2::core::{Cpi2Config, CpiSpec};
use cpi2::harness::{task_for, Cpi2Harness};
use cpi2::sim::{
    Cluster, ClusterConfig, ConstantLoad, JobId, JobSpec, MachineId, Platform, ResourceProfile,
    SimDuration, TaskId,
};
use cpi2::workloads::{BatchTask, CacheThrasher, LsService, MapReduceWorker, TurnTakingMember};
use cpi2_stats::summary::RunningStats;

/// The kind of antagonist injected into a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AntagonistKind {
    /// Bursty streaming cache thrasher (strongly correlated).
    Thrasher,
    /// Phase-structured video-processing batch job.
    VideoBatch,
    /// MapReduce worker (bursty, idles between shards).
    MapReduce,
    /// Constant-rate streaming hog (usage flat ⇒ weak correlation signal).
    SteadyHog,
    /// Four tasks taking turns filling the cache — §4.2's hard case.
    TurnTakingGroup,
}

impl AntagonistKind {
    /// All kinds, for round-robin trial generation.
    pub const ALL: [AntagonistKind; 5] = [
        AntagonistKind::Thrasher,
        AntagonistKind::VideoBatch,
        AntagonistKind::MapReduce,
        AntagonistKind::SteadyHog,
        AntagonistKind::TurnTakingGroup,
    ];
}

/// Configuration of one trial.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Master seed.
    pub seed: u64,
    /// Production victims have uniform tasks; non-production victims get
    /// heterogeneous per-task behaviour (§7.2: "non-production jobs'
    /// behaviors are less uniform").
    pub production: bool,
    /// Which antagonist to inject.
    pub antagonist: AntagonistKind,
    /// Extra low-interference filler tasks on each machine (varies
    /// utilization for Fig. 14).
    pub filler_tasks: u32,
    /// Minimum top-suspect correlation at which the trial still caps.
    /// The Fig. 15 threshold sweep needs trials capped below the 0.35
    /// operating point, so this defaults to 0.2.
    pub cap_floor: f64,
    /// Antagonist intensity scale (0.5 = mild, 1.0 = full-bore). Mild
    /// antagonists produce marginal degradations whose capping benefit can
    /// drown in the noise — the paper's non-clear-cut trials.
    pub intensity: f64,
    /// Inject a second, independent antagonist that the trial will *not*
    /// cap: capping the top suspect then only partially restores the
    /// victim (a paper-style partial-cause case).
    pub second_antagonist: bool,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            seed: 0,
            production: true,
            antagonist: AntagonistKind::Thrasher,
            filler_tasks: 0,
            cap_floor: 0.2,
            intensity: 1.0,
            second_antagonist: false,
        }
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Trial configuration echo.
    pub production: bool,
    /// Injected antagonist kind.
    pub antagonist: AntagonistKind,
    /// Machine CPU utilization at detection (0–1).
    pub utilization: f64,
    /// Correlation of the top throttle-eligible suspect.
    pub correlation: f64,
    /// Whether the top eligible suspect was the injected antagonist.
    pub correct_identification: bool,
    /// Victim CPI just before the cap divided by the spec mean
    /// (Fig. 14c/16c x-axis).
    pub degradation: f64,
    /// Standard deviations above the spec mean at detection (Fig. 16b).
    pub sigmas_above: f64,
    /// Victim CPI during the cap divided by before (Figs. 15b/16c/16d).
    pub relative_cpi: f64,
    /// Victim L3 MPKI during the cap divided by before (Fig. 15c).
    pub relative_l3: f64,
    /// Spec stddev / mean — the paper's true/false-positive margin.
    pub margin: f64,
}

impl TrialOutcome {
    /// True positive under the paper's rule: capping reduced victim CPI by
    /// more than the spec-stddev margin.
    pub fn true_positive(&self) -> bool {
        self.relative_cpi < 1.0 - self.margin
    }

    /// False positive: victim CPI *rose* by more than the margin.
    pub fn false_positive(&self) -> bool {
        self.relative_cpi > 1.0 + self.margin
    }
}

/// Detection events without an identified antagonist (Fig. 14d's second
/// CDF): victim degradation when nothing cleared the threshold.
#[derive(Debug, Clone)]
pub struct UnidentifiedAnomaly {
    /// Victim CPI ÷ spec mean at the anomaly.
    pub degradation: f64,
}

fn victim_factory(production: bool, seed: u64) -> cpi2::sim::ModelFactory {
    Box::new(move |i| {
        if production {
            Box::new(LsService::new(
                ResourceProfile::cache_heavy(),
                1.2,
                12,
                seed ^ (i as u64) << 8,
            ))
        } else {
            // §7.2: "non-production jobs' behaviors are less uniform
            // (e.g., engineers testing experimental features)" — their CPI
            // shifts endogenously, so some detected anomalies are
            // self-inflicted and capping a neighbour does not help.
            Box::new(NonProductionService::new(seed ^ (i as u64) << 8))
        }
    })
}

/// A non-production victim: serving demand plus endogenous CPI phases
/// (experimental builds, debug logging bursts, recompiled binaries...).
struct NonProductionService {
    inner: LsService,
    phase_factor: f64,
    phase_left: u32,
    rng: cpi2_stats::rng::SimRng,
}

impl NonProductionService {
    fn new(seed: u64) -> Self {
        let mut rng = cpi2_stats::rng::SimRng::derive(seed, 0xA0);
        let phase_left = 200 + rng.below(600) as u32;
        NonProductionService {
            inner: LsService::new(ResourceProfile::cache_heavy(), 1.2, 12, seed),
            phase_factor: 1.0,
            phase_left,
            rng,
        }
    }
}

impl cpi2::sim::TaskModel for NonProductionService {
    fn profile(&self) -> ResourceProfile {
        let mut p = self.inner.profile();
        p.base_cpi *= self.phase_factor;
        p.cpi_noise = 0.08;
        p
    }

    fn demand(
        &mut self,
        now: cpi2::sim::SimTime,
        dt: SimDuration,
        rng: &mut cpi2_stats::rng::SimRng,
    ) -> cpi2::sim::TaskDemand {
        if self.phase_left == 0 {
            // Switch phase: half the time a degraded experimental phase.
            self.phase_factor = if self.rng.chance(0.5) {
                1.0
            } else {
                self.rng.range_f64(1.25, 1.7)
            };
            self.phase_left = 300 + self.rng.below(900) as u32;
        }
        self.phase_left -= 1;
        self.inner.demand(now, dt, rng)
    }
}

fn submit_antagonist(
    cluster: &mut Cluster,
    kind: AntagonistKind,
    seed: u64,
    intensity: f64,
) -> Result<JobId, cpi2::sim::PlacementError> {
    match kind {
        AntagonistKind::Thrasher => cluster.submit_job(
            JobSpec::best_effort("antagonist", 1, 1.0),
            true,
            Box::new(move |_| {
                Box::new(
                    CacheThrasher::new(8.0 * intensity, 240, 240, seed)
                        .with_footprint(32.0 * intensity),
                )
            }),
        ),
        AntagonistKind::VideoBatch => cluster.submit_job(
            JobSpec::batch("antagonist", 1, 1.0),
            true,
            Box::new(move |_| Box::new(BatchTask::video_processing(seed))),
        ),
        AntagonistKind::MapReduce => cluster.submit_job(
            JobSpec::batch("antagonist", 1, 1.0),
            false,
            Box::new(move |_| Box::new(MapReduceWorker::new(seed))),
        ),
        AntagonistKind::SteadyHog => cluster.submit_job(
            JobSpec::batch("antagonist", 1, 1.0),
            true,
            Box::new(move |_| {
                Box::new(ConstantLoad::new(
                    6.0 * intensity,
                    8,
                    ResourceProfile::streaming(),
                ))
            }),
        ),
        AntagonistKind::TurnTakingGroup => cluster.submit_job(
            JobSpec::batch("antagonist", 4, 1.0),
            true,
            Box::new(move |i| {
                Box::new(TurnTakingMember::new(i % 4, 4, 120, 6.0 * intensity, seed))
            }),
        ),
    }
}

/// Result of [`run_trial`].
#[derive(Debug, Clone)]
pub enum TrialResult {
    /// A cap was applied and measured.
    Capped(TrialOutcome),
    /// An anomaly was reported but no suspect cleared the threshold.
    Unidentified(UnidentifiedAnomaly),
    /// No anomaly was detected within the trial window, or the layout made
    /// the trial unusable (no victim co-resident with the antagonist).
    Nothing,
}

/// The trial platform: a wide (24-context) machine so one antagonist's
/// CPU is a modest fraction of capacity, as on the paper's many-tenant
/// production machines — utilization is then driven by the filler load,
/// not by the antagonist itself.
pub(crate) fn trial_platform() -> Platform {
    Platform {
        cores: 24,
        ..Platform::westmere()
    }
}

/// Runs one §7 trial. See module docs for the protocol.
pub fn run_trial(config: &TrialConfig) -> TrialResult {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: config.seed,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&trial_platform(), 6);
    let victim_job = cluster
        .submit_job(
            JobSpec::latency_sensitive("victim", 6, 1.2),
            true,
            victim_factory(config.production, config.seed),
        )
        .expect("victim placement");
    if config.filler_tasks > 0 {
        let seed = config.seed;
        cluster
            .submit_job(
                JobSpec::latency_sensitive("filler", config.filler_tasks * 6, 0.8),
                true,
                Box::new(move |i| {
                    // Pure CPU load: negligible cache/memory pressure, so
                    // utilization varies without varying interference.
                    let mut p = ResourceProfile::compute_bound();
                    p.cache_mb = 0.05;
                    p.mpki_solo = 0.05;
                    p.cache_sensitivity = 0.05;
                    Box::new(LsService::new(p, 0.9, 4, seed ^ 0xF111 ^ i as u64))
                }),
            )
            .ok();
    }

    let cpi2_config = Cpi2Config {
        min_samples_per_task: 5,
        // The trial caps manually, per the §7 protocol.
        auto_throttle: false,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, cpi2_config);

    // Learn the victim's spec interference-free.
    system.run_for(SimDuration::from_mins(25));
    let specs = system.force_spec_refresh();
    let Some(spec) = specs.iter().find(|s| s.jobname == "victim").cloned() else {
        return TrialResult::Nothing;
    };

    // Inject the antagonist and find a co-resident victim task.
    let Ok(antagonist_job) = submit_antagonist(
        &mut system.cluster,
        config.antagonist,
        config.seed,
        config.intensity,
    ) else {
        return TrialResult::Nothing;
    };
    let ant_task = TaskId {
        job: antagonist_job,
        index: 0,
    };
    let Some(machine) = system.cluster.locate(ant_task) else {
        return TrialResult::Nothing;
    };
    let victim_here = system
        .cluster
        .machine(machine)
        .unwrap()
        .tasks()
        .find(|t| t.id.job == victim_job)
        .map(|t| t.id);
    let Some(victim_task) = victim_here else {
        return TrialResult::Nothing;
    };

    // Optionally a second cause the trial will not address: a mild steady
    // hog placed cluster-wide (one task per machine so one definitely
    // shares the victim's machine).
    if config.second_antagonist {
        let _ = system.cluster.submit_job(
            JobSpec::batch("background-hog", 6, 0.5),
            true,
            Box::new(move |_| Box::new(ConstantLoad::new(2.5, 4, ResourceProfile::streaming()))),
        );
    }

    // Watch for the first incident involving this victim task.
    let mut incident_idx = system.incidents().len();
    let deadline = system.cluster.now() + SimDuration::from_mins(45);
    let (mut found, mut utilization) = (None, 0.0);
    while system.cluster.now() < deadline {
        system.step();
        while incident_idx < system.incidents().len() {
            let mi = &system.incidents()[incident_idx];
            incident_idx += 1;
            if mi.machine == machine && task_for(mi.incident.victim) == victim_task {
                utilization = system
                    .cluster
                    .machine(machine)
                    .map(|m| m.utilization())
                    .unwrap_or(0.0);
                found = Some(mi.incident.clone());
                break;
            }
        }
        if found.is_some() {
            break;
        }
    }
    let Some(incident) = found else {
        return TrialResult::Nothing;
    };

    // Pick the top throttle-eligible suspect (the paper's protocol caps
    // "the single most-suspected antagonist").
    let threshold = config.cap_floor;
    let top_eligible = incident
        .suspects
        .iter()
        .find(|s| s.class.throttle_eligible())
        .cloned();
    let Some(suspect) = top_eligible else {
        return TrialResult::Unidentified(UnidentifiedAnomaly {
            degradation: incident.victim_cpi / spec.cpi_mean,
        });
    };
    if suspect.correlation < threshold {
        return TrialResult::Unidentified(UnidentifiedAnomaly {
            degradation: incident.victim_cpi / spec.cpi_mean,
        });
    }

    // Measure "before": victim tick CPI over the next minute (pre-cap).
    let before = measure_victim(&mut system, machine, victim_task, 60);

    // Manual 5-minute cap on the suspect.
    let until = system.cluster.now() + SimDuration::from_mins(5);
    system
        .cluster
        .apply_hard_cap(task_for(suspect.task), 0.01, until);
    // Skip 30 s of settling, then measure "during".
    measure_victim(&mut system, machine, victim_task, 30);
    let during = measure_victim(&mut system, machine, victim_task, 240);

    let (before_cpi, before_l3) = before;
    let (during_cpi, during_l3) = during;
    if before_cpi.count() == 0 || during_cpi.count() == 0 || before_cpi.mean() <= 0.0 {
        return TrialResult::Nothing;
    }
    let correct = task_for(suspect.task).job == antagonist_job;
    TrialResult::Capped(TrialOutcome {
        production: config.production,
        antagonist: config.antagonist,
        utilization,
        correlation: suspect.correlation,
        correct_identification: correct,
        degradation: incident.victim_cpi / spec.cpi_mean,
        sigmas_above: sigmas(&spec, incident.victim_cpi),
        relative_cpi: during_cpi.mean() / before_cpi.mean(),
        relative_l3: if before_l3.mean() > 0.0 {
            during_l3.mean() / before_l3.mean()
        } else {
            1.0
        },
        margin: if spec.cpi_mean > 0.0 {
            spec.cpi_stddev / spec.cpi_mean
        } else {
            0.1
        },
    })
}

fn sigmas(spec: &CpiSpec, cpi: f64) -> f64 {
    if spec.cpi_stddev > 0.0 {
        (cpi - spec.cpi_mean) / spec.cpi_stddev
    } else {
        0.0
    }
}

/// Steps the system for `secs` ticks, accumulating the victim's per-tick
/// CPI and L3 MPKI. Returns (cpi stats, l3-mpki stats).
fn measure_victim(
    system: &mut Cpi2Harness,
    machine: MachineId,
    victim: TaskId,
    secs: u32,
) -> (RunningStats, RunningStats) {
    let mut cpi = RunningStats::new();
    let mut l3 = RunningStats::new();
    for _ in 0..secs {
        system.step();
        if let Some(t) = system.cluster.machine(machine).and_then(|m| m.task(victim)) {
            if let Some(o) = t.last_outcome() {
                cpi.push(o.cpi);
                if o.instructions > 0.0 {
                    l3.push(o.l3_misses / (o.instructions / 1000.0));
                }
            }
        }
    }
    (cpi, l3)
}

/// Runs a batch of trials round-robining antagonist kinds and filler
/// levels; returns capped outcomes and unidentified anomalies.
pub fn run_batch(
    n: usize,
    production: bool,
    base_seed: u64,
) -> (Vec<TrialOutcome>, Vec<UnidentifiedAnomaly>) {
    let mut outcomes = Vec::new();
    let mut unidentified = Vec::new();
    for i in 0..n {
        let config = TrialConfig {
            seed: base_seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            production,
            antagonist: AntagonistKind::ALL[i % AntagonistKind::ALL.len()],
            filler_tasks: 2 * (i % 6) as u32,
            cap_floor: 0.2,
            // A third of trials face a mild antagonist, a third carry an
            // extra uncapped cause — the paper's not-clear-cut majority.
            intensity: if i % 3 == 1 { 0.55 } else { 1.0 },
            second_antagonist: i % 3 == 2,
        };
        match run_trial(&config) {
            TrialResult::Capped(o) => outcomes.push(o),
            TrialResult::Unidentified(u) => unidentified.push(u),
            TrialResult::Nothing => {}
        }
    }
    (outcomes, unidentified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thrasher_trial_is_true_positive() {
        let r = run_trial(&TrialConfig {
            seed: 42,
            ..Default::default()
        });
        match r {
            TrialResult::Capped(o) => {
                assert!(o.correlation >= 0.35);
                assert!(o.correct_identification, "blamed the wrong job");
                assert!(
                    o.relative_cpi < 0.9,
                    "capping should improve the victim, got {}",
                    o.relative_cpi
                );
                assert!(o.relative_l3 < 1.0, "L3 should improve too");
                assert!(o.true_positive());
            }
            other => panic!("expected a capped trial, got {other:?}"),
        }
    }

    #[test]
    fn batch_produces_outcomes() {
        let (outcomes, _unidentified) = run_batch(5, true, 7);
        assert!(!outcomes.is_empty(), "no trial produced a cap");
    }
}
