//! Ground-truth antagonist-identification accuracy scenarios.
//!
//! The §7 trials (see [`crate::trials`]) measure whether *capping helped*;
//! this module measures whether the identifier *blamed the right job*,
//! which only the simulator can score exactly: a known antagonist is
//! planted next to an instrumented victim, so every incident has ground
//! truth. The `accuracy_leaderboard` experiment runs both
//! [`IdentifierKind`] backends over seeds × fault profiles and scores
//! precision, recall and mean reciprocal rank (MRR) per backend. Which
//! PANDA mechanisms stay was settled by a wider audit of this scenario
//! and three planted-noise variants at 64 seeds (DESIGN.md §10); its
//! record is `docs/runs/PR-33.txt`.
//!
//! Everything here is deterministic: seeded simulator, seeded fault plan,
//! no wall clock. A score produced locally is bit-identical in CI, which
//! is what lets CI gate on committed floors.

use cpi2::core::{select_target, Cpi2Config, IdentifierKind};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, FaultPlan, FaultProfile, JobSpec, ResourceProfile, SimDuration,
    SimTime, TaskDemand, TaskId, TaskModel,
};
use cpi2::workloads::{CacheThrasher, LsService};
use cpi2_stats::rng::SimRng;

/// Committed floor on the paper backend's clean-profile precision: the
/// `accuracy_leaderboard` entry fails if a change drags identification
/// below this.
/// (Observed: 0.867 over seeds 1,2,3 — the scenario is deterministic, so
/// the floor sits just under the measured value.)
pub const PAPER_CLEAN_PRECISION_FLOOR: f64 = 0.85;
/// Committed floor on the paper backend's clean-profile recall
/// (observed: 0.867).
pub const PAPER_CLEAN_RECALL_FLOOR: f64 = 0.85;

/// One accuracy scenario: a backend, a seed, a fault profile.
#[derive(Debug, Clone)]
pub struct AccuracyCase {
    /// Which identification backend the agents run.
    pub identifier: IdentifierKind,
    /// Master seed for cluster, workloads and fault plan.
    pub seed: u64,
    /// Fault profile name (`none`, `lossy`, `heavy`).
    pub fault: String,
    /// Measurement window after warm-up, in simulated minutes.
    pub minutes: i64,
}

/// The scored outcome of one [`AccuracyCase`].
#[derive(Debug, Clone)]
pub struct CaseScore {
    /// Backend name ([`IdentifierKind::name`]).
    pub identifier: String,
    /// Scenario seed.
    pub seed: u64,
    /// Fault profile name.
    pub fault: String,
    /// Incidents observed for the victim on the antagonist's machine.
    pub incidents: u64,
    /// Incidents where the backend named a target above its decision bar.
    pub identified: u64,
    /// Identifications that blamed the planted antagonist.
    pub correct: u64,
    /// Sum of reciprocal ranks of the antagonist among throttle-eligible
    /// suspects (for MRR).
    pub rr_sum: f64,
}

impl CaseScore {
    /// correct / identified (0 when nothing was identified).
    pub fn precision(&self) -> f64 {
        ratio(self.correct, self.identified)
    }

    /// correct / incidents (0 when no incidents fired).
    pub fn recall(&self) -> f64 {
        ratio(self.correct, self.incidents)
    }

    /// Mean reciprocal rank of the true antagonist over all incidents.
    pub fn mrr(&self) -> f64 {
        if self.incidents == 0 {
            0.0
        } else {
            self.rr_sum / self.incidents as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One leaderboard row: a backend × fault profile, pooled across seeds
/// (micro-averaged: counts are summed before dividing, so seeds with more
/// incidents weigh more).
#[derive(Debug, Clone)]
pub struct LeaderboardRow {
    /// Backend name.
    pub identifier: String,
    /// Fault profile name.
    pub fault: String,
    /// Pooled incident count across seeds.
    pub incidents: u64,
    /// Pooled identifications.
    pub identified: u64,
    /// Pooled correct identifications.
    pub correct: u64,
    /// Pooled precision.
    pub precision: f64,
    /// Pooled recall.
    pub recall: f64,
    /// Pooled MRR.
    pub mrr: f64,
}

/// One pass/fail criterion of the accuracy gate.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What the criterion asserts.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// A bursty but *innocent* co-tenant: big on/off CPU swings — exactly the
/// usage shape the correlator keys on — with a negligible cache footprint
/// and miss rate, so it causes essentially no interference. A noisy
/// single-window correlator can be fooled into blaming it; that is the
/// point.
struct BurstyInnocent {
    burst_cpu: f64,
    on_ticks: u32,
    off_ticks: u32,
    phase: u32,
    rng: SimRng,
}

impl BurstyInnocent {
    fn new(burst_cpu: f64, on_ticks: u32, off_ticks: u32, seed: u64) -> Self {
        let mut rng = SimRng::derive(seed, 0xDEC0);
        let phase = rng.below((on_ticks + off_ticks) as u64) as u32;
        BurstyInnocent {
            burst_cpu,
            on_ticks,
            off_ticks,
            phase,
            rng,
        }
    }
}

impl TaskModel for BurstyInnocent {
    fn profile(&self) -> ResourceProfile {
        // Pure compute: no one else notices it running.
        let mut p = ResourceProfile::compute_bound();
        p.cache_mb = 0.05;
        p.mpki_solo = 0.05;
        p.cache_sensitivity = 0.05;
        p
    }

    fn demand(&mut self, _now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        let want = if self.phase < self.on_ticks {
            self.burst_cpu * (1.0 + 0.05 * self.rng.normal())
        } else {
            0.02
        };
        self.phase = (self.phase + 1) % (self.on_ticks + self.off_ticks);
        TaskDemand {
            cpu_want: want.max(0.0),
            threads: 4,
        }
    }
}

/// Runs one scenario and scores it against ground truth.
///
/// Protocol: six 24-core machines host a six-task latency-sensitive
/// victim job plus two bursty-but-innocent decoy jobs (a MapReduce worker
/// and a video-processing batch task per machine — plausible suspects
/// whose usage does *not* drive the victim's CPI). After a clean 25-min
/// warm-up learns the victim spec, the fault plan is armed and a cache
/// thrasher (the ground-truth antagonist) is planted. Incidents for the
/// victim on the antagonist's machine are then scored for `minutes`:
/// an incident counts as *identified* when [`select_target`] clears the
/// backend's decision bar, *correct* when the target is the planted
/// antagonist, and contributes the antagonist's reciprocal rank among
/// throttle-eligible suspects to MRR.
pub fn run_case(case: &AccuracyCase) -> Result<CaseScore, String> {
    let profile = FaultProfile::named(&case.fault)
        .ok_or_else(|| format!("unknown fault profile {:?}", case.fault))?;
    let mut cluster = Cluster::new(ClusterConfig {
        seed: case.seed,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&crate::trials::trial_platform(), 6);
    let seed = case.seed;
    cluster
        .submit_job(
            JobSpec::latency_sensitive("victim", 6, 1.2),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.2,
                    12,
                    seed ^ (i as u64) << 8,
                ))
            }),
        )
        .map_err(|e| format!("victim placement: {e:?}"))?;
    // Innocent decoys: bursty usage that an over-eager identifier can
    // mistake for the cause, one of each per machine. Their periods are
    // incommensurate with the antagonist's 240 s burst cycle.
    cluster
        .submit_job(
            JobSpec::batch("decoy-a", 6, 0.8),
            true,
            Box::new(move |i| {
                Box::new(BurstyInnocent::new(
                    5.0,
                    300,
                    420,
                    seed ^ 0xA0 ^ (i as u64) << 4,
                ))
            }),
        )
        .map_err(|e| format!("decoy placement: {e:?}"))?;
    cluster
        .submit_job(
            JobSpec::batch("decoy-b", 6, 0.8),
            true,
            Box::new(move |i| {
                Box::new(BurstyInnocent::new(
                    4.0,
                    180,
                    260,
                    seed ^ 0xB0 ^ (i as u64) << 4,
                ))
            }),
        )
        .map_err(|e| format!("decoy placement: {e:?}"))?;

    let config = Cpi2Config {
        min_samples_per_task: 5,
        // Score identification, don't act on it; a shorter cooldown packs
        // more scoreable incidents into the window.
        auto_throttle: false,
        incident_cooldown_s: 180,
        identifier: case.identifier,
        ..Cpi2Config::default()
    };
    let threshold = case.identifier.decision_threshold(&config);
    let mut system = Cpi2Harness::new(cluster, config);

    // Clean warm-up: learn the victim's spec before any noise.
    system.run_for(SimDuration::from_mins(25));
    let specs = system.force_spec_refresh();
    if !specs.iter().any(|s| s.jobname == "victim") {
        return Err("warm-up produced no victim spec".into());
    }

    // Arm the faults, then plant the ground-truth antagonist.
    system.set_fault_plan(Some(FaultPlan::new(seed ^ 0xFA17, profile)));
    let antagonist_job = system
        .cluster
        .submit_job(
            JobSpec::best_effort("antagonist", 1, 1.0),
            true,
            Box::new(move |_| {
                Box::new(CacheThrasher::new(8.0, 240, 240, seed).with_footprint(32.0))
            }),
        )
        .map_err(|e| format!("antagonist placement: {e:?}"))?;
    let ant_task = TaskId {
        job: antagonist_job,
        index: 0,
    };

    let mut score = CaseScore {
        identifier: case.identifier.name().to_string(),
        seed: case.seed,
        fault: case.fault.clone(),
        incidents: 0,
        identified: 0,
        correct: 0,
        rr_sum: 0.0,
    };
    let mut incident_idx = system.incidents().len();
    let deadline = system.cluster.now() + SimDuration::from_mins(case.minutes);
    while system.cluster.now() < deadline {
        system.step();
        // The antagonist can move (crash respawns under `heavy`); ground
        // truth is wherever it lives when the incident fires.
        let ant_machine = system.cluster.locate(ant_task);
        while incident_idx < system.incidents().len() {
            let mi = &system.incidents()[incident_idx];
            incident_idx += 1;
            if mi.incident.victim_job != "victim" || Some(mi.machine) != ant_machine {
                continue;
            }
            score.incidents += 1;
            if let Some(pos) = mi
                .incident
                .suspects
                .iter()
                .filter(|s| s.class.throttle_eligible())
                .position(|s| &*s.jobname == "antagonist")
            {
                score.rr_sum += 1.0 / (pos + 1) as f64;
            }
            if let Some(target) = select_target(&mi.incident.suspects, threshold) {
                score.identified += 1;
                if &*target.jobname == "antagonist" {
                    score.correct += 1;
                }
            }
        }
    }
    Ok(score)
}

/// Pools per-case scores into one row per backend × fault profile,
/// ordered by [`IdentifierKind::ALL`] then by first appearance of the
/// fault name.
pub fn aggregate(scores: &[CaseScore]) -> Vec<LeaderboardRow> {
    let mut faults: Vec<&str> = Vec::new();
    for s in scores {
        if !faults.contains(&s.fault.as_str()) {
            faults.push(&s.fault);
        }
    }
    let mut rows = Vec::new();
    for kind in IdentifierKind::ALL {
        for fault in &faults {
            let group: Vec<&CaseScore> = scores
                .iter()
                .filter(|s| s.identifier == kind.name() && s.fault == *fault)
                .collect();
            if group.is_empty() {
                continue;
            }
            let incidents: u64 = group.iter().map(|s| s.incidents).sum();
            let identified: u64 = group.iter().map(|s| s.identified).sum();
            let correct: u64 = group.iter().map(|s| s.correct).sum();
            let rr_sum: f64 = group.iter().map(|s| s.rr_sum).sum();
            rows.push(LeaderboardRow {
                identifier: kind.name().to_string(),
                fault: fault.to_string(),
                incidents,
                identified,
                correct,
                precision: ratio(correct, identified),
                recall: ratio(correct, incidents),
                mrr: if incidents == 0 {
                    0.0
                } else {
                    rr_sum / incidents as f64
                },
            });
        }
    }
    rows
}

fn row<'a>(
    rows: &'a [LeaderboardRow],
    identifier: &str,
    fault: &str,
) -> Option<&'a LeaderboardRow> {
    rows.iter()
        .find(|r| r.identifier == identifier && r.fault == fault)
}

/// The accuracy gate the `accuracy_leaderboard` entry asserts:
///
/// 1. every backend × profile saw incidents (nothing below is vacuous);
/// 2. the paper backend's clean-profile precision and recall hold the
///    committed floors;
/// 3. PANDA's precision is no worse than the paper backend's on *every*
///    profile;
/// 4. PANDA's recall is strictly higher than the paper backend's on the
///    degraded (`lossy`, `heavy`) profiles — the reason it exists.
pub fn gate(rows: &[LeaderboardRow], faults: &[&str]) -> Vec<GateCheck> {
    let mut checks = Vec::new();
    for r in rows {
        checks.push(GateCheck {
            name: format!("{}/{}: incidents observed", r.identifier, r.fault),
            passed: r.incidents > 0,
            detail: format!("{} incidents", r.incidents),
        });
    }
    if let Some(paper) = row(rows, "paper", "none") {
        checks.push(GateCheck {
            name: "paper/none: precision floor".into(),
            passed: paper.precision >= PAPER_CLEAN_PRECISION_FLOOR,
            detail: format!("{:.3} >= {PAPER_CLEAN_PRECISION_FLOOR}", paper.precision),
        });
        checks.push(GateCheck {
            name: "paper/none: recall floor".into(),
            passed: paper.recall >= PAPER_CLEAN_RECALL_FLOOR,
            detail: format!("{:.3} >= {PAPER_CLEAN_RECALL_FLOOR}", paper.recall),
        });
    } else {
        checks.push(GateCheck {
            name: "paper/none: present".into(),
            passed: false,
            detail: "no clean-profile paper row".into(),
        });
    }
    for fault in faults {
        let (Some(paper), Some(panda)) = (row(rows, "paper", fault), row(rows, "panda", fault))
        else {
            continue;
        };
        checks.push(GateCheck {
            name: format!("panda/{fault}: precision >= paper"),
            passed: panda.precision >= paper.precision - 1e-9,
            detail: format!("{:.3} vs {:.3}", panda.precision, paper.precision),
        });
        if *fault == "lossy" || *fault == "heavy" {
            checks.push(GateCheck {
                name: format!("panda/{fault}: recall > paper"),
                passed: panda.recall > paper.recall,
                detail: format!("{:.3} vs {:.3}", panda.recall, paper.recall),
            });
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(
        identifier: &str,
        fault: &str,
        incidents: u64,
        identified: u64,
        correct: u64,
    ) -> CaseScore {
        CaseScore {
            identifier: identifier.into(),
            seed: 1,
            fault: fault.into(),
            incidents,
            identified,
            correct,
            rr_sum: correct as f64,
        }
    }

    #[test]
    fn aggregate_pools_counts() {
        let rows = aggregate(&[
            score("paper", "none", 10, 8, 8),
            score("paper", "none", 10, 10, 7),
            score("panda", "none", 10, 9, 9),
        ]);
        let paper = row(&rows, "paper", "none").unwrap();
        assert_eq!(paper.incidents, 20);
        assert_eq!(paper.identified, 18);
        assert_eq!(paper.correct, 15);
        assert!((paper.precision - 15.0 / 18.0).abs() < 1e-12);
        assert!((paper.recall - 0.75).abs() < 1e-12);
        assert!((paper.mrr - 0.75).abs() < 1e-12);
        // Leaderboard order: paper before panda (IdentifierKind::ALL).
        assert_eq!(rows[0].identifier, "paper");
        assert_eq!(rows[1].identifier, "panda");
    }

    #[test]
    fn gate_requires_panda_to_beat_paper_when_degraded() {
        let faults = ["none", "lossy"];
        let good = aggregate(&[
            score("paper", "none", 10, 10, 10),
            score("paper", "lossy", 10, 8, 5),
            score("panda", "none", 10, 10, 10),
            score("panda", "lossy", 10, 9, 8),
        ]);
        assert!(gate(&good, &faults).iter().all(|c| c.passed));

        // PANDA merely matching paper recall on lossy must fail the gate.
        let tied = aggregate(&[
            score("paper", "none", 10, 10, 10),
            score("paper", "lossy", 10, 8, 5),
            score("panda", "none", 10, 10, 10),
            score("panda", "lossy", 10, 8, 5),
        ]);
        let failed: Vec<_> = gate(&tied, &faults)
            .into_iter()
            .filter(|c| !c.passed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].name.contains("recall > paper"));
    }

    #[test]
    fn gate_flags_vacuous_rows_and_missing_paper() {
        let rows = aggregate(&[score("panda", "lossy", 0, 0, 0)]);
        let checks = gate(&rows, &["lossy"]);
        assert!(checks
            .iter()
            .any(|c| !c.passed && c.name.contains("incidents")));
        assert!(checks
            .iter()
            .any(|c| !c.passed && c.name.contains("paper/none")));
    }

    /// The real thing, once, at the cheapest point: clean profile, the
    /// paper backend — a planted thrasher must be found with solid
    /// precision. (The full sweep is the `accuracy_leaderboard` entry,
    /// run by `repro check` in CI.)
    #[test]
    fn clean_paper_case_identifies_the_thrasher() {
        let s = run_case(&AccuracyCase {
            identifier: IdentifierKind::Paper,
            seed: 1,
            fault: "none".into(),
            minutes: 60,
        })
        .expect("scenario must run");
        assert!(s.incidents > 0, "no incidents: {s:?}");
        assert!(s.correct > 0, "never blamed the thrasher: {s:?}");
        assert!(s.precision() >= 0.5, "precision too low: {s:?}");
    }
}
