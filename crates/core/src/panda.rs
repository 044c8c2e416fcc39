//! PANDA-style cross-incident antagonist identification.
//!
//! The paper's §4.2 correlator scores each suspect from a *single*
//! incident window, which is noisy: thin windows (a suspect that just
//! landed), flat victim signal, and lossy sample pipelines all produce
//! scores that swing around the decision threshold. Its production
//! successor (PAPERS.md: "PANDA: Noise-Resilient Antagonist Identification
//! in Production Datacenters") hardens identification; two of its
//! mechanisms are reproduced here, the two a 64-seed audit over four
//! planted-noise scenarios found worth their code (DESIGN.md §10):
//!
//! 1. **Cross-incident aggregation** — correlation evidence is accumulated
//!    per *(victim job, suspect job)* pair across repeated incidents, and
//!    a suspect's score is the mean §4.2 correlation over the pair's last
//!    [`PandaParams::aggregation_window`] incidents ([`EvidenceBook`]).
//! 2. **Overlap filtering** — a window only contributes evidence when the
//!    victim and suspect series overlap in at least
//!    [`PandaParams::min_overlap`] aligned samples.
//!
//! # Determinism
//!
//! All state lives in `BTreeMap`s keyed by [`PairKey`]; iteration,
//! eviction and tie-breaking are pure functions of the stored state and
//! the sim-time `now` passed in by the caller. No clocks, no hashing, no
//! randomness: two agents fed identical sample streams hold bit-identical
//! evidence books, which keeps the workspace determinism suite green at
//! any parallelism.
//!
//! # Backend selection
//!
//! [`IdentifierKind`] is threaded through [`crate::Cpi2Config`]; the agent
//! consults [`IdentifierKind::panda_params`] and either runs the
//! paper-exact [`crate::antagonist::rank_suspects`] or
//! [`EvidenceBook::rank`].

use crate::antagonist::{Suspect, SuspectInput};
use crate::correlation::antagonist_correlation;
use crate::history::Column;
use cpi2_stats::Name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which antagonist-identification backend the agent runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IdentifierKind {
    /// The paper-exact §4.2 single-incident correlator (the default:
    /// golden traces and the determinism suite were recorded against it).
    #[default]
    Paper,
    /// The PANDA-style backend: cross-incident aggregation + overlap
    /// filtering.
    Panda,
}

impl IdentifierKind {
    /// Every backend, in leaderboard order.
    pub const ALL: [IdentifierKind; 2] = [IdentifierKind::Paper, IdentifierKind::Panda];

    /// Stable machine-readable name (telemetry labels, leaderboard rows).
    pub fn name(self) -> &'static str {
        match self {
            IdentifierKind::Paper => "paper",
            IdentifierKind::Panda => "panda",
        }
    }

    /// The PANDA parameters for this backend, or `None` for the paper
    /// correlator.
    pub fn panda_params(self) -> Option<PandaParams> {
        (self == IdentifierKind::Panda).then(PandaParams::default)
    }

    /// The decision bar applied to [`Suspect::confidence`] when selecting
    /// a throttling target: the paper's correlation threshold for the
    /// paper backend, the backend's confidence threshold otherwise.
    pub fn decision_threshold(self, config: &crate::Cpi2Config) -> f64 {
        self.panda_params()
            .map_or(config.correlation_threshold, |p| p.confidence_threshold)
    }
}

/// Tuning knobs of the PANDA-style backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PandaParams {
    /// How many incidents of evidence per (victim job, suspect job) pair
    /// feed one verdict (and the per-pair storage cap). `1` reduces to
    /// single-incident scoring.
    pub aggregation_window: usize,
    /// Minimum aligned (victim CPI, suspect usage) sample pairs for a
    /// window to contribute evidence. Thinner windows are filtered.
    pub min_overlap: usize,
    /// Decision bar on the score, the mean correlation over the window.
    /// The default 0.12 (the paper's single-window bar is 0.35) is the
    /// bar DESIGN.md §10's audit measured.
    pub confidence_threshold: f64,
    /// Upper bound on tracked (victim job, suspect job) pairs; the
    /// least-recently-updated pair is evicted first (ties by key order).
    pub max_pairs: usize,
}

impl Default for PandaParams {
    fn default() -> Self {
        PandaParams {
            aggregation_window: 8,
            min_overlap: 3,
            confidence_threshold: 0.12,
            max_pairs: 256,
        }
    }
}

/// One (victim job, suspect job) evidence stream. Ordered by victim job,
/// then suspect job (the derive's field order).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PairKey {
    /// The anomalous job the evidence is about.
    pub victim_job: String,
    /// The suspected antagonist job.
    pub suspect_job: String,
}

/// One incident's worth of evidence for a pair. Checkpoints written when
/// records also carried a `weight` still restore: fields are read by name.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvidenceRecord {
    /// The §4.2 correlation observed in that window.
    pub correlation: f64,
}

/// Evidence for one pair: bounded history plus recency for eviction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct PairEvidence {
    /// Oldest-first, trimmed to the aggregation window.
    records: Vec<EvidenceRecord>,
    /// Sim time (µs) of the newest record, for LRU eviction.
    last_update: i64,
}

/// Serializes the evidence map as an array of `[key, value]` pairs (JSON
/// map keys must be strings; ordered pairs keep checkpoints byte-stable).
mod pairmap {
    use super::{PairEvidence, PairKey};
    use serde::{Deserialize, Error, Serialize, Value};
    use std::collections::BTreeMap;

    pub fn to_value(map: &BTreeMap<PairKey, PairEvidence>) -> Value {
        Value::Array(
            map.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    pub fn from_value(v: &Value) -> Result<BTreeMap<PairKey, PairEvidence>, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array of pairs"))?;
        items
            .iter()
            .map(|item| match item.as_array().map(Vec::as_slice) {
                Some([k, v]) => Ok((PairKey::from_value(k)?, PairEvidence::from_value(v)?)),
                _ => Err(Error::custom("expected [key, value] pair")),
            })
            .collect()
    }
}

/// What one [`EvidenceBook::rank`] pass did, for telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Windows whose evidence was filtered out (overlap below
    /// [`PandaParams::min_overlap`]).
    pub windows_filtered: u64,
    /// Evidence pairs evicted to honor [`PandaParams::max_pairs`].
    pub evictions: u64,
}

/// Cross-incident evidence, keyed by (victim job, suspect job).
///
/// Part of the agent's checkpointable state; like the rest of it, the book
/// does not survive an agent restart that discards the checkpoint — a
/// fresh agent re-accumulates evidence from its next incidents.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EvidenceBook {
    #[serde(with = "pairmap")]
    pairs: BTreeMap<PairKey, PairEvidence>,
}

impl EvidenceBook {
    /// A book with no evidence.
    pub fn new() -> EvidenceBook {
        EvidenceBook::default()
    }

    /// Number of (victim job, suspect job) pairs currently tracked —
    /// bounded by [`PandaParams::max_pairs`].
    pub fn pairs_tracked(&self) -> usize {
        self.pairs.len()
    }

    /// Total stored evidence records across all pairs.
    pub fn records_tracked(&self) -> usize {
        self.pairs.values().map(|p| p.records.len()).sum()
    }

    /// Scores and ranks `suspects` against an anomalous `victim_cpi`
    /// window, then commits this window's evidence to the book.
    ///
    /// Each suspect task is scored over the pair's historical evidence
    /// (up to `aggregation_window − 1` prior incidents) plus *its own*
    /// current window; afterwards, at most one record per suspect job —
    /// the strongest task's — is committed, so a wide job does not flood
    /// the book with near-duplicate evidence from one incident.
    ///
    /// With `aggregation_window = 1` and `min_overlap = 0` this ranks
    /// identically to the paper correlator (the history contributes
    /// nothing and the score is the window's correlation) — pinned by a
    /// property test.
    #[allow(clippy::too_many_arguments)] // mirrors rank_suspects + book context
    pub fn rank(
        &mut self,
        params: &PandaParams,
        victim_job: &str,
        victim_cpi: Column<'_>,
        suspects: &[SuspectInput<'_>],
        cthreshold: f64,
        tolerance_us: i64,
        now: i64,
    ) -> (Vec<Suspect>, RankStats) {
        let mut stats = RankStats::default();
        let window = params.aggregation_window.max(1);
        let mut ranked: Vec<Suspect> = Vec::with_capacity(suspects.len());
        // Strongest current-window record per suspect job, committed after
        // scoring so this incident can't feed back into its own ranking.
        let mut commits: BTreeMap<&str, EvidenceRecord> = BTreeMap::new();
        // One pair buffer for every suspect's alignment.
        let mut pairs = Vec::with_capacity(victim_cpi.len());

        for s in suspects {
            victim_cpi.align_into(s.usage, tolerance_us, &mut pairs);
            let correlation = antagonist_correlation(&pairs, cthreshold);
            let current = match correlation {
                Some(c) if pairs.len() >= params.min_overlap => {
                    Some(EvidenceRecord { correlation: c })
                }
                Some(_) => {
                    stats.windows_filtered += 1;
                    None
                }
                // An undefined window (no overlap at all, flat victim CPI,
                // idle suspect) carries no evidence either way; it is not
                // counted as "filtered noise".
                None => None,
            };

            let key = PairKey {
                victim_job: victim_job.to_string(),
                suspect_job: String::from(&**s.jobname),
            };
            // Historical evidence: the newest window−1 records, so the
            // score never mixes more than `aggregation_window` incidents.
            let history = self.pairs.get(&key).map_or(&[][..], |p| &p.records);
            let newest = history.len().saturating_sub(window - 1);
            let history = history.get(newest..).unwrap_or_default();
            let confidence = mean_correlation(history, current);

            if let Some(rec) = current {
                let stronger = match commits.get(&**s.jobname) {
                    Some(best) => rec.correlation > best.correlation,
                    None => true,
                };
                if stronger {
                    commits.insert(s.jobname, rec);
                }
            }
            ranked.push(Suspect {
                task: s.task,
                jobname: Name::clone(s.jobname),
                class: s.class,
                correlation: correlation.unwrap_or(0.0),
                confidence,
            });
        }

        ranked.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.correlation.total_cmp(&a.correlation))
                .then(a.task.cmp(&b.task))
        });

        for (suspect_job, rec) in commits {
            let key = PairKey {
                victim_job: victim_job.to_string(),
                suspect_job: suspect_job.to_string(),
            };
            let pair = self.pairs.entry(key).or_default();
            pair.records.push(rec);
            let excess = pair.records.len().saturating_sub(window);
            if excess > 0 {
                pair.records.drain(..excess);
            }
            pair.last_update = now;
        }
        stats.evictions = self.evict_to(params.max_pairs.max(1));
        (ranked, stats)
    }

    /// Evicts least-recently-updated pairs (ties by key order) until at
    /// most `max_pairs` remain; returns how many were dropped.
    fn evict_to(&mut self, max_pairs: usize) -> u64 {
        let mut evicted = 0;
        while self.pairs.len() > max_pairs {
            let victim = self
                .pairs
                .iter()
                .min_by(|(ka, va), (kb, vb)| va.last_update.cmp(&vb.last_update).then(ka.cmp(kb)))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.pairs.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// A suspect's score: the mean correlation over its pair's history and
/// the current window, so bounded by `[−1, 1]` and sign-preserving; zero
/// when there is no evidence.
fn mean_correlation(history: &[EvidenceRecord], current: Option<EvidenceRecord>) -> f64 {
    let n = history.len() + usize::from(current.is_some());
    if n == 0 {
        return 0.0;
    }
    history
        .iter()
        .chain(&current)
        .map(|r| r.correlation)
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::sample::{TaskClass, TaskHandle};

    /// A history whose CPI and usage are both `points`' values.
    fn series(points: &[(i64, f64)]) -> History {
        let mut h = History::new();
        for &(t, v) in points {
            h.push(t, v, v);
        }
        h
    }

    /// A job name that lives as long as the test binary, for suspect
    /// inputs returned from helpers.
    fn name(job: &str) -> &'static Name {
        Box::leak(Box::new(job.into()))
    }

    /// Victim CPI spiking at odd minutes; a guilty suspect active exactly
    /// then, an innocent one active in the quiet minutes.
    fn scenario() -> (History, History, History) {
        let minutes: Vec<i64> = (0..10).collect();
        let victim = series(
            &minutes
                .iter()
                .map(|&m| (m * 60, if m % 2 == 1 { 5.0 } else { 1.0 }))
                .collect::<Vec<_>>(),
        );
        let guilty = series(
            &minutes
                .iter()
                .map(|&m| (m * 60, if m % 2 == 1 { 4.0 } else { 0.0 }))
                .collect::<Vec<_>>(),
        );
        let innocent = series(
            &minutes
                .iter()
                .map(|&m| (m * 60, if m % 2 == 1 { 0.0 } else { 4.0 }))
                .collect::<Vec<_>>(),
        );
        (victim, guilty, innocent)
    }

    fn inputs<'a>(guilty: &'a History, innocent: &'a History) -> Vec<SuspectInput<'a>> {
        vec![
            SuspectInput {
                task: TaskHandle(1),
                jobname: name("innocent"),
                class: TaskClass::batch(),
                usage: innocent.usage(),
            },
            SuspectInput {
                task: TaskHandle(2),
                jobname: name("guilty"),
                class: TaskClass::batch(),
                usage: guilty.usage(),
            },
        ]
    }

    #[test]
    fn default_kind_is_the_paper_correlator() {
        assert_eq!(IdentifierKind::default(), IdentifierKind::Paper);
        assert!(IdentifierKind::Paper.panda_params().is_none());
        assert!(IdentifierKind::Panda.panda_params().is_some());
    }

    #[test]
    fn guilty_outranks_innocent_across_incidents() {
        let (victim, guilty, innocent) = scenario();
        let params = IdentifierKind::Panda.panda_params().unwrap();
        let mut book = EvidenceBook::new();
        for incident in 0..4 {
            let (ranked, _) = book.rank(
                &params,
                "victim",
                victim.cpi(),
                &inputs(&guilty, &innocent),
                2.0,
                1_000,
                incident * 600_000_000,
            );
            assert_eq!(&*ranked[0].jobname, "guilty", "incident {incident}");
            assert!(ranked[1].confidence < ranked[0].confidence);
            // Identical windows: the mean over the history is the
            // window's own correlation, and it clears the decision bar.
            assert!((ranked[0].confidence - ranked[0].correlation).abs() < 1e-12);
            assert!(ranked[0].confidence >= params.confidence_threshold);
        }
        assert_eq!(book.pairs_tracked(), 2);
    }

    #[test]
    fn thin_windows_are_filtered_but_history_still_ranks() {
        let (victim, guilty, innocent) = scenario();
        let params = IdentifierKind::Panda.panda_params().unwrap();
        let mut book = EvidenceBook::new();
        // Build evidence from clean incidents first.
        for i in 0..3 {
            book.rank(
                &params,
                "victim",
                victim.cpi(),
                &inputs(&guilty, &innocent),
                2.0,
                1_000,
                i * 600_000_000,
            );
        }
        // Now a thin window: only 2 aligned samples (below min_overlap 3).
        let thin_victim = series(&[(0, 5.0), (60, 1.0)]);
        let thin_guilty = series(&[(0, 4.0), (60, 0.0)]);
        let thin_innocent = series(&[(0, 0.0), (60, 4.0)]);
        let (ranked, stats) = book.rank(
            &params,
            "victim",
            thin_victim.cpi(),
            &inputs(&thin_guilty, &thin_innocent),
            2.0,
            1_000,
            4 * 600_000_000,
        );
        assert!(stats.windows_filtered >= 2, "thin windows must filter");
        // History alone still convicts the right job.
        assert_eq!(&*ranked[0].jobname, "guilty");
        assert!(ranked[0].confidence > 0.0);
    }

    #[test]
    fn the_score_is_the_mean_correlation() {
        let rec = |correlation| EvidenceRecord { correlation };
        let history = [rec(1.0), rec(0.0), rec(0.25)];
        assert_eq!(mean_correlation(&history, Some(rec(0.75))), 0.5);
        assert_eq!(mean_correlation(&history, None), 1.25 / 3.0);
        // Sign-preserving on negative evidence; zero without evidence.
        assert_eq!(mean_correlation(&[], Some(rec(-0.5))), -0.5);
        assert_eq!(mean_correlation(&[], None), 0.0);
    }

    #[test]
    fn aggregation_window_bounds_stored_records() {
        let (victim, guilty, innocent) = scenario();
        let params = PandaParams {
            aggregation_window: 3,
            ..PandaParams::default()
        };
        let mut book = EvidenceBook::new();
        for i in 0..10 {
            book.rank(
                &params,
                "victim",
                victim.cpi(),
                &inputs(&guilty, &innocent),
                2.0,
                1_000,
                i * 600_000_000,
            );
        }
        assert_eq!(book.pairs_tracked(), 2);
        assert!(
            book.records_tracked() <= 2 * 3,
            "records {} exceed window cap",
            book.records_tracked()
        );
    }

    #[test]
    fn lru_eviction_bounds_pairs() {
        let (victim, guilty, _) = scenario();
        let params = PandaParams {
            max_pairs: 4,
            ..PandaParams::default()
        };
        let mut book = EvidenceBook::new();
        let mut total_evicted = 0;
        for i in 0..10i64 {
            // A different victim job each incident: 10 distinct pairs.
            let vj = format!("victim-{i}");
            let (_, stats) = book.rank(
                &params,
                &vj,
                victim.cpi(),
                &[SuspectInput {
                    task: TaskHandle(2),
                    jobname: name("guilty"),
                    class: TaskClass::batch(),
                    usage: guilty.usage(),
                }],
                2.0,
                1_000,
                i * 600_000_000,
            );
            total_evicted += stats.evictions;
            assert!(book.pairs_tracked() <= 4);
        }
        assert_eq!(total_evicted, 6, "10 pairs through a 4-pair book");
        // The survivors are the most recently updated victims.
        assert_eq!(book.pairs_tracked(), 4);
    }

    #[test]
    fn checkpoint_round_trip() {
        let (victim, guilty, innocent) = scenario();
        let params = PandaParams::default();
        let mut book = EvidenceBook::new();
        for i in 0..3 {
            book.rank(
                &params,
                "victim",
                victim.cpi(),
                &inputs(&guilty, &innocent),
                2.0,
                1_000,
                i * 600_000_000,
            );
        }
        let blob = serde_json::to_string(&book).unwrap();
        let back: EvidenceBook = serde_json::from_str(&blob).unwrap();
        assert_eq!(back, book);
    }

    #[test]
    fn same_job_tasks_commit_one_record_per_incident() {
        let (victim, guilty, _) = scenario();
        // Two tasks of the same job, one clearly stronger.
        let weak = series(&[(0, 0.5), (60, 0.5), (120, 0.5), (180, 0.5)]);
        let params = PandaParams::default();
        let mut book = EvidenceBook::new();
        book.rank(
            &params,
            "victim",
            victim.cpi(),
            &[
                SuspectInput {
                    task: TaskHandle(1),
                    jobname: name("swarm"),
                    class: TaskClass::batch(),
                    usage: guilty.usage(),
                },
                SuspectInput {
                    task: TaskHandle(2),
                    jobname: name("swarm"),
                    class: TaskClass::batch(),
                    usage: weak.usage(),
                },
            ],
            2.0,
            1_000,
            0,
        );
        assert_eq!(book.pairs_tracked(), 1);
        assert_eq!(book.records_tracked(), 1, "one record per job-incident");
    }
}
