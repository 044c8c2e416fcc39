//! Suspect ranking and antagonist selection.
//!
//! Once a victim is anomalous, every co-resident task is a suspect. Each
//! suspect's CPU-usage series is time-aligned with the victim's CPI series
//! and scored with the §4.2 correlation; suspects are ranked by score and
//! the throttling target is the highest-scoring *eligible* (non-latency-
//! sensitive) suspect at or above the decision threshold — exactly the
//! Case 1 logic, where the batch video-processing job was chosen even
//! though four latency-sensitive tasks also scored highly.
//!
//! This module implements the paper-exact single-incident ranking. The
//! PANDA-style backend in [`crate::panda`] produces the same [`Suspect`]
//! records but ranks by the mean correlation across incidents instead.

use crate::correlation::antagonist_correlation;
use crate::history::Column;
use crate::sample::{TaskClass, TaskHandle};
use cpi2_stats::Name;
use serde::{Deserialize, Serialize};

/// A scored suspect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Suspect {
    /// The suspect task.
    pub task: TaskHandle,
    /// Its job's name.
    pub jobname: Name,
    /// Its scheduling class.
    pub class: TaskClass,
    /// Antagonist correlation with the victim, in `[−1, 1]` (0 when the
    /// window score was undefined).
    pub correlation: f64,
    /// The score the active identifier ranked this suspect by. The
    /// paper-exact backend sets it to `correlation`; the PANDA-style
    /// backend sets the mean correlation over the suspect job's last
    /// incidents against this victim job. Old incident logs
    /// (pre-confidence) deserialize to 0.
    #[serde(default)]
    pub confidence: f64,
}

/// A suspect's observable state handed to the ranker.
#[derive(Debug)]
pub struct SuspectInput<'a> {
    /// The suspect task.
    pub task: TaskHandle,
    /// Its job's name.
    pub jobname: &'a Name,
    /// Its scheduling class.
    pub class: TaskClass,
    /// Its CPU usage over the analysis window, borrowed from its history.
    pub usage: Column<'a>,
}

/// Ranks suspects by antagonist correlation, descending.
///
/// `victim_cpi` and each suspect's usage are aligned with
/// `tolerance_us` timestamp slack. Suspects whose window score is
/// undefined (no aligned samples, flat victim CPI, no CPU used — see
/// [`antagonist_correlation`]) score 0.
///
/// Allocates twice per call, whatever the suspect count: the ranking and
/// one pair buffer every alignment reuses.
pub fn rank_suspects(
    victim_cpi: Column<'_>,
    suspects: &[SuspectInput<'_>],
    cthreshold: f64,
    tolerance_us: i64,
) -> Vec<Suspect> {
    let mut pairs = Vec::with_capacity(victim_cpi.len());
    let mut out: Vec<Suspect> = suspects
        .iter()
        .map(|s| {
            victim_cpi.align_into(s.usage, tolerance_us, &mut pairs);
            let correlation = antagonist_correlation(&pairs, cthreshold).unwrap_or(0.0);
            Suspect {
                task: s.task,
                jobname: Name::clone(s.jobname),
                class: s.class,
                correlation,
                confidence: correlation,
            }
        })
        .collect();
    // Suspects are distinct tasks, so (correlation, task) orders them
    // totally and an unstable sort — which needs no scratch buffer — puts
    // them where a stable one would.
    out.sort_unstable_by(|a, b| {
        b.correlation
            .total_cmp(&a.correlation)
            .then(a.task.cmp(&b.task))
    });
    out
}

/// Chooses the throttling target: the highest-ranked suspect that is
/// throttle-eligible and whose identifier score ([`Suspect::confidence`])
/// is at or above `threshold`. For the paper-exact backend the score is
/// the raw §4.2 correlation, so this is exactly the paper's rule.
pub fn select_target(ranked: &[Suspect], threshold: f64) -> Option<&Suspect> {
    ranked
        .iter()
        .find(|s| s.class.throttle_eligible() && s.confidence >= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;

    /// A history whose CPI and usage are both `points`' values.
    fn series(points: &[(i64, f64)]) -> History {
        let mut h = History::new();
        for &(t, v) in points {
            h.push(t, v, v);
        }
        h
    }

    fn name(job: &str) -> Name {
        job.into()
    }

    #[test]
    fn ranking_orders_by_correlation() {
        // Victim CPI spikes at minutes 1, 3 (threshold 2.0).
        let victim = series(&[(0, 1.0), (60, 5.0), (120, 1.0), (180, 5.0), (240, 1.0)]);
        // Guilty: active exactly at the spikes.
        let guilty = series(&[(0, 0.0), (60, 4.0), (120, 0.0), (180, 4.0), (240, 0.0)]);
        // Innocent: active in the quiet minutes.
        let innocent = series(&[(0, 4.0), (60, 0.0), (120, 4.0), (180, 0.0), (240, 4.0)]);
        let ranked = rank_suspects(
            victim.cpi(),
            &[
                SuspectInput {
                    task: TaskHandle(1),
                    jobname: &name("innocent"),
                    class: TaskClass::batch(),
                    usage: innocent.usage(),
                },
                SuspectInput {
                    task: TaskHandle(2),
                    jobname: &name("guilty"),
                    class: TaskClass::batch(),
                    usage: guilty.usage(),
                },
            ],
            2.0,
            1_000_000,
        );
        assert_eq!(ranked[0].task, TaskHandle(2));
        assert!(ranked[0].correlation > 0.35);
        // Paper backend: the ranking score is the correlation itself.
        assert_eq!(ranked[0].confidence, ranked[0].correlation);
        assert!(ranked[1].correlation < 0.0);
    }

    #[test]
    fn select_skips_latency_sensitive() {
        // The Case 1 scenario: LS tasks score high but only the batch task
        // is eligible.
        let ranked = vec![
            Suspect {
                task: TaskHandle(1),
                jobname: "content-digitizing".into(),
                class: TaskClass::latency_sensitive(),
                correlation: 0.44,
                confidence: 0.44,
            },
            Suspect {
                task: TaskHandle(2),
                jobname: "video-processing".into(),
                class: TaskClass::batch(),
                correlation: 0.46,
                confidence: 0.46,
            },
        ];
        // (already sorted descending in real use; order here: 0.44 then 0.46
        // would be wrong — sort first)
        let mut ranked = ranked;
        ranked.sort_by(|a, b| b.correlation.partial_cmp(&a.correlation).unwrap());
        let t = select_target(&ranked, 0.35).unwrap();
        assert_eq!(&*t.jobname, "video-processing");
    }

    #[test]
    fn select_none_below_threshold() {
        let ranked = vec![Suspect {
            task: TaskHandle(1),
            jobname: "b".into(),
            class: TaskClass::batch(),
            correlation: 0.2,
            confidence: 0.2,
        }];
        assert!(select_target(&ranked, 0.35).is_none());
    }

    #[test]
    fn no_aligned_samples_scores_zero() {
        let victim = series(&[(0, 5.0)]);
        let far = series(&[(1_000_000_000, 4.0)]);
        let ranked = rank_suspects(
            victim.cpi(),
            &[SuspectInput {
                task: TaskHandle(1),
                jobname: &name("x"),
                class: TaskClass::batch(),
                usage: far.usage(),
            }],
            2.0,
            1_000,
        );
        assert_eq!(ranked[0].correlation, 0.0);
    }

    #[test]
    fn ties_broken_by_task_id() {
        let victim = series(&[(0, 5.0), (60, 5.0)]);
        let usage = series(&[(0, 1.0), (60, 1.0)]);
        let ranked = rank_suspects(
            victim.cpi(),
            &[
                SuspectInput {
                    task: TaskHandle(9),
                    jobname: &name("a"),
                    class: TaskClass::batch(),
                    usage: usage.usage(),
                },
                SuspectInput {
                    task: TaskHandle(3),
                    jobname: &name("b"),
                    class: TaskClass::batch(),
                    usage: usage.usage(),
                },
            ],
            2.0,
            1_000,
        );
        assert_eq!(ranked[0].task, TaskHandle(3));
    }

    #[test]
    fn nan_poisoned_window_cannot_top_the_ranking() {
        // The regression the Option guard prevents: a corrupted sample
        // (NaN CPI) used to produce a NaN correlation, and `total_cmp`
        // sorts NaN above +∞ — so a garbage suspect would have outranked
        // the genuinely guilty one and been capped.
        let victim = series(&[(0, 1.0), (60, 5.0), (120, 1.0), (180, 5.0)]);
        let victim_nan = series(&[(0, f64::NAN), (60, 5.0), (120, 1.0), (180, 5.0)]);
        let guilty = series(&[(0, 0.0), (60, 4.0), (120, 0.0), (180, 4.0)]);
        let inputs = [SuspectInput {
            task: TaskHandle(7),
            jobname: &name("corrupt"),
            class: TaskClass::batch(),
            usage: guilty.usage(),
        }];
        // Against a poisoned victim window the score degrades to 0 …
        let ranked = rank_suspects(victim_nan.cpi(), &inputs, 2.0, 1_000);
        assert_eq!(ranked[0].correlation, 0.0);
        assert!(ranked[0].correlation.is_finite());
        assert!(select_target(&ranked, 0.35).is_none(), "NaN must not cap");
        // … while the clean window still convicts.
        let clean = rank_suspects(victim.cpi(), &inputs, 2.0, 1_000);
        assert!(clean[0].correlation > 0.35);
        // And a NaN cthreshold (corrupt spec) degrades the same way
        // instead of panicking.
        let bad_spec = rank_suspects(victim.cpi(), &inputs, f64::NAN, 1_000);
        assert_eq!(bad_spec[0].correlation, 0.0);
    }
}
