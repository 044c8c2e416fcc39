//! Incident records: what CPI² detected and what it did about it.
//!
//! Incidents are logged for offline forensics (§5: "we log and store data
//! about CPIs and suspected antagonists" for Dremel queries); the
//! `cpi2-pipeline` crate's query engine runs over these records.

use crate::antagonist::Suspect;
use crate::panda::IdentifierKind;
use crate::sample::TaskHandle;
use crate::trace::TraceId;
use cpi2_stats::Name;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// Why an incident was not acted on. Displays and serializes as the
/// sentence the incident log has always carried, threshold included (the
/// golden traces hold those sentences), so a reason costs no allocation
/// and the log's bytes did not change.
#[derive(Debug, Clone, PartialEq)]
pub enum NoActionReason {
    /// The selected suspect's class has no cap.
    TargetNotThrottleEligible,
    /// No eligible suspect's correlation reached the paper identifier's
    /// bar (Case 3).
    NoCorrelatedSuspect {
        /// The correlation bar.
        threshold: f64,
    },
    /// No eligible suspect's confidence reached the PANDA identifier's
    /// bar.
    NoConfidentSuspect {
        /// The confidence bar.
        threshold: f64,
    },
    /// The victim's job is not eligible for protection.
    VictimNotProtected,
    /// Automatic throttling is off.
    AutoThrottleDisabled,
    /// A wording no variant above writes (a log from another version),
    /// kept as read.
    Other(Name),
}

const NOT_THROTTLE_ELIGIBLE: &str = "selected suspect not throttle-eligible";
const NO_CORRELATED_SUSPECT: &str = "no eligible suspect with correlation ≥ ";
const NO_CONFIDENT_SUSPECT: &str = "no eligible suspect with confidence ≥ ";
const VICTIM_NOT_PROTECTED: &str = "victim job not eligible for protection";
const AUTO_THROTTLE_DISABLED: &str = "auto-throttle disabled";

impl fmt::Display for NoActionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoActionReason::TargetNotThrottleEligible => f.write_str(NOT_THROTTLE_ELIGIBLE),
            NoActionReason::NoCorrelatedSuspect { threshold } => {
                write!(f, "{NO_CORRELATED_SUSPECT}{threshold}")
            }
            NoActionReason::NoConfidentSuspect { threshold } => {
                write!(f, "{NO_CONFIDENT_SUSPECT}{threshold}")
            }
            NoActionReason::VictimNotProtected => f.write_str(VICTIM_NOT_PROTECTED),
            NoActionReason::AutoThrottleDisabled => f.write_str(AUTO_THROTTLE_DISABLED),
            NoActionReason::Other(text) => f.write_str(text),
        }
    }
}

impl NoActionReason {
    /// The reason `text` displays as: a known sentence reads back as its
    /// variant, anything else as [`NoActionReason::Other`].
    fn parse(text: &str) -> NoActionReason {
        let known = match text {
            NOT_THROTTLE_ELIGIBLE => Some(NoActionReason::TargetNotThrottleEligible),
            VICTIM_NOT_PROTECTED => Some(NoActionReason::VictimNotProtected),
            AUTO_THROTTLE_DISABLED => Some(NoActionReason::AutoThrottleDisabled),
            _ => {
                let threshold = |prefix: &str| text.strip_prefix(prefix)?.parse::<f64>().ok();
                threshold(NO_CORRELATED_SUSPECT)
                    .map(|threshold| NoActionReason::NoCorrelatedSuspect { threshold })
                    .or_else(|| {
                        threshold(NO_CONFIDENT_SUSPECT)
                            .map(|threshold| NoActionReason::NoConfidentSuspect { threshold })
                    })
            }
        };
        // A threshold spelled otherwise than `{}` writes it ("1e-1",
        // "0.50") stays as read, so a log re-writes byte for byte.
        known
            .filter(|r| r.to_string() == text)
            .unwrap_or_else(|| NoActionReason::Other(text.into()))
    }
}

impl Serialize for NoActionReason {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for NoActionReason {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(NoActionReason::parse)
            .ok_or_else(|| Error::custom("expected a reason string"))
    }
}

/// The action CPI² took for an incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IncidentAction {
    /// No action: no suspect cleared the correlation bar (Case 3), or the
    /// victim is not eligible for protection, or auto-throttle is off.
    None {
        /// Why nothing was done.
        reason: NoActionReason,
    },
    /// A hard cap was applied to the chosen antagonist.
    HardCap {
        /// The capped task.
        target: TaskHandle,
        /// Its job's name, shared with the suspect it was chosen from.
        target_job: Name,
        /// Cap rate, CPU-sec/sec.
        cpu_rate: f64,
        /// Cap expiry, µs since epoch.
        until: i64,
    },
}

/// One detected performance-isolation incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Detection time, µs since epoch.
    pub at: i64,
    /// The victim task.
    pub victim: TaskHandle,
    /// The victim's job name, shared with the sample that raised it.
    pub victim_job: Name,
    /// The victim's CPI at detection.
    pub victim_cpi: f64,
    /// The victim's outlier threshold (`cthreshold` in §4.2).
    pub cthreshold: f64,
    /// Ranked suspects (highest identifier score first), as in Figs.
    /// 8a/11a.
    pub suspects: Vec<Suspect>,
    /// What was done.
    pub action: IncidentAction,
    /// Which identification backend produced the ranking (older logs
    /// deserialize to the paper-exact default).
    #[serde(default)]
    pub identifier: IdentifierKind,
    /// End-to-end trace this incident belongs to (see [`crate::trace`]);
    /// pre-tracing logs deserialize to the reserved "untraced" zero ID.
    #[serde(default)]
    pub trace_id: TraceId,
}

impl Incident {
    /// The top suspect, if any were scored.
    pub fn top_suspect(&self) -> Option<&Suspect> {
        self.suspects.first()
    }

    /// Whether a hard cap was applied.
    pub fn acted(&self) -> bool {
        matches!(self.action, IncidentAction::HardCap { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::TaskClass;

    #[test]
    fn accessors() {
        let inc = Incident {
            at: 0,
            victim: TaskHandle(1),
            victim_job: "svc".into(),
            victim_cpi: 5.0,
            cthreshold: 2.0,
            suspects: vec![Suspect {
                task: TaskHandle(2),
                jobname: "video".into(),
                class: TaskClass::batch(),
                correlation: 0.46,
                confidence: 0.46,
            }],
            action: IncidentAction::HardCap {
                target: TaskHandle(2),
                target_job: "video".into(),
                cpu_rate: 0.1,
                until: 300_000_000,
            },
            identifier: IdentifierKind::Paper,
            trace_id: TraceId::derive(1, 0),
        };
        assert!(inc.acted());
        assert_eq!(&*inc.top_suspect().unwrap().jobname, "video");
        // Round-trips through serde (the pipeline log format).
        let json = serde_json::to_string(&inc).unwrap();
        let back: Incident = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inc);
    }

    #[test]
    fn a_reason_reads_back_as_the_variant_that_wrote_it() {
        let reasons = [
            NoActionReason::TargetNotThrottleEligible,
            NoActionReason::NoCorrelatedSuspect { threshold: 0.35 },
            NoActionReason::NoConfidentSuspect { threshold: 0.12 },
            NoActionReason::VictimNotProtected,
            NoActionReason::AutoThrottleDisabled,
        ];
        for reason in reasons {
            let text = reason.to_string();
            assert_eq!(NoActionReason::parse(&text), reason, "{text}");
            let json = serde_json::to_string(&reason).unwrap();
            assert_eq!(json, format!("\"{text}\""));
            assert_eq!(
                serde_json::from_str::<NoActionReason>(&json).unwrap(),
                reason
            );
        }
        assert_eq!(
            NoActionReason::NoCorrelatedSuspect { threshold: 0.35 }.to_string(),
            "no eligible suspect with correlation ≥ 0.35"
        );
    }

    #[test]
    fn an_unknown_or_respelled_reason_is_kept_as_read() {
        for text in [
            "no suspect above threshold",
            "no eligible suspect with correlation ≥ 1e-1",
            "no eligible suspect with confidence ≥ 0.50",
            "no eligible suspect with confidence ≥ ",
            "",
        ] {
            let reason = NoActionReason::parse(text);
            assert_eq!(reason, NoActionReason::Other(text.into()));
            assert_eq!(reason.to_string(), text);
        }
    }

    #[test]
    fn none_action() {
        let inc = Incident {
            at: 0,
            victim: TaskHandle(1),
            victim_job: "svc".into(),
            victim_cpi: 5.0,
            cthreshold: 2.0,
            suspects: vec![],
            action: IncidentAction::None {
                reason: NoActionReason::NoCorrelatedSuspect { threshold: 0.35 },
            },
            identifier: IdentifierKind::default(),
            trace_id: TraceId::default(),
        };
        assert!(!inc.acted());
        assert!(inc.top_suspect().is_none());
    }
}
