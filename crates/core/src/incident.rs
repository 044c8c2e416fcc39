//! Incident records: what CPI² detected and what it did about it.
//!
//! Incidents are logged for offline forensics (§5: "we log and store data
//! about CPIs and suspected antagonists" for Dremel queries); the
//! `cpi2-pipeline` crate's query engine runs over these records.

use crate::antagonist::Suspect;
use crate::panda::IdentifierKind;
use crate::sample::TaskHandle;
use crate::trace::TraceId;
use serde::{Deserialize, Serialize};

/// The action CPI² took for an incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IncidentAction {
    /// No action: no suspect cleared the correlation bar (Case 3), or the
    /// victim is not eligible for protection, or auto-throttle is off.
    None {
        /// Why nothing was done.
        reason: String,
    },
    /// A hard cap was applied to the chosen antagonist.
    HardCap {
        /// The capped task.
        target: TaskHandle,
        /// Its job's name.
        target_job: String,
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
    /// The victim's job name.
    pub victim_job: String,
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
    fn none_action() {
        let inc = Incident {
            at: 0,
            victim: TaskHandle(1),
            victim_job: "svc".into(),
            victim_cpi: 5.0,
            cthreshold: 2.0,
            suspects: vec![],
            action: IncidentAction::None {
                reason: "no suspect above threshold".into(),
            },
            identifier: IdentifierKind::default(),
            trace_id: TraceId::default(),
        };
        assert!(!inc.acted());
        assert!(inc.top_suspect().is_none());
    }
}
