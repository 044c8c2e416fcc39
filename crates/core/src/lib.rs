//! CPI²: CPU performance isolation for shared compute clusters.
//!
//! This crate is the paper's primary contribution (Zhang et al., EuroSys
//! 2013), reimplemented from scratch:
//!
//! 1. **Learn normal behaviour** — per-job × platform CPI specs (mean, σ)
//!    built from the cluster-wide sample stream with day-over-day age
//!    weighting and the §3.1 eligibility rules ([`specbuilder`], [`spec`]).
//! 2. **Detect interference within minutes** — 2σ outlier flagging with a
//!    CPU-usage floor and a 3-violations-in-5-minutes anomaly bar
//!    ([`outlier`]).
//! 3. **Identify the likely antagonist** — the passive cross-correlation
//!    of victim CPI against suspect CPU usage ([`correlation`],
//!    [`antagonist`]).
//! 4. **Ameliorate** — hard-cap the chosen antagonist (0.1 CPU-sec/sec for
//!    batch, 0.01 for best-effort, 5 minutes at a time), preferring
//!    latency-sensitive victims over batch antagonists ([`amelioration`]).
//!
//! The pieces are wired together by the per-machine [`agent::Agent`],
//! which mirrors the management agent the paper deploys on every machine.
//! All parameters live in [`config::Cpi2Config`] with Table 2 defaults.
//!
//! The crate is substrate-independent: it consumes [`sample::CpiSample`]
//! records (the exact §3.1 record layout) and emits commands/incidents; it
//! neither knows nor cares whether samples come from the bundled cluster
//! simulator or a real perf_event collector.

#![warn(missing_docs)]

pub mod agent;
pub mod amelioration;
pub mod antagonist;
pub mod config;
pub mod correlation;
pub mod history;
pub mod incident;
pub mod outlier;
pub mod panda;
#[cfg(test)]
mod reference;
pub mod sample;
pub mod spec;
pub mod specbuilder;
pub mod trace;

pub use agent::{Agent, AgentCommand};
pub use amelioration::{cap_for, CapDecision};
pub use antagonist::{rank_suspects, select_target, Suspect, SuspectInput};
pub use config::Cpi2Config;
pub use correlation::antagonist_correlation;
pub use cpi2_stats::Name;
pub use history::{Column, History};
pub use incident::{Incident, IncidentAction, NoActionReason};
pub use outlier::{OutlierDetector, Verdict};
pub use panda::{EvidenceBook, IdentifierKind, PandaParams};
pub use sample::{CpiSample, HandleSet, JobKey, TaskClass, TaskHandle};
pub use spec::CpiSpec;
pub use specbuilder::SpecBuilder;
pub use trace::{TraceId, TraceLog, TraceSpan, TraceStage, DEFAULT_TRACE_CAPACITY};
