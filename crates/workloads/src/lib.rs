//! Workload generators for the CPI² reproduction.
//!
//! Task behaviour models for every workload the paper's evaluation
//! mentions:
//!
//! * [`websearch`] — the three-tier search serving stack of Figs. 3–4
//!   (leaf / intermediate / root, with the root's latency decoupled from
//!   its own CPI).
//! * [`batch`] — transaction-counting batch jobs (Fig. 2) and the case
//!   studies' video processing, scientific simulation and compilation.
//! * [`mapreduce`] — workers that survive capping while idle but give up
//!   under prolonged starvation (Case 6).
//! * [`antagonists`] — cache thrashers, the Case-5 lame-duck replayer
//!   (8 → 80 → 2 threads), and the turn-taking group antagonist §4.2
//!   admits is hard for per-task correlation.
//! * [`bimodal`] — the Case-3 self-inflicted CPI/usage anticorrelation
//!   that motivated the minimum-usage filter.
//! * [`diurnal`] — daily load curves (Fig. 5).
//! * [`catalog`] — named job templates and cluster-population helpers.

#![warn(missing_docs)]

pub mod antagonists;
pub mod batch;
pub mod bimodal;
pub mod catalog;
pub mod diurnal;
pub mod mapreduce;
pub mod replay;
pub mod websearch;

pub use antagonists::{CacheThrasher, LameDuckReplayer, MemoryBandwidthHog, TurnTakingMember};
pub use batch::BatchTask;
pub use bimodal::BimodalService;
pub use catalog::{factory, is_latency_sensitive, submit_typical_mix, LsService};
pub use diurnal::DiurnalPattern;
pub use mapreduce::MapReduceWorker;
pub use replay::{schedule_trace, TraceJob};
pub use websearch::{Tier, WebSearchTask};
