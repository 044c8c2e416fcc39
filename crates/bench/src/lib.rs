//! Experiment harness for the CPI² reproduction.
//!
//! Every table and figure of the paper is an entry of
//! [`experiments::EXPERIMENTS`]; the `repro` binary ([`repro`]) runs
//! them, records their output under `results/` and checks it byte for
//! byte. The rest of this library is what the entries share:
//!
//! * [`plot`] — ASCII tables, scatter plots and CDFs for terminal output.
//! * [`scenario`] — the §6 case-study testbed.
//! * [`trials`] — the §7 large-scale trial protocol with ground truth
//!   (used by the Fig. 14–16 experiments).
//! * [`accuracy`] — planted-antagonist scoring of the identifier backends.

#![warn(missing_docs)]

pub mod accuracy;
pub mod experiments;
pub mod metrics;
pub mod plot;
pub mod probe;
pub mod repro;
pub mod sampling;
pub mod scenario;
pub mod svg;
pub mod trials;
