//! The CPI² data pipeline (Fig. 6) and forensics tooling.
//!
//! "CPI data is gathered for every task on a machine, then sent
//! off-machine to a service where data from related tasks is aggregated.
//! The per-job, per-platform aggregated CPI values are then sent back to
//! each machine that is running a task from that job."
//!
//! * [`collector`] — machine agents → cluster collector (a bounded
//!   queue; lossy under back-pressure by design).
//! * [`aggregator`] — the spec aggregation service on its refresh cadence.
//! * [`specstore`] — versioned spec storage + delta distribution back to
//!   agents.
//! * [`query`] — the Dremel-like SQL engine for performance forensics
//!   (§5's "most aggressive antagonists for a job" queries).

#![warn(missing_docs)]

pub mod aggregator;
pub mod collector;
pub mod query;
pub mod specstore;

pub use aggregator::Aggregator;
pub use collector::{Collector, CollectorHandle, RetryQueue};
pub use query::{Dataset, Query, QueryError, QueryResult, Table, Value};
pub use specstore::{SpecSnapshot, SpecStore};
