//! Hardware performance-counter layer for the CPI² reproduction.
//!
//! Models §3.1 of the paper: per-cgroup counting-mode collection of
//! `CPU_CLK_UNHALTED.REF` and `INSTRUCTIONS_RETIRED` (plus L3 misses),
//! sampled 10 seconds out of every minute by a per-machine daemon, each
//! window closing into one §3.1 record per task.
//!
//! The [`sampler::MachineSampler`] reads cgroup counters maintained by
//! `cpi2-sim`; on real hardware the same schedule would sit on top of
//! `perf_event_open(2)` in counting mode — the record format
//! ([`reading::CounterReading`]) is backend-independent.

#![warn(missing_docs)]

pub mod backend;
#[cfg(all(target_os = "linux", feature = "linux-perf"))]
pub mod linux;
pub mod reading;
pub mod sampler;

pub use backend::CounterSource;
pub use reading::CounterReading;
pub use sampler::{ClusterSampler, MachineSampler, SamplerConfig};
