//! CPI sample records and task metadata.
//!
//! [`CpiSample`] mirrors the per-task record of §3.1:
//!
//! ```text
//! string jobname;
//! string platforminfo; // e.g., CPU type
//! int64 timestamp;     // microsec since epoch
//! float cpu_usage;     // CPU-sec/sec
//! float cpi;
//! ```

use cpi2_stats::Name;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Opaque per-machine task handle (unique while the task is resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskHandle(pub u64);

impl std::fmt::Display for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{:x}", self.0)
    }
}

/// A set of task handles asked only "is it in?" and "how many?" — never
/// iterated, so nothing downstream can depend on its hash order.
pub type HandleSet = HashSet<TaskHandle, BuildHasherDefault<HandleHasher>>;

/// A map from task handles, under [`HandleSet`]'s rule: probed by handle,
/// never iterated.
pub(crate) type HandleMap<V> = HashMap<TaskHandle, V, BuildHasherDefault<HandleHasher>>;

/// [`HandleSet`]'s hasher: one multiply per word, then splitmix64's
/// finaliser. Handles pack `job << 32 | index`, and a product's low bits
/// depend only on the factors' low bits: without the finaliser the
/// bucket would be chosen by `index` alone, and every job's task 0 would
/// share one.
#[derive(Debug, Default)]
pub struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            self.write_u64(word.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Aggregation key: job × hardware platform (§3.1: "CPI² does separate CPI
/// calculations for each platform a job runs on").
///
/// Its names are shared: a sample's key is two reference counts, so a
/// `JobKey`-keyed map is probed with [`CpiSample::key`] at no allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobKey {
    /// Job name.
    pub job: Name,
    /// Platform (CPU type) string.
    pub platform: Name,
}

impl JobKey {
    /// Builds a key.
    pub fn new(job: impl Into<Name>, platform: impl Into<Name>) -> Self {
        JobKey {
            job: job.into(),
            platform: platform.into(),
        }
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.job, self.platform)
    }
}

/// Scheduling metadata the agent needs about a co-resident task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskClass {
    /// True for latency-sensitive serving tasks.
    pub latency_sensitive: bool,
    /// True for low-importance ("best effort") batch tasks.
    pub best_effort: bool,
    /// True if the task's job is eligible for CPI² protection (§5:
    /// latency-sensitive, or explicitly marked eligible).
    pub protected: bool,
}

impl Default for TaskClass {
    /// Defaults to an ordinary (unprotected, cappable) batch task.
    fn default() -> Self {
        TaskClass::batch()
    }
}

impl TaskClass {
    /// A protected latency-sensitive task.
    pub fn latency_sensitive() -> Self {
        TaskClass {
            latency_sensitive: true,
            best_effort: false,
            protected: true,
        }
    }

    /// An ordinary batch task.
    pub fn batch() -> Self {
        TaskClass {
            latency_sensitive: false,
            best_effort: false,
            protected: false,
        }
    }

    /// A best-effort batch task.
    pub fn best_effort() -> Self {
        TaskClass {
            latency_sensitive: false,
            best_effort: true,
            protected: false,
        }
    }

    /// Whether CPI² may hard-cap this task (§5: batch only).
    pub fn throttle_eligible(&self) -> bool {
        !self.latency_sensitive
    }
}

/// One CPI sample for one task — the §3.1 record plus the handle and
/// class metadata the local agent needs, and the L3 miss rate used by
/// the Fig. 15(c) analysis.
///
/// The two names are shared, not owned: each was allocated once, when the
/// simulator admitted the job or built the platform, and a copy of the
/// sample bumps two reference counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpiSample {
    /// Per-machine task handle.
    pub task: TaskHandle,
    /// Job name.
    pub jobname: Name,
    /// Platform (CPU type).
    pub platforminfo: Name,
    /// Microseconds since epoch (end of the counting window).
    pub timestamp: i64,
    /// CPU usage over the window, CPU-sec/sec.
    pub cpu_usage: f64,
    /// Cycles per instruction over the window.
    pub cpi: f64,
    /// L3 misses per kilo-instruction. Nothing in detection reads it; it
    /// is kept only because the benchmark's own reading → sample
    /// conversion copies it.
    pub l3_mpki: f64,
    /// Scheduling class of the task.
    pub class: TaskClass,
}

impl CpiSample {
    /// The job × platform aggregation key of this sample, sharing its
    /// names.
    pub fn key(&self) -> JobKey {
        JobKey {
            job: Name::clone(&self.jobname),
            platform: Name::clone(&self.platforminfo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let s = CpiSample {
            task: TaskHandle(7),
            jobname: "websearch".into(),
            platforminfo: "westmere".into(),
            timestamp: 1_000_000,
            cpu_usage: 1.5,
            cpi: 1.8,
            l3_mpki: 2.0,
            class: TaskClass::latency_sensitive(),
        };
        let k = s.key();
        assert_eq!(k, JobKey::new("websearch", "westmere"));
        assert_eq!(k.to_string(), "websearch@westmere");
    }

    #[test]
    fn class_eligibility() {
        assert!(!TaskClass::latency_sensitive().throttle_eligible());
        assert!(TaskClass::batch().throttle_eligible());
        assert!(TaskClass::best_effort().throttle_eligible());
        assert!(TaskClass::latency_sensitive().protected);
        assert!(!TaskClass::batch().protected);
    }

    #[test]
    fn handle_display() {
        assert_eq!(TaskHandle(255).to_string(), "tff");
    }

    /// 96 task indices × 25 jobs packed as `job << 32 | index`: the low
    /// twelve bits of a uniform hash take ≈ 1 816 distinct values over
    /// 2 400 handles; a multiply without the finaliser takes 96.
    #[test]
    fn packed_handles_spread_over_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<HandleHasher>::default();
        let mut low = std::collections::BTreeSet::new();
        for job in 0..25u64 {
            for index in 0..96u64 {
                low.insert(build.hash_one(TaskHandle(job << 32 | index)) & 4095);
            }
        }
        assert!(low.len() >= 1_700, "{} distinct", low.len());
    }
}
