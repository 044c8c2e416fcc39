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

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobKey {
    /// Job name.
    pub job: String,
    /// Platform (CPU type) string.
    pub platform: String,
}

impl JobKey {
    /// Builds a key.
    pub fn new(job: impl Into<String>, platform: impl Into<String>) -> Self {
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

/// A (job, platform) pair seen through borrowed strings, so a
/// [`JobKey`]-keyed `BTreeMap` can be probed without allocating a key:
/// `map.get(&(job, platform) as &dyn KeyView)`.
///
/// The `dyn KeyView` ordering below compares (job, platform) exactly as
/// `JobKey`'s derived `Ord` does — the agreement `Borrow` requires.
pub(crate) trait KeyView {
    /// The (job, platform) strings.
    fn parts(&self) -> (&str, &str);
}

impl KeyView for JobKey {
    fn parts(&self) -> (&str, &str) {
        (&self.job, &self.platform)
    }
}

impl KeyView for (&str, &str) {
    fn parts(&self) -> (&str, &str) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for JobKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
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
/// simulator placed the task or built the platform, and a copy of the
/// sample bumps two reference counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpiSample {
    /// Per-machine task handle.
    pub task: TaskHandle,
    /// Job name.
    pub jobname: Arc<str>,
    /// Platform (CPU type).
    pub platforminfo: Arc<str>,
    /// Microseconds since epoch (end of the counting window).
    pub timestamp: i64,
    /// CPU usage over the window, CPU-sec/sec.
    pub cpu_usage: f64,
    /// Cycles per instruction over the window.
    pub cpi: f64,
    /// L3 misses per kilo-instruction (auxiliary, may be zero if the
    /// collector does not gather it).
    pub l3_mpki: f64,
    /// Scheduling class of the task.
    pub class: TaskClass,
}

impl CpiSample {
    /// The job × platform aggregation key of this sample.
    pub fn key(&self) -> JobKey {
        JobKey::new(&*self.jobname, &*self.platforminfo)
    }

    /// The same key as borrowed strings, for allocation-free map probes.
    pub(crate) fn key_view(&self) -> (&str, &str) {
        (&self.jobname, &self.platforminfo)
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
    fn borrowed_probe_agrees_with_owned_keys() {
        // Includes the pair whose concatenations collide ("ab"+"c" vs
        // "a"+"bc") and a job that is a prefix of another.
        let names = ["", "a", "ab", "abc", "b", "bc", "c", "zeta"];
        let mut map = std::collections::BTreeMap::new();
        for (i, job) in names.iter().enumerate() {
            for (j, platform) in names.iter().enumerate() {
                if (i + j) % 3 != 0 {
                    map.insert(JobKey::new(*job, *platform), (i, j));
                }
            }
        }
        for (i, job) in names.iter().enumerate() {
            for (j, platform) in names.iter().enumerate() {
                let owned = map.get(&JobKey::new(*job, *platform));
                let borrowed = map.get(&(*job, *platform) as &dyn KeyView);
                assert_eq!(owned, borrowed, "{job}@{platform}");
                assert_eq!(borrowed.is_some(), (i + j) % 3 != 0);
            }
        }
        let keys: Vec<&JobKey> = map.keys().collect();
        for pair in keys.windows(2) {
            let (a, b): (&dyn KeyView, &dyn KeyView) = (pair[0], pair[1]);
            assert_eq!(a.cmp(b), pair[0].cmp(pair[1]));
        }
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
