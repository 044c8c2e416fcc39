//! The central cluster scheduler and admission controller.
//!
//! Per §2: "Each of our clusters runs a central scheduler and admission
//! controller that ensures that resources are not oversubscribed among the
//! latency-sensitive jobs, although it speculatively over-commits resources
//! allocated to batch ones." This module reproduces that policy plus two
//! extensions the paper discusses:
//!
//! * anti-affinity constraints (§5/§9: keep a job away from a named
//!   antagonist), and
//! * an optional *cache-aware* placement policy (§8's contention-aware
//!   scheduling line of work; §9 lists "affinity-based placement" as a
//!   valuable direction) that balances cache-footprint pressure instead of
//!   only CPU reservations.

use crate::job::{JobId, SchedClass};
use crate::machine::MachineId;
use cpi2_stats::rng::SimRng;
use std::collections::{BTreeMap, HashSet};

/// Why a placement request could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// No machine has admission-control headroom for the reservation.
    NoCapacity,
    /// Anti-affinity constraints excluded every feasible machine.
    ConstraintsUnsatisfiable,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCapacity => write!(f, "no machine with sufficient capacity"),
            PlacementError::ConstraintsUnsatisfiable => {
                write!(f, "anti-affinity constraints exclude all feasible machines")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Placement scoring policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Paper-era default: spread by reserved CPU only (interference-blind).
    #[default]
    LeastLoaded,
    /// Contention-aware: prefer the machine whose shared cache is least
    /// pressured by the new task's footprint, breaking ties by CPU load.
    CacheAware,
}

/// Book-keeping for one machine's reservations.
#[derive(Debug, Clone, Default)]
struct MachineBook {
    cores: f64,
    l3_mb: f64,
    reserved_ls: f64,
    reserved_batch: f64,
    reserved_cache_mb: f64,
    // BTreeMap, not HashMap: placement scans iterate resident jobs, and
    // committed placements must not depend on hash order.
    jobs: BTreeMap<JobId, u32>, // job -> resident task count
}

/// The central scheduler: placement, admission control, anti-affinity.
#[derive(Debug)]
pub struct Scheduler {
    books: BTreeMap<MachineId, MachineBook>,
    /// Batch reservations may reach `overcommit × cores` beyond LS usage.
    overcommit: f64,
    /// Pairs of jobs that must not share a machine.
    anti_affinity: HashSet<(JobId, JobId)>,
    policy: PlacementPolicy,
    rng: SimRng,
}

impl Scheduler {
    /// Creates a scheduler with the given batch overcommit factor
    /// (1.0 = no overcommit; the simulations default to 1.5).
    ///
    /// # Panics
    ///
    /// Panics if `overcommit < 1.0`.
    pub fn new(overcommit: f64, seed: u64) -> Self {
        assert!(overcommit >= 1.0, "overcommit must be ≥ 1.0");
        Scheduler {
            books: BTreeMap::new(),
            overcommit,
            anti_affinity: HashSet::new(),
            policy: PlacementPolicy::default(),
            rng: SimRng::derive(seed, 0xC0DE),
        }
    }

    /// Switches the placement policy.
    pub fn set_policy(&mut self, policy: PlacementPolicy) {
        self.policy = policy;
    }

    /// Current placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Registers a machine with its core count and shared-cache size.
    pub fn register_machine(&mut self, id: MachineId, cores: u32, l3_mb: f64) {
        self.books.insert(
            id,
            MachineBook {
                cores: cores as f64,
                l3_mb: l3_mb.max(1e-9),
                ..Default::default()
            },
        );
    }

    /// Adds a symmetric anti-affinity constraint between two jobs — the
    /// "don't co-locate my job with this antagonist" request of §5/§9.
    pub fn add_anti_affinity(&mut self, a: JobId, b: JobId) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.anti_affinity.insert(key);
    }

    fn conflicts(&self, job: JobId, book: &MachineBook) -> bool {
        book.jobs.keys().any(|&other| {
            let key = if job <= other {
                (job, other)
            } else {
                (other, job)
            };
            job != other && self.anti_affinity.contains(&key)
        })
    }

    fn headroom(&self, book: &MachineBook, class: SchedClass) -> f64 {
        match class {
            // LS admission: no oversubscription among latency-sensitive jobs.
            SchedClass::LatencySensitive => book.cores - book.reserved_ls,
            // Batch admission: speculative overcommit beyond LS reservations.
            _ => book.cores * self.overcommit - book.reserved_ls - book.reserved_batch,
        }
    }

    fn score(&self, book: &MachineBook, cache_mb: f64) -> (f64, f64) {
        let load = (book.reserved_ls + book.reserved_batch) / book.cores;
        match self.policy {
            PlacementPolicy::LeastLoaded => (load, 0.0),
            PlacementPolicy::CacheAware => {
                let pressure = (book.reserved_cache_mb + cache_mb) / book.l3_mb;
                (pressure, load)
            }
        }
    }

    /// Chooses a machine for one task of `job` with the given class, CPU
    /// reservation, and cache footprint. Spreads load by picking randomly
    /// among the best-scoring feasible candidates. A migration passes the
    /// machine it leaves as `exclude` ("restart it somewhere else", §5);
    /// that machine is picked only if it is the sole feasible one.
    pub fn place(
        &mut self,
        job: JobId,
        class: SchedClass,
        cpu: f64,
        cache_mb: f64,
        exclude: Option<MachineId>,
    ) -> Result<MachineId, PlacementError> {
        let mut feasible: Vec<(MachineId, (f64, f64))> = Vec::new();
        let mut any_capacity = false;
        for (&id, book) in &self.books {
            if Some(id) == exclude {
                continue;
            }
            if self.headroom(book, class) >= cpu {
                any_capacity = true;
                if !self.conflicts(job, book) {
                    feasible.push((id, self.score(book, cache_mb)));
                }
            }
        }
        if feasible.is_empty() {
            // Nothing else fits: accept the excluded machine rather than
            // fail outright.
            if exclude.is_some() {
                return self.place(job, class, cpu, cache_mb, None);
            }
            return Err(if any_capacity {
                PlacementError::ConstraintsUnsatisfiable
            } else {
                PlacementError::NoCapacity
            });
        }
        // Random choice among the k best-scoring, for spread.
        feasible.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        let k = feasible.len().min(4);
        let pick = feasible[self.rng.below(k as u64) as usize].0;
        self.commit(pick, job, class, cpu, cache_mb);
        Ok(pick)
    }

    /// Books a chosen placement.
    fn commit(
        &mut self,
        machine: MachineId,
        job: JobId,
        class: SchedClass,
        cpu: f64,
        cache_mb: f64,
    ) {
        let book = self.books.get_mut(&machine).expect("machine registered");
        match class {
            SchedClass::LatencySensitive => book.reserved_ls += cpu,
            _ => book.reserved_batch += cpu,
        }
        book.reserved_cache_mb += cache_mb;
        *book.jobs.entry(job).or_insert(0) += 1;
    }

    /// Releases one task's reservation (task exit / kill / migrate).
    pub fn release(
        &mut self,
        machine: MachineId,
        job: JobId,
        class: SchedClass,
        cpu: f64,
        cache_mb: f64,
    ) {
        if let Some(book) = self.books.get_mut(&machine) {
            match class {
                SchedClass::LatencySensitive => {
                    book.reserved_ls = (book.reserved_ls - cpu).max(0.0)
                }
                _ => book.reserved_batch = (book.reserved_batch - cpu).max(0.0),
            }
            book.reserved_cache_mb = (book.reserved_cache_mb - cache_mb).max(0.0);
            if let Some(n) = book.jobs.get_mut(&job) {
                *n -= 1;
                if *n == 0 {
                    book.jobs.remove(&job);
                }
            }
        }
    }

    /// Reserved (LS, batch) CPU on a machine.
    pub fn reservations(&self, machine: MachineId) -> Option<(f64, f64)> {
        self.books
            .get(&machine)
            .map(|b| (b.reserved_ls, b.reserved_batch))
    }

    /// Reserved cache footprint on a machine, MB.
    pub fn reserved_cache_mb(&self, machine: MachineId) -> Option<f64> {
        self.books.get(&machine).map(|b| b.reserved_cache_mb)
    }

    /// Number of registered machines.
    pub fn machine_count(&self) -> usize {
        self.books.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched_with_machines(n: u32, cores: u32) -> Scheduler {
        let mut s = Scheduler::new(1.5, 42);
        for i in 0..n {
            s.register_machine(MachineId(i), cores, 12.0);
        }
        s
    }

    #[test]
    fn ls_admission_not_oversubscribed() {
        let mut s = sched_with_machines(1, 12);
        // 12 cores: exactly 6 two-core LS tasks fit, the 7th is rejected.
        for _ in 0..6 {
            s.place(JobId(1), SchedClass::LatencySensitive, 2.0, 1.0, None)
                .unwrap();
        }
        let err = s.place(JobId(1), SchedClass::LatencySensitive, 2.0, 1.0, None);
        assert_eq!(err, Err(PlacementError::NoCapacity));
    }

    #[test]
    fn batch_overcommits() {
        let mut s = sched_with_machines(1, 10);
        s.place(JobId(1), SchedClass::LatencySensitive, 10.0, 1.0, None)
            .unwrap();
        // LS is full, but batch can still land thanks to 1.5× overcommit.
        s.place(JobId(2), SchedClass::Batch, 5.0, 1.0, None)
            .unwrap();
        let err = s.place(JobId(2), SchedClass::Batch, 1.0, 1.0, None);
        assert_eq!(err, Err(PlacementError::NoCapacity));
    }

    #[test]
    fn release_restores_capacity() {
        let mut s = sched_with_machines(1, 4);
        let m = s
            .place(JobId(1), SchedClass::LatencySensitive, 4.0, 2.0, None)
            .unwrap();
        assert!(s
            .place(JobId(1), SchedClass::LatencySensitive, 1.0, 1.0, None)
            .is_err());
        s.release(m, JobId(1), SchedClass::LatencySensitive, 4.0, 2.0);
        assert_eq!(s.reserved_cache_mb(m), Some(0.0));
        assert!(s
            .place(JobId(1), SchedClass::LatencySensitive, 4.0, 2.0, None)
            .is_ok());
    }

    #[test]
    fn anti_affinity_respected() {
        let mut s = sched_with_machines(2, 8);
        s.add_anti_affinity(JobId(1), JobId(2));
        let m1 = s
            .place(JobId(1), SchedClass::Batch, 1.0, 1.0, None)
            .unwrap();
        let m2 = s
            .place(JobId(2), SchedClass::Batch, 1.0, 1.0, None)
            .unwrap();
        assert_ne!(m1, m2);
        // Fill both machines with job 1; job 2 now has nowhere to go.
        let mut s = sched_with_machines(2, 8);
        s.add_anti_affinity(JobId(1), JobId(2));
        s.commit(MachineId(0), JobId(1), SchedClass::Batch, 1.0, 1.0);
        s.commit(MachineId(1), JobId(1), SchedClass::Batch, 1.0, 1.0);
        assert_eq!(
            s.place(JobId(2), SchedClass::Batch, 1.0, 1.0, None),
            Err(PlacementError::ConstraintsUnsatisfiable)
        );
    }

    #[test]
    fn spread_uses_multiple_machines() {
        let mut s = sched_with_machines(10, 12);
        let mut used = HashSet::new();
        for _ in 0..40 {
            used.insert(
                s.place(JobId(1), SchedClass::Batch, 1.0, 1.0, None)
                    .unwrap(),
            );
        }
        assert!(used.len() >= 5, "used {} machines", used.len());
    }

    #[test]
    fn place_avoids_excluded_machine() {
        let mut s = sched_with_machines(3, 12);
        // Repeated placements never land on the excluded machine while
        // alternatives exist.
        for _ in 0..20 {
            let m = s
                .place(JobId(1), SchedClass::Batch, 0.5, 1.0, Some(MachineId(1)))
                .unwrap();
            assert_ne!(m, MachineId(1));
        }
    }

    #[test]
    fn place_falls_back_to_excluded_when_sole_option() {
        let mut s = sched_with_machines(1, 12);
        let m = s
            .place(JobId(1), SchedClass::Batch, 1.0, 1.0, Some(MachineId(0)))
            .unwrap();
        assert_eq!(m, MachineId(0));
    }

    #[test]
    fn reservations_accounting() {
        let mut s = sched_with_machines(1, 12);
        s.place(JobId(1), SchedClass::LatencySensitive, 3.0, 4.0, None)
            .unwrap();
        s.place(JobId(2), SchedClass::Batch, 2.0, 8.0, None)
            .unwrap();
        assert_eq!(s.reservations(MachineId(0)), Some((3.0, 2.0)));
        assert_eq!(s.reserved_cache_mb(MachineId(0)), Some(12.0));
    }

    #[test]
    fn cache_aware_prefers_low_pressure() {
        let mut s = sched_with_machines(2, 12);
        s.set_policy(PlacementPolicy::CacheAware);
        // Machine 0 carries a huge resident footprint but little CPU;
        // machine 1 carries CPU load but a cold cache.
        s.commit(MachineId(0), JobId(9), SchedClass::Batch, 0.5, 11.0);
        s.commit(MachineId(1), JobId(8), SchedClass::Batch, 6.0, 0.5);
        // A cache-hungry task must go to machine 1 despite its CPU load.
        for _ in 0..10 {
            let mut probe = Scheduler::new(1.5, 7);
            probe.set_policy(PlacementPolicy::CacheAware);
            probe.register_machine(MachineId(0), 12, 12.0);
            probe.register_machine(MachineId(1), 12, 12.0);
            probe.commit(MachineId(0), JobId(9), SchedClass::Batch, 0.5, 11.0);
            probe.commit(MachineId(1), JobId(8), SchedClass::Batch, 6.0, 0.5);
            let m = probe
                .place(JobId(1), SchedClass::Batch, 1.0, 8.0, None)
                .unwrap();
            assert_eq!(m, MachineId(1));
        }
        // The least-loaded policy would pick machine 0 (lower CPU load).
        let mut blind = Scheduler::new(1.5, 7);
        blind.register_machine(MachineId(0), 12, 12.0);
        blind.register_machine(MachineId(1), 12, 12.0);
        blind.commit(MachineId(0), JobId(9), SchedClass::Batch, 0.5, 11.0);
        blind.commit(MachineId(1), JobId(8), SchedClass::Batch, 6.0, 0.5);
        let mut picked0 = 0;
        for _ in 0..20 {
            let m = blind
                .place(JobId(1), SchedClass::Batch, 0.01, 8.0, None)
                .unwrap();
            if m == MachineId(0) {
                picked0 += 1;
            }
        }
        assert!(
            picked0 > 0,
            "least-loaded sometimes piles onto the hot cache"
        );
    }
}
