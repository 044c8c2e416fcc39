//! Web-search serving tiers: leaf, intermediate and root nodes.
//!
//! "A typical web-search query involves thousands of machines working in
//! parallel" (§2). The paper's Figs. 3–4 use this workload: request
//! latency of leaf and intermediate nodes correlates strongly with CPI,
//! while a *root* node's latency is "largely determined by the response
//! time of other nodes, not the root node itself" — so its latency/CPI
//! correlation is poor. These models reproduce exactly that structure.

use crate::diurnal::DiurnalPattern;
use cpi2_sim::{
    ResourceProfile, SimDuration, SimTime, TaskAction, TaskDemand, TaskModel, TickOutcome,
};
use cpi2_stats::rng::SimRng;

/// Which tier of the search tree a task serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Leaf node: scans its index shard (compute- and cache-intensive).
    Leaf,
    /// Intermediate mixer node.
    Intermediate,
    /// Root node: fans out and merges; latency dominated by children.
    Root,
}

/// A web-search serving task.
#[derive(Debug)]
pub struct WebSearchTask {
    tier: Tier,
    pattern: DiurnalPattern,
    /// Per-task CPU scale (cores at load level 1.0).
    cpu_scale: f64,
    profile: ResourceProfile,
    /// CPI at which the latency model is calibrated.
    nominal_cpi: f64,
    /// Service time at nominal CPI, in ms.
    base_service_ms: f64,
    /// Instructions per query (for QPS accounting).
    instr_per_query: f64,
    /// Log-normal sigma of per-tick latency noise (per-task variation the
    /// Fig. 4 scatter shows).
    latency_noise: f64,
    rng: SimRng,
    last_latency_ms: f64,
    /// Slowly wandering service-time multiplier (query-mix drift): keeps
    /// per-task 5-minute samples scattered, as in the paper's Fig. 4.
    service_bias: f64,
}

impl WebSearchTask {
    /// Creates a task of the given tier, seeded deterministically.
    pub fn new(tier: Tier, seed: u64) -> Self {
        let mut rng = SimRng::derive(seed, 0x5EA2C4);
        // Small static per-task spread, as real shards differ slightly.
        let jitter = 1.0 + 0.05 * rng.normal();
        let (cpu_scale, profile, base_service_ms, latency_noise) = match tier {
            Tier::Leaf => (
                2.0 * jitter,
                ResourceProfile {
                    base_cpi: 1.8,
                    cache_mb: 8.0,
                    mpki_solo: 3.0,
                    cache_sensitivity: 1.2,
                    cpi_noise: 0.03,
                },
                30.0,
                0.10,
            ),
            Tier::Intermediate => (
                1.0 * jitter,
                ResourceProfile {
                    base_cpi: 1.4,
                    cache_mb: 4.0,
                    mpki_solo: 1.5,
                    cache_sensitivity: 1.0,
                    cpi_noise: 0.03,
                },
                15.0,
                0.12,
            ),
            Tier::Root => (
                0.8 * jitter,
                ResourceProfile {
                    base_cpi: 1.1,
                    cache_mb: 2.0,
                    mpki_solo: 0.8,
                    cache_sensitivity: 0.8,
                    cpi_noise: 0.03,
                },
                5.0,
                0.08,
            ),
        };
        // Static per-task service-time and CPI spread (shard differences).
        let service_jitter = (1.0 + 0.12 * rng.normal()).clamp(0.7, 1.3);
        let mut profile = profile;
        profile.base_cpi *= (1.0 + 0.06 * rng.normal()).clamp(0.75, 1.3);
        WebSearchTask {
            tier,
            pattern: DiurnalPattern::serving(),
            cpu_scale: cpu_scale.max(0.1),
            profile,
            nominal_cpi: profile.base_cpi,
            base_service_ms: base_service_ms * service_jitter,
            instr_per_query: 50e6,
            latency_noise,
            rng,
            last_latency_ms: 0.0,
            service_bias: 1.0,
        }
    }

    /// The tier this task serves.
    pub fn tier(&self) -> Tier {
        self.tier
    }
}

impl TaskModel for WebSearchTask {
    fn profile(&self) -> ResourceProfile {
        self.profile
    }

    fn demand(&mut self, now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        let level = self.pattern.level(now);
        // Query arrival noise on top of the diurnal curve.
        let noisy = level * (1.0 + 0.05 * self.rng.normal());
        TaskDemand {
            cpu_want: (self.cpu_scale * noisy).max(0.05),
            threads: 24,
        }
    }

    fn observe(&mut self, now: SimTime, outcome: &TickOutcome) -> TaskAction {
        // Query-mix drift: a mean-reverting random walk so even 5-minute
        // latency means keep task-level scatter (Fig. 4).
        let step = 0.02 * self.rng.normal() - 0.01 * (self.service_bias - 1.0);
        self.service_bias = (self.service_bias + step).clamp(0.75, 1.35);
        // Latency model. Leaf/intermediate: service time scales with CPI
        // (each query executes a fixed instruction budget, so wall time per
        // query ∝ CPI), plus noise from query mix.
        let own =
            self.base_service_ms * self.service_bias * (outcome.cpi / self.nominal_cpi).max(0.1);
        let noise = self.rng.lognormal(0.0, self.latency_noise);
        self.last_latency_ms = match self.tier {
            Tier::Leaf | Tier::Intermediate => own * noise,
            Tier::Root => {
                // Children dominate: a load-dependent fan-out tail that has
                // nothing to do with this task's own CPI.
                let load = self.pattern.level(now);
                let children = 40.0 * (1.0 + 0.5 * load) * self.rng.lognormal(0.0, 0.25);
                children + 0.1 * own * noise
            }
        };
        TaskAction::Continue
    }

    fn transactions(&self, outcome: &TickOutcome, _dt: SimDuration) -> Option<f64> {
        Some(outcome.instructions / self.instr_per_query)
    }

    fn request_latency_ms(&self, _outcome: &TickOutcome) -> Option<f64> {
        Some(self.last_latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_stats::correlation::pearson;

    fn outcome(cpi: f64) -> TickOutcome {
        TickOutcome {
            cpu_granted: 2.0,
            capped: false,
            cpi,
            instructions: 2.0 * 2.6e9 / cpi,
            l3_misses: 1e6,
        }
    }

    /// Drives one task through a CPI trajectory and collects
    /// (cpi, latency) pairs.
    fn trajectory(tier: Tier, seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut t = WebSearchTask::new(tier, seed);
        let mut cpis = Vec::new();
        let mut lats = Vec::new();
        let mut rng = SimRng::new(seed);
        for i in 0..n {
            // CPI wanders between 1× and 2× nominal.
            let cpi = t.nominal_cpi
                * (1.0 + 0.5 * (1.0 + ((i as f64) * 0.1).sin()) / 2.0 + 0.05 * rng.normal().abs());
            let o = outcome(cpi);
            t.observe(SimTime::from_secs(i as i64 * 300), &o);
            cpis.push(cpi);
            lats.push(t.request_latency_ms(&o).unwrap());
        }
        (cpis, lats)
    }

    #[test]
    fn leaf_latency_tracks_cpi() {
        let (cpis, lats) = trajectory(Tier::Leaf, 1, 500);
        let r = pearson(&cpis, &lats).unwrap();
        assert!(r > 0.5, "leaf r={r}");
    }

    #[test]
    fn intermediate_latency_tracks_cpi() {
        let (cpis, lats) = trajectory(Tier::Intermediate, 2, 500);
        let r = pearson(&cpis, &lats).unwrap();
        assert!(r > 0.4, "intermediate r={r}");
    }

    #[test]
    fn root_latency_decoupled_from_cpi() {
        let (cpis, lats) = trajectory(Tier::Root, 3, 500);
        let r = pearson(&cpis, &lats).unwrap();
        assert!(r.abs() < 0.35, "root r={r}");
    }

    #[test]
    fn demand_follows_diurnal_pattern() {
        let mut t = WebSearchTask::new(Tier::Leaf, 4);
        let mut rng = SimRng::new(9);
        let dt = SimDuration::from_secs(1);
        let peak: f64 = (0..50)
            .map(|_| t.demand(SimTime::from_hours(18), dt, &mut rng).cpu_want)
            .sum::<f64>()
            / 50.0;
        let trough: f64 = (0..50)
            .map(|_| t.demand(SimTime::from_hours(6), dt, &mut rng).cpu_want)
            .sum::<f64>()
            / 50.0;
        assert!(peak > trough * 1.4, "peak={peak} trough={trough}");
    }

    #[test]
    fn transactions_scale_inversely_with_cpi() {
        let t = WebSearchTask::new(Tier::Leaf, 5);
        let fast = t
            .transactions(&outcome(1.8), SimDuration::from_secs(1))
            .unwrap();
        let slow = t
            .transactions(&outcome(3.6), SimDuration::from_secs(1))
            .unwrap();
        assert!((fast / slow - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tasks_with_different_seeds_differ() {
        let a = WebSearchTask::new(Tier::Leaf, 10);
        let b = WebSearchTask::new(Tier::Leaf, 11);
        assert_ne!(a.cpu_scale, b.cpu_scale);
    }
}
