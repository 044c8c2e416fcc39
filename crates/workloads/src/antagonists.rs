//! Antagonist task models.
//!
//! The interference sources the paper's case studies feature: bursty
//! cache thrashers, memory-bandwidth hogs, the lame-duck replayer of
//! Case 5 (thread count 8 → 80 under capping → 2 afterwards), and the
//! turn-taking *group* antagonist that §4.2 admits its per-task
//! correlation handles poorly.

use cpi2_sim::{
    ResourceProfile, SimDuration, SimTime, TaskAction, TaskDemand, TaskModel, TickOutcome,
};
use cpi2_stats::rng::SimRng;

/// A bursty cache thrasher: alternates full-bore streaming sweeps with
/// quiet stretches, on a minute-scale period.
#[derive(Debug)]
pub struct CacheThrasher {
    /// CPU demand during a burst, cores.
    pub burst_cpu: f64,
    /// Burst length, ticks.
    pub on_ticks: u32,
    /// Quiet length, ticks.
    pub off_ticks: u32,
    phase: u32,
    rng: SimRng,
    footprint_mb: f64,
}

impl CacheThrasher {
    /// Creates a thrasher with the given burst shape.
    pub fn new(burst_cpu: f64, on_ticks: u32, off_ticks: u32, seed: u64) -> Self {
        assert!(on_ticks > 0 && off_ticks > 0, "phases must be non-empty");
        let mut rng = SimRng::derive(seed, 0x7452);
        let phase = rng.below((on_ticks + off_ticks) as u64) as u32;
        CacheThrasher {
            burst_cpu,
            on_ticks,
            off_ticks,
            phase,
            rng,
            footprint_mb: 32.0,
        }
    }

    /// Overrides the cache footprint (default 32 MB) — smaller footprints
    /// make milder antagonists.
    pub fn with_footprint(mut self, mb: f64) -> Self {
        assert!(mb >= 0.0, "footprint must be non-negative");
        self.footprint_mb = mb;
        self
    }

    fn bursting(&self) -> bool {
        self.phase < self.on_ticks
    }
}

impl TaskModel for CacheThrasher {
    fn profile(&self) -> ResourceProfile {
        ResourceProfile {
            base_cpi: 2.2,
            cache_mb: self.footprint_mb,
            mpki_solo: 12.0,
            cache_sensitivity: 0.1,
            cpi_noise: 0.05,
        }
    }

    fn demand(&mut self, _now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        let want = if self.bursting() {
            self.burst_cpu * (1.0 + 0.05 * self.rng.normal())
        } else {
            0.02
        };
        self.phase = (self.phase + 1) % (self.on_ticks + self.off_ticks);
        TaskDemand {
            cpu_want: want.max(0.0),
            threads: 8,
        }
    }
}

/// A memory-bandwidth hog: a small working set that *fits* in its cache
/// slice but streams through it at an enormous miss rate, saturating the
/// memory controllers. Unlike [`CacheThrasher`] it barely evicts anyone's
/// cache — victims suffer purely through bandwidth queueing, the second
/// interference channel of the model.
#[derive(Debug)]
pub struct MemoryBandwidthHog {
    /// Steady CPU demand, cores.
    pub cpu: f64,
    rng: SimRng,
}

impl MemoryBandwidthHog {
    /// Creates a hog with the given steady demand.
    pub fn new(cpu: f64, seed: u64) -> Self {
        MemoryBandwidthHog {
            cpu,
            rng: SimRng::derive(seed, 0xB17),
        }
    }
}

impl TaskModel for MemoryBandwidthHog {
    fn profile(&self) -> ResourceProfile {
        ResourceProfile {
            base_cpi: 3.0,
            // Tiny footprint: occupancy-based eviction is negligible...
            cache_mb: 0.5,
            // ...but every access misses (non-temporal streaming).
            mpki_solo: 40.0,
            cache_sensitivity: 0.0,
            cpi_noise: 0.04,
        }
    }

    fn demand(&mut self, _now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        TaskDemand {
            cpu_want: (self.cpu * (1.0 + 0.05 * self.rng.normal())).max(0.0),
            threads: 4,
        }
    }
}

/// The Case-5 "replayer" batch job with lame-duck behaviour.
///
/// Normal execution uses ~8 threads. While hard-capped it spawns workers
/// frantically (thread count climbs toward 80); once the cap lifts it
/// enters a self-induced lame-duck mode (2 threads, minimal CPU) for tens
/// of minutes before reverting to normal.
#[derive(Debug)]
pub struct LameDuckReplayer {
    /// Normal CPU demand, cores.
    pub normal_cpu: f64,
    /// Lame-duck duration after a cap lifts, ticks.
    pub lame_ticks: u32,
    state: ReplayerState,
    threads: u32,
    rng: SimRng,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayerState {
    Normal,
    Capped,
    LameDuck(u32),
}

impl LameDuckReplayer {
    /// Creates a replayer with the given steady demand.
    pub fn new(normal_cpu: f64, seed: u64) -> Self {
        LameDuckReplayer {
            normal_cpu,
            lame_ticks: 1800, // "tens of minutes".
            state: ReplayerState::Normal,
            threads: 8,
            rng: SimRng::derive(seed, 0x1A3E),
        }
    }

    /// Current thread count (the Fig. 12b series).
    pub fn threads(&self) -> u32 {
        self.threads
    }
}

impl TaskModel for LameDuckReplayer {
    fn profile(&self) -> ResourceProfile {
        ResourceProfile {
            base_cpi: 1.9,
            cache_mb: 20.0,
            mpki_solo: 7.0,
            cache_sensitivity: 0.3,
            cpi_noise: 0.04,
        }
    }

    fn demand(&mut self, _now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        let cpu_want = match self.state {
            ReplayerState::Normal => self.normal_cpu * (1.0 + 0.05 * self.rng.normal()),
            // While capped it *wants* even more (all those new threads).
            ReplayerState::Capped => self.normal_cpu * 1.5,
            ReplayerState::LameDuck(_) => 0.1,
        };
        TaskDemand {
            cpu_want: cpu_want.max(0.0),
            threads: self.threads,
        }
    }

    fn observe(&mut self, _now: SimTime, outcome: &TickOutcome) -> TaskAction {
        match self.state {
            ReplayerState::Normal => {
                if outcome.capped {
                    self.state = ReplayerState::Capped;
                }
                self.threads = 8;
            }
            ReplayerState::Capped => {
                if outcome.capped {
                    // Spawn more workers trying to offload (ramp to ~80).
                    self.threads = (self.threads + 4).min(80);
                } else {
                    self.state = ReplayerState::LameDuck(self.lame_ticks);
                    self.threads = 2;
                }
            }
            ReplayerState::LameDuck(left) => {
                if outcome.capped {
                    self.state = ReplayerState::Capped;
                } else if left <= 1 {
                    self.state = ReplayerState::Normal;
                    self.threads = 8;
                } else {
                    self.state = ReplayerState::LameDuck(left - 1);
                }
            }
        }
        TaskAction::Continue
    }
}

/// A *group* antagonist: `n` tasks that take turns filling the cache, so
/// no single task correlates strongly with the victim's CPI — §4.2's
/// acknowledged weakness ("a set of tasks that took turns filling the
/// cache"). Create one [`TurnTakingMember`] per task with distinct
/// `slot` values.
#[derive(Debug)]
pub struct TurnTakingMember {
    /// This member's slot in the rotation.
    pub slot: u32,
    /// Total members in the group.
    pub group_size: u32,
    /// Ticks each member stays active before handing over.
    pub slot_ticks: u32,
    /// CPU demand while it is this member's turn, cores.
    pub active_cpu: f64,
    rng: SimRng,
}

impl TurnTakingMember {
    /// Creates one member of a turn-taking group.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= group_size` or `slot_ticks == 0`.
    pub fn new(slot: u32, group_size: u32, slot_ticks: u32, active_cpu: f64, seed: u64) -> Self {
        assert!(slot < group_size, "slot out of range");
        assert!(slot_ticks > 0, "slot_ticks must be positive");
        TurnTakingMember {
            slot,
            group_size,
            slot_ticks,
            active_cpu,
            rng: SimRng::derive(seed, 0x7u64.wrapping_add(slot as u64)),
        }
    }

    fn my_turn(&self, now: SimTime) -> bool {
        let tick = now.as_us() / 1_000_000;
        let round = (tick / self.slot_ticks as i64) as u64;
        (round % self.group_size as u64) as u32 == self.slot
    }
}

impl TaskModel for TurnTakingMember {
    fn profile(&self) -> ResourceProfile {
        ResourceProfile {
            base_cpi: 2.1,
            cache_mb: 30.0,
            mpki_solo: 11.0,
            cache_sensitivity: 0.1,
            cpi_noise: 0.05,
        }
    }

    fn demand(&mut self, now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        let want = if self.my_turn(now) {
            self.active_cpu * (1.0 + 0.05 * self.rng.normal())
        } else {
            0.02
        };
        TaskDemand {
            cpu_want: want.max(0.0),
            threads: 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(capped: bool) -> TickOutcome {
        TickOutcome {
            cpu_granted: if capped { 0.1 } else { 3.0 },
            capped,
            cpi: 2.0,
            instructions: 1e9,
            l3_misses: 1e6,
        }
    }

    #[test]
    fn thrasher_alternates() {
        let mut t = CacheThrasher::new(6.0, 60, 60, 1);
        let mut rng = SimRng::new(0);
        let wants: Vec<f64> = (0..240)
            .map(|i| {
                t.demand(SimTime::from_secs(i), SimDuration::from_secs(1), &mut rng)
                    .cpu_want
            })
            .collect();
        let on = wants.iter().filter(|&&w| w > 3.0).count();
        assert!((100..=140).contains(&on), "on={on}");
    }

    #[test]
    fn replayer_thread_lifecycle() {
        // The Fig. 12b shape: 8 → (capped) up to 80 → (released) 2 → 8.
        let mut r = LameDuckReplayer::new(3.0, 1);
        r.lame_ticks = 20;
        let mut rng = SimRng::new(0);
        let dt = SimDuration::from_secs(1);

        // Normal.
        r.demand(SimTime::from_secs(0), dt, &mut rng);
        r.observe(SimTime::from_secs(0), &outcome(false));
        assert_eq!(r.threads(), 8);

        // Capped for 30 ticks: thread count climbs.
        for i in 1..=30 {
            r.demand(SimTime::from_secs(i), dt, &mut rng);
            r.observe(SimTime::from_secs(i), &outcome(true));
        }
        assert!(r.threads() > 60, "threads={}", r.threads());

        // Cap lifts: lame duck at 2 threads.
        r.demand(SimTime::from_secs(31), dt, &mut rng);
        r.observe(SimTime::from_secs(31), &outcome(false));
        assert_eq!(r.threads(), 2);
        let d = r.demand(SimTime::from_secs(32), dt, &mut rng);
        assert!(d.cpu_want < 0.2);

        // After the lame-duck period: back to normal.
        for i in 32..60 {
            r.demand(SimTime::from_secs(i), dt, &mut rng);
            r.observe(SimTime::from_secs(i), &outcome(false));
        }
        assert_eq!(r.threads(), 8);
    }

    #[test]
    fn turn_taking_members_never_overlap() {
        let mut members: Vec<TurnTakingMember> = (0..4)
            .map(|s| TurnTakingMember::new(s, 4, 60, 5.0, 9))
            .collect();
        let mut rng = SimRng::new(0);
        for i in 0..480 {
            let now = SimTime::from_secs(i);
            let mut active = 0;
            for m in members.iter_mut() {
                if m.demand(now, SimDuration::from_secs(1), &mut rng).cpu_want > 1.0 {
                    active += 1;
                }
            }
            assert_eq!(active, 1, "tick {i}: exactly one member active");
        }
    }

    #[test]
    fn turn_taking_rotation_covers_all() {
        let m0 = TurnTakingMember::new(0, 3, 10, 5.0, 1);
        let mut turns = [false; 3];
        for i in 0..90 {
            let now = SimTime::from_secs(i);
            for (s, turn) in turns.iter_mut().enumerate() {
                let m = TurnTakingMember::new(s as u32, 3, 10, 5.0, 1);
                if m.my_turn(now) {
                    *turn = true;
                }
            }
        }
        let _ = m0;
        assert!(turns.iter().all(|&t| t));
    }

    #[test]
    #[should_panic]
    fn turn_taking_rejects_bad_slot() {
        TurnTakingMember::new(5, 4, 10, 1.0, 0);
    }
}

#[cfg(test)]
mod membw_tests {
    use super::*;
    use cpi2_sim::interference::{compute_cols, InterferenceParams, ProfileColumns};
    use cpi2_sim::Platform;

    #[test]
    fn hurts_through_bandwidth_not_cache() {
        let platform = Platform::westmere();
        let params = InterferenceParams::default();
        // Task 0 is the victim at 2 cores, task 1 the hog at 8.
        let activity = [2.0, 8.0];
        let mut profiles = ProfileColumns::default();
        profiles.push(&ResourceProfile::cache_heavy());
        let (mut alone, mut together, mut mpki) = (Vec::new(), Vec::new(), Vec::new());
        compute_cols(
            &platform,
            &activity[..1],
            &profiles,
            &params,
            &mut alone,
            &mut mpki,
        );
        profiles.push(&MemoryBandwidthHog::new(8.0, 1).profile());
        let (summary, cache_retained) = compute_cols(
            &platform,
            &activity,
            &profiles,
            &params,
            &mut together,
            &mut mpki,
        );
        // The victim's cache is essentially intact (hog footprint 0.5 MB)...
        assert!(cache_retained > 0.95, "retained {cache_retained}");
        // ...but the memory channel saturates, inflating victim CPI.
        // (The equilibrium rho is self-limiting: queueing slows the hog
        // itself, so utilization settles well below saturation.)
        assert!(
            summary.mem_utilization > 0.35,
            "rho {}",
            summary.mem_utilization
        );
        assert!(
            together[0] > alone[0] * 1.05,
            "bandwidth channel: {} -> {}",
            alone[0],
            together[0]
        );
    }

    #[test]
    fn demand_is_steady() {
        let mut h = MemoryBandwidthHog::new(4.0, 2);
        let mut rng = SimRng::new(0);
        for i in 0..100 {
            let d = h.demand(SimTime::from_secs(i), SimDuration::from_secs(1), &mut rng);
            assert!((3.0..5.0).contains(&d.cpu_want), "want {}", d.cpu_want);
        }
    }
}
