//! Deterministic fault injection for the simulated CPI² deployment.
//!
//! Production reality for a fleet-wide system (§3.1, §7): agents restart,
//! machines reboot, sample shipments to the aggregation pipeline are
//! lost, delayed or duplicated, and replicas serve day-old specs. The
//! paper's design tolerates all of this implicitly — local detection
//! keeps running when the pipeline degrades — and a [`FaultPlan`] makes
//! those paths exercisable on purpose.
//!
//! Every decision is a **pure function of (seed, fault stream, machine,
//! sim time)**: queries derive a throwaway [`SimRng`] stream per event
//! instead of advancing shared state, so the same plan gives bit-identical
//! answers no matter how many worker threads the cluster runs with or in
//! what order callers ask. Periodic faults (agent restarts, machine
//! crashes) fire on a fixed per-machine phase derived from the seed, so a
//! run can be replayed tick for tick.

use crate::machine::MachineId;
use crate::time::{SimDuration, SimTime};
use cpi2_stats::rng::SimRng;

/// Per-query stream ids: independent randomness per fault class.
const STREAM_SHIPMENT: u64 = 0x5419_31D0;
const STREAM_AGENT_RESTART: u64 = 0xA6E7_4E57;
const STREAM_MACHINE_CRASH: u64 = 0xC4A5_80C7;
const STREAM_STALE_SYNC: u64 = 0x57A1_E5EC;

/// What happens to one per-machine sample shipment on the collector path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipmentFate {
    /// Delivered normally.
    Deliver,
    /// Lost in flight; never reaches the collector.
    Drop,
    /// Held back and delivered this many ticks late (out of order).
    Delay(u32),
    /// Delivered twice (a sender-side retry raced its own success).
    Duplicate,
}

/// Fault rates and periods — the taxonomy one [`FaultPlan`] injects.
///
/// Probabilities are per shipment / per sync attempt; periods are mean
/// per-machine recurrence (each machine gets its own seed-derived phase).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a sample shipment is dropped.
    pub shipment_loss: f64,
    /// Probability a sample shipment is delayed.
    pub shipment_delay: f64,
    /// Maximum delay, in cluster ticks (uniform in `1..=max`).
    pub shipment_delay_ticks_max: u32,
    /// Probability a sample shipment is duplicated.
    pub shipment_duplicate: f64,
    /// Per-machine agent restart period (the daemon crashes and comes
    /// back empty: violation windows, histories and spec cache lost).
    pub agent_restart_period: Option<SimDuration>,
    /// Per-machine crash/reboot period (all resident tasks die and are
    /// rescheduled; counters and cgroups reset).
    pub machine_crash_period: Option<SimDuration>,
    /// Probability a spec sync is served from a stale store snapshot.
    pub stale_sync: f64,
    /// How many publishes behind a stale sync is served from.
    pub stale_lag: usize,
}

impl FaultProfile {
    /// No faults at all (every query answers "deliver" / "not due").
    pub fn none() -> Self {
        FaultProfile {
            shipment_loss: 0.0,
            shipment_delay: 0.0,
            shipment_delay_ticks_max: 0,
            shipment_duplicate: 0.0,
            agent_restart_period: None,
            machine_crash_period: None,
            stale_sync: 0.0,
            stale_lag: 0,
        }
    }

    /// The acceptance regime: 10% shipment loss, hourly agent restarts,
    /// plus light delay/duplication and occasional stale spec serving.
    pub fn lossy() -> Self {
        FaultProfile {
            shipment_loss: 0.10,
            shipment_delay: 0.05,
            shipment_delay_ticks_max: 5,
            shipment_duplicate: 0.02,
            agent_restart_period: Some(SimDuration::from_hours(1)),
            machine_crash_period: None,
            stale_sync: 0.05,
            stale_lag: 1,
        }
    }

    /// An aggressive regime for short CI runs: everything from
    /// [`FaultProfile::lossy`] at higher rates, agent restarts every
    /// 10 minutes and machine crashes every 30.
    pub fn heavy() -> Self {
        FaultProfile {
            shipment_loss: 0.10,
            shipment_delay: 0.10,
            shipment_delay_ticks_max: 10,
            shipment_duplicate: 0.05,
            agent_restart_period: Some(SimDuration::from_mins(10)),
            machine_crash_period: Some(SimDuration::from_mins(30)),
            stale_sync: 0.10,
            stale_lag: 2,
        }
    }

    /// Looks up a named profile (`none`, `lossy`, `heavy`) — the
    /// vocabulary of the accuracy leaderboard's fault axis.
    pub fn named(name: &str) -> Option<FaultProfile> {
        match name {
            "none" => Some(FaultProfile::none()),
            "lossy" => Some(FaultProfile::lossy()),
            "heavy" => Some(FaultProfile::heavy()),
            _ => None,
        }
    }

    /// True when no fault class is active.
    pub fn is_noop(&self) -> bool {
        self.shipment_loss <= 0.0
            && self.shipment_delay <= 0.0
            && self.shipment_duplicate <= 0.0
            && self.agent_restart_period.is_none()
            && self.machine_crash_period.is_none()
            && self.stale_sync <= 0.0
    }
}

/// A seeded, replayable schedule of faults over a simulated cluster.
///
/// The plan holds no mutable state: every query re-derives its stream
/// from `(seed, fault class, machine, time)`, so answers are independent
/// of call order and of the cluster's parallelism level.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

impl FaultPlan {
    /// Creates a plan from a master seed and a fault profile.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// The profile this plan injects.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The master seed the plan derives its streams from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stateless per-event stream: one derivation chain pins the draw to
    /// `(seed, stream, machine, time)` without any shared RNG state.
    fn event_rng(&self, stream: u64, machine: MachineId, time_us: i64) -> SimRng {
        let mut lane = SimRng::derive(self.seed ^ stream, machine.0 as u64);
        SimRng::derive(lane.next_u64(), time_us as u64)
    }

    /// Per-machine phase offset in `[0, period)` for a periodic fault.
    fn phase_us(&self, stream: u64, machine: MachineId, period_us: i64) -> i64 {
        let mut rng = SimRng::derive(self.seed ^ stream, machine.0 as u64);
        rng.below(period_us as u64) as i64
    }

    /// How many fire points of the schedule `phase + k·period` lie in
    /// `[0, t]`.
    fn crossings(phase_us: i64, period_us: i64, t_us: i64) -> i64 {
        if t_us < phase_us {
            0
        } else {
            (t_us - phase_us) / period_us + 1
        }
    }

    /// True when the periodic fault has a fire point in `(prev, now]`.
    fn periodic_due(
        &self,
        stream: u64,
        machine: MachineId,
        period: Option<SimDuration>,
        prev: SimTime,
        now: SimTime,
    ) -> bool {
        let Some(period) = period else {
            return false;
        };
        let period_us = period.as_us();
        if period_us <= 0 {
            return false;
        }
        let phase = self.phase_us(stream, machine, period_us);
        Self::crossings(phase, period_us, now.as_us())
            > Self::crossings(phase, period_us, prev.as_us())
    }

    /// Fate of the sample shipment `machine` sends at `now`.
    pub fn shipment_fate(&self, machine: MachineId, now: SimTime) -> ShipmentFate {
        let p = &self.profile;
        if p.shipment_loss <= 0.0 && p.shipment_delay <= 0.0 && p.shipment_duplicate <= 0.0 {
            return ShipmentFate::Deliver;
        }
        let mut rng = self.event_rng(STREAM_SHIPMENT, machine, now.as_us());
        let x = rng.f64();
        if x < p.shipment_loss {
            ShipmentFate::Drop
        } else if x < p.shipment_loss + p.shipment_delay {
            let ticks = 1 + rng.below(p.shipment_delay_ticks_max.max(1) as u64) as u32;
            ShipmentFate::Delay(ticks)
        } else if x < p.shipment_loss + p.shipment_delay + p.shipment_duplicate {
            ShipmentFate::Duplicate
        } else {
            ShipmentFate::Deliver
        }
    }

    /// True when `machine`'s management agent restarts in `(prev, now]`.
    pub fn agent_restart_due(&self, machine: MachineId, prev: SimTime, now: SimTime) -> bool {
        self.periodic_due(
            STREAM_AGENT_RESTART,
            machine,
            self.profile.agent_restart_period,
            prev,
            now,
        )
    }

    /// True when `machine` crashes and reboots in `(prev, now]`.
    pub fn machine_crash_due(&self, machine: MachineId, prev: SimTime, now: SimTime) -> bool {
        self.periodic_due(
            STREAM_MACHINE_CRASH,
            machine,
            self.profile.machine_crash_period,
            prev,
            now,
        )
    }

    /// True when `machine`'s spec sync at `now` is served a stale
    /// (lagged) store snapshot instead of the current one.
    pub fn stale_sync(&self, machine: MachineId, now: SimTime) -> bool {
        if self.profile.stale_sync <= 0.0 {
            return false;
        }
        let mut rng = self.event_rng(STREAM_STALE_SYNC, machine, now.as_us());
        rng.f64() < self.profile.stale_sync
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u32) -> MachineId {
        MachineId(id)
    }

    #[test]
    fn named_profiles_resolve() {
        assert!(FaultProfile::named("none").unwrap().is_noop());
        let lossy = FaultProfile::named("lossy").unwrap();
        assert_eq!(lossy.shipment_loss, 0.10);
        assert_eq!(lossy.agent_restart_period, Some(SimDuration::from_hours(1)));
        assert!(FaultProfile::named("heavy").is_some());
        assert!(FaultProfile::named("apocalypse").is_none());
    }

    #[test]
    fn noop_profile_never_faults() {
        let plan = FaultPlan::new(42, FaultProfile::none());
        for t in 0..1000 {
            let now = SimTime::from_secs(t);
            assert_eq!(plan.shipment_fate(m(3), now), ShipmentFate::Deliver);
            assert!(!plan.agent_restart_due(m(3), SimTime::from_secs(t.max(1) - 1), now));
            assert!(!plan.machine_crash_due(m(3), SimTime::from_secs(t.max(1) - 1), now));
            assert!(!plan.stale_sync(m(3), now));
        }
    }

    #[test]
    fn queries_are_pure_and_replayable() {
        let a = FaultPlan::new(0xFA17, FaultProfile::heavy());
        let b = FaultPlan::new(0xFA17, FaultProfile::heavy());
        for t in (0..7200).step_by(60) {
            let now = SimTime::from_secs(t);
            // Same plan, same query, any call order: identical answers.
            assert_eq!(a.shipment_fate(m(7), now), b.shipment_fate(m(7), now));
            assert_eq!(a.stale_sync(m(7), now), b.stale_sync(m(7), now));
            assert_eq!(a.shipment_fate(m(7), now), a.shipment_fate(m(7), now));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1, FaultProfile::heavy());
        let b = FaultPlan::new(2, FaultProfile::heavy());
        let fates_a: Vec<_> = (0..600)
            .map(|t| a.shipment_fate(m(0), SimTime::from_secs(t)))
            .collect();
        let fates_b: Vec<_> = (0..600)
            .map(|t| b.shipment_fate(m(0), SimTime::from_secs(t)))
            .collect();
        assert_ne!(fates_a, fates_b, "seeds must decorrelate fault streams");
    }

    #[test]
    fn shipment_loss_rate_is_approximately_honored() {
        let plan = FaultPlan::new(9, FaultProfile::lossy());
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&t| plan.shipment_fate(m(1), SimTime::from_secs(t)) == ShipmentFate::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!(
            (0.08..=0.12).contains(&rate),
            "drop rate {rate} far from 10%"
        );
    }

    #[test]
    fn periodic_restarts_fire_once_per_period() {
        let plan = FaultPlan::new(5, FaultProfile::lossy()); // hourly restarts
        let tick = SimDuration::from_secs(1);
        let mut fired = 0;
        let mut prev = SimTime::ZERO;
        // Walk 6 hours tick by tick: exactly 6 restarts per machine.
        for t in 1..=(6 * 3600) {
            let now = SimTime::from_secs(t);
            if plan.agent_restart_due(m(2), prev, now) {
                fired += 1;
            }
            prev = now;
        }
        assert_eq!(fired, 6, "hourly restart must fire once per hour");
        let _ = tick;
    }

    #[test]
    fn periodic_due_is_step_size_invariant() {
        // Walking the same window in 1 s or 60 s steps sees the same
        // number of fire points (they land in exactly one step's window).
        let plan = FaultPlan::new(11, FaultProfile::heavy());
        let count = |step: i64| {
            let mut fired = 0;
            let mut prev = SimTime::ZERO;
            let mut t = step;
            while t <= 4 * 3600 {
                let now = SimTime::from_secs(t);
                if plan.machine_crash_due(m(4), prev, now) {
                    fired += 1;
                }
                prev = now;
                t += step;
            }
            fired
        };
        assert_eq!(count(1), count(60));
    }

    #[test]
    fn delay_ticks_in_declared_range() {
        let plan = FaultPlan::new(3, FaultProfile::heavy());
        let max = FaultProfile::heavy().shipment_delay_ticks_max;
        for t in 0..50_000 {
            if let ShipmentFate::Delay(k) = plan.shipment_fate(m(0), SimTime::from_secs(t)) {
                assert!((1..=max).contains(&k), "delay {k} outside 1..={max}");
            }
        }
    }
}
