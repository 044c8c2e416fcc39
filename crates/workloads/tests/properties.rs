//! Property-based tests for the workload models.

use cpi2_sim::{SimDuration, SimTime, TaskAction, TaskModel, TickOutcome};
use cpi2_stats::rng::SimRng;
use cpi2_workloads::{
    factory, BatchTask, BimodalService, CacheThrasher, DiurnalPattern, LameDuckReplayer,
    MapReduceWorker, TurnTakingMember,
};
use proptest::prelude::*;

fn outcome(granted: f64, capped: bool) -> TickOutcome {
    TickOutcome {
        cpu_granted: granted,
        capped,
        cpi: 1.5,
        instructions: granted * 1e9,
        l3_misses: granted * 1e6,
    }
}

/// One tick of any model, checking universal invariants: non-negative
/// finite demand, valid profile, sane thread counts. Returns the demand
/// (`cpu_want` by bit pattern), or `None` once the model exits.
fn tick_checked(
    model: &mut dyn TaskModel,
    rng: &mut SimRng,
    tick: i64,
    grant: f64,
) -> Option<(u64, u32)> {
    let now = SimTime::from_secs(tick);
    let d = model.demand(now, SimDuration::from_secs(1), rng);
    assert!(
        d.cpu_want.is_finite() && d.cpu_want >= 0.0,
        "demand {}",
        d.cpu_want
    );
    assert!(d.threads <= 10_000, "threads {}", d.threads);
    model.profile().validate().expect("valid profile");
    let o = outcome(d.cpu_want.min(grant), false);
    if model.observe(now, &o) == TaskAction::Exit {
        return None;
    }
    if let Some(t) = model.transactions(&o, SimDuration::from_secs(1)) {
        assert!(t.is_finite() && t >= 0.0);
    }
    if let Some(l) = model.request_latency_ms(&o) {
        assert!(l.is_finite() && l >= 0.0);
    }
    Some((d.cpu_want.to_bits(), d.threads))
}

/// Pushes this thread's last [`DiurnalPattern::level`] answer out of its
/// one-entry memo, with a key no model asks for.
fn evict_level_memo() {
    DiurnalPattern::flat(-1.0).level(SimTime(i64::MIN));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn catalog_models_satisfy_invariants(seed in any::<u64>(), grant in 0.0..8.0f64) {
        const NAMES: [&str; 10] = [
            "websearch-leaf",
            "websearch-intermediate",
            "websearch-root",
            "video-processing",
            "scientific-simulation",
            "compilation",
            "replayer",
            "bimodal-frontend",
            "bigtable-tablet",
            "storage-server",
        ];
        const TICKS: i64 = 200;
        let build = || NAMES.map(|name| (factory(name, seed)(0), SimRng::new(0)));

        // Each model alone, with the time-of-day memo emptied before every
        // tick: each lookup is answered by the curve's formula.
        let alone: Vec<Vec<_>> = build()
            .into_iter()
            .map(|(mut m, mut rng)| {
                (0..TICKS)
                    .map_while(|i| {
                        evict_level_memo();
                        tick_checked(m.as_mut(), &mut rng, i, grant)
                    })
                    .collect()
            })
            .collect();

        // The same models as one machine's residents — all asked at one
        // `now` per tick, so all but the first lookup is the memo's
        // answer. Each demand stream must not move by a bit.
        let mut together = build();
        let mut streams = vec![Vec::new(); NAMES.len()];
        for i in 0..TICKS {
            for ((m, rng), stream) in together.iter_mut().zip(&mut streams) {
                if stream.len() as i64 == i {
                    stream.extend(tick_checked(m.as_mut(), rng, i, grant));
                }
            }
        }
        prop_assert_eq!(streams, alone);
    }

    #[test]
    fn diurnal_level_bounded(base in 0.1..5.0f64, amplitude in 0.0..1.0f64,
                             peak in 0.0..24.0f64, hour in 0..48i64) {
        let p = DiurnalPattern { base, amplitude, peak_hour: peak };
        let level = p.level(SimTime::from_hours(hour));
        prop_assert!(level >= 0.0);
        prop_assert!(level <= base * (1.0 + amplitude) + 1e-9);
    }

    #[test]
    fn thrasher_duty_cycle_matches_config(on in 1..300u32, off in 1..300u32, seed in any::<u64>()) {
        let mut t = CacheThrasher::new(6.0, on, off, seed);
        let mut rng = SimRng::new(0);
        let period = (on + off) as i64;
        let cycles = 5;
        let mut bursting = 0;
        for i in 0..period * cycles {
            let d = t.demand(SimTime::from_secs(i), SimDuration::from_secs(1), &mut rng);
            if d.cpu_want > 1.0 {
                bursting += 1;
            }
        }
        prop_assert_eq!(bursting, on as i64 * cycles);
    }

    #[test]
    fn replayer_threads_always_in_band(seed in any::<u64>(), cap_pattern in prop::collection::vec(any::<bool>(), 50..200)) {
        let mut r = LameDuckReplayer::new(3.0, seed);
        let mut rng = SimRng::new(1);
        for (i, &capped) in cap_pattern.iter().enumerate() {
            let d = r.demand(SimTime::from_secs(i as i64), SimDuration::from_secs(1), &mut rng);
            let granted = if capped { 0.05 } else { d.cpu_want };
            r.observe(SimTime::from_secs(i as i64), &outcome(granted, capped));
            prop_assert!((2..=80).contains(&r.threads()), "threads {}", r.threads());
        }
    }

    #[test]
    fn turn_taking_exactly_one_active(group in 2..8u32, slot_ticks in 1..120u32, t in 0..100_000i64) {
        let now = SimTime::from_secs(t);
        let mut rng = SimRng::new(2);
        let mut active = 0;
        for s in 0..group {
            let mut m = TurnTakingMember::new(s, group, slot_ticks, 5.0, 7);
            if m.demand(now, SimDuration::from_secs(1), &mut rng).cpu_want > 1.0 {
                active += 1;
            }
        }
        prop_assert_eq!(active, 1);
    }

    #[test]
    fn mapreduce_never_exits_without_capping(seed in any::<u64>()) {
        let mut w = MapReduceWorker::new(seed);
        let mut rng = SimRng::new(3);
        for i in 0..500 {
            let d = w.demand(SimTime::from_secs(i), SimDuration::from_secs(1), &mut rng);
            let act = w.observe(SimTime::from_secs(i), &outcome(d.cpu_want, false));
            prop_assert_eq!(act, TaskAction::Continue);
        }
    }

    #[test]
    fn bimodal_low_phase_under_floor(seed in any::<u64>()) {
        let mut s = BimodalService::new(seed);
        let mut rng = SimRng::new(4);
        // Walk a full period and check the phase contract: high-CPI profile
        // only ever coincides with sub-floor demand.
        for i in 0..(s.active_ticks + s.idle_ticks) as i64 {
            let p = s.profile();
            let d = s.demand(SimTime::from_secs(i), SimDuration::from_secs(1), &mut rng);
            if p.base_cpi > 5.0 {
                prop_assert!(d.cpu_want < 0.25, "housekeeping at {} cores", d.cpu_want);
            }
        }
    }

    #[test]
    fn batch_tps_nonnegative_and_scales(seed in any::<u64>(), instr in 0.0..1e12f64) {
        let t = BatchTask::transactional(seed);
        let o = TickOutcome {
            cpu_granted: 1.0,
            capped: false,
            cpi: 1.5,
            instructions: instr,
            l3_misses: 0.0,
        };
        let tx = t.transactions(&o, SimDuration::from_secs(1)).unwrap();
        prop_assert!(tx >= 0.0);
        let o2 = TickOutcome { instructions: instr * 2.0, ..o };
        let tx2 = t.transactions(&o2, SimDuration::from_secs(1)).unwrap();
        prop_assert!(tx2 >= tx);
    }
}
