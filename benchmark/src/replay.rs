//! `detect_replay`: the paper's own system (agent + pipeline) with no
//! simulator or sampler in the loop.
//!
//! Set-up records one simulated hour of the dense fleet's post-plant
//! sample stream, batch by batch, plus the specs learned during the
//! clean warm-up. The timed region replays that hour a fixed number of
//! times — timestamps shifted forward one hour in place per pass, specs
//! rolled hourly — through spec sync → `Agent::ingest` →
//! `RetryQueue::send_or_queue` → `Collector::drain_into` →
//! `Aggregator::maybe_refresh`. `core` + `pipeline` are a tenth of
//! either fleet, so only here can a change to detector, correlator,
//! spec builder or store move an end-to-end number.
//!
//! No simulator runs, so no cap ever takes effect and the antagonists
//! never let up: left alone, the first hourly roll learns them into the
//! baseline and the detector falls silent for every later pass. The
//! replay therefore pins the baseline — after each roll it republishes
//! the specs learned on the clean fleet, as an operator holding a
//! known-good spec would — so every pass detects what the first did.

use std::time::Instant;

use cpi2::core::{Cpi2Config, CpiSample, CpiSpec};
use cpi2::sim::MachineId;
use cpi2::telemetry::Telemetry;

use crate::fleet::{Counts, Detect, Driver, FleetPlan, IncidentDigest, Mirror, Outcome, Timing};
use crate::stats::SLICES;
use crate::trace::Tracer;

/// Simulated length of the recording, and so of one replay pass.
pub const RECORD_MIN: i64 = 60;
const PASS_US: i64 = RECORD_MIN * 60 * 1_000_000;

/// One recorded hour of sample batches and the specs in force.
pub struct Recording {
    /// `(machine, batch)` in offer order; timestamps never decrease.
    pub batches: Vec<(MachineId, Vec<CpiSample>)>,
    /// Specs learned during the clean warm-up.
    pub specs: Vec<CpiSpec>,
    /// The fleet's CPI² configuration (before the hourly-roll override).
    pub config: Cpi2Config,
    /// Machines in the recorded fleet.
    pub machines: u32,
}

impl Recording {
    /// Builds the dense fleet, warms it up, plants the antagonists and
    /// records [`RECORD_MIN`] simulated minutes of its sample stream.
    pub fn capture(plan: &FleetPlan, seed: u64) -> Recording {
        let mut mirror = Mirror::setup(plan, seed);
        mirror.recording = Some(Vec::new());
        for _ in 0..RECORD_MIN * 60 {
            mirror.step();
        }
        Recording {
            batches: mirror.recording.take().unwrap_or_default(),
            specs: mirror.detect.spec_store.changed_since(0),
            config: plan.config(),
            machines: plan.machines,
        }
    }

    fn shift(&mut self, by_us: i64) {
        for (_, batch) in &mut self.batches {
            for s in batch {
                s.timestamp += by_us;
            }
        }
    }
}

/// What one replay run measured and counted.
pub struct ReplayRun {
    /// Wall time per slice and per replayed tick.
    pub timing: Timing,
    /// Exact outcome (caps = cap commands the agents issued).
    pub outcome: Outcome,
    /// Work counted at the layer boundaries.
    pub counts: Counts,
    /// Shards the aggregator skipped as clean across all refreshes.
    pub shards_skipped: u64,
    /// Samples the aggregator dropped as duplicates.
    pub duplicates_dropped: u64,
    /// µs of a refresh right after another, every shard clean.
    pub refresh_clean_us: f64,
    /// The span recorder (off for the untraced control).
    pub tracer: Tracer,
}

/// Replays `rec` for `passes` passes (rounded down to a multiple of
/// [`SLICES`], at least one per slice) through fresh agents and a fresh
/// pipeline. The recording's timestamps are restored before returning,
/// so a second run sees identical input.
pub fn replay(rec: &mut Recording, passes: u64, traced: bool) -> ReplayRun {
    let per_slice = (passes / SLICES as u64).max(1);
    let config = Cpi2Config {
        spec_refresh_hours: 1,
        ..rec.config.clone()
    };
    let first_ts = rec
        .batches
        .first()
        .and_then(|(_, b)| b.first())
        .map_or(0, |s| s.timestamp);
    let start_us = first_ts + PASS_US - 1_000_000;

    let mut tracer = Tracer::new(traced);
    let tick = tracer.register("replay.tick");
    let clone = tracer.register("replay.clone");
    let pin = tracer.register("replay.pin");
    let mut detect = Detect::new(
        config,
        &Telemetry::disabled(),
        rec.machines as usize,
        start_us,
        &mut tracer,
    );
    detect.spec_store.publish_at(rec.specs.clone(), start_us);
    let mut digest = IncidentDigest::default();
    let mut commands = 0u64;

    let mut timing = Timing::default();
    let start = Instant::now();
    let mut last = start;
    let mut tick_id = 0u64;
    for _ in 0..SLICES {
        let slice_start = last;
        for _ in 0..per_slice {
            rec.shift(PASS_US);
            last = Instant::now();
            let mut i = 0;
            while i < rec.batches.len() {
                let now_us = rec.batches[i].1.first().map_or(0, |s| s.timestamp);
                let mut laps = tracer.laps(tick, tick_id);
                while i < rec.batches.len()
                    && rec.batches[i].1.first().map_or(0, |s| s.timestamp) == now_us
                {
                    let (machine, batch) = &rec.batches[i];
                    i += 1;
                    let owned = batch.clone();
                    laps.lap(&mut tracer, clone);

                    let verdict = detect.ingest(&mut tracer, &mut laps, *machine, batch);
                    commands += verdict.commands.len() as u64;
                    for incident in &verdict.incidents {
                        digest.push(*machine, incident);
                    }
                    detect.offer(&mut tracer, &mut laps, owned, now_us);
                }
                detect.drain(&mut tracer, &mut laps, now_us);
                if detect.refresh(&mut tracer, &mut laps, now_us) {
                    detect.spec_store.publish_at(rec.specs.clone(), now_us);
                    laps.lap(&mut tracer, pin);
                }
                laps.close(&mut tracer);
                tick_id += 1;
                let now = Instant::now();
                timing.tick_ns.push((now - last).as_nanos() as f64);
                last = now;
            }
            detect.counts.mticks += u64::from(rec.machines) * (RECORD_MIN * 60) as u64;
        }
        timing.slice_ns.push((last - slice_start).as_nanos() as u64);
    }
    timing.wall_ns = (last - start).as_nanos() as u64;
    timing.ticks = tick_id;
    rec.shift(-PASS_US * (per_slice * SLICES as u64) as i64);

    let shards_skipped = detect.aggregator.shards_skipped();
    let end_us = start_us + PASS_US * (per_slice * SLICES as u64 + 1) as i64;
    detect.aggregator.refresh_at(&detect.spec_store, end_us);
    let t0 = Instant::now();
    detect.aggregator.refresh_at(&detect.spec_store, end_us + 1);
    let refresh_clean_us = t0.elapsed().as_nanos() as f64 / 1e3;

    let (dropped, abandoned) = detect.lost();
    ReplayRun {
        timing,
        outcome: digest.outcome(commands, dropped, abandoned),
        counts: detect.counts,
        shards_skipped,
        duplicates_dropped: detect.aggregator.duplicates_dropped(),
        refresh_clean_us,
        tracer,
    }
}
