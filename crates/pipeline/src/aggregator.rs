//! The spec aggregation service: SpecBuilder on a refresh cadence.
//!
//! §3.1: specs are recalculated "every 24 hours (we plan to increase the
//! frequency to hourly)". The service accumulates samples continuously and
//! rolls the builder at each refresh boundary, publishing the result to a
//! [`crate::specstore::SpecStore`].

use crate::specstore::SpecStore;
use cpi2_core::{Cpi2Config, CpiSample, CpiSpec, SpecBuilder, TaskHandle};
use cpi2_telemetry::{Counter, Histo, Telemetry};
use std::collections::BTreeMap;

/// Spec aggregation with periodic refresh.
///
/// Owns its [`SpecBuilder`] by value: every ingest and refresh takes
/// `&mut self`, so there is no lock to contend on. Published specs reach
/// other threads through the [`SpecStore`].
#[derive(Debug)]
pub struct Aggregator {
    builder: SpecBuilder,
    refresh_period_us: i64,
    next_roll: i64,
    samples_seen: u64,
    /// Idempotent-ingest window (µs), if enabled: a `(task, timestamp)`
    /// pair seen within this horizon of the newest sample is skipped, so a
    /// duplicated shipment cannot skew spec statistics.
    dedup_horizon_us: Option<i64>,
    /// `timestamp → tasks` already ingested inside the horizon, each
    /// instant's handles one sorted slice of exactly their number: asked
    /// membership by binary search, grown by a merge when a later batch
    /// adds handles. The map's order drives eviction.
    seen: BTreeMap<i64, Box<[TaskHandle]>>,
    /// The current run's new handles, sorted: reused by every batch.
    fresh: Vec<TaskHandle>,
    /// High-water timestamp driving horizon eviction.
    seen_watermark: i64,
    duplicates_dropped: u64,
    metrics: AggregatorMetrics,
}

/// Cached telemetry handles for the aggregation service.
#[derive(Debug, Default)]
struct AggregatorMetrics {
    telemetry: Telemetry,
    batch_size: Histo,
    samples_total: Counter,
    build_duration_us: Histo,
    specs_published_total: Counter,
    duplicates_total: Counter,
}

impl AggregatorMetrics {
    fn new(telemetry: &Telemetry) -> AggregatorMetrics {
        AggregatorMetrics {
            telemetry: telemetry.clone(),
            batch_size: telemetry.histogram("cpi_aggregator_batch_size", &[]),
            samples_total: telemetry.counter("cpi_aggregator_samples_total", &[]),
            build_duration_us: telemetry.histogram("cpi_spec_build_duration_us", &[]),
            specs_published_total: telemetry.counter("cpi_specs_published_total", &[]),
            duplicates_total: telemetry.counter("cpi_aggregator_duplicates_total", &[]),
        }
    }
}

impl Aggregator {
    /// Creates an aggregator; the first refresh happens one period after
    /// `start_us`.
    pub fn new(config: Cpi2Config, start_us: i64) -> Self {
        let refresh_period_us = config.spec_refresh_hours * 3_600 * 1_000_000;
        Aggregator {
            builder: SpecBuilder::new(config),
            refresh_period_us,
            next_roll: start_us + refresh_period_us,
            samples_seen: 0,
            dedup_horizon_us: None,
            seen: BTreeMap::new(),
            fresh: Vec::new(),
            seen_watermark: i64::MIN,
            duplicates_dropped: 0,
            metrics: AggregatorMetrics::default(),
        }
    }

    /// Enables (or disables) idempotent ingest: a `(task, timestamp)` pair
    /// re-ingested within `horizon_us` of the newest sample is dropped and
    /// counted instead of double-counted. Off by default — callers whose
    /// transport can duplicate shipments (retries, fault injection) opt
    /// in. Duplicates older than the horizon are indistinguishable from
    /// fresh samples; size the horizon to cover the transport's maximum
    /// redelivery delay.
    pub fn set_dedup_horizon(&mut self, horizon_us: Option<i64>) {
        self.dedup_horizon_us = horizon_us;
        if horizon_us.is_none() {
            self.seen.clear();
            self.seen_watermark = i64::MIN;
        }
    }

    /// The idempotent-ingest window, if enabled
    /// ([`Aggregator::set_dedup_horizon`]).
    pub fn dedup_horizon(&self) -> Option<i64> {
        self.dedup_horizon_us
    }

    /// Attaches telemetry: ingest batch sizes, spec-build duration and
    /// published-spec counts.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = AggregatorMetrics::new(telemetry);
    }

    /// Feeds a batch of samples. With a dedup horizon set, already-seen
    /// `(task, timestamp)` pairs are skipped.
    pub fn ingest(&mut self, samples: &[CpiSample]) {
        if self.dedup_horizon_us.is_none() {
            self.ingest_unchecked(samples);
            return;
        }
        // Copy-on-first-duplicate: the clean path ingests the caller's
        // slice directly with no allocation.
        let mut kept: Option<Vec<CpiSample>> = None;
        let mut dups = 0u64;
        // A batch is one machine's samples at one instant: look the
        // timestamp's task set up once per run of equal timestamps.
        let mut start = 0;
        while let Some(first) = samples.get(start) {
            let ts = first.timestamp;
            let len = samples[start..]
                .iter()
                .take_while(|s| s.timestamp == ts)
                .count();
            let seen = self.seen.entry(ts).or_default();
            self.fresh.clear();
            self.fresh.reserve(len);
            for (i, s) in samples.iter().enumerate().skip(start).take(len) {
                let new = seen.binary_search(&s.task).is_err()
                    && match self.fresh.binary_search(&s.task) {
                        Ok(_) => false,
                        Err(at) => {
                            self.fresh.insert(at, s.task);
                            true
                        }
                    };
                if new {
                    if let Some(k) = kept.as_mut() {
                        k.push(s.clone());
                    }
                } else {
                    dups += 1;
                    if kept.is_none() {
                        kept = Some(samples[..i].to_vec());
                    }
                }
            }
            merge_sorted(seen, &self.fresh);
            self.seen_watermark = self.seen_watermark.max(ts);
            start += len;
        }
        if dups > 0 {
            self.duplicates_dropped += dups;
            self.metrics.duplicates_total.add(dups);
        }
        if let Some(horizon) = self.dedup_horizon_us {
            let cutoff = self.seen_watermark.saturating_sub(horizon);
            while self
                .seen
                .first_key_value()
                .is_some_and(|(&t, _)| t < cutoff)
            {
                self.seen.pop_first();
            }
        }
        match kept {
            Some(k) => self.ingest_unchecked(&k),
            None => self.ingest_unchecked(samples),
        }
    }

    fn ingest_unchecked(&mut self, samples: &[CpiSample]) {
        for s in samples {
            self.builder.add_sample(s);
        }
        self.samples_seen += samples.len() as u64;
        self.metrics.batch_size.record(samples.len() as f64);
        self.metrics.samples_total.add(samples.len() as u64);
    }

    /// Duplicated samples skipped by idempotent ingest.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Rolls the period if `now_us` passed the refresh boundary; publishes
    /// refreshed specs to `store` (stamped with `now_us`) and returns them.
    pub fn maybe_refresh(&mut self, now_us: i64, store: &SpecStore) -> Option<Vec<CpiSpec>> {
        if now_us < self.next_roll {
            return None;
        }
        while self.next_roll <= now_us {
            self.next_roll += self.refresh_period_us;
        }
        Some(self.refresh_at(store, now_us))
    }

    /// Forces an immediate refresh with no publish timestamp (entries
    /// never age out at agents) — operator action / tests.
    pub fn refresh_now(&mut self, store: &SpecStore) -> Vec<CpiSpec> {
        self.refresh_at(store, i64::MAX)
    }

    /// Forces an immediate refresh, stamping the published specs with the
    /// simulated time `now_us` so agents can age their cached copies.
    pub fn refresh_at(&mut self, store: &SpecStore, now_us: i64) -> Vec<CpiSpec> {
        let timer = self.metrics.build_duration_us.timer();
        let specs = self.builder.roll_period();
        timer.stop();
        self.metrics.specs_published_total.add(specs.len() as u64);
        self.metrics.telemetry.event("spec_refresh", || {
            format!("published {} specs", specs.len())
        });
        store.publish_at(specs.clone(), now_us);
        specs
    }

    /// Total samples ingested.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Always 0: the builder has no shards. Kept only because
    /// `benchmark/` reads it for its `pipeline.shards_skipped` metric;
    /// delete it together with that metric.
    pub fn shards_skipped(&self) -> u64 {
        0
    }
}

/// Merges `fresh` (sorted, none of it in `held`) into the sorted `held`,
/// leaving it exactly sized: a new instant's slice is one allocation, a
/// later batch at the same instant one reallocation.
fn merge_sorted(held: &mut Box<[TaskHandle]>, fresh: &[TaskHandle]) {
    if fresh.is_empty() {
        return;
    }
    if held.is_empty() {
        *held = fresh.into();
        return;
    }
    let mut merged = std::mem::take(held).into_vec();
    let old = merged.len();
    merged.reserve_exact(fresh.len());
    merged.extend_from_slice(fresh);
    // From the back: each step places the larger of the two tails' last
    // handles, always at or beyond what is still to be read.
    let (mut i, mut j) = (old, fresh.len());
    while j > 0 {
        let f = fresh[j - 1];
        if i > 0 && merged[i - 1] > f {
            merged[i + j - 1] = merged[i - 1];
            i -= 1;
        } else {
            merged[i + j - 1] = f;
            j -= 1;
        }
    }
    *held = merged.into_boxed_slice();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_core::{TaskClass, TaskHandle};

    fn sample(task: u64, ts: i64, cpi: f64) -> CpiSample {
        CpiSample {
            task: TaskHandle(task),
            jobname: "websearch".into(),
            platforminfo: "westmere".into(),
            timestamp: ts,
            cpu_usage: 1.0,
            cpi,
            l3_mpki: 1.0,
            class: TaskClass::latency_sensitive(),
        }
    }

    fn mk_config() -> Cpi2Config {
        Cpi2Config {
            min_samples_per_task: 10,
            ..Cpi2Config::default()
        }
    }

    #[test]
    fn refreshes_on_cadence() {
        let store = SpecStore::new();
        let mut agg = Aggregator::new(mk_config(), 0);
        let day_us = 24 * 3_600 * 1_000_000i64;
        // Feed enough samples for eligibility (5 tasks × 10 samples).
        for t in 0..6u64 {
            for i in 0..20 {
                agg.ingest(&[sample(t, i * 60_000_000, 1.8)]);
            }
        }
        // Before the boundary: nothing.
        assert!(agg.maybe_refresh(day_us - 1, &store).is_none());
        // At the boundary: specs publish.
        let specs = agg.maybe_refresh(day_us, &store).unwrap();
        assert_eq!(specs.len(), 1);
        assert!(store
            .get(&cpi2_core::JobKey::new("websearch", "westmere"))
            .is_some());
        // Immediately after: not again until the next boundary.
        assert!(agg.maybe_refresh(day_us + 1, &store).is_none());
        assert!(agg.maybe_refresh(2 * day_us, &store).is_some());
    }

    #[test]
    fn skipped_boundaries_coalesce() {
        let store = SpecStore::new();
        let mut agg = Aggregator::new(mk_config(), 0);
        let day_us = 24 * 3_600 * 1_000_000i64;
        // Jump 10 days: exactly one refresh, and the next is day 11.
        assert!(agg.maybe_refresh(10 * day_us, &store).is_some());
        assert!(agg.maybe_refresh(10 * day_us + 1, &store).is_none());
        assert!(agg.maybe_refresh(11 * day_us, &store).is_some());
    }

    #[test]
    fn dedup_skips_replayed_batches() {
        let mut agg = Aggregator::new(mk_config(), 0);
        agg.set_dedup_horizon(Some(3_600_000_000));
        let batch: Vec<_> = (0..6u64).map(|t| sample(t, 1_000_000, 1.5)).collect();
        agg.ingest(&batch);
        assert_eq!(agg.samples_seen(), 6);
        // A duplicated shipment: same tasks, same timestamps.
        agg.ingest(&batch);
        assert_eq!(agg.samples_seen(), 6);
        assert_eq!(agg.duplicates_dropped(), 6);
        // Fresh timestamps still flow.
        let later: Vec<_> = (0..6u64).map(|t| sample(t, 2_000_000, 1.5)).collect();
        agg.ingest(&later);
        assert_eq!(agg.samples_seen(), 12);
    }

    #[test]
    fn dedup_evicts_beyond_horizon() {
        let mut agg = Aggregator::new(mk_config(), 0);
        agg.set_dedup_horizon(Some(10_000_000)); // 10 s
        agg.ingest(&[sample(1, 0, 1.5)]);
        // 30 s later the old key is evicted; replaying it is no longer
        // detectable (documented horizon semantics).
        agg.ingest(&[sample(1, 30_000_000, 1.5)]);
        agg.ingest(&[sample(1, 0, 1.5)]);
        assert_eq!(agg.duplicates_dropped(), 0);
        assert_eq!(agg.samples_seen(), 3);
    }

    #[test]
    fn dedup_off_by_default() {
        let mut agg = Aggregator::new(mk_config(), 0);
        let batch: Vec<_> = (0..3u64).map(|t| sample(t, 0, 1.5)).collect();
        agg.ingest(&batch);
        agg.ingest(&batch);
        assert_eq!(agg.samples_seen(), 6);
        assert_eq!(agg.duplicates_dropped(), 0);
    }

    #[test]
    fn refresh_at_stamps_store_entries() {
        let store = SpecStore::new();
        let mut agg = Aggregator::new(mk_config(), 0);
        for t in 0..6u64 {
            for i in 0..20 {
                agg.ingest(&[sample(t, i, 1.5)]);
            }
        }
        agg.refresh_at(&store, 7_000_000);
        let aged = store.changed_since_with_age(0);
        assert_eq!(aged.len(), 1);
        assert_eq!(aged[0].1, 7_000_000);
    }

    #[test]
    fn idle_refresh_republishes_identical_specs() {
        let store = SpecStore::new();
        let mut agg = Aggregator::new(mk_config(), 0);
        for t in 0..6u64 {
            for i in 0..20 {
                agg.ingest(&[sample(t, i, 1.5)]);
            }
        }
        let first = agg.refresh_at(&store, 1_000_000);
        assert_eq!(first.len(), 1);
        // No ingest between refreshes: rolling an empty period leaves
        // history untouched, so the same specs go out under the new stamp.
        let second = agg.refresh_at(&store, 2_000_000);
        assert_eq!(first, second);
        assert_eq!(
            store.changed_since_with_age(0),
            vec![(std::sync::Arc::new(first[0].clone()), 2_000_000)]
        );
    }

    #[test]
    fn refresh_now_publishes() {
        let store = SpecStore::new();
        let mut agg = Aggregator::new(mk_config(), 0);
        for t in 0..6u64 {
            for i in 0..20 {
                agg.ingest(&[sample(t, i, 1.5)]);
            }
        }
        let specs = agg.refresh_now(&store);
        assert_eq!(specs.len(), 1);
        assert!((specs[0].cpi_mean - 1.5).abs() < 1e-9);
        assert_eq!(agg.samples_seen(), 120);
    }
}
