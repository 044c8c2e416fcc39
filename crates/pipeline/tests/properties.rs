//! Property-based tests for the pipeline: query engine and aggregator.

use cpi2_core::{Cpi2Config, CpiSample, Name, TaskClass, TaskHandle};
use cpi2_pipeline::{Aggregator, Collector, Query, QueryResult, RetryQueue, SpecStore, Value};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rec {
    job: String,
    cpi: f64,
    acted: bool,
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    ("[a-z]{1,8}", 0.0..100.0f64, any::<bool>()).prop_map(|(job, cpi, acted)| Rec {
        job,
        cpi,
        acted,
    })
}

/// Parses `sql` (which must parse) and scans `recs` with it.
fn ask<T: Serialize>(recs: &[T], sql: &str) -> QueryResult {
    Query::parse(sql).unwrap().scan(recs)
}

proptest! {
    #[test]
    fn select_star_returns_all_rows(recs in prop::collection::vec(rec_strategy(), 0..30)) {
        let r = ask(&recs, "SELECT * FROM t");
        prop_assert_eq!(r.rows.len(), recs.len());
    }

    #[test]
    fn where_partition_is_complete(recs in prop::collection::vec(rec_strategy(), 0..40), pivot in 0.0..100.0f64) {
        // rows(cpi < p) + rows(cpi >= p) = all rows.
        let below = ask(&recs, &format!("SELECT job FROM t WHERE cpi < {pivot}"));
        let above = ask(&recs, &format!("SELECT job FROM t WHERE cpi >= {pivot}"));
        prop_assert_eq!(below.rows.len() + above.rows.len(), recs.len());
    }

    #[test]
    fn limit_caps_output(recs in prop::collection::vec(rec_strategy(), 0..40), limit in 0usize..50) {
        let r = ask(&recs, &format!("SELECT job FROM t LIMIT {limit}"));
        prop_assert!(r.rows.len() <= limit);
        prop_assert!(r.rows.len() <= recs.len());
    }

    #[test]
    fn order_by_sorts(recs in prop::collection::vec(rec_strategy(), 1..40)) {
        let r = ask(&recs, "SELECT cpi FROM t ORDER BY cpi");
        let vals: Vec<f64> = r.rows.iter().filter_map(|row| row[0].as_num()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let r = ask(&recs, "SELECT cpi FROM t ORDER BY cpi DESC");
        let vals: Vec<f64> = r.rows.iter().filter_map(|row| row[0].as_num()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn count_star_matches_len(recs in prop::collection::vec(rec_strategy(), 0..40)) {
        let r = ask(&recs, "SELECT count(*) FROM t");
        prop_assert_eq!(r.rows[0][0].clone(), Value::Num(recs.len() as f64));
    }

    #[test]
    fn group_by_counts_sum_to_total(recs in prop::collection::vec(rec_strategy(), 0..60)) {
        let r = ask(&recs, "SELECT job, count(*) FROM t GROUP BY job");
        let total: f64 = r
            .rows
            .iter()
            .filter_map(|row| row[1].as_num())
            .sum();
        prop_assert_eq!(total as usize, recs.len());
    }

    #[test]
    fn avg_between_min_and_max(recs in prop::collection::vec(rec_strategy(), 1..40)) {
        let r = ask(&recs, "SELECT min(cpi), avg(cpi), max(cpi) FROM t");
        let min = r.rows[0][0].as_num().unwrap();
        let avg = r.rows[0][1].as_num().unwrap();
        let max = r.rows[0][2].as_num().unwrap();
        prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
    }

    #[test]
    fn garbage_queries_never_panic(q in "[ -~]{0,60}") {
        // Arbitrary printable input must produce Ok or Err, never a panic,
        // and a statement that parses must scan.
        if let Ok(query) = Query::parse(&q) {
            let recs: [Rec; 0] = [];
            let _ = query.scan(&recs);
        }
    }

    #[test]
    fn manual_rows_query(vals in prop::collection::vec(-100.0..100.0f64, 1..30)) {
        #[derive(Serialize)]
        struct M {
            x: f64,
        }
        let recs: Vec<M> = vals.iter().map(|&x| M { x }).collect();
        let r = ask(&recs, "SELECT sum(x) FROM m");
        let s = r.rows[0][0].as_num().unwrap();
        let expect: f64 = vals.iter().sum();
        prop_assert!((s - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }
}

/// One generated sample: (job idx, platform idx, task idx, cpi, replay) —
/// small alphabets so keys and tasks repeat; `replay == 0` re-sends the
/// previous sample, as a retrying transport would.
type StreamItem = (u8, u8, u8, f64, u8);

fn stream_strategy() -> impl Strategy<Value = Vec<StreamItem>> {
    prop::collection::vec((0..5u8, 0..3u8, 0..8u8, 0.05..8.0f64, 0..6u8), 0..300)
}

fn to_samples(stream: &[StreamItem]) -> Vec<CpiSample> {
    let mut out: Vec<CpiSample> = Vec::with_capacity(stream.len());
    for (i, &(job, platform, task, cpi, replay)) in stream.iter().enumerate() {
        match out.last() {
            Some(prev) if replay == 0 => out.push(prev.clone()),
            _ => out.push(CpiSample {
                task: TaskHandle(u64::from(task)),
                jobname: format!("job{job}").into(),
                platforminfo: format!("plat{platform}").into(),
                timestamp: i as i64 * 60_000_000,
                cpu_usage: 1.0,
                cpi,
                l3_mpki: 0.0,
                class: TaskClass::latency_sensitive(),
            }),
        }
    }
    out
}

proptest! {
    #[test]
    fn aggregator_output_is_invariant_to_batching(
        stream in stream_strategy(),
        batch_sizes in prop::collection::vec(1..8usize, 1..12),
        periods in 1..4usize,
    ) {
        // How the collector happens to cut the stream into `ingest` calls
        // (one shipment, per-machine batches, sample by sample) must not
        // change any published spec, across refresh periods and with
        // idempotent ingest on.
        let config = Cpi2Config {
            min_tasks: 2,
            min_samples_per_task: 3,
            ..Cpi2Config::default()
        };
        let samples = to_samples(&stream);
        // Covers the whole stream: eviction runs per `ingest` call, so a
        // replay older than the horizon would be caught or not depending
        // on where the call boundaries fall.
        let horizon_us = Some(samples.len() as i64 * 60_000_000 + 1);
        let mut aggs: Vec<(Aggregator, SpecStore)> = (0..3)
            .map(|_| {
                let mut agg = Aggregator::new(config.clone(), 0);
                agg.set_dedup_horizon(horizon_us);
                (agg, SpecStore::new())
            })
            .collect();
        let chunk = samples.len() / periods + 1;
        for (p, window) in samples.chunks(chunk).enumerate() {
            aggs[0].0.ingest(window);
            let mut rest = window;
            for &n in batch_sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(n.min(rest.len()));
                aggs[1].0.ingest(batch);
                rest = tail;
            }
            for s in window {
                aggs[2].0.ingest(std::slice::from_ref(s));
            }
            let now_us = (p as i64 + 1) * 3_600_000_000;
            let published: Vec<_> = aggs
                .iter_mut()
                .map(|(agg, store)| {
                    let returned = agg.refresh_at(store, now_us);
                    (returned, store.changed_since_with_age(0))
                })
                .collect();
            prop_assert_eq!(&published[0], &published[1]);
            prop_assert_eq!(&published[0], &published[2]);
        }
        let counts: Vec<_> = aggs
            .iter()
            .map(|(agg, _)| (agg.samples_seen(), agg.duplicates_dropped()))
            .collect();
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert_eq!(counts[0], counts[2]);
    }
}

/// One generated shipment: `(replay, pick, samples)`. `replay == 0`
/// re-sends the `pick`-th earlier shipment; otherwise the clock moves a
/// minute — `replay == 4`: up to twelve, past the horizon, so that one
/// shipment expires many instants at once — and each sample `(job, index,
/// lag, cpi)` is stamped up to three minutes behind it, so one shipment
/// interleaves timestamps.
type Shipment = (u8, u8, Vec<(u8, u8, u8, f64)>);

fn shipments_strategy() -> impl Strategy<Value = Vec<Shipment>> {
    let sample = (0..25u8, 0..4u8, 0..4u8, 0.05..8.0f64);
    prop::collection::vec(
        (0..5u8, any::<u8>(), prop::collection::vec(sample, 1..12)),
        1..60,
    )
}

/// The aggregator's dedup as it was kept before its sets were hashed:
/// ordered sets of raw handle words, evicted the same way.
struct OrderedDedup {
    seen: BTreeMap<i64, BTreeSet<u64>>,
    watermark: i64,
    horizon_us: i64,
    dropped: u64,
}

impl OrderedDedup {
    fn keep(&mut self, batch: &[CpiSample]) -> Vec<CpiSample> {
        let kept: Vec<CpiSample> = batch
            .iter()
            .filter(|s| self.seen.entry(s.timestamp).or_default().insert(s.task.0))
            .cloned()
            .collect();
        self.dropped += (batch.len() - kept.len()) as u64;
        let newest = batch.iter().map(|s| s.timestamp).max();
        self.watermark = self.watermark.max(newest.unwrap_or(i64::MIN));
        self.seen = self
            .seen
            .split_off(&self.watermark.saturating_sub(self.horizon_us));
        kept
    }
}

proptest! {
    #[test]
    fn hashed_dedup_agrees_with_an_ordered_reference(shipments in shipments_strategy()) {
        // Handles packed as `handle_for` packs them (`job << 32 | index`),
        // so most share their low 32 bits with a handle of another job.
        let config = Cpi2Config {
            min_tasks: 2,
            min_samples_per_task: 3,
            ..Cpi2Config::default()
        };
        let horizon_us = 5 * 60_000_000;
        let names: Vec<Name> = (0..5).map(|j| Name::from(format!("job{j}"))).collect();
        let platform: Name = "westmere".into();
        let mut hashed = Aggregator::new(config.clone(), 0);
        hashed.set_dedup_horizon(Some(horizon_us));
        let mut ordered = OrderedDedup {
            seen: BTreeMap::new(),
            watermark: i64::MIN,
            horizon_us,
            dropped: 0,
        };
        let mut reference = Aggregator::new(config, 0);
        let (store, reference_store) = (SpecStore::new(), SpecStore::new());
        let mut sent: Vec<Vec<CpiSample>> = Vec::new();
        let mut minute = 10i64;
        for (i, (replay, pick, samples)) in shipments.into_iter().enumerate() {
            let batch = match sent.len() {
                n if replay == 0 && n > 0 => sent[usize::from(pick) % n].clone(),
                _ => {
                    minute += if replay == 4 { 1 + i64::from(pick % 12) } else { 1 };
                    samples
                        .iter()
                        .map(|&(job, index, lag, cpi)| CpiSample {
                            task: TaskHandle(u64::from(job) << 32 | u64::from(index)),
                            jobname: names[usize::from(job) % names.len()].clone(),
                            platforminfo: platform.clone(),
                            timestamp: (minute - i64::from(lag)) * 60_000_000,
                            cpu_usage: 1.0,
                            cpi,
                            l3_mpki: 0.0,
                            class: TaskClass::batch(),
                        })
                        .collect()
                }
            };
            hashed.ingest(&batch);
            reference.ingest(&ordered.keep(&batch));
            sent.push(batch);
            if i % 16 == 15 {
                let now_us = minute * 60_000_000;
                prop_assert_eq!(
                    hashed.refresh_at(&store, now_us),
                    reference.refresh_at(&reference_store, now_us)
                );
            }
        }
        prop_assert_eq!(hashed.duplicates_dropped(), ordered.dropped);
        prop_assert_eq!(hashed.samples_seen(), reference.samples_seen());
        prop_assert_eq!(
            hashed.refresh_at(&store, i64::MAX),
            reference.refresh_at(&reference_store, i64::MAX)
        );
    }
}

/// One second of shipping, as the harness ships: each `(machine,
/// duplicated)` sends one batch stamped with the second (a machine's
/// later entries in the same second are skipped), a duplicated one twice.
type Second = Vec<(u8, bool)>;

proptest! {
    #[test]
    fn the_redelivery_horizon_drops_every_copy_an_hour_drops(
        capacity in 1..4usize,
        seconds in prop::collection::vec(prop::collection::vec((0..6u8, any::<bool>()), 0..6), 1..40),
    ) {
        // Ship, flush the retry queue, drain: the harness's order, one
        // second a tick, into a collector small enough to refuse copies.
        const SECOND: i64 = 1_000_000;
        let config = Cpi2Config {
            min_tasks: 2,
            min_samples_per_task: 3,
            ..Cpi2Config::default()
        };
        let names: Vec<Name> = (0..6).map(|m| Name::from(format!("job{}", m % 3))).collect();
        let platform: Name = "westmere".into();
        let run = |horizon_us: i64, seconds: &[Second]| {
            let mut collector = Collector::new(capacity);
            let handle = collector.handle();
            let mut retry = RetryQueue::default();
            let mut agg = Aggregator::new(config.clone(), 0);
            agg.set_dedup_horizon(Some(horizon_us));
            for (t, shipments) in seconds.iter().enumerate() {
                let now_us = t as i64 * SECOND;
                let mut shipped = [false; 6];
                for &(machine, duplicated) in shipments {
                    let m = usize::from(machine);
                    if std::mem::replace(&mut shipped[m], true) {
                        continue;
                    }
                    let batch: Vec<CpiSample> = (0..3u64)
                        .map(|k| CpiSample {
                            task: TaskHandle(m as u64 * 8 + k),
                            jobname: names[m].clone(),
                            platforminfo: platform.clone(),
                            timestamp: now_us,
                            cpu_usage: 1.0,
                            cpi: 1.0 + (t as f64 + k as f64) / 16.0,
                            l3_mpki: 0.0,
                            class: TaskClass::batch(),
                        })
                        .collect();
                    if duplicated {
                        retry.send_or_queue(&handle, batch.clone(), now_us);
                    }
                    retry.send_or_queue(&handle, batch, now_us);
                }
                retry.flush(&handle, now_us);
                collector.drain_into(&mut agg);
            }
            // Past every backoff: whatever is still parked goes out.
            let mut now_us = seconds.len() as i64 * SECOND;
            while retry.pending() > 0 {
                retry.flush(&handle, now_us);
                collector.drain_into(&mut agg);
                now_us += SECOND;
            }
            let store = SpecStore::new();
            let specs = agg.refresh_at(&store, now_us);
            (agg.samples_seen(), agg.duplicates_dropped(), specs)
        };
        let derived = run(RetryQueue::redelivery_span_us(SECOND), &seconds);
        let hour = run(3_600 * SECOND, &seconds);
        prop_assert_eq!(derived, hour);
    }
}
