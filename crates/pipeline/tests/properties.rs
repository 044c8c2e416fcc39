//! Property-based tests for the pipeline: query engine and aggregator.

use cpi2_core::{Cpi2Config, CpiSample, TaskClass, TaskHandle};
use cpi2_pipeline::query::{Row, Value};
use cpi2_pipeline::{Aggregator, Dataset, SpecStore, Table};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

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

fn table(recs: &[Rec]) -> Dataset {
    let mut ds = Dataset::new();
    ds.insert_records("t", recs).unwrap();
    ds
}

proptest! {
    #[test]
    fn select_star_returns_all_rows(recs in prop::collection::vec(rec_strategy(), 0..30)) {
        let ds = table(&recs);
        let r = ds.query("SELECT * FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), recs.len());
    }

    #[test]
    fn where_partition_is_complete(recs in prop::collection::vec(rec_strategy(), 0..40), pivot in 0.0..100.0f64) {
        // rows(cpi < p) + rows(cpi >= p) = all rows.
        let ds = table(&recs);
        let below = ds.query(&format!("SELECT job FROM t WHERE cpi < {pivot}")).unwrap();
        let above = ds.query(&format!("SELECT job FROM t WHERE cpi >= {pivot}")).unwrap();
        prop_assert_eq!(below.rows.len() + above.rows.len(), recs.len());
    }

    #[test]
    fn limit_caps_output(recs in prop::collection::vec(rec_strategy(), 0..40), limit in 0usize..50) {
        let ds = table(&recs);
        let r = ds.query(&format!("SELECT job FROM t LIMIT {limit}")).unwrap();
        prop_assert!(r.rows.len() <= limit);
        prop_assert!(r.rows.len() <= recs.len());
    }

    #[test]
    fn order_by_sorts(recs in prop::collection::vec(rec_strategy(), 1..40)) {
        let ds = table(&recs);
        let r = ds.query("SELECT cpi FROM t ORDER BY cpi").unwrap();
        let vals: Vec<f64> = r.rows.iter().filter_map(|row| row[0].as_num()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let r = ds.query("SELECT cpi FROM t ORDER BY cpi DESC").unwrap();
        let vals: Vec<f64> = r.rows.iter().filter_map(|row| row[0].as_num()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn count_star_matches_len(recs in prop::collection::vec(rec_strategy(), 0..40)) {
        let ds = table(&recs);
        let r = ds.query("SELECT count(*) FROM t").unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), Value::Num(recs.len() as f64));
    }

    #[test]
    fn group_by_counts_sum_to_total(recs in prop::collection::vec(rec_strategy(), 0..60)) {
        let ds = table(&recs);
        let r = ds.query("SELECT job, count(*) FROM t GROUP BY job").unwrap();
        let total: f64 = r
            .rows
            .iter()
            .filter_map(|row| row[1].as_num())
            .sum();
        prop_assert_eq!(total as usize, recs.len());
    }

    #[test]
    fn avg_between_min_and_max(recs in prop::collection::vec(rec_strategy(), 1..40)) {
        let ds = table(&recs);
        let r = ds.query("SELECT min(cpi), avg(cpi), max(cpi) FROM t").unwrap();
        let min = r.rows[0][0].as_num().unwrap();
        let avg = r.rows[0][1].as_num().unwrap();
        let max = r.rows[0][2].as_num().unwrap();
        prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
    }

    #[test]
    fn garbage_queries_never_panic(q in "[ -~]{0,60}") {
        // Arbitrary printable input must produce Ok or Err, never a panic.
        let ds = table(&[]);
        let _ = ds.query(&q);
    }

    #[test]
    fn manual_rows_query(vals in prop::collection::vec(-100.0..100.0f64, 1..30)) {
        let mut t = Table::new("m");
        for &v in &vals {
            let mut row = Row::new();
            row.insert("x".into(), Value::Num(v));
            t.rows.push(row);
        }
        let mut ds = Dataset::new();
        ds.insert(t);
        let r = ds.query("SELECT sum(x) FROM m").unwrap();
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
                jobname: format!("job{job}"),
                platforminfo: format!("plat{platform}"),
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
