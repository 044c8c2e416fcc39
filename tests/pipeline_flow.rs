//! Pipeline integration: samples flowing through the collector (threaded),
//! the aggregation service's refresh cadence, age weighting across
//! periods, and spec distribution via the versioned store.

use cpi2::core::{Cpi2Config, CpiSample, JobKey, TaskClass, TaskHandle};
use cpi2::pipeline::{Aggregator, Collector, SpecStore};
use std::sync::Arc;
use std::thread;

fn sample(task: u64, minute: i64, cpi: f64) -> CpiSample {
    CpiSample {
        task: TaskHandle(task),
        jobname: "svc".into(),
        platforminfo: "westmere".into(),
        timestamp: minute * 60_000_000,
        cpu_usage: 1.0,
        cpi,
        l3_mpki: 1.0,
        class: TaskClass::latency_sensitive(),
    }
}

fn test_config() -> Cpi2Config {
    Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    }
}

#[test]
fn threaded_agents_to_spec_store() {
    // 8 "machine agent" threads each stream 25 minutes of samples for
    // 4 tasks into one collector.
    let mut collector = Collector::new(4096);
    let handles: Vec<_> = (0..8u64)
        .map(|machine| {
            let tx = collector.handle();
            thread::spawn(move || {
                for minute in 0..25 {
                    let batch: Vec<CpiSample> = (0..4)
                        .map(|t| sample(machine * 10 + t, minute, 1.8 + 0.01 * t as f64))
                        .collect();
                    assert!(tx.send_samples(batch));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Aggregate and publish.
    let store = SpecStore::new();
    let mut agg = Aggregator::new(test_config(), 0);
    let samples = collector.drain_into(&mut agg);
    assert_eq!(samples, 8 * 25 * 4);
    let specs = agg.refresh_now(&store);
    assert_eq!(specs.len(), 1);
    let spec = store.get(&JobKey::new("svc", "westmere")).unwrap();
    assert_eq!(spec.num_samples, 800);
    assert!((spec.cpi_mean - 1.815).abs() < 0.01);
}

#[test]
fn age_weighting_across_refreshes() {
    let store = SpecStore::new();
    let mut agg = Aggregator::new(test_config(), 0);

    // Five periods at CPI 1.5.
    for _ in 0..5 {
        for t in 0..6u64 {
            for m in 0..10 {
                agg.ingest(&[sample(t, m, 1.5)]);
            }
        }
        agg.refresh_now(&store);
    }
    let before = store.get(&JobKey::new("svc", "westmere")).unwrap();
    assert!((before.cpi_mean - 1.5).abs() < 1e-6);

    // One period at CPI 2.1: age weighting pulls the spec toward recent
    // behaviour but keeps history.
    for t in 0..6u64 {
        for m in 0..10 {
            agg.ingest(&[sample(t, m, 2.1)]);
        }
    }
    agg.refresh_now(&store);
    let after = store.get(&JobKey::new("svc", "westmere")).unwrap();
    assert!(
        after.cpi_mean > 1.55,
        "moved toward recent: {}",
        after.cpi_mean
    );
    assert!(
        after.cpi_mean < 2.05,
        "history retained: {}",
        after.cpi_mean
    );
}

#[test]
fn spec_store_delta_distribution() {
    let store = Arc::new(SpecStore::new());
    let mut agg = Aggregator::new(test_config(), 0);
    for t in 0..6u64 {
        for m in 0..10 {
            agg.ingest(&[sample(t, m, 1.5)]);
        }
    }
    agg.refresh_now(&store);

    // An agent that synced at version v sees nothing new until the next
    // publish, then exactly the changed spec.
    let v = store.version();
    assert!(store.changed_since(v).is_empty());
    for t in 0..6u64 {
        for m in 0..10 {
            agg.ingest(&[sample(t, m, 1.6)]);
        }
    }
    agg.refresh_now(&store);
    let delta = store.changed_since(v);
    assert_eq!(delta.len(), 1);
    assert_eq!(delta[0].key(), JobKey::new("svc", "westmere"));
}

#[test]
fn refresh_cadence_follows_config() {
    let store = SpecStore::new();
    let mut config = test_config();
    config.spec_refresh_hours = 1;
    let mut agg = Aggregator::new(config, 0);
    for t in 0..6u64 {
        for m in 0..10 {
            agg.ingest(&[sample(t, m, 1.5)]);
        }
    }
    let hour_us = 3_600_000_000i64;
    assert!(agg.maybe_refresh(hour_us - 1, &store).is_none());
    assert!(agg.maybe_refresh(hour_us, &store).is_some());
    assert!(agg.maybe_refresh(hour_us + 60_000_000, &store).is_none());
    assert!(agg.maybe_refresh(2 * hour_us, &store).is_some());
}
