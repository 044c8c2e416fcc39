//! The metric registry backing a [`crate::Telemetry`] handle.
//!
//! Metrics are keyed by `(name, sorted label pairs)` in `BTreeMap`s so the
//! export order is deterministic regardless of registration order. The
//! registry is only locked at registration and export time — hot-path
//! updates go straight to the shared atomic cells. A series' names are
//! rendered once, when it is registered; an export copies them.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::events::EventRing;
use crate::export;
use crate::metrics::{Counter, CounterCell, Gauge, GaugeCell, Histo, HistoCell};

/// A series' label pairs, sorted by label key.
pub(crate) type Labels = [(String, String)];

/// Key of one metric series: name plus its [`Labels`].
pub(crate) type SeriesKey = (String, Vec<(String, String)>);

/// One registered series: its cell beside its exported names. `H` is the
/// number of Prometheus sample lines the series exports.
#[derive(Debug)]
pub(crate) struct Series<C, const H: usize> {
    pub(crate) cell: Arc<C>,
    /// Prometheus sample heads, `name{labels} ` (trailing space).
    pub(crate) prom: [String; H],
    /// JSON member head, `"name{labels}":`.
    pub(crate) json_key: String,
}

/// All series of one metric kind, in export order.
pub(crate) type Family<C, const H: usize> = Mutex<BTreeMap<SeriesKey, Series<C, H>>>;

/// Shared state behind an enabled [`crate::Telemetry`] handle.
#[derive(Debug)]
pub(crate) struct Registry {
    pub(crate) counters: Family<CounterCell, 1>,
    pub(crate) gauges: Family<GaugeCell, 1>,
    /// Heads in [`export::histo_heads`] order.
    pub(crate) histograms: Family<HistoCell, { export::HISTO_LINES }>,
    pub(crate) events: EventRing,
    /// Creation instant; event timestamps are microseconds since this.
    pub(crate) started: Instant,
    /// Lengths of the last Prometheus and JSON exports: the next one's
    /// buffer is sized from them.
    pub(crate) prom_len: AtomicUsize,
    pub(crate) json_len: AtomicUsize,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
            events: EventRing::new(crate::events::DEFAULT_EVENT_CAPACITY),
            started: Instant::now(),
            prom_len: AtomicUsize::new(0),
            json_len: AtomicUsize::new(0),
        }
    }

    pub(crate) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(Some(register(&self.counters, name, labels, plain_head)))
    }

    pub(crate) fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(Some(register(&self.gauges, name, labels, plain_head)))
    }

    pub(crate) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histo {
        let cell = register(&self.histograms, name, labels, export::histo_heads);
        Histo(Some(cell))
    }

    pub(crate) fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

fn plain_head(name: &str, labels: &Labels) -> [String; 1] {
    [export::prom_head(name, "", labels, None)]
}

/// Resolves a series' cell, rendering its names on first registration.
fn register<C: Default, const H: usize>(
    family: &Family<C, H>,
    name: &str,
    labels: &[(&str, &str)],
    heads: fn(&str, &Labels) -> [String; H],
) -> Arc<C> {
    let mut family = family.lock();
    let series = family
        .entry(series_key(name, labels))
        .or_insert_with_key(|(name, labels)| Series {
            cell: Arc::default(),
            prom: heads(name, labels),
            json_key: export::json_key(name, labels),
        });
    Arc::clone(&series.cell)
}

/// Builds the canonical series key: labels sorted by key name so that
/// `[("b","2"),("a","1")]` and `[("a","1"),("b","2")]` are one series.
pub(crate) fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut pairs: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    pairs.sort();
    (name.to_string(), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_series_shares_a_cell() {
        let reg = Registry::new();
        let a = reg.counter("cpi_test_total", &[("k", "v")]);
        let b = reg.counter("cpi_test_total", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        let a = reg.gauge("cpi_g", &[("b", "2"), ("a", "1")]);
        let b = reg.gauge("cpi_g", &[("a", "1"), ("b", "2")]);
        a.set(7.5);
        assert_eq!(b.get(), 7.5);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let reg = Registry::new();
        let a = reg.counter("cpi_c", &[("x", "1")]);
        let b = reg.counter("cpi_c", &[("x", "2")]);
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }
}
