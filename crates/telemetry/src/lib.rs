//! Fleet-wide telemetry for the CPI² reproduction: a lock-cheap metrics
//! registry, structured event tracing, and Prometheus/JSON exporters.
//!
//! CPI² itself is an observability system — the paper (§5) logs CPI
//! samples, suspected antagonists, and amelioration actions for offline
//! forensics. This crate gives the *reproduction* the same kind of
//! introspection: the agent, pipeline, simulator, and perf sampler all
//! publish metrics here so detection latency, ingest back-pressure, and
//! worker-pool stalls are visible instead of anecdotal.
//!
//! # Design
//!
//! The entry point is [`Telemetry`], a clone-cheap handle that is either
//! *enabled* (wrapping a shared `registry` behind an
//! `Arc`) or *disabled* (`Telemetry::disabled()`, the `Default`). Every
//! instrumented component accepts a `Telemetry` and resolves the metric
//! series it needs **once**, at construction, into cached [`Counter`],
//! [`Gauge`], and [`Histo`] handles. On the hot path an update through a
//! disabled handle is a single `Option` branch — no allocation, no lock,
//! no atomic — which is how the simulator keeps its tick loop within the
//! ≤ 2 % overhead budget when telemetry is off.
//!
//! Telemetry is strictly *observational*: nothing read from it feeds back
//! into simulation decisions, so enabling it cannot perturb determinism
//! (the parallelism-equivalence tests run with it enabled to prove this).
//! Durations that describe *simulated* behaviour (e.g. detection latency)
//! are recorded in sim-time microseconds and are therefore deterministic;
//! wall-clock durations (the tick's seam timings) are real measurements and
//! naturally vary run to run.
//!
//! # Example
//!
//! ```
//! use cpi2_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! let ticks = tel.counter("cpi_sim_ticks_total", &[]);
//! let seam = tel.histogram("cpi_tick_seam_duration_us", &[("seam", "core.ingest")]);
//! ticks.inc();
//! seam.record(42.0);
//! tel.event("incident", || "victim job 3 capped".to_string());
//! let text = tel.prometheus_text().unwrap();
//! assert!(text.contains("cpi_sim_ticks_total 1"));
//! ```

#![warn(missing_docs)]

mod events;
mod export;
mod metrics;
#[cfg(test)]
mod oracle;
mod registry;

use std::sync::Arc;

pub use events::{Event, DEFAULT_EVENT_CAPACITY};
pub use export::EXPORT_QUANTILES;
pub use metrics::{Counter, Gauge, HistTimer, Histo, HIST_BUCKETS};

use registry::Registry;

/// Clone-cheap handle to a telemetry registry; `Default` is disabled.
///
/// All clones of an enabled handle share one registry, so a component can
/// stash a clone and the exporter still sees its metrics. See the crate
/// docs for the usage pattern.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<Registry>>);

impl Telemetry {
    /// A live handle backed by a fresh registry.
    pub fn enabled() -> Telemetry {
        Telemetry(Some(Arc::new(Registry::new())))
    }

    /// A no-op handle: every metric it vends is inert.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Resolves (registering on first use) a monotonic counter series.
    ///
    /// Call once at construction and cache the returned handle; label
    /// pairs are canonicalised by sorting on the label key.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.0 {
            Some(reg) => reg.counter(name, labels),
            None => Counter::default(),
        }
    }

    /// Resolves (registering on first use) a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.0 {
            Some(reg) => reg.gauge(name, labels),
            None => Gauge::default(),
        }
    }

    /// Resolves (registering on first use) a log-bucketed histogram
    /// series with p50/p95/p99 export.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histo {
        match &self.0 {
            Some(reg) => reg.histogram(name, labels),
            None => Histo::default(),
        }
    }

    /// Records a structured event into the bounded recent-events ring.
    ///
    /// The detail string is built lazily via the closure, so a disabled
    /// handle pays only the branch — no formatting, no allocation.
    pub fn event<F: FnOnce() -> String>(&self, kind: &str, detail: F) {
        if let Some(reg) = &self.0 {
            reg.events.push(Event {
                at_us: reg.elapsed_us(),
                kind: kind.to_string(),
                detail: detail(),
            });
        }
    }

    /// Snapshot of retained events, oldest first (empty when disabled).
    pub fn recent_events(&self) -> Vec<Event> {
        match &self.0 {
            Some(reg) => reg.events.snapshot(),
            None => Vec::new(),
        }
    }

    /// The retained events as JSON objects, oldest first, each rendered
    /// once when it was recorded: what `/debug/events` serves. `None` when
    /// disabled, so "not recording" is not mistaken for "no events yet".
    pub fn recent_events_json(&self) -> Option<Vec<Arc<str>>> {
        self.0.as_ref().map(|reg| reg.events.snapshot_json())
    }

    /// Total events ever recorded, including those evicted from the ring.
    /// Read without the ring's lock.
    pub fn events_total(&self) -> u64 {
        self.0.as_ref().map_or(0, |reg| reg.events.total())
    }

    /// Microseconds since this registry was created (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |reg| reg.elapsed_us())
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, deterministically ordered. `None` when disabled.
    pub fn prometheus_text(&self) -> Option<String> {
        self.0.as_ref().map(|reg| export::prometheus_text(reg))
    }

    /// Renders the metrics as a JSON string, with [`Telemetry::events_total`]
    /// but not the events (those are [`Telemetry::recent_events_json`]).
    /// `None` when disabled.
    pub fn json_snapshot(&self) -> Option<String> {
        self.0.as_ref().map(|reg| export::json_snapshot(reg))
    }
}

/// `#[serde(with = "cpi2_telemetry::serde_stub")]` support: telemetry
/// handles are runtime wiring, not state, so they serialize as `null` and
/// deserialize to their `Default` (disabled). Components whose structs
/// derive the vendored `Serialize`/`Deserialize` use this for any field
/// holding telemetry handles.
pub mod serde_stub {
    use serde::{Error, Value};

    /// Serializes any value as `null`.
    pub fn to_value<T>(_v: &T) -> Value {
        Value::Null
    }

    /// Deserializes any value (including `null` / missing) as `Default`.
    pub fn from_value<T: Default>(_v: &Value) -> Result<T, Error> {
        Ok(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_fully_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let c = tel.counter("cpi_x_total", &[]);
        c.inc();
        assert_eq!(c.get(), 0);
        let mut called = false;
        tel.event("x", || {
            called = true;
            String::new()
        });
        assert!(!called, "event detail closure must not run when disabled");
        assert!(tel.recent_events().is_empty());
        assert_eq!(tel.recent_events_json(), None);
        assert_eq!(tel.prometheus_text(), None);
        assert_eq!(tel.json_snapshot(), None);
    }

    #[test]
    fn clones_share_a_registry() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tel.counter("cpi_shared_total", &[]).add(5);
        let text = other.prometheus_text().unwrap();
        assert!(text.contains("cpi_shared_total 5"), "{text}");
    }

    #[test]
    fn prometheus_export_matches_ci_grammar() {
        let tel = Telemetry::enabled();
        tel.counter("cpi_a_total", &[("action", "hard_cap")]).inc();
        tel.gauge("cpi_b", &[]).set(0.75);
        let h = tel.histogram("cpi_c_us", &[("phase", "machines")]);
        for i in 0..50 {
            h.record(i as f64);
        }
        // Empty histogram: must emit _sum/_count but no quantile lines.
        tel.histogram("cpi_d_us", &[]);
        let text = tel.prometheus_text().unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let ok = line.starts_with("# ") || sample_line_ok(line);
            assert!(ok, "line fails CI grammar: {line:?}");
        }
        assert!(text.contains("cpi_a_total{action=\"hard_cap\"} 1"));
        assert!(text.contains("cpi_c_us{phase=\"machines\",quantile=\"0.5\"}"));
        assert!(text.contains("cpi_c_us_count{phase=\"machines\"} 50"));
        assert!(text.contains("cpi_d_us_count 0"));
        assert!(
            !text.contains("cpi_d_us{"),
            "empty histo must not emit quantiles"
        );
    }

    /// Mirror of the CI regex `^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`.
    pub(crate) fn sample_line_ok(line: &str) -> bool {
        let (name_part, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return false,
        };
        if value.is_empty()
            || !value
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            return false;
        }
        let name = match name_part.split_once('{') {
            Some((n, rest)) => {
                if !rest.ends_with('}') || rest[..rest.len() - 1].contains('}') {
                    return false;
                }
                n
            }
            None => name_part,
        };
        !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '_')
    }

    #[test]
    fn label_values_are_escaped_per_exposition_format() {
        // Regression: a job name containing `"`, `\` or a newline used to
        // be emitted verbatim, corrupting the scrape.
        let tel = Telemetry::enabled();
        tel.counter("cpi_esc_total", &[("job", "we\"ird\\name\nx")])
            .inc();
        let text = tel.prometheus_text().unwrap();
        assert!(
            text.contains(r#"cpi_esc_total{job="we\"ird\\name\nx"} 1"#),
            "{text}"
        );
        // Every emitted line must still satisfy the CI scrape grammar.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || sample_line_ok(line),
                "line fails CI grammar: {line:?}"
            );
        }
    }

    /// `/metrics.json`'s body less the two numbers that move on their
    /// own — the clock and the event count — and the count.
    fn values_and_events_total(json: &str) -> (&str, u64) {
        let (_, rest) = json.split_once(",\"counters\":").expect("counters");
        let (values, total) = rest
            .rsplit_once(",\"events_total\":")
            .expect("events_total");
        let total = total.strip_suffix('}').expect("events_total last");
        (values, total.parse().expect("a count"))
    }

    #[test]
    fn json_snapshot_carries_values_and_counts_events() {
        let tel = Telemetry::enabled();
        tel.counter("cpi_j_total", &[]).add(3);
        tel.histogram("cpi_j_us", &[]).record(10.0);
        let empty = tel.json_snapshot().unwrap();
        assert!(empty.starts_with("{\"elapsed_us\":"), "{empty}");
        assert!(empty.contains("\"cpi_j_total\":3"), "{empty}");
        let detail = "d".repeat(200);
        for _ in 0..DEFAULT_EVENT_CAPACITY + 100 {
            tel.event("incident", || detail.clone());
        }
        let full = tel.json_snapshot().unwrap();
        let (values, total) = values_and_events_total(&full);
        assert_eq!(values_and_events_total(&empty), (values, 0));
        assert_eq!(total, (DEFAULT_EVENT_CAPACITY + 100) as u64);
        assert!(!full.contains("incident"), "{full}");
    }

    #[test]
    fn events_are_encoded_once_at_push() {
        let tel = Telemetry::enabled();
        tel.event("incident", || {
            "victim \"job\"\t3\n\u{1} capped — ü".to_string()
        });
        tel.event("spec_refresh", String::new);
        let elements = tel.recent_events_json().expect("enabled");
        let again = tel.recent_events_json().expect("enabled");
        assert_eq!(elements.len(), 2);
        for (a, b) in elements.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "shared, not re-rendered");
        }
        // The vendored parser reads each element back as the event.
        #[derive(serde::Deserialize)]
        struct Parsed {
            at_us: u64,
            kind: String,
            detail: String,
        }
        for (element, event) in elements.iter().zip(tel.recent_events()) {
            let p: Parsed = serde_json::from_str(element).expect("valid JSON");
            assert_eq!(
                (p.at_us, p.kind, p.detail),
                (event.at_us, event.kind, event.detail)
            );
        }
        assert_eq!(tel.events_total(), 2);
    }

    /// Regression: each quantile used to be its own read of the buckets,
    /// guarded by a fourth read of the count, so a scrape racing a
    /// recorder could print p95 < p50, or quantiles beside `_count 0`.
    #[test]
    fn quantiles_of_one_scrape_come_from_one_bucket_read() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("cpi_race_us", &[]);
        let start = std::sync::Barrier::new(2);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let sample = |text: &str, head: &str| -> Option<f64> {
            let line = text.lines().find(|l| l.starts_with(head))?;
            Some(line[head.len()..].parse().expect("a number"))
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                // Growing values, octave by octave, over and over.
                for i in 0u64.. {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    h.record(2f64.powi((i / 64 % 40) as i32));
                }
            });
            start.wait();
            for _ in 0..2000 {
                let text = tel.prometheus_text().unwrap();
                let count = sample(&text, "cpi_race_us_count ").expect("_count line");
                let qs = ["0.5", "0.95", "0.99"]
                    .map(|q| sample(&text, &format!("cpi_race_us{{quantile=\"{q}\"}} ")));
                match qs {
                    [Some(p50), Some(p95), Some(p99)] => {
                        assert!(count > 0.0, "quantiles beside _count 0:\n{text}");
                        assert!(p50 <= p95 && p95 <= p99, "torn quantiles:\n{text}");
                    }
                    [None, None, None] => assert_eq!(count, 0.0, "{text}"),
                    _ => panic!("some quantile lines missing:\n{text}"),
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let (count, [p50, p95]) = h.0.as_ref().unwrap().quantiles(&[0.5, 0.95]);
        assert_eq!(count, h.count());
        assert!(p50 <= p95);
        assert_eq!(h.quantile(0.5), p50);
    }

    #[test]
    fn serde_stub_round_trip() {
        let v = serde_stub::to_value(&Telemetry::enabled());
        assert_eq!(v, serde::Value::Null);
        let t: Telemetry = serde_stub::from_value(&v).unwrap();
        assert!(!t.is_enabled());
    }

    #[test]
    fn event_ring_total_survives_eviction() {
        let tel = Telemetry::enabled();
        for i in 0..(DEFAULT_EVENT_CAPACITY + 10) {
            tel.event("tick", || format!("{i}"));
        }
        assert_eq!(tel.recent_events().len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(tel.events_total(), (DEFAULT_EVENT_CAPACITY + 10) as u64);
    }
}
