//! Exporters: Prometheus text format and JSON snapshots.
//!
//! The Prometheus exporter emits one `# TYPE` header per metric family and
//! one sample line per series, in deterministic (sorted) order.
//! Histograms export as summaries: `{quantile="0.5"|"0.95"|"0.99"}` lines
//! (only while non-empty — a quantile of nothing is undefined), plus
//! `_sum` and `_count`. Every emitted line matches
//! `^# |^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`, which the CI smoke job
//! enforces; in particular metric names contain no digits and values are
//! never NaN/inf (non-finite sums are clamped to 0).
//!
//! Each thing is encoded once: a series' names when it is registered
//! ([`prom_head`], [`json_key`]), an event when it is pushed
//! ([`event_json`], served by `/debug/events` alone). A scrape is one pass
//! that copies those names and formats the current values into a single
//! buffer; it builds no intermediate tree, allocates nothing per series,
//! and carries no events — only their count.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
// Poison is ignored: `registry` inserts a series in one map call.
use std::sync::PoisonError;

use serde::Number;

use crate::events::Event;
use crate::metrics::{CounterCell, GaugeCell, HistoCell};
use crate::registry::{Family, Labels, Registry, Series};

/// Quantiles reported for every histogram.
pub const EXPORT_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// JSON member heads of [`EXPORT_QUANTILES`] inside a histogram object.
const JSON_QUANTILE_KEYS: [&str; 3] = [",\"p50\":", ",\"p95\":", ",\"p99\":"];

/// Sample lines per histogram: one per quantile, then `_sum`, `_count`.
pub(crate) const HISTO_LINES: usize = EXPORT_QUANTILES.len() + 2;

/// Appends `v` escaped per the Prometheus text exposition format:
/// backslash, double-quote and newline must be escaped inside the quoted
/// value (an unescaped `"` in a job-name label corrupts the scrape).
fn write_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// A series' exported name, `name suffix {k="v",…}`, with the optional
/// `quantile` label last. Rendered at registration, never per scrape.
fn series_name(name: &str, suffix: &str, labels: &Labels, q: Option<&str>) -> String {
    let mut out = format!("{name}{suffix}");
    let pairs = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(q.map(|q| ("quantile", q)));
    let mut sep = '{';
    for (k, v) in pairs {
        out.push(sep);
        sep = ',';
        out.push_str(k);
        out.push_str("=\"");
        write_label_value(&mut out, v);
        out.push('"');
    }
    if sep == ',' {
        out.push('}');
    }
    out
}

/// The head of one Prometheus sample line: the series name and the
/// space before the value.
pub(crate) fn prom_head(name: &str, suffix: &str, labels: &Labels, q: Option<&str>) -> String {
    let mut head = series_name(name, suffix, labels, q);
    head.push(' ');
    head
}

/// A histogram's [`HISTO_LINES`] heads: the quantiles, `_sum`, `_count`.
pub(crate) fn histo_heads(name: &str, labels: &Labels) -> [String; HISTO_LINES] {
    let [a, b, c] = EXPORT_QUANTILES.map(|q| prom_head(name, "", labels, Some(&format!("{q}"))));
    let sum = prom_head(name, "_sum", labels, None);
    [a, b, c, sum, prom_head(name, "_count", labels, None)]
}

/// The head of a series' JSON member: its escaped key and the colon.
pub(crate) fn json_key(name: &str, labels: &Labels) -> String {
    let mut out = String::new();
    write_json_string(&mut out, &series_name(name, "", labels, None));
    out.push(':');
    out
}

/// One event as a JSON object: the element `/debug/events` serves.
pub(crate) fn event_json(e: &Event) -> Arc<str> {
    let mut out = format!("{{\"at_us\":{},\"kind\":", e.at_us);
    write_json_string(&mut out, &e.kind);
    out.push_str(",\"detail\":");
    write_json_string(&mut out, &e.detail);
    out.push('}');
    out.into()
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Runs `write` on a buffer sized from the previous export of the same
/// kind (`last_len`), and remembers this one's length for the next.
fn export(last_len: &AtomicUsize, write: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(last_len.load(Ordering::Relaxed) + 64);
    write(&mut out);
    last_len.store(out.len(), Ordering::Relaxed);
    out
}

/// Renders the full registry as Prometheus text exposition format.
pub(crate) fn prometheus_text(reg: &Registry) -> String {
    export(&reg.prom_len, |out| {
        prom_family(out, &reg.counters, "counter", prom_counter);
        prom_family(out, &reg.gauges, "gauge", prom_gauge);
        prom_family(out, &reg.histograms, "summary", prom_histogram);
    })
}

/// One metric kind's families: a `# TYPE` header where the name changes
/// (series of one name are adjacent in key order), then each series.
fn prom_family<C, const H: usize>(
    out: &mut String,
    family: &Family<C, H>,
    kind: &str,
    series_lines: fn(&mut String, &Series<C, H>),
) {
    let family = family.lock().unwrap_or_else(PoisonError::into_inner);
    let mut last_name = "";
    for ((name, _), series) in family.iter() {
        if last_name != name {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_name = name;
        }
        series_lines(out, series);
    }
}

// lint: hot-path
fn prom_counter(out: &mut String, s: &Series<CounterCell, 1>) {
    let [head] = &s.prom;
    out.push_str(head);
    let _ = writeln!(out, "{}", s.cell.get());
}

// lint: hot-path
fn prom_gauge(out: &mut String, s: &Series<GaugeCell, 1>) {
    let [head] = &s.prom;
    out.push_str(head);
    let _ = writeln!(out, "{}", finite(s.cell.get()));
}

// lint: hot-path
fn prom_histogram(out: &mut String, s: &Series<HistoCell, HISTO_LINES>) {
    let (count, quantiles) = s.cell.quantiles(&EXPORT_QUANTILES);
    let [heads @ .., sum_head, count_head] = &s.prom;
    for (head, v) in heads.iter().zip(quantiles) {
        if let Some(v) = v {
            out.push_str(head);
            let _ = writeln!(out, "{}", finite(v));
        }
    }
    out.push_str(sum_head);
    let _ = writeln!(out, "{}", finite(s.cell.sum()));
    out.push_str(count_head);
    let _ = writeln!(out, "{count}");
}

/// Renders the registry's metrics as compact JSON, closed by the count of
/// events ever recorded. The events themselves are `/debug/events`'; the
/// count is read without the ring's lock.
pub(crate) fn json_snapshot(reg: &Registry) -> String {
    export(&reg.json_len, |out| {
        let _ = write!(out, "{{\"elapsed_us\":{}", reg.elapsed_us());
        out.push_str(",\"counters\":{");
        json_family(out, &reg.counters, json_counter);
        out.push_str("},\"gauges\":{");
        json_family(out, &reg.gauges, json_gauge);
        out.push_str("},\"histograms\":{");
        json_family(out, &reg.histograms, json_histogram);
        let _ = write!(out, "}},\"events_total\":{}}}", reg.events.total());
    })
}

/// One metric kind's members, comma-joined: `"name{labels}":value`.
fn json_family<C, const H: usize>(
    out: &mut String,
    family: &Family<C, H>,
    value: fn(&mut String, &C),
) {
    let family = family.lock().unwrap_or_else(PoisonError::into_inner);
    for (i, series) in family.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&series.json_key);
        value(out, &series.cell);
    }
}

// lint: hot-path
fn json_counter(out: &mut String, cell: &CounterCell) {
    let _ = write!(out, "{}", cell.get());
}

// lint: hot-path
fn json_gauge(out: &mut String, cell: &GaugeCell) {
    write_json_f64(out, cell.get());
}

// lint: hot-path
fn json_histogram(out: &mut String, cell: &HistoCell) {
    let (count, quantiles) = cell.quantiles(&EXPORT_QUANTILES);
    let _ = write!(out, "{{\"count\":{count},\"sum\":");
    write_json_f64(out, cell.sum());
    for (key, v) in JSON_QUANTILE_KEYS.iter().zip(quantiles) {
        out.push_str(key);
        // An empty histogram has no quantiles: NaN renders as `null`.
        write_json_f64(out, v.unwrap_or(f64::NAN));
    }
    out.push('}');
}

/// A JSON number in the vendored `serde`'s float notation (integral
/// values keep a `.0` marker); `null` for NaN and ±inf.
// lint: hot-path
fn write_json_f64(out: &mut String, v: f64) {
    match Number::from_f64(v) {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
}

/// Appends `s` as a JSON string literal.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
