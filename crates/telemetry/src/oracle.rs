//! The exporter this crate shipped before scrapes became single-pass
//! writers — a `serde::Value` tree rendered one `char` at a time, label
//! blocks re-`format!`ed per series — kept, test-only, as the reference
//! the live exporters must match byte for byte.

use std::fmt::Write as _;

use serde::{Number, Value};

use crate::export::EXPORT_QUANTILES;
use crate::registry::{Registry, SeriesKey};

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote and newline must be escaped inside the quoted
/// value (an unescaped `"` in a job-name label corrupts the scrape).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Renders the full registry as Prometheus text exposition format.
fn prometheus_text(reg: &Registry) -> String {
    fn header(out: &mut String, last_family: &mut String, name: &str, kind: &str) {
        if last_family != name {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            name.clone_into(last_family);
        }
    }

    let mut out = String::new();
    let mut last_family = String::new();
    for ((name, labels), s) in reg.counters.lock().unwrap().iter() {
        let cell = &s.cell;
        header(&mut out, &mut last_family, name, "counter");
        let _ = writeln!(out, "{name}{} {}", label_block(labels, None), cell.get());
    }
    last_family.clear();
    for ((name, labels), s) in reg.gauges.lock().unwrap().iter() {
        let cell = &s.cell;
        header(&mut out, &mut last_family, name, "gauge");
        let _ = writeln!(
            out,
            "{name}{} {}",
            label_block(labels, None),
            finite(cell.get())
        );
    }
    last_family.clear();
    for ((name, labels), s) in reg.histograms.lock().unwrap().iter() {
        let cell = &s.cell;
        header(&mut out, &mut last_family, name, "summary");
        if cell.count() > 0 {
            for q in EXPORT_QUANTILES {
                if let Some(v) = cell.quantile(q) {
                    let _ = writeln!(
                        out,
                        "{name}{} {}",
                        label_block(labels, Some(("quantile", &format!("{q}")))),
                        finite(v)
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            label_block(labels, None),
            finite(cell.sum())
        );
        let _ = writeln!(
            out,
            "{name}_count{} {}",
            label_block(labels, None),
            cell.count()
        );
    }
    out
}

fn series_name(key: &SeriesKey) -> String {
    let (name, labels) = key;
    format!("{name}{}", label_block(labels, None))
}

/// Renders the registry's metrics and its event count as a JSON [`Value`]
/// tree suitable for `serde_json::to_string`.
fn json_snapshot(reg: &Registry) -> Value {
    let counters: Vec<(String, Value)> = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(key, s)| {
            (
                series_name(key),
                Value::Number(Number::from_u64(s.cell.get())),
            )
        })
        .collect();
    let gauges: Vec<(String, Value)> = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(key, s)| (series_name(key), json_f64(s.cell.get())))
        .collect();
    let histograms: Vec<(String, Value)> = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(key, s)| {
            let cell = &s.cell;
            let mut fields = vec![
                (
                    "count".to_string(),
                    Value::Number(Number::from_u64(cell.count())),
                ),
                ("sum".to_string(), json_f64(cell.sum())),
            ];
            for q in EXPORT_QUANTILES {
                let label = format!("p{}", (q * 100.0).round() as u64);
                let v = cell.quantile(q).map(json_f64).unwrap_or(Value::Null);
                fields.push((label, v));
            }
            (series_name(key), Value::Object(fields))
        })
        .collect();
    Value::Object(vec![
        (
            "elapsed_us".to_string(),
            Value::Number(Number::from_u64(reg.elapsed_us())),
        ),
        ("counters".to_string(), Value::Object(counters)),
        ("gauges".to_string(), Value::Object(gauges)),
        ("histograms".to_string(), Value::Object(histograms)),
        (
            "events_total".to_string(),
            Value::Number(Number::from_u64(reg.events.total())),
        ),
    ])
}

fn json_f64(v: f64) -> Value {
    Number::from_f64(v)
        .map(Value::Number)
        .unwrap_or(Value::Null)
}

/// Renders a [`Value`] tree as compact JSON text.
///
/// The vendored `serde_json::to_string` is generic over `Serialize`,
/// which `Value` itself does not implement, so the exporter renders its
/// already-assembled tree directly.
fn render_value(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

mod tests {
    use proptest::prelude::*;

    use super::{json_snapshot, prometheus_text, render_value};
    use crate::tests::sample_line_ok;
    use crate::{Telemetry, DEFAULT_EVENT_CAPACITY};

    /// Names sharing prefixes, so `# TYPE` grouping is exercised.
    const NAMES: [&str; 5] = ["cpi_a", "cpi_a_total", "cpi_ab", "cpi_b_us", "cpi_b"];
    const LABEL_KEYS: [&str; 4] = ["zone", "job", "a", "phase"];
    /// Strings both escapers must handle: `"`, `\`, newline, tab, a
    /// control character, non-ASCII, empty.
    const STRINGS: [&str; 8] = [
        "plain",
        "we\"ird",
        "back\\slash",
        "new\nline",
        "tab\there",
        "\u{1}ctl\r",
        "naïve — 起動",
        "",
    ];
    const COUNTS: [u64; 4] = [0, 1, 42, u64::MAX];
    const GAUGES: [f64; 11] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        3.0,
        1e15,
        1e16,
        0.75,
        -2.5e-7,
        1e300,
    ];
    const OBSERVATIONS: [f64; 8] = [0.0, 0.5, 1.0, 3.0, 1000.0, 1e9, 1e300, -5.0];
    /// Ring fill levels: empty, below, at and past capacity (the JSON
    /// carries only `events_total`, which counts the evicted too).
    const EVENT_COUNTS: [usize; 5] = [
        0,
        3,
        DEFAULT_EVENT_CAPACITY - 1,
        DEFAULT_EVENT_CAPACITY,
        DEFAULT_EVENT_CAPACITY + 7,
    ];

    /// `(kind, name, labels as (key, value), values)` — indices into the
    /// tables above; `values` are adds, sets or observations by kind.
    type SeriesPlan = (usize, usize, Vec<(usize, usize)>, Vec<usize>);

    fn build(series: &[SeriesPlan], events: usize) -> Telemetry {
        let tel = Telemetry::enabled();
        for (kind, name, labels, values) in series {
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|&(k, v)| (LABEL_KEYS[k], STRINGS[v]))
                .collect();
            let values = values.iter();
            match kind {
                0 => {
                    let c = tel.counter(NAMES[*name], &labels);
                    values.for_each(|&v| c.add(COUNTS[v % COUNTS.len()]));
                }
                1 => {
                    let g = tel.gauge(NAMES[*name], &labels);
                    values.for_each(|&v| g.set(GAUGES[v % GAUGES.len()]));
                }
                _ => {
                    let h = tel.histogram(NAMES[*name], &labels);
                    values.for_each(|&v| h.record(OBSERVATIONS[v % OBSERVATIONS.len()]));
                }
            }
        }
        for i in 0..EVENT_COUNTS[events] {
            tel.event(STRINGS[i % STRINGS.len()], || {
                format!("{i} {}", STRINGS[(i / 3) % STRINGS.len()])
            });
        }
        tel
    }

    /// Everything after `{"elapsed_us":<digits>`, the one field two
    /// renders of one registry cannot agree on.
    fn after_elapsed(json: &str) -> &str {
        let rest = json
            .strip_prefix("{\"elapsed_us\":")
            .expect("elapsed_us first");
        rest.trim_start_matches(|c: char| c.is_ascii_digit())
    }

    /// Where two renders first differ, with a little context — a whole
    /// body is too much for an assertion message.
    fn first_difference(live: &str, reference: &str) -> Option<String> {
        if live == reference {
            return None;
        }
        let at = live
            .bytes()
            .zip(reference.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let context = |s: &str| {
            let bytes = &s.as_bytes()[at.saturating_sub(40)..s.len().min(at + 40)];
            String::from_utf8_lossy(bytes).into_owned()
        };
        Some(format!(
            "byte {at}: live {:?} vs reference {:?}",
            context(live),
            context(reference)
        ))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn exporters_match_the_value_tree_renderer(
            series in prop::collection::vec(
                (
                    0..3usize,
                    0..NAMES.len(),
                    prop::collection::vec((0..LABEL_KEYS.len(), 0..STRINGS.len()), 0..=3),
                    prop::collection::vec(0..64usize, 0..20),
                ),
                0..14,
            ),
            events in 0..EVENT_COUNTS.len(),
        ) {
            let tel = build(&series, events);
            let reg = tel.0.as_deref().expect("enabled");

            let text = tel.prometheus_text().expect("enabled");
            let diff = first_difference(&text, &prometheus_text(reg));
            prop_assert!(diff.is_none(), "/metrics {}", diff.unwrap_or_default());
            for line in text.lines() {
                prop_assert!(
                    line.starts_with("# ") || sample_line_ok(line),
                    "line fails CI grammar: {line:?}"
                );
            }

            let json = tel.json_snapshot().expect("enabled");
            let reference = render_value(&json_snapshot(reg));
            let diff = first_difference(after_elapsed(&json), after_elapsed(&reference));
            prop_assert!(diff.is_none(), "/metrics.json {}", diff.unwrap_or_default());
        }
    }
}
