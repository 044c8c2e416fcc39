//! The metric catalog (read from `/BENCHMARK.json`), result records and
//! their JSON, the `env` block, and `compare`.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::json::{self, num, obj, render, text, uint, Value};
use crate::stats::Spread;

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median it may worsen by before that is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Regression bound, share of the baseline median.
    pub bound: f64,
}

/// `/BENCHMARK.json`, the one place workloads, metric names, units,
/// directions and bounds are written down; compiled in, so the program
/// cannot disagree with the file the driver reads.
#[derive(Debug)]
pub struct Catalog {
    /// `run_seconds`: the timed region when the caller names none.
    pub run_seconds: u64,
    /// The workloads, in run order.
    pub workloads: Vec<&'static str>,
    /// Every end-to-end metric; each is defined on every workload (see
    /// the README for what it means on each).
    pub end_to_end: Vec<EndToEnd>,
    /// Every per-layer metric as `(name, unit)`. A traced run of any
    /// workload reports all of them; one whose layer the workload does
    /// not drive reads 0.
    pub per_layer: Vec<(&'static str, &'static str)>,
}

/// The compiled-in catalog.
pub fn catalog() -> &'static Catalog {
    static FILE: OnceLock<Value> = OnceLock::new();
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let file = FILE.get_or_init(|| {
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
        });
        let list = |key: &str| file.get(key).and_then(Value::as_array).expect("a list");
        let field = |entry: &'static Value, key: &str| -> &'static str {
            entry.get(key).and_then(Value::as_str).expect("a string")
        };
        Catalog {
            run_seconds: file
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("run_seconds"),
            workloads: list("workloads").iter().map(|w| field(w, "name")).collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    better: field(m, "better"),
                    bound: m.get("bound").and_then(Value::as_f64).expect("bound"),
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect(),
        }
    })
}

impl Catalog {
    /// The unit `name` is declared with.
    ///
    /// # Panics
    ///
    /// If `/BENCHMARK.json` declares no such metric: reporting one is a
    /// bug in the benchmark.
    pub fn unit(&self, name: &str) -> &'static str {
        self.end_to_end
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(self.per_layer.iter().copied())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
            .1
    }
}

/// What `work_per_s` / `op_p50_us` are called in the issue's per-workload
/// vocabulary.
pub fn alias(workload: &str, metric: &str) -> Option<&'static str> {
    let serve = workload.starts_with("serve_");
    let fleet = workload.starts_with("fleet_");
    match metric {
        "work_per_s" if fleet => Some("machine_ticks_per_s"),
        "work_per_s" if serve => Some("req_per_s"),
        "work_per_s" => Some("samples_per_s"),
        "op_p50_us" if serve => Some("req_p50_us"),
        "op_p50_us" => Some("tick_p50_us"),
        _ => None,
    }
}

/// Exact counts: equal across commits for a pure speed-up, so `compare`
/// checks them for equality instead of against a bound.
pub const EXACT: [&str; 13] = [
    "sim.mticks",
    "perf.readings",
    "core.samples",
    "core.incidents",
    "core.caps",
    "core.acted_share",
    "pipeline.batches_offered",
    "pipeline.batches_dropped",
    "pipeline.duplicates_dropped",
    "pipeline.refreshes",
    "pipeline.specs_published",
    "pipeline.shards_skipped",
    "digest",
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, one `/BENCHMARK.json` declares.
    pub name: String,
    /// The unit it is declared with.
    pub unit: &'static str,
    /// The value (for a sliced metric, the median slice).
    pub value: f64,
    /// Quartiles over slices and the slice count, where sliced.
    pub spread: Option<Spread>,
    /// What the value was computed from, for a human.
    pub note: String,
}

impl Metric {
    /// A plain value.
    pub fn plain(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: catalog().unit(name),
            value: finite(value),
            spread: None,
            note: String::new(),
        }
    }

    /// A median-of-slices value with its quartiles.
    pub fn sliced(name: &str, spread: Spread) -> Metric {
        Metric {
            spread: Some(spread),
            ..Metric::plain(name, spread.median)
        }
    }

    /// Attaches a human note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What it asserts.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Operations attempted (fleet/replay: sample batches offered; serve:
    /// requests sent).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Vec<Metric>,
    /// The correctness checks.
    pub checks: Vec<Check>,
    /// Findings worth a line at the top of the printout.
    pub findings: Vec<String>,
    /// Full 64-bit incident digest (traced fleet/replay runs).
    pub digest: Option<u64>,
}

impl WorkloadResult {
    /// Every check held and nothing failed beyond the allowance
    /// (`failed_share` ≤ 0.001).
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self.failed as f64 <= 0.001 * self.attempted.max(1) as f64
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Adds a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Fills in every metric of the mode the run did not produce with 0
    /// and orders the list as `/BENCHMARK.json` does.
    pub fn complete(&mut self, traced: bool) {
        let catalog = catalog();
        let names: Vec<&str> = if traced {
            catalog.per_layer.iter().map(|(n, _)| *n).collect()
        } else {
            catalog.end_to_end.iter().map(|d| d.name).collect()
        };
        let mut have: BTreeMap<String, Metric> = std::mem::take(&mut self.metrics)
            .into_iter()
            .map(|m| (m.name.clone(), m))
            .collect();
        self.metrics = names
            .into_iter()
            .map(|name| {
                have.remove(name).unwrap_or_else(|| {
                    Metric::plain(name, 0.0).with_note("not driven by this workload")
                })
            })
            .collect();
        assert!(
            have.is_empty(),
            "metrics of the other mode reported: {:?}",
            have.keys()
        );
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })
            .collect();
        render(obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", uint(self.attempted)),
            ("failed", uint(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    }

    /// The full record `run` stores per workload and mode.
    pub fn detail(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", num(m.value)), ("unit", text(m.unit))];
                if let Some(s) = m.spread {
                    fields.push(("q1", num(s.q1)));
                    fields.push(("q3", num(s.q3)));
                    fields.push(("n", uint(s.n as u64)));
                }
                if !m.note.is_empty() {
                    fields.push(("note", text(&m.note)));
                }
                (m.name.clone(), obj(fields))
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", text(&c.name)),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", text(&c.detail)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", uint(self.attempted)),
            ("failed", uint(self.failed)),
            (
                "failed_share",
                num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics", Value::Object(metrics)),
            ("checks", Value::Array(checks)),
            (
                "findings",
                Value::Array(self.findings.iter().map(|f| text(f)).collect()),
            ),
        ];
        if let Some(d) = self.digest {
            fields.push(("digest", text(&format!("{d:016x}"))));
        }
        obj(fields)
    }
}

/// The machine and build the numbers were taken on.
pub fn env_block(seed: u64, seconds: u64) -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let governor = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .trim()
        .to_string();
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    obj(vec![
        ("nproc", num(nproc() as f64)),
        ("cpu_model", text(&cpu_model)),
        (
            "governor",
            text(if governor.is_empty() {
                "unreadable"
            } else {
                &governor
            }),
        ),
        ("rustc", text(&command("rustc", &["-V"]))),
        ("git_commit", text(&command("git", &["rev-parse", "HEAD"]))),
        ("loadavg_1m", num(loadavg_1m())),
        ("seed", uint(seed)),
        ("seconds", uint(seconds)),
    ])
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The 1-minute load average (0 if unreadable).
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// This process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Baseline value (median slice, or the count).
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// `improved`, `unchanged`, `unresolved`, `regressed`, `equal` or
    /// `differs`.
    pub verdict: &'static str,
}

/// Judges one end-to-end metric: `b` against `a` under `def.bound`, with
/// `a`'s own q1–q3 spread deciding whether "no change" can be told.
pub fn judge(def: &EndToEnd, a: f64, a_spread: Option<Spread>, b: f64) -> &'static str {
    if a == 0.0 {
        return if b == 0.0 { "unchanged" } else { "unresolved" };
    }
    // Positive = worse.
    let worse_by = match def.better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    };
    let spread = a_spread.map_or(0.0, |s| s.relative_iqr());
    if worse_by > def.bound {
        "regressed"
    } else if spread > def.bound {
        "unresolved"
    } else if worse_by < -def.bound {
        "improved"
    } else {
        "unchanged"
    }
}

fn metric_of(run: &Value, workload: &str, mode: &str, name: &str) -> Option<(f64, Option<Spread>)> {
    let m = run
        .get("workloads")?
        .get(workload)?
        .get(mode)?
        .get("metrics")?
        .get(name)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (m.get("q1"), m.get("q3"), m.get("n")) {
        (Some(q1), Some(q3), Some(n)) => Some(Spread {
            q1: q1.as_f64()?,
            median: value,
            q3: q3.as_f64()?,
            n: n.as_u64()? as usize,
        }),
        _ => None,
    };
    Some((value, spread))
}

/// Compares two `run` files: each end-to-end metric per workload under
/// its bound, exact counts and digests for equality.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for &workload in &catalog().workloads {
        for def in &catalog().end_to_end {
            let (Some((va, sa)), Some((vb, _))) = (
                metric_of(a, workload, "end_to_end", def.name),
                metric_of(b, workload, "end_to_end", def.name),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: def.name.to_string(),
                a: va,
                b: vb,
                verdict: judge(def, va, sa, vb),
            });
        }
        let failed_share = |run: &Value| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get("failed_share")?
                .as_f64()
        };
        if let (Some(fa), Some(fb)) = (failed_share(a), failed_share(b)) {
            rows.push(Row {
                workload: workload.to_string(),
                metric: "failed_share".into(),
                a: fa,
                b: fb,
                verdict: if fb > fa + 0.001 {
                    "regressed"
                } else {
                    "unchanged"
                },
            });
        }
        for name in EXACT {
            let (Some((va, _)), Some((vb, _))) = (
                metric_of(a, workload, "per_layer", name),
                metric_of(b, workload, "per_layer", name),
            ) else {
                continue;
            };
            // Zero on both sides: a layer this workload does not drive.
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                a: va,
                b: vb,
                verdict: if va == vb { "equal" } else { "differs" },
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORK: EndToEnd = EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };
    const P50: EndToEnd = EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    };

    fn tight(median: f64) -> Option<Spread> {
        Some(Spread {
            q1: median * 0.99,
            median,
            q3: median * 1.01,
            n: 8,
        })
    }

    #[test]
    fn judge_applies_direction_and_bound() {
        assert_eq!(judge(&WORK, 100.0, tight(100.0), 100.0), "unchanged");
        assert_eq!(judge(&WORK, 100.0, tight(100.0), 95.0), "unchanged");
        assert_eq!(judge(&WORK, 100.0, tight(100.0), 85.0), "regressed");
        assert_eq!(judge(&WORK, 100.0, tight(100.0), 115.0), "improved");
        assert_eq!(judge(&P50, 100.0, tight(100.0), 115.0), "regressed");
        assert_eq!(judge(&P50, 100.0, tight(100.0), 85.0), "improved");
    }

    #[test]
    fn wide_baseline_spread_is_unresolved_not_unchanged() {
        let wide = Some(Spread {
            q1: 90.0,
            median: 100.0,
            q3: 110.0,
            n: 8,
        });
        assert_eq!(judge(&WORK, 100.0, wide, 100.0), "unresolved");
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(&WORK, 100.0, wide, 80.0), "regressed");
    }

    #[test]
    fn compare_reads_run_files() {
        let run = |work: f64, incidents: u64| {
            crate::json::parse(&format!(
                "{{\"workloads\":{{\"fleet_sparse\":{{\
                 \"end_to_end\":{{\"failed_share\":0,\"metrics\":{{\"work_per_s\":\
                 {{\"value\":{work},\"unit\":\"1/s\",\"q1\":{},\"q3\":{},\"n\":8}}}}}},\
                 \"per_layer\":{{\"metrics\":{{\"core.incidents\":\
                 {{\"value\":{incidents},\"unit\":\"count\"}}}}}}}}}}}}",
                work * 0.99,
                work * 1.01
            ))
            .expect("test JSON")
        };
        let rows = compare(&run(1000.0, 90), &run(700.0, 91));
        let verdict = |metric: &str| {
            rows.iter()
                .find(|r| r.metric == metric)
                .map(|r| r.verdict)
                .unwrap_or("missing")
        };
        assert_eq!(verdict("work_per_s"), "regressed");
        assert_eq!(verdict("core.incidents"), "differs");
        assert_eq!(verdict("failed_share"), "unchanged");
        let same = compare(&run(1000.0, 90), &run(1000.0, 90));
        assert!(same
            .iter()
            .all(|r| matches!(r.verdict, "unchanged" | "equal")));
    }

    /// The limits the driver refuses a `/BENCHMARK.json` over.
    #[test]
    fn catalog_keeps_to_the_contract() {
        let c = catalog();
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!(c.end_to_end.iter().any(|d| d.name == "setup_s"));
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let mut names: Vec<&str> = c.workloads.clone();
        names.extend(c.end_to_end.iter().map(|d| d.name));
        names.extend(c.per_layer.iter().map(|(n, _)| *n));
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in EXACT {
            c.unit(name);
        }
    }

    #[test]
    fn complete_fills_the_catalog_with_zeros() {
        let mut r = WorkloadResult::default();
        r.push(Metric::plain("work_per_s", 5.0));
        r.complete(false);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = catalog().end_to_end.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert_eq!(r.metrics[1].value, 5.0);
        assert_eq!(r.metrics[0].value, 0.0);
        let line = r.contract_line();
        let v = crate::json::parse(&line).expect("contract line parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
