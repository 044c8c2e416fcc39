//! The per-machine CPI² management agent.
//!
//! §4.1: "To avoid a central bottleneck, CPI values are measured and
//! analyzed locally by a management agent that runs in every machine."
//! The agent holds the predicted CPI specs pushed down by the aggregation
//! pipeline, watches every task's samples for anomalies, runs the
//! antagonist-correlation analysis when a protected victim is anomalous,
//! and (when auto-throttle is enabled) emits hard-cap commands.

use crate::amelioration::cap_for;
use crate::antagonist::{rank_suspects, select_target, Suspect, SuspectInput};
use crate::config::Cpi2Config;
use crate::correlation::antagonist_correlation;
use crate::history::History;
use crate::incident::{Incident, IncidentAction, NoActionReason};
use crate::outlier::{OutlierDetector, Verdict};
use crate::panda::EvidenceBook;
use crate::sample::{CpiSample, JobKey, TaskClass, TaskHandle};
use crate::spec::CpiSpec;
use crate::trace::{TraceId, TraceSpan, TraceStage};
use cpi2_stats::Name;
use cpi2_telemetry::{Counter, Histo, Telemetry};
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::Arc;

/// The agent's maps. A machine holds a handful of tasks and of specs, so
/// a map is its keys in order in one vector and their values in another:
/// a binary search to probe, the key order to iterate (the suspect
/// ranking must not depend on hash order), and — grown one entry at a
/// time, since entries arrive far more rarely than samples — the
/// entries' own size in memory, where a B-tree keeps an eleven-slot node
/// for two of them.
///
/// Serializes as a vector of `[key, value]` pairs (JSON requires string
/// map keys) in key order, so checkpoint blobs are byte-stable across
/// runs.
mod sorted {
    use serde::{Deserialize, Error, Serialize, Value};
    use std::borrow::Borrow;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub struct SortedMap<K, V> {
        /// Ascending. Apart from the values so that a probe reads keys
        /// alone: ingest probes twice a sample, and 25 task states in one
        /// vector with their keys put each step of a search 184 B from
        /// the last (`core.ingest.ns_per_sample` 411 against 375 ns).
        keys: Vec<K>,
        /// `values[i]` belongs to `keys[i]`.
        values: Vec<V>,
    }

    impl<K, V> Default for SortedMap<K, V> {
        fn default() -> Self {
            SortedMap {
                keys: Vec::new(),
                values: Vec::new(),
            }
        }
    }

    impl<K: Ord, V> SortedMap<K, V> {
        /// `Ok(i)` if entry `i` holds `key`, else `Err(i)`: it belongs at `i`.
        fn position<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
        where
            K: Borrow<Q>,
        {
            self.keys.binary_search_by(|k| k.borrow().cmp(key))
        }

        pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
        where
            K: Borrow<Q>,
        {
            self.values.get(self.position(key).ok()?)
        }

        pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
        where
            K: Borrow<Q>,
        {
            let i = self.position(key).ok()?;
            self.values.get_mut(i)
        }

        pub fn contains_key(&self, key: &K) -> bool {
            self.position(key).is_ok()
        }

        /// The value under `key`, made by `V::default` if there was none
        /// (`true` then). Never `None`: the crate indexes nothing, and
        /// `get_mut` is how a position becomes a value.
        pub fn get_or_default(&mut self, key: K) -> Option<(&mut V, bool)>
        where
            V: Default,
        {
            let found = self.position(&key);
            if let Err(i) = found {
                self.insert_at(i, key, V::default());
            }
            let (Ok(i) | Err(i)) = found;
            Some((self.values.get_mut(i)?, found.is_err()))
        }

        pub fn insert(&mut self, key: K, value: V) {
            match self.position(&key) {
                Ok(i) => {
                    if let Some(held) = self.values.get_mut(i) {
                        *held = value;
                    }
                }
                Err(i) => self.insert_at(i, key, value),
            }
        }

        fn insert_at(&mut self, i: usize, key: K, value: V) {
            self.keys.reserve_exact(1);
            self.keys.insert(i, key);
            self.values.reserve_exact(1);
            self.values.insert(i, value);
        }

        pub fn remove(&mut self, key: &K) -> Option<V> {
            let i = self.position(key).ok()?;
            self.keys.remove(i);
            Some(self.values.remove(i))
        }

        pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
            // Kept entries move down over dropped ones, in order; with
            // none dropped yet (nearly every call) nothing moves.
            let mut kept = 0;
            for i in 0..self.keys.len() {
                let (Some(k), Some(v)) = (self.keys.get(i), self.values.get_mut(i)) else {
                    break;
                };
                if keep(k, v) {
                    if kept < i {
                        self.keys.swap(kept, i);
                        self.values.swap(kept, i);
                    }
                    kept += 1;
                }
            }
            self.keys.truncate(kept);
            self.values.truncate(kept);
        }

        /// Entries in key order.
        pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
            self.keys.iter().zip(&self.values)
        }

        /// Values in key order.
        pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
            self.values.iter_mut()
        }

        /// The values in key order, keys dropped.
        pub fn into_values(self) -> Vec<V> {
            self.values
        }
    }

    impl<K: Serialize, V: Serialize> Serialize for SortedMap<K, V> {
        fn to_value(&self) -> Value {
            let pair = |(k, v): (&K, &V)| Value::Array(vec![k.to_value(), v.to_value()]);
            Value::Array(self.keys.iter().zip(&self.values).map(pair).collect())
        }
    }

    impl<K: Deserialize + Ord, V: Deserialize> Deserialize for SortedMap<K, V> {
        fn from_value(v: &Value) -> Result<Self, Error> {
            let items = v
                .as_array()
                .ok_or_else(|| Error::custom("expected array of pairs"))?;
            // Through a map: whatever order and repeats the blob holds,
            // the entries come out sorted and the last repeat wins.
            let entries: Result<BTreeMap<K, V>, Error> = items
                .iter()
                .map(|item| match item.as_array().map(Vec::as_slice) {
                    Some([k, v]) => Ok((K::from_value(k)?, V::from_value(v)?)),
                    _ => Err(Error::custom("expected [key, value] pair")),
                })
                .collect();
            let (keys, values) = entries?.into_iter().unzip();
            Ok(SortedMap { keys, values })
        }
    }
}

use sorted::SortedMap;

/// Cached telemetry handles for the agent's hot paths.
///
/// Resolved once in [`Agent::set_telemetry`]; the `Default` (all handles
/// disabled) costs one branch per update. Detection latency is recorded in
/// *sim-time* microseconds — the gap between a task entering its violation
/// window and the incident that fires — so the histogram is deterministic.
#[derive(Debug, Clone, Default)]
struct AgentMetrics {
    telemetry: Telemetry,
    samples: Counter,
    violations: Counter,
    incidents_hard_cap: Counter,
    incidents_none: Counter,
    detection_latency_us: Histo,
    correlation_runs: Counter,
    /// Detection decisions taken in degraded mode because the cached spec
    /// aged past `spec_ttl_hours` (conservative wide-sigma fallback).
    degraded_stale_spec: Counter,
    /// Identification passes, labeled by the configured backend.
    identifier_runs: Counter,
    /// PANDA-only: incident windows filtered for too few aligned samples.
    panda_windows_filtered: Counter,
    /// PANDA-only: evidence pairs evicted to honor the state bound.
    panda_evidence_evictions: Counter,
}

impl AgentMetrics {
    fn new(telemetry: &Telemetry, identifier: &'static str) -> AgentMetrics {
        AgentMetrics {
            telemetry: telemetry.clone(),
            samples: telemetry.counter("cpi_agent_samples_total", &[]),
            violations: telemetry.counter("cpi_agent_outlier_violations_total", &[]),
            incidents_hard_cap: telemetry.counter("cpi_incidents_total", &[("action", "hard_cap")]),
            incidents_none: telemetry.counter("cpi_incidents_total", &[("action", "none")]),
            detection_latency_us: telemetry.histogram("cpi_agent_detection_latency_us", &[]),
            correlation_runs: telemetry.counter("cpi_agent_correlation_runs_total", &[]),
            degraded_stale_spec: telemetry.counter(
                "cpi_agent_degraded_decisions_total",
                &[("reason", "stale_spec")],
            ),
            identifier_runs: telemetry
                .counter("cpi_identifier_runs_total", &[("kind", identifier)]),
            panda_windows_filtered: telemetry.counter("cpi_panda_windows_filtered_total", &[]),
            panda_evidence_evictions: telemetry.counter("cpi_panda_evidence_evictions_total", &[]),
        }
    }
}

/// A command the agent wants executed on the machine.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentCommand {
    /// Apply a CPU hard cap to a task's cgroup.
    ApplyHardCap {
        /// Target task.
        target: TaskHandle,
        /// Target's job name (for the operator log), shared with the
        /// incident's.
        target_job: Name,
        /// Cap rate, CPU-sec/sec.
        cpu_rate: f64,
        /// Expiry, µs since epoch.
        until: i64,
        /// The incident trace this cap belongs to (the executor appends
        /// the amelioration span to it).
        trace: TraceId,
    },
}

/// A cached spec and when the pipeline published it.
#[derive(Debug, Serialize, Deserialize)]
struct SpecEntry {
    /// The pipeline's own copy, shared: every agent the spec store hands
    /// it to holds the same one.
    #[serde(with = "shared_spec")]
    spec: Arc<CpiSpec>,
    /// Publish time (µs); `i64::MAX` means "never stale" (untimestamped
    /// install). Pipeline publish time — not install time — so
    /// re-installing the same old spec after an agent restart does not
    /// reset its staleness clock.
    published_at: i64,
}

/// A shared spec reads and writes as the spec itself.
mod shared_spec {
    use crate::spec::CpiSpec;
    use serde::{Deserialize, Error, Serialize, Value};
    use std::sync::Arc;

    pub fn to_value(spec: &Arc<CpiSpec>) -> Value {
        spec.to_value()
    }

    pub fn from_value(v: &Value) -> Result<Arc<CpiSpec>, Error> {
        CpiSpec::from_value(v).map(Arc::new)
    }
}

/// The agent's specs, one per job × platform, ordered by each spec's own
/// (job, platform) names: a lookup binary-searches those names, so the
/// table holds no key of its own — an entry is a pointer and a time.
///
/// Serializes as a vector of `[{"job", "platform"}, entry]` pairs in that
/// order, byte for byte what a `JobKey`-keyed map of the same entries
/// wrote.
#[derive(Debug, Default)]
struct SpecTable {
    entries: Vec<SpecEntry>,
}

impl SpecTable {
    /// `Ok(i)` if entry `i` is (`job`, `platform`)'s, else `Err(i)`: it
    /// belongs at `i`.
    fn position(&self, job: &str, platform: &str) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| (&*e.spec.jobname, &*e.spec.platforminfo).cmp(&(job, platform)))
    }

    fn get(&self, job: &str, platform: &str) -> Option<&SpecEntry> {
        self.entries.get(self.position(job, platform).ok()?)
    }

    /// Installs `entry` in place of its key's, if there was one.
    fn install(&mut self, entry: SpecEntry) {
        match self.position(&entry.spec.jobname, &entry.spec.platforminfo) {
            Ok(i) => {
                if let Some(held) = self.entries.get_mut(i) {
                    *held = entry;
                }
            }
            Err(i) => {
                self.entries.reserve_exact(1);
                self.entries.insert(i, entry);
            }
        }
    }
}

impl Serialize for SpecTable {
    fn to_value(&self) -> Value {
        let pair = |e: &SpecEntry| {
            let key = Value::Object(vec![
                ("job".to_string(), e.spec.jobname.to_value()),
                ("platform".to_string(), e.spec.platforminfo.to_value()),
            ]);
            Value::Array(vec![key, e.to_value()])
        };
        Value::Array(self.entries.iter().map(pair).collect())
    }
}

impl Deserialize for SpecTable {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // As the agent's keyed tables restore (sorted, the last repeat
        // wins), then each key must name its own spec.
        let map = SortedMap::<JobKey, SpecEntry>::from_value(v)?;
        if let Some((key, _)) = map
            .iter()
            .find(|(k, e)| (&*k.job, &*k.platform) != (&*e.spec.jobname, &*e.spec.platforminfo))
        {
            return Err(Error::custom(format!(
                "spec table key {key} holds another spec"
            )));
        }
        Ok(SpecTable {
            entries: map.into_values(),
        })
    }
}

/// The numbers detection reads from a task's job × platform spec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct DetectSpec {
    cpi_mean: f64,
    cpi_stddev: f64,
    published_at: i64,
}

impl DetectSpec {
    /// What detection may use of a spec-table entry: `None` when there is
    /// no spec, or it is not statistically usable.
    fn of(entry: Option<&SpecEntry>) -> Option<DetectSpec> {
        let SpecEntry { spec, published_at } = entry?;
        (spec.robust() && spec.cpi_stddev > 0.0).then_some(DetectSpec {
            cpi_mean: spec.cpi_mean,
            cpi_stddev: spec.cpi_stddev,
            published_at: *published_at,
        })
    }

    /// Same expression as [`CpiSpec::outlier_threshold`].
    fn outlier_threshold(&self, sigma: f64) -> f64 {
        self.cpi_mean + sigma * self.cpi_stddev
    }
}

/// One sample's verdict, with the sigma and threshold it was judged at.
struct Judged {
    verdict: Verdict,
    sigma: f64,
    threshold: f64,
}

/// Per-task state the agent keeps.
#[derive(Debug)]
struct TaskState {
    /// The task's samples' own names, shared: binding clones two `Name`s.
    jobname: Name,
    platform: Name,
    class: TaskClass,
    /// The spec table's entry for (`jobname`, `platform`), resolved: always
    /// equal to `DetectSpec::of(specs.get(key))`. Maintained by the only
    /// two events that can change that value — [`TaskState::bind`] and
    /// [`Agent::install_spec_at`] — so the detection pass reads it with no
    /// lookup.
    detect_spec: Option<DetectSpec>,
    detector: OutlierDetector,
    /// The task's samples over the last correlation window plus the
    /// alignment tolerance (`Agent::history_horizon_us`): the victim
    /// side of §4.2 reads its CPI, the suspect side its usage.
    history: History,
    /// Newest sample timestamp seen, replays included: a replayed sample
    /// does not make a resident task look gone.
    last_seen: i64,
}

// By hand: a `Name` has no default, and `last_seen` starts below every
// timestamp. A new task has seen no sample, so `record`'s first
// `max` takes that sample's timestamp whatever its sign.
impl Default for TaskState {
    fn default() -> Self {
        TaskState {
            jobname: "".into(),
            platform: "".into(),
            class: TaskClass::default(),
            detect_spec: None,
            detector: OutlierDetector::default(),
            history: History::default(),
            last_seen: i64::MIN,
        }
    }
}

// By hand, so the history writes the two single-value series it
// replaced, `"cpi"` then `"usage"`: a checkpoint is byte for byte what
// the agent wrote when it kept one series of each.
impl Serialize for TaskState {
    fn to_value(&self) -> Value {
        let fields = [
            ("jobname", self.jobname.to_value()),
            ("platform", self.platform.to_value()),
            ("class", self.class.to_value()),
            ("detect_spec", self.detect_spec.to_value()),
            ("detector", self.detector.to_value()),
            ("cpi", self.history.cpi().to_value()),
            ("usage", self.history.usage().to_value()),
            ("last_seen", self.last_seen.to_value()),
        ];
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl Deserialize for TaskState {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name| serde::get_or_null(v, name);
        Ok(TaskState {
            jobname: serde::from_field(v, "jobname")?,
            platform: serde::from_field(v, "platform")?,
            class: serde::from_field(v, "class")?,
            detect_spec: serde::from_field(v, "detect_spec")?,
            detector: serde::from_field(v, "detector")?,
            history: History::from_column_values(field("cpi"), field("usage"))?,
            last_seen: serde::from_field(v, "last_seen")?,
        })
    }
}

impl TaskState {
    /// Points the task at `s`'s job × platform (it just appeared, or its
    /// handle was reused) and resolves that key's spec.
    // lint: hot-path
    fn bind(&mut self, s: &CpiSample, specs: &SpecTable) {
        self.jobname = Name::clone(&s.jobname);
        self.platform = Name::clone(&s.platforminfo);
        self.detect_spec = DetectSpec::of(specs.get(&s.jobname, &s.platforminfo));
    }

    /// Appends `s` to the task's history, bounded to `horizon_us`.
    /// `false` when `s` did not advance it (a replayed sample).
    // lint: hot-path
    fn record(&mut self, s: &CpiSample, horizon_us: i64) -> bool {
        self.class = s.class;
        self.last_seen = self.last_seen.max(s.timestamp);
        // Monotonicity guard: a restarted collector may replay.
        let advances = match self.history.last_t() {
            Some(t) => t < s.timestamp,
            None => true,
        };
        if advances {
            self.history.push(s.timestamp, s.cpi, s.cpu_usage);
        }
        self.history.evict_before(s.timestamp - horizon_us);
        advances
    }

    /// Judges `s` against the task's resolved spec; `None` when there is
    /// nothing to judge it against.
    // lint: hot-path
    fn judge(
        &mut self,
        s: &CpiSample,
        config: &Cpi2Config,
        ttl_us: i64,
        metrics: &AgentMetrics,
    ) -> Option<Judged> {
        let spec = self.detect_spec?;
        // Degraded mode: a spec published longer ago than the TTL only
        // supports conservative detection — the workload may have
        // drifted, so require a wider deviation before flagging.
        let stale = ttl_us > 0 && s.timestamp.saturating_sub(spec.published_at) > ttl_us;
        let sigma = if stale {
            metrics.degraded_stale_spec.inc();
            // Clamp: ablation configs sweep outlier_sigma above the
            // stale default; degraded mode must never be *less*
            // conservative than normal mode.
            config.stale_outlier_sigma.max(config.outlier_sigma)
        } else {
            config.outlier_sigma
        };
        let threshold = spec.outlier_threshold(sigma);
        let verdict = self.detector.observe(s, threshold, config);
        if matches!(verdict, Verdict::Flagged | Verdict::Anomalous) {
            metrics.violations.inc();
        }
        Some(Judged {
            verdict,
            sigma,
            threshold,
        })
    }
}

/// The per-machine management agent.
///
/// The agent is fully serializable: a production daemon checkpoints its
/// state across restarts so in-flight violation windows, sample histories
/// and active caps survive (see [`Agent::checkpoint`]).
#[derive(Debug, Serialize, Deserialize)]
pub struct Agent {
    config: Cpi2Config,
    specs: SpecTable,
    tasks: SortedMap<TaskHandle, TaskState>,
    /// µs timestamp of the last correlation analysis (rate limiting, §4.2).
    last_analysis: i64,
    /// Caps the agent has issued: target → expiry µs.
    active_caps: SortedMap<TaskHandle, i64>,
    /// Last incident report per victim (deduplication cooldown).
    last_incident: SortedMap<TaskHandle, i64>,
    incidents: Vec<Incident>,
    /// PANDA cross-incident evidence (empty and unused under the paper
    /// backend; checkpoints from before the field deserialize empty).
    #[serde(default)]
    evidence: EvidenceBook,
    /// Detection-side trace spans awaiting collection
    /// ([`Agent::take_trace_spans`]).
    #[serde(default)]
    trace_spans: Vec<TraceSpan>,
    /// Victims with an open trace awaiting recovery: the first
    /// non-anomalous sample closes the chain with a recovery span.
    #[serde(default)]
    open_traces: SortedMap<TaskHandle, TraceId>,
    /// Telemetry handles are runtime wiring, not state: checkpoints store
    /// `null` and restores come back disabled (re-attach after restore).
    #[serde(with = "cpi2_telemetry::serde_stub")]
    metrics: AgentMetrics,
}

impl Agent {
    /// Creates an agent with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: Cpi2Config) -> Self {
        // lint: allow(panic) — documented constructor contract: `new`
        // panics on an invalid config by design (see doc comment).
        config.validate().expect("valid CPI2 configuration");
        Agent {
            config,
            specs: SpecTable::default(),
            tasks: SortedMap::default(),
            last_analysis: i64::MIN / 2,
            active_caps: SortedMap::default(),
            last_incident: SortedMap::default(),
            incidents: Vec::new(),
            evidence: EvidenceBook::new(),
            trace_spans: Vec::new(),
            open_traces: SortedMap::default(),
            metrics: AgentMetrics::default(),
        }
    }

    /// Attaches (or replaces) the telemetry registry this agent reports
    /// to. Agents default to disabled telemetry; call this after
    /// construction — or after [`Agent::restore`], since checkpoints do
    /// not carry telemetry wiring.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = AgentMetrics::new(telemetry, self.config.identifier.name());
    }

    /// The agent's configuration.
    pub fn config(&self) -> &Cpi2Config {
        &self.config
    }

    /// Installs (or refreshes) a predicted CPI spec pushed by the pipeline
    /// with no publish timestamp (it never ages out).
    pub fn install_spec(&mut self, spec: impl Into<Arc<CpiSpec>>) {
        self.install_spec_at(spec, i64::MAX);
    }

    /// Installs a spec together with its pipeline publish time (µs). Once
    /// the spec is older than [`Cpi2Config::spec_ttl_hours`], detection
    /// for its job falls back to the conservative
    /// [`Cpi2Config::stale_outlier_sigma`] threshold and each such
    /// decision is counted in telemetry.
    ///
    /// The agent keeps the spec it is handed: a shared one (what the spec
    /// store hands out) is held, not copied; an owned one is moved into a
    /// new `Arc`.
    pub fn install_spec_at(&mut self, spec: impl Into<Arc<CpiSpec>>, published_at_us: i64) {
        let entry = SpecEntry {
            spec: spec.into(),
            published_at: published_at_us,
        };
        // Resident tasks of this job × platform see the new numbers at
        // their next sample (the write half of `TaskState::detect_spec`).
        let resolved = DetectSpec::of(Some(&entry));
        for st in self.tasks.values_mut() {
            if *st.jobname == *entry.spec.jobname && *st.platform == *entry.spec.platforminfo {
                st.detect_spec = resolved;
            }
        }
        self.specs.install(entry);
    }

    /// The spec for a job × platform key, if any.
    pub fn spec(&self, key: &JobKey) -> Option<&CpiSpec> {
        self.specs.get(&key.job, &key.platform).map(|e| &*e.spec)
    }

    /// Publish time (µs) of the cached spec for a key: `i64::MAX` for
    /// untimestamped installs, `None` when no spec is cached.
    pub fn spec_published_at(&self, key: &JobKey) -> Option<i64> {
        self.specs
            .get(&key.job, &key.platform)
            .map(|e| e.published_at)
    }

    /// All incidents the agent has reported, oldest first.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Drains the incident log (pipeline collection).
    pub fn take_incidents(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.incidents)
    }

    /// Drains the detection-side trace spans recorded since the last call
    /// (sample window, violation, identification, decision, recovery), in
    /// the order they were produced.
    pub fn take_trace_spans(&mut self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.trace_spans)
    }

    /// Serializes the agent's full state (specs, per-task histories,
    /// violation windows, active caps) for a daemon restart.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn checkpoint(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores an agent from a [`Agent::checkpoint`] blob.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or an invalid embedded configuration.
    pub fn restore(blob: &str) -> Result<Agent, serde_json::Error> {
        serde_json::from_str(blob)
    }

    /// Ingests one batch of samples (typically all tasks of the machine at
    /// one sampling instant) and returns any commands to execute.
    ///
    /// A task stays resident until it goes two correlation windows
    /// unseen, but its history keeps only the rows within one window plus
    /// half a sampling period of its newest sample: an analysis reads the
    /// victim's window, and a suspect row further back than that is more
    /// than half a period from every row in it, so alignment never pairs
    /// it. The one input where keeping less can change an answer is a
    /// victim sample older than a co-resident suspect's newest — a batch
    /// that spans several instants, or batches out of time order — since
    /// that suspect has evicted from its own newest row, not from the
    /// victim's. Batches that each close one sampling instant, in time
    /// order, are answered as a two-window history would answer them.
    pub fn ingest(&mut self, samples: &[CpiSample]) -> Vec<AgentCommand> {
        let mut commands = Vec::new();
        let window_us = self.config.correlation_window_s * 1_000_000;
        let horizon_us = self.history_horizon_us();
        let cooldown_us = self.config.incident_cooldown_s * 1_000_000;
        let analysis_interval_us = self.config.analysis_interval_s * 1_000_000;
        let ttl_us = self.config.spec_ttl_hours * 3_600 * 1_000_000;
        self.metrics.samples.add(samples.len() as u64);

        // Record histories first so the analysis sees this batch.
        // Indices of samples that did not advance their task's history
        // (ascending; empty on a fresh stream).
        let mut replayed = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            let Some((st, new)) = self.tasks.get_or_default(s.task) else {
                continue;
            };
            // `Name`'s `==` compares pointers before bytes: a task's
            // samples share its names, so this is two pointer compares.
            if new || st.jobname != s.jobname || st.platform != s.platforminfo {
                st.bind(s, &self.specs);
            }
            if !st.record(s, horizon_us) {
                replayed.push(i);
            }
        }

        // Evict tasks not seen for two windows (they left the machine).
        if let Some(&newest) = samples.iter().map(|s| &s.timestamp).max() {
            self.tasks
                .retain(|_, st| st.last_seen > newest - 2 * window_us);
            let tasks = &self.tasks;
            // A victim that left the machine before recovering leaves its
            // trace open-ended (the chain simply has no recovery span).
            self.open_traces.retain(|t, _| tasks.contains_key(t));
            self.active_caps.retain(|_, &mut until| until > newest);
            self.last_incident
                .retain(|_, &mut t| t > newest - 2 * cooldown_us);
        }

        // Detection pass.
        for (i, s) in samples.iter().enumerate() {
            // A replayed sample was already judged when it first arrived:
            // judging it again would count one violation twice.
            if replayed.binary_search(&i).is_ok() {
                continue;
            }
            let Some(st) = self.tasks.get_mut(&s.task) else {
                continue;
            };
            let Some(judged) = st.judge(s, &self.config, ttl_us, &self.metrics) else {
                continue;
            };
            // Close an open incident trace at the victim's first sample
            // that is back within spec (recovery).
            if judged.verdict == Verdict::Normal {
                if let Some(trace) = self.open_traces.remove(&s.task) {
                    let span = TraceSpan {
                        trace,
                        stage: TraceStage::Recovery,
                        start_us: s.timestamp,
                        end_us: s.timestamp,
                        detail: format!(
                            "victim={} job={} cpi={:.3} back under threshold={:.3}",
                            s.task.0, s.jobname, s.cpi, judged.threshold
                        ),
                    };
                    // Field-disjoint push (`st` is still borrowed below).
                    self.metrics.telemetry.event("trace", || span.event_line());
                    self.trace_spans.push(span);
                }
            }
            // When this flag entered the live violation window: the start
            // of the streak that may become an incident below.
            let window_entry = st.detector.first_flag_at();
            if judged.verdict != Verdict::Anomalous {
                continue;
            }
            // Per-victim deduplication: a chronically anomalous task is
            // reported once per cooldown, not once per sample.
            if let Some(&last) = self.last_incident.get(&s.task) {
                if s.timestamp - last < cooldown_us {
                    continue;
                }
            }
            // Rate-limit analyses (§4.2: at most one per second).
            if s.timestamp - self.last_analysis < analysis_interval_us {
                continue;
            }
            self.last_analysis = s.timestamp;
            if let Some(entry) = window_entry {
                // Sim-time µs from violation-window entry to incident.
                self.metrics
                    .detection_latency_us
                    .record((s.timestamp - entry) as f64);
            }
            if let Some(cmd) =
                self.analyze(s, judged.threshold, window_us, judged.sigma, window_entry)
            {
                commands.push(cmd);
            }
        }
        commands
    }

    /// Runs the antagonist analysis for an anomalous victim; returns a cap
    /// command if policy allows one.
    fn analyze(
        &mut self,
        victim: &CpiSample,
        cthreshold: f64,
        window_us: i64,
        sigma: f64,
        window_entry: Option<i64>,
    ) -> Option<AgentCommand> {
        self.metrics.correlation_runs.inc();
        let victim_state = self.tasks.get(&victim.task)?;
        let window_flags = victim_state.detector.flag_count();
        // Borrowed: the ranking reads the victim's rows in place.
        let victim_cpi = victim_state
            .history
            .cpi()
            .window(victim.timestamp - window_us, victim.timestamp + 1);

        // Score every co-resident task's usage against the victim's CPI.
        let inputs: Vec<SuspectInput<'_>> = self
            .tasks
            .iter()
            .filter(|(&h, _)| h != victim.task)
            .map(|(&h, st)| SuspectInput {
                task: h,
                jobname: &st.jobname,
                class: st.class,
                usage: st.history.usage(),
            })
            .collect();
        let tolerance = self.tolerance_us();
        let kind = self.config.identifier;
        self.metrics.identifier_runs.inc();
        let ranked = match kind.panda_params() {
            None => rank_suspects(victim_cpi, &inputs, cthreshold, tolerance),
            Some(params) => {
                let (ranked, stats) = self.evidence.rank(
                    &params,
                    &victim.jobname,
                    victim_cpi,
                    &inputs,
                    cthreshold,
                    tolerance,
                    victim.timestamp,
                );
                self.metrics
                    .panda_windows_filtered
                    .add(stats.windows_filtered);
                self.metrics.panda_evidence_evictions.add(stats.evictions);
                ranked
            }
        };
        let threshold = kind.decision_threshold(&self.config);
        // The ten best, and always the best throttle-eligible suspect,
        // even when ten latency-sensitive neighbours outrank it (the
        // Case-4 shape: it is the only one amelioration could act on).
        // Sized before filling: the log holds no slot it will not use.
        let eligible = |s: &&Suspect| s.class.throttle_eligible();
        let extra = if ranked.iter().take(10).any(|s| eligible(&s)) {
            None
        } else {
            ranked.iter().find(eligible)
        };
        let mut top: Vec<Suspect> =
            Vec::with_capacity(ranked.len().min(10) + usize::from(extra.is_some()));
        top.extend(ranked.iter().take(10).cloned());
        top.extend(extra.cloned());

        let eligible_victim = victim.class.protected;
        let target =
            select_target(&ranked, threshold).filter(|t| !self.active_caps.contains_key(&t.task));

        let action = match (&target, eligible_victim, self.config.auto_throttle) {
            (Some(t), true, true) => match cap_for(t.class, &self.config) {
                Some(cap) => {
                    let until = victim.timestamp + cap.duration_us;
                    self.active_caps.insert(t.task, until);
                    IncidentAction::HardCap {
                        target: t.task,
                        target_job: Name::clone(&t.jobname),
                        cpu_rate: cap.cpu_rate,
                        until,
                    }
                }
                None => IncidentAction::None {
                    reason: NoActionReason::TargetNotThrottleEligible,
                },
            },
            (None, _, _) => IncidentAction::None {
                reason: if kind.panda_params().is_none() {
                    NoActionReason::NoCorrelatedSuspect { threshold }
                } else {
                    NoActionReason::NoConfidentSuspect { threshold }
                },
            },
            (_, false, _) => IncidentAction::None {
                reason: NoActionReason::VictimNotProtected,
            },
            (_, _, false) => IncidentAction::None {
                reason: NoActionReason::AutoThrottleDisabled,
            },
        };

        let trace_id = TraceId::derive(victim.task.0, victim.timestamp);
        let command = match &action {
            IncidentAction::HardCap {
                target,
                target_job,
                cpu_rate,
                until,
            } => Some(AgentCommand::ApplyHardCap {
                target: *target,
                target_job: Name::clone(target_job),
                cpu_rate: *cpu_rate,
                until: *until,
                trace: trace_id,
            }),
            IncidentAction::None { .. } => None,
        };

        match &action {
            IncidentAction::HardCap { .. } => self.metrics.incidents_hard_cap.inc(),
            IncidentAction::None { .. } => self.metrics.incidents_none.inc(),
        }
        self.metrics.telemetry.event("incident", || {
            let kind = match &action {
                IncidentAction::HardCap { target_job, .. } => format!("hard_cap {target_job}"),
                IncidentAction::None { reason } => format!("none ({reason})"),
            };
            format!(
                "victim={} job={} cpi={:.3} threshold={:.3} action={kind}",
                victim.task.0, victim.jobname, victim.cpi, cthreshold
            )
        });
        self.last_incident.insert(victim.task, victim.timestamp);

        // Record the detection-side span chain (sample window → violation
        // → identification → decision); the executor appends amelioration
        // and recovery closes it on the victim's next in-spec sample.
        let at = victim.timestamp;
        let window_start = window_entry.unwrap_or(at);
        self.push_span(TraceSpan {
            trace: trace_id,
            stage: TraceStage::SampleWindow,
            start_us: window_start,
            end_us: at,
            detail: format!(
                "victim={} job={} flags={window_flags} in window",
                victim.task.0, victim.jobname
            ),
        });
        self.push_span(TraceSpan {
            trace: trace_id,
            stage: TraceStage::Violation,
            start_us: at,
            end_us: at,
            detail: format!(
                "cpi={:.3} threshold={:.3} sigma={sigma:.1}",
                victim.cpi, cthreshold
            ),
        });
        self.push_span(TraceSpan {
            trace: trace_id,
            stage: TraceStage::Identification,
            start_us: at,
            end_us: at,
            detail: match top.first() {
                Some(s) => format!(
                    "backend={} suspects={} top={}@{:.3}",
                    kind.name(),
                    top.len(),
                    s.jobname,
                    s.confidence
                ),
                None => format!("backend={} suspects=0", kind.name()),
            },
        });
        self.push_span(TraceSpan {
            trace: trace_id,
            stage: TraceStage::Decision,
            start_us: at,
            end_us: at,
            detail: match &action {
                IncidentAction::HardCap {
                    target_job,
                    cpu_rate,
                    ..
                } => format!("hard_cap target={target_job} rate={cpu_rate}"),
                IncidentAction::None { reason } => format!("none reason={reason}"),
            },
        });
        self.open_traces.insert(victim.task, trace_id);

        self.incidents.push(Incident {
            at: victim.timestamp,
            victim: victim.task,
            victim_job: Name::clone(&victim.jobname),
            victim_cpi: victim.cpi,
            cthreshold,
            suspects: top,
            action,
            identifier: kind,
            trace_id,
        });
        command
    }

    /// §4.2's alignment slack, half a sampling period: a victim row pairs
    /// with the suspect row nearest it when that row is at most this far.
    fn tolerance_us(&self) -> i64 {
        self.config.sampling_period_s * 1_000_000 / 2
    }

    /// How far a task's history reaches back from its newest row: the
    /// correlation window an analysis reads, plus `Agent::tolerance_us`
    /// for the suspect rows its oldest victim row can pair with.
    fn history_horizon_us(&self) -> i64 {
        self.config.correlation_window_s * 1_000_000 + self.tolerance_us()
    }

    /// Appends a span to the pending buffer and mirrors it into the
    /// telemetry event ring.
    fn push_span(&mut self, span: TraceSpan) {
        self.metrics.telemetry.event("trace", || span.event_line());
        self.trace_spans.push(span);
    }

    /// Computes the §4.2 correlation between a specific victim and suspect
    /// over the victim's retained history — its last correlation window
    /// plus half a sampling period — aligned whole against the suspect's:
    /// the operator-facing "why did you pick this one" query. `None` when
    /// either task is unknown or the aligned window carries no usable
    /// signal (empty, constant CPI, non-finite samples, zero usage).
    pub fn correlation_between(
        &self,
        victim: TaskHandle,
        suspect: TaskHandle,
        cthreshold: f64,
    ) -> Option<f64> {
        let v = self.tasks.get(&victim)?;
        let s = self.tasks.get(&suspect)?;
        let tolerance = self.tolerance_us();
        let pairs = v.history.cpi().align(s.history.usage(), tolerance);
        antagonist_correlation(&pairs, cthreshold)
    }

    /// How many (victim job, suspect job) evidence pairs the PANDA
    /// identifier currently tracks (0 under the paper backend). Exposed
    /// for state-bound monitoring and the chaos suite.
    pub fn evidence_pairs(&self) -> usize {
        self.evidence.pairs_tracked()
    }
}

#[cfg(test)]
impl Agent {
    /// The invariant the live path rests on: every resident task's
    /// resolved numbers equal a fresh keyed lookup. Here, not beside the
    /// reference's worlds that call it, because it reads private tables.
    pub(crate) fn assert_detect_specs_resolved(&self) {
        for (handle, st) in self.tasks.iter() {
            let key = JobKey::new(&*st.jobname, &*st.platform);
            assert_eq!(
                st.detect_spec,
                DetectSpec::of(self.specs.get(&key.job, &key.platform)),
                "task {handle} ({key}) holds a stale resolution"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(job: &str, mean: f64, stddev: f64) -> CpiSpec {
        CpiSpec {
            jobname: job.into(),
            platforminfo: "westmere".into(),
            num_samples: 100_000,
            cpu_usage_mean: 1.0,
            cpi_mean: mean,
            cpi_stddev: stddev,
        }
    }

    fn sample(
        task: u64,
        job: &str,
        minute: i64,
        cpi: f64,
        usage: f64,
        class: TaskClass,
    ) -> CpiSample {
        CpiSample {
            task: TaskHandle(task),
            jobname: job.into(),
            platforminfo: "westmere".into(),
            timestamp: minute * 60_000_000,
            cpu_usage: usage,
            cpi,
            l3_mpki: 1.0,
            class,
        }
    }

    /// Builds the canonical scenario: a protected victim whose CPI tracks
    /// a batch antagonist's CPU usage.
    fn run_scenario(agent: &mut Agent, minutes: i64) -> Vec<AgentCommand> {
        let mut cmds = Vec::new();
        for m in 0..minutes {
            let antagonist_on = m % 2 == 1;
            let batch = vec![
                sample(
                    1,
                    "victim",
                    m,
                    if antagonist_on { 3.0 } else { 1.0 },
                    1.0,
                    TaskClass::latency_sensitive(),
                ),
                sample(
                    2,
                    "hog",
                    m,
                    1.8,
                    if antagonist_on { 6.0 } else { 0.0 },
                    TaskClass::batch(),
                ),
                sample(3, "quiet", m, 1.0, 0.5, TaskClass::batch()),
            ];
            cmds.extend(agent.ingest(&batch));
        }
        cmds
    }

    #[test]
    fn detects_and_caps_the_antagonist() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        let cmds = run_scenario(&mut agent, 12);
        assert!(!cmds.is_empty(), "expected a cap command");
        match &cmds[0] {
            AgentCommand::ApplyHardCap {
                target,
                target_job,
                cpu_rate,
                ..
            } => {
                assert_eq!(*target, TaskHandle(2));
                assert_eq!(&**target_job, "hog");
                assert_eq!(*cpu_rate, 0.1);
            }
        }
        let inc = agent.incidents().last().unwrap();
        assert!(inc.acted());
        assert_eq!(inc.top_suspect().unwrap().task, TaskHandle(2));
        assert!(inc.top_suspect().unwrap().correlation >= 0.35);
    }

    #[test]
    fn no_spec_no_detection() {
        let mut agent = Agent::new(Cpi2Config::default());
        let cmds = run_scenario(&mut agent, 12);
        assert!(cmds.is_empty());
        assert!(agent.incidents().is_empty());
    }

    #[test]
    fn unprotected_victim_reports_but_does_not_cap() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        let mut cmds = Vec::new();
        for m in 0..12 {
            let on = m % 2 == 1;
            cmds.extend(agent.ingest(&[
                sample(
                    1,
                    "victim",
                    m,
                    if on { 3.0 } else { 1.0 },
                    1.0,
                    TaskClass::batch(),
                ),
                sample(
                    2,
                    "hog",
                    m,
                    1.8,
                    if on { 6.0 } else { 0.0 },
                    TaskClass::batch(),
                ),
            ]));
        }
        assert!(cmds.is_empty());
        assert!(!agent.incidents().is_empty());
        assert!(!agent.incidents()[0].acted());
    }

    #[test]
    fn auto_throttle_off_reports_only() {
        let cfg = Cpi2Config {
            auto_throttle: false,
            ..Cpi2Config::default()
        };
        let mut agent = Agent::new(cfg);
        agent.install_spec(spec("victim", 1.0, 0.1));
        let cmds = run_scenario(&mut agent, 12);
        assert!(cmds.is_empty());
        assert!(agent.incidents().iter().any(|i| !i.acted()));
    }

    #[test]
    fn does_not_recap_active_target() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        let cmds = run_scenario(&mut agent, 8);
        let first_caps = cmds.len();
        assert!(first_caps >= 1);
        // Continue within the 5-minute cap window: no duplicate commands
        // for the same target.
        let more = run_scenario(&mut agent, 2);
        let until = match &cmds[0] {
            AgentCommand::ApplyHardCap { until, .. } => *until,
        };
        for c in &more {
            let AgentCommand::ApplyHardCap { until: u2, .. } = c;
            assert!(*u2 > until, "re-cap must be a later incident");
        }
    }

    #[test]
    fn uncorrelated_bystander_not_blamed() {
        // Case 3 shape: victim CPI fluctuates on its own; the co-resident
        // batch task's usage is constant — correlation stays low, no cap.
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        let mut cmds = Vec::new();
        for m in 0..12 {
            let self_inflicted = m % 2 == 1;
            cmds.extend(agent.ingest(&[
                sample(
                    1,
                    "victim",
                    m,
                    if self_inflicted { 3.0 } else { 1.0 },
                    1.0,
                    TaskClass::latency_sensitive(),
                ),
                sample(2, "steady", m, 1.8, 2.0, TaskClass::batch()),
            ]));
        }
        // A constant-usage suspect has usage mass on both high- and
        // low-CPI minutes; its §4.2 score lands well below 0.35.
        assert!(cmds.is_empty(), "steady bystander must not be capped");
        for inc in agent.incidents() {
            assert!(!inc.acted());
        }
    }

    #[test]
    fn low_usage_victim_ignored() {
        // Case 3 proper: high CPI only when usage is near zero.
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        for m in 0..12 {
            let idle = m % 2 == 1;
            agent.ingest(&[sample(
                1,
                "victim",
                m,
                if idle { 9.0 } else { 1.0 },
                if idle { 0.1 } else { 1.0 },
                TaskClass::latency_sensitive(),
            )]);
        }
        assert!(agent.incidents().is_empty());
    }

    #[test]
    fn correlation_between_exposed() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        run_scenario(&mut agent, 12);
        let c = agent
            .correlation_between(TaskHandle(1), TaskHandle(2), 1.2)
            .unwrap();
        assert!(c > 0.35, "c={c}");
        let c_quiet = agent
            .correlation_between(TaskHandle(1), TaskHandle(3), 1.2)
            .unwrap();
        assert!(c_quiet < c);
    }

    #[test]
    fn stale_spec_falls_back_to_conservative_sigma() {
        // TTL 1 h, spec published at t = 0, samples at t > 2 h.
        // CPI 1.25 violates 2σ (threshold 1.2) but not the stale 3σ
        // threshold (1.3): a drifted workload must not page.
        let cfg = Cpi2Config {
            spec_ttl_hours: 1,
            ..Cpi2Config::default()
        };
        let mut stale_agent = Agent::new(cfg.clone());
        stale_agent.install_spec_at(spec("victim", 1.0, 0.1), 0);
        let mut fresh_agent = Agent::new(cfg);
        fresh_agent.install_spec(spec("victim", 1.0, 0.1)); // never stale
        for m in 130..140 {
            for agent in [&mut stale_agent, &mut fresh_agent] {
                agent.ingest(&[sample(
                    1,
                    "victim",
                    m,
                    1.25,
                    1.0,
                    TaskClass::latency_sensitive(),
                )]);
            }
        }
        assert!(
            stale_agent.incidents().is_empty(),
            "stale spec must detect conservatively"
        );
        assert!(
            !fresh_agent.incidents().is_empty(),
            "the same samples violate the fresh 2σ threshold"
        );
    }

    #[test]
    fn stale_spec_still_catches_egregious_interference() {
        let tel = cpi2_telemetry::Telemetry::enabled();
        let cfg = Cpi2Config {
            spec_ttl_hours: 1,
            ..Cpi2Config::default()
        };
        let mut agent = Agent::new(cfg);
        agent.set_telemetry(&tel);
        agent.install_spec_at(spec("victim", 1.0, 0.1), 0);
        // CPI 3.0 clears even the 3σ stale threshold by a mile.
        let mut cmds = Vec::new();
        for m in 130..142 {
            let on = m % 2 == 1;
            cmds.extend(agent.ingest(&[
                sample(
                    1,
                    "victim",
                    m,
                    if on { 3.0 } else { 1.0 },
                    1.0,
                    TaskClass::latency_sensitive(),
                ),
                sample(
                    2,
                    "hog",
                    m,
                    1.8,
                    if on { 6.0 } else { 0.0 },
                    TaskClass::batch(),
                ),
            ]));
        }
        assert!(!cmds.is_empty(), "degraded mode must still cap");
        // Every detection decision on the victim's job was degraded.
        let text = tel.prometheus_text().unwrap();
        assert!(
            text.contains("cpi_agent_degraded_decisions_total"),
            "{text}"
        );
    }

    #[test]
    fn ttl_zero_disables_aging() {
        let cfg = Cpi2Config {
            spec_ttl_hours: 0,
            ..Cpi2Config::default()
        };
        let mut agent = Agent::new(cfg);
        agent.install_spec_at(spec("victim", 1.0, 0.1), 0);
        // Years later, the spec still detects at the normal 2σ threshold.
        for m in 1_000_000..1_000_010 {
            agent.ingest(&[sample(
                1,
                "victim",
                m,
                1.25,
                1.0,
                TaskClass::latency_sensitive(),
            )]);
        }
        assert!(!agent.incidents().is_empty());
    }

    #[test]
    fn reinstalling_an_old_spec_keeps_its_staleness_clock() {
        // The regression the publish-time design prevents: an agent
        // restart re-syncs the same old spec; its age must be measured
        // from pipeline publish, not from the re-install.
        let cfg = Cpi2Config {
            spec_ttl_hours: 1,
            ..Cpi2Config::default()
        };
        let mut agent = Agent::new(cfg);
        agent.install_spec_at(spec("victim", 1.0, 0.1), 0);
        assert_eq!(
            agent.spec_published_at(&JobKey::new("victim", "westmere")),
            Some(0)
        );
        // "Restart": a fresh agent re-syncs the same publish timestamp.
        let mut agent2 = Agent::new(Cpi2Config {
            spec_ttl_hours: 1,
            ..Cpi2Config::default()
        });
        agent2.install_spec_at(spec("victim", 1.0, 0.1), 0);
        for m in 130..140 {
            agent2.ingest(&[sample(
                1,
                "victim",
                m,
                1.25,
                1.0,
                TaskClass::latency_sensitive(),
            )]);
        }
        assert!(agent2.incidents().is_empty(), "age survives the restart");
        let _ = agent;
    }

    #[test]
    fn replayed_batch_counts_its_violation_once() {
        // A restarted collector re-ships minute 0 twice more. One real
        // over-threshold minute is one violation, not three: no incident
        // before the third *distinct* violating minute (§4.1).
        let minute = |m: i64| {
            vec![
                sample(1, "victim", m, 3.0, 1.0, TaskClass::latency_sensitive()),
                sample(2, "hog", m, 1.8, 6.0, TaskClass::batch()),
            ]
        };
        let mut replayed = Agent::new(Cpi2Config::default());
        replayed.install_spec(spec("victim", 1.0, 0.1));
        let mut clean = Agent::new(Cpi2Config::default());
        clean.install_spec(spec("victim", 1.0, 0.1));

        assert!(clean.ingest(&minute(0)).is_empty());
        for _ in 0..3 {
            assert!(replayed.ingest(&minute(0)).is_empty());
        }
        assert_eq!(
            replayed
                .tasks
                .get(&TaskHandle(1))
                .unwrap()
                .detector
                .flag_count(),
            1
        );
        assert!(replayed.incidents().is_empty());

        // From here on the replayed agent is indistinguishable from one
        // that saw each minute once: the incident fires at minute 2.
        for m in 1..4 {
            assert_eq!(replayed.ingest(&minute(m)), clean.ingest(&minute(m)));
            assert_eq!(replayed.incidents(), clean.incidents());
            assert_eq!(replayed.incidents().is_empty(), m < 2, "minute {m}");
        }
    }

    #[test]
    fn a_lagging_replay_does_not_evict_its_resident_task() {
        // Victim A is flagged at minutes 28 and 29. Then one batch carries
        // a replay of A's minute-5 sample beside B's fresh minute-30 one:
        // 25 minutes apart, more than the two correlation windows after
        // which a task counts as gone.
        let a = |m: i64, cpi: f64| sample(1, "victim", m, cpi, 1.0, TaskClass::latency_sensitive());
        let b = |m: i64| sample(2, "hog", m, 1.8, 1.0, TaskClass::batch());
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        for m in 0..30 {
            agent.ingest(&[a(m, if m < 28 { 1.0 } else { 3.0 }), b(m)]);
        }
        agent.ingest(&[a(5, 1.0), b(30)]);
        let flags = agent
            .tasks
            .get(&TaskHandle(1))
            .map(|st| st.detector.flag_count());
        assert_eq!(flags, Some(2), "A stays resident with its violation window");

        // A's next violation is its third in five minutes.
        agent.ingest(&[a(31, 3.0), b(31)]);
        let at: Vec<i64> = agent.incidents().iter().map(|i| i.at).collect();
        assert_eq!(at, [31 * 60_000_000]);
    }

    #[test]
    fn take_incidents_drains() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec("victim", 1.0, 0.1));
        run_scenario(&mut agent, 12);
        let n = agent.incidents().len();
        assert!(n > 0);
        let taken = agent.take_incidents();
        assert_eq!(taken.len(), n);
        assert!(agent.incidents().is_empty());
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::sample::TaskClass;

    fn spec() -> CpiSpec {
        CpiSpec {
            jobname: "victim".into(),
            platforminfo: "westmere".into(),
            num_samples: 100_000,
            cpu_usage_mean: 1.0,
            cpi_mean: 1.0,
            cpi_stddev: 0.1,
        }
    }

    fn sample(
        task: u64,
        job: &str,
        minute: i64,
        cpi: f64,
        usage: f64,
        class: TaskClass,
    ) -> CpiSample {
        CpiSample {
            task: TaskHandle(task),
            jobname: job.into(),
            platforminfo: "westmere".into(),
            timestamp: minute * 60_000_000,
            cpu_usage: usage,
            cpi,
            l3_mpki: 1.0,
            class,
        }
    }

    /// One minute of the canonical victim/antagonist pattern.
    fn minute(agent: &mut Agent, m: i64) -> Vec<AgentCommand> {
        let on = m % 2 == 1;
        agent.ingest(&[
            sample(
                1,
                "victim",
                m,
                if on { 3.0 } else { 1.0 },
                1.0,
                TaskClass::latency_sensitive(),
            ),
            sample(
                2,
                "hog",
                m,
                1.8,
                if on { 6.0 } else { 0.0 },
                TaskClass::batch(),
            ),
        ])
    }

    #[test]
    fn restart_preserves_violation_window_and_history() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec());
        // Run up to just before the anomaly would fire.
        let mut fired = Vec::new();
        let mut m = 0;
        while fired.is_empty() && m < 4 {
            fired = minute(&mut agent, m);
            m += 1;
        }
        // Back up one pattern: rebuild and stop two minutes earlier.
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec());
        for i in 0..4 {
            assert!(minute(&mut agent, i).is_empty(), "too early at {i}");
        }

        // Daemon restart mid-window.
        let blob = agent.checkpoint().unwrap();
        let mut restored = Agent::restore(&blob).unwrap();

        // The restored agent continues exactly where the old one was:
        // it caps within the next few minutes, with full 10-minute history
        // behind the correlation.
        let mut commands = Vec::new();
        for i in 4..12 {
            commands.extend(minute(&mut restored, i));
        }
        assert!(!commands.is_empty(), "restored agent must still detect");
        let inc = restored.incidents().last().unwrap();
        assert_eq!(&*inc.top_suspect().unwrap().jobname, "hog");
        assert!(inc.top_suspect().unwrap().correlation >= 0.35);

        // A fresh agent given only the post-restart minutes would know
        // less history; the checkpoint is what preserved the spec too.
        assert!(restored.spec(&JobKey::new("victim", "westmere")).is_some());
    }

    #[test]
    fn checkpoint_roundtrip_preserves_caps() {
        let mut agent = Agent::new(Cpi2Config::default());
        agent.install_spec(spec());
        // The cap fires at minute 5 and expires at minute 10; checkpoint
        // at minute 8 while it is live.
        for m in 0..8 {
            minute(&mut agent, m);
        }
        let caps_before = agent.active_caps.clone();
        assert!(
            caps_before.iter().next().is_some(),
            "scenario should have capped"
        );
        let blob = agent.checkpoint().unwrap();
        let restored = Agent::restore(&blob).unwrap();
        assert_eq!(restored.active_caps, caps_before);
        assert_eq!(restored.incidents().len(), agent.incidents().len());
        // Every map comes back entry for entry: the blob is a fixed point.
        assert_eq!(restored.checkpoint().unwrap(), blob);
    }

    /// A map restores as a `BTreeMap` collected from the same pairs would:
    /// sorted, and of a repeated key the last value.
    #[test]
    fn sorted_map_restores_in_key_order_whatever_the_blob_holds() {
        let restored: SortedMap<u32, String> =
            serde_json::from_str(r#"[[3,"c"],[1,"a"],[3,"d"],[2,"b"]]"#).unwrap();
        let entries: Vec<(u32, &str)> = restored.iter().map(|(k, v)| (*k, v.as_str())).collect();
        assert_eq!(entries, [(1, "a"), (2, "b"), (3, "d")]);
        assert_eq!(
            serde_json::to_string(&restored).unwrap(),
            r#"[[1,"a"],[2,"b"],[3,"d"]]"#
        );
        let mut grown = SortedMap::default();
        for key in [5u32, 1, 9, 3, 1] {
            let (value, new) = grown.get_or_default(key).unwrap();
            assert_eq!(new, *value == 0u32);
            *value += key;
        }
        grown.insert(4, 40);
        grown.insert(9, 90);
        assert_eq!(grown.remove(&5), Some(5));
        grown.retain(|k, _| *k != 3);
        let entries: Vec<(u32, u32)> = grown.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(entries, [(1, 2), (4, 40), (9, 90)]);
        assert!(grown.contains_key(&4) && !grown.contains_key(&5));
    }
}
