//! The `ingest` this crate shipped before detection resolved a task's
//! spec on write — every sample clones its job and platform into the
//! task, builds a `JobKey` per map lookup and clones the matched spec —
//! kept, test-only, as the reference the live `ingest` must match
//! command for command, incident for incident and span for span.
//!
//! One deliberate departure from that code: the reference skips
//! detection for a sample that did not advance its task's history (the
//! replayed-batch fix), decided its own way — a per-batch flag from the
//! history loop — so replayed streams can be compared too.
//!
//! The reference takes the history horizon as an argument. Run at the
//! live one (`Agent::history_horizon_us`), it must match over streams
//! whose batches spread their timestamps over up to two minutes. Run at
//! two correlation windows, further back than any analysis reads, it must
//! still match over batches that each carry one timestamp, in time
//! order: the input shape `Agent::ingest` answers as a two-window
//! history would.
//!
//! The reference counts a degraded decision *before* it finds the
//! sample's task evicted (a sample two correlation windows older than its
//! own batch's newest); the live path, whose resolved spec lives on the
//! task, cannot and does not.

// Redundant with the parent's `#[cfg(test)] mod oracle;` for rustc; it is
// what tells `cpi2-lint`, which reads one file at a time, that none of
// this ships.
#![cfg(test)]

use super::*;
use proptest::prelude::*;

impl Agent {
    fn ingest_reference(&mut self, samples: &[CpiSample], horizon_us: i64) -> Vec<AgentCommand> {
        let mut commands = Vec::new();
        let window_us = self.config.correlation_window_s * 1_000_000;
        self.metrics.samples.add(samples.len() as u64);

        let mut advanced = Vec::with_capacity(samples.len());
        for s in samples {
            let (st, _) = self.tasks.get_or_default(s.task).unwrap();
            st.jobname = s.jobname.clone();
            st.platform = s.platforminfo.clone();
            st.class = s.class;
            st.last_seen = st.last_seen.max(s.timestamp);
            let advances = match st.history.last_t() {
                Some(t) => t < s.timestamp,
                None => true,
            };
            advanced.push(advances);
            if advances {
                st.history.push(s.timestamp, s.cpi, s.cpu_usage);
            }
            st.history.evict_before(s.timestamp - horizon_us);
        }

        if let Some(&newest) = samples.iter().map(|s| &s.timestamp).max() {
            self.tasks
                .retain(|_, st| st.last_seen > newest - 2 * window_us);
            let tasks = &self.tasks;
            self.open_traces.retain(|t, _| tasks.contains_key(t));
            self.active_caps.retain(|_, &mut until| until > newest);
            let cooldown_us = self.config.incident_cooldown_s * 1_000_000;
            self.last_incident
                .retain(|_, &mut t| t > newest - 2 * cooldown_us);
        }

        for (s, advanced) in samples.iter().zip(advanced) {
            if !advanced {
                continue;
            }
            let key = s.key();
            let Some(entry) = self.specs.get(&key.job, &key.platform) else {
                continue;
            };
            if !entry.spec.robust() || entry.spec.cpi_stddev <= 0.0 {
                continue;
            }
            let spec = CpiSpec::clone(&entry.spec);
            let ttl_us = self.config.spec_ttl_hours * 3_600 * 1_000_000;
            let published_at = self
                .specs
                .get(&key.job, &key.platform)
                .map_or(i64::MAX, |e| e.published_at);
            let stale = ttl_us > 0 && s.timestamp.saturating_sub(published_at) > ttl_us;
            let sigma = if stale {
                self.metrics.degraded_stale_spec.inc();
                self.config
                    .stale_outlier_sigma
                    .max(self.config.outlier_sigma)
            } else {
                self.config.outlier_sigma
            };
            let Some(st) = self.tasks.get_mut(&s.task) else {
                continue;
            };
            let threshold = spec.outlier_threshold(sigma);
            let verdict = st.detector.observe(s, threshold, &self.config);
            if matches!(verdict, Verdict::Flagged | Verdict::Anomalous) {
                self.metrics.violations.inc();
            }
            if verdict == Verdict::Normal {
                if let Some(trace) = self.open_traces.remove(&s.task) {
                    let span = TraceSpan {
                        trace,
                        stage: TraceStage::Recovery,
                        start_us: s.timestamp,
                        end_us: s.timestamp,
                        detail: format!(
                            "victim={} job={} cpi={:.3} back under threshold={:.3}",
                            s.task.0,
                            s.jobname,
                            s.cpi,
                            spec.outlier_threshold(sigma)
                        ),
                    };
                    self.metrics.telemetry.event("trace", || span.event_line());
                    self.trace_spans.push(span);
                }
            }
            let window_entry = st.detector.first_flag_at();
            if verdict != Verdict::Anomalous {
                continue;
            }
            if let Some(&last) = self.last_incident.get(&s.task) {
                if s.timestamp - last < self.config.incident_cooldown_s * 1_000_000 {
                    continue;
                }
            }
            if s.timestamp - self.last_analysis < self.config.analysis_interval_s * 1_000_000 {
                continue;
            }
            self.last_analysis = s.timestamp;
            if let Some(entry) = window_entry {
                self.metrics
                    .detection_latency_us
                    .record((s.timestamp - entry) as f64);
            }
            let cthreshold = spec.outlier_threshold(sigma);
            if let Some(cmd) = self.analyze(s, cthreshold, window_us, sigma, window_entry) {
                commands.push(cmd);
            }
        }
        commands
    }

    /// The invariant the live path rests on: every resident task's
    /// resolved numbers equal a fresh keyed lookup.
    fn assert_detect_specs_resolved(&self) {
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

const JOBS: [&str; 4] = ["victim", "svc", "hog", "batch"];
const PLATFORMS: [&str; 2] = ["westmere", "sandybridge"];
const HANDLES: usize = 6;
const MINUTE_US: i64 = 60_000_000;

/// One generated step: `(kind, a, b, x, bits)`, read by [`World::step`].
type Op = (u8, u8, u8, f64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..16u8, 0..6u8, 0..8u8, 0.0..1.0f64, any::<u64>()),
        40..160,
    )
}

enum Step {
    Install(CpiSpec, i64),
    Ingest(Vec<CpiSample>),
}

/// The machine the generated stream describes: six task handles, each
/// bound to a job × platform, and a clock in minutes.
struct World {
    now_min: i64,
    bound: [(usize, usize); HANDLES],
    last_batch: Vec<CpiSample>,
    /// Whether a sample may lag its batch's instant by a minute or two.
    lagging: bool,
}

impl World {
    fn new() -> World {
        World {
            // Late enough that "published three hours ago" is positive.
            now_min: 600,
            bound: [(0, 0), (2, 0), (1, 0), (3, 0), (0, 1), (2, 1)],
            last_batch: Vec::new(),
            lagging: true,
        }
    }

    /// A world whose every batch carries one timestamp, each no earlier
    /// than the last.
    fn in_time_order() -> World {
        World {
            lagging: false,
            ..World::new()
        }
    }

    fn step(&mut self, (kind, a, b, x, bits): Op) -> Step {
        match kind {
            // A replayed shipment: the previous batch again, clock unmoved.
            9 => Step::Ingest(self.last_batch.clone()),
            // A spec installed, replaced or made non-robust between
            // batches; a job with no spec gaining one.
            10 | 11 => {
                let (num_samples, cpi_mean, cpi_stddev) = match bits % 5 {
                    0 | 1 => (100_000, 1.0, 0.1),
                    2 => (50_000, 1.1, 0.12),
                    3 => (0, 1.0, 0.1),
                    _ => (100_000, 1.0, 0.0),
                };
                let spec = CpiSpec {
                    jobname: JOBS[a as usize % JOBS.len()].into(),
                    platforminfo: PLATFORMS[b as usize % PLATFORMS.len()].into(),
                    num_samples,
                    cpu_usage_mean: 1.0,
                    cpi_mean,
                    cpi_stddev,
                };
                let now_us = self.now_min * MINUTE_US;
                // TTL is one hour: never stale / fresh / crossing the TTL
                // two minutes from now / already stale.
                let published_at = match (x * 10.0) as u32 {
                    0..=2 => i64::MAX,
                    3..=5 => now_us,
                    6..=7 => now_us - 58 * MINUTE_US,
                    _ => now_us - 180 * MINUTE_US,
                };
                Step::Install(spec, published_at)
            }
            // A task handle reused by a different job or platform.
            12 => {
                self.bound[a as usize % HANDLES] = (b as usize % JOBS.len(), (bits % 2) as usize);
                self.batch(bits >> 1)
            }
            // Longer than two correlation windows: whoever sits the next
            // batch out is evicted and returns as a fresh task.
            13 => {
                self.now_min += 25;
                self.batch(bits)
            }
            // Longer than the spec TTL.
            14 => {
                self.now_min += 61;
                self.batch(bits)
            }
            _ => self.batch(bits),
        }
    }

    /// One sampling instant: a victim job's CPI is high exactly while the
    /// antagonist jobs are busy, so violations correlate and caps fire.
    fn batch(&mut self, bits: u64) -> Step {
        let antagonist_on = bits & 1 == 1;
        let mut batch = Vec::new();
        for (h, &(job, platform)) in self.bound.iter().enumerate() {
            let dice = bits >> (1 + 8 * h);
            if dice & 3 == 0 {
                continue; // absent from this batch
            }
            // Most samples carry the batch instant; a few lag it.
            let lag_min = if self.lagging {
                [0, 0, 0, 1, 2, 0, 0, 0][(dice >> 2) as usize & 7]
            } else {
                0
            };
            let victim = job < 2;
            let (cpi, cpu_usage) = match (victim, antagonist_on) {
                // 1.25 sits between the 2σ and the stale 3σ threshold.
                (true, true) => ([3.0, 1.25, 2.0, 3.0][(dice >> 5) as usize & 3], 1.0),
                (true, false) => (1.0, if dice & 4 == 0 { 0.1 } else { 1.0 }),
                (false, true) => (1.8, 6.0),
                (false, false) => (1.8, 0.0),
            };
            batch.push(CpiSample {
                task: TaskHandle(h as u64 + 1),
                jobname: JOBS[job].into(),
                platforminfo: PLATFORMS[platform].into(),
                timestamp: (self.now_min - lag_min) * MINUTE_US,
                cpu_usage,
                cpi,
                l3_mpki: 1.0,
                class: match job {
                    0 => TaskClass::latency_sensitive(),
                    3 => TaskClass::best_effort(),
                    _ => TaskClass::batch(),
                },
            });
        }
        self.now_min += 1;
        self.last_batch.clone_from(&batch);
        Step::Ingest(batch)
    }
}

fn config() -> Cpi2Config {
    Cpi2Config {
        spec_ttl_hours: 1,
        ..Cpi2Config::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ingest_matches_the_per_sample_lookup_reference(ops in ops()) {
        let (live_tel, reference_tel) = (Telemetry::enabled(), Telemetry::enabled());
        let mut live = Agent::new(config());
        live.set_telemetry(&live_tel);
        let mut reference = Agent::new(config());
        reference.set_telemetry(&reference_tel);
        let mut world = World::new();
        for op in ops {
            match world.step(op) {
                Step::Install(spec, published_at) => {
                    live.install_spec_at(spec.clone(), published_at);
                    reference.install_spec_at(spec, published_at);
                }
                Step::Ingest(batch) => {
                    let horizon_us = reference.history_horizon_us();
                    prop_assert_eq!(
                        live.ingest(&batch),
                        reference.ingest_reference(&batch, horizon_us)
                    );
                    prop_assert_eq!(live.take_incidents(), reference.take_incidents());
                    prop_assert_eq!(live.take_trace_spans(), reference.take_trace_spans());
                }
            }
            live.assert_detect_specs_resolved();
        }
        // Counters too: samples, violations, degraded decisions,
        // incidents by action, detection latency.
        prop_assert_eq!(live_tel.prometheus_text(), reference_tel.prometheus_text());
    }

    #[test]
    fn restore_at_any_batch_boundary_continues_identically(ops in ops(), cut in 0..160usize) {
        let mut straight = Agent::new(config());
        let mut restarted = Agent::new(config());
        let mut world = World::new();
        let cut = cut % ops.len();
        for (i, op) in ops.into_iter().enumerate() {
            if i == cut {
                let blob = restarted.checkpoint().expect("agent state serializes");
                restarted = Agent::restore(&blob).expect("own checkpoint restores");
                restarted.assert_detect_specs_resolved();
            }
            match world.step(op) {
                Step::Install(spec, published_at) => {
                    straight.install_spec_at(spec.clone(), published_at);
                    restarted.install_spec_at(spec, published_at);
                }
                Step::Ingest(batch) => {
                    prop_assert_eq!(straight.ingest(&batch), restarted.ingest(&batch));
                    prop_assert_eq!(straight.take_incidents(), restarted.take_incidents());
                    prop_assert_eq!(straight.take_trace_spans(), restarted.take_trace_spans());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Histories cut to one window plus the alignment tolerance answer
    /// one-timestamp batches in time order as two windows did: the same
    /// commands, incidents to the bit and trace spans.
    #[test]
    fn one_window_answers_in_order_batches_as_two_windows_did(ops in ops()) {
        let mut live = Agent::new(config());
        let mut reference = Agent::new(config());
        let two_windows_us = 2 * config().correlation_window_s * 1_000_000;
        let mut world = World::in_time_order();
        for op in ops {
            match world.step(op) {
                Step::Install(spec, published_at) => {
                    live.install_spec_at(spec.clone(), published_at);
                    reference.install_spec_at(spec, published_at);
                }
                Step::Ingest(batch) => {
                    prop_assert_eq!(
                        live.ingest(&batch),
                        reference.ingest_reference(&batch, two_windows_us)
                    );
                    // As JSON, which writes each float's exact value.
                    prop_assert_eq!(
                        serde_json::to_string(&live.take_incidents()).unwrap(),
                        serde_json::to_string(&reference.take_incidents()).unwrap()
                    );
                    prop_assert_eq!(live.take_trace_spans(), reference.take_trace_spans());
                }
            }
        }
    }
}
