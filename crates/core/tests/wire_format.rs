//! The JSON of a sample, a counter reading, an agent checkpoint and an
//! incident log, byte for byte as written while job and platform names
//! and no-action reasons were owned `String`s: sharing the names (as
//! `Arc<str>`, then as one-pointer `Name`s) and naming the reasons by
//! variant changed no byte on the wire, and what was written then reads
//! now. A counter reading is the one record whose bytes moved: it lost
//! five fields nothing read, and what it wrote with them still reads.

use cpi2_core::{
    Agent, Cpi2Config, CpiSample, CpiSpec, IdentifierKind, Incident, IncidentAction,
    NoActionReason, Suspect, TaskClass, TaskHandle, TraceId,
};
use cpi2_perf::CounterReading;
use cpi2_sim::{JobId, SimTime, TaskId};

const SAMPLE: &str = r#"{"task":7,"jobname":"websearch","platforminfo":"westmere-2.6GHz","timestamp":180000000,"cpu_usage":2.0,"cpi":1.75,"l3_mpki":1.5,"class":{"latency_sensitive":true,"best_effort":false,"protected":true}}"#;

/// A reading as written while it also carried its window, instructions,
/// L2 MPKI, memory lines per cycle and counter-switch overhead: read only.
const READING_WITH_UNREAD_FIELDS: &str = r#"{"task":{"job":4,"index":2},"job_name":"video","platform":"sandybridge-2.2GHz","timestamp":70000000,"window":10000000,"cpu_usage":0.5,"cpi":1.25,"instructions":2000000000.0,"l3_mpki":3.0,"l2_mpki":6.5,"mem_lines_per_cycle":0.002,"overhead_us":40.0}"#;

/// The same reading as written now: the §3.1 record plus L3 MPKI.
const READING: &str = r#"{"task":{"job":4,"index":2},"job_name":"video","platform":"sandybridge-2.2GHz","timestamp":70000000,"cpu_usage":0.5,"cpi":1.25,"l3_mpki":3.0}"#;

/// Seven minutes of the victim/antagonist pattern below: two tasks'
/// histories, one spec, one hard-cap incident with its ranked suspects
/// and its trace spans.
const CHECKPOINT: &str = include_str!("fixtures/agent_checkpoint.json");

/// The same pattern for 25 minutes: each task's histories hold the 21
/// points of the last two correlation windows, and two incidents.
const EVICTED_CHECKPOINT: &str = include_str!("fixtures/agent_checkpoint_evicted.json");

/// The 25-minute pattern under the PANDA identifier, written while each
/// evidence record also carried a `weight` (always 1.0 here).
const PANDA_CHECKPOINT: &str = include_str!("fixtures/agent_checkpoint_panda.json");

fn sample(task: u64, job: &str, minute: i64, cpi: f64, usage: f64, class: TaskClass) -> CpiSample {
    CpiSample {
        task: TaskHandle(task),
        jobname: job.into(),
        platforminfo: "westmere-2.6GHz".into(),
        timestamp: minute * 60_000_000,
        cpu_usage: usage,
        cpi,
        l3_mpki: 1.5,
        class,
    }
}

#[test]
fn a_sample_reads_and_writes_as_before() {
    let s = sample(7, "websearch", 3, 1.75, 2.0, TaskClass::latency_sensitive());
    assert_eq!(serde_json::to_string(&s).unwrap(), SAMPLE);
    assert_eq!(serde_json::from_str::<CpiSample>(SAMPLE).unwrap(), s);
}

fn reading() -> CounterReading {
    CounterReading {
        task: TaskId {
            job: JobId(4),
            index: 2,
        },
        job_name: "video".into(),
        platform: "sandybridge-2.2GHz".into(),
        timestamp: SimTime::from_secs(70),
        cpu_usage: 0.5,
        cpi: Some(1.25),
        l3_mpki: 3.0,
    }
}

#[test]
fn a_counter_reading_reads_and_writes_as_the_record() {
    let r = reading();
    assert_eq!(serde_json::to_string(&r).unwrap(), READING);
    assert_eq!(serde_json::from_str::<CounterReading>(READING).unwrap(), r);
}

#[test]
fn a_counter_reading_written_with_its_unread_fields_still_reads() {
    let r = serde_json::from_str::<CounterReading>(READING_WITH_UNREAD_FIELDS).unwrap();
    assert_eq!(r, reading());
}

/// An agent after `minutes` of the victim/antagonist pattern, with one
/// spec installed.
fn agent_after(minutes: i64) -> Agent {
    agent_with(IdentifierKind::Paper, minutes)
}

fn agent_with(identifier: IdentifierKind, minutes: i64) -> Agent {
    let mut agent = Agent::new(Cpi2Config {
        identifier,
        ..Cpi2Config::default()
    });
    agent.install_spec(CpiSpec {
        jobname: "victim".into(),
        platforminfo: "westmere-2.6GHz".into(),
        num_samples: 100_000,
        cpu_usage_mean: 1.0,
        cpi_mean: 1.0,
        cpi_stddev: 0.1,
    });
    for m in 0..minutes {
        let on = m % 2 == 1;
        let victim_cpi = if on { 3.0 } else { 1.0 };
        let hog_usage = if on { 6.0 } else { 0.0 };
        agent.ingest(&[
            sample(
                1,
                "victim",
                m,
                victim_cpi,
                1.0,
                TaskClass::latency_sensitive(),
            ),
            sample(2, "hog", m, 1.8, hog_usage, TaskClass::batch()),
        ]);
    }
    agent
}

#[test]
fn an_agent_checkpoint_reads_and_writes_as_before() {
    let agent = agent_after(7);
    assert_eq!(agent.incidents().len(), 1);
    assert_eq!(agent.checkpoint().unwrap(), CHECKPOINT);
    let restored = Agent::restore(CHECKPOINT).unwrap();
    assert_eq!(restored.incidents(), agent.incidents());
    assert_eq!(restored.checkpoint().unwrap(), CHECKPOINT);
}

/// Past two correlation windows every history has evicted its oldest
/// points: what a checkpoint holds of a series is its live points alone.
#[test]
fn a_checkpoint_after_evictions_reads_and_writes_as_before() {
    let agent = agent_after(25);
    assert_eq!(agent.checkpoint().unwrap(), EVICTED_CHECKPOINT);
    let restored = Agent::restore(EVICTED_CHECKPOINT).unwrap();
    assert_eq!(restored.incidents(), agent.incidents());
    assert_eq!(restored.checkpoint().unwrap(), EVICTED_CHECKPOINT);
}

/// A warmed agent on a dense machine: 57 specs (32 published hourly, the
/// rest untimestamped; every fifth not robust), 25 tasks for 40 minutes
/// of the victim/antagonist pattern beside 23 steady neighbours.
const WARM_CHECKPOINT: &str = include_str!("fixtures/agent_checkpoint_warm.json");

fn warm_agent() -> Agent {
    let mut agent = Agent::new(Cpi2Config::default());
    for j in 0..57i64 {
        let spec = CpiSpec {
            jobname: format!("job-{j:02}"),
            platforminfo: "westmere-2.6GHz".into(),
            num_samples: if j % 5 == 4 { 0 } else { 1_000 + j },
            cpu_usage_mean: 0.5 + j as f64 / 64.0,
            cpi_mean: 1.0 + j as f64 / 32.0,
            cpi_stddev: 0.1 + j as f64 / 256.0,
        };
        if j < 32 {
            agent.install_spec_at(spec, j * 3_600_000_000);
        } else {
            agent.install_spec(spec);
        }
    }
    for m in 0..40 {
        let on = m % 2 == 1;
        let batch: Vec<CpiSample> = (0..25u64)
            .map(|t| {
                let job = format!("job-{t:02}");
                match t {
                    0 => sample(
                        t,
                        &job,
                        m,
                        if on { 3.0 } else { 1.0 },
                        1.0,
                        TaskClass::latency_sensitive(),
                    ),
                    1 => sample(
                        t,
                        &job,
                        m,
                        1.8,
                        if on { 6.0 } else { 0.0 },
                        TaskClass::batch(),
                    ),
                    _ => {
                        let wobble = ((m + t as i64) % 7) as f64 / 16.0;
                        sample(t, &job, m, 1.0 + wobble, 0.5 + wobble, TaskClass::batch())
                    }
                }
            })
            .collect();
        agent.ingest(&batch);
    }
    agent
}

/// A checkpoint of a warmed 25-task agent holding 57 specs restores and
/// re-serialises byte for byte, and the same stream writes it today.
#[test]
fn a_warm_dense_checkpoint_reads_and_writes_as_before() {
    let agent = warm_agent();
    assert!(!agent.incidents().is_empty());
    assert_eq!(agent.checkpoint().unwrap(), WARM_CHECKPOINT);
    let restored = Agent::restore(WARM_CHECKPOINT).unwrap();
    assert_eq!(restored.incidents(), agent.incidents());
    assert_eq!(restored.checkpoint().unwrap(), WARM_CHECKPOINT);
}

/// `blob` without its `"weight":<number>,` entries.
fn without_weights(blob: &str) -> String {
    let mut out = String::with_capacity(blob.len());
    let mut rest = blob;
    while let Some(at) = rest.find("\"weight\":") {
        out.push_str(&rest[..at]);
        let after = &rest[at..];
        rest = &after[after.find(',').expect("a weight precedes the correlation") + 1..];
    }
    out.push_str(rest);
    out
}

/// The checkpoint's `"evidence":{…}` member.
fn evidence_of(blob: &str) -> &str {
    let start = blob.find("\"evidence\":").expect("an evidence book");
    let end = blob[start..]
        .find(",\"trace_spans\"")
        .expect("trace spans follow");
    &blob[start..start + end]
}

/// Evidence records lost their `weight`; a checkpoint that still has one
/// restores with every pair and correlation, and all else, intact.
#[test]
fn a_panda_checkpoint_with_weighted_evidence_restores() {
    let restored = Agent::restore(PANDA_CHECKPOINT).unwrap();
    assert_eq!(restored.config().identifier, IdentifierKind::Panda);
    assert_eq!(restored.incidents().len(), 2);
    assert_eq!(restored.evidence_pairs(), 1);
    let written = restored.checkpoint().unwrap();
    assert_eq!(written, without_weights(PANDA_CHECKPOINT));
    // The same stream today accumulates the same evidence.
    let fresh = agent_with(IdentifierKind::Panda, 25).checkpoint().unwrap();
    assert_eq!(evidence_of(&written), evidence_of(&fresh));
}

/// One incident per action, a line each: a hard cap, then every sentence
/// a no-action incident carries, PANDA's "confidence ≥" included.
const INCIDENT_LOG: &str = include_str!("fixtures/incident_log.jsonl");

fn incident(at: i64, identifier: IdentifierKind, action: IncidentAction) -> Incident {
    let suspect = |task, jobname: &str, class, correlation| Suspect {
        task: TaskHandle(task),
        jobname: jobname.into(),
        class,
        correlation,
        confidence: correlation,
    };
    Incident {
        at,
        victim: TaskHandle(1),
        victim_job: "victim".into(),
        victim_cpi: 3.0,
        cthreshold: 1.2,
        suspects: vec![
            suspect(9, "frontend", TaskClass::latency_sensitive(), 0.71),
            suspect(2, "hog", TaskClass::batch(), 0.52),
        ],
        action,
        identifier,
        trace_id: TraceId::derive(1, at),
    }
}

fn incident_log() -> Vec<Incident> {
    let none = |reason| IncidentAction::None { reason };
    let paper = IdentifierKind::Paper;
    vec![
        incident(
            60_000_000,
            paper,
            IncidentAction::HardCap {
                target: TaskHandle(2),
                target_job: "hog".into(),
                cpu_rate: 0.1,
                until: 360_000_000,
            },
        ),
        incident(
            120_000_000,
            paper,
            none(NoActionReason::TargetNotThrottleEligible),
        ),
        incident(
            180_000_000,
            paper,
            none(NoActionReason::NoCorrelatedSuspect { threshold: 0.35 }),
        ),
        incident(
            240_000_000,
            IdentifierKind::Panda,
            none(NoActionReason::NoConfidentSuspect { threshold: 0.12 }),
        ),
        incident(300_000_000, paper, none(NoActionReason::VictimNotProtected)),
        incident(
            360_000_000,
            paper,
            none(NoActionReason::AutoThrottleDisabled),
        ),
    ]
}

fn write_log(log: &[Incident]) -> String {
    log.iter()
        .map(|inc| serde_json::to_string(inc).unwrap() + "\n")
        .collect()
}

fn read_log(text: &str) -> Vec<Incident> {
    text.lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect()
}

#[test]
fn an_incident_log_of_every_action_reads_and_writes_as_before() {
    let log = incident_log();
    assert_eq!(write_log(&log), INCIDENT_LOG);
    let read = read_log(INCIDENT_LOG);
    assert_eq!(read, log);
    assert_eq!(write_log(&read), INCIDENT_LOG);
}

/// A sentence this version does not write reads back as it was.
#[test]
fn an_incident_with_an_unknown_reason_reads_and_writes_as_before() {
    let old = INCIDENT_LOG
        .lines()
        .last()
        .unwrap()
        .replace("auto-throttle disabled", "no suspect above threshold");
    let read: Incident = serde_json::from_str(&old).unwrap();
    assert_eq!(
        read.action,
        IncidentAction::None {
            reason: NoActionReason::Other("no suspect above threshold".into())
        }
    );
    assert_eq!(serde_json::to_string(&read).unwrap(), old);
}
