//! The read path serves what a from-scratch rebuild would, byte for byte.
//!
//! The publisher maintains one persistent snapshot incrementally and
//! `/incidents` streams JSON rendered once per incident; both are only
//! worth having if nobody can tell. The oracle here is a twin harness on
//! the same seed, stepped in lockstep and given the same operator actions
//! at the same tick boundaries, from which every tick's snapshot is
//! rebuilt from nothing — no watermarks, no comparisons, no sharing —
//! and must equal the published one in every field, machines included.

use std::sync::Arc;

mod common;

use cpi2::core::CpiSample;
use cpi2::harness::Cpi2Harness;
use cpi2::pipeline::{Query, QueryError};
use cpi2::sim::{JobId, SchedClass, SimDuration, TaskId};
use cpi2_serve::chunked::Chunked;
use cpi2_serve::http::{self, Body, Framing, ScannedResponse};
use cpi2_serve::state::{
    EncodedIncident, IncidentView, LiveSnapshot, MachineRow, TaskView, TraceView, INCIDENT_TAIL,
    SAMPLE_TAIL,
};
use cpi2_serve::{OperatorAction, Request, Response, Router, ServeHarness};

const SEED: u64 = 0x5EED_0012;
const MACHINES: u32 = 12;
const CLEAN_TICKS: u64 = 1500;
const PLANTED_TICKS: u64 = 2700;

/// The shared fleet, keeping its samples for the oracle.
fn fleet() -> Cpi2Harness {
    let mut system = common::fleet(SEED, MACHINES);
    system.record_samples = true;
    system
}

/// The operator's script: what is posted before tick `t` (planted phase).
fn script(system: &Cpi2Harness, t: u64) -> Option<OperatorAction> {
    let thrasher = system
        .cluster
        .machines()
        .iter()
        .flat_map(|m| m.tasks())
        .find(|task| &*task.job_name == "thrasher")
        .map(|task| (task.id.job.0, task.id.index));
    let (job, index) = thrasher?;
    match t % 240 {
        30 => Some(OperatorAction::SetProtection(false)),
        60 => Some(OperatorAction::Cap {
            job,
            index,
            rate: 0.1,
            duration_us: 45_000_000,
        }),
        90 => Some(OperatorAction::Uncap { job, index }),
        120 => Some(OperatorAction::SetProtection(true)),
        200 => Some(OperatorAction::KillRestart { job, index }),
        _ => None,
    }
}

/// What `ServeHarness::apply_actions` does, applied to the bare twin.
fn apply(system: &mut Cpi2Harness, action: &OperatorAction) {
    let task = |job: u32, index: u32| TaskId {
        job: JobId(job),
        index,
    };
    match *action {
        OperatorAction::Cap {
            job,
            index,
            rate,
            duration_us,
        } => {
            system.operator_cap(task(job, index), rate, SimDuration(duration_us));
        }
        OperatorAction::Uncap { job, index } => {
            system.cluster.remove_hard_cap(task(job, index));
        }
        OperatorAction::KillRestart { job, index } => {
            system.operator_migrate(task(job, index));
        }
        OperatorAction::SetProtection(on) => system.set_protection_enabled(on),
    }
}

fn chunked<T>(items: impl Iterator<Item = T>) -> Chunked<Arc<T>> {
    items.map(Arc::new).collect()
}

fn tail<T>(all: &[T], cap: usize) -> &[T] {
    &all[all.len().saturating_sub(cap)..]
}

/// The snapshot built from nothing but the twin's current state.
fn rebuild(twin: &Cpi2Harness, samples: &[CpiSample], ticks: u64) -> LiveSnapshot {
    let log = twin.trace_log();
    LiveSnapshot {
        now_us: twin.cluster.now().as_us(),
        tick_us: twin.cluster.tick_len().as_us(),
        ticks,
        spec_version: twin.spec_store.version(),
        protection_enabled: twin.protection_enabled(),
        caps_applied: twin.caps_applied(),
        collector_dropped: twin.collector_dropped(),
        machines: twin.cluster.machines().iter().map(MachineRow::of).collect(),
        task_lists: twin.cluster.machines().iter().map(TaskView::list).collect(),
        incidents: chunked(
            tail(twin.incidents(), INCIDENT_TAIL)
                .iter()
                .map(|mi| EncodedIncident::new(IncidentView::of(mi))),
        ),
        specs: Arc::new(
            twin.spec_store
                .changed_since(0)
                .into_iter()
                .map(Arc::new)
                .collect(),
        ),
        samples: tail(samples, SAMPLE_TAIL).iter().cloned().collect(),
        traces: chunked(
            log.ids()
                .map(|id| TraceView::of(id, log.get(id).expect("retained id has spans"))),
        ),
    }
}

/// Ticks a served harness and its bare twin through the clean and the
/// planted phase, checking after every tick that the published snapshot
/// is the rebuilt one; returns the served harness for further probing
/// and the last snapshot rebuilt from the twin.
fn run_against_oracle() -> (ServeHarness, LiveSnapshot) {
    let mut twin = fleet();
    let mut sh = ServeHarness::new(fleet());
    let state = sh.state();
    let mut samples: Vec<CpiSample> = Vec::new();
    let mut held: Option<(u64, Arc<LiveSnapshot>, String)> = None;
    let mut previous = state.live.snapshot();
    let (mut shared_specs, mut shared_incidents) = (0u64, 0u64);
    let (mut shared_lists, mut rebuilt_lists) = (0u64, 0u64);

    for t in 1..=CLEAN_TICKS + PLANTED_TICKS {
        if t == CLEAN_TICKS + 1 {
            common::plant(&mut twin, MACHINES);
            common::plant(sh.inner_mut(), MACHINES);
        }
        if let Some(action) = script(&twin, t).filter(|_| t > CLEAN_TICKS) {
            apply(&mut twin, &action);
            state.actions.push(action);
        }
        twin.step();
        samples.append(&mut twin.samples);
        sh.tick();

        let exact = rebuild(&twin, &samples, t);
        let published = state.live.snapshot();
        assert_eq!(
            (published.now_us, published.tick_us, published.ticks),
            (exact.now_us, exact.tick_us, exact.ticks),
            "clock at tick {t}"
        );
        assert_eq!(published.spec_version, exact.spec_version, "tick {t}");
        assert_eq!(
            published.protection_enabled, exact.protection_enabled,
            "tick {t}"
        );
        assert_eq!(published.caps_applied, exact.caps_applied, "tick {t}");
        assert_eq!(
            published.collector_dropped, exact.collector_dropped,
            "tick {t}"
        );
        assert_eq!(published.incidents, exact.incidents, "incidents, tick {t}");
        assert_eq!(published.samples, exact.samples, "samples, tick {t}");
        assert_eq!(published.specs, exact.specs, "specs, tick {t}");
        assert_eq!(published.traces, exact.traces, "traces, tick {t}");
        // Machines are exact on every tick, every field.
        assert_eq!(published.machines, exact.machines, "machines, tick {t}");
        assert_eq!(published.task_lists, exact.task_lists, "tasks, tick {t}");
        assert_eq!(*published, exact, "tick {t}");

        // Structural sharing: what no tick touched is the same allocation.
        if published.spec_version == previous.spec_version {
            assert!(Arc::ptr_eq(&published.specs, &previous.specs), "tick {t}");
            shared_specs += 1;
        }
        if published.incidents.last() == previous.incidents.last() {
            assert!(
                Chunked::ptr_eq(&published.incidents, &previous.incidents),
                "tick {t}"
            );
            shared_incidents += 1;
        }
        // A task list is rebuilt exactly when it changed.
        let lists = published.task_lists.iter().zip(previous.task_lists.iter());
        for (i, (now, then)) in lists.enumerate() {
            let shared = Arc::ptr_eq(now, then);
            assert_eq!(shared, now == then, "task list {i}, tick {t}");
            shared_lists += u64::from(shared);
            rebuilt_lists += u64::from(!shared);
        }
        previous = Arc::clone(&published);

        // A reader that keeps a snapshot for 200 ticks finds it untouched.
        if t == CLEAN_TICKS + 100 {
            let rendered = format!("{published:?}");
            held = Some((t, published, rendered));
        }
        if let Some((since, snap, rendered)) = &held {
            if t == since + 200 {
                assert_eq!(snap.ticks, *since);
                assert_eq!(&format!("{snap:?}"), rendered, "held snapshot changed");
                assert_ne!(state.live.snapshot().ticks, snap.ticks);
            }
        }
    }

    // The run exercised what it claims to.
    assert!(twin.incidents().len() >= 10, "{}", twin.incidents().len());
    assert!(twin.caps_applied() >= 5, "{}", twin.caps_applied());
    assert!(twin.trace_log().len() >= 10);
    assert!(samples.len() > SAMPLE_TAIL, "sample tail never wrapped");
    assert!(shared_specs > 1000 && shared_incidents > 1000);
    assert!(
        shared_lists > 1000 && rebuilt_lists > 100,
        "{shared_lists} task lists shared, {rebuilt_lists} rebuilt"
    );
    let ticks = CLEAN_TICKS + PLANTED_TICKS;
    (sh, rebuild(&twin, &samples, ticks))
}

#[test]
fn incremental_snapshot_equals_rebuild_every_tick() {
    run_against_oracle();
}

fn get(router: &Router, path: &str) -> Response {
    router.handle(&Request {
        method: "GET".into(),
        path: path.into(),
        ..Request::default()
    })
}

fn query(router: &Router, sql: &str) -> Response {
    router.handle(&Request {
        method: "POST".into(),
        path: "/query".into(),
        body: sql.as_bytes().to_vec(),
        ..Request::default()
    })
}

/// A machine as the publisher once held it — one struct, the serde
/// derive's rendering — against which the served row and task list must
/// render byte for byte.
#[derive(serde::Serialize)]
struct MachineJson {
    id: u32,
    tasks: usize,
    threads: u64,
    utilization: f64,
    throttle_events: u64,
    task_list: Vec<TaskJson>,
}

#[derive(serde::Serialize)]
struct TaskJson {
    job: u32,
    index: u32,
    job_name: String,
    class: SchedClass,
    threads: u32,
}

impl MachineJson {
    fn of(m: cpi2_serve::state::MachineView<'_>) -> MachineJson {
        let r = m.row;
        MachineJson {
            id: r.id,
            tasks: r.tasks,
            threads: r.threads,
            utilization: r.utilization,
            throttle_events: r.throttle_events,
            task_list: m
                .task_list
                .iter()
                .map(|t| TaskJson {
                    job: t.job,
                    index: t.index,
                    job_name: t.job_name.to_string(),
                    class: t.class,
                    threads: t.threads,
                })
                .collect(),
        }
    }
}

/// The body the serde path renders for a streamed JSON array.
fn json_array<T: serde::Serialize>(items: &[T]) -> String {
    serde_json::to_string(&items).expect("serialize")
}

/// Frames a response as the event loop does and checks the wire form
/// with the robustness suite's scanner; returns status and body.
fn over_the_wire(response: Response) -> (u16, Vec<u8>) {
    let (status, content_type) = (response.status, response.content_type);
    let mut wire = Vec::new();
    let mut body = Vec::new();
    match response.body {
        Body::Full(bytes) => {
            http::encode_head(
                &mut wire,
                status,
                content_type,
                Framing::Length(bytes.len()),
                true,
            );
            wire.extend_from_slice(&bytes);
            body = bytes;
        }
        Body::Chunks(chunks) => {
            http::encode_head(&mut wire, status, content_type, Framing::Chunked, true);
            for chunk in chunks {
                assert!(!chunk.is_empty(), "an empty chunk would end the body early");
                http::encode_chunk(&mut wire, &chunk);
                body.extend_from_slice(&chunk);
            }
            http::encode_last_chunk(&mut wire);
        }
    }
    match http::scan_response(&wire) {
        ScannedResponse::Complete {
            status: scanned,
            consumed,
        } => {
            assert_eq!(scanned, status);
            assert_eq!(consumed, wire.len(), "scanner and encoder disagree");
        }
        other => panic!("response does not scan: {other:?}"),
    }
    (status, body)
}

#[test]
fn bodies_are_byte_identical_to_the_serde_path() {
    let (sh, exact) = run_against_oracle();
    let state = sh.state();
    let router = Router::new(Arc::clone(&state));
    let snap = state.live.snapshot();
    assert!(!snap.incidents.is_empty() && !snap.traces.is_empty() && !snap.specs.is_empty());

    let views: Vec<&IncidentView> = snap.incidents.iter().map(|i| &i.view).collect();
    let (status, body) = over_the_wire(get(&router, "/incidents"));
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap(), json_array(&views));

    for trace in snap.traces.iter() {
        let (status, body) =
            over_the_wire(get(&router, &format!("/incidents/{}/trace", trace.trace)));
        assert_eq!(status, 200);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            serde_json::to_string(&**trace).unwrap()
        );
    }
    let machines: Vec<MachineJson> = snap.machine_views().map(MachineJson::of).collect();
    for m in &machines {
        let (status, body) = over_the_wire(get(&router, &format!("/machines/{}", m.id)));
        assert_eq!(status, 200);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            serde_json::to_string(m).unwrap()
        );
    }
    for spec in snap.specs.iter() {
        let of_job: Vec<_> = snap
            .specs
            .iter()
            .filter(|s| s.jobname == spec.jobname)
            .collect();
        let (status, body) = over_the_wire(get(&router, &format!("/specs/{}", spec.jobname)));
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), json_array(&of_job));
    }

    // POST /query answers as the same statement scanned over the records
    // rebuilt from the twin: its incident views, its machines as the
    // publisher once held them, its specs and its sample tail.
    let twin_views: Vec<&IncidentView> = exact.incidents.iter().map(|i| &i.view).collect();
    let twin_machines: Vec<MachineJson> = exact.machine_views().map(MachineJson::of).collect();
    let answer = |sql: &str| {
        let q = Query::parse(sql)?;
        match q.table() {
            "incidents" => Ok(q.scan(&twin_views)),
            "machines" => Ok(q.scan(&twin_machines)),
            "specs" => Ok(q.scan(exact.specs.iter())),
            "samples" => Ok(q.scan(exact.samples.iter())),
            other => Err(QueryError::UnknownTable(other.into())),
        }
    };
    let reference = |sql: &str| -> (u16, String) {
        // `routes::stream_query_result`'s format, spelled out.
        match answer(sql) {
            Ok(r) => {
                let columns: Vec<String> = r
                    .columns
                    .iter()
                    .map(|c| serde_json::to_string(c).unwrap())
                    .collect();
                let rows: Vec<String> = r
                    .rows
                    .iter()
                    .map(|row| {
                        let cells: Vec<String> = row
                            .iter()
                            .map(|v| match v {
                                cpi2::pipeline::Value::Null => "null".into(),
                                cpi2::pipeline::Value::Bool(b) => b.to_string(),
                                cpi2::pipeline::Value::Num(n) if n.is_finite() => n.to_string(),
                                cpi2::pipeline::Value::Num(_) => "null".into(),
                                cpi2::pipeline::Value::Str(s) => serde_json::to_string(s).unwrap(),
                            })
                            .collect();
                        format!("[{}]", cells.join(","))
                    })
                    .collect();
                (
                    200,
                    format!(
                        "{{\"columns\":[{}],\"rows\":[{}]}}",
                        columns.join(","),
                        rows.join(",")
                    ),
                )
            }
            Err(e) => {
                let quoted = format!("{e:?}").replace('"', "\\\"");
                (400, format!("{{\"error\":\"{quoted}\"}}"))
            }
        }
    };
    for sql in [
        "SELECT * FROM incidents ORDER BY at_us DESC LIMIT 5",
        "SELECT victim_job, count(*) FROM incidents GROUP BY victim_job",
        "SELECT id, tasks, utilization FROM machines WHERE tasks > 0",
        "SELECT jobname, platforminfo, cpi_mean FROM specs ORDER BY jobname",
        "SELECT count(*), avg(cpi) FROM samples",
        "SELECT jobname, max(cpi) FROM samples GROUP BY jobname ORDER BY jobname",
        "SELECT trace, suspects.0.jobname, suspects.4.correlation FROM incidents WHERE suspects.0.correlation > 0.2",
        "SELECT suspects.len, count(*), min(suspects.0.correlation) FROM incidents GROUP BY suspects.len",
        "SELECT task_list.len, task_list.0.job_name FROM machines WHERE task_list.2.threads >= 1 LIMIT 9",
        "SELECT jobname, count(*), avg(cpi) FROM samples WHERE jobname LIKE '%e%' GROUP BY jobname ORDER BY count(*) DESC LIMIT 3",
        "SELECT id, utilization FROM machines WHERE utilization BETWEEN 0.05 AND 0.6 OR tasks = 0",
        "SELECT jobname, cpi FROM samples LIMIT 7",
        "SELECT cpi FROM samples LIMIT 0",
        "SELECT * FROM nowhere",
        "SELEKT nope",
        "SELECT id FROM machines LIMIT",
        // Once 200s with wrong bodies: rows unsorted; a column named `*`.
        "SELECT jobname FROM samples ORDER BY cpi DESC",
        "SELECT *, count(*) FROM machines",
    ] {
        let (status, body) = over_the_wire(query(&router, sql));
        let (want_status, want_body) = reference(sql);
        assert_eq!(status, want_status, "{sql}");
        assert_eq!(String::from_utf8(body).unwrap(), want_body, "{sql}");
    }
}
