//! HTTP routes over the live snapshot: metrics, incidents, traces,
//! specs, machines, ad-hoc SQL, and operator actions.
//!
//! Every GET handler clones one [`LiveSnapshot`](crate::state::LiveSnapshot)
//! `Arc` — the publisher has already applied every tick, so no handler
//! rebuilds state — and never touches the harness; every operator POST
//! enqueues into the [`ActionQueue`](crate::state::ActionQueue) for
//! deterministic application at the next tick boundary. Handlers therefore cannot
//! perturb tick ordering no matter how hard they are driven.
//!
//! The unbounded-cardinality endpoints (`/incidents`, `/debug/events`,
//! `POST /query`) answer with `Transfer-Encoding: chunked` bodies
//! produced element by element: the chunk iterator owns the snapshot
//! `Arc` and is pulled as the socket drains, so a large result set
//! never materializes as one contiguous buffer and a slow client
//! backpressures its own connection only.
//!
//! Mutating endpoints (`POST /query`, `POST /actions/*`) can be gated
//! behind a shared-secret token ([`Router::with_auth_token`]): clients
//! present it as `Authorization: Bearer <token>` or `X-Auth-Token`, the
//! comparison is constant-time, and a missing or wrong token answers
//! `401` before any handler state is touched.

use std::fmt::Write as _;
use std::sync::Arc;

use cpi2::core::TraceId;
use cpi2::pipeline::query::{Query, QueryError, QueryResult, Value};
use serde_json;

use crate::server::{Request, Response};
use crate::state::{OperatorAction, SharedState};

/// Longest operator cap `POST /actions/cap` accepts, in seconds (30
/// days; the §5 caps last minutes). A longer or unparsable `secs` is a
/// `400`.
const MAX_CAP_SECS: i64 = 30 * 24 * 3600;

/// The route table: one instance serves every shard thread.
#[derive(Debug)]
pub struct Router {
    state: Arc<SharedState>,
    auth_token: Option<Vec<u8>>,
}

impl Router {
    /// Creates a router over the shared state (no auth required).
    pub fn new(state: Arc<SharedState>) -> Router {
        Router {
            state,
            auth_token: None,
        }
    }

    /// Requires `token` (when `Some`) on mutating endpoints.
    pub fn with_auth_token(mut self, token: Option<String>) -> Router {
        self.auth_token = token.map(String::into_bytes);
        self
    }

    /// Dispatches one request.
    pub fn handle(&self, req: &Request) -> Response {
        // Every route has at most three segments; a fourth is a 404.
        let mut segs = req.path.split('/').filter(|s| !s.is_empty());
        let segs = (segs.next(), segs.next(), segs.next(), segs.next());
        match (req.method.as_str(), segs) {
            ("GET", (None, ..)) => self.index(),
            ("GET", (Some("healthz"), None, ..)) => Response::text(200, "ok\n"),
            ("GET", (Some("version"), None, ..)) => self.version(),
            ("GET", (Some("metrics"), None, ..)) => self.metrics_text(),
            ("GET", (Some("metrics.json"), None, ..)) => self.metrics_json(),
            ("GET", (Some("incidents"), None, ..)) => self.incidents(),
            ("GET", (Some("incidents"), Some(id), Some("trace"), None)) => self.incident_trace(id),
            ("GET", (Some("specs"), Some(job), None, _)) => self.specs(job),
            ("GET", (Some("machines"), Some(id), None, _)) => self.machine(id),
            ("GET", (Some("debug"), Some("events"), None, _)) => self.events(),
            ("POST", (Some("query"), None, ..) | (Some("actions"), Some(_), None, _))
                if !self.authorized(req) =>
            {
                unauthorized()
            }
            ("POST", (Some("query"), None, ..)) => self.query(req),
            ("POST", (Some("actions"), Some(action), None, _)) => self.action(action, req),
            ("POST", _) => Response::error(404, "unknown route"),
            ("GET", _) => Response::error(404, "unknown route"),
            _ => Response::error(405, "method not allowed"),
        }
    }

    /// Whether the request carries the configured shared secret (always
    /// true when no token is configured). Constant-time comparison.
    fn authorized(&self, req: &Request) -> bool {
        let Some(expected) = &self.auth_token else {
            return true;
        };
        let presented = req
            .header("authorization")
            .and_then(|v| v.strip_prefix("Bearer "))
            .or_else(|| req.header("x-auth-token"));
        match presented {
            Some(tok) => constant_time_eq(tok.as_bytes(), expected),
            None => false,
        }
    }

    fn index(&self) -> Response {
        Response::text(
            200,
            "cpi2-serve — resident CPI² observability & control plane\n\
             GET  /healthz /version /metrics /metrics.json\n\
             GET  /incidents /incidents/{id}/trace /specs/{job} /machines/{id} /debug/events\n\
             POST /query                       (body: SQL over incidents|machines|specs|samples)\n\
             POST /actions/cap?job=&index=&rate=&secs=   (secs <= 2592000, default 300)\n\
             POST /actions/uncap?job=&index=\n\
             POST /actions/kill-restart?job=&index=\n\
             POST /actions/protection?enabled=true|false\n",
        )
    }

    fn version(&self) -> Response {
        let snap = self.state.live.snapshot();
        Response::json(format!(
            "{{\"name\":\"cpi2-serve\",\"version\":\"{}\",\"now_us\":{},\"ticks\":{},\"spec_version\":{},\"protection_enabled\":{}}}",
            env!("CARGO_PKG_VERSION"),
            snap.now_us,
            snap.ticks,
            snap.spec_version,
            snap.protection_enabled
        ))
    }

    fn metrics_text(&self) -> Response {
        match self.state.telemetry.prometheus_text() {
            Some(text) => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: crate::http::Body::Full(text.into_bytes()),
            },
            None => Response::error(503, "telemetry disabled"),
        }
    }

    fn metrics_json(&self) -> Response {
        match self.state.telemetry.json_snapshot() {
            Some(json) => Response::json(json),
            None => Response::error(503, "telemetry disabled"),
        }
    }

    fn incidents(&self) -> Response {
        let snap = self.state.live.snapshot();
        let n = snap.incidents.len();
        // Each incident's JSON was rendered when it was published.
        stream_json_array(
            (0..n).filter_map(move |i| snap.incidents.get(i).cloned()),
            |inc| &inc.json,
        )
    }

    fn incident_trace(&self, id: &str) -> Response {
        if TraceId::parse(id).is_none() {
            return Response::error(400, "trace id must be 16 hex digits");
        }
        let snap = self.state.live.snapshot();
        let found = snap.traces.iter().find(|t| t.trace == id);
        match found {
            Some(trace) => match serde_json::to_string(trace) {
                Ok(json) => Response::json(json),
                Err(_) => Response::error(500, "serialization failed"),
            },
            None => Response::error(404, "no such trace (evicted or never recorded)"),
        }
    }

    fn specs(&self, job: &str) -> Response {
        let snap = self.state.live.snapshot();
        let matching: Vec<_> = snap
            .specs
            .iter()
            .filter(|s| s.jobname == job)
            .cloned()
            .collect();
        if matching.is_empty() {
            return Response::error(404, "no spec published for that job");
        }
        match serde_json::to_string(&matching) {
            Ok(json) => Response::json(json),
            Err(_) => Response::error(500, "serialization failed"),
        }
    }

    fn machine(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u32>() else {
            return Response::error(400, "machine id must be an integer");
        };
        let snap = self.state.live.snapshot();
        let found = snap.machines.binary_search_by_key(&id, |m| m.id);
        match found.ok().and_then(|i| snap.machine(i)) {
            Some(m) => match serde_json::to_string(&m) {
                Ok(json) => Response::json(json),
                Err(_) => Response::error(500, "serialization failed"),
            },
            None => Response::error(404, "no such machine"),
        }
    }

    fn events(&self) -> Response {
        // The ring rendered each event's JSON when it was pushed.
        match self.state.telemetry.recent_events_json() {
            Some(events) => stream_json_array(events.into_iter(), |e| e),
            None => Response::error(503, "telemetry disabled"),
        }
    }

    fn query(&self, req: &Request) -> Response {
        let Ok(sql) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "query body must be UTF-8 SQL");
        };
        if sql.trim().is_empty() {
            return Response::error(400, "empty query");
        }
        // Parse first: the statement names the table and the columns the
        // one pass over the snapshot's records reads.
        let query = match Query::parse(sql) {
            Ok(query) => query,
            Err(e) => return Response::error(400, &format!("{e:?}")),
        };
        let snap = self.state.live.snapshot();
        stream_query_result(match query.table() {
            "incidents" => query.scan(snap.incidents.iter()),
            "machines" => query.scan(snap.machine_views()),
            "specs" => query.scan(snap.specs.iter()),
            "samples" => query.scan(snap.samples.iter()),
            other => {
                let e = QueryError::UnknownTable(other.into());
                return Response::error(400, &format!("{e:?}"));
            }
        })
    }

    fn action(&self, action: &str, req: &Request) -> Response {
        let parsed = match action {
            "cap" => {
                let (Some(job), Some(index), Some(rate)) = (
                    req.param("job").and_then(|v| v.parse::<u32>().ok()),
                    req.param("index").and_then(|v| v.parse::<u32>().ok()),
                    req.param("rate").and_then(|v| v.parse::<f64>().ok()),
                ) else {
                    return Response::error(400, "cap needs job=<u32>&index=<u32>&rate=<f64>");
                };
                if !(rate > 0.0 && rate.is_finite()) {
                    return Response::error(400, "rate must be a positive number");
                }
                let secs = match req.param("secs").map(str::parse::<i64>) {
                    None => 300,
                    Some(Ok(secs)) if secs <= MAX_CAP_SECS => secs.max(1),
                    Some(_) => {
                        return Response::error(
                            400,
                            &format!("secs must be an integer of at most {MAX_CAP_SECS}"),
                        )
                    }
                };
                OperatorAction::Cap {
                    job,
                    index,
                    rate,
                    duration_us: secs.saturating_mul(1_000_000),
                }
            }
            "uncap" | "kill-restart" => {
                let (Some(job), Some(index)) = (
                    req.param("job").and_then(|v| v.parse::<u32>().ok()),
                    req.param("index").and_then(|v| v.parse::<u32>().ok()),
                ) else {
                    return Response::error(400, "action needs job=<u32>&index=<u32>");
                };
                if action == "uncap" {
                    OperatorAction::Uncap { job, index }
                } else {
                    OperatorAction::KillRestart { job, index }
                }
            }
            "protection" => match req.param("enabled") {
                Some("true") => OperatorAction::SetProtection(true),
                Some("false") => OperatorAction::SetProtection(false),
                _ => return Response::error(400, "protection needs enabled=true|false"),
            },
            _ => return Response::error(404, "unknown action"),
        };
        let seq = self.state.actions.push(parsed);
        Response {
            status: 202,
            content_type: "application/json",
            body: crate::http::Body::Full(
                format!(
                    "{{\"accepted\":{seq},\"pending\":{},\"applies\":\"next tick\"}}",
                    self.state.actions.pending()
                )
                .into_bytes(),
            ),
        }
    }
}

/// The `401` every gated endpoint answers without a valid token.
fn unauthorized() -> Response {
    Response::error(401, "missing or invalid auth token")
}

/// A chunked `200` JSON array: `[` + comma-joined items + `]`, one
/// chunk per item, pulled as the client's socket drains. Items are
/// shared elements encoded earlier; `json` borrows each one's text, so a
/// chunk is the only copy made.
fn stream_json_array<T: 'static, I>(items: I, json: fn(&T) -> &str) -> Response
where
    I: Iterator<Item = T> + Send + 'static,
{
    let mut first = true;
    let body = std::iter::once(b"[".to_vec())
        .chain(items.map(move |item| {
            let json = json(&item);
            let mut chunk = Vec::with_capacity(json.len() + 1);
            if first {
                first = false;
            } else {
                chunk.push(b',');
            }
            chunk.extend_from_slice(json.as_bytes());
            chunk
        }))
        .chain(std::iter::once(b"]".to_vec()));
    Response::chunked("application/json", Box::new(body))
}

/// Streams a query result as `{"columns": [...], "rows": [[...]]}`,
/// one chunk per row.
fn stream_query_result(r: QueryResult) -> Response {
    let Ok(columns) = serde_json::to_string(&r.columns) else {
        return Response::error(500, "serialization failed");
    };
    let head = format!("{{\"columns\":{columns},\"rows\":[");
    let mut first = true;
    let body = std::iter::once(head.into_bytes())
        .chain(r.rows.into_iter().map(move |row| {
            let mut out = String::new();
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push('[');
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                render_value(&mut out, v);
            }
            out.push(']');
            out.into_bytes()
        }))
        .chain(std::iter::once(b"]}".to_vec()));
    Response::chunked("application/json", Box::new(body))
}

/// One JSON scalar of a query row.
fn render_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Value::Num(_) => out.push_str("null"),
        // A string always serialises; `null` would keep the row JSON.
        Value::Str(s) => out.push_str(&serde_json::to_string(s).unwrap_or_else(|_| "null".into())),
    }
}

/// Constant-time byte-string equality: examines every byte of the
/// presented token regardless of where the first mismatch is, so the
/// comparison leaks no prefix-length timing signal.
fn constant_time_eq(presented: &[u8], expected: &[u8]) -> bool {
    let mut diff = presented.len() ^ expected.len();
    for (i, b) in presented.iter().enumerate() {
        let e = if expected.is_empty() {
            0
        } else {
            expected[i % expected.len()]
        };
        diff |= usize::from(b ^ e);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{LiveSnapshot, MachineRow};
    use cpi2::telemetry::{Telemetry, DEFAULT_EVENT_CAPACITY};

    /// Three machines whose task lists give `/query` every cell kind a
    /// string escaper meets — a quote, a backslash, control bytes, a
    /// missing column — beside whole and fractional numbers.
    fn router() -> Router {
        use crate::chunked::Chunked;
        use crate::state::TaskView;
        use cpi2::sim::SchedClass;

        let task = |job: u32, job_name: &str, class: SchedClass, threads: u32| TaskView {
            job,
            index: 0,
            job_name: job_name.into(),
            class,
            threads,
        };
        let machine = |id: u32, utilization: f64, task_list: Vec<TaskView>| {
            let row = MachineRow {
                id,
                tasks: task_list.len(),
                threads: task_list.iter().map(|t| u64::from(t.threads)).sum(),
                utilization,
                throttle_events: 0,
            };
            (row, Arc::<[TaskView]>::from(task_list))
        };
        let (machines, task_lists): (Vec<_>, Vec<_>) = [
            machine(
                0,
                0.5,
                vec![
                    task(1, "web\"search", SchedClass::LatencySensitive, 3),
                    task(2, "back\\slash", SchedClass::Batch, 1),
                ],
            ),
            machine(
                1,
                0.875,
                vec![task(
                    3,
                    "ctl\u{1}\tbyte\r\n\u{1f}end",
                    SchedClass::BestEffort,
                    8,
                )],
            ),
            machine(2, 1.0 / 3.0, Vec::new()),
        ]
        .into_iter()
        .unzip();
        let state = SharedState::new(Telemetry::enabled());
        state.live.publish(LiveSnapshot {
            ticks: 3,
            now_us: 60_000_000,
            machines: machines.into(),
            task_lists: task_lists.into_iter().collect::<Chunked<_>>(),
            ..LiveSnapshot::default()
        });
        Router::new(state)
    }

    fn get(router: &Router, path: &str) -> Response {
        router.handle(&Request {
            method: "GET".into(),
            path: path.into(),
            ..Request::default()
        })
    }

    #[test]
    fn basic_routes_respond() {
        let r = router();
        assert_eq!(get(&r, "/healthz").status, 200);
        assert_eq!(get(&r, "/version").status, 200);
        assert_eq!(get(&r, "/metrics").status, 200);
        assert_eq!(get(&r, "/metrics.json").status, 200);
        assert_eq!(get(&r, "/incidents").status, 200);
        assert_eq!(get(&r, "/machines/0").status, 200);
        assert_eq!(get(&r, "/machines/99").status, 404);
        assert_eq!(get(&r, "/machines/zero").status, 400);
        assert_eq!(get(&r, "/specs/nothing").status, 404);
        assert_eq!(get(&r, "/nope").status, 404);
        assert_eq!(get(&r, "/incidents/zzz/trace").status, 400);
        assert_eq!(get(&r, "/incidents/00000000000000ab/trace").status, 404);
        // Segment counts are exact; empty segments do not count.
        assert_eq!(get(&r, "//healthz/").status, 200);
        assert_eq!(get(&r, "/healthz/x").status, 404);
        assert_eq!(get(&r, "/machines/0/x").status, 404);
        assert_eq!(get(&r, "/incidents/00000000000000ab/trace/x").status, 404);
    }

    /// `(statement, status, body)` over [`router`]'s snapshot, recorded at
    /// the commit before the router's own JSON string escaper was
    /// replaced by `serde_json`'s.
    const RECORDED_QUERIES: &[(&str, u16, &str)] = &[
        ("SELECT id, utilization FROM machines", 200, "{\"columns\":[\"id\",\"utilization\"],\"rows\":[[0,0.5],[1,0.875],[2,0.3333333333333333]]}"),
        ("SELECT * FROM machines", 200, "{\"columns\":[\"id\",\"task_list.0.class\",\"task_list.0.index\",\"task_list.0.job\",\"task_list.0.job_name\",\"task_list.0.threads\",\"task_list.1.class\",\"task_list.1.index\",\"task_list.1.job\",\"task_list.1.job_name\",\"task_list.1.threads\",\"task_list.len\",\"tasks\",\"threads\",\"throttle_events\",\"utilization\"],\"rows\":[[0,\"LatencySensitive\",0,1,\"web\\\"search\",3,\"Batch\",0,2,\"back\\\\slash\",1,2,2,4,0,0.5],[1,\"BestEffort\",0,3,\"ctl\\u0001\\tbyte\\r\\n\\u001fend\",8,null,null,null,null,null,1,1,8,0,0.875],[2,null,null,null,null,null,null,null,null,null,null,0,0,0,0,0.3333333333333333]]}"),
        ("SELECT id, task_list.len, task_list.0.job_name, task_list.1.job_name FROM machines ORDER BY id DESC LIMIT 2", 200, "{\"columns\":[\"id\",\"task_list.len\",\"task_list.0.job_name\",\"task_list.1.job_name\"],\"rows\":[[2,0,null,null],[1,1,\"ctl\\u0001\\tbyte\\r\\n\\u001fend\",null]]}"),
        ("SELECT tasks, COUNT(*), MAX(utilization), AVG(threads) FROM machines GROUP BY tasks ORDER BY tasks DESC", 200, "{\"columns\":[\"tasks\",\"count(*)\",\"max(utilization)\",\"avg(threads)\"],\"rows\":[[2,1,0.5,4],[1,1,0.875,8],[0,1,0.3333333333333333,0]]}"),
        ("SELECT id, task_list.0.threads FROM machines WHERE task_list.0.job_name LIKE 'web%'", 200, "{\"columns\":[\"id\",\"task_list.0.threads\"],\"rows\":[[0,3]]}"),
        ("SELECT id FROM machines WHERE utilization BETWEEN 0.4 AND 0.9", 200, "{\"columns\":[\"id\"],\"rows\":[[0],[1]]}"),
        ("SELECT x FROM nowhere", 400, "{\"error\":\"UnknownTable(\\\"nowhere\\\")\"}"),
        ("SELECT id FROM machines WHERE job = \"x\\y\"", 400, "{\"error\":\"Parse(\\\"unexpected char '\\\\\\\"'\\\")\"}"),
    ];

    #[test]
    fn query_endpoint_runs_sql() {
        /// Either kind of body: a result names its columns, a refusal
        /// says why.
        #[derive(serde::Deserialize)]
        struct Reply {
            columns: Option<Vec<String>>,
            error: Option<String>,
        }
        let r = router();
        for &(sql, status, body) in RECORDED_QUERIES {
            let resp = r.handle(&Request {
                method: "POST".into(),
                path: "/query".into(),
                body: sql.as_bytes().to_vec(),
                ..Request::default()
            });
            assert_eq!(resp.status, status, "{sql}");
            // Results stream; bad SQL is a client error, not a panic.
            let streams = matches!(resp.body, crate::http::Body::Chunks(_));
            assert_eq!(streams, status == 200, "{sql}");
            let got = String::from_utf8(resp.into_body_bytes()).unwrap();
            assert_eq!(got, body, "{sql}");
            let reply: Reply =
                serde_json::from_str(&got).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            assert_eq!(reply.columns.is_some(), status == 200, "{sql}");
            assert_eq!(reply.error.is_some(), status != 200, "{sql}");
        }
    }

    /// Both were 200s: the first with its rows unsorted, the second with
    /// a column named `*` full of nulls.
    #[test]
    fn statements_once_answered_wrongly_are_400s() {
        let r = router();
        for (sql, names) in [
            (
                "SELECT id FROM machines ORDER BY utilization",
                "utilization",
            ),
            ("SELECT *, count(*) FROM machines", "*"),
        ] {
            let resp = r.handle(&Request {
                method: "POST".into(),
                path: "/query".into(),
                body: sql.as_bytes().to_vec(),
                ..Request::default()
            });
            assert_eq!(resp.status, 400, "{sql}");
            let body = String::from_utf8(resp.into_body_bytes()).unwrap();
            let error: std::collections::BTreeMap<String, String> =
                serde_json::from_str(&body).unwrap_or_else(|e| panic!("{body}: {e:?}"));
            assert!(error["error"].contains(names), "{body}");
        }
    }

    #[test]
    fn incidents_and_events_stream_valid_json() {
        let r = router();
        let resp = get(&r, "/incidents");
        assert_eq!(resp.status, 200);
        assert!(matches!(resp.body, crate::http::Body::Chunks(_)));
        let body = String::from_utf8(resp.into_body_bytes()).unwrap();
        assert_eq!(body, "[]", "empty incident tail renders as []");
        let resp = get(&r, "/debug/events");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.into_body_bytes()).unwrap();
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
    }

    /// Without telemetry there is nothing to serve: every telemetry route
    /// says so, rather than `/debug/events` passing for an empty ring.
    #[test]
    fn telemetry_routes_answer_503_when_disabled() {
        let state = SharedState::new(Telemetry::disabled());
        state.live.publish(LiveSnapshot::default());
        let r = Router::new(state);
        for path in ["/metrics", "/metrics.json", "/debug/events"] {
            let resp = get(&r, path);
            assert_eq!(resp.status, 503, "{path}");
            let body = String::from_utf8(resp.into_body_bytes()).unwrap();
            assert_eq!(body, "{\"error\":\"telemetry disabled\"}", "{path}");
        }
    }

    /// `/metrics.json` carries values and the event count; the events
    /// themselves are `/debug/events`' alone.
    #[test]
    fn metrics_json_carries_values_and_debug_events_the_ring() {
        let r = router();
        let tel = &r.state.telemetry;
        tel.counter("cpi_t_total", &[("job", "we\"ird\\")]).add(7);
        tel.gauge("cpi_t", &[]).set(f64::NAN);
        tel.histogram("cpi_t_us", &[]).record(3.0);
        tel.histogram("cpi_t_idle_us", &[]);
        let body = |path| String::from_utf8(get(&r, path).into_body_bytes()).unwrap();
        assert_eq!(body("/debug/events"), "[]");

        // Fill the ring past capacity with 200-byte details.
        let evicted = 100;
        let pushed = DEFAULT_EVENT_CAPACITY + evicted;
        let detail = |i: usize| {
            let head = format!("victim\t{i:>6}\n\u{1} capped — ü ");
            format!("{head}{}", "x".repeat(200 - head.len()))
        };
        for i in 0..pushed {
            tel.event("in\"cident", || detail(i));
        }
        let events = body("/debug/events");
        let metrics = body("/metrics.json");

        // Both parse with the vendored parser.
        #[derive(serde::Deserialize, Debug, PartialEq)]
        struct Event {
            at_us: u64,
            kind: String,
            detail: String,
        }
        #[derive(serde::Deserialize)]
        struct Summary {
            count: u64,
            sum: f64,
            p50: Option<f64>,
            p95: Option<f64>,
            p99: Option<f64>,
        }
        #[derive(serde::Deserialize)]
        struct Metrics {
            elapsed_us: u64,
            counters: std::collections::BTreeMap<String, u64>,
            gauges: std::collections::BTreeMap<String, Option<f64>>,
            histograms: std::collections::BTreeMap<String, Summary>,
            events_total: u64,
        }
        let events: Vec<Event> = serde_json::from_str(&events).expect("/debug/events parses");
        let metrics: Metrics = serde_json::from_str(&metrics).expect("/metrics.json parses");
        // Exactly the retained events, oldest first, read back as recorded.
        assert_eq!(events.len(), DEFAULT_EVENT_CAPACITY);
        for (event, i) in events.iter().zip(evicted..) {
            assert_eq!((&*event.kind, &event.detail), ("in\"cident", &detail(i)));
        }
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(
            metrics.events_total, pushed as u64,
            "counts the evicted too"
        );
        assert!(metrics.elapsed_us >= events[DEFAULT_EVENT_CAPACITY - 1].at_us);
        // Keys carry the Prometheus-escaped label block, JSON-escaped.
        assert_eq!(metrics.counters[r#"cpi_t_total{job="we\"ird\\"}"#], 7);
        assert_eq!(metrics.gauges["cpi_t"], None, "NaN renders as null");
        let (busy, idle) = (
            &metrics.histograms["cpi_t_us"],
            &metrics.histograms["cpi_t_idle_us"],
        );
        assert_eq!((busy.count, busy.sum), (1, 3.0));
        assert!(busy.p50.is_some() && busy.p50 <= busy.p95 && busy.p95 <= busy.p99);
        assert_eq!((idle.count, idle.sum), (0, 0.0));
        assert_eq!((idle.p50, idle.p95, idle.p99), (None, None, None));
    }

    #[test]
    fn auth_token_gates_mutating_endpoints() {
        let state = SharedState::new(Telemetry::enabled());
        state.live.publish(LiveSnapshot::default());
        let r = Router::new(state).with_auth_token(Some("sekrit".into()));

        // GETs stay open.
        assert_eq!(get(&r, "/healthz").status, 200);
        assert_eq!(get(&r, "/incidents").status, 200);

        let post = |headers: Vec<(String, String)>| {
            r.handle(&Request {
                method: "POST".into(),
                path: "/actions/protection".into(),
                query: vec![("enabled".into(), "false".into())],
                headers,
                ..Request::default()
            })
        };
        assert_eq!(post(vec![]).status, 401, "missing token");
        assert_eq!(
            post(vec![("authorization".into(), "Bearer wrong".into())]).status,
            401,
            "wrong token"
        );
        assert_eq!(r.state.actions.pending(), 0, "nothing enqueued while 401");
        assert_eq!(
            post(vec![("authorization".into(), "Bearer sekrit".into())]).status,
            202
        );
        assert_eq!(
            post(vec![("x-auth-token".into(), "sekrit".into())]).status,
            202,
            "X-Auth-Token works too"
        );
        // /query is gated the same way.
        let resp = r.handle(&Request {
            method: "POST".into(),
            path: "/query".into(),
            body: b"SELECT id FROM machines".to_vec(),
            ..Request::default()
        });
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn constant_time_eq_compares_correctly() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(!constant_time_eq(b"", b"x"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn actions_enqueue_for_next_tick() {
        let r = router();
        let resp = r.handle(&Request {
            method: "POST".into(),
            path: "/actions/cap".into(),
            query: vec![
                ("job".into(), "3".into()),
                ("index".into(), "1".into()),
                ("rate".into(), "0.1".into()),
                ("secs".into(), "60".into()),
            ],
            ..Request::default()
        });
        assert_eq!(resp.status, 202);
        assert_eq!(r.state.actions.pending(), 1);
        assert_eq!(
            r.state.actions.drain(),
            vec![OperatorAction::Cap {
                job: 3,
                index: 1,
                rate: 0.1,
                duration_us: 60_000_000,
            }]
        );
        // Missing params are rejected without enqueueing.
        let resp = r.handle(&Request {
            method: "POST".into(),
            path: "/actions/cap".into(),
            ..Request::default()
        });
        assert_eq!(resp.status, 400);
        assert_eq!(r.state.actions.pending(), 0);
    }

    #[test]
    fn a_cap_longer_than_the_ceiling_is_refused() {
        let r = router();
        let cap = |secs: &str| {
            r.handle(&Request {
                method: "POST".into(),
                path: "/actions/cap".into(),
                query: vec![
                    ("job".into(), "3".into()),
                    ("index".into(), "1".into()),
                    ("rate".into(), "0.1".into()),
                    ("secs".into(), secs.into()),
                ],
                ..Request::default()
            })
            .status
        };
        // `i64::MAX` seconds would saturate to `i64::MAX` µs of cap and
        // overflow the expiry `now + duration`.
        for secs in [
            "9223372036854775807",
            "2592001",
            "99999999999999999999",
            "5m",
        ] {
            assert_eq!(cap(secs), 400, "secs={secs}");
        }
        assert_eq!(r.state.actions.pending(), 0);
        assert_eq!(cap(&MAX_CAP_SECS.to_string()), 202);
        assert_eq!(
            r.state.actions.drain(),
            vec![OperatorAction::Cap {
                job: 3,
                index: 1,
                rate: 0.1,
                duration_us: MAX_CAP_SECS * 1_000_000,
            }]
        );
    }
}
