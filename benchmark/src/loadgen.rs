//! The benchmark's own HTTP load generator.
//!
//! One thread, a handful of keep-alive connections, depth one each.
//! Two regimes: an **open loop** sends on a fixed schedule and times
//! each request from when it was *due*, so a stall is charged to every
//! request it delayed (and the generator's own lateness is reported); a
//! **closed loop** sends a connection's next request when its previous
//! one completes. Every response is parsed and checked — status,
//! `Content-Length` / chunk framing, body shape per route — and a
//! response that announces `Connection: close` (the server retires a
//! connection every 1024 requests) is followed by a reconnect, counted
//! but not failed; only unannounced resets fail.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use cpi2_serve::poll::{PollSet, IN};

use crate::json::Shape;

/// The route families of the control plane the benchmark exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics` (Prometheus text).
    Metrics,
    /// `GET /metrics.json`.
    MetricsJson,
    /// `GET /incidents` (chunked).
    Incidents,
    /// `GET /machines/{id}`.
    Machines,
    /// `GET /specs/{job}`.
    Specs,
    /// `POST /query` (chunked).
    Query,
    /// `POST /actions/cap` and `/actions/uncap`.
    Actions,
}

impl Route {
    /// Every route, table order.
    pub const ALL: [Route; 8] = [
        Route::Healthz,
        Route::Metrics,
        Route::MetricsJson,
        Route::Incidents,
        Route::Machines,
        Route::Specs,
        Route::Query,
        Route::Actions,
    ];

    /// The name of this route's client-side request span.
    pub fn span_name(self) -> &'static str {
        match self {
            Route::Healthz => "loadgen.request.healthz",
            Route::Metrics => "loadgen.request.metrics",
            Route::MetricsJson => "loadgen.request.metrics_json",
            Route::Incidents => "loadgen.request.incidents",
            Route::Machines => "loadgen.request.machines",
            Route::Specs => "loadgen.request.specs",
            Route::Query => "loadgen.request.query",
            Route::Actions => "loadgen.request.actions",
        }
    }

    /// The label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::MetricsJson => "metrics_json",
            Route::Incidents => "incidents",
            Route::Machines => "machines",
            Route::Specs => "specs",
            Route::Query => "query",
            Route::Actions => "actions",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which family it belongs to.
    pub route: Route,
    /// The bytes to put on the wire.
    pub bytes: Vec<u8>,
}

/// `GET path` over a keep-alive connection.
pub fn get(route: Route, path: &str) -> Request {
    Request {
        route,
        bytes: format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
    }
}

/// `POST path` with a body.
pub fn post(route: Route, path: &str, body: &str) -> Request {
    Request {
        route,
        bytes: format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
    }
}

/// A parsed response.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed {
    /// More bytes needed.
    Partial,
    /// Not an HTTP/1.1 response, or its framing is broken.
    Malformed(&'static str),
    /// One whole response.
    Complete {
        /// Status code.
        status: u16,
        /// The server announced `Connection: close`.
        close: bool,
        /// The body, de-chunked.
        body: Vec<u8>,
        /// Bytes of the buffer it occupied.
        consumed: usize,
    },
}

struct Head {
    status: u16,
    close: bool,
    length: Option<usize>,
    chunked: bool,
    body_start: usize,
}

/// Parses the status line and headers; `Ok(None)` while they are
/// incomplete.
fn parse_head(buf: &[u8]) -> Result<Option<Head>, &'static str> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.1 ") {
        return Err("bad status line");
    }
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or("bad status code")?;
    let (mut length, mut chunked, mut close) = (None, false, false);
    for line in lines {
        let (name, value) = line.split_once(':').ok_or("bad header line")?;
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(value.parse::<usize>().map_err(|_| "bad content-length")?);
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if !chunked && length.is_none() {
        return Err("neither content-length nor chunked");
    }
    Ok(Some(Head {
        status,
        close,
        length,
        chunked,
        body_start: head_end + 4,
    }))
}

/// Whether `buf` can hold a whole response yet: the declared length has
/// arrived, or a chunked body ends in its terminator. A streamed body
/// arrives in hundreds of reads; this keeps the full parse to one per
/// response instead of one per read.
pub fn worth_parsing(buf: &[u8]) -> bool {
    match parse_head(buf) {
        Ok(None) => false,
        Ok(Some(head)) if head.chunked => buf.ends_with(b"0\r\n\r\n"),
        Ok(Some(head)) => buf.len() >= head.body_start + head.length.unwrap_or(0),
        Err(_) => true,
    }
}

/// Parses one response from the front of `buf`, checking its framing:
/// a `Content-Length` body of exactly that length, or chunk frames each
/// ending in CRLF up to the zero-length terminator.
pub fn parse_response(buf: &[u8]) -> Parsed {
    let head = match parse_head(buf) {
        Ok(None) => return Parsed::Partial,
        Ok(Some(head)) => head,
        Err(why) => return Parsed::Malformed(why),
    };
    let (status, close) = (head.status, head.close);
    if !head.chunked {
        let end = head.body_start + head.length.unwrap_or(0);
        if buf.len() < end {
            return Parsed::Partial;
        }
        return Parsed::Complete {
            status,
            close,
            body: buf[head.body_start..end].to_vec(),
            consumed: end,
        };
    }
    let mut body = Vec::new();
    let mut at = head.body_start;
    loop {
        let rest = &buf[at..];
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            return Parsed::Partial;
        };
        let Some(size) = std::str::from_utf8(&rest[..line_end])
            .ok()
            .and_then(|s| usize::from_str_radix(s, 16).ok())
        else {
            return Parsed::Malformed("bad chunk size");
        };
        let data = at + line_end + 2;
        if buf.len() < data + size + 2 {
            return Parsed::Partial;
        }
        if &buf[data + size..data + size + 2] != b"\r\n" {
            return Parsed::Malformed("chunk not CRLF-terminated");
        }
        body.extend_from_slice(&buf[data..data + size]);
        at = data + size + 2;
        if size == 0 {
            return Parsed::Complete {
                status,
                close,
                body,
                consumed: at,
            };
        }
    }
}

/// The scrape grammar CI applies to `/metrics`: every line is a `# `
/// comment or `name{labels} value`.
pub fn scrape_line_ok(line: &str) -> bool {
    if line.starts_with("# ") {
        return true;
    }
    let name_len = line
        .bytes()
        .take_while(|b| b.is_ascii_lowercase() || *b == b'_')
        .count();
    if name_len == 0 {
        return false;
    }
    let mut rest = &line[name_len..];
    if let Some(after) = rest.strip_prefix('{') {
        match after.split_once('}') {
            Some((_, tail)) => rest = tail,
            None => return false,
        }
    }
    match rest.strip_prefix(' ') {
        Some(value) => {
            !value.is_empty()
                && value
                    .bytes()
                    .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        }
        None => false,
    }
}

/// Checks a response's status and body shape for its route.
pub fn check_response(route: Route, status: u16, body: &[u8]) -> Result<(), &'static str> {
    let want = if route == Route::Actions { 202 } else { 200 };
    if status != want {
        return Err("unexpected status");
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return Err("non-UTF-8 body");
    };
    let json = || crate::json::shape(text);
    let object_with = |keys: &[&str]| match json()? {
        Shape::Object(have) if keys.iter().all(|k| have.iter().any(|h| h == k)) => Ok(()),
        _ => Err("expected a JSON object with the route's keys"),
    };
    match route {
        Route::Healthz => (text == "ok\n").then_some(()).ok_or("healthz body"),
        Route::Metrics => (!text.is_empty() && text.lines().all(scrape_line_ok))
            .then_some(())
            .ok_or("scrape grammar"),
        Route::MetricsJson => json().map(|_| ()),
        Route::Incidents | Route::Specs => match json()? {
            Shape::Array => Ok(()),
            _ => Err("expected a JSON array"),
        },
        Route::Machines => object_with(&["id", "task_list"]),
        Route::Query => object_with(&["columns", "rows"]),
        Route::Actions => object_with(&["accepted"]),
    }
}

/// Open-loop send schedule: request `k` is due at `k / rate` after the
/// phase starts, whatever the generator or the server are doing.
#[derive(Debug, Clone)]
pub struct Schedule {
    interval_ns: u64,
    next: u64,
}

impl Schedule {
    /// A schedule of `rate` requests per second.
    pub fn new(rate: f64) -> Schedule {
        Schedule {
            interval_ns: (1e9 / rate.max(1e-9)) as u64,
            next: 0,
        }
    }

    /// When the next unsent request is due, ns after phase start.
    pub fn next_due_ns(&self) -> u64 {
        self.next * self.interval_ns
    }

    /// Takes the next request if it is due at `now_ns`; returns its due
    /// time. Overdue requests keep their original due times, so the
    /// delay a stall imposes is charged to each of them.
    pub fn take_due(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.next_due_ns();
        (due <= now_ns).then(|| {
            self.next += 1;
            due
        })
    }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Fixed schedule at this many requests per second.
    Open(f64),
    /// Next request when the previous one completes.
    Closed,
}

/// One completed, correct response.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Route family.
    pub route: Route,
    /// Response complete minus due time (open) or send time (closed), ns.
    pub latency_ns: f64,
    /// Completion time, ns after phase start.
    pub done_ns: u64,
}

/// What a phase observed.
#[derive(Debug, Default)]
pub struct PhaseReport {
    /// Correct responses, completion order.
    pub records: Vec<Record>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, by reason.
    pub failures: BTreeMap<&'static str, u64>,
    /// Reconnects after an announced `Connection: close`.
    pub reconnects: u64,
    /// How late each open-loop request left, ns.
    pub late_ns: Vec<f64>,
    /// Wall time of the sending window, ns.
    pub wall_ns: u64,
}

impl PhaseReport {
    /// Failed requests.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    fn fail(&mut self, why: &'static str) {
        *self.failures.entry(why).or_insert(0) += 1;
    }
}

struct Pending {
    route: Route,
    from: Instant,
}

struct Conn {
    stream: Option<TcpStream>,
    inbuf: Vec<u8>,
    pending: Option<Pending>,
}

impl Conn {
    /// Connects if needed. A connect failure is the caller's to count.
    fn ensure(&mut self, addr: SocketAddr) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            self.inbuf.clear();
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }
}

/// After the sending window closes, in-flight requests get this long.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// Below this distance to the next due time the generator spins.
const SPIN_NS: u64 = 150_000;

/// Drives `connections` keep-alive connections against `addr` for
/// `seconds`, taking request `k` from `next_request(k)`.
pub fn run_phase(
    addr: SocketAddr,
    mode: Loop,
    connections: usize,
    seconds: f64,
    next_request: &mut dyn FnMut(u64) -> Request,
) -> PhaseReport {
    let mut report = PhaseReport::default();
    let mut conns: Vec<Conn> = (0..connections.max(1))
        .map(|_| Conn {
            stream: None,
            inbuf: Vec::new(),
            pending: None,
        })
        .collect();
    let mut schedule = match mode {
        Loop::Open(rate) => Some(Schedule::new(rate)),
        Loop::Closed => None,
    };
    let mut poll = PollSet::new();
    let start = Instant::now();
    let window_ns = (seconds * 1e9) as u64;
    let mut k = 0u64;
    let mut chunk = vec![0u8; 64 * 1024];

    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        let sending = now_ns < window_ns;
        if !sending && conns.iter().all(|c| c.pending.is_none()) {
            break;
        }
        if now_ns > window_ns + DRAIN_GRACE.as_nanos() as u64 {
            for c in &mut conns {
                if c.pending.take().is_some() {
                    report.fail("unanswered at the deadline");
                }
            }
            break;
        }

        // Send on every idle connection that has a request to carry.
        if sending {
            for c in conns.iter_mut().filter(|c| c.pending.is_none()) {
                let from = match &mut schedule {
                    Some(s) => match s.take_due(start.elapsed().as_nanos() as u64) {
                        Some(due) => start + Duration::from_nanos(due),
                        None => break,
                    },
                    None => Instant::now(),
                };
                let request = next_request(k);
                k += 1;
                report.attempted += 1;
                let sent = c.ensure(addr).and_then(|s| s.write_all(&request.bytes));
                if sent.is_err() {
                    c.stream = None;
                    report.fail("connect or write error");
                    continue;
                }
                if schedule.is_some() {
                    report
                        .late_ns
                        .push(Instant::now().saturating_duration_since(from).as_nanos() as f64);
                }
                c.pending = Some(Pending {
                    route: request.route,
                    from,
                });
            }
        }

        // Wait: for a response, or for the next due time.
        let until_due_ns = match &schedule {
            Some(s) if sending => s
                .next_due_ns()
                .saturating_sub(start.elapsed().as_nanos() as u64),
            _ => u64::MAX,
        };
        poll.clear();
        let mut slots = Vec::with_capacity(conns.len());
        for (i, c) in conns.iter().enumerate() {
            if let (Some(s), Some(_)) = (&c.stream, &c.pending) {
                slots.push((i, poll.push(s.as_raw_fd(), IN)));
            }
        }
        if slots.is_empty() {
            // Nothing in flight: sleep to just short of the next due time.
            if until_due_ns > SPIN_NS && until_due_ns != u64::MAX {
                std::thread::sleep(Duration::from_nanos(until_due_ns - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let timeout_ms = if until_due_ns == u64::MAX {
            20
        } else {
            // Whole milliseconds that fit before the due time; the
            // remainder is covered by zero-timeout polls.
            (until_due_ns / 1_000_000).min(20) as i32
        };
        if poll.wait(timeout_ms).is_err() {
            continue;
        }
        let done = Instant::now();
        for (i, slot) in slots {
            if !poll.readable(slot) {
                continue;
            }
            let c = &mut conns[i];
            let read = c.stream.as_mut().expect("polled stream").read(&mut chunk);
            match read {
                Ok(0) | Err(_) => {
                    // EOF or reset with a request in flight: unannounced.
                    c.stream = None;
                    c.pending = None;
                    report.fail("connection reset");
                    continue;
                }
                Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
            }
            if !worth_parsing(&c.inbuf) {
                continue;
            }
            match parse_response(&c.inbuf) {
                Parsed::Partial => {}
                Parsed::Malformed(why) => {
                    c.stream = None;
                    c.pending = None;
                    report.fail(why);
                }
                Parsed::Complete {
                    status,
                    close,
                    body,
                    consumed,
                } => {
                    let p = c.pending.take().expect("response implies a request");
                    c.inbuf.drain(..consumed);
                    if !c.inbuf.is_empty() {
                        report.fail("bytes after the response");
                        c.stream = None;
                    } else if let Err(why) = check_response(p.route, status, &body) {
                        report.fail(why);
                    } else {
                        report.records.push(Record {
                            route: p.route,
                            latency_ns: done.saturating_duration_since(p.from).as_nanos() as f64,
                            done_ns: done.saturating_duration_since(start).as_nanos() as u64,
                        });
                    }
                    if close {
                        c.stream = None;
                        report.reconnects += 1;
                    }
                }
            }
        }
    }
    report.wall_ns = (start.elapsed().as_nanos() as u64).min(window_ns.max(1));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_due_not_from_send() {
        // 400 req/s: one request every 2.5 ms.
        let mut s = Schedule::new(400.0);
        assert_eq!(s.take_due(0), Some(0));
        assert_eq!(s.take_due(1_000_000), None, "second not due before 2.5 ms");
        assert_eq!(s.next_due_ns(), 2_500_000);
        // The generator stalls until t = 10 ms: requests 1..=4 are all
        // overdue and keep their scheduled due times, so each is charged
        // the part of the stall it sat through.
        let now = 10_000_000;
        let dues: Vec<u64> = std::iter::from_fn(|| s.take_due(now)).collect();
        assert_eq!(dues, vec![2_500_000, 5_000_000, 7_500_000, 10_000_000]);
        let waits: Vec<u64> = dues.iter().map(|d| now - d).collect();
        assert_eq!(waits, vec![7_500_000, 5_000_000, 2_500_000, 0]);
        assert_eq!(s.take_due(now), None);
        assert_eq!(s.next_due_ns(), 12_500_000);
    }

    #[test]
    fn content_length_framing() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nok\nHTTP/1.1";
        match parse_response(wire) {
            Parsed::Complete {
                status,
                close,
                body,
                consumed,
            } => {
                assert_eq!((status, close, body.as_slice()), (200, false, &b"ok\n"[..]));
                assert_eq!(&wire[consumed..], b"HTTP/1.1");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_response(&wire[..wire.len() - 10]), Parsed::Partial);
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), Parsed::Partial);
        assert!(matches!(
            parse_response(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n"),
            Parsed::Malformed(_)
        ));
    }

    #[test]
    fn chunked_framing_and_announced_close() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n1\r\n[\r\n2\r\n{}\r\n1\r\n]\r\n0\r\n\r\n";
        match parse_response(wire) {
            Parsed::Complete {
                close,
                body,
                consumed,
                ..
            } => {
                assert!(close);
                assert_eq!(body, b"[{}]");
                assert_eq!(consumed, wire.len());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_response(&wire[..wire.len() - 3]), Parsed::Partial);
        assert!(worth_parsing(wire));
        assert!(!worth_parsing(&wire[..wire.len() - 3]));
        assert!(!worth_parsing(b"HTTP/1.1 200 OK\r\nContent-Le"));
        assert!(!worth_parsing(
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok"
        ));
        assert!(worth_parsing(
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n"
        ));
        let broken = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n[XX0\r\n\r\n";
        assert!(matches!(parse_response(broken), Parsed::Malformed(_)));
    }

    #[test]
    fn scrape_grammar_matches_ci() {
        for ok in [
            "# HELP cpi_sim_ticks_total ticks",
            "cpi_sim_ticks_total 42",
            "cpi_serve_responses_total{class=\"2xx\"} 1.5e+3",
            "cpi_x{a=\"b\",quantile=\"0.5\"} -0.25",
        ] {
            assert!(scrape_line_ok(ok), "{ok}");
        }
        for bad in [
            "",
            "Cpi_upper 1",
            "cpi_no_value",
            "cpi_no_value ",
            "cpi_open{a=\"b\" 1",
            "cpi_nan NaN",
            "cpi_two 1 2",
        ] {
            assert!(!scrape_line_ok(bad), "{bad}");
        }
    }

    #[test]
    fn body_shape_per_route() {
        assert!(check_response(Route::Healthz, 200, b"ok\n").is_ok());
        assert!(check_response(Route::Healthz, 200, b"ok").is_err());
        assert!(check_response(Route::Healthz, 503, b"ok\n").is_err());
        assert!(check_response(Route::Incidents, 200, b"[]").is_ok());
        assert!(check_response(Route::Incidents, 200, b"{}").is_err());
        assert!(check_response(Route::Machines, 200, b"{\"id\":3,\"task_list\":[]}").is_ok());
        assert!(check_response(Route::Machines, 200, b"{\"id\":3}").is_err());
        assert!(check_response(Route::Query, 200, b"{\"columns\":[],\"rows\":[]}").is_ok());
        assert!(check_response(Route::Query, 200, b"{\"columns\":[]").is_err());
        assert!(check_response(Route::Actions, 202, b"{\"accepted\":1}").is_ok());
        assert!(check_response(Route::Actions, 200, b"{\"accepted\":1}").is_err());
        assert!(check_response(Route::Metrics, 200, b"a_b 1\n# c\n").is_ok());
        assert!(check_response(Route::Metrics, 200, b"a_b one\n").is_err());
    }
}
