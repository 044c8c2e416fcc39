//! A dependency-free HTTP/1.1 keep-alive server on `std::net`.
//!
//! Deliberately minimal — the rest of the workspace hand-rolls its
//! infrastructure (channels, locks, serde stand-ins) and the control
//! plane is no exception: no hyper, no tokio, no mio. The shape is
//! sharded accept over a readiness event loop:
//!
//! - [`start`] binds one non-blocking listener and spawns `cfg.shards`
//!   shard threads, each polling its own clone of the listener plus its
//!   private connection registry via `poll(2)`
//!   ([`eventloop`](crate::eventloop)); a connection lives its whole
//!   life on one shard;
//! - each connection is a socket-free, clock-free state machine
//!   (`conn.rs`): keep-alive with pipelining, header and body
//!   ceilings, read/write deadlines, idle reaping, a per-connection
//!   request cap, and a bounded lingering close after an error — all
//!   constants, sized for an operator console;
//! - past `MAX_CONNECTIONS` open connections a new client gets `503` at
//!   once instead of queueing (back-pressure by refusal, like the
//!   collector);
//! - handlers run under `catch_unwind`: a panicking route answers `500`
//!   and the shard lives on.
//!
//! This module (with [`eventloop`](crate::eventloop) and
//! [`harness`](crate::harness)) is the crate's only sanctioned home for
//! wall clocks and `thread::spawn` — the lint scoping in `cpi2-lint`
//! enforces that; routes, state and the connection state machine stay
//! deterministic-friendly.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use cpi2::telemetry::{Counter, Gauge, Histo, Telemetry};

pub use crate::http::{Body, ChunkIter, Request, Response};

/// Server tuning. Everything else a connection is held to — deadlines,
/// size ceilings, the connection ceiling — is a constant.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Accept/connection shard threads.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { shards: 4 }
    }
}

/// The request handler: borrowed request in, owned response out.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync + 'static>;

/// Endpoint label for the per-endpoint duration histogram. A closed set
/// (unknown paths collapse to `other`) so metric cardinality is bounded
/// no matter what clients request.
pub(crate) fn endpoint_label(path: &str) -> &'static str {
    let mut segs = path.split('/').filter(|s| !s.is_empty());
    match (segs.next(), segs.next(), segs.next()) {
        (None, _, _) => "root",
        (Some("healthz"), None, _) => "healthz",
        (Some("version"), None, _) => "version",
        (Some("metrics"), None, _) => "metrics",
        (Some("metrics.json"), None, _) => "metrics_json",
        (Some("incidents"), None, _) => "incidents",
        (Some("incidents"), Some(_), Some("trace")) => "incident_trace",
        (Some("specs"), Some(_), None) => "specs",
        (Some("machines"), Some(_), None) => "machines",
        (Some("debug"), Some("events"), None) => "debug_events",
        (Some("query"), None, _) => "query",
        (Some("actions"), Some(_), None) => "actions",
        _ => "other",
    }
}

/// The endpoint labels pre-registered for duration histograms; must
/// cover everything [`endpoint_label`] can return.
const ENDPOINT_LABELS: [&str; 13] = [
    "root",
    "healthz",
    "version",
    "metrics",
    "metrics_json",
    "incidents",
    "incident_trace",
    "specs",
    "machines",
    "debug_events",
    "query",
    "actions",
    "other",
];

/// Request/response counters and latency histograms, all registered up
/// front with literal names.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServerMetrics {
    pub(crate) requests_total: Counter,
    pub(crate) responses_2xx: Counter,
    pub(crate) responses_4xx: Counter,
    pub(crate) responses_5xx: Counter,
    pub(crate) rejected_total: Counter,
    pub(crate) disconnects_total: Counter,
    pub(crate) panics_total: Counter,
    pub(crate) open_connections: Gauge,
    /// Per-endpoint handler latency, µs, keyed by [`ENDPOINT_LABELS`].
    durations: Vec<(&'static str, Histo)>,
}

impl ServerMetrics {
    fn new(telemetry: &Telemetry) -> ServerMetrics {
        ServerMetrics {
            requests_total: telemetry.counter("cpi_serve_requests_total", &[]),
            responses_2xx: telemetry.counter("cpi_serve_responses_total", &[("class", "2xx")]),
            responses_4xx: telemetry.counter("cpi_serve_responses_total", &[("class", "4xx")]),
            responses_5xx: telemetry.counter("cpi_serve_responses_total", &[("class", "5xx")]),
            rejected_total: telemetry.counter("cpi_serve_rejected_total", &[]),
            disconnects_total: telemetry.counter("cpi_serve_disconnects_total", &[]),
            panics_total: telemetry.counter("cpi_serve_handler_panics_total", &[]),
            open_connections: telemetry.gauge("cpi_serve_open_connections", &[]),
            durations: ENDPOINT_LABELS
                .iter()
                .map(|&ep| {
                    (
                        ep,
                        telemetry.histogram("cpi_serve_request_duration_us", &[("endpoint", ep)]),
                    )
                })
                .collect(),
        }
    }

    pub(crate) fn count_response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }

    /// The duration histogram for an [`endpoint_label`] value.
    pub(crate) fn duration(&self, label: &'static str) -> &Histo {
        self.durations
            .iter()
            .find(|(ep, _)| *ep == label)
            .or_else(|| self.durations.last())
            .map(|(_, h)| h)
            .expect("ENDPOINT_LABELS is non-empty")
    }
}

/// A running server; dropping it without [`shutdown`](Self::shutdown)
/// detaches the threads (they exit with the process).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (useful with a `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drops connections, joins every shard.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves `handler` until shutdown.
///
/// # Errors
///
/// Propagates bind failures.
pub fn start(
    addr: &str,
    cfg: ServerConfig,
    telemetry: &Telemetry,
    handler: Handler,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    // `bind` listens with a backlog of 128; re-listen deeper so an
    // accept burst from a full client fleet (or a reconnect storm in
    // one-request-per-connection mode) queues instead of stalling each
    // overflowed SYN in a ~1 s kernel retransmit.
    {
        use std::os::unix::io::AsRawFd;
        let backlog = crate::eventloop::MAX_CONNECTIONS as libc::c_int;
        let rc = unsafe { libc::listen(listener.as_raw_fd(), backlog) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    let local = listener.local_addr()?;
    let metrics = ServerMetrics::new(telemetry);
    let shutdown = Arc::new(AtomicBool::new(false));
    let conn_count = Arc::new(AtomicUsize::new(0));

    let mut threads = Vec::with_capacity(cfg.shards.max(1));
    for _ in 0..cfg.shards.max(1) {
        let listener = listener.try_clone()?;
        let handler = Arc::clone(&handler);
        let metrics = metrics.clone();
        let shutdown = Arc::clone(&shutdown);
        let conn_count = Arc::clone(&conn_count);
        threads.push(thread::spawn(move || {
            crate::eventloop::shard_loop(listener, handler, metrics, shutdown, conn_count);
        }));
    }

    Ok(ServerHandle {
        addr: local,
        shutdown,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn echo_server() -> ServerHandle {
        let telemetry = Telemetry::disabled();
        let handler: Handler =
            Arc::new(|req: &Request| Response::text(200, format!("you asked for {}", req.path)));
        start("127.0.0.1:0", ServerConfig::default(), &telemetry, handler).expect("bind")
    }

    #[test]
    fn endpoint_labels_are_a_closed_set() {
        assert_eq!(endpoint_label("/"), "root");
        assert_eq!(endpoint_label("/metrics"), "metrics");
        assert_eq!(endpoint_label("/incidents"), "incidents");
        assert_eq!(endpoint_label("/incidents/7/trace"), "incident_trace");
        assert_eq!(endpoint_label("/specs/3"), "specs");
        assert_eq!(endpoint_label("/machines/12"), "machines");
        assert_eq!(endpoint_label("/debug/events"), "debug_events");
        assert_eq!(endpoint_label("/query"), "query");
        assert_eq!(endpoint_label("/actions/cap"), "actions");
        assert_eq!(endpoint_label("/../../etc/passwd"), "other");
        for path in ["/", "/metrics", "/nope", "/actions/cap"] {
            assert!(ENDPOINT_LABELS.contains(&endpoint_label(path)));
        }
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = echo_server();
        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        for i in 0..5 {
            sock.write_all(format!("GET /r{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .expect("write");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match crate::http::scan_response(&buf) {
                    crate::http::ScannedResponse::Partial => {
                        let n = sock.read(&mut chunk).expect("read");
                        assert!(n > 0, "server closed a keep-alive connection");
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    crate::http::ScannedResponse::Complete { status, .. } => {
                        assert_eq!(status, 200);
                        break;
                    }
                    crate::http::ScannedResponse::Malformed => panic!("malformed response"),
                }
            }
            let text = String::from_utf8_lossy(&buf);
            assert!(text.contains("Connection: keep-alive"), "{text}");
            assert!(text.contains(&format!("you asked for /r{i}")), "{text}");
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = echo_server();
        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        // Three requests in one write; the last asks to close.
        sock.write_all(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .expect("write");
        let mut all = String::new();
        sock.read_to_string(&mut all).expect("read to EOF");
        let a = all.find("you asked for /a").expect("first response");
        let b = all.find("you asked for /b").expect("second response");
        let c = all.find("you asked for /c").expect("third response");
        assert!(a < b && b < c, "responses out of order: {all}");
        assert_eq!(all.matches("HTTP/1.1 200 OK").count(), 3);
        server.shutdown();
    }
}
