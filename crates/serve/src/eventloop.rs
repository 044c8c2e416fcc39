//! Readiness-driven connection shards: HTTP/1.1 keep-alive over
//! non-blocking sockets.
//!
//! [`server::start`](crate::server::start) spawns `cfg.shards` copies of
//! [`shard_loop`], each polling a clone of the shared listener plus its
//! own connection registry via [`poll`](crate::poll) — the sharded-accept
//! model: no accept thread, no handoff queue, and a connection lives its
//! whole life on one shard, so per-connection state needs no locks.
//!
//! Each connection is a small state machine:
//!
//! - **read**: bytes accumulate in a buffer; complete requests are parsed
//!   off the front ([`http::parse_request`]), so pipelined requests cost
//!   one syscall batch. Responses are answered strictly in order — the
//!   next pipelined request is not dispatched until the previous
//!   response (including a streaming body) is fully serialized.
//! - **write**: responses serialize into a write buffer flushed as the
//!   socket drains; a chunked body iterator is pulled only when the
//!   buffer drops below the high-water mark, so a slow client
//!   backpressures the producer instead of ballooning memory.
//! - **deadlines**: a partially-read request must complete within
//!   `read_timeout_ms` (else `408` + close), a stalled write dies after
//!   `WRITE_TIMEOUT`, and an idle keep-alive connection is reaped
//!   after `keep_alive_idle_ms`. A connection is retired after
//!   `max_requests_per_conn` responses (`Connection: close` on the
//!   last).
//! - **errors**: protocol errors answer their status, then linger —
//!   half-close the write side and drain (bounded) until client EOF, so
//!   the response isn't destroyed by a kernel RST.
//!
//! Handlers run on the shard thread under `catch_unwind`: a panicking
//! route costs one `500` (or one aborted stream), never the shard. This
//! module (with `server`/`harness`) is a sanctioned clock site — wall
//! time here only drives socket deadlines, never sim state.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{self, Body, ChunkIter, Framing, Parsed, Response};
use crate::server::{endpoint_label, Handler, ServerConfig, ServerMetrics};

/// Poll granularity: upper bound on deadline/reap detection latency and
/// on shutdown response time.
const POLL_TICK_MS: i32 = 5;
/// Stop pulling a chunked body once this many bytes are buffered.
const WRITE_HIGH_WATER: usize = 64 * 1024;
/// Stop reading new request bytes while this much is still unparsed.
const READ_HIGH_WATER: usize = 256 * 1024;
/// Bound on bytes drained during a lingering close.
const LINGER_DRAIN_MAX: usize = 256 * 1024;
/// A response write may stall (client not draining) at most this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Request ceilings: line + headers (`431` beyond) and body (`413`
/// beyond), sized for an operator console.
const REQUEST_LIMITS: http::ParseLimits = http::ParseLimits {
    max_header_bytes: 8 * 1024,
    max_body_bytes: 64 * 1024,
};

/// Why a connection ended (metrics disposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Alive,
    /// Orderly end: close requested, flushed, or client EOF at a request
    /// boundary.
    Done,
    /// Client vanished mid-request.
    Hangup,
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Bytes of `read_buf` already consumed by the parser.
    read_pos: usize,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written to the socket.
    write_pos: usize,
    /// Chunked body currently streaming (response in flight).
    streaming: Option<ChunkIter>,
    requests_served: u32,
    /// No more requests will be parsed; close once flushed.
    close_after_flush: bool,
    /// After flushing, half-close and drain until client EOF instead of
    /// closing outright (protocol-error responses).
    linger: bool,
    linger_drained: usize,
    /// Client half-closed its write side (EOF seen).
    read_closed: bool,
    /// Wall-clock of the last successful read or write.
    last_activity: Instant,
    /// Set while a partial request sits in the buffer.
    request_started: Option<Instant>,
    fate: Fate,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            read_buf: Vec::with_capacity(1024),
            read_pos: 0,
            write_buf: Vec::with_capacity(1024),
            write_pos: 0,
            streaming: None,
            requests_served: 0,
            close_after_flush: false,
            linger: false,
            linger_drained: 0,
            read_closed: false,
            last_activity: now,
            request_started: None,
            fate: Fate::Alive,
        }
    }

    fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len() || self.streaming.is_some()
    }

    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len() && self.streaming.is_none()
    }
}

/// One shard: accepts from its listener clone and serves its registry
/// until shutdown. `conn_count` is the server-wide connection total the
/// shards share for the global `max_connections` cap.
pub(crate) fn shard_loop(
    listener: TcpListener,
    handler: Handler,
    metrics: ServerMetrics,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    conn_count: Arc<AtomicUsize>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = crate::poll::PollSet::new();
    let listener_fd = listener.as_raw_fd();

    while !shutdown.load(Ordering::SeqCst) {
        // Rebuild the interest set. The listener is polled only while
        // the server-wide connection cap has headroom.
        poll.clear();
        let watch_listener = conn_count.load(Ordering::Relaxed) < cfg.max_connections.max(1);
        let listener_slot = if watch_listener {
            Some(poll.push(listener_fd, crate::poll::IN))
        } else {
            None
        };
        let base = poll.len();
        for c in &conns {
            let mut events = 0i16;
            if !c.read_closed && (c.linger || self_unparsed(c) < READ_HIGH_WATER) {
                events |= crate::poll::IN;
            }
            if c.wants_write() {
                events |= crate::poll::OUT;
            }
            poll.push(c.stream.as_raw_fd(), events);
        }
        if poll.wait(POLL_TICK_MS).is_err() {
            // poll(2) only fails here for EINVAL-class reasons; back off
            // rather than spinning.
            std::thread::sleep(Duration::from_millis(POLL_TICK_MS as u64));
        }
        let now = Instant::now();

        if listener_slot.map(|s| poll.readable(s)).unwrap_or(false) {
            accept_ready(&listener, &mut conns, &metrics, &cfg, &conn_count, now);
        }

        for (i, conn) in conns.iter_mut().enumerate() {
            if poll.readable(base + i) {
                on_readable(conn, &handler, &metrics, &cfg, now);
            }
            if conn.fate == Fate::Alive && (poll.writable(base + i) || conn.wants_write()) {
                on_writable(conn, &handler, &metrics, &cfg, now);
            }
            if conn.fate == Fate::Alive {
                enforce_deadlines(conn, &handler, &metrics, &cfg, now);
            }
        }

        retire(&mut conns, &metrics, &conn_count);
    }

    // Shutdown: drop every connection (in-flight responses were flushed
    // opportunistically on each loop pass; a hard stop is acceptable for
    // an operator-initiated shutdown).
    let dropped = conns.len();
    conns.clear();
    sub_conns(&conn_count, &metrics, dropped);
}

fn self_unparsed(c: &Conn) -> usize {
    c.read_buf.len() - c.read_pos
}

fn accept_ready(
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    metrics: &ServerMetrics,
    cfg: &ServerConfig,
    conn_count: &Arc<AtomicUsize>,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if conn_count.load(Ordering::Relaxed) >= cfg.max_connections.max(1) {
                    // Back-pressure by refusal: answer 503 now rather
                    // than queueing unboundedly (best-effort write on
                    // the fresh socket).
                    metrics.rejected_total.inc();
                    reject_overload(stream);
                    continue;
                }
                conn_count.fetch_add(1, Ordering::Relaxed);
                metrics
                    .open_connections
                    .set(conn_count.load(Ordering::Relaxed) as f64);
                conns.push(Conn::new(stream, now));
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn reject_overload(mut stream: TcpStream) {
    let resp = Response::error(503, "server overloaded, try again");
    let mut out = Vec::with_capacity(256);
    let body = resp.into_body_bytes();
    http::encode_head(
        &mut out,
        503,
        "application/json",
        Framing::Length(body.len()),
        false,
    );
    out.extend_from_slice(&body);
    let _ = stream.write(&out);
    let _ = stream.shutdown(Shutdown::Both);
}

fn on_readable(
    conn: &mut Conn,
    handler: &Handler,
    metrics: &ServerMetrics,
    cfg: &ServerConfig,
    now: Instant,
) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if !conn.linger && self_unparsed(conn) >= READ_HIGH_WATER {
            break; // flow control: parse before reading more
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = now;
                if conn.linger {
                    // Draining a doomed connection: discard, bounded.
                    conn.linger_drained += n;
                    if conn.linger_drained > LINGER_DRAIN_MAX {
                        conn.fate = Fate::Done;
                        return;
                    }
                } else {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.fate = if conn.request_started.is_some() {
                    Fate::Hangup
                } else {
                    Fate::Done
                };
                if conn.fate == Fate::Hangup {
                    metrics.disconnects_total.inc();
                }
                return;
            }
        }
    }

    advance(conn, handler, metrics, cfg, now);

    if conn.read_closed {
        if conn.request_started.is_some() {
            // Mid-request hangup: nothing to answer, just count it.
            metrics.disconnects_total.inc();
            conn.fate = Fate::Hangup;
            return;
        }
        if conn.flushed() {
            conn.fate = Fate::Done;
            return;
        }
        // EOF at a request boundary with responses still in flight:
        // stop parsing, flush what's queued, then close.
        conn.close_after_flush = true;
    }

    if conn.fate == Fate::Alive && conn.wants_write() {
        on_writable(conn, handler, metrics, cfg, now);
    }
}

/// Parses and dispatches as many buffered requests as ordering allows:
/// at most one response may be streaming, and responses are serialized
/// strictly in request order.
fn advance(
    conn: &mut Conn,
    handler: &Handler,
    metrics: &ServerMetrics,
    cfg: &ServerConfig,
    now: Instant,
) {
    while conn.fate == Fate::Alive
        && !conn.close_after_flush
        && conn.streaming.is_none()
        && conn.write_buf.len() - conn.write_pos < WRITE_HIGH_WATER
    {
        if self_unparsed(conn) == 0 {
            conn.request_started = None;
            break;
        }
        match http::parse_request(&conn.read_buf[conn.read_pos..], REQUEST_LIMITS) {
            Parsed::Partial => {
                if conn.request_started.is_none() {
                    conn.request_started = Some(now);
                }
                break;
            }
            Parsed::Bad(status, msg) => {
                metrics.requests_total.inc();
                let resp = Response::error(status, msg);
                metrics.count_response(resp.status);
                enqueue_response(conn, resp, false, handler, metrics);
                conn.close_after_flush = true;
                conn.linger = true;
                conn.request_started = None;
                break;
            }
            Parsed::Complete(req, used) => {
                conn.read_pos += used;
                conn.request_started = None;
                conn.requests_served += 1;
                metrics.requests_total.inc();
                let started = Instant::now();
                let resp = match catch_unwind(AssertUnwindSafe(|| handler(&req))) {
                    Ok(resp) => resp,
                    Err(_) => {
                        metrics.panics_total.inc();
                        Response::error(500, "handler panicked")
                    }
                };
                let keep_alive =
                    !req.close && conn.requests_served < cfg.max_requests_per_conn.max(1);
                if !keep_alive {
                    conn.close_after_flush = true;
                }
                metrics.count_response(resp.status);
                metrics
                    .duration(endpoint_label(&req.path))
                    .record(started.elapsed().as_micros() as f64);
                enqueue_response(conn, resp, keep_alive, handler, metrics);
            }
        }
    }
    // Compact the consumed front of the read buffer.
    if conn.read_pos > 0 {
        if conn.read_pos == conn.read_buf.len() {
            conn.read_buf.clear();
        } else if conn.read_pos >= 4 * 1024 {
            conn.read_buf.drain(..conn.read_pos);
        } else {
            return;
        }
        conn.read_pos = 0;
    }
}

/// Serializes a response head (and body start) into the write buffer.
/// A chunked body parks its iterator on the connection and is pulled as
/// the socket drains.
fn enqueue_response(
    conn: &mut Conn,
    resp: Response,
    keep_alive: bool,
    _handler: &Handler,
    metrics: &ServerMetrics,
) {
    match resp.body {
        Body::Full(bytes) => {
            http::encode_head(
                &mut conn.write_buf,
                resp.status,
                resp.content_type,
                Framing::Length(bytes.len()),
                keep_alive,
            );
            conn.write_buf.extend_from_slice(&bytes);
        }
        Body::Chunks(iter) => {
            http::encode_head(
                &mut conn.write_buf,
                resp.status,
                resp.content_type,
                Framing::Chunked,
                keep_alive,
            );
            conn.streaming = Some(iter);
            fill_stream(conn, metrics);
        }
    }
}

/// Pulls the streaming body into the write buffer up to the high-water
/// mark. A panicking producer aborts the connection (the chunked coding
/// has no way to signal an error mid-body; truncation without the final
/// chunk is the protocol's error marker).
fn fill_stream(conn: &mut Conn, metrics: &ServerMetrics) {
    while conn.write_buf.len() - conn.write_pos < WRITE_HIGH_WATER {
        let Some(iter) = conn.streaming.as_mut() else {
            return;
        };
        match catch_unwind(AssertUnwindSafe(|| iter.next())) {
            Ok(Some(chunk)) => http::encode_chunk(&mut conn.write_buf, &chunk),
            Ok(None) => {
                http::encode_last_chunk(&mut conn.write_buf);
                conn.streaming = None;
                return;
            }
            Err(_) => {
                metrics.panics_total.inc();
                conn.streaming = None;
                conn.fate = Fate::Done;
                return;
            }
        }
    }
}

fn on_writable(
    conn: &mut Conn,
    handler: &Handler,
    metrics: &ServerMetrics,
    cfg: &ServerConfig,
    now: Instant,
) {
    loop {
        if conn.write_pos >= conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            if conn.streaming.is_some() {
                fill_stream(conn, metrics);
                if conn.fate != Fate::Alive {
                    return;
                }
                if conn.write_buf.is_empty() {
                    return; // producer yielded nothing new
                }
                continue;
            }
            break;
        }
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.fate = Fate::Done;
                return;
            }
            Ok(n) => {
                conn.write_pos += n;
                conn.last_activity = now;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.fate = Fate::Done;
                return;
            }
        }
    }

    // Everything queued is on the wire.
    if conn.close_after_flush {
        if conn.linger && !conn.read_closed {
            // Half-close and wait (bounded) for the client to finish
            // sending, so the kernel doesn't RST the response away.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.linger = false; // shutdown issued once
            conn.read_buf.clear();
            conn.read_pos = 0;
            conn.linger_drained = 0;
            conn.request_started = None;
            return; // reaped on EOF or read_timeout
        }
        if conn.read_closed || !conn.linger {
            conn.fate = Fate::Done;
        }
        return;
    }
    if conn.read_closed {
        conn.fate = Fate::Done;
        return;
    }
    // Keep-alive: any pipelined bytes already buffered form the next
    // request.
    advance(conn, handler, metrics, cfg, now);
}

fn enforce_deadlines(
    conn: &mut Conn,
    handler: &Handler,
    metrics: &ServerMetrics,
    cfg: &ServerConfig,
    now: Instant,
) {
    let since_activity = now.saturating_duration_since(conn.last_activity);

    if conn.wants_write() {
        if since_activity > WRITE_TIMEOUT {
            conn.fate = Fate::Done;
        }
        return;
    }

    // A partial request must complete within read_timeout.
    if let Some(started) = conn.request_started {
        if now.saturating_duration_since(started)
            > Duration::from_millis(cfg.read_timeout_ms.max(1))
        {
            metrics.requests_total.inc();
            let resp = Response::error(408, "request timed out");
            metrics.count_response(resp.status);
            enqueue_response(conn, resp, false, handler, metrics);
            conn.close_after_flush = true;
            conn.linger = true;
            conn.request_started = None;
            on_writable(conn, handler, metrics, cfg, now);
        }
        return;
    }

    // Doomed connections waiting out a linger drain give up after
    // read_timeout; idle keep-alive connections are reaped. A connection
    // that has never completed a request gets the (shorter) read
    // timeout, so an open-and-say-nothing socket can't squat for the
    // whole keep-alive idle window.
    let idle_budget = if conn.close_after_flush || conn.requests_served == 0 {
        cfg.read_timeout_ms
    } else {
        cfg.keep_alive_idle_ms
    };
    if since_activity > Duration::from_millis(idle_budget.max(1)) {
        conn.fate = Fate::Done;
    }
}

fn retire(conns: &mut Vec<Conn>, metrics: &ServerMetrics, conn_count: &Arc<AtomicUsize>) {
    let before = conns.len();
    conns.retain(|c| c.fate == Fate::Alive);
    sub_conns(conn_count, metrics, before - conns.len());
}

fn sub_conns(conn_count: &Arc<AtomicUsize>, metrics: &ServerMetrics, n: usize) {
    if n == 0 {
        return;
    }
    conn_count.fetch_sub(n, Ordering::Relaxed);
    metrics
        .open_connections
        .set(conn_count.load(Ordering::Relaxed) as f64);
}
