//! Readiness-driven connection shards: the socket half of the server.
//!
//! [`server::start`](crate::server::start) spawns `cfg.shards` copies of
//! `shard_loop`, each polling a clone of the shared listener plus its
//! own connection registry via [`poll`](crate::poll) — the sharded-accept
//! model: no accept thread, no handoff queue, and a connection lives its
//! whole life on one shard, so per-connection state needs no locks.
//!
//! A shard only moves bytes: `poll` → `accept`/`read`/`write`/`shutdown`
//! → a call into the connection's state machine (`conn.rs`),
//! which makes every protocol decision and owns every deadline. The
//! listener stays in the poll set at all times, so a client past
//! `MAX_CONNECTIONS` is answered `503` at once instead of waiting in the
//! kernel backlog.
//!
//! Handlers run on the shard thread under `catch_unwind`: a panicking
//! route costs one `500` (or one aborted stream), never the shard. This
//! module (with `server`/`harness`) is a sanctioned clock site — wall
//! time here only stamps socket events and times handlers, never sim
//! state.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{Conn, Fate, Shard, READ_CHUNK};
use crate::http::{self, Framing, Request, Response};
use crate::poll::{PollSet, IN, OUT};
use crate::server::{endpoint_label, Handler, ServerMetrics};

/// Poll granularity: upper bound on deadline/reap detection latency and
/// on shutdown response time.
const POLL_TICK_MS: i32 = 5;
/// Server-wide open-connection ceiling, and the listen backlog: past it a
/// new client gets `503`.
pub(crate) const MAX_CONNECTIONS: usize = 1024;

/// One shard: accepts from its listener clone and serves its registry
/// until shutdown. `conn_count` is the server-wide connection total the
/// shards share for `MAX_CONNECTIONS`.
pub(crate) fn shard_loop(
    listener: TcpListener,
    handler: Handler,
    metrics: ServerMetrics,
    shutdown: Arc<AtomicBool>,
    conn_count: Arc<AtomicUsize>,
) {
    let mut conns: Vec<(TcpStream, Conn)> = Vec::new();
    let mut poll = PollSet::new();
    let epoch = Instant::now();
    let mut respond = |req: &Request| {
        let started = Instant::now();
        let resp = catch_unwind(AssertUnwindSafe(|| handler(req))).unwrap_or_else(|_| {
            metrics.panics_total.inc();
            Response::error(500, "handler panicked")
        });
        metrics
            .duration(endpoint_label(&req.path))
            .record(started.elapsed().as_micros() as f64);
        resp
    };
    let mut shard = Shard {
        respond: &mut respond,
        metrics: &metrics,
    };

    while !shutdown.load(Ordering::SeqCst) {
        poll.clear();
        poll.push(listener.as_raw_fd(), IN);
        for (stream, conn) in &conns {
            let read = if conn.wants_read() { IN } else { 0 };
            let write = if conn.wants_write() { OUT } else { 0 };
            poll.push(stream.as_raw_fd(), read | write);
        }
        if poll.wait(POLL_TICK_MS).is_err() {
            // poll(2) only fails here for EINVAL-class reasons; back off
            // rather than spinning.
            std::thread::sleep(Duration::from_millis(POLL_TICK_MS as u64));
        }
        let now = epoch.elapsed().as_millis() as u64;

        if poll.readable(0) {
            accept_ready(&listener, &mut conns, &metrics, &conn_count, now);
        }
        // Connections accepted just now sit past the polled slots, which
        // read as not ready.
        for (i, (stream, conn)) in conns.iter_mut().enumerate() {
            if poll.readable(i + 1) {
                read_ready(stream, conn, now, &mut shard);
            }
            conn.tick(now, &metrics);
            write_ready(stream, conn, now, &mut shard);
            if conn.take_half_close() {
                let _ = stream.shutdown(Shutdown::Write);
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

fn accept_ready(
    listener: &TcpListener,
    conns: &mut Vec<(TcpStream, Conn)>,
    metrics: &ServerMetrics,
    conn_count: &AtomicUsize,
    now: u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if conn_count.fetch_add(1, Ordering::Relaxed) >= MAX_CONNECTIONS {
                    // Back-pressure by refusal: answer 503 now rather
                    // than queueing unboundedly (best-effort write on
                    // the fresh socket).
                    conn_count.fetch_sub(1, Ordering::Relaxed);
                    metrics.rejected_total.inc();
                    reject_overload(stream);
                    continue;
                }
                metrics
                    .open_connections
                    .set(conn_count.load(Ordering::Relaxed) as f64);
                conns.push((stream, Conn::new(now)));
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

/// Reads while the connection wants bytes, until the socket would block.
fn read_ready(stream: &mut TcpStream, conn: &mut Conn, now: u64, shard: &mut Shard) {
    let mut chunk = [0u8; READ_CHUNK];
    while conn.wants_read() {
        match stream.read(&mut chunk) {
            Ok(0) => conn.eof(now, shard),
            Ok(n) => conn.received(&chunk[..n], now, shard),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => conn.reset(),
        }
    }
}

/// Writes while the connection has output, until the socket would block.
fn write_ready(stream: &mut TcpStream, conn: &mut Conn, now: u64, shard: &mut Shard) {
    while conn.wants_write() {
        match stream.write(conn.pending()) {
            Ok(n) if n > 0 => conn.written(n, now, shard),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => conn.reset(),
        }
    }
}

fn retire(conns: &mut Vec<(TcpStream, Conn)>, metrics: &ServerMetrics, conn_count: &AtomicUsize) {
    let before = conns.len();
    conns.retain(|(_, conn)| match conn.fate() {
        None => true,
        Some(fate) => {
            if fate == Fate::Hangup {
                metrics.disconnects_total.inc();
            }
            false
        }
    });
    sub_conns(conn_count, metrics, before - conns.len());
}

fn sub_conns(conn_count: &AtomicUsize, metrics: &ServerMetrics, n: usize) {
    if n == 0 {
        return;
    }
    conn_count.fetch_sub(n, Ordering::Relaxed);
    metrics
        .open_connections
        .set(conn_count.load(Ordering::Relaxed) as f64);
}
