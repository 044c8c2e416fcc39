//! Loopback HTTP tests: every endpoint answers well-formed output, and
//! hostile input (malformed request lines, oversized headers/bodies, a
//! client that keeps sending after its error, mid-request and mid-chunk
//! disconnects) gets a 4xx or a clean close — never a panic, never a
//! wedged shard. The deadlines (`408`, idle reaping, the request cap)
//! are the connection state machine's unit tests, run on a stepped
//! clock instead of sleeps.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, Platform, SimDuration};
use cpi2::telemetry::Telemetry;
use cpi2_serve::http::{scan_response, ScannedResponse};
use cpi2_serve::{ServeHarness, ServerConfig};

fn boot() -> (ServeHarness, std::net::SocketAddr) {
    let telemetry = Telemetry::enabled();
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 42,
        telemetry: telemetry.clone(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 4);
    cpi2::workloads::submit_typical_mix(&mut cluster, 1, 42);
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut sh = ServeHarness::new(Cpi2Harness::new(cluster, config));
    sh.run_for(SimDuration::from_mins(3));
    let addr = sh
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (sh, addr)
}

/// Decodes a chunked transfer coding (already split from the head).
fn dechunk(mut rest: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let Some(eol) = rest.windows(2).position(|w| w == b"\r\n") else {
            return out;
        };
        let Some(size) = std::str::from_utf8(&rest[..eol])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
        else {
            return out;
        };
        if size == 0 || rest.len() < eol + 2 + size {
            return out;
        }
        out.extend_from_slice(&rest[eol + 2..eol + 2 + size]);
        rest = &rest[eol + 2 + size + 2..];
    }
}

/// Parses one response from raw wire bytes: status plus the decoded
/// (de-chunked when applicable) body.
fn parse_response(wire: &[u8]) -> (u16, String) {
    let Some(head_end) = wire.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (0, String::new());
    };
    let head = String::from_utf8_lossy(&wire[..head_end]).to_ascii_lowercase();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body_bytes = &wire[head_end + 4..];
    let body = if head.contains("transfer-encoding: chunked") {
        dechunk(body_bytes)
    } else {
        body_bytes.to_vec()
    };
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// Sends raw bytes, returns (status, decoded body). Half-closes the
/// write side after sending so the server's lingering-close drain ends
/// at EOF.
fn raw(addr: std::net::SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(bytes).expect("write");
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read");
    parse_response(&out)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Mirror of the CI scrape-line regex `^# |^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`.
fn sample_line_ok(line: &str) -> bool {
    if line.starts_with("# ") {
        return true;
    }
    let Some((name_part, value)) = line.rsplit_once(' ') else {
        return false;
    };
    if value.is_empty()
        || !value
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
    {
        return false;
    }
    let name = match name_part.split_once('{') {
        Some((n, rest)) => {
            if !rest.ends_with('}') || rest[..rest.len() - 1].contains('}') {
                return false;
            }
            n
        }
        None => name_part,
    };
    !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '_')
}

#[test]
fn endpoints_serve_well_formed_output() {
    let (mut sh, addr) = boot();

    let (code, body) = get(addr, "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    let (code, body) = get(addr, "/version");
    assert_eq!(code, 200);
    assert!(body.contains("\"name\":\"cpi2-serve\""), "{body}");

    let (code, body) = get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(body.contains("cpi_sim_ticks_total"), "{body}");
    // New serve metrics: the open-connection gauge (this scrape's own
    // connection counts), per-endpoint latency histograms from the
    // requests above, and the tick-thread publish-cost histogram.
    assert!(body.contains("cpi_serve_open_connections"), "{body}");
    assert!(
        body.contains("cpi_serve_request_duration_us{endpoint=\"healthz\""),
        "{body}"
    );
    assert!(body.contains("cpi_serve_publish_us"), "{body}");
    for line in body.lines() {
        assert!(
            sample_line_ok(line),
            "scrape line fails CI grammar: {line:?}"
        );
    }

    let (code, body) = get(addr, "/metrics.json");
    assert_eq!(code, 200);
    assert!(
        body.starts_with('{') && body.contains("\"counters\""),
        "{body}"
    );

    let (code, body) = get(addr, "/incidents");
    assert_eq!(code, 200);
    assert!(body.starts_with('['), "{body}");

    let (code, body) = get(addr, "/machines/0");
    assert_eq!(code, 200);
    assert!(body.contains("\"task_list\""), "{body}");

    let (code, body) = get(addr, "/debug/events");
    assert_eq!(code, 200);
    assert!(body.starts_with('['), "{body}");

    let (code, body) = post(addr, "/query", "SELECT id, tasks FROM machines ORDER BY id");
    assert_eq!(code, 200);
    assert!(body.contains("\"columns\":[\"id\",\"tasks\"]"), "{body}");

    let (code, _) = post(addr, "/actions/protection?enabled=false", "");
    assert_eq!(code, 202);
    sh.tick();
    assert!(!sh.inner().protection_enabled());
    let (code, _) = post(addr, "/actions/protection?enabled=true", "");
    assert_eq!(code, 202);
    sh.tick();
    assert!(sh.inner().protection_enabled());

    sh.shutdown_server();
}

#[test]
fn hostile_input_never_panics() {
    let (mut sh, addr) = boot();

    // Malformed request line.
    let (code, _) = raw(addr, b"GARBAGE\r\n\r\n");
    assert_eq!(code, 400);
    let (code, _) = raw(addr, b"GET /too many words here\r\n\r\n");
    assert_eq!(code, 400);
    // HTTP/0.9-style and bad versions.
    let (code, _) = raw(addr, b"GET / SPDY/99\r\n\r\n");
    assert_eq!(code, 400);
    // Unsupported method.
    let (code, _) = raw(addr, b"DELETE / HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(code, 405);
    // Unknown routes.
    let (code, _) = get(addr, "/no/such/route");
    assert_eq!(code, 404);
    let (code, _) = post(addr, "/actions/self-destruct?job=1&index=0", "");
    assert_eq!(code, 404);
    // Oversized headers.
    let mut big = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
    big.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(16 * 1024)).as_bytes());
    let (code, _) = raw(addr, &big);
    assert_eq!(code, 431);
    // Oversized declared body.
    let (code, _) = raw(
        addr,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 10000000\r\n\r\n",
    );
    assert_eq!(code, 413);
    // Nonsense content-length.
    let (code, _) = raw(
        addr,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(code, 400);
    // Bad SQL is a 400, not a panic.
    let (code, _) = post(addr, "/query", "DROP TABLE incidents");
    assert_eq!(code, 400);
    // Bad action parameters.
    let (code, _) = post(addr, "/actions/cap?job=x&index=y&rate=z", "");
    assert_eq!(code, 400);
    let (code, _) = post(addr, "/actions/cap?job=1&index=0&rate=-4", "");
    assert_eq!(code, 400);

    // Mid-request disconnects: write a partial request and hang up.
    for partial in [
        &b"GET /metr"[..],
        &b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\nSELE"[..],
    ] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(partial).expect("write");
        drop(s);
    }

    // The server survived all of it and still answers.
    let (code, body) = get(addr, "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let text = sh
        .inner()
        .telemetry()
        .prometheus_text()
        .expect("telemetry on");
    assert!(
        text.contains("cpi_serve_handler_panics_total 0"),
        "a handler panicked:\n{text}"
    );

    sh.shutdown_server();
}

/// Reads one full response off a keep-alive socket (connection stays
/// open), returning (status, raw wire bytes of that response). `buf`
/// carries bytes read past the response boundary — with pipelining,
/// one `read()` may return pieces of several responses.
fn read_one_response(sock: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Vec<u8>) {
    let mut chunk = [0u8; 4096];
    loop {
        match scan_response(buf) {
            ScannedResponse::Complete { status, consumed } => {
                let wire = buf[..consumed].to_vec();
                buf.drain(..consumed);
                return (status, wire);
            }
            ScannedResponse::Partial => {
                let n = sock.read(&mut chunk).expect("read");
                assert!(n > 0, "connection closed mid-response");
                buf.extend_from_slice(&chunk[..n]);
            }
            ScannedResponse::Malformed => panic!("malformed response: {buf:?}"),
        }
    }
}

#[test]
fn a_client_sending_past_its_431_is_drained_a_bounded_amount() {
    let (mut sh, addr) = boot();
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut big = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
    big.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(16 * 1024)).as_bytes());
    s.write_all(&big).expect("write");
    // The 431 arrives whole, followed by the server's half-close.
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read to the half-close");
    assert_eq!(parse_response(&out).0, 431);

    // Keep sending: the server discards up to its 256 KiB drain budget,
    // then closes, and a write fails — it does not hold the connection
    // until the read timeout.
    s.set_write_timeout(Some(Duration::from_secs(3)))
        .expect("timeout");
    let started = Instant::now();
    let junk = [b'x'; 16 * 1024];
    let mut sent = 0usize;
    let err = loop {
        match s.write(&junk) {
            Ok(n) => sent += n,
            Err(e) => break e,
        }
    };
    let waited = started.elapsed();
    assert!(
        !matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "still open after {sent} bytes and {waited:?}: {err}"
    );
    assert!(sent > 256 * 1024, "closed after only {sent} bytes");
    assert!(waited < Duration::from_secs(1), "closed after {waited:?}");
    sh.shutdown_server();
}

#[test]
fn pipelined_requests_against_live_harness() {
    let (mut sh, addr) = boot();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(
        b"GET /healthz HTTP/1.1\r\n\r\nGET /version HTTP/1.1\r\n\r\nGET /incidents HTTP/1.1\r\n\r\n",
    )
    .expect("write");
    let mut carry = Vec::new();
    let (code, _) = read_one_response(&mut s, &mut carry);
    assert_eq!(code, 200);
    let (code, wire) = read_one_response(&mut s, &mut carry);
    assert_eq!(code, 200);
    assert!(
        String::from_utf8_lossy(&wire).contains("cpi2-serve"),
        "second pipelined response is /version"
    );
    let (code, wire) = read_one_response(&mut s, &mut carry);
    assert_eq!(code, 200);
    assert!(
        String::from_utf8_lossy(&wire)
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "/incidents streams"
    );
    // The connection is still usable afterwards.
    s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("write");
    let (code, _) = read_one_response(&mut s, &mut carry);
    assert_eq!(code, 200);
    sh.shutdown_server();
}

#[test]
fn mid_chunk_disconnect_is_survived() {
    let (mut sh, addr) = boot();
    // Start reading a chunked response, then vanish mid-body.
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /incidents HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let mut first = [0u8; 16];
        let _ = s.read(&mut first); // some of the head, not all of the body
        drop(s); // RST or FIN mid-chunk
    }
    // Shards are all still alive and answering.
    for _ in 0..4 {
        let (code, _) = get(addr, "/healthz");
        assert_eq!(code, 200);
    }
    let text = sh
        .inner()
        .telemetry()
        .prometheus_text()
        .expect("telemetry on");
    assert!(
        text.contains("cpi_serve_handler_panics_total 0"),
        "a handler panicked:\n{text}"
    );
    sh.shutdown_server();
}
