//! 512 keep-alive clients, all connected at once, each with eight
//! requests in flight, against a fleet that keeps ticking: every
//! response arrives whole, none is an error, no handler panics and no
//! connection is lost. And at the connection ceiling, one client more is
//! refused at once, not queued. What the server does under that fan-in,
//! not how fast — req/s and latency are the benchmark's (`benchmark/`).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

mod common;

use cpi2::sim::SimDuration;
use cpi2_serve::http::{scan_response, ScannedResponse};
use cpi2_serve::poll::{raise_nofile_limit, PollSet, IN};
use cpi2_serve::{ServeHarness, ServerConfig};

const CLIENTS: usize = 512;
const MACHINES: u32 = 12;
/// Requests pipelined per connection; the server retires a connection
/// after 1024 requests, far above this.
const DEPTH: usize = 8;
/// The server's open-connection ceiling.
const CEILING: usize = 1024;
/// Descriptors for both tests at once: both ends of every connection
/// live in this process.
const NOFILE: u64 = ((CLIENTS + CEILING + 1) * 2 + 512) as u64;
const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// Raises `RLIMIT_NOFILE` to what the tests need, or fails naming the grant.
fn raise_nofile() {
    let granted = raise_nofile_limit(NOFILE);
    assert!(
        granted >= NOFILE,
        "RLIMIT_NOFILE grants {granted} descriptors, these tests need {NOFILE}"
    );
}

/// The mixed schedule, per 16 slots: 12 health checks, 2 scrapes, one
/// streamed incident read, one query.
fn request(slot: usize) -> String {
    match slot % 16 {
        12 | 13 => "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
        14 => "GET /incidents HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
        15 => {
            let sql = "SELECT count(*) FROM samples";
            format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{sql}",
                sql.len()
            )
        }
        _ => "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
    }
}

struct Client {
    stream: TcpStream,
    inb: Vec<u8>,
    /// Responses still owed on this connection.
    owed: usize,
}

#[derive(Debug, Default, PartialEq)]
struct Tally {
    responses: usize,
    /// Responses with a status of 400 or above.
    errors: usize,
    /// Failed reads, early closes and bytes that are not a response.
    io_errors: usize,
}

/// Connects every client, puts `DEPTH` requests on each, then reads
/// whichever connection is ready until all are answered. Returns the
/// connections still open, so the caller can count them server-side.
fn drive(addr: SocketAddr) -> (Tally, Vec<Client>) {
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| {
            let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("client {i}: {e}"));
            Client {
                stream,
                inb: Vec::new(),
                owed: DEPTH,
            }
        })
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let pipelined: String = (i..i + DEPTH).map(request).collect();
        c.stream.write_all(pipelined.as_bytes()).expect("send");
        c.stream.set_nonblocking(true).expect("nonblocking");
    }

    let mut tally = Tally::default();
    let mut poll = PollSet::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let waiting: Vec<usize> = (0..clients.len())
            .filter(|&i| clients[i].owed > 0)
            .collect();
        if waiting.is_empty() {
            return (tally, clients);
        }
        assert!(
            Instant::now() < deadline,
            "{} connections unanswered after 60 s: {tally:?}",
            waiting.len()
        );
        poll.clear();
        for &i in &waiting {
            poll.push(clients[i].stream.as_raw_fd(), IN);
        }
        poll.wait(50).expect("poll");
        for (slot, &i) in waiting.iter().enumerate() {
            if poll.readable(slot) {
                read_ready(&mut clients[i], &mut tally);
            }
        }
    }
}

/// Reads what has arrived on `c` and consumes every complete response.
fn read_ready(c: &mut Client, tally: &mut Tally) {
    let mut chunk = [0u8; 16 * 1024];
    let mut lost = loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => c.inb.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
            Err(_) => break true,
        }
    };
    while c.owed > 0 {
        match scan_response(&c.inb) {
            ScannedResponse::Complete { status, consumed } => {
                c.inb.drain(..consumed);
                c.owed -= 1;
                tally.responses += 1;
                tally.errors += usize::from(status >= 400);
            }
            ScannedResponse::Partial => break,
            ScannedResponse::Malformed => {
                lost = true;
                break;
            }
        }
    }
    if lost && c.owed > 0 {
        tally.io_errors += 1;
        c.owed = 0;
    }
}

#[test]
fn five_hundred_twelve_pipelining_clients_are_all_answered() {
    raise_nofile();

    // Learn specs, land the thrashers, and let incidents accumulate, so
    // `/incidents` and `/query` have rows to serve.
    let mut sh = ServeHarness::new(common::fleet(0xFA11, MACHINES));
    sh.run_for(SimDuration::from_mins(25));
    common::plant(sh.inner_mut(), MACHINES);
    sh.run_for(SimDuration::from_mins(10));
    assert!(!sh.inner().incidents().is_empty(), "nothing to stream");
    let addr = sh
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");

    let load = std::thread::spawn(move || drive(addr));
    while !load.is_finished() {
        sh.tick();
        std::thread::sleep(Duration::from_millis(1));
    }
    let (tally, clients) = load.join().expect("client thread");

    let expected = Tally {
        responses: CLIENTS * DEPTH,
        errors: 0,
        io_errors: 0,
    };
    assert_eq!(tally, expected);
    // Every connection was answered, so every one was accepted, and the
    // client still holds them all: the server must count them all open.
    let text = sh.inner().telemetry().prometheus_text().expect("enabled");
    let line = |wanted: &str| text.lines().any(|l| l == wanted);
    assert!(
        line(&format!("cpi_serve_open_connections {CLIENTS}")),
        "not all {CLIENTS} connections open at once:\n{text}"
    );
    assert!(line("cpi_serve_handler_panics_total 0"), "{text}");
    drop(clients);
    sh.shutdown_server();
}

/// Reads one response off a blocking socket: its status and body.
fn read_response(sock: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match scan_response(&buf) {
            ScannedResponse::Complete { status, consumed } => {
                let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
                let body = buf[head_end.map_or(consumed, |h| h + 4)..consumed].to_vec();
                return (status, body);
            }
            ScannedResponse::Partial => {
                let n = sock.read(&mut chunk).expect("read a response");
                assert!(n > 0, "closed mid-response: {buf:?}");
                buf.extend_from_slice(&chunk[..n]);
            }
            ScannedResponse::Malformed => panic!("malformed response: {buf:?}"),
        }
    }
}

#[test]
fn a_client_past_the_ceiling_is_refused_at_once() {
    raise_nofile();
    let mut sh = ServeHarness::new(common::fleet(0xCE11, 2));
    let addr = sh
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");

    // Fill the ceiling with keep-alive clients, each answered once so
    // the server has accepted and counted it.
    let mut held: Vec<TcpStream> = (0..CEILING)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("client {i}: {e}")))
        .collect();
    for s in &mut held {
        s.write_all(HEALTHZ).expect("send");
    }
    for s in &mut held {
        assert_eq!(read_response(s).0, 200);
    }

    // One more: a 503 with a JSON body, at once, not a wait in the
    // kernel backlog until something is reaped.
    let mut extra = TcpStream::connect(addr).expect("connect past the ceiling");
    extra
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let (status, body) = read_response(&mut extra);
    assert_eq!(status, 503);
    #[derive(serde::Deserialize)]
    struct ErrorBody {
        error: String,
    }
    let body: ErrorBody = serde_json::from_slice(&body).expect("a JSON error body");
    assert!(body.error.contains("overloaded"), "{}", body.error);

    // A held client leaves; once the server has counted it gone, the next
    // new client is served.
    drop(held.pop());
    let below = format!("cpi_serve_open_connections {}", CEILING - 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sh
        .inner()
        .telemetry()
        .prometheus_text()
        .expect("enabled")
        .lines()
        .any(|l| l == below)
    {
        assert!(Instant::now() < deadline, "the server never saw the close");
        std::thread::yield_now();
    }
    let mut next = TcpStream::connect(addr).expect("connect");
    next.write_all(HEALTHZ).expect("send");
    assert_eq!(read_response(&mut next).0, 200);
    drop(held);
    sh.shutdown_server();
}
