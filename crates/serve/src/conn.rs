//! One HTTP/1.1 connection as a state machine with no socket and no
//! clock. The event loop ([`eventloop`](crate::eventloop)) feeds it what
//! the socket did — bytes received, EOF, bytes written — each with a
//! millisecond stamp, and reads back what to write, when to half-close,
//! which readiness to poll for, and whether the connection is finished.
//! Every behaviour below is therefore tested by stepping a number, not
//! by sleeping.
//!
//! - **serving**: complete requests are parsed off the front of the read
//!   buffer ([`http::parse_request`]) and answered strictly in order. The
//!   next pipelined request waits until the previous response, a
//!   streaming body included, is serialized and the write buffer is
//!   under `WRITE_HIGH_WATER`; a chunked body is pulled only as that
//!   buffer drains, so a slow client backpressures the producer. Reading
//!   pauses at `READ_HIGH_WATER`.
//! - **deadlines**: a partial request must complete within
//!   `READ_TIMEOUT_MS` (else `408`), a stalled write dies after
//!   `WRITE_TIMEOUT_MS`, an idle keep-alive connection is reaped after
//!   `KEEP_ALIVE_IDLE_MS` (one that never completed a request, after the
//!   read timeout), and a connection is retired after
//!   `MAX_REQUESTS_PER_CONN` responses (`Connection: close` on the last).
//! - **errors**: a protocol error answers its status, then lingers: once
//!   the response is flushed the loop half-closes the write side, and
//!   input is discarded, not buffered, until client EOF,
//!   `LINGER_DRAIN_MAX` bytes or the read timeout, whichever comes first —
//!   so the response is not destroyed by a kernel RST.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::http::{self, Body, ChunkIter, Framing, Parsed, Request, Response};
use crate::server::ServerMetrics;

/// A partial request must complete within this, ms (`408` beyond). It
/// also bounds a connection that never completes a request, and a drain.
const READ_TIMEOUT_MS: u64 = 5_000;
/// An idle keep-alive connection is reaped after this, ms.
const KEEP_ALIVE_IDLE_MS: u64 = 30_000;
/// A response write may stall (client not draining) at most this long, ms.
const WRITE_TIMEOUT_MS: u64 = 5_000;
/// Responses per connection before it is retired with `Connection: close`.
const MAX_REQUESTS_PER_CONN: u32 = 1024;
/// Stop pulling a chunked body, and dispatching pipelined requests,
/// while this many bytes wait to be written.
const WRITE_HIGH_WATER: usize = 64 * 1024;
/// Stop reading while this many bytes are buffered.
const READ_HIGH_WATER: usize = 256 * 1024;
/// The most the loop reads in one call: buffered input stays under
/// `READ_HIGH_WATER` plus this.
pub(crate) const READ_CHUNK: usize = 16 * 1024;
/// Bound on bytes discarded during a lingering close.
const LINGER_DRAIN_MAX: usize = 256 * 1024;
/// Request ceilings: line + headers (`431` beyond) and body (`413`
/// beyond), sized for an operator console.
const REQUEST_LIMITS: http::ParseLimits = http::ParseLimits {
    max_header_bytes: 8 * 1024,
    max_body_bytes: 64 * 1024,
};

/// How a finished connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Orderly end: closed after its last response, reaped, drained, or
    /// client EOF at a request boundary.
    Done,
    /// The client vanished mid-request.
    Hangup,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Parsing requests and answering them in order. `eof`: the client
    /// half-closed, so what is buffered is all there will be.
    Serving {
        eof: bool,
    },
    /// Nothing more is parsed. Once the output is flushed the connection
    /// closes or, with `linger`, half-closes and drains. `eof` as above.
    Flushing {
        linger: bool,
        eof: bool,
    },
    /// Write side shut after an error response: input is discarded until
    /// client EOF, `budget` more bytes, or the read timeout.
    Draining {
        budget: usize,
    },
    Closed(Fate),
}

/// What a connection borrows from its shard for one call: the request
/// handler, timed and unwind-guarded on the loop side, and the counters.
pub(crate) struct Shard<'a> {
    pub(crate) respond: &'a mut dyn FnMut(&Request) -> Response,
    pub(crate) metrics: &'a ServerMetrics,
}

pub(crate) struct Conn {
    read_buf: Vec<u8>,
    /// Bytes of `read_buf` already consumed by the parser.
    read_pos: usize,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written.
    write_pos: usize,
    /// The chunked body being produced. While set, `write_buf` holds
    /// unwritten bytes.
    streaming: Option<ChunkIter>,
    requests_served: u32,
    phase: Phase,
    /// Stamp of the last byte written, or received before a drain, ms.
    last_activity: u64,
    /// Stamp at which the partial request at the front of the buffer was
    /// first seen, ms.
    request_started: Option<u64>,
}

impl Conn {
    pub(crate) fn new(now_ms: u64) -> Conn {
        Conn {
            read_buf: Vec::with_capacity(1024),
            read_pos: 0,
            write_buf: Vec::with_capacity(1024),
            write_pos: 0,
            streaming: None,
            requests_served: 0,
            phase: Phase::Serving { eof: false },
            last_activity: now_ms,
            request_started: None,
        }
    }

    /// Whether the loop should read: not after EOF, not at the read
    /// high-water mark, and always while draining.
    pub(crate) fn wants_read(&self) -> bool {
        match self.phase {
            Phase::Serving { eof } | Phase::Flushing { eof, .. } => {
                !eof && self.read_buf.len() < READ_HIGH_WATER
            }
            Phase::Draining { .. } => true,
            Phase::Closed(_) => false,
        }
    }

    /// Output waiting for the socket.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    pub(crate) fn wants_write(&self) -> bool {
        self.fate().is_none() && !self.pending().is_empty()
    }

    /// `None` while the connection lives.
    pub(crate) fn fate(&self) -> Option<Fate> {
        match self.phase {
            Phase::Closed(fate) => Some(fate),
            _ => None,
        }
    }

    pub(crate) fn received(&mut self, bytes: &[u8], now_ms: u64, shard: &mut Shard) {
        match self.phase {
            Phase::Draining { budget } if bytes.len() < budget => {
                self.phase = Phase::Draining {
                    budget: budget - bytes.len(),
                };
            }
            Phase::Draining { .. } => self.phase = Phase::Closed(Fate::Done),
            Phase::Closed(_) => {}
            Phase::Serving { .. } | Phase::Flushing { .. } => {
                self.last_activity = now_ms;
                self.read_buf.extend_from_slice(bytes);
                self.advance(now_ms, shard);
            }
        }
    }

    /// The client half-closed its write side.
    pub(crate) fn eof(&mut self, now_ms: u64, shard: &mut Shard) {
        match self.phase {
            Phase::Serving { .. } => {
                self.phase = Phase::Serving { eof: true };
                self.advance(now_ms, shard);
            }
            Phase::Flushing { .. } => self.stop(false, true),
            Phase::Draining { .. } => self.phase = Phase::Closed(Fate::Done),
            Phase::Closed(_) => {}
        }
    }

    /// The socket failed: the connection ends where it stands.
    pub(crate) fn reset(&mut self) {
        self.phase = Phase::Closed(match self.request_started {
            Some(_) => Fate::Hangup,
            None => Fate::Done,
        });
    }

    /// `n` bytes of [`pending`](Self::pending) reached the socket.
    pub(crate) fn written(&mut self, n: usize, now_ms: u64, shard: &mut Shard) {
        self.write_pos += n;
        self.last_activity = now_ms;
        if !self.pending().is_empty() {
            return;
        }
        self.write_buf.clear();
        self.write_pos = 0;
        if self.streaming.is_some() {
            self.fill_stream(shard.metrics);
            return;
        }
        match self.phase {
            // Keep-alive: pipelined bytes already buffered form the next
            // request.
            Phase::Serving { .. } => self.advance(now_ms, shard),
            Phase::Flushing { linger: false, .. } => self.phase = Phase::Closed(Fate::Done),
            _ => {}
        }
    }

    /// `true` once, when an error response has been flushed and the loop
    /// must shut the socket's write side; the connection then drains.
    pub(crate) fn take_half_close(&mut self) -> bool {
        if !matches!(self.phase, Phase::Flushing { linger: true, .. }) || self.wants_write() {
            return false;
        }
        self.phase = Phase::Draining {
            budget: LINGER_DRAIN_MAX,
        };
        self.read_buf.clear();
        self.read_pos = 0;
        true
    }

    /// Enforces the deadlines as of `now_ms`.
    pub(crate) fn tick(&mut self, now_ms: u64, metrics: &ServerMetrics) {
        let limit_ms = match (self.phase, self.request_started) {
            (Phase::Closed(_), _) => return,
            _ if self.wants_write() => WRITE_TIMEOUT_MS,
            (_, Some(started)) => {
                if now_ms.saturating_sub(started) > READ_TIMEOUT_MS {
                    self.request_started = None;
                    self.last_activity = now_ms;
                    self.answer(Response::error(408, "request timed out"), false, metrics);
                    self.stop(true, false);
                }
                return;
            }
            (Phase::Serving { .. }, None) if self.requests_served > 0 => KEEP_ALIVE_IDLE_MS,
            _ => READ_TIMEOUT_MS,
        };
        if now_ms.saturating_sub(self.last_activity) > limit_ms {
            self.phase = Phase::Closed(Fate::Done);
        }
    }

    /// Stops parsing: flush what is queued, then close or — `linger`,
    /// unless the client already sent EOF — half-close and drain.
    fn stop(&mut self, linger: bool, eof: bool) {
        if self.fate().is_some() {
            return;
        }
        let linger = linger && !eof;
        self.phase = if linger || self.wants_write() {
            Phase::Flushing { linger, eof }
        } else {
            Phase::Closed(Fate::Done)
        };
    }

    /// Parses and answers buffered requests while ordering allows: no
    /// response streaming, and the write buffer under its high-water mark.
    fn advance(&mut self, now_ms: u64, shard: &mut Shard) {
        while let Phase::Serving { eof } = self.phase {
            if self.streaming.is_some() || self.pending().len() >= WRITE_HIGH_WATER {
                break;
            }
            if self.read_pos == self.read_buf.len() {
                self.request_started = None;
                if eof {
                    self.stop(false, true);
                }
                break;
            }
            match http::parse_request(&self.read_buf[self.read_pos..], REQUEST_LIMITS) {
                Parsed::Partial if eof => self.phase = Phase::Closed(Fate::Hangup),
                Parsed::Partial => {
                    self.request_started.get_or_insert(now_ms);
                    break;
                }
                Parsed::Bad(status, msg) => {
                    self.request_started = None;
                    self.answer(Response::error(status, msg), false, shard.metrics);
                    self.stop(true, eof);
                }
                Parsed::Complete(req, used) => {
                    self.read_pos += used;
                    self.request_started = None;
                    self.requests_served += 1;
                    let keep_alive = !req.close && self.requests_served < MAX_REQUESTS_PER_CONN;
                    let resp = (shard.respond)(&req);
                    self.answer(resp, keep_alive, shard.metrics);
                    if !keep_alive {
                        self.stop(false, eof);
                    }
                }
            }
        }
        // Compact the consumed front of the read buffer.
        if self.read_pos == self.read_buf.len() {
            self.read_buf.clear();
            self.read_pos = 0;
        } else if self.read_pos >= 4 * 1024 {
            self.read_buf.drain(..self.read_pos);
            self.read_pos = 0;
        }
    }

    /// Counts one answered request and serializes its response head (and
    /// body start) into the write buffer. A chunked body parks its
    /// iterator here and is pulled as the socket drains.
    fn answer(&mut self, resp: Response, keep_alive: bool, metrics: &ServerMetrics) {
        metrics.requests_total.inc();
        metrics.count_response(resp.status);
        let framing = match &resp.body {
            Body::Full(bytes) => Framing::Length(bytes.len()),
            Body::Chunks(_) => Framing::Chunked,
        };
        http::encode_head(
            &mut self.write_buf,
            resp.status,
            resp.content_type,
            framing,
            keep_alive,
        );
        match resp.body {
            Body::Full(bytes) => self.write_buf.extend_from_slice(&bytes),
            Body::Chunks(iter) => {
                self.streaming = Some(iter);
                self.fill_stream(metrics);
            }
        }
    }

    /// Pulls the streaming body into the write buffer up to the
    /// high-water mark. A panicking producer ends the connection: the
    /// chunked coding cannot signal an error mid-body, so truncation
    /// without the final chunk is the protocol's error marker.
    fn fill_stream(&mut self, metrics: &ServerMetrics) {
        while self.pending().len() < WRITE_HIGH_WATER {
            let Some(iter) = self.streaming.as_mut() else {
                return;
            };
            match catch_unwind(AssertUnwindSafe(|| iter.next())) {
                Ok(Some(chunk)) => http::encode_chunk(&mut self.write_buf, &chunk),
                Ok(None) => {
                    http::encode_last_chunk(&mut self.write_buf);
                    self.streaming = None;
                }
                Err(_) => {
                    metrics.panics_total.inc();
                    self.streaming = None;
                    self.phase = Phase::Closed(Fate::Done);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{scan_response, ScannedResponse};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The handler: `/s<n>` streams `n` chunks of 4 KiB; any other path
    /// is echoed.
    fn echo(req: &Request) -> Response {
        match req
            .path
            .strip_prefix("/s")
            .and_then(|n| n.parse::<u8>().ok())
        {
            Some(n) => Response::chunked(
                "text/plain",
                Box::new((0..n).map(|i| vec![b'a' + i % 26; 4096])),
            ),
            None => Response::text(200, format!("you asked for {}", req.path)),
        }
    }

    /// A connection and what its peer saw of it: the bytes written to the
    /// socket, the requests the handler was called with, and a clock the
    /// test steps.
    struct Peer {
        conn: Conn,
        metrics: ServerMetrics,
        wire: Vec<u8>,
        handled: Vec<String>,
        now: u64,
        half_closed: bool,
    }

    impl Peer {
        fn new() -> Peer {
            Peer {
                conn: Conn::new(0),
                metrics: ServerMetrics::default(),
                wire: Vec::new(),
                handled: Vec::new(),
                now: 0,
                half_closed: false,
            }
        }

        /// Runs `f` on the connection with a shard whose handler records
        /// each path it answers.
        fn call(&mut self, f: impl FnOnce(&mut Conn, u64, &mut Shard)) {
            let handled = &mut self.handled;
            let mut respond = |req: &Request| {
                handled.push(req.path.clone());
                echo(req)
            };
            let mut shard = Shard {
                respond: &mut respond,
                metrics: &self.metrics,
            };
            f(&mut self.conn, self.now, &mut shard);
        }

        fn send(&mut self, bytes: &[u8]) {
            self.call(|conn, now, shard| conn.received(bytes, now, shard));
        }

        fn eof(&mut self) {
            self.call(|conn, now, shard| conn.eof(now, shard));
        }

        /// One socket write of at most `max` bytes, then the half-close
        /// the loop would issue. Whether either happened.
        fn write(&mut self, max: usize) -> bool {
            let n = match self.conn.wants_write() {
                true => self.conn.pending().len().min(max),
                false => 0,
            };
            if n > 0 {
                self.wire.extend_from_slice(&self.conn.pending()[..n]);
                self.call(|conn, now, shard| conn.written(n, now, shard));
            }
            let shut = self.conn.take_half_close();
            self.half_closed |= shut;
            n > 0 || shut
        }

        fn flush(&mut self) {
            while self.write(usize::MAX) {}
        }

        fn tick(&mut self, now: u64) {
            self.now = now;
            self.conn.tick(now, &self.metrics);
        }

        /// The wire split into responses (status, text) as a client's
        /// `scan_response` reads it, or why it does not split cleanly.
        fn responses(&self) -> Result<Vec<(u16, String)>, String> {
            let mut out = Vec::new();
            let mut at = 0;
            while at < self.wire.len() {
                match scan_response(&self.wire[at..]) {
                    ScannedResponse::Complete { status, consumed } => {
                        let text = String::from_utf8_lossy(&self.wire[at..at + consumed]);
                        out.push((status, text.into_owned()));
                        at += consumed;
                    }
                    other => return Err(format!("{other:?} at byte {at} of {}", self.wire.len())),
                }
            }
            Ok(out)
        }

        fn statuses(&self) -> Vec<u16> {
            let responses = self.responses().expect("framed responses");
            responses.into_iter().map(|(status, _)| status).collect()
        }
    }

    /// What a request is owed.
    #[derive(Debug, Clone, PartialEq)]
    enum Answer {
        /// `200` echoing the path; `close` asked to end the connection.
        Echo { path: String, close: bool },
        /// `200`, streamed in chunks.
        Stream(String),
        /// A protocol error; the connection then closes.
        Refused(u16),
    }

    /// Request `i` of a stream: kind `kind % 7`, sized by `x`.
    fn request(kind: u8, x: u16, i: usize) -> (Vec<u8>, Answer) {
        let x = usize::from(x);
        match kind % 7 {
            0 => {
                let path = format!("/g{i}");
                let bytes = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
                (bytes.into_bytes(), Answer::Echo { path, close: false })
            }
            // A small body, or one at either side of the 64 KiB cap.
            k @ (1 | 2) => {
                let len = if k == 1 {
                    x % 4096
                } else {
                    64 * 1024 - 8 + x % 17
                };
                let path = format!("/p{i}");
                let mut bytes =
                    format!("POST {path} HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").into_bytes();
                bytes.resize(bytes.len() + len, b'b');
                let answer = match len > 64 * 1024 {
                    true => Answer::Refused(413),
                    false => Answer::Echo { path, close: false },
                };
                (bytes, answer)
            }
            3 => {
                let path = format!("/s{}", x % 40);
                let bytes = format!("GET {path} HTTP/1.1\r\n\r\n");
                (bytes.into_bytes(), Answer::Stream(path))
            }
            // Headers ending at either side of the 8 KiB cap.
            4 => {
                let path = format!("/h{i}");
                let end = 8 * 1024 - 8 + x % 17;
                let mut bytes = format!("GET {path} HTTP/1.1\r\nX-Pad: ").into_bytes();
                bytes.resize(end, b'p');
                bytes.extend_from_slice(b"\r\n\r\n");
                let answer = match end > 8 * 1024 {
                    true => Answer::Refused(431),
                    false => Answer::Echo { path, close: false },
                };
                (bytes, answer)
            }
            5 => {
                let (bytes, status): (&[u8], u16) = [
                    (&b"GARBAGE\r\n\r\n"[..], 400),
                    (b"GET /a b HTTP/1.1\r\n\r\n", 400),
                    (b"GET / SPDY/9\r\n\r\n", 400),
                    (b"DELETE / HTTP/1.1\r\n\r\n", 405),
                    (b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
                    (b"GET / HTTP/1.1\r\nno colon\r\n\r\n", 400),
                ][x % 6];
                (bytes.to_vec(), Answer::Refused(status))
            }
            _ => {
                let path = format!("/c{i}");
                let bytes = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
                (bytes.into_bytes(), Answer::Echo { path, close: true })
            }
        }
    }

    /// The requests back to back, where each one ends, and the answers
    /// owed: up to and including the first that ends the connection.
    fn stream(reqs: &[(u8, u16)]) -> (Vec<u8>, Vec<usize>, Vec<Answer>) {
        let (mut bytes, mut ends, mut owed) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &(kind, x)) in reqs.iter().enumerate() {
            let (req, answer) = request(kind, x, i);
            bytes.extend_from_slice(&req);
            ends.push(bytes.len());
            if !closes(owed.last()) {
                owed.push(answer);
            }
        }
        (bytes, ends, owed)
    }

    /// Offsets where a cut is most likely to matter: each request's end,
    /// and the header cap counted from each request's start.
    fn seams(ends: &[usize]) -> Vec<usize> {
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let caps = starts.map(|start| start + REQUEST_LIMITS.max_header_bytes);
        let mut seams: Vec<usize> = caps.chain(ends.iter().copied()).collect();
        seams.sort_unstable();
        seams
    }

    fn closes(answer: Option<&Answer>) -> bool {
        matches!(
            answer,
            Some(Answer::Echo { close: true, .. } | Answer::Refused(_))
        )
    }

    /// Sizes from 1 to 2^bits, log-uniformly.
    fn log_size(bits: u32) -> impl Strategy<Value = usize> {
        (0..=bits, any::<u32>()).prop_map(|(k, x)| 1 + x as usize % (1usize << k))
    }

    /// Feeds `bytes` as the loop would — only while the connection wants
    /// to read, at most one read at a time — interleaved with writes of
    /// `writes` bytes, then EOF if `half_close`, until nothing moves. A
    /// cut `(false, n)` feeds `n` bytes; `(true, d)` stops within 4 bytes
    /// of the next of `seams`, at an offset picked by `d`.
    fn drive(
        bytes: &[u8],
        seams: &[usize],
        cuts: &[(bool, usize)],
        writes: &[usize],
        half_close: bool,
    ) -> Result<Peer, TestCaseError> {
        let mut peer = Peer::new();
        let mut fed = 0;
        for step in 0.. {
            let mut moved = false;
            if peer.conn.wants_read() {
                if fed < bytes.len() {
                    let n = match cuts[step % cuts.len()] {
                        (true, d) => seams
                            .iter()
                            .map(|seam| (seam + d % 8).saturating_sub(4))
                            .find(|&stop| stop > fed)
                            .map_or(READ_CHUNK, |stop| stop - fed),
                        (false, n) => n,
                    };
                    let n = n.min(READ_CHUNK).min(bytes.len() - fed);
                    peer.send(&bytes[fed..fed + n]);
                    fed += n;
                    moved = true;
                } else if half_close {
                    peer.eof();
                    moved = true;
                }
            }
            let buffered = peer.conn.read_buf.len();
            prop_assert!(
                buffered <= READ_HIGH_WATER + READ_CHUNK,
                "{buffered} bytes buffered"
            );
            moved |= peer.write(writes[step % writes.len()]);
            if !moved || peer.conn.fate().is_some() {
                break;
            }
        }
        Ok(peer)
    }

    /// The peer got exactly `owed`, in order, each framed as
    /// `scan_response` reads it, and the handler saw only the requests
    /// that parsed.
    fn check(peer: &Peer, owed: &[Answer]) -> Result<(), TestCaseError> {
        let got = peer.responses().map_err(TestCaseError::fail)?;
        let statuses: Vec<u16> = got.iter().map(|(status, _)| *status).collect();
        prop_assert_eq!(got.len(), owed.len(), "statuses {:?}", statuses);
        let mut handled = Vec::new();
        for ((status, text), answer) in got.iter().zip(owed) {
            match answer {
                Answer::Echo { path, close } => {
                    prop_assert_eq!(*status, 200);
                    prop_assert!(text.ends_with(&format!("you asked for {path}")), "{text}");
                    prop_assert_eq!(text.contains("Connection: close"), *close);
                    handled.push(path.clone());
                }
                Answer::Stream(path) => {
                    prop_assert_eq!(*status, 200);
                    prop_assert!(text.contains("Transfer-Encoding: chunked"));
                    handled.push(path.clone());
                }
                Answer::Refused(code) => {
                    prop_assert_eq!(status, code);
                    prop_assert!(text.contains("Connection: close"));
                }
            }
        }
        prop_assert_eq!(&peer.handled, &handled);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_request_is_answered_once_in_order(
            reqs in prop::collection::vec((0..7u8, any::<u16>()), 1..10),
            cuts in prop::collection::vec((any::<bool>(), log_size(14)), 1..12),
            writes in prop::collection::vec(log_size(17), 1..12),
            half_close in any::<bool>(),
        ) {
            let (bytes, ends, owed) = stream(&reqs);
            let peer = drive(&bytes, &seams(&ends), &cuts, &writes, half_close)?;
            check(&peer, &owed)?;
            match owed.last() {
                Some(Answer::Refused(_)) if !half_close => {
                    prop_assert!(peer.half_closed || peer.conn.fate() == Some(Fate::Done));
                }
                last if half_close || closes(last) => {
                    prop_assert_eq!(peer.conn.fate(), Some(Fate::Done));
                }
                _ => prop_assert_eq!(peer.conn.fate(), None),
            }
        }

        #[test]
        fn deadlines_answer_408_or_close_by_the_clock(
            reqs in prop::collection::vec((0..3u8, any::<u16>()), 0..5),
            cut in any::<u32>(),
            stall in any::<bool>(),
        ) {
            // Kinds that keep the connection open: GET, POST, stream.
            let reqs: Vec<(u8, u16)> = reqs.iter().map(|&(k, x)| ([0, 1, 3][k as usize], x)).collect();
            let (bytes, ends, owed) = stream(&reqs);
            let cut = cut as usize % (bytes.len() + 1);
            let mut peer = Peer::new();
            for piece in bytes[..cut].chunks(READ_CHUNK) {
                peer.send(piece);
                if !stall {
                    peer.flush();
                }
            }
            if peer.conn.wants_write() {
                // A client that stops reading: the write timeout.
                peer.tick(WRITE_TIMEOUT_MS);
                prop_assert_eq!(peer.conn.fate(), None);
                peer.tick(WRITE_TIMEOUT_MS + 1);
                prop_assert_eq!(peer.conn.fate(), Some(Fate::Done));
                return Ok(());
            }
            let done = ends.iter().take_while(|&&end| end <= cut).count();
            check(&peer, &owed[..done])?;
            peer.tick(READ_TIMEOUT_MS);
            prop_assert!(peer.conn.fate().is_none() && !peer.conn.wants_write());
            peer.tick(READ_TIMEOUT_MS + 1);
            if cut > 0 && !ends.contains(&cut) {
                // A stalled request is answered 408, then lingers until
                // the read timeout passes again.
                peer.flush();
                let statuses = peer.statuses();
                prop_assert_eq!(statuses.last(), Some(&408));
                prop_assert_eq!(statuses.len(), done + 1);
                prop_assert!(peer.half_closed);
                peer.tick(2 * READ_TIMEOUT_MS + 1);
                prop_assert_eq!(peer.conn.fate(), None);
                peer.tick(2 * READ_TIMEOUT_MS + 2);
            } else if done > 0 {
                // Idle keep-alive: reaped only after its own budget.
                prop_assert_eq!(peer.conn.fate(), None);
                peer.tick(KEEP_ALIVE_IDLE_MS);
                prop_assert_eq!(peer.conn.fate(), None);
                peer.tick(KEEP_ALIVE_IDLE_MS + 1);
            }
            prop_assert_eq!(peer.conn.fate(), Some(Fate::Done));
        }
    }

    #[test]
    fn a_trickle_is_served_a_stall_answered_408_and_a_hangup_counted() {
        // Byte by byte, done inside the read timeout: served.
        let mut peer = Peer::new();
        let req = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        for (i, byte) in req.iter().enumerate() {
            peer.tick(i as u64 * 100);
            peer.send(std::slice::from_ref(byte));
        }
        peer.flush();
        assert_eq!(peer.statuses(), [200]);

        // Stalled mid-header: 408 once the read timeout has passed, then
        // the lingering close. The handler never sees it.
        let mut peer = Peer::new();
        peer.send(b"GET /metrics HTTP/1.1\r\nX-Slow");
        peer.tick(READ_TIMEOUT_MS);
        assert!(!peer.conn.wants_write());
        peer.tick(READ_TIMEOUT_MS + 1);
        peer.flush();
        assert_eq!(peer.statuses(), [408]);
        assert!(peer.half_closed && peer.handled.is_empty());

        // EOF mid-request: nothing to answer.
        let mut peer = Peer::new();
        peer.send(b"GET /metr");
        peer.eof();
        assert_eq!(peer.conn.fate(), Some(Fate::Hangup));
    }

    #[test]
    fn idle_connections_are_reaped_by_the_clock() {
        let mut peer = Peer::new();
        peer.send(b"GET /healthz HTTP/1.1\r\n\r\n");
        peer.flush();
        peer.tick(KEEP_ALIVE_IDLE_MS);
        assert_eq!(peer.conn.fate(), None);
        peer.tick(KEEP_ALIVE_IDLE_MS + 1);
        assert_eq!(peer.conn.fate(), Some(Fate::Done));

        // One that never completes a request gets the read timeout.
        let mut silent = Peer::new();
        silent.tick(READ_TIMEOUT_MS);
        assert_eq!(silent.conn.fate(), None);
        silent.tick(READ_TIMEOUT_MS + 1);
        assert_eq!(silent.conn.fate(), Some(Fate::Done));
    }

    #[test]
    fn a_connection_retires_after_its_request_cap() {
        let cap = MAX_REQUESTS_PER_CONN as usize;
        let pipelined = b"GET /r HTTP/1.1\r\n\r\n".repeat(cap + 1);
        let cuts = [(false, READ_CHUNK)];
        let peer = drive(&pipelined, &[], &cuts, &[usize::MAX], false).expect("bounded");
        let got = peer.responses().expect("framed responses");
        assert_eq!(got.len(), cap);
        let (last, kept) = got.split_last().expect("responses");
        assert!(kept
            .iter()
            .all(|(status, text)| *status == 200 && text.contains("Connection: keep-alive")));
        assert!(last.1.contains("Connection: close"), "{}", last.1);
        assert_eq!(peer.handled.len(), cap);
        assert_eq!(peer.conn.fate(), Some(Fate::Done));
    }

    #[test]
    fn a_lingering_close_discards_what_it_drains() {
        let mut peer = Peer::new();
        let mut headers = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        headers.resize(16 * 1024, b'a');
        peer.send(&headers);
        peer.flush();
        assert_eq!(peer.statuses(), [431]);
        assert!(peer.half_closed);
        let mut drained = 0;
        while drained < 300 * 1024 {
            assert_eq!(peer.conn.fate().is_some(), drained >= LINGER_DRAIN_MAX);
            peer.send(&[b'x'; READ_CHUNK]);
            drained += READ_CHUNK;
            assert_eq!(peer.conn.read_buf.len(), 0);
        }
        assert_eq!(peer.conn.fate(), Some(Fate::Done));
    }
}
