//! HTTP/1.1 wire types: incremental request parsing and response
//! serialization, shared by the event loop, the accept path, and the
//! load generator.
//!
//! Everything here is pure computation over byte buffers — no sockets,
//! no clocks, no threads — so the connection state machine (`conn.rs`)
//! stays small and the framing logic is testable without I/O. Response heads are encoded by exactly one
//! function ([`encode_head`]), which is the single place the
//! `Connection` and framing headers are decided (the PR-7 server
//! hardcoded the head format in two places).

use std::fmt;

/// One parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Query parameters in order of appearance (no percent-decoding:
    /// every parameter this API takes is numeric or a plain token).
    pub query: Vec<(String, String)>,
    /// Headers in order of appearance, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Vec<u8>,
    /// Client asked for connection close (`Connection: close`, or an
    /// HTTP/1.0 request without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header (lookup by lowercase name).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response body: fully materialized, or produced chunk by chunk so
/// large result sets never exist as one contiguous buffer.
pub enum Body {
    /// The whole body, sent with `Content-Length`.
    Full(Vec<u8>),
    /// Lazily produced chunks, sent with `Transfer-Encoding: chunked`.
    /// The iterator is pulled as the socket drains (write backpressure),
    /// so the tick thread and the handler never pay for the full body.
    Chunks(ChunkIter),
}

/// The producer behind a chunked body.
pub type ChunkIter = Box<dyn Iterator<Item = Vec<u8>> + Send + 'static>;

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Body::Full(b) => write!(f, "Body::Full({} bytes)", b.len()),
            Body::Chunks(_) => write!(f, "Body::Chunks(..)"),
        }
    }
}

/// An HTTP response to be written.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body.
    pub body: Body,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: Body::Full(body.into_bytes()),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Full(body.into().into_bytes()),
        }
    }

    /// A JSON error `{"error": ...}` with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        // A string always serialises; `null` would keep the body JSON.
        let message = serde_json::to_string(&message).unwrap_or_else(|_| "null".into());
        Response {
            status,
            content_type: "application/json",
            body: Body::Full(format!("{{\"error\":{message}}}").into_bytes()),
        }
    }

    /// A streaming `200 OK` response: chunks are pulled as the socket
    /// drains.
    pub fn chunked(content_type: &'static str, chunks: ChunkIter) -> Response {
        Response {
            status: 200,
            content_type,
            body: Body::Chunks(chunks),
        }
    }

    /// Collects the body into one buffer (tests and the lingering-close
    /// error path; streaming bodies lose their laziness here).
    pub fn into_body_bytes(self) -> Vec<u8> {
        match self.body {
            Body::Full(b) => b,
            Body::Chunks(it) => {
                let mut out = Vec::new();
                for chunk in it {
                    out.extend_from_slice(&chunk);
                }
                out
            }
        }
    }
}

/// Parser size ceilings.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Request line + headers ceiling, bytes (`431` beyond).
    pub max_header_bytes: usize,
    /// Body ceiling, bytes (`413` beyond).
    pub max_body_bytes: usize,
}

/// Outcome of attempting to parse one request from the front of a
/// buffer.
#[derive(Debug)]
pub enum Parsed {
    /// One complete request, plus the bytes it consumed (pipelining:
    /// the caller advances its read buffer and tries again).
    Complete(Box<Request>, usize),
    /// The buffer does not yet hold a complete request.
    Partial,
    /// Protocol error: answer with this status and message, then close.
    Bad(u16, &'static str),
}

/// Parses one request from the front of `buf`. Stateless: callers
/// re-invoke with a longer buffer until [`Parsed::Complete`] or
/// [`Parsed::Bad`].
pub fn parse_request(buf: &[u8], limits: ParseLimits) -> Parsed {
    let Some(header_end) = find_header_end(buf) else {
        // The terminator may have begun in the last 3 bytes: refuse only
        // once it can no longer end inside the cap, wherever the read cut.
        if buf.len() > limits.max_header_bytes + 3 {
            return Parsed::Bad(431, "request headers too large");
        }
        return Parsed::Partial;
    };
    if header_end > limits.max_header_bytes {
        return Parsed::Bad(431, "request headers too large");
    }

    let head = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Parsed::Bad(400, "malformed request line"),
    };
    if !version.starts_with("HTTP/1.") {
        return Parsed::Bad(400, "unsupported protocol version");
    }
    let method = method.to_ascii_uppercase();
    if method != "GET" && method != "POST" {
        return Parsed::Bad(405, "method not allowed");
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: usize = 0;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Bad(400, "malformed header line");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let Ok(n) = value.parse::<usize>() else {
                return Parsed::Bad(400, "bad content-length");
            };
            content_length = n;
        }
        headers.push((name, value));
    }
    if content_length > limits.max_body_bytes {
        return Parsed::Bad(413, "request body too large");
    }

    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Parsed::Partial;
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let close = match connection.as_deref() {
        Some(v) if v.contains("close") => true,
        Some(v) if v.contains("keep-alive") => false,
        _ => version == "HTTP/1.0",
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };
    Parsed::Complete(
        Box::new(Request {
            method,
            path: path.to_string(),
            query,
            headers,
            body,
            close,
        }),
        body_start + content_length,
    )
}

/// Byte offset of the `\r\n\r\n` terminating the headers, if present.
pub fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a query string into ordered key/value pairs.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// How the response body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// `Content-Length: n`.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Encodes a response head. **The** single place the status line,
/// `Connection`, and framing headers are produced — keep-alive policy
/// and body framing are decided by the caller, spelled out here once.
pub fn encode_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    framing: Framing,
    keep_alive: bool,
) {
    use std::io::Write as _;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    match framing {
        Framing::Length(n) => {
            let _ = write!(
                out,
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                status,
                reason(status),
                content_type,
                n,
                connection
            );
        }
        Framing::Chunked => {
            let _ = write!(
                out,
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
                status,
                reason(status),
                content_type,
                connection
            );
        }
    }
}

/// Encodes one chunk frame (`<hex len>\r\n<data>\r\n`). Empty chunks
/// are skipped — an empty frame would terminate the chunked body.
pub fn encode_chunk(out: &mut Vec<u8>, chunk: &[u8]) {
    use std::io::Write as _;
    if chunk.is_empty() {
        return;
    }
    let _ = write!(out, "{:x}\r\n", chunk.len());
    out.extend_from_slice(chunk);
    out.extend_from_slice(b"\r\n");
}

/// Encodes the terminating zero-length chunk.
pub fn encode_last_chunk(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Reason phrase for the statuses this API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Outcome of scanning a client-side read buffer for one complete
/// response (used by the load generator and framing tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScannedResponse {
    /// A complete response: status and total bytes consumed.
    Complete {
        /// Status code from the status line.
        status: u16,
        /// Bytes of the buffer this response occupied.
        consumed: usize,
    },
    /// More bytes needed.
    Partial,
    /// The bytes are not an HTTP/1.1 response.
    Malformed,
}

/// Scans the front of `buf` for one complete response, understanding
/// both `Content-Length` and chunked framing — the client-side mirror
/// of [`encode_head`]/[`encode_chunk`].
pub fn scan_response(buf: &[u8]) -> ScannedResponse {
    let Some(header_end) = find_header_end(buf) else {
        return ScannedResponse::Partial;
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.") {
        return ScannedResponse::Malformed;
    }
    let Some(status) = status_line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
    else {
        return ScannedResponse::Malformed;
    };
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value.parse().ok();
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
    }
    let body_start = header_end + 4;
    if chunked {
        // Walk chunk frames until the zero-length terminator.
        let mut at = body_start;
        loop {
            let rest = &buf[at.min(buf.len())..];
            let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
                return ScannedResponse::Partial;
            };
            let Ok(size_str) = std::str::from_utf8(&rest[..line_end]) else {
                return ScannedResponse::Malformed;
            };
            let Ok(size) = usize::from_str_radix(size_str.trim(), 16) else {
                return ScannedResponse::Malformed;
            };
            let frame = at + line_end + 2 + size + 2;
            if frame > buf.len() {
                return ScannedResponse::Partial;
            }
            at = frame;
            if size == 0 {
                return ScannedResponse::Complete {
                    status,
                    consumed: at,
                };
            }
        }
    }
    let total = body_start + content_length.unwrap_or(0);
    if buf.len() < total {
        return ScannedResponse::Partial;
    }
    ScannedResponse::Complete {
        status,
        consumed: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: ParseLimits = ParseLimits {
        max_header_bytes: 8 * 1024,
        max_body_bytes: 64 * 1024,
    };

    #[test]
    fn query_parsing() {
        let q = parse_query("job=3&index=1&rate=0.1&flag");
        assert_eq!(q.len(), 4);
        assert_eq!(q[0], ("job".to_string(), "3".to_string()));
        assert_eq!(q[3], ("flag".to_string(), String::new()));
        let req = Request {
            query: q,
            ..Request::default()
        };
        assert_eq!(req.param("rate"), Some("0.1"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn error_body_is_json_escaped() {
        #[derive(serde::Deserialize)]
        struct ErrorBody {
            error: String,
        }
        for (message, body) in [
            ("bad \"thing\"\n", "{\"error\":\"bad \\\"thing\\\"\\n\"}"),
            ("a\r\t\u{1}b", "{\"error\":\"a\\r\\t\\u0001b\"}"),
        ] {
            let got = String::from_utf8(Response::error(400, message).into_body_bytes()).unwrap();
            assert_eq!(got, body);
            let parsed: ErrorBody = serde_json::from_str(&got).expect("error body parses");
            assert_eq!(parsed.error, message);
        }
    }

    #[test]
    fn parses_pipelined_requests_incrementally() {
        let wire =
            b"GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let Parsed::Complete(first, used) = parse_request(wire, LIMITS) else {
            panic!("first request should parse");
        };
        assert_eq!(first.path, "/a");
        assert!(!first.close, "HTTP/1.1 defaults to keep-alive");
        let Parsed::Complete(second, used2) = parse_request(&wire[used..], LIMITS) else {
            panic!("second request should parse");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(second.param("x"), Some("1"));
        assert!(second.close);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        assert!(matches!(
            parse_request(b"GET / HT", LIMITS),
            Parsed::Partial
        ));
        // Headers complete, declared body not yet arrived.
        assert!(matches!(
            parse_request(b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", LIMITS),
            Parsed::Partial
        ));
        // Body arrives: complete, and the body is exactly the declared bytes.
        let Parsed::Complete(req, used) = parse_request(
            b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcdeXX",
            LIMITS,
        ) else {
            panic!("should parse");
        };
        assert_eq!(req.body, b"abcde");
        assert_eq!(
            used,
            b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde".len()
        );
        // A head ending exactly at the cap waits, wherever its blank line
        // is cut, and then parses.
        let at_cap = ParseLimits {
            max_header_bytes: b"GET /abcd HTTP/1.1".len(),
            max_body_bytes: 0,
        };
        let wire = b"GET /abcd HTTP/1.1\r\n\r\n";
        for cut in at_cap.max_header_bytes..wire.len() {
            assert!(matches!(
                parse_request(&wire[..cut], at_cap),
                Parsed::Partial
            ));
        }
        assert!(matches!(
            parse_request(wire, at_cap),
            Parsed::Complete(_, 22)
        ));
    }

    #[test]
    fn protocol_errors_map_to_statuses() {
        assert!(matches!(
            parse_request(b"GARBAGE\r\n\r\n", LIMITS),
            Parsed::Bad(400, _)
        ));
        assert!(matches!(
            parse_request(b"DELETE / HTTP/1.1\r\n\r\n", LIMITS),
            Parsed::Bad(405, _)
        ));
        assert!(matches!(
            parse_request(b"GET / SPDY/99\r\n\r\n", LIMITS),
            Parsed::Bad(400, _)
        ));
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", LIMITS),
            Parsed::Bad(400, _)
        ));
        let tiny = ParseLimits {
            max_header_bytes: 16,
            max_body_bytes: 16,
        };
        assert!(matches!(
            parse_request(b"GET /aaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n", tiny),
            Parsed::Bad(431, _)
        ));
        let tiny_body = ParseLimits {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 16,
        };
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", tiny_body),
            Parsed::Bad(413, _)
        ));
    }

    #[test]
    fn http10_defaults_to_close() {
        let Parsed::Complete(req, _) = parse_request(b"GET / HTTP/1.0\r\n\r\n", LIMITS) else {
            panic!("should parse");
        };
        assert!(req.close);
        let Parsed::Complete(req, _) =
            parse_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", LIMITS)
        else {
            panic!("should parse");
        };
        assert!(!req.close);
    }

    #[test]
    fn head_encoding_is_unified() {
        let mut out = Vec::new();
        encode_head(&mut out, 200, "text/plain", Framing::Length(2), true);
        let head = String::from_utf8(out).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        assert!(head.contains("Content-Length: 2\r\n"), "{head}");
        assert_eq!(head.matches("Connection:").count(), 1);

        let mut out = Vec::new();
        encode_head(&mut out, 200, "application/json", Framing::Chunked, false);
        let head = String::from_utf8(out).unwrap();
        assert!(head.contains("Transfer-Encoding: chunked\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert!(!head.contains("Content-Length"), "{head}");
    }

    #[test]
    fn chunk_encoding_round_trips_through_scan() {
        let mut wire = Vec::new();
        encode_head(&mut wire, 200, "application/json", Framing::Chunked, true);
        encode_chunk(&mut wire, b"[1,2,");
        encode_chunk(&mut wire, b"");
        encode_chunk(&mut wire, b"3]");
        encode_last_chunk(&mut wire);
        // A prefix scans as partial; the full frame scans complete.
        assert_eq!(
            scan_response(&wire[..wire.len() - 3]),
            ScannedResponse::Partial
        );
        assert_eq!(
            scan_response(&wire),
            ScannedResponse::Complete {
                status: 200,
                consumed: wire.len()
            }
        );

        let mut wire2 = Vec::new();
        encode_head(
            &mut wire2,
            404,
            "application/json",
            Framing::Length(4),
            false,
        );
        wire2.extend_from_slice(b"null");
        wire2.extend_from_slice(b"GARBAGE AFTER");
        assert_eq!(
            scan_response(&wire2),
            ScannedResponse::Complete {
                status: 404,
                consumed: wire2.len() - b"GARBAGE AFTER".len()
            }
        );
    }
}
