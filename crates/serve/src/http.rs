//! The HTTP/1.1 codec of the sharded server ([`crate::shard`]): request
//! and response types, the incremental request decoder
//! [`parse_buffered`], response serialization, and the panic → 500
//! mapping. Std-only, per the repo's offline policy; the sockets, the
//! event loop, and graceful shutdown live in [`crate::shard`].
//!
//! Request bodies, header lines, and header counts are capped, and
//! malformed requests map to 4xx/5xx statuses the caller answers with
//! before closing the connection.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body.
pub(crate) const MAX_BODY: usize = 1 << 20;
/// Largest accepted request line / header line.
pub(crate) const MAX_LINE: usize = 8 << 10;
/// Most header lines accepted per request.
pub(crate) const MAX_HEADERS: usize = 100;
/// Write timeout for a blocking response write.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Wall-clock budget for one whole request to arrive; a connection whose
/// partial request is older is answered 408 and closed, so a
/// byte-dripping client cannot hold its buffer forever.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(20);

/// A parsed request: method, path, headers, and raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method ("GET", "POST", …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// A header-less request (tests and in-process routing).
    pub fn new(method: &str, path: &str, body: &str) -> Self {
        Self {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The body as UTF-8 text (`None` when it is not valid UTF-8).
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A response to write: status code plus a JSON body. `shutdown` asks the
/// server to stop accepting after this response is delivered.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always served as `application/json`).
    pub body: String,
    /// When true, the server begins graceful shutdown after responding.
    pub shutdown: bool,
    /// Seconds for a `Retry-After` header (backpressure 503s carry one).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            shutdown: false,
            retry_after: None,
        }
    }

    /// The backpressure response: 503 with `Retry-After: retry_secs` —
    /// what a shard whose work queue is full sheds load with.
    pub fn unavailable(retry_secs: u64) -> Self {
        Self {
            status: 503,
            body: "{\"error\":\"shard overloaded, retry later\"}".to_string(),
            shutdown: false,
            retry_after: Some(retry_secs),
        }
    }
}

pub(crate) fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Runs `handler`, answering 500 if it panics: a handler fault costs one
/// request, never the worker thread that served it.
pub(crate) fn catch_panic(handler: impl FnOnce() -> Response) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler))
        .unwrap_or_else(|_| Response::json(500, "{\"error\":\"internal error\"}".into()))
}

/// Appends one serialized response to `out`; `keep_alive` picks the
/// `Connection:` header the sharded server's connection-migration loop
/// relies on. Split from the write so shard workers can accumulate the
/// responses to a pipelined burst and flush them in a single syscall.
pub(crate) fn append_response(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    let retry = resp
        .retry_after
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry}Connection: {}\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.reserve(head.len() + resp.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(resp.body.as_bytes());
}

/// Writes one response; head and body in ONE write: with TCP_NODELAY a
/// separate head write is a separate packet, and on the serving hot
/// path the extra syscall + segment per response is measurable.
pub(crate) fn write_response_conn(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = Vec::new();
    append_response(&mut wire, resp, keep_alive);
    stream.write_all(&wire)
}

/// What [`parse_buffered`] made of the bytes accumulated so far.
#[derive(Debug)]
pub(crate) enum BufParse {
    /// No complete request yet — keep reading.
    NeedMore,
    /// Malformed beyond repair; answer with this status and close.
    Bad(u16),
    /// One complete request, consuming this many bytes of the buffer.
    Complete(Request, usize),
}

/// Incremental request parsing over a connection-owned buffer,
/// re-invoked as bytes arrive and across keep-alive requests (leftover
/// pipelined bytes stay in the buffer). Over-long lines, more than
/// [`MAX_HEADERS`] header lines, and malformed lines are 400; a body over
/// [`MAX_BODY`] is 413; non-HTTP/1.x versions and `Transfer-Encoding`
/// are 501.
pub(crate) fn parse_buffered(buf: &[u8]) -> BufParse {
    // Head = everything through the first blank line.
    let Some(head_len) = find_blank_line(buf) else {
        // A head that cannot fit the caps will never become valid.
        return if buf.len() > MAX_LINE * (MAX_HEADERS + 2) {
            BufParse::Bad(400)
        } else {
            BufParse::NeedMore
        };
    };
    let head = &buf[..head_len];
    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        let l = l.strip_suffix(b"\r").unwrap_or(l);
        String::from_utf8_lossy(l).into_owned()
    });

    // Request line.
    let Some(request_line) = lines.next() else {
        return BufParse::Bad(400);
    };
    if request_line.len() > MAX_LINE {
        return BufParse::Bad(400);
    }
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => return BufParse::Bad(400),
    };
    if !version.starts_with("HTTP/1.") {
        return BufParse::Bad(501);
    }
    let path = target.split('?').next().unwrap_or("").to_string();

    // Headers: Content-Length frames the body; the rest (notably
    // Authorization) is kept for the router.
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    for line in lines {
        if line.len() > MAX_LINE {
            return BufParse::Bad(400);
        }
        if line.is_empty() {
            continue; // the head's terminating blank line
        }
        if headers.len() == MAX_HEADERS {
            return BufParse::Bad(400);
        }
        let Some((name, value)) = line.split_once(':') else {
            return BufParse::Bad(400);
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) if n <= MAX_BODY => content_length = n,
                Ok(_) => return BufParse::Bad(413),
                Err(_) => return BufParse::Bad(400),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are not part of this API's contract.
            return BufParse::Bad(501);
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    let total = head_len + content_length;
    if buf.len() < total {
        return BufParse::NeedMore;
    }
    BufParse::Complete(
        Request {
            method,
            path,
            headers,
            body: buf[head_len..total].to_vec(),
        },
        total,
    )
}

/// Index just past the first `\r\n\r\n` (or lone `\n\n`) head terminator.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(rel) = buf[i..].iter().position(|&b| b == b'\n') {
        let at = i + rel;
        let rest = &buf[at + 1..];
        if rest.first() == Some(&b'\n') {
            return Some(at + 2);
        }
        if rest.first() == Some(&b'\r') && rest.get(1) == Some(&b'\n') {
            return Some(at + 3);
        }
        i = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &str) -> (Request, usize) {
        match parse_buffered(raw.as_bytes()) {
            BufParse::Complete(req, consumed) => (req, consumed),
            other => panic!("{raw:?} parsed as {other:?}"),
        }
    }

    fn status(raw: &str) -> u16 {
        match parse_buffered(raw.as_bytes()) {
            BufParse::Bad(status) => status,
            other => panic!("{raw:?} parsed as {other:?}"),
        }
    }

    fn with_headers(count: usize) -> String {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..count {
            raw.push_str(&format!("X-Pad-{i}: 1\r\n"));
        }
        raw.push_str("\r\n");
        raw
    }

    #[test]
    fn parses_and_answers_a_post() {
        let raw = "POST /x?q=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed) = complete(raw);
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/x"));
        assert_eq!(req.body, b"hello");
        assert_eq!(consumed, raw.len());
        let mut out = Vec::new();
        append_response(&mut out, &Response::json(200, "{}".into()), false);
        let out = String::from_utf8(out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("Connection: close\r\n\r\n{}"), "{out}");
    }

    #[test]
    fn headers_reach_the_handler_case_insensitively() {
        let (req, _) = complete("GET / HTTP/1.1\r\nAUTHORIZATION:  Bearer tok \r\n\r\n");
        assert_eq!(req.header("Authorization"), Some("Bearer tok"));
        assert_eq!(req.header("authorization"), Some("Bearer tok"));
        assert_eq!(req.header("x-missing"), None);
    }

    #[test]
    fn malformed_requests_get_4xx() {
        assert_eq!(status("NONSENSE\r\n\r\n"), 400);
        assert_eq!(status("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"), 400);
        assert_eq!(status("GET / HTTP/2\r\n\r\n"), 501);
        assert_eq!(
            status("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501
        );
        assert_eq!(
            status("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            413
        );
        assert_eq!(status("POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"), 400);
    }

    #[test]
    fn handler_panic_becomes_500() {
        let resp = catch_panic(|| panic!("boom"));
        assert_eq!(resp.status, 500);
        assert!(resp.body.contains("internal error"), "{}", resp.body);
        let resp = catch_panic(|| Response::json(201, "{}".into()));
        assert_eq!(resp.status, 201);
    }

    #[test]
    fn header_count_is_capped() {
        let (req, _) = complete(&with_headers(MAX_HEADERS));
        assert_eq!(req.headers.len(), MAX_HEADERS);
        assert_eq!(status(&with_headers(MAX_HEADERS + 1)), 400);
        assert_eq!(status(&with_headers(200)), 400);
    }

    #[test]
    fn partial_head_or_body_needs_more() {
        for raw in [
            "",
            "GET / HTTP/1.1\r\n",
            "GET / HTTP/1.1\r\nHost: x\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel",
        ] {
            assert!(
                matches!(parse_buffered(raw.as_bytes()), BufParse::NeedMore),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn consumed_length_leaves_pipelined_bytes_in_place() {
        let first = "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let second = "GET /b HTTP/1.1\r\n\r\n";
        let buf = format!("{first}{second}");
        let (req, consumed) = complete(&buf);
        assert_eq!((req.path.as_str(), req.body.as_slice()), ("/a", &b"hi"[..]));
        assert_eq!(consumed, first.len());
        let (req, consumed) = complete(&buf[consumed..]);
        assert_eq!(req.path, "/b");
        assert_eq!(consumed, second.len());
    }
}
