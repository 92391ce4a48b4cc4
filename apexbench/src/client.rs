//! The benchmark's HTTP/1.1 client and its retry discipline.
//!
//! * `200`, `201` and `409` (a denial is a protocol answer) end a request.
//! * `503` is backpressure: the request is resent after `Retry-After`
//!   and counted as a shed, not a failure.
//! * A `400` whose body is the engine's stale-epoch refusal is resent at
//!   once and counted as a resubmit; its latency still runs from the
//!   first send.
//! * Any other status ends the request as failed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Text of the engine's stale-epoch refusal (`EngineError::StaleEpoch`).
const STALE_MARKER: &str = "re-evaluate against the current data";

/// Seconds to wait on a `503` that names no `Retry-After`.
const DEFAULT_RETRY_SECS: u64 = 1;

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// `Retry-After` seconds, when present.
    pub retry_after: Option<u64>,
    /// Response body.
    pub body: String,
}

/// What the client does with a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The request ended (`200`, `201`, `409`).
    Done,
    /// Backpressure: resend after this long.
    Shed(Duration),
    /// Stale-epoch refusal: resend now.
    Stale,
    /// Any other status.
    Failed,
}

/// Classifies one response under the discipline above.
pub fn classify(reply: &Reply) -> Verdict {
    match reply.status {
        200 | 201 | 409 => Verdict::Done,
        503 => Verdict::Shed(Duration::from_secs(
            reply.retry_after.unwrap_or(DEFAULT_RETRY_SECS),
        )),
        400 if reply.body.contains(STALE_MARKER) => Verdict::Stale,
        _ => Verdict::Failed,
    }
}

/// Per-connection request accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Logical requests attempted (resends not counted).
    pub attempted: u64,
    /// Requests that ended outside {200, 201, 409}.
    pub failed: u64,
    /// HTTP messages written, resends included.
    pub sent: u64,
    /// `503` sheds received.
    pub sheds: u64,
    /// Stale-epoch resubmits.
    pub stale: u64,
}

impl Tally {
    /// Component-wise sum.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.sent += o.sent;
        self.sheds += o.sheds;
        self.stale += o.stale;
    }
}

/// A raw HTTP/1.1 request with a JSON body.
pub fn raw_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One keep-alive connection with a carry buffer, so back-to-back
/// (pipelined) responses are split correctly.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
    /// Request accounting on this connection.
    pub tally: Tally,
}

impl Conn {
    /// Connects with a 30 s read timeout (a hung server fails the run).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            carry: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// One request under the discipline. Returns the final reply and
    /// the time from the first send to the final response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(Reply, Duration)> {
        let raw = raw_request(method, path, body);
        self.tally.attempted += 1;
        let t0 = Instant::now();
        loop {
            self.stream.write_all(raw.as_bytes())?;
            self.tally.sent += 1;
            let reply = self.read_reply()?;
            match classify(&reply) {
                Verdict::Done => return Ok((reply, t0.elapsed())),
                Verdict::Shed(wait) => {
                    self.tally.sheds += 1;
                    std::thread::sleep(wait);
                }
                Verdict::Stale => self.tally.stale += 1,
                Verdict::Failed => {
                    self.tally.failed += 1;
                    return Ok((reply, t0.elapsed()));
                }
            }
        }
    }

    /// Sends every request in one segment, then reads the replies in
    /// order; shed or stale slots are resent (pipelined again) until
    /// every slot has a final reply.
    pub fn call_pipelined(&mut self, reqs: &[String]) -> io::Result<Vec<Reply>> {
        self.tally.attempted += reqs.len() as u64;
        let mut out: Vec<Option<Reply>> = vec![None; reqs.len()];
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        while !pending.is_empty() {
            let wire: String = pending.iter().map(|&j| reqs[j].as_str()).collect();
            self.stream.write_all(wire.as_bytes())?;
            self.tally.sent += pending.len() as u64;
            let mut again = Vec::new();
            let mut wait = Duration::ZERO;
            for &j in &pending {
                let reply = self.read_reply()?;
                match classify(&reply) {
                    Verdict::Done => out[j] = Some(reply),
                    Verdict::Shed(w) => {
                        self.tally.sheds += 1;
                        wait = wait.max(w);
                        again.push(j);
                    }
                    Verdict::Stale => {
                        self.tally.stale += 1;
                        again.push(j);
                    }
                    Verdict::Failed => {
                        self.tally.failed += 1;
                        out[j] = Some(reply);
                    }
                }
            }
            std::thread::sleep(wait);
            pending = again;
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every pipelined slot has a final reply"))
            .collect())
    }

    /// Reads one response (head + `Content-Length` body).
    fn read_reply(&mut self) -> io::Result<Reply> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(reply) = self.take_reply()? {
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
    }

    /// Splits one complete response off the carry buffer, if present.
    fn take_reply(&mut self) -> io::Result<Option<Reply>> {
        let Some(head_end) = self
            .carry
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
        else {
            return Ok(None);
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("response without a status code"))?;
        let header = |name: &str| -> Option<u64> {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().parse().ok())?
            })
        };
        let len = header("content-length").unwrap_or(0) as usize;
        if self.carry.len() < head_end + len {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&self.carry[head_end..head_end + len]).into_owned();
        let retry_after = header("retry-after");
        self.carry.drain(..head_end + len);
        Ok(Some(Reply {
            status,
            retry_after,
            body,
        }))
    }
}

/// `"field":<number>` from a response body, without a full JSON parse
/// (the client shares the cores with the server it measures).
pub fn num_field(body: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `"field":"<text>"` from a response body.
pub fn str_field<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    Some(&rest[..rest.find('"')?])
}

/// The `"counts":[…]` array of an answered WCQ.
pub fn counts_field(body: &str) -> Option<Vec<f64>> {
    let at = body.find("\"counts\":[")? + "\"counts\":[".len();
    let rest = &body[at..];
    let inner = &rest[..rest.find(']')?];
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn reply(status: u16, retry_after: Option<u64>, body: &str) -> Reply {
        Reply {
            status,
            retry_after,
            body: body.to_string(),
        }
    }

    #[test]
    fn classification_follows_the_discipline() {
        assert_eq!(classify(&reply(200, None, "{}")), Verdict::Done);
        assert_eq!(classify(&reply(201, None, "{}")), Verdict::Done);
        assert_eq!(classify(&reply(409, None, "{}")), Verdict::Done);
        assert_eq!(
            classify(&reply(503, Some(2), "{}")),
            Verdict::Shed(Duration::from_secs(2))
        );
        assert_eq!(
            classify(&reply(503, None, "{}")),
            Verdict::Shed(Duration::from_secs(DEFAULT_RETRY_SECS))
        );
        let stale = "{\"error\":\"pending charge was evaluated at dataset epoch 3 but the \
                     engine is now at epoch 4; re-evaluate against the current data\"}";
        assert_eq!(classify(&reply(400, None, stale)), Verdict::Stale);
        assert_eq!(
            classify(&reply(400, None, "{\"error\":\"query syntax\"}")),
            Verdict::Failed
        );
        assert_eq!(classify(&reply(500, None, "{}")), Verdict::Failed);
        assert_eq!(classify(&reply(410, None, "{}")), Verdict::Failed);
    }

    fn http(status: u16, extra: &str, body: &str) -> String {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n{extra}\r\n{body}",
            body.len()
        )
    }

    /// A one-connection server answering each request with the next
    /// scripted response (with `delay` before each).
    fn scripted(
        script: Vec<String>,
        delay: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut served = 0;
            let mut chunk = [0u8; 4096];
            for resp in script {
                // Wait for one full request (head + body).
                loop {
                    if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&buf[..end]).to_string();
                        let len: usize = head
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .map(|v| v.trim().parse().unwrap())
                            .unwrap_or(0);
                        if buf.len() >= end + 4 + len {
                            buf.drain(..end + 4 + len);
                            break;
                        }
                    }
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                std::thread::sleep(delay);
                s.write_all(resp.as_bytes()).unwrap();
                served += 1;
            }
            served
        });
        (addr, h)
    }

    #[test]
    fn a_503_is_retried_after_retry_after_and_counted_as_a_shed() {
        let (addr, h) = scripted(
            vec![
                http(503, "Retry-After: 0\r\n", "{}"),
                http(201, "", "{\"session\":7}"),
            ],
            Duration::ZERO,
        );
        let mut c = Conn::connect(addr).unwrap();
        let (r, _) = c.call("POST", "/v1/sessions", "{}").unwrap();
        assert_eq!(r.status, 201);
        assert_eq!(num_field(&r.body, "session"), Some(7.0));
        assert_eq!((c.tally.attempted, c.tally.sent), (1, 2));
        assert_eq!((c.tally.sheds, c.tally.failed), (1, 0));
        assert_eq!(h.join().unwrap(), 2);
    }

    #[test]
    fn a_stale_epoch_400_is_resubmitted_and_timed_from_the_first_send() {
        let stale = format!("{{\"error\":\"… {STALE_MARKER}\"}}");
        let delay = Duration::from_millis(30);
        let (addr, h) = scripted(
            vec![http(400, "", &stale), http(200, "", "{\"epsilon\":0.5}")],
            delay,
        );
        let mut c = Conn::connect(addr).unwrap();
        let (r, took) = c.call("POST", "/v1/sessions/1/query", "{}").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(c.tally.stale, 1);
        assert_eq!(c.tally.failed, 0);
        // Both round trips are inside the measured latency.
        assert!(took >= 2 * delay, "latency {took:?} must span both sends");
        assert_eq!(h.join().unwrap(), 2);
    }

    #[test]
    fn other_statuses_count_as_failed() {
        let (addr, h) = scripted(
            vec![
                http(500, "", "{}"),
                http(404, "", "{}"),
                http(409, "", "{}"),
            ],
            Duration::ZERO,
        );
        let mut c = Conn::connect(addr).unwrap();
        assert_eq!(c.call("POST", "/a", "{}").unwrap().0.status, 500);
        assert_eq!(c.call("POST", "/b", "{}").unwrap().0.status, 404);
        assert_eq!(c.call("POST", "/c", "{}").unwrap().0.status, 409);
        assert_eq!((c.tally.attempted, c.tally.failed), (3, 2));
        assert_eq!(h.join().unwrap(), 3);
    }

    #[test]
    fn pipelined_sheds_are_resent() {
        let (addr, h) = scripted(
            vec![
                http(201, "", "{\"session\":1}"),
                http(503, "Retry-After: 0\r\n", "{}"),
                http(201, "", "{\"session\":2}"),
            ],
            Duration::ZERO,
        );
        let mut c = Conn::connect(addr).unwrap();
        let reqs = vec![raw_request("POST", "/v1/sessions", "{}"); 2];
        let out = c.call_pipelined(&reqs).unwrap();
        assert_eq!(num_field(&out[0].body, "session"), Some(1.0));
        assert_eq!(num_field(&out[1].body, "session"), Some(2.0));
        assert_eq!((c.tally.attempted, c.tally.sent, c.tally.sheds), (2, 3, 1));
        assert_eq!(h.join().unwrap(), 3);
    }

    #[test]
    fn field_extraction() {
        let body = "{\"status\":\"answered\",\"mechanism\":\"LM\",\"epsilon\":1.5e-1,\
                    \"answer\":{\"counts\":[1.5,-2,3e2]}}";
        assert_eq!(num_field(body, "epsilon"), Some(0.15));
        assert_eq!(str_field(body, "mechanism"), Some("LM"));
        assert_eq!(counts_field(body), Some(vec![1.5, -2.0, 300.0]));
        assert_eq!(num_field(body, "missing"), None);
    }
}
