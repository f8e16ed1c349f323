//! Minimal HTTP/1.1 framing (request parse, response write).
//!
//! "Communication between the user folders and the NETMARK server is done
//! using WebDAV which is a set of extensions to the HTTP protocol" (§2.1.2).
//! This module is the protocol substrate: just enough HTTP/1.1 to carry
//! the WebDAV verbs and XDB query URLs, over std TCP, no dependencies.
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive): servers
//! loop [`read_request_from`] over one `BufReader` per connection —
//! keeping the reader across requests so pipelined bytes are never lost —
//! and honor the client's `Connection:` header when writing. Parsing is
//! hardened against hostile peers: header section and body sizes are
//! capped, a body whose length cannot be known is refused rather than
//! guessed, and the typed [`RequestError`] lets servers answer
//! `431`/`413`/`400` instead of allocating whatever the peer claims or
//! parsing a body as the next request.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Maximum accepted body (64 MiB) — guards against hostile Content-Length.
pub const MAX_BODY: usize = 64 << 20;

/// Maximum accepted request-line + header section (64 KiB total).
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// HTTP method (uppercased).
    pub method: String,
    /// Path portion (percent-decoded is the handler's business; query kept
    /// raw in `query`).
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the client wants the connection kept open after the
    /// response (HTTP/1.1 default unless it sent `Connection: close`).
    pub fn wants_keep_alive(&self) -> bool {
        !self
            .header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Clean end of stream before any request bytes (client done).
    Closed,
    /// Unparseable request line or headers.
    Malformed(String),
    /// Request-line + header section exceeded [`MAX_HEADER_BYTES`] → `431`.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded [`MAX_BODY`] → `413`.
    BodyTooLarge(usize),
    /// The socket failed mid-request (includes read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::HeadersTooLarge => write!(f, "header section too large"),
            RequestError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes too large"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Socket errors pass through; anything else the peer sent is
/// `InvalidData` (how the federation client reports a hostile head).
impl From<RequestError> for std::io::Error {
    fn from(e: RequestError) -> std::io::Error {
        match e {
            RequestError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Headers in insertion order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with a status.
    pub fn new(status: u16) -> Response {
        let reason = match status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            207 => "Multi-Status",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        Response {
            status,
            reason,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Builder: adds a header.
    pub fn with_header(mut self, k: &str, v: &str) -> Response {
        self.headers.push((k.to_string(), v.to_string()));
        self
    }

    /// Builder: sets an XML body.
    pub fn with_xml(mut self, xml: &str) -> Response {
        self.headers
            .push(("Content-Type".into(), "text/xml; charset=utf-8".into()));
        self.body = xml.as_bytes().to_vec();
        self
    }

    /// Builder: sets a plain-text body.
    pub fn with_text(mut self, text: &str) -> Response {
        self.headers
            .push(("Content-Type".into(), "text/plain; charset=utf-8".into()));
        self.body = text.as_bytes().to_vec();
        self
    }

    /// Serializes onto the wire. `keep_alive` decides the `Connection:`
    /// header — pass the request's [`Request::wants_keep_alive`] so pooled
    /// client connections are actually reused.
    pub fn write_to<W: Write>(&self, stream: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        let mut has_len = false;
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        if !has_len {
            head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        // One write for head+body: two writes would put them in separate
        // TCP segments, and on a keep-alive connection Nagle + delayed
        // ACK turns that into a ~40ms stall per response.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

/// Reads one CRLF/LF-terminated line, counting against the shared header
/// budget. Unlike `BufRead::read_line`, a peer streaming an endless line
/// is cut off at the budget instead of growing the buffer unboundedly.
/// `None` is end of stream before any byte; the error is either
/// [`RequestError::HeadersTooLarge`] or [`RequestError::Io`].
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                break;
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(RequestError::HeadersTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(RequestError::Io(e)),
        }
    }
    while line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// One message head: the start line and the header fields. Requests here
/// and responses in the federation client are read through [`read_head`],
/// so both directions share one header budget and one length rule.
#[derive(Debug, Clone)]
pub struct Head {
    /// The request line or status line.
    pub start: String,
    /// Header fields, names lowercased.
    pub headers: BTreeMap<String, String>,
}

impl Head {
    /// The body length the head declares, `None` when it declares none.
    /// A `Transfer-Encoding` (no coding is supported) or an unparseable
    /// `Content-Length` is [`RequestError::Malformed`]: guessing a length
    /// would leave the body on the connection to be parsed as the next
    /// message. A length over [`MAX_BODY`] is
    /// [`RequestError::BodyTooLarge`].
    pub fn body_len(&self) -> Result<Option<usize>, RequestError> {
        if let Some(te) = self.headers.get("transfer-encoding") {
            return Err(RequestError::Malformed(format!(
                "unsupported transfer-encoding '{te}'"
            )));
        }
        let Some(v) = self.headers.get("content-length") else {
            return Ok(None);
        };
        let len: usize = v
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad content-length '{v}'")))?;
        if len > MAX_BODY {
            return Err(RequestError::BodyTooLarge(len));
        }
        Ok(Some(len))
    }
}

/// Reads one message head within [`MAX_HEADER_BYTES`]. `None` is end of
/// stream before any byte; end of stream inside the head is an
/// `UnexpectedEof` [`RequestError::Io`].
pub fn read_head<R: BufRead>(reader: &mut R) -> Result<Option<Head>, RequestError> {
    let mut budget = MAX_HEADER_BYTES;
    let Some(start) = read_line_limited(reader, &mut budget)? else {
        return Ok(None);
    };
    let mut headers = BTreeMap::new();
    loop {
        let line = read_line_limited(reader, &mut budget)?.ok_or_else(|| {
            RequestError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside headers",
            ))
        })?;
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    Ok(Some(Head { start, headers }))
}

/// Reads one request from a buffered stream. Servers create **one**
/// `BufReader` per connection and call this in a loop: the reader's
/// buffer carries pipelined request bytes from one call to the next.
pub fn read_request_from<R: BufRead>(reader: &mut R) -> Result<Request, RequestError> {
    let head = read_head(reader)?.ok_or(RequestError::Closed)?;
    let mut parts = head.start.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed(format!("no target in '{}'", head.start)))?
        .to_string();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    let len = head.body_len()?.unwrap_or(0);
    let mut body = vec![0u8; len];
    if len > 0 {
        reader.read_exact(&mut body).map_err(RequestError::Io)?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers: head.headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};
    use std::net::{TcpListener, TcpStream};

    fn parse(raw: &str) -> Option<Request> {
        read_request_from(&mut BufReader::new(raw.as_bytes())).ok()
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /xdb?Context=Budget&limit=3 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/xdb");
        assert_eq!(req.query.as_deref(), Some("Context=Budget&limit=3"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.wants_keep_alive(), "HTTP/1.1 default is keep-alive");
    }

    #[test]
    fn parses_put_with_body() {
        let req = parse("PUT /docs/a.txt HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "PUT");
        assert_eq!(req.body_text(), "hello");
    }

    #[test]
    fn connection_close_header_honored() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn empty_connection_is_none() {
        assert!(parse("").is_none());
    }

    #[test]
    fn pipelined_requests_both_read() {
        // Two requests in one write: a per-connection reader must hand
        // back both (a fresh reader per request would drop buffered bytes).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
                .unwrap();
            s.flush().unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn);
        let a = read_request_from(&mut reader).unwrap();
        let b = read_request_from(&mut reader).unwrap();
        client.join().unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(matches!(
            read_request_from(&mut reader),
            Err(RequestError::Closed)
        ));
    }

    #[test]
    fn oversized_headers_rejected() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
        }
        raw.push_str("\r\n");
        let mut reader = BufReader::new(raw.as_bytes());
        assert!(matches!(
            read_request_from(&mut reader),
            Err(RequestError::HeadersTooLarge)
        ));
    }

    #[test]
    fn endless_request_line_rejected() {
        // No newline at all: the reader must stop at the budget rather
        // than buffer the whole stream.
        let raw = "G".repeat(MAX_HEADER_BYTES * 2);
        let mut reader = BufReader::new(raw.as_bytes());
        assert!(matches!(
            read_request_from(&mut reader),
            Err(RequestError::HeadersTooLarge)
        ));
    }

    #[test]
    fn oversized_body_rejected_without_allocating() {
        let raw = format!(
            "PUT /docs/x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            1 << 30
        );
        let mut reader = BufReader::new(raw.as_bytes());
        match read_request_from(&mut reader) {
            Err(RequestError::BodyTooLarge(n)) => assert_eq!(n, 1 << 30),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unframeable_bodies_are_malformed() {
        // Both bodies hold a second request; reading either head as "no
        // body" would hand that request back on the next call.
        for framing in ["Content-Length: x1", "Transfer-Encoding: chunked"] {
            let raw = format!(
                "PUT /docs/a.txt HTTP/1.1\r\n{framing}\r\n\r\n\
                 GET /xdb/capabilities HTTP/1.1\r\n\r\n"
            );
            let got = read_request_from(&mut BufReader::new(raw.as_bytes()));
            assert!(matches!(got, Err(RequestError::Malformed(_))), "{framing}");
        }
    }

    #[test]
    fn end_of_stream_inside_the_head_is_an_error() {
        let mut reader = BufReader::new(&b"GET / HTTP/1.1\r\nHost: x\r\n"[..]);
        match read_request_from(&mut reader) {
            Err(RequestError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn response_serialization() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            Response::new(207)
                .with_header("DAV", "1")
                .with_xml("<multistatus/>")
                .write_to(&mut conn, false)
                .unwrap();
        });
        let mut s = TcpStream::connect(addr).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        server.join().unwrap();
        assert!(buf.starts_with("HTTP/1.1 207 Multi-Status\r\n"));
        assert!(buf.contains("DAV: 1"));
        assert!(buf.contains("Content-Length: 14"));
        assert!(buf.contains("Connection: close"));
        assert!(buf.ends_with("<multistatus/>"));
    }

    #[test]
    fn keep_alive_response_header() {
        let mut buf = Vec::new();
        Response::new(200)
            .with_text("ok")
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: keep-alive"));
    }
}
