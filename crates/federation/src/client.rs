//! A small HTTP/1.1 client for XDB-over-HTTP federation.
//!
//! The federated path crosses real sockets, so the router needs a client
//! that absorbs the failure modes remote sources actually exhibit: slow
//! answers (connect/read timeouts), transient faults (retry with
//! exponential backoff + jitter — GETs only, which is all the federation
//! protocol uses), and per-query connection cost (a per-source keep-alive
//! pool reuses sockets across queries instead of paying a TCP handshake
//! per request).
//!
//! std TCP only, in keeping with the "lean" thesis — no async runtime, no
//! HTTP framework.

use netmark_webdav::{read_head, MAX_BODY};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Ceiling on how long a server-sent `Retry-After` can make us wait per
/// attempt — a confused or hostile server must not park a router thread
/// for minutes.
const MAX_RETRY_AFTER: Duration = Duration::from_secs(10);

/// Tuning knobs for one remote connection.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (covers slow/hung responses).
    pub read_timeout: Duration,
    /// Extra attempts after the first failure (idempotent GETs only).
    pub retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Reuse connections across requests (`false` sends
    /// `Connection: close` on every request — the pre-keep-alive
    /// behaviour, kept for benchmarking the difference).
    pub keep_alive: bool,
    /// Idle sockets kept per remote.
    pub max_idle: usize,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            keep_alive: true,
            max_idle: 4,
        }
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A client pinned to one remote address, with a keep-alive pool.
pub struct HttpClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    /// Fresh TCP connections opened (pool misses); observability for the
    /// keep-alive benchmark.
    connects: AtomicU64,
    /// `429` answers whose `Retry-After` we honored before retrying —
    /// visibility into how often a remote's admission control pushes
    /// back.
    throttles: AtomicU64,
    /// xorshift state for retry jitter (no external RNG dependency).
    jitter: AtomicU64,
}

impl HttpClient {
    /// Builds a client for `addr` (`host:port`).
    pub fn new(addr: &str, cfg: ClientConfig) -> std::io::Result<HttpClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("unresolvable address '{addr}'")))?;
        Ok(HttpClient {
            addr,
            cfg,
            pool: Mutex::new(Vec::new()),
            connects: AtomicU64::new(0),
            throttles: AtomicU64::new(0),
            jitter: AtomicU64::new(addr.port() as u64 | 0x9E37_79B9_7F4A_7C15),
        })
    }

    /// The resolved remote address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fresh TCP connections opened so far (a reuse-efficiency signal:
    /// requests minus connects were served off pooled sockets).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// `429` responses whose `Retry-After` this client waited out before
    /// retrying.
    pub fn throttles(&self) -> u64 {
        self.throttles.load(Ordering::Relaxed)
    }

    /// Issues `GET <path_and_query>` with retry: transport failures are
    /// retried with exponential backoff + jitter, because a GET in the
    /// federation protocol is always idempotent. A decoded HTTP response
    /// is returned without retrying — except `429 Too Many Requests`,
    /// where the server is explicitly asking us to come back later: its
    /// `Retry-After` is honored (capped at `MAX_RETRY_AFTER`) and the
    /// request retried; retries exhausted, the `429` itself is returned
    /// so callers see the shed rather than a synthetic transport error.
    pub fn get(&self, path_and_query: &str) -> std::io::Result<HttpResponse> {
        let mut delay = self.cfg.backoff_base;
        let mut last_err = None;
        let mut last_shed = None;
        for attempt in 0..=self.cfg.retries {
            // A pooled socket may have been closed by the server since the
            // last request; one silent same-attempt refresh on a fresh
            // connection distinguishes "stale pool entry" from "remote
            // actually failing".
            let result = match self.checkout() {
                Some(conn) => self
                    .attempt(conn, path_and_query)
                    .or_else(|_| self.connect().and_then(|c| self.attempt(c, path_and_query))),
                None => self.connect().and_then(|c| self.attempt(c, path_and_query)),
            };
            match result {
                Ok(resp) if resp.status == 429 => {
                    if attempt >= self.cfg.retries {
                        return Ok(resp); // out of retries: surface the shed
                    }
                    self.throttles.fetch_add(1, Ordering::Relaxed);
                    let wait = resp
                        .headers
                        .get("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs)
                        .unwrap_or(delay)
                        .min(MAX_RETRY_AFTER);
                    last_shed = Some(resp);
                    // Jitter on top of the server's ask, so a fleet shed
                    // in the same instant does not return in the same
                    // instant.
                    std::thread::sleep(wait + self.jittered(self.cfg.backoff_base));
                    continue;
                }
                Ok(resp) => return Ok(resp),
                Err(e) => last_err = Some(e),
            }
            if attempt < self.cfg.retries {
                std::thread::sleep(self.jittered(delay));
                delay = (delay * 2).min(self.cfg.backoff_cap);
            }
        }
        if let Some(resp) = last_shed {
            return Ok(resp);
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("no attempt made")))
    }

    /// Full backoff ± up to 50% jitter, so a fleet of routers retrying a
    /// recovering source does not stampede it in lockstep.
    fn jittered(&self, d: Duration) -> Duration {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        let nanos = d.as_nanos() as u64;
        let spread = nanos / 2;
        if spread == 0 {
            return d;
        }
        Duration::from_nanos(nanos - spread / 2 + x % spread)
    }

    fn checkout(&self) -> Option<TcpStream> {
        if !self.cfg.keep_alive {
            return None;
        }
        self.pool.lock().expect("pool poisoned").pop()
    }

    fn checkin(&self, conn: TcpStream) {
        if !self.cfg.keep_alive {
            return;
        }
        let mut pool = self.pool.lock().expect("pool poisoned");
        if pool.len() < self.cfg.max_idle {
            pool.push(conn);
        }
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let conn = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        conn.set_nodelay(true)?;
        Ok(conn)
    }

    /// One request/response exchange on one connection.
    fn attempt(&self, mut conn: TcpStream, path_and_query: &str) -> std::io::Result<HttpResponse> {
        conn.set_read_timeout(Some(self.cfg.read_timeout))?;
        let connection = if self.cfg.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        conn.write_all(
            format!(
                "GET {path_and_query} HTTP/1.1\r\nHost: {}\r\nConnection: {connection}\r\n\r\n",
                self.addr
            )
            .as_bytes(),
        )?;
        conn.flush()?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let (resp, server_keeps) = read_response(&mut reader)?;
        if self.cfg.keep_alive && server_keeps {
            self.checkin(conn);
        }
        Ok(resp)
    }
}

fn closed(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!("connection closed {what}"),
    )
}

/// Parses one response off the stream; the bool says whether the server
/// will keep the connection open (safe to pool).
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(HttpResponse, bool)> {
    // The server's header budget bounds the whole head, so a peer
    // streaming an endless line gets `InvalidData`, not a buffer that
    // grows until the read timeout. The body length follows the server's
    // rule too.
    let head = read_head(reader)?.ok_or_else(|| closed("before status line"))?;
    let status: u16 = head
        .start
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line '{}'", head.start.trim()),
            )
        })?;
    let keep = head
        .headers
        .get("connection")
        .map(|v| !v.eq_ignore_ascii_case("close"))
        .unwrap_or(true);
    let (body, keep) = match head.body_len()? {
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            (body, keep)
        }
        None => {
            // No length: read to close (server cannot be pooled).
            let mut body = Vec::new();
            reader.take(MAX_BODY as u64).read_to_end(&mut body)?;
            (body, false)
        }
    };
    Ok((
        HttpResponse {
            status,
            headers: head.headers,
            body,
        },
        keep,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A tiny always-200 server; answers `count` requests per connection.
    fn echo_server(per_conn: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { break };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    for _ in 0..per_conn {
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        let path = line.split_whitespace().nth(1).unwrap_or("?").to_string();
                        loop {
                            let mut h = String::new();
                            if reader.read_line(&mut h).unwrap_or(0) == 0 {
                                return;
                            }
                            if h == "\r\n" || h == "\n" {
                                break;
                            }
                        }
                        let body = format!("echo {path}");
                        let mut w = reader.get_ref().try_clone().unwrap();
                        let _ = w.write_all(
                            format!(
                                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                                body.len(),
                                body
                            )
                            .as_bytes(),
                        );
                    }
                });
            }
        });
        (addr, join)
    }

    #[test]
    fn get_and_keep_alive_reuse() {
        let (addr, _join) = echo_server(100);
        let client = HttpClient::new(&addr.to_string(), ClientConfig::default()).unwrap();
        for i in 0..5 {
            let resp = client.get(&format!("/r{i}")).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_text(), format!("echo /r{i}"));
        }
        assert_eq!(
            client.connects(),
            1,
            "five requests over one pooled connection"
        );
    }

    #[test]
    fn connection_close_disables_reuse() {
        let (addr, _join) = echo_server(100);
        let cfg = ClientConfig {
            keep_alive: false,
            ..ClientConfig::default()
        };
        let client = HttpClient::new(&addr.to_string(), cfg).unwrap();
        for _ in 0..3 {
            assert_eq!(client.get("/x").unwrap().status, 200);
        }
        assert_eq!(client.connects(), 3, "one fresh connection per request");
    }

    #[test]
    fn stale_pooled_connection_is_refreshed() {
        // Server answers exactly one request per connection, then closes
        // without saying `Connection: close` — the pooled socket goes
        // stale and the next get() must transparently reconnect.
        let (addr, _join) = echo_server(1);
        let client = HttpClient::new(&addr.to_string(), ClientConfig::default()).unwrap();
        assert_eq!(client.get("/a").unwrap().status, 200);
        assert_eq!(client.get("/b").unwrap().status, 200);
        assert_eq!(client.connects(), 2);
    }

    #[test]
    fn refused_connection_errors_after_retries() {
        // Bind then drop: nothing listens on the port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = ClientConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        };
        let client = HttpClient::new(&addr.to_string(), cfg).unwrap();
        assert!(client.get("/x").is_err());
    }

    #[test]
    fn read_timeout_fires_on_hung_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept and never answer.
        let _hold = std::thread::spawn(move || {
            let conns: Vec<_> = listener.incoming().take(2).collect();
            std::thread::sleep(Duration::from_secs(5));
            drop(conns);
        });
        let cfg = ClientConfig {
            read_timeout: Duration::from_millis(100),
            retries: 1,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let client = HttpClient::new(&addr.to_string(), cfg).unwrap();
        let start = std::time::Instant::now();
        assert!(client.get("/x").is_err());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "timed out promptly, not hung"
        );
    }

    #[test]
    fn endless_header_line_is_refused_before_the_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, held) = std::sync::mpsc::channel::<()>();
        // A peer that streams one 8 MiB header line, then holds the
        // connection open until the client has given up.
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut head = b"HTTP/1.1 200 OK\r\nX-Endless: ".to_vec();
            head.resize(head.len() + (8 << 20), b'a');
            let _ = conn.write_all(&head);
            let _ = held.recv();
        });
        let cfg = ClientConfig {
            read_timeout: Duration::from_secs(10),
            retries: 0,
            ..ClientConfig::default()
        };
        let client = HttpClient::new(&addr.to_string(), cfg).unwrap();
        let start = std::time::Instant::now();
        let err = client.get("/x").unwrap_err();
        let elapsed = start.elapsed();
        release.send(()).unwrap();
        peer.join().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(
            elapsed < Duration::from_secs(3),
            "refused at the header budget, not at the read timeout: {elapsed:?}"
        );
    }

    #[test]
    fn jitter_stays_in_band() {
        let client = HttpClient::new("127.0.0.1:1", ClientConfig::default()).unwrap();
        let base = Duration::from_millis(100);
        for _ in 0..100 {
            let j = client.jittered(base);
            assert!(j >= Duration::from_millis(75) && j < Duration::from_millis(150));
        }
    }
}
