//! A minimal HTTP/1.1 keep-alive client: one connection, one GET in
//! flight, `Content-Length` framed responses (all the NETMARK servers send).

use std::io::{BufRead, BufReader, Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Header carrying the benchmark's request id. The servers ignore it; the
/// traced handler reads it to tag its spans.
pub const REQUEST_ID_HEADER: &str = "X-Bench-Request";

/// One response: status and raw body bytes.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection. Reconnects when the server closed it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    fn open(&mut self) -> std::io::Result<()> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::new(s.try_clone()?);
        self.stream = Some((s, r));
        Ok(())
    }

    /// Sends `GET path` tagged with request `id` and reads the whole
    /// response.
    pub fn get(&mut self, path: &str, id: u64) -> std::io::Result<Reply> {
        if self.stream.is_none() {
            self.open()?;
        }
        let head =
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\n{REQUEST_ID_HEADER}: {id}\r\n\r\n");
        let result = self.exchange(head.as_bytes());
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, head: &[u8]) -> std::io::Result<Reply> {
        let (w, r) = self.stream.as_mut().expect("connection opened above");
        w.write_all(head)?;
        w.flush()?;
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "closed in headers"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .parse()
                        .map_err(|_| Error::new(ErrorKind::InvalidData, "bad length"))?;
                } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}
