//! The NETMARK access server: XDB queries and WebDAV document management
//! over HTTP.
//!
//! "Clients and applications can access and query data through the
//! NETMARK Extensible APIs … in fact HTTP provides an extremely simple yet
//! powerful mechanism for users and clients to access NETMARK" (§2.1.2).
//!
//! Routes:
//! - `GET /xdb?Context=…&Content=…[&xslt=…]` — run an XDB query; returns
//!   the `<results>` XML, or the composed document when `xslt=` names a
//!   registered stylesheet.
//! - `GET /xdb/capabilities` — versioned capability advertisement for
//!   remote federation adapters.
//! - `PUT /docs/<name>` — upload (ingest) a document.
//! - `GET /docs/<name>` — fetch the stored (upmarked) document as XML.
//! - `DELETE /docs/<name>` — remove a document.
//! - `PROPFIND /docs` — WebDAV-style listing (207 multistatus).
//! - `OPTIONS *` — advertises the DAV class.
//! - `MKCOL /…` — accepted as a no-op (drop folders are flat).

use crate::http::{read_request_from, Request, RequestError, Response};
use crate::ingest::IngestService;
use netmark::{PipelineConfig, QueryOutput, SourceStats, XdbBackend};
use netmark_model::{escape_text, Node};
use netmark_netserve::{
    Frontend, FrontendConfig, FrontendHandle, FrontendStats, FrontendStatsSnapshot, ServeOutcome,
    Service,
};
use netmark_xdb::{url_decode, XdbQuery};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The HTTP/1.1 binding of the front end's [`Service`] contract: one
/// request parsed off the connection's buffered reader (pipelined bytes
/// survive between calls), one response written honoring the client's
/// keep-alive preference. Oversized or malformed requests are answered
/// (`413`/`431`/`400`) and the connection closed; a read-budget expiry
/// mid-request surfaces as [`ServeOutcome::TimedOut`] so the front end
/// books the slow-loris kill.
///
/// Shared by the NETMARK server and the federation router server.
pub struct HttpService<F> {
    handler: F,
}

impl<F> HttpService<F>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    /// Wraps a request handler into a front-end service.
    pub fn new(handler: F) -> HttpService<F> {
        HttpService { handler }
    }
}

impl<F> Service for HttpService<F>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn serve_one(&self, mut reader: &mut dyn BufRead, mut out: &mut dyn Write) -> ServeOutcome {
        match read_request_from(&mut reader) {
            Ok(req) => {
                let keep = req.wants_keep_alive();
                let resp = (self.handler)(&req);
                match resp.write_to(&mut out, keep) {
                    Ok(()) => ServeOutcome::Served { keep },
                    Err(_) => ServeOutcome::Fatal,
                }
            }
            Err(RequestError::BodyTooLarge(_)) => {
                let _ = Response::new(413)
                    .with_text("declared body exceeds server limit")
                    .write_to(&mut out, false);
                ServeOutcome::Fatal
            }
            Err(RequestError::HeadersTooLarge) => {
                let _ = Response::new(431)
                    .with_text("header section exceeds server limit")
                    .write_to(&mut out, false);
                ServeOutcome::Fatal
            }
            Err(RequestError::Malformed(m)) => {
                let _ = Response::new(400).with_text(&m).write_to(&mut out, false);
                ServeOutcome::Fatal
            }
            // Clean close between requests: client is done.
            Err(RequestError::Closed) => ServeOutcome::CleanClose,
            // The front end's read budget expired mid-request: the peer
            // trickled or stalled (slow-loris); report it as such.
            Err(RequestError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                ServeOutcome::TimedOut
            }
            Err(RequestError::Io(_)) => ServeOutcome::Fatal,
        }
    }

    fn shed_response(&self, retry_after: Duration) -> Vec<u8> {
        let mut wire = Vec::new();
        let _ = Response::new(429)
            .with_header("Retry-After", &retry_after.as_secs().max(1).to_string())
            .with_text("server at capacity; retry later")
            .write_to(&mut wire, false);
        wire
    }
}

/// A running server (the NETMARK server or the federation router);
/// dropping the handle stops it.
pub struct ServerHandle {
    frontend: FrontendHandle,
}

impl ServerHandle {
    /// Bound address (use for clients; port was chosen by the OS if you
    /// bound `:0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.frontend.addr()
    }

    /// Point-in-time front-end counters (also served as `<server/>`
    /// under `GET /xdb/stats`).
    pub fn server_stats(&self) -> FrontendStatsSnapshot {
        self.frontend.stats().snapshot()
    }

    /// Stops the front end — accept loop, workers, poller, and every
    /// live connection — and joins its threads.
    pub fn stop(self) {
        self.frontend.stop();
    }
}

/// Starts the server on `bind` (e.g. `"127.0.0.1:0"`), serving `nm`,
/// with the default [`FrontendConfig`].
///
/// Uploads (`PUT /docs/<name>`) go through a shared [`IngestService`]:
/// concurrent PUTs are batched into shared store transactions by one
/// background writer, with backpressure from its bounded work queue.
pub fn serve(nm: Arc<dyn XdbBackend>, bind: &str) -> std::io::Result<ServerHandle> {
    serve_with(nm, bind, FrontendConfig::default())
}

/// [`serve`] with explicit front-end tuning (worker count, queue depth,
/// admission caps, idle/read budgets — see [`FrontendConfig`]).
pub fn serve_with(
    nm: Arc<dyn XdbBackend>,
    bind: &str,
    cfg: FrontendConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind)?;
    let ingest = IngestService::start(Arc::clone(&nm), PipelineConfig::default());
    serve_http(
        listener,
        cfg,
        Some(Arc::clone(&nm)),
        || None,
        move |req: &Request| handle_with(&*nm, Some(&ingest), req),
    )
}

/// Starts the bounded front end on `listener`, answering every request
/// with `handler` except `GET /xdb/stats`: only the served front end has
/// the counters and the uptime clock that belong in that document, so it
/// answers the route itself with [`stats_document`] over `backend`, the
/// per-source reading `sources` returns, and its own `<server/>` block.
/// Both the NETMARK server and the federation router serve through here.
pub fn serve_http<H, S>(
    listener: TcpListener,
    cfg: FrontendConfig,
    backend: Option<Arc<dyn XdbBackend>>,
    sources: S,
    handler: H,
) -> std::io::Result<ServerHandle>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
    S: Fn() -> Option<BTreeMap<String, SourceStats>> + Send + Sync + 'static,
{
    let stats = FrontendStats::shared();
    let counters = Arc::clone(&stats);
    let (started, generation) = (Instant::now(), AtomicU64::new(0));
    let service = HttpService::new(move |req: &Request| {
        if req.method == "GET" && req.path == "/xdb/stats" {
            let scrape = generation.fetch_add(1, Ordering::Relaxed) + 1;
            let server = (&*counters, started.elapsed(), scrape);
            let doc = stats_document(backend.as_deref(), sources(), Some(server));
            return Response::new(200).with_xml(&doc.to_xml());
        }
        handler(req)
    });
    let frontend = Frontend::start(listener, service, cfg, stats)?;
    Ok(ServerHandle { frontend })
}

/// The `<stats>` document: served at `GET /xdb/stats` by both servers
/// and printed by `netmark stats`.
///
/// - With a `backend`, the root carries its `cache-hit-rate` and
///   `mean-latency-us`, and its [`XdbBackend::stats_children`] follow:
///   `<query/>`, `<index/>`, `<mvcc/>`, plus `<shards/>` when sharded.
/// - With `sources` (the federation router's per-source health), a
///   `<sources>` list of one `<source/>` per source comes first.
/// - With a serving front end — its counters, its uptime and this
///   scrape's number — its `<server/>` block comes last and the root is
///   stamped with `uptime` (whole seconds) and `stats-generation`. A
///   scraper that sees either go backwards knows the process restarted
///   and its lifetime counters reset.
pub fn stats_document(
    backend: Option<&dyn XdbBackend>,
    sources: Option<BTreeMap<String, SourceStats>>,
    server: Option<(&FrontendStats, Duration, u64)>,
) -> Node {
    let mut doc = Node::element("stats");
    if let Some(be) = backend {
        let q = be.query_stats();
        doc = doc
            .with_attr("cache-hit-rate", &format!("{:.3}", q.cache_hit_rate()))
            .with_attr("mean-latency-us", &q.mean_latency().as_micros().to_string());
    }
    if let Some(sources) = sources {
        let mut list = Node::element("sources");
        for (name, s) in sources {
            let mut source = s
                .to_node()
                .with_attr("mean-latency-us", &s.mean_latency().as_micros().to_string());
            source.attrs.insert(0, ("name".to_string(), name));
            list = list.with_child(source);
        }
        doc = doc.with_child(list);
    }
    if let Some(be) = backend {
        doc.children.extend(be.stats_children());
    }
    if let Some((fe, uptime, generation)) = server {
        doc = doc
            .with_child(fe.snapshot().to_node())
            .with_attr("uptime", &uptime.as_secs().to_string())
            .with_attr("stats-generation", &generation.to_string());
    }
    doc
}

fn doc_name(path: &str) -> Option<String> {
    path.strip_prefix("/docs/")
        .filter(|n| !n.is_empty() && !n.contains("..") && !n.contains('/'))
        .map(url_decode)
}

/// Dispatches one request with direct (unbatched) ingestion on PUT.
/// Exposed for in-process tests; the server routes through
/// [`handle_with`] and a shared [`IngestService`].
pub fn handle(nm: &dyn XdbBackend, req: &Request) -> Response {
    handle_with(nm, None, req)
}

/// Dispatches one request. When `ingest` is given, PUT uploads are queued
/// onto the shared batching service; otherwise they commit directly.
pub fn handle_with(nm: &dyn XdbBackend, ingest: Option<&IngestService>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("OPTIONS", _) => Response::new(200)
            .with_header("DAV", "1")
            .with_header("Allow", "OPTIONS, GET, PUT, DELETE, PROPFIND, MKCOL"),
        ("GET", "/xdb") => handle_query(nm, req),
        // Capability negotiation for remote federation adapters: the
        // backend says what it evaluates natively (a full NETMARK answers
        // everything, ranked search included).
        ("GET", "/xdb/capabilities") => Response::new(200).with_xml(&nm.capabilities().to_xml()),
        ("PROPFIND", "/docs") | ("PROPFIND", "/docs/") => handle_propfind(nm),
        ("MKCOL", _) => Response::new(201),
        ("PUT", _) => match doc_name(&req.path) {
            Some(name) => {
                let outcome = match ingest {
                    Some(svc) => svc.submit(&name, &req.body_text()),
                    None => nm
                        .insert_file(&name, &req.body_text())
                        .map_err(|e| e.to_string()),
                };
                match outcome {
                    Ok(rep) => Response::new(201).with_text(&format!(
                        "ingested doc #{} ({} nodes)",
                        rep.doc_id, rep.node_count
                    )),
                    Err(e) => Response::new(500).with_text(&e),
                }
            }
            None => Response::new(400).with_text("PUT requires /docs/<name>"),
        },
        ("GET", _) => match doc_name(&req.path) {
            Some(name) => match nm.reconstruct_named(&name) {
                Ok(Some(doc)) => Response::new(200).with_xml(&doc.root.to_pretty_xml()),
                Ok(None) => Response::new(404).with_text("no such document"),
                Err(e) => Response::new(500).with_text(&e.to_string()),
            },
            None => Response::new(404).with_text("not found"),
        },
        ("DELETE", _) => match doc_name(&req.path) {
            Some(name) => match nm.remove_named(&name) {
                Ok(true) => Response::new(204),
                Ok(false) => Response::new(404).with_text("no such document"),
                Err(e) => Response::new(500).with_text(&e.to_string()),
            },
            None => Response::new(400).with_text("DELETE requires /docs/<name>"),
        },
        _ => Response::new(405).with_text("method not allowed"),
    }
}

fn handle_query(nm: &dyn XdbBackend, req: &Request) -> Response {
    let qs = req.query.as_deref().unwrap_or("");
    match XdbQuery::from_url(qs) {
        Ok(q) => respond_query(nm, &q),
        Err(e) => Response::new(400).with_text(&format!("bad xdb query: {e}")),
    }
}

/// Executes an already-parsed XDB query through the engine and renders the
/// HTTP answer. The one query code path for every server: the local XDB
/// route above and the federation server's no-databank fall-through both
/// land here, so parsing, capability semantics, and limit handling cannot
/// drift between them.
pub fn respond_query(nm: &dyn XdbBackend, q: &XdbQuery) -> Response {
    match nm.run(q) {
        Ok(QueryOutput::Results(rs)) => Response::new(200).with_xml(&rs.to_xml()),
        Ok(QueryOutput::Composed(node)) => Response::new(200).with_xml(&node.to_pretty_xml()),
        Err(e) => Response::new(400).with_text(&e.to_string()),
    }
}

fn handle_propfind(nm: &dyn XdbBackend) -> Response {
    let docs = match nm.list_documents() {
        Ok(d) => d,
        Err(e) => return Response::new(500).with_text(&e.to_string()),
    };
    let mut xml = String::from("<multistatus>");
    for d in docs {
        xml.push_str(&format!(
            "<response><href>/docs/{}</href><propstat><prop>\
             <displayname>{}</displayname>\
             <getcontentlength>{}</getcontentlength>\
             <format>{}</format>\
             </prop></propstat></response>",
            escape_text(&d.file_name),
            escape_text(&d.file_name),
            d.file_size,
            escape_text(&d.format),
        ));
    }
    xml.push_str("</multistatus>");
    Response::new(207).with_header("DAV", "1").with_xml(&xml)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmark::NetMark;
    use std::collections::BTreeMap;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn temp_nm(tag: &str) -> (Arc<NetMark>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-dav-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Arc::new(NetMark::open(&dir).unwrap()), dir)
    }

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        s.flush().unwrap();
        // Half-close: the keep-alive server sees EOF after this request
        // and closes its side, unblocking read_to_string.
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn full_http_round_trip() {
        let (nm, dir) = temp_nm("rt");
        let h = serve(nm, "127.0.0.1:0").unwrap();
        let addr = h.addr();

        // PUT a document.
        let body = "# Budget\ntwo million\n";
        let resp = request(
            addr,
            &format!(
                "PUT /docs/plan.txt HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");

        // Query it over the XDB URL.
        let resp = request(addr, "GET /xdb?Context=Budget HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("two million"));

        // PROPFIND listing.
        let resp = request(addr, "PROPFIND /docs HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 207"), "{resp}");
        assert!(resp.contains("plan.txt"));

        // GET the stored document.
        let resp = request(addr, "GET /docs/plan.txt HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("<Context"));

        // DELETE then 404.
        let resp = request(addr, "DELETE /docs/plan.txt HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 204"), "{resp}");
        let resp = request(addr, "GET /docs/plan.txt HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_second_put_replaces_the_document() {
        let (nm, dir) = temp_nm("put2");
        let h = serve(nm.clone(), "127.0.0.1:0").unwrap();
        let addr = h.addr();
        for body in ["# Budget\nold plan\n", "# Budget\nnew plan\n"] {
            let put = format!(
                "PUT /docs/plan.txt HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let resp = request(addr, &put);
            assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
        }
        let resp = request(addr, "GET /docs/plan.txt HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(
            resp.contains("new plan") && !resp.contains("old plan"),
            "{resp}"
        );
        assert_eq!(nm.list_documents().unwrap().len(), 1);
        let resp = request(addr, "GET /xdb?Context=Budget HTTP/1.1\r\n\r\n");
        assert_eq!(resp.matches("<hit ").count(), 1, "{resp}");
        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handler_unit_paths() {
        let (nm, dir) = temp_nm("unit");
        nm.insert_file("a.txt", "# S\nbody\n").unwrap();
        let mk = |method: &str, path: &str, query: Option<&str>| Request {
            method: method.into(),
            path: path.into(),
            query: query.map(String::from),
            headers: BTreeMap::new(),
            body: Vec::new(),
        };
        assert_eq!(handle(&*nm, &mk("OPTIONS", "/", None)).status, 200);
        assert_eq!(handle(&*nm, &mk("MKCOL", "/docs", None)).status, 201);
        assert_eq!(handle(&*nm, &mk("PATCH", "/docs", None)).status, 405);
        assert_eq!(
            handle(&*nm, &mk("GET", "/xdb", Some("bogus"))).status,
            400,
            "malformed query reports 400"
        );
        assert_eq!(
            handle(&*nm, &mk("GET", "/docs/../etc/passwd", None)).status,
            404,
            "path traversal rejected"
        );
        assert_eq!(handle(&*nm, &mk("PUT", "/docs/", None)).status, 400);
        assert_eq!(
            handle(&*nm, &mk("DELETE", "/docs/none.txt", None)).status,
            404
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_query_parameters_get_typed_400s() {
        let (nm, dir) = temp_nm("badq");
        let mk = |query: &str| Request {
            method: "GET".into(),
            path: "/xdb".into(),
            query: Some(query.to_string()),
            headers: BTreeMap::new(),
            body: Vec::new(),
        };
        for (qs, needle) in [
            ("Context=", "empty value"),
            ("Context=A&Context=B", "duplicate"),
            ("limit=abc", "limit"),
            ("bogus=1", "unknown query key"),
        ] {
            let resp = handle(&*nm, &mk(qs));
            assert_eq!(resp.status, 400, "{qs}");
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            assert!(body.contains(needle), "{qs} → {body}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn xslt_composition_over_http() {
        let (nm, dir) = temp_nm("xslt");
        nm.insert_file("a.txt", "# Budget\nmoney\n").unwrap();
        nm.register_stylesheet(
            "wrap",
            "<xsl:stylesheet><xsl:template match=\"/\"><composed><xsl:value-of select=\"//Content\"/></composed></xsl:template></xsl:stylesheet>",
        )
        .unwrap();
        let h = serve(nm, "127.0.0.1:0").unwrap();
        let resp = request(
            h.addr(),
            "GET /xdb?Context=Budget&xslt=wrap HTTP/1.1\r\n\r\n",
        );
        assert!(resp.contains("<composed>money</composed>"), "{resp}");
        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod encoding_tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn percent_encoded_document_names() {
        let dir = std::env::temp_dir().join(format!("netmark-dav-enc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(netmark::NetMark::open(&dir).unwrap());
        let h = serve(nm.clone(), "127.0.0.1:0").unwrap();
        let body = "# Budget\nmoney\n";
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(
            format!(
                "PUT /docs/my%20plan.txt HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        )
        .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
        assert!(nm.document_by_name("my plan.txt").unwrap().is_some());
        // Fetch with the encoded name.
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /docs/my%20plan.txt HTTP/1.1\r\n\r\n")
            .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_content_length_gets_413() {
        let dir = std::env::temp_dir().join(format!("netmark-dav-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(netmark::NetMark::open(&dir).unwrap());
        let h = serve(nm.clone(), "127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Claim a 1 GiB body; the parser must refuse rather than allocate.
        s.write_all(b"PUT /docs/x.txt HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        assert!(nm.list_documents().unwrap().is_empty());
        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unframeable_body_gets_one_400_and_close() {
        let dir = std::env::temp_dir().join(format!("netmark-dav-frame-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(netmark::NetMark::open(&dir).unwrap());
        let h = serve(nm.clone(), "127.0.0.1:0").unwrap();
        for framing in ["Content-Length: x1", "Transfer-Encoding: chunked"] {
            let mut s = TcpStream::connect(h.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // The body smuggles a second request onto the keep-alive
            // connection; it must never be answered.
            let raw = format!(
                "PUT /docs/a.txt HTTP/1.1\r\n{framing}\r\n\r\n\
                 GET /xdb/capabilities HTTP/1.1\r\n\r\n"
            );
            s.write_all(raw.as_bytes()).unwrap();
            let mut resp = String::new();
            let _ = s.read_to_string(&mut resp);
            assert!(resp.starts_with("HTTP/1.1 400"), "{framing}: {resp}");
            assert_eq!(resp.matches("HTTP/1.1 ").count(), 1, "{framing}: {resp}");
        }
        assert!(nm.list_documents().unwrap().is_empty());
        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_headers_get_431() {
        let dir = std::env::temp_dir().join(format!("netmark-dav-hdr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(netmark::NetMark::open(&dir).unwrap());
        let h = serve(nm.clone(), "127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /xdb?Context=x HTTP/1.1\r\n").unwrap();
        let pad = format!("X-Pad: {}\r\n", "y".repeat(8 << 10));
        for _ in 0..16 {
            if s.write_all(pad.as_bytes()).is_err() {
                break; // server may slam the door before we finish
            }
        }
        let _ = s.write_all(b"\r\n");
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");
        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let dir = std::env::temp_dir().join(format!("netmark-dav-ka-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(netmark::NetMark::open(&dir).unwrap());
        nm.insert_file("a.txt", "# Budget\nmoney\n").unwrap();
        let h = serve(nm.clone(), "127.0.0.1:0").unwrap();

        let mut s = TcpStream::connect(h.addr()).unwrap();
        let read_one = |s: &mut TcpStream| {
            // Parse exactly one response off the stream by Content-Length.
            use std::io::{BufRead, BufReader, Read};
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut head = String::new();
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
                let done = line == "\r\n" || line == "\n";
                head.push_str(&line);
                if done {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            (head, String::from_utf8_lossy(&body).into_owned())
        };

        s.write_all(b"GET /xdb?Context=Budget HTTP/1.1\r\n\r\n")
            .unwrap();
        let (head, body) = read_one(&mut s);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.to_ascii_lowercase().contains("connection: keep-alive"));
        assert!(body.contains("money"));

        // Same socket, second request.
        s.write_all(b"GET /xdb/capabilities HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (head, body) = read_one(&mut s);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.to_ascii_lowercase().contains("connection: close"));
        assert!(body.contains("capabilities"));
        assert!(body.contains("version=\"2\""));
        assert!(body.contains("ranked=\"true\""));

        h.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
