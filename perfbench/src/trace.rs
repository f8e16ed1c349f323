//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Every span carries the request id the client sent in
//! [`crate::client::REQUEST_ID_HEADER`]; server-side code learns it from a
//! thread-local the traced handler sets, because one front-end worker
//! serves one request at a time on its thread. Spans stay in memory and are
//! written out when the run ends.

use netmark::metrics::QueryTrace;
use netmark::{
    DocInfo, Document, IngestMetrics, IngestReport, NetMark, Node, QueryOutput, QueryStats,
    XdbBackend, XdbQuery,
};
use netmark_federation::{Capabilities, SourceAdapter, SourceError};
use netmark_netserve::{ServeOutcome, Service};
use netmark_relstore::WalStats;
use netmark_webdav::{handle_with, HttpService, IngestService, Request, Response};
use netmark_xdb::ResultSet;
use std::cell::Cell;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// One timed interval, in milliseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Query content terms, for spans whose request id cannot be carried
    /// (federation fan-out threads).
    pub key: Option<String>,
}

/// Per-query engine stages, as `NetMark::query_traced` reports them.
#[derive(Debug, Clone, Copy)]
pub struct EngineRecord {
    pub trace: QueryTrace,
    pub hits: usize,
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    engine: Mutex<Vec<EngineRecord>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
            engine: Mutex::new(Vec::new()),
        })
    }

    pub fn ms(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }

    pub fn record(&self, req: u64, name: &str, start: Instant, end: Instant, key: Option<String>) {
        let span = Span {
            req,
            name: name.to_string(),
            start: self.ms(start),
            end: self.ms(end),
            key,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Times `f` as a span of the current thread's request.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(current_request(), name, t0, Instant::now(), None);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn engine_records(&self) -> Vec<EngineRecord> {
        self.engine.lock().expect("engine store poisoned").clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("req\tname\tstart_ms\tend_ms\tkey\n");
        for s in self.spans() {
            out.push_str(&format!(
                "{}\t{}\t{:.4}\t{:.4}\t{}\n",
                s.req,
                s.name,
                s.start,
                s.end,
                s.key.as_deref().unwrap_or("")
            ));
        }
        std::fs::write(path, out)
    }
}

pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(Cell::get)
}

fn set_current_request(id: u64) {
    CURRENT_REQUEST.with(|c| c.set(id));
}

/// A timing [`XdbBackend`] around one store. Queries without `xslt=` run
/// through `NetMark::query_traced`, the same code `run` executes, so the
/// engine's stage split is kept per request.
pub struct TracedBackend {
    pub nm: Arc<NetMark>,
    pub tracer: Arc<Tracer>,
}

impl XdbBackend for TracedBackend {
    fn run(&self, q: &XdbQuery) -> netmark::Result<QueryOutput> {
        if q.xslt.is_some() {
            return self.tracer.time("engine", || self.nm.run(q));
        }
        let t0 = Instant::now();
        let out = self.nm.query_traced(q);
        let t1 = Instant::now();
        let req = current_request();
        self.tracer.record(req, "engine", t0, t1, None);
        let (rs, trace) = out?;
        self.tracer
            .engine
            .lock()
            .expect("engine store poisoned")
            .push(EngineRecord {
                trace,
                hits: rs.hits.len(),
            });
        Ok(QueryOutput::Results(rs))
    }

    fn insert_document(&self, doc: &Document) -> netmark::Result<IngestReport> {
        self.tracer
            .time("store.ingest", || self.nm.insert_document(doc))
    }

    fn ingest_batch(&self, docs: &[Document]) -> netmark::Result<Vec<IngestReport>> {
        self.tracer
            .time("store.ingest", || self.nm.ingest_batch(docs))
    }

    fn list_documents(&self) -> netmark::Result<Vec<DocInfo>> {
        self.nm.list_documents()
    }

    fn document_by_name(&self, name: &str) -> netmark::Result<Option<DocInfo>> {
        self.nm.document_by_name(name)
    }

    fn reconstruct_named(&self, name: &str) -> netmark::Result<Option<Document>> {
        self.tracer.time("store.reconstruct", || {
            XdbBackend::reconstruct_named(&*self.nm, name)
        })
    }

    fn remove_named(&self, name: &str) -> netmark::Result<bool> {
        XdbBackend::remove_named(&*self.nm, name)
    }

    fn register_stylesheet(&self, name: &str, source: &str) -> netmark::Result<()> {
        self.nm.register_stylesheet(name, source)
    }

    fn query_stats(&self) -> QueryStats {
        self.nm.query_stats()
    }

    fn stats_children(&self) -> Vec<Node> {
        self.nm.stats_children()
    }

    fn ingest_metrics(&self) -> &IngestMetrics {
        self.nm.metrics()
    }

    fn wal_stats(&self) -> WalStats {
        self.nm.wal_stats()
    }

    fn sync_wal(&self) -> netmark::Result<()> {
        self.nm.sync_wal()
    }

    fn flush(&self) -> netmark::Result<()> {
        self.nm.flush()
    }
}

/// What a traced handler answers: the query route split into parse,
/// execution and render spans, every other route handled whole.
pub trait TracedRoutes: Send + Sync + 'static {
    /// Executes a parsed `GET /xdb` query into results.
    fn results(&self, q: &XdbQuery) -> Result<ResultSet, Response>;
    /// Any other request.
    fn other(&self, req: &Request) -> Response;
}

/// A store served the way `netmark_webdav::serve_with` serves it.
pub struct StoreRoutes {
    pub backend: Arc<TracedBackend>,
    pub ingest: IngestService,
}

impl TracedRoutes for StoreRoutes {
    fn results(&self, q: &XdbQuery) -> Result<ResultSet, Response> {
        match self.backend.run(q) {
            Ok(QueryOutput::Results(rs)) => Ok(rs),
            Ok(QueryOutput::Composed(n)) => Err(Response::new(200).with_xml(&n.to_pretty_xml())),
            Err(e) => Err(Response::new(400).with_text(&e.to_string())),
        }
    }

    fn other(&self, req: &Request) -> Response {
        handle_with(&*self.backend, Some(&self.ingest), req)
    }
}

/// The traced request handler: reads the request id, then times the XDB
/// parse, the execution and the `ResultSet::to_xml` render.
pub fn traced_handler<R: TracedRoutes>(
    routes: R,
    tracer: Arc<Tracer>,
) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    move |req: &Request| {
        let id = req
            .header(crate::client::REQUEST_ID_HEADER)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        set_current_request(id);
        let t0 = Instant::now();
        let resp = if req.method == "GET" && req.path == "/xdb" {
            let qs = req.query.as_deref().unwrap_or("");
            match tracer.time("xdb.parse", || XdbQuery::from_url(qs)) {
                Ok(q) => match routes.results(&q) {
                    Ok(rs) => {
                        let xml = tracer.time("xdb.render", || rs.to_xml());
                        Response::new(200).with_xml(&xml)
                    }
                    Err(resp) => resp,
                },
                Err(e) => Response::new(400).with_text(&format!("bad xdb query: {e}")),
            }
        } else {
            routes.other(req)
        };
        tracer.record(id, "handler", t0, Instant::now(), None);
        resp
    }
}

/// Front-end service wrapper: one `serve` span per request, covering the
/// HTTP read and parse, the handler and the response write.
pub struct TracedService<F> {
    pub inner: HttpService<F>,
    pub tracer: Arc<Tracer>,
}

impl<F> Service for TracedService<F>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn serve_one(&self, reader: &mut dyn BufRead, out: &mut dyn Write) -> ServeOutcome {
        set_current_request(0);
        let t0 = Instant::now();
        let outcome = self.inner.serve_one(reader, out);
        let id = current_request();
        if id != 0 {
            self.tracer.record(id, "serve", t0, Instant::now(), None);
        }
        outcome
    }

    fn shed_response(&self, retry_after: Duration) -> Vec<u8> {
        self.inner.shed_response(retry_after)
    }
}

/// A timing wrapper around one federation source. The router calls it from
/// its fan-out threads, so spans carry the query's content terms instead of
/// a request id and are matched to requests afterwards.
pub struct TimedSource {
    pub inner: Arc<dyn SourceAdapter>,
    pub tracer: Arc<Tracer>,
    pub span_name: String,
}

impl SourceAdapter for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn search(&self, q: &XdbQuery) -> Result<ResultSet, SourceError> {
        let t0 = Instant::now();
        let r = self.inner.search(q);
        self.tracer
            .record(0, &self.span_name, t0, Instant::now(), q.content.clone());
        r
    }

    fn fetch_document(&self, name: &str) -> Result<Document, SourceError> {
        let t0 = Instant::now();
        let r = self.inner.fetch_document(name);
        self.tracer
            .record(0, &self.span_name, t0, Instant::now(), None);
        r
    }

    fn breaker_opens(&self) -> u64 {
        self.inner.breaker_opens()
    }
}
