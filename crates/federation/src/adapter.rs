//! Source adapters: what the thin router talks to.
//!
//! "A source that is queried need not necessarily have XML or even
//! Context+Content searching capabilities. However NETMARK 'augments' the
//! query capability in that it uses whatever query and search capabilities
//! are available at the source and then does further processing required."
//! (§2.1.5). Each adapter advertises [`Capabilities`]; the router pushes
//! down what the source can do and augments the rest.

use netmark::NetMark;
use netmark_model::Document;
use netmark_xdb::{Hit, ResultSet, XdbQuery};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Capabilities are part of the XDB wire surface (servers advertise them at
// `GET /xdb/capabilities`), so the type lives in the protocol crate.
pub use netmark_xdb::Capabilities;

/// Source-side failures the router must survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// Network-ish failure: down, timed out.
    Unavailable(String),
    /// The source's circuit breaker is open: the query was not attempted.
    CircuitOpen(String),
    /// The pushed query exceeds the source's capabilities (router bug).
    Unsupported(String),
    /// The source's own backend errored.
    Backend(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Unavailable(m) => write!(f, "source unavailable: {m}"),
            SourceError::CircuitOpen(m) => write!(f, "circuit open: {m}"),
            SourceError::Unsupported(m) => write!(f, "query unsupported by source: {m}"),
            SourceError::Backend(m) => write!(f, "source backend error: {m}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// A queryable information source.
pub trait SourceAdapter: Send + Sync {
    /// Source name (unique within a router).
    fn name(&self) -> &str;

    /// Declared capabilities.
    fn capabilities(&self) -> Capabilities;

    /// Evaluates the (router-weakened) query.
    fn search(&self, q: &XdbQuery) -> Result<ResultSet, SourceError>;

    /// Fetches one full document for router-side augmentation.
    fn fetch_document(&self, name: &str) -> Result<Document, SourceError>;

    /// Cumulative circuit-breaker opens, for breaker-guarded sources
    /// (remote adapters). In-process sources have no breaker: `0`.
    fn breaker_opens(&self) -> u64 {
        0
    }
}

/// A full NETMARK instance as a source (Fig 8's peers).
pub struct NetmarkSource {
    name: String,
    nm: Arc<NetMark>,
}

impl NetmarkSource {
    /// Wraps an engine under a source name.
    pub fn new(name: &str, nm: Arc<NetMark>) -> NetmarkSource {
        NetmarkSource {
            name: name.to_string(),
            nm,
        }
    }
}

impl SourceAdapter for NetmarkSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::FULL
    }

    fn search(&self, q: &XdbQuery) -> Result<ResultSet, SourceError> {
        self.nm
            .query(q)
            .map_err(|e| SourceError::Backend(e.to_string()))
    }

    fn fetch_document(&self, name: &str) -> Result<Document, SourceError> {
        let info = self
            .nm
            .document_by_name(name)
            .map_err(|e| SourceError::Backend(e.to_string()))?
            .ok_or_else(|| SourceError::Backend(format!("no document {name}")))?;
        self.nm
            .reconstruct_document(info.doc_id)
            .map_err(|e| SourceError::Backend(e.to_string()))
    }
}

/// A content-search-only web server over raw documents — the paper's NASA
/// Lessons Learned Information Server. It "allows only 'Content search'
/// kinds of queries" and returns whole documents, unsectioned.
pub struct ContentOnlySource {
    name: String,
    /// `(file name, raw text)` corpus.
    docs: Vec<(String, String)>,
}

impl ContentOnlySource {
    /// Builds the source over a raw corpus.
    pub fn new(name: &str, docs: Vec<(String, String)>) -> ContentOnlySource {
        ContentOnlySource {
            name: name.to_string(),
            docs,
        }
    }
}

impl SourceAdapter for ContentOnlySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::CONTENT_ONLY
    }

    fn search(&self, q: &XdbQuery) -> Result<ResultSet, SourceError> {
        if q.context.is_some() {
            return Err(SourceError::Unsupported(
                "this server only supports Content search".into(),
            ));
        }
        let terms: Option<Vec<String>> = q.content.as_deref().map(netmark_textindex::query_terms);
        let mut rs = ResultSet::new();
        for (name, text) in &self.docs {
            let hay = netmark_textindex::query_terms(text);
            // No `Content=` matches every document; one with no
            // searchable terms matches none, as in the engine.
            let matches = terms
                .as_ref()
                .is_none_or(|t| !t.is_empty() && t.iter().all(|t| hay.contains(t)));
            if matches {
                // Whole-document, unsectioned hit.
                rs.hits.push(Hit {
                    source: self.name.clone(),
                    doc: name.clone(),
                    context: String::new(),
                    content: netmark_model::Node::element("Content")
                        .with_text(&text.chars().take(200).collect::<String>()),
                    context_node: 0,
                    score: None,
                });
            }
        }
        rs.candidates = rs.hits.len();
        if let Some(limit) = q.limit {
            if rs.hits.len() > limit {
                rs.hits.truncate(limit);
                rs.truncated = true;
            }
        }
        Ok(rs)
    }

    fn fetch_document(&self, name: &str) -> Result<Document, SourceError> {
        let (n, text) = self
            .docs
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| SourceError::Backend(format!("no document {name}")))?;
        // The router upmarks the raw document itself — the source has no
        // structure to offer.
        Ok(netmark_docformats::upmark(n, text))
    }
}

/// Failure-injection wrapper: fails outright or every N-th call.
pub struct FlakySource<S: SourceAdapter> {
    inner: S,
    /// 0 = always fail; n>0 = fail every n-th search.
    fail_every: u64,
    calls: AtomicU64,
}

impl<S: SourceAdapter> FlakySource<S> {
    /// Always-failing wrapper (a downed source).
    pub fn down(inner: S) -> FlakySource<S> {
        FlakySource {
            inner,
            fail_every: 0,
            calls: AtomicU64::new(0),
        }
    }

    /// Fails every `n`-th search (n ≥ 1).
    pub fn every(inner: S, n: u64) -> FlakySource<S> {
        FlakySource {
            inner,
            fail_every: n.max(1),
            calls: AtomicU64::new(0),
        }
    }
}

impl<S: SourceAdapter> SourceAdapter for FlakySource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn search(&self, q: &XdbQuery) -> Result<ResultSet, SourceError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if self.fail_every == 0 || call.is_multiple_of(self.fail_every) {
            return Err(SourceError::Unavailable("injected failure".into()));
        }
        self.inner.search(q)
    }

    fn fetch_document(&self, name: &str) -> Result<Document, SourceError> {
        self.inner.fetch_document(name)
    }

    fn breaker_opens(&self) -> u64 {
        self.inner.breaker_opens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llis() -> ContentOnlySource {
        ContentOnlySource::new(
            "llis",
            vec![
                (
                    "ll-1.txt".to_string(),
                    "# Title\nEngine anomaly\n# Lesson\nInspect the harness".to_string(),
                ),
                (
                    "ll-2.txt".to_string(),
                    "# Title\nParachute issue\n# Lesson\nRepack often".to_string(),
                ),
            ],
        )
    }

    #[test]
    fn content_only_search() {
        let s = llis();
        let rs = s.search(&XdbQuery::content("engine")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].doc, "ll-1.txt");
        assert!(s.search(&XdbQuery::context("Title")).is_err());
    }

    #[test]
    fn fetch_upmarks() {
        let s = llis();
        let d = s.fetch_document("ll-1.txt").unwrap();
        let labels: Vec<String> = d
            .context_content_pairs()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(labels, vec!["Title", "Lesson"]);
        assert!(s.fetch_document("missing").is_err());
    }

    #[test]
    fn flaky_injection() {
        let down = FlakySource::down(llis());
        assert!(down.search(&XdbQuery::content("engine")).is_err());
        let every2 = FlakySource::every(llis(), 2);
        assert!(every2.search(&XdbQuery::content("engine")).is_ok());
        assert!(every2.search(&XdbQuery::content("engine")).is_err());
        assert!(every2.search(&XdbQuery::content("engine")).is_ok());
    }
}
