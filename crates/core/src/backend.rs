//! [`XdbBackend`]: the store contract behind every server and tool.
//!
//! The WebDAV server, the federation server's local arm, the drop-folder
//! daemon, and the CLI all speak to "a store" through this trait, so a
//! single [`NetMark`] instance and an N-way sharded store (`netmark-shard`)
//! are interchangeable deployments: same routes, same ingest pipeline,
//! same stats document — the only difference is what `stats_children`
//! chooses to render.
//!
//! Document identity at this boundary is the *name*, not the row id:
//! `DocId`s are local to one store (and, under sharding, to one shard), so
//! the trait's lookup/removal surface is name-keyed. `DocInfo.doc_id`
//! remains visible for diagnostics but is only meaningful store-locally.
//! A name is a key: ingesting a document replaces every live document of
//! that name in the same commit, so a PUT or a dropped file of a stored
//! name is an update, and at most one document per name is live.

use crate::error::Result;
use crate::metrics::{IngestMetrics, QueryStats};
use crate::netmark::{NetMark, QueryOutput};
use crate::store::{DocInfo, IngestReport};
use netmark_docformats::upmark;
use netmark_model::{Document, Node};
use netmark_relstore::WalStats;
use netmark_xdb::{Capabilities, XdbQuery};
use std::time::Instant;

/// A queryable, ingestable XDB store. See the module docs.
pub trait XdbBackend: Send + Sync {
    /// What this backend evaluates natively — served verbatim at
    /// `GET /xdb/capabilities` (wire v2 negotiation, paper §2.1.5). Local
    /// stores are full peers, ranked search included; adapters fronting
    /// lesser remotes override this with what the remote advertised.
    fn capabilities(&self) -> Capabilities {
        Capabilities::FULL
    }

    /// Runs a parsed XDB query, composing with the named stylesheet when
    /// the query carries `xslt=`.
    fn run(&self, q: &XdbQuery) -> Result<QueryOutput>;

    /// Ingests a batch of upmarked documents. Results are identical to
    /// inserting them sequentially in order.
    fn ingest_batch(&self, docs: &[Document]) -> Result<Vec<IngestReport>>;

    /// Ingests one upmarked document: a batch of one.
    fn insert_document(&self, doc: &Document) -> Result<IngestReport> {
        let mut reports = self.ingest_batch(std::slice::from_ref(doc))?;
        Ok(reports.pop().expect("a batch of one yields one report"))
    }

    /// Upmarks and ingests a raw file (the drop-a-file pathway), booking
    /// the upmark time in [`XdbBackend::ingest_metrics`].
    fn insert_file(&self, name: &str, content: &str) -> Result<IngestReport> {
        let t0 = Instant::now();
        let doc = upmark(name, content);
        self.ingest_metrics().record_upmark(t0.elapsed());
        self.insert_document(&doc)
    }

    /// Stored document list, in ingest order.
    fn list_documents(&self) -> Result<Vec<DocInfo>>;

    /// Document metadata by name.
    fn document_by_name(&self, name: &str) -> Result<Option<DocInfo>>;

    /// Reconstructs a stored document by name (`None` if absent).
    fn reconstruct_named(&self, name: &str) -> Result<Option<Document>>;

    /// Removes every live document of this name. Returns `false` if there
    /// is none.
    fn remove_named(&self, name: &str) -> Result<bool>;

    /// Registers (or replaces) a named stylesheet for `xslt=` composition.
    fn register_stylesheet(&self, name: &str, source: &str) -> Result<()>;

    /// Cumulative read-path counters (aggregated across shards when the
    /// backend is sharded — see `QueryStats::merge` for the rules).
    fn query_stats(&self) -> QueryStats;

    /// The child elements of the `GET /xdb/stats` document: `<query/>`,
    /// `<index/>`, `<mvcc/>`, and — for sharded backends — `<shards/>`.
    fn stats_children(&self) -> Vec<Node>;

    /// Cumulative ingest instrumentation (upmark timings, batch sizes,
    /// queue depths) shared by the pipeline and the HTTP PUT path.
    fn ingest_metrics(&self) -> &IngestMetrics;

    /// WAL commit/fsync counters (summed across shards when sharded).
    fn wal_stats(&self) -> WalStats;

    /// Forces any buffered WAL bytes to disk.
    fn sync_wal(&self) -> Result<()>;

    /// Persists indexes and checkpoints the store(s).
    fn flush(&self) -> Result<()>;
}

impl XdbBackend for NetMark {
    fn run(&self, q: &XdbQuery) -> Result<QueryOutput> {
        NetMark::run(self, q)
    }

    fn ingest_batch(&self, docs: &[Document]) -> Result<Vec<IngestReport>> {
        NetMark::ingest_batch(self, docs)
    }

    fn list_documents(&self) -> Result<Vec<DocInfo>> {
        NetMark::list_documents(self)
    }

    fn document_by_name(&self, name: &str) -> Result<Option<DocInfo>> {
        NetMark::document_by_name(self, name)
    }

    /// The name lookup and the reconstruct read one view, so a concurrent
    /// removal can never land between them.
    fn reconstruct_named(&self, name: &str) -> Result<Option<Document>> {
        let view = self.store().begin_read()?;
        match view.docs_named(name)?.into_iter().next() {
            Some((_, info)) => Ok(Some(view.reconstruct_document(info.doc_id)?)),
            None => Ok(None),
        }
    }

    fn remove_named(&self, name: &str) -> Result<bool> {
        self.store().remove_named(name)
    }

    fn register_stylesheet(&self, name: &str, source: &str) -> Result<()> {
        NetMark::register_stylesheet(self, name, source)
    }

    fn query_stats(&self) -> QueryStats {
        NetMark::query_stats(self)
    }

    fn stats_children(&self) -> Vec<Node> {
        vec![
            self.query_stats().to_node(),
            self.text_index().stats().to_node(),
            self.store().database().mvcc_stats().to_node(),
        ]
    }

    fn ingest_metrics(&self) -> &IngestMetrics {
        self.metrics()
    }

    fn wal_stats(&self) -> WalStats {
        NetMark::wal_stats(self)
    }

    fn sync_wal(&self) -> Result<()> {
        self.store().database().sync_wal()?;
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        NetMark::flush(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netmark_implements_the_backend_contract() {
        let dir = std::env::temp_dir().join(format!("netmark-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        let be: &dyn XdbBackend = &nm;
        be.insert_file("a.txt", "# Budget\ntwo million\n").unwrap();
        assert_eq!(be.list_documents().unwrap().len(), 1);
        assert!(be.document_by_name("a.txt").unwrap().is_some());
        let doc = be.reconstruct_named("a.txt").unwrap().unwrap();
        assert_eq!(doc.name, "a.txt");
        let out = be.run(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(out.results().unwrap().len(), 1);
        let children = be.stats_children();
        let names: Vec<&str> = children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["query", "index", "mvcc"]);
        assert!(be.remove_named("a.txt").unwrap());
        assert!(!be.remove_named("a.txt").unwrap());
        assert!(be.reconstruct_named("ghost.txt").unwrap().is_none());
        be.flush().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Renames `from`'s `DOC` row to `to`, as a store written before a
    /// name was a key holds two live documents of one name.
    fn rename_doc_row(nm: &NetMark, from: &str, to: &str) {
        use crate::schema::{doc, DOC_TABLE};
        use netmark_relstore::Value;
        let db = nm.store().database();
        let table = db.table(DOC_TABLE).unwrap();
        let rows = db.begin_read().table(DOC_TABLE).unwrap().scan().unwrap();
        let (rid, mut row) = rows
            .into_iter()
            .find(|(_, row)| row[doc::FILE_NAME].as_text() == Some(from))
            .unwrap();
        row[doc::FILE_NAME] = Value::from(to);
        table.update(rid, &row).unwrap();
    }

    #[test]
    fn remove_named_removes_every_live_copy_of_a_name() {
        let dir = std::env::temp_dir().join(format!("netmark-backend-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        let be: &dyn XdbBackend = &nm;
        let budget = || {
            be.run(&XdbQuery::context("Budget"))
                .unwrap()
                .results()
                .unwrap()
        };
        for round in 0..2 {
            be.insert_file("a.txt", "# Budget\nfirst\n").unwrap();
            be.insert_file("b.txt", "# Budget\nsecond\n").unwrap();
            rename_doc_row(&nm, "b.txt", "a.txt");
            assert_eq!(budget().len(), 2);
            if round == 0 {
                assert!(be.remove_named("a.txt").unwrap());
                assert!(budget().is_empty(), "{}", budget().to_xml());
            } else {
                // The next ingest of the name repairs the store too.
                be.insert_file("a.txt", "# Budget\nthird\n").unwrap();
                assert_eq!(budget().len(), 1);
                assert_eq!(budget().hits[0].content_text(), "third");
            }
        }
        assert!(!be.remove_named("ghost.txt").unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
