//! The `NetMark` facade: one handle for ingest, query, composition.

use crate::backend::XdbBackend;
use crate::engine::{QueryEngine, QueryEngineOptions};
use crate::error::{NetmarkError, Result};
use crate::metrics::{IngestMetrics, IngestStats, QueryStats, QueryTrace};
use crate::store::{DocId, DocInfo, IngestReport, NodeStore};
use netmark_model::{Document, Node};
use netmark_relstore::{Database, DbOptions, MvccStats, WalStats};
use netmark_textindex::{CompactionPolicy, Compactor, IndexStats, SegmentedIndex};
use netmark_xdb::{ResultSet, XdbQuery};
use netmark_xslt::Stylesheet;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for [`NetMark::open_with`].
#[derive(Debug, Clone)]
pub struct NetMarkOptions {
    /// Storage-engine options.
    pub db: DbOptions,
    /// Read-path (query engine) options: fan-out workers, result cache.
    pub query: QueryEngineOptions,
    /// Compaction policy for the segmented text index (run-merge and
    /// tombstone-purge thresholds).
    pub index_compaction: CompactionPolicy,
    /// Run the background index-compaction thread. Disable for
    /// deterministic single-threaded runs (compaction can still be driven
    /// manually via the index handle).
    pub background_compaction: bool,
}

impl Default for NetMarkOptions {
    fn default() -> Self {
        NetMarkOptions {
            db: DbOptions::default(),
            query: QueryEngineOptions::default(),
            index_compaction: CompactionPolicy::default(),
            background_compaction: true,
        }
    }
}

/// What a URL query returned: raw results, or a stylesheet-composed
/// document (when the URL named an `xslt=`).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// The raw result set.
    Results(ResultSet),
    /// The composed document produced by the named stylesheet.
    Composed(Node),
}

impl QueryOutput {
    /// The result set, if this output is raw results.
    pub fn results(self) -> Option<ResultSet> {
        match self {
            QueryOutput::Results(r) => Some(r),
            QueryOutput::Composed(_) => None,
        }
    }

    /// The composed node, if a stylesheet ran.
    pub fn composed(self) -> Option<Node> {
        match self {
            QueryOutput::Composed(n) => Some(n),
            QueryOutput::Results(_) => None,
        }
    }
}

/// Aggregate statistics (for benches and ops).
#[derive(Debug, Clone)]
pub struct NetMarkStats {
    /// Stored documents.
    pub documents: usize,
    /// Stored `XML` rows.
    pub nodes: usize,
    /// Cumulative ingest counters (per-stage wall time, batch sizes,
    /// queue high-water mark) for this instance's lifetime.
    pub ingest: IngestStats,
    /// WAL commit/fsync counters (group-commit instrumentation).
    pub wal: WalStats,
    /// Read-path counters (cache hit rate, per-stage wall times).
    pub query: QueryStats,
    /// Segmented text-index gauges and counters (terms, posting bytes,
    /// segments, tombstones, compaction and incremental-save activity).
    pub index: IndexStats,
    /// Storage-engine MVCC gauges and counters (current version, pinned
    /// read views, copy-on-write overlay size, checkpoint evictions).
    pub mvcc: MvccStats,
}

/// An open NETMARK instance: schema-less store + text index + stylesheets.
pub struct NetMark {
    store: Arc<NodeStore>,
    index: Arc<SegmentedIndex>,
    engine: QueryEngine,
    stylesheets: RwLock<HashMap<String, Stylesheet>>,
    /// Directory holding the segmented index (MANIFEST + `seg-*.seg`).
    index_dir: PathBuf,
    /// Sidecar file holding the store generation the saved index reflects.
    stamp_path: PathBuf,
    /// Background compaction thread; stopped and joined on drop.
    _compactor: Option<Compactor>,
    metrics: IngestMetrics,
    /// Serializes mutations (ingest, removal) and [`NetMark::flush`] with
    /// each other — NOT with queries — so the store generation, the
    /// in-memory index, and the persisted stamp can never be observed torn
    /// by a flush racing an in-flight ingest. Writers were already
    /// serialized by the store's write lock, so this adds no contention on
    /// the ingest path.
    ingest_lock: Mutex<()>,
}

impl NetMark {
    /// Opens (or creates) a NETMARK instance in `dir`.
    pub fn open(dir: &Path) -> Result<NetMark> {
        NetMark::open_with(dir, NetMarkOptions::default())
    }

    /// Opens with explicit options.
    pub fn open_with(dir: &Path, options: NetMarkOptions) -> Result<NetMark> {
        let db = Database::open_with(dir, options.db.clone())?;
        let store = NodeStore::open(db)?;
        let index_dir = dir.join("text.idx.d");
        // The stamp keeps the name it had before the index was segmented.
        let stamp_path = dir.join("text.idx.gen");
        // Load the persisted index only if its generation stamp matches the
        // store's: every committed ingest batch and removal bumps the META
        // generation, so equality proves the saved index reflects exactly
        // this store state. Anything else — a missing or corrupt index, a
        // segment file in an unknown format, a stamp mismatch (e.g. a crash
        // after commit but before flush) — rebuilds from the store.
        let stamped_gen: Option<i64> = std::fs::read_to_string(&stamp_path)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        let persisted = if stamped_gen == Some(store.generation()) {
            SegmentedIndex::load_with(&index_dir, options.index_compaction.clone())
        } else {
            None
        };
        let index = match persisted {
            Some(ix) => ix,
            None => {
                let ix = SegmentedIndex::with_policy(options.index_compaction.clone());
                for e in store.all_text_entries()? {
                    ix.add(e.node, e.placement, &e.text);
                }
                ix.commit();
                ix
            }
        };
        let store = Arc::new(store);
        let index = Arc::new(index);
        let compactor = options
            .background_compaction
            .then(|| index.start_compactor());
        let engine = QueryEngine::new(Arc::clone(&store), Arc::clone(&index), options.query);
        Ok(NetMark {
            store,
            index,
            engine,
            stylesheets: RwLock::new(HashMap::new()),
            index_dir,
            stamp_path,
            _compactor: compactor,
            metrics: IngestMetrics::default(),
            ingest_lock: Mutex::new(()),
        })
    }

    /// The segmented text index (exposed for benches and stats probes).
    pub fn text_index(&self) -> &Arc<SegmentedIndex> {
        &self.index
    }

    /// The underlying node store (exposed for benches and ablations).
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Cumulative ingest instrumentation for this instance.
    pub fn metrics(&self) -> &IngestMetrics {
        &self.metrics
    }

    /// WAL commit/fsync counters (group-commit instrumentation).
    pub fn wal_stats(&self) -> WalStats {
        self.store.database().wal_stats()
    }

    /// Ingests an already-upmarked document: a batch of one.
    pub fn insert_document(&self, doc: &Document) -> Result<IngestReport> {
        XdbBackend::insert_document(self, doc)
    }

    /// Ingests a batch of upmarked documents in one store transaction —
    /// one WAL commit (and at most one fsync) covers the whole batch, and
    /// the text index seals the whole batch into a single run segment.
    /// Query results are identical to ingesting the documents one at a
    /// time, in order.
    pub fn ingest_batch(&self, docs: &[Document]) -> Result<Vec<IngestReport>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let _ingest = self.ingest_lock.lock();
        let t0 = Instant::now();
        let reports = self.store.ingest_batch(docs)?;
        let nodes: u64 = reports.iter().map(|r| r.node_count as u64).sum();
        self.metrics
            .record_store(reports.len() as u64, nodes, t0.elapsed());
        let t1 = Instant::now();
        for report in &reports {
            for e in &report.index_entries {
                self.index.add(e.node, e.placement, &e.text);
            }
        }
        self.index.commit();
        self.engine.invalidate();
        self.metrics.record_index(t1.elapsed());
        Ok(reports)
    }

    /// Ingests a raw file: format detection + upmarking + storage — the
    /// paper's drop-a-file-in-the-folder pathway.
    pub fn insert_file(&self, name: &str, content: &str) -> Result<IngestReport> {
        XdbBackend::insert_file(self, name, content)
    }

    /// Deletes a document by id.
    pub fn remove_document(&self, doc_id: DocId) -> Result<()> {
        let _ingest = self.ingest_lock.lock();
        let node_ids = self.store.remove_document(doc_id)?;
        for id in node_ids {
            self.index.remove(id);
        }
        self.index.commit();
        self.engine.invalidate();
        Ok(())
    }

    /// Stored document list (committed state, read through one view).
    pub fn list_documents(&self) -> Result<Vec<DocInfo>> {
        self.store.begin_read()?.list_docs()
    }

    /// Document metadata by name (committed state).
    pub fn document_by_name(&self, name: &str) -> Result<Option<DocInfo>> {
        self.store.begin_read()?.doc_by_name(name)
    }

    /// Reconstructs a full stored document (committed state).
    pub fn reconstruct_document(&self, doc_id: DocId) -> Result<Document> {
        self.store.begin_read()?.reconstruct_document(doc_id)
    }

    /// Runs a parsed XDB query through the engine (cached, parallel).
    pub fn query(&self, q: &XdbQuery) -> Result<ResultSet> {
        self.engine.execute(q)
    }

    /// True when at least one context row carries exactly this label.
    /// This is the coordinator-side probe behind sharded context queries:
    /// the exact→phrase fallback in `Context=` execution is a global
    /// decision, so a sharded store asks every shard this question first
    /// and pins the outcome into `XdbQuery::exact_contexts`.
    pub fn has_exact_context(&self, label: &str) -> Result<bool> {
        Ok(!self.store.begin_read()?.contexts_labeled(label)?.is_empty())
    }

    /// Runs a parsed XDB query and returns the per-stage trace.
    pub fn query_traced(&self, q: &XdbQuery) -> Result<(ResultSet, QueryTrace)> {
        self.engine.execute_traced(q)
    }

    /// The long-lived query engine (exposed for benches, stats, and
    /// uncached baseline execution).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Cumulative read-path counters for this instance.
    pub fn query_stats(&self) -> QueryStats {
        self.engine.stats()
    }

    /// Runs a parsed XDB query and composes the result when the query
    /// names an `xslt=` stylesheet. One code path for every server: the
    /// WebDAV handler and the federation local fall-through both land
    /// here.
    pub fn run(&self, q: &XdbQuery) -> Result<QueryOutput> {
        self.output(self.query(q)?, q)
    }

    /// Wraps `results` as the output `q` asks for: composed with the named
    /// stylesheet when `q` carries `xslt=`, raw otherwise. The sharded
    /// store calls this on its merged set.
    pub fn output(&self, results: ResultSet, q: &XdbQuery) -> Result<QueryOutput> {
        match &q.xslt {
            None => Ok(QueryOutput::Results(results)),
            Some(name) => Ok(QueryOutput::Composed(self.compose(&results, name)?)),
        }
    }

    /// Runs an XDB URL — "simple HTTP requests … an extremely simple yet
    /// powerful mechanism" (paper §2.1.2). When the URL names `xslt=`, the
    /// registered stylesheet composes the result.
    pub fn query_url(&self, url: &str) -> Result<QueryOutput> {
        let q = XdbQuery::from_url(url)?;
        self.run(&q)
    }

    /// Evaluates an XPath-lite expression over one stored document — the
    /// paper's "or even full-fledged XML querying, over any information
    /// repository" capability. Returns the matched subtrees (cloned).
    pub fn select_xpath(&self, doc_name: &str, path: &str) -> Result<Vec<Node>> {
        let doc = XdbBackend::reconstruct_named(self, doc_name)?
            .ok_or_else(|| NetmarkError::NoSuchDocument(doc_name.to_string()))?;
        let value = netmark_xslt::select(path, &doc.root)
            .map_err(|e| NetmarkError::Xslt(netmark_xslt::XsltError::BadExpr(e)))?;
        Ok(match value {
            netmark_xslt::XPathValue::Nodes(ns) => ns.into_iter().cloned().collect(),
            netmark_xslt::XPathValue::Strings(ss) => {
                ss.into_iter().map(|s| Node::text(&s)).collect()
            }
        })
    }

    /// Registers (or replaces) a named stylesheet.
    pub fn register_stylesheet(&self, name: &str, source: &str) -> Result<()> {
        let ss = Stylesheet::parse(source)?;
        self.stylesheets.write().insert(name.to_string(), ss);
        Ok(())
    }

    /// Names of registered stylesheets.
    pub fn stylesheet_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.stylesheets.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Composes `results` with the named stylesheet (Fig 7's search → XSLT
    /// transformation pipeline).
    pub fn compose(&self, results: &ResultSet, stylesheet: &str) -> Result<Node> {
        let guard = self.stylesheets.read();
        let ss = guard
            .get(stylesheet)
            .ok_or_else(|| NetmarkError::NoSuchStylesheet(stylesheet.to_string()))?;
        Ok(ss.apply(&results.to_node())?)
    }

    /// Persists the text index (with its generation stamp) and checkpoints
    /// the store. The save is incremental: only segments sealed since the
    /// last flush are written; segments already on disk are untouched.
    pub fn flush(&self) -> Result<()> {
        // Excluding in-flight ingests guarantees the stamped generation
        // matches the saved index contents exactly.
        let _ingest = self.ingest_lock.lock();
        self.index
            .save(&self.index_dir)
            .map_err(netmark_relstore::StoreError::Io)?;
        std::fs::write(&self.stamp_path, self.store.generation().to_string())
            .map_err(netmark_relstore::StoreError::Io)?;
        self.store.database().checkpoint()?;
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> Result<NetMarkStats> {
        let ix = self.index.stats();
        let view = self.store.begin_read()?;
        Ok(NetMarkStats {
            documents: view.list_docs()?.len(),
            nodes: view.node_count()?,
            ingest: self.metrics.snapshot(),
            wal: self.wal_stats(),
            query: self.engine.stats(),
            index: ix,
            mvcc: self.store.database().mvcc_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (NetMark, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-nm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        (nm, dir)
    }

    fn load_samples(nm: &NetMark) {
        nm.insert_file(
            "plan-a.wdoc",
            "<<Title>> Plan A\n<<Heading1>> Budget\n<<Normal>> two million dollars\n<<Heading1>> Technology Gap\n<<Normal>> the gap is shrinking\n",
        )
        .unwrap();
        nm.insert_file(
            "plan-b.txt",
            "# Budget\none million dollars\n# Technology Gap\nthe gap is growing\n",
        )
        .unwrap();
        nm.insert_file(
            "ll-0424.html",
            "<html><body><h1>Summary</h1><p>The shuttle engine faulted.</p></body></html>",
        )
        .unwrap();
    }

    #[test]
    fn context_search_returns_sections_across_documents() {
        let (nm, dir) = setup("ctx");
        load_samples(&nm);
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 2);
        let texts: Vec<String> = rs.hits.iter().map(|h| h.content_text()).collect();
        assert!(texts.iter().any(|t| t.contains("two million")));
        assert!(texts.iter().any(|t| t.contains("one million")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_search_paper_example() {
        let (nm, dir) = setup("content");
        load_samples(&nm);
        // Content=Shuttle returns documents containing 'Shuttle' anywhere.
        let rs = nm.query(&XdbQuery::content("Shuttle")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].doc, "ll-0424.html");
        assert_eq!(rs.hits[0].context, "Summary");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn combined_context_content_paper_example() {
        let (nm, dir) = setup("combined");
        load_samples(&nm);
        // Context=Technology Gap & Content=Shrinking: only plan-a matches.
        let rs = nm
            .query(&XdbQuery::context_content("Technology Gap", "Shrinking"))
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].doc, "plan-a.wdoc");
        assert!(rs.hits[0].content_text().contains("shrinking"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn url_query_with_xslt_composition() {
        let (nm, dir) = setup("url");
        load_samples(&nm);
        nm.register_stylesheet(
            "report",
            r#"<xsl:stylesheet>
                 <xsl:template match="/">
                   <report>
                     <xsl:for-each select="hit">
                       <section doc="{@doc}"><xsl:value-of select="Content"/></section>
                     </xsl:for-each>
                   </report>
                 </xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let out = nm
            .query_url("Context=Budget&xslt=report")
            .unwrap()
            .composed()
            .unwrap();
        assert_eq!(out.name, "report");
        assert_eq!(out.find_all("section").len(), 2);
        // Raw results when no stylesheet is named.
        let raw = nm.query_url("Context=Budget").unwrap().results().unwrap();
        assert_eq!(raw.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_stylesheet_errors() {
        let (nm, dir) = setup("noss");
        load_samples(&nm);
        assert!(matches!(
            nm.query_url("Context=Budget&xslt=missing"),
            Err(NetmarkError::NoSuchStylesheet(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_document_hides_hits() {
        let (nm, dir) = setup("rm");
        load_samples(&nm);
        let info = nm.document_by_name("plan-a.wdoc").unwrap().unwrap();
        nm.remove_document(info.doc_id).unwrap();
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(nm.query(&XdbQuery::content("shrinking")).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_and_reopen_with_persisted_index() {
        let dir = std::env::temp_dir().join(format!("netmark-nm-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let nm = NetMark::open(&dir).unwrap();
            load_samples(&nm);
            nm.flush().unwrap();
        }
        let nm = NetMark::open(&dir).unwrap();
        let rs = nm.query(&XdbQuery::content("shuttle")).unwrap();
        assert_eq!(rs.len(), 1);
        // Segmented index directory exists on disk (manifest + segments).
        assert!(dir.join("text.idx.d").join("MANIFEST").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_without_index_file_rebuilds() {
        let dir = std::env::temp_dir().join(format!("netmark-nm-rebuild-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let nm = NetMark::open(&dir).unwrap();
            load_samples(&nm);
            nm.flush().unwrap();
        }
        std::fs::remove_dir_all(dir.join("text.idx.d")).unwrap();
        let nm = NetMark::open(&dir).unwrap();
        assert_eq!(nm.query(&XdbQuery::content("shuttle")).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites the magic of the first segment file (or of every one) in
    /// a flushed store, reopens it and checks that the index was rebuilt
    /// from the store and answers byte-identically.
    fn assert_segment_magic_rebuilds(tag: &str, magic: &[u8; 8], every_segment: bool) {
        let dir = std::env::temp_dir().join(format!("netmark-nm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let queries = [
            XdbQuery::content("shuttle"),
            XdbQuery::context("Budget"),
            XdbQuery::content("gap").with_rank(netmark_xdb::RankMode::Bm25),
            XdbQuery::content("gap").with_limit(1),
        ];
        let segment_files = |dir: &Path| -> Vec<PathBuf> {
            std::fs::read_dir(dir.join("text.idx.d"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "seg"))
                .collect()
        };
        let before: Vec<String> = {
            let nm = NetMark::open(&dir).unwrap();
            load_samples(&nm);
            nm.flush().unwrap();
            queries
                .iter()
                .map(|q| nm.query(q).unwrap().to_xml())
                .collect()
        };
        // The stamp still matches, so only the decoder can object.
        let files = segment_files(&dir);
        let victims = if every_segment {
            &files[..]
        } else {
            &files[..1]
        };
        for victim in victims {
            let mut bytes = std::fs::read(victim).unwrap();
            bytes[..8].copy_from_slice(magic);
            std::fs::write(victim, bytes).unwrap();
        }
        let nm = NetMark::open(&dir).unwrap();
        assert!(nm.text_index().stats().seals > 0, "the index was rebuilt");
        let after: Vec<String> = queries
            .iter()
            .map(|q| nm.query(q).unwrap().to_xml())
            .collect();
        assert_eq!(after, before, "the rebuilt index answers byte-identically");
        // The next flush leaves only the one segment format on disk.
        nm.flush().unwrap();
        let files = segment_files(&dir);
        assert!(!files.is_empty());
        for f in files {
            assert_eq!(&std::fs::read(&f).unwrap()[..8], b"NMTXSEG4", "{f:?}");
        }
        drop(nm);
        let reopened = NetMark::open(&dir).unwrap();
        assert_eq!(
            reopened.text_index().stats().seals,
            0,
            "the flushed index loads without a rebuild"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_segment_format_rebuilds_from_store() {
        assert_segment_magic_rebuilds("segfmt", b"NMTXSEG9", false);
    }

    #[test]
    fn retired_seg2_directory_rebuilds_from_store() {
        // A directory written before segments carried placements.
        assert_segment_magic_rebuilds("seg2", b"NMTXSEG2", true);
    }

    #[test]
    fn flush_is_incremental_per_segment() {
        let dir = std::env::temp_dir().join(format!("netmark-nm-incr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Background compaction off so segment counts are deterministic.
        let opts = NetMarkOptions {
            background_compaction: false,
            ..NetMarkOptions::default()
        };
        let nm = NetMark::open_with(&dir, opts).unwrap();
        load_samples(&nm);
        nm.flush().unwrap();
        let s1 = nm.stats().unwrap().index;
        assert_eq!(s1.segments_written, 3, "one run per ingest flushed");
        // A flush with nothing new sealed writes no segment files.
        nm.flush().unwrap();
        let s2 = nm.stats().unwrap().index;
        assert_eq!(s2.segments_written, s1.segments_written);
        // One more ingest → exactly one additional run is flushed.
        nm.insert_file("late.txt", "# Apollo\nsaturn rocket notes\n")
            .unwrap();
        nm.flush().unwrap();
        let s3 = nm.stats().unwrap().index;
        assert_eq!(
            s3.segments_written,
            s2.segments_written + 1,
            "flush cost tracks newly sealed segments"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_persisted_index_is_rebuilt_on_open() {
        let dir = std::env::temp_dir().join(format!("netmark-nm-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let nm = NetMark::open(&dir).unwrap();
            load_samples(&nm);
            nm.flush().unwrap();
        }
        {
            // Mutate the store without flushing: the saved index file is
            // now stale (its stamp names an older generation).
            let nm = NetMark::open(&dir).unwrap();
            nm.insert_file("late.txt", "# Apollo\nsaturn rocket notes\n")
                .unwrap();
            let info = nm.document_by_name("ll-0424.html").unwrap().unwrap();
            nm.remove_document(info.doc_id).unwrap();
        }
        let nm = NetMark::open(&dir).unwrap();
        assert_eq!(
            nm.query(&XdbQuery::content("saturn")).unwrap().len(),
            1,
            "content ingested after the flush is searchable"
        );
        assert_eq!(
            nm.query(&XdbQuery::content("shuttle")).unwrap().len(),
            0,
            "content removed after the flush is gone"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_ingest_via_facade_and_stats() {
        let (nm, dir) = setup("batchfacade");
        let docs = vec![
            netmark_docformats::upmark("a.txt", "# Budget\ntwo million\n"),
            netmark_docformats::upmark("b.txt", "# Schedule\nthree years\n"),
        ];
        let wal0 = nm.wal_stats();
        let reports = nm.ingest_batch(&docs).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(nm.query(&XdbQuery::context("Budget")).unwrap().len(), 1);
        assert_eq!(nm.query(&XdbQuery::context("Schedule")).unwrap().len(), 1);
        let st = nm.stats().unwrap();
        assert_eq!(st.ingest.documents, 2);
        assert_eq!(st.ingest.batches, 1, "one transaction for the batch");
        assert!(st.ingest.nodes > 0);
        assert!(st.ingest.store_time > std::time::Duration::ZERO);
        assert_eq!(
            st.wal.commits - wal0.commits,
            1,
            "one WAL commit for the batch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doc_filter_and_limit() {
        let (nm, dir) = setup("filter");
        load_samples(&nm);
        let mut q = XdbQuery::context("Budget");
        q.doc = Some("plan-b.txt".to_string());
        let rs = nm.query(&q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].doc, "plan-b.txt");

        let q = XdbQuery::context("Budget").with_limit(1);
        let rs = nm.query(&q).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unconstrained_query_lists_all_sections() {
        let (nm, dir) = setup("all");
        load_samples(&nm);
        let rs = nm.query(&XdbQuery::default()).unwrap();
        assert!(
            rs.len() >= 5,
            "every section of every doc, got {}",
            rs.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_reflect_content() {
        let (nm, dir) = setup("stats");
        load_samples(&nm);
        let st = nm.stats().unwrap();
        assert_eq!(st.documents, 3);
        assert!(st.nodes > 20);
        assert!(st.index.terms > 10);
        assert!(st.index.bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_never_see_an_open_transaction() {
        use crate::schema::{DOC_TABLE, NONE_ROWID, XML_TABLE};
        use netmark_model::NodeType;
        use netmark_relstore::Value;

        let (nm, dir) = setup("dirty");
        load_samples(&nm);
        // What a reader on another thread observes, in one tuple.
        let observe = |nm: &NetMark| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    (
                        nm.list_documents().unwrap(),
                        nm.document_by_name("ghost.txt").unwrap(),
                        XdbBackend::reconstruct_named(nm, "ghost.txt").unwrap(),
                        XdbBackend::reconstruct_named(nm, "plan-b.txt").unwrap(),
                        nm.has_exact_context("Ghost Heading").unwrap(),
                        nm.has_exact_context("Budget").unwrap(),
                    )
                })
                .join()
                .expect("reader panicked")
            })
        };
        let before = observe(&nm);
        assert_eq!(before.0.len(), 3);
        assert!(before.1.is_none() && before.2.is_none() && !before.4);
        assert!(before.3.is_some() && before.5);

        let db = nm.store().database();
        let (doc_t, xml_t) = (db.table(DOC_TABLE).unwrap(), db.table(XML_TABLE).unwrap());
        let mut tx = db.begin();
        let root_id = 1_000_000i64;
        tx.insert_unchecked_deferred(
            &doc_t,
            &vec![
                Value::Int(999),
                Value::from("ghost.txt"),
                Value::Int(0),
                Value::Int(12),
                Value::from("text"),
                Value::Int(root_id),
            ],
        )
        .unwrap();
        // A root and a context child whose pointer fix-ups stay pending.
        for (id, ntype, label, parent) in [
            (root_id, NodeType::Element, "", -1),
            (root_id + 1, NodeType::Context, "Ghost Heading", root_id),
        ] {
            let none = Value::Rowid(NONE_ROWID);
            let row = vec![
                Value::Int(id),
                Value::Int(999),
                Value::Int(ntype.id()),
                Value::from("n"),
                Value::from(label),
                Value::Text(label.to_lowercase()),
                none.clone(),
                Value::Int(parent),
                none.clone(),
                none,
                Value::from(""),
            ];
            tx.insert_unchecked_deferred(&xml_t, &row).unwrap();
        }
        assert_eq!(observe(&nm), before, "an open transaction is invisible");
        tx.abort().unwrap();
        assert_eq!(observe(&nm), before, "the abort changed nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn phrase_match_mode() {
        let (nm, dir) = setup("phrase");
        load_samples(&nm);
        let rs = nm
            .query(&XdbQuery::content("gap is shrinking").with_phrase_match())
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].doc, "plan-a.wdoc");
        // Keywords mode matches both plans ("gap is" + either verb).
        let rs = nm.query(&XdbQuery::content("the gap is")).unwrap();
        assert_eq!(rs.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod xpath_tests {
    use super::*;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (NetMark, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-xp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (NetMark::open(&dir).unwrap(), dir)
    }

    #[test]
    fn xpath_over_stored_document() {
        let (nm, dir) = setup("sel");
        nm.insert_file(
            "sheet.csv",
            "Task,Center,Amount\nT-1,ames,100\nT-2,johnson,200\n",
        )
        .unwrap();
        // Structured query over a spreadsheet, no schema declared anywhere.
        let rows = nm.select_xpath("sheet.csv", "//row").unwrap();
        assert_eq!(rows.len(), 2);
        let amounts = nm
            .select_xpath("sheet.csv", "//row[Center='johnson']/Amount")
            .unwrap();
        assert_eq!(amounts.len(), 1);
        assert_eq!(amounts[0].text_content(), "200");
        // Attribute steps return text nodes.
        let names = nm.select_xpath("sheet.csv", "//table/@sheet").unwrap();
        assert_eq!(names[0].text_content(), "sheet");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn xpath_errors() {
        let (nm, dir) = setup("err");
        nm.insert_file("a.txt", "# S\nx\n").unwrap();
        assert!(matches!(
            nm.select_xpath("missing.txt", "//p"),
            Err(NetmarkError::NoSuchDocument(_))
        ));
        assert!(nm.select_xpath("a.txt", "a[").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod union_context_tests {
    use super::*;

    #[test]
    fn union_context_labels() {
        let dir = std::env::temp_dir().join(format!("netmark-union-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        // The §4 example: one source says "Budget", another "Cost Details".
        nm.insert_file("a.txt", "# Budget\ntwo million\n").unwrap();
        nm.insert_file("b.txt", "# Cost Details\nitemized spend\n")
            .unwrap();
        let rs = nm.query(&XdbQuery::context("Budget|Cost Details")).unwrap();
        assert_eq!(rs.len(), 2);
        let labels: Vec<&str> = rs.hits.iter().map(|h| h.context.as_str()).collect();
        assert!(labels.contains(&"Budget"));
        assert!(labels.contains(&"Cost Details"));
        // Union composes with content filtering.
        let rs = nm
            .query(&XdbQuery::context_content(
                "Budget|Cost Details",
                "itemized",
            ))
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].context, "Cost Details");
        // Stray separators are harmless.
        let rs = nm.query(&XdbQuery::context("|Budget|")).unwrap();
        assert_eq!(rs.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod fallback_tests {
    use super::*;

    #[test]
    fn context_label_phrase_fallback() {
        // No heading is exactly "Budget", but one contains the phrase; the
        // searcher falls back to a phrase match over indexed labels.
        let dir = std::env::temp_dir().join(format!("netmark-fb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        nm.insert_file("a.txt", "# Budget Overview FY05\nthe money\n")
            .unwrap();
        nm.insert_file("b.txt", "# Schedule\nthe dates\n").unwrap();
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].context, "Budget Overview FY05");
        // Exact matches still win over the fallback when both exist.
        nm.insert_file("c.txt", "# Budget\nexact money\n").unwrap();
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1, "exact label match suppresses the fallback");
        assert_eq!(rs.hits[0].doc, "c.txt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hits_in_headings_count() {
        // Content=X matches terms appearing only in a heading, because
        // context labels are indexed too.
        let dir = std::env::temp_dir().join(format!("netmark-fb2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        nm.insert_file("a.txt", "# Shuttle Readiness\nall systems go\n")
            .unwrap();
        let rs = nm.query(&XdbQuery::content("shuttle")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].context, "Shuttle Readiness");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
