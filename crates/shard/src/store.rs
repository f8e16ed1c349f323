//! [`ShardedStore`]: N independent NETMARK shards behind one `XdbBackend`.
//!
//! The paper's federation chapter observes that NETMARK "scales out" by
//! putting a thin router in front of ordinary instances. This module
//! applies the same move *inside one box*: documents are partitioned by
//! name hash across N full NETMARK instances (each with its own WAL,
//! MVCC store, and segmented text index — default one per core), and the
//! coordinator is a thin scatter-gather layer with no storage of its own
//! beyond the shard map and the global ingest-order log.
//!
//! Contract: query results are **byte-identical** to a single-shard store
//! that ingested the same history. Three mechanisms carry that:
//!
//! 1. *Placement*: same name ⇒ same shard ([`crate::partition`]), so one
//!    document's hits arrive from one shard in node order.
//! 2. *Order*: merged hits are stable-sorted by the coordinator's global
//!    ingest sequence ([`crate::seqlog`]), reproducing the single-store
//!    `(doc_id, node_id)` order.
//! 3. *Fallback pinning*: the exact→phrase fallback for `Context=` labels
//!    is a global decision, so the coordinator probes every shard first
//!    and pins the outcome into `XdbQuery::exact_contexts` — a shard whose
//!    local slice lacks an exact label must not invent phrase matches the
//!    single store would never produce.
//!
//! `candidates` sums across shards, which matches the single store
//! because a term's postings partition cleanly by document.
//!
//! Batch atomicity narrows from "whole batch" to "per-shard slice of the
//! batch": each shard commits its slice in one WAL commit. A crash can
//! land some shards' slices and not others — the same exposure a
//! federated deployment already has.

use crate::manifest::ShardManifest;
use crate::partition::shard_of;
use crate::seqlog::{SeqLog, FILE_NAME as SEQ_FILE};
use netmark::IndexStats;
use netmark::{
    merge_hits, scatter, IngestMetrics, NetMark, NetMarkOptions, NetmarkError, QueryOutput,
    QueryStats, Result, XdbBackend,
};
use netmark_model::{Document, Node};
use netmark_relstore::{MvccStats, StoreError, WalStats};
use netmark_xdb::{ResultSet, XdbQuery};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shard count used when none is requested: one shard per core, capped at
/// 8 (beyond that, coordination overhead outruns the parallel speedup for
/// the workloads in the paper's range).
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(8)
}

/// Tuning knobs for [`ShardedStore::open_with`].
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// Number of shards. `0` means [`default_shard_count`] for a fresh
    /// store; for an existing store the persisted manifest always wins,
    /// and a non-zero request that disagrees with it is an error.
    pub shards: usize,
    /// Options applied to every member shard.
    pub netmark: NetMarkOptions,
}

netmark_model::stats! {
    /// Per-shard observability counters kept by the coordinator, served
    /// as one `<shard/>` per shard under `<shards/>`.
    pub struct ShardStats => "shard" {
        /// Live documents on the shard.
        docs: u64 = level("docs"),
        /// Compressed text-index bytes on the shard.
        size: u64 = level("size"),
        /// Index tombstones pending compaction purge.
        pending: u64 = level("pending"),
        /// Queries the coordinator routed to this shard.
        queries: u64 = sum("queries"),
    }
}

/// N NETMARK shards behind one store facade. See the module docs.
pub struct ShardedStore {
    dir: PathBuf,
    shards: Vec<Arc<NetMark>>,
    seq: SeqLog,
    metrics: IngestMetrics,
    shard_queries: Vec<AtomicU64>,
    /// Serializes ingest and removal so global sequence numbers are
    /// assigned in commit order (queries never take this).
    ingest_lock: Mutex<()>,
}

fn io_err(e: std::io::Error) -> NetmarkError {
    NetmarkError::Store(StoreError::Io(e))
}

/// Subdirectory name of shard `i`.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

impl ShardedStore {
    /// Opens (or creates) a sharded store in `dir` with default options
    /// (shard count from the manifest, or one per core for a fresh store).
    pub fn open(dir: &Path) -> Result<ShardedStore> {
        ShardedStore::open_with(dir, ShardOptions::default())
    }

    /// Opens with explicit options. The persisted manifest governs the
    /// shard count of an existing store; a conflicting non-zero request
    /// is refused (reshard offline with [`crate::rebalance()`]).
    pub fn open_with(dir: &Path, opts: ShardOptions) -> Result<ShardedStore> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let manifest = ShardManifest::load(dir).map_err(io_err)?;
        let n = match (&manifest, opts.shards) {
            (Some(m), 0) => m.shards,
            (Some(m), req) if req == m.shards => m.shards,
            (Some(m), req) => {
                return Err(NetmarkError::Corrupt(format!(
                    "store has {} shards; reopening with {req} requires an offline rebalance",
                    m.shards
                )))
            }
            (None, 0) => default_shard_count(),
            (None, req) => req,
        };
        if manifest.is_none() {
            ShardManifest::new(n).save(dir).map_err(io_err)?;
        }
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let nm = NetMark::open_with(&dir.join(shard_dir_name(i)), opts.netmark.clone())?;
            shards.push(Arc::new(nm));
        }
        let seq = SeqLog::open(&dir.join(SEQ_FILE)).map_err(io_err)?;
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            shards,
            seq,
            metrics: IngestMetrics::default(),
            shard_queries: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ingest_lock: Mutex::new(()),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The member shards (exposed for benches and the rebalance tool).
    pub fn shards(&self) -> &[Arc<NetMark>] {
        &self.shards
    }

    /// Store root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The global ingest-order log (exposed for the rebalance tool).
    pub fn seq_log(&self) -> &SeqLog {
        &self.seq
    }

    /// The shard owning `name`.
    pub fn owner(&self, name: &str) -> usize {
        shard_of(name, self.shards.len())
    }

    fn shard_for(&self, name: &str) -> &Arc<NetMark> {
        &self.shards[self.owner(name)]
    }

    /// Point-in-time per-shard counters (the `<shards/>` stats element).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, nm)| {
                let ix = nm.text_index().stats();
                ShardStats {
                    docs: nm.list_documents().map(|d| d.len() as u64).unwrap_or(0),
                    size: ix.bytes,
                    pending: ix.tombstones,
                    queries: self.shard_queries[i].load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Pins the global exact→phrase fallback decision for every `Context=`
    /// label into the query (see the module docs, point 3).
    fn pin_exact_contexts(&self, q: &mut XdbQuery) -> Result<()> {
        let Some(spec) = &q.context else {
            return Ok(());
        };
        let labels: Vec<String> = spec
            .split('|')
            .map(str::trim)
            .filter(|l| !l.is_empty() && !q.exact_contexts.iter().any(|e| e == l))
            .map(str::to_string)
            .collect();
        if labels.is_empty() {
            return Ok(());
        }
        // One label posting probe per shard and label: microseconds each,
        // less than a thread spawn, so the probes run on the caller.
        let mut exact = vec![false; labels.len()];
        for nm in &self.shards {
            for (i, label) in labels.iter().enumerate() {
                exact[i] |= nm.has_exact_context(label)?;
            }
        }
        for (label, is_exact) in labels.into_iter().zip(exact) {
            if is_exact {
                q.exact_contexts.push(label);
            }
        }
        Ok(())
    }

    /// Runs a parsed XDB query across the shards and merges the answers.
    /// Results are byte-identical to a single-shard store with the same
    /// ingest history (see the module docs).
    pub fn query(&self, q: &XdbQuery) -> Result<ResultSet> {
        let mut q = q.clone();
        self.pin_exact_contexts(&mut q)?;
        // Doc-routed fast path: a `doc=` filter without `Content=` needs
        // only the owner shard — `candidates` is 0 on those paths either
        // way, and the owner holds every hit of the named document. A
        // content query still fans out, because its candidate count sums
        // index postings across ALL documents, filtered or not.
        if let Some(doc) = &q.doc {
            if q.content.is_none() {
                let s = self.owner(doc);
                self.shard_queries[s].fetch_add(1, Ordering::Relaxed);
                return self.shards[s].query(&q);
            }
        }
        // One round: every shard answers with the user's `limit` and
        // `min_score` pushed down, and the merge is exact (see its docs).
        let per_shard: Vec<Result<ResultSet>> =
            scatter(&self.shards, self.shards.len(), |i, nm| {
                self.shard_queries[i].fetch_add(1, Ordering::Relaxed);
                nm.query(&q)
            });
        let mut sets = Vec::with_capacity(per_shard.len());
        for r in per_shard {
            sets.push(r?);
        }
        Ok(self.merge(sets, q.limit))
    }

    /// Order-preserving merge: concatenate per-shard hits (each already in
    /// shard-local store order), stable-sort by global ingest sequence,
    /// re-apply the limit. The per-shard limit pushdown stays correct
    /// because a shard's local order IS the global order restricted to its
    /// documents — its first L hits are its globally-first L hits.
    ///
    /// Ranked sets instead sort by score descending with the global ingest
    /// sequence as the tie-break. Both orders come from
    /// [`netmark::merge_hits`], the step the federation router's merge
    /// runs too. Pushdown stays valid for ranked sets as well:
    /// every member of the global top-k is in its own shard's top-k, so the
    /// union of per-shard top-ks contains the global top-k.
    fn merge(&self, sets: Vec<ResultSet>, limit: Option<usize>) -> ResultSet {
        let ranked = sets.iter().any(|rs| rs.ranked);
        let mut candidates = 0usize;
        let mut truncated = false;
        let mut keyed: Vec<(u64, netmark_xdb::Hit)> = Vec::new();
        self.seq.with_map(|map| {
            for rs in sets {
                candidates += rs.candidates;
                truncated |= rs.truncated;
                for h in rs.hits {
                    // A name missing from the log (removed mid-query)
                    // sorts last rather than failing the merge.
                    let key = map.get(&h.doc).copied().unwrap_or(u64::MAX);
                    keyed.push((key, h));
                }
            }
        });
        let (hits, cut) = merge_hits(keyed, ranked, limit);
        ResultSet {
            hits,
            candidates,
            truncated: truncated || cut,
            ranked,
        }
    }

    /// Persists every shard's index, checkpoints every shard's store, and
    /// compacts the sequence log.
    pub fn flush(&self) -> Result<()> {
        let flushed: Vec<Result<()>> = scatter(&self.shards, self.shards.len(), |_, nm| nm.flush());
        for r in flushed {
            r?;
        }
        self.seq.compact().map_err(io_err)
    }
}

impl XdbBackend for ShardedStore {
    /// Stylesheets live in shard 0's registry; composition runs over the
    /// merged set, so it matches the single store's.
    fn run(&self, q: &XdbQuery) -> Result<QueryOutput> {
        self.shards[0].output(self.query(q)?, q)
    }

    /// Splits `docs` by owning shard and ingests every slice in parallel,
    /// one WAL commit per shard. Reports come back in input order. A slice
    /// that fails takes its names out of `seq.log` again, except those its
    /// shard still holds, before the error returns.
    fn ingest_batch(&self, docs: &[Document]) -> Result<Vec<netmark::IngestReport>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let _g = self.ingest_lock.lock();
        let t0 = Instant::now();
        // Sequence numbers are assigned in input order, before the
        // parallel scatter, so the global order is the caller's order.
        for d in docs {
            self.seq.assign(&d.name).map_err(io_err)?;
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, d) in docs.iter().enumerate() {
            buckets[self.owner(&d.name)].push(i);
        }
        let work: Vec<(usize, Vec<usize>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect();
        let per_shard: Vec<Result<Vec<netmark::IngestReport>>> =
            scatter(&work, work.len(), |_, (shard, idxs)| {
                let slice: Vec<Document> = idxs.iter().map(|&i| docs[i].clone()).collect();
                self.shards[*shard].ingest_batch(&slice)
            });
        let mut placed: Vec<(usize, netmark::IngestReport)> = Vec::with_capacity(docs.len());
        let mut failed = None;
        for (r, (shard, idxs)) in per_shard.into_iter().zip(&work) {
            match r {
                Ok(reports) => placed.extend(idxs.iter().copied().zip(reports)),
                Err(e) => {
                    // A name its owner shard does not hold leaves the log,
                    // as a removed name does.
                    for &i in idxs {
                        let name = &docs[i].name;
                        if self.shards[*shard].document_by_name(name)?.is_none() {
                            self.seq.remove(name).map_err(io_err)?;
                        }
                    }
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        placed.sort_unstable_by_key(|(i, _)| *i);
        let nodes = placed.iter().map(|(_, r)| r.node_count as u64).sum();
        self.metrics
            .record_store(docs.len() as u64, nodes, t0.elapsed());
        Ok(placed.into_iter().map(|(_, r)| r).collect())
    }

    /// Stored documents across all shards, in global ingest order.
    fn list_documents(&self) -> Result<Vec<netmark::DocInfo>> {
        let mut keyed: Vec<(u64, netmark::DocInfo)> = Vec::new();
        self.seq.with_map(|map| -> Result<()> {
            for nm in &self.shards {
                for info in nm.list_documents()? {
                    let key = map.get(&info.file_name).copied().unwrap_or(u64::MAX);
                    keyed.push((key, info));
                }
            }
            Ok(())
        })?;
        keyed.sort_by_key(|(s, _)| *s);
        Ok(keyed.into_iter().map(|(_, i)| i).collect())
    }

    fn document_by_name(&self, name: &str) -> Result<Option<netmark::DocInfo>> {
        self.shard_for(name).document_by_name(name)
    }

    fn reconstruct_named(&self, name: &str) -> Result<Option<Document>> {
        XdbBackend::reconstruct_named(&**self.shard_for(name), name)
    }

    /// Removes a document by name from its owner shard. Returns `false`
    /// when no such document exists.
    fn remove_named(&self, name: &str) -> Result<bool> {
        let _g = self.ingest_lock.lock();
        let removed = XdbBackend::remove_named(&**self.shard_for(name), name)?;
        if removed {
            self.seq.remove(name).map_err(io_err)?;
        }
        Ok(removed)
    }

    fn register_stylesheet(&self, name: &str, source: &str) -> Result<()> {
        self.shards[0].register_stylesheet(name, source)
    }

    fn query_stats(&self) -> QueryStats {
        let mut acc = QueryStats::default();
        for nm in &self.shards {
            acc.merge(&nm.query_stats());
        }
        acc
    }

    fn stats_children(&self) -> Vec<Node> {
        let mut index = IndexStats::default();
        let mut mvcc = MvccStats::default();
        for nm in &self.shards {
            index.merge(&nm.text_index().stats());
            mvcc.merge(&nm.store().database().mvcc_stats());
        }
        let mut shards = Node::element("shards").with_attr("count", &self.shards.len().to_string());
        for (i, s) in self.shard_stats().iter().enumerate() {
            let mut shard = s.to_node();
            shard.attrs.insert(0, ("id".to_string(), i.to_string()));
            shards = shards.with_child(shard);
        }
        vec![
            self.query_stats().to_node(),
            index.to_node(),
            mvcc.to_node(),
            shards,
        ]
    }

    fn ingest_metrics(&self) -> &IngestMetrics {
        &self.metrics
    }

    fn wal_stats(&self) -> WalStats {
        let mut acc = WalStats::default();
        for nm in &self.shards {
            acc.merge(&nm.wal_stats());
        }
        acc
    }

    fn sync_wal(&self) -> Result<()> {
        for nm in &self.shards {
            XdbBackend::sync_wal(&**nm)?;
        }
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        ShardedStore::flush(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmark_docformats::upmark;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nm-shardstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_n(dir: &Path, n: usize) -> ShardedStore {
        ShardedStore::open_with(
            dir,
            ShardOptions {
                shards: n,
                ..ShardOptions::default()
            },
        )
        .unwrap()
    }

    fn load_samples(st: &dyn XdbBackend) {
        for (name, content) in [
            ("plan-a.wdoc", "<<Title>> Plan A\n<<Heading1>> Budget\n<<Normal>> two million dollars\n<<Heading1>> Technology Gap\n<<Normal>> the gap is shrinking\n"),
            ("plan-b.txt", "# Budget\none million dollars\n# Technology Gap\nthe gap is growing\n"),
            ("ll-0424.html", "<html><body><h1>Summary</h1><p>The shuttle engine faulted.</p></body></html>"),
        ] {
            XdbBackend::insert_file(st, name, content).unwrap();
        }
    }

    #[test]
    fn scatter_gather_matches_single_store() {
        let sdir = scratch("sg-sharded");
        let rdir = scratch("sg-ref");
        let st = open_n(&sdir, 3);
        let reference = NetMark::open(&rdir).unwrap();
        load_samples(&st);
        load_samples(&reference);
        for q in [
            XdbQuery::context("Budget"),
            XdbQuery::content("shuttle"),
            XdbQuery::content("the gap is"),
            XdbQuery::context_content("Technology Gap", "Shrinking"),
            XdbQuery::default(),
            XdbQuery::context("Budget").with_limit(1),
        ] {
            assert_eq!(
                st.query(&q).unwrap().to_xml(),
                reference.query(&q).unwrap().to_xml(),
                "query {q:?}"
            );
        }
        std::fs::remove_dir_all(&sdir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn ranked_merge_agrees_with_single_store_top_k() {
        let dir4 = scratch("rank-4");
        let dir1 = scratch("rank-1");
        let rdir = scratch("rank-ref");
        let st4 = open_n(&dir4, 4);
        let st1 = open_n(&dir1, 1);
        let reference = NetMark::open(&rdir).unwrap();
        // Three docs mention the term densely in a short section, the rest
        // once in a long one — the top-3 SET is unambiguous under any
        // monotone scoring, even though each shard computes BM25 from its
        // local corpus statistics.
        for i in 0..16 {
            let text = if i < 3 {
                "# Sec\nrocket rocket rocket rocket rocket rocket\n".to_string()
            } else {
                "# Sec\nrocket filler filler filler filler filler filler filler filler\n"
                    .to_string()
            };
            let name = format!("d{i}.txt");
            XdbBackend::insert_file(&st4, &name, &text).unwrap();
            XdbBackend::insert_file(&st1, &name, &text).unwrap();
            reference.insert_file(&name, &text).unwrap();
        }
        let ranked = XdbQuery::content("rocket")
            .with_rank(netmark_xdb::RankMode::Bm25)
            .with_limit(3);
        let top = |rs: &ResultSet| -> std::collections::HashSet<String> {
            rs.hits.iter().map(|h| h.doc.clone()).collect()
        };
        let want: std::collections::HashSet<String> = (0..3).map(|i| format!("d{i}.txt")).collect();
        let rs4 = st4.query(&ranked).unwrap();
        let rs1 = st1.query(&ranked).unwrap();
        assert!(rs4.ranked && rs1.ranked);
        assert_eq!(top(&rs4), want, "4-shard top-k set");
        assert_eq!(top(&rs1), want, "1-shard top-k set");
        assert!(rs4.hits.iter().all(|h| h.score.is_some()));
        // A single shard sees global statistics: byte-identical to the
        // unsharded engine, scores included.
        assert_eq!(rs1.to_xml(), reference.query(&ranked).unwrap().to_xml());
        // rank=none stays byte-identical across all three deployments —
        // ranking is opt-in and leaves the v1 wire untouched.
        let plain = XdbQuery::content("rocket").with_limit(3);
        let reference_xml = reference.query(&plain).unwrap().to_xml();
        assert_eq!(st4.query(&plain).unwrap().to_xml(), reference_xml);
        assert_eq!(st1.query(&plain).unwrap().to_xml(), reference_xml);
        std::fs::remove_dir_all(&dir4).unwrap();
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn ranked_limited_scatter_is_exact() {
        let dir = scratch("twowave");
        let st = open_n(&dir, 4);
        // Mixed densities plus a run of identical documents: the identical
        // ones score exactly equal *within* any shard holding several, and
        // across shards whenever local statistics coincide — exercising
        // the global-sequence tie-break at the limit boundary.
        for i in 0..6 {
            let text = format!(
                "# Sec\nrocket {}filler filler filler\n",
                "rocket ".repeat(i)
            );
            XdbBackend::insert_file(&st, &format!("var{i}.txt"), &text).unwrap();
        }
        for i in 0..8 {
            XdbBackend::insert_file(
                &st,
                &format!("same{i}.txt"),
                "# Sec\nrocket payload checklist\n",
            )
            .unwrap();
        }
        let base = XdbQuery::content("rocket").with_rank(netmark_xdb::RankMode::Bm25);
        // The oracle: full scatter with no limit, merged by the same
        // policy — its prefix is what any limited query must return.
        let all = st.query(&base).unwrap();
        assert_eq!(all.hits.len(), 14);
        for k in [1, 2, 3, 7, 13, 14, 50] {
            let rs = st.query(&base.clone().with_limit(k)).unwrap();
            let want: Vec<_> = all.hits.iter().take(k).cloned().collect();
            assert_eq!(rs.hits, want, "k={k}");
            assert_eq!(rs.truncated, all.hits.len() > k, "truncated at k={k}");
        }
        // A user floor is pushed down and stays strict.
        let floor = all.hits[5].score.unwrap();
        let rs = st
            .query(&base.clone().with_limit(3).with_min_score(floor))
            .unwrap();
        let want: Vec<_> = all
            .hits
            .iter()
            .filter(|h| h.score.unwrap() > floor)
            .take(3)
            .cloned()
            .collect();
        assert_eq!(rs.hits, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranked_limit_queries_each_shard_once() {
        let dir = scratch("oneround");
        let st = open_n(&dir, 4);
        // Three dense documents on shards 0 and 1, two low scorers on each
        // of shards 2 and 3: the first two shards alone fill the top 3, so
        // nothing proves truncation before the low scorers are counted.
        let dense = "# Sec\nrocket rocket rocket rocket\n";
        let low = "# Sec\nrocket filler filler filler filler filler filler filler\n";
        let mut left = [3, 2, 2]; // dense on 0 or 1, low on 2, low on 3
        for name in (0..).map(|i| format!("d{i}.txt")) {
            let (slot, text) = match st.owner(&name) {
                0 | 1 => (0, dense),
                s => (s - 1, low),
            };
            if left[slot] > 0 {
                left[slot] -= 1;
                XdbBackend::insert_file(&st, &name, text).unwrap();
            }
            if left == [0; 3] {
                break;
            }
        }
        let base = XdbQuery::content("rocket").with_rank(netmark_xdb::RankMode::Bm25);
        let rs = st.query(&base.clone().with_limit(3)).unwrap();
        let asked: Vec<u64> = st.shard_stats().iter().map(|s| s.queries).collect();
        assert_eq!(asked, vec![1; 4], "one round per shard");
        let all = st.query(&base).unwrap();
        assert_eq!(all.hits.len(), 7);
        assert_eq!(rs.hits, all.hits[..3].to_vec());
        assert!(rs.hits.iter().all(|h| st.owner(&h.doc) < 2));
        assert!(rs.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn candidates_sum_like_a_single_store() {
        let sdir = scratch("cand-sharded");
        let rdir = scratch("cand-ref");
        let st = open_n(&sdir, 2);
        let reference = NetMark::open(&rdir).unwrap();
        // Documents holding one term, the other, or both: a shard whose
        // slice lacks one term still counts the other's postings.
        for i in 0..8 {
            let text = match i % 3 {
                0 => "# Sec\nbudget only\n",
                1 => "# Sec\nschedule only\n",
                _ => "# Sec\nbudget and schedule\n",
            };
            let name = format!("d{i}.txt");
            XdbBackend::insert_file(&st, &name, text).unwrap();
            reference.insert_file(&name, text).unwrap();
        }
        let q = XdbQuery::content("budget schedule");
        let want = reference.query(&q).unwrap();
        assert!(want.candidates > want.hits.len());
        assert_eq!(st.query(&q).unwrap().to_xml(), want.to_xml());
        std::fs::remove_dir_all(&sdir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn batch_ingest_reports_in_input_order_and_spread() {
        let dir = scratch("batch");
        let st = open_n(&dir, 4);
        let docs: Vec<Document> = (0..32)
            .map(|i| upmark(&format!("d{i}.txt"), &format!("# S{i}\nbody {i}\n")))
            .collect();
        let reports = st.ingest_batch(&docs).unwrap();
        assert_eq!(reports.len(), 32);
        let spread: Vec<u64> = st.shard_stats().iter().map(|s| s.docs).collect();
        assert_eq!(spread.iter().sum::<u64>(), 32);
        assert!(
            spread.iter().filter(|&&d| d > 0).count() >= 2,
            "32 docs land on several shards, got {spread:?}"
        );
        // One WAL commit per shard slice, not per document.
        let wal = XdbBackend::wal_stats(&st);
        assert!(
            wal.commits <= st.shard_count() as u64 + 4,
            "batched commits, got {}",
            wal.commits
        );
        assert_eq!(st.list_documents().unwrap()[0].file_name, "d0.txt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retried_batch_leaves_one_copy_of_a_committed_slice() {
        let dir = scratch("retry");
        let st = open_n(&dir, 2);
        // A name longer than a B-tree entry may be fails its shard's slice
        // after the other shard's slice committed; the per-document retry
        // ingests the good document again.
        let long = format!("{}.txt", "long-name-".repeat(300));
        let good = (0..)
            .map(|i| format!("good-{i}.txt"))
            .find(|n| st.owner(n) != st.owner(&long))
            .unwrap();
        let docs = [
            upmark(&good, "# Budget\nquixotic alpha\n"),
            upmark(&long, "# Heading\nbody\n"),
        ];
        let outcomes = netmark::commit_batch(&st, &docs);
        assert!(outcomes[0].is_ok() && outcomes[1].is_err());
        assert_eq!(st.query(&XdbQuery::content("quixotic")).unwrap().len(), 1);
        let names: Vec<String> = XdbBackend::list_documents(&st)
            .unwrap()
            .into_iter()
            .map(|d| d.file_name)
            .collect();
        assert_eq!(names, vec![good.clone()]);
        // The failed name leaves the global order.
        let logged: Vec<String> = st
            .seq_log()
            .entries_in_order()
            .into_iter()
            .map(|e| e.1)
            .collect();
        assert_eq!(logged, vec![good]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn context_fallback_is_a_global_decision() {
        let dir = scratch("fallback");
        let st = open_n(&dir, 2);
        // "Budget Overview FY05" and exact "Budget" deliberately placed so
        // a shard may hold only the phrase-matchable heading.
        XdbBackend::insert_file(&st, "a.txt", "# Budget Overview FY05\nthe money\n").unwrap();
        XdbBackend::insert_file(&st, "c.txt", "# Budget\nexact money\n").unwrap();
        let rs = st.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(
            rs.len(),
            1,
            "exact label match suppresses the fallback globally"
        );
        assert_eq!(rs.hits[0].doc, "c.txt");
        // Remove the exact match: the fallback applies everywhere again.
        assert!(ShardedStore::remove_named(&st, "c.txt").unwrap());
        let rs = st.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].context, "Budget Overview FY05");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doc_routed_lookup_removal_and_reconstruction() {
        let dir = scratch("route");
        let st = open_n(&dir, 3);
        load_samples(&st);
        let doc = XdbBackend::reconstruct_named(&st, "plan-b.txt")
            .unwrap()
            .unwrap();
        assert_eq!(doc.name, "plan-b.txt");
        let mut q = XdbQuery::context("Budget");
        q.doc = Some("plan-b.txt".to_string());
        let rs = st.query(&q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].doc, "plan-b.txt");
        assert!(ShardedStore::remove_named(&st, "plan-b.txt").unwrap());
        assert!(!ShardedStore::remove_named(&st, "plan-b.txt").unwrap());
        assert!(XdbBackend::document_by_name(&st, "plan-b.txt")
            .unwrap()
            .is_none());
        assert_eq!(st.query(&XdbQuery::context("Budget")).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_preserves_manifest_order_and_contents() {
        let dir = scratch("reopen");
        {
            let st = open_n(&dir, 3);
            load_samples(&st);
            ShardedStore::flush(&st).unwrap();
        }
        // Shard count comes from the manifest on reopen.
        let st = ShardedStore::open(&dir).unwrap();
        assert_eq!(st.shard_count(), 3);
        assert_eq!(st.query(&XdbQuery::content("shuttle")).unwrap().len(), 1);
        let names: Vec<String> = st
            .list_documents()
            .unwrap()
            .into_iter()
            .map(|d| d.file_name)
            .collect();
        assert_eq!(names, vec!["plan-a.wdoc", "plan-b.txt", "ll-0424.html"]);
        // A conflicting explicit shard count is refused.
        drop(st);
        assert!(ShardedStore::open_with(
            &dir,
            ShardOptions {
                shards: 5,
                ..ShardOptions::default()
            }
        )
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn xslt_composition_runs_over_the_merged_set() {
        let dir = scratch("xslt");
        let st = open_n(&dir, 3);
        load_samples(&st);
        XdbBackend::register_stylesheet(
            &st,
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
        let out = XdbBackend::run(&st, &XdbQuery::context("Budget").with_xslt("report"))
            .unwrap()
            .composed()
            .unwrap();
        assert_eq!(out.name, "report");
        assert_eq!(out.find_all("section").len(), 2);
        assert!(matches!(
            XdbBackend::run(&st, &XdbQuery::context("Budget").with_xslt("missing")),
            Err(NetmarkError::NoSuchStylesheet(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
