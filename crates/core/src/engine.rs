//! The long-lived query read path (paper §2.1.4, "Processing Queries
//! Internally").
//!
//! "The keyword-based context and content search is performed by first
//! querying the text index for the search key. Each node returned from the
//! index search is then processed based on its designated unique ROWID.
//! The processing of the node involves traversing up the tree structure via
//! its parent or sibling node until the first context is found."
//!
//! A [`QueryEngine`] is owned by [`crate::NetMark`] and shared by every
//! caller — the WebDAV server, the federation router's local adapter, the
//! CLI. Each execution pins one MVCC [`StoreView`] and one text-index
//! snapshot, so every stage reads a single committed state without taking
//! a page lock. On top of the paper's pipeline it adds the three things a
//! long-lived handle can do that a per-call one cannot:
//!
//! 1. **Result caching** — a small LRU keyed on the normalized query
//!    string, stamped with the store generation (the same stamp that
//!    validates the persisted text index) plus an in-memory index epoch.
//!    Every committed ingest batch and removal bumps the generation; the
//!    epoch bump lands after the in-memory index write completes, so a
//!    query racing an ingest can never cache a result the next reader
//!    would wrongly reuse.
//! 2. **Parallel term execution** — multi-term keyword queries fan the
//!    per-term postings fetch + rowid→context mapping out over
//!    [`crate::scatter`]'s bounded workers (the same executor the shard and
//!    federation coordinators use) and intersect on the way back.
//! 3. **Context-walk memoization** — the hot rowid→governing-context walk
//!    is cached per store generation (rowids are only reusable after a
//!    removal, which bumps the generation).
//!
//! Every execution records per-stage wall times into
//! [`crate::metrics::QueryMetrics`], surfaced via `NetMark::stats()` and
//! `GET /xdb/stats`.

use crate::error::Result;
use crate::metrics::{QueryMetrics, QueryStats, QueryTrace};
use crate::scatter::scatter;
use crate::store::{DocId, NodeRow, NodeStore, StoreView};
use netmark_model::NodeType;
use netmark_relstore::RowId;
use netmark_textindex::{IndexSnapshot, SegmentedIndex, TextQuery};
use netmark_xdb::{Hit, MatchMode, ResultSet, XdbQuery};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct QueryEngineOptions {
    /// Worker threads for parallel term execution. `0` executes every
    /// query serially on the calling thread.
    pub workers: usize,
    /// Result-cache entries. `0` disables result caching.
    pub cache_capacity: usize,
    /// Context-memo entries. `0` disables the rowid→context memo.
    pub memo_capacity: usize,
}

impl Default for QueryEngineOptions {
    fn default() -> Self {
        QueryEngineOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            cache_capacity: 256,
            memo_capacity: 1 << 16,
        }
    }
}

// ---------------------------------------------------------------------
// Context memo

/// Memo of rowid → governing-context walks, valid for one store
/// generation. Rowids can be reused after a removal, and removals bump the
/// generation, so a generation match proves every memoized walk still
/// describes the live tree.
pub(crate) struct CtxMemo {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inner: Mutex<MemoInner>,
}

struct MemoInner {
    gen: i64,
    map: HashMap<RowId, Option<RowId>>,
}

impl CtxMemo {
    fn new(capacity: usize) -> CtxMemo {
        CtxMemo {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inner: Mutex::new(MemoInner {
                gen: -1,
                map: HashMap::new(),
            }),
        }
    }

    /// `Some(walk result)` on a hit for this generation; `None` on a miss.
    fn get(&self, gen: i64, rid: RowId) -> Option<Option<RowId>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        if inner.gen != gen {
            inner.map.clear();
            inner.gen = gen;
        }
        match inner.map.get(&rid).copied() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, gen: i64, rid: RowId, ctx: Option<RowId>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.gen != gen {
            inner.map.clear();
            inner.gen = gen;
        }
        if inner.map.len() >= self.capacity {
            inner.map.clear(); // wholesale reset beats tracking recency here
        }
        inner.map.insert(rid, ctx);
    }
}

// ---------------------------------------------------------------------
// Result cache

struct CacheEntry {
    gen: i64,
    epoch: u64,
    last_used: u64,
    results: Arc<ResultSet>,
}

/// LRU result cache keyed on the normalized query string. Entries carry
/// the (generation, epoch) pair they were computed under and are only
/// served while both still match — ingest invalidates by bumping, never by
/// scanning.
struct ResultCache {
    capacity: usize,
    tick: u64,
    map: HashMap<String, CacheEntry>,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &str, gen: i64, epoch: u64) -> Option<Arc<ResultSet>> {
        let stale = match self.map.get_mut(key) {
            None => return None,
            Some(e) if e.gen == gen && e.epoch == epoch => {
                self.tick += 1;
                e.last_used = self.tick;
                return Some(Arc::clone(&e.results));
            }
            Some(_) => true,
        };
        if stale {
            self.map.remove(key);
        }
        None
    }

    fn insert(&mut self, key: String, gen: i64, epoch: u64, results: Arc<ResultSet>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the least-recently-used entry (capacity is small, a
            // scan is cheaper than an ordered index).
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.tick += 1;
        self.map.insert(
            key,
            CacheEntry {
                gen,
                epoch,
                last_used: self.tick,
                results,
            },
        );
    }
}

/// The cache key: the query's execution-relevant fields only. `xslt=` and
/// `databank=` never reach the engine's execution (composition and routing
/// happen above it), so queries differing only there share an entry.
fn cache_key(q: &XdbQuery) -> String {
    let mut key = XdbQuery {
        xslt: None,
        databank: None,
        ..q.clone()
    }
    .to_query_string();
    // `exact_contexts` changes execution (it pins the context fallback
    // decision) but is deliberately absent from the wire format, so it is
    // appended to the key by hand.
    for label in &q.exact_contexts {
        key.push_str("&!exact=");
        key.push_str(&netmark_xdb::url_encode(label));
    }
    key
}

// ---------------------------------------------------------------------
// The engine

/// Long-lived, shareable query executor over a store + text index pair.
/// Each execution pins one MVCC store view and takes one index snapshot up
/// front, then runs every stage (including the parallel per-term fan-out)
/// against that pair — so a query observes exactly one
/// committed store state and one committed index state, and never blocks
/// on — or is blocked by — concurrent ingest.
pub struct QueryEngine {
    store: Arc<NodeStore>,
    index: Arc<SegmentedIndex>,
    memo: CtxMemo,
    cache: Mutex<ResultCache>,
    /// Bumped by `NetMark` after every completed in-memory index mutation.
    /// The store generation alone is not enough for cache validity: it is
    /// bumped at store-commit time, *before* the index write lands, so a
    /// query overlapping that window could otherwise cache (and later
    /// serve) a pre-index-update result under a current-looking stamp.
    epoch: AtomicU64,
    /// Per-term fan-out width (`QueryEngineOptions::workers`).
    workers: usize,
    metrics: QueryMetrics,
}

impl QueryEngine {
    /// Builds an engine over shared store/index handles.
    pub fn new(
        store: Arc<NodeStore>,
        index: Arc<SegmentedIndex>,
        options: QueryEngineOptions,
    ) -> QueryEngine {
        QueryEngine {
            store,
            index,
            memo: CtxMemo::new(options.memo_capacity),
            cache: Mutex::new(ResultCache::new(options.cache_capacity)),
            epoch: AtomicU64::new(0),
            workers: options.workers,
            metrics: QueryMetrics::default(),
        }
    }

    /// Invalidates cached results. Called by `NetMark` after each index
    /// mutation completes; callers mutating the store directly (benches,
    /// ablations) should call it too.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Executes `q`, serving from the result cache when possible.
    pub fn execute(&self, q: &XdbQuery) -> Result<ResultSet> {
        self.execute_traced(q).map(|(rs, _)| rs)
    }

    /// Executes `q` and returns the per-stage trace alongside the results.
    pub fn execute_traced(&self, q: &XdbQuery) -> Result<(ResultSet, QueryTrace)> {
        let t0 = Instant::now();
        // Pin one MVCC store view per query: the generation read through it
        // names exactly the committed state every stage will observe.
        let view = self.store.begin_read()?;
        let gen = view.generation();
        let epoch = self.epoch.load(Ordering::Acquire);
        let key = cache_key(q);
        if let Some(hit) = self.cache.lock().get(&key, gen, epoch) {
            let trace = QueryTrace {
                cache_hit: true,
                total: t0.elapsed(),
                ..Default::default()
            };
            self.metrics.record(&trace);
            return Ok(((*hit).clone(), trace));
        }
        let mut trace = QueryTrace::default();
        let rs = self.execute_cold(q, &view, &mut trace)?;
        trace.total = t0.elapsed();
        self.metrics.record(&trace);
        // The store view guarantees the result is exactly the gen-stamped
        // state, but the index snapshot can lag or lead the store commit —
        // only cache when the stamp pair is still current at completion.
        if self.store.generation() == gen && self.epoch.load(Ordering::Acquire) == epoch {
            self.cache
                .lock()
                .insert(key, gen, epoch, Arc::new(rs.clone()));
        }
        Ok((rs, trace))
    }

    /// Executes `q` bypassing the result cache (the memo still applies).
    /// This is the "fresh" side of cache-correctness checks and the cold
    /// side of benchmarks.
    pub fn execute_uncached(&self, q: &XdbQuery) -> Result<ResultSet> {
        let t0 = Instant::now();
        let view = self.store.begin_read()?;
        let mut trace = QueryTrace::default();
        let rs = self.execute_cold(q, &view, &mut trace)?;
        trace.total = t0.elapsed();
        self.metrics.record(&trace);
        Ok(rs)
    }

    /// Cumulative read-path counters, memo outcomes included.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.metrics.snapshot();
        s.memo_hits = self.memo.hits.load(Ordering::Relaxed);
        s.memo_misses = self.memo.misses.load(Ordering::Relaxed);
        s
    }

    fn execute_cold(
        &self,
        q: &XdbQuery,
        view: &StoreView,
        trace: &mut QueryTrace,
    ) -> Result<ResultSet> {
        // One snapshot per execution, after which the whole query — every
        // stage, every fan-out worker — sees one immutable
        // index state regardless of concurrent commits or compaction. The
        // store side is pinned the same way by `view`.
        let snap = self.index.snapshot();
        let gen = view.generation();
        // Ranked single-keyword fast path: the match set IS the score map's
        // key set. Both are "the governing contexts of the live nodes
        // containing the term" — the match walk resolves exactly the node
        // ids the scoring pass walks, through the same memoized
        // governing-context lookup — so running the scoring pass alone
        // halves the per-match store work. Scores are bit-identical by
        // construction (same `context_scores_counted` body), and the
        // collector is insensitive to candidate order, so the answer is
        // byte-identical to the general path at any limit.
        if q.ranked() && q.context.is_none() && q.match_mode == MatchMode::Keywords {
            if let Some(terms) = &q.content {
                if netmark_textindex::query_terms(terms).len() == 1 {
                    let (scores, candidates) =
                        context_scores_counted(view, &snap, Some((&self.memo, gen)), terms, trace)?;
                    trace.candidates = candidates;
                    let ctx_rowids: Vec<RowId> = scores.keys().copied().collect();
                    return collect_hits(view, q, ctx_rowids, Some(&scores), trace);
                }
            }
        }
        let (ctx_rowids, scores) = self.matched_contexts(q, view, &snap, gen, trace)?;
        collect_hits(view, q, ctx_rowids, scores.as_ref(), trace)
    }

    /// The general match path: the context rowids `q` selects, plus their
    /// BM25 scores when the query is ranked and has content terms.
    fn matched_contexts(
        &self,
        q: &XdbQuery,
        view: &StoreView,
        snap: &Arc<IndexSnapshot>,
        gen: i64,
        trace: &mut QueryTrace,
    ) -> Result<(Vec<RowId>, Option<ContextScores>)> {
        let ctx_rowids: Vec<RowId> = match (&q.context, &q.content) {
            (None, None) => {
                // Unconstrained: every context in the store (bounded below
                // by the limit). Used by federation when augmenting a
                // source that answered a broader query.
                let t = Instant::now();
                let mut out = Vec::new();
                for info in view.list_docs()? {
                    if let Some((root_rid, _)) = view.node_by_id(info.root_node)? {
                        collect_contexts(view, root_rid, &mut out)?;
                    }
                }
                trace.context_walk += t.elapsed();
                out
            }
            (Some(label), None) => context_rowids(view, snap, label, &q.exact_contexts, trace)?,
            (None, Some(terms)) => {
                let (ctxs, cand) =
                    self.content_contexts(view, snap, terms, q.match_mode, gen, trace)?;
                trace.candidates = cand;
                ctxs
            }
            (Some(label), Some(terms)) => {
                let labelled = context_rowids(view, snap, label, &q.exact_contexts, trace)?;
                let (with_content, cand) =
                    self.content_contexts(view, snap, terms, q.match_mode, gen, trace)?;
                trace.candidates = cand;
                let t = Instant::now();
                let set: HashSet<RowId> = with_content.into_iter().collect();
                let out = labelled.into_iter().filter(|r| set.contains(r)).collect();
                trace.intersection += t.elapsed();
                out
            }
        };
        // BM25 scores are attached at collect time, not during matching:
        // the match set is exactly what `rank=none` would produce, ranking
        // only reorders it. Scoring reuses the same pinned snapshot + view
        // pair, so scores and matches describe one committed state.
        let scores = match (&q.content, q.ranked()) {
            (Some(terms), true) => {
                Some(context_scores_counted(view, snap, Some((&self.memo, gen)), terms, trace)?.0)
            }
            _ => None,
        };
        Ok((ctx_rowids, scores))
    }

    /// Context rowids whose sections contain the content terms, plus the
    /// candidate count (live postings fetched). Multi-term keyword queries
    /// AND at the *section* level — every term must occur somewhere under
    /// the same context. Each term's postings fetch and context mapping
    /// runs on [`scatter`] (on the calling thread when `workers` is 0), and
    /// the answers intersect in term order, keeping the first term's order.
    fn content_contexts(
        &self,
        view: &StoreView,
        snap: &IndexSnapshot,
        terms: &str,
        mode: MatchMode,
        gen: i64,
        trace: &mut QueryTrace,
    ) -> Result<(Vec<RowId>, usize)> {
        let term_list = netmark_textindex::query_terms(terms);
        if term_list.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let memo = Some((&self.memo, gen));
        if mode == MatchMode::Phrase {
            let t = Instant::now();
            let ids = snap.execute(&TextQuery::phrase(terms));
            trace.index_lookup += t.elapsed();
            let t = Instant::now();
            let ctxs = map_to_contexts(view, memo, &ids)?;
            trace.context_walk += t.elapsed();
            return Ok((ctxs, ids.len()));
        }
        if self.workers > 0 && term_list.len() >= 2 {
            trace.fanout = term_list.len();
        }
        // Every term shares the caller's snapshot and store-view pin, so all
        // of them are evaluated against one committed index + store state.
        let per_term = scatter(&term_list, self.workers.max(1), |_, term| {
            let t = Instant::now();
            let ids = snap.execute(&TextQuery::Term(term.clone()));
            let index_t = t.elapsed();
            let t = Instant::now();
            let ctxs = map_to_contexts(view, memo, &ids);
            (ids.len(), index_t, t.elapsed(), ctxs)
        });
        let mut candidates = 0usize;
        let mut acc: Option<Vec<RowId>> = None;
        for (cand, index_t, walk_t, ctxs) in per_term {
            candidates += cand;
            trace.index_lookup += index_t;
            trace.context_walk += walk_t;
            let ctxs = ctxs?;
            let t = Instant::now();
            acc = Some(match acc {
                None => ctxs,
                Some(prev) => {
                    let set: HashSet<RowId> = ctxs.into_iter().collect();
                    prev.into_iter().filter(|r| set.contains(r)).collect()
                }
            });
            trace.intersection += t.elapsed();
        }
        Ok((acc.unwrap_or_default(), candidates))
    }
}

// ---------------------------------------------------------------------
// Shared stage functions

/// Maps text-hit node ids to their governing context rowids (deduped, in
/// first-encounter order), consulting the memo when one is given.
fn map_to_contexts(
    view: &StoreView,
    memo: Option<(&CtxMemo, i64)>,
    node_ids: &[u64],
) -> Result<Vec<RowId>> {
    let mut seen: HashSet<RowId> = HashSet::new();
    let mut out: Vec<RowId> = Vec::new();
    for &nid in node_ids {
        let Some((rid, _)) = view.node_by_id(nid)? else {
            continue; // tombstoned in index but not in this store view
        };
        if let Some(c) = governing_context(view, memo, rid)? {
            if seen.insert(c) {
                out.push(c);
            }
        }
    }
    Ok(out)
}

/// The governing context of the node at `rid`: the memoized walk when the
/// memo holds it for this generation, otherwise the store walk (memoized).
fn governing_context(
    view: &StoreView,
    memo: Option<(&CtxMemo, i64)>,
    rid: RowId,
) -> Result<Option<RowId>> {
    if let Some(cached) = memo.and_then(|(m, gen)| m.get(gen, rid)) {
        return Ok(cached);
    }
    let walked = view.governing_context(rid)?.map(|(c, _)| c);
    if let Some((m, gen)) = memo {
        m.put(gen, rid, walked);
    }
    Ok(walked)
}

/// Context rowids matching a `Context=` specification. A `|`-separated
/// label list unions ("in NETMARK we have to specify two Context queries
/// (one for 'Budget' and one for 'Cost Details')" — §4; the union form
/// issues them as one client-side query, still with zero mapping
/// artifacts).
fn context_rowids(
    view: &StoreView,
    index: &IndexSnapshot,
    spec: &str,
    exact_only: &[String],
    trace: &mut QueryTrace,
) -> Result<Vec<RowId>> {
    if spec.contains('|') {
        let mut out: Vec<RowId> = Vec::new();
        for label in spec.split('|').map(str::trim).filter(|l| !l.is_empty()) {
            for rid in context_rowids(view, index, label, exact_only, trace)? {
                if !out.contains(&rid) {
                    out.push(rid);
                }
            }
        }
        return Ok(out);
    }
    let label = spec;
    let t = Instant::now();
    let exact = view.contexts_labeled(label)?;
    trace.index_lookup += t.elapsed();
    if !exact.is_empty() {
        return Ok(exact.into_iter().map(|(rid, _)| rid).collect());
    }
    // Exact→phrase fallback is a *global* decision: if a sharded/federated
    // coordinator saw an exact occurrence of this label anywhere, a member
    // store whose local slice happens to lack it must return nothing here
    // rather than fall back and invent phrase matches the single-store
    // execution would never produce.
    if exact_only.iter().any(|l| l == label) {
        return Ok(Vec::new());
    }
    // Fallback: phrase match over indexed labels (catches e.g.
    // Context=Budget against a "Budget Overview" heading).
    let t = Instant::now();
    let ids = index.execute(&TextQuery::phrase(label));
    trace.index_lookup += t.elapsed();
    let t = Instant::now();
    let mut out = Vec::new();
    for nid in ids {
        if let Some((rid, row)) = view.node_by_id(nid)? {
            if row.ntype == NodeType::Context && !out.contains(&rid) {
                out.push(rid);
            }
        }
    }
    trace.context_walk += t.elapsed();
    Ok(out)
}

/// BM25 scores per governing-context rowid.
type ContextScores = HashMap<RowId, f64>;

/// Node-level BM25 scores rolled up to governing-context rowids, plus the
/// scored-node count: each matching node's score is attributed to the
/// context that would own its hit, summing when a section contains several
/// scoring nodes. Uses the same memoized governing-context walk as the
/// match path, so score attribution can never disagree with hit
/// attribution. The count is what the match walk would report as
/// candidates (one scored node per live term posting). Scoring is booked
/// as index lookup, the rowid→context mapping as context walk.
fn context_scores_counted(
    view: &StoreView,
    index: &IndexSnapshot,
    memo: Option<(&CtxMemo, i64)>,
    terms: &str,
    trace: &mut QueryTrace,
) -> Result<(ContextScores, usize)> {
    let t = Instant::now();
    let scored = index.search_bm25(terms);
    trace.index_lookup += t.elapsed();
    let t = Instant::now();
    let candidates = scored.len();
    let mut out = ContextScores::new();
    for (nid, score) in scored {
        let Some((rid, _)) = view.node_by_id(nid)? else {
            continue; // tombstoned in index but not in this store view
        };
        if let Some(c) = governing_context(view, memo, rid)? {
            *out.entry(c).or_default() += score;
        }
    }
    trace.context_walk += t.elapsed();
    Ok((out, candidates))
}

/// A candidate in the collection heap, ordered so the heap root (the max)
/// is always the *weakest* entry — the one the next stronger candidate
/// evicts. Stronger means higher score, ties broken by smaller
/// `(doc_id, node_id)` key, exactly the order a stable
/// sort-everything-then-truncate produces. The row read while filtering is
/// kept, so a winner is never read twice.
struct Weakest {
    score: f64,
    rid: RowId,
    row: NodeRow,
    doc: String,
}

impl Weakest {
    fn key(&self) -> (DocId, u64) {
        (self.row.doc_id, self.row.node_id)
    }
}

impl Ord for Weakest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Greater = weaker: lower score first, then larger key. Scores are
        // finite BM25 sums (or 0.0), so total_cmp agrees with partial_cmp.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.key().cmp(&other.key()))
    }
}

impl PartialOrd for Weakest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Weakest {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Weakest {}

/// Materializes the result set for the surviving context rowids in one
/// pass: resolve each row and its document name (once per doc), apply the
/// `doc=` filter and the `min_score=` floor, and keep the best
/// `limit` candidates (all of them when unlimited) in a [`Weakest`]-rooted
/// heap keyed on (score, doc, node). Section content is walked for the
/// winners alone. Unranked queries score every candidate 0.0, which
/// reduces the order to plain (doc, node) document order.
fn collect_hits(
    view: &StoreView,
    query: &XdbQuery,
    ctx_rowids: Vec<RowId>,
    scores: Option<&ContextScores>,
    trace: &mut QueryTrace,
) -> Result<ResultSet> {
    let t = Instant::now();
    let ranked = query.ranked();
    // The score floor is defined over ranked scores only; on an unranked
    // query there is nothing to compare, so a stray `min_score=` is inert.
    // The floor cuts before the limit: a coordinator pushing
    // `limit=k&min_score=θ` wants the best k hits *above* θ.
    let floor = if ranked { query.min_score } else { None };
    let limit = query.limit.unwrap_or(usize::MAX);
    // A missing DOC row means the index snapshot led this store view (the
    // document landed after the pin) — skip such hits rather than failing.
    let mut doc_names: HashMap<DocId, Option<String>> = HashMap::new();
    let mut seen: HashSet<(DocId, u64)> = HashSet::new();
    let mut heap: BinaryHeap<Weakest> = BinaryHeap::new();
    let mut qualifying = 0usize;
    for rid in ctx_rowids {
        let Ok(row) = view.node(rid) else {
            continue;
        };
        let doc_name = match doc_names.get(&row.doc_id) {
            Some(cached) => cached.clone(),
            None => {
                let n = view.doc_info(row.doc_id).ok().map(|i| i.file_name);
                doc_names.insert(row.doc_id, n.clone());
                n
            }
        };
        let Some(doc_name) = doc_name else { continue };
        if let Some(wanted) = &query.doc {
            if &doc_name != wanted {
                continue;
            }
        }
        // Ranked queries score every hit (0.0 when the section matched
        // without any scoring node, e.g. a pure Context= match).
        let score = if ranked {
            scores.and_then(|m| m.get(&rid)).copied().unwrap_or(0.0)
        } else {
            0.0
        };
        if floor.is_some_and(|floor| score <= floor) {
            continue;
        }
        if !seen.insert((row.doc_id, row.node_id)) {
            continue;
        }
        qualifying += 1;
        let cand = Weakest {
            score,
            rid,
            row,
            doc: doc_name,
        };
        if heap.len() < limit {
            heap.push(cand);
        } else if heap.peek().is_some_and(|weakest| cand < *weakest) {
            // `cand < weakest` in Weakest order means strictly stronger:
            // higher score, or the same score with a smaller key — the
            // exact condition under which a stable sort would have placed
            // it inside the truncation boundary.
            heap.pop();
            heap.push(cand);
            trace.heap_evictions += 1;
        }
    }
    // Ascending Weakest order is strongest first.
    let winners = heap.into_sorted_vec();
    let mut hits = Vec::with_capacity(winners.len());
    for w in winners {
        let content = view.section_content(w.rid)?;
        hits.push(Hit {
            source: String::new(),
            doc: w.doc,
            context: w.row.data,
            content,
            context_node: w.row.node_id,
            // Unranked hits carry no score at all, keeping the wire bytes
            // identical to pre-ranking output.
            score: ranked.then_some(w.score),
        });
    }
    trace.collection += t.elapsed();
    Ok(ResultSet {
        truncated: qualifying > hits.len(),
        hits,
        candidates: trace.candidates,
        ranked,
    })
}

/// Depth-first collection of every CONTEXT node under `rid`.
fn collect_contexts(view: &StoreView, rid: RowId, out: &mut Vec<RowId>) -> Result<()> {
    let row = view.node(rid)?;
    if row.ntype == NodeType::Context {
        out.push(rid);
    }
    let mut c = row.first_child;
    while let Some(crid) = c {
        collect_contexts(view, crid, out)?;
        c = view.node(crid)?.next_sibling;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn temp_store(tag: &str) -> (Arc<NodeStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-eng-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = netmark_relstore::Database::open(&dir).unwrap();
        (Arc::new(NodeStore::open(db).unwrap()), dir)
    }

    fn ingest(store: &NodeStore, index: &SegmentedIndex, name: &str, text: &str) {
        let doc = netmark_docformats::upmark(name, text);
        let report = store.ingest(&doc).unwrap();
        for (id, t) in &report.index_entries {
            index.add(*id, t);
        }
        index.commit();
    }

    fn engine_with(
        store: &Arc<NodeStore>,
        index: &Arc<SegmentedIndex>,
        opts: QueryEngineOptions,
    ) -> QueryEngine {
        QueryEngine::new(Arc::clone(store), Arc::clone(index), opts)
    }

    #[test]
    fn cache_hit_returns_same_results_and_counts() {
        let (store, dir) = temp_store("cache");
        let index = Arc::new(SegmentedIndex::new());
        ingest(&store, &index, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let q = XdbQuery::content("million dollars");
        let (cold, t1) = eng.execute_traced(&q).unwrap();
        assert!(!t1.cache_hit);
        let (warm, t2) = eng.execute_traced(&q).unwrap();
        assert!(t2.cache_hit);
        assert_eq!(cold, warm);
        let s = eng.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_bump_invalidates_cache() {
        let (store, dir) = temp_store("inval");
        let index = Arc::new(SegmentedIndex::new());
        ingest(&store, &index, "a.txt", "# Budget\ntwo million\n");
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let q = XdbQuery::context("Budget");
        assert_eq!(eng.execute(&q).unwrap().len(), 1);
        assert_eq!(eng.execute(&q).unwrap().len(), 1); // cached
        ingest(&store, &index, "b.txt", "# Budget\none million\n");
        eng.invalidate();
        assert_eq!(eng.execute(&q).unwrap().len(), 2, "new doc visible");
        assert_eq!(eng.stats().cache_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_bump_alone_invalidates_cache() {
        // Even with an unchanged store generation (e.g. a direct index
        // mutation), invalidate() must force re-execution.
        let (store, dir) = temp_store("epoch");
        let index = Arc::new(SegmentedIndex::new());
        ingest(&store, &index, "a.txt", "# Budget\ntwo million\n");
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let q = XdbQuery::context("Budget");
        eng.execute(&q).unwrap();
        eng.invalidate();
        eng.execute(&q).unwrap();
        assert_eq!(eng.stats().cache_hits, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (store, dir) = temp_store("par");
        let index = Arc::new(SegmentedIndex::new());
        ingest(
            &store,
            &index,
            "a.txt",
            "# Budget\nthe gap is shrinking fast\n# Risks\nthe schedule gap\n",
        );
        ingest(
            &store,
            &index,
            "b.txt",
            "# Budget\nthe gap is growing\n# Schedule\nthree years\n",
        );
        let engine = |workers| {
            let opts = QueryEngineOptions {
                workers,
                cache_capacity: 0,
                memo_capacity: 0,
            };
            engine_with(&store, &index, opts)
        };
        let (serial, parallel) = (engine(0), engine(2));
        for q in [
            XdbQuery::content("the gap is"),
            XdbQuery::content("gap shrinking"),
            XdbQuery::content("gap is growing"),
            XdbQuery::context_content("Budget", "gap is"),
            // The first term's contexts do not meet the second's.
            XdbQuery::content("years shrinking"),
            XdbQuery::content("years shrinking gap"),
            // The first term has no contexts at all.
            XdbQuery::content("zebra gap"),
            XdbQuery::context_content("Budget", "zebra gap"),
        ] {
            let (p, pt) = parallel.execute_traced(&q).unwrap();
            let (s, st) = serial.execute_traced(&q).unwrap();
            assert_eq!(p, s, "query {q}");
            assert_eq!(pt.candidates, st.candidates, "query {q}");
        }
        // Every term's live postings count, whatever the intersection did.
        let (_, trace) = serial
            .execute_traced(&XdbQuery::content("zebra gap"))
            .unwrap();
        let gap = index.execute(&TextQuery::Term("gap".into())).len();
        assert_eq!(trace.candidates, gap);
        assert!(parallel.stats().parallel_queries >= 3);
        assert_eq!(serial.stats().parallel_queries, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranked_queries_score_sort_and_preserve_match_set() {
        let (store, dir) = temp_store("rank");
        let index = Arc::new(SegmentedIndex::new());
        // a: one mention diluted in a long section; b: dense mentions in a
        // short one — BM25 must put b first, ingest order puts a first.
        ingest(
            &store,
            &index,
            "a.txt",
            "# Notes\nthe engine review covered many unrelated topics and ran very long indeed\n",
        );
        ingest(
            &store,
            &index,
            "b.txt",
            "# Faults\nengine engine engine stall\n",
        );
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let plain = XdbQuery::content("engine");
        let ranked_q = plain.clone().with_rank(netmark_xdb::RankMode::Bm25);
        let unranked = eng.execute(&plain).unwrap();
        let ranked = eng.execute(&ranked_q).unwrap();
        assert!(!unranked.ranked);
        assert!(ranked.ranked);
        assert!(unranked.hits.iter().all(|h| h.score.is_none()));
        assert!(ranked.hits.iter().all(|h| h.score.is_some()));
        let docs =
            |rs: &ResultSet| -> Vec<String> { rs.hits.iter().map(|h| h.doc.clone()).collect() };
        assert_eq!(docs(&unranked), vec!["a.txt", "b.txt"], "ingest order");
        assert_eq!(docs(&ranked), vec!["b.txt", "a.txt"], "score order");
        assert!(ranked.hits[0].score > ranked.hits[1].score);
        // rank= is part of the cache key: re-running the unranked form
        // after the ranked one must serve the unranked entry, not collide.
        assert_eq!(docs(&eng.execute(&plain).unwrap()), vec!["a.txt", "b.txt"]);
        assert_eq!(eng.stats().cache_hits, 1);
        // A ranked Context= query (nothing to score) still answers, every
        // hit scored 0.0.
        let ctx = eng
            .execute(&XdbQuery::context("Faults").with_rank(netmark_xdb::RankMode::Bm25))
            .unwrap();
        assert!(ctx.ranked);
        assert_eq!(ctx.hits.len(), 1);
        assert_eq!(ctx.hits[0].score, Some(0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The collector's independent oracle: build every hit, stable-sort
    /// by score, apply the floor, truncate — the textbook definition the
    /// heap collector must reproduce hit for hit.
    fn reference_collect(
        view: &StoreView,
        query: &XdbQuery,
        ctx_rowids: Vec<RowId>,
        scores: Option<&ContextScores>,
    ) -> ResultSet {
        let ranked = query.ranked();
        let mut ordered: std::collections::BTreeMap<(DocId, u64), Hit> = Default::default();
        for rid in ctx_rowids {
            let row = view.node(rid).unwrap();
            let doc = view.doc_info(row.doc_id).unwrap().file_name;
            if query.doc.as_ref().is_some_and(|wanted| *wanted != doc) {
                continue;
            }
            let score = ranked.then(|| scores.and_then(|m| m.get(&rid)).copied().unwrap_or(0.0));
            let hit = Hit {
                source: String::new(),
                doc,
                context: row.data.clone(),
                content: view.section_content(rid).unwrap(),
                context_node: row.node_id,
                score,
            };
            ordered.insert((row.doc_id, row.node_id), hit);
        }
        let mut hits: Vec<Hit> = ordered.into_values().collect();
        if ranked {
            hits.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
            if let Some(floor) = query.min_score {
                hits.retain(|h| h.score.is_some_and(|s| s > floor));
            }
        }
        let truncated = query.limit.is_some_and(|k| hits.len() > k);
        hits.truncate(query.limit.unwrap_or(usize::MAX));
        ResultSet {
            hits,
            candidates: 0,
            truncated,
            ranked,
        }
    }

    /// `q` answered through the general match path and the oracle.
    fn reference_answer(eng: &QueryEngine, q: &XdbQuery) -> ResultSet {
        let view = eng.store.begin_read().unwrap();
        let snap = eng.index.snapshot();
        let mut trace = QueryTrace::default();
        let (ctxs, scores) = eng
            .matched_contexts(q, &view, &snap, view.generation(), &mut trace)
            .unwrap();
        ResultSet {
            candidates: trace.candidates,
            ..reference_collect(&view, q, ctxs, scores.as_ref())
        }
    }

    #[test]
    fn collector_matches_sort_then_truncate_oracle() {
        let (store, dir) = temp_store("collect");
        let index = Arc::new(SegmentedIndex::new());
        // Distinct densities so scores differ, plus equal-score ties (the
        // pure-Context hits all score 0.0) to exercise the key tie-break.
        for i in 0..8 {
            ingest(
                &store,
                &index,
                &format!("d{i}.txt"),
                &format!(
                    "# Part{i}\nengine {} filler words here\n# Empty{i}\nnothing relevant\n",
                    "engine ".repeat(i)
                ),
            );
        }
        let eng = engine_with(
            &store,
            &index,
            QueryEngineOptions {
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
        );
        let rank = |q: XdbQuery| q.with_rank(netmark_xdb::RankMode::Bm25);
        let all = eng.execute(&rank(XdbQuery::content("engine"))).unwrap();
        let mid = all.hits[3].score.unwrap();
        let shapes = [
            XdbQuery::content("engine"),
            rank(XdbQuery::content("engine")),
            rank(XdbQuery::content("engine filler")),
            XdbQuery::context("Part3"),
            rank(XdbQuery::context("Part3|Empty2|Part6")),
            rank(XdbQuery::context_content("Part5", "engine")),
            XdbQuery::context("Empty1|Empty4|Part2"),
            XdbQuery {
                doc: Some("d4.txt".into()),
                ..XdbQuery::content("engine")
            },
            XdbQuery {
                doc: Some("d6.txt".into()),
                ..rank(XdbQuery::content("engine"))
            },
            rank(XdbQuery::content("engine")).with_min_score(mid),
            rank(XdbQuery::content("engine filler")).with_min_score(mid),
            XdbQuery::content("engine").with_min_score(1000.0),
        ];
        for limit in [None, Some(0), Some(1), Some(3), Some(8), Some(100)] {
            for shape in &shapes {
                let q = match limit {
                    Some(k) => shape.clone().with_limit(k),
                    None => shape.clone(),
                };
                let got = eng.execute(&q).unwrap();
                assert_eq!(got, reference_answer(&eng, &q), "query {q}");
                if limit.is_none() {
                    assert!(!got.truncated, "unlimited never truncates: {q}");
                }
            }
        }
        assert!(eng.stats().heap_evictions > 0, "k=1 over 8 docs evicts");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranked_single_keyword_fast_path_equals_general_path() {
        let (store, dir) = temp_store("fast");
        let index = Arc::new(SegmentedIndex::new());
        for i in 0..6 {
            ingest(
                &store,
                &index,
                &format!("f{i}.txt"),
                &format!(
                    "# Intro{i}\n{}stall\n# Detail{i}\nengine notes\n",
                    "engine ".repeat(i % 3)
                ),
            );
        }
        let eng = engine_with(
            &store,
            &index,
            QueryEngineOptions {
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
        );
        let view = store.begin_read().unwrap();
        let snap = index.snapshot();
        for base in [
            XdbQuery::content("engine"),
            XdbQuery::content("ENGINE"),
            XdbQuery::content("stall"),
            XdbQuery::content("missing"),
        ] {
            for limit in [None, Some(2)] {
                let mut q = base.clone().with_rank(netmark_xdb::RankMode::Bm25);
                q.limit = limit;
                let mut trace = QueryTrace::default();
                let (ctxs, scores) = eng
                    .matched_contexts(&q, &view, &snap, view.generation(), &mut trace)
                    .unwrap();
                let general = collect_hits(&view, &q, ctxs, scores.as_ref(), &mut trace).unwrap();
                assert_eq!(eng.execute(&q).unwrap(), general, "query {q}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn min_score_floor_filters_before_limit() {
        let (store, dir) = temp_store("floor");
        let index = Arc::new(SegmentedIndex::new());
        ingest(
            &store,
            &index,
            "hot.txt",
            "# Faults\nengine engine engine stall\n",
        );
        ingest(
            &store,
            &index,
            "cold.txt",
            "# Notes\nthe engine review covered many unrelated topics and ran very long indeed\n",
        );
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let base = XdbQuery::content("engine").with_rank(netmark_xdb::RankMode::Bm25);
        let all = eng.execute(&base).unwrap();
        assert_eq!(all.hits.len(), 2);
        let (hi, lo) = (all.hits[0].score.unwrap(), all.hits[1].score.unwrap());
        assert!(hi > lo);
        // A floor between the two scores drops the weak hit — and with
        // limit=1 the strong hit still arrives (filter cuts before limit).
        let floored_q = base.clone().with_limit(1).with_min_score((hi + lo) / 2.0);
        let floored = eng.execute(&floored_q).unwrap();
        assert_eq!(floored.hits.len(), 1);
        assert_eq!(floored.hits[0].doc, "hot.txt");
        assert!(!floored.truncated, "the floor, not the limit, cut cold.txt");
        assert_eq!(floored, reference_answer(&eng, &floored_q));
        // A floor at or above every score yields nothing: the comparison
        // is strict, so a hit scoring exactly the floor is dropped.
        let none = eng.execute(&base.clone().with_min_score(hi)).unwrap();
        assert!(none.hits.is_empty());
        // min_score on an unranked query is inert: no scores to compare.
        let unranked = eng
            .execute(&XdbQuery::content("engine").with_min_score(1000.0))
            .unwrap();
        assert_eq!(unranked.hits.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranked_single_keyword_books_context_walk() {
        let (store, dir) = temp_store("walk");
        let index = Arc::new(SegmentedIndex::new());
        ingest(&store, &index, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let q = XdbQuery::content("million").with_rank(netmark_xdb::RankMode::Bm25);
        let (rs, trace) = eng.execute_traced(&q).unwrap();
        assert_eq!(rs.hits.len(), 1);
        assert!(
            trace.index_lookup > Duration::ZERO,
            "scoring booked as index"
        );
        assert!(
            trace.context_walk > Duration::ZERO,
            "mapping booked as walk"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_records_stage_times() {
        let (store, dir) = temp_store("trace");
        let index = Arc::new(SegmentedIndex::new());
        ingest(&store, &index, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(&store, &index, QueryEngineOptions::default());
        let (_, trace) = eng
            .execute_traced(&XdbQuery::content("million dollars"))
            .unwrap();
        assert!(!trace.cache_hit);
        assert_eq!(trace.fanout, 2);
        assert!(trace.total >= trace.collection);
        assert!(trace.candidates >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_counts_hits_across_queries() {
        let (store, dir) = temp_store("memo");
        let index = Arc::new(SegmentedIndex::new());
        ingest(&store, &index, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(
            &store,
            &index,
            QueryEngineOptions {
                workers: 0,
                cache_capacity: 0, // force re-execution
                memo_capacity: 1024,
            },
        );
        let q = XdbQuery::content("million");
        eng.execute(&q).unwrap();
        eng.execute(&q).unwrap();
        let s = eng.stats();
        assert!(s.memo_misses >= 1);
        assert!(s.memo_hits >= 1, "second execution reuses the walk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let mut cache = ResultCache::new(2);
        let rs = Arc::new(ResultSet::default());
        cache.insert("a".into(), 1, 0, Arc::clone(&rs));
        cache.insert("b".into(), 1, 0, Arc::clone(&rs));
        assert!(cache.get("a", 1, 0).is_some()); // refresh a
        cache.insert("c".into(), 1, 0, Arc::clone(&rs));
        assert!(cache.get("b", 1, 0).is_none(), "b was LRU");
        assert!(cache.get("a", 1, 0).is_some());
        assert!(cache.get("c", 1, 0).is_some());
        // Stale stamps are misses and drop the entry.
        assert!(cache.get("a", 2, 0).is_none());
        assert!(cache.get("a", 1, 0).is_none());
    }

    #[test]
    fn cache_key_ignores_routing_fields() {
        let q1 = XdbQuery::context("Budget").with_xslt("report");
        let q2 = XdbQuery::context("Budget").with_databank("apps");
        assert_eq!(cache_key(&q1), cache_key(&q2));
        assert_ne!(cache_key(&q1), cache_key(&XdbQuery::context("Schedule")));
        assert_ne!(
            cache_key(&XdbQuery::context("Budget")),
            cache_key(&XdbQuery::context("Budget").with_limit(1)),
            "limit changes execution, so it keys the cache"
        );
    }
}
