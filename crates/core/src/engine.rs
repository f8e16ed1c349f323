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
//!    per-term postings fetch + posting→context mapping out over
//!    [`crate::scatter()`]'s bounded workers (the same executor the shard and
//!    federation coordinators use) and intersect on the way back.
//! 3. **Context resolution inside the index** — the "traverse up to the
//!    first context" step is done once, by the writer: every indexed node
//!    carries its document and governing-context node id in the text index
//!    ([`netmark_textindex::Placement`]). Matching, BM25 roll-up,
//!    intersection and top-k selection therefore run on `(doc id, context
//!    node id)` keys alone. The store is read only when the collection heap
//!    is about to admit a candidate (does its document exist in the pinned
//!    view, and what is its name — once per document) and to build the k
//!    winners (the context row and its section content). A hit whose
//!    document is absent from the pinned view is dropped, whether the
//!    index snapshot leads the view (an ingest landed after the pin) or
//!    lags it (a removal committed before the index tombstoned it).
//!
//! Every execution records per-stage wall times into
//! [`crate::metrics::QueryMetrics`], surfaced via `NetMark::stats()` and
//! `GET /xdb/stats`.

use crate::error::{NetmarkError, Result};
use crate::metrics::{QueryMetrics, QueryStats, QueryTrace};
use crate::scatter::scatter;
use crate::store::{DocId, NodeId, NodeStore, StoreView};
use netmark_textindex::{query_terms, IndexSnapshot, Placement, SegmentedIndex};
use netmark_xdb::{Hit, MatchMode, ResultSet, XdbQuery};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct QueryEngineOptions {
    /// Worker threads for parallel term execution. `0` executes every
    /// query serially on the calling thread.
    pub workers: usize,
    /// Result-cache entries. `0` disables result caching.
    pub cache_capacity: usize,
    /// Inert: the engine no longer memoizes context walks (the text index
    /// resolves contexts), so this value is ignored. Kept so existing
    /// option literals still compile.
    pub memo_capacity: usize,
}

impl Default for QueryEngineOptions {
    fn default() -> Self {
        QueryEngineOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            cache_capacity: 256,
            memo_capacity: 0,
        }
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

    /// Executes `q` bypassing the result cache. This is the "fresh" side
    /// of cache-correctness checks and the cold side of benchmarks.
    pub fn execute_uncached(&self, q: &XdbQuery) -> Result<ResultSet> {
        let t0 = Instant::now();
        let view = self.store.begin_read()?;
        let mut trace = QueryTrace::default();
        let rs = self.execute_cold(q, &view, &mut trace)?;
        trace.total = t0.elapsed();
        self.metrics.record(&trace);
        Ok(rs)
    }

    /// Cumulative read-path counters.
    pub fn stats(&self) -> QueryStats {
        self.metrics.snapshot()
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
        // Ranked single-keyword fast path: the match set IS the score map's
        // key set. Both are "the governing contexts of the live nodes
        // containing the term", resolved from the same index placements, so
        // running the scoring pass alone halves the per-match work. Scores
        // are bit-identical by construction (same `context_scores_counted`
        // body), and the collector is insensitive to candidate order, so
        // the answer is byte-identical to the general path at any limit.
        if q.ranked() && q.context.is_none() && q.match_mode == MatchMode::Keywords {
            if let Some(terms) = &q.content {
                if query_terms(terms).len() == 1 {
                    let (scores, candidates) = context_scores_counted(&snap, terms, trace);
                    trace.candidates = candidates;
                    let keys: Vec<Key> = scores.keys().copied().collect();
                    return collect_hits(view, q, keys, Some(&scores), trace);
                }
            }
        }
        let (keys, scores) = self.matched_contexts(q, view, &snap, trace)?;
        collect_hits(view, q, keys, scores.as_ref(), trace)
    }

    /// The general match path: the context keys `q` selects, plus their
    /// BM25 scores when the query is ranked and has content terms.
    fn matched_contexts(
        &self,
        q: &XdbQuery,
        view: &StoreView,
        snap: &IndexSnapshot,
        trace: &mut QueryTrace,
    ) -> Result<(Vec<Key>, Option<ContextScores>)> {
        let keys: Vec<Key> = match (&q.context, &q.content) {
            (None, None) => {
                // Unconstrained: every context in the store (bounded below
                // by the limit). Used by federation when augmenting a
                // source that answered a broader query.
                let t = Instant::now();
                let out = view.context_keys()?;
                trace.context_walk += t.elapsed();
                out
            }
            (Some(label), None) => labeled_contexts(view, snap, label, &q.exact_contexts, trace)?,
            (None, Some(terms)) => {
                let (keys, cand) = self.content_contexts(snap, terms, q.match_mode, trace);
                trace.candidates = cand;
                keys
            }
            (Some(label), Some(terms)) => {
                let labelled = labeled_contexts(view, snap, label, &q.exact_contexts, trace)?;
                let (with_content, cand) = self.content_contexts(snap, terms, q.match_mode, trace);
                trace.candidates = cand;
                let t = Instant::now();
                let set: HashSet<Key> = with_content.into_iter().collect();
                let out = labelled.into_iter().filter(|k| set.contains(k)).collect();
                trace.intersection += t.elapsed();
                out
            }
        };
        // BM25 scores are attached at collect time, not during matching:
        // the match set is exactly what `rank=none` would produce, ranking
        // only reorders it. Scoring reuses the same pinned snapshot, so
        // scores and matches describe one committed state.
        let scores = match (&q.content, q.ranked()) {
            (Some(terms), true) => Some(context_scores_counted(snap, terms, trace).0),
            _ => None,
        };
        Ok((keys, scores))
    }

    /// Context keys whose sections contain the content terms, plus the
    /// candidate count (live postings fetched). Multi-term keyword queries
    /// AND at the *section* level — every term must occur somewhere under
    /// the same context. Each term's postings fetch and context mapping
    /// runs on [`scatter`] (on the calling thread when `workers` is 0), and
    /// the answers intersect in term order, keeping the first term's order.
    fn content_contexts(
        &self,
        snap: &IndexSnapshot,
        terms: &str,
        mode: MatchMode,
        trace: &mut QueryTrace,
    ) -> (Vec<Key>, usize) {
        let term_list = query_terms(terms);
        if term_list.is_empty() {
            return (Vec::new(), 0);
        }
        if mode == MatchMode::Phrase {
            let t = Instant::now();
            let placed = snap.phrase_placed(&term_list);
            trace.index_lookup += t.elapsed();
            let t = Instant::now();
            let keys = context_keys(&placed);
            trace.context_walk += t.elapsed();
            return (keys, placed.len());
        }
        if self.workers > 0 && term_list.len() >= 2 {
            trace.fanout = term_list.len();
        }
        // Every term shares the caller's snapshot, so all of them are
        // evaluated against one committed index state.
        let wall = Instant::now();
        let per_term = scatter(&term_list, self.workers.max(1), |_, term| {
            let t = Instant::now();
            let placed = snap.phrase_placed(std::slice::from_ref(term));
            let index_t = t.elapsed();
            let t = Instant::now();
            let keys = context_keys(&placed);
            (placed.len(), index_t, t.elapsed(), keys)
        });
        // The workers overlap, so their summed times can exceed the time
        // the fan-out took: book its wall time, split between the two
        // stages in proportion to the per-worker sums.
        let wall = wall.elapsed();
        let index_sum: Duration = per_term.iter().map(|r| r.1).sum();
        let walk_sum: Duration = per_term.iter().map(|r| r.2).sum();
        let busy = (index_sum + walk_sum).as_secs_f64();
        let index_share = if busy > 0.0 {
            wall.mul_f64(index_sum.as_secs_f64() / busy)
        } else {
            wall
        };
        trace.index_lookup += index_share;
        trace.context_walk += wall.saturating_sub(index_share);
        let t = Instant::now();
        let mut candidates = 0usize;
        let mut acc: Option<Vec<Key>> = None;
        for (cand, _, _, keys) in per_term {
            candidates += cand;
            acc = Some(match acc {
                None => keys,
                Some(prev) => {
                    let set: HashSet<Key> = keys.into_iter().collect();
                    prev.into_iter().filter(|k| set.contains(k)).collect()
                }
            });
        }
        trace.intersection += t.elapsed();
        (acc.unwrap_or_default(), candidates)
    }
}

// ---------------------------------------------------------------------
// Shared stage functions

/// A candidate answer: the governing context a hit maps to, as `(doc id,
/// context node id)` — the key the collector orders on.
type Key = (DocId, NodeId);

/// The candidate key of an indexed node: its governing context, if any.
fn key_of(placement: Placement) -> Option<Key> {
    placement.context.map(|c| (placement.doc as DocId, c))
}

/// Maps placed text hits to their context keys (deduped, in
/// first-encounter order). Nodes no context governs map to nothing.
fn context_keys(placed: &[(u64, Placement)]) -> Vec<Key> {
    let mut seen: HashSet<Key> = HashSet::new();
    placed
        .iter()
        .filter_map(|&(_, p)| key_of(p))
        .filter(|k| seen.insert(*k))
        .collect()
}

/// Context keys matching a `Context=` specification. A `|`-separated
/// label list unions ("in NETMARK we have to specify two Context queries
/// (one for 'Budget' and one for 'Cost Details')" — §4; the union form
/// issues them as one client-side query, still with zero mapping
/// artifacts).
fn labeled_contexts(
    view: &StoreView,
    index: &IndexSnapshot,
    spec: &str,
    exact_only: &[String],
    trace: &mut QueryTrace,
) -> Result<Vec<Key>> {
    if spec.contains('|') {
        let mut seen: HashSet<Key> = HashSet::new();
        let mut out: Vec<Key> = Vec::new();
        for label in spec.split('|').map(str::trim).filter(|l| !l.is_empty()) {
            for key in labeled_contexts(view, index, label, exact_only, trace)? {
                if seen.insert(key) {
                    out.push(key);
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
        return Ok(exact
            .into_iter()
            .map(|(_, row)| (row.doc_id, row.node_id))
            .collect());
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
    // Context=Budget against a "Budget Overview" heading). A hit is a
    // context node exactly when it governs itself. A label with no terms
    // (e.g. `---`) matches only where it matched exactly.
    let t = Instant::now();
    let placed = index.phrase_placed(&query_terms(label));
    trace.index_lookup += t.elapsed();
    let t = Instant::now();
    let out = placed
        .into_iter()
        .filter(|&(id, p)| p.context == Some(id))
        .filter_map(|(_, p)| key_of(p))
        .collect();
    trace.context_walk += t.elapsed();
    Ok(out)
}

/// BM25 scores per context key.
type ContextScores = HashMap<Key, f64>;

/// Node-level BM25 scores rolled up to context keys, plus the scored-node
/// count: each matching node's score is attributed to the context that
/// would own its hit, summing when a section contains several scoring
/// nodes. Uses the same index placements as the match path, so score
/// attribution can never disagree with hit attribution. The count is what
/// the match path would report as candidates (one scored node per live
/// term posting). Scoring is booked as index lookup, the roll-up as
/// context walk.
fn context_scores_counted(
    index: &IndexSnapshot,
    terms: &str,
    trace: &mut QueryTrace,
) -> (ContextScores, usize) {
    let t = Instant::now();
    let scored = index.search_bm25_placed(terms);
    trace.index_lookup += t.elapsed();
    let t = Instant::now();
    let candidates = scored.len();
    let mut out = ContextScores::new();
    // Roll up in the scored order (score descending, id ascending): float
    // addition is order-sensitive, and every execution sums alike.
    for (_, placement, score) in scored {
        if let Some(key) = key_of(placement) {
            *out.entry(key).or_default() += score;
        }
    }
    trace.context_walk += t.elapsed();
    (out, candidates)
}

/// A candidate in the collection heap, ordered so the heap root (the max)
/// is always the *weakest* entry — the one the next stronger candidate
/// evicts. Stronger means higher score, ties broken by smaller
/// `(doc_id, node_id)` key, exactly the order a stable
/// sort-everything-then-truncate produces.
struct Weakest {
    score: f64,
    key: Key,
    /// The document's name, read at admission.
    doc: String,
}

impl Ord for Weakest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Greater = weaker: lower score first, then larger key. Scores are
        // finite BM25 sums (or 0.0), so total_cmp agrees with partial_cmp.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.key.cmp(&other.key))
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

/// Materializes the result set for the candidate context keys in one
/// pass. The `doc=` filter, the `min_score=` floor, dedup and the heap of
/// the best `limit` candidates (all of them when unlimited), keyed on
/// (score, doc, node), run on ids alone. The store is read only for a
/// candidate the heap is about to admit — does its document exist in the
/// pinned view, and what is its name (once per document) — and, once the
/// heap is full, for as many rejected candidates as it takes to find one
/// live one, which makes `truncated` exact. The winners alone pay the
/// context row and its section content. Unranked queries score every
/// candidate 0.0, which reduces the order to plain (doc, node) document
/// order.
fn collect_hits(
    view: &StoreView,
    query: &XdbQuery,
    keys: Vec<Key>,
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
    // `doc=` names documents, and names can repeat: resolve it once.
    let wanted: Option<HashSet<DocId>> = match &query.doc {
        Some(name) => Some(view.doc_ids_named(name)?.into_iter().collect()),
        None => None,
    };
    // Document names by id, `None` for a document absent from the view.
    let mut names: HashMap<DocId, Option<String>> = HashMap::new();
    let mut seen: HashSet<Key> = HashSet::new();
    let mut heap: BinaryHeap<Weakest> = BinaryHeap::new();
    // A live qualifying candidate exists beyond those the heap keeps.
    let mut truncated = false;
    for key in keys {
        if wanted.as_ref().is_some_and(|w| !w.contains(&key.0)) {
            continue;
        }
        // Ranked queries score every hit (0.0 when the section matched
        // without any scoring node, e.g. a pure Context= match).
        let score = if ranked {
            scores.and_then(|m| m.get(&key)).copied().unwrap_or(0.0)
        } else {
            0.0
        };
        if floor.is_some_and(|floor| score <= floor) {
            continue;
        }
        if !seen.insert(key) {
            continue;
        }
        let mut cand = Weakest {
            score,
            key,
            doc: String::new(),
        };
        // `cand < weakest` in Weakest order means strictly stronger:
        // higher score, or the same score with a smaller key — the exact
        // condition under which a stable sort would have placed it inside
        // the truncation boundary.
        let admits = heap.len() < limit || heap.peek().is_some_and(|weakest| cand < *weakest);
        if !admits && truncated {
            continue;
        }
        // The skew rule: a hit whose document is absent from the pinned
        // view (the index snapshot led or lagged it) is dropped.
        let name = match names.get(&key.0) {
            Some(cached) => cached.clone(),
            None => {
                let name = match view.doc_info(key.0) {
                    Ok(info) => Some(info.file_name),
                    Err(NetmarkError::NoSuchDocument(_)) => None,
                    Err(e) => return Err(e),
                };
                names.insert(key.0, name.clone());
                name
            }
        };
        let Some(name) = name else { continue };
        if !admits {
            truncated = true;
            continue;
        }
        if heap.len() >= limit {
            heap.pop();
            truncated = true;
            trace.heap_evictions += 1;
        }
        cand.doc = name;
        heap.push(cand);
    }
    // Ascending Weakest order is strongest first.
    let winners = heap.into_sorted_vec();
    let mut hits = Vec::with_capacity(winners.len());
    for w in winners {
        let (rid, row) = view.node_by_id(w.key.1)?.ok_or_else(|| {
            NetmarkError::Corrupt(format!("context node {} of a stored document", w.key.1))
        })?;
        let content = view.section_content(rid)?;
        hits.push(Hit {
            source: String::new(),
            doc: w.doc,
            context: row.data,
            content,
            context_node: row.node_id,
            // Unranked hits carry no score at all, keeping the wire bytes
            // identical to pre-ranking output.
            score: ranked.then_some(w.score),
        });
    }
    trace.collection += t.elapsed();
    Ok(ResultSet {
        truncated,
        hits,
        candidates: trace.candidates,
        ranked,
    })
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

    fn ingest(store: &NodeStore, index: &SegmentedIndex, name: &str, text: &str) -> DocId {
        let doc = netmark_docformats::upmark(name, text);
        let report = store.ingest(&doc).unwrap();
        for e in &report.index_entries {
            index.add(e.node, e.placement, &e.text);
        }
        index.commit();
        report.doc_id
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
        let gap = index.snapshot().phrase_placed(&["gap".into()]).len();
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
        keys: Vec<Key>,
        scores: Option<&ContextScores>,
    ) -> ResultSet {
        let ranked = query.ranked();
        let mut ordered: std::collections::BTreeMap<Key, Hit> = Default::default();
        for key in keys {
            let Ok(info) = view.doc_info(key.0) else {
                continue;
            };
            if query
                .doc
                .as_ref()
                .is_some_and(|wanted| *wanted != info.file_name)
            {
                continue;
            }
            let (rid, row) = view.node_by_id(key.1).unwrap().unwrap();
            let score = ranked.then(|| scores.and_then(|m| m.get(&key)).copied().unwrap_or(0.0));
            let hit = Hit {
                source: String::new(),
                doc: info.file_name,
                context: row.data.clone(),
                content: view.section_content(rid).unwrap(),
                context_node: row.node_id,
                score,
            };
            ordered.insert(key, hit);
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
        let (keys, scores) = eng.matched_contexts(q, &view, &snap, &mut trace).unwrap();
        ResultSet {
            candidates: trace.candidates,
            ..reference_collect(&view, q, keys, scores.as_ref())
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
                let (keys, scores) = eng.matched_contexts(&q, &view, &snap, &mut trace).unwrap();
                let general = collect_hits(&view, &q, keys, scores.as_ref(), &mut trace).unwrap();
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
    fn hits_from_documents_absent_from_the_view_are_dropped() {
        let (store, dir) = temp_store("skew");
        let index = Arc::new(SegmentedIndex::new());
        let eng = engine_with(
            &store,
            &index,
            QueryEngineOptions {
                workers: 0,
                cache_capacity: 0,
                memo_capacity: 0,
            },
        );
        let strong = ingest(
            &store,
            &index,
            "a.txt",
            "# Faults\nengine engine engine stall\n",
        );
        let view = store.begin_read().unwrap();
        // Ingested after the pin: the index snapshot leads `view`. One is
        // weaker than a.txt (it sorts after it in either order), one
        // stronger (the heap would admit it first).
        ingest(
            &store,
            &index,
            "b.txt",
            "# Notes\nthe engine review covered many unrelated topics at length\n",
        );
        let strongest = ingest(
            &store,
            &index,
            "z.txt",
            "# Faults\nengine engine engine engine\n",
        );
        let ranked = XdbQuery::content("engine").with_rank(netmark_xdb::RankMode::Bm25);
        let unranked = XdbQuery::content("engine");
        let docs =
            |rs: &ResultSet| -> Vec<String> { rs.hits.iter().map(|h| h.doc.clone()).collect() };
        for q in [&ranked, &unranked] {
            let one = q.clone().with_limit(1);
            let led = eng
                .execute_cold(&one, &view, &mut QueryTrace::default())
                .unwrap();
            assert_eq!(docs(&led), ["a.txt"], "index leads the view: {q}");
            assert!(!led.truncated, "absent documents do not truncate: {q}");
            let all = eng
                .execute_cold(q, &view, &mut QueryTrace::default())
                .unwrap();
            assert_eq!(docs(&all), ["a.txt"], "{q}");
            // With every document visible, the limit really does cut.
            let full = eng.execute(&one).unwrap();
            assert!(full.truncated, "{q}");
        }
        assert_eq!(
            docs(&eng.execute(&ranked.clone().with_limit(1)).unwrap()),
            ["z.txt"]
        );
        // Removed from the store but not yet from the index: the index
        // snapshot lags every new view.
        store.remove_document(strong).unwrap();
        store.remove_document(strongest).unwrap();
        for q in [&ranked, &unranked] {
            let lagged = eng.execute(&q.clone().with_limit(1)).unwrap();
            assert_eq!(docs(&lagged), ["b.txt"], "index lags the view: {q}");
            assert!(!lagged.truncated, "removed documents do not truncate: {q}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_fields_are_inert() {
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
        assert_eq!(eng.execute(&q).unwrap().hits.len(), 1);
        assert_eq!(eng.execute(&q).unwrap().hits.len(), 1);
        let s = eng.stats();
        assert_eq!((s.memo_hits, s.memo_misses), (0, 0), "no memo any more");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fanout_books_wall_time_once() {
        let (store, dir) = temp_store("wall");
        let index = Arc::new(SegmentedIndex::new());
        // Enough postings per term that the two workers overlap: summing
        // their own times would then book more than the query took.
        let text: String = (0..4000)
            .map(|i| format!("# Part{i}\nthe engine gap report {i}\n"))
            .collect();
        ingest(&store, &index, "w.txt", &text);
        let eng = engine_with(
            &store,
            &index,
            QueryEngineOptions {
                workers: 2,
                cache_capacity: 0,
                memo_capacity: 0,
            },
        );
        for _ in 0..20 {
            let (_, t) = eng
                .execute_traced(&XdbQuery::content("engine gap"))
                .unwrap();
            assert_eq!(t.fanout, 2);
            let stages = t.index_lookup + t.context_walk + t.intersection + t.collection;
            assert!(stages <= t.total, "{stages:?} > {:?}", t.total);
        }
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
