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
//! CLI. Each execution pins one MVCC [`StoreView`], which carries the
//! text-index snapshot published with it, so every stage reads a single
//! committed state of both without taking a page lock. On top of the
//! paper's pipeline it adds the three things a long-lived handle can do
//! that a per-call one cannot:
//!
//! 1. **Result caching** — a small LRU keyed on the normalized query
//!    string, stamped with the generation of the view the answer was
//!    computed on (the same stamp that validates the persisted text
//!    index). Every committed ingest batch and removal bumps the
//!    generation, and the view's index snapshot is the one published with
//!    that generation, so the stamp names exactly the state the answer
//!    read.
//! 2. **One read per term, on the calling thread** — every `Content=`
//!    term is read from the index once: its live postings, mapped to
//!    context keys and, on a ranked query, scored in the same pass. The
//!    per-term key lists meet the `Context=` list in one intersection, and
//!    ranked scores sum across terms in term order. Like the paper's
//!    pipeline, a query spawns no thread: the front end's workers are
//!    where concurrent queries overlap.
//! 3. **Context resolution inside the index** — the "traverse up to the
//!    first context" step is done once, by the writer: every indexed node
//!    carries its document and governing-context node id in the text index
//!    ([`netmark_textindex::Placement`]), and every context is posted
//!    under its whole label ([`netmark_textindex::label_term`]), so a
//!    `Context=` label is a posting list too. Matching, BM25 roll-up,
//!    intersection and top-k selection therefore run on `(doc id, context
//!    node id)` keys alone. The store is read only when the collection heap
//!    is about to admit a candidate (the name of its document, once per
//!    document) and to build the k winners (the context row and its
//!    section content). A posting whose document is absent from the view
//!    it was published with is [`NetmarkError::Corrupt`].
//!
//! Every execution records per-stage wall times into
//! [`crate::metrics::QueryMetrics`], surfaced via `NetMark::stats()` and
//! `GET /xdb/stats`.

use crate::error::{NetmarkError, Result};
use crate::metrics::{QueryMetrics, QueryStats, QueryTrace};
use crate::store::{DocId, NodeId, NodeStore, StoreView};
use netmark_model::{IdMap, IdSet};
use netmark_textindex::{label_term, query_terms, sum_scores, IndexSnapshot, Placement};
use netmark_xdb::{Hit, MatchMode, ResultSet, XdbQuery};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct QueryEngineOptions {
    /// Inert: every query runs on the thread that calls it, so this value
    /// is ignored. Kept so existing option literals still compile.
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
            workers: 0,
            cache_capacity: 256,
            memo_capacity: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Result cache

struct CacheEntry {
    gen: i64,
    last_used: u64,
    results: Arc<ResultSet>,
}

/// LRU result cache keyed on the normalized query string. Entries carry
/// the generation they were computed under and are only served while it
/// is current — ingest retires entries by bumping, never by scanning.
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

    fn get(&mut self, key: &str, gen: i64) -> Option<Arc<ResultSet>> {
        match self.map.get_mut(key) {
            Some(e) if e.gen == gen => {
                self.tick += 1;
                e.last_used = self.tick;
                Some(Arc::clone(&e.results))
            }
            Some(_) => self.map.remove(key).and(None),
            None => None,
        }
    }

    fn insert(&mut self, key: String, gen: i64, results: Arc<ResultSet>) {
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

/// Long-lived, shareable query executor over a store and its text index.
/// Each execution pins one MVCC store view, which carries the index
/// snapshot published with it, then runs every stage against that view on
/// the calling thread — so a query observes exactly one committed state,
/// and never blocks on — or is blocked by — concurrent ingest.
pub struct QueryEngine {
    store: Arc<NodeStore>,
    cache: Mutex<ResultCache>,
    metrics: QueryMetrics,
}

impl QueryEngine {
    /// Builds an engine over a shared store.
    pub fn new(store: Arc<NodeStore>, options: QueryEngineOptions) -> QueryEngine {
        QueryEngine {
            store,
            cache: Mutex::new(ResultCache::new(options.cache_capacity)),
            metrics: QueryMetrics::default(),
        }
    }

    /// Executes `q`, serving from the result cache when possible.
    pub fn execute(&self, q: &XdbQuery) -> Result<ResultSet> {
        self.execute_traced(q).map(|(rs, _)| rs)
    }

    /// Executes `q` and returns the per-stage trace alongside the results.
    pub fn execute_traced(&self, q: &XdbQuery) -> Result<(ResultSet, QueryTrace)> {
        self.run(q, true)
    }

    /// Executes `q` bypassing the result cache. This is the "fresh" side
    /// of cache-correctness checks and the cold side of benchmarks.
    pub fn execute_uncached(&self, q: &XdbQuery) -> Result<ResultSet> {
        self.run(q, false).map(|(rs, _)| rs)
    }

    fn run(&self, q: &XdbQuery, cached: bool) -> Result<(ResultSet, QueryTrace)> {
        let t0 = Instant::now();
        // Pin one view per query: the generation read through it names
        // exactly the committed state every stage will observe.
        let view = self.store.begin_read()?;
        let gen = view.generation();
        let key = cached.then(|| cache_key(q));
        if let Some(hit) = key.as_ref().and_then(|k| self.cache.lock().get(k, gen)) {
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
        if let Some(key) = key {
            self.cache.lock().insert(key, gen, Arc::new(rs.clone()));
        }
        Ok((rs, trace))
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
        // Every stage reads the view's index snapshot, whatever commits or
        // compactions land meanwhile.
        let (keys, scores) = self.matched_contexts(q, view, trace)?;
        collect_hits(view, q, keys, scores.as_ref(), trace)
    }

    /// The match path: the context keys `q` selects, plus their BM25
    /// scores when the query is ranked and has content terms. Each clause
    /// adds context-key lists and one intersection folds them, keeping
    /// the first list's order. No clause is the unconstrained query.
    fn matched_contexts(
        &self,
        q: &XdbQuery,
        view: &StoreView,
        trace: &mut QueryTrace,
    ) -> Result<(Vec<Key>, Option<ContextScores>)> {
        let mut lists: Vec<Vec<Key>> = Vec::new();
        if let Some(label) = &q.context {
            let labelled = labeled_contexts(view, label, &q.exact_contexts, trace)?;
            lists.push(labelled);
        }
        let scores = match &q.content {
            Some(content) => self.content_clause(view.index(), q, content, &mut lists, trace),
            None => None,
        };
        let t = Instant::now();
        let matched = lists.into_iter().reduce(|acc, keys| {
            let set: IdSet<Key> = keys.into_iter().collect();
            acc.into_iter().filter(|k| set.contains(k)).collect()
        });
        trace.intersection += t.elapsed();
        let keys = match matched {
            Some(keys) => keys,
            None => {
                // Unconstrained: every context in the store (bounded below
                // by the limit). Used by federation when augmenting a
                // source that answered a broader query.
                let t = Instant::now();
                let out = view.context_keys()?;
                trace.context_walk += t.elapsed();
                out
            }
        };
        Ok((keys, scores))
    }

    /// Adds a `Content=` clause's lists to `lists` and sets the candidate
    /// count (live postings read); returns the scores of a ranked query.
    /// Keyword mode ANDs at the *section* level — every term must occur
    /// somewhere under the same context — so each term adds one list;
    /// phrase mode adds its phrase read's. Each term is read once, in term
    /// order, and scored in that read on a ranked query. The match set is
    /// what `rank=none` would produce: ranking only reorders it.
    fn content_clause(
        &self,
        snap: &IndexSnapshot,
        q: &XdbQuery,
        content: &str,
        lists: &mut Vec<Vec<Key>>,
        trace: &mut QueryTrace,
    ) -> Option<ContextScores> {
        let terms = query_terms(content);
        let (ranked, keyword) = (q.ranked(), q.match_mode == MatchMode::Keywords);
        // An unranked phrase query needs its phrase read alone.
        let read: &[String] = if keyword || ranked { &terms } else { &[] };
        // Every term reads the caller's snapshot, so all of them see one
        // committed index state. Scores are attributed through the same
        // placements as the keys, so score attribution can never disagree
        // with hit attribution.
        let mut per_term_scores = Vec::with_capacity(read.len());
        for term in read {
            let t = Instant::now();
            let (placed, scored) = if ranked {
                (Vec::new(), snap.term_scores(term))
            } else {
                (snap.phrase_placed(std::slice::from_ref(term)), Vec::new())
            };
            trace.index_lookup += t.elapsed();
            if keyword {
                let t = Instant::now();
                let placements = placed.iter().map(|p| p.1).chain(scored.iter().map(|s| s.1));
                lists.push(context_keys(placements));
                trace.context_walk += t.elapsed();
                trace.candidates += placed.len() + scored.len();
            }
            per_term_scores.push(scored);
        }
        if !keyword {
            let t = Instant::now();
            let placed = snap.phrase_placed(&terms);
            trace.index_lookup += t.elapsed();
            let t = Instant::now();
            lists.push(context_keys(placed.iter().map(|p| p.1)));
            trace.context_walk += t.elapsed();
            trace.candidates = placed.len();
        } else if terms.is_empty() {
            // No terms match nothing, not everything.
            lists.push(Vec::new());
        }
        if !ranked {
            return None;
        }
        // Node scores sum across terms in term order and roll up into their
        // contexts in ascending node id, the order `sum_scores` returns:
        // float addition is order-sensitive, and every execution sums a
        // context's nodes (one document's, on one shard) alike. Summing is
        // booked as index lookup, the roll-up as context walk.
        let t = Instant::now();
        let summed = sum_scores(per_term_scores);
        trace.index_lookup += t.elapsed();
        let t = Instant::now();
        let mut out = ContextScores::default();
        for (_, placement, score) in summed {
            if let Some(key) = key_of(placement) {
                *out.entry(key).or_default() += score;
            }
        }
        trace.context_walk += t.elapsed();
        Some(out)
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

/// Maps the placements of text hits to their context keys (deduped, in
/// first-encounter order). Nodes no context governs map to nothing.
fn context_keys(placements: impl Iterator<Item = Placement>) -> Vec<Key> {
    let mut seen: IdSet<Key> = IdSet::default();
    placements
        .filter_map(key_of)
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
    spec: &str,
    exact_only: &[String],
    trace: &mut QueryTrace,
) -> Result<Vec<Key>> {
    if spec.contains('|') {
        let mut seen: IdSet<Key> = IdSet::default();
        let mut out: Vec<Key> = Vec::new();
        for label in spec.split('|').map(str::trim).filter(|l| !l.is_empty()) {
            for key in labeled_contexts(view, label, exact_only, trace)? {
                if seen.insert(key) {
                    out.push(key);
                }
            }
        }
        return Ok(out);
    }
    let label = spec;
    // Every context is posted under its whole label, lower-cased.
    let t = Instant::now();
    let exact = view.index().phrase_placed(&[label_term(label)]);
    trace.index_lookup += t.elapsed();
    if !exact.is_empty() {
        return Ok(exact.into_iter().filter_map(|(_, p)| key_of(p)).collect());
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
    let placed = view.index().phrase_placed(&query_terms(label));
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
type ContextScores = IdMap<Key, f64>;

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
/// candidate the heap is about to admit — the name of its document, once
/// per document — and the winners alone pay the context row and its
/// section content. Unranked queries score every candidate 0.0, which
/// reduces the order to plain (doc, node) document order.
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
    let wanted: Option<IdSet<DocId>> = match &query.doc {
        Some(name) => Some(view.docs_named(name)?.iter().map(|d| d.1.doc_id).collect()),
        None => None,
    };
    // Document names by id.
    let mut names: IdMap<DocId, String> = IdMap::default();
    let mut seen: IdSet<Key> = IdSet::default();
    let mut heap: BinaryHeap<Weakest> = BinaryHeap::new();
    // A qualifying candidate exists beyond those the heap keeps.
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
        if !admits {
            truncated = true;
            continue;
        }
        let name = match names.get(&key.0) {
            Some(cached) => cached.clone(),
            None => {
                // The view and its index snapshot were published together:
                // a posting of a document the view lacks is corruption.
                let info = view.doc_info(key.0).map_err(|e| match e {
                    NetmarkError::NoSuchDocument(doc) => NetmarkError::Corrupt(format!(
                        "a posting names {doc}, absent from its view"
                    )),
                    e => e,
                })?;
                names.insert(key.0, info.file_name.clone());
                info.file_name
            }
        };
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
        let store = NodeStore::open(db, Default::default(), |_| None);
        (Arc::new(store.unwrap()), dir)
    }

    fn ingest(store: &NodeStore, name: &str, text: &str) -> DocId {
        let doc = netmark_docformats::upmark(name, text);
        store.ingest(&doc).unwrap().doc_id
    }

    fn engine_with(store: &Arc<NodeStore>, opts: QueryEngineOptions) -> QueryEngine {
        QueryEngine::new(Arc::clone(store), opts)
    }

    #[test]
    fn cache_hit_returns_same_results_and_counts() {
        let (store, dir) = temp_store("cache");
        ingest(&store, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(&store, QueryEngineOptions::default());
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
    fn generation_bump_misses_the_cache() {
        let (store, dir) = temp_store("inval");
        ingest(&store, "a.txt", "# Budget\ntwo million\n");
        let eng = engine_with(&store, QueryEngineOptions::default());
        let q = XdbQuery::context("Budget");
        assert_eq!(eng.execute(&q).unwrap().len(), 1);
        assert_eq!(eng.execute(&q).unwrap().len(), 1); // cached
        ingest(&store, "b.txt", "# Budget\none million\n");
        assert_eq!(eng.execute(&q).unwrap().len(), 2, "new doc visible");
        assert_eq!(eng.stats().cache_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_term_counts_toward_candidates() {
        let (store, dir) = temp_store("cand");
        ingest(
            &store,
            "a.txt",
            "# Budget\nthe gap is shrinking fast\n# Risks\nthe schedule gap\n",
        );
        ingest(
            &store,
            "b.txt",
            "# Budget\nthe gap is growing\n# Schedule\nthree years\n",
        );
        let opts = QueryEngineOptions {
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        };
        let eng = engine_with(&store, opts);
        let snap = store.index.snapshot();
        let postings = |term: &str| snap.phrase_placed(&[term.to_string()]).len();
        let queries = [
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
        ];
        let ranked = queries
            .clone()
            .map(|q| q.with_rank(netmark_xdb::RankMode::Bm25));
        // Every term's live postings count, whatever the intersection did.
        for q in queries.into_iter().chain(ranked) {
            let (rs, trace) = eng.execute_traced(&q).unwrap();
            let want: usize = query_terms(q.content.as_deref().unwrap())
                .iter()
                .map(|t| postings(t))
                .sum();
            assert_eq!(trace.candidates, want, "query {q}");
            assert_eq!(rs.candidates, want, "query {q}");
        }
        let (rs, _) = eng.execute_traced(&XdbQuery::content("zebra gap")).unwrap();
        assert!(rs.hits.is_empty());
        assert_eq!(rs.candidates, postings("gap"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranked_queries_score_sort_and_preserve_match_set() {
        let (store, dir) = temp_store("rank");
        // a: one mention diluted in a long section; b: dense mentions in a
        // short one — BM25 must put b first, ingest order puts a first.
        ingest(
            &store,
            "a.txt",
            "# Notes\nthe engine review covered many unrelated topics and ran very long indeed\n",
        );
        ingest(&store, "b.txt", "# Faults\nengine engine engine stall\n");
        let eng = engine_with(&store, QueryEngineOptions::default());
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
            let info = view.doc_info(key.0).unwrap();
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
        let mut trace = QueryTrace::default();
        let (keys, scores) = eng.matched_contexts(q, &view, &mut trace).unwrap();
        ResultSet {
            candidates: trace.candidates,
            ..reference_collect(&view, q, keys, scores.as_ref())
        }
    }

    #[test]
    fn collector_matches_sort_then_truncate_oracle() {
        let (store, dir) = temp_store("collect");
        // Distinct densities so scores differ, plus equal-score ties (the
        // pure-Context hits all score 0.0) to exercise the key tie-break.
        for i in 0..8 {
            ingest(
                &store,
                &format!("d{i}.txt"),
                &format!(
                    "# Part{i}\nengine {} filler words here\n# Empty{i}\nnothing relevant\n",
                    "engine ".repeat(i)
                ),
            );
        }
        let eng = engine_with(
            &store,
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

    /// The score oracle: the reference `InvertedIndex`, fed the same
    /// entries, scores nodes with its own BM25; rolled up to contexts in
    /// ascending node id through the snapshot's placements, those sums must
    /// be every ranked hit's score bit for bit, in (score descending, key
    /// ascending) order.
    #[test]
    fn ranked_scores_equal_reference_oracle() {
        let (store, dir) = temp_store("oracle");
        let mut reference = netmark_textindex::InvertedIndex::new();
        let mut add = |name: &str, text: &str| {
            let doc = netmark_docformats::upmark(name, text);
            let report = store.ingest(&doc).unwrap();
            for e in &report.index_entries {
                reference.add(e.node, &e.text);
            }
        };
        for i in 0..6 {
            add(
                &format!("f{i}.txt"),
                &format!(
                    "# Intro{i}\n{}stall\n# Detail{i}\nengine notes\n",
                    "engine ".repeat(i % 3)
                ),
            );
        }
        for i in 0..4 {
            add(
                &format!("g{i}.txt"),
                &format!(
                    "# Budget\nthe gap {}is an engine stall\n# Risks\nschedule gap engine notes\n",
                    "gap ".repeat(i)
                ),
            );
        }
        let eng = engine_with(
            &store,
            QueryEngineOptions {
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
        );
        let snap = store.index.snapshot();
        let rank = |q: XdbQuery| q.with_rank(netmark_xdb::RankMode::Bm25);
        let shapes = [
            XdbQuery::content("engine"),
            XdbQuery::content("ENGINE"),
            XdbQuery::content("stall"),
            XdbQuery::content("missing"),
            XdbQuery::content("engine stall"),
            XdbQuery::content("gap engine notes"),
            XdbQuery::content("gap gap"),
            XdbQuery::content("engine notes").with_phrase_match(),
            XdbQuery::content("gap is").with_phrase_match(),
            XdbQuery::context_content("Budget", "gap engine"),
            XdbQuery::context_content("Risks|Detail2|Intro4", "engine"),
        ];
        for shape in shapes.map(rank) {
            let content = shape.content.clone().unwrap();
            let mut want: HashMap<NodeId, f64> = HashMap::new();
            let mut scored = reference.search_bm25(&content);
            scored.sort_unstable_by_key(|&(id, _)| id);
            for (id, score) in scored {
                if let Some(ctx) = snap.placement(id).and_then(|p| p.context) {
                    *want.entry(ctx).or_default() += score;
                }
            }
            let terms = query_terms(&content);
            let candidates = match shape.match_mode {
                MatchMode::Keywords => terms
                    .iter()
                    .map(|t| reference.phrase(std::slice::from_ref(t)).len())
                    .sum(),
                MatchMode::Phrase => reference.phrase(&terms).len(),
            };
            let all = eng.execute(&shape).unwrap();
            // Ranking only reorders the match set.
            let mut nodes: Vec<NodeId> = all.hits.iter().map(|h| h.context_node).collect();
            nodes.sort_unstable();
            let unranked = XdbQuery {
                rank: netmark_xdb::RankMode::None,
                ..shape.clone()
            };
            let plain: Vec<NodeId> = eng
                .execute(&unranked)
                .unwrap()
                .hits
                .iter()
                .map(|h| h.context_node)
                .collect();
            assert_eq!(nodes, plain, "match set of {shape}");
            let floor = all.hits.get(1).and_then(|h| h.score);
            let mut queries = vec![shape.clone()];
            for k in [1, 3] {
                queries.push(shape.clone().with_limit(k));
            }
            if let Some(floor) = floor {
                queries.push(shape.clone().with_min_score(floor));
                queries.push(shape.clone().with_limit(1).with_min_score(floor));
            }
            for q in queries {
                let got = eng.execute(&q).unwrap();
                assert_eq!(got.candidates, candidates, "candidates of {q}");
                for h in &got.hits {
                    let score = h.score.expect("ranked hits carry a score");
                    assert_eq!(score.to_bits(), want[&h.context_node].to_bits(), "{q}");
                    assert!(q.min_score.is_none_or(|f| score > f), "{q}");
                }
                for w in got.hits.windows(2) {
                    let (a, b) = (w[0].score.unwrap(), w[1].score.unwrap());
                    assert!(
                        a > b || (a == b && w[0].context_node < w[1].context_node),
                        "{q}"
                    );
                }
                let above = all
                    .hits
                    .iter()
                    .filter(|h| q.min_score.is_none_or(|f| h.score.unwrap() > f));
                let expect = above.count().min(q.limit.unwrap_or(usize::MAX));
                assert_eq!(got.hits.len(), expect, "{q}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A context's score is the sum of its nodes' scores in ascending node
    /// id. Over three or more nodes that order matters in the last bits,
    /// so the corpus gives contexts several scoring paragraphs, and the
    /// test first finds a context where the score-descending order (the
    /// order before sums rolled up by id) gives other bits.
    #[test]
    fn ranked_scores_roll_up_in_node_id_order() {
        let (store, dir) = temp_store("rollup");
        for i in 0..6 {
            let paragraphs: Vec<String> = (0..4)
                .map(|j| {
                    let filler = "words ".repeat((i * 7 + j * 5) % 11);
                    format!("{}stall {filler}", "engine ".repeat(1 + (i + j * 3) % 4))
                })
                .collect();
            let text = format!("# Engine review {i}\n{}\n", paragraphs.join("\n\n"));
            ingest(&store, &format!("r{i}.txt"), &text);
        }
        let eng = engine_with(&store, QueryEngineOptions::default());
        let snap = store.index.snapshot();
        for content in ["engine", "engine stall"] {
            let per_term = query_terms(content)
                .into_iter()
                .map(|t| snap.term_scores(&t));
            let mut by_context: HashMap<NodeId, Vec<(u64, f64)>> = HashMap::new();
            for (id, placement, score) in sum_scores(per_term) {
                if let Some(ctx) = placement.context {
                    by_context.entry(ctx).or_default().push((id, score));
                }
            }
            let sum = |nodes: &[(u64, f64)]| nodes.iter().fold(0.0, |acc, n| acc + n.1);
            let mut reordered = 0;
            for nodes in by_context.values_mut() {
                nodes.sort_unstable_by_key(|n| n.0);
                let mut by_score = nodes.clone();
                by_score.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                reordered += usize::from(sum(&by_score).to_bits() != sum(nodes).to_bits());
            }
            assert!(
                reordered > 0,
                "no context of {content:?} tells the orders apart"
            );
            let q = XdbQuery::content(content).with_rank(netmark_xdb::RankMode::Bm25);
            let rs = eng.execute(&q).unwrap();
            assert_eq!(rs.hits.len(), by_context.len());
            for h in &rs.hits {
                let want = sum(&by_context[&h.context_node]);
                assert_eq!(h.score.unwrap().to_bits(), want.to_bits(), "{q}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn min_score_floor_filters_before_limit() {
        let (store, dir) = temp_store("floor");
        ingest(&store, "hot.txt", "# Faults\nengine engine engine stall\n");
        ingest(
            &store,
            "cold.txt",
            "# Notes\nthe engine review covered many unrelated topics and ran very long indeed\n",
        );
        let eng = engine_with(&store, QueryEngineOptions::default());
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
        ingest(&store, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(&store, QueryEngineOptions::default());
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
        ingest(&store, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(&store, QueryEngineOptions::default());
        let (_, trace) = eng
            .execute_traced(&XdbQuery::content("million dollars"))
            .unwrap();
        assert!(!trace.cache_hit);
        assert!(trace.total >= trace.collection);
        assert!(trace.candidates >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_fields_are_inert() {
        let (store, dir) = temp_store("memo");
        ingest(&store, "a.txt", "# Budget\ntwo million dollars\n");
        let eng = engine_with(
            &store,
            QueryEngineOptions {
                cache_capacity: 0, // force re-execution
                memo_capacity: 1024,
                ..QueryEngineOptions::default()
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
    fn stages_never_exceed_total() {
        let (store, dir) = temp_store("stages");
        let text: String = (0..4000)
            .map(|i| format!("# Part{i}\nthe engine gap report {i}\n"))
            .collect();
        ingest(&store, "w.txt", &text);
        let eng = engine_with(
            &store,
            QueryEngineOptions {
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
        );
        let plain = XdbQuery::content("engine gap");
        let ranked = plain.clone().with_rank(netmark_xdb::RankMode::Bm25);
        for q in [plain, ranked].iter().cycle().take(20) {
            let (_, t) = eng.execute_traced(q).unwrap();
            let stages = t.index_lookup + t.context_walk + t.intersection + t.collection;
            assert!(stages <= t.total, "{q}: {stages:?} > {:?}", t.total);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let mut cache = ResultCache::new(2);
        let rs = Arc::new(ResultSet::default());
        cache.insert("a".into(), 1, Arc::clone(&rs));
        cache.insert("b".into(), 1, Arc::clone(&rs));
        assert!(cache.get("a", 1).is_some()); // refresh a
        cache.insert("c".into(), 1, Arc::clone(&rs));
        assert!(cache.get("b", 1).is_none(), "b was LRU");
        assert!(cache.get("a", 1).is_some());
        assert!(cache.get("c", 1).is_some());
        // Stale stamps are misses and drop the entry.
        assert!(cache.get("a", 2).is_none());
        assert!(cache.get("a", 1).is_none());
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
