//! Per-stage ingest instrumentation.
//!
//! Every ingest path — single [`crate::NetMark::insert_file`] calls, batch
//! ingest, and the staged pipeline — feeds the same [`IngestMetrics`]
//! counters, so `NetMark::stats()` always reflects cumulative ingest work:
//! documents and nodes written, batch count, and wall time split across the
//! three stages (upmark parsing, store transaction, text indexing).
//!
//! The counters are atomics: recording from pipeline worker threads never
//! takes a lock, and reading via [`IngestMetrics::snapshot`] never blocks
//! an ingest.
//!
//! [`SourceMetrics`] is the query-side sibling: per-source federation
//! health (latency, failures, circuit-breaker activity), recorded by the
//! thin router's fan-out threads with the same lock-free discipline.
//!
//! [`QueryMetrics`] instruments the local read path: every query executed
//! by the [`crate::engine::QueryEngine`] folds its per-stage wall times
//! (index lookup, context walk, intersection, content collection) and its
//! cache outcome into these counters, surfaced via `NetMark::stats()` and
//! the `GET /xdb/stats` endpoint.

use netmark_model::Node;
use netmark_relstore::MvccStats;
use netmark_textindex::IndexStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Renders the `<index …/>` element served under `GET /xdb/stats`:
/// segmented text-index gauges (segment chain, tombstone backlog) and
/// lifetime counters (seals, compaction merges and purges, incremental
/// saves). [`IndexStats`] lives in `netmark-textindex`, which has no XML
/// dependency, so the rendering lives here with the other stat nodes.
pub fn index_stats_node(s: &IndexStats) -> Node {
    Node::element("index")
        .with_attr("docs", &s.docs.to_string())
        .with_attr("terms", &s.terms.to_string())
        .with_attr("postings", &s.postings.to_string())
        .with_attr("postings-bytes", &s.bytes.to_string())
        .with_attr("segments", &s.segments.to_string())
        .with_attr("tombstones", &s.tombstones.to_string())
        .with_attr("commits", &s.commits.to_string())
        .with_attr("seals", &s.seals.to_string())
        .with_attr("compactions", &s.compactions.to_string())
        .with_attr("segments-merged", &s.segments_merged.to_string())
        .with_attr("postings-purged", &s.postings_purged.to_string())
        .with_attr("ids-purged", &s.ids_purged.to_string())
        .with_attr("saves", &s.saves.to_string())
        .with_attr("segments-written", &s.segments_written.to_string())
}

/// Renders the `<mvcc …/>` element served under `GET /xdb/stats`: the
/// storage engine's multi-version gauges (current commit version, live
/// pinned read views, copy-on-write overlay size) and lifetime counters
/// (views opened/evicted, versions published). [`MvccStats`] lives in
/// `netmark-relstore`, which has no XML dependency, so the rendering lives
/// here with the other stat nodes.
pub fn mvcc_stats_node(s: &MvccStats) -> Node {
    Node::element("mvcc")
        .with_attr("version", &s.version.to_string())
        .with_attr("live-views", &s.live_views.to_string())
        .with_attr("views-opened", &s.views_opened.to_string())
        .with_attr("views-evicted", &s.views_evicted.to_string())
        .with_attr("publishes", &s.publishes.to_string())
        .with_attr("overlay-pages", &s.overlay_pages.to_string())
        .with_attr("overlay-bytes", &s.overlay_bytes.to_string())
}

/// Cumulative ingest counters (lock-free; shared across threads).
#[derive(Debug, Default)]
pub struct IngestMetrics {
    documents: AtomicU64,
    nodes: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    max_queue_depth: AtomicU64,
    upmark_nanos: AtomicU64,
    store_nanos: AtomicU64,
    index_nanos: AtomicU64,
}

impl IngestMetrics {
    /// Records wall time spent upmarking (stage 1). Documents are counted
    /// at commit time by [`IngestMetrics::record_store`], so a parsed file
    /// that never commits is not inflated into the throughput numbers.
    pub fn record_upmark(&self, elapsed: Duration) {
        self.upmark_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one committed store batch of `docs` documents totalling
    /// `nodes` rows (stage 2).
    pub fn record_store(&self, docs: u64, nodes: u64, elapsed: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.documents.fetch_add(docs, Ordering::Relaxed);
        self.nodes.fetch_add(nodes, Ordering::Relaxed);
        self.store_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records time spent feeding the text index (stage 3).
    pub fn record_index(&self, elapsed: Duration) {
        self.index_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one file that failed to ingest (isolated, not fatal).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed pipeline queue depth into the high-water mark.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (each field is read
    /// atomically; the set is not a single snapshot, which is fine for
    /// monitoring).
    pub fn snapshot(&self) -> IngestStats {
        IngestStats {
            documents: self.documents.load(Ordering::Relaxed),
            nodes: self.nodes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            upmark_time: Duration::from_nanos(self.upmark_nanos.load(Ordering::Relaxed)),
            store_time: Duration::from_nanos(self.store_nanos.load(Ordering::Relaxed)),
            index_time: Duration::from_nanos(self.index_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of [`IngestMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Documents upmarked.
    pub documents: u64,
    /// `XML` rows written.
    pub nodes: u64,
    /// Store batches committed.
    pub batches: u64,
    /// Files that failed to ingest.
    pub errors: u64,
    /// High-water mark of the pipeline document queue.
    pub max_queue_depth: u64,
    /// Wall time in the upmark stage (summed across workers).
    pub upmark_time: Duration,
    /// Wall time inside store transactions.
    pub store_time: Duration,
    /// Wall time feeding the text index.
    pub index_time: Duration,
}

impl IngestStats {
    /// Counters accumulated since `earlier` (for per-run deltas over the
    /// cumulative metrics).
    pub fn since(&self, earlier: &IngestStats) -> IngestStats {
        IngestStats {
            documents: self.documents - earlier.documents,
            nodes: self.nodes - earlier.nodes,
            batches: self.batches - earlier.batches,
            errors: self.errors - earlier.errors,
            max_queue_depth: self.max_queue_depth.max(earlier.max_queue_depth),
            upmark_time: self.upmark_time - earlier.upmark_time,
            store_time: self.store_time - earlier.store_time,
            index_time: self.index_time - earlier.index_time,
        }
    }

    /// Mean documents per committed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.documents as f64 / self.batches as f64
        }
    }

    /// Ingest throughput in documents/second over `wall` elapsed time.
    pub fn docs_per_sec(&self, wall: Duration) -> f64 {
        per_sec(self.documents, wall)
    }

    /// Ingest throughput in nodes/second over `wall` elapsed time.
    pub fn nodes_per_sec(&self, wall: Duration) -> f64 {
        per_sec(self.nodes, wall)
    }
}

/// Cumulative per-source federation counters (lock-free; shared between
/// the router's fan-out threads and monitoring readers).
///
/// The router keeps one of these per registered source; every federated
/// query records its outcome here — latency, hit counts, failures, and
/// circuit-breaker activity — so source health is observable without
/// scraping query results.
#[derive(Debug, Default)]
pub struct SourceMetrics {
    queries: AtomicU64,
    failures: AtomicU64,
    hits: AtomicU64,
    latency_nanos: AtomicU64,
    max_latency_nanos: AtomicU64,
    breaker_opens: AtomicU64,
    short_circuits: AtomicU64,
}

impl SourceMetrics {
    /// Records one completed source query: hits contributed, wall latency,
    /// and whether the source failed (a failed source still has latency —
    /// the time spent finding out).
    pub fn record_query(&self, hits: u64, latency: Duration, failed: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
        if failed {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        let nanos = latency.as_nanos() as u64;
        self.latency_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_latency_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a circuit-breaker transition to open.
    pub fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query answered without touching the source because its
    /// breaker was open.
    pub fn record_short_circuit(&self) {
        self.short_circuits.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> SourceStats {
        SourceStats {
            queries: self.queries.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            total_latency: Duration::from_nanos(self.latency_nanos.load(Ordering::Relaxed)),
            max_latency: Duration::from_nanos(self.max_latency_nanos.load(Ordering::Relaxed)),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            short_circuits: self.short_circuits.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`SourceMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Queries dispatched to (or short-circuited at) this source.
    pub queries: u64,
    /// Queries that ended in a source error.
    pub failures: u64,
    /// Hits contributed across all queries.
    pub hits: u64,
    /// Summed query latency.
    pub total_latency: Duration,
    /// Worst single-query latency.
    pub max_latency: Duration,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Queries skipped because the breaker was open.
    pub short_circuits: u64,
}

impl SourceStats {
    /// Mean per-query latency.
    pub fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.queries as u32
        }
    }

    /// Fraction of queries that failed (0.0 when none ran).
    pub fn failure_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.failures as f64 / self.queries as f64
        }
    }
}

/// Per-stage record of one executed query, returned by
/// `QueryEngine::execute_traced` and folded into [`QueryMetrics`].
///
/// A cache hit short-circuits execution: only `total` is meaningful then.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// The result came straight from the generation-stamped cache.
    pub cache_hit: bool,
    /// Wall time querying the text index (postings fetch, BM25 scoring,
    /// CTXKEY probe).
    pub index_lookup: Duration,
    /// Wall time walking rowid chains up to governing contexts.
    pub context_walk: Duration,
    /// Wall time intersecting per-term / context ∩ content rowid sets.
    pub intersection: Duration,
    /// Wall time collecting section content for surviving contexts.
    pub collection: Duration,
    /// End-to-end wall time, including cache probes.
    pub total: Duration,
    /// Text-index candidate postings examined.
    pub candidates: usize,
    /// Terms fanned out on the engine's `scatter` workers (0 = executed
    /// serially).
    pub fanout: usize,
    /// Candidates that displaced the weakest entry of a full collection
    /// heap (zero when the query carries no limit, or fewer candidates).
    pub heap_evictions: u64,
}

/// Cumulative read-path counters (lock-free; shared across server
/// threads). One per [`crate::engine::QueryEngine`].
#[derive(Debug, Default)]
pub struct QueryMetrics {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    parallel_queries: AtomicU64,
    candidates: AtomicU64,
    heap_evictions: AtomicU64,
    index_nanos: AtomicU64,
    walk_nanos: AtomicU64,
    intersect_nanos: AtomicU64,
    collect_nanos: AtomicU64,
    total_nanos: AtomicU64,
}

impl QueryMetrics {
    /// Folds one completed query into the counters.
    pub fn record(&self, trace: &QueryTrace) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.total_nanos
            .fetch_add(trace.total.as_nanos() as u64, Ordering::Relaxed);
        if trace.cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(trace.candidates as u64, Ordering::Relaxed);
        self.heap_evictions
            .fetch_add(trace.heap_evictions, Ordering::Relaxed);
        if trace.fanout > 0 {
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.index_nanos
            .fetch_add(trace.index_lookup.as_nanos() as u64, Ordering::Relaxed);
        self.walk_nanos
            .fetch_add(trace.context_walk.as_nanos() as u64, Ordering::Relaxed);
        self.intersect_nanos
            .fetch_add(trace.intersection.as_nanos() as u64, Ordering::Relaxed);
        self.collect_nanos
            .fetch_add(trace.collection.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters. Memo fields are zero here; the
    /// engine's `stats()` accessor splices them in from its context memo.
    pub fn snapshot(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            parallel_queries: self.parallel_queries.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            heap_evictions: self.heap_evictions.load(Ordering::Relaxed),
            memo_hits: 0,
            memo_misses: 0,
            store_version: 0,
            live_views: 0,
            views_evicted: 0,
            index_time: Duration::from_nanos(self.index_nanos.load(Ordering::Relaxed)),
            walk_time: Duration::from_nanos(self.walk_nanos.load(Ordering::Relaxed)),
            intersect_time: Duration::from_nanos(self.intersect_nanos.load(Ordering::Relaxed)),
            collect_time: Duration::from_nanos(self.collect_nanos.load(Ordering::Relaxed)),
            total_time: Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of [`QueryMetrics`] (plus context-memo counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries executed (hits + misses).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that executed cold.
    pub cache_misses: u64,
    /// Cold queries whose terms fanned out on the engine's workers.
    pub parallel_queries: u64,
    /// Cumulative text-index candidates examined.
    pub candidates: u64,
    /// Cumulative collection-heap evictions.
    pub heap_evictions: u64,
    /// rowid→context walks answered by the memo.
    pub memo_hits: u64,
    /// rowid→context walks computed (and memoized).
    pub memo_misses: u64,
    /// Storage MVCC gauge: current committed version (LSN) queries pin.
    pub store_version: u64,
    /// Storage MVCC gauge: read views pinned right now.
    pub live_views: u64,
    /// Storage MVCC counter: views evicted by checkpoints for exceeding
    /// the configured `max_view_lag`.
    pub views_evicted: u64,
    /// Cumulative wall time in text-index lookups.
    pub index_time: Duration,
    /// Cumulative wall time walking to governing contexts.
    pub walk_time: Duration,
    /// Cumulative wall time intersecting rowid sets.
    pub intersect_time: Duration,
    /// Cumulative wall time collecting section content.
    pub collect_time: Duration,
    /// Cumulative end-to-end wall time.
    pub total_time: Duration,
}

impl QueryStats {
    /// Fraction of queries answered from the cache (0.0 when none ran).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean end-to-end latency per query.
    pub fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.queries as u32
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &QueryStats) -> QueryStats {
        QueryStats {
            queries: self.queries - earlier.queries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            parallel_queries: self.parallel_queries - earlier.parallel_queries,
            candidates: self.candidates - earlier.candidates,
            heap_evictions: self.heap_evictions - earlier.heap_evictions,
            memo_hits: self.memo_hits - earlier.memo_hits,
            memo_misses: self.memo_misses - earlier.memo_misses,
            // Version and live-view counts are gauges, not counters: a
            // delta keeps the later reading rather than subtracting.
            store_version: self.store_version,
            live_views: self.live_views,
            views_evicted: self.views_evicted - earlier.views_evicted,
            index_time: self.index_time - earlier.index_time,
            walk_time: self.walk_time - earlier.walk_time,
            intersect_time: self.intersect_time - earlier.intersect_time,
            collect_time: self.collect_time - earlier.collect_time,
            total_time: self.total_time - earlier.total_time,
        }
    }

    /// Folds another store's stats into this one — the sharded-mode
    /// aggregation. Counters and cumulative durations sum across shards;
    /// gauges (`store_version`, `live_views`) take the max, because
    /// summing instantaneous readings from independent stores fabricates
    /// a value no store ever reported.
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.parallel_queries += other.parallel_queries;
        self.candidates += other.candidates;
        self.heap_evictions += other.heap_evictions;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.store_version = self.store_version.max(other.store_version);
        self.live_views = self.live_views.max(other.live_views);
        self.views_evicted += other.views_evicted;
        self.index_time += other.index_time;
        self.walk_time += other.walk_time;
        self.intersect_time += other.intersect_time;
        self.collect_time += other.collect_time;
        self.total_time += other.total_time;
    }

    /// Renders the `<query …/>` element served under `GET /xdb/stats`,
    /// with the collection-heap evictions as a nested `<topk/>` child.
    /// Durations are microseconds — query stages are routinely sub-ms.
    pub fn to_node(&self) -> Node {
        let topk =
            Node::element("topk").with_attr("heap-evictions", &self.heap_evictions.to_string());
        Node::element("query")
            .with_attr("queries", &self.queries.to_string())
            .with_attr("cache-hits", &self.cache_hits.to_string())
            .with_attr("cache-misses", &self.cache_misses.to_string())
            .with_attr("parallel", &self.parallel_queries.to_string())
            .with_attr("candidates", &self.candidates.to_string())
            .with_attr("memo-hits", &self.memo_hits.to_string())
            .with_attr("memo-misses", &self.memo_misses.to_string())
            .with_attr("store-version", &self.store_version.to_string())
            .with_attr("live-views", &self.live_views.to_string())
            .with_attr("views-evicted", &self.views_evicted.to_string())
            .with_attr("index-us", &(self.index_time.as_micros()).to_string())
            .with_attr("walk-us", &(self.walk_time.as_micros()).to_string())
            .with_attr(
                "intersect-us",
                &(self.intersect_time.as_micros()).to_string(),
            )
            .with_attr("collect-us", &(self.collect_time.as_micros()).to_string())
            .with_attr("total-us", &(self.total_time.as_micros()).to_string())
            .with_child(topk)
    }
}

fn per_sec(count: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = IngestMetrics::default();
        m.record_upmark(Duration::from_millis(30));
        m.record_store(2, 120, Duration::from_millis(50));
        m.record_store(1, 80, Duration::from_millis(20));
        m.record_index(Duration::from_millis(5));
        m.record_error();
        m.observe_queue_depth(4);
        m.observe_queue_depth(2);
        let s = m.snapshot();
        assert_eq!(s.documents, 3);
        assert_eq!(s.nodes, 200);
        assert_eq!(s.batches, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.max_queue_depth, 4, "high-water mark, not last value");
        assert_eq!(s.upmark_time, Duration::from_millis(30));
        assert_eq!(s.store_time, Duration::from_millis(70));
        assert_eq!(s.mean_batch_size(), 1.5);
    }

    #[test]
    fn source_metrics_accumulate() {
        let m = SourceMetrics::default();
        m.record_query(3, Duration::from_millis(10), false);
        m.record_query(0, Duration::from_millis(30), true);
        m.record_breaker_open();
        m.record_short_circuit();
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.total_latency, Duration::from_millis(40));
        assert_eq!(s.max_latency, Duration::from_millis(30));
        assert_eq!(s.mean_latency(), Duration::from_millis(20));
        assert_eq!(s.failure_rate(), 0.5);
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.short_circuits, 1);
        assert_eq!(SourceStats::default().mean_latency(), Duration::ZERO);
        assert_eq!(SourceStats::default().failure_rate(), 0.0);
    }

    #[test]
    fn query_metrics_accumulate_and_render() {
        let m = QueryMetrics::default();
        m.record(&QueryTrace {
            cache_hit: false,
            index_lookup: Duration::from_micros(100),
            context_walk: Duration::from_micros(200),
            intersection: Duration::from_micros(10),
            collection: Duration::from_micros(40),
            total: Duration::from_micros(400),
            candidates: 7,
            fanout: 3,
            heap_evictions: 2,
        });
        m.record(&QueryTrace {
            cache_hit: true,
            total: Duration::from_micros(2),
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.parallel_queries, 1);
        assert_eq!(s.candidates, 7);
        assert_eq!(s.index_time, Duration::from_micros(100));
        assert_eq!(s.walk_time, Duration::from_micros(200));
        assert_eq!(s.total_time, Duration::from_micros(402));
        assert_eq!(s.cache_hit_rate(), 0.5);
        assert_eq!(s.mean_latency(), Duration::from_micros(201));
        assert_eq!(s.heap_evictions, 2);
        let node = s.to_node();
        assert_eq!(node.name, "query");
        assert_eq!(node.attr("cache-hits"), Some("1"));
        assert_eq!(node.attr("walk-us"), Some("200"));
        let topk = node.children_named("topk");
        assert_eq!(topk.len(), 1, "topk counters nest under <query/>");
        assert_eq!(topk[0].attr("heap-evictions"), Some("2"));
        assert_eq!(topk[0].attr("blocks-skipped"), None);
        assert_eq!(QueryStats::default().cache_hit_rate(), 0.0);
        assert_eq!(QueryStats::default().mean_latency(), Duration::ZERO);
        let delta = s.since(&s);
        assert_eq!(delta.queries, 0);
        assert_eq!(delta.total_time, Duration::ZERO);
    }

    #[test]
    fn index_stats_render() {
        let s = IndexStats {
            docs: 10,
            terms: 40,
            bytes: 4096,
            segments: 3,
            tombstones: 2,
            compactions: 1,
            segments_written: 5,
            ..Default::default()
        };
        let node = index_stats_node(&s);
        assert_eq!(node.name, "index");
        assert_eq!(node.attr("docs"), Some("10"));
        assert_eq!(node.attr("postings-bytes"), Some("4096"));
        assert_eq!(node.attr("blocks-total"), None);
        assert_eq!(node.attr("segments"), Some("3"));
        assert_eq!(node.attr("tombstones"), Some("2"));
        assert_eq!(node.attr("compactions"), Some("1"));
        assert_eq!(node.attr("segments-written"), Some("5"));
    }

    #[test]
    fn mvcc_stats_render() {
        let s = MvccStats {
            version: 42,
            live_views: 3,
            views_opened: 100,
            views_evicted: 1,
            publishes: 9,
            overlay_pages: 12,
            overlay_bytes: 98304,
        };
        let node = mvcc_stats_node(&s);
        assert_eq!(node.name, "mvcc");
        assert_eq!(node.attr("version"), Some("42"));
        assert_eq!(node.attr("live-views"), Some("3"));
        assert_eq!(node.attr("views-evicted"), Some("1"));
        assert_eq!(node.attr("overlay-pages"), Some("12"));
    }

    #[test]
    fn rates_and_deltas() {
        let m = IngestMetrics::default();
        m.record_store(10, 100, Duration::from_millis(1));
        let before = m.snapshot();
        m.record_store(40, 400, Duration::from_millis(1));
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.documents, 40);
        assert_eq!(delta.nodes, 400);
        assert_eq!(delta.docs_per_sec(Duration::from_secs(2)), 20.0);
        assert_eq!(delta.nodes_per_sec(Duration::from_secs(2)), 200.0);
        assert_eq!(IngestStats::default().docs_per_sec(Duration::ZERO), 0.0);
        assert_eq!(IngestStats::default().mean_batch_size(), 0.0);
    }

    #[test]
    fn query_stats_merge_sums_counters_and_maxes_gauges() {
        let a = QueryStats {
            queries: 10,
            cache_hits: 4,
            cache_misses: 6,
            parallel_queries: 2,
            candidates: 100,
            heap_evictions: 3,
            memo_hits: 30,
            memo_misses: 5,
            store_version: 7,
            live_views: 1,
            views_evicted: 2,
            index_time: Duration::from_micros(100),
            walk_time: Duration::from_micros(200),
            intersect_time: Duration::from_micros(300),
            collect_time: Duration::from_micros(400),
            total_time: Duration::from_micros(1000),
        };
        let b = QueryStats {
            queries: 3,
            cache_hits: 1,
            cache_misses: 2,
            parallel_queries: 1,
            candidates: 50,
            heap_evictions: 1,
            memo_hits: 10,
            memo_misses: 8,
            store_version: 12,
            live_views: 4,
            views_evicted: 1,
            index_time: Duration::from_micros(10),
            walk_time: Duration::from_micros(20),
            intersect_time: Duration::from_micros(30),
            collect_time: Duration::from_micros(40),
            total_time: Duration::from_micros(100),
        };
        let mut merged = a;
        merged.merge(&b);
        // Counters sum…
        assert_eq!(merged.queries, 13);
        assert_eq!(merged.cache_hits, 5);
        assert_eq!(merged.cache_misses, 8);
        assert_eq!(merged.parallel_queries, 3);
        assert_eq!(merged.candidates, 150);
        assert_eq!(merged.heap_evictions, 4);
        assert_eq!(merged.memo_hits, 40);
        assert_eq!(merged.memo_misses, 13);
        assert_eq!(merged.views_evicted, 3);
        assert_eq!(merged.total_time, Duration::from_micros(1100));
        assert_eq!(merged.index_time, Duration::from_micros(110));
        // …gauges take the max, never the sum.
        assert_eq!(merged.store_version, 12);
        assert_eq!(merged.live_views, 4);
        // Merge order must not matter.
        let mut other = b;
        other.merge(&a);
        assert_eq!(merged, other);
    }
}
